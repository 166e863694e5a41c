"""The benchmark tracer, the benchmark's self-test and the demo scripts keep
working against the package: every name the tracer wraps resolves, the
self-test's checks hold, and every demo runs.  Every exported name is used
by the tool, or README says why it is kept."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import sigmagroups

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    return spans


def test_tracer_installs_and_uninstalls(spans):
    from sigmagroups import harness, permcore, structure
    originals = (structure.all_subgroups, permcore.Subgroup.__init__, harness.verify_group)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(tracer._installed) > 0
        assert structure.all_subgroups is not originals[0]
    finally:
        tracer.uninstall()
    assert tracer._installed == []
    assert (structure.all_subgroups, permcore.Subgroup.__init__,
            harness.verify_group) == originals


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_selftest_passes(benchmark_selftest):
    stdout, stderr = benchmark_selftest.communicate(timeout=300)
    assert benchmark_selftest.returncode == 0, stdout[-2000:] + stderr[-2000:]


# Exported names that no package module, demo or benchmark script uses, each
# with its reason in README's quickstart, which the test finds there
KEPT_FOR_LIBRARY_CALLERS = {
    "full_subgroup": "`full_subgroup(G)` is G as a `Subgroup`",
}


def names_used_outside_init() -> set[str]:
    """Every name, attribute, imported name and string constant in the
    package modules other than ``__init__``, the demos and the benchmark
    scripts (the tracer names what it wraps in strings)."""
    files = [p for p in (ROOT / "src" / "sigmagroups").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_exported_names_are_used():
    exported = {name for name, value in vars(sigmagroups).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    unused = exported - names_used_outside_init()
    assert unused == set(KEPT_FOR_LIBRARY_CALLERS)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme[readme.index("## Library quickstart"):readme.index("## Command-line")]
    for reason in KEPT_FOR_LIBRARY_CALLERS.values():
        assert reason in quickstart
