"""The benchmark tracer, the benchmark's self-test and the demo scripts keep
working against the package: every name the tracer wraps resolves, the
self-test's checks hold, and every demo runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
