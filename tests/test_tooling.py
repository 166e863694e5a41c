"""The benchmark tracer, the benchmark's self-test and the demo scripts keep
working against the package: every name the tracer wraps resolves, the
self-test's checks hold, and every demo runs.  Every exported name is used
by the tool, or README says why it is kept."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import sigmagroups
from sigmagroups import Limits

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
    "trivial_subgroup": "`trivial_subgroup(G)` is the subgroup 1 of G",
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


def module_nodes(module: str) -> list[ast.AST]:
    """Every node of a package module's syntax tree."""
    path = ROOT / "src" / "sigmagroups" / module
    return list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def names_of(nodes) -> set[str]:
    """Every name, attribute, imported name and ``def`` name among ``nodes``."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return names


def names_in_module(module: str) -> set[str]:
    """Every name, attribute, imported name and ``def`` name in a package module."""
    return names_of(module_nodes(module))


def test_sigma_reads_no_normal_lattice():
    """The sigma verdicts, the residual and O_pi(D) come from subgroups
    generated by elements: ``sigma.py`` names no normal-lattice entry point."""
    assert names_in_module("sigma.py").isdisjoint({"normal_subgroups", "_normal_lattice"})


def test_harness_compares_subgroups_not_image_sets():
    """The verifiers compare subgroups as masks on a root: ``harness.py``
    names no call that builds or takes a set of image tuples."""
    assert names_in_module("harness.py").isdisjoint(
        {"element_images", "image_set", "closure_of_images"})


def test_harness_builds_no_quotient_group():
    """Lem2.4 reads G/N in G's normal lattice: ``harness.py`` names no
    quotient construction."""
    assert "quotient_group" not in names_in_module("harness.py")


def test_harness_reads_normal_subgroups_off_the_normal_lattice():
    """Lem2.3 reads E n Phi(G), and Lem2.5 reads O_pi(D), in G's normal
    lattice: ``harness.py`` names none of the engine's own reads of them,
    which stay for the library and its tests."""
    assert names_in_module("harness.py").isdisjoint(
        {"largest_normal_block_subgroup", "intersection_subgroup"})


def test_reading_a_corpus_file_builds_no_group():
    """A corpus file is read, not built: its entries' orders are checked by
    ``CorpusEntry.build``, so ``parse_corpus_file`` names no group build."""
    assert names_by_function("corpus.py")["parse_corpus_file"].isdisjoint(
        {"generated", "build", "PermGroup"})


def names_by_function(module: str) -> dict[str, set[str]]:
    """The names of a package module, as ``names_in_module`` finds them, per
    top-level function or method (``Class.method``).  Nested functions count
    toward the one around them, and all else toward ``<module>``."""
    tree = ast.parse((ROOT / "src" / "sigmagroups" / module).read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for top in tree.body:
        in_class = isinstance(top, ast.ClassDef)
        for member in top.body if in_class else [top]:
            owner = "<module>"
            if isinstance(member, ast.FunctionDef):
                owner = f"{top.name}.{member.name}" if in_class else member.name
            out.setdefault(owner, set()).update(names_of(ast.walk(member)))
    return out


IMAGE_SET_NAMES = {"element_images", "image_set", "_element_set"}
PUBLIC_IMAGE_SET_CALLS = {"PermGroup.element_images", "Subgroup.element_images",
                          "subgroup_from_images", "conjugate_image_sets",
                          "sigma_permutable_sets"}


def test_engine_builds_image_sets_only_in_the_public_calls():
    """A root's one hashed view of its elements is its element index:
    interning and quotients key a root by its sorted image tuples, so in
    ``permcore.py``, ``structure.py`` and ``sigma.py`` only the public calls
    that take or return image-tuple sets name ``element_images``,
    ``image_set`` or ``_element_set``."""
    owners = {owner for module in ("permcore.py", "structure.py", "sigma.py")
              for owner, names in names_by_function(module).items()
              if names & IMAGE_SET_NAMES}
    assert owners <= PUBLIC_IMAGE_SET_CALLS, sorted(owners - PUBLIC_IMAGE_SET_CALLS)
    assert "PermGroup.element_images" in owners


def test_sigma_reads_table_rows_only_for_power_automorphisms():
    """AW == WA is decided by orders on the lattice, so no product of
    subgroups is built on the table: in ``sigma.py`` only
    ``induces_power_automorphisms`` reads a table's ``rows`` or ``inverse``."""
    readers = {owner for owner, names in names_by_function("sigma.py").items()
               if names & {"rows", "inverse"}}
    assert readers == {"induces_power_automorphisms"}


def test_cli_reads_its_caps_off_limits():
    """The command line's caps come from ``Limits``'s fields, so ``cli.py``
    names none of them, nor spells one as a string or an option: a bound
    added to ``Limits`` becomes an option with no edit there."""
    caps = {cap.name for cap in dataclasses.fields(Limits)}
    assert names_in_module("cli.py").isdisjoint(caps)
    texts = {node.value for node in module_nodes("cli.py")
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert texts.isdisjoint(caps | {"--" + cap.replace("_", "-") for cap in caps})


def test_cli_help_states_each_cap_from_limits(capsys):
    """Each cap option's help is the text in its ``Limits`` field's
    metadata, and the table bound's states the table's memory figure."""
    from sigmagroups.cli import main
    assert main(["campaign", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for cap in dataclasses.fields(Limits):
        assert f"{cap.metadata['help']} (default {cap.default})" in text, cap.name
    assert "2*n^2 bytes: 32 MiB at 4096, 8 GiB at 65536" in text


def test_lattice_reads_by_order_go_through_the_index():
    """No comprehension in ``sigma.py`` or ``harness.py`` walks a call to
    ``all_subgroups`` and filters on ``.order``: the subgroups of one order
    are read off the by-order index, through ``subgroups_of_order``."""
    offenders = [(module, node.iter.lineno)
                 for module in ("sigma.py", "harness.py") for node in module_nodes(module)
                 if isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Call)
                 and callee(node.iter) == "all_subgroups"
                 and any(isinstance(n, ast.Attribute) and n.attr == "order"
                         for cond in node.ifs for n in ast.walk(cond))]
    assert offenders == []


def test_table_bound_has_one_check():
    """``structure._check_table_room`` is the only table-bound check, and the
    table bound is the one bound on a group's order: no module names an
    element-cache bound or passes a bound to an element listing."""
    for path in (ROOT / "src" / "sigmagroups").glob("*.py"):
        names = names_in_module(path.name)
        assert names.isdisjoint({"check_table_order", "element_cache_bound"}), path.name
        bounded = [node.lineno for node in module_nodes(path.name)
                   if isinstance(node, ast.Call)
                   and callee(node) in ("elements", "element_images")
                   and (node.args or node.keywords)]
        assert bounded == [], path.name


def test_no_limits_are_optional():
    """Every call that takes limits gets them: no annotation in the package
    admits ``Limits | None``, so no call can take a limit-free second rule."""
    optional = [(path.name, node.lineno)
                for path in (ROOT / "src" / "sigmagroups").glob("*.py")
                for node in module_nodes(path.name)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
                and {ast.dump(node.left), ast.dump(node.right)}
                == {ast.dump(ast.Name("Limits", ast.Load())), ast.dump(ast.Constant(None))}]
    assert optional == []


def cache_writers(module: str) -> set[str]:
    """The top-level functions and methods of a package module that store
    into a ``.cache`` subscript, or into a name bound to a ``.cache``, or
    call ``setdefault`` or ``update`` on either."""
    tree = ast.parse((ROOT / "src" / "sigmagroups" / module).read_text(encoding="utf-8"))
    writers = set()
    for top in tree.body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            nodes = list(ast.walk(fn))
            aliases = {t.id for node in nodes if isinstance(node, ast.Assign)
                       and isinstance(node.value, ast.Attribute) and node.value.attr == "cache"
                       for t in node.targets if isinstance(t, ast.Name)}

            def is_cache(v: ast.AST) -> bool:
                return ((isinstance(v, ast.Attribute) and v.attr == "cache")
                        or (isinstance(v, ast.Name) and v.id in aliases))
            if any((isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and is_cache(node.value))
                   or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr in ("setdefault", "update")
                       and is_cache(node.func.value))
                   for node in nodes):
                writers.add(fn.name)
    return writers


def test_structure_and_sigma_cache_only_through_memo():
    """``structure._memo`` is the one cache of results derived on a root, and
    it checks the caller's table bound on every read; the one other write
    is ``_bounded_lattice``'s marker of a lattice known to be over the
    subgroup bound.  So no second cache, with a second bound rule, can
    come back."""
    assert cache_writers("structure.py") == {"_memo", "_bounded_lattice"}
    assert cache_writers("sigma.py") == set()


def test_sigma_memo_keys_carry_limits_only_for_lattice_reads():
    """``_memo(G, limits, compute, kind, ...)`` checks the table bound on
    every read, so a result that reads only the root's table is cached
    once per root and mask, with no limits in its key.  Only the three
    computes that read a lattice, and so may reach the subgroup bound, key
    on the caller's limits: the Hall data of a block, PsigmaT and the
    Lemma 2.1 scan.  The per-block memos, R_i and the Hall data of a block,
    are keyed first by the block's prime set, a parameter of their
    function, not by sigma.  Sigma-nilpotency and sigma-solubility have no
    memo of their own: they read R_i, and ``structure``'s one memo of P(G),
    whose key is its kind alone, neither a partition nor limits."""
    keyed = {}
    first = {}
    for node in module_nodes("sigma.py"):
        if isinstance(node, ast.Call) and callee(node) == "_memo":
            kind, *rest = node.args[3:]
            keyed[kind.value] = any(isinstance(k, ast.Name) and k.id == "limits" for k in rest)
            first[kind.value] = rest[0].id if rest and isinstance(rest[0], ast.Name) else None
    assert {kind for kind, has_limits in keyed.items() if has_limits} == \
        {"hall-block", "psigma-t", "sylow-type"}
    assert set(keyed) == {"hall-block", "psigma-t", "block-generated", "sigma-residual",
                          "class-closures", "sylow-type"}
    assert (first["block-generated"], first["hall-block"]) == ("primes", "ps")
    fact = [node.args[4:] for node in module_nodes("structure.py")
            if isinstance(node, ast.Call) and callee(node) == "_memo"
            and getattr(node.args[3], "value", None) == "insoluble-primes"]
    assert fact == [[]]


SIGMA_MEMOS = {"psigma-t", "sigma-residual", "sylow-type"}


def test_every_sigma_memo_is_keyed_by_sigma_key():
    """Every memo whose result depends on the whole partition takes its key
    from ``sigma._sigma_key``, sigma(G) as prime sets, as a call or as a
    name bound to one, so partitions that agree on pi(G) share one result;
    and ``_sigma_key`` keys no other memo, since the per-block memos are
    keyed by one block's primes.  No partition text keys a memo: in
    ``sigma.py`` only ``SigmaPartition.__str__`` calls ``text``."""
    def is_key_call(node):
        return isinstance(node, ast.Call) and callee(node) == "_sigma_key"

    tree = ast.parse((ROOT / "src" / "sigmagroups" / "sigma.py").read_text(encoding="utf-8"))
    kinds = set()
    text_callers = set()
    for top in tree.body:
        for member in top.body if isinstance(top, ast.ClassDef) else [top]:
            nodes = list(ast.walk(member))
            bound = {target.id for node in nodes if isinstance(node, ast.Assign)
                     and is_key_call(node.value) for target in node.targets}
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                if callee(node) == "text" and isinstance(node.func, ast.Attribute):
                    text_callers.add(member.name)
                if callee(node) == "_memo":
                    key = node.args[4] if len(node.args) > 4 else None
                    if is_key_call(key) or isinstance(key, ast.Name) and key.id in bound:
                        kinds.add(node.args[3].value)
                    else:
                        assert node.args[3].value not in SIGMA_MEMOS, node.args[3].value
    assert kinds == SIGMA_MEMOS
    assert text_callers == {"__str__"}


def test_element_orders_come_from_cycle_types():
    """An element's order has one definition, ``permcore.images_order`` on
    its cycle type: ``_ElementTable.element_orders`` reads it, and
    ``structure.py`` walks no powers to derive orders by ``gcd``."""
    assert "images_order" in names_by_function("structure.py")["_ElementTable.element_orders"]
    assert "gcd" not in names_in_module("structure.py")


CHAIN_METHODS = ("_sift", "_extend_orbit", "_verify_level", "__contains__", "elements")
COMPOSITIONS = {"itemgetter", "attrgetter", "methodcaller", "compose_images",
                "conjugate_images", "translate", "__getitem__"}


def bindings(node: ast.AST) -> list[tuple[str, ast.AST]]:
    """(name, value) for each plain name an assignment binds, also in a
    tuple assignment of a tuple."""
    out = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.append((target.id, node.value))
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                out += [(t.id, v) for t, v in zip(target.elts, node.value.elts)
                        if isinstance(t, ast.Name)]
    return out


def callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def mapped(call: ast.Call) -> str | None:
    """The function a ``map`` call maps, when it is a plain name; "" for
    anything else; None for a call that is not ``map``."""
    if callee(call) != "map":
        return None
    return call.args[0].id if isinstance(call.args[0], ast.Name) else ""


def is_self_gather(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "_gather"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def permgroup_methods() -> dict[str, ast.FunctionDef]:
    group = next(node for node in module_nodes("permcore.py")
                 if isinstance(node, ast.ClassDef) and node.name == "PermGroup")
    return {f.name: f for f in group.body if isinstance(f, ast.FunctionDef)}


def test_permcore_composes_by_gathers():
    """Every composition in ``permcore.py`` is one C-level gather: no
    ``map(x.__getitem__, ...)`` call, which makes one Python-level call per
    point.  The chain composes only by the group's one gather,
    ``self._gather``, which only ``__init__`` sets, from the degree: each of
    its methods binds ``gather`` to it alone and calls it (or maps it), and
    none calls or maps another composition (``itemgetter``, ``translate``,
    ``compose_images``, ...), maps a bound method such as ``e.translate``,
    or gathers point by point in a comprehension."""
    nodes = module_nodes("permcore.py")
    per_point = [node.lineno for node in nodes
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "map" and node.args
                 and isinstance(node.args[0], ast.Attribute)
                 and node.args[0].attr == "__getitem__"]
    assert per_point == []
    methods = permgroup_methods()
    setters = {name for name, f in methods.items() for node in ast.walk(f)
               if isinstance(node, ast.Assign)
               and any(is_self_gather(t) for target in node.targets
                       for t in getattr(target, "elts", [target]))}
    assert setters == {"__init__"}
    for name in CHAIN_METHODS:
        body = list(ast.walk(methods[name]))
        bound = [value for node in body for target, value in bindings(node) if target == "gather"]
        assert bound and all(map(is_self_gather, bound)), name
        calls = [node for node in body if isinstance(node, ast.Call)]
        assert any("gather" in (callee(c), mapped(c)) for c in calls), name
        assert [callee(c) for c in calls if callee(c) in COMPOSITIONS] == [], name
        assert [c.lineno for c in calls if mapped(c) == "" or mapped(c) in COMPOSITIONS] == [], name
        assert [node.lineno for node in body
                if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
                and isinstance(node.elt, ast.Subscript)] == [], name


def test_sift_reads_levels_by_subscript():
    """``PermGroup._sift`` finds a level's inverse rep by one list subscript:
    it binds ``level`` to an entry of ``self._inverses``, a table of slots
    indexed by point, reads ``level[p]``, and calls no ``get``, the dict
    lookup that table replaced.  The membership loop, ``__contains__``,
    walks ``self._levels``, the (point, slots) pairs of the stored levels,
    and reads ``level[q]`` the same way."""
    methods = permgroup_methods()
    body = list(ast.walk(methods["_sift"]))
    bound = dict(pair for node in body for pair in bindings(node))
    assert ast.unparse(bound["inverses"]) == "self._inverses"
    assert ast.unparse(bound["level"]) == "inverses[i]"
    assert "level[p]" in {ast.unparse(node) for node in body if isinstance(node, ast.Subscript)}
    assert [c.lineno for c in body if isinstance(c, ast.Call) and callee(c) == "get"] == []
    body = list(ast.walk(methods["__contains__"]))
    loops = [(ast.unparse(node.target), ast.unparse(node.iter))
             for node in body if isinstance(node, ast.For)]
    assert loops == [("(i, level)", "self._levels")]
    assert "level[q]" in {ast.unparse(node) for node in body if isinstance(node, ast.Subscript)}
    assert [c.lineno for c in body if isinstance(c, ast.Call) and callee(c) == "get"] == []


def binders(attribute: str) -> list[str]:
    """The ``PermGroup`` methods, in class order, with each assignment that
    binds the attribute or an item or slice of it."""
    return [name for name, f in permgroup_methods().items() for node in ast.walk(f)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for sub in ast.walk(target) if ast.unparse(sub) == attribute]


def test_stored_levels_are_derived_in_one_place():
    """``_levels`` is assigned in exactly one method of ``PermGroup``,
    after the chain is built, so no second derivation can drift from it."""
    assert binders("self._levels") == ["__init__"]


def test_full_sizes_are_derived_in_one_place():
    """``_full``, the orbit size each level has in Sym or Alt of the moved
    points, is bound only in its helper, ``_derive_full_sizes``.
    ``_full_from``, the least level from which every orbit has that size,
    is bound only in ``_lower_full_from``, the one walk down over full
    levels that both ``_derive_full_sizes`` and ``_extend_orbit`` call, so
    no second derivation can drift from them."""
    assert binders("self._full") == ["_derive_full_sizes"]
    assert binders("self._full_from") == ["_lower_full_from"]


def test_rep_set_grows_in_one_place():
    """``self._reps``, the set of every stored transversal rep, is bound
    only in ``__init__`` and added to only in ``_extend_orbit``, where a
    rep is stored, through ``self._reps`` or a local name bound to it; no
    method replaces, removes from or empties it, so a chain extended in
    place keeps it with its transversals."""
    binders, writers = [], []
    for name, f in permgroup_methods().items():
        body = list(ast.walk(f))
        aliases = {"self._reps"} | {alias for node in body for alias, value in bindings(node)
                                    if ast.unparse(value) == "self._reps"}
        for node in body:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                binders += [name for t in targets for sub in ast.walk(t)
                            if ast.unparse(sub) == "self._reps"]
                if isinstance(node, ast.AugAssign) and ast.unparse(node.target) in aliases:
                    writers.append((name, "augmented"))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and ast.unparse(node.func.value) in aliases):
                writers.append((name, node.func.attr))
    assert binders == ["__init__"]
    assert writers == [("_extend_orbit", "add")]


def test_cli_import_loads_no_process_pool():
    """The process pool is imported only when a campaign runs more than one
    job, so importing the CLI loads neither it nor multiprocessing."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, sigmagroups.cli; "
             "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_code_lines_count_neither_comments_nor_docstrings(monkeypatch):
    """The code-line count skips a docstring, a comment and a blank line,
    and counts a call spread over two lines as two lines and a string that
    is not a docstring as code."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import code_lines
    snippet = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "# a comment\n"
        "\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    return max(x,  # a trailing comment\n"
        "               0)\n"
        'NAME = "a string"\n')
    assert code_lines.code_lines(snippet) == 4


def test_every_mutant_anchor_occurs_once(monkeypatch):
    """Each committed mutant's anchor occurs exactly once in its file, so a
    refactor that moves the code it mutates must move the mutant too."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import mutants
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.anchor) == 1, m.name
        assert m.anchor != m.replacement, m.name
        assert all((ROOT / t).is_file() for t in m.tests), m.name
