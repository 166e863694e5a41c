"""A committed mutation run: planted faults that the test suite must catch.

Each mutant is one exact source replacement, an anchor text in one file of
``src/sigmagroups`` and what replaces it, together with the test files
expected to kill it.  For each mutant the tree is copied to a temporary
directory and the mutant applied there; those test files run with ``-x``,
and when they all pass the whole suite runs.  A mutant is killed when a run
fails or outlasts ``TIMEOUT`` seconds, and survives when the whole suite
passes.  A survivor is a gap in the suite: it is mended with a test, never
by changing or deleting the mutant.

    python tools/mutants.py

The exit status is 1 when a mutant survives.  Only the standard library and
pytest are used.  ``tests/test_tooling.py`` checks, inside the suite, that
every anchor occurs exactly once in its file, so code that moves takes its
mutant along rather than dropping it unnoticed.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds one pytest run may take before it counts as a kill


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    anchor: str         # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # numbers.trial_division: the square stop and the limit cap, each at its
    # boundary, and the cap removed (a declared order then stalls the read)
    Mutant("trial-square-stop-strict", "src/sigmagroups/numbers.py",
           "while d <= limit and d * d <= n:", "while d <= limit and d * d < n:",
           ("tests/test_corpus.py",)),
    Mutant("trial-limit-cap-strict", "src/sigmagroups/numbers.py",
           "while d <= limit and d * d <= n:", "while d < limit and d * d <= n:",
           ("tests/test_corpus.py",)),
    Mutant("trial-limit-cap-removed", "src/sigmagroups/numbers.py",
           "while d <= limit and d * d <= n:", "while d * d <= n:",
           ("tests/test_corpus.py",)),
    # CorpusEntry: Legendre's comparison admits the exponent p has in degree!
    Mutant("legendre-tie", "src/sigmagroups/corpus.py",
           "if e > sum(self.degree // p ** k", "if e >= sum(self.degree // p ** k",
           ("tests/test_corpus.py",)),
    # validate_covering_witness refuses a V that is no maximal Sylow subgroup
    Mutant("witness-sylow-maximal-check", "src/sigmagroups/harness.py",
           "    if V not in _sylow_maximal_candidates(G, limits):\n        return False\n",
           "", ("tests/test_harness.py",)),
    # the chain build: a Schreier generator that is a stored rep is not sifted
    Mutant("chain-stored-rep-skip", "src/sigmagroups/permcore.py",
           "                if y in reps:\n                    continue\n",
           "", ("tests/test_chains.py",)),
    # the full-size table: Alt(Omega) only when every generator is even
    Mutant("chain-full-sizes-parity", "src/sigmagroups/permcore.py",
           "even = all((sum(map(len, cycles)) - len(cycles)) % 2 == 0 for cycles in walks)",
           "even = True", ("tests/test_chains.py",)),
    # the walk down over full levels ends at the first level that is not full
    Mutant("chain-full-walk-one-short", "src/sigmagroups/permcore.py",
           "        self._full_from = start\n", "        self._full_from = start + 1\n",
           ("tests/test_chains.py",)),
    # a residue joins the levels up to the one its sift stopped at
    Mutant("chain-residue-level", "src/sigmagroups/permcore.py",
           "                    return i, x\n", "                    return i + 1, x\n",
           ("tests/test_chains.py",)),
    # verification stops only when every level below i is full, not from i + 2
    Mutant("chain-full-skip-one-level-up", "src/sigmagroups/permcore.py",
           "        if self._full_from <= i + 1:", "        if self._full_from <= i + 2:",
           ("tests/test_chains.py",)),
    # an orbit is left at once only at its full size, not one point short
    Mutant("chain-full-orbit-return", "src/sigmagroups/permcore.py",
           "        if (len(trans) if trans else 1) == full[i]:",
           "        if (len(trans) if trans else 1) >= full[i] - 1:",
           ("tests/test_chains.py",)),
    # membership: what is left after the stored levels must be the identity
    Mutant("membership-identity-check", "src/sigmagroups/permcore.py",
           "        return x == self._identity\n", "        return True\n",
           ("tests/test_chains.py", "tests/test_permcore.py")),
    # the table bound and the lattice bound admit exactly their own value
    Mutant("table-bound-boundary", "src/sigmagroups/structure.py",
           "    if order > limits.table_order_bound:", "    if order >= limits.table_order_bound:",
           ("tests/test_structure.py", "tests/test_corpus.py")),
    Mutant("lattice-bound-boundary", "src/sigmagroups/structure.py",
           "    if size > limits.subgroup_bound:", "    if size >= limits.subgroup_bound:",
           ("tests/test_structure.py",)),
    # Subgroup._bind refuses a mask whose size does not divide |G|
    Mutant("subgroup-lagrange-check", "src/sigmagroups/permcore.py",
           "        if group.order % self.order:", "        if False:",
           ("tests/test_permcore.py",)),
    # is_sigma_permutable: a one-member class is a normal Hall subgroup, which
    # permutes with every subgroup, so it is not tested (no verdict changes
    # without the shortcut; a class of exactly two members cannot occur, so
    # widening it to "<= 2" would be an equivalent mutant)
    Mutant("permutable-normal-hall-shortcut", "src/sigmagroups/sigma.py",
           "any(len(cls) == 1 or all(", "any(all(", ("tests/test_sigma.py",)),
    # AW == WA: some subgroup of order |AW| holds both A and W
    Mutant("permutes-holds-both", "src/sigmagroups/sigma.py",
           "any(h.mask & both == both for h in subgroups_of_order(G, n, limits))",
           "any(h.mask & A.mask == A.mask for h in subgroups_of_order(G, n, limits))",
           ("tests/test_sigma.py",)),
    # an AW == WA that always holds makes some H^G/H_G not sigma-nilpotent
    Mutant("permutes-always", "src/sigmagroups/sigma.py",
           "    return G.order % n == 0 and any(", "    return True or any(",
           ("tests/test_sigma.py",)),
    # every sigma memo is keyed by all the blocks of sigma(G), and a Lemma 2.1
    # violation recorded by its block's primes is reported by the caller's id
    Mutant("sigma-key-first-block", "src/sigmagroups/sigma.py",
           "    return tuple(ps for _, ps, _ in _order_blocks(G.order, sigma))\n",
           "    return tuple(ps for _, ps, _ in _order_blocks(G.order, sigma))[:1]\n",
           ("tests/test_sigma.py",)),
    Mutant("sylow-type-block-id", "src/sigmagroups/sigma.py",
           '"block": sigma.block_id(min(violation["block"]))}', '"block": violation["block"]}',
           ("tests/test_sigma.py",)),
    # a block's Hall subgroup is forced only when R_i has the block's order
    Mutant("hall-forced-block", "src/sigmagroups/sigma.py",
           "        if forced.bit_count() == part:", "        if forced.bit_count() >= part:",
           ("tests/test_sigma.py", "tests/test_differential.py")),
    # G is sigma-nilpotent when every block's R_i has the block's order, not
    # some block's; the trivial group, with no block to read, still meets
    # the table bound in sigma-nilpotency and in the Hall data
    Mutant("sigma-nilpotent-every-block", "src/sigmagroups/sigma.py",
           "    return all(_block_generated(G, ps, limits).bit_count() == part",
           "    return any(_block_generated(G, ps, limits).bit_count() == part",
           ("tests/test_sigma.py",)),
    Mutant("sigma-nilpotent-table-bound", "src/sigmagroups/sigma.py",
           "    _check_table_room(G.root.order, limits)\n    return all(",
           "    return all(", ("tests/test_structure.py",)),
    Mutant("hall-data-table-bound", "src/sigmagroups/sigma.py",
           "    _check_table_room(G.root.order, limits)\n    return [_hall_block(",
           "    return [_hall_block(", ("tests/test_structure.py",)),
    # P(G): the walk at q takes O^{q'}(X) over the primes other than q, and
    # G is sigma-soluble only when one block of sigma holds all of P(G)
    Mutant("insoluble-primes-second-block-keeps-q", "src/sigmagroups/structure.py",
           "                for ps in ({q}, primes - {q}):",
           "                for ps in ({q}, primes):", ("tests/test_structure.py",)),
    # Burnside: only a group with at most two primes is soluble with no walk
    Mutant("insoluble-primes-burnside-guard", "src/sigmagroups/structure.py",
           "for q in primes if len(primes) > 2 else ():",
           "for q in primes if len(primes) > 3 else ():", ("tests/test_structure.py",)),
    Mutant("sigma-soluble-two-blocks", "src/sigmagroups/sigma.py",
           "for p in _insoluble_primes(G, limits)}) <= 1",
           "for p in _insoluble_primes(G, limits)}) <= 2", ("tests/test_sigma.py",)),
    # the table is fetched only by code that reads its rows: P(G) inside the
    # walk, which a group with at most two primes does not take, and the
    # residual only for a block whose R_i is not of the block's order
    Mutant("insoluble-primes-table-before-walk", "src/sigmagroups/structure.py",
           "        primes = primes_of(G.order)\n        stalled = set()\n",
           "        _element_table(G.root, limits)\n"
           "        primes = primes_of(G.order)\n        stalled = set()\n",
           ("tests/test_sigma.py",)),
    Mutant("residual-table-for-every-block", "src/sigmagroups/sigma.py",
           "        table, union = None, 1\n",
           "        table, union = _element_table(G.root, limits), 1\n", ("tests/test_sigma.py",)),
    # only the trivial mask is a greedy subgroup with no generators
    Mutant("greedy-trivial-mask-only", "src/sigmagroups/structure.py",
           "        if mask == 1:\n            return Subgroup._of_mask(G, mask, ())",
           "        if mask.bit_count() <= 2:\n            return Subgroup._of_mask(G, mask, ())",
           ("tests/test_structure.py", "tests/test_sigma.py")),
    # a complete Hall sigma-set keeps each block's first candidate, and two
    # sets are equal by root, ids and masks, whatever limits found them
    Mutant("hall-set-first-candidate", "src/sigmagroups/sigma.py",
           '        mask = block["candidates"][0]\n', '        mask = block["candidates"][-1]\n',
           ("tests/test_sigma.py",)),
    Mutant("hall-set-equal-across-limits", "src/sigmagroups/sigma.py",
           "field(default=DEFAULT_LIMITS, compare=False, repr=False)",
           "field(default=DEFAULT_LIMITS, repr=False)", ("tests/test_sigma.py",)),
    # the residual tests normality whenever D is not trivial
    Mutant("residual-normality-above-one", "src/sigmagroups/sigma.py",
           "(D.mask == 1 or _is_normal_in(table, G, D))",
           "(D.mask >= 1 or _is_normal_in(table, G, D))", ("tests/test_sigma.py",)),
    # InvariantError guard: O_sigma_i(D) lies inside its block
    Mutant("block-subgroup-invariant-guard", "src/sigmagroups/sigma.py",
           "    if not primes_of(join.bit_count()) <= block_primes:",
           "    if False:", ("tests/test_sigma.py",)),
    # a count is at least 1
    Mutant("count-at-least-one", "src/sigmagroups/errors.py",
           "    if value < 1:", "    if value < 0:", ("tests/test_corpus.py",)),
    # the decisive comparisons of the verifiers
    Mutant("lemma-2-2-decision", "src/sigmagroups/harness.py",
           "None if separable == conditions else witness",
           "None if separable != conditions else witness", ("tests/test_harness.py",)),
    Mutant("lemma-2-1-decision", "src/sigmagroups/harness.py",
           "None if violation is None else", "None if violation is not None else",
           ("tests/test_harness.py",)),
    Mutant("lemma-2-4-decision", "src/sigmagroups/harness.py",
           "if lhs is not rhs), None)", "if lhs is rhs), None)", ("tests/test_harness.py",)),
    Mutant("covering-supplement-decision", "src/sigmagroups/harness.py",
           "        if in_class_t is None:", "        if in_class_t is not None:",
           ("tests/test_harness.py",)),
    Mutant("lemma-2-5-complements-meet-trivially", "src/sigmagroups/harness.py",
           "if M.mask & D.mask == 1)", "if M.mask & D.mask != 1)", ("tests/test_harness.py",)),
    Mutant("lemma-2-3-decision", "src/sigmagroups/harness.py",
           '{"failures": failures} if failures else None',
           '{"failures": failures} if not failures else None', ("tests/test_harness.py",)),
    Mutant("lemma-2-5-forward-decision", "src/sigmagroups/harness.py",
           "if problems else None", "if not problems else None", ("tests/test_harness.py",)),
    # the failure branches of Lem2.3 and Lem2.5.fwd that only a planted
    # fault reaches: each one dropped
    Mutant("lemma-2-3-normal-product-failure", "src/sigmagroups/harness.py",
           '                failures.append({"part": "normal-product",\n'
           '                                 "N1": _sub_json(n1), "N2": _sub_json(n2)})\n',
           "                pass\n", ("tests/test_harness.py",)),
    Mutant("lemma-2-3-quotient-failure", "src/sigmagroups/harness.py",
           'failures.append({"part": "quotient", "N": _sub_json(n)})', "pass",
           ("tests/test_harness.py",)),
    Mutant("lemma-2-5-no-complement-problem", "src/sigmagroups/harness.py",
           'problems.append("no complement M to D exists")', "pass", ("tests/test_harness.py",)),
    Mutant("lemma-2-5-complement-nilpotent-problem", "src/sigmagroups/harness.py",
           'problems.append("complement M is not sigma-nilpotent")', "pass",
           ("tests/test_harness.py",)),
    Mutant("lemma-2-5-condition-ii-problem", "src/sigmagroups/harness.py",
           'problems.append("condition (ii) fails for some block")', "pass",
           ("tests/test_harness.py",)),
    # a confirmed lemma row keeps its verifier's vacuous flag
    Mutant("lemma-row-keeps-vacuous", "src/sigmagroups/harness.py",
           '"confirmed", vacuous=vacuous,', '"confirmed",', ("tests/test_harness.py",)),
    # G/N sigma-nilpotent, read in the normal lattice
    Mutant("nilpotent-section-every-block", "src/sigmagroups/harness.py",
           "    return all(k * part_for_primes(index, ps) in between",
           "    return any(k * part_for_primes(index, ps) in between",
           ("tests/test_harness.py", "tests/test_sigma.py")),
    # the residual's own check: |R_i| = |R_i n D| |G:D|_{sigma_i} at every
    # block (">=" always holds, since R_i D/D holds the Sylows of G/D)
    Mutant("residual-quotient-check", "src/sigmagroups/sigma.py",
           "r.bit_count() == (r & D.mask).bit_count() * part_for_primes(index, ps)",
           "r.bit_count() >= (r & D.mask).bit_count() * part_for_primes(index, ps)",
           ("tests/test_sigma.py",)),
    # a non-vacuous ThmA.i confirmation needs a non-vacuous ThmA.ii one
    Mutant("class-monotonicity-check", "src/sigmagroups/harness.py",
           'if r.verdict == partner.verdict == "confirmed" and not r.vacuous and partner.vacuous:',
           "if False:", ("tests/test_harness.py",)),
    # pi-separability is asked at pi n pi(G), whatever primes pi adds
    Mutant("pi-partition-restriction", "src/sigmagroups/sigma.py",
           "    pi_in = frozenset(pi) & primes_of(order)\n",
           "    pi_in = frozenset(pi)\n",
           ("tests/test_differential.py",)),
    Mutant("part-for-primes", "src/sigmagroups/numbers.py",
           "        if p in primes:", "        if p not in primes:", ("tests/test_sigma.py",)),
    # input checks: corpus files, permutations, subgroups, limits
    Mutant("corpus-prime-above-degree-boundary", "src/sigmagroups/corpus.py",
           "        if rest > self.degree:", "        if rest >= self.degree:",
           ("tests/test_corpus.py",)),
    Mutant("corpus-duplicate-name", "src/sigmagroups/corpus.py",
           "            if fields[1] in names:", "            if False:", ("tests/test_corpus.py",)),
    # the corpus reader closes an open entry at the next header as at a blank
    # line, and numbers the end of the file one past its last line
    Mutant("corpus-header-closes-entry", "src/sigmagroups/corpus.py",
           'if name is not None and kind in ("", "group"):', "if name is not None and not kind:",
           ("tests/test_corpus.py",)),
    Mutant("corpus-end-of-file-line", "src/sigmagroups/corpus.py",
           'enumerate(lines + [""], start=1)', '[*enumerate(lines, start=1), (len(lines), "")]',
           ("tests/test_corpus.py",)),
    # a trailing comma leaves a space after the last cycle, which ends the text
    Mutant("cycle-trailing-separator", "src/sigmagroups/permcore.py",
           "    pos, end = 0, len(s.rstrip())\n", "    pos, end = 0, len(s)\n",
           ("tests/test_permcore.py",)),
    Mutant("cycle-point-upper-bound", "src/sigmagroups/permcore.py",
           "            if not 1 <= val <= degree:", "            if not 1 <= val < degree:",
           ("tests/test_permcore.py",)),
    Mutant("cycle-repeated-point", "src/sigmagroups/permcore.py",
           "            if val - 1 in seen:", "            if False:", ("tests/test_permcore.py",)),
    Mutant("perm-images-form-a-permutation", "src/sigmagroups/permcore.py",
           "        if not (set(map(type, imgs)) <= {int} and sorted(imgs) == list(range(len(imgs)))):",
           "        if False:", ("tests/test_permcore.py",)),
    Mutant("subgroup-generators-in-group", "src/sigmagroups/permcore.py",
           "            if g not in group:", "            if False:", ("tests/test_permcore.py",)),
    Mutant("conjugate-order-invariant", "src/sigmagroups/permcore.py",
           "    if conj.order != h.order:", "    if False:", ("tests/test_permcore.py",)),
    Mutant("subgroup-inside-group", "src/sigmagroups/structure.py",
           "        if H.root is not G.root or H.mask & G.mask != H.mask:",
           "        if H.root is not G.root:", ("tests/test_sigma.py", "tests/test_structure.py")),
    Mutant("limits-table-ceiling", "src/sigmagroups/errors.py",
           "        if self.table_order_bound > MAX_TABLE_ORDER:",
           "        if self.table_order_bound >= MAX_TABLE_ORDER:", ("tests/test_structure.py",)),
    # input checks of structure: the trivial group has no minimal normal
    # subgroup, a quotient projects only members of its group, and an
    # element set outside the root is not inside the group
    Mutant("minimal-normal-trivial-group", "src/sigmagroups/structure.py",
           "    if G.order == 1:\n"
           '        raise GroupInputError("the trivial group has no minimal normal subgroups")\n',
           "", ("tests/test_structure.py",)),
    Mutant("quotient-project-outside-group", "src/sigmagroups/structure.py",
           "        if index is None or self.coset_of[index] < 0:", "        if index is None:",
           ("tests/test_structure.py",)),
    Mutant("images-outside-root", "src/sigmagroups/structure.py",
           "    if mask.bit_count() != len(images) or mask & G.mask != mask:",
           "    if mask & G.mask != mask:", ("tests/test_structure.py",)),
    # every cached read checks the caller's table bound, hit or miss
    Mutant("memo-table-bound-on-every-read", "src/sigmagroups/structure.py",
           "    _check_table_room(root.order, limits)\n", "", ("tests/test_sigma.py",)),
    # exit 3 only for a skip that a bound caused, not a vacuous one
    Mutant("exit-code-vacuous-skip", "src/sigmagroups/cli.py",
           'r["verdict"] == "skipped" and not r["vacuous"]', 'r["verdict"] == "skipped"',
           ("tests/test_cli.py",)),
)


# fails on every mutant, whose anchor is gone from the copy it runs on
ANCHOR_TEST = "tests/test_tooling.py::test_every_mutant_anchor_occurs_once"


def _pytest(tree: Path, targets: list[str]) -> bool | None:
    """Did pytest pass on ``targets`` in ``tree``?  None when it outlasted
    ``TIMEOUT``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--deselect", ANCHOR_TEST, *targets]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def _copy_tree(tmp: str) -> Path:
    """A copy of the whole tree: the suite also runs the demos and reads
    perfbench."""
    tree = Path(tmp)
    shutil.copytree(ROOT, tree, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "out"))
    return tree


def run_mutant(m: Mutant) -> str:
    """'killed', 'killed (timeout)' or 'survived'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy_tree(tmp)
        target = tree / m.path
        text = target.read_text()
        if text.count(m.anchor) != 1:
            raise SystemExit(f"{m.name}: anchor is not exactly once in {m.path}")
        target.write_text(text.replace(m.anchor, m.replacement))
        for targets in (list(m.tests), ["tests"]):
            passed = _pytest(tree, targets)
            if passed is None:
                return "killed (timeout)"
            if not passed:
                return "killed"
    return "survived"


def main() -> int:
    start = time.perf_counter()
    # a kill means something only when the unchanged tree passes
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        if not _pytest(_copy_tree(tmp), ["tests"]):
            raise SystemExit("the suite fails on the unchanged tree")
    print(f"{'(unchanged tree)':36s} {'passed':18s} {time.perf_counter() - start:6.1f} s",
          flush=True)
    survivors = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        verdict = run_mutant(m)
        survivors += verdict == "survived"
        print(f"{m.name:36s} {verdict:18s} {time.perf_counter() - t0:6.1f} s", flush=True)
    print(f"total {time.perf_counter() - start:.1f} s, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
