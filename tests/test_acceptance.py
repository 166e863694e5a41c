"""Acceptance gate: the ten release criteria for the engine and harness.

Every test prints one `ACCEPTANCE n: PASS/FAIL` line directly to the
terminal (bypassing capture) so a release run shows a scoreboard even
under plain `pytest`.
"""

import hashlib
import json
import subprocess
import sys
import time

import oracles
from sigmagroups import Limits, all_subgroups, parse_sigma
from sigmagroups.corpus import builtin_corpus
from sigmagroups.harness import campaign_sigmas
from sigmagroups.sigma import (SigmaPartition, is_psigma_t, is_sigma_nilpotent,
                               is_sigma_primary, is_sigma_soluble,
                               sigma_nilpotent_residual)

S1 = SigmaPartition.sigma1()

# Expected residual orders, confirmed against the independent oracle and
# then frozen (criterion 3 re-derives them from the oracle every run).
FROZEN_RESIDUALS = {"S3": 3, "A4": 4, "S4": 12, "SL(2,3)": 8,
                    "Q8": 1, "D8": 1, "F20": 5, "F21": 7}

# Expected classical-permutability verdicts, frozen the same way.
FROZEN_PSIGMA_T = {"S3": True, "Q8": True, "D8": True,
                   "A4": False, "S4": False}


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"ACCEPTANCE {n}: {detail}"


def rows_for(campaign, statement, sigma=None):
    return [r for r in campaign["rows"]
            if r["statement_id"] == statement
            and (sigma is None or r["sigma"] == sigma)]


def test_acceptance_01_engine_matches_oracle(capsys, corpus, oracle_group):
    t0 = time.perf_counter()
    checked = 0
    for name, entry in corpus.items():
        G = entry.build()
        tg = oracle_group(name)
        assert G.order == tg.order, name
        assert set(G.element_images()) == tg.element_set(), name
        got = sorted((frozenset(s.element_images()) for s in all_subgroups(G)),
                     key=lambda s: (len(s), sorted(s)))
        assert got == tg.subgroup_image_sets(), name
        checked += 1
    elapsed = time.perf_counter() - t0
    report(capsys, 1, checked == 45 and elapsed < 120,
           f"order/elements/subgroup lattice of {checked} groups match the "
           f"independent oracle in {elapsed:.1f}s (< 120s)")


def test_acceptance_02_sigma1_specializes_to_classical(capsys, corpus,
                                                       oracle_group):
    mismatches = []
    for name, entry in corpus.items():
        G = entry.build()
        mt = oracle_group(name).mt
        if is_sigma_soluble(G, S1) != mt.is_soluble():
            mismatches.append((name, "soluble"))
        if is_sigma_nilpotent(G, S1) != mt.is_nilpotent():
            mismatches.append((name, "nilpotent"))
    report(capsys, 2, not mismatches,
           f"sigma1 solubility/nilpotency agrees with derived-series and "
           f"all-Sylows-normal oracles on all 45 groups; mismatches={mismatches}")


def test_acceptance_03_residual_table(capsys, corpus, oracle_group):
    bad = []
    for name, want in FROZEN_RESIDUALS.items():
        got = sigma_nilpotent_residual(corpus[name].build(), S1).order
        oracle_val = oracles.nilpotent_residual_order(oracle_group(name))
        if not (got == want == oracle_val):
            bad.append((name, got, want, oracle_val))
    report(capsys, 3, not bad,
           f"sigma1 nilpotent-residual orders match the frozen table and the "
           f"oracle for {sorted(FROZEN_RESIDUALS)}; bad={bad}")


def test_acceptance_04_psigma_t_and_structural_cross_check(capsys, corpus,
                                                           campaign):
    bad = [(n, is_psigma_t(corpus[n].build(), S1), want)
           for n, want in FROZEN_PSIGMA_T.items()
           if is_psigma_t(corpus[n].build(), S1) != want]
    crossed = 0
    for name, entry in corpus.items():
        G = entry.build()
        route_a = is_sigma_soluble(G, S1) and is_psigma_t(G, S1)
        row = next(r for r in rows_for(campaign, "Lem2.5.conv", "sigma1")
                   if r["group"] == name)
        route_b = is_sigma_soluble(G, S1) and \
            row["witness"]["pairs_satisfying_conditions"] >= 1
        if route_a != route_b:
            bad.append((name, route_a, route_b))
        crossed += 1
    report(capsys, 4, not bad,
           f"transitive-permutability verdicts match the frozen table and the "
           f"structural criterion on {crossed} groups; bad={bad}")


def test_acceptance_05_campaign_clean_and_non_vacuous(capsys, campaign):
    counterexamples = [r for r in campaign["rows"]
                       if r["verdict"] == "counterexample"]
    counts = {s: sum(1 for r in rows_for(campaign, s)
                     if r["verdict"] == "confirmed" and not r["vacuous"])
              for s in ("ThmA.i", "ThmA.ii", "ThmA.iii")}
    ok = (not counterexamples and all(c >= 10 for c in counts.values())
          and campaign["elapsed"] < 600)
    report(capsys, 5, ok,
           f"campaign: {len(campaign['rows'])} outcomes, 0 counterexamples "
           f"expected (found {len(counterexamples)}), non-vacuous theorem "
           f"confirmations {counts} (each >= 10), {campaign['elapsed']:.1f}s "
           f"(< 600s)")


def test_acceptance_06_complement_lemma_both_directions(capsys, campaign):
    fwd = rows_for(campaign, "Lem2.5.fwd")
    conv = rows_for(campaign, "Lem2.5.conv")
    bad = [r for r in fwd + conv if r["verdict"] == "counterexample"]
    nonvac = sum(1 for r in fwd + conv
                 if r["verdict"] == "confirmed" and not r["vacuous"])
    ok = not bad and nonvac >= 10 and len(conv) > 0
    report(capsys, 6, ok,
           f"complement lemma: {len(fwd)} forward + {len(conv)} converse "
           f"outcomes, 0 failures, {nonvac} non-vacuous confirmations")


def test_acceptance_07_quotient_closure_everywhere(capsys, corpus, campaign):
    rows = rows_for(campaign, "Lem2.4", "sigma1")
    groups = {r["group"] for r in rows}
    bad = [r["group"] for r in rows if r["verdict"] != "confirmed"]
    ok = groups == set(corpus) and not bad
    report(capsys, 7, ok,
           f"residual-of-quotient identity confirmed for every normal subgroup "
           f"of all {len(groups)} groups at sigma1; failures={bad}")


def test_acceptance_08_hall_existence_lemma_all_subsets(capsys, corpus,
                                                        campaign):
    bad = []
    for name, entry in corpus.items():
        rows = [r for r in rows_for(campaign, "Lem2.2") if r["group"] == name]
        expected = 2 ** len(oracles.prime_factors(entry.expected_order))
        if len(rows) != expected or any(r["verdict"] != "confirmed"
                                        for r in rows):
            bad.append((name, len(rows), expected))
    report(capsys, 8, not bad,
           f"Hall-existence lemma confirmed for every prime subset of every "
           f"group (2^|pi(G)| rows each); bad={bad}")


def test_acceptance_09_class_hierarchy_and_coarsening(capsys, corpus):
    def coarsens(fine, coarse, primes):
        return all(coarse.block_id(p) == coarse.block_id(q)
                   for p in primes for q in primes
                   if fine.block_id(p) == fine.block_id(q))

    bad = []
    for name, entry in corpus.items():
        G = entry.build()
        primes = sorted(oracles.prime_factors(G.order))
        sigmas = campaign_sigmas(G)
        facts = {s.text(): (is_sigma_primary(G.order, s),
                            is_sigma_nilpotent(G, s),
                            is_sigma_soluble(G, s)) for s in sigmas}
        for text, (primary, nilp, sol) in facts.items():
            if (primary and not nilp) or (nilp and not sol):
                bad.append((name, text, "hierarchy"))
        for fine in sigmas:
            for coarse in sigmas:
                if not coarsens(fine, coarse, primes):
                    continue
                for k in (1, 2):  # nilpotent, soluble
                    if facts[fine.text()][k] and not facts[coarse.text()][k]:
                        bad.append((name, fine.text(), coarse.text()))
    report(capsys, 9, not bad,
           f"sigma-primary => sigma-nilpotent => sigma-soluble and coarsening "
           f"monotonicity hold over all campaign (group, sigma) pairs; "
           f"bad={bad}")


# sha256 of `campaign --corpus builtin --no-timestamp`; an optimisation must
# leave every byte of the report as it is
REPORT_SHA256 = "4853b522f438cefacf41b618387ffb754f74ee710642b1e3397fcb41c038732b"


def test_acceptance_10_reports_are_deterministic(capsys, tmp_path):
    runs = []
    for name, flags, jobs in (("jobs1", [], "1"), ("jobs2", [], "2"), ("optimised", ["-O"], "1")):
        path = tmp_path / f"{name}.json"
        proc = subprocess.Popen(
            [sys.executable, *flags, "-m", "sigmagroups.cli", "campaign",
             "--corpus", "builtin", "--jobs", jobs, "--no-timestamp",
             "--out", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        runs.append((path, proc))
    outs = []
    for path, proc in runs:
        _, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1] == outs[2]
    pinned = hashlib.sha256(outs[0]).hexdigest() == REPORT_SHA256
    parsed = json.loads(outs[0])
    report(capsys, 10, identical and pinned and parsed["summary"]["counterexample"] == 0,
           f"three full campaign runs (--jobs 1, --jobs 2 and python -O, timestamps "
           f"suppressed) produced byte-identical {len(outs[0])}-byte reports; "
           f"sha256 pinned: {pinned}")
