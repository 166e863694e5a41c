"""Statement verifiers, witness validation, and the campaign driver."""

from dataclasses import replace

import pytest

from sigmagroups import (GroupInputError, Limits, Perm, Subgroup, harness, parse_sigma)
from sigmagroups.errors import InvariantError
from sigmagroups.harness import (CLASSES, STATEMENTS, CampaignConfig,
                                 VerificationOutcome, _check_class_monotonicity,
                                 campaign_sigmas,
                                 class_member, report_from_rows, run_campaign,
                                 validate_covering_witness, verify_cor_1_1,
                                 verify_cor_1_2, verify_group,
                                 verify_lemma_2_1, verify_lemma_2_2,
                                 verify_lemma_2_3, verify_lemma_2_4,
                                 verify_lemma_2_5_converse,
                                 verify_lemma_2_5_converse_search,
                                 verify_lemma_2_5_forward, verify_theorem_A)
from sigmagroups.permcore import compose_images
from sigmagroups.sigma import SigmaPartition, sigma_nilpotent_residual
from sigmagroups.structure import normal_subgroups, quotient_group

S1 = SigmaPartition.sigma1()


def sub(G, *texts):
    return Subgroup(G, [Perm.parse(t, G.degree) for t in texts])


# ---------------------------------------------------------------------------
# outcome plumbing

def test_statement_and_class_registries():
    assert len(STATEMENTS) == 11
    assert len(CLASSES) == 3
    assert "ThmA.iii" in STATEMENTS and "Lem2.5.conv" in STATEMENTS


def test_class_member_dispatch(corpus):
    A5 = corpus["A5"].build()
    assert not class_member("sigma-soluble", A5, S1)
    # the one-block partition makes any group sigma-primary, hence in every class
    assert class_member("sigma-soluble", A5, parse_sigma("[2,3,5]"))
    assert class_member("sigma-nilpotent", A5, parse_sigma("[2,3,5]"))
    assert not class_member("sigma-nilpotent", A5, S1)
    S3 = corpus["S3"].build()
    assert class_member("sigma-soluble-psigma-t", S3, S1)
    with pytest.raises(GroupInputError):
        class_member("sigma-simple", A5, S1)


def test_outcome_to_json_shape():
    out = VerificationOutcome("Lem2.4", "S4", S1, "confirmed",
                              witness={"normals_checked": 4})
    blob = out.to_json()
    assert blob == {"statement_id": "Lem2.4", "group": "S4", "sigma": "sigma1",
                    "verdict": "confirmed", "vacuous": False,
                    "witness": {"normals_checked": 4}, "reason": None,
                    "millis": 0}


# ---------------------------------------------------------------------------
# Theorem A and its witness validation

def test_theorem_a_out_of_class_yields_witness(corpus):
    A4 = corpus["A4"].build()
    out = verify_theorem_A(A4, S1, "sigma-nilpotent", "A4")
    assert out.statement_id == "ThmA.ii"
    assert (out.verdict, out.vacuous) == ("confirmed", False)
    assert out.witness["V"]["order"] == 1
    assert out.witness["supplements_all_outside_class"]


def test_theorem_a_in_class_is_vacuous(corpus):
    C6 = corpus["C6"].build()
    out = verify_theorem_A(C6, S1, "sigma-nilpotent", "C6")
    assert (out.verdict, out.vacuous) == ("confirmed", True)
    out = verify_theorem_A(corpus["A5"].build(), parse_sigma("[2,3,5]"),
                           "sigma-soluble", "A5")
    assert (out.verdict, out.vacuous) == ("confirmed", True)


def test_theorem_a_insoluble_cases(corpus):
    for name in ["A5", "S5", "SL(2,5)", "PSL(2,7)"]:
        out = verify_theorem_A(corpus[name].build(), S1, "sigma-soluble", name)
        assert (out.verdict, out.vacuous) == ("confirmed", False), name


def test_witness_validation_accepts_genuine_and_rejects_tampered(corpus):
    A4 = corpus["A4"].build()
    witness = verify_theorem_A(A4, S1, "sigma-nilpotent", "A4").witness
    assert validate_covering_witness(A4, S1, "sigma-nilpotent", witness)
    # wrong declared order
    bad = {"V": {"order": 2, "generators": witness["V"]["generators"]}}
    assert not validate_covering_witness(A4, S1, "sigma-nilpotent", bad)
    # a genuine subgroup that is not a maximal subgroup of any Sylow subgroup
    bad = {"V": {"order": 4, "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]}}
    assert not validate_covering_witness(A4, S1, "sigma-nilpotent", bad)
    # V = 1 has the in-class supplement T = G when G itself is in the class
    assert not validate_covering_witness(corpus["C6"].build(), S1,
                                         "sigma-nilpotent",
                                         {"V": {"order": 1, "generators": []}})


# ---------------------------------------------------------------------------
# Corollaries 1.1 / 1.2

def test_cor_1_1_in_class_vacuous_with_self_supplement_note(corpus):
    out = verify_cor_1_1(corpus["S3"].build(), S1, "S3")
    assert (out.verdict, out.vacuous) == ("confirmed", True)
    assert "only_if" in out.witness


def test_cor_1_1_out_of_class_finds_witness(corpus):
    out = verify_cor_1_1(corpus["S4"].build(), S1, "S4")
    assert (out.verdict, out.vacuous) == ("confirmed", False)
    assert out.witness["V"]["order"] >= 1


def test_cor_1_2_is_the_classical_special_case(corpus):
    A5 = corpus["A5"].build()
    out = verify_cor_1_2(A5, "A5")
    assert out.statement_id == "Cor1.2"
    assert out.sigma.text() == "sigma1"
    assert (out.verdict, out.vacuous) == ("confirmed", False)


# ---------------------------------------------------------------------------
# Lemmas 2.1 and 2.2

def test_lemma_2_1_skips_without_premise(corpus):
    out = verify_lemma_2_1(corpus["A5"].build(), S1, "A5")
    assert (out.verdict, out.vacuous) == ("skipped", True)
    assert "premise not satisfied" in out.reason


def test_lemma_2_1_confirms_on_soluble_groups(corpus):
    out = verify_lemma_2_1(corpus["S4"].build(), S1, "S4")
    assert out.verdict == "confirmed"
    assert out.witness["subgroups_scanned"] == 30
    out = verify_lemma_2_1(corpus["A5"].build(), parse_sigma("[2,3,5]"), "A5")
    assert out.verdict == "confirmed"


def test_lemma_2_2_detects_missing_joint_hall_subgroup(corpus):
    out = verify_lemma_2_2(corpus["A5"].build(), frozenset({5}), "A5")
    assert (out.verdict, out.vacuous) == ("confirmed", False)
    assert out.witness["pi_separable"] is False
    assert out.witness["hall_existence"] == {"5": True, "2,3": True, "2,5": False}


def test_lemma_2_2_vacuous_cases(corpus):
    A5 = corpus["A5"].build()
    assert verify_lemma_2_2(A5, frozenset(), "A5").vacuous
    assert verify_lemma_2_2(A5, frozenset({2, 3, 5}), "A5").vacuous
    # primes outside pi(G) are discarded before the scan
    out = verify_lemma_2_2(A5, frozenset({7}), "A5")
    assert out.vacuous and out.witness["pi"] == []


def test_lemma_2_2_on_soluble_group(corpus):
    for pi in [set(), {2}, {3}, {2, 3}]:
        out = verify_lemma_2_2(corpus["S4"].build(), frozenset(pi), "S4")
        assert out.verdict == "confirmed", pi


# ---------------------------------------------------------------------------
# Lemma 2.3

def test_lemma_2_3_counts_nontrivial_instances(corpus):
    out = verify_lemma_2_3(corpus["C6"].build(), S1, "C6")
    assert (out.verdict, out.vacuous) == ("confirmed", False)
    assert out.witness["nontrivial_instances"] == 9
    out = verify_lemma_2_3(corpus["S4"].build(), S1, "S4")
    assert (out.verdict, out.vacuous) == ("confirmed", False)


def test_lemma_2_3_vacuous_when_no_instance_arises(corpus):
    out = verify_lemma_2_3(corpus["A5"].build(), S1, "A5")
    assert (out.verdict, out.vacuous) == ("confirmed", True)
    assert out.witness["nontrivial_instances"] == 0


# ---------------------------------------------------------------------------
# Lemma 2.4

def test_lemma_2_4_checks_every_normal_subgroup(corpus):
    out = verify_lemma_2_4(corpus["S4"].build(), S1, "S4")
    assert out.verdict == "confirmed"
    assert out.witness["normals_checked"] == 4


def test_lemma_2_4_trivial_group_is_vacuous(corpus):
    out = verify_lemma_2_4(corpus["C1"].build(), S1, "C1")
    assert (out.verdict, out.vacuous) == ("confirmed", True)


# ---------------------------------------------------------------------------
# Lemma 2.5, both directions

def test_lemma_2_5_forward_structure(corpus):
    cases = {"S3": (3, 2), "F21": (7, 3), "C7:C6": (7, 6)}
    for name, (d_order, m_order) in cases.items():
        out = verify_lemma_2_5_forward(corpus[name].build(), S1, name)
        assert (out.verdict, out.vacuous) == ("confirmed", False), name
        assert out.witness["D"]["order"] == d_order
        assert out.witness["M"]["order"] == m_order
        assert all(b["complemented"] for b in out.witness["blocks"])


def test_lemma_2_5_forward_vacuous_when_residual_trivial(corpus):
    out = verify_lemma_2_5_forward(corpus["Q8"].build(), S1, "Q8")
    assert (out.verdict, out.vacuous) == ("confirmed", True)
    assert out.witness["D"]["order"] == 1


def test_lemma_2_5_forward_skips_without_premise(corpus):
    for name in ["S4", "SL(2,3)", "A5"]:
        out = verify_lemma_2_5_forward(corpus[name].build(), S1, name)
        assert (out.verdict, out.vacuous) == ("skipped", True), name


def test_lemma_2_5_converse_explicit_pair(corpus):
    S3 = corpus["S3"].build()
    out = verify_lemma_2_5_converse(S3, S1, sub(S3, "(1 2 3)"), sub(S3, "(1 2)"), "S3")
    assert out.verdict == "confirmed"
    with pytest.raises(GroupInputError):
        # D not normal: conditions (i)+(ii) fail, the pair is rejected upfront
        verify_lemma_2_5_converse(S3, S1, sub(S3, "(1 2)"), sub(S3, "(1 2 3)"), "S3")


def test_lemma_2_5_converse_search_counts_pairs(corpus):
    out = verify_lemma_2_5_converse_search(corpus["S3"].build(), S1, "S3")
    assert (out.verdict, out.vacuous) == ("confirmed", False)
    assert out.witness["pairs_satisfying_conditions"] == 3
    out = verify_lemma_2_5_converse_search(corpus["F21"].build(), S1, "F21")
    assert out.witness["pairs_satisfying_conditions"] == 7
    out = verify_lemma_2_5_converse_search(corpus["A4"].build(), S1, "A4")
    assert (out.verdict, out.vacuous) == ("confirmed", True)
    assert out.witness["pairs_satisfying_conditions"] == 0


# ---------------------------------------------------------------------------
# campaign driver

def test_campaign_sigmas(corpus):
    assert [s.text() for s in campaign_sigmas(corpus["C6"].build())] == \
        ["[2,3]", "[2][3]", "sigma1"]
    assert [s.text() for s in campaign_sigmas(corpus["C1"].build())] == \
        ["[]", "sigma1"]
    assert len(campaign_sigmas(corpus["A5"].build())) == 6  # Bell(3) + sigma1


def test_verify_group_row_inventory(corpus):
    rows = verify_group(corpus["C6"], CampaignConfig(zero_millis=True))
    # 9 per-sigma statements x 3 sigmas, Cor1.2 once, Lem2.2 per subset of {2,3}
    assert len(rows) == 9 * 3 + 1 + 4
    assert {r.verdict for r in rows} == {"confirmed"}
    assert all(r.millis == 0 for r in rows)
    assert {r.statement_id for r in rows} == set(STATEMENTS)


def test_verify_group_skips_a_group_over_the_element_cache_bound(corpus):
    config = CampaignConfig(limits=Limits(element_cache_bound=5), zero_millis=True)
    rows = verify_group(corpus["C6"], config)
    assert len(rows) == 9 * 3 + 1 + 4
    assert {r.verdict for r in rows} == {"skipped"}
    assert all(r.reason == "capacity: group order 6 exceeds element-cache bound 5"
               for r in rows)


def test_campaign_thma_witnesses_revalidate(corpus, campaign):
    """Re-derive every non-vacuous ThmA witness of the full campaign from
    scratch, independently of the caches that produced it."""
    rows = [r for r in campaign["rows"]
            if r["statement_id"].startswith("ThmA.")
            and r["verdict"] == "confirmed" and not r["vacuous"]]
    assert rows
    for name in sorted({r["group"] for r in rows}):
        G = corpus[name].build()
        for r in rows:
            if r["group"] == name:
                assert validate_covering_witness(
                    G, parse_sigma(r["sigma"]), r["witness"]["class"], r["witness"]), \
                    (name, r["sigma"], r["statement_id"])


def test_unknown_statement_id_is_rejected_by_the_config(corpus):
    with pytest.raises(GroupInputError, match="unknown statement ids: Nope, Lem9"):
        verify_group(corpus["C6"], CampaignConfig(statements=("Lem2.4", "Nope", "Lem9")))


def test_verify_group_runs_the_registry_in_order(corpus, monkeypatch):
    """Per sigma every sigma-scope statement in registry order, then Cor1.2
    at sigma1, then Lem2.2 once per subset of pi(G)."""
    calls = []

    def recorder(sid):
        def record(G, head, *rest):
            calls.append((sid, head.text() if isinstance(head, SigmaPartition)
                          else sorted(head) if isinstance(head, frozenset) else None))
            return VerificationOutcome(sid, "C6", S1, "confirmed")
        return record

    thma_sid = {cls: sid for sid, cls in harness._THMA_CLASS.items()}
    for sid, st in harness.REGISTRY.items():
        if st.verifier != "verify_theorem_A":
            monkeypatch.setattr(harness, st.verifier, recorder(sid))
    monkeypatch.setattr(harness, "verify_theorem_A", lambda G, sigma, cls, name, limits:
                        recorder(thma_sid[cls])(G, sigma))
    rows = verify_group(corpus["C6"], CampaignConfig(zero_millis=True))
    per_sigma = ["ThmA.i", "ThmA.ii", "ThmA.iii", "Cor1.1", "Lem2.1", "Lem2.3",
                 "Lem2.4", "Lem2.5.fwd", "Lem2.5.conv"]
    assert calls == [(sid, s) for s in ("[2,3]", "[2][3]", "sigma1") for sid in per_sigma] + \
        [("Cor1.2", None)] + [("Lem2.2", pi) for pi in ([], [2], [3], [2, 3])]
    assert len(rows) == len(calls)


def test_verify_group_honors_statement_filter(corpus):
    rows = verify_group(corpus["C6"], CampaignConfig(statements=("Lem2.4",)))
    assert len(rows) == 3
    assert {r.statement_id for r in rows} == {"Lem2.4"}


def test_run_campaign_rows_are_sorted_and_job_independent(corpus):
    entries = [corpus[n] for n in ["S3", "C6", "D8"]]
    seq = run_campaign(entries, CampaignConfig(jobs=1, zero_millis=True))
    par = run_campaign(entries, CampaignConfig(jobs=2, zero_millis=True))
    assert seq == par
    keys = [(r["group"], r["sigma"], r["statement_id"]) for r in seq]
    assert keys == sorted(keys)


def test_parallel_campaign_submits_largest_groups_first(corpus, monkeypatch):
    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, entries, configs):
            entries = list(entries)
            submitted.extend(e.name for e in entries)
            return map(fn, entries, configs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    entries = [corpus[n] for n in ["S3", "C6", "S4", "A4"]]
    par = run_campaign(entries, CampaignConfig(jobs=2, zero_millis=True))
    assert submitted == ["S4", "A4", "S3", "C6"]     # stable among equal orders
    assert par == run_campaign(entries, CampaignConfig(jobs=1, zero_millis=True))


def test_run_campaign_workers_keep_every_limit(corpus):
    # S4 (order 24) is over the table bound, S3 (order 6) under it; a worker
    # that fell back to the default bound would compute S4's rows
    entries = [corpus["S3"], corpus["S4"]]
    config = CampaignConfig(jobs=1, zero_millis=True,
                            limits=Limits(table_order_bound=10))
    seq = run_campaign(entries, config)
    par = run_campaign(entries, replace(config, jobs=2))
    assert seq == par
    s4 = [r for r in par if r["group"] == "S4"]
    assert s4 and all(r["verdict"] == "skipped" and r["reason"] ==
                      "capacity: group order 24 exceeds multiplication-table bound 10"
                      for r in s4)
    assert not any(r["verdict"] == "skipped" and not r["vacuous"]
                   for r in par if r["group"] == "S3")


def test_report_from_rows_summary(corpus):
    rows = run_campaign([corpus["S3"]], CampaignConfig(zero_millis=True))
    report = report_from_rows(rows, generated_at="2026-01-01T00:00:00+00:00")
    assert report["schema"] == "sigmagroups-report/1"
    assert report["generated_at"] == "2026-01-01T00:00:00+00:00"
    s = report["summary"]
    assert s["confirmed"] + s["counterexample"] + s["skipped"] == len(rows)
    assert set(s["by_statement"]) <= set(STATEMENTS)
    assert "generated_at" not in report_from_rows(rows)


def test_class_monotonicity_check_raises():
    sigma = parse_sigma("[2][3]")
    rows = [VerificationOutcome("ThmA.i", "G", sigma, "confirmed", vacuous=False),
            VerificationOutcome("ThmA.ii", "G", sigma, "confirmed", vacuous=True)]
    with pytest.raises(InvariantError, match="ThmA.i non-vacuous but ThmA.ii vacuous"):
        _check_class_monotonicity(rows)
    _check_class_monotonicity(rows[:1] + [replace(rows[1], vacuous=False)])


@pytest.mark.parametrize("name", ["S4", "SL(2,5)"])
def test_lemma_2_4_image_of_residual_is_dn_over_n(corpus, name):
    """Lem2.4's right-hand side, the image of D, is the projection of the
    product set DN, for every normal N and every campaign partition."""
    G = corpus[name].build()
    for sigma in campaign_sigmas(G):
        d_set = sigma_nilpotent_residual(G, sigma).element_images()
        for N in normal_subgroups(G):
            q = quotient_group(G, N)
            dn = {compose_images(d, n) for d in d_set for n in N.element_images()}
            assert q.image_set(d_set) == frozenset(q.project(Perm(x)).images for x in dn)
