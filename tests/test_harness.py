"""Statement verifiers, witness validation, and the campaign driver."""

import gc
import json
import re
from collections import Counter
from dataclasses import replace

import pytest

from sigmagroups import (CapacityError, CorpusEntry, GroupInputError, Limits, Perm, PermGroup,
                         Subgroup, builtin_entry, harness, parse_sigma, structure)
from sigmagroups import sigma as sigma_module
from sigmagroups.cli import main
from sigmagroups.errors import InvariantError
from sigmagroups.harness import (STATEMENTS, CampaignConfig,
                                 VerificationOutcome, _check_class_monotonicity,
                                 _complements_meeting_conditions,
                                 campaign_sigmas,
                                 class_member, report_from_rows, run_campaign,
                                 validate_covering_witness, verify_cor_1_1,
                                 verify_cor_1_2, verify_group,
                                 verify_lemma_2_1, verify_lemma_2_2,
                                 verify_lemma_2_3, verify_lemma_2_4,
                                 verify_lemma_2_5_converse_search,
                                 verify_lemma_2_5_forward, verify_theorem_A)
from sigmagroups.numbers import part_for_primes, primes_of
from sigmagroups.permcore import clear_intern_cache, trivial_subgroup
from sigmagroups.sigma import SigmaPartition
from sigmagroups.structure import frattini_subgroup, is_soluble, normal_subgroups

S1 = SigmaPartition.sigma1()


def sub(G, *texts):
    return Subgroup(G, [Perm.parse(t, G.degree) for t in texts])


# ---------------------------------------------------------------------------
# outcome plumbing

def test_statement_and_class_registries():
    assert len(STATEMENTS) == 11
    assert len(set(harness._THMA_CLASS.values())) == 3
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


def test_witness_validation_rejects_a_sylow_subgroup_whose_supplements_all_lie_outside(corpus):
    """V4 is a Sylow 2-subgroup of A5, not a maximal subgroup of one.  Its
    one supplement is A5 itself, which is insoluble, so only the
    Sylow-maximal check refuses this fabricated witness."""
    A5 = corpus["A5"].build()
    V4 = {"V": {"order": 4, "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]}}
    assert not validate_covering_witness(A5, S1, "sigma-soluble", V4)


def test_cached_sylow_maximal_candidates_keep_a_lower_subgroup_bound(corpus):
    clear_intern_cache()
    A5 = builtin_entry("A5").build()
    candidates = harness._sylow_maximal_candidates(A5, Limits())
    assert len(candidates) == 16
    assert list(candidates) == sorted(candidates, key=lambda v: (v.order, v.elements()))
    # the candidates are read off A5's lattice, which has 59 subgroups
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 3"):
        harness._sylow_maximal_candidates(A5, Limits(subgroup_bound=3))
    assert harness._sylow_maximal_candidates(A5, Limits()) == candidates


def test_builtin_campaign_runs_kernels_only_on_roots(corpus, monkeypatch):
    """Over one builtin campaign, a lattice kernel runs once per root, on
    the root itself, and never on a proper subgroup: cyclic extension on
    the soluble roots, join closure on the insoluble ones.  No Sylow-maximal
    candidate, sigma-permutable subgroup or Lem2.1 subgroup gets a kernel
    run, and no Sylow subgroup, conjugate walk or p-group lattice is asked
    for."""
    runs = []
    current = []
    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure"):
        original = getattr(structure, kernel)

        def spy(table, gmask, limits, *rest, original=original, kernel=kernel):
            runs.append((current[-1], kernel, gmask != (1 << table.order) - 1))
            return original(table, gmask, limits, *rest)
        monkeypatch.setattr(structure, kernel, spy)
    asked = []
    for name in ("sylow_subgroup", "conjugate_image_sets", "maximal_subgroups_of_p_group"):
        for module in (structure, harness):
            monkeypatch.setattr(module, name, lambda *args, name=name: asked.append(name),
                                raising=False)
    verify = harness.verify_group
    monkeypatch.setattr(harness, "verify_group",
                        lambda entry, config: current.append(entry.name) or verify(entry, config))
    run_campaign(list(corpus.values()), CampaignConfig(zero_millis=True))
    insoluble = {name for name, entry in corpus.items() if not is_soluble(entry.build())}
    assert len(runs) == len(corpus) == 45
    assert len(insoluble) == 4
    assert [name for name, _, _ in runs] == list(corpus)
    for name, kernel, proper in runs:
        assert not proper, name
        assert kernel == ("_lattice_join_closure" if name in insoluble
                          else "_lattice_cyclic_extension"), name
    assert asked == []


def test_normal_product_missing_from_the_normal_lattice_raises(corpus, monkeypatch):
    """Lem2.3 reads N1N2 off G's normal lattice as the first normal subgroup
    over both; a lattice missing a product gives a larger one, which the
    order check |N1N2| = |N1||N2|/|N1 n N2| catches."""
    E8 = corpus["E8"].build()
    normals = normal_subgroups(E8)
    dropped = next(n for n in normals if n.order == 4)
    monkeypatch.setattr(harness, "normal_subgroups",
                        lambda G, limits: tuple(n for n in normals if n != dropped))
    with pytest.raises(InvariantError, match="orders 2 and 2 has order 8"):
        verify_lemma_2_3(E8, S1, "E8")


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
# planted faults: each verifier can say counterexample

def test_theorem_a_planted_fault_is_refuted_with_checkable_witness(corpus,
                                                                   lying_class_member):
    """With every proper subgroup counted in the class and D8 outside it,
    each of D8's three maximal subgroups V has an in-class supplement, so
    the scan is refuted; the witness survives the report's JSON, and
    re-checking any refuting V from it rejects V."""
    D8 = corpus["D8"].build()
    out = verify_theorem_A(D8, S1, "sigma-soluble", "D8")
    assert (out.verdict, out.vacuous) == ("counterexample", False)
    witness = json.loads(json.dumps(out.to_json()))["witness"]
    assert witness == out.witness
    assert witness["class"] == "sigma-soluble"
    refutation = witness["every_V_has_in_class_supplement"]
    assert len(refutation) == 3
    for entry in refutation:
        assert entry["V"]["order"] == 4 and entry["in_class_supplement"]["order"] < 8
        assert not validate_covering_witness(D8, S1, "sigma-soluble", entry)


def test_lemma_2_4_planted_fault_is_a_counterexample(corpus, monkeypatch):
    """A residual of S4 planted as trivial at sigma1 breaks Lem2.4 on the
    first proper normal subgroup, V4: the least normal M over V4 with S4/M
    nilpotent is A4, so the left side has order 3, and DV4/V4 has order 1."""
    S4 = corpus["S4"].build()
    residual = harness.sigma_nilpotent_residual
    monkeypatch.setattr(harness, "sigma_nilpotent_residual",
                        lambda X, sigma, limits: trivial_subgroup(X) if X is S4 and sigma == S1
                        else residual(X, sigma, limits))
    out = verify_lemma_2_4(S4, S1, "S4")
    assert (out.verdict, out.vacuous) == ("counterexample", False)
    assert out.witness["N"]["order"] == 4
    assert (out.witness["lhs_order"], out.witness["rhs_order"]) == (3, 1)
    assert verify_lemma_2_4(S4, parse_sigma("[2][3]"), "S4").verdict == "confirmed"


def test_lemma_2_4_refutes_a_residual_wrong_on_every_group(corpus, monkeypatch):
    """A residual planted as trivial on every group is wrong wherever the
    true one is not, and Lem2.4 refutes some of those rows over the
    builtins' campaign partitions: its left side is read off the normal
    lattice, not off the residual."""
    monkeypatch.setattr(harness, "sigma_nilpotent_residual",
                        lambda X, sigma, limits: trivial_subgroup(X))
    verdicts = Counter()
    for name, entry in corpus.items():
        G = entry.build()
        verdicts.update(verify_lemma_2_4(G, sigma, name).verdict for sigma in campaign_sigmas(G))
    assert sum(verdicts.values()) == 136
    assert verdicts["counterexample"] == 31


def lemma_2_1_lie(G, original):
    """A Hall-coverage violation on G itself."""
    return lambda X, sigma, limits: ({"subgroup": X.generators, "block": "2",
                                      "missing_hall": True} if X is G
                                     else original(X, sigma, limits))


def lemma_2_2_lie(G, original):
    """G counts as pi-separable at pi = {2}."""
    return lambda X, pi, limits: (X is G and set(pi) == {2}) or original(X, pi, limits)


def lemma_2_3_lie(G, original):
    """No proper non-trivial subgroup of G counts as sigma-nilpotent."""
    return lambda X, sigma, limits: (not (X.root is G and 1 < X.order < G.order)
                                     and original(X, sigma, limits))


def lemma_2_5_lie(G, original):
    """The predicate answers False on G itself."""
    return lambda X, *args: X is not G and original(X, *args)


# statement id -> (group, the verify option naming its sigma or pi, the
# harness predicate that lies, the lie)
PLANTED_FAULTS = {
    "Lem2.1": ("S4", ("--sigma", "sigma1"), "sigma_full_sylow_type_violation", lemma_2_1_lie),
    "Lem2.2": ("A5", ("--pi", "2"), "is_pi_separable", lemma_2_2_lie),
    "Lem2.3": ("C6", ("--sigma", "sigma1"), "is_sigma_nilpotent", lemma_2_3_lie),
    "Lem2.5.fwd": ("S3", ("--sigma", "sigma1"), "induces_power_automorphisms", lemma_2_5_lie),
    "Lem2.5.conv": ("S3", ("--sigma", "sigma1"), "is_psigma_t", lemma_2_5_lie),
}


@pytest.mark.parametrize("sid", sorted(PLANTED_FAULTS))
def test_planted_fault_is_a_counterexample_and_verify_exits_1(corpus, monkeypatch, capsys, sid):
    """One harness predicate lies on one group: the statement's row on that
    group is a counterexample whose row survives a JSON round trip, and
    ``verify`` on the same group and sigma or pi exits 1."""
    name, option, predicate, lie = PLANTED_FAULTS[sid]
    G = corpus[name].build()
    monkeypatch.setattr(harness, predicate, lie(G, getattr(harness, predicate)))
    [out] = harness.run_statements(G, name, (sid,), sigmas=[S1], pis=[frozenset({2})])
    assert out.verdict == "counterexample"
    row = out.to_json()
    assert json.loads(json.dumps(row)) == row
    assert main(["verify", "--group", name, "--statement", sid, *option]) == 1
    assert "counterexample" in capsys.readouterr().out


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


def test_lemma_2_5_forward_checks_condition_ii_once(corpus, monkeypatch):
    """The forward verifier reads condition (ii) and its per-block witness
    from one _condition_ii_blocks call."""
    calls = []
    blocks = harness._condition_ii_blocks

    def counting(G, D, *args):
        calls.append(D.mask)
        return blocks(G, D, *args)

    monkeypatch.setattr(harness, "_condition_ii_blocks", counting)
    out = verify_lemma_2_5_forward(corpus["F21"].build(), S1, "F21")
    assert (out.verdict, out.vacuous) == ("confirmed", False)
    assert len(calls) == 1


def test_lemma_2_5_forward_vacuous_when_residual_trivial(corpus):
    out = verify_lemma_2_5_forward(corpus["Q8"].build(), S1, "Q8")
    assert (out.verdict, out.vacuous) == ("confirmed", True)
    assert out.witness["D"]["order"] == 1


def test_lemma_2_5_forward_skips_without_premise(corpus):
    for name in ["S4", "SL(2,3)", "A5"]:
        out = verify_lemma_2_5_forward(corpus[name].build(), S1, name)
        assert (out.verdict, out.vacuous) == ("skipped", True), name


def test_lemma_2_5_converse_explicit_pair(corpus):
    # the per-D step of the converse search: (A3, C2) meets conditions
    # (i)+(ii) in S3; the swapped pair does not, since D = C2 is not normal
    # (the search never takes it as D) and has even order
    S3 = corpus["S3"].build()
    A3, C2 = sub(S3, "(1 2 3)"), sub(S3, "(1 2)")
    assert C2 in _complements_meeting_conditions(S3, S1, A3, Limits())
    assert C2 not in normal_subgroups(S3)
    assert A3 not in _complements_meeting_conditions(S3, S1, C2, Limits())


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


def test_campaign_sigmas_fall_back_to_one_block_past_the_prime_cap(table_builds):
    """C2310 has five primes, more than PARTITION_PRIME_CAP: its campaign
    partitions are the one block of pi(G) and sigma1, read off the order of
    a chain-only group, with no element table."""
    C2310 = PermGroup(28, [Perm.parse("(1 2)(3 4 5)(6 7 8 9 10)(11 12 13 14 15 16 17)"
                                      "(18 19 20 21 22 23 24 25 26 27 28)", 28)])
    assert C2310.order == 2310 and harness.PARTITION_PRIME_CAP < 5
    assert [s.text() for s in campaign_sigmas(C2310)] == ["[2,3,5,7,11]", "sigma1"]
    assert table_builds == []


def test_verify_group_row_inventory(corpus):
    rows = verify_group(corpus["C6"], CampaignConfig(zero_millis=True))
    # 9 per-sigma statements x 3 sigmas, Cor1.2 once, Lem2.2 per subset of {2,3}
    assert len(rows) == 9 * 3 + 1 + 4
    assert {r.verdict for r in rows} == {"confirmed"}
    assert all(r.millis == 0 for r in rows)
    assert {r.statement_id for r in rows} == set(STATEMENTS)


def test_verify_group_skips_a_group_over_the_element_cache_bound(corpus):
    """The table bound is the bound on listing a corpus group's elements, so
    a group over it has every row skipped."""
    config = CampaignConfig(limits=Limits(table_order_bound=5), zero_millis=True)
    rows = verify_group(corpus["C6"], config)
    assert len(rows) == 9 * 3 + 1 + 4
    assert {r.verdict for r in rows} == {"skipped"}
    assert all(r.reason == "capacity: group order 6 exceeds multiplication-table bound 5"
               for r in rows)


def test_a_group_that_does_not_build_becomes_error_rows(corpus):
    """A library corpus entry whose declared order is wrong makes every row
    of its group an error row, and the campaign goes on with the next."""
    bogus = CorpusEntry("bogus", 3, (Perm.parse("(1 2 3)", 3),), 6)
    config = CampaignConfig(zero_millis=True)
    rows = run_campaign([bogus, corpus["S3"]], config)
    assert [r for r in rows if r["group"] == "S3"] == run_campaign([corpus["S3"]], config)
    bad = [r for r in rows if r["group"] == "bogus"]
    assert len(bad) == 9 * 3 + 1 + 4
    assert {r["verdict"] for r in bad} == {"error"}
    assert {r["reason"] for r in bad} == {
        "GroupInputError: corpus entry 'bogus': generated order 3, declared 6"}


def test_a_declared_order_over_the_table_bound_skips_every_row(corpus, chain_builds):
    """A library entry declared above the table bound is refused by that
    declared order before its chain is built, even when its generators give
    a smaller group: every row is a capacity skip, not an error row.  The
    declared 2^13 is the order of a 2-group of degree 16, whose 16! has
    2^15 in it."""
    big = CorpusEntry("big", 16, (Perm.parse("(1 2 3)", 16),), 2 ** 13)
    config = CampaignConfig(zero_millis=True)
    rows = verify_group(big, config)
    assert chain_builds == []
    assert rows and {r.verdict for r in rows} == {"skipped"}
    assert {r.reason for r in rows} == {
        "capacity: group order 8192 exceeds multiplication-table bound 4096"}


def test_an_entry_whose_generators_do_not_fit_its_degree_becomes_error_rows(corpus):
    """A library entry of degree 3 with a generator on 4 points is never
    built, not even to label its rows: they are labelled from the primes of
    its declared order, 6, and the campaign goes on with the next group."""
    x = CorpusEntry("x", 3, (Perm.parse("(1 2 3 4)", 4),), 6)
    config = CampaignConfig(zero_millis=True)
    rows = run_campaign([x, corpus["S3"]], config)
    assert [r for r in rows if r["group"] == "S3"] == run_campaign([corpus["S3"]], config)
    bad = [r for r in rows if r["group"] == "x"]
    # 9 per-sigma statements x 3 sigmas of {2, 3}, Cor1.2 once, Lem2.2 per subset
    assert len(bad) == 9 * 3 + 1 + 4
    assert {r["verdict"] for r in bad} == {"error"}
    assert {r["reason"] for r in bad} == {
        "GroupInputError: generator degree 4 does not match group degree 3"}
    assert {r["sigma"] for r in bad} == {"[2,3]", "[2][3]", "sigma1", "[]", "[2]", "[3]"}


def test_verify_group_builds_one_chain_and_one_table_per_group(corpus, table_builds,
                                                               monkeypatch):
    """Lem2.4 reads G/N in G's normal lattice, so over the builtins each
    group's own PermGroup and element table are the only ones built: 45 and
    45, where building every proper quotient made 136 and 136."""
    groups = []
    init = PermGroup.__init__

    def counting(self, *args, **kwargs):
        groups.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    clear_intern_cache()  # no root with a table left by an earlier test
    for entry in corpus.values():
        verify_group(entry, CampaignConfig(zero_millis=True))
    assert len(groups) == len(table_builds) == len(corpus) == 45
    assert [G.order for G in groups] == [entry.expected_order for entry in corpus.values()]
    assert [K.order for K in table_builds] == [G.order for G in groups]


def test_campaign_reads_normal_subgroups_off_the_normal_lattices(corpus, monkeypatch):
    """Lem2.3 reads E n Phi(G) and its quotients, and Lem2.5 reads
    O_pi(D), off G's normal lattice: a builtin campaign makes no greedy
    intersection and no O_pi(D) from class closures, and computes class
    closures only in its 79 normal-lattice kernels.  Reading them through
    the engine made 628, 309, 147 and 79 calls."""
    calls = Counter()

    def counting(name, original):
        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    names = ("intersection_subgroup", "largest_normal_block_subgroup", "_class_closures",
             "_normal_lattice")
    for name in names:
        original = getattr(structure, name, None) or getattr(sigma_module, name)
        for module in (structure, sigma_module, harness):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    clear_intern_cache()  # no root with lattices left by an earlier test
    run_campaign(list(corpus.values()), CampaignConfig(zero_millis=True))
    assert [calls[name] for name in names] == [0, 0, 79, 79]


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


def test_campaign_covering_witnesses_are_mostly_trivial(corpus, campaign):
    """The non-vacuous ThmA and Cor rows of the builtin report, counted by
    the order of their witness V.  When p divides |G| once, V = 1 is a
    maximal subgroup of a Sylow p-subgroup; its only supplement is G, which
    lies outside the class by the scan's premise, so the row holds by
    definition.  171 of the 185 rows are such.  The other 14 have a V of
    prime order, generated by its least non-identity element, which every
    lattice kernel gives it alike."""
    rows = [r for r in campaign["rows"]
            if r["statement_id"].startswith(("ThmA.", "Cor")) and not r["vacuous"]]
    assert len(rows) == 185
    assert Counter(r["witness"]["V"]["order"] for r in rows) == {1: 171, 2: 7, 3: 7}
    assert Counter((r["group"], r["witness"]["V"]["order"]) for r in rows
                   if r["witness"]["V"]["order"] > 1) == {("C3xA4", 2): 7, ("C3xS4", 3): 7}
    for r in rows:
        G = corpus[r["group"]].build()
        V = r["witness"]["V"]
        elements = Subgroup(G, [Perm.parse(t, G.degree) for t in V["generators"]]).elements()
        assert V["generators"] == [str(x) for x in elements[1:2]], (r["group"], r["sigma"])


def test_campaign_theorem_a_rows_are_mostly_forced(corpus, campaign):
    """A non-vacuous ThmA row is forced when some Sylow-maximal V lies in
    Phi(G): then TV = G gives T = G, outside the class, so V covers.  That
    holds exactly when |G:Phi(G)|_p <= p for a prime p dividing |G|, as a
    Sylow p-subgroup P then has |P : P n Phi(G)| <= p.  Of the builtin
    report's 127 non-vacuous ThmA rows, 119 are forced; the 8 free ones are
    4 of C3xA4's and 4 of C3xS4's."""
    rows = [r for r in campaign["rows"]
            if r["statement_id"].startswith("ThmA.") and not r["vacuous"]]
    forced = {}
    for name in sorted({r["group"] for r in rows}):
        G = corpus[name].build()
        phi = frattini_subgroup(G)
        forced[name] = any(part_for_primes(G.order // phi.order, {p}) <= p
                           for p in primes_of(G.order))
        in_phi = any(V.mask & phi.mask == V.mask
                     for V in harness._sylow_maximal_candidates(G, Limits()))
        assert forced[name] == in_phi, name
    assert Counter(forced[r["group"]] for r in rows) == {True: 119, False: 8}
    assert Counter(r["group"] for r in rows if not forced[r["group"]]) == \
        {"C3xA4": 4, "C3xS4": 4}


def test_every_sigma1_row_equals_its_singleton_partition_row(corpus, campaign):
    """sigma1 and the listed partition of one block per prime of |G| have
    the same blocks inside pi(G), with the same ids, so every sigma-scope
    row at sigma1 equals the group's row at the singleton partition in every
    field but ``sigma``, witnesses included.  Groups with more primes than
    ``PARTITION_PRIME_CAP`` have no singleton row."""
    rows = {(r["group"], r["sigma"], r["statement_id"]): r for r in campaign["rows"]}
    pairs = 0
    for (name, label, sid), row in rows.items():
        if label != "sigma1" or harness.REGISTRY[sid].scope != "sigma":
            continue
        primes = primes_of(corpus[name].expected_order)
        singleton = SigmaPartition.of_blocks(*({p} for p in primes)).text()
        if len(primes) <= harness.PARTITION_PRIME_CAP:
            assert {**rows[name, singleton, sid], "sigma": label} == row, (name, sid)
            pairs += 1
    assert pairs == 405


def test_rows_of_one_group_and_partition_agree_across_statements(campaign):
    """Three rules between the rows of one group, read off the builtin
    report.  Corollary 1.2 is Corollary 1.1 at sigma1, so each Cor1.2 row
    equals its group's Cor1.1 row at sigma1 in every field but the
    statement id.  Cor1.1 and ThmA.iii are vacuous exactly when G lies in
    the sigma-soluble PsigmaT class, and Lemma 2.5's forward premise is
    that class, so at every (group, partition) ThmA.iii is vacuous exactly
    when Cor1.1 is, and Lem2.5.fwd is a premise skip exactly when Cor1.1
    is not vacuous."""
    rows = {(r["group"], r["sigma"], r["statement_id"]): r for r in campaign["rows"]}
    cor_1_2 = [(name, label) for name, label, sid in rows if sid == "Cor1.2"]
    for name, label in cor_1_2:
        assert label == "sigma1"
        assert {**rows[name, label, "Cor1.2"], "statement_id": "Cor1.1"} == \
            rows[name, label, "Cor1.1"], name
    pairs = [(name, label) for name, label, sid in rows if sid == "Cor1.1"]
    outside_pairs = 0
    for pair in pairs:
        outside = not rows[(*pair, "Cor1.1")]["vacuous"]
        outside_pairs += outside
        assert rows[(*pair, "ThmA.iii")]["vacuous"] != outside, pair
        lemma = rows[(*pair, "Lem2.5.fwd")]
        premise_skip = lemma["verdict"] == "skipped" and \
            lemma["reason"].startswith("premise not satisfied")
        assert premise_skip == outside, pair
    assert (len(cor_1_2), len(pairs), outside_pairs) == (45, 136, 44)


def test_sigma_solubility_rows_agree_across_statements_and_partitions(corpus, campaign):
    """Lem2.1's premise, Lem2.2's pi-separability and ThmA.i's class are all
    sigma-solubility, and ThmA.ii's class is sigma-nilpotency, so the rows
    of one group agree:

    (a) at every (group, sigma), Lem2.1 skips on its premise exactly when
        ThmA.i is not vacuous, that is when G is not sigma-soluble;
    (b) Lem2.2's ``pi_separable`` is ThmA.i's ``vacuous`` at the campaign
        partition {pi n pi(G), pi(G) - pi}, when both parts are nonempty;
    (c) both classes are closed under coarsening, so a ThmA.i or ThmA.ii row
        that is vacuous at a listed partition is vacuous at every coarser
        listed one (sigma1 is the singleton partition again, and is left
        out)."""
    rows = {(r["group"], r["sigma"], r["statement_id"]): r for r in campaign["rows"]}
    pairs = Counter()
    for (name, label, sid), row in rows.items():
        if sid == "Lem2.1":
            premise_skip = row["verdict"] == "skipped" and row["vacuous"]
            assert premise_skip == (not rows[name, label, "ThmA.i"]["vacuous"]), (name, label)
            pairs["a"] += 1
        elif sid == "Lem2.2":
            primes = primes_of(corpus[name].expected_order)
            pi = frozenset(row["witness"]["pi"]) & primes
            if pi and primes - pi:
                sigma = SigmaPartition.of_blocks(pi, primes - pi).text()
                assert row["witness"]["pi_separable"] == rows[name, sigma, "ThmA.i"]["vacuous"], \
                    (name, sigma)
                pairs["b"] += 1
        elif sid in ("ThmA.i", "ThmA.ii") and row["vacuous"] and label != "sigma1":
            blocks = parse_sigma(label).blocks
            for (other, coarser, other_sid), other_row in rows.items():
                if ((other, other_sid) == (name, sid) and coarser not in (label, "sigma1")
                        and all(any(b <= c for c in parse_sigma(coarser).blocks) for b in blocks)):
                    assert other_row["vacuous"], (name, sid, label, coarser)
                    pairs[sid] += 1
    assert pairs == {"a": 136, "b": 80, "ThmA.i": 36, "ThmA.ii": 6}


@pytest.mark.parametrize("jobs", [0, -1, 2.5, True], ids=repr)
def test_campaign_config_refuses_a_bad_job_count(jobs):
    """The config is the one check of the job count, for the command line
    and for library callers alike; it is refused before any pool starts."""
    with pytest.raises(GroupInputError,
                       match=rf"^--jobs must be (at least 1|an int), got {re.escape(repr(jobs))}$"):
        CampaignConfig(jobs=jobs)


def test_builtin_campaign_builds_each_by_order_index_once(corpus, monkeypatch):
    """Over one builtin campaign, every root's lattice gets a by-order index,
    and an index is built at most once per root and mask, however many
    statements read it."""
    clear_intern_cache()
    builds = []
    memo = structure._memo

    def spy(G, limits, compute, *key):
        if key == ("lattice-by-order",):
            return memo(G, limits, lambda: builds.append((G.root, G.mask)) or compute(), *key)
        return memo(G, limits, compute, *key)
    monkeypatch.setattr(structure, "_memo", spy)
    run_campaign(list(corpus.values()), CampaignConfig(zero_millis=True))
    # the roots stay referenced in ``builds``, so their ids are not reused
    counts = Counter((id(root), mask) for root, mask in builds)
    assert len({id(root) for root, mask in builds if mask == root.mask}) == len(corpus)
    assert max(counts.values()) == 1


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
    submitted, workers = [], []

    class InlinePool:
        """Maps serially, so no process is started."""
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, entries, configs):
            entries = list(entries)
            submitted.extend(e.name for e in entries)
            return map(fn, entries, configs)

    monkeypatch.setattr(harness, "_process_pool", InlinePool)
    entries = [corpus[n] for n in ["S3", "C6", "S4", "A4"]]
    par = run_campaign(entries, CampaignConfig(jobs=2, zero_millis=True))
    assert submitted == ["S4", "A4", "S3", "C6"]     # stable among equal orders
    assert par == run_campaign(entries, CampaignConfig(jobs=1, zero_millis=True))
    # no more workers than groups, however many jobs are asked for
    run_campaign(entries, CampaignConfig(jobs=500, zero_millis=True))
    assert workers == [2, 4]


def test_verify_group_leaves_no_cycle_garbage(corpus):
    # every cached subgroup, lattice tuple and quotient hangs off a root's
    # cache, which verify_group empties, so reference counting frees it all
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name in ("S4", "A5", "PSL(2,7)"):
            verify_group(corpus[name], CampaignConfig(zero_millis=True))
        assert gc.collect() == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


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


def test_class_monotonicity_check_makes_error_rows():
    """A pair that fails the check becomes two error rows named by its
    InvariantError; the other rows, and a pair that holds, are kept."""
    sigma = parse_sigma("[2][3]")
    rows = [VerificationOutcome("ThmA.i", "G", sigma, "confirmed", vacuous=False),
            VerificationOutcome("ThmA.ii", "G", sigma, "confirmed", vacuous=True, millis=3),
            VerificationOutcome("ThmA.i", "G", S1, "confirmed", vacuous=False)]
    reason = "InvariantError: G/[2][3]: ThmA.i non-vacuous but ThmA.ii vacuous"
    assert _check_class_monotonicity(rows) == [
        replace(rows[0], verdict="error", reason=reason),
        replace(rows[1], verdict="error", vacuous=False, reason=reason), rows[2]]
    held = rows[:1] + [replace(rows[1], vacuous=False)]
    assert _check_class_monotonicity(held) == held
