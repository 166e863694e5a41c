"""Prime partitions and the sigma-class predicates.

The permutability checker is cross-validated against a naive implementation
of the definition: enumerate every complete Hall sigma-set and test the
product-set condition for every member and every conjugating element.
"""

import functools

import pytest

from sigmagroups import (CapacityError, GroupInputError, Limits, Perm,
                         Subgroup, builtin_corpus, builtin_entry, full_subgroup, parse_sigma,
                         trivial_subgroup)
from sigmagroups import sigma as sigma_module
from sigmagroups import structure as structure_module
from sigmagroups.numbers import primes_of
from sigmagroups.errors import InvariantError
from sigmagroups.permcore import clear_intern_cache, compose_images, conjugate_images
from sigmagroups.sigma import (SigmaPartition, complete_hall_sigma_set,
                               enumerate_complete_hall_sigma_sets,
                               has_complete_hall_sigma_set,
                               induces_power_automorphisms, is_pi_separable,
                               is_psigma_t, is_sigma_full_sylow_type,
                               is_sigma_nilpotent, is_sigma_permutable,
                               is_sigma_primary, is_sigma_soluble,
                               largest_normal_block_subgroup,
                               psigma_t_violation, sigma_full_sylow_type_violation,
                               sigma_nilpotent_residual, sigma_of_group,
                               sigma_of_int, sigma_permutable_sets)
from sigmagroups.harness import campaign_sigmas
from sigmagroups.structure import all_subgroups, is_normal, normal_subgroups

S1 = SigmaPartition.sigma1()


def sub(G, *texts):
    return Subgroup(G, [Perm.parse(t, G.degree) for t in texts])


# ---------------------------------------------------------------------------
# SigmaPartition and parsing

def test_blocks_are_normalized_and_sorted():
    s = SigmaPartition.of_blocks({5}, {3, 2})
    assert s.blocks == (frozenset({2, 3}), frozenset({5}))
    assert s.text() == "[2,3][5]"


def test_partition_validation():
    with pytest.raises(GroupInputError):
        SigmaPartition.of_blocks(set())            # empty block
    with pytest.raises(GroupInputError):
        SigmaPartition.of_blocks({2}, {2, 3})      # repeated prime
    with pytest.raises(GroupInputError):
        SigmaPartition.of_blocks({4})              # not a prime
    with pytest.raises(GroupInputError):
        SigmaPartition(blocks=(frozenset({2}),), classical=True)


def test_block_id_and_primes():
    s = parse_sigma("[2,3][5]")
    assert s.block_id(2) == "2,3" and s.block_id(3) == "2,3"
    assert s.block_id(5) == "5"
    assert s.block_id(7) == SigmaPartition.REST
    assert s.block_primes(3) == frozenset({2, 3})
    assert s.block_primes(11) is None
    assert s.same_block(2, 3) and not s.same_block(2, 5)
    assert S1.block_id(7) == "7"
    assert S1.block_primes(7) == frozenset({7})
    with pytest.raises(GroupInputError):
        s.block_id(6)


def test_text_and_parse_round_trip():
    for text in ["sigma1", "[]", "[2,3][5]", "[2][3][5]", "[2,3,5]"]:
        assert parse_sigma(text).text() == text
    assert parse_sigma("SIGMA1").classical
    assert parse_sigma("[3][2]").text() == "[2][3]"  # sorted by least prime


@pytest.mark.parametrize("bad", ["", "junk", "2,3", "[2,3", "[1]", "[4]",
                                 "[2][2]", "[2,,3]", "[ ]"])
def test_parse_sigma_rejects_bad_text(bad):
    with pytest.raises(GroupInputError):
        parse_sigma(bad)


def test_sigma_of_and_primary(corpus):
    assert sigma_of_int(12, S1) == {"2", "3"}
    assert sigma_of_int(12, parse_sigma("[2,3]")) == {"2,3"}
    assert sigma_of_int(1, S1) == frozenset()
    assert is_sigma_primary(8, S1)
    assert is_sigma_primary(12, parse_sigma("[2,3]"))
    assert not is_sigma_primary(12, S1)
    assert is_sigma_primary(1, S1)
    assert sigma_of_group(corpus["A5"].build(), parse_sigma("[2,5][3]")) == {"2,5", "3"}


# ---------------------------------------------------------------------------
# Hall sigma-sets

def test_complete_hall_set_orders(corpus):
    assert complete_hall_sigma_set(corpus["S3"].build(), S1).member_orders() == (2, 3)
    A5 = corpus["A5"].build()
    assert complete_hall_sigma_set(A5, S1).member_orders() == (4, 3, 5)
    assert complete_hall_sigma_set(A5, parse_sigma("[2,3][5]")).member_orders() == (12, 5)
    assert complete_hall_sigma_set(A5, parse_sigma("[2,5][3]")) is None
    assert not has_complete_hall_sigma_set(A5, parse_sigma("[2,5][3]"))
    assert complete_hall_sigma_set(corpus["F20"].build(),
                                   parse_sigma("[2,5]")).member_orders() == (20,)
    assert complete_hall_sigma_set(corpus["C1"].build(), S1).member_orders() == ()


def test_enumerate_complete_hall_sets(corpus):
    assert len(enumerate_complete_hall_sigma_sets(corpus["S3"].build(), S1)) == 3
    assert len(enumerate_complete_hall_sigma_sets(corpus["A4"].build(), S1)) == 4
    assert enumerate_complete_hall_sigma_sets(
        corpus["A5"].build(), parse_sigma("[2,5][3]")) == ()


def test_enumerate_hall_sets_capacity(corpus):
    with pytest.raises(CapacityError):
        enumerate_complete_hall_sigma_sets(corpus["S4"].build(), S1,
                                           Limits(hall_set_cap=2))


# ---------------------------------------------------------------------------
# sigma-permutability: naive definition cross-check

@functools.lru_cache(maxsize=None)
def _distinct_conjugates(G, wset):
    return {frozenset(conjugate_images(w, x) for w in wset) for x in G.element_images()}


def naive_sigma_permutable(G, A, sigma):
    """Direct reading: some complete Hall sigma-set H with AW^x = W^xA for
    every member W and every x in G (each distinct W^x tested once)."""
    hall_sets = enumerate_complete_hall_sigma_sets(G, sigma)
    aset = A.element_images()
    for hs in hall_sets:
        good = True
        for _bid, W in hs.members:
            for wx in _distinct_conjugates(G, W.element_images()):
                ab = {compose_images(a, w) for a in aset for w in wx}
                ba = {compose_images(w, a) for w in wx for a in aset}
                if ab != ba:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


@pytest.mark.parametrize("name,stext", [
    ("S3", "sigma1"), ("S3", "[2,3]"), ("A4", "sigma1"),
    ("D8", "sigma1"), ("S4", "sigma1"), ("A4", "[2,3]"), ("A5", "[2,3][5]"),
])
def test_permutability_matches_naive_definition(corpus, name, stext):
    G = corpus[name].build()
    sigma = parse_sigma(stext)
    for A in all_subgroups(G):
        assert is_sigma_permutable(G, A, sigma) == naive_sigma_permutable(G, A, sigma), \
            f"{name}/{stext}: subgroup of order {A.order}"


def test_normal_subgroups_are_sigma_permutable(corpus):
    for name, stext in [("S4", "sigma1"), ("A4", "[2,3]"), ("C6", "sigma1")]:
        G = corpus[name].build()
        sigma = parse_sigma(stext)
        for N in normal_subgroups(G):
            assert is_sigma_permutable(G, N, sigma)


def test_sigma_permutable_sets_of_s3(corpus):
    sp = sigma_permutable_sets(corpus["S3"].build(), S1)
    assert sorted(len(s) for s in sp) == [1, 3, 6]


def test_nothing_permutable_without_complete_hall_set(corpus):
    A5 = corpus["A5"].build()
    sigma = parse_sigma("[2,5][3]")
    assert not is_sigma_permutable(A5, full_subgroup(A5), sigma)
    assert not is_sigma_permutable(A5, trivial_subgroup(A5), sigma)
    assert sigma_permutable_sets(A5, sigma) == {}


# ---------------------------------------------------------------------------
# PsigmaT

PST_TABLE = {"S3": True, "Q8": True, "D8": True, "A4": False, "S4": False,
             "SL(2,3)": False, "F21": True, "C7:C6": True, "A5": True,
             "S5": True}


def test_pst_classification(corpus):
    for name, expected in PST_TABLE.items():
        assert is_psigma_t(corpus[name].build(), S1) == expected, name


@pytest.mark.parametrize("name", ["A4", "S4", "SL(2,3)"])
def test_violation_triple_is_self_consistent(corpus, name):
    G = corpus[name].build()
    K, H = psigma_t_violation(G, S1)
    assert 1 < H.order < G.order
    assert is_sigma_permutable(H, Subgroup(H, K.generators), S1)
    assert is_sigma_permutable(G, H, S1)
    assert not is_sigma_permutable(G, K, S1)


def test_no_violation_in_pst_groups(corpus):
    assert psigma_t_violation(corpus["S3"].build(), S1) is None
    assert psigma_t_violation(corpus["Q8"].build(), S1) is None


def test_c5xa4_depends_on_the_partition(corpus):
    G = corpus["C5xA4"].build()
    expected = {"[2,3,5]": True, "[2,3][5]": True, "[2,5][3]": False,
                "[3,5][2]": False, "sigma1": False}
    for stext, value in expected.items():
        assert is_psigma_t(G, parse_sigma(stext)) == value, stext


def test_pst_vacuous_without_complete_hall_set(corpus):
    A5 = corpus["A5"].build()
    sigma = parse_sigma("[2,5][3]")
    assert is_psigma_t(A5, sigma)
    assert not has_complete_hall_sigma_set(A5, sigma)


def naive_psigma_t(G, sigma):
    """Direct reading: K sp H and H sp G imply K sp G, for all K <= H <= G,
    with sp the naive definition above."""
    subs = all_subgroups(G)
    in_g = {K: naive_sigma_permutable(G, K, sigma) for K in subs}
    return all(in_g[K] or not (in_g[H] and naive_sigma_permutable(H, K, sigma))
               for H in subs for K in subs if K.is_subset_of(H))


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_one_block_partition_is_psigma_t_without_scanning_subgroups(corpus, name, monkeypatch):
    """With every prime of |G| in one block, {G} is the only complete Hall
    sigma-set, every subgroup is sigma-permutable, and the answer needs no
    lattice of a proper subgroup."""
    G = corpus[name].build()
    primes = sorted(primes_of(G.order))
    sigma = SigmaPartition.of_blocks(primes) if primes else SigmaPartition()
    scanned = []
    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure"):
        original = getattr(structure_module, kernel)
        monkeypatch.setattr(structure_module, kernel,
                            lambda table, gmask, limits, original=original:
                            scanned.append(gmask) or original(table, gmask, limits))
    monkeypatch.setattr(sigma_module, "all_subgroups",
                        lambda H, *a: scanned.append(H.mask) or all_subgroups(H, *a))
    verdict = is_psigma_t(G, sigma)
    monkeypatch.undo()
    assert [m for m in scanned if m != G.mask] == []
    assert verdict == naive_psigma_t(G, sigma)


# ---------------------------------------------------------------------------
# sigma-solubility and sigma-nilpotency

def test_sigma_soluble_on_a5_partitions(corpus):
    A5 = corpus["A5"].build()
    assert is_sigma_soluble(A5, parse_sigma("[2,3,5]"))
    for stext in ["sigma1", "[2,3][5]", "[2,5][3]", "[3,5][2]"]:
        assert not is_sigma_soluble(A5, parse_sigma(stext)), stext


def test_soluble_groups_are_sigma_soluble_for_every_partition(corpus):
    for name in ["S3", "S4", "SL(2,3)", "F20", "C3xS3"]:
        G = corpus[name].build()
        for stext in ["sigma1", "[2,3][5]", "[2,3,5,7]", "[2][3,5]"]:
            assert is_sigma_soluble(G, parse_sigma(stext)), f"{name}/{stext}"


def test_sigma_nilpotent_cases(corpus):
    A4 = corpus["A4"].build()
    assert is_sigma_nilpotent(A4, parse_sigma("[2,3]"))
    assert not is_sigma_nilpotent(A4, S1)
    F20 = corpus["F20"].build()
    assert is_sigma_nilpotent(F20, parse_sigma("[2,5]"))
    assert not is_sigma_nilpotent(F20, S1)
    assert is_sigma_nilpotent(corpus["C6"].build(), S1)
    assert not is_sigma_nilpotent(corpus["S3"].build(), S1)


def test_nilpotent_groups_are_sigma_nilpotent_for_every_partition(corpus):
    for name in ["Q8", "C12", "E8", "Q16"]:
        G = corpus[name].build()
        for stext in ["sigma1", "[2,3]", "[2][3,5]"]:
            assert is_sigma_nilpotent(G, parse_sigma(stext)), f"{name}/{stext}"


# ---------------------------------------------------------------------------
# residual

def test_residual_is_trivial_iff_sigma_nilpotent(corpus):
    for name, stext in [("A4", "[2,3]"), ("A4", "sigma1"),
                        ("S4", "sigma1"), ("F20", "[2,5]"), ("F20", "sigma1")]:
        G = corpus[name].build()
        sigma = parse_sigma(stext)
        r = sigma_nilpotent_residual(G, sigma)
        assert (r.order == 1) == is_sigma_nilpotent(G, sigma), f"{name}/{stext}"


def test_residual_values(corpus):
    A4 = corpus["A4"].build()
    v4 = sub(A4, "(1 2)(3 4)", "(1 3)(2 4)")
    assert sigma_nilpotent_residual(A4, S1).element_images() == v4.element_images()
    S4 = corpus["S4"].build()
    a4_in_s4 = sub(S4, "(1 2 3)", "(1 2)(3 4)")
    assert sigma_nilpotent_residual(S4, S1).element_images() == a4_in_s4.element_images()


def test_residual_is_normal_with_sigma_nilpotent_quotient(corpus):
    from sigmagroups.structure import quotient_group
    for name, stext in [("S4", "sigma1"), ("SL(2,3)", "sigma1"),
                        ("C5xA4", "[2,5][3]"), ("F21", "sigma1")]:
        G = corpus[name].build()
        sigma = parse_sigma(stext)
        r = sigma_nilpotent_residual(G, sigma)
        assert is_normal(G, r)
        q = quotient_group(G, r)
        assert is_sigma_nilpotent(q.group, sigma)


# ---------------------------------------------------------------------------
# sigma-full of Sylow type, separability, residual structure helpers

def test_sigma_full_sylow_type(corpus):
    for name in ["S3", "S4", "A5", "Q8"]:
        assert is_sigma_full_sylow_type(corpus[name].build(), S1), name
    A5 = corpus["A5"].build()
    violation = sigma_full_sylow_type_violation(A5, parse_sigma("[2,5][3]"))
    assert violation is not None
    assert violation["block"] == "2,5"
    assert violation["missing_hall"] is True
    assert not is_sigma_full_sylow_type(A5, parse_sigma("[2,5][3]"))


def per_subgroup_violation(G, sigma, limits=Limits()):
    """Lem2.1 as first written: the lattice and Hall data of every subgroup E
    of G, each computed on E as an ambient of its own."""
    table = structure_module._element_table(G.root, limits)
    for e_sub in all_subgroups(G, limits):
        for block in sigma_module._hall_data(e_sub, sigma, limits):
            if not block["candidates"]:
                return {"subgroup": e_sub.generators, "block": block["id"],
                        "missing_hall": True}
            conjugates = block["classes"][0]
            for cand in all_subgroups(e_sub, limits):
                if primes_of(cand.order) <= block["primes"] and cand.order > 1:
                    members = table.members(cand.mask)
                    if not any(c.issuperset(members) for c in conjugates):
                        return {"subgroup": e_sub.generators, "block": block["id"],
                                "uncovered": cand.generators}
    return None


def test_sigma_full_sylow_type_matches_per_subgroup_scan(corpus):
    """Every builtin group at every campaign partition: the same violation,
    witness generators included."""
    kinds = []
    for name, entry in corpus.items():
        G = entry.build()
        for sigma in campaign_sigmas(G):
            violation = sigma_full_sylow_type_violation(G, sigma)
            assert violation == per_subgroup_violation(G, sigma), (name, sigma.text())
            if violation is not None:
                kinds.append((name, sigma.text(), "missing_hall" in violation))
    assert len(kinds) == 11
    assert sum(missing for _, _, missing in kinds) == 7
    assert {("A5", "[2,3][5]", False), ("S5", "[2,3][5]", False)} <= set(kinds)


@pytest.mark.parametrize("name, stext", [("S4", "sigma1"), ("SL(2,3)", "[2][3]")])
def test_sigma_full_sylow_type_scans_no_proper_lattice(corpus, name, stext, monkeypatch):
    """With no violation, only G's own lattice is computed."""
    clear_intern_cache()  # no lattice or verdict cached by an earlier test
    G = corpus[name].build()
    scanned = []
    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure"):
        original = getattr(structure_module, kernel)
        monkeypatch.setattr(structure_module, kernel,
                            lambda table, gmask, limits, original=original:
                            scanned.append(gmask) or original(table, gmask, limits))
    hall_data = sigma_module._hall_data
    monkeypatch.setattr(sigma_module, "_hall_data",
                        lambda H, *a: scanned.append(H.mask) or hall_data(H, *a))
    violation = sigma_full_sylow_type_violation(G, parse_sigma(stext))
    monkeypatch.undo()
    assert violation is None
    assert scanned == [G.mask]


def test_pi_separability(corpus):
    A5 = corpus["A5"].build()
    assert not is_pi_separable(A5, {5})
    assert not is_pi_separable(A5, {2})
    assert is_pi_separable(A5, {2, 3, 5})
    assert is_pi_separable(A5, set())
    S4 = corpus["S4"].build()
    for pi in [set(), {2}, {3}, {2, 3}]:
        assert is_pi_separable(S4, pi)


def test_largest_normal_block_subgroup(corpus):
    S4 = corpus["S4"].build()
    D = sigma_nilpotent_residual(S4, S1)  # the A4 inside S4
    assert largest_normal_block_subgroup(D, {2}).order == 4
    assert largest_normal_block_subgroup(D, {3}).order == 1
    assert largest_normal_block_subgroup(D, {2, 3}).order == 12


def test_induces_power_automorphisms(corpus):
    S3 = corpus["S3"].build()
    assert induces_power_automorphisms(S3, sigma_nilpotent_residual(S3, S1))
    A4 = corpus["A4"].build()
    assert not induces_power_automorphisms(A4, sigma_nilpotent_residual(A4, S1))
    F20 = corpus["F20"].build()
    assert induces_power_automorphisms(F20, sigma_nilpotent_residual(F20, S1))
    SL23 = corpus["SL(2,3)"].build()
    assert not induces_power_automorphisms(SL23, sigma_nilpotent_residual(SL23, S1))
    with pytest.raises(GroupInputError):
        induces_power_automorphisms(S3, sub(S3, "(1 2)"))


# ---------------------------------------------------------------------------
# cached verdicts keep the caller's limits

LOW_TABLE = Limits(table_order_bound=10)


def test_cached_sigma_soluble_keeps_a_lower_table_bound(corpus):
    assert is_sigma_soluble(corpus["S4"].build(), S1)
    with pytest.raises(CapacityError, match="group order 24 exceeds multiplication-table bound 10"):
        is_sigma_soluble(builtin_entry("S4").build(), S1, LOW_TABLE)


def test_cached_sylow_type_verdict_keeps_a_lower_subgroup_bound(corpus):
    S4 = corpus["S4"].build()
    assert sigma_full_sylow_type_violation(S4, S1) is None
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 3"):
        sigma_full_sylow_type_violation(S4, S1, Limits(subgroup_bound=3))


@pytest.mark.parametrize("verdict", [
    lambda G, limits: is_sigma_nilpotent(G, S1, limits),
    lambda G, limits: sigma_nilpotent_residual(G, S1, limits),
    lambda G, limits: psigma_t_violation(G, S1, limits),
    lambda G, limits: complete_hall_sigma_set(G, S1, limits),
    lambda G, limits: is_sigma_permutable(G, full_subgroup(G), S1, limits),
    lambda G, limits: sigma_full_sylow_type_violation(G, S1, limits),
], ids=["nilpotent", "residual", "psigma-t", "hall-set", "permutable", "sylow-type"])
def test_every_cached_verdict_keeps_a_lower_table_bound(corpus, verdict):
    first = verdict(corpus["S4"].build(), Limits())
    with pytest.raises(CapacityError, match="multiplication-table bound 10"):
        verdict(builtin_entry("S4").build(), LOW_TABLE)
    # the default limits still find the cached verdict
    assert verdict(corpus["S4"].build(), Limits()) == first


# ---------------------------------------------------------------------------
# internal checks raise InvariantError, which python -O keeps

def test_hall_set_order_check_raises(corpus, monkeypatch):
    S3 = corpus["S3"].build()
    blocks = sigma_module._hall_data(S3, S1, Limits())
    # drop the Sylow 3-block: the members no longer multiply to |G|
    monkeypatch.setattr(sigma_module, "_hall_data", lambda G, sigma, limits: blocks[:1])
    with pytest.raises(InvariantError, match="multiply to 2, not 6"):
        complete_hall_sigma_set(S3, S1)


def test_residual_witness_check_raises(corpus, monkeypatch):
    # in E4 the three subgroups of order 2 are normal and meet trivially;
    # taking them as the only witnesses breaks the minimum = meet check
    clear_intern_cache()  # no residual cached by an earlier test
    E4 = corpus["E4"].build()
    monkeypatch.setattr(sigma_module, "_quotient_is_sigma_nilpotent",
                        lambda G, n, sigma, limits: n.order == 2)
    with pytest.raises(InvariantError, match="intersection of witnesses"):
        sigma_nilpotent_residual(E4, parse_sigma("[3]"))


def test_largest_normal_block_check_raises(corpus, monkeypatch):
    E4 = corpus["E4"].build()
    halves = tuple(n for n in normal_subgroups(E4) if n.order == 2)
    monkeypatch.setattr(sigma_module, "normal_subgroups", lambda G, limits: halves)
    with pytest.raises(InvariantError, match="join into the largest one"):
        largest_normal_block_subgroup(full_subgroup(E4), {2})
