"""Subgroup lattices, normal structure, series, Sylow/Hall theory, quotients.

Derived expectations (subgroup counts, normal lattices, maximal subgroups,
Frattini orders) are cross-checked against the brute-force
oracle rather than asserted from memory.
"""

import dataclasses
import hashlib
import inspect
import operator

import pytest

import oracles
from conftest import image_set
from sigmagroups import (CapacityError, GroupInputError, Limits, Perm,
                         PermGroup, SigmaPartition, Subgroup, builtin_corpus,
                         builtin_entry, full_subgroup, is_psigma_t, trivial_subgroup)
import sigmagroups as sg
from sigmagroups import structure
from sigmagroups.errors import InvariantError
from sigmagroups.permcore import clear_intern_cache, interned
from sigmagroups.structure import (all_subgroups, chief_series,
                                   conjugate_image_sets,
                                   derived_subgroup, frattini_subgroup,
                                   hall_subgroup,
                                   intersection_subgroup, is_normal,
                                   is_soluble,
                                   maximal_subgroups,
                                   maximal_subgroups_of_p_group,
                                   minimal_normal_subgroups,
                                   normal_subgroups,
                                   quotient_group, subgroup_from_images,
                                   subgroups_of_order,
                                   supplements, sylow_subgroup)
from sigmagroups.structure import _element_table, _mask

SAMPLE = ["S3", "C6", "Q8", "D8", "A4", "S4", "D12", "C3xS3", "A5"]


def sub(G, *texts):
    return Subgroup(G, [Perm.parse(t, G.degree) for t in texts])


def image_sets(subgroups):
    return sorted((frozenset(s.element_images()) for s in subgroups),
                  key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# full lattice against the oracle

@pytest.mark.parametrize("name", SAMPLE)
def test_all_subgroups_match_oracle(corpus, oracle_group, name):
    G = corpus[name].build()
    assert image_sets(all_subgroups(G)) == oracle_group(name).subgroup_image_sets()


def test_all_subgroups_capacity():
    # A C2 x S3 placed at degree 17: no corpus group, subgroup-as-group, or
    # quotient lives there (17 divides no corpus order), so no other test can
    # pre-cache this lattice and defeat the bound.
    G = PermGroup(17, [Perm.parse("(1 2)", 17), Perm.parse("(3 4)", 17),
                       Perm.parse("(3 4 5)", 17)])
    with pytest.raises(CapacityError):
        all_subgroups(G, Limits(subgroup_bound=5))


def test_subgroups_of_order(corpus, oracle_group):
    G = corpus["S4"].build()
    oracle = oracle_group("S4")
    for k in (1, 2, 3, 4, 6, 8, 12, 24, 5):
        got = {s.element_images() for s in subgroups_of_order(G, k)}
        want = {s for s in oracle.subgroup_image_sets() if len(s) == k}
        assert got == want, f"order {k}"


def test_subgroups_of_order_are_the_lattice_entries_of_that_order(corpus):
    """On every builtin group, and on S4 inside S5 and A4 inside S4, the
    subgroups of order n are the lattice entries of order n, the same
    objects in the same order, for each divisor n of |G|; a non-divisor
    has none."""
    S5, S4 = corpus["S5"].build(), corpus["S4"].build()
    groups = {name: entry.build() for name, entry in corpus.items()}
    groups["S4 in S5"] = sub(S5, "(1 2)", "(1 2 3 4)")
    groups["A4 in S4"] = sub(S4, "(1 2 3)", "(1 2)(3 4)")
    for name, G in groups.items():
        subs = all_subgroups(G)
        non_divisor = next(k for k in range(2, G.order + 2) if G.order % k)
        for n in [d for d in range(1, G.order + 1) if G.order % d == 0] + [non_divisor]:
            found = subgroups_of_order(G, n)
            want = [h for h in subs if h.order == n]
            assert len(found) == len(want) and all(map(operator.is_, found, want)), (name, n)
        assert subgroups_of_order(G, non_divisor) == ()


def test_by_order_index_keeps_a_lower_subgroup_bound():
    """The by-order index is kept per root and mask, not per limits, and
    every read asks the lattice under the caller's limits first: a bound
    below A5's 59 subgroups refuses an index built under the default."""
    clear_intern_cache()
    A5 = builtin_entry("A5").build()
    fives = subgroups_of_order(A5, 5)
    assert len(fives) == 6 and hall_subgroup(A5, {5}) is fives[0]
    low = Limits(subgroup_bound=3)
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 3"):
        subgroups_of_order(A5, 5, low)
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 3"):
        hall_subgroup(A5, {5}, low)
    assert subgroups_of_order(A5, 5) is fives
    clear_intern_cache()


@pytest.mark.parametrize("name", ["S3", "A4", "Q8", "S4"])
def test_maximal_subgroups_match_oracle(corpus, oracle_group, name):
    G = corpus[name].build()
    assert image_sets(maximal_subgroups(G)) == oracles.maximal_image_sets(oracle_group(name))


@pytest.mark.parametrize("name", ["C4", "S3", "Q8", "A4", "S4", "C12"])
def test_frattini_matches_oracle(corpus, oracle_group, name):
    G = corpus[name].build()
    assert frattini_subgroup(G).order == oracles.frattini_order(oracle_group(name))


# ---------------------------------------------------------------------------
# normal structure

@pytest.mark.parametrize("name", SAMPLE)
def test_normal_subgroups_match_oracle_and_lattice_filter(corpus, oracle_group, name):
    G = corpus[name].build()
    direct = image_sets(normal_subgroups(G))
    assert direct == oracle_group(name).normal_image_sets()
    via_filter = image_sets(s for s in all_subgroups(G) if is_normal(G, s))
    assert direct == via_filter


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_element_orders_match_cycle_types(corpus, name):
    """The table's orders, read off cycle types, are the naive orders of the
    elements in the table's index order: the least k with x^k = 1, found
    by composing powers."""
    G = corpus[name].build()
    table = _element_table(G, Limits())
    assert list(table.element_orders()) == list(map(oracles.element_order, table.index))


def test_is_normal(corpus):
    G = corpus["S3"].build()
    assert is_normal(G, sub(G, "(1 2 3)"))
    assert not is_normal(G, sub(G, "(1 2)"))


def test_minimal_normal_subgroups(corpus):
    expect = {"S4": [4], "A4": [4], "A5": [60], "C6": [2, 3], "Q8": [2], "S3": [3]}
    for name, orders in expect.items():
        G = corpus[name].build()
        assert sorted(m.order for m in minimal_normal_subgroups(G)) == orders


def test_chief_series():
    # literature factor orders; lower/upper orders must telescope
    from sigmagroups import builtin_entry
    cases = {"C4": [2, 2], "S4": [4, 3, 2], "A5": [60]}
    for name, orders in cases.items():
        G = builtin_entry(name).build()
        factors = chief_series(G)
        assert [f.order for f in factors] == orders
        assert factors[0].lower.order == 1
        assert factors[-1].upper.order == G.order
        for a, b in zip(factors, factors[1:]):
            assert a.upper.element_images() == b.lower.element_images()
        for f in factors:
            assert f.upper.order == f.lower.order * f.order


def test_chief_series_prime_support(corpus):
    A5 = corpus["A5"].build()
    (factor,) = chief_series(A5)
    assert sorted(factor.prime_support) == [2, 3, 5]
    C6 = corpus["C6"].build()
    assert sorted(f.order for f in chief_series(C6)) == [2, 3]


# ---------------------------------------------------------------------------
# derived series, solubility, perfection

def test_derived_subgroup_matches_oracle(corpus, oracle_group):
    for name in ["S3", "A4", "S4", "Q8"]:
        G = corpus[name].build()
        oracle = oracle_group(name)
        want = oracle.to_images(oracle.mt.derived_of(frozenset(range(oracle.order))))
        assert derived_subgroup(G).element_images() == want


@pytest.mark.parametrize("name", SAMPLE + ["S5", "SL(2,5)", "PSL(2,7)", "F20"])
def test_is_soluble_matches_oracle(corpus, oracle_group, name):
    assert is_soluble(corpus[name].build()) == oracle_group(name).mt.is_soluble()


def test_is_perfect(corpus):
    for name, perfect in [("A5", True), ("SL(2,5)", True), ("S5", False), ("A4", False)]:
        G = corpus[name].build()
        assert (derived_subgroup(G).order == G.order) == perfect, name


# ---------------------------------------------------------------------------
# Sylow and Hall subgroups

def test_sylow_subgroups(corpus):
    S4 = corpus["S4"].build()
    assert sylow_subgroup(S4, 2).order == 8
    assert sylow_subgroup(S4, 3).order == 3
    A5 = corpus["A5"].build()
    assert sylow_subgroup(A5, 5).order == 5
    assert sylow_subgroup(A5, 7).order == 1  # prime not dividing the order


def test_stalled_sylow_growth_raises(corpus, monkeypatch):
    # claim a Sylow 2-subgroup of order 4 in S3: <(1 2)> is self-normalizing,
    # so growth from it stalls at order 2
    monkeypatch.setattr(structure, "part_for_primes", lambda n, primes: 4)
    with pytest.raises(InvariantError, match="growth stalled at order 2 below 4"):
        sylow_subgroup(corpus["S3"].build(), 2)


def test_hall_subgroups(corpus):
    S4 = corpus["S4"].build()
    assert hall_subgroup(S4, {2, 3}).order == 24
    assert hall_subgroup(S4, {3}).order == 3
    A5 = corpus["A5"].build()
    assert hall_subgroup(A5, {2, 3}).order == 12
    assert hall_subgroup(A5, {2, 5}) is None
    assert hall_subgroup(A5, {3, 5}) is None
    F20 = corpus["F20"].build()
    assert hall_subgroup(F20, {5}).order == 5
    assert hall_subgroup(F20, set()).order == 1


def test_p_group_helpers(corpus):
    E8 = corpus["E8"].build()
    maxes = maximal_subgroups_of_p_group(Subgroup(E8, E8.generators))
    assert len(maxes) == 7 and all(m.order == 4 for m in maxes)
    Q8 = corpus["Q8"].build()
    maxes = maximal_subgroups_of_p_group(Subgroup(Q8, Q8.generators))
    assert sorted(m.order for m in maxes) == [4, 4, 4]
    C6 = corpus["C6"].build()
    with pytest.raises(GroupInputError, match="not a p-group"):
        maximal_subgroups_of_p_group(Subgroup(C6, C6.generators))


# ---------------------------------------------------------------------------
# supplements

def test_supplements_in_a4(corpus):
    A4 = corpus["A4"].build()
    assert sorted(t.order for t in supplements(A4, sub(A4))) == [12]
    syl3 = sylow_subgroup(A4, 3)
    assert sorted(t.order for t in supplements(A4, syl3)) == [4, 12]
    v4 = sylow_subgroup(A4, 2)
    assert sorted(t.order for t in supplements(A4, v4)) == [3, 3, 3, 3, 12]


def test_supplements_product_covers_group(corpus):
    from sigmagroups.permcore import compose_images
    S4 = corpus["S4"].build()
    V = sylow_subgroup(S4, 2)
    for T in supplements(S4, V):
        prod = {compose_images(a, b)
                for a in V.element_images() for b in T.element_images()}
        assert len(prod) == S4.order


# ---------------------------------------------------------------------------
# quotients

def test_quotient_of_s4_by_v4(corpus):
    S4 = corpus["S4"].build()
    V4 = next(n for n in normal_subgroups(S4) if n.order == 4)
    q = quotient_group(S4, V4)
    assert q.group.order == 6
    assert q.kernel.element_images() == V4.element_images()
    # projection is a homomorphism with kernel V4
    elems = S4.elements()
    for a in elems[:8]:
        for b in elems[:8]:
            assert q.project(a * b) == q.project(a) * q.project(b)
    kernel = {x for x in elems if q.project(x).is_identity()}
    assert kernel == set(V4.elements())


def test_quotient_by_full_group_is_trivial(corpus):
    S3 = corpus["S3"].build()
    q = quotient_group(S3, Subgroup(S3, S3.generators))
    assert q.group.order == 1


def test_equal_quotients_share_one_interned_root(corpus):
    """A quotient whose sorted coset images are those of an interned root is
    that root: E8's seven quotients by its subgroups of order 2 are one
    group, interned as every root is."""
    clear_intern_cache()
    E8 = corpus["E8"].build()
    twos = [h for h in all_subgroups(E8) if h.order == 2]
    roots = {id(quotient_group(E8, N).group) for N in twos}
    assert len(twos) == 7 and len(roots) == 1


def test_a_group_interns_to_the_root_with_its_elements(corpus):
    """S4 from other generators is the builtin S4's root."""
    S4 = corpus["S4"].build()
    other = PermGroup(4, [Perm.parse("(1 2 3)", 4), Perm.parse("(3 4)", 4)])
    assert other.root is S4 and other is not S4
    assert interned(other) is S4


def test_quotient_by_non_normal_subgroup_is_rejected(corpus):
    S3 = corpus["S3"].build()
    with pytest.raises(GroupInputError, match="non-normal"):
        quotient_group(S3, sub(S3, "(1 2)"))


# ---------------------------------------------------------------------------
# misc helpers

def test_intersection_subgroup(corpus):
    S4 = corpus["S4"].build()
    a4 = sub(S4, "(1 2 3)", "(1 2)(3 4)")
    d8 = sylow_subgroup(S4, 2)
    got = intersection_subgroup(S4, a4, d8)
    assert got.order == 4
    assert got.element_images() == a4.element_images() & d8.element_images()


def test_closure_and_subgroup_from_images(corpus):
    S3 = corpus["S3"].build()
    images = oracles.close_tuples([Perm.parse("(1 2 3)", 3).images], 3)
    assert len(images) == 3
    h = subgroup_from_images(S3, images)
    assert h.order == 3 and h.root is S3


def test_generated_subgroup(corpus):
    S4 = corpus["S4"].build()
    h = Subgroup(S4, [Perm.parse("(1 2)", 4), Perm.parse("(3 4)", 4)])
    assert h.order == 4


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_subgroup_from_lattice_generators_is_the_lattice_entry(corpus, name):
    """Closing a lattice entry's generators with a chain gives the entry back."""
    G = corpus[name].build()
    for h in all_subgroups(G):
        assert Subgroup(G, h.generators) == h


def test_conjugate_image_sets(corpus):
    S3 = corpus["S3"].build()
    h = sub(S3, "(1 2)")
    sets = conjugate_image_sets(S3, h.element_images())
    assert len(sets) == 3
    a3 = sub(S3, "(1 2 3)")
    sets = conjugate_image_sets(S3, a3.element_images())
    assert len(sets) == 1
    S4 = corpus["S4"].build()
    p = sylow_subgroup(S4, 2)
    assert len(conjugate_image_sets(S4, p.element_images())) == 3


# ---------------------------------------------------------------------------
# the kernels' output pinned: each returned dict, keys in insertion order
# with their generator indices, as recorded before the kernels stopped
# re-sorting queues they build in canonical order

PINNED_CYCLIC_EXTENSION = {
    "C1": "851c366d8b71b994", "C2": "62866b92509fa0f8", "C3": "cadddea150b5af41",
    "C4": "7fa1f464a452661b", "C5": "cf923cc05b1c8715", "C6": "129e5da7c9016cb5",
    "C7": "ce79d73ed87fd617", "C8": "c57ce62add748e11", "C9": "ba04d55c558fc38f",
    "C10": "5b20390c75049bb2", "C11": "3f06c4e2bba073bc", "C12": "b94212d1ef662a42",
    "C13": "3c631d711bdfd9a2", "C14": "87ec4103998a67ee", "C15": "35e0fc1e1bcdb7ca",
    "C16": "af17bedb6f488928", "E4": "5fa89a2a592faf0f", "E8": "f250c83af84f316a",
    "E9": "add858eadb8e7c82", "S3": "82d86c0eb20ad9a5", "S4": "a6867c49f3349591",
    "A4": "31e17fac8238ae47", "D8": "d796fc86984e35ad", "D10": "0858de56f0a9cec3",
    "D12": "5ede2abb9eddf010", "Q8": "2c8bf11a22bd572e", "Q16": "19a5f4ec6fd865f5",
    "F20": "f74a755db18e2385", "F21": "58c308b6e37048f5", "SL(2,3)": "c4c713f01f22e800",
    "C3xS3": "c660fab2fe666b38", "C2xA4": "444f47b400b950a0", "Dic3": "e5739c8d5c750cf7",
    "C7:C6": "2d4274e64d83bad7", "C13:C3": "fd3ef8fb54fb0508", "C4xS3": "d37465456abcdd3b",
    "C2xS4": "20cf95f01e8c17a2", "C3xA4": "c6c2d699b703d968", "C5xA4": "0f984f72918ffc82",
    "C3xS4": "252fb626afaa2211", "C2xSL(2,3)": "22ec1d6c05ca2cfc",
}
PINNED_JOIN_CLOSURE = {
    "S5": "054585e5aae28b25", "A5": "66e5250e649c8a4f", "SL(2,5)": "bfa6a649e888a014",
    "PSL(2,7)": "9aa3b3078a51ebc2",
}
PINNED_NORMAL_LATTICE = {
    "C1": "851c366d8b71b994", "C2": "62866b92509fa0f8", "C3": "cadddea150b5af41",
    "C4": "9fc79b24e9a71fc8", "C5": "cf923cc05b1c8715", "C6": "0a27ba3eb031ef75",
    "C7": "ce79d73ed87fd617", "C8": "b1c5958c2002ce3c", "C9": "866043c70d078b37",
    "C10": "8e5a151d385b1706", "C11": "3f06c4e2bba073bc", "C12": "aa58eeb1e3731830",
    "C13": "3c631d711bdfd9a2", "C14": "43da6e69cedeec48", "C15": "8eb3980dce420381",
    "C16": "65fa707a6f9203f4", "E4": "5fa89a2a592faf0f", "E8": "f250c83af84f316a",
    "E9": "add858eadb8e7c82", "S3": "f19ca5c3d8d4a2b3", "S4": "07c9dbcc15471b1d",
    "S5": "d560bb3856f06208", "A4": "408d1d8ac844cd3c", "A5": "b476c52cb449962e",
    "D8": "2b33b01c1c1f9ffd", "D10": "1b29c5d5ea19d7c2", "D12": "c4226af031b49dda",
    "Q8": "e2a197c4f309bb5b", "Q16": "11eab24c3a5f7b52", "F20": "6c3db4a4b341645a",
    "F21": "db0014bbc0d1660c", "SL(2,3)": "b8821618c17e10bf", "C3xS3": "adafaf34b7f32366",
    "C2xA4": "d07a9bce2aa4520f", "Dic3": "b364fcf7b610b97c", "C7:C6": "e9698696597945c6",
    "C13:C3": "9979d917101bdfc7", "C4xS3": "314ea61d31f0ab3c", "C2xS4": "047710758efa9098",
    "C3xA4": "916ea558cc64fc76", "C5xA4": "3230bf8561dea607", "C3xS4": "c748c2e25cdbb4b5",
    "C2xSL(2,3)": "c4f0d82218e1a757", "SL(2,5)": "e8696c599e639f7e",
    "PSL(2,7)": "a070c33f8f75f3ea",
}


def kernel_digest(found):
    """The first 16 hex digits of the sha256 of a kernel's (mask, generator
    indices) pairs, in the dict's insertion order."""
    return hashlib.sha256(repr(list(found.items())).encode()).hexdigest()[:16]


def test_pinned_kernels_cover_the_builtins(corpus):
    soluble = {name for name, e in corpus.items() if is_soluble(e.build())}
    assert set(PINNED_CYCLIC_EXTENSION) == soluble
    assert set(PINNED_JOIN_CLOSURE) == set(corpus) - soluble
    assert set(PINNED_NORMAL_LATTICE) == set(corpus)


@pytest.mark.parametrize("kernel, pins", [
    ("_lattice_cyclic_extension", PINNED_CYCLIC_EXTENSION),
    ("_lattice_join_closure", PINNED_JOIN_CLOSURE),
    ("_normal_lattice", PINNED_NORMAL_LATTICE)], ids=["cyclic-extension", "join-closure", "normal"])
def test_kernel_returns_the_pinned_dict(corpus, kernel, pins):
    """Each kernel gives every pinned builtin the same keys, in the same
    order, with the same generator indices as when the pins were recorded."""
    limits = Limits()
    for name, digest in pins.items():
        G = corpus[name].build()
        table = _element_table(G, limits)
        args = (table, G.mask, limits) + (() if kernel == "_lattice_cyclic_extension"
                                          else (table.gens_of(G),))
        assert kernel_digest(getattr(structure, kernel)(*args)) == digest, name


# ---------------------------------------------------------------------------
# known subgroups are handed out again, not rebuilt

@pytest.mark.parametrize("name", ["S4", "A5"])
def test_lattice_tuples_are_built_once_per_root(corpus, chain_builds, name):
    # a fresh, non-interned instance, its interned root and the root's full
    # subgroup are one root and mask, so they share one cached tuple
    G = PermGroup(corpus[name].degree, corpus[name].generators)
    root = corpus[name].build()
    assert G is not root and G.root is root
    subs, normals = all_subgroups(G), normal_subgroups(G)
    assert all(s.root is root for s in subs + normals)
    chain_builds.clear()
    for H in (G, root, full_subgroup(root)):
        assert all_subgroups(H) is subs
        assert normal_subgroups(H) is normals
    assert chain_builds == []


def test_subgroup_kernels_build_no_table_or_chain(corpus, chain_builds, table_builds):
    clear_intern_cache()  # nothing cached for the subgroups of this S4
    S4 = corpus["S4"].build()
    assert len(all_subgroups(S4)) == 30
    A4 = sub(S4, "(1 2 3)", "(1 2)(3 4)")  # closed by a throwaway chain
    chain_builds.clear()
    table_builds.clear()
    assert len(all_subgroups(A4)) == 10
    assert [n.order for n in normal_subgroups(A4)] == [1, 4, 12]
    assert not is_psigma_t(A4, SigmaPartition.sigma1())
    assert chain_builds == []
    assert table_builds == []


# every builtin group but the two largest, whose proper subgroups are all
# soluble; S5 covers join closure restricted to a proper subgroup (A5)
@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()
                                  if e.name not in ("SL(2,5)", "PSL(2,7)")])
def test_in_place_lattices_equal_those_of_a_fresh_root(corpus, name):
    """The kernels restricted to a subgroup's members give the lattice and
    normal lattice of the subgroup as a group of its own: the same sets, in
    the same order.  The normal lattice has the same generators too, and so
    has the lattice of a subgroup as soluble as its root; a subgroup of the
    other solubility carries the generators of its root's lattice."""
    G = corpus[name].build()
    lattice = all_subgroups(G)
    for H in lattice:
        R = PermGroup(H.degree, H.generators)
        assert [(h.element_images(), h.generators) for h in normal_subgroups(H)] == \
            [(r.element_images(), r.generators) for r in normal_subgroups(R)]
        own, fresh = all_subgroups(H), all_subgroups(R)
        assert [h.element_images() for h in own] == [r.element_images() for r in fresh]
        if is_soluble(H) == is_soluble(G):
            assert [h.generators for h in own] == [r.generators for r in fresh]
        else:
            assert [(h.mask, h.generators) for h in own] == \
                [(k.mask, k.generators) for k in lattice if k.mask & H.mask == k.mask]


def test_lattice_kernels_are_hereditary(corpus):
    """The root's kernel, cyclic extension under a soluble root and join
    closure under an insoluble one, run on any subgroup gives the down-set
    of the root's lattice: the root's entries inside the subgroup, the same
    masks in the same order with the same generators.  So a subgroup's
    lattice is the same whether or not its root's lattice was built first."""
    for entry in corpus.values():
        G = entry.build()
        table = _element_table(G.root, Limits())
        lattice = all_subgroups(G)
        soluble = is_soluble(G)
        for H in lattice:
            if soluble:
                own = structure._lattice_cyclic_extension(table, H.mask, Limits())
            else:
                own = structure._lattice_join_closure(table, H.mask, Limits(), table.gens_of(H))
            down = [(k.mask, k.generators) for k in lattice if k.mask & H.mask == k.mask]
            assert list(table.entries(own)) == down, H.generators
            assert [(h.mask, h.generators) for h in all_subgroups(H)] == down, H.generators


def test_subgroup_lattice_is_read_off_the_root(corpus, monkeypatch):
    """Once the root's lattice is built, every subgroup gets the root's
    lattice entries inside it, the same objects, and no kernel runs on it.
    Before that, a subgroup runs its root's kernel on its own mask, whatever
    its own solubility, and the root's lattice is not built."""
    clear_intern_cache()  # no subgroup lattice cached by an earlier test
    runs = []
    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure"):
        original = getattr(structure, kernel)
        monkeypatch.setattr(structure, kernel,
                            lambda table, gmask, limits, *rest, original=original, kernel=kernel:
                            runs.append((kernel, gmask)) or original(table, gmask, limits, *rest))
    S4 = builtin_entry("S4").build()
    a4 = sub(S4, "(1 2 3)", "(1 2)(3 4)")
    assert len(all_subgroups(a4)) == 10
    assert runs == [("_lattice_cyclic_extension", a4.mask)]
    lattice = all_subgroups(S4)
    d8 = sylow_subgroup(S4, 2)
    runs.clear()
    down = all_subgroups(d8)
    assert runs == []
    assert len(down) == 10
    assert all(any(h is k for k in lattice) for h in down)
    S5 = builtin_entry("S5").build()
    s4 = sub(S5, "(1 2 3 4)", "(1 2)")
    runs.clear()
    before = all_subgroups(s4)
    assert len(before) == 30
    assert runs == [("_lattice_join_closure", s4.mask)]
    lattice = all_subgroups(S5)
    a5 = sub(S5, "(1 2 3)", "(1 2 3 4 5)")
    s4_moved = sub(S5, "(2 3 4 5)", "(2 3)")
    runs.clear()
    assert len(all_subgroups(a5)) == 59 and runs == []
    after = all_subgroups(s4_moved)
    assert len(after) == 30 and runs == []
    assert all(any(h is k for k in lattice) for h in after)
    # s4's lattice, built before S5's, is S5's down-set all the same
    assert [(h.mask, h.generators) for h in before] == \
        [(k.mask, k.generators) for k in lattice if k.mask & s4.mask == k.mask]
    clear_intern_cache()


def test_subgroup_lattice_fits_when_its_roots_does_not(corpus):
    """A5 inside S5 has 59 subgroups and S5 has 156.  Under a bound of 100,
    A5's lattice is listed whether S5's lattice is not built or was built
    under a higher bound, and it is the down-set of S5's."""
    clear_intern_cache()  # no S5 lattice cached by an earlier test
    S5 = builtin_entry("S5").build()
    a5 = sub(S5, "(1 2 3)", "(1 2 3 4 5)")
    subs = all_subgroups(a5, Limits(subgroup_bound=100))
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 100"):
        all_subgroups(S5, Limits(subgroup_bound=100))
    down = [(k.mask, k.generators) for k in all_subgroups(S5) if k.mask & a5.mask == k.mask]
    assert len(subs) == 59 and [(h.mask, h.generators) for h in subs] == down
    clear_intern_cache()
    S5 = builtin_entry("S5").build()
    assert len(all_subgroups(S5)) == 156
    a5 = sub(S5, "(1 2 3)", "(1 2 3 4 5)")
    assert [(h.mask, h.generators) for h in all_subgroups(a5, Limits(subgroup_bound=100))] == down
    clear_intern_cache()


def test_subgroup_of_another_group_is_rejected(corpus):
    S3, S4 = corpus["S3"].build(), corpus["S4"].build()
    a4 = sub(S4, "(1 2 3)", "(1 2)(3 4)")
    with pytest.raises(GroupInputError, match="not inside the group"):
        supplements(S3, a4)
    with pytest.raises(GroupInputError, match="not inside the group"):
        quotient_group(a4, sylow_subgroup(S4, 2))


def test_cached_lattice_keeps_a_lower_subgroup_bound(corpus):
    assert len(all_subgroups(corpus["S4"].build())) == 30
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 3"):
        all_subgroups(builtin_entry("S4").build(), Limits(subgroup_bound=3))


def test_lattice_capacity_failure_is_remembered(corpus, monkeypatch):
    """A kernel stopped by the subgroup bound runs once: a later call under a
    bound no larger raises the same error with no kernel run, and a larger
    bound still computes the lattice."""
    clear_intern_cache()  # no S4 lattice cached by an earlier test
    G = corpus["S4"].build()
    runs = []
    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure"):
        original = getattr(structure, kernel)
        monkeypatch.setattr(structure, kernel,
                            lambda table, gmask, limits, *rest, original=original:
                            runs.append(gmask) or original(table, gmask, limits, *rest))
    messages = []
    for bound in (3, 3, 2):
        with pytest.raises(CapacityError) as failure:
            all_subgroups(G, Limits(subgroup_bound=bound))
        messages.append(str(failure.value))
    assert runs == [G.mask]
    assert messages == ["subgroup enumeration exceeds subgroup-enumeration bound 3"] * 2 + \
        ["subgroup enumeration exceeds subgroup-enumeration bound 2"]
    assert len(all_subgroups(G, Limits(subgroup_bound=30))) == 30
    assert runs == [G.mask, G.mask]


def test_normal_lattice_obeys_the_subgroup_bound(monkeypatch):
    """C2^6 has 2825 subgroups, all normal: the normal lattice stops at the
    default subgroup bound of 2000, a later call under that bound raises with
    no kernel run, a larger bound lists all 2825, and the shared tuple is
    refused under the default bound again."""
    # not interned, so no lattice of another test is cached on it
    G = PermGroup(12, [Perm.parse(f"({2 * i + 1} {2 * i + 2})", 12) for i in range(6)])
    runs = []
    original = structure._normal_lattice
    monkeypatch.setattr(structure, "_normal_lattice",
                        lambda *args: runs.append(args[1]) or original(*args))
    for _ in range(2):
        with pytest.raises(CapacityError, match="subgroup-enumeration bound 2000"):
            normal_subgroups(G)
    assert runs == [G.mask]
    assert len(normal_subgroups(G, Limits(subgroup_bound=3000))) == 2825
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 2000"):
        normal_subgroups(G)
    assert runs == [G.mask, G.mask]


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_seeded_index_closure_matches_unseeded_and_oracle(corpus, name):
    G = corpus[name].build()
    table = _element_table(G, Limits())
    index = table.index
    for h in all_subgroups(G):
        block = sorted(index[e] for e in h.element_images())
        hgens = [g.images for g in h.generators]
        for e in G.element_images():
            gens = hgens + [e]
            flags = table.closure([index[g] for g in gens], block)
            seeded = image_set(table, _mask(flags))
            assert seeded == oracles.close_tuples(gens, G.degree)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_closure_cap_cuts_off_exactly_past_it(corpus, name):
    """closure(gens, block, cap) is None exactly when the uncapped closure has
    more than cap elements, and otherwise the same flags."""
    G = corpus[name].build()
    table = _element_table(G, Limits())
    for h in all_subgroups(G):
        block = table.members(h.mask)
        hgens = [table.index[g.images] for g in h.generators]
        for e in range(0, G.order, 3):
            flags = table.closure(hgens + [e], block)
            size = flags.count(1)
            for cap in {0, len(block) - 1, len(block), size - 1, size, size + 1, G.order}:
                capped = table.closure(hgens + [e], block, cap)
                if size > cap:
                    assert capped is None, (h, e, cap)
                else:
                    assert capped == flags, (h, e, cap)


def test_subgroup_from_images_warm_path_matches_cold(corpus, chain_builds):
    G = corpus["S4"].build()
    sets = [h.element_images() for h in all_subgroups(G)]
    first = [subgroup_from_images(G, s) for s in sets]
    chain_builds.clear()
    warm = [subgroup_from_images(G, s) for s in sets]
    assert chain_builds == []
    clear_intern_cache()
    G = corpus["S4"].build()
    cold = [subgroup_from_images(G, s) for s in sets]
    for s, a, w, c in zip(sets, first, warm, cold):
        assert w.generators == a.generators == c.generators
        assert w.order == a.order == c.order == len(s)
        assert w.element_images() == c.element_images() == s


def test_only_the_trivial_greedy_subgroup_is_wrapped_with_no_table(table_builds):
    """The trivial mask has no member to adjoin, so its greedy subgroup has
    no generators and builds no table.  Every larger mask is generated on
    the table: each subgroup of S4 of order 2 by its one element, and each
    other one by as many elements as the greedy walk adjoins."""
    clear_intern_cache()  # no table left on S4 by an earlier test
    S4 = builtin_entry("S4").build()
    trivial = structure._greedy_subgroup(S4, 1, Limits())
    assert (trivial.order, trivial.generators, table_builds) == (1, (), [])
    lattice = all_subgroups(S4)
    greedy = [structure._greedy_subgroup(S4, h.mask, Limits()) for h in lattice]
    assert [len(h.generators) for h in greedy if h.order == 2] == [1] * 9
    assert all(h.generators for h in greedy if h.order > 1)
    assert [h.mask for h in greedy] == [h.mask for h in lattice]
    assert len(table_builds) == 1
    clear_intern_cache()


# ---------------------------------------------------------------------------
# the multiplication-table bound

def test_cached_table_keeps_a_lower_table_bound(corpus):
    G = corpus["S4"].build()
    assert len(all_subgroups(G)) == 30
    low = Limits(table_order_bound=10)
    refused = pytest.raises(CapacityError,
                            match="group order 24 exceeds multiplication-table bound 10")
    with refused:
        normal_subgroups(builtin_entry("S4").build(), low)
    # cached normal lattices, lattices and quotients are refused too
    N = normal_subgroups(G)[1]
    quotient_group(G, N)
    for fn in (normal_subgroups, all_subgroups, lambda K, limits: quotient_group(K, N, limits)):
        with refused:
            fn(builtin_entry("S4").build(), low)


C504_GENS = ("(1 2 3 4 5 6 7)", "(8 9 10 11 12 13 14 15)", "(16 17 18 19 20 21 22 23 24)")


V4_GENS = ("(1 2)(3 4)", "(1 3)(2 4)")
D8_GENS = ("(1 2 3 4)", "(1 3)")
S23 = SigmaPartition.of_blocks({2}, {3})
S2_3 = SigmaPartition.of_blocks({2, 3})

# One row per exported call that takes limits, as (export, case, call on S4
# under the given limits); a case names a call whose answer is cached once
# S4's caches are warm, or is the trivial group or S4 itself.
LIMITED_CALLS = [
    ("all_subgroups", "", lambda G, lim: sg.all_subgroups(G, lim)),
    ("chief_series", "", lambda G, lim: sg.chief_series(G, lim)),
    ("frattini_subgroup", "", lambda G, lim: sg.frattini_subgroup(G, lim)),
    ("hall_subgroup", "", lambda G, lim: sg.hall_subgroup(G, [2], lim)),
    ("hall_subgroup", "all-primes", lambda G, lim: sg.hall_subgroup(G, [2, 3], lim)),
    ("hall_subgroup", "no-prime", lambda G, lim: sg.hall_subgroup(G, [5], lim)),
    ("is_soluble", "", lambda G, lim: sg.is_soluble(G, lim)),
    ("maximal_subgroups", "", lambda G, lim: sg.maximal_subgroups(G, lim)),
    ("maximal_subgroups_of_p_group", "",
     lambda G, lim: sg.maximal_subgroups_of_p_group(sub(G, *D8_GENS), lim)),
    ("maximal_subgroups_of_p_group", "trivial",
     lambda G, lim: sg.maximal_subgroups_of_p_group(sg.trivial_subgroup(G), lim)),
    ("minimal_normal_subgroups", "", lambda G, lim: sg.minimal_normal_subgroups(G, lim)),
    ("normal_subgroups", "", lambda G, lim: sg.normal_subgroups(G, lim)),
    ("quotient_group", "", lambda G, lim: sg.quotient_group(G, sub(G, *V4_GENS), lim)),
    ("subgroup_from_images", "",
     lambda G, lim: sg.subgroup_from_images(G, sub(G, *V4_GENS).element_images(), lim)),
    ("subgroups_of_order", "", lambda G, lim: sg.subgroups_of_order(G, 4, lim)),
    ("supplements", "", lambda G, lim: sg.supplements(G, sub(G, *V4_GENS), lim)),
    ("sylow_subgroup", "", lambda G, lim: sg.sylow_subgroup(G, 3, lim)),
    ("sylow_subgroup", "p-group", lambda G, lim: sg.sylow_subgroup(sub(G, *D8_GENS), 2, lim)),
    ("sylow_subgroup", "no-prime", lambda G, lim: sg.sylow_subgroup(G, 5, lim)),
    ("complete_hall_sigma_set", "", lambda G, lim: sg.complete_hall_sigma_set(G, S23, lim)),
    ("complete_hall_sigma_set", "one-block",
     lambda G, lim: sg.complete_hall_sigma_set(G, S2_3, lim)),
    ("complete_hall_sigma_set", "trivial",
     lambda G, lim: sg.complete_hall_sigma_set(sg.trivial_subgroup(G), S23, lim)),
    ("induces_power_automorphisms", "",
     lambda G, lim: sg.induces_power_automorphisms(G, sub(G, *V4_GENS), lim)),
    ("is_pi_separable", "", lambda G, lim: sg.is_pi_separable(G, [2], lim)),
    ("is_psigma_t", "", lambda G, lim: sg.is_psigma_t(G, S23, lim)),
    ("is_sigma_nilpotent", "", lambda G, lim: sg.is_sigma_nilpotent(G, S23, lim)),
    ("is_sigma_nilpotent", "one-block", lambda G, lim: sg.is_sigma_nilpotent(G, S2_3, lim)),
    ("is_sigma_nilpotent", "trivial",
     lambda G, lim: sg.is_sigma_nilpotent(sg.trivial_subgroup(G), S23, lim)),
    ("is_sigma_permutable", "",
     lambda G, lim: sg.is_sigma_permutable(G, sub(G, *V4_GENS), S23, lim)),
    ("is_sigma_soluble", "", lambda G, lim: sg.is_sigma_soluble(G, S23, lim)),
    ("largest_normal_block_subgroup", "",
     lambda G, lim: sg.largest_normal_block_subgroup(full_subgroup(G), [2], lim)),
    ("psigma_t_violation", "", lambda G, lim: sg.psigma_t_violation(G, S23, lim)),
    ("sigma_nilpotent_residual", "", lambda G, lim: sg.sigma_nilpotent_residual(G, S23, lim)),
    ("sigma_nilpotent_residual", "one-block",
     lambda G, lim: sg.sigma_nilpotent_residual(G, S2_3, lim)),
    ("sigma_permutable_sets", "", lambda G, lim: sg.sigma_permutable_sets(G, S23, lim)),
    ("validate_covering_witness", "", lambda G, lim: sg.validate_covering_witness(
        G, S23, "sigma-nilpotent", {"V": {"order": 4, "generators": list(V4_GENS)}}, lim)),
    ("verify_theorem_A", "", lambda G, lim: sg.verify_theorem_A(
        G, S23, "sigma-nilpotent", "S4", lim)),
    ("verify_cor_1_1", "", lambda G, lim: sg.verify_cor_1_1(G, S23, "S4", lim)),
    ("verify_cor_1_2", "", lambda G, lim: sg.verify_cor_1_2(G, "S4", lim)),
    ("verify_lemma_2_1", "", lambda G, lim: sg.verify_lemma_2_1(G, S23, "S4", lim)),
    ("verify_lemma_2_2", "", lambda G, lim: sg.verify_lemma_2_2(G, {2}, "S4", lim)),
    ("verify_lemma_2_3", "", lambda G, lim: sg.verify_lemma_2_3(G, S23, "S4", lim)),
    ("verify_lemma_2_4", "", lambda G, lim: sg.verify_lemma_2_4(G, S23, "S4", lim)),
    ("verify_lemma_2_5_forward", "",
     lambda G, lim: sg.verify_lemma_2_5_forward(G, S23, "S4", lim)),
    ("verify_lemma_2_5_converse_search", "",
     lambda G, lim: sg.verify_lemma_2_5_converse_search(G, S23, "S4", lim)),
]


def test_the_table_bound_audit_covers_every_export_taking_limits():
    """A new exported call that takes limits cannot skip the audit below."""
    taking = {name for name in dir(sg) if not name.startswith("_")
              and inspect.isfunction(fn := getattr(sg, name))
              and "limits" in inspect.signature(fn).parameters}
    assert taking == {export for export, _, _ in LIMITED_CALLS}


@pytest.mark.parametrize("export,case,call", LIMITED_CALLS,
                         ids=[export + (case and f"[{case}]") for export, case, _ in LIMITED_CALLS])
def test_every_call_taking_limits_checks_the_table_bound(corpus, export, case, call):
    """Every call that takes ``Limits`` checks the table bound, also when a
    call under the default limits has left its answer cached: S4 (24) is
    refused under a table bound of 4."""
    G = corpus["S4"].build()
    call(G, sg.DEFAULT_LIMITS)
    with pytest.raises(CapacityError,
                       match="^group order 24 exceeds multiplication-table bound 4$"):
        call(G, Limits(table_order_bound=4))


def test_table_order_bound_takes_effect():
    # C7 x C8 x C9 on 24 points: no other test interns a group of this degree
    gens = [Perm.parse(t, 24) for t in C504_GENS]
    G = PermGroup(24, gens)
    for fn in (all_subgroups, normal_subgroups):
        with pytest.raises(CapacityError,
                           match="group order 504 exceeds multiplication-table bound 100"):
            fn(G, Limits(table_order_bound=100))
    tg = oracles.TupleGroup([g.images for g in gens], 24)
    raised = Limits(table_order_bound=504)
    assert image_sets(all_subgroups(G, raised)) == tg.subgroup_image_sets()
    # abelian: every subgroup is normal
    assert image_sets(normal_subgroups(G, raised)) == tg.subgroup_image_sets()


def test_a_fresh_group_is_refused_by_the_table_bound():
    """A group made from generators is listed under the listing ceiling
    alone, so the bound that refuses A8 (20160) is the caller's table bound,
    and its message names it."""
    A8 = PermGroup(8, [Perm.parse("(1 2 3)", 8), Perm.parse("(2 3 4 5 6 7 8)", 8)])
    try:
        with pytest.raises(CapacityError,
                           match="^group order 20160 exceeds multiplication-table bound 20000$"):
            all_subgroups(A8, Limits(table_order_bound=20000))
    finally:
        clear_intern_cache()


def test_table_order_bound_above_16_bits_is_refused():
    """Table indices are 16-bit, so ``Limits`` refuses a table bound above
    65536 when it is made, before any table could be built."""
    assert Limits(table_order_bound=65536).table_order_bound == 65536
    for bad in (65537, 1 << 20):
        with pytest.raises(GroupInputError, match=f"table order bound {bad} is above 65536"):
            Limits(table_order_bound=bad)
    with pytest.raises(GroupInputError, match="above 65536"):
        dataclasses.replace(Limits(), table_order_bound=65537)


def test_limits_refuse_a_bound_below_one():
    """Every ``Limits`` field is refused below 1 when it is made, with the
    message the command line prints for its option."""
    for cap in dataclasses.fields(Limits):
        option = "--" + cap.name.replace("_", "-")
        for bad in (0, -3):
            with pytest.raises(GroupInputError, match=f"^{option} must be at least 1, got {bad}$"):
                Limits(**{cap.name: bad})
    assert Limits(subgroup_bound=1, table_order_bound=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.5, True, "3", None], ids=repr)
def test_limits_refuse_a_bound_that_is_not_an_int(bad):
    """A bound that is not an ``int`` is refused when ``Limits`` is made, as
    ``PermGroup`` refuses such a degree: a nan bound was accepted and then
    ignored by every comparison, and a string raised TypeError."""
    for cap in dataclasses.fields(Limits):
        option = "--" + cap.name.replace("_", "-")
        with pytest.raises(GroupInputError, match=f"^{option} must be an int, got "):
            Limits(**{cap.name: bad})


def test_a_table_built_under_raised_limits_is_refused_under_lower_ones(monkeypatch):
    """Every cached read checks the caller's table bound, so a table built
    under a raised bound is refused by a call under a lower one.  The calls
    that take no limits run under the module's ``DEFAULT_LIMITS``, read when
    they are called, so lowering it refuses them too, and raising it again
    lets them answer from the same table."""
    # C7 x C8 x C9 tabled under a raised bound
    gens = [Perm.parse(t, 24) for t in C504_GENS]
    G = PermGroup(24, gens)
    raised, low = Limits(table_order_bound=504), Limits(table_order_bound=100)
    _element_table(G.root, raised)
    A, B = Subgroup(G, gens[:1]), Subgroup(G, gens[1:2])
    refused = pytest.raises(CapacityError,
                            match="^group order 504 exceeds multiplication-table bound 100$")
    with refused:
        is_soluble(G, low)
    limit_free = [lambda: derived_subgroup(G), lambda: is_normal(G, A),
                  lambda: intersection_subgroup(G, A, B)]
    monkeypatch.setattr(structure, "DEFAULT_LIMITS", low)
    for call in limit_free:
        with refused:
            call()
    monkeypatch.setattr(structure, "DEFAULT_LIMITS", raised)
    assert is_soluble(G, raised)
    assert [call() for call in limit_free] == [trivial_subgroup(G), True, trivial_subgroup(G)]
