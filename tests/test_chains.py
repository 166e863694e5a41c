"""The incremental Schreier-Sims chain of ``PermGroup``: every level against
brute-force orbits, and order, elements and membership against the previous
chain build, kept here as a reference."""

import hashlib
import math
import pickle
import random

import pytest
from hypothesis import given, settings

import oracles
from sigmagroups import Perm, PermGroup
from sigmagroups.permcore import compose_images, identity_images, invert_images
from test_differential import RANDOM_GROUPS, small_groups


class ReferenceChain:
    """The previous chain build, on image tuples: deepest-first Schreier-Sims
    with base 0..n-1 that rebuilds a level's orbit on every visit, sifts all
    its Schreier generators again, and inverts a rep at every sift step."""

    def __init__(self, degree, generators):
        self.degree = degree
        ident = identity_images(degree)
        self.transversals = [{i: ident} for i in range(degree)]
        self.strong = []
        for g in generators:
            if g != ident and g not in self.strong:
                self.strong.append(g)
        self._build()
        self.order = math.prod(len(t) for t in self.transversals)

    def sift(self, x, start=0):
        ident = identity_images(self.degree)
        for i in range(start, self.degree):
            if x == ident:
                return None
            p = x[i]
            if p == i:
                continue
            u = self.transversals[i].get(p)
            if u is None:
                return x
            x = compose_images(x, invert_images(u))
        return None if x == ident else x

    def _build(self):
        ident = identity_images(self.degree)
        i = self.degree - 1
        while i >= 0:
            gens = [s for s in self.strong if all(s[t] == t for t in range(i))]
            trans = {i: ident}
            frontier = [i]
            while frontier:
                nxt = []
                for a in frontier:
                    for s in gens:
                        if s[a] not in trans:
                            trans[s[a]] = compose_images(trans[a], s)
                            nxt.append(s[a])
                frontier = nxt
            self.transversals[i] = trans
            residue_level = None
            for p in sorted(trans):
                for s in gens:
                    sg = compose_images(compose_images(trans[p], s), invert_images(trans[s[p]]))
                    if sg != ident and (r := self.sift(sg, i + 1)) is not None:
                        self.strong.append(r)
                        residue_level = next(t for t in range(self.degree) if r[t] != t)
                        break
                if residue_level is not None:
                    break
            i = i - 1 if residue_level is None else residue_level

    def elements(self):
        elems = [identity_images(self.degree)]
        for trans in reversed(self.transversals):
            elems = [compose_images(e, u) for e in elems for u in trans.values()]
        return sorted(elems)


# ---------------------------------------------------------------------------
# families with a known order, relabelled and padded with random words

def cycle(n, points):
    img = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        img[a] = b
    return tuple(img)


def family(spec):
    """(degree, generators, order) of S_n, A_n (n odd), S_k wr S_m or AGL(1,p)."""
    kind, *args = spec
    if kind == "S":
        (n,) = args
        return n, [cycle(n, [0, 1]), cycle(n, list(range(n)))], math.factorial(n)
    if kind == "A":
        (n,) = args
        return n, [cycle(n, [0, 1, 2]), cycle(n, list(range(n)))], math.factorial(n) // 2
    if kind == "W":
        k, m = args
        n = k * m
        swap = tuple(x + k if x < k else x - k if x < 2 * k else x for x in range(n))
        shift = tuple(((x // k + 1) % m) * k + x % k for x in range(n))
        return (n, [cycle(n, [0, 1]), cycle(n, list(range(k))), swap, shift],
                math.factorial(k) ** m * math.factorial(m))
    (p,) = args
    root = next(a for a in range(2, p) if len({pow(a, e, p) for e in range(1, p)}) == p - 1)
    return p, [tuple((x + 1) % p for x in range(p)), tuple(root * x % p for x in range(p))], p * (p - 1)


def relabelled_padded(spec, seed):
    """The family's generators conjugated by a random point permutation, plus
    two random words in them."""
    rng = random.Random(f"{spec}:{seed}")
    n, gens, order = family(spec)
    relabel = list(range(n))
    rng.shuffle(relabel)
    inv = invert_images(tuple(relabel))
    gens = [tuple(relabel[g[inv[y]]] for y in range(n)) for g in gens]
    for _ in range(2):
        w = identity_images(n)
        for _ in range(rng.randint(2, 6)):
            w = compose_images(w, rng.choice(gens))
        gens.append(w)
    return n, gens, order


SMALL = [("S", 4), ("S", 5), ("S", 6), ("A", 5), ("A", 7), ("W", 2, 3), ("W", 3, 2),
         ("W", 2, 4), ("W", 3, 3), ("AGL", 5), ("AGL", 7), ("AGL", 11), ("AGL", 13)]
LARGER = [("S", 12), ("A", 13), ("W", 3, 4), ("W", 4, 3), ("W", 2, 8), ("AGL", 17)]


def build(n, gens):
    return PermGroup(n, [Perm(g) for g in gens])


# ---------------------------------------------------------------------------
# every level against brute force

def chain_state(G):
    """The stored chain as image tuples: the strong generators, then each
    level's (key, rep) and (key, inverse) pairs in its transversal's key
    order, None for a level that is not stored.  A level's inverses are
    slots indexed by point.  Below 257 points the chain holds bytes, and its
    tables are padded to 256, so each is cut to the degree."""
    n = G.degree
    transversals = [t and [(key, tuple(p[:n])) for key, p in t.items()]
                    for t in G._transversals]
    inverses = [t and [(key, tuple(slots[key][:n])) for key, _ in t]
                for t, slots in zip(transversals, G._inverses)]
    return [tuple(s[:n]) for s in G._strong], transversals, inverses


def check_levels(G, elements):
    """Level i's transversal keys are the orbit of i under the pointwise
    stabilizer of 0..i-1, and a level is stored exactly when that orbit is
    more than {i}; each rep lies in G, fixes 0..i-1 and maps i to its key, and
    each stored inverse is its inverse.  A stored inverse table has one slot
    per point, None exactly off the orbit, so no stale slot can hide.  The
    rep set holds exactly the stored reps and the identity."""
    n = G.degree
    ident = identity_images(n)
    _, transversals, inverses = chain_state(G)
    assert len(transversals) == len(inverses) == len(G._inverses) == n
    assert G._reps == {G._identity}.union(*(t.values() for t in G._transversals if t))
    for i in range(n):
        orbit = {e[i] for e in elements if e[:i] == ident[:i]}
        trans, invs, slots = transversals[i], inverses[i], G._inverses[i]
        if trans is None:
            assert invs is None and slots is None and orbit == {i}
            continue
        assert len(slots) == n
        assert {p for p in range(n) if slots[p] is not None} == orbit
        trans, invs = dict(trans), dict(invs)
        assert set(trans) == orbit and len(orbit) > 1
        assert set(invs) == set(trans)
        for key, rep in trans.items():
            assert rep in elements and rep[:i] == ident[:i] and rep[i] == key
            assert compose_images(rep, invs[key]) == ident


@pytest.mark.parametrize("spec", SMALL, ids=str)
def test_family_levels_match_brute_force(spec):
    n, gens, order = relabelled_padded(spec, 0)
    G = build(n, gens)
    elements = oracles.close_tuples(gens, n)
    assert G.order == len(elements) == order
    check_levels(G, elements)


# ---------------------------------------------------------------------------
# order, elements and membership against the reference build

def random_tests(n, gens, seed, count=200):
    """Half words in the generators, half uniform random permutations."""
    rng = random.Random(seed)
    tests = []
    for k in range(count):
        if k % 2:
            p = list(range(n))
            rng.shuffle(p)
            tests.append(tuple(p))
        else:
            w = identity_images(n)
            for _ in range(rng.randint(1, 20)):
                w = compose_images(w, rng.choice(gens))
            tests.append(w)
    return tests


def check_against_reference(n, gens, seed, with_elements):
    G, ref = build(n, gens), ReferenceChain(n, gens)
    assert G.order == ref.order
    if with_elements:
        assert [p.images for p in G.elements()] == ref.elements()
    tests = random_tests(n, gens, seed)
    for x in tests:
        assert (Perm(x) in G) == (ref.sift(x) is None)
    check_membership_against_sift(G, tests)


def check_membership_against_sift(G, tests):
    """``p in G``, which sifts through the stored levels only, agrees with
    the build's residue sift over every level."""
    for x in tests:
        assert (Perm(x) in G) == (G._sift(G._encode(x)) is None)


@pytest.mark.parametrize("spec", SMALL + LARGER, ids=str)
def test_family_matches_reference_build(spec):
    n, gens, order = relabelled_padded(spec, 1)
    assert ReferenceChain(n, gens).order == order
    check_against_reference(n, gens, str(spec), with_elements=order <= 5000)


@settings(RANDOM_GROUPS, max_examples=50)
@given(small_groups())
def test_random_group_matches_brute_force_and_reference_build(G):
    gens = [g.images for g in G.generators]
    elements = oracles.close_tuples(gens, G.degree)
    check_levels(G, elements)
    check_against_reference(G.degree, gens, G.degree, with_elements=True)
    check_membership_against_sift(G, elements)


def seeded_random_group(seed):
    """2-4 random generators of degree 4-9, half of them preserving the blocks
    {0..k-1} and {k..n-1}; orders up to 9!, past the hypothesis strategy's."""
    rng = random.Random(f"random-group:{seed}")
    n = rng.randint(4, 9)
    gens = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.5:
            p = list(range(n))
            rng.shuffle(p)
        else:
            low, high = list(range(n // 2)), list(range(n // 2, n))
            rng.shuffle(low)
            rng.shuffle(high)
            p = low + high
        gens.append(tuple(p))
    return n, gens


@pytest.mark.parametrize("seed", range(20))
def test_seeded_random_group_matches_reference_build(seed):
    n, gens = seeded_random_group(seed)
    G = build(n, gens)
    check_against_reference(n, gens, seed, with_elements=G.order <= 5000)
    if G.order <= 5000:
        check_levels(G, oracles.close_tuples(gens, n))


# ---------------------------------------------------------------------------
# past 255 points: quotient groups act on up to table_order_bound cosets

def affine(n, a, b):
    return tuple((a * x + b) % n for x in range(n))


def is_affine(p):
    """x -> ax + b with a != 0, on a prime number of points."""
    n, b = len(p), p[0]
    a = (p[1] - b) % n
    return a != 0 and p == affine(n, a, b)


def is_dihedral(p):
    """x -> x + b or x -> -x + b."""
    n, b = len(p), p[0]
    return p in (affine(n, 1, b), affine(n, -1, b))


@pytest.mark.parametrize("n, gens, order, member", [
    (257, [affine(257, 1, 1), affine(257, 3, 0)], 257 * 256, is_affine),
    (300, [affine(300, 1, 1), affine(300, -1, 0)], 2 * 300, is_dihedral),
], ids=["AGL(1,257)", "D_300"])
def test_chain_past_255_points(n, gens, order, member):
    """Orders against the closed form; membership of words, uniform
    permutations, random members and members with two points swapped
    against the affine or dihedral rule."""
    G = build(n, gens)
    assert G.order == order
    rng = random.Random(n)
    units = [1, n - 1] if member is is_dihedral else range(1, n)
    members = [affine(n, rng.choice(units), rng.randrange(n)) for _ in range(20)]
    swapped = []
    for p in members:
        i, j = rng.sample(range(n), 2)
        q = list(p)
        q[i], q[j] = q[j], q[i]
        swapped.append(tuple(q))
    tests = random_tests(n, gens, n, count=40) + members + swapped
    for x in tests:
        assert (Perm(x) in G) == member(x)
    assert sum(map(member, tests)) == 40
    if member is is_dihedral:
        assert [p.images for p in G.elements()] == sorted(
            affine(n, a, b) for a in (1, -1) for b in range(n))


@pytest.mark.parametrize("n, gens", [
    (7, [affine(7, 1, 1), affine(7, 3, 0)]),
    (257, [affine(257, 1, 1), affine(257, 3, 0)]),
], ids=["AGL(1,7) bytes", "AGL(1,257) tuples"])
def test_membership_refuses_a_move_off_the_stored_levels(n, gens):
    """AGL(1,p) stores the levels of points 1 and 2 only, as its
    stabilizer of those two points is trivial.  The transposition (3 4)
    fixes both of them,
    so the membership loop makes no gather, and only its final identity
    check refuses it."""
    G = build(n, gens)
    assert [i for i, _ in G._levels] == [0, 1]
    assert isinstance(G._identity, bytes if n <= 256 else tuple)
    swap = Perm.parse("(3 4)", n)
    assert swap not in G
    assert G._sift(G._encode(swap.images)) is not None
    assert Perm(affine(n, 3, 2)) in G


# ---------------------------------------------------------------------------
# Schreier generators sifted during a build

@pytest.mark.parametrize("n, gens, most", [
    (16, [cycle(16, [0, 1]), cycle(16, list(range(16)))], 40),
    (*relabelled_padded(("S", 12), 0)[:2], 30),
], ids=["S_16", "S_12 relabelled and padded"])
def test_residues_join_only_the_levels_they_enlarge(monkeypatch, n, gens, most):
    """A Schreier generator is sifted from the level below its own, so the
    sifts with start > 0 are the Schreier generators sifted: 28 for S_16 and
    19 for the padded S_12.  Sifting those that are already stored reps too
    sifts 547 and 304; adding each residue to every level from 0 up as
    well, not from the level below the one where it was found, sifts 1053
    and 769."""
    sifts = []
    original = PermGroup._sift

    def counting(self, x, start=0):
        if start > 0:
            sifts.append(start)
        return original(self, x, start)

    monkeypatch.setattr(PermGroup, "_sift", counting)
    assert build(n, gens).order == math.factorial(n)
    assert 0 < len(sifts) <= most


# ---------------------------------------------------------------------------
# a level below which the chain is the whole pointwise stabilizer in Sym or Alt

@pytest.mark.parametrize("n, gens, order, most", [
    (16, [cycle(16, [0, 1]), cycle(16, list(range(16)))], math.factorial(16), 60),
    (17, [cycle(17, [0, 1, 2]), cycle(17, list(range(17)))], math.factorial(17) // 2, 90),
], ids=["S_16", "A_17"])
def test_verification_stops_once_the_levels_below_are_full(monkeypatch, n, gens, order, most):
    """``_verify_level`` marks each (orbit point, generator) pair it takes
    up as verified, so the growth of its ``verified`` counts is the number
    of Schreier generators it forms.  A level below which every level has
    the orbit it has in Sym(n), or in Alt(n) for even generators, forms
    none: S_16 forms 48 and A_17 74, against 818 and 507 when every level
    is verified."""
    formed = []
    original = PermGroup._verify_level

    def counting(self, i, level_gens, verified):
        before = sum(verified.values())
        residue = original(self, i, level_gens, verified)
        formed.append(sum(verified.values()) - before)
        return residue

    monkeypatch.setattr(PermGroup, "_verify_level", counting)
    G = build(n, gens)
    assert G.order == order
    assert 0 < sum(formed) <= most
    assert G._full_from == 0


def transposition(n, a, b):
    return cycle(n, [a, b])


TRAPS = {
    # even generators first, then an odd one: Sym(7), not Alt(7)
    "A_7 then (1 2)": (7, [cycle(7, [0, 1, 2]), cycle(7, list(range(7))), transposition(7, 0, 1)],
                       math.factorial(7)),
    "(6 7) then A_7": (7, [transposition(7, 5, 6), cycle(7, [0, 1, 2]), cycle(7, list(range(7)))],
                       math.factorial(7)),
    # Alt(5) on points 4-8 of 9: the levels of 1-3 and 9 are off the moved points
    "Alt(5) on 4..8 of 9": (9, [cycle(9, [3, 4, 5]), cycle(9, [3, 4, 5, 6, 7])], 60),
    # the levels of the second factor are full, those of the first are not
    "S_3 x S_3": (6, [transposition(6, 0, 1), cycle(6, [0, 1, 2]),
                      transposition(6, 3, 4), cycle(6, [3, 4, 5])], 36),
    # every generator even, and the group PSL(2,5), of index 6 in Alt(6)
    "PSL(2,5) on 6 points": (6, [(1, 0, 3, 2, 4, 5), (1, 2, 0, 4, 5, 3)], 60),
}


@pytest.mark.parametrize("name", TRAPS)
def test_full_levels_are_judged_on_the_moved_points_and_every_generator(name):
    """Groups where a wrong full-size table would stop verification too
    early: an odd generator after even ones, fixed points on both sides of
    the moved ones, and direct products.  Order and every level against
    the brute-force closure and the reference build."""
    n, gens, order = TRAPS[name]
    G = build(n, gens)
    elements = oracles.close_tuples(gens, n)
    assert G.order == len(elements) == order
    check_levels(G, elements)
    check_against_reference(n, gens, name, with_elements=True)


@pytest.mark.parametrize("spec", [s for s in SMALL + LARGER if s[0] in ("W", "AGL")], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_wreath_and_affine_chains_keep_their_orders(spec, seed):
    """S_k wr S_m and AGL(1,p), whose chains stop short of Sym and Alt,
    relabelled and padded: order against the closed form, and against the
    brute-force closure where that is small."""
    n, gens, order = relabelled_padded(spec, seed)
    G = build(n, gens)
    assert G.order == order
    if order <= 5000:
        assert len(oracles.close_tuples(gens, n)) == order


# ---------------------------------------------------------------------------
# determinism, and the chain pinned: skipped sifts change no stored state

def chain_digest(G):
    """The first 16 hex digits of the sha256 of the stored chain's repr."""
    return hashlib.sha256(repr(chain_state(G)).encode()).hexdigest()[:16]


PINNED_CHAINS = {
    ("S", 4): "62e4b253d65d2792",
    ("S", 5): "f31c234aac88d5a7",
    ("S", 6): "538d053eab6e96f1",
    ("A", 5): "53fc96ec274c3a70",
    ("A", 7): "e45098c091657215",
    ("W", 2, 3): "775f371fe29ac256",
    ("W", 3, 2): "1a1865ce9d545934",
    ("W", 2, 4): "ce3b0dc010b26435",
    ("W", 3, 3): "78e60ba8c57c34ee",
    ("AGL", 5): "5934c3081b9cc112",
    ("AGL", 7): "023415c6a8affbbe",
    ("AGL", 11): "cc9c5cdd337b5911",
    ("AGL", 13): "bb60e52bc3400322",
    ("S", 12): "cc64f8f9e43144bc",
    ("A", 13): "8b9a1863d2998f17",
    ("W", 3, 4): "6eedac54b97975b9",
    ("W", 4, 3): "92471afd4954f6c0",
    ("W", 2, 8): "d794387903b01610",
    ("AGL", 17): "25f6608d0cd26a73",
    0: "56c6a7c62eb4c896",
    1: "b0587daa8191f3ef",
    2: "1da329b5ec719330",
    3: "d548521e809fe7e5",
    4: "eae2448544d4cb38",
    5: "67e4bfb683265997",
    6: "7b02b908ad4039c4",
    7: "a596294c456bcf97",
    8: "85bd6dbd9f12eba8",
    9: "30ca321a78cc99b2",
    10: "aefca1626b3f9273",
    11: "6bcf804b8845d951",
    12: "e3458d91fd23b30b",
    13: "54b3d86173ea5761",
    14: "cc3de9888ebe1321",
    15: "ff3d82e626cd5cba",
    16: "6129fe5b4a69cd4c",
    17: "cba99ae90f9161db",
    18: "ff2642f974af76bf",
    19: "cd33f3aaa9ecb8df",
    "AGL(1,257)": "45787ba630e3bb54",
    "D_300": "e907ce9588389462",
}


def pinned_group(key):
    """A family relabelled and padded with seed 5, a seeded random group by
    its seed, or a group of ``test_chain_past_255_points``."""
    if key == "AGL(1,257)":
        return build(257, [affine(257, 1, 1), affine(257, 3, 0)])
    if key == "D_300":
        return build(300, [affine(300, 1, 1), affine(300, -1, 0)])
    if isinstance(key, int):
        return build(*seeded_random_group(key))
    n, gens, _ = relabelled_padded(key, 5)
    return build(n, gens)


def test_pinned_chains_cover_the_families():
    assert set(PINNED_CHAINS) == {*SMALL, *LARGER, *range(20), "AGL(1,257)", "D_300"}


@pytest.mark.parametrize("key", PINNED_CHAINS, ids=str)
def test_chain_is_the_one_full_sifts_build(key):
    """The stored chain, strong generators, reps and inverses alike, has the
    digest recorded from a build that sifted every Schreier generator that
    is not a tree edge, each through every level until the identity: not
    sifting a generator that is a stored rep, and ending a sift at a stored
    rep, changed no stored byte."""
    assert chain_digest(pinned_group(key)) == PINNED_CHAINS[key]


def least_full_level(G):
    """The least k such that every level from k has its full size, read off
    the transversals."""
    sizes = [len(t) if t else 1 for t in G._transversals]
    return min(k for k in range(G.degree + 1)
               if all(sizes[j] == G._full[j] for j in range(k, G.degree)))


@pytest.mark.parametrize("key", [*SMALL, *LARGER, "AGL(1,257)", "D_300", "S_16"], ids=str)
def test_full_sizes_derived_again_on_a_built_chain_are_unchanged(key):
    """Deriving the full-size table and its index on a built chain, as a
    chain extended in place must, gives what the build left: the index is
    walked down over the orbits the chain holds, not restarted past the
    last level of size above 1 (which reads 15 for S_16, where the build
    leaves 0)."""
    if key == "S_16":
        G = build(16, [cycle(16, [0, 1]), cycle(16, list(range(16)))])
    else:
        G = pinned_group(key)
    full, full_from = list(G._full), G._full_from
    assert full_from == least_full_level(G)
    G._derive_full_sizes()
    assert (G._full, G._full_from) == (full, full_from)


@pytest.mark.parametrize("spec", SMALL + LARGER, ids=str)
def test_two_builds_hold_the_same_chain(spec):
    n, gens, _ = relabelled_padded(spec, 2)
    a, b = build(n, gens), build(n, gens)
    assert chain_state(a) == chain_state(b)


# ---------------------------------------------------------------------------
# the chain holds bytes up to 256 points and image tuples past them

def lifted(p, n):
    """p moved to the last len(p) of n points, the others fixed."""
    offset = n - len(p)
    return tuple(range(offset)) + tuple(offset + x for x in p)


def lowered(p, k):
    """lifted undone: p fixes all but its last k points."""
    offset = len(p) - k
    assert p[:offset] == tuple(range(offset))
    return tuple(x - offset for x in p[offset:])


def lowered_chain(G, k):
    """chain_state of a group on the last k points, lowered to 0..k-1; the
    levels of the fixed points are not stored."""
    offset = G.degree - k
    strong, transversals, inverses = chain_state(G)
    assert transversals[:offset] == inverses[:offset] == [None] * offset
    return ([lowered(s, k) for s in strong],
            *([t and [(key - offset, lowered(p, k)) for key, p in t] for t in levels[offset:]]
              for levels in (transversals, inverses)))


@pytest.mark.parametrize("spec", [("W", 2, 4), ("A", 7), ("AGL", 13)], ids=str)
def test_byte_and_tuple_chains_agree_at_255_256_257_points(spec):
    """One group on the last points of 255, 256 and 257: bytes with padded
    tables, bytes whose tables need no padding and whose points reach 255,
    then image tuples.  The same chain, order, sorted elements and
    membership answers; permutations that move a fixed point are refused."""
    k, gens, order = relabelled_padded(spec, 3)
    tests = random_tests(k, gens, 3, count=100)
    expected = [ReferenceChain(k, gens).sift(t) is None for t in tests]
    seen = []
    for n in (255, 256, 257):
        G = build(n, [lifted(g, n) for g in gens])
        assert isinstance(G._strong[0], bytes if n <= 256 else tuple)
        assert G.order == order
        assert [Perm(lifted(t, n)) in G for t in tests] == expected
        swap = {0: n - k, n - k: 0}     # then swap the fixed point 0 with a moved one
        assert not any(Perm(tuple(swap.get(x, x) for x in lifted(t, n))) in G for t in tests[:10])
        seen.append((lowered_chain(G, k), [lowered(p.images, k) for p in G.elements()]))
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("n", [12, 257])
def test_group_pickles_with_its_chain(n):
    """A group pickles with its chain in either encoding; nothing stored on
    it is a lambda or closure.  The stored levels come back as the levels
    of the unpickled chain, so membership answers survive the round trip,
    also for a permutation that moves only points of unstored levels."""
    k, gens, order = relabelled_padded(("W", 3, 3), 4)
    G = build(n, [lifted(g, n) for g in gens])
    tests = [Perm(lifted(t, n)) for t in random_tests(k, gens, 4, count=60)]
    tests.append(Perm.parse("(1 2)", n))
    expected = [p in G for p in tests]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        H = pickle.loads(pickle.dumps(G, protocol))
        assert H.order == G.order == order
        assert chain_state(H) == chain_state(G)
        assert [(i, level is H._inverses[i]) for i, level in H._levels] == \
            [(i, True) for i, _ in G._levels]
        assert [p in H for p in tests] == expected
    assert sum(expected) >= 30 and not expected[-1]
