"""The incremental Schreier-Sims chain of ``PermGroup``: every level against
brute-force orbits, and order, elements and membership against the previous
chain build, kept here as a reference."""

import math
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

def check_levels(G, elements):
    """Level i's transversal keys are the orbit of i under the pointwise
    stabilizer of 0..i-1, and a level is stored exactly when that orbit is
    more than {i}; each rep lies in G, fixes 0..i-1 and maps i to its key, and
    each stored inverse is its inverse."""
    n = G.degree
    ident = identity_images(n)
    assert len(G._transversals) == len(G._inverses) == n
    for i in range(n):
        orbit = {e[i] for e in elements if e[:i] == ident[:i]}
        trans, invs = G._transversals[i], G._inverses[i]
        if trans is None:
            assert invs is None and orbit == {i}
            continue
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
    for x in random_tests(n, gens, seed):
        assert (Perm(x) in G) == G.contains_images(x) == (ref.sift(x) is None)


@pytest.mark.parametrize("spec", SMALL + LARGER, ids=str)
def test_family_matches_reference_build(spec):
    n, gens, order = relabelled_padded(spec, 1)
    assert ReferenceChain(n, gens).order == order
    check_against_reference(n, gens, str(spec), with_elements=order <= 5000)


@settings(RANDOM_GROUPS, max_examples=50)
@given(small_groups())
def test_random_group_matches_brute_force_and_reference_build(G):
    gens = [g.images for g in G.generators]
    check_levels(G, oracles.close_tuples(gens, G.degree))
    check_against_reference(G.degree, gens, G.degree, with_elements=True)


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
# determinism

@pytest.mark.parametrize("spec", SMALL + LARGER, ids=str)
def test_two_builds_hold_the_same_chain(spec):
    n, gens, _ = relabelled_padded(spec, 2)
    a, b = build(n, gens), build(n, gens)
    assert a._strong == b._strong
    for levels in ("_transversals", "_inverses"):
        assert [t and list(t.items()) for t in getattr(a, levels)] == \
            [t and list(t.items()) for t in getattr(b, levels)]
