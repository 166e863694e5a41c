"""Structural algorithms on permutation groups.

Everything here is exact and deterministic.  Scales are "desk" sized: the
ambient order stays under the element-cache bound, subgroup enumeration under
the lattice bound.  Hot paths run on raw image tuples; results are wrapped as
``Subgroup`` values of the caller's ambient group, sorted canonically by
(order, element list).

Derived results are cached on the interned group instance, so repeated
queries against the same abstract subgroup (however it was constructed) are
answered once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, DEFAULT_LIMITS, GroupInputError, Limits
from .numbers import is_prime, is_prime_power, part_for_primes, prime_factors, primes_of
from .permcore import (Perm, PermGroup, Subgroup, compose_images, conjugate_images,
                       find_interned, identity_images, images_order, interned,
                       invert_images, trivial_subgroup)

# ---------------------------------------------------------------------------
# raw-set machinery

def closure_of_images(degree: int, gens: Sequence[tuple], seed: Iterable[tuple] = ()) -> frozenset[tuple]:
    """Elements of <gens>, or of <H, gens> when seed is the element set of a
    subgroup H.

    Contract for a seed: ``gens`` includes generators of H.  The closure adds
    whole right cosets Hx and tests only coset representative x generator
    products (Dimino's algorithm); the union of the cosets it reaches is closed
    under every generator, so it is <gens>.  Without a seed H is trivial and
    the cosets are single elements.
    """
    ident = identity_images(degree)
    block = list(seed) or [ident]
    seen = set(block)
    reps = [ident]
    ri = 0
    while ri < len(reps):
        r = reps[ri]
        ri += 1
        for g in gens:
            x = compose_images(r, g)
            if x not in seen:
                reps.append(x)
                seen.update(compose_images(h, x) for h in block)
    return frozenset(seen)


def _powers(x: tuple) -> list[tuple]:
    out = [x]
    cur = x
    ident = identity_images(len(x))
    while cur != ident:
        cur = compose_images(cur, x)
        out.append(cur)
    return out


def _greedy_generators(degree: int, images: frozenset[tuple]) -> tuple[tuple, ...]:
    gens: list[tuple] = []
    cl: frozenset[tuple] = frozenset({identity_images(degree)})
    for e in sorted(images):
        if e not in cl:
            gens.append(e)
            cl = closure_of_images(degree, gens)
            if len(cl) == len(images):
                break
    assert cl == images, "images do not form a subgroup"
    return tuple(gens)


def subgroup_from_images(ambient: PermGroup, images: frozenset[tuple]) -> Subgroup:
    """Wrap a known subgroup element set, picking a short generator list greedily.

    The generators are kept on the set's interned group, so a set met before
    is wrapped with no closure, chain build or enumeration.
    """
    group = find_interned(ambient.degree, images)
    gens = None if group is None else group.cache.get("greedy-generators")
    if gens is None:
        gens = tuple(Perm(g) for g in _greedy_generators(ambient.degree, images))
        if group is None:
            group = interned(PermGroup(ambient.degree, gens))
        group.cache["greedy-generators"] = gens
    return Subgroup._of_interned(ambient, group, gens)


def _wrap_known(G: PermGroup, entries: Sequence[tuple]) -> tuple[Subgroup, ...]:
    """Subgroups of G from (element set, generators) pairs, reusing the
    interned group of every set already known."""
    out = []
    for iset, gens in entries:
        group = find_interned(G.degree, iset) or interned(PermGroup(G.degree, gens))
        out.append(Subgroup._of_interned(G, group, gens))
    return tuple(out)


def _sorted_key(images: frozenset[tuple]) -> tuple:
    return (len(images), tuple(sorted(images)))


def _normalizes(x: tuple, gen_images: Sequence[tuple], hset: frozenset[tuple]) -> bool:
    xi = invert_images(x)
    return all(compose_images(compose_images(xi, g), x) in hset for g in gen_images)


def conjugate_image_sets(G: PermGroup, hset: frozenset[tuple],
                         hgens: Sequence[tuple]) -> list[frozenset[tuple]]:
    """Distinct conjugates of a subgroup element set under G, orbit order."""
    first = frozenset(hset)
    seen = {first}
    out = [first]
    frontier = [(first, tuple(hgens))]
    gen_pairs = [(g.images, invert_images(g.images)) for g in G.generators]
    while frontier:
        nxt = []
        for sset, sgens in frontier:
            for g, gi in gen_pairs:
                cgens = tuple(compose_images(compose_images(gi, s), g) for s in sgens)
                cset = frozenset(compose_images(compose_images(gi, e), g) for e in sset)
                if cset not in seen:
                    seen.add(cset)
                    out.append(cset)
                    nxt.append((cset, cgens))
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# generated/normal/derived subgroups

def generated_subgroup(G: PermGroup, gens: Iterable[Perm]) -> Subgroup:
    return Subgroup(G, tuple(gens))


def normal_closure(G: PermGroup, seed: Subgroup | Iterable[Perm]) -> Subgroup:
    """Smallest normal subgroup of G containing the seed elements."""
    seed_perms = seed.generators if isinstance(seed, Subgroup) else tuple(seed)
    for p in seed_perms:
        if p not in G:
            raise GroupInputError(f"seed element {p} is not in the group")
    orbit = _conjugation_orbit(G, [p.images for p in seed_perms])
    images = closure_of_images(G.degree, sorted(orbit))
    return subgroup_from_images(G, images)


def _conjugation_orbit(G: PermGroup, seeds: Sequence[tuple]) -> set[tuple]:
    gen_pairs = [(g.images, invert_images(g.images)) for g in G.generators]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for e in frontier:
            for g, gi in gen_pairs:
                f = compose_images(compose_images(gi, e), g)
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return seen


def centralizer(G: PermGroup, H: Subgroup) -> Subgroup:
    hg = [g.images for g in H.generators]
    images = frozenset(
        x for x in G.element_images()
        if all(compose_images(x, g) == compose_images(g, x) for g in hg))
    return subgroup_from_images(G, images)


def is_normal(G: PermGroup, H: Subgroup) -> bool:
    hset = H.element_images()
    return all(
        conjugate_images(h.images, g.images) in hset
        for h in H.generators for g in G.generators)


def _derived_images(degree: int, elements: frozenset[tuple]) -> frozenset[tuple]:
    comms = set()
    inv = {e: invert_images(e) for e in elements}
    for a in elements:
        for b in elements:
            comms.add(compose_images(compose_images(compose_images(inv[a], inv[b]), a), b))
    return closure_of_images(degree, sorted(comms))


def derived_subgroup(G: PermGroup) -> Subgroup:
    """Commutator subgroup: normal closure of the generator commutators."""
    comms = []
    for a in G.generators:
        for b in G.generators:
            comms.append(a.inverse() * b.inverse() * a * b)
    if not comms:
        return trivial_subgroup(G)
    return normal_closure(G, tuple(comms))


def derived_series_images(G: PermGroup) -> list[frozenset[tuple]]:
    out = [G.element_images()]
    while True:
        nxt = _derived_images(G.degree, out[-1])
        if nxt == out[-1]:
            return out
        out.append(nxt)


def is_soluble(G: PermGroup) -> bool:
    key = "soluble"
    K = interned(G)
    if key not in K.cache:
        K.cache[key] = len(derived_series_images(K)[-1]) == 1
    return K.cache[key]


def is_perfect(G: PermGroup) -> bool:
    return _derived_images(G.degree, G.element_images()) == G.element_images()


# ---------------------------------------------------------------------------
# subgroup lattice

def all_subgroups(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """Every subgroup of G, canonically sorted, trivial and G included.

    Soluble ambients use cyclic extension: grow each known subgroup H by a
    prime-order element of its normalizer, which reaches every (necessarily
    soluble) subgroup through its own composition series.  Insoluble ambients
    fall back to join closure over prime-power cyclic subgroups, which is
    complete for arbitrary subgroups at higher cost.

    The tuple is built once per ambient instance; every later call returns
    the same shared tuple.
    """
    if "lattice-subgroups" not in G.cache:
        K = interned(G)
        if "lattice" not in K.cache:
            if is_soluble(K):
                raw = _lattice_cyclic_extension(K, limits)
            else:
                raw = _lattice_join_closure(K, limits)
            entries = sorted(raw.items(), key=lambda kv: _sorted_key(kv[0]))
            K.cache["lattice"] = tuple(
                (iset, tuple(Perm(g) for g in gens)) for iset, gens in entries)
        G.cache["lattice-subgroups"] = _wrap_known(G, K.cache["lattice"])
    return G.cache["lattice-subgroups"]


def _check_lattice_room(found: dict, limits: Limits) -> None:
    if len(found) >= limits.subgroup_bound:
        raise CapacityError(
            f"subgroup enumeration exceeds subgroup-enumeration bound {limits.subgroup_bound}")


def _lattice_cyclic_extension(K: PermGroup, limits: Limits) -> dict[frozenset, tuple]:
    ident = identity_images(K.degree)
    els_sorted = sorted(K.element_images())
    trivial = frozenset({ident})
    found: dict[frozenset, tuple] = {trivial: ()}
    queue: list[frozenset] = [trivial]
    qi = 0
    while qi < len(queue):
        hset = queue[qi]
        qi += 1
        hgens = found[hset]
        for x in els_sorted:
            if x in hset:
                continue
            if not _normalizes(x, hgens, hset):
                continue
            # order of the coset xH in N(H)/H must be prime for a one-step extension
            k = 1
            cur = x
            while cur not in hset:
                cur = compose_images(cur, x)
                k += 1
            if not is_prime(k):
                continue
            coset_reps = [identity_images(K.degree)]
            for _ in range(k - 1):
                coset_reps.append(compose_images(coset_reps[-1], x))
            jset = frozenset(compose_images(h, r) for h in hset for r in coset_reps)
            if jset in found:
                continue
            assert len(jset) == len(hset) * k
            _check_lattice_room(found, limits)
            found[jset] = hgens + (x,)
            queue.append(jset)
    return found


def _lattice_join_closure(K: PermGroup, limits: Limits) -> dict[frozenset, tuple]:
    ident = identity_images(K.degree)
    trivial = frozenset({ident})
    seeds: dict[frozenset, tuple] = {}
    for e in sorted(K.element_images()):
        if e != ident and is_prime_power(images_order(e)):
            cyc = frozenset(_powers(e))
            seeds.setdefault(cyc, e)
    found: dict[frozenset, tuple] = {trivial: ()}
    for cyc, e in sorted(seeds.items(), key=lambda kv: _sorted_key(kv[0])):
        found[cyc] = (e,)
    seed_list = sorted(seeds.items(), key=lambda kv: _sorted_key(kv[0]))
    queue = sorted(found, key=_sorted_key)
    qi = 0
    while qi < len(queue):
        hset = queue[qi]
        qi += 1
        hgens = found[hset]
        for cyc, e in seed_list:
            if cyc <= hset:
                continue
            jset = closure_of_images(K.degree, list(hgens) + [e], seed=hset)
            if jset in found:
                continue
            _check_lattice_room(found, limits)
            found[jset] = hgens + (e,)
            queue.append(jset)
    return found


def subgroups_of_order(G: PermGroup, n: int, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    return tuple(h for h in all_subgroups(G, limits) if h.order == n)


def maximal_subgroups(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    subs = all_subgroups(G, limits)
    proper = [h for h in subs if h.order < G.order]
    out = []
    for h in proper:
        hset = h.element_images()
        if not any(hset < k.element_images() for k in proper if k.order > h.order):
            out.append(h)
    return tuple(out)


def frattini_subgroup(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """Intersection of the maximal subgroups (G itself when there are none)."""
    maxes = maximal_subgroups(G, limits)
    if not maxes:
        return subgroup_from_images(G, G.element_images())
    acc = set(maxes[0].element_images())
    for h in maxes[1:]:
        acc &= h.element_images()
    return subgroup_from_images(G, frozenset(acc))


# ---------------------------------------------------------------------------
# normal structure

def normal_subgroups(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """All normal subgroups, via join closure of cyclic normal closures.

    Every normal subgroup is the product of the normal closures of the cyclic
    subgroups it contains, and a product of normal subgroups is just the
    element-set product, so no generic subgroup search is needed.  Agrees with
    filtering all_subgroups by conjugation invariance (tested), but stays
    affordable for regular coset images where the full lattice would not.
    Like all_subgroups, the tuple is built once per ambient and shared.
    """
    if "normal-subgroups" in G.cache:
        return G.cache["normal-subgroups"]
    K = interned(G)
    if "normals" not in K.cache:
        ident = identity_images(K.degree)
        trivial = frozenset({ident})
        base: set[frozenset] = set()
        orbit_closure: dict[frozenset, frozenset] = {}
        for x in sorted(K.element_images()):
            if x == ident:
                continue
            orbit = frozenset(_conjugation_orbit(K, [x]))
            nset = orbit_closure.get(orbit)
            if nset is None:
                nset = closure_of_images(K.degree, sorted(orbit))
                orbit_closure[orbit] = nset
            base.add(nset)
        found: dict[frozenset, tuple] = {trivial: ()}
        for nset in sorted(base, key=_sorted_key):
            found.setdefault(nset, _greedy_generators(K.degree, nset))
        base_list = sorted(found.items(), key=lambda kv: _sorted_key(kv[0]))
        queue = [k for k, _ in base_list]
        qi = 0
        while qi < len(queue):
            nset = queue[qi]
            ngens = found[nset]
            qi += 1
            for mset, mgens in base_list:
                if mset <= nset:
                    continue
                prod = frozenset(compose_images(a, b) for a in nset for b in mset)
                if prod not in found:
                    found[prod] = ngens + mgens
                    queue.append(prod)
        entries = sorted(found.items(), key=lambda kv: _sorted_key(kv[0]))
        K.cache["normals"] = tuple(
            (iset, tuple(Perm(g) for g in gens)) for iset, gens in entries)
    G.cache["normal-subgroups"] = _wrap_known(G, K.cache["normals"])
    return G.cache["normal-subgroups"]


def minimal_normal_subgroups(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    if G.order == 1:
        raise GroupInputError("the trivial group has no minimal normal subgroups")
    normals = [n for n in normal_subgroups(G, limits) if n.order > 1]
    out = []
    for n in normals:
        nset = n.element_images()
        if not any(m.element_images() < nset for m in normals if m.order < n.order):
            out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class ChiefFactor:
    """One factor upper/lower of a chief series; both ends are normal in the ambient."""

    lower: Subgroup
    upper: Subgroup
    order: int
    prime_support: frozenset[int]


def chief_series(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> tuple[ChiefFactor, ...]:
    """A chief series built greedily: each step takes the lexicographically
    least normal subgroup sitting minimally above the current term."""
    normals = normal_subgroups(G, limits)
    normal_sets = [n.element_images() for n in normals]
    by_set = {n.element_images(): n for n in normals}
    current = frozenset({identity_images(G.degree)})
    factors: list[ChiefFactor] = []
    full = G.element_images()
    while current != full:
        above = [s for s in normal_sets if current < s]
        minimal = [s for s in above
                   if not any(t for t in above if len(t) < len(s) and current < t < s)]
        chosen = min(minimal, key=lambda s: tuple(sorted(s)))
        order = len(chosen) // len(current)
        factors.append(ChiefFactor(
            lower=by_set[current] if current in by_set else subgroup_from_images(G, current),
            upper=by_set[chosen],
            order=order,
            prime_support=primes_of(order)))
        current = chosen
    return tuple(factors)


# ---------------------------------------------------------------------------
# Sylow and Hall subgroups

def sylow_subgroup(G: PermGroup, p: int, limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """A Sylow p-subgroup, grown through normalizers from a p-element seed."""
    if not is_prime(p):
        raise GroupInputError(f"{p} is not a prime")
    target = part_for_primes(G.order, {p})
    if target == 1:
        return trivial_subgroup(G)
    if target == G.order:
        return subgroup_from_images(G, G.element_images())
    els = sorted(G.element_images())
    p_elements = [e for e in els
                  if is_prime_power(images_order(e)) and images_order(e) % p == 0]
    max_order = max(images_order(e) for e in p_elements)
    seed = min(e for e in p_elements if images_order(e) == max_order)
    pset = frozenset(_powers(seed))
    pgens: tuple = (seed,)
    while len(pset) < target:
        grown = False
        for x in p_elements:
            if x in pset:
                continue
            if not _normalizes(x, pgens, pset):
                continue
            pset = frozenset(compose_images(h, xk) for h in pset for xk in _powers(x))
            pgens = pgens + (x,)
            grown = True
            break
        if not grown:
            # growth stalled (should not happen); fall back to a lattice scan
            for h in all_subgroups(G, limits):
                if h.order == target:
                    return h
            raise GroupInputError(f"no Sylow {p}-subgroup found (inconsistent group)")
    assert len(pset) == target
    return subgroup_from_images(G, pset)


def hall_subgroup(G: PermGroup, pi: Iterable[int], limits: Limits = DEFAULT_LIMITS) -> Subgroup | None:
    """Canonical Hall pi-subgroup if one exists, else None (lattice scan)."""
    pi = frozenset(pi)
    target = part_for_primes(G.order, pi)
    if target == 1:
        return trivial_subgroup(G)
    if target == G.order:
        return subgroup_from_images(G, G.element_images())
    for h in all_subgroups(G, limits):
        if h.order == target:
            return h
    return None


def is_p_group(G: PermGroup) -> bool:
    return len(prime_factors(G.order)) <= 1


def maximal_subgroups_of_p_group(P: Subgroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """The index-p subgroups of a p-group, as subgroups of P's ambient."""
    if not is_p_group(P.group):
        raise GroupInputError(f"group of order {P.order} is not a p-group")
    if P.order == 1:
        return ()
    p = prime_factors(P.order)[0][0]
    subs = all_subgroups(P.group, limits)
    out = [Subgroup._of_interned(P.ambient, h.group, h.generators)
           for h in subs if h.order * p == P.order]
    return tuple(out)


# ---------------------------------------------------------------------------
# supplements and quotients

def supplements(G: PermGroup, V: Subgroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """All T <= G with VT = G, by |V||T| = |G||V n T| over the lattice."""
    vset = V.element_images()
    out = []
    for t in all_subgroups(G, limits):
        inter = len(vset & t.element_images())
        if V.order * t.order == G.order * inter:
            out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class QuotientGroup:
    """G/N presented on the right cosets of N; projection maps each element."""

    group: PermGroup
    projection: dict[Perm, Perm]
    kernel: Subgroup

    def project(self, x: Perm) -> Perm:
        return self.projection[x]


def quotient_group(G: PermGroup, N: Subgroup, limits: Limits = DEFAULT_LIMITS) -> QuotientGroup:
    K = interned(G)
    nset = N.element_images()
    cache_key = ("quotient", nset)
    if cache_key in K.cache:
        return K.cache[cache_key]
    if not is_normal(G, N):
        raise GroupInputError("quotient by a non-normal subgroup")
    els = sorted(G.element_images())
    coset_of: dict[tuple, int] = {}
    reps: list[tuple] = []
    for e in els:
        if e in coset_of:
            continue
        idx = len(reps)
        reps.append(e)
        for n in nset:
            coset_of[compose_images(n, e)] = idx
    index = len(reps)
    proj_images: dict[tuple, tuple] = {}
    for e in els:
        proj_images[e] = tuple(coset_of[compose_images(r, e)] for r in reps)
    gen_images = [Perm(proj_images[g.images]) for g in G.generators]
    Q = interned(PermGroup(index, gen_images))
    assert Q.order == index, "coset action order mismatch"
    ident = identity_images(index)
    kernel_set = frozenset(e for e, img in proj_images.items() if img == ident)
    assert kernel_set == nset, "coset action kernel mismatch"
    projection = {Perm(e): Perm(img) for e, img in proj_images.items()}
    result = QuotientGroup(group=Q, projection=projection, kernel=N)
    K.cache[cache_key] = result
    return result


def intersection_subgroup(G: PermGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    return subgroup_from_images(G, A.element_images() & B.element_images())
