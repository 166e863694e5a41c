"""Structural algorithms on permutation groups.

Everything here is exact and deterministic.  Scales are "desk" sized: the
ambient order stays under the element-cache bound, subgroup enumeration under
the lattice bound.  The set algebra runs on an element-indexed kernel: each
interned group gets a multiplication table over its sorted elements, and
subgroups are ``int`` bitmasks or sets of indices into it.  The subgroup
lattice, the normal lattice, the derived series, quotients (cosets numbered
by table rows), products of subgroups (seeded closure), conjugates (one index
map per generator) and the product tests of sigma-permutability all work
there.  Since index order is image-tuple order, the kernel walks the same
sets in the same order as a walk over image tuples would.  Results leave the
kernel as frozensets of image tuples and ``Perm`` generators, and are wrapped
as ``Subgroup`` values of the caller's ambient group, sorted canonically by
(order, element list).

Derived results are cached on the interned group instance, so repeated
queries against the same abstract subgroup (however it was constructed) are
answered once.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError, Limits
from .numbers import is_prime, is_prime_power, part_for_primes, prime_factors, primes_of
from .permcore import (Perm, PermGroup, Subgroup, compose_images, conjugate_images,
                       find_interned, identity_images, images_order, interned,
                       interned_within, invert_images, trivial_subgroup)

# ---------------------------------------------------------------------------
# element-indexed kernel

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _mask(flags: bytearray) -> int:
    """The bitmask with bit i set where ``flags[i]`` is 1."""
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


class _ElementTable:
    """An interned group with its elements numbered in sorted order.

    ``rows[a][b]`` is the index of a*b (a applied first) and ``inverse[a]``
    that of a^-1; index 0 is the identity.  ``index`` maps image tuples to
    indices, and ``generators`` are the indices of the group's generators.
    Index arrays use ``typecode``.
    """

    __slots__ = ("order", "perms", "images", "index", "typecode", "rows", "inverse",
                 "generators", "_conjugations")

    def __init__(self, K: PermGroup):
        self.perms = K.elements()
        self.images = images = [p.images for p in self.perms]
        self.order = n = len(images)
        self.index = index = {e: i for i, e in enumerate(images)}
        self.typecode = code = "H" if n <= 1 << 16 else "I"
        gen_rows = [array(code, [index[compose_images(g.images, b)] for b in images])
                    for g in K.generators]
        self.generators = [row[0] for row in gen_rows]
        # row(x*g)[y] = row(x)[row(g)[y]]: one itemgetter call per row,
        # rows reached breadth-first from the identity
        steps = [(row[0], itemgetter(*row)) for row in gen_rows]
        rows: list = [None] * n
        rows[0] = array(code, range(n))
        reached = [0]
        for x in reached:
            rx = rows[x]
            for g, times_g in steps:
                y = rx[g]
                if rows[y] is None:
                    rows[y] = array(code, times_g(rx))
                    reached.append(y)
        if len(reached) != n:
            raise InvariantError(
                f"generators reach {len(reached)} of {n} elements in the table build")
        self.rows = rows
        self.inverse = [index[invert_images(e)] for e in images]
        self._conjugations: list[array] | None = None

    @property
    def conjugations(self) -> list[array]:
        """Per generator g, the index map e -> g^-1 e g; built on first use."""
        if self._conjugations is None:
            rows, inverse = self.rows, self.inverse
            self._conjugations = [array(self.typecode, [rows[x][g] for x in rows[inverse[g]]])
                                  for g in self.generators]
        return self._conjugations

    def index_set(self, images: Iterable[tuple]) -> frozenset[int]:
        """The indices of elements given as image tuples."""
        try:
            return frozenset(map(self.index.__getitem__, images))
        except KeyError:
            raise GroupInputError("element set is not inside the group") from None

    def conjugates(self, members: frozenset[int]) -> list[frozenset[int]]:
        """Distinct conjugates of a subgroup given by its indices, in
        breadth-first orbit order under the generators."""
        seen = {members}
        out = [members]
        for s in out:
            for conj in self.conjugations:
                c = frozenset(map(conj.__getitem__, s))
                if c not in seen:
                    seen.add(c)
                    out.append(c)
        return out

    def flags(self, mask: int) -> bytearray:
        """One byte per element: 1 where the element is in the mask."""
        return bytearray(format(mask, f"0{self.order}b")[::-1].encode()).translate(_FROM_DIGITS)

    def members(self, mask: int) -> list[int]:
        return list(compress(range(self.order), self.flags(mask)))

    def key(self, mask: int) -> tuple:
        """The canonical (order, element list) sort key of a subgroup."""
        return (mask.bit_count(), self.members(mask))

    def closure(self, gens: Sequence[int], block: Sequence[int]) -> bytearray:
        """Flags of <H, gens>, where ``block`` lists the elements of a
        subgroup H and ``gens`` includes generators of H.

        Dimino's algorithm on left cosets: each new coset xH is one row of the
        table read at H's indices, and only representative x generator
        products are tested.  The union of the cosets reached is closed under
        left multiplication by every generator, so it is <gens>.
        """
        rows = self.rows
        seen = bytearray(self.order)
        for h in block:
            seen[h] = 1
        reps = [0]
        for r in reps:
            for g in gens:
                x = rows[g][r]
                if not seen[x]:
                    reps.append(x)
                    for y in map(rows[x].__getitem__, block):
                        seen[y] = 1
        return seen

    def generate(self, candidates: Iterable[int], target: int = 0) -> tuple[int, tuple[int, ...]]:
        """Greedy closure: adjoin each candidate not yet reached, stopping
        early once ``target`` elements are reached (0: never).  Returns the
        closure's mask and the candidates adjoined."""
        flags = bytearray(self.order)
        flags[0] = 1
        block = [0]
        gens: tuple[int, ...] = ()
        for c in candidates:
            if flags[c]:
                continue
            gens += (c,)
            flags = self.closure(gens, block)
            block = list(compress(range(self.order), flags))
            if len(block) == target:
                break
        return _mask(flags), gens

    def image_set(self, mask: int) -> frozenset[tuple]:
        return frozenset(compress(self.images, self.flags(mask)))

    def images_of(self, indices: Iterable[int]) -> frozenset[tuple]:
        return frozenset(map(self.images.__getitem__, indices))

    def entries(self, found: dict[int, tuple]) -> tuple[tuple[frozenset, tuple[Perm, ...]], ...]:
        """(element set, generators) pairs of a lattice, canonically sorted."""
        masks = sorted(found, key=self.key)
        return tuple((self.image_set(m), tuple(self.perms[g] for g in found[m]))
                     for m in masks)


def check_table_order(order: int, limits: Limits) -> None:
    """CapacityError unless a group of this order may get a multiplication table."""
    if order > limits.table_order_bound:
        raise CapacityError(f"group order {order} exceeds multiplication-table "
                            f"bound {limits.table_order_bound}")


def _element_table(K: PermGroup, limits: Limits) -> _ElementTable:
    """The element table of an interned group, built on first use."""
    table = K.cache.get("element-table")
    if table is None:
        check_table_order(K.order, limits)
        table = K.cache["element-table"] = _ElementTable(K)
    return table


# ---------------------------------------------------------------------------
# raw-set machinery

def closure_of_images(degree: int, gens: Sequence[tuple]) -> frozenset[tuple]:
    """Elements of <gens>, by breadth-first products with the generators."""
    seen = {identity_images(degree)}
    frontier = list(seen)
    for x in frontier:
        for g in gens:
            y = compose_images(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
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
    if cl != images:
        raise GroupInputError("images do not form a subgroup")
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
            group = interned_within(ambient, PermGroup(ambient.degree, gens))
        group.cache["greedy-generators"] = gens
    return Subgroup._of_interned(ambient, group, gens)


def _wrap_known(G: PermGroup, entries: Sequence[tuple]) -> tuple[Subgroup, ...]:
    """Subgroups of G from (element set, generators) pairs, reusing the
    interned group of every set already known."""
    out = []
    for iset, gens in entries:
        group = (find_interned(G.degree, iset)
                 or interned_within(G, PermGroup(G.degree, gens)))
        out.append(Subgroup._of_interned(G, group, gens))
    return tuple(out)


def _normalizes(x: tuple, gen_images: Sequence[tuple], hset: frozenset[tuple]) -> bool:
    xi = invert_images(x)
    return all(compose_images(compose_images(xi, g), x) in hset for g in gen_images)


def conjugate_image_sets(G: PermGroup, hset: frozenset[tuple],
                         limits: Limits = DEFAULT_LIMITS) -> list[frozenset[tuple]]:
    """Distinct conjugates of a subgroup element set under G, in breadth-first
    orbit order under G's generators."""
    table = _element_table(interned(G), limits)
    return [table.images_of(c) for c in table.conjugates(table.index_set(hset))]


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


def _derived_mask(table: _ElementTable, mask: int) -> int:
    """Mask of the commutator subgroup of the subgroup ``mask``."""
    rows, inverse = table.rows, table.inverse
    members = table.members(mask)
    comms = bytearray(table.order)
    for a in members:
        for b in members:
            # [a, b] = a^-1 b^-1 a b = (b a)^-1 a b
            comms[rows[rows[inverse[rows[b][a]]][a]][b]] = 1
    return table.generate(compress(range(table.order), comms))[0]


def _derived_series_masks(table: _ElementTable) -> list[int]:
    out = [(1 << table.order) - 1]
    while True:
        nxt = _derived_mask(table, out[-1])
        if nxt == out[-1]:
            return out
        out.append(nxt)


def derived_subgroup(G: PermGroup) -> Subgroup:
    """Commutator subgroup: normal closure of the generator commutators."""
    comms = []
    for a in G.generators:
        for b in G.generators:
            comms.append(a.inverse() * b.inverse() * a * b)
    if not comms:
        return trivial_subgroup(G)
    return normal_closure(G, tuple(comms))


# The derived series takes no limits: it uses the group's table if one was
# built (all_subgroups builds it under the caller's limits first), else it
# builds one under the default table bound.

def derived_series_images(G: PermGroup) -> list[frozenset[tuple]]:
    table = _element_table(interned(G), DEFAULT_LIMITS)
    return [table.image_set(m) for m in _derived_series_masks(table)]


def is_soluble(G: PermGroup) -> bool:
    key = "soluble"
    K = interned(G)
    if key not in K.cache:
        K.cache[key] = _derived_series_masks(_element_table(K, DEFAULT_LIMITS))[-1] == 1
    return K.cache[key]


def is_perfect(G: PermGroup) -> bool:
    table = _element_table(interned(G), DEFAULT_LIMITS)
    full = (1 << table.order) - 1
    return _derived_mask(table, full) == full


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
            table = _element_table(K, limits)
            if is_soluble(K):
                found = _lattice_cyclic_extension(table, limits)
            else:
                found = _lattice_join_closure(table, limits)
            K.cache["lattice"] = table.entries(found)
        G.cache["lattice-subgroups"] = _wrap_known(G, K.cache["lattice"])
    return G.cache["lattice-subgroups"]


def _check_lattice_room(found: dict, limits: Limits) -> None:
    if len(found) >= limits.subgroup_bound:
        raise CapacityError(
            f"subgroup enumeration exceeds subgroup-enumeration bound {limits.subgroup_bound}")


def _lattice_cyclic_extension(table: _ElementTable, limits: Limits) -> dict[int, tuple]:
    """Subgroup masks -> generator indices, by cyclic extension."""
    rows, inverse, n = table.rows, table.inverse, table.order
    found: dict[int, tuple] = {1: ()}
    queue = [1]
    for hmask in queue:
        hgens = found[hmask]
        hflags = table.flags(hmask)
        block = list(compress(range(n), hflags))
        for x in range(n):
            if hflags[x]:
                continue
            by_xi = rows[inverse[x]]
            if not all(hflags[rows[by_xi[g]][x]] for g in hgens):
                continue  # x does not normalize H
            # order of the coset xH in N(H)/H must be prime for a one-step extension
            k = 1
            cur = x
            while not hflags[cur]:
                cur = rows[cur][x]
                k += 1
            if not is_prime(k):
                continue
            jgens = hgens + (x,)
            jflags = table.closure(jgens, block)
            jmask = _mask(jflags)
            if jmask in found:
                continue
            if jflags.count(1) != len(block) * k:
                raise InvariantError(f"cyclic extension of a subgroup of order {len(block)} "
                                     f"by a coset of order {k} has {jflags.count(1)} elements")
            _check_lattice_room(found, limits)
            found[jmask] = jgens
            queue.append(jmask)
    return found


def _lattice_join_closure(table: _ElementTable, limits: Limits) -> dict[int, tuple]:
    """Subgroup masks -> generator indices, by joins with prime-power cyclic
    subgroups."""
    seeds: dict[int, int] = {}
    for e in range(1, table.order):
        cyc = table.generate((e,))[0]
        if is_prime_power(cyc.bit_count()):
            seeds.setdefault(cyc, e)
    seed_list = sorted(seeds.items(), key=lambda kv: table.key(kv[0]))
    found: dict[int, tuple] = {1: ()}
    for cyc, e in seed_list:
        found[cyc] = (e,)
    queue = sorted(found, key=table.key)
    for hmask in queue:
        hgens = found[hmask]
        block = table.members(hmask)
        for cyc, e in seed_list:
            if cyc & hmask == cyc:
                continue
            jgens = hgens + (e,)
            jmask = _mask(table.closure(jgens, block))
            if jmask in found:
                continue
            _check_lattice_room(found, limits)
            found[jmask] = jgens
            queue.append(jmask)
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
        table = _element_table(K, limits)
        K.cache["normals"] = table.entries(_normal_lattice(table))
    G.cache["normal-subgroups"] = _wrap_known(G, K.cache["normals"])
    return G.cache["normal-subgroups"]


def _normal_lattice(table: _ElementTable) -> dict[int, tuple]:
    """Normal subgroup masks -> generator indices."""
    n = table.order
    conjugations = table.conjugations
    base: set[int] = set()
    in_class = bytearray(n)
    for x in range(1, n):
        if in_class[x]:
            continue
        in_class[x] = 1
        orbit = [x]
        for e in orbit:
            for conj in conjugations:
                f = conj[e]
                if not in_class[f]:
                    in_class[f] = 1
                    orbit.append(f)
        base.add(table.generate(sorted(orbit))[0])
    found: dict[int, tuple] = {1: ()}
    for nmask in sorted(base, key=table.key):
        size = nmask.bit_count()
        closed, gens = table.generate(table.members(nmask), size)
        if closed != nmask:
            raise InvariantError("a conjugacy-class closure is not generated by its elements")
        found[nmask] = gens
    base_list = sorted(found.items(), key=lambda kv: table.key(kv[0]))
    queue = [m for m, _ in base_list]
    for nmask in queue:
        ngens = found[nmask]
        block = table.members(nmask)
        for mmask, mgens in base_list:
            if mmask & nmask == mmask:
                continue
            # N normal: NM = <N, M>
            prod = _mask(table.closure(ngens + mgens, block))
            if prod not in found:
                found[prod] = ngens + mgens
                queue.append(prod)
    return found


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
    if len(pset) != target:
        raise InvariantError(f"Sylow {p}-subgroup grew to order {len(pset)}, not {target}")
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
    """G/N acting on the right cosets of N.

    ``coset_of[i]`` is the coset of the element with index i in G's element
    table, and ``coset_images[c]`` is the image tuple of coset c in ``group``.
    """

    group: PermGroup
    kernel: Subgroup
    table: _ElementTable = field(repr=False, compare=False)
    coset_of: Sequence[int] = field(repr=False, compare=False)
    coset_images: Sequence[tuple] = field(repr=False, compare=False)

    def project(self, x: Perm) -> Perm:
        index = self.table.index.get(x.images)
        if index is None:
            raise GroupInputError(f"{x} is not in the group")
        return Perm(self.coset_images[self.coset_of[index]])

    def image_set(self, elements: Iterable[tuple]) -> frozenset[tuple]:
        """The image in ``group`` of a set of G's elements, as image tuples."""
        coset_of = self.coset_of
        cosets = {coset_of[i] for i in self.table.index_set(elements)}
        return frozenset(map(self.coset_images.__getitem__, cosets))


def quotient_group(G: PermGroup, N: Subgroup, limits: Limits = DEFAULT_LIMITS) -> QuotientGroup:
    """G/N on the right cosets of N, numbered in the order of their least
    elements.  The coset action is constant on cosets, so it is computed once
    per coset representative on G's element table (built under ``limits``)."""
    K = interned(G)
    nset = N.element_images()
    cache_key = ("quotient", nset)
    if cache_key in K.cache:
        return K.cache[cache_key]
    table = _element_table(K, limits)
    rows = table.rows
    block = table.index_set(nset)
    ngens = [table.index[g.images] for g in N.generators]
    if not all(conj[h] in block for conj in table.conjugations for h in ngens):
        raise GroupInputError("quotient by a non-normal subgroup")
    coset_of = [-1] * table.order
    reps: list[int] = []
    for x in range(table.order):
        if coset_of[x] < 0:
            for y in map(rows[x].__getitem__, block):  # xN = Nx
                coset_of[y] = len(reps)
            reps.append(x)
    index = len(reps)
    # coset Nr maps coset Ns to Nsr
    coset_images = [tuple(coset_of[rows[s][r]] for s in reps) for r in reps]
    qset = frozenset(coset_images)
    if len(qset) != index or index * len(block) != table.order:
        raise InvariantError("coset action order mismatch")
    Q = find_interned(index, qset)
    if Q is None:
        gen_images = [Perm(coset_images[coset_of[g]]) for g in table.generators]
        Q = interned_within(K, PermGroup(index, gen_images))
        if Q.element_images() != qset:
            raise InvariantError("the generators' coset images generate another group")
    ident = identity_images(index)
    if [c for c, img in enumerate(coset_images) if img == ident] != [0]:
        raise InvariantError("coset action kernel mismatch")
    result = QuotientGroup(group=Q, kernel=N, table=table,
                           coset_of=array(table.typecode, coset_of),
                           coset_images=coset_images)
    K.cache[cache_key] = result
    return result


def product_subgroup(G: PermGroup, A: Subgroup, B: Subgroup,
                     limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """The product set AB, which must be a subgroup (for instance when A or B
    is normal in G).  It is then <A, B>, closed on G's element table with
    A's elements as the seed block; GroupInputError when |<A, B>| is not
    |A||B|/|A n B|, that is when AB is not a subgroup."""
    table = _element_table(interned(G), limits)
    index = table.index
    gens = [index[g.images] for g in A.generators + B.generators]
    flags = table.closure(gens, list(table.index_set(A.element_images())))
    size = flags.count(1)
    if size * len(A.element_images() & B.element_images()) != A.order * B.order:
        raise GroupInputError("the product of the two subgroups is not a subgroup")
    return subgroup_from_images(G, frozenset(compress(table.images, flags)))


def intersection_subgroup(G: PermGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    return subgroup_from_images(G, A.element_images() & B.element_images())
