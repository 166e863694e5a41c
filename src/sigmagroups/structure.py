"""Structural algorithms on permutation groups.

Everything here is exact and deterministic.  Scales are "desk" sized: the
ambient order stays under the element-cache bound, subgroup enumeration under
the lattice bound.  The set algebra runs on an element-indexed kernel: each
root group gets a multiplication table over its sorted elements, and its
subgroups are ``int`` bitmasks over that numbering.  Every function taking a
group also takes a ``Subgroup``: its kernels (the subgroup lattice, the
normal lattice, the derived series, maximal subgroups, quotients with cosets
numbered by table rows, products, conjugates, and the product tests of
sigma-permutability) run on the root's table restricted to the subgroup's
members.  Since index order is image-tuple order, a kernel restricted to a
subgroup walks its members in the same order as a walk over the subgroup's
own sorted elements would.  Results are ``Subgroup`` values on the caller's
root, sorted canonically by (order, element list).

Derived results, wrapped ``Subgroup`` and ``QuotientGroup`` values included,
are cached once, on the root per member mask, so repeated queries against
the same subgroup (however it was constructed) are answered once and get
the same objects back.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError, Limits
from .numbers import is_prime, is_prime_power, part_for_primes, prime_factors, primes_of
from .permcore import (Perm, PermGroup, Subgroup, _flags, _mask, compose_images,
                       conjugate_images, find_interned, identity_images, images_order,
                       interned, invert_images, trivial_subgroup)

Group = PermGroup | Subgroup

# ---------------------------------------------------------------------------
# element-indexed kernel


class _ElementTable:
    """A root group with its elements numbered in sorted order.

    ``rows[a][b]`` is the index of a*b (a applied first) and ``inverse[a]``
    that of a^-1; index 0 is the identity.  ``index`` maps image tuples to
    indices.  Index arrays use ``typecode``.
    """

    __slots__ = ("order", "perms", "images", "index", "typecode", "rows", "inverse",
                 "_conjugations", "_orders")

    def __init__(self, K: PermGroup):
        self.perms = K.elements()
        self.images = images = [p.images for p in self.perms]
        self.order = n = len(images)
        self.index = index = K.element_index()
        self.typecode = code = "H" if n <= 1 << 16 else "I"
        gen_rows = [array(code, [index[compose_images(g.images, b)] for b in images])
                    for g in K.generators]
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
        self._conjugations: dict[int, array] = {}
        self._orders: array | None = None

    def element_orders(self) -> array:
        """The order of each element, built on first use by walking the powers
        of each element not yet reached: if x has order k, x^j has order
        k / gcd(j, k)."""
        if self._orders is None:
            rows = self.rows
            orders = array(self.typecode, [0]) * self.order
            orders[0] = 1
            for x in range(1, self.order):
                if orders[x]:
                    continue
                powers = [x]
                p = rows[x][x]
                while p:
                    powers.append(p)
                    p = rows[p][x]
                k = len(powers) + 1
                for j, y in enumerate(powers, 1):
                    if not orders[y]:
                        orders[y] = k // gcd(j, k)
            self._orders = orders
        return self._orders

    def conjugations(self, gens: Sequence[int]) -> list[array]:
        """Per generator index g, the index map e -> g^-1 e g; each built on first use."""
        out = []
        for g in gens:
            if g not in self._conjugations:
                rows = self.rows
                self._conjugations[g] = array(self.typecode,
                                              [rows[x][g] for x in rows[self.inverse[g]]])
            out.append(self._conjugations[g])
        return out

    def gens_of(self, G: Group) -> list[int]:
        """The indices of the generators of a group or subgroup on this root."""
        return [self.index[g.images] for g in G.generators]

    def index_set(self, images: Iterable[tuple]) -> frozenset[int]:
        """The indices of elements given as image tuples."""
        try:
            return frozenset(map(self.index.__getitem__, images))
        except KeyError:
            raise GroupInputError("element set is not inside the group") from None

    def conjugates(self, members: frozenset[int], gens: Sequence[int]) -> list[frozenset[int]]:
        """Distinct conjugates of a subgroup given by its indices, in
        breadth-first orbit order under the generators ``gens``."""
        maps = self.conjugations(gens)
        seen = {members}
        out = [members]
        for s in out:
            for conj in maps:
                c = frozenset(map(conj.__getitem__, s))
                if c not in seen:
                    seen.add(c)
                    out.append(c)
        return out

    def flags(self, mask: int) -> bytearray:
        """One byte per element: 1 where the element is in the mask."""
        return _flags(mask, self.order)

    def members(self, mask: int) -> list[int]:
        return list(compress(range(self.order), self.flags(mask)))

    def mask_of(self, indices: Iterable[int]) -> int:
        flags = bytearray(self.order)
        for i in indices:
            flags[i] = 1
        return _mask(flags)

    def key(self, mask: int) -> tuple:
        """The canonical (order, element list) sort key of a subgroup."""
        return (mask.bit_count(), self.members(mask))

    def closure(self, gens: Sequence[int], block: Sequence[int],
                cap: int | None = None) -> bytearray | None:
        """Flags of <H, gens>, where ``block`` lists the elements of a
        subgroup H and ``gens`` includes generators of H; None as soon as
        <H, gens> is known to have more than ``cap`` elements.

        Dimino's algorithm on left cosets: each new coset xH is one row of the
        table read at H's indices, and only representative x generator
        products are tested.  The union of the cosets reached is closed under
        left multiplication by every generator, so it is <gens>.  After k
        cosets exactly k|H| elements are flagged, so the cut-off is exact:
        None comes back exactly when the whole closure exceeds ``cap``.
        """
        # k cosets exceed cap exactly when k > cap // |H|
        max_cosets = (self.order if cap is None else cap) // len(block)
        if max_cosets < 1:
            return None
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
                    if len(reps) > max_cosets:
                        return None
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

    def entries(self, found: dict[int, tuple]) -> tuple[tuple[int, tuple[Perm, ...]], ...]:
        """(mask, generators) pairs of a lattice, canonically sorted."""
        return tuple((m, tuple(self.perms[g] for g in found[m]))
                     for m in sorted(found, key=self.key))


def check_table_order(order: int, limits: Limits) -> None:
    """CapacityError unless a group of this order may get a multiplication table."""
    if order > limits.table_order_bound:
        raise CapacityError(f"group order {order} exceeds multiplication-table "
                            f"bound {limits.table_order_bound}")


def _element_table(K: PermGroup, limits: Limits | None = None) -> _ElementTable:
    """The element table of a root group, built on first use.

    Caller limits are checked on every call, so a lower table bound refuses a
    table built earlier under a higher one.  Without limits, a table that
    exists is reused and a missing one is built under the default bound.
    """
    table = K.cache.get("element-table")
    if limits is not None or table is None:
        check_table_order(K.order, limits or DEFAULT_LIMITS)
    if table is None:
        table = K.cache["element-table"] = _ElementTable(K)
    return table


def _memo(G: Group, compute: Callable, *key):
    """compute(), cached on G's root under (*key, G's mask).

    A compute that takes caller limits has them in its key, so a call under
    other limits computes again, and every bound it reaches takes effect:
    the inner steps check their limits on cached tables and lattices too."""
    cache = G.root.cache
    k = (*key, G.mask)
    if k not in cache:
        cache[k] = compute()
    return cache[k]


def _check_inside(G: Group, *subgroups: Subgroup) -> None:
    """GroupInputError unless every subgroup lies on G's root, inside G."""
    for H in subgroups:
        if H.root is not G.root or H.mask & G.mask != H.mask:
            raise GroupInputError(f"a subgroup of order {H.order} is not inside the group")


def _is_normal_in(table: _ElementTable, G: Group, N: Subgroup) -> bool:
    """Is N a subgroup of G, on G's root, normal in G?  1 and G are; for any
    other N, one lookup in a conjugation map of the root's table per pair of
    generators of G and N."""
    return (N.root is G.root and N.mask & G.mask == N.mask
            and (N.mask in (1, G.mask)
                 or all(N.mask >> conj[h] & 1 for conj in table.conjugations(table.gens_of(G))
                        for h in table.gens_of(N))))


def _wrap(G: Group, entries: Iterable[tuple[int, tuple[Perm, ...]]]) -> tuple[Subgroup, ...]:
    return tuple(Subgroup._of_mask(G, m, gens) for m, gens in entries)


def _greedy_subgroup(G: Group, mask: int, limits: Limits | None = None) -> Subgroup:
    """The subgroup of G with this member mask, generated by adjoining each
    member, in sorted order, not yet reached.  The generators depend only on
    the set, so the subgroup is cached on the root."""
    cache = G.root.cache
    key = ("greedy", mask)
    if key not in cache:
        table = _element_table(G.root, limits)
        closed, gens = table.generate(table.members(mask), mask.bit_count())
        if closed != mask:
            raise GroupInputError("images do not form a subgroup")
        cache[key] = Subgroup._of_mask(G, mask, tuple(table.perms[g] for g in gens))
    return cache[key]


def subgroup_from_images(G: Group, images: frozenset[tuple]) -> Subgroup:
    """Wrap a known subgroup element set, picking a short generator list greedily."""
    table = _element_table(G.root)
    mask = table.mask_of(table.index_set(images))
    if mask & G.mask != mask:
        raise GroupInputError("element set is not inside the group")
    return _greedy_subgroup(G, mask)


def conjugate_image_sets(G: Group, hset: frozenset[tuple],
                         limits: Limits = DEFAULT_LIMITS) -> list[frozenset[tuple]]:
    """Distinct conjugates of a subgroup element set under G, in breadth-first
    orbit order under G's generators."""
    return [h.element_images()
            for h in conjugate_subgroups(G, subgroup_from_images(G, hset), limits)]


def conjugate_subgroups(G: Group, H: Subgroup,
                        limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """Distinct conjugates of H under G, in breadth-first orbit order under
    G's generators, each generated greedily."""
    table = _element_table(G.root, limits)
    return tuple(_greedy_subgroup(G, table.mask_of(c), limits)
                 for c in table.conjugates(frozenset(table.members(H.mask)), table.gens_of(G)))


# ---------------------------------------------------------------------------
# generated/normal/derived subgroups

def generated_subgroup(G: Group, gens: Iterable[Perm]) -> Subgroup:
    return Subgroup(G, tuple(gens))


def normal_closure(G: Group, seed: Subgroup | Iterable[Perm]) -> Subgroup:
    """Smallest normal subgroup of G containing the seed elements."""
    seed_perms = seed.generators if isinstance(seed, Subgroup) else tuple(seed)
    for p in seed_perms:
        if p not in G:
            raise GroupInputError(f"seed element {p} is not in the group")
    table = _element_table(G.root)
    maps = table.conjugations(table.gens_of(G))
    seen = {table.index[p.images] for p in seed_perms}
    orbit = list(seen)
    for e in orbit:
        for conj in maps:
            if conj[e] not in seen:
                seen.add(conj[e])
                orbit.append(conj[e])
    return _greedy_subgroup(G, table.generate(sorted(orbit))[0])


def centralizer(G: Group, H: Subgroup) -> Subgroup:
    table = _element_table(G.root)
    hg = [g.images for g in H.generators]
    return _greedy_subgroup(G, table.mask_of(
        x for x in table.members(G.mask)
        if all(compose_images(table.images[x], h) == compose_images(h, table.images[x])
               for h in hg)))


def is_normal(G: Group, H: Subgroup) -> bool:
    _check_inside(G, H)
    index = G.root.element_index()
    return all(H.mask >> index[conjugate_images(h.images, g.images)] & 1
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


def derived_subgroup(G: Group) -> Subgroup:
    return _greedy_subgroup(G, _derived_mask(_element_table(G.root), G.mask))


# The derived series takes no limits: it uses the root's table if one was
# built (all_subgroups builds it under the caller's limits first), else it
# builds one under the default table bound.

def is_soluble(G: Group) -> bool:
    def compute():
        table = _element_table(G.root)
        mask = G.mask
        while mask != 1:
            nxt = _derived_mask(table, mask)
            if nxt == mask:
                return False
            mask = nxt
        return True
    return _memo(G, compute, "soluble")


def is_perfect(G: Group) -> bool:
    return _derived_mask(_element_table(G.root), G.mask) == G.mask


# ---------------------------------------------------------------------------
# subgroup lattice

def all_subgroups(G: Group, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """Every subgroup of G, canonically sorted, trivial and G included.

    Soluble groups use cyclic extension: grow each known subgroup H by a
    prime-order element of its normalizer, which reaches every (necessarily
    soluble) subgroup through its own composition series; once <H, x> is
    closed, no other element of it is tried.  Insoluble groups fall back to
    join closure over prime-power cyclic subgroups, which is complete for
    arbitrary subgroups at higher cost.

    Join closure closes joins only for the first subgroup found in each
    conjugacy class under G's generators: conjugation preserves joins, so
    the joins of every other member are conjugates of the first one's, one
    mask conjugation each.  A closure stops once it is known to reach the
    whole group: a join of H has an order dividing |G| and divisible by |H|,
    so past the largest proper divisor of |G| that is a multiple of |H| it
    is G.  A join that is already known is not closed: when a seed C lies in
    H and H lies in <C, C'> for another seed C', then <H, C'> is <C, C'>,
    found when C was processed.  Neither kernel's result depends on these
    savings: the same subgroups come out in the same order with the same
    generators as when every join or extension is closed.

    The tuple is built once per root and mask: every later call for the same
    subgroup, however it was constructed, returns the same shared tuple,
    unless it has more members than ``limits.subgroup_bound`` or the root is
    larger than ``limits.table_order_bound``.
    """
    table = _element_table(G.root, limits)

    def compute():
        if is_soluble(G):
            found = _lattice_cyclic_extension(table, G.mask, limits)
        else:
            found = _lattice_join_closure(table, G.mask, limits, table.gens_of(G))
        return _wrap(G, table.entries(found))
    subs = _memo(G, compute, "lattice")
    _check_lattice_room(len(subs), limits)
    return subs


def _check_lattice_room(size: int, limits: Limits) -> None:
    if size > limits.subgroup_bound:
        raise CapacityError(
            f"subgroup enumeration exceeds subgroup-enumeration bound {limits.subgroup_bound}")


def _lattice_cyclic_extension(table: _ElementTable, gmask: int,
                              limits: Limits) -> dict[int, tuple]:
    """Subgroup masks -> generator indices, by cyclic extension inside the
    subgroup ``gmask``.

    Each queued H is extended by every element x outside it that normalizes
    H with xH of prime order in N(H)/H, in index order; a new J = <H, x> is
    queued with generators H's plus x.  |J:H| is prime, so every y in J but
    not in H gives <H, y> = J again: once J is closed, those y are skipped,
    which leaves ``found`` as it is when every y is tried."""
    rows, inverse, n = table.rows, table.inverse, table.order
    elements = table.members(gmask)
    found: dict[int, tuple] = {1: ()}
    queue = [1]
    for hmask in queue:
        hgens = found[hmask]
        hflags = table.flags(hmask)
        block = list(compress(range(n), hflags))
        # H and every element of an extension <H, x> already closed
        done = bytearray(hflags)
        for x in elements:
            if done[x]:
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
            # |J:H| is prime, so every y in J but not in H gives <H, y> = J again
            for y in compress(range(n), jflags):
                done[y] = 1
            if jmask in found:
                continue
            if jflags.count(1) != len(block) * k:
                raise InvariantError(f"cyclic extension of a subgroup of order {len(block)} "
                                     f"by a coset of order {k} has {jflags.count(1)} elements")
            _check_lattice_room(len(found) + 1, limits)
            found[jmask] = jgens
            queue.append(jmask)
    return found


def _lattice_join_closure(table: _ElementTable, gmask: int, limits: Limits,
                          gens: Sequence[int] | None = None) -> dict[int, tuple]:
    """Subgroup masks -> generator indices, by joins with prime-power cyclic
    subgroups (the seeds) of the subgroup ``gmask``, generated by the
    indices ``gens`` (by default, greedily from its members).

    The queue starts with the trivial group and the seeds.  Each queued H
    is joined with every seed C_j not inside it, and a new join is queued
    with generators H's plus e_j, the least element generating C_j.  Only
    the first queued member R of each conjugacy class under ``gens`` closes
    joins: its row holds the queue position of <R, C_j> for every seed.  A
    closure stops once Lagrange says it is the whole group, and a known
    join needs none: the seeds come first, so when C <= R <= <C, C_j> for
    a seed C, <R, C_j> is <C, C_j>, in C's row.  Every later member
    H = R^x reads <H, C_j> = <R, C_k>^x off R's row, with C_k the seed of
    x e_j x^-1; a join equal to G or to R needs no mask work, and any other
    is one conjugation, made once per (H, join).  Conjugation preserves
    joins, so ``found`` gets the same keys, in the same order, with the same
    generators as when every join is closed."""
    rows, inverse = table.rows, table.inverse
    inv = inverse.__getitem__
    if gens is None:
        gens = table.generate(table.members(gmask), gmask.bit_count())[1]
    seeds: dict[int, int] = {}
    cyclic: dict[int, int] = {}
    for e in table.members(gmask)[1:]:
        cyc = table.generate((e,))[0]
        if is_prime_power(cyc.bit_count()):
            seeds.setdefault(cyc, e)
            cyclic[e] = cyc
    seed_list = sorted(seeds.items(), key=lambda kv: table.key(kv[0]))
    seed_elements = [e for _, e in seed_list]
    # prime-power element -> the index in seed_list of the seed it generates
    seed_of = array("i", [-1]) * table.order
    position = {cyc: j for j, (cyc, _) in enumerate(seed_list)}
    for e, cyc in cyclic.items():
        seed_of[e] = position[cyc]
    found: dict[int, tuple] = {1: ()}
    for cyc, e in seed_list:
        found[cyc] = (e,)
    queue = sorted(found, key=table.key)
    where = {m: i for i, m in enumerate(queue)}
    n = gmask.bit_count()
    maps = table.conjugations(gens)
    # subgroup mask -> (the row of the first queued member R of its class,
    # R's queue position, an x with mask = R^x)
    transport: dict[int, tuple[array, int, int]] = {}
    # seed element e -> the row of <e>
    joins: dict[int, array] = {}
    # queue position -> the members of that subgroup, for conjugating it
    members_at: dict[int, array] = {}

    def add(jmask: int, jgens: tuple) -> int:
        if jmask not in found:
            _check_lattice_room(len(found) + 1, limits)
            found[jmask] = jgens
            where[jmask] = len(queue)
            queue.append(jmask)
        return where[jmask]

    for hmask in queue:
        hgens = found[hmask]
        here = where[hmask]
        row = array("I", bytes(4 * len(seed_list)))
        if hmask in transport:
            rrow, rpos, x = transport[hmask]
            by_x, by_xi = rows[x].__getitem__, rows[inverse[x]].__getitem__
            # x e x^-1 = (x (x e)^-1)^-1, so seed C_j^(x^-1) is C_k for k in ks
            ks = map(seed_of.__getitem__, map(inv, map(by_x, map(inv, map(by_x, seed_elements)))))
            conjugated = {rpos: here}
            for j, k in enumerate(ks):
                pos = rrow[k]
                if pos not in conjugated:
                    jmask = queue[pos]
                    if jmask != gmask:
                        if pos not in members_at:
                            members_at[pos] = array(table.typecode, table.members(jmask))
                        # u^x = x^-1 u x = (x^-1 (x^-1 u)^-1)^-1
                        jmask = table.mask_of(map(inv, map(by_xi, map(inv, map(
                            by_xi, members_at[pos])))))
                    conjugated[pos] = add(jmask, hgens + (seed_elements[j],))
                row[j] = conjugated[pos]
        else:
            transport[hmask] = (row, here, 0)
            orbit = [(hmask, 0)]
            for s, y in orbit:
                members = table.members(s)
                for g, conj in zip(gens, maps):
                    c = table.mask_of(map(conj.__getitem__, members))
                    if c not in transport:
                        transport[c] = (row, here, rows[y][g])
                        orbit.append((c, rows[y][g]))
            block = table.members(hmask)
            cap = _largest_proper_multiple(len(block), n)
            # C_j <= H joins to H; <H, C_j> is <C, C_j> for a seed C <= H when
            # <C, C_j> contains H
            known = [here if cyc & hmask == cyc else -1 for cyc, _ in seed_list]
            for r in [joins[e] for cyc, e in seed_list if cyc & hmask == cyc and e in joins]:
                known = [k if c < 0 and queue[k] & hmask == hmask else c
                         for c, k in zip(known, r)]
            for j, e in enumerate(seed_elements):
                if known[j] >= 0:
                    row[j] = known[j]
                    continue
                jgens = hgens + (e,)
                # Lagrange: |H| divides |<H, e>|, which divides n, so past cap
                # the join is the whole group
                jflags = table.closure(jgens, block, cap)
                row[j] = add(gmask if jflags is None else _mask(jflags), jgens)
        if len(hgens) == 1:
            joins[hgens[0]] = row
    return found


def _largest_proper_multiple(h: int, n: int) -> int:
    """The largest proper divisor of n that is a multiple of h (h divides n),
    or 0 when h is n."""
    return 0 if h == n else n // prime_factors(n // h)[0][0]


def subgroups_of_order(G: Group, n: int, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    return tuple(h for h in all_subgroups(G, limits) if h.order == n)


def maximal_subgroups(G: Group, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """The proper subgroups of G inside no larger proper subgroup; the cover
    test runs once per subgroup of a root, on masks."""
    subs = all_subgroups(G, limits)

    def compute():
        # canonical order puts every proper superset of a subgroup after it
        proper = [h.mask for h in subs if h.order < G.order]
        return tuple(subs[i] for i, h in enumerate(proper)
                     if not any(k & h == h for k in proper[i + 1:]))
    return _memo(G, compute, "maximal")


def frattini_subgroup(G: Group, limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """Intersection of the maximal subgroups (G itself when there are none)."""
    meet = G.mask
    for h in maximal_subgroups(G, limits):
        meet &= h.mask
    return _greedy_subgroup(G, meet, limits)


# ---------------------------------------------------------------------------
# normal structure

def normal_subgroups(G: Group, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """All normal subgroups, via join closure of cyclic normal closures.

    Every normal subgroup is the product of the normal closures of the cyclic
    subgroups it contains, and a product of normal subgroups is just the
    element-set product, so no generic subgroup search is needed.  Agrees with
    filtering all_subgroups by conjugation invariance (tested), but stays
    affordable for regular coset images where the full lattice would not.
    Like all_subgroups, the tuple is built once per root and mask and shared,
    and a later call with a lower table bound is refused.
    """
    table = _element_table(G.root, limits)
    return _memo(G, lambda: _wrap(G, table.entries(
        _normal_lattice(table, G.mask, table.gens_of(G)))), "normals")


def _normal_lattice(table: _ElementTable, gmask: int, gens: Sequence[int]) -> dict[int, tuple]:
    """Normal subgroup masks -> generator indices, for the subgroup ``gmask``
    generated by the indices ``gens``."""
    conjugations = table.conjugations(gens)
    base: set[int] = set()
    in_class = bytearray(table.order)
    for x in table.members(gmask)[1:]:
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
        closed, ngens = table.generate(table.members(nmask), size)
        if closed != nmask:
            raise InvariantError("a conjugacy-class closure is not generated by its elements")
        found[nmask] = ngens
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


def minimal_normal_subgroups(G: Group, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    if G.order == 1:
        raise GroupInputError("the trivial group has no minimal normal subgroups")
    normals = [n for n in normal_subgroups(G, limits) if n.order > 1]
    return tuple(n for n in normals
                 if not any(m.mask & n.mask == m.mask for m in normals if m.order < n.order))


@dataclass(frozen=True)
class ChiefFactor:
    """One factor upper/lower of a chief series; both ends are normal in the ambient."""

    lower: Subgroup
    upper: Subgroup
    order: int
    prime_support: frozenset[int]


def chief_series(G: Group, limits: Limits = DEFAULT_LIMITS) -> tuple[ChiefFactor, ...]:
    """A chief series built greedily: each step takes the lexicographically
    least normal subgroup sitting minimally above the current term."""
    by_mask = {n.mask: n for n in normal_subgroups(G, limits)}
    table = _element_table(G.root, limits)
    current = 1
    factors: list[ChiefFactor] = []
    while current != G.mask:
        above = [s for s in by_mask if s & current == current and s != current]
        minimal = [s for s in above
                   if not any(t & s == t for t in above if t.bit_count() < s.bit_count())]
        # index order is image order, so this is the least sorted element list
        chosen = min(minimal, key=table.members)
        order = chosen.bit_count() // current.bit_count()
        factors.append(ChiefFactor(lower=by_mask[current], upper=by_mask[chosen],
                                   order=order, prime_support=primes_of(order)))
        current = chosen
    return tuple(factors)


# ---------------------------------------------------------------------------
# Sylow and Hall subgroups

def sylow_subgroup(G: Group, p: int, limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """A Sylow p-subgroup, grown through normalizers from a p-element seed."""
    if not is_prime(p):
        raise GroupInputError(f"{p} is not a prime")
    target = part_for_primes(G.order, {p})
    if target == 1:
        return trivial_subgroup(G)
    if target == G.order:
        return _greedy_subgroup(G, G.mask, limits)
    table = _element_table(G.root, limits)
    rows, inverse = table.rows, table.inverse
    orders = {x: images_order(table.images[x]) for x in table.members(G.mask)}
    p_elements = [x for x, k in orders.items() if is_prime_power(k) and k % p == 0]
    max_order = max(orders[x] for x in p_elements)
    pgens = (next(x for x in p_elements if orders[x] == max_order),)
    pmask = table.generate(pgens)[0]
    while pmask.bit_count() < target:
        pflags = table.flags(pmask)
        x = next((x for x in p_elements if not pflags[x]
                  and all(pflags[rows[rows[inverse[x]][g]][x]] for g in pgens)), None)
        if x is None:
            # P < S Sylow: N_S(P) has a p-element outside P, so no stall
            raise InvariantError(f"Sylow {p}-subgroup growth stalled at order "
                                 f"{pmask.bit_count()} below {target}")
        pgens += (x,)
        pmask = _mask(table.closure(pgens, list(compress(range(table.order), pflags))))
    if pmask.bit_count() != target:
        raise InvariantError(f"Sylow {p}-subgroup grew to order {pmask.bit_count()}, not {target}")
    return _greedy_subgroup(G, pmask, limits)


def hall_subgroup(G: Group, pi: Iterable[int], limits: Limits = DEFAULT_LIMITS) -> Subgroup | None:
    """Canonical Hall pi-subgroup if one exists, else None (lattice scan)."""
    pi = frozenset(pi)
    target = part_for_primes(G.order, pi)
    if target == 1:
        return trivial_subgroup(G)
    if target == G.order:
        return _greedy_subgroup(G, G.mask, limits)
    for h in all_subgroups(G, limits):
        if h.order == target:
            return h
    return None


def is_p_group(G: Group) -> bool:
    return len(prime_factors(G.order)) <= 1


def maximal_subgroups_of_p_group(P: Subgroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """The index-p subgroups of a p-group, from P's own lattice."""
    if not is_p_group(P):
        raise GroupInputError(f"group of order {P.order} is not a p-group")
    if P.order == 1:
        return ()
    p = prime_factors(P.order)[0][0]
    return tuple(h for h in all_subgroups(P, limits) if h.order * p == P.order)


# ---------------------------------------------------------------------------
# supplements and quotients

def supplements(G: Group, V: Subgroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """All T <= G with VT = G, by |V||T| = |G||V n T| over the lattice."""
    _check_inside(G, V)
    return tuple(t for t in all_subgroups(G, limits)
                 if V.order * t.order == G.order * (V.mask & t.mask).bit_count())


@dataclass(frozen=True)
class QuotientGroup:
    """G/N acting on the right cosets of N.

    ``coset_of[i]`` is the coset of the element with index i in the element
    table of G's root (-1 outside G), and ``coset_images[c]`` is the image
    tuple of coset c in ``group``, itself a root group.
    """

    group: PermGroup
    kernel: Subgroup
    table: _ElementTable = field(repr=False, compare=False)
    coset_of: Sequence[int] = field(repr=False, compare=False)
    coset_images: Sequence[tuple] = field(repr=False, compare=False)

    def project(self, x: Perm) -> Perm:
        index = self.table.index.get(x.images)
        if index is None or self.coset_of[index] < 0:
            raise GroupInputError(f"{x} is not in the group")
        return Perm(self.coset_images[self.coset_of[index]])

    def image_set(self, elements: Iterable[tuple]) -> frozenset[tuple]:
        """The image in ``group`` of a set of G's elements, as image tuples."""
        coset_of = self.coset_of
        cosets = {coset_of[i] for i in self.table.index_set(elements)}
        return frozenset(map(self.coset_images.__getitem__, cosets))


def quotient_group(G: Group, N: Subgroup, limits: Limits = DEFAULT_LIMITS) -> QuotientGroup:
    """G/N on the right cosets of N, numbered in the order of their least
    elements.  The coset action is constant on cosets, so it is computed once
    per coset representative on the element table of G's root (built under
    ``limits``)."""
    _check_inside(G, N)
    table = _element_table(G.root, limits)
    return _memo(G, lambda: _quotient(G, N, table), "quotient", N.mask)


def _quotient(G: Group, N: Subgroup, table: _ElementTable) -> QuotientGroup:
    rows = table.rows
    block = table.members(N.mask)
    if not _is_normal_in(table, G, N):
        raise GroupInputError("quotient by a non-normal subgroup")
    gens = table.gens_of(G)
    coset_of = array("i", [-1]) * table.order
    reps: list[int] = []
    for x in table.members(G.mask):
        if coset_of[x] < 0:
            for y in map(rows[x].__getitem__, block):  # xN = Nx
                coset_of[y] = len(reps)
            reps.append(x)
    index = len(reps)
    # coset Nr maps coset Ns to Nsr
    coset_images = [tuple(coset_of[rows[s][r]] for s in reps) for r in reps]
    qset = frozenset(coset_images)
    if len(qset) != index or index * len(block) != G.order:
        raise InvariantError("coset action order mismatch")
    Q = find_interned(index, qset)
    if Q is None:
        Q = PermGroup(index, [Perm(coset_images[coset_of[g]]) for g in gens])
        Q.elements(table.order)  # never larger than G's root, which was enumerated
        Q = interned(Q)
        if Q.element_images() != qset:
            raise InvariantError("the generators' coset images generate another group")
    ident = identity_images(index)
    if [c for c, img in enumerate(coset_images) if img == ident] != [0]:
        raise InvariantError("coset action kernel mismatch")
    return QuotientGroup(group=Q, kernel=N, table=table, coset_of=coset_of,
                         coset_images=coset_images)


def product_subgroup(G: Group, A: Subgroup, B: Subgroup,
                     limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """The product set AB, which must be a subgroup (for instance when A or B
    is normal in G).  It is then <A, B>, closed on the root's element table
    with A's elements as the seed block; GroupInputError when |<A, B>| is not
    |A||B|/|A n B|, that is when AB is not a subgroup."""
    _check_inside(G, A, B)
    table = _element_table(G.root, limits)
    flags = table.closure(table.gens_of(A) + table.gens_of(B), table.members(A.mask))
    if flags.count(1) * (A.mask & B.mask).bit_count() != A.order * B.order:
        raise GroupInputError("the product of the two subgroups is not a subgroup")
    return _greedy_subgroup(G, _mask(flags), limits)


def intersection_subgroup(G: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    _check_inside(G, A, B)
    return _greedy_subgroup(G, A.mask & B.mask)
