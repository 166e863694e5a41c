"""Structural algorithms on permutation groups.

Everything here is exact and deterministic.  Scales are "desk" sized: the
ambient order stays under the table bound, subgroup enumeration under the
lattice bound.  The set algebra runs on an element-indexed kernel: each
root group gets a multiplication table over its sorted elements, and its
subgroups are ``int`` bitmasks over that numbering.  Every function taking a
group also takes a ``Subgroup``: its kernels (the subgroup lattice, the
normal lattice, the derived subgroup, maximal subgroups, quotients with
cosets numbered by table rows and conjugates) run on the root's table
restricted to the subgroup's members.  The lattice kernel is chosen by the
root, so every subgroup's lattice is the down-set of its root's, and every
read of the subgroups of one order goes through one index of a lattice by
order, ``subgroups_of_order``.  Since index order is image-tuple
order, a kernel restricted to a subgroup walks its members in the same
order as a walk over the subgroup's own sorted elements would.  Results
are ``Subgroup`` values on the caller's root, sorted canonically by
(order, element list).

Conjugacy classes of subgroups come from one walk on masks,
``_ElementTable.conjugates``: the conjugates of a subgroup in breadth-first
orbit order under given generators, each with an element conjugating the
subgroup onto it.  The join-closure kernel, ``conjugate_image_sets`` and
``sigma``'s Hall classes and Hall coverage all read their classes off it.

Solubility, classical or relative to any partition of the primes, reads
one memoised fact per group, ``_insoluble_primes``: the primes of the
nonabelian chief factors, found by one walk per prime down a series of
subgroups generated by elements.  ``sigma`` imports it with the generation
by element orders (``_ElementTable.generated_by_orders``) and the normal
closures of conjugacy classes (``_class_closures``), the first step of the
normal lattice.

Derived results, the element table and wrapped ``Subgroup`` and
``QuotientGroup`` values included, are cached once, on the root per member
mask, by one cache, ``_memo``, so repeated queries against the same
subgroup (however it was constructed) are answered once and get the same
objects back.  Every read of it, hit or miss, first checks the root
against the caller's table bound, so no cached result outlives a lower
bound; a call that takes no limits reads ``DEFAULT_LIMITS`` when it runs.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, groupby
from operator import attrgetter, eq, itemgetter
from typing import Callable, Iterable, Sequence

from .errors import (CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError, Limits,
                     _check_prime)
from .numbers import is_prime, is_prime_power, part_for_primes, prime_factors, primes_of
from .permcore import (Perm, PermGroup, Subgroup, _flags, _mask, identity_images, images_order,
                       invert_images)

Group = PermGroup | Subgroup

# ---------------------------------------------------------------------------
# element-indexed kernel


class _ElementTable:
    """A root group with its elements numbered in sorted order.

    ``rows[a][b]`` is the index of a*b (a applied first) and ``inverse[a]``
    that of a^-1; index 0 is the identity.  ``index`` is the root's element
    index, image tuple -> index.  Index arrays are ``array('H')``: ``Limits``
    admits no table of order above 65536.
    """

    __slots__ = ("order", "perms", "index", "rows", "inverse", "_conjugations", "_orders")

    def __init__(self, K: PermGroup):
        self.perms = K.elements()
        self.index = index = K.element_index()
        self.order = n = len(index)
        gen_rows = [array("H", map(index.__getitem__, map(itemgetter(*g.images), index)))
                    for g in K.generators]
        # row(x*g)[y] = row(x)[row(g)[y]]: one itemgetter call per row,
        # rows reached breadth-first from the identity
        steps = [(row[0], itemgetter(*row)) for row in gen_rows]
        rows: list = [None] * n
        rows[0] = array("H", range(n))
        reached = [0]
        for x in reached:
            rx = rows[x]
            for g, times_g in steps:
                y = rx[g]
                if rows[y] is None:
                    rows[y] = array("H", times_g(rx))
                    reached.append(y)
        if len(reached) != n:
            raise InvariantError(
                f"generators reach {len(reached)} of {n} elements in the table build")
        self.rows = rows
        self.inverse = [index[invert_images(e)] for e in index]
        self._conjugations: dict[int, array] = {}
        self._orders: array | None = None

    def element_orders(self) -> array:
        """The order of each element, read off its cycle type, built on first
        use.  An order may be 65536 itself, so orders are 32-bit."""
        if self._orders is None:
            self._orders = array("I", map(images_order, self.index))
        return self._orders

    def conjugations(self, gens: Sequence[int]) -> list[array]:
        """Per generator index g, the index map e -> g^-1 e g; each built on first use."""
        out = []
        for g in gens:
            if g not in self._conjugations:
                rows = self.rows
                self._conjugations[g] = array("H", [rows[x][g] for x in rows[self.inverse[g]]])
            out.append(self._conjugations[g])
        return out

    def gens_of(self, G: Group) -> list[int]:
        """The indices of the generators of a group or subgroup on this root."""
        return [self.index[g.images] for g in G.generators]

    def conjugates(self, mask: int, gens: Sequence[int]) -> dict[int, int]:
        """The distinct conjugates of the subgroup ``mask``, in breadth-first
        orbit order under the generators ``gens``, each mapped to the index
        of an x with conjugate = mask^x (0 for the mask itself).  This is the
        one walk over a conjugacy class of subgroups."""
        rows = self.rows
        steps = list(zip(gens, self.conjugations(gens)))
        orbit = {mask: 0}
        queue = [(mask, 0)]
        for s, y in queue:
            members = self.members(s)
            for g, conj in steps:
                c = self.mask_of(map(conj.__getitem__, members))
                if c not in orbit:
                    orbit[c] = rows[y][g]
                    queue.append((c, orbit[c]))
        return orbit

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

    def generated_by_orders(self, mask: int, keep: Callable[[frozenset[int]], bool]) -> int:
        """The mask of the subgroup generated by the members of ``mask``
        whose order's primes pass ``keep``, adjoined in index order."""
        orders = self.element_orders()
        members = self.members(mask)
        kinds = {k for k in set(map(orders.__getitem__, members)) if keep(primes_of(k))}
        return self.generate((x for x in members if orders[x] in kinds), mask.bit_count())[0]

    def entries(self, found: dict[int, tuple]) -> tuple[tuple[int, tuple[Perm, ...]], ...]:
        """(mask, generators) pairs of a lattice, canonically sorted."""
        return tuple((m, tuple(self.perms[g] for g in found[m]))
                     for m in sorted(found, key=self.key))


def _element_table(K: PermGroup, limits: Limits) -> _ElementTable:
    """The element table of a root group, built on first use: a ``_memo``
    read, so the caller's table bound is checked on every call, and a lower
    bound refuses a table built earlier under a higher one."""
    return _memo(K, limits, lambda: _ElementTable(K), "element-table")


def _check_table_room(order: int, limits: Limits) -> None:
    """CapacityError unless a root of this order may get a multiplication
    table under the caller's limits: the one table-bound check."""
    if order > limits.table_order_bound:
        raise CapacityError(f"group order {order} exceeds multiplication-table bound "
                            f"{limits.table_order_bound}")


def _memo(G: Group, limits: Limits, compute: Callable, *key):
    """compute(), cached on G's root under (*key, G's mask): the one cache of
    results derived on a root, the element table included.

    Every call checks G's root against the caller's table bound first, hit
    or miss, so no cached result outlives a lower bound.  A compute that
    reads only the root's table needs nothing more, so its key carries no
    limits and it is computed once per root and mask, whatever the caller's
    other bounds.  A compute that reaches another bound has the caller's
    limits in its key, so a call under other limits computes again, and
    that bound takes effect too."""
    root = G.root
    _check_table_room(root.order, limits)
    k = (*key, G.mask)
    try:
        return root.cache[k]    # a hit is this one lookup
    except KeyError:
        pass
    value = root.cache[k] = compute()
    return value


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


def _greedy_subgroup(G: Group, mask: int, limits: Limits) -> Subgroup:
    """The subgroup of G with this member mask, generated by adjoining each
    member, in sorted order, not yet reached.  The generators depend only on
    the set, so the subgroup is a ``_memo`` read on the root.  The trivial
    mask, the identity alone, has no member to adjoin, so it gets no
    generators without a table."""
    def compute():
        if mask == 1:
            return Subgroup._of_mask(G, mask, ())
        table = _element_table(G.root, limits)
        closed, gens = table.generate(table.members(mask), mask.bit_count())
        if closed != mask:
            raise GroupInputError("images do not form a subgroup")
        return Subgroup._of_mask(G, mask, tuple(table.perms[g] for g in gens))
    return _memo(G.root, limits, compute, "greedy", mask)


def subgroup_from_images(G: Group, images: frozenset[tuple],
                         limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """Wrap a known subgroup element set, picking a short generator list greedily."""
    table = _element_table(G.root, limits)
    mask = table.mask_of(table.index[e] for e in images if e in table.index)
    if mask.bit_count() != len(images) or mask & G.mask != mask:
        raise GroupInputError("element set is not inside the group")
    return _greedy_subgroup(G, mask, limits)


def conjugate_image_sets(G: Group, hset: frozenset[tuple],
                         limits: Limits = DEFAULT_LIMITS) -> list[frozenset[tuple]]:
    """Distinct conjugates of a subgroup element set under G, in breadth-first
    orbit order under G's generators."""
    table = _element_table(G.root, limits)
    H = subgroup_from_images(G, hset, limits)
    return [_greedy_subgroup(G, c, limits).element_images()
            for c in table.conjugates(H.mask, table.gens_of(G))]


# ---------------------------------------------------------------------------
# normality, derived subgroup, solubility

def is_normal(G: Group, H: Subgroup) -> bool:
    _check_inside(G, H)
    return _is_normal_in(_element_table(G.root, DEFAULT_LIMITS), G, H)


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
    table = _element_table(G.root, DEFAULT_LIMITS)
    return _greedy_subgroup(G, _derived_mask(table, G.mask), DEFAULT_LIMITS)


def is_soluble(G: Group, limits: Limits = DEFAULT_LIMITS) -> bool:
    """G is soluble exactly when it has no nonabelian chief factor, that is
    when ``_insoluble_primes`` is empty."""
    return not _insoluble_primes(G, limits)


def _insoluble_primes(G: Group, limits: Limits) -> frozenset[int]:
    """P(G), the primes that divide some nonabelian chief factor of G: the
    one per-group fact behind solubility, sigma-solubility at every sigma
    and pi-separability.  An abelian chief factor is a p-group, so it is
    sigma-primary at every sigma; a nonabelian one is sigma-primary exactly
    when one block of sigma holds its primes.  Every nonabelian chief factor
    has even order (Feit-Thompson), so they all share the prime 2, and G is
    sigma-soluble exactly when P(G) lies in one block of sigma.

    A prime q of |G| is in P(G) exactly when the walk at the partition
    {q} | pi(G) - {q} stalls above 1.  Start with X = G and replace X by
    O^q(X), then by O^{q'}(X), each generated by the elements of X whose
    order has no prime of the block, until X = 1 or a round leaves X as it
    was.  Each term is characteristic in the one before, so the series is
    normal in G, and each factor is a q-group or a q'-group: each element
    of X is its q-part times its q'-part.  If q divides no nonabelian chief
    factor, every chief factor of G is a q-group or a q'-group, so the
    class of groups with such a chief series holds X and every term below
    it; a chief factor X/M of X on top is then a q-group or a q'-group, and
    one of O^q(X), O^{q'}(X) lies in M < X, so the walk reaches 1.  If q
    divides a nonabelian chief factor, that factor has at least two more
    primes (Burnside's p^a q^b theorem), so no series of q-groups and
    q'-groups passes it, and the walk stalls.  By the same theorem a group
    with at most two primes is soluble, so P(G) is empty with no walk and
    no table is built.  No chief series or normal lattice is built; the
    walks run on the root's table, fetched inside the walk as
    ``_element_table`` gets it under ``limits``, and P(G) is a ``_memo``
    read keyed by neither a partition nor limits."""
    def compute():
        primes = primes_of(G.order)
        stalled = set()
        for q in primes if len(primes) > 2 else ():
            table = _element_table(G.root, limits)
            x, last = G.mask, 0
            while x not in (1, last):
                last = x
                for ps in ({q}, primes - {q}):
                    x = table.generated_by_orders(x, ps.isdisjoint)
            if x != 1:
                stalled.add(q)
        return frozenset(stalled)
    return _memo(G, limits, compute, "insoluble-primes")


# ---------------------------------------------------------------------------
# subgroup lattice

def all_subgroups(G: Group, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """Every subgroup of G, canonically sorted, trivial and G included.

    The kernel is chosen by the solubility of G's root.  Under a soluble
    root, cyclic extension: grow each known subgroup H by a prime-order
    element of its normalizer, which reaches every (necessarily soluble)
    subgroup through its own composition series; once <H, x> is closed, no
    other element of it is tried.  Under an insoluble root, join closure
    over prime-power cyclic subgroups, which is complete for arbitrary
    subgroups at higher cost.

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

    Both kernels are hereditary: run on a proper subgroup G of the root,
    each finds the root's entries inside G, in the same order, with the same
    generators, since a subgroup inside G is only ever found from a
    subgroup and an element inside G.  So G's lattice is the down-set of
    its root's, whether or not the root's lattice was built first.  Once it
    is built, G gets the down-set, the same ``Subgroup`` objects, and no
    kernel runs on G.  A root lattice that is not built yet is not built
    for G: it may cost far more than G's own, and it may be over
    ``limits.subgroup_bound`` where G's own fits.

    The bounds and the sharing of the tuple are those of ``_bounded_lattice``.
    """
    def kernel(table: _ElementTable) -> tuple[Subgroup, ...]:
        roots = G.root.cache.get(("lattice", G.root.mask))
        if roots is not None:
            return tuple(h for h in roots if h.mask & G.mask == h.mask)
        if is_soluble(G.root, limits):
            found = _lattice_cyclic_extension(table, G.mask, limits)
        else:
            found = _lattice_join_closure(table, G.mask, limits, table.gens_of(G))
        return _wrap(G, table.entries(found))
    return _bounded_lattice(G, limits, "lattice", kernel)


def _bounded_lattice(G: Group, limits: Limits, kind: str,
                     kernel: Callable[[_ElementTable], tuple]) -> tuple[Subgroup, ...]:
    """The lattice ``kernel(table)`` of G, the subgroup bound's one check,
    for both the subgroup and the normal lattice (``kind``).

    The tuple is built once per root and mask: every later call for the same
    subgroup, however it was constructed, returns the same shared tuple,
    unless it has more members than ``limits.subgroup_bound`` or the root is
    larger than ``limits.table_order_bound``.  A kernel that stops at the
    subgroup bound is remembered too: it shows that the lattice has more
    members than that bound, which is kept per root and mask, so a later
    call under a bound no larger raises the same CapacityError at once,
    with no kernel run.

    The table is read before the ``try``, so a root over the table bound is
    refused there and only the kernel's refusal is caught.  Read inside the
    memoised compute, the table's refusal would be recorded as a marker of
    a lattice over the subgroup bound, and the call would then report that
    bound, not the table's.
    """
    table = _element_table(G.root, limits)
    at_least = (kind + "-size-at-least", G.mask)
    _check_lattice_room(G.root.cache.get(at_least, 0), limits)
    try:
        subs = _memo(G, limits, lambda: kernel(table), kind)
    except CapacityError:
        G.root.cache[at_least] = limits.subgroup_bound + 1
        raise
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
                          gens: Sequence[int]) -> dict[int, tuple]:
    """Subgroup masks -> generator indices, by joins with prime-power cyclic
    subgroups (the seeds) of the subgroup ``gmask``, generated by the
    indices ``gens``.

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
    orders = table.element_orders()
    # the seed table: each seed -> the elements generating it, in index order
    seeds: dict[int, list[int]] = {}
    for e in table.members(gmask)[1:]:
        if is_prime_power(orders[e]):
            seeds.setdefault(table.generate((e,))[0], []).append(e)
    seed_list = sorted(seeds, key=table.key)
    seed_elements = [seeds[cyc][0] for cyc in seed_list]
    # prime-power element -> the index in seed_list of the seed it generates
    seed_of = array("i", [-1]) * table.order
    for j, cyc in enumerate(seed_list):
        for e in seeds[cyc]:
            seed_of[e] = j
    found = {1: (), **{cyc: (e,) for cyc, e in zip(seed_list, seed_elements)}}
    # the trivial group, then the seeds: already in canonical order
    queue = list(found)
    where = {m: i for i, m in enumerate(queue)}
    n = gmask.bit_count()
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
                            members_at[pos] = array("H", table.members(jmask))
                        # u^x = x^-1 u x = (x^-1 (x^-1 u)^-1)^-1
                        jmask = table.mask_of(map(inv, map(by_xi, map(inv, map(
                            by_xi, members_at[pos])))))
                    conjugated[pos] = add(jmask, hgens + (seed_elements[j],))
                row[j] = conjugated[pos]
        else:
            # H is the first queued member of its class: no member is known yet
            for c, x in table.conjugates(hmask, gens).items():
                transport[c] = (row, here, x)
            block = table.members(hmask)
            cap = _largest_proper_multiple(len(block), n)
            # C_j <= H joins to H; <H, C_j> is <C, C_j> for a seed C <= H when
            # <C, C_j> contains H
            known = [here if cyc & hmask == cyc else -1 for cyc in seed_list]
            for r in [joins[e] for e, k in zip(seed_elements, known) if k == here and e in joins]:
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
    """The subgroups of G of order n, in lattice order: one read of G's
    by-order index (``_lattice_by_order``), empty when none has order n."""
    return _lattice_by_order(G, limits).get(n, ())


def _lattice_by_order(G: Group, limits: Limits) -> dict[int, tuple[Subgroup, ...]]:
    """G's lattice grouped by order: each order, ascending, maps to the
    entries of ``all_subgroups(G, limits)`` of that order, the same objects
    in the same order.  It is built once per root and mask from the shared
    lattice tuple, which is sorted by order.  Every call asks
    ``all_subgroups`` under the caller's limits first, the one bound check,
    so the memo key carries no limits."""
    subs = all_subgroups(G, limits)
    return _memo(G, limits, lambda: {n: tuple(hs) for n, hs in groupby(subs, attrgetter("order"))},
                 "lattice-by-order")


def maximal_subgroups(G: Group, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """The proper subgroups of G inside no larger proper subgroup; the cover
    test runs once per subgroup of a root, on masks."""
    subs = all_subgroups(G, limits)

    def compute():
        # canonical order puts every proper superset of a subgroup after it
        proper = [h.mask for h in subs if h.order < G.order]
        return tuple(subs[i] for i, h in enumerate(proper)
                     if not any(k & h == h for k in proper[i + 1:]))
    return _memo(G, limits, compute, "maximal")


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
    Its bounds and sharing are those of all_subgroups, through
    ``_bounded_lattice``: ``limits.subgroup_bound`` caps its size too.
    """
    return _bounded_lattice(G, limits, "normals", lambda table: _wrap(G, table.entries(
        _normal_lattice(table, G.mask, limits, table.gens_of(G)))))


def _class_closures(table: _ElementTable, gmask: int, gens: Sequence[int]) -> set[int]:
    """The masks of the normal closures of the non-trivial conjugacy classes
    of the subgroup ``gmask`` generated by the indices ``gens``: each is
    the subgroup generated by one class."""
    conjugations = table.conjugations(gens)
    closures: set[int] = set()
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
        closures.add(table.generate(sorted(orbit))[0])
    return closures


def _normal_lattice(table: _ElementTable, gmask: int, limits: Limits,
                    gens: Sequence[int]) -> dict[int, tuple]:
    """Normal subgroup masks -> generator indices, for the subgroup ``gmask``
    generated by the indices ``gens``."""
    found: dict[int, tuple] = {1: ()}
    for nmask in sorted(_class_closures(table, gmask, gens), key=table.key):
        closed, ngens = table.generate(table.members(nmask), nmask.bit_count())
        if closed != nmask:
            raise InvariantError("a conjugacy-class closure is not generated by its elements")
        _check_lattice_room(len(found) + 1, limits)
        found[nmask] = ngens
    # the trivial group, then the closures: already in canonical order
    base_list = list(found.items())
    queue = list(found)
    for nmask in queue:
        ngens = found[nmask]
        block = table.members(nmask)
        for mmask, mgens in base_list:
            if mmask & nmask == mmask:
                continue
            # N normal: NM = <N, M>
            prod = _mask(table.closure(ngens + mgens, block))
            if prod not in found:
                _check_lattice_room(len(found) + 1, limits)
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
    """A Sylow p-subgroup, grown through normalizers from a p-element seed;
    when |G|_p is 1 or |G|, the one subgroup of that order."""
    target = part_for_primes(G.order, {_check_prime(p)})
    if target in (1, G.order):
        return _greedy_subgroup(G, G.mask if target == G.order else 1, limits)
    table = _element_table(G.root, limits)
    rows, inverse = table.rows, table.inverse
    orders = table.element_orders()
    p_elements = [x for x in table.members(G.mask)
                  if is_prime_power(orders[x]) and orders[x] % p == 0]
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
    """Canonical Hall pi-subgroup if one exists, else None: the first
    lattice entry of order |G|_pi, or with no lattice read the one subgroup
    of that order when it is 1 or |G|."""
    target = part_for_primes(G.order, frozenset(map(_check_prime, pi)))
    if target in (1, G.order):
        return _greedy_subgroup(G, G.mask if target == G.order else 1, limits)
    return next(iter(subgroups_of_order(G, target, limits)), None)


def maximal_subgroups_of_p_group(P: Subgroup, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """The index-p subgroups of a p-group, from P's own lattice."""
    primes = prime_factors(P.order)
    if len(primes) > 1:
        raise GroupInputError(f"group of order {P.order} is not a p-group")
    if not primes:
        _check_table_room(P.root.order, limits)
        return ()
    return subgroups_of_order(P, P.order // primes[0][0], limits)


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


def quotient_group(G: Group, N: Subgroup, limits: Limits = DEFAULT_LIMITS) -> QuotientGroup:
    """G/N on the right cosets of N, numbered in the order of their least
    elements.  The coset action is constant on cosets, so it is computed once
    per coset representative on the element table of G's root (built under
    ``limits``)."""
    _check_inside(G, N)
    table = _element_table(G.root, limits)
    return _memo(G, limits, lambda: _quotient(G, N, table), "quotient", N.mask)


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
    # the quotient's sorted elements: the coset images, each coset's distinct
    key = tuple(sorted(coset_images))
    if index * len(block) != G.order or any(map(eq, key, key[1:])):
        raise InvariantError("coset action order mismatch")
    # interned as every root is: a known root with these elements is the quotient
    Q = PermGroup(index, [Perm(coset_images[coset_of[g]]) for g in gens]).root
    if tuple(Q.element_index()) != key:
        raise InvariantError("the generators' coset images generate another group")
    ident = identity_images(index)
    if [c for c, img in enumerate(coset_images) if img == ident] != [0]:
        raise InvariantError("coset action kernel mismatch")
    return QuotientGroup(group=Q, kernel=N, table=table, coset_of=coset_of,
                         coset_images=coset_images)


def intersection_subgroup(G: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    _check_inside(G, A, B)
    return _greedy_subgroup(G, A.mask & B.mask, DEFAULT_LIMITS)
