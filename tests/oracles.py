"""Independent brute-force reference implementations for the test suite.

Nothing in this module imports the package under test.  Permutations are raw
image tuples; groups are explicit multiplication tables over integer element
indices.  Every algorithm here is the naive, obviously-correct one: closure by
breadth-first word enumeration, subgroup enumeration by extend-one-element,
normality by conjugating every element, solubility by the derived series,
nilpotency by "every Sylow subgroup is normal", and residuals by scanning the
whole normal lattice.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# Raw image-tuple arithmetic


def compose(p: tuple, q: tuple) -> tuple:
    """Apply p first, then q (matching (p*q)(i) = q(p(i)))."""
    return tuple(q[i] for i in p)


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity(degree: int) -> tuple:
    return tuple(range(degree))


def element_order(p: tuple) -> int:
    """The least k >= 1 with p^k the identity, by composing p with itself."""
    ident = identity(len(p))
    power, k = tuple(p), 1
    while power != ident:
        power = compose(power, p)
        k += 1
    return k


def conjugate(h: tuple, x: tuple) -> tuple:
    """x^-1 h x."""
    return compose(compose(inverse(x), h), x)


def conjugate_orbit(generators, hset) -> list[frozenset]:
    """The distinct conjugates of a set of image tuples under the group
    generated by ``generators``, breadth first: conjugate each set found by
    each generator in turn."""
    pairs = [(inverse(g), g) for g in generators]
    out = [frozenset(hset)]
    seen = set(out)
    for s in out:
        for gi, g in pairs:
            c = frozenset(compose(compose(gi, e), g) for e in s)
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def close_tuples(generators, degree: int) -> frozenset:
    """Closure of a generator list under composition, as raw image tuples."""
    ident = identity(degree)
    elems = {ident}
    gens = [tuple(g) for g in generators]
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return frozenset(elems)


# ---------------------------------------------------------------------------
# Multiplication-table group (elements are integer indices)


class MulTable:
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the index of the product "a then b".  All structural
    questions (subgroups, normality, derived series, Sylow normality) are
    answered by exhaustive search over indices; no permutation arithmetic
    happens after construction.
    """

    def __init__(self, table, id_idx):
        self.table = table
        self.id_idx = id_idx
        self.order = len(table)
        self.inv = [0] * self.order
        for a in range(self.order):
            row = table[a]
            for b in range(self.order):
                if row[b] == id_idx:
                    self.inv[a] = b
                    break
        self._subgroups = None

    # -- generation ---------------------------------------------------------

    def generated(self, gens) -> frozenset:
        elems = {self.id_idx}
        gens = [g for g in gens]
        frontier = [self.id_idx]
        table = self.table
        while frontier:
            new = []
            for a in frontier:
                row = table[a]
                for g in gens:
                    c = row[g]
                    if c not in elems:
                        elems.add(c)
                        new.append(c)
            frontier = new
        return frozenset(elems)

    def all_subgroups(self) -> list:
        """Every subgroup, by repeatedly adjoining single elements."""
        if self._subgroups is not None:
            return self._subgroups
        trivial = frozenset({self.id_idx})
        seen = {trivial}
        frontier = [(trivial, ())]
        while frontier:
            grown = []
            for helems, hgens in frontier:
                for x in range(self.order):
                    if x in helems:
                        continue
                    k = self.generated(hgens + (x,))
                    if k not in seen:
                        seen.add(k)
                        grown.append((k, hgens + (x,)))
            frontier = grown
        self._subgroups = sorted(seen, key=lambda s: (len(s), sorted(s)))
        return self._subgroups

    # -- elementwise checks --------------------------------------------------

    def conjugate(self, h: int, x: int) -> int:
        return self.table[self.table[self.inv[x]][h]][x]

    def is_normal_set(self, helems) -> bool:
        for x in range(self.order):
            for h in helems:
                if self.conjugate(h, x) not in helems:
                    return False
        return True

    def normal_subgroups(self) -> list:
        return [s for s in self.all_subgroups() if self.is_normal_set(s)]

    def commutator(self, a: int, b: int) -> int:
        t = self.table
        return t[t[t[self.inv[a]][self.inv[b]]][a]][b]

    def derived_of(self, elems) -> frozenset:
        comms = {self.commutator(a, b) for a in elems for b in elems}
        return self.generated(sorted(comms))

    def is_soluble(self) -> bool:
        current = frozenset(range(self.order))
        while True:
            nxt = self.derived_of(current)
            if nxt == current:
                return len(current) == 1
            current = nxt

    def sylow_parts(self) -> dict:
        """prime -> full p-part of the group order."""
        parts = {}
        for p in prime_factors(self.order):
            part = 1
            while self.order % (part * p) == 0:
                part *= p
            parts[p] = part
        return parts

    def is_nilpotent(self) -> bool:
        """Every Sylow subgroup is normal."""
        for part in self.sylow_parts().values():
            for s in self.all_subgroups():
                if len(s) == part and not self.is_normal_set(s):
                    return False
        return True

    # -- quotients -----------------------------------------------------------

    def quotient(self, nelems) -> "MulTable":
        coset_of = {}
        reps = []
        for a in range(self.order):
            if a in coset_of:
                continue
            coset = frozenset(self.table[h][a] for h in nelems)
            cid = len(reps)
            reps.append(a)
            for b in coset:
                coset_of[b] = cid
        q = [
            [coset_of[self.table[reps[i]][reps[j]]] for j in range(len(reps))]
            for i in range(len(reps))
        ]
        return MulTable(q, coset_of[self.id_idx])


def prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Tuple-level wrapper: a permutation group with an attached table


class TupleGroup:
    """A permutation group closed from raw image tuples, plus its MulTable."""

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.elements = sorted(close_tuples(generators, degree))
        self.index = {e: i for i, e in enumerate(self.elements)}
        table = [
            [self.index[compose(a, b)] for b in self.elements]
            for a in self.elements
        ]
        self.mt = MulTable(table, self.index[identity(degree)])

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def to_images(self, idx_set) -> frozenset:
        return frozenset(self.elements[i] for i in idx_set)

    def subgroup_image_sets(self) -> list:
        """All subgroups as frozensets of image tuples, sorted."""
        subs = [self.to_images(s) for s in self.mt.all_subgroups()]
        return sorted(subs, key=lambda s: (len(s), sorted(s)))

    def normal_image_sets(self) -> list:
        subs = [self.to_images(s) for s in self.mt.normal_subgroups()]
        return sorted(subs, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# Lattice-scan oracles


def nilpotent_residual_order(tg: TupleGroup) -> int:
    """Order of the least normal subgroup with nilpotent quotient.

    Scans the whole normal lattice, checks each quotient by rebuilding its
    multiplication table, and insists the minimum is unique (contained in
    every other qualifying normal subgroup).
    """
    good = []
    for n in tg.mt.normal_subgroups():
        if tg.mt.quotient(n).is_nilpotent():
            good.append(n)
    best = min(good, key=len)
    for other in good:
        assert best <= other, "nilpotent-residual minimum is not unique"
    return len(best)


def maximal_image_sets(tg: TupleGroup) -> list:
    """Maximal proper subgroups, as frozensets of image tuples."""
    subs = tg.mt.all_subgroups()
    full = frozenset(range(tg.order))
    proper = [s for s in subs if s != full]
    out = []
    for s in proper:
        if not any(s < t for t in proper):
            out.append(tg.to_images(s))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def frattini_order(tg: TupleGroup) -> int:
    maxes = maximal_image_sets(tg)
    if not maxes:
        return tg.order
    inter = set(maxes[0])
    for m in maxes[1:]:
        inter &= m
    return len(inter)


def centralizer_tuples(elements, targets) -> frozenset:
    """Elements of the given set commuting with every target tuple."""
    return frozenset(
        x for x in elements
        if all(compose(x, t) == compose(t, x) for t in targets)
    )
