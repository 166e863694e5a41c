"""Permutations and permutation groups on a small finite domain.

Conventions used throughout the package:

- points are 0-based ints internally; all text I/O is 1-based cycle notation,
  e.g. ``(1 2 3)(4 5)``, with ``()`` for the identity
- composition is left-to-right: ``(p * q)`` applies ``p`` first, then ``q``
- the conjugate ``h ** x`` is ``x^-1 * h * x``
- permutations are immutable and ordered lexicographically by image tuple

Groups carry a stabilizer chain with the fixed base 0, 1, ..., n-1, built by
deterministic incremental Schreier-Sims, so identical generator input always
produces identical internal state.  Orbits are extended as strong generators
arrive, never rebuilt, and each Schreier generator is sifted once: an orbit
point remembers how many of its level's generators it has been verified
with.  Each transversal rep is stored with its inverse, so a sift is one
composition per moved level.  Hot paths (closures, product sets) work on raw
image tuples, composed with ``map``; ``Perm`` is the value type seen by
callers.

Only root groups carry a chain: groups built from generators, such as corpus
entries and quotient groups.  A subgroup is its root, a bitmask over the
root's sorted elements and its generators, with no chain or element list of
its own.
"""
from __future__ import annotations

import functools
import math
import re
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError

# ---------------------------------------------------------------------------
# raw image-tuple arithmetic

def compose_images(p: tuple, q: tuple) -> tuple:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def invert_images(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity_images(degree: int) -> tuple:
    return tuple(range(degree))


def conjugate_images(h: tuple, x: tuple) -> tuple:
    """x^-1 h x under left-to-right composition."""
    xi = invert_images(x)
    return compose_images(compose_images(xi, h), x)


def images_order(p: tuple) -> int:
    n = 1
    for c in _image_cycles(p):
        n = math.lcm(n, len(c))
    return n


def _image_cycles(p: tuple) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append(tuple(cyc))
    return cycles


# ---------------------------------------------------------------------------
# cycle notation

_CYCLE_BODY = re.compile(r"\(([0-9 ]*)\)")


def parse_cycles(text: str, degree: int) -> tuple:
    """Parse 1-based disjoint cycle notation into an image tuple.

    Whitespace and commas separate points.  Repeated points (within or across
    cycles) are rejected, as are points outside 1..degree.
    """
    s = re.sub(r"[,\s]+", " ", text.strip())
    if not s:
        raise GroupInputError("empty permutation text")
    pos = 0
    images = list(range(degree))
    seen: set[int] = set()
    stripped = s
    while pos < len(stripped):
        if stripped[pos] == " ":
            pos += 1
            continue
        m = _CYCLE_BODY.match(stripped, pos)
        if not m:
            raise GroupInputError(f"bad cycle text at {stripped[pos:]!r}")
        body = m.group(1).split()
        pos = m.end()
        if not body:
            continue  # "()" identity cycle
        pts = []
        for tok in body:
            val = int(tok)
            if not 1 <= val <= degree:
                raise GroupInputError(f"point {val} outside 1..{degree}")
            if val - 1 in seen:
                raise GroupInputError(f"repeated point {val} in {text!r}")
            seen.add(val - 1)
            pts.append(val - 1)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def format_cycles(p: tuple) -> str:
    """1-based disjoint cycle text, least point first per cycle; identity is "()"."""
    cycles = _image_cycles(p)
    if not cycles:
        return "()"
    parts = []
    for cyc in sorted(cycles, key=min):
        k = cyc.index(min(cyc))
        rotated = cyc[k:] + cyc[:k]
        parts.append("(" + " ".join(str(i + 1) for i in rotated) + ")")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Perm

@functools.total_ordering
class Perm:
    """An immutable permutation, stored as the tuple of 0-based images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise GroupInputError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(identity_images(degree))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Perm":
        return cls(parse_cycles(text, degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise GroupInputError("degree mismatch in composition")
        return Perm(compose_images(self.images, other.images))

    def inverse(self) -> "Perm":
        return Perm(invert_images(self.images))

    def __pow__(self, x: "Perm") -> "Perm":
        """Conjugate by a permutation: self ** x == x^-1 * self * x."""
        if len(self.images) != len(x.images):
            raise GroupInputError("degree mismatch in conjugation")
        return Perm(conjugate_images(self.images, x.images))

    def order(self) -> int:
        return images_order(self.images)

    def is_identity(self) -> bool:
        return self.images == identity_images(len(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        return format_cycles(self.images)

    def __repr__(self) -> str:
        return f"Perm({format_cycles(self.images)!r})"

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Perm is immutable")

    def __reduce__(self):
        # the default slot state is restored through __setattr__, which refuses
        return (Perm, (self.images,))


# ---------------------------------------------------------------------------
# stabilizer chain / PermGroup

class PermGroup:
    """Group generated by permutations of a common degree.

    The stabilizer chain has the fixed base 0..n-1 and is built by
    deterministic incremental Schreier-Sims; order and membership come from
    the chain, the element list from transversal products (exact, no closure
    pass).  Each transversal rep is stored with its inverse, so a sift costs
    one composition per moved level.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Perm):
                raise GroupInputError(f"generator {g!r} is not a Perm")
            if g.degree != degree:
                raise GroupInputError(
                    f"generator degree {g.degree} does not match group degree {degree}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not g.is_identity())
        # level i: None while the orbit of i is {i}, else orbit point -> the
        # rep mapping i to it, and orbit point -> the rep's inverse
        self._transversals: list[dict[int, tuple] | None] = [None] * degree
        self._inverses: list[dict[int, tuple] | None] = [None] * degree
        self._strong: list[tuple] = []
        self._build_chain()
        self.order = math.prod(len(t) for t in self._transversals if t is not None)
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[tuple] | None = None
        self.cache: dict = {}

    # -- chain construction

    def _sift(self, x: tuple, start: int = 0) -> tuple | None:
        """Reduce x through the chain from level ``start``; None means x is a
        member.  A residue fixes every base point before the first level whose
        orbit lacks its image.  Since the base is every point, x is the
        identity once all levels are passed."""
        inverses = self._inverses
        for i in range(start, self.degree):
            p = x[i]
            if p != i:
                level = inverses[i]
                if level is None or (inv := level.get(p)) is None:
                    return x
                x = tuple(map(inv.__getitem__, x))
        return None

    def _build_chain(self) -> None:
        """Incremental Schreier-Sims with base 0..n-1, deepest level first.

        Level i has the strong generators fixing 0..i-1, an append-only list,
        and the orbit of i under them.  Orbits are extended, never rebuilt,
        and reps are never replaced, so a Schreier generator once sifted to
        the identity through the deeper levels stays verified: each orbit
        point counts the level generators it has been verified with, and only
        new (point, generator) pairs are sifted.  A residue joins the strong
        set and the generator lists of the levels up to its first moved point,
        and verification resumes at that level.  The given generators are
        sifted one at a time through the chain completed for those before
        them, and only their residues join, so a generator that is a word in
        earlier ones adds no Schreier generators.  Deterministic: no
        randomisation, fixed iteration orders.
        """
        n = self.degree
        level_gens: list[list[tuple[tuple, tuple]]] = [[] for _ in range(n)]
        closed = [0] * n        # orbit i is closed under level_gens[i][:closed[i]]
        verified: list[dict[int, int]] = [{} for _ in range(n)]

        def add_strong(s: tuple) -> int:
            self._strong.append(s)
            pair = (s, invert_images(s))
            base = next(t for t in range(n) if s[t] != t)
            for level in level_gens[:base + 1]:
                level.append(pair)
            return base

        for g in self.generators:
            residue = self._sift(g.images)
            i = -1 if residue is None else add_strong(residue)
            while i >= 0:
                gens = level_gens[i]    # every level visited has a new generator
                self._extend_orbit(i, gens, closed[i])
                closed[i] = len(gens)
                residue = self._verify_level(i, gens, verified[i])
                i = i - 1 if residue is None else add_strong(residue)

    def _extend_orbit(self, i: int, gens: list[tuple[tuple, tuple]], old: int) -> None:
        """Close the orbit of i under gens; the points it has are closed under
        gens[:old] already.  A new point's rep is its finder's rep times the
        generator, and its inverse the generator's inverse times the finder's
        inverse."""
        trans, invs = self._transversals[i], self._inverses[i]
        if trans is None:
            if all(s[i] == i for s, _ in gens[old:]):
                return
            ident = identity_images(self.degree)
            trans = self._transversals[i] = {i: ident}
            invs = self._inverses[i] = {i: ident}

        def reach(a: int, pairs: list[tuple[tuple, tuple]]) -> None:
            ua, va = trans[a], invs[a]
            for s, s_inv in pairs:
                b = s[a]
                if b not in trans:
                    trans[b] = tuple(map(s.__getitem__, ua))
                    invs[b] = tuple(map(va.__getitem__, s_inv))
                    found.append(b)

        found: list[int] = []
        new = gens[old:]
        for a in list(trans):
            reach(a, new)
        for a in found:     # grows while it is walked
            reach(a, gens)

    def _verify_level(self, i: int, gens: list[tuple[tuple, tuple]],
                      verified: dict[int, int]) -> tuple | None:
        """Sift every unverified Schreier generator u_p s u_(p^s)^-1 of level
        i through the deeper levels; the first residue, or None.  Those that
        are the identity, or s itself for p = i, need no sift.

        The pair that gave a residue counts as verified: once the residue is a
        strong generator and the deeper levels are complete again, that
        Schreier generator sifts to the identity."""
        trans, invs = self._transversals[i], self._inverses[i]
        if trans is None:   # every s fixes i: each is a strong generator one level down
            return None
        count = len(gens)
        for p, up in trans.items():
            k = verified.get(p, 0)
            while k < count:
                s = gens[k][0]
                k += 1
                q = s[p]
                if q == p == i:     # s fixes 0..i: a strong generator one level down
                    continue
                t = tuple(map(s.__getitem__, up))
                if t == trans[q]:
                    continue
                residue = self._sift(tuple(map(invs[q].__getitem__, t)), i + 1)
                if residue is not None:
                    verified[p] = k
                    return residue
            verified[p] = count
        return None

    # -- queries

    def __contains__(self, p: Perm) -> bool:
        if not isinstance(p, Perm) or p.degree != self.degree:
            return False
        return self._sift(p.images) is None

    def contains_images(self, images: tuple) -> bool:
        return self._sift(images) is None

    def elements(self, bound: int | None = None) -> tuple[Perm, ...]:
        """All elements, sorted lexicographically; capped by the element-cache bound."""
        if self._elements is None:
            limit = bound if bound is not None else DEFAULT_LIMITS.element_cache_bound
            if self.order > limit:
                raise CapacityError(
                    f"group order {self.order} exceeds element-cache bound {limit}")
            elems = [identity_images(self.degree)]
            for trans in reversed(self._transversals):
                if trans is None:
                    continue
                elems = [tuple(map(u.__getitem__, e)) for e in elems for u in trans.values()]
            elems.sort()
            self._elements = tuple(Perm(e) for e in elems)
            self._element_set = frozenset(elems)
        return self._elements

    def element_images(self, bound: int | None = None) -> frozenset[tuple]:
        self.elements(bound)
        assert self._element_set is not None
        return self._element_set

    def key(self) -> tuple[int, frozenset[tuple]]:
        """Canonical identity for interning: (degree, element set)."""
        return (self.degree, self.element_images())

    def element_index(self) -> dict[tuple, int]:
        """The position of each element, as an image tuple, in sorted order."""
        if "element-index" not in self.cache:
            self.cache["element-index"] = {p.images: i for i, p in enumerate(self.elements())}
        return self.cache["element-index"]

    @property
    def root(self) -> "PermGroup":
        """The interned group with this element set: subgroups of this group
        are masks over its sorted elements, and their results are cached on it."""
        if "root" not in self.cache:
            self.cache["root"] = interned(self)
        return self.cache["root"]

    @property
    def mask(self) -> int:
        return (1 << self.order) - 1

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self.order}>"


_INTERNED: dict[tuple[int, frozenset[tuple]], PermGroup] = {}


def interned(group: PermGroup) -> PermGroup:
    """Canonical instance per element set, so derived caches are shared."""
    return _INTERNED.setdefault(group.key(), group)


def find_interned(degree: int, images: frozenset[tuple]) -> PermGroup | None:
    """The interned group with this element set, if one exists."""
    return _INTERNED.get((degree, images))


def clear_intern_cache() -> None:
    """Forget the interned groups and empty their caches.  A root's cache
    holds the root itself and its subgroups, which point back at it, so
    emptying it lets reference counting free them at once instead of
    leaving them to the cycle collector."""
    for group in _INTERNED.values():
        group.cache.clear()
    _INTERNED.clear()


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


# ---------------------------------------------------------------------------
# Subgroup

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _mask(flags: bytearray) -> int:
    """The bitmask with bit i set where ``flags[i]`` is 1."""
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


def _flags(mask: int, size: int) -> bytearray:
    """``size`` bytes, 1 where the mask has its bit set."""
    return bytearray(format(mask, f"0{size}b")[::-1].encode()).translate(_FROM_DIGITS)


class Subgroup:
    """A subgroup of a root group: the root, the ``int`` bitmask of its
    members over the root's sorted elements, and generators.

    The ambient is the group or subgroup it was found in; all of them share
    one root.  A subgroup is accepted wherever a group is expected, and the
    structure kernels run on the root's element table restricted to its
    members.  Lagrange is checked on every construction as a cheap sanity net.
    """

    __slots__ = ("ambient", "root", "mask", "generators", "order", "_cache")

    def __init__(self, ambient: "PermGroup | Subgroup", generators: Iterable[Perm]):
        gens = tuple(generators)
        for g in gens:
            if g not in ambient:
                raise GroupInputError(f"generator {g} is not in the ambient group")
        root = ambient.root
        flags = bytearray(root.order)
        index = root.element_index()
        for e in closure_of_images(root.degree, [g.images for g in gens]):
            flags[index[e]] = 1
        self._bind(ambient, _mask(flags), tuple(g for g in gens if not g.is_identity()))

    @classmethod
    def _of_mask(cls, ambient: "PermGroup | Subgroup", mask: int,
                 generators: tuple[Perm, ...]) -> "Subgroup":
        """Wrap a member mask of ambient's root that ``generators`` generate."""
        self = cls.__new__(cls)
        self._bind(ambient, mask, generators)
        return self

    def _bind(self, ambient, mask: int, generators: tuple[Perm, ...]) -> None:
        self.ambient = ambient
        self.root = ambient.root
        self.mask = mask
        self.generators = generators
        self.order = mask.bit_count()
        self._cache = None
        if ambient.order % self.order:
            raise InvariantError(f"Lagrange violated: a subgroup of order {self.order} "
                                 f"in a group of order {ambient.order}")

    @property
    def degree(self) -> int:
        return self.root.degree

    @property
    def cache(self) -> dict:
        """Results computed for this object, like ``PermGroup.cache``."""
        if self._cache is None:
            self._cache = {}
        return self._cache

    def elements(self) -> tuple[Perm, ...]:
        return tuple(compress(self.root.elements(), _flags(self.mask, self.root.order)))

    def element_images(self) -> frozenset[tuple]:
        return frozenset(self.sorted_images())

    def sorted_images(self) -> tuple[tuple, ...]:
        return tuple(p.images for p in self.elements())

    def __contains__(self, p: Perm) -> bool:
        i = self.root.element_index().get(p.images) if isinstance(p, Perm) else None
        return i is not None and self.mask >> i & 1 == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.root is other.root
                and self.mask == other.mask)

    def __hash__(self) -> int:
        return hash((id(self.root), self.mask))

    def is_subset_of(self, other: "Subgroup") -> bool:
        if self.root is other.root:
            return self.mask & other.mask == self.mask
        return self.element_images() <= other.element_images()

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"<Subgroup order={self.order} gens=[{gens}]>"


def conjugate_subgroup(h: Subgroup, x: Perm) -> Subgroup:
    """H^x = x^-1 H x; x must belong to the ambient group."""
    if x not in h.ambient:
        raise GroupInputError(f"conjugating element {x} is not in the ambient group")
    conj = Subgroup(h.ambient, tuple(g ** x for g in h.generators))
    if conj.order != h.order:
        raise InvariantError(f"a conjugate of a subgroup of order {h.order} has order {conj.order}")
    return conj


def trivial_subgroup(ambient: "PermGroup | Subgroup") -> Subgroup:
    return Subgroup._of_mask(ambient, 1, ())


def full_subgroup(ambient: "PermGroup | Subgroup") -> Subgroup:
    return Subgroup._of_mask(ambient, ambient.mask, ambient.generators)
