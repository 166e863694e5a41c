"""Permutations and permutation groups on a small finite domain.

Conventions used throughout the package:

- points are 0-based ints internally; all text I/O is 1-based cycle notation,
  e.g. ``(1 2 3)(4 5)``, with ``()`` for the identity
- composition is left-to-right: ``(p * q)`` applies ``p`` first, then ``q``
- the conjugate ``h ** x`` is ``x^-1 * h * x``
- permutations are immutable and ordered lexicographically by image tuple

Groups carry a deterministic Schreier-Sims stabilizer chain with the fixed
base 0, 1, ..., n-1, so identical generator input always produces identical
internal state.  Hot paths (closures, product sets) work on raw image tuples;
``Perm`` is the value type seen by callers.

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
    return tuple(q[i] for i in p)


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

    The stabilizer chain is built deterministically with base 0..n-1; order
    and membership come from the chain, the element list from transversal
    products (exact, no closure pass).
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
        self._transversals: list[dict[int, tuple]] = [
            {i: identity_images(degree)} for i in range(degree)]
        self._strong: list[tuple] = []
        for g in self.generators:
            if g.images not in self._strong:
                self._strong.append(g.images)
        self._build_chain()
        self.order = 1
        for t in self._transversals:
            self.order *= len(t)
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[tuple] | None = None
        self.cache: dict = {}

    # -- chain construction

    def _sift(self, x: tuple, start: int = 0) -> tuple | None:
        """Reduce x through the chain; None means x is a member."""
        ident = identity_images(self.degree)
        for i in range(start, self.degree):
            if x == ident:
                return None
            p = x[i]
            if p == i:
                continue
            u = self._transversals[i].get(p)
            if u is None:
                return x
            x = compose_images(x, invert_images(u))
        return None if x == ident else x

    def _level_generators(self, i: int) -> list[tuple]:
        """Strong generators fixing the base points 0..i-1."""
        return [s for s in self._strong if all(s[t] == t for t in range(i))]

    def _build_chain(self) -> None:
        """Deepest-first Schreier-Sims verification with base 0..n-1.

        A level is verified once every Schreier generator of its orbit sifts
        to the identity through the deeper levels; failed residues join the
        strong set at their first moved base point and verification resumes
        there.  Deterministic: no randomisation, fixed iteration orders.
        """
        ident = identity_images(self.degree)
        i = self.degree - 1
        while i >= 0:
            gens = self._level_generators(i)
            self._rebuild_orbit(i, gens)
            trans = self._transversals[i]
            residue_level = None
            for p in sorted(trans):
                up = trans[p]
                for s in gens:
                    sg = compose_images(up, s)
                    sg = compose_images(sg, invert_images(trans[sg[i]]))
                    if sg == ident:
                        continue
                    r = self._sift(sg, i + 1)
                    if r is not None:
                        self._strong.append(r)
                        residue_level = next(t for t in range(self.degree) if r[t] != t)
                        break
                if residue_level is not None:
                    break
            if residue_level is not None:
                i = residue_level
            else:
                i -= 1

    def _rebuild_orbit(self, i: int, gens: list[tuple]) -> None:
        trans = {i: identity_images(self.degree)}
        frontier = [i]
        while frontier:
            nxt = []
            for a in frontier:
                ua = trans[a]
                for s in gens:
                    b = s[a]
                    if b not in trans:
                        trans[b] = compose_images(ua, s)
                        nxt.append(b)
            frontier = nxt
        self._transversals[i] = trans

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
                if len(trans) == 1:
                    continue
                elems = [compose_images(e, u) for e in elems for u in trans.values()]
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
