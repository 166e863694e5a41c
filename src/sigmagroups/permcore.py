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
with.  A residue found at a level joins the generator lists of the levels
from the one below it up to its first moved point, the only levels whose
group it enlarges; a given generator's residue joins every level up to its
first moved point.  That point is the level where the residue's sift
stopped, and the sift returns it with the residue.  Each transversal rep is
stored with its inverse, and a level's inverses sit in a list indexed by
orbit point.  Every stored rep is also in one set, identity included.  A
Schreier generator of level i fixes 0..i, so when it is in that set it is
the identity or a rep of a deeper level j, and its sift would pass the
levels it fixes and end at level j with nothing left: it is skipped
unsifted, and a sift stops as soon as what is left is in the set.  Neither
changes a residue, so the chain is the one the full sifts build.  A third
shortcut keeps it too.  Let X be Alt(Ω) when every generator is even, else
Sym(Ω), with Ω the points some generator moves; the group lies in X, so no
level's orbit is larger than its orbit in X's chain, the level's full size.
Once every level below i has its full size, the deeper levels, complete
since the build verifies deepest first, hold |Stab_X(0..i)| elements, so
they are Stab_X(0..i) and hold every Schreier generator of level i: level i
is not verified, and an orbit of full size is not walked again.  Ω and the
parity come from one cycle walk of each generator, and the least level from
which every level is full from one walk down over the orbits the chain
holds.  A membership test walks only the stored levels, those whose orbit is
more than their point: one list subscript and one composition per level its
element moves, and one comparison with the identity at the end.  Each
composition is one C call, a gather "p, then q" that reads the second
operand, the table, at the first one's images.  Up to 256 points the chain
holds its permutations as ``bytes`` and gathers with ``p.translate(q)``; an
operand used as a table (a stored inverse rep, a strong generator in its
level's list) is padded with the fixed points n..255 to the 256 bytes
``translate`` needs.  Past 256 points it holds image tuples and gathers with
``itemgetter(*p)(q)``.
``Perm`` is the value type seen by callers, always on image tuples.

Only root groups carry a chain: groups built from generators, such as corpus
entries and quotient groups.  A subgroup is its root, a bitmask over the
root's sorted elements and its generators, with no chain or element list of
its own: a subgroup made from generators is closed by a throwaway chain on
them, whose elements give the mask.  A root's one hashed view of its
elements is its element index, image tuple -> position, built with the
element list; interning keys a root by the index's keys, its sorted image
tuples.  Sets of image tuples are built only by the public calls that take
or return them.
"""
from __future__ import annotations

import functools
import math
import re
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import MAX_TABLE_ORDER, CapacityError, GroupInputError, InvariantError

# ---------------------------------------------------------------------------
# raw image-tuple arithmetic

def compose_images(p: tuple, q: tuple) -> tuple:
    """Apply p, then q: q gathered at p's images."""
    if len(p) < 2:  # itemgetter gives a scalar for one index and refuses none
        return tuple(q[i] for i in p)
    return itemgetter(*p)(q)


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
            # a point has no more significant digits than the degree, so int
            # never reads a longer token
            digits = tok.lstrip("0") or "0"
            val = int(digits) if len(digits) <= len(str(degree)) else 0
            if not 1 <= val <= degree:
                raise GroupInputError(f"point {digits} outside 1..{degree}")
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
        # each image's type is int itself: 1.0 and True both equal 1 and sort
        # as it, and a bool is an int by isinstance
        if not (set(map(type, imgs)) <= {int} and sorted(imgs) == list(range(len(imgs)))):
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
    pass).  Each transversal rep is stored with its inverse.  A level's
    inverse reps sit in a list of ``degree`` slots indexed by orbit point,
    ``None`` off the orbit, so a sift finds each one by a list subscript.
    ``_reps`` is the set of every stored rep, identity included, as n-long
    data; it grows only where a rep is stored, in ``_extend_orbit``, so a
    chain extended in place keeps it without more work.  The build uses it
    to skip or end a sift whose element is already a rep (``_build_chain``).
    ``_levels`` lists the stored levels, (point, slots) in base order, and
    membership walks only them: one gather per level its element moves, then
    one comparison with the identity.  It is derived once the chain is
    built, so code that extends a chain in place must derive it again.
    ``_full`` holds each level's full size, its orbit size in the chain of
    Sym(Ω) or Alt(Ω) (``_derive_full_sizes``), and ``_full_from`` the least
    level from which every orbit has it; a level above it, with every level
    below it full, needs no verification (``_verify_level``).  Both are
    derived from the generators, the index over the orbits the chain holds,
    so a chain extended in place needs one more call of
    ``_derive_full_sizes``: a new generator can grow Ω, or be odd and turn
    Alt(Ω) into Sym(Ω).

    The chain's encoding is chosen once, from the degree: ``bytes`` gathered
    by ``bytes.translate`` up to 256 points, image tuples gathered by
    ``compose_images`` past them.  Data operands (residues, reps, strong
    generators, inverses of strong generators) are n long; tables (inverse
    reps, strong generators in the level lists) are ``p + self._pad``, which
    pads bytes to 256 and leaves a tuple as it is.  Either way the chain
    holds the same permutations, built in the same order.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
        if type(degree) is not int or degree < 0:   # bool is not a degree either
            raise GroupInputError(f"degree {degree!r} is not a non-negative int")
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Perm):
                raise GroupInputError(f"generator {g!r} is not a Perm")
            if g.degree != degree:
                raise GroupInputError(
                    f"generator degree {g.degree} does not match group degree {degree}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not g.is_identity())
        if degree <= 256:   # a translate table maps all 256 byte values
            self._encode, self._gather = bytes, bytes.translate
            self._pad = bytes(range(degree, 256))
        else:
            self._encode, self._gather, self._pad = tuple, compose_images, ()
        self._identity = self._encode(range(degree))
        # level i: None while the orbit of i is {i}, else orbit point -> the
        # rep mapping i to it, and a list of degree slots holding at each orbit
        # point the rep's inverse, as a table, and None off the orbit
        self._transversals: list[dict[int, bytes | tuple] | None] = [None] * degree
        self._inverses: list[list[bytes | tuple | None] | None] = [None] * degree
        self._strong: list[bytes | tuple] = []
        # every stored transversal rep, identity included, as n-long data
        self._reps: set[bytes | tuple] = {self._identity}
        self._derive_full_sizes()
        self._build_chain()
        # the stored levels, in base order: (point, its inverse-rep slots)
        self._levels = tuple((i, level) for i, level in enumerate(self._inverses)
                             if level is not None)
        self.order = math.prod(len(t) for t in self._transversals if t is not None)
        self._elements: tuple[Perm, ...] | None = None
        self._index: dict[tuple, int] | None = None
        self.cache: dict = {}

    # -- chain construction

    def _derive_full_sizes(self) -> None:
        """The orbit size ``self._full[j]`` that level j has in the chain of
        X = Alt(Ω) when every generator is even, else Sym(Ω), Ω the points
        some generator moves: |Ω ∩ {j, ..., n-1}| for j in Ω, 1 off Ω, and 1
        for the last two points of Ω when X = Alt(Ω), whose pointwise
        stabilizer of the other points is trivial.  The group lies in X, so
        no level's orbit is ever larger.  Ω and the parity come from one
        cycle walk per generator, a k-cycle being k - 1 swaps.  The index
        ``self._full_from`` is then walked down from the degree over the
        orbits the chain holds (``_lower_full_from``), so a chain that is
        built, or extended in place, gets it right from one call."""
        walks = [_image_cycles(g.images) for g in self.generators]
        moved = sorted(set(chain.from_iterable(chain.from_iterable(walks))))
        even = all((sum(map(len, cycles)) - len(cycles)) % 2 == 0 for cycles in walks)
        # the levels of Ω whose size is above 1: all but Ω's last point in
        # Sym(Ω), all but its last two in Alt(Ω)
        top = len(moved) - (2 if even else 1)
        sizes = [1] * self.degree
        for rank, j in enumerate(moved[:top]):
            sizes[j] = len(moved) - rank
        self._full = sizes
        self._lower_full_from(self.degree)

    def _lower_full_from(self, start: int) -> None:
        """Bind ``self._full_from``, the least level from which every level
        has its full size, by a walk down from ``start`` over the levels
        whose orbit has it; every level from ``start`` must have it already."""
        levels, full = self._transversals, self._full
        while start > 0 and (len(levels[start - 1]) if levels[start - 1] else 1) == full[start - 1]:
            start -= 1
        self._full_from = start

    def _sift(self, x: bytes | tuple, start: int = 0) -> tuple[int, bytes | tuple] | None:
        """The build's residue sift: reduce the encoded x, which fixes every
        point before ``start``, through every level from ``start``; None
        means x is in the group those levels hold.  Otherwise it returns the
        first level whose orbit lacks x's image, with the residue: the
        residue fixes every base point before that level, so the level is
        its first moved point, where it joins the strong generators.  The
        sift stops once a composition at level i leaves a stored rep: x then
        fixes 0..i, so it is the identity or a rep of a deeper level j, and
        the rest of the sift would pass the levels it fixes and end at j
        with the identity.  Since the base is every point, x is the identity
        too once all levels are passed.  Membership does not call it:
        ``__contains__`` needs no residue, only a yes or no."""
        reps, inverses, gather = self._reps, self._inverses, self._gather
        for i in range(start, self.degree):
            p = x[i]
            if p != i:
                level = inverses[i]
                if level is None or (inv := level[p]) is None:
                    return i, x
                x = gather(x, inv)
                if x in reps:
                    return None
        return None

    def _build_chain(self) -> None:
        """Incremental Schreier-Sims with base 0..n-1, deepest level first.

        Level i has an append-only list of strong generators fixing 0..i-1,
        each as (generator as a table, its inverse), and the orbit of i under
        them.  Orbits are extended, never rebuilt, and reps are never
        replaced, so a Schreier generator once sifted to the identity through
        the deeper levels stays verified: each orbit point counts the level
        generators it has been verified with, and only new (point, generator)
        pairs are sifted.  The given generators are sifted one at a time
        through the chain completed for those before them, and only their
        residues join, so a generator that is a word in earlier ones adds no
        Schreier generators.  A given generator's residue joins the lists of
        levels 0 up to its first moved point, since it enlarges the group;
        that point is the level ``_sift`` returns with it, so no residue is
        scanned again.

        A residue r that verifying level i finds joins only the lists of
        levels i+1 up to its first moved point, and verification resumes
        there.  The lists still generate the groups they would if r joined
        every level from 0, and they still nest:
        - r is a Schreier generator of level i times reps of deeper levels,
          so by induction it lies in the group of every level j <= i:
          adding it there would change neither that group nor its orbit;
        - Schreier's lemma at level j needs only some generating set of the
          level's group, so leaving r out of levels 0..i loses no check;
        - each level's group still lies in the one before it: r is in level
          i's group and in every list from i+1 to its first moved point.
        Each residue still adds a point to the orbit of its first moved
        point, so the build ends as before.

        A Schreier generator that is already a stored rep (``self._reps``)
        is not sifted, and a sift ends at the first stored rep it reaches.
        Such an element fixes every point up to its level, so it is the
        identity or a rep of a deeper level, whose sift would end there with
        nothing left: no residue, strong generator, orbit or order changes.

        Nor does stopping at a level whose deeper levels are all of their
        full size (``self._full``), the size they have in the chain of
        X = Sym(Ω) or Alt(Ω) that holds the group.  When level i is
        verified, the deeper levels are complete, so the group they hold
        has the product of their orbit sizes as its order.  That is
        |Stab_X(0..i)|, and the group lies in Stab_X(0..i), so it is all of
        it.  Every Schreier generator of level i lies in Stab_X(0..i), so
        each would sift to the identity, and none is formed.  The least
        level from which every level is full is walked down by
        ``_lower_full_from``, from the degree before the build and from
        where it stands whenever an orbit reaches its full size.
        Deterministic: no randomisation, fixed iteration orders.
        """
        n, encode, pad = self.degree, self._encode, self._pad
        level_gens: list[list[tuple]] = [[] for _ in range(n)]
        closed = [0] * n        # orbit i is closed under level_gens[i][:closed[i]]
        verified: list[dict[int, int]] = [{} for _ in range(n)]

        identity = self._identity

        def add_strong(base: int, s: bytes | tuple, low: int) -> int:
            # base, the level s's sift stopped at, is s's first moved point
            self._strong.append(s)
            # the table that maps each s[k] to k is the inverse, once cut to n
            inverse = bytes.maketrans(s, identity)[:n] if encode is bytes else invert_images(s)
            pair = (s + pad, inverse)
            for level in level_gens[low:base + 1]:
                level.append(pair)
            return base

        for g in self.generators:
            found = self._sift(encode(g.images))
            i = -1 if found is None else add_strong(*found, 0)
            while i >= 0:
                gens = level_gens[i]
                if closed[i] < len(gens):   # a level gains none from a residue it found
                    self._extend_orbit(i, gens, closed[i])
                    closed[i] = len(gens)
                found = self._verify_level(i, gens, verified[i])
                i = i - 1 if found is None else add_strong(*found, i + 1)

    def _extend_orbit(self, i: int, gens: list[tuple], old: int) -> None:
        """Close the orbit of i under gens; the points it has are closed under
        gens[:old] already.  A new point's rep is its finder's rep times the
        generator, and its inverse the generator's inverse times the finder's
        inverse.  An orbit of its full size (``self._full``) can gain no
        point, so it is left at once; when one reaches it, ``self._full_from``
        is walked down from where it stands (``_lower_full_from``), which
        moves it only when this is the level just before it."""
        trans, invs = self._transversals[i], self._inverses[i]
        full = self._full
        if (len(trans) if trans else 1) == full[i]:
            return
        gather, pad, reps = self._gather, self._pad, self._reps
        if trans is None:
            if all(s[i] == i for s, _ in gens[old:]):
                return
            trans = self._transversals[i] = {i: self._identity}
            invs = self._inverses[i] = [None] * self.degree
            invs[i] = self._identity + pad
        found: list[int] = []
        # the old points under the new generators, then each new point, as it
        # is found, under every generator; found grows while it is walked
        for a, pairs in chain(zip(list(trans), repeat(gens[old:])), zip(found, repeat(gens))):
            ua, va = trans[a], invs[a]
            for s, s_inv in pairs:
                b = s[a]
                if b not in trans:
                    trans[b] = ub = gather(ua, s)
                    reps.add(ub)
                    invs[b] = gather(s_inv, va) + pad
                    found.append(b)
        if len(trans) == full[i]:
            self._lower_full_from(self._full_from)

    def _verify_level(self, i: int, gens: list[tuple], verified: dict[int, int]
                      ) -> tuple[int, bytes | tuple] | None:
        """Sift every unverified Schreier generator y = u_p s u_q^-1, q = p^s,
        of level i through the deeper levels; the first residue with its
        level, as ``_sift`` returns them, or None.
        Three kinds need no sift: s itself for p = i, y = 1 (the tree edge
        u_p s = u_q, one comparison), and y in ``self._reps``.  y fixes
        0..i, so a stored rep equal to it is the identity or a rep of a
        level j > i, and its sift would pass the levels it fixes, reach j
        and return None.

        The pair that gave a residue counts as verified: once the residue is a
        strong generator and the deeper levels are complete again, that
        Schreier generator sifts to the identity.

        None at once when every level below i has its full size
        (``self._full_from <= i + 1``): the complete deeper levels are then
        the whole pointwise stabilizer of 0..i in Sym(Ω) or Alt(Ω), which
        holds every Schreier generator of level i, so none is formed and
        no pair is marked verified."""
        trans, invs = self._transversals[i], self._inverses[i]
        if trans is None:   # every s fixes i: each is a strong generator one level down
            return None
        if self._full_from <= i + 1:    # the levels below i hold Stab_X(0..i)
            return None
        gather, reps = self._gather, self._reps
        count = len(gens)
        for p, up in trans.items():
            k = verified.get(p, 0)
            while k < count:
                s = gens[k][0]
                k += 1
                q = s[p]
                if q == p == i:     # s fixes 0..i: a strong generator one level down
                    continue
                t = gather(up, s)
                if t == trans[q]:
                    continue
                y = gather(t, invs[q])
                if y in reps:
                    continue
                found = self._sift(y, i + 1)
                if found is not None:
                    verified[p] = k
                    return found
            verified[p] = count
        return None

    # -- queries

    def __contains__(self, p: Perm) -> bool:
        """Sift p through the stored levels only, then compare it with the
        identity once.  What is left is p times inverse reps, so it is the
        identity only for a product of reps, a member; and a member, at each
        stored level, maps that level's point into its orbit and fixes every
        point whose level is not stored."""
        if not isinstance(p, Perm) or len(p.images) != self.degree:
            return False
        x, gather = self._encode(p.images), self._gather
        for i, level in self._levels:
            q = x[i]
            if q != i:
                if (inv := level[q]) is None:
                    return False
                x = gather(x, inv)
        return x == self._identity

    def elements(self) -> tuple[Perm, ...]:
        """All elements, sorted lexicographically, listed on first use.  A
        group of order above ``MAX_TABLE_ORDER`` is refused before any
        element is listed: no table could index it.  No order a ``Limits``
        admits is above that ceiling, so the caller's bound on a group's
        order is its table bound, checked where a table or a corpus group is
        asked for."""
        if self._elements is None:
            if self.order > MAX_TABLE_ORDER:
                raise CapacityError(f"group order {self.order} exceeds {MAX_TABLE_ORDER}, the "
                                    f"largest group order whose elements are listed")
            gather, pad = self._gather, self._pad
            elems = [self._identity]
            for trans in reversed(self._transversals):
                if trans is None:
                    continue
                tables = [u + pad for u in trans.values()]
                elems = [x for e in elems for x in map(gather, repeat(e, len(tables)), tables)]
            elems.sort()    # bytes sort as their image tuples do
            self._index = {e: i for i, e in enumerate(map(tuple, elems))}
            self._elements = tuple(map(Perm, self._index))
        return self._elements

    def element_images(self) -> frozenset[tuple]:
        self.elements()
        return frozenset(self._index)

    def element_index(self) -> dict[tuple, int]:
        """The position of each element, as an image tuple, in sorted order:
        its keys are the sorted image tuples."""
        self.elements()
        return self._index

    @property
    def root(self) -> "PermGroup":
        """The interned group with this element set: subgroups of this group
        are masks over its sorted elements, and their results are cached on it.
        Once found it is one dict lookup."""
        try:
            return self.cache["root"]
        except KeyError:
            pass
        root = self.cache["root"] = interned(self)
        return root

    @functools.cached_property
    def mask(self) -> int:
        """Every element's bit, computed on first use and then stored."""
        return (1 << self.order) - 1

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self.order}>"


_INTERNED: dict[tuple[int, tuple[tuple, ...]], PermGroup] = {}


def interned(group: PermGroup) -> PermGroup:
    """Canonical instance per element set, so derived caches are shared: a
    root is keyed by its degree and its sorted image tuples, the keys of its
    element index."""
    return _INTERNED.setdefault((group.degree, tuple(group.element_index())), group)


def clear_intern_cache() -> None:
    """Forget the interned groups and empty their caches.  A root's cache
    holds the root itself and its subgroups, which point back at it, so
    emptying it lets reference counting free them at once instead of
    leaving them to the cycle collector."""
    for group in _INTERNED.values():
        group.cache.clear()
    _INTERNED.clear()


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

    The group or subgroup it is made in only checks the generators'
    membership and Lagrange; it is not kept, so a subgroup is the same value
    however it was found, and its results are cached once, on the root per
    mask.  A subgroup is accepted wherever a group is expected, and the
    structure kernels run on the root's element table restricted to its
    members.  Lagrange is checked on every construction as a cheap sanity net.
    """

    __slots__ = ("root", "mask", "generators", "order")

    def __init__(self, group: "PermGroup | Subgroup", generators: Iterable[Perm]):
        gens = tuple(generators)
        for g in gens:
            if g not in group:
                raise GroupInputError(f"generator {g} is not in the ambient group")
        root = group.root
        flags = bytearray(root.order)
        index = root.element_index()
        for e in PermGroup(root.degree, gens).elements():
            flags[index[e.images]] = 1
        self._bind(group, _mask(flags), tuple(g for g in gens if not g.is_identity()))

    @classmethod
    def _of_mask(cls, group: "PermGroup | Subgroup", mask: int,
                 generators: tuple[Perm, ...]) -> "Subgroup":
        """Wrap a member mask of group's root that ``generators`` generate."""
        self = cls.__new__(cls)
        self._bind(group, mask, generators)
        return self

    def _bind(self, group, mask: int, generators: tuple[Perm, ...]) -> None:
        self.root = group.root
        self.mask = mask
        self.generators = generators
        self.order = mask.bit_count()
        if group.order % self.order:
            raise InvariantError(f"Lagrange violated: a subgroup of order {self.order} "
                                 f"in a group of order {group.order}")

    @property
    def degree(self) -> int:
        return self.root.degree

    def elements(self) -> tuple[Perm, ...]:
        return tuple(compress(self.root.elements(), _flags(self.mask, self.root.order)))

    def element_images(self) -> frozenset[tuple]:
        return frozenset(p.images for p in self.elements())

    def __contains__(self, p: Perm) -> bool:
        i = self.root.element_index().get(p.images) if isinstance(p, Perm) else None
        return i is not None and self.mask >> i & 1 == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.root is other.root
                and self.mask == other.mask)

    def __hash__(self) -> int:
        return hash((id(self.root), self.mask))

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"<Subgroup order={self.order} gens=[{gens}]>"


def conjugate_subgroup(h: Subgroup, x: Perm) -> Subgroup:
    """H^x = x^-1 H x; x must belong to H's root."""
    if x not in h.root:
        raise GroupInputError(f"conjugating element {x} is not in the root group")
    conj = Subgroup(h.root, tuple(g ** x for g in h.generators))
    if conj.order != h.order:
        raise InvariantError(f"a conjugate of a subgroup of order {h.order} has order {conj.order}")
    return conj


def trivial_subgroup(group: "PermGroup | Subgroup") -> Subgroup:
    return Subgroup._of_mask(group, 1, ())


def full_subgroup(group: "PermGroup | Subgroup") -> Subgroup:
    return Subgroup._of_mask(group, group.mask, group.generators)
