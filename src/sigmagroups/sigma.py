"""Prime-partition (sigma) machinery and the subgroup classes built on it.

A partition splits the primes into blocks.  Two spellings exist:

- listed: finitely many explicit blocks, e.g. ``[2,3][5]``; primes not listed
  fall into one implicit "rest" block
- classical: ``sigma1``, every prime alone in its own block

All class predicates take a group, or a ``Subgroup`` of one, together with
a partition and answer deterministically; results and expensive
intermediates are memoised on the root group per subgroup mask.  What
depends on one block of the partition is keyed by that block's primes
alone: the subgroup R_i generated by the block's elements
(``_block_generated``) and the block's Hall subgroups and their classes
(``_hall_block``), so partitions that share a block share them.  What
depends on the whole partition, PsigmaT, the residual and the Hall
coverage scan, is keyed by sigma(G), the blocks of the partition that
meet pi(G), as prime sets (``_sigma_key``), so partitions that agree on
pi(G), such as sigma1 and the partition of one listed block per prime,
share it.  No memoised value carries a block id, and the caller's ids are
put back on what is reported.  Every read checks the caller's table
bound, so only the three results that read a lattice, the Hall data of a
block, PsigmaT and the Hall coverage scan, also key on the caller's
limits; the rest read only the root's table and are computed once.
Sigma-nilpotency, sigma-solubility and sigma-permutability of one
subgroup have no memo of their own: the first two read one fact per
block or per group, and the last, which the campaign and one-shot
queries seldom repeat, is computed on each call from the Hall data.

Every verdict and subgroup here comes from |G| and from subgroups
generated by elements on the root's table
(``_ElementTable.generated_by_orders``), and no normal lattice is built.
The table is fetched only by code that reads its rows.  At a one-block
partition R_1 is G, read off |G|, so sigma-nilpotency, PsigmaT, the
orders of the complete Hall sigma-set and the residual build no table
there; sigma-solubility of a group with at most two primes builds none at
any partition:

- sigma-nilpotency of G is read off the subgroups R_i of G generated by
  its sigma_i-elements: G is sigma-nilpotent exactly when each R_i has
  order |G|_{sigma_i}; the Lemma 2.3 and 2.4 verifiers read a quotient
  G/N in G's normal lattice instead (``harness._nilpotent_section``);
- the residual (Lemma 2.4) is the join of the O^{sigma_i}(R_i), each
  generated by the sigma_i'-elements of R_i, and its own check reads the
  quotient by it off the same R_i;
- O_{sigma_i}(D) is the join of the normal closures of the conjugacy
  classes of D that are sigma_i-groups; it serves the library, and the
  Lemma 2.5 verifier reads it in G's normal lattice
  (``harness._block_core``);
- sigma-solubility at every sigma reads one per-group fact with no chief
  series, ``structure._insoluble_primes``: the primes of the nonabelian
  chief factors, which must lie in one block of sigma.  It has no sigma
  memo, and classical solubility and pi-separability, sigma-solubility at
  the partition {pi, pi'} (``_pi_partition``), read the same fact.

The Hall data of a block whose Hall subgroup is forced (all of G, or a
normal R_i) needs no subgroup lattice, and neither does PsigmaT of a
sigma-nilpotent group: the lattice is read only when the sigma-structure
leaves the question open.  Hall coverage (Lemma 2.1) reads G's lattice
through one index of its masks by order: a subgroup E reads only the
orders dividing the part of |E| of a block, and none for a block whose
part is |E|, so at a one-block partition no mask is tested.  The conjugacy
classes of Hall subgroups, which sigma-permutability ranges over, and the
E-conjugates of Hall coverage come from the one mask walk of
``_ElementTable.conjugates``.  Sigma-permutability builds no product of
subgroups: AW == WA is read off orders on G's lattice (``_permutes``).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (_TOO_LONG, BLOCK_DIGITS, DEFAULT_LIMITS, GroupInputError, InvariantError,
                     Limits, _check_count, _check_prime)
from .numbers import part_for_primes, primes_of
from .permcore import PermGroup, Subgroup
from .structure import (Group, _ElementTable, _check_inside, _check_table_room, _class_closures,
                        _element_table, _greedy_subgroup, _insoluble_primes, _is_normal_in,
                        _lattice_by_order, _memo, all_subgroups, subgroups_of_order)

# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class SigmaPartition:
    """A partition of the primes: explicit blocks plus an implicit rest block,
    or the classical one-prime-per-block partition."""

    blocks: tuple[frozenset[int], ...] = ()
    classical: bool = False

    REST = "rest"

    def __post_init__(self):
        if self.classical and self.blocks:
            raise GroupInputError("classical partition carries no explicit blocks")
        # frozen blocks, so that the partition hashes whatever sets it was given
        blocks = tuple(map(frozenset, self.blocks))
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise GroupInputError("empty block in partition")
            for p in block:
                if _check_prime(p) in seen:
                    raise GroupInputError(f"prime {p} appears in two blocks")
                seen.add(p)
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))

    @classmethod
    def sigma1(cls) -> "SigmaPartition":
        return cls(blocks=(), classical=True)

    @classmethod
    def of_blocks(cls, *blocks) -> "SigmaPartition":
        return cls(blocks=blocks)

    def block_id(self, p: int) -> str:
        """Stable textual id of the block containing prime p."""
        _check_prime(p)
        if self.classical:
            return str(p)
        for block in self.blocks:
            if p in block:
                return ",".join(str(q) for q in sorted(block))
        return self.REST

    def text(self) -> str:
        if self.classical:
            return "sigma1"
        return "".join("[" + ",".join(map(str, sorted(b))) + "]" for b in self.blocks) or "[]"

    def __str__(self) -> str:
        return self.text()


def parse_sigma(text: str) -> SigmaPartition:
    """Parse ``sigma1`` or listed-block text like ``[2,3][5]``."""
    s = text.strip().lower()
    if s == "sigma1":
        return SigmaPartition.sigma1()
    if s == "[]":
        return SigmaPartition()
    blocks = _scan_blocks(s)
    if blocks is None:
        raise GroupInputError(f"bad partition text {text!r}")
    return SigmaPartition.of_blocks(*blocks)


def _scan_blocks(s: str) -> list[frozenset[int]] | None:
    r"""The blocks of text made of one or more ``[n, ...]`` lists of decimal
    numbers, with whitespace only around commas and nothing between lists;
    None for any other text.  This is the language of the pattern
    ``(\[\d+(?:\s*,\s*\d+)*\])+``, with ``str.isdecimal`` for ``\d`` and
    ``str.isspace`` for ``\s``, as in ``re``."""
    blocks = []
    pos = 0
    while pos < len(s) and s[pos] == "[":
        end = s.find("]", pos)
        if end < 0:
            return None
        body = s[pos + 1:end]
        if body != body.strip():
            return None
        tokens = [tok.strip() for tok in body.split(",")]
        if not all(tok.isdecimal() for tok in tokens):
            return None
        blocks.append(frozenset(map(_block_number, tokens)))
        pos = end + 1
    return blocks if blocks and pos == len(s) else None


def _block_number(token: str) -> int:
    """The value of a decimal token, read without ``int`` on more than
    ``BLOCK_DIGITS`` characters: GroupInputError when a digit before the
    last ``BLOCK_DIGITS`` is not zero."""
    if any(map(int, token[:-BLOCK_DIGITS])):
        raise GroupInputError(_TOO_LONG)
    return int(token[-BLOCK_DIGITS:])


def sigma_of_int(n: int, sigma: SigmaPartition) -> frozenset[str]:
    """Block ids met by the primes of n, read off ``_order_blocks``; n is a
    count, so anything but an int of at least 1 is a GroupInputError."""
    _check_count("n", n)
    return frozenset(bid for bid, _, _ in _order_blocks(n, sigma))


def sigma_of_group(G: Group, sigma: SigmaPartition) -> frozenset[str]:
    return sigma_of_int(G.order, sigma)


def is_sigma_primary(n: int, sigma: SigmaPartition) -> bool:
    return len(sigma_of_int(n, sigma)) <= 1


# ---------------------------------------------------------------------------
# per-block Hall data

@functools.lru_cache(maxsize=4096)
def _order_blocks(order: int, sigma: SigmaPartition) -> tuple[tuple[str, frozenset[int], int], ...]:
    """(block id, primes of the block that divide ``order``, the block's
    part of ``order``), ordered by least prime: the primes are met in
    ascending order, so each block is met first at its least prime."""
    by_id: dict[str, set[int]] = {}
    for p in sorted(primes_of(order)):
        by_id.setdefault(sigma.block_id(p), set()).add(p)
    return tuple((bid, frozenset(ps), part_for_primes(order, ps)) for bid, ps in by_id.items())


def _sigma_key(G: Group, sigma: SigmaPartition) -> tuple[frozenset[int], ...]:
    """sigma(G) as prime sets, ordered by least prime: the key of every
    memo whose result depends on the whole partition, PsigmaT, the residual
    and the Lemma 2.1 scan; a result of one block is keyed by that block's
    primes alone.  Each depends on sigma only through these sets, so
    partitions that agree on pi(G) share it, whatever their spelling and
    block ids; a memoised value carries no block id."""
    return tuple(ps for _, ps, _ in _order_blocks(G.order, sigma))


def _hall_data(G: Group, sigma: SigmaPartition, limits: Limits):
    """Per block of sigma(G), in ``_order_blocks`` order, its Hall data
    (``_hall_block``).  Nothing is memoised here: each block is its own
    memo, keyed by the block's primes, so partitions that share a block
    share its Hall data.  The table bound is checked first, so the trivial
    group, which has no block, is refused as every other group is."""
    _check_table_room(G.root.order, limits)
    return [_hall_block(G, ps, part, limits) for _, ps, part in _order_blocks(G.order, sigma)]


def _hall_block(G: Group, ps: frozenset[int], part: int, limits: Limits) -> dict:
    """The Hall data of the block with primes ``ps``, whose part of |G| is
    ``part``: its primes, its part, the masks of all Hall subgroups,
    canonically sorted, and their conjugacy classes under G, each a sorted
    tuple of masks.  It depends on G and ``ps`` alone, so it carries no
    block id and is memoised by ``ps`` and the caller's limits, since it
    may read the lattice.

    The Hall subgroup is forced, and no lattice is read, when the subgroup
    R_i generated by the block's elements (``_block_generated``, G itself
    when ``part`` is |G|) has order ``part``.  R_i is then a normal Hall
    subgroup: for any subgroup H of that order, HR_i is a subgroup whose
    order is a multiple of |R_i| and a number of the block dividing |G|,
    so HR_i = R_i and H = R_i.  So the one candidate is normal, and it is
    its own conjugacy class.  Otherwise G's lattice is filtered by order."""
    def compute():
        forced = _block_generated(G, ps, limits)
        if forced.bit_count() == part:
            candidates, classes = (forced,), ((forced,),)
        else:
            table = _element_table(G.root, limits)
            # the lattice is sorted canonically, so the candidates are too
            candidates = tuple(h.mask for h in subgroups_of_order(G, part, limits))
            classes = _conjugacy_classes(table, candidates, table.gens_of(G))
        return {"primes": ps, "part": part, "candidates": candidates, "classes": classes}
    return _memo(G, limits, compute, "hall-block", ps, limits)


def _conjugacy_classes(table: _ElementTable, masks: Sequence[int],
                       gens: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The conjugacy classes under ``gens`` of subgroups given by masks, in
    order of each class's first mask, each from one walk of
    ``_ElementTable.conjugates``.  A class is the sorted tuple of its
    members' masks, so it does not depend on the choice of ``gens``."""
    classes = []
    unassigned = set(masks)
    for mask in masks:
        if mask in unassigned:
            orbit = table.conjugates(mask, gens)
            unassigned.difference_update(orbit)
            classes.append(tuple(sorted(orbit)))
    return tuple(classes)


@dataclass(frozen=True)
class HallSigmaSet:
    """One Hall subgroup per block of sigma(G), kept as (block id, mask over
    the root's elements); empty for the trivial group.  Two sets are equal
    when they have the same root, ids and masks.  ``member_orders`` reads
    the masks alone.  ``members`` wraps each mask as a ``Subgroup`` when it
    is read, through the memoised ``structure._greedy_subgroup`` under the
    limits the set was found under, so the table is built only for a
    caller that reads the members' generators."""

    root: PermGroup
    masks: tuple[tuple[str, int], ...]
    limits: Limits = field(default=DEFAULT_LIMITS, compare=False, repr=False)

    @property
    def members(self) -> tuple[tuple[str, Subgroup], ...]:
        return tuple((bid, _greedy_subgroup(self.root, m, self.limits)) for bid, m in self.masks)

    def member_orders(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for _, m in self.masks)


def complete_hall_sigma_set(G: Group, sigma: SigmaPartition,
                            limits: Limits = DEFAULT_LIMITS) -> HallSigmaSet | None:
    """Canonical complete Hall sigma-set (least member per block), or None.
    Each member is named by the caller's block id, read off ``_order_blocks``,
    whose blocks come in the order of the Hall data's, and kept as its mask,
    the block's first candidate: no member is wrapped here, so at a
    one-block partition, whose one member is G, no table is built."""
    masks = []
    total = 1
    for (bid, _, _), block in zip(_order_blocks(G.order, sigma), _hall_data(G, sigma, limits)):
        if not block["candidates"]:
            return None
        mask = block["candidates"][0]
        masks.append((bid, mask))
        total *= mask.bit_count()
    if total != G.order:
        raise InvariantError(f"Hall sigma-set member orders multiply to {total}, not {G.order}")
    return HallSigmaSet(G.root, tuple(masks), limits)


# ---------------------------------------------------------------------------
# sigma-permutability

def is_sigma_permutable(G: Group, A: Subgroup, sigma: SigmaPartition,
                        limits: Limits = DEFAULT_LIMITS) -> bool:
    """Does some complete Hall sigma-set H of G satisfy A.H^x == H^x.A for
    every member H and every x in G?

    The choice of member only matters through its conjugacy class (the
    condition ranges over all conjugates), and blocks are independent, so the
    existential over complete Hall sigma-sets factors into one existential
    over conjugacy classes per block.  No complete Hall sigma-set means no
    subgroup is sigma-permutable.  A class of one member is a normal Hall
    subgroup, which permutes with every subgroup; these are exactly the
    forced blocks of ``_hall_block``, so the lattice is read only where the
    Hall data read it.  Other classes are tested on their masks by
    ``_permutes``.
    """
    _check_inside(G, A)
    return all(any(len(cls) == 1 or all(_permutes(G, A, w, limits) for w in cls)
                   for cls in block["classes"])
               for block in _hall_data(G, sigma, limits))


def _permutes(G: Group, A: Subgroup, w: int, limits: Limits) -> bool:
    """AW == WA for the subgroup W of G given by the mask ``w``.  The set AW
    has n = |A||W|/|A n W| elements, and AW == WA exactly when AW is a
    subgroup, that is when some subgroup of G of order n contains A and W:
    it contains AW, which has as many elements."""
    n = A.order * w.bit_count() // (A.mask & w).bit_count()
    both = A.mask | w
    return G.order % n == 0 and any(h.mask & both == both for h in subgroups_of_order(G, n, limits))


def sigma_permutable_sets(G: Group, sigma: SigmaPartition,
                          limits: Limits = DEFAULT_LIMITS) -> dict[frozenset, Subgroup]:
    """Element set -> subgroup, for every sigma-permutable subgroup of G."""
    return {h.element_images(): h for h in all_subgroups(G, limits)
            if is_sigma_permutable(G, h, sigma, limits)}


def psigma_t_violation(G: Group, sigma: SigmaPartition,
                       limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, Subgroup] | None:
    """A chain (K, H) with K sigma-permutable in H, H sigma-permutable in G,
    K not sigma-permutable in G; None when transitivity holds throughout.

    When G is sigma-nilpotent, every Hall sigma_i-subgroup of G is normal,
    so every subgroup of G is sigma-permutable in G, K sp G holds for every
    K, and no subgroup is scanned.  This covers every G whose sigma(G) has at
    most one block: such a G is sigma-primary.  Otherwise only a K outside
    sigma-perm(G) can refute transitivity, so sigma-permutability in H is
    asked of those K alone; an H all of whose subgroups are sigma-permutable
    in G gets no Hall data.  H and K are both met in all_subgroups order, so
    the first (K, H) found is the first in canonical order."""
    if is_sigma_nilpotent(G, sigma, limits):
        return None

    def compute():
        sp_g = [h for h in all_subgroups(G, limits) if is_sigma_permutable(G, h, sigma, limits)]
        in_g = {h.mask for h in sp_g}
        for h in sp_g:
            if h.order in (1, G.order):
                continue
            k = next((k for k in all_subgroups(h, limits)
                      if k.mask not in in_g and is_sigma_permutable(h, k, sigma, limits)), None)
            if k is not None:
                return k, h
        return None
    return _memo(G, limits, compute, "psigma-t", _sigma_key(G, sigma), limits)


def is_psigma_t(G: Group, sigma: SigmaPartition, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Transitivity of sigma-permutability: K sp H sp G implies K sp G.

    Vacuously true when G has no complete Hall sigma-set (nothing is
    sigma-permutable then); audit with ``complete_hall_sigma_set(...) is None``.
    """
    return psigma_t_violation(G, sigma, limits) is None


# ---------------------------------------------------------------------------
# sigma-soluble / sigma-nilpotent / residual

def is_sigma_soluble(G: Group, sigma: SigmaPartition,
                     limits: Limits = DEFAULT_LIMITS) -> bool:
    """Every chief factor is sigma-primary: one block of sigma holds P(G),
    the primes of the nonabelian chief factors of G, read from the one
    per-group memo of ``structure._insoluble_primes``, which serves every
    sigma.  No chief series or normal lattice is built."""
    return len({sigma.block_id(p) for p in _insoluble_primes(G, limits)}) <= 1


def is_sigma_nilpotent(G: Group, sigma: SigmaPartition,
                       limits: Limits = DEFAULT_LIMITS) -> bool:
    """G is the direct product of sigma-primary groups; equivalently each
    block of sigma(G) is covered by a normal Hall subgroup (then automatically
    unique, and the orders multiply to |G|).  The sigma_i-elements of G
    generate a subgroup R_i of order |G|_{sigma_i} exactly when R_i is such
    a Hall subgroup, so the verdict reads only the per-block memo of
    ``_block_generated``, keyed by the block's primes, and has no memo or
    sigma key of its own; no normal lattice is built.  The table bound is
    checked first, so the trivial group, which has no block, is refused as
    every other group is."""
    _check_table_room(G.root.order, limits)
    return all(_block_generated(G, ps, limits).bit_count() == part
               for _, ps, part in _order_blocks(G.order, sigma))


def _block_generated(G: Group, primes: frozenset[int], limits: Limits) -> int:
    """The mask of R = <x in G : the primes of |x| lie in ``primes``>, that is
    O^{primes'}(G), a normal subgroup of G, generated on the root's table;
    G itself, with no generation, when ``primes`` holds every prime of |G|.
    This is the one home of a block's R_i, for the Hall data, the
    sigma-nilpotency test and the residual.  It is one ``_memo`` read keyed
    by the prime set, which checks the table bound, and the table is
    fetched only to compute."""
    return _memo(G, limits, lambda: G.mask if primes >= primes_of(G.order) else
                 _element_table(G.root, limits).generated_by_orders(G.mask, primes.issuperset),
                 "block-generated", primes)


def sigma_nilpotent_residual(G: Group, sigma: SigmaPartition,
                             limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """Least normal subgroup D of G with sigma-nilpotent quotient: the join of
    the O^{sigma_i}(R_i) over the blocks of sigma(G), with R_i generated by
    the sigma_i-elements of G and O^{sigma_i}(R_i) by the sigma_i'-elements
    of R_i.

    For N normal in G, every sigma_i-element of G/N is the image of one of
    G (the sigma_i-part of any preimage), so R_i N/N is generated by the
    sigma_i-elements of G/N.  It contains a Sylow p-subgroup of G/N for every
    p in sigma_i, so it is the normal Hall sigma_i-subgroup of G/N exactly
    when it has order |G:N|_{sigma_i}, that is when
    |R_i| = |R_i n N| |G:N|_{sigma_i}.  So G/N is sigma-nilpotent exactly
    when each R_i N/N, isomorphic to R_i/(R_i n N), is a sigma_i-group, that
    is when O^{sigma_i}(R_i) <= N.  Each O^{sigma_i}(R_i) is characteristic
    in R_i, which is normal in G, so their join is normal and is the least
    such N.  A block whose R_i has order |G|_{sigma_i} (R_i = G when that
    part is |G|) adds nothing; on a sigma-nilpotent G every block is one,
    and D = 1.  No normal lattice is built, and the table is fetched only
    for a block that adds something, so at a one-block partition, whose
    R_1 is G, no table is built.  D is checked to be normal with a
    sigma-nilpotent quotient, by that order equation at every block over
    the R_i already read; D = 1 is normal with no table read.  Its
    generators are the greedy ones, which depend only on its set.  The
    verifiers read G/N in G's normal lattice instead
    (``harness._nilpotent_section``)."""
    def compute():
        blocks = [(ps, part, _block_generated(G, ps, limits))
                  for _, ps, part in _order_blocks(G.order, sigma)]
        table, union = None, 1
        for ps, part, r in blocks:
            if r.bit_count() != part:
                table = _element_table(G.root, limits)
                union |= table.generated_by_orders(r, ps.isdisjoint)
        if table is not None:
            union = table.generate(table.members(union))[0]
        D = _greedy_subgroup(G, union, limits)
        index = G.order // D.order
        if not ((D.mask == 1 or _is_normal_in(table, G, D)) and all(
                r.bit_count() == (r & D.mask).bit_count() * part_for_primes(index, ps)
                for ps, _, r in blocks)):
            raise InvariantError("residual: not normal, or the quotient is not sigma-nilpotent")
        return D
    return _memo(G, limits, compute, "sigma-residual", _sigma_key(G, sigma))


# ---------------------------------------------------------------------------
# Hall coverage (sigma-full of Sylow type), separability, odds and ends

def sigma_full_sylow_type_violation(G: Group, sigma: SigmaPartition,
                                    limits: Limits = DEFAULT_LIMITS) -> dict | None:
    """First subgroup E and block failing the Hall coverage property: E must
    own a Hall sigma_i-subgroup whose conjugates absorb every sigma_i-subgroup
    of E.  None when every subgroup passes every block.

    A block whose sigma_i-part is |E| has E as its only Hall subgroup, which
    contains every subgroup of E, so it reads no mask.  For any other block,
    E's subgroups of order d are the entries of G's lattice of order d
    inside E, read off G's by-order index (``_lattice_by_order``): E's Hall
    sigma_i-subgroups are those of order the sigma_i-part of |E|, and its
    sigma_i-subgroups those whose order divides that part.  The index keeps
    lattice order, so orders come ascending and the entries of one order in
    canonical order (the sort key is the order, then the element list): the
    scan meets E's subgroups in the order of E's own lattice.  Only the
    conjugates of the least Hall subgroup are needed.  E's own lattice is
    the down-set of G's (see ``all_subgroups``), so an uncovered subgroup is
    reported with the generators of its entry in G's.

    The scan is memoised by ``_sigma_key`` and the caller's limits (it reads
    the lattice), so it records the block's primes, and the block is
    reported by the caller's id of its least prime."""
    def compute():
        table = _element_table(G.root, limits)
        by_order = _lattice_by_order(G, limits)
        for e_sub in all_subgroups(G, limits):
            e = e_sub.mask
            for _, ps, part in _order_blocks(e_sub.order, sigma):
                if part == e_sub.order:
                    continue
                hall = next((k.mask for k in by_order.get(part, ()) if k.mask & e == k.mask), None)
                if hall is None:
                    return {"subgroup": e_sub.generators, "block": ps, "missing_hall": True}
                conjugates = table.conjugates(hall, table.gens_of(e_sub))
                for d, subs in by_order.items():
                    if part % d:
                        continue
                    for k in subs:
                        if k.mask & e == k.mask and not any(c & k.mask == k.mask
                                                            for c in conjugates):
                            return {"subgroup": e_sub.generators, "block": ps,
                                    "uncovered": k.generators}
        return None
    violation = _memo(G, limits, compute, "sylow-type", _sigma_key(G, sigma), limits)
    return violation and {**violation, "block": sigma.block_id(min(violation["block"]))}


def _pi_partition(order: int, pi) -> SigmaPartition:
    """The partition {pi, pi'} on a group of this order: pi n pi(G) as one
    listed block, and pi' in the rest block; no block when pi n pi(G) is
    empty.  Its sigma-solubility, pi-separability, reads the one per-group
    fact P(G) as every partition does, so nothing is computed per pi; this
    function stays as the one label of a pi-scope row, whatever its
    verdict."""
    pi_in = frozenset(pi) & primes_of(order)
    return SigmaPartition.of_blocks(pi_in) if pi_in else SigmaPartition()


def is_pi_separable(G: Group, pi, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Every chief factor is a pi-group or a pi'-group: sigma-solubility at
    ``_pi_partition``, so the answer is read off P(G), the one per-group
    fact of ``structure._insoluble_primes``.  Every prime of pi is
    checked, also one that does not divide |G|."""
    pi = frozenset(map(_check_prime, pi))
    return is_sigma_soluble(G, _pi_partition(G.order, pi), limits)


def largest_normal_block_subgroup(D: Subgroup, block_primes,
                                  limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """O_{sigma_i}(D): the largest normal subgroup of D supported on the block.

    A normal subgroup of D holds the conjugacy class of each of its
    elements, so it is the join of the class closures (the subgroups
    generated by one class of D) inside it.  O_{sigma_i}(D) is therefore
    the join of the class closures of D that are sigma_i-groups, and a join
    of normal sigma_i-subgroups is one (checked).  No normal lattice is
    built; the class closures are computed once per D and limits."""
    block_primes = frozenset(map(_check_prime, block_primes))
    table = _element_table(D.root, limits)
    closures = _memo(D, limits, lambda: _class_closures(table, D.mask, table.gens_of(D)),
                     "class-closures")
    join = table.generate(x for c in closures if primes_of(c.bit_count()) <= block_primes
                          for x in table.members(c))[0]
    if not primes_of(join.bit_count()) <= block_primes:
        raise InvariantError("the normal block subgroups join outside the block")
    return _greedy_subgroup(D, join, limits)


def induces_power_automorphisms(G: Group, D: Subgroup,
                                limits: Limits = DEFAULT_LIMITS) -> bool:
    """Does conjugation by every element of G map each d in D to a power of d?
    The elements acting as power automorphisms form a subgroup, so checking
    the generators of G suffices."""
    table = _element_table(G.root, limits)
    if not _is_normal_in(table, G, D):
        raise GroupInputError("power-automorphism check requires a normal subgroup")
    rows = table.rows
    for conj in table.conjugations(table.gens_of(G)):
        for d in table.members(D.mask):
            power = d  # walk d, d^2, ... up to the identity, index 0
            while power not in (conj[d], 0):
                power = rows[power][d]
            if power != conj[d]:
                return False
    return True
