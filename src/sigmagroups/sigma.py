"""Prime-partition (sigma) machinery and the subgroup classes built on it.

A partition splits the primes into blocks.  Two spellings exist:

- listed: finitely many explicit blocks, e.g. ``[2,3][5]``; primes not listed
  fall into one implicit "rest" block
- classical: ``sigma1``, every prime alone in its own block

All class predicates take the ambient group together with a partition and
answer deterministically, and take a ``Subgroup`` wherever they take a
group; expensive intermediates (per-block Hall subgroup classes,
permutability verdicts) are memoised on the root group per subgroup mask,
keyed by the partition text.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError, Limits
from .numbers import is_prime, part_for_primes, primes_of
from .permcore import Subgroup
from .structure import (Group, _ElementTable, _check_inside, _element_table, _greedy_subgroup,
                        _memo, _wrap, all_subgroups, chief_series, is_normal, normal_subgroups,
                        quotient_group)

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
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise GroupInputError("empty block in partition")
            for p in block:
                if not is_prime(p):
                    raise GroupInputError(f"{p} is not a prime")
                if p in seen:
                    raise GroupInputError(f"prime {p} appears in two blocks")
                seen.add(p)
        ordered = tuple(sorted(self.blocks, key=min))
        object.__setattr__(self, "blocks", ordered)

    @classmethod
    def sigma1(cls) -> "SigmaPartition":
        return cls(blocks=(), classical=True)

    @classmethod
    def of_blocks(cls, *blocks) -> "SigmaPartition":
        return cls(blocks=tuple(frozenset(b) for b in blocks))

    def block_id(self, p: int) -> str:
        """Stable textual id of the block containing prime p."""
        if not is_prime(p):
            raise GroupInputError(f"{p} is not a prime")
        if self.classical:
            return str(p)
        for block in self.blocks:
            if p in block:
                return ",".join(str(q) for q in sorted(block))
        return self.REST
    def block_primes(self, p: int) -> frozenset[int] | None:
        """The full prime set of p's block; None for the (infinite) rest block."""
        if self.classical:
            return frozenset({p})
        for block in self.blocks:
            if p in block:
                return block
        return None

    def same_block(self, p: int, q: int) -> bool:
        return self.block_id(p) == self.block_id(q)

    def text(self) -> str:
        if self.classical:
            return "sigma1"
        if not self.blocks:
            return "[]"
        return "".join("[" + ",".join(str(p) for p in sorted(b)) + "]" for b in self.blocks)

    def __str__(self) -> str:
        return self.text()


def parse_sigma(text: str) -> SigmaPartition:
    """Parse ``sigma1`` or listed-block text like ``[2,3][5]``."""
    s = text.strip().lower()
    if s == "sigma1":
        return SigmaPartition.sigma1()
    if s == "[]":
        return SigmaPartition()
    if not re.fullmatch(r"(\[\d+(?:\s*,\s*\d+)*\])+", s):
        raise GroupInputError(f"bad partition text {text!r}")
    blocks = []
    for body in re.findall(r"\[([^\]]*)\]", s):
        blocks.append(frozenset(int(tok) for tok in re.split(r"\s*,\s*", body)))
    return SigmaPartition.of_blocks(*blocks)


def sigma_of_int(n: int, sigma: SigmaPartition) -> frozenset[str]:
    """Block ids met by the primes of n."""
    return frozenset(sigma.block_id(p) for p in primes_of(n))


def sigma_of_group(G: Group, sigma: SigmaPartition) -> frozenset[str]:
    return sigma_of_int(G.order, sigma)


def is_sigma_primary(n: int, sigma: SigmaPartition) -> bool:
    return len(sigma_of_int(n, sigma)) <= 1


# ---------------------------------------------------------------------------
# per-block Hall data

def _group_blocks(G: Group, sigma: SigmaPartition) -> list[tuple[str, frozenset[int], int]]:
    """(block id, primes of the block inside pi(G), sigma_i-part of |G|),
    ordered by least prime."""
    by_id: dict[str, set[int]] = {}
    for p in sorted(primes_of(G.order)):
        by_id.setdefault(sigma.block_id(p), set()).add(p)
    out = [(bid, frozenset(ps), part_for_primes(G.order, ps)) for bid, ps in by_id.items()]
    out.sort(key=lambda t: min(t[1]))
    return out


def _hall_data(G: Group, sigma: SigmaPartition, limits: Limits):
    """Per block: the masks of all Hall subgroups, canonically sorted, and
    their conjugacy classes under G as index sets of the root's table."""
    def compute():
        table = _element_table(G.root, limits)
        gens = table.gens_of(G)
        blocks = []
        for bid, ps, part in _group_blocks(G, sigma):
            # all_subgroups is sorted canonically, so the candidates are too
            candidates = tuple(h.mask for h in all_subgroups(G, limits) if h.order == part)
            cand_members = [frozenset(table.members(mask)) for mask in candidates]
            classes: list[tuple[frozenset[int], ...]] = []
            unassigned = set(cand_members)
            for members in cand_members:
                if members in unassigned:
                    orbit = table.conjugates(members, gens)
                    unassigned.difference_update(orbit)
                    classes.append(tuple(orbit))
            blocks.append({"id": bid, "primes": ps, "part": part,
                           "candidates": candidates, "classes": tuple(classes)})
        return blocks
    return _memo(G, compute, "hall-data", sigma.text(), limits)


@dataclass(frozen=True)
class HallSigmaSet:
    """One Hall subgroup per block of sigma(G); empty for the trivial group."""

    members: tuple[tuple[str, Subgroup], ...]

    def member_orders(self) -> tuple[int, ...]:
        return tuple(h.order for _, h in self.members)


def complete_hall_sigma_set(G: Group, sigma: SigmaPartition,
                            limits: Limits = DEFAULT_LIMITS) -> HallSigmaSet | None:
    """Canonical complete Hall sigma-set (least member per block), or None."""
    members = []
    total = 1
    for block in _hall_data(G, sigma, limits):
        if not block["candidates"]:
            return None
        sub = _greedy_subgroup(G, block["candidates"][0], limits)
        members.append((block["id"], sub))
        total *= sub.order
    if total != G.order:
        raise InvariantError(f"Hall sigma-set member orders multiply to {total}, not {G.order}")
    return HallSigmaSet(members=tuple(members))


def has_complete_hall_sigma_set(G: Group, sigma: SigmaPartition,
                                limits: Limits = DEFAULT_LIMITS) -> bool:
    return complete_hall_sigma_set(G, sigma, limits) is not None


def enumerate_complete_hall_sigma_sets(G: Group, sigma: SigmaPartition,
                                       limits: Limits = DEFAULT_LIMITS) -> tuple[HallSigmaSet, ...]:
    """Every complete Hall sigma-set, as the cartesian product over blocks."""
    blocks = _hall_data(G, sigma, limits)
    count = 1
    for block in blocks:
        count *= len(block["candidates"])
    if count > limits.hall_set_cap:
        raise CapacityError(
            f"{count} complete Hall sigma-sets exceed the Hall-set cap {limits.hall_set_cap}")
    if any(not block["candidates"] for block in blocks):
        return ()
    out = []
    for combo in itertools.product(*(block["candidates"] for block in blocks)):
        members = tuple(
            (block["id"], _greedy_subgroup(G, mask, limits))
            for block, mask in zip(blocks, combo))
        out.append(HallSigmaSet(members=members))
    return tuple(out)


# ---------------------------------------------------------------------------
# sigma-permutability

def _product_sets_equal(table: _ElementTable, a: Iterable[int], b: frozenset[int]) -> bool:
    """AB == BA for subgroups given by indices on the root's table.

    AB is built as a union of left cosets xB, skipping every x already in it
    (then xB is already there).  Since (AB)^-1 = BA, AB == BA exactly when AB
    is closed under inverses."""
    rows = table.rows
    ab: set[int] = set()
    for x in a:
        if x not in ab:
            ab.update(map(rows[x].__getitem__, b))
    return ab.issuperset(map(table.inverse.__getitem__, ab))


def is_sigma_permutable(G: Group, A: Subgroup, sigma: SigmaPartition,
                        limits: Limits = DEFAULT_LIMITS) -> bool:
    """Does some complete Hall sigma-set H of G satisfy A.H^x == H^x.A for
    every member H and every x in G?

    The choice of member only matters through its conjugacy class (the
    condition ranges over all conjugates), and blocks are independent, so the
    existential over complete Hall sigma-sets factors into one existential
    over conjugacy classes per block.  No complete Hall sigma-set means no
    subgroup is sigma-permutable.
    """
    _check_inside(G, A)

    def compute():
        blocks = _hall_data(G, sigma, limits)
        table = _element_table(G.root, limits)
        a = table.members(A.mask)
        return all(
            any(all(_product_sets_equal(table, a, w) for w in cls) for cls in block["classes"])
            for block in blocks)
    return _memo(G, compute, "sigma-perm", sigma.text(), A.mask, limits)


def _sigma_permutable(G: Group, sigma: SigmaPartition, limits: Limits) -> list[Subgroup]:
    return [h for h in all_subgroups(G, limits) if is_sigma_permutable(G, h, sigma, limits)]


def sigma_permutable_sets(G: Group, sigma: SigmaPartition,
                          limits: Limits = DEFAULT_LIMITS) -> dict[frozenset, Subgroup]:
    """Element set -> subgroup, for every sigma-permutable subgroup of G."""
    return {h.element_images(): h for h in _sigma_permutable(G, sigma, limits)}


def psigma_t_violation(G: Group, sigma: SigmaPartition,
                       limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, Subgroup] | None:
    """A chain (K, H) with K sigma-permutable in H, H sigma-permutable in G,
    K not sigma-permutable in G; None when transitivity holds throughout.

    When sigma(G) has at most one block, {H} is the only complete Hall
    sigma-set of each subgroup H of G, so every subgroup is sigma-permutable
    in every subgroup containing it and no subgroup is scanned."""
    if len(sigma_of_group(G, sigma)) <= 1:
        return None

    def compute():
        # both lists follow all_subgroups, so they are in canonical order
        sp_g = _sigma_permutable(G, sigma, limits)
        in_g = {h.mask for h in sp_g}
        for h in sp_g:
            if h.order in (1, G.order):
                continue
            k = next((k for k in _sigma_permutable(h, sigma, limits) if k.mask not in in_g), None)
            if k is not None:
                return (k.mask, k.generators), (h.mask, h.generators)
        return None
    result = _memo(G, compute, "psigma-t", sigma.text(), limits)
    return None if result is None else _wrap(G, result)


def is_psigma_t(G: Group, sigma: SigmaPartition, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Transitivity of sigma-permutability: K sp H sp G implies K sp G.

    Vacuously true when G has no complete Hall sigma-set (nothing is
    sigma-permutable then); pair with has_complete_hall_sigma_set to audit.
    """
    return psigma_t_violation(G, sigma, limits) is None


# ---------------------------------------------------------------------------
# sigma-soluble / sigma-nilpotent / residual

def is_sigma_soluble(G: Group, sigma: SigmaPartition,
                     limits: Limits = DEFAULT_LIMITS) -> bool:
    """Every chief factor is sigma-primary.  Chief factor orders do not depend
    on the chosen series, so one greedy series decides."""
    return _memo(G, lambda: all(is_sigma_primary(f.order, sigma)
                                for f in chief_series(G, limits)),
                 "sigma-soluble", sigma.text(), limits)


def is_sigma_nilpotent(G: Group, sigma: SigmaPartition,
                       limits: Limits = DEFAULT_LIMITS) -> bool:
    """G is the direct product of sigma-primary groups; equivalently each
    block of sigma(G) is covered by a normal Hall subgroup (then automatically
    unique, and the orders multiply to |G|)."""
    def compute():
        normal_orders = {n.order for n in normal_subgroups(G, limits)}
        return all(part in normal_orders for _, _, part in _group_blocks(G, sigma))
    return _memo(G, compute, "sigma-nilpotent", sigma.text(), limits)


def _quotient_is_sigma_nilpotent(G: Group, n_sub: Subgroup, sigma: SigmaPartition,
                                 limits: Limits) -> bool:
    if n_sub.order == G.order:
        return True
    if n_sub.order == 1:
        return is_sigma_nilpotent(G, sigma, limits)
    q = quotient_group(G, n_sub, limits)
    return is_sigma_nilpotent(q.group, sigma, limits)


def sigma_nilpotent_residual(G: Group, sigma: SigmaPartition,
                             limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """Least normal subgroup with sigma-nilpotent quotient.  The minimal-order
    witness and the intersection of all witnesses must agree (checked)."""
    def compute():
        witnesses = [n for n in normal_subgroups(G, limits)
                     if _quotient_is_sigma_nilpotent(G, n, sigma, limits)]
        # normal_subgroups is sorted by (order, element list): the first is least
        least = witnesses[0]
        meet = G.mask
        for n in witnesses:
            meet &= n.mask
        if meet != least.mask:
            raise InvariantError(
                "residual: minimal witness differs from intersection of witnesses")
        return least.mask, least.generators
    return _wrap(G, [_memo(G, compute, "sigma-residual", sigma.text(), limits)])[0]


# ---------------------------------------------------------------------------
# Hall coverage (sigma-full of Sylow type), separability, odds and ends

def sigma_full_sylow_type_violation(G: Group, sigma: SigmaPartition,
                                    limits: Limits = DEFAULT_LIMITS) -> dict | None:
    """First subgroup E and block failing the Hall coverage property: E must
    own a Hall sigma_i-subgroup whose conjugates absorb every sigma_i-subgroup
    of E.  None when every subgroup passes every block.

    One walk over G's lattice: E's subgroups are the masks of G's lattice
    inside E's, already in canonical order since the sort key depends only on
    the mask, and E's Hall sigma_i-subgroups are those of order the sigma_i-part
    of |E|.  Only the conjugates of the least one are needed.  E's own lattice
    is computed only to report the generators of an uncovered subgroup."""
    def compute():
        table = _element_table(G.root, limits)
        subs = all_subgroups(G, limits)
        masks = [h.mask for h in subs]
        for e_sub in subs:
            down = [k for k in masks if k & e_sub.mask == k]
            for bid, ps, part in _group_blocks(e_sub, sigma):
                halls = [k for k in down if k.bit_count() == part]
                if not halls:
                    return {"subgroup": e_sub.generators, "block": bid, "missing_hall": True}
                conjugates = [table.mask_of(c) for c in table.conjugates(
                    frozenset(table.members(halls[0])), table.gens_of(e_sub))]
                for k in down:
                    if primes_of(k.bit_count()) <= ps and not any(c & k == k for c in conjugates):
                        uncovered = next(h for h in all_subgroups(e_sub, limits) if h.mask == k)
                        return {"subgroup": e_sub.generators, "block": bid,
                                "uncovered": uncovered.generators}
        return None
    return _memo(G, compute, "sigma-full", sigma.text(), limits)


def is_sigma_full_sylow_type(G: Group, sigma: SigmaPartition,
                             limits: Limits = DEFAULT_LIMITS) -> bool:
    return sigma_full_sylow_type_violation(G, sigma, limits) is None


def is_pi_separable(G: Group, pi, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Every chief factor is a pi-group or a pi'-group."""
    pi = frozenset(pi)
    return all(
        f.prime_support <= pi or not (f.prime_support & pi)
        for f in chief_series(G, limits))


def largest_normal_block_subgroup(D: Subgroup, block_primes,
                                  limits: Limits = DEFAULT_LIMITS) -> Subgroup:
    """O_{sigma_i}(D): the largest normal subgroup of D supported on the block."""
    block_primes = frozenset(block_primes)
    cands = [n for n in normal_subgroups(D, limits) if primes_of(n.order) <= block_primes]
    best = max(cands, key=lambda n: n.order)
    if any(n.mask & best.mask != n.mask for n in cands):
        raise InvariantError("normal block subgroups must join into the largest one")
    return _greedy_subgroup(D.ambient, best.mask, limits)


def induces_power_automorphisms(G: Group, D: Subgroup,
                                limits: Limits = DEFAULT_LIMITS) -> bool:
    """Does conjugation by every element of G map each d in D to a power of d?
    The elements acting as power automorphisms form a subgroup, so checking
    the generators of G suffices."""
    if not is_normal(G, D):
        raise GroupInputError("power-automorphism check requires a normal subgroup")
    table = _element_table(G.root, limits)
    rows = table.rows
    for conj in table.conjugations(table.gens_of(G)):
        for d in table.members(D.mask):
            power = d  # walk d, d^2, ... up to the identity, index 0
            while power not in (conj[d], 0):
                power = rows[power][d]
            if power != conj[d]:
                return False
    return True
