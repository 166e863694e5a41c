"""Statement-level verifiers and the verification campaign.

Each verifier confronts one statement with exhaustive computation on a
(group, partition) pair and returns a structured outcome:

- ``confirmed``    the statement held (``vacuous`` marks runs whose
                   interesting direction never fired, e.g. the group was
                   already inside the class being covered)
- ``counterexample``  the statement failed; the witness carries everything
                   needed to re-check the failure independently
- ``skipped``      a capacity bound was hit, or a statement premise was not
                   satisfied (``vacuous`` distinguishes the premise case)
- ``error``        the verifier raised another exception; the reason names
                   its type and message, and the campaign goes on

The covering-system statements are verified through their contrapositive:
"every maximal subgroup V of every Sylow subgroup has a supplement in the
class implies G is in the class" is equivalent to "G outside the class
implies some V exists all of whose supplements lie outside the class" —
and the latter has a finite, recheckable witness (that V).  The forward
direction is immediate since T = G supplements every V.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import chain, combinations, repeat
from typing import Iterator, NamedTuple

from .corpus import CorpusEntry, RefusedEntry, partitions_of_primes
from .errors import (CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError, Limits,
                     _check_count, _check_prime)
from .numbers import part_for_primes, primes_of
from .permcore import Perm, PermGroup, Subgroup, clear_intern_cache, compose_images
from .sigma import (SigmaPartition, _order_blocks, _pi_partition, induces_power_automorphisms,
                    is_pi_separable, is_psigma_t, is_sigma_nilpotent, is_sigma_soluble,
                    sigma_nilpotent_residual, sigma_full_sylow_type_violation)
from .structure import (all_subgroups, frattini_subgroup, hall_subgroup, normal_subgroups,
                        subgroups_of_order, supplements)

_THMA_CLASS = {"ThmA.i": "sigma-soluble", "ThmA.ii": "sigma-nilpotent",
               "ThmA.iii": "sigma-soluble-psigma-t"}


class Statement(NamedTuple):
    """How a statement id runs (see ``run_statements``).  The verifier is
    named, not held: it is looked up in this module at call time, so a
    wrapper bound onto the module attribute sees every call."""
    scope: str
    verifier: str
    extra: tuple = ()


REGISTRY = {
    **{sid: Statement("sigma", "verify_theorem_A", (cls,)) for sid, cls in _THMA_CLASS.items()},
    "Cor1.1": Statement("sigma", "verify_cor_1_1"),
    "Cor1.2": Statement("classical", "verify_cor_1_2"),
    "Lem2.1": Statement("sigma", "verify_lemma_2_1"),
    "Lem2.2": Statement("pi", "verify_lemma_2_2"),
    "Lem2.3": Statement("sigma", "verify_lemma_2_3"),
    "Lem2.4": Statement("sigma", "verify_lemma_2_4"),
    "Lem2.5.fwd": Statement("sigma", "verify_lemma_2_5_forward"),
    "Lem2.5.conv": Statement("sigma", "verify_lemma_2_5_converse_search"),
}

STATEMENTS = tuple(REGISTRY)


def class_member(cls: str, G: PermGroup, sigma: SigmaPartition,
                 limits: Limits = DEFAULT_LIMITS) -> bool:
    if cls == "sigma-soluble":
        return is_sigma_soluble(G, sigma, limits)
    if cls == "sigma-nilpotent":
        return is_sigma_nilpotent(G, sigma, limits)
    if cls == "sigma-soluble-psigma-t":
        return is_sigma_soluble(G, sigma, limits) and is_psigma_t(G, sigma, limits)
    raise GroupInputError(f"unknown class selector {cls!r}")


@dataclass(frozen=True)
class VerificationOutcome:
    statement_id: str
    group_name: str
    sigma: SigmaPartition
    verdict: str                      # confirmed | counterexample | skipped | error
    vacuous: bool = False
    witness: dict | None = None
    reason: str | None = None
    millis: int = 0

    def to_json(self) -> dict:
        return {
            "statement_id": self.statement_id,
            "group": self.group_name,
            "sigma": self.sigma.text(),
            "verdict": self.verdict,
            "vacuous": self.vacuous,
            "witness": self.witness,
            "reason": self.reason,
            "millis": self.millis,
        }


def _sub_json(h: Subgroup) -> dict:
    return {"order": h.order, "generators": [str(g) for g in h.generators]}


# ---------------------------------------------------------------------------
# covering-system statements (Theorem A, Corollaries 1.1/1.2)

def _sylow_maximal_candidates(G: PermGroup, limits: Limits) -> tuple[Subgroup, ...]:
    """The maximal subgroups of every Sylow subgroup of G, canonically
    sorted.  A maximal subgroup of a p-group has index p, and every
    p-subgroup lies in a Sylow subgroup, so these are exactly the
    p-subgroups of G of order |G|_p/p: G's own lattice entries, with their
    generators, read off G's by-order index in ascending order."""
    orders = sorted({part_for_primes(G.order, {p}) // p for p in primes_of(G.order)})
    return tuple(chain.from_iterable(subgroups_of_order(G, n, limits) for n in orders))


def _covering_outcome(sid: str, G: PermGroup, sigma: SigmaPartition, cls: str,
                      group_name: str, limits: Limits, in_class: dict,
                      found: dict) -> VerificationOutcome:
    """The contrapositive scan shared by Theorem A and its corollaries.

    G in cls confirms vacuously (witness ``in_class``).  Otherwise search for a
    maximal-Sylow V all of whose supplements lie outside cls: finding one
    confirms (witness V plus ``found``); when every V has an in-class
    supplement the refutation lists one such supplement per V."""
    if class_member(cls, G, sigma, limits):
        return VerificationOutcome(sid, group_name, sigma, "confirmed", vacuous=True,
                                   witness=in_class)
    refutation = []
    for V in _sylow_maximal_candidates(G, limits):
        in_class_t = next((T for T in supplements(G, V, limits)
                           if class_member(cls, T, sigma, limits)), None)
        if in_class_t is None:
            return VerificationOutcome(
                sid, group_name, sigma, "confirmed", vacuous=False,
                witness={"V": _sub_json(V), "supplements_all_outside_class": True,
                         **found})
        refutation.append({"V": _sub_json(V), "in_class_supplement": _sub_json(in_class_t)})
    return VerificationOutcome(
        sid, group_name, sigma, "counterexample", vacuous=False,
        witness={"class": cls, "every_V_has_in_class_supplement": refutation})


def verify_theorem_A(G: PermGroup, sigma: SigmaPartition, cls: str, group_name: str = "",
                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """One class instance of the covering-system statement, contrapositively."""
    sid = {v: k for k, v in _THMA_CLASS.items()}[cls]
    return _covering_outcome(
        sid, G, sigma, cls, group_name, limits,
        in_class={"note": "G lies in the class; T = G supplements every V"},
        found={"class": cls})


def validate_covering_witness(G: PermGroup, sigma: SigmaPartition, cls: str,
                              witness: dict, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Re-derive a contrapositive witness from scratch: rebuild V from its
    stored generators, re-enumerate its supplements, re-test every class
    membership.  Guards against fabricated witnesses."""
    vgens = [Perm.parse(t, G.degree) for t in witness["V"]["generators"]]
    V = Subgroup(G, vgens)
    if V.order != witness["V"]["order"]:
        return False
    if V not in _sylow_maximal_candidates(G, limits):
        return False
    return all(not class_member(cls, T, sigma, limits)
               for T in supplements(G, V, limits))


def _verify_biconditional(sid: str, G: PermGroup, sigma: SigmaPartition,
                          group_name: str, limits: Limits) -> VerificationOutcome:
    """Corollaries 1.1/1.2: membership in the sigma-soluble PsigmaT class is
    equivalent to every maximal-Sylow V owning an in-class supplement.  The
    only-if direction is witnessed by T = G itself; the if direction is the
    contrapositive scan."""
    return _covering_outcome(
        sid, G, sigma, "sigma-soluble-psigma-t", group_name, limits,
        in_class={"only_if": "G is in the class and supplements every V itself",
                  "if": "vacuous (premise of contrapositive is false)"},
        found={"only_if": "vacuous (G outside the class)"})


def verify_cor_1_1(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                   limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    return _verify_biconditional("Cor1.1", G, sigma, group_name, limits)


def verify_cor_1_2(G: PermGroup, group_name: str = "",
                   limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """The classical reading of Cor 1.1: soluble PST-groups at sigma^1."""
    return _verify_biconditional("Cor1.2", G, SigmaPartition.sigma1(), group_name, limits)


# ---------------------------------------------------------------------------
# Lemma 2.1: sigma-soluble implies sigma-full of Sylow type

def verify_lemma_2_1(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    if not is_sigma_soluble(G, sigma, limits):
        return VerificationOutcome(
            "Lem2.1", group_name, sigma, "skipped", vacuous=True,
            reason="premise not satisfied: G is not sigma-soluble")
    violation = sigma_full_sylow_type_violation(G, sigma, limits)
    if violation is None:
        return VerificationOutcome(
            "Lem2.1", group_name, sigma, "confirmed",
            witness={"subgroups_scanned": len(all_subgroups(G, limits))})
    return VerificationOutcome(
        "Lem2.1", group_name, sigma, "counterexample",
        witness={"violation": {k: ([str(g) for g in v] if k in ("subgroup", "uncovered")
                                   else v) for k, v in violation.items()},
                 "note": "implementation bug candidate: statement is proved"})


# ---------------------------------------------------------------------------
# Lemma 2.2: pi-separability vs Hall-subgroup existence

def verify_lemma_2_2(G: PermGroup, pi, group_name: str = "",
                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    pi = frozenset(map(_check_prime, pi))
    pig = primes_of(G.order)
    # primes outside pi(G) change no Hall order, so quantifiers restrict to pi(G)
    pi_in = pi & pig
    pi_out = pig - pi
    sigma_label = _pi_partition(G.order, pi)
    separable = is_pi_separable(G, pi, limits)
    halls: dict[str, bool] = {}

    def have(primes) -> bool:
        key = ",".join(str(p) for p in sorted(primes)) or "-"
        if key not in halls:
            halls[key] = hall_subgroup(G, primes, limits) is not None
        return halls[key]

    # one short-circuit pass: the witness lists only the prime sets asked before the first miss
    conditions = all(map(have, chain((pi_in, pi_out), (pi_in | {p} for p in sorted(pi_out)),
                                     (pi_out | {q} for q in sorted(pi_in)))))
    vacuous = pi_in == pig or not pi_in
    if separable == conditions:
        return VerificationOutcome(
            "Lem2.2", group_name, sigma_label, "confirmed", vacuous=vacuous,
            witness={"pi": sorted(pi_in), "pi_separable": separable,
                     "hall_existence": halls})
    return VerificationOutcome(
        "Lem2.2", group_name, sigma_label, "counterexample",
        witness={"pi": sorted(pi_in), "pi_separable": separable,
                 "hall_existence": halls,
                 "note": "implementation bug candidate: statement is proved"})


# ---------------------------------------------------------------------------
# Lemma 2.3: closure properties of the sigma-nilpotent class

def _normal_product(normals: tuple[Subgroup, ...], A: Subgroup, B: Subgroup) -> Subgroup:
    """AB for normal subgroups A and B of G, whose sorted normal lattice is
    ``normals``.  AB is normal and lies in every normal subgroup over A and
    B, so it is the first of those; its order is checked against
    |A||B|/|A n B|."""
    both = A.mask | B.mask
    P = next(n for n in normals if n.mask & both == both)
    if P.order * (A.mask & B.mask).bit_count() != A.order * B.order:
        raise InvariantError(f"the least normal subgroup over normal subgroups of "
                             f"orders {A.order} and {B.order} has order {P.order}")
    return P


def _nilpotent_section(G: PermGroup, normals: tuple[Subgroup, ...], top: int, bottom: int,
                       sigma: SigmaPartition) -> bool:
    """Is E/K sigma-nilpotent, for normal subgroups K <= E of G given by the
    masks ``bottom`` and ``top``, and G's sorted normal lattice ``normals``?

    It is exactly when each block sigma_i of sigma(G) has a normal L of G
    with K <= L <= E and |L| = |K| |E:K|_{sigma_i}: L/K is then a normal
    Hall sigma_i-subgroup of E/K, and the normal Hall sigma_i-subgroup of a
    sigma-nilpotent E/K, characteristic in E/K, which is normal in G/K, is
    such an L/K (correspondence theorem).  No quotient group is built.
    It is the engine's one read of a quotient's sigma-nilpotency that
    builds no quotient group: ``sigma`` decides sigma-nilpotency of G
    alone, and the residual checks its own quotient off the R_i it reads.  The tests hold this read equal to a reference
    read of the same lattice, to the verdict on the quotient group and to
    the oracle's coset table."""
    k, index = bottom.bit_count(), top.bit_count() // bottom.bit_count()
    between = {L.order for L in normals if L.mask & bottom == bottom and L.mask & top == L.mask}
    return all(k * part_for_primes(index, ps) in between
               for _, ps, _ in _order_blocks(G.order, sigma))


def verify_lemma_2_3(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """Normal products, quotients, subgroups, and the Frattini condition."""
    failures: list[dict] = []
    nontrivial_instances = 0

    normals = normal_subgroups(G, limits)
    nilpotent_normals = [n for n in normals
                         if is_sigma_nilpotent(n, sigma, limits)]
    # a pair N1 = N2 has product N1, so it can neither fail nor count
    for i, n1 in enumerate(nilpotent_normals):
        for n2 in nilpotent_normals[i + 1:]:
            P = _normal_product(normals, n1, n2)
            if P.order > 1 and P.order not in (n1.order, n2.order):
                nontrivial_instances += 1
            if not is_sigma_nilpotent(P, sigma, limits):
                failures.append({"part": "normal-product",
                                 "N1": _sub_json(n1), "N2": _sub_json(n2)})

    if is_sigma_nilpotent(G, sigma, limits):
        for n in normals:
            if 1 < n.order:
                nontrivial_instances += 1
            if not _nilpotent_section(G, normals, G.mask, n.mask, sigma):
                failures.append({"part": "quotient", "N": _sub_json(n)})
        for h in all_subgroups(G, limits):
            if 1 < h.order < G.order:
                nontrivial_instances += 1
            if not is_sigma_nilpotent(h, sigma, limits):
                failures.append({"part": "subgroup", "H": _sub_json(h)})

    phi = frattini_subgroup(G, limits)
    for e in normals:
        # E n Phi(G) is normal in G, as E and Phi(G) are
        if _nilpotent_section(G, normals, e.mask, e.mask & phi.mask, sigma):
            if e.order > 1:
                nontrivial_instances += 1
            if not is_sigma_nilpotent(e, sigma, limits):
                failures.append({"part": "frattini", "E": _sub_json(e),
                                 "phi_order": phi.order})

    if failures:
        return VerificationOutcome(
            "Lem2.3", group_name, sigma, "counterexample",
            witness={"failures": failures,
                     "note": "implementation bug candidate: statement is proved"})
    return VerificationOutcome(
        "Lem2.3", group_name, sigma, "confirmed", vacuous=nontrivial_instances == 0,
        witness={"nontrivial_instances": nontrivial_instances})


# ---------------------------------------------------------------------------
# Lemma 2.4: the residual commutes with quotients

def _lemma_2_4_sides(G: PermGroup, sigma: SigmaPartition,
                     limits: Limits) -> Iterator[tuple[Subgroup, Subgroup, Subgroup]]:
    """(N, M, DN) for each normal N of G with 1 < N < G, in lattice order,
    where M/N is the residual of G/N and D is the residual of G.

    By the correspondence theorem both sides are normal subgroups of G over
    N, read off G's sorted normal lattice, and no quotient group is built.
    The M with G/M sigma-nilpotent are read by ``_nilpotent_section``; they
    are closed under intersection, so the least one over N has the least
    order and comes first.  This read shares nothing with the residual's
    code but the lattice, so a wrong D shows.  DN is the first normal
    subgroup over D and N."""
    D = sigma_nilpotent_residual(G, sigma, limits)
    normals = normal_subgroups(G, limits)
    tops = [M for M in normals if _nilpotent_section(G, normals, G.mask, M.mask, sigma)]
    # the lattice is sorted by order, so 1 comes first and G, when it is not 1, last
    for N in normals[1:-1]:
        M = next(M for M in tops if M.mask & N.mask == N.mask)
        yield N, M, _normal_product(normals, D, N)


def verify_lemma_2_4(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """The residual of G/N is DN/N, D the residual of G, for every normal N,
    with both sides read in G's normal lattice (``_lemma_2_4_sides``).
    G/1 (residual D) and G/G (trivial) are counted without being read."""
    for N, lhs, rhs in _lemma_2_4_sides(G, sigma, limits):
        if lhs is not rhs:
            return VerificationOutcome(
                "Lem2.4", group_name, sigma, "counterexample",
                witness={"N": _sub_json(N), "lhs_order": lhs.order // N.order,
                         "rhs_order": rhs.order // N.order,
                         "note": "implementation bug candidate: statement is proved"})
    return VerificationOutcome(
        "Lem2.4", group_name, sigma, "confirmed", vacuous=G.order == 1,
        witness={"normals_checked": len(normal_subgroups(G, limits))})


# ---------------------------------------------------------------------------
# Lemma 2.5: structure of sigma-soluble PsigmaT-groups

def _is_abelian_subgroup(h: Subgroup) -> bool:
    gens = [g.images for g in h.generators]
    return all(compose_images(a, b) == compose_images(b, a)
               for i, a in enumerate(gens) for b in gens[i + 1:])


def _block_core(normals: tuple[Subgroup, ...], d: int, ps: frozenset[int]) -> Subgroup:
    """O_ps(D), the largest normal ps-subgroup of D, for D normal in G given
    by its mask ``d`` and G's sorted normal lattice ``normals``.  O_ps(D) is
    characteristic in D, so it is normal in G; it holds every normal
    ps-subgroup of G inside D, so it is the last of them in the lattice."""
    return next(N for N in reversed(normals) if N.mask & d == N.mask and primes_of(N.order) <= ps)


def _condition_ii_blocks(G: PermGroup, D: Subgroup, sigma: SigmaPartition,
                         limits: Limits) -> tuple[bool, list[dict]]:
    """For each block of sigma(G): O_{sigma_i}(D) must own a normal complement
    inside some Hall sigma_i-subgroup of G.  D is normal in G."""
    detail = []
    for bid, ps, part in _order_blocks(G.order, sigma):
        O = _block_core(normal_subgroups(G, limits), D.mask, ps)
        found = next(((H, C) for H in subgroups_of_order(G, part, limits)
                      if O.mask & H.mask == O.mask for C in normal_subgroups(H, limits)
                      if C.order * O.order == H.order and (C.mask & O.mask).bit_count() == 1),
                     None)
        detail.append({"block": bid, "O_order": O.order,
                       "hall_order": part,
                       "complemented": found is not None,
                       **({"hall": _sub_json(found[0]), "complement": _sub_json(found[1])}
                          if found else {})})
    return all(d["complemented"] for d in detail), detail


def _shape_problems(G: PermGroup, D: Subgroup) -> list[str]:
    """The ways in which D fails to be an abelian Hall subgroup of odd
    order, the part of condition (i) on D alone."""
    return [problem for failed, problem in (
        (not _is_abelian_subgroup(D), "D is not abelian"),
        (D.order % 2 == 0, "|D| is even"),
        (math.gcd(D.order, G.order // D.order) != 1, "D is not a Hall subgroup")) if failed]


def verify_lemma_2_5_forward(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                             limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    if not (is_sigma_soluble(G, sigma, limits) and is_psigma_t(G, sigma, limits)):
        return VerificationOutcome(
            "Lem2.5.fwd", group_name, sigma, "skipped", vacuous=True,
            reason="premise not satisfied: G is not a sigma-soluble PsigmaT-group")
    D = sigma_nilpotent_residual(G, sigma, limits)
    M = next(iter(_complements(G, D, limits)), None)
    condition_ii = _condition_ii_blocks(G, D, sigma, limits)
    problems = _shape_problems(G, D)
    if M is None:
        problems.append("no complement M to D exists")
    elif not is_sigma_nilpotent(M, sigma, limits):
        problems.append("complement M is not sigma-nilpotent")
    if not induces_power_automorphisms(G, D, limits):
        problems.append("G does not induce power automorphisms in D")
    if not condition_ii[0]:
        problems.append("condition (ii) fails for some block")
    witness = {"D": _sub_json(D), "M": _sub_json(M) if M else None, "blocks": condition_ii[1]}
    if problems:
        witness["problems"] = problems
        witness["lattice_orders"] = sorted(h.order for h in all_subgroups(G, limits))
        witness["note"] = "implementation bug candidate: statement is proved"
        return VerificationOutcome(
            "Lem2.5.fwd", group_name, sigma, "counterexample", witness=witness)
    return VerificationOutcome(
        "Lem2.5.fwd", group_name, sigma, "confirmed", vacuous=D.order == 1,
        witness=witness)


def _complements(G: PermGroup, D: Subgroup, limits: Limits) -> tuple[Subgroup, ...]:
    """The complements of D in G, in canonical order: the subgroups of
    order |G:D| that meet D in 1."""
    return tuple(M for M in subgroups_of_order(G, G.order // D.order, limits)
                 if M.mask & D.mask == 1)


def _complements_meeting_conditions(G: PermGroup, sigma: SigmaPartition, D: Subgroup,
                                    limits: Limits) -> list[Subgroup]:
    """The complements M of a normal subgroup D of G, in canonical order,
    such that (D, M) meets conditions (i)+(ii); none when D fails its part.
    Each condition on D is checked once: D's shape first, then each
    complement's sigma-nilpotency, and G's action on D and condition (ii),
    the costly parts, only when some complement passes."""
    if _shape_problems(G, D):
        return []
    ms = [M for M in _complements(G, D, limits) if is_sigma_nilpotent(M, sigma, limits)]
    if ms and induces_power_automorphisms(G, D, limits) \
            and _condition_ii_blocks(G, D, sigma, limits)[0]:
        return ms
    return []


def verify_lemma_2_5_converse_search(G: PermGroup, sigma: SigmaPartition,
                                     group_name: str = "",
                                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """Campaign form: exhaust all (D, M) with D normal and conditions (i)+(ii);
    each found pair forces the PsigmaT conclusion."""
    pairs = 0
    first = None
    for D in normal_subgroups(G, limits):
        ms = _complements_meeting_conditions(G, sigma, D, limits)
        if not ms:
            continue
        pairs += len(ms)
        if first is None:
            first = (D, ms[0])
        if not is_psigma_t(G, sigma, limits):
            return VerificationOutcome(
                "Lem2.5.conv", group_name, sigma, "counterexample",
                witness={"D": _sub_json(D), "M": _sub_json(ms[0]),
                         "note": "implementation bug candidate: statement is proved"})
    if pairs == 0:
        return VerificationOutcome(
            "Lem2.5.conv", group_name, sigma, "confirmed", vacuous=True,
            witness={"pairs_satisfying_conditions": 0})
    return VerificationOutcome(
        "Lem2.5.conv", group_name, sigma, "confirmed", vacuous=False,
        witness={"pairs_satisfying_conditions": pairs,
                 "D": _sub_json(first[0]), "M": _sub_json(first[1])})


# ---------------------------------------------------------------------------
# campaign

@dataclass(frozen=True)
class CampaignConfig:
    jobs: int = 1
    limits: Limits = DEFAULT_LIMITS
    statements: tuple[str, ...] = STATEMENTS
    zero_millis: bool = False

    def __post_init__(self) -> None:
        _check_count("--jobs", self.jobs)
        unknown = [s for s in self.statements if s not in REGISTRY]
        if unknown:
            raise GroupInputError(
                f"unknown statement ids: {', '.join(sid or repr(sid) for sid in unknown)}")


PARTITION_PRIME_CAP = 4


def campaign_sigmas(G: PermGroup) -> list[SigmaPartition]:
    """Partitions paired with a group in a campaign: all set partitions of
    pi(G) while Bell stays tractable (at most ``PARTITION_PRIME_CAP``
    primes), else the one-block fallback; sigma^1 is always appended as the
    classical spelling."""
    return _prime_sigmas(sorted(primes_of(G.order)))


def _prime_sigmas(pig: list[int]) -> list[SigmaPartition]:
    """``campaign_sigmas`` of a group whose primes, sorted, are ``pig``."""
    if len(pig) <= PARTITION_PRIME_CAP:
        sigmas = partitions_of_primes(pig)
    else:
        sigmas = [SigmaPartition.of_blocks(set(pig))]
    return sigmas + [SigmaPartition.sigma1()]


def _runs(order: int, statements, sigmas: list[SigmaPartition] | None = None,
          pis=None) -> list[tuple[str, str, SigmaPartition, tuple]]:
    """(statement id, verifier name, row label, the verifier's arguments
    after the group) of each row of the chosen statements on a group of
    this order, in the order ``run_statements`` runs them."""
    pig = sorted(primes_of(order))
    if sigmas is None:
        sigmas = _prime_sigmas(pig)
    if pis is None:
        pis = [frozenset(s) for r in range(len(pig) + 1) for s in combinations(pig, r)]
    chosen = [(sid, st) for sid, st in REGISTRY.items() if sid in statements]
    return ([(sid, st.verifier, sigma, (sigma, *st.extra))
             for sigma in sigmas for sid, st in chosen if st.scope == "sigma"]
            + [(sid, st.verifier, SigmaPartition.sigma1(), ())
               for sid, st in chosen if st.scope == "classical"]
            + [(sid, st.verifier, _pi_partition(order, pi), (pi,))
               for sid, st in chosen if st.scope == "pi" for pi in pis])


def run_statements(G: PermGroup, name: str, statements, limits: Limits = DEFAULT_LIMITS,
                   sigmas: list[SigmaPartition] | None = None, pis=None,
                   zero_millis: bool = False) -> list[VerificationOutcome]:
    """The rows of the chosen statements on G, in registry order: first the
    sigma scope, ``verifier(G, sigma, *extra, name, limits)`` per partition
    (``campaign_sigmas`` by default); then the classical scope,
    ``verifier(G, name, limits)`` once at sigma1; then the pi scope,
    ``verifier(G, pi, name, limits)`` per prime set (every subset of pi(G) by
    default, by size and then lexicographically).  Each call is timed, and
    one that raises becomes a ``_failed_row``, labelled as the row's verdict
    would be: with its own sigma, or ``sigma._pi_partition`` in the pi
    scope."""
    rows = []
    for sid, verifier, label, args in _runs(G.order, statements, sigmas, pis):
        t0 = time.perf_counter()
        try:
            out = globals()[verifier](G, *args, name, limits)
        except Exception as exc:
            out = _failed_row(VerificationOutcome(sid, name, label, "error"), exc)
        ms = 0 if zero_millis else int((time.perf_counter() - t0) * 1000)
        rows.append(replace(out, millis=ms))
    return rows


def _failed_row(row: VerificationOutcome, exc: Exception) -> VerificationOutcome:
    """``row`` as the row of a statement that raised ``exc``: skipped, with
    reason "capacity: <message>", for a CapacityError, else ``error``, with
    a reason naming the type and message of ``exc``.  It keeps only strings,
    so the exception and its traceback are freed."""
    verdict, reason = (("skipped", f"capacity: {exc}") if isinstance(exc, CapacityError)
                       else ("error", f"{type(exc).__name__}: {exc}"))
    return replace(row, verdict=verdict, vacuous=False, witness=None, reason=reason)


def verify_group(entry: CorpusEntry | RefusedEntry,
                 config: CampaignConfig) -> list[VerificationOutcome]:
    """All statement outcomes for one corpus entry.  A group that cannot be
    built has every row skipped (a capacity bound) or ``error`` (anything
    else, such as a wrong declared order), labelled from the primes of its
    declared order; a ``RefusedEntry`` has no order to label from, so it has
    one ``error`` row per statement, labelled with no block.  The
    class-monotonicity check makes the rows it refutes ``error`` rows."""
    try:
        G = entry.build(config.limits)
    except Exception as exc:
        labels = ([(sid, SigmaPartition()) for sid in REGISTRY if sid in config.statements]
                  if isinstance(entry, RefusedEntry) else
                  [(sid, label) for sid, _, label, _ in _runs(entry.expected_order,
                                                              config.statements)])
        rows = [_failed_row(VerificationOutcome(sid, entry.name, label, "error"), exc)
                for sid, label in labels]
    else:
        rows = run_statements(G, entry.name, config.statements, config.limits,
                              zero_millis=config.zero_millis)
    # the root interned for this group is of no use to the next one
    clear_intern_cache()
    return _check_class_monotonicity(rows)


def _check_class_monotonicity(rows: list[VerificationOutcome]) -> list[VerificationOutcome]:
    """A group outside sigma-soluble is outside sigma-nilpotent, so a
    non-vacuous ThmA.i confirmation must come with a non-vacuous ThmA.ii one.
    The rows, with each pair that breaks this made ``error`` rows whose
    reason is the check's InvariantError."""
    at = {(r.statement_id, r.sigma.text()): i for i, r in enumerate(rows)}
    rows = list(rows)
    for (sid, stext), i in at.items():
        j = at.get(("ThmA.ii", stext))
        if sid != "ThmA.i" or j is None:
            continue
        r, partner = rows[i], rows[j]
        if r.verdict == partner.verdict == "confirmed" and not r.vacuous and partner.vacuous:
            exc = InvariantError(f"{r.group_name}/{stext}: ThmA.i non-vacuous but ThmA.ii vacuous")
            rows[i], rows[j] = _failed_row(r, exc), _failed_row(partner, exc)
    return rows


def _worker(entry: CorpusEntry | RefusedEntry, config: CampaignConfig) -> list[dict]:
    return [r.to_json() for r in verify_group(entry, config)]


def _process_pool(workers: int):
    """A process pool of ``workers`` workers.  The pool module is imported
    here, so a campaign at one job never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_campaign(entries: list[CorpusEntry | RefusedEntry],
                 config: CampaignConfig = CampaignConfig()) -> list[dict]:
    """Deterministic outcome list over a corpus: results are computed per
    group (in parallel when jobs > 1, in at most one worker per entry, each
    worker receiving the entry and the config by pickle, largest declared
    order first so that the slowest groups do not start last) and merged
    sorted by (group, sigma, statement)."""
    if config.jobs > 1 and len(entries) > 1:
        largest_first = sorted(entries, key=lambda e: -e.expected_order)
        with _process_pool(min(config.jobs, len(entries))) as pool:
            chunks = list(pool.map(_worker, largest_first, repeat(config)))
    else:
        chunks = [_worker(e, config) for e in entries]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r["group"], r["sigma"], r["statement_id"]))
    return rows


def report_from_rows(rows: list[dict], generated_at: str | None = None) -> dict:
    """The report of campaign rows.  The summary and each statement's counts
    always carry confirmed, counterexample and skipped, and carry ``error``
    only when some row errored."""
    summary = {"confirmed": 0, "counterexample": 0, "skipped": 0,
               "vacuous": 0, "by_statement": {}}
    for r in rows:
        verdict = r["verdict"]
        summary[verdict] = summary.get(verdict, 0) + 1
        if r["vacuous"]:
            summary["vacuous"] += 1
        per = summary["by_statement"].setdefault(
            r["statement_id"], {"confirmed": 0, "counterexample": 0, "skipped": 0})
        per[verdict] = per.get(verdict, 0) + 1
    report = {"schema": "sigmagroups-report/1", "summary": summary, "outcomes": rows}
    if generated_at is not None:
        report["generated_at"] = generated_at
    return report
