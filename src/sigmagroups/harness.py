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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

from .corpus import CorpusEntry, partitions_of_primes
from .errors import CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError, Limits
from .numbers import primes_of
from .permcore import (Perm, PermGroup, Subgroup, clear_intern_cache, compose_images,
                       interned)
from .sigma import (SigmaPartition, _group_blocks, _quotient_is_sigma_nilpotent,
                    induces_power_automorphisms, is_pi_separable, is_psigma_t,
                    is_sigma_nilpotent, is_sigma_soluble, largest_normal_block_subgroup,
                    sigma_nilpotent_residual, sigma_full_sylow_type_violation)
from .structure import (all_subgroups, conjugate_subgroups, frattini_subgroup,
                        hall_subgroup, intersection_subgroup, is_normal,
                        maximal_subgroups_of_p_group, normal_subgroups,
                        product_subgroup, quotient_group, subgroups_of_order,
                        supplements, sylow_subgroup)

CLASSES = ("sigma-soluble", "sigma-nilpotent", "sigma-soluble-psigma-t")

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
    verdict: str                      # confirmed | counterexample | skipped
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
    """Maximal subgroups of every Sylow subgroup of G (all conjugates),
    deduplicated, smallest first.  They do not depend on sigma, so they are
    computed once per interned ambient."""
    K = interned(G)
    if "sylow-maximal-candidates" not in K.cache:
        found: dict[int, Subgroup] = {}
        for p in sorted(primes_of(K.order)):
            for P in conjugate_subgroups(K, sylow_subgroup(K, p, limits), limits):
                for V in maximal_subgroups_of_p_group(P, limits):
                    found.setdefault(V.mask, V)
        # index order is image order: this sorts by (order, element list)
        K.cache["sylow-maximal-candidates"] = tuple(
            sorted(found.values(), key=lambda v: (v.order, v.sorted_images())))
    return K.cache["sylow-maximal-candidates"]


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
    pi = frozenset(pi)
    pig = primes_of(G.order)
    pi_in = pi & pig
    pi_out = pig - pi
    # primes outside pi(G) change no Hall order, so quantifiers restrict to pi(G)
    sigma_label = SigmaPartition.of_blocks(pi_in) if pi_in else SigmaPartition()
    separable = is_pi_separable(G, pi, limits)
    halls: dict[str, bool] = {}

    def have(primes) -> bool:
        key = ",".join(str(p) for p in sorted(primes)) or "-"
        if key not in halls:
            halls[key] = hall_subgroup(G, primes, limits) is not None
        return halls[key]

    conditions = have(pi_in) and have(pi_out)
    if conditions:
        conditions = all(have(pi_in | {p}) for p in sorted(pi_out))
    if conditions:
        conditions = all(have(pi_out | {q}) for q in sorted(pi_in))
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

def verify_lemma_2_3(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """Normal products, quotients, subgroups, and the Frattini condition."""
    K = interned(G)
    failures: list[dict] = []
    nontrivial_instances = 0

    normals = normal_subgroups(K, limits)
    nilpotent_normals = [n for n in normals
                         if is_sigma_nilpotent(n, sigma, limits)]
    for i, n1 in enumerate(nilpotent_normals):
        for n2 in nilpotent_normals[i:]:
            P = product_subgroup(K, n1, n2, limits)
            if P.order > 1 and P.order not in (n1.order, n2.order):
                nontrivial_instances += 1
            if not is_sigma_nilpotent(P, sigma, limits):
                failures.append({"part": "normal-product",
                                 "N1": _sub_json(n1), "N2": _sub_json(n2)})

    if is_sigma_nilpotent(K, sigma, limits):
        for n in normals:
            if 1 < n.order:
                nontrivial_instances += 1
            if not _quotient_is_sigma_nilpotent(K, n, sigma, limits):
                failures.append({"part": "quotient", "N": _sub_json(n)})
        for h in all_subgroups(K, limits):
            if 1 < h.order < K.order:
                nontrivial_instances += 1
            if not is_sigma_nilpotent(h, sigma, limits):
                failures.append({"part": "subgroup", "H": _sub_json(h)})

    phi = frattini_subgroup(K, limits)
    for e in normals:
        if _quotient_is_sigma_nilpotent(e, intersection_subgroup(K, e, phi), sigma, limits):
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

def verify_lemma_2_4(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    K = interned(G)
    d_set = sigma_nilpotent_residual(K, sigma, limits).element_images()
    checked = 0
    for N in normal_subgroups(K, limits):
        q = quotient_group(K, N, limits)
        lhs = sigma_nilpotent_residual(q.group, sigma, limits).element_images()
        rhs = q.image_set(d_set)  # DN/N is the image of D
        if lhs != rhs:
            return VerificationOutcome(
                "Lem2.4", group_name, sigma, "counterexample",
                witness={"N": _sub_json(N),
                         "lhs_order": len(lhs), "rhs_order": len(rhs),
                         "note": "implementation bug candidate: statement is proved"})
        checked += 1
    return VerificationOutcome(
        "Lem2.4", group_name, sigma, "confirmed", vacuous=K.order == 1,
        witness={"normals_checked": checked})


# ---------------------------------------------------------------------------
# Lemma 2.5: structure of sigma-soluble PsigmaT-groups

def _is_abelian_subgroup(h: Subgroup) -> bool:
    gens = [g.images for g in h.generators]
    return all(compose_images(a, b) == compose_images(b, a)
               for i, a in enumerate(gens) for b in gens[i + 1:])


def _condition_ii_blocks(G: PermGroup, D: Subgroup, sigma: SigmaPartition,
                         limits: Limits) -> tuple[bool, list[dict]]:
    """For each block of sigma(G): O_{sigma_i}(D) must own a normal complement
    inside some Hall sigma_i-subgroup of G."""
    detail = []
    ok = True
    for bid, ps, part in _group_blocks(G, sigma):
        O = largest_normal_block_subgroup(D, ps, limits)
        found = None
        for H in subgroups_of_order(G, part, limits):
            if O.mask & H.mask != O.mask:
                continue
            for C in normal_subgroups(H, limits):
                if C.order * O.order == H.order and (C.mask & O.mask).bit_count() == 1:
                    found = (H, C)
                    break
            if found:
                break
        detail.append({"block": bid, "O_order": O.order,
                       "hall_order": part,
                       "complemented": found is not None,
                       **({"hall": _sub_json(found[0]), "complement": _sub_json(found[1])}
                          if found else {})})
        if found is None and part > 1:
            ok = False
        if found is None and part == 1:
            # no primes of the block divide |G|: trivially complemented
            detail[-1]["complemented"] = True
    return ok, detail


def verify_lemma_2_5_forward(G: PermGroup, sigma: SigmaPartition, group_name: str = "",
                             limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    if not (is_sigma_soluble(G, sigma, limits) and is_psigma_t(G, sigma, limits)):
        return VerificationOutcome(
            "Lem2.5.fwd", group_name, sigma, "skipped", vacuous=True,
            reason="premise not satisfied: G is not a sigma-soluble PsigmaT-group")
    K = interned(G)
    D = sigma_nilpotent_residual(K, sigma, limits)
    problems = []
    if not _is_abelian_subgroup(D):
        problems.append("D is not abelian")
    if D.order % 2 == 0 and D.order > 1:
        problems.append("|D| is even")
    if math.gcd(D.order, K.order // D.order) != 1:
        problems.append("D is not a Hall subgroup")
    M = None
    for h in all_subgroups(K, limits):
        if h.order * D.order == K.order and (h.mask & D.mask).bit_count() == 1:
            M = h
            break
    if M is None:
        problems.append("no complement M to D exists")
    elif not is_sigma_nilpotent(M, sigma, limits):
        problems.append("complement M is not sigma-nilpotent")
    if not induces_power_automorphisms(K, D, limits):
        problems.append("G does not induce power automorphisms in D")
    cond_ii_ok, blocks = _condition_ii_blocks(K, D, sigma, limits)
    if not cond_ii_ok:
        problems.append("condition (ii) fails for some block")
    witness = {"D": _sub_json(D), "M": _sub_json(M) if M else None, "blocks": blocks}
    if problems:
        witness["problems"] = problems
        witness["lattice_orders"] = sorted(h.order for h in all_subgroups(K, limits))
        witness["note"] = "implementation bug candidate: statement is proved"
        return VerificationOutcome(
            "Lem2.5.fwd", group_name, sigma, "counterexample", witness=witness)
    return VerificationOutcome(
        "Lem2.5.fwd", group_name, sigma, "confirmed", vacuous=D.order == 1,
        witness=witness)


def _pair_satisfies_conditions(G: PermGroup, sigma: SigmaPartition, D: Subgroup,
                               M: Subgroup, limits: Limits) -> bool:
    """Conditions (i)+(ii) for an explicit candidate pair (D, M)."""
    K = interned(G)
    if D.order * M.order != K.order:
        return False
    if (D.mask & M.mask).bit_count() != 1:
        return False
    if not is_normal(K, D):
        return False
    if not _is_abelian_subgroup(D):
        return False
    if D.order > 1 and D.order % 2 == 0:
        return False
    if math.gcd(D.order, K.order // D.order) != 1:
        return False
    if not is_sigma_nilpotent(M, sigma, limits):
        return False
    if not induces_power_automorphisms(K, D, limits):
        return False
    ok, _ = _condition_ii_blocks(K, D, sigma, limits)
    return ok


def verify_lemma_2_5_converse(G: PermGroup, sigma: SigmaPartition, D: Subgroup,
                              M: Subgroup, group_name: str = "",
                              limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    if not _pair_satisfies_conditions(G, sigma, D, M, limits):
        raise GroupInputError(
            "conditions (i)+(ii) do not hold for the supplied (D, M)")
    if is_psigma_t(G, sigma, limits):
        return VerificationOutcome(
            "Lem2.5.conv", group_name, sigma, "confirmed",
            witness={"D": _sub_json(D), "M": _sub_json(M)})
    return VerificationOutcome(
        "Lem2.5.conv", group_name, sigma, "counterexample",
        witness={"D": _sub_json(D), "M": _sub_json(M),
                 "note": "implementation bug candidate: statement is proved"})


def verify_lemma_2_5_converse_search(G: PermGroup, sigma: SigmaPartition,
                                     group_name: str = "",
                                     limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """Campaign form: exhaust all (D, M) with D normal and conditions (i)+(ii);
    each found pair forces the PsigmaT conclusion."""
    K = interned(G)
    pairs = 0
    first = None
    for D in normal_subgroups(K, limits):
        for M in all_subgroups(K, limits):
            if M.order * D.order != K.order:
                continue
            if not _pair_satisfies_conditions(K, sigma, D, M, limits):
                continue
            pairs += 1
            if first is None:
                first = (D, M)
            if not is_psigma_t(K, sigma, limits):
                return VerificationOutcome(
                    "Lem2.5.conv", group_name, sigma, "counterexample",
                    witness={"D": _sub_json(D), "M": _sub_json(M),
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
        unknown = [s for s in self.statements if s not in REGISTRY]
        if unknown:
            raise GroupInputError(f"unknown statement ids: {', '.join(unknown)}")


def campaign_sigmas(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> list[SigmaPartition]:
    """Partitions paired with a group in a campaign: all set partitions of
    pi(G) while Bell stays tractable, else the classical and one-block
    fallbacks; sigma^1 is always appended as the classical spelling."""
    pig = sorted(primes_of(G.order))
    if len(pig) <= limits.partition_prime_cap:
        sigmas = partitions_of_primes(pig)
    else:
        sigmas = [SigmaPartition.of_blocks(set(pig))]
    return sigmas + [SigmaPartition.sigma1()]


def _subsets(items: list) -> list[tuple]:
    out = [()]
    for x in items:
        out += [s + (x,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def run_statements(G: PermGroup, name: str, statements, limits: Limits = DEFAULT_LIMITS,
                   sigmas: list[SigmaPartition] | None = None, pis=None,
                   zero_millis: bool = False,
                   overflow: CapacityError | None = None) -> list[VerificationOutcome]:
    """The rows of the chosen statements on G, in registry order: first the
    sigma scope, ``verifier(G, sigma, *extra, name, limits)`` per partition
    (``campaign_sigmas`` by default); then the classical scope,
    ``verifier(G, name, limits)`` once at sigma1; then the pi scope,
    ``verifier(G, pi, name, limits)`` per prime set (every subset of pi(G) by
    default).  Each call is timed; a CapacityError, or the ``overflow`` that
    kept G from being enumerated, becomes a skipped row labelled with that
    row's own sigma."""
    if sigmas is None:
        sigmas = campaign_sigmas(G, limits)
    if pis is None:
        pis = [frozenset(s) for s in _subsets(sorted(primes_of(G.order)))]
    chosen = [(sid, st) for sid, st in REGISTRY.items() if sid in statements]
    runs = [(sid, st.verifier, sigma, (G, sigma, *st.extra))
            for sigma in sigmas for sid, st in chosen if st.scope == "sigma"]
    runs += [(sid, st.verifier, SigmaPartition.sigma1(), (G,))
             for sid, st in chosen if st.scope == "classical"]
    runs += [(sid, st.verifier, SigmaPartition.of_blocks(pi) if pi else SigmaPartition(),
              (G, pi)) for sid, st in chosen if st.scope == "pi" for pi in pis]
    rows = []
    for sid, verifier, label, args in runs:
        t0 = time.perf_counter()
        try:
            if overflow is not None:
                raise overflow
            out = globals()[verifier](*args, name, limits)
        except CapacityError as exc:
            out = VerificationOutcome(sid, name, label, "skipped", reason=f"capacity: {exc}")
        ms = 0 if zero_millis else int((time.perf_counter() - t0) * 1000)
        rows.append(replace(out, millis=ms))
    return rows


def verify_group(entry: CorpusEntry, config: CampaignConfig) -> list[VerificationOutcome]:
    """All statement outcomes for one corpus entry; capacity errors become
    skipped rows, never exceptions."""
    try:
        G, overflow = entry.build(config.limits), None
    except CapacityError as exc:
        # too large to enumerate: every statement of the group is skipped
        G, overflow = PermGroup(entry.degree, entry.generators), exc
    rows = run_statements(G, entry.name, config.statements, config.limits,
                          zero_millis=config.zero_millis, overflow=overflow)
    # the roots interned for this group (it and its quotients) are of no use
    # to the next one
    clear_intern_cache()
    _check_class_monotonicity(rows)
    return rows


def _check_class_monotonicity(rows: list[VerificationOutcome]) -> None:
    """A group outside sigma-soluble is outside sigma-nilpotent, so a
    non-vacuous ThmA.i confirmation must come with a non-vacuous ThmA.ii one."""
    by_key = {(r.statement_id, r.sigma.text()): r for r in rows}
    for (sid, stext), r in by_key.items():
        if sid != "ThmA.i" or r.verdict != "confirmed" or r.vacuous:
            continue
        partner = by_key.get(("ThmA.ii", stext))
        if partner is not None and partner.verdict == "confirmed" and partner.vacuous:
            raise InvariantError(
                f"{r.group_name}/{stext}: ThmA.i non-vacuous but ThmA.ii vacuous")


def _worker(entry: CorpusEntry, config: CampaignConfig) -> list[dict]:
    return [r.to_json() for r in verify_group(entry, config)]


def run_campaign(entries: list[CorpusEntry],
                 config: CampaignConfig = CampaignConfig()) -> list[dict]:
    """Deterministic outcome list over a corpus: results are computed per
    group (in parallel when jobs > 1, each worker receiving the entry and the
    config by pickle, largest declared order first so that the slowest groups
    do not start last) and merged sorted by (group, sigma, statement)."""
    if config.jobs > 1 and len(entries) > 1:
        largest_first = sorted(entries, key=lambda e: -e.expected_order)
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunks = list(pool.map(_worker, largest_first, repeat(config)))
    else:
        chunks = [_worker(e, config) for e in entries]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r["group"], r["sigma"], r["statement_id"]))
    return rows


def report_from_rows(rows: list[dict], generated_at: str | None = None) -> dict:
    summary = {"confirmed": 0, "counterexample": 0, "skipped": 0,
               "vacuous": 0, "by_statement": {}}
    for r in rows:
        summary[r["verdict"]] += 1
        if r["vacuous"]:
            summary["vacuous"] += 1
        per = summary["by_statement"].setdefault(
            r["statement_id"], {"confirmed": 0, "counterexample": 0, "skipped": 0})
        per[r["verdict"]] += 1
    report = {"schema": "sigmagroups-report/1", "summary": summary, "outcomes": rows}
    if generated_at is not None:
        report["generated_at"] = generated_at
    return report
