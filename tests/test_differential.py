"""The element-indexed kernels against the brute-force oracle, on builtin
groups and on random small permutation groups."""

import itertools
import math
from itertools import compress

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from conftest import image_set
from sigmagroups import Limits, Perm, PermGroup, Subgroup, builtin_corpus, trivial_subgroup
from sigmagroups import harness, structure
from sigmagroups import sigma as sigma_module
from sigmagroups.harness import campaign_sigmas
from sigmagroups.sigma import (SigmaPartition, is_pi_separable, is_sigma_nilpotent,
                               is_sigma_primary, is_sigma_soluble, largest_normal_block_subgroup,
                               sigma_full_sylow_type_violation, sigma_nilpotent_residual)
from sigmagroups.errors import InvariantError
from sigmagroups.numbers import is_prime, is_prime_power, part_for_primes, primes_of
from sigmagroups.permcore import _mask
from sigmagroups.structure import (_element_table, _lattice_cyclic_extension,
                                   _lattice_join_closure, all_subgroups, chief_series,
                                   conjugate_image_sets, frattini_subgroup,
                                   intersection_subgroup, is_soluble,
                                   maximal_subgroups_of_p_group, normal_subgroups,
                                   quotient_group, sylow_subgroup)


def image_sets(subgroups):
    return sorted((frozenset(s.element_images()) for s in subgroups),
                  key=lambda s: (len(s), sorted(s)))


def uncapped_join_closure(table, gmask):
    """The join-closure kernel without its Lagrange cut-off and without
    skipping known joins: every join is closed, to the end."""
    seeds = {}
    for e in table.members(gmask)[1:]:
        cyc = table.generate((e,))[0]
        if is_prime_power(cyc.bit_count()):
            seeds.setdefault(cyc, e)
    seed_list = sorted(seeds.items(), key=lambda kv: table.key(kv[0]))
    found = {1: ()}
    for cyc, e in seed_list:
        found[cyc] = (e,)
    queue = sorted(found, key=table.key)
    for hmask in queue:
        hgens = found[hmask]
        block = table.members(hmask)
        for cyc, e in seed_list:
            if cyc & hmask == cyc:
                continue
            jgens = hgens + (e,)
            jmask = _mask(table.closure(jgens, block))
            if jmask not in found:
                found[jmask] = jgens
                queue.append(jmask)
    return found


def reference_cyclic_extension(table, gmask, limits):
    """The cyclic-extension kernel that tries every element outside H,
    including those of an extension <H, x> already closed."""
    rows, inverse, n = table.rows, table.inverse, table.order
    elements = table.members(gmask)
    found: dict[int, tuple] = {1: ()}
    queue = [1]
    for hmask in queue:
        hgens = found[hmask]
        hflags = table.flags(hmask)
        block = list(compress(range(n), hflags))
        for x in elements:
            if hflags[x]:
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
            if jmask in found:
                continue
            if jflags.count(1) != len(block) * k:
                raise InvariantError(f"cyclic extension of a subgroup of order {len(block)} "
                                     f"by a coset of order {k} has {jflags.count(1)} elements")
            structure._check_lattice_room(len(found) + 1, limits)
            found[jmask] = jgens
            queue.append(jmask)
    return found


def lattice_quotient_is_sigma_nilpotent(G, N, sigma):
    """Sigma-nilpotency of G/N read off G's normal lattice: G/N has a normal
    Hall sigma_i-subgroup exactly when some normal L >= N of G has order
    |N| |G:N|_{sigma_i}, by the correspondence theorem."""
    above = {L.order for L in normal_subgroups(G) if L.mask & N.mask == N.mask}
    index = G.order // N.order
    return all(N.order * part_for_primes(index, ps) in above
               for _, ps, _ in sigma_module._order_blocks(G.order, sigma))


def assert_sigma_nilpotency_matches_lattice_read(G):
    """At every campaign partition and for every normal N of G: the
    engine's sigma-nilpotency of G/N against the reference lattice read and
    against Lem2.3's and Lem2.4's (``harness._nilpotent_section``); and the
    section read of N/(N n Phi(G)), Lem2.3's Frattini premise, against the
    path it replaced, the engine on N over ``intersection_subgroup``."""
    limits = Limits()
    normals = normal_subgroups(G)
    phi = frattini_subgroup(G)
    for sigma in campaign_sigmas(G):
        for N in normals:
            where = (N.order, sigma.text())
            engine = sigma_module._quotient_is_sigma_nilpotent(G, N, sigma, limits)
            assert engine == lattice_quotient_is_sigma_nilpotent(G, N, sigma), where
            assert harness._nilpotent_section(G, normals, G.mask, N.mask, sigma) == engine, where
            assert harness._nilpotent_section(G, normals, N.mask, N.mask & phi.mask, sigma) == \
                sigma_module._quotient_is_sigma_nilpotent(
                    N, intersection_subgroup(G, N, phi), sigma, limits), where


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_sigma_nilpotency_matches_the_normal_lattice_read(corpus, name):
    """The test on the subgroups generated by sigma_i-elements against the
    normal-lattice reads, for every normal N and campaign partition."""
    assert_sigma_nilpotency_matches_lattice_read(corpus[name].build())


def reference_is_sigma_soluble(G, sigma):
    """Sigma-solubility read off one greedy chief series of G."""
    return all(is_sigma_primary(f.order, sigma) for f in chief_series(G))


def reference_is_pi_separable(G, pi):
    """Pi-separability read off one greedy chief series of G."""
    pi = frozenset(pi)
    return all(f.prime_support <= pi or not (f.prime_support & pi) for f in chief_series(G))


def reference_hall_data(G, sigma, limits):
    """The Hall data of every block filtered from G's lattice by order, with
    the conjugacy classes of the candidates under G's generators from the
    naive walk of ``tuple_conjugates``, each member as its mask on the
    root's table."""
    table = _element_table(G.root, limits)
    blocks = []
    for _, ps, part in sigma_module._order_blocks(G.order, sigma):
        # all_subgroups is sorted canonically, so the candidates are too
        candidates = tuple(h.mask for h in all_subgroups(G, limits) if h.order == part)
        cand_sets = [image_set(table, mask) for mask in candidates]
        classes = []
        unassigned = set(cand_sets)
        for hset in cand_sets:
            if hset in unassigned:
                orbit = tuple_conjugates(G, hset)
                unassigned.difference_update(orbit)
                classes.append(tuple(table.mask_of(map(table.index.__getitem__, c))
                                     for c in orbit))
        blocks.append({"primes": ps, "part": part,
                       "candidates": candidates, "classes": tuple(classes)})
    return blocks


def unordered_classes(blocks):
    """Hall data with each conjugacy class as a set: the reference lists a
    class in orbit order under G's generators, the engine by element list."""
    return [{**block, "classes": tuple(map(frozenset, block["classes"]))} for block in blocks]


def reference_insoluble_primes(G):
    """P(G) read off one greedy chief series of G: the primes of its factors
    with two or more primes, which are the nonabelian ones."""
    return frozenset().union(*(f.prime_support for f in chief_series(G)
                               if len(f.prime_support) > 1))


def assert_sigma_verdicts_match_references(G, subgroups):
    """P of each subgroup, the one fact every sigma-solubility verdict
    reads, and sigma-solubility of each subgroup and the Hall data of G at
    every campaign partition, and pi-separability of G for every set of its
    primes, also with a prime not dividing |G| added, against the
    chief-series and lattice-filter references; pi-separability is
    sigma-solubility at ``_pi_partition``.  The chief-series check at every
    partition stays as the per-sigma reference of the one fact."""
    for H in subgroups:
        assert structure._insoluble_primes(H, Limits()) == reference_insoluble_primes(H), \
            H.generators
    for sigma in campaign_sigmas(G):
        for H in subgroups:
            assert is_sigma_soluble(H, sigma) == reference_is_sigma_soluble(H, sigma), \
                (H.generators, sigma.text())
        assert unordered_classes(sigma_module._hall_data(G, sigma, Limits())) == \
            unordered_classes(reference_hall_data(G, sigma, Limits())), sigma.text()
    primes = sorted(primes_of(G.order))
    stranger = next(q for q in itertools.count(2) if is_prime(q) and G.order % q)
    for k in range(len(primes) + 1):
        for pi in itertools.combinations(primes, k):
            expected = reference_is_pi_separable(G, pi)
            assert is_pi_separable(G, pi) == expected, pi
            assert is_pi_separable(G, (*pi, stranger)) == expected, (pi, stranger)
            assert is_sigma_soluble(G, sigma_module._pi_partition(G.order, pi)) == expected, pi


def reference_product_sets_equal(table, a, b):
    """AB == BA for subgroups given by their member indices on the root's
    table: the engine's former ``sigma._product_sets_equal``, kept here as
    the reference of the order rule.

    AB is built as a union of left cosets xB, skipping every x already in it
    (then xB is already there).  Since (AB)^-1 = BA, AB == BA exactly when AB
    is closed under inverses."""
    rows = table.rows
    ab = set()
    for x in a:
        if x not in ab:
            ab.update(map(rows[x].__getitem__, b))
    return ab.issuperset(map(table.inverse.__getitem__, ab))


def reference_is_sigma_permutable(G, A, sigma, limits=Limits()):
    """Sigma-permutability over the engine's Hall classes, with each product
    AW built as a set on the root's table, a class of one member included."""
    table = _element_table(G.root, limits)
    a = table.members(A.mask)
    return all(any(all(reference_product_sets_equal(table, a, table.members(w)) for w in cls)
                   for cls in block["classes"])
               for block in sigma_module._hall_data(G, sigma, limits))


def test_order_rule_matches_the_product_sets(corpus):
    """Every subgroup of every builtin group at every campaign partition:
    AW == WA decided by orders on the lattice gives the verdict that
    building AW on the table gives.  PSL(2,7) at [2,3][7] has two classes
    of seven Hall {2,3}-subgroups, so there the existential ranges over
    two classes."""
    PSL27 = corpus["PSL(2,7)"].build()
    blocks = sigma_module._hall_data(PSL27, SigmaPartition.of_blocks({2, 3}, {7}), Limits())
    assert [len(cls) for cls in blocks[0]["classes"]] == [7, 7]
    answers = []
    for entry in corpus.values():
        G = entry.build()
        for sigma in campaign_sigmas(G):
            for A in all_subgroups(G):
                answer = sigma_module.is_sigma_permutable(G, A, sigma)
                assert answer == reference_is_sigma_permutable(G, A, sigma), \
                    (entry.name, A.generators, sigma.text())
                answers.append(answer)
    assert set(answers) == {True, False}


def reference_psigma_t_violation(G, sigma, limits=Limits()):
    """The PsigmaT scan as two lists: sigma-perm(H) in full for each
    sigma-permutable proper H, then its first member outside sigma-perm(G)."""
    if is_sigma_nilpotent(G, sigma, limits):
        return None
    sp_g = [h for h in all_subgroups(G, limits)
            if sigma_module.is_sigma_permutable(G, h, sigma, limits)]
    in_g = {h.mask for h in sp_g}
    for h in sp_g:
        if h.order in (1, G.order):
            continue
        sp_h = [k for k in all_subgroups(h, limits)
                if sigma_module.is_sigma_permutable(h, k, sigma, limits)]
        k = next((k for k in sp_h if k.mask not in in_g), None)
        if k is not None:
            return k, h
    return None


def test_psigma_t_scan_matches_the_two_list_scan(corpus):
    """Every builtin group at every campaign partition: asking H only about
    the K outside sigma-perm(G) finds the (K, H) that the two-list scan
    finds, or none when it finds none.  S4 fails PsigmaT at sigma1 (demo 04)."""
    def masks(pair):
        return pair and tuple(s.mask for s in pair)

    refuted = set()
    for entry in corpus.values():
        G = entry.build()
        for sigma in campaign_sigmas(G):
            found = sigma_module.psigma_t_violation(G, sigma)
            assert masks(found) == masks(reference_psigma_t_violation(G, sigma)), \
                (entry.name, sigma.text())
            if found is not None:
                refuted.add((entry.name, sigma.text()))
    assert ("S4", "sigma1") in refuted


def reference_sigma_nilpotent_residual(G, sigma):
    """The residual read off G's normal lattice: the least-order normal
    subgroup with sigma-nilpotent quotient, which must be the meet of all of
    them; the trivial subgroup when G is sigma-nilpotent."""
    if is_sigma_nilpotent(G, sigma):
        return trivial_subgroup(G)
    witnesses = [n for n in normal_subgroups(G)
                 if sigma_module._quotient_is_sigma_nilpotent(G, n, sigma, Limits())]
    # normal_subgroups is sorted by (order, element list): the first is least
    least = witnesses[0]
    meet = G.mask
    for n in witnesses:
        meet &= n.mask
    assert meet == least.mask
    return least


def reference_largest_normal_block_mask(D, block_primes):
    """O_pi(D) read off D's normal lattice: the largest normal pi-subgroup,
    which must contain every other."""
    cands = [n for n in normal_subgroups(D) if primes_of(n.order) <= block_primes]
    best = max(cands, key=lambda n: n.order)
    assert all(n.mask & best.mask == n.mask for n in cands)
    return best.mask


def assert_residual_and_block_subgroups_match_references(G):
    """At every campaign partition, the residual's mask and generators; for
    every normal D of G and every block of a campaign partition, the mask
    of O_pi(D); both against the normal-lattice references.  O_pi(D) is
    also Lem2.5's read of it in G's normal lattice (``harness._block_core``)."""
    sigmas = campaign_sigmas(G)
    for sigma in sigmas:
        D = sigma_nilpotent_residual(G, sigma)
        expected = reference_sigma_nilpotent_residual(G, sigma)
        assert (D.mask, D.generators) == (expected.mask, expected.generators), sigma.text()
    blocks = {ps for sigma in sigmas for _, ps, _ in sigma_module._order_blocks(G.order, sigma)}
    normals = normal_subgroups(G)
    for D in normals:
        for ps in blocks:
            O = largest_normal_block_subgroup(D, ps).mask
            assert O == reference_largest_normal_block_mask(D, ps), (D.generators, sorted(ps))
            assert harness._block_core(normals, D.mask, ps).mask == O, (D.generators, sorted(ps))


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_residual_and_block_subgroups_match_the_normal_lattice_read(corpus, name):
    """The residual as a join of the O^{sigma_i}(R_i) and O_pi(D) as a join
    of class closures give the subgroups the normal lattice gives."""
    assert_residual_and_block_subgroups_match_references(corpus[name].build())


def reference_lemma_2_4_orders(G, sigma, N):
    """Lem2.4's two orders as the quotient path read them: the order of the
    residual of the quotient group G/N itself, and |DN/N| = |D : D n N|
    from the masks of the residual D of G and of N."""
    D = sigma_nilpotent_residual(G, sigma)
    return (sigma_nilpotent_residual(quotient_group(G, N).group, sigma).order,
            D.order // (D.mask & N.mask).bit_count())


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_lemma_2_4_sides_match_the_quotient_groups(corpus, name):
    """Lem2.4's read of G/N in G's normal lattice against the quotient
    groups it replaced, at every campaign partition and for every normal N
    with 1 < N < G: |M/N| is the order of the residual of G/N, and |DN/N|
    that of the image of D.  This keeps the residual tested on every proper
    quotient of a builtin, which the campaign no longer builds."""
    G = corpus[name].build()
    proper = [N for N in normal_subgroups(G) if 1 < N.order < G.order]
    for sigma in campaign_sigmas(G):
        sides = list(harness._lemma_2_4_sides(G, sigma, Limits()))
        assert [N for N, _, _ in sides] == proper
        for N, lhs, rhs in sides:
            assert (lhs.order // N.order, rhs.order // N.order) == \
                reference_lemma_2_4_orders(G, sigma, N), (N.order, sigma.text())


def reference_sigma_full_sylow_type_violation(G, sigma, limits=Limits()):
    """Lem2.1's scan with one down-set walk per subgroup: E's subgroups are
    the masks of G's lattice inside E's, each tested against every mask of
    G's lattice, and every block is checked, even one whose part is |E|."""
    table = _element_table(G.root, limits)
    subs = all_subgroups(G, limits)
    masks = [h.mask for h in subs]
    for e_sub in subs:
        down = [k for k in masks if k & e_sub.mask == k]
        for bid, ps, part in sigma_module._order_blocks(e_sub.order, sigma):
            halls = [k for k in down if k.bit_count() == part]
            if not halls:
                return {"subgroup": e_sub.generators, "block": bid, "missing_hall": True}
            conjugates = table.conjugates(halls[0], table.gens_of(e_sub))
            for k in down:
                if primes_of(k.bit_count()) <= ps and not any(c & k == k for c in conjugates):
                    uncovered = next(h for h in all_subgroups(e_sub, limits) if h.mask == k)
                    return {"subgroup": e_sub.generators, "block": bid,
                            "uncovered": uncovered.generators}
    return None


def assert_sylow_type_matches_reference(G):
    """The first Lem2.1 violation, or None, at every campaign partition;
    returns the violations found."""
    violations = []
    for sigma in campaign_sigmas(G):
        violation = sigma_full_sylow_type_violation(G, sigma)
        assert violation == reference_sigma_full_sylow_type_violation(G, sigma), sigma.text()
        if violation is not None:
            violations.append(violation)
    return violations


def test_sylow_type_scan_matches_the_down_set_walk(corpus):
    """Every builtin group at every campaign partition: the same first
    violation, with its subgroup, block and witness, as the walk over each
    subgroup's down-set."""
    violations = [v for entry in corpus.values()
                  for v in assert_sylow_type_matches_reference(entry.build())]
    assert len(violations) == 11
    assert sum("missing_hall" in v for v in violations) == 7


def reference_conjugate_subgroups(G, H, limits=Limits()):
    """The distinct conjugates of H under G, in breadth-first orbit order
    under G's generators, each generated greedily: the engine's former
    ``structure.conjugate_subgroups``, kept here as the reference's Sylow
    walk."""
    table = _element_table(G.root, limits)
    return tuple(structure._greedy_subgroup(G, c, limits)
                 for c in table.conjugates(H.mask, table.gens_of(G)))


def reference_sylow_maximal_candidates(G, limits=Limits()):
    """The maximal subgroups of every Sylow subgroup, found one Sylow
    subgroup at a time: each conjugate P of a Sylow p-subgroup gets its own
    cyclic-extension run, whose entries of order |P|/p are kept with their
    generators (the first found for each mask), canonically sorted.  Each
    P's maximal subgroups must also be the masks of
    ``maximal_subgroups_of_p_group``."""
    table = _element_table(G.root, limits)
    found = {}
    for p in sorted(primes_of(G.order)):
        for P in reference_conjugate_subgroups(G, sylow_subgroup(G, p, limits), limits):
            maximal = [(mask, gens) for mask, gens in
                       table.entries(_lattice_cyclic_extension(table, P.mask, limits))
                       if mask.bit_count() * p == P.order]
            assert [V.mask for V in maximal_subgroups_of_p_group(P, limits)] == \
                [mask for mask, _ in maximal]
            for mask, gens in maximal:
                found.setdefault(mask, gens)
    return sorted(found.items(), key=lambda kv: table.key(kv[0]))


def assert_sylow_maximal_candidates_match_reference(G):
    """The walk fixes the candidates' masks.  A soluble G's lattice comes
    from cyclic extension, so the walk's generators are its own; an
    insoluble G's candidates are its own lattice entries."""
    candidates = harness._sylow_maximal_candidates(G, Limits())
    reference = reference_sylow_maximal_candidates(G)
    assert [V.mask for V in candidates] == [mask for mask, _ in reference]
    if is_soluble(G):
        assert [(V.mask, V.generators) for V in candidates] == reference
    else:
        lattice = all_subgroups(G, Limits())
        assert all(any(V is h for h in lattice) for V in candidates)


def test_sylow_maximal_candidates_match_the_sylow_walk(corpus):
    """The p-subgroups of order |G|_p/p of G's lattice are the maximal
    subgroups of the Sylow subgroups as each Sylow subgroup's own
    cyclic-extension run gives them, on every builtin."""
    for entry in corpus.values():
        assert_sylow_maximal_candidates_match_reference(entry.build())


def frattini_mask_of_p_group(table, pmask, p):
    """Phi(P) = P'P^p, generated by the commutators and the p-th powers of
    the members of the p-group ``pmask``."""
    rows = table.rows
    gens = set(table.members(structure._derived_mask(table, pmask)))
    for x in table.members(pmask):
        power = 0
        for _ in range(p):
            power = rows[power][x]
        gens.add(power)
    return table.generate(sorted(gens))[0]


def test_sylow_maximal_candidates_obey_burnside_basis_theorem(corpus):
    """Inside each Sylow p-subgroup P of every builtin there are
    (p^d - 1)/(p - 1) candidates of order |P|/p, where p^d = |P:Phi(P)|,
    and each contains Phi(P) (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, on p-groups)."""
    sylows = 0
    for entry in corpus.values():
        G = entry.build()
        table = _element_table(G.root, Limits())
        candidates = harness._sylow_maximal_candidates(G, Limits())
        for p in sorted(primes_of(G.order)):
            for P in reference_conjugate_subgroups(G, sylow_subgroup(G, p)):
                sylows += 1
                phi = frattini_mask_of_p_group(table, P.mask, p)
                d = round(math.log(P.order // phi.bit_count(), p))
                assert p ** d * phi.bit_count() == P.order
                inside = [V for V in candidates
                          if V.order * p == P.order and V.mask & P.mask == V.mask]
                assert len(inside) == (p ** d - 1) // (p - 1), (entry.name, p)
                assert all(V.mask & phi == phi for V in inside), (entry.name, p)
    assert sylows == 277


def reference_is_soluble(G):
    """Solubility read off the derived series on the root's table."""
    table = _element_table(G.root, Limits())
    mask = G.mask
    while mask != 1:
        lower = structure._derived_mask(table, mask)
        if lower == mask:
            return False
        mask = lower
    return True


def test_is_soluble_is_sigma1_solubility(corpus):
    """Solubility is sigma-solubility at sigma1, one walk with a block per
    prime; on every subgroup of every builtin group it gives the verdict of
    the derived series."""
    sigma1 = SigmaPartition.sigma1()
    for name, entry in corpus.items():
        G = entry.build()
        for H in all_subgroups(G):
            assert is_soluble(H) == is_sigma_soluble(H, sigma1) == reference_is_soluble(H), \
                (name, H.generators)


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_sigma_verdicts_match_chief_series_and_lattice_filter(corpus, name):
    """The descending O^{sigma_i} series on every subgroup of every builtin
    group, and the Hall data with forced blocks read without the lattice,
    give the verdicts and data of the chief series and the lattice filter."""
    G = corpus[name].build()
    assert_sigma_verdicts_match_references(G, all_subgroups(G))


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_lattice_kernels_match_oracle(corpus, oracle_group, name):
    """Join closure on every group, cyclic extension on the soluble ones;
    every lattice entry's generators generate its element set, and join
    closure's Lagrange cut-off and its skipping of known joins change no
    entry, generator or insertion order."""
    G = corpus[name].build()
    table = _element_table(G, Limits())
    expected = oracle_group(name).subgroup_image_sets()
    joins = _lattice_join_closure(table, G.mask, Limits(), table.gens_of(G))
    assert list(joins.items()) == list(uncapped_join_closure(table, G.mask).items())
    found = [joins]
    if is_soluble(G):
        found.append(_lattice_cyclic_extension(table, G.mask, Limits()))
    for lattice in found:
        entries = table.entries(lattice)
        assert [image_set(table, mask) for mask, _ in entries] == expected
        for mask, gens in entries:
            assert oracles.close_tuples([g.images for g in gens], G.degree) == \
                image_set(table, mask)


def test_join_closure_skips_known_joins(corpus, monkeypatch):
    """On PSL(2,7), skipping the joins known from the seeds' rows leaves at
    most 60% of the closures of closing every join, with the same result."""
    G = corpus["PSL(2,7)"].build()
    table = _element_table(G, Limits())
    calls = []
    closure = structure._ElementTable.closure

    def counting(self, *args):
        calls.append(args)
        return closure(self, *args)

    monkeypatch.setattr(structure._ElementTable, "closure", counting)
    found = _lattice_join_closure(table, G.mask, Limits(), table.gens_of(G))
    kernel_closures = len(calls)
    calls.clear()
    assert list(found.items()) == list(uncapped_join_closure(table, G.mask).items())
    assert kernel_closures <= 0.6 * len(calls)


def count_closures(monkeypatch, kernel, *args):
    """The result of kernel(*args) and the number of table closures it ran."""
    calls = []
    closure = structure._ElementTable.closure

    def counting(self, *closure_args):
        calls.append(closure_args)
        return closure(self, *closure_args)

    with monkeypatch.context() as m:
        m.setattr(structure._ElementTable, "closure", counting)
        return kernel(*args), len(calls)


def test_join_closure_closes_only_for_class_representatives(corpus, monkeypatch):
    """On PSL(2,7) (179 subgroups in 15 conjugacy classes), closing joins
    only for the first member of each class leaves at most 15% of the
    closures of closing every join, with the same result."""
    G = corpus["PSL(2,7)"].build()
    table = _element_table(G, Limits())
    found, kernel_closures = count_closures(
        monkeypatch, _lattice_join_closure, table, G.mask, Limits(), table.gens_of(G))
    expected, all_closures = count_closures(monkeypatch, uncapped_join_closure, table, G.mask)
    assert list(found.items()) == list(expected.items())
    assert kernel_closures <= 0.15 * all_closures


def test_cyclic_extension_matches_reference(corpus):
    """Skipping the elements of an extension already closed changes no
    entry, generator or insertion order, on every soluble builtin group."""
    soluble = 0
    for name, entry in corpus.items():
        G = entry.build()
        if not is_soluble(G):
            continue
        soluble += 1
        table = _element_table(G, Limits())
        assert list(_lattice_cyclic_extension(table, G.mask, Limits()).items()) == \
            list(reference_cyclic_extension(table, G.mask, Limits()).items()), name
    assert soluble == 41


def alternating_group_6():
    return PermGroup(6, [Perm.parse("(1 2 3)", 6), Perm.parse("(2 3 4 5 6)", 6)])


def test_a6_lattice_has_501_subgroups_generated_by_their_generators():
    G = alternating_group_6()
    assert G.order == 360
    subs = all_subgroups(G)
    assert len(subs) == 501
    for h in subs:
        assert oracles.close_tuples([g.images for g in h.generators], G.degree) == \
            h.element_images()


def test_point_stabiliser_lattice_is_a_down_set_of_the_root_lattice():
    """A5 fixing a point of A6 is insoluble and not normal: its join closure
    must take conjugacy classes under A5's generators, not A6's.  Its
    subgroups are the down-set of A6's lattice, and its entries, generators
    included, are those of closing every join."""
    G = alternating_group_6()
    A5 = Subgroup(G, [Perm.parse("(2 3 4)", 6), Perm.parse("(2 3 4 5 6)", 6)])
    assert A5.order == 60 and not is_soluble(A5)
    assert not structure.is_normal(G, A5)
    subs = all_subgroups(A5)
    assert [h.mask for h in subs] == \
        [k.mask for k in all_subgroups(G) if k.mask & A5.mask == k.mask]
    assert len(subs) == 59
    table = _element_table(G, Limits())
    assert [(h.mask, h.generators) for h in subs] == \
        list(table.entries(uncapped_join_closure(table, A5.mask)))


@st.composite
def _generator(draw, degree):
    """A permutation of 0..degree-1; half of them preserve the blocks
    {0..k-1} and {k..degree-1}, which gives intransitive groups."""
    if draw(st.booleans()):
        return Perm(draw(st.permutations(range(degree))))
    k = degree // 2
    low = draw(st.permutations(range(k)))
    high = draw(st.permutations(range(k, degree)))
    return Perm(tuple(low) + tuple(high))


@st.composite
def small_groups(draw, max_order=72):
    degree = draw(st.integers(3, 7))
    gens = draw(st.lists(_generator(degree), min_size=1, max_size=3))
    G = PermGroup(degree, gens)
    assume(6 <= G.order <= max_order)
    return G


def tuple_conjugates(G, hset):
    """The old tuple walk: conjugate whole sets by each generator, breadth first."""
    return oracles.conjugate_orbit([g.images for g in G.generators], hset)


@pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
def test_conjugate_image_sets_match_tuple_conjugation(corpus, name):
    """Same conjugates in the same orbit order, for every lattice member."""
    G = corpus[name].build()
    for h in all_subgroups(G):
        assert conjugate_image_sets(G, h.element_images()) == \
            tuple_conjugates(G, h.element_images())


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_mask_walk_matches_tuple_conjugation(corpus, name):
    """The mask walk of the element table gives the tuple walk's conjugates
    in its order, and each conjugate's element x conjugates the members of
    the subgroup onto it, for every lattice member."""
    G = corpus[name].build()
    table = _element_table(G.root, Limits())
    images = list(table.index)
    for h in all_subgroups(G):
        hset = h.element_images()
        walk = table.conjugates(h.mask, table.gens_of(G))
        assert next(iter(walk.items())) == (h.mask, 0)
        assert [image_set(table, c) for c in walk] == tuple_conjugates(G, hset)
        for c, x in walk.items():
            assert image_set(table, c) == frozenset(
                oracles.conjugate(e, images[x]) for e in hset)


RANDOM_GROUPS = settings(derandomize=True, deadline=None,
                         suppress_health_check=[HealthCheck.filter_too_much,
                                                HealthCheck.too_slow])


@settings(RANDOM_GROUPS, max_examples=150)
@given(small_groups())
def test_random_groups_match_oracle(G):
    tg = oracles.TupleGroup([g.images for g in G.generators], G.degree)
    assert image_sets(all_subgroups(G)) == tg.subgroup_image_sets()
    assert image_sets(normal_subgroups(G)) == tg.normal_image_sets()
    assert is_soluble(G) == tg.mt.is_soluble()
    table = _element_table(G.root, Limits())
    joins = _lattice_join_closure(table, G.mask, Limits(), table.gens_of(G))
    assert list(joins.items()) == list(uncapped_join_closure(table, G.mask).items())
    if is_soluble(G):
        assert list(_lattice_cyclic_extension(table, G.mask, Limits()).items()) == \
            list(reference_cyclic_extension(table, G.mask, Limits()).items())
    assert_sigma_verdicts_match_references(G, [G])
    assert_residual_and_block_subgroups_match_references(G)
    assert_sylow_type_matches_reference(G)
    assert_sylow_maximal_candidates_match_reference(G)


@settings(RANDOM_GROUPS, max_examples=100)
@given(small_groups(), st.data())
def test_random_residual_sigma_nilpotency_and_quotients_match_oracle(G, data):
    """The classical residual order; sigma-nilpotency for a drawn sigma, read
    as "every block of sigma(G) has a normal Hall subgroup"; and for every
    normal N the order of G/N, the kernel of the projection, the
    homomorphism property and the sigma-nilpotency of G/N, against the
    oracle's coset table; and for every normal N and campaign partition, the
    same sigma-nilpotency verdict as the normal-lattice read."""
    tg = oracles.TupleGroup([g.images for g in G.generators], G.degree)
    assert (sigma_nilpotent_residual(G, SigmaPartition.sigma1()).order
            == oracles.nilpotent_residual_order(tg))

    parts = tg.mt.sylow_parts()
    # label 0 leaves a prime unlisted, so it falls into the rest block
    labels = data.draw(st.lists(st.integers(0, len(parts)),
                                min_size=len(parts), max_size=len(parts)))
    blocks: dict[int, set] = {}
    for p, label in zip(sorted(parts), labels):
        blocks.setdefault(label, set()).add(p)
    sigma = SigmaPartition.of_blocks(*(b for label, b in blocks.items() if label))
    normal_orders = {len(s) for s in tg.normal_image_sets()}
    expected = all(math.prod(parts[p] for p in b) in normal_orders
                   for b in blocks.values())
    assert is_sigma_nilpotent(G, sigma) == expected

    elements = G.elements()
    for N in normal_subgroups(G):
        q = quotient_group(G, N)
        mq = tg.mt.quotient(frozenset(tg.index[e] for e in N.element_images()))
        assert q.group.order == mq.order == G.order // N.order
        q_parts = mq.sylow_parts()
        q_normal_orders = {len(s) for s in mq.normal_subgroups()}
        assert sigma_module._quotient_is_sigma_nilpotent(G, N, sigma, Limits()) == all(
            math.prod(q_parts.get(p, 1) for p in b) in q_normal_orders for b in blocks.values())
        assert {x.images for x in elements if q.project(x).is_identity()} == \
            N.element_images()
        for a in elements:
            for g in G.generators:
                assert q.project(a * g) == q.project(a) * q.project(g)
    assert_sigma_nilpotency_matches_lattice_read(G)
