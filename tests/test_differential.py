"""The element-indexed kernels against the brute-force oracle, on builtin
groups and on random small permutation groups."""

import itertools
import math
from itertools import compress

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from sigmagroups import Limits, Perm, PermGroup, Subgroup, builtin_corpus, trivial_subgroup
from sigmagroups import sigma as sigma_module
from sigmagroups import structure
from sigmagroups.harness import campaign_sigmas
from sigmagroups.sigma import (SigmaPartition, is_pi_separable, is_sigma_nilpotent,
                               is_sigma_primary, is_sigma_soluble, largest_normal_block_subgroup,
                               sigma_full_sylow_type_violation, sigma_nilpotent_residual)
from sigmagroups.errors import InvariantError
from sigmagroups.numbers import is_prime, is_prime_power, part_for_primes, primes_of
from sigmagroups.permcore import _mask, closure_of_images
from sigmagroups.structure import (_element_table, _lattice_cyclic_extension,
                                   _lattice_join_closure, all_subgroups, chief_series,
                                   conjugate_image_sets, is_soluble,
                                   normal_subgroups, quotient_group)


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
               for _, ps, _ in sigma_module._group_blocks(G, sigma))


def assert_sigma_nilpotency_matches_lattice_read(G):
    for sigma in campaign_sigmas(G):
        for N in normal_subgroups(G):
            assert sigma_module._quotient_is_sigma_nilpotent(G, N, sigma, Limits()) == \
                lattice_quotient_is_sigma_nilpotent(G, N, sigma), (N.order, sigma.text())


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_sigma_nilpotency_matches_the_normal_lattice_read(corpus, name):
    """The test on the subgroups generated by sigma_i-elements against the
    normal-lattice read, for every normal N and campaign partition."""
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
    naive walk of ``tuple_conjugates``, each member as its sorted indices on
    the root's table."""
    table = _element_table(G.root, limits)
    blocks = []
    for bid, ps, part in sigma_module._group_blocks(G, sigma):
        # all_subgroups is sorted canonically, so the candidates are too
        candidates = tuple(h.mask for h in all_subgroups(G, limits) if h.order == part)
        cand_sets = [table.image_set(mask) for mask in candidates]
        classes = []
        unassigned = set(cand_sets)
        for hset in cand_sets:
            if hset in unassigned:
                orbit = tuple_conjugates(G, hset)
                unassigned.difference_update(orbit)
                classes.append(tuple(tuple(sorted(map(table.index.__getitem__, c)))
                                     for c in orbit))
        blocks.append({"id": bid, "primes": ps, "part": part,
                       "candidates": candidates, "classes": tuple(classes)})
    return blocks


def unordered_classes(blocks):
    """Hall data with each conjugacy class as a set: the reference lists a
    class in orbit order under G's generators, the engine by element list."""
    return [{**block, "classes": tuple(map(frozenset, block["classes"]))} for block in blocks]


def assert_sigma_verdicts_match_references(G, subgroups):
    """Sigma-solubility of each subgroup and the Hall data of G at every
    campaign partition, and pi-separability of G for every set of its
    primes, against the chief-series and lattice-filter references."""
    for sigma in campaign_sigmas(G):
        for H in subgroups:
            assert is_sigma_soluble(H, sigma) == reference_is_sigma_soluble(H, sigma), \
                (H.generators, sigma.text())
        assert unordered_classes(sigma_module._hall_data(G, sigma, Limits())) == \
            unordered_classes(reference_hall_data(G, sigma, Limits())), sigma.text()
    primes = sorted(primes_of(G.order))
    for k in range(len(primes) + 1):
        for pi in itertools.combinations(primes, k):
            assert is_pi_separable(G, pi) == reference_is_pi_separable(G, pi), pi


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
    of O_pi(D); both against the normal-lattice references."""
    sigmas = campaign_sigmas(G)
    for sigma in sigmas:
        D = sigma_nilpotent_residual(G, sigma)
        expected = reference_sigma_nilpotent_residual(G, sigma)
        assert (D.mask, D.generators) == (expected.mask, expected.generators), sigma.text()
    blocks = {ps for sigma in sigmas for _, ps, _ in sigma_module._group_blocks(G, sigma)}
    for D in normal_subgroups(G):
        for ps in blocks:
            assert largest_normal_block_subgroup(D, ps).mask == \
                reference_largest_normal_block_mask(D, ps), (D.generators, sorted(ps))


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_residual_and_block_subgroups_match_the_normal_lattice_read(corpus, name):
    """The residual as a join of the O^{sigma_i}(R_i) and O_pi(D) as a join
    of class closures give the subgroups the normal lattice gives."""
    assert_residual_and_block_subgroups_match_references(corpus[name].build())


def reference_sigma_full_sylow_type_violation(G, sigma, limits=Limits()):
    """Lem2.1's scan with one down-set walk per subgroup: E's subgroups are
    the masks of G's lattice inside E's, each tested against every mask of
    G's lattice, and every block is checked, even one whose part is |E|."""
    table = _element_table(G.root, limits)
    subs = all_subgroups(G, limits)
    masks = [h.mask for h in subs]
    for e_sub in subs:
        down = [k for k in masks if k & e_sub.mask == k]
        for bid, ps, part in sigma_module._group_blocks(e_sub, sigma):
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
        assert [table.image_set(mask) for mask, _ in entries] == expected
        for mask, gens in entries:
            assert closure_of_images(G.degree, [g.images for g in gens]) == table.image_set(mask)


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
        assert closure_of_images(G.degree, [g.images for g in h.generators]) == \
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
    for h in all_subgroups(G):
        hset = h.element_images()
        walk = table.conjugates(h.mask, table.gens_of(G))
        assert next(iter(walk.items())) == (h.mask, 0)
        assert [table.image_set(c) for c in walk] == tuple_conjugates(G, hset)
        for c, x in walk.items():
            assert table.image_set(c) == frozenset(
                oracles.conjugate(e, table.images[x]) for e in hset)


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
