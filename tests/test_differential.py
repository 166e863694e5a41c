"""The element-indexed kernels against the brute-force oracle, on builtin
groups and on random small permutation groups."""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from sigmagroups import Limits, Perm, PermGroup, builtin_corpus
from sigmagroups import sigma as sigma_module
from sigmagroups.sigma import SigmaPartition, is_sigma_nilpotent, sigma_nilpotent_residual
from sigmagroups.numbers import is_prime_power
from sigmagroups.permcore import _mask, closure_of_images
from sigmagroups.structure import (_element_table, _lattice_cyclic_extension,
                                   _lattice_join_closure, all_subgroups,
                                   conjugate_image_sets, is_soluble,
                                   normal_subgroups, quotient_group)


def image_sets(subgroups):
    return sorted((frozenset(s.element_images()) for s in subgroups),
                  key=lambda s: (len(s), sorted(s)))


def uncapped_join_closure(table, gmask):
    """The join-closure kernel without its Lagrange cut-off: every join is
    closed to the end."""
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


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_lattice_kernels_match_oracle(corpus, oracle_group, name):
    """Join closure on every group, cyclic extension on the soluble ones;
    every lattice entry's generators generate its element set, and join
    closure's Lagrange cut-off changes no entry, generator or order."""
    G = corpus[name].build()
    table = _element_table(G, Limits())
    expected = oracle_group(name).subgroup_image_sets()
    joins = _lattice_join_closure(table, G.mask, Limits())
    assert list(joins.items()) == list(uncapped_join_closure(table, G.mask).items())
    found = [joins]
    if is_soluble(G):
        found.append(_lattice_cyclic_extension(table, G.mask, Limits()))
    for lattice in found:
        entries = table.entries(lattice)
        assert [table.image_set(mask) for mask, _ in entries] == expected
        for mask, gens in entries:
            assert closure_of_images(G.degree, [g.images for g in gens]) == table.image_set(mask)


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
    gen_pairs = [(g.images, oracles.inverse(g.images)) for g in G.generators]
    out = [frozenset(hset)]
    for s in out:
        for g, gi in gen_pairs:
            c = frozenset(oracles.compose(oracles.compose(gi, e), g) for e in s)
            if c not in out:
                out.append(c)
    return out


@pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
def test_conjugate_image_sets_match_tuple_conjugation(corpus, name):
    """Same conjugates in the same orbit order, for every lattice member."""
    G = corpus[name].build()
    for h in all_subgroups(G):
        assert conjugate_image_sets(G, h.element_images()) == \
            tuple_conjugates(G, h.element_images())


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
    assert list(_lattice_join_closure(table, G.mask, Limits()).items()) == \
        list(uncapped_join_closure(table, G.mask).items())


@settings(RANDOM_GROUPS, max_examples=100)
@given(small_groups(), st.data())
def test_random_residual_sigma_nilpotency_and_quotients_match_oracle(G, data):
    """The classical residual order; sigma-nilpotency for a drawn sigma, read
    as "every block of sigma(G) has a normal Hall subgroup"; and for every
    normal N the order of G/N, the kernel of the projection, the
    homomorphism property and the sigma-nilpotency of G/N read off G's
    normal lattice, against the oracle's coset table."""
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
