"""The element-indexed lattice kernels against the brute-force oracle, on
every builtin group and on random small permutation groups."""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from sigmagroups import Limits, Perm, PermGroup, builtin_corpus
from sigmagroups.structure import (_element_table, _lattice_cyclic_extension,
                                   _lattice_join_closure, all_subgroups,
                                   closure_of_images, is_soluble, normal_subgroups)


def image_sets(subgroups):
    return sorted((frozenset(s.element_images()) for s in subgroups),
                  key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_lattice_kernels_match_oracle(corpus, oracle_group, name):
    """Join closure on every group, cyclic extension on the soluble ones;
    every lattice entry's generators generate its element set."""
    G = corpus[name].build()
    table = _element_table(G, Limits())
    expected = oracle_group(name).subgroup_image_sets()
    kernels = [_lattice_join_closure]
    if is_soluble(G):
        kernels.append(_lattice_cyclic_extension)
    for kernel in kernels:
        entries = table.entries(kernel(table, Limits()))
        assert [iset for iset, _ in entries] == expected
        for iset, gens in entries:
            assert closure_of_images(G.degree, [g.images for g in gens]) == iset


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


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_groups())
def test_random_groups_match_oracle(G):
    tg = oracles.TupleGroup([g.images for g in G.generators], G.degree)
    assert image_sets(all_subgroups(G)) == tg.subgroup_image_sets()
    assert image_sets(normal_subgroups(G)) == tg.normal_image_sets()
    assert is_soluble(G) == tg.mt.is_soluble()
