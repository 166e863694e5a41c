"""Permutation arithmetic, cycle-notation I/O, stabilizer chains, subgroups."""

import dataclasses
import pickle
import re

import pytest
from hypothesis import given, strategies as st

import oracles
from sigmagroups import (CapacityError, GroupInputError, Perm, PermGroup,
                         Subgroup, conjugate_subgroup, full_subgroup, interned,
                         trivial_subgroup)
from sigmagroups.errors import MAX_TABLE_ORDER, InvariantError
from sigmagroups.permcore import clear_intern_cache, format_cycles, parse_cycles


def perms(degree):
    return st.permutations(range(degree)).map(Perm)


# ---------------------------------------------------------------------------
# cycle notation

def test_parse_cycles_basic():
    assert parse_cycles("(1 2 3)(4 5)", 5) == (1, 2, 0, 4, 3)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("(2 1)", 4) == (1, 0, 2, 3)


def test_parse_cycles_tolerates_commas_and_whitespace():
    assert parse_cycles(" (1, 2)  (3 ,4) ", 4) == (1, 0, 3, 2)


def test_parse_cycles_fixed_points_are_implicit():
    assert parse_cycles("(2 3)", 5) == (0, 2, 1, 3, 4)


@pytest.mark.parametrize("bad", [
    "", "   ", "1 2 3", "(1 2", "(1 2)(2 3)", "(0 1)", "(1 9)", "(1 1)",
    "(1 2) junk",
])
def test_parse_cycles_rejects_bad_text(bad):
    with pytest.raises(GroupInputError):
        parse_cycles(bad, 5)


@pytest.mark.parametrize("bad, rest", [
    ("1 2 3", "1 2 3"), ("(1 2", "(1 2"), ("(1 2) junk", "junk"), ("(1 2)x(3 4)", "x(3 4)"),
    ("(1 2)  ,(3", "(3"), ("(1 2 x, ", "(1 2 x "),
])
def test_parse_cycles_names_the_text_it_could_not_read(bad, rest):
    """The message quotes the text from the first place no cycle starts,
    past the one space that separators become."""
    with pytest.raises(GroupInputError, match=f"^bad cycle text at {re.escape(repr(rest))}$"):
        parse_cycles(bad, 5)


@pytest.mark.parametrize("text", [",(1 2)", "(1 2),", " , (1 2) ,\t", "(1 2),,"])
def test_parse_cycles_reads_leading_and_trailing_separators(text):
    assert parse_cycles(text, 3) == (1, 0, 2)


@pytest.mark.parametrize("token", ["9" * 5000, "1" * 5000, "10" + "0" * 4999, "0" * 5000],
                         ids=["5000 nines", "5000 ones", "one and 4999 zeros", "5000 zeros"])
def test_parse_cycles_rejects_an_overlong_point_before_reading_it(token):
    # int refuses more than 4300 digits; the point is rejected as out of range first
    with pytest.raises(GroupInputError, match=r"^point \d+ outside 1\.\.5$"):
        parse_cycles(f"(1 {token})", 5)


def test_parse_cycles_accepts_leading_zeros():
    assert parse_cycles("(01 " + "0" * 5000 + "2)", 5) == (1, 0, 2, 3, 4)
    assert parse_cycles("(0010 2)", 10) == (0, 9, 2, 3, 4, 5, 6, 7, 8, 1)


def test_format_cycles_least_point_first():
    assert format_cycles((1, 2, 0, 4, 3)) == "(1 2 3)(4 5)"
    assert format_cycles((0, 1, 2)) == "()"
    assert format_cycles((0, 2, 1)) == "(2 3)"


@given(st.permutations(range(7)))
def test_parse_format_round_trip(images):
    images = tuple(images)
    assert parse_cycles(format_cycles(images), 7) == images


# ---------------------------------------------------------------------------
# Perm value type

def test_perm_rejects_non_permutation():
    with pytest.raises(GroupInputError):
        Perm((0, 0, 1))
    with pytest.raises(GroupInputError):
        Perm((1, 2))


def test_perm_composition_is_left_to_right():
    a = Perm.parse("(1 2)", 3)
    b = Perm.parse("(2 3)", 3)
    # apply a first: 1->2, then b: 2->3, so 1->3
    assert str(a * b) == "(1 3 2)"
    assert (a * b)(0) == 2


def test_perm_call_applies_image():
    p = Perm.parse("(1 2 3)", 3)
    assert [p(i) for i in range(3)] == [1, 2, 0]


def test_perm_identity_and_is_identity():
    e = Perm.identity(4)
    assert e.is_identity()
    assert str(e) == "()"
    assert not Perm.parse("(1 2)", 4).is_identity()


def test_perm_order():
    assert Perm.parse("(1 2 3)(4 5)", 5).order() == 6
    assert Perm.identity(3).order() == 1


def test_perm_degree_mismatch_raises():
    with pytest.raises(GroupInputError):
        Perm.parse("(1 2)", 3) * Perm.parse("(1 2)", 4)
    with pytest.raises(GroupInputError):
        Perm.parse("(1 2)", 3) ** Perm.parse("(1 2)", 4)


def test_perm_is_immutable_hashable_ordered():
    p = Perm.parse("(1 2)", 3)
    q = Perm.parse("(1 2)", 3)
    with pytest.raises(AttributeError):
        p.images = (0, 1, 2)
    assert p == q and hash(p) == hash(q)
    assert sorted([Perm.parse("(1 3)", 3), Perm.identity(3)])[0] == Perm.identity(3)
    assert len({p, q}) == 1


def test_perm_pickle_round_trip():
    for p in (Perm.parse("(1 2 3)(4 5)", 6), Perm.identity(1)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            q = pickle.loads(pickle.dumps(p, protocol))
            assert q == p and q.images == p.images and isinstance(q, Perm)


def test_perm_is_not_equal_to_its_image_tuple():
    assert (Perm((1, 0)) == (1, 0)) is False
    assert Perm((1, 0)) != (1, 0) and (1, 0) != Perm((1, 0))


@pytest.mark.parametrize("other", [(1, 0, 2), [1, 0, 2], "(1 2)", None], ids=repr)
def test_perm_does_not_order_against_a_non_perm(other):
    """Each comparison answers NotImplemented both ways, so Python raises
    TypeError."""
    p = Perm((0, 1, 2))
    for compare in (Perm.__lt__, Perm.__le__, Perm.__gt__, Perm.__ge__):
        assert compare(p, other) is NotImplemented
    with pytest.raises(TypeError):
        p < other
    with pytest.raises(TypeError):
        other >= p


def test_perm_is_declared_by_its_image_field_alone():
    """No attribute can be added, changed or deleted: each is refused with
    ``FrozenInstanceError``, an AttributeError."""
    assert [f.name for f in dataclasses.fields(Perm)] == ["images"]
    p = Perm((2, 0, 1))
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.degree_hint = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.images = (0, 1, 2)
    assert not hasattr(p, "degree_hint")
    with pytest.raises(AttributeError):
        del p.images
    assert p.images == (2, 0, 1)


@pytest.mark.parametrize("images", [(1.0, 0), (0, 1, 2.0), (0.5, 0), (0, "1"), ("a",),
                                    (0, None), (1, 0j), (True, False), (0, True)], ids=repr)
def test_perm_rejects_non_int_images(images):
    """1.0 == 1 passes a sorted comparison with 0..n-1, so a float image was
    accepted and its repr raised; other non-ints raised TypeError.  A bool
    is an int subclass, and True == 1, so bool images were accepted as
    they were given; the package refuses bools as degrees too."""
    with pytest.raises(GroupInputError, match="not a permutation"):
        Perm(images)


def test_perm_accepts_int_images_of_any_iterable():
    for images in ([1, 0], range(3), b"\x01\x00", (n for n in (2, 0, 1))):
        p = Perm(images)
        assert all(type(i) is int for i in p.images) and repr(p)


@pytest.mark.parametrize("degree", [0, 1])
def test_degree_0_and_1_perms_compose(degree):
    """A gather of one point is a scalar and of none an error, so these
    degrees take compose_images' short path; Perm.identity(0) is Perm(())."""
    e = Perm.identity(degree)
    assert e.images == tuple(range(degree)) and str(e) == "()"
    for p in (e * e, e ** e, e.inverse(), (e * e) ** e):
        assert p == e and isinstance(p.images, tuple)


@given(perms(6), perms(6))
def test_product_inverse_law(p, q):
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(perms(6))
def test_double_inverse(p):
    assert p.inverse().inverse() == p
    assert (p * p.inverse()).is_identity()


@given(perms(6), perms(6))
def test_conjugation_definition(h, x):
    assert h ** x == x.inverse() * h * x


@given(perms(6), perms(6), perms(6))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms(7))
def test_order_is_minimal_exponent(p):
    n = p.order()
    acc = p
    for _ in range(n - 1):
        assert not acc.is_identity()
        acc = acc * p
    assert acc.is_identity()


# ---------------------------------------------------------------------------
# PermGroup: stabilizer chain vs brute-force closure

def gens_of(corpus, name):
    return list(corpus[name].generators)


@pytest.mark.parametrize("name", ["C1", "S3", "A4", "S4", "Q8", "D12", "A5"])
def test_group_order_and_elements_match_closure(corpus, name):
    e = corpus[name]
    G = PermGroup(e.degree, e.generators)
    brute = oracles.close_tuples([tuple(p.images) for p in e.generators], e.degree)
    assert G.order == len(brute)
    assert G.element_images() == brute


def test_membership_positive_and_negative(corpus):
    e = corpus["A4"]
    G = PermGroup(e.degree, e.generators)
    brute = oracles.close_tuples([tuple(p.images) for p in e.generators], e.degree)
    for images in brute:
        assert Perm(images) in G
    assert Perm.parse("(1 2)", 4) not in G          # odd permutation
    assert Perm.parse("(1 2)", 5) not in G          # degree mismatch
    assert "(1 2)" not in G                         # non-Perm


def test_elements_are_sorted_and_cached(corpus):
    e = corpus["S3"]
    G = PermGroup(e.degree, e.generators)
    elems = G.elements()
    assert list(elems) == sorted(elems)
    assert G.elements() is elems


def test_construction_is_deterministic(corpus):
    e = corpus["S4"]
    g1 = PermGroup(e.degree, e.generators)
    g2 = PermGroup(e.degree, e.generators)
    assert g1.order == g2.order
    assert g1.elements() == g2.elements()


def test_no_group_above_the_table_ceiling_is_listed(monkeypatch):
    """No table indexes more than ``MAX_TABLE_ORDER`` elements, so S9 is
    refused, naming that ceiling, before any element is listed: its chain
    is never walked for elements."""
    G = PermGroup(9, [Perm.parse("(1 2 3 4 5 6 7 8 9)", 9), Perm.parse("(1 2)", 9)])
    assert G.order == 362880 > MAX_TABLE_ORDER
    gathers = []
    monkeypatch.setattr(G, "_gather", lambda *a: gathers.append(a))
    for listing in (G.elements, G.element_images, G.element_index):
        with pytest.raises(CapacityError, match="^group order 362880 exceeds 65536, the "
                           "largest group order whose elements are listed$"):
            listing()
    assert gathers == [] and G._elements is None


def test_trivial_group():
    G = PermGroup(3)
    assert G.order == 1
    assert G.elements() == (Perm.identity(3),)


def test_degree_1_group():
    G = PermGroup(1, [Perm.identity(1)])
    assert G.generators == () and G.order == 1
    assert G.elements() == (Perm.identity(1),)
    assert Perm.identity(1) in G
    assert Perm(()) not in G and Perm.identity(2) not in G


@pytest.mark.parametrize("degree", [-1, -300, 2.5, 3.0, "3", None, True, 1j], ids=repr)
def test_bad_degree_is_an_input_error(degree):
    """A negative degree failed in the byte pad with ValueError, a float or
    a string in a comparison with TypeError; a bool is not a degree either."""
    with pytest.raises(GroupInputError, match="is not a non-negative int"):
        PermGroup(degree)


def test_degree_0_group():
    G = PermGroup(0, [Perm(())])
    assert G.generators == () and G.order == 1
    assert G.elements() == (Perm(()),) and Perm(()) in G


def test_degree_2_group():
    t = Perm.parse("(1 2)", 2)
    G = PermGroup(2, [t])
    assert G.order == 2
    assert G.elements() == (Perm.identity(2), t)
    assert t in G and t * t in G
    assert Perm.identity(1) not in G and Perm.parse("(1 2)", 3) not in G


def test_generator_validation():
    with pytest.raises(GroupInputError):
        PermGroup(3, [Perm.parse("(1 2)", 4)])
    with pytest.raises(GroupInputError):
        PermGroup(3, ["(1 2)"])


def test_identity_generators_are_dropped(corpus):
    e = corpus["S3"]
    G = PermGroup(3, list(e.generators) + [Perm.identity(3)])
    assert Perm.identity(3) not in G.generators
    assert G.order == 6


def test_interning_returns_canonical_instance(corpus):
    e = corpus["S3"]
    a = interned(PermGroup(e.degree, e.generators))
    b = interned(PermGroup(e.degree, tuple(reversed(e.generators))))
    assert a is b
    a.cache["probe"] = 1
    assert b.cache["probe"] == 1
    del a.cache["probe"]


# ---------------------------------------------------------------------------
# Subgroup

def test_subgroup_of_enumerated_ambient_uses_its_bound():
    # a subgroup is listed under the ceiling that admitted its ambient: S8
    # is listed, and so is its subgroup A8 (order 20160), with no bound passed
    G = interned(PermGroup(8, [Perm.parse("(1 2 3 4 5 6 7 8)", 8), Perm.parse("(1 2)", 8)]))
    assert len(G.elements()) == 40320
    try:
        A8 = Subgroup(G, [Perm.parse("(1 2 3)", 8), Perm.parse("(2 3 4 5 6 7 8)", 8)])
        assert A8.order == len(A8.element_images()) == 20160
    finally:
        clear_intern_cache()


def test_subgroup_requires_membership(corpus):
    G = corpus["A4"].build()
    with pytest.raises(GroupInputError):
        Subgroup(G, [Perm.parse("(1 2)", 4)])


def test_subgroup_equality_ignores_generating_set(corpus):
    G = corpus["S3"].build()
    a = Subgroup(G, [Perm.parse("(1 2 3)", 3)])
    b = Subgroup(G, [Perm.parse("(1 3 2)", 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.order == 3


def test_trivial_and_full_subgroups(corpus):
    G = corpus["Q8"].build()
    assert trivial_subgroup(G).order == 1
    assert full_subgroup(G).order == G.order
    assert full_subgroup(G).element_images() == G.element_images()


def test_conjugate_subgroup(corpus):
    G = corpus["S3"].build()
    h = Subgroup(G, [Perm.parse("(1 2)", 3)])
    x = Perm.parse("(1 2 3)", 3)
    hx = conjugate_subgroup(h, x)
    assert hx.order == 2
    assert hx.element_images() == Subgroup(G, [Perm.parse("(2 3)", 3)]).element_images()
    with pytest.raises(GroupInputError):
        conjugate_subgroup(h, Perm.parse("(1 2)", 4))
    # x must lie in the subgroup's root: (1 2) is in S4 but not in A4
    A4 = corpus["A4"].build()
    k = Subgroup(A4, [Perm.parse("(1 2)(3 4)", 4)])
    with pytest.raises(GroupInputError, match="not in the root group"):
        conjugate_subgroup(k, Perm.parse("(1 2)", 4))


# ---------------------------------------------------------------------------
# internal checks raise InvariantError, which python -O keeps

def test_lagrange_check_raises():
    S3 = PermGroup(3, [Perm.parse("(1 2 3)", 3), Perm.parse("(1 2)", 3)])
    C4 = PermGroup(4, [Perm.parse("(1 2 3 4)", 4)])
    with pytest.raises(InvariantError, match="Lagrange"):
        Subgroup._of_mask(S3, C4.mask, ())


def test_conjugate_order_check_raises(monkeypatch):
    S3 = PermGroup(3, [Perm.parse("(1 2 3)", 3), Perm.parse("(1 2)", 3)])
    h = Subgroup(S3, [Perm.parse("(1 2 3)", 3)])
    monkeypatch.setattr(Perm, "__pow__", lambda self, x: Perm.identity(self.degree))
    with pytest.raises(InvariantError, match="conjugate"):
        conjugate_subgroup(h, Perm.parse("(1 2)", 3))
