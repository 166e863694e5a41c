"""Prime partitions and the sigma-class predicates.

The permutability checker is cross-validated against a naive implementation
of the definition: enumerate every complete Hall sigma-set and test the
product-set condition for every member and every conjugating element.
"""

import functools
import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import image_set
from sigmagroups import (CampaignConfig, CapacityError, GroupInputError, Limits, Perm,
                         PermGroup, Subgroup, builtin_corpus, builtin_entry, full_subgroup,
                         parse_sigma, run_campaign, trivial_subgroup)
from sigmagroups import sigma as sigma_module
from sigmagroups import structure as structure_module
from sigmagroups.numbers import part_for_primes, primes_of
from sigmagroups.errors import InvariantError
from sigmagroups.permcore import clear_intern_cache, compose_images, conjugate_images
from sigmagroups.sigma import (SigmaPartition, complete_hall_sigma_set,
                               induces_power_automorphisms, is_pi_separable,
                               is_psigma_t, is_sigma_nilpotent, is_sigma_permutable,
                               is_sigma_primary, is_sigma_soluble,
                               largest_normal_block_subgroup,
                               psigma_t_violation, sigma_full_sylow_type_violation,
                               sigma_nilpotent_residual, sigma_of_group,
                               sigma_of_int, sigma_permutable_sets)
from sigmagroups.corpus import partitions_of_primes
from sigmagroups import harness as harness_module
from sigmagroups.harness import (campaign_sigmas, run_statements, verify_lemma_2_2,
                                 verify_lemma_2_3, verify_lemma_2_4)
from sigmagroups.structure import (all_subgroups, hall_subgroup, is_normal, normal_subgroups,
                                   quotient_group, sylow_subgroup)

S1 = SigmaPartition.sigma1()


def sub(G, *texts):
    return Subgroup(G, [Perm.parse(t, G.degree) for t in texts])


# ---------------------------------------------------------------------------
# SigmaPartition and parsing

def test_blocks_are_normalized_and_sorted():
    s = SigmaPartition.of_blocks({5}, {3, 2})
    assert s.blocks == (frozenset({2, 3}), frozenset({5}))
    assert s.text() == "[2,3][5]"


@pytest.mark.parametrize("name", ["S4", "A5"])
@pytest.mark.parametrize("blocks", [({2, 3},), ({2}, {3}), ([5, 3], {2})], ids=str)
def test_a_partition_of_plain_sets_gives_the_verdicts_of_of_blocks(name, blocks):
    """Blocks handed to the constructor as sets or lists are frozen, so the
    partition hashes, equals its ``of_blocks`` spelling, and gives the same
    verdicts, asked first on a fresh root so that it computes them."""
    plain, frozen = SigmaPartition(blocks=blocks), SigmaPartition.of_blocks(*blocks)
    assert (plain, hash(plain), plain.text()) == (frozen, hash(frozen), frozen.text())
    assert all(type(b) is frozenset for b in plain.blocks)

    def verdicts(sigma):
        clear_intern_cache()
        G = builtin_entry(name).build()
        hall_set = complete_hall_sigma_set(G, sigma)
        return (is_sigma_soluble(G, sigma), is_sigma_nilpotent(G, sigma),
                is_psigma_t(G, sigma), sigma_nilpotent_residual(G, sigma).order,
                sigma_full_sylow_type_violation(G, sigma),
                hall_set and hall_set.member_orders())

    assert verdicts(plain) == verdicts(frozen)
    clear_intern_cache()


def test_partition_validation():
    with pytest.raises(GroupInputError):
        SigmaPartition.of_blocks(set())            # empty block
    with pytest.raises(GroupInputError):
        SigmaPartition.of_blocks({2}, {2, 3})      # repeated prime
    with pytest.raises(GroupInputError):
        SigmaPartition.of_blocks({4})              # not a prime
    with pytest.raises(GroupInputError):
        SigmaPartition(blocks=(frozenset({2}),), classical=True)
    with pytest.raises(GroupInputError, match="more than 9 digits"):
        SigmaPartition.of_blocks({2}, {10 ** 15 + 37})   # no trial division


@pytest.mark.parametrize("bad, message", [
    (4, "4 is not a prime"), (6, "6 is not a prime"), (0, "0 is not a prime"),
    (1, "1 is not a prime"), (True, "must be an int, got True"),
    (2.5, "must be an int, got 2.5"), ("3", "must be an int, got '3'"),
    (1000000007, "more than 9 digits")])
def test_every_prime_argument_is_checked(corpus, bad, message):
    """A prime handed to the engine is an ``int`` (not a bool), prime, and of
    at most 9 digits, counted before any trial division: each call that
    takes a prime or a set of primes refuses anything else."""
    S4 = corpus["S4"].build()
    calls = {"SigmaPartition": lambda: SigmaPartition.of_blocks({bad}),
             "block_id": lambda: S1.block_id(bad),
             "partitions_of_primes": lambda: partitions_of_primes([2, bad]),
             "sylow_subgroup": lambda: sylow_subgroup(S4, bad),
             "hall_subgroup": lambda: hall_subgroup(S4, [2, bad]),
             "is_pi_separable": lambda: is_pi_separable(S4, [bad]),
             "largest_normal_block_subgroup":
                 lambda: largest_normal_block_subgroup(full_subgroup(S4), [2, bad]),
             "verify_lemma_2_2": lambda: verify_lemma_2_2(S4, [bad])}
    refused = {}
    for name, call in calls.items():
        try:
            call()
        except GroupInputError as exc:
            refused[name] = message in str(exc)
    assert refused == dict.fromkeys(calls, True)


def test_block_id_and_primes():
    s = parse_sigma("[2,3][5]")
    assert s.block_id(2) == "2,3" and s.block_id(3) == "2,3"
    assert s.block_id(5) == "5"
    assert s.block_id(7) == SigmaPartition.REST
    assert S1.block_id(7) == "7"
    with pytest.raises(GroupInputError):
        s.block_id(6)


def test_text_and_parse_round_trip():
    for text in ["sigma1", "[]", "[2,3][5]", "[2][3][5]", "[2,3,5]"]:
        assert parse_sigma(text).text() == text
    assert parse_sigma("SIGMA1").classical
    assert parse_sigma("[3][2]").text() == "[2][3]"  # sorted by least prime


@pytest.mark.parametrize("bad", ["", "junk", "2,3", "[2,3", "[1]", "[4]",
                                 "[2][2]", "[2,,3]", "[ ]",
                                 pytest.param("[" + "1" * 5000 + "]", id="5000 ones"),
                                 pytest.param("[2," + "0" * 5000 + "1000000007]",
                                              id="10 digits after 5000 zeros")])
def test_parse_sigma_rejects_bad_text(bad):
    with pytest.raises(GroupInputError):
        parse_sigma(bad)


def regex_parse_sigma(text):
    """parse_sigma as first written, with regular expressions."""
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


def parse_outcome(parse, text):
    try:
        return parse(text)
    except GroupInputError as exc:
        return str(exc)


PARSE_ACCEPTED = ["[2]", "[2,3][5]", "[2 ,3]", "[2, 3]", "[2\t,\n3]", "[2\u3000,\x1c3]",
                  " [7][2] ", "[２]", "[2,2]", "[02,3]", "SIGMA1", " sigma1 ", "[]", " [] ",
                  "[999999937]", "[0000000002]", "[０００００００００２]"]
PARSE_REJECTED = ["[ 2]", "[2 ]", "[2] [3]", "[2][", "[2,]", "[,2]", "[2,,3]", "[]]", "[][2]",
                  "[2]x", "x[2]", "[2;3]", "[-2]", "[+2]", "[2.0]", "[²]", "[2_3]", "[2]]",
                  "[[2]]", "[2][]", "sigma1[2]", "[ ]", "", "[4]", "[2][2]", "[1]",
                  "[1000000007]", "[2][100000000000031]"]


@pytest.mark.parametrize("text", PARSE_ACCEPTED + PARSE_REJECTED)
def test_parse_sigma_scanner_matches_the_regex(text):
    expected = parse_outcome(regex_parse_sigma, text)
    assert parse_outcome(parse_sigma, text) == expected
    assert isinstance(expected, SigmaPartition) == (text in PARSE_ACCEPTED)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text(alphabet="[]23, \t", max_size=12))
def test_parse_sigma_scanner_matches_the_regex_on_random_text(text):
    assert parse_outcome(parse_sigma, text) == parse_outcome(regex_parse_sigma, text)


def test_sigma_of_and_primary(corpus):
    assert sigma_of_int(12, S1) == {"2", "3"}
    assert sigma_of_int(12, parse_sigma("[2,3]")) == {"2,3"}
    assert sigma_of_int(1, S1) == frozenset()
    assert is_sigma_primary(8, S1)
    assert is_sigma_primary(12, parse_sigma("[2,3]"))
    assert not is_sigma_primary(12, S1)
    assert is_sigma_primary(1, S1)
    assert sigma_of_group(corpus["A5"].build(), parse_sigma("[2,5][3]")) == {"2,5", "3"}


@pytest.mark.parametrize("read", [sigma_of_int, is_sigma_primary])
@pytest.mark.parametrize("n, message", [(0, "at least 1, got 0"), (-12, "at least 1, got -12"),
                                        (True, "an int, got True"), (12.0, "an int, got 12.0")])
def test_sigma_of_int_refuses_what_is_not_a_count(read, n, message):
    """An order is an int of at least 1, checked as every count is: 0 is
    no bare ValueError from the trial division, and True is not read as 1."""
    with pytest.raises(GroupInputError, match=f"^n must be {message}$"):
        read(n, parse_sigma("[2]"))


# ---------------------------------------------------------------------------
# Hall sigma-sets

def test_complete_hall_set_orders(corpus):
    assert complete_hall_sigma_set(corpus["S3"].build(), S1).member_orders() == (2, 3)
    A5 = corpus["A5"].build()
    assert complete_hall_sigma_set(A5, S1).member_orders() == (4, 3, 5)
    assert complete_hall_sigma_set(A5, parse_sigma("[2,3][5]")).member_orders() == (12, 5)
    assert complete_hall_sigma_set(A5, parse_sigma("[2,5][3]")) is None
    assert complete_hall_sigma_set(corpus["F20"].build(),
                                   parse_sigma("[2,5]")).member_orders() == (20,)
    assert complete_hall_sigma_set(corpus["C1"].build(), S1).member_orders() == ()


def test_enumerate_complete_hall_sets(corpus):
    # a complete Hall sigma-set takes one candidate from each block's Hall data
    for name, sigma, count in [("S3", S1, 3), ("A4", S1, 4),
                               ("A5", parse_sigma("[2,5][3]"), 0)]:
        G = corpus[name].build()
        blocks = sigma_module._hall_data(G, sigma, Limits())
        assert math.prod(len(b["candidates"]) for b in blocks) == \
            len(naive_hall_sets(G, sigma)) == count, name


def test_hall_data_does_not_depend_on_the_asking_generators():
    """The Hall data is memoised on the root, so its classes must not follow
    the generators of whichever group with that element set asked first."""
    def hall_data(*gens):
        clear_intern_cache()
        G = PermGroup(3, [Perm.parse(g, 3) for g in gens])
        return sigma_module._hall_data(G, S1, Limits())

    assert hall_data("(1 2)", "(1 3)") == hall_data("(1 3)", "(1 2)")


# ---------------------------------------------------------------------------
# sigma-permutability: naive definition cross-check

@functools.lru_cache(maxsize=None)
def _distinct_conjugates(G, wset):
    return {frozenset(conjugate_images(w, x) for w in wset) for x in G.element_images()}


def naive_hall_sets(G, sigma):
    """Every complete Hall sigma-set of G: one subgroup of order |G|_{sigma_i}
    for each block sigma_i of sigma(G), in every combination."""
    by_block = {}
    for p in primes_of(G.order):
        by_block.setdefault(sigma.block_id(p), set()).add(p)
    subs = all_subgroups(G)
    return list(itertools.product(*([h for h in subs if h.order == part_for_primes(G.order, ps)]
                                    for ps in by_block.values())))


def naive_sigma_permutable(G, A, sigma):
    """Direct reading: some complete Hall sigma-set H with AW^x = W^xA for
    every member W and every x in G (each distinct W^x tested once)."""
    aset = A.element_images()
    for hs in naive_hall_sets(G, sigma):
        good = True
        for W in hs:
            for wx in _distinct_conjugates(G, W.element_images()):
                ab = {compose_images(a, w) for a in aset for w in wx}
                ba = {compose_images(w, a) for w in wx for a in aset}
                if ab != ba:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


@pytest.mark.parametrize("name,stext", [
    ("S3", "sigma1"), ("S3", "[2,3]"), ("A4", "sigma1"),
    ("D8", "sigma1"), ("S4", "sigma1"), ("A4", "[2,3]"), ("A5", "[2,3][5]"),
])
def test_permutability_matches_naive_definition(corpus, name, stext):
    G = corpus[name].build()
    sigma = parse_sigma(stext)
    for A in all_subgroups(G):
        assert is_sigma_permutable(G, A, sigma) == naive_sigma_permutable(G, A, sigma), \
            f"{name}/{stext}: subgroup of order {A.order}"


def test_normal_subgroups_are_sigma_permutable(corpus):
    for name, stext in [("S4", "sigma1"), ("A4", "[2,3]"), ("C6", "sigma1")]:
        G = corpus[name].build()
        sigma = parse_sigma(stext)
        for N in normal_subgroups(G):
            assert is_sigma_permutable(G, N, sigma)


def test_sigma_permutable_subgroup_has_sigma_nilpotent_closure_over_core(corpus):
    """Every sigma-permutable H of G has H^G/H_G sigma-nilpotent (Deskins
    1963 at sigma^1; Skiba, J. Algebra 436 (2015), Theorem B, in general),
    checked on every builtin at every campaign partition.  In G's sorted
    normal lattice the normal closure H^G is the first entry over H and the
    core H_G the last entry inside H; the section is read by the harness's
    ``_nilpotent_section``.  The counts keep the check from going vacuous."""
    triples = sections = 0
    bad = []
    for name, entry in corpus.items():
        G = entry.build()
        normals = normal_subgroups(G)
        for sigma in campaign_sigmas(G):
            for H in all_subgroups(G):
                if not is_sigma_permutable(G, H, sigma):
                    continue
                closure = next(N for N in normals if N.mask & H.mask == H.mask)
                core = next(N for N in reversed(normals) if N.mask & H.mask == N.mask)
                triples += 1
                sections += closure is not core
                if not harness_module._nilpotent_section(G, normals, closure.mask, core.mask,
                                                         sigma):
                    bad.append((name, sigma.text(), H.order))
    assert bad == []
    assert (triples, sections) == (1477, 867)


def test_sigma_permutable_sets_of_s3(corpus):
    sp = sigma_permutable_sets(corpus["S3"].build(), S1)
    assert sorted(len(s) for s in sp) == [1, 3, 6]


def test_nothing_permutable_without_complete_hall_set(corpus):
    A5 = corpus["A5"].build()
    sigma = parse_sigma("[2,5][3]")
    assert not is_sigma_permutable(A5, full_subgroup(A5), sigma)
    assert not is_sigma_permutable(A5, trivial_subgroup(A5), sigma)
    assert sigma_permutable_sets(A5, sigma) == {}


def test_forced_blocks_read_no_lattice(monkeypatch):
    """In a sigma-nilpotent group every Hall sigma_i-subgroup is normal, so
    it is its own class and permutes with every subgroup: with a subgroup
    bound of 1, every answer comes without a lattice read."""
    G = PermGroup(7, [Perm.parse(t, 7) for t in ("(1 2 3 4)", "(1 3)", "(5 6 7)")])  # D8 x C3
    given = [sub(G, *gens) for gens in [(), ("(1 3)",), ("(1 3)(5 6 7)",), ("(1 2 3 4)",),
                                        ("(1 2)(3 4)", "(5 6 7)"), ("(1 3)", "(2 4)")]]
    read = []
    for module in (structure_module, sigma_module):
        monkeypatch.setattr(module, "all_subgroups",
                            lambda H, *a: read.append(H.mask) or all_subgroups(H, *a))
    limits = Limits(subgroup_bound=1)
    for stext in ("sigma1", "[2][3]"):
        assert all(is_sigma_permutable(G, A, parse_sigma(stext), limits) for A in given), stext
    assert read == []


# ---------------------------------------------------------------------------
# PsigmaT

PST_TABLE = {"S3": True, "Q8": True, "D8": True, "A4": False, "S4": False,
             "SL(2,3)": False, "F21": True, "C7:C6": True, "A5": True,
             "S5": True}


def test_pst_classification(corpus):
    for name, expected in PST_TABLE.items():
        assert is_psigma_t(corpus[name].build(), S1) == expected, name


@pytest.mark.parametrize("name", ["A4", "S4", "SL(2,3)"])
def test_violation_triple_is_self_consistent(corpus, name):
    G = corpus[name].build()
    K, H = psigma_t_violation(G, S1)
    assert 1 < H.order < G.order
    assert is_sigma_permutable(H, Subgroup(H, K.generators), S1)
    assert is_sigma_permutable(G, H, S1)
    assert not is_sigma_permutable(G, K, S1)


def test_psigma_t_asks_h_only_about_subgroups_outside_sigma_perm_g(corpus, monkeypatch):
    """Only a K that is not sigma-permutable in G can refute transitivity, so
    sigma-permutability in a proper H is asked of no other K.  Limits of
    their own keep the memos of earlier calls out of the scan."""
    limits = Limits(subgroup_bound=1999)
    original = sigma_module.is_sigma_permutable
    asked = []
    monkeypatch.setattr(sigma_module, "is_sigma_permutable",
                        lambda H, K, *a: asked.append((H, K)) or original(H, K, *a))
    in_h = 0
    for name in ("A4", "S4", "SL(2,3)", "C3xS4", "PSL(2,7)"):
        G = corpus[name].build()
        for sigma in campaign_sigmas(G):
            asked.clear()
            psigma_t_violation(G, sigma, limits)
            in_h_asked = [K for H, K in asked if H.mask != G.mask]
            assert not any(original(G, K, sigma, limits) for K in in_h_asked), (name, sigma)
            in_h += len(in_h_asked)
    assert in_h > 0


def test_no_violation_in_pst_groups(corpus):
    assert psigma_t_violation(corpus["S3"].build(), S1) is None
    assert psigma_t_violation(corpus["Q8"].build(), S1) is None


def test_c5xa4_depends_on_the_partition(corpus):
    G = corpus["C5xA4"].build()
    expected = {"[2,3,5]": True, "[2,3][5]": True, "[2,5][3]": False,
                "[3,5][2]": False, "sigma1": False}
    for stext, value in expected.items():
        assert is_psigma_t(G, parse_sigma(stext)) == value, stext


def test_pst_vacuous_without_complete_hall_set(corpus):
    A5 = corpus["A5"].build()
    sigma = parse_sigma("[2,5][3]")
    assert is_psigma_t(A5, sigma)
    assert complete_hall_sigma_set(A5, sigma) is None


def naive_psigma_t(G, sigma):
    """Direct reading: K sp H and H sp G imply K sp G, for all K <= H <= G,
    with sp the naive definition above."""
    subs = all_subgroups(G)
    in_g = {K: naive_sigma_permutable(G, K, sigma) for K in subs}
    return all(in_g[K] or not (in_g[H] and naive_sigma_permutable(H, K, sigma))
               for H in subs for K in subs if K.mask & H.mask == K.mask)


@pytest.mark.parametrize("name", [e.name for e in builtin_corpus()])
def test_one_block_partition_is_psigma_t_without_scanning_subgroups(corpus, name, monkeypatch):
    """With every prime of |G| in one block, {G} is the only complete Hall
    sigma-set, every subgroup is sigma-permutable, and the answer needs no
    lattice of a proper subgroup."""
    G = corpus[name].build()
    primes = sorted(primes_of(G.order))
    sigma = SigmaPartition.of_blocks(primes) if primes else SigmaPartition()
    scanned = []
    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure"):
        original = getattr(structure_module, kernel)
        monkeypatch.setattr(structure_module, kernel,
                            lambda table, gmask, limits, original=original:
                            scanned.append(gmask) or original(table, gmask, limits))
    monkeypatch.setattr(sigma_module, "all_subgroups",
                        lambda H, *a: scanned.append(H.mask) or all_subgroups(H, *a))
    verdict = is_psigma_t(G, sigma)
    monkeypatch.undo()
    assert [m for m in scanned if m != G.mask] == []
    assert verdict == naive_psigma_t(G, sigma)


# ---------------------------------------------------------------------------
# sigma-solubility and sigma-nilpotency

def test_sigma_soluble_on_a5_partitions(corpus):
    A5 = corpus["A5"].build()
    assert is_sigma_soluble(A5, parse_sigma("[2,3,5]"))
    for stext in ["sigma1", "[2,3][5]", "[2,5][3]", "[3,5][2]"]:
        assert not is_sigma_soluble(A5, parse_sigma(stext)), stext


def test_soluble_groups_are_sigma_soluble_for_every_partition(corpus):
    for name in ["S3", "S4", "SL(2,3)", "F20", "C3xS3"]:
        G = corpus[name].build()
        for stext in ["sigma1", "[2,3][5]", "[2,3,5,7]", "[2][3,5]"]:
            assert is_sigma_soluble(G, parse_sigma(stext)), f"{name}/{stext}"


def test_sigma_nilpotent_cases(corpus):
    A4 = corpus["A4"].build()
    assert is_sigma_nilpotent(A4, parse_sigma("[2,3]"))
    assert not is_sigma_nilpotent(A4, S1)
    F20 = corpus["F20"].build()
    assert is_sigma_nilpotent(F20, parse_sigma("[2,5]"))
    assert not is_sigma_nilpotent(F20, S1)
    assert is_sigma_nilpotent(corpus["C6"].build(), S1)
    assert not is_sigma_nilpotent(corpus["S3"].build(), S1)


def test_nilpotent_groups_are_sigma_nilpotent_for_every_partition(corpus):
    for name in ["Q8", "C12", "E8", "Q16"]:
        G = corpus[name].build()
        for stext in ["sigma1", "[2,3]", "[2][3,5]"]:
            assert is_sigma_nilpotent(G, parse_sigma(stext)), f"{name}/{stext}"


# ---------------------------------------------------------------------------
# residual

def test_residual_is_trivial_iff_sigma_nilpotent(corpus):
    for name, stext in [("A4", "[2,3]"), ("A4", "sigma1"),
                        ("S4", "sigma1"), ("F20", "[2,5]"), ("F20", "sigma1")]:
        G = corpus[name].build()
        sigma = parse_sigma(stext)
        r = sigma_nilpotent_residual(G, sigma)
        assert (r.order == 1) == is_sigma_nilpotent(G, sigma), f"{name}/{stext}"


def test_residual_values(corpus):
    A4 = corpus["A4"].build()
    v4 = sub(A4, "(1 2)(3 4)", "(1 3)(2 4)")
    assert sigma_nilpotent_residual(A4, S1).element_images() == v4.element_images()
    S4 = corpus["S4"].build()
    a4_in_s4 = sub(S4, "(1 2 3)", "(1 2)(3 4)")
    assert sigma_nilpotent_residual(S4, S1).element_images() == a4_in_s4.element_images()


def test_residual_is_normal_with_sigma_nilpotent_quotient(corpus):
    for name, stext in [("S4", "sigma1"), ("SL(2,3)", "sigma1"),
                        ("C5xA4", "[2,5][3]"), ("F21", "sigma1")]:
        G = corpus[name].build()
        sigma = parse_sigma(stext)
        r = sigma_nilpotent_residual(G, sigma)
        assert is_normal(G, r)
        q = quotient_group(G, r)
        assert is_sigma_nilpotent(q.group, sigma)


LATTICE_GROUPS = ["S4", "SL(2,3)", "C5xA4", "SL(2,5)", "PSL(2,7)"]


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_quotient_verdict_read_off_the_normal_lattice_matches_the_quotient_group(corpus, name):
    """Lem2.3's and Lem2.4's read of G/N in G's normal lattice
    (``harness._nilpotent_section``) against the engine's verdict on the
    quotient group itself, for every normal N and campaign partition."""
    G = corpus[name].build()
    normals = normal_subgroups(G)
    for sigma in campaign_sigmas(G):
        for N in normals:
            assert harness_module._nilpotent_section(G, normals, G.mask, N.mask, sigma) == \
                is_sigma_nilpotent(quotient_group(G, N).group, sigma), (N.order, sigma.text())


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_sigma_verdicts_build_no_group(corpus, chain_builds, table_builds, name):
    """Once G and its table are built, the residual, sigma-nilpotency of every
    subgroup and Lemmas 2.3 and 2.4 build no chain and no table at any
    campaign partition: Lemma 2.4 reads each G/N in G's normal lattice."""
    clear_intern_cache()  # no quotient root left by an earlier test
    G = builtin_entry(name).build()
    subgroups = all_subgroups(G)
    chain_builds.clear()
    table_builds.clear()
    for sigma in campaign_sigmas(G):
        sigma_nilpotent_residual(G, sigma)
        for H in subgroups:
            is_sigma_nilpotent(H, sigma)
        verify_lemma_2_3(G, sigma)
        verify_lemma_2_4(G, sigma)
    assert chain_builds == [] and table_builds == []


@pytest.mark.parametrize("name", ["S4", "SL(2,3)", "C5xA4", "PSL(2,7)"])
def test_sigma_nilpotency_runs_no_normal_lattice(monkeypatch, name):
    """Sigma-nilpotency of every subgroup at every campaign partition comes
    from the subgroups generated by sigma_i-elements, not normal lattices."""
    clear_intern_cache()  # no verdict cached by an earlier test
    G = builtin_entry(name).build()
    subgroups = all_subgroups(G)
    runs = []
    monkeypatch.setattr(structure_module, "_normal_lattice", lambda *args: runs.append(args))
    verdicts = [is_sigma_nilpotent(H, sigma) for sigma in campaign_sigmas(G) for H in subgroups]
    assert runs == []
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_residual_and_block_subgroups_run_no_normal_lattice(monkeypatch, name):
    """The residual, and O_pi of the residual and of G for every block, at
    every campaign partition, come from generated subgroups and class
    closures, not normal lattices."""
    clear_intern_cache()  # no residual or normal lattice cached by an earlier test
    G = builtin_entry(name).build()
    runs = []
    monkeypatch.setattr(structure_module, "_normal_lattice", lambda *args: runs.append(args))
    orders = set()
    for sigma in campaign_sigmas(G):
        D = sigma_nilpotent_residual(G, sigma)
        for _, ps, _ in sigma_module._order_blocks(G.order, sigma):
            orders.update(largest_normal_block_subgroup(X, ps).order for X in (D, full_subgroup(G)))
    assert runs == []
    assert max(orders) > 1


def classify_fields(G, sigma):
    """The five classify fields that take a partition and run kernels."""
    hall = complete_hall_sigma_set(G, sigma)
    return (is_sigma_soluble(G, sigma), is_sigma_nilpotent(G, sigma), is_psigma_t(G, sigma),
            None if hall is None else hall.member_orders(),
            sigma_nilpotent_residual(G, sigma).order)


LATTICE_FREE_CASES = (
    [(name, "[2,3,5,7]") for name in ("S4", "A5", "PSL(2,7)")]
    + [(name, "all") for name in ("C15", "Q8")]
    + [("C5xA4", "[2,3][5]")])


@pytest.mark.parametrize("name,stext", LATTICE_FREE_CASES)
def test_classify_fields_run_no_lattice_kernel_when_sigma_decides(monkeypatch, name, stext):
    """At a one-block partition, and on a sigma-nilpotent group at any
    partition, the classify fields need no subgroup lattice, normal lattice
    or chief series."""
    clear_intern_cache()  # no lattice cached by an earlier test
    G = builtin_entry(name).build()
    sigmas = campaign_sigmas(G) if stext == "all" else [parse_sigma(stext)]

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice kernel ran")

    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure", "_normal_lattice",
                   "chief_series"):
        monkeypatch.setattr(structure_module, kernel, refuse)
    for sigma in sigmas:
        soluble, nilpotent, psigma_t, hall_orders, residual = classify_fields(G, sigma)
        assert soluble and nilpotent and psigma_t and residual == 1
        assert sorted(hall_orders) == sorted(
            part for _, _, part in sigma_module._order_blocks(G.order, sigma))


# the five classify fields that take a partition, under the caller's limits
ONE_BLOCK_FIELDS = (
    is_sigma_soluble, is_sigma_nilpotent, is_psigma_t,
    lambda G, sigma, limits: complete_hall_sigma_set(G, sigma, limits).member_orders(),
    lambda G, sigma, limits: sigma_nilpotent_residual(G, sigma, limits).order,
)


def test_one_block_classify_fields_build_a_table_only_to_walk_three_primes(table_builds):
    """At the one-block partition of pi(G), R_1 is G, so the five classify
    fields read |G| and P(G) alone.  P(G) needs no walk on a group with at
    most two primes (Burnside), so the 39 such builtins build no table; the
    six with three primes build one, for the walk.  Under a table bound of
    |G| - 1 every field is refused, and no table is built."""
    built = {}
    for entry in builtin_corpus():
        clear_intern_cache()  # no table left on the group by an earlier one
        G = entry.build()
        sigma = SigmaPartition.of_blocks(primes_of(G.order)) if G.order > 1 else S1
        table_builds.clear()
        if G.order > 1:
            for field in ONE_BLOCK_FIELDS:
                with pytest.raises(CapacityError, match=f"^group order {G.order} exceeds "):
                    field(G, sigma, Limits(table_order_bound=G.order - 1))
            assert table_builds == [], entry.name
        answers = [field(G, sigma, Limits()) for field in ONE_BLOCK_FIELDS]
        assert answers == [True, True, True, (G.order,) if G.order > 1 else (), 1], entry.name
        built[entry.name] = (len(primes_of(G.order)), len(table_builds))
    clear_intern_cache()
    assert Counter(built.values()) == {(0, 0): 1, (1, 0): 16, (2, 0): 22, (3, 1): 6}
    assert {name for name, (_, tables) in built.items() if tables} == \
        {"S5", "A5", "C7:C6", "C5xA4", "SL(2,5)", "PSL(2,7)"}


def greedy_keys(G):
    """The greedy subgroups cached on G's root, by key."""
    return {k for k in G.root.cache if isinstance(k, tuple) and k[0] == "greedy"}


def test_hall_set_members_are_the_greedy_subgroups_of_the_first_candidates():
    """A complete Hall sigma-set keeps each member as the mask of its
    block's first candidate and wraps it only when ``members`` is read, as
    the greedy subgroup of that mask: the block ids, masks and generators
    of every builtin at every campaign partition.  Its orders alone add no
    greedy subgroup to the root's cache."""
    limits = Limits()
    sets = 0
    for entry in builtin_corpus():
        clear_intern_cache()  # no greedy subgroup left by an earlier test
        G = entry.build()
        for sigma in campaign_sigmas(G):
            greedy = greedy_keys(G)
            hall = complete_hall_sigma_set(G, sigma, limits)
            if hall is None:
                continue
            orders = hall.member_orders()
            assert greedy_keys(G) == greedy
            blocks = zip(sigma_module._order_blocks(G.order, sigma),
                         sigma_module._hall_data(G, sigma, limits))
            eager = [(bid, structure_module._greedy_subgroup(G, block["candidates"][0], limits))
                     for (bid, _, _), block in blocks]
            assert [(bid, h.mask, h.order, tuple(map(str, h.generators)))
                    for bid, h in hall.members] == \
                [(bid, h.mask, h.order, tuple(map(str, h.generators))) for bid, h in eager]
            assert orders == tuple(h.order for _, h in eager)
            sets += 1
    clear_intern_cache()
    assert sets == 129


def test_hall_sets_are_equal_by_root_ids_and_masks(corpus):
    """Two complete Hall sigma-sets are equal when they have the same root,
    block ids and masks, whichever group object and limits found them."""
    first = complete_hall_sigma_set(corpus["S4"].build(), S1)
    again = complete_hall_sigma_set(builtin_entry("S4").build(), S1, Limits(subgroup_bound=50))
    assert (again, hash(again)) == (first, hash(first))
    assert first != complete_hall_sigma_set(corpus["S4"].build(), parse_sigma("[2,3]"))
    assert first.members == again.members


# ---------------------------------------------------------------------------
# sigma-full of Sylow type, separability, residual structure helpers

def test_sigma_full_sylow_type(corpus):
    for name in ["S3", "S4", "A5", "Q8"]:
        assert sigma_full_sylow_type_violation(corpus[name].build(), S1) is None, name
    A5 = corpus["A5"].build()
    violation = sigma_full_sylow_type_violation(A5, parse_sigma("[2,5][3]"))
    assert violation is not None
    assert violation["block"] == "2,5"
    assert violation["missing_hall"] is True


_naive_orbit = functools.lru_cache(maxsize=None)(oracles.conjugate_orbit)


def per_subgroup_violation(G, sigma, limits=Limits()):
    """Lem2.1 as first written: the lattice and Hall data of every subgroup E
    of G, each computed on E as an ambient of its own, with the E-conjugates
    of a Hall subgroup from the naive orbit walk of the oracle.  The Hall
    data carries no block id, so each block's id is read off
    ``_order_blocks``, whose blocks come in the Hall data's order."""
    table = structure_module._element_table(G.root, limits)
    for e_sub in all_subgroups(G, limits):
        for (bid, _, _), block in zip(sigma_module._order_blocks(e_sub.order, sigma),
                                      sigma_module._hall_data(e_sub, sigma, limits)):
            if not block["candidates"]:
                return {"subgroup": e_sub.generators, "block": bid,
                        "missing_hall": True}
            conjugates = _naive_orbit(tuple(g.images for g in e_sub.generators),
                                      image_set(table, block["candidates"][0]))
            for cand in all_subgroups(e_sub, limits):
                if primes_of(cand.order) <= block["primes"] and cand.order > 1:
                    members = cand.element_images()
                    if not any(c.issuperset(members) for c in conjugates):
                        return {"subgroup": e_sub.generators, "block": bid,
                                "uncovered": cand.generators}
    return None


def test_sigma_full_sylow_type_matches_per_subgroup_scan(corpus):
    """Every builtin group at every campaign partition: the same violation,
    witness generators included."""
    kinds = []
    for name, entry in corpus.items():
        G = entry.build()
        for sigma in campaign_sigmas(G):
            violation = sigma_full_sylow_type_violation(G, sigma)
            assert violation == per_subgroup_violation(G, sigma), (name, sigma.text())
            if violation is not None:
                kinds.append((name, sigma.text(), "missing_hall" in violation))
    assert len(kinds) == 11
    assert sum(missing for _, _, missing in kinds) == 7
    assert {("A5", "[2,3][5]", False), ("S5", "[2,3][5]", False)} <= set(kinds)


@pytest.mark.parametrize("name, stext", [("S4", "sigma1"), ("SL(2,3)", "[2][3]")])
def test_sigma_full_sylow_type_scans_no_proper_lattice(corpus, name, stext, monkeypatch):
    """With no violation, only G's own lattice is computed."""
    clear_intern_cache()  # no lattice or verdict cached by an earlier test
    G = corpus[name].build()
    scanned = []
    for kernel in ("_lattice_cyclic_extension", "_lattice_join_closure"):
        original = getattr(structure_module, kernel)
        monkeypatch.setattr(structure_module, kernel,
                            lambda table, gmask, limits, original=original:
                            scanned.append(gmask) or original(table, gmask, limits))
    hall_data = sigma_module._hall_data
    monkeypatch.setattr(sigma_module, "_hall_data",
                        lambda H, *a: scanned.append(H.mask) or hall_data(H, *a))
    violation = sigma_full_sylow_type_violation(G, parse_sigma(stext))
    monkeypatch.undo()
    assert violation is None
    assert scanned == [G.mask]


class CountingMask(int):
    """A lattice mask that counts the ``&`` tests made with it."""
    tests = 0

    def __and__(self, other):
        CountingMask.tests += 1
        return int(self) & int(other)

    __rand__ = __and__


class CountedSubgroup:
    """A subgroup whose mask counts its tests; every other attribute is the
    subgroup's own."""

    def __init__(self, h):
        self._h = h
        self.mask = CountingMask(h.mask)

    def __getattr__(self, name):
        return getattr(self._h, name)


@pytest.mark.parametrize("name, one_block", [("S4", "[2,3]"), ("A5", "[2,3,5]"),
                                             ("PSL(2,7)", "[2,3,7]")])
def test_sigma_full_sylow_type_at_one_block_tests_no_mask(corpus, name, one_block,
                                                           monkeypatch):
    """At a one-block partition every subgroup is its own Hall subgroup, so
    the scan makes no conjugation walk and no mask test; at sigma1 the same
    spies see both."""
    G = corpus[name].build()
    lattice = all_subgroups(G)
    monkeypatch.setattr(sigma_module, "all_subgroups",
                        lambda H, limits: tuple(map(CountedSubgroup, lattice))
                        if H is G else all_subgroups(H, limits))
    walks = []
    conjugates = structure_module._ElementTable.conjugates
    monkeypatch.setattr(structure_module._ElementTable, "conjugates",
                        lambda table, mask, gens: walks.append(mask) or
                        conjugates(table, mask, gens))
    CountingMask.tests = 0
    assert sigma_full_sylow_type_violation(G, parse_sigma(one_block)) is None
    assert (CountingMask.tests, walks) == (0, [])
    sigma_full_sylow_type_violation(G, S1)
    assert CountingMask.tests > 0 and walks


def test_pi_separability(corpus):
    A5 = corpus["A5"].build()
    assert not is_pi_separable(A5, {5})
    assert not is_pi_separable(A5, {2})
    assert is_pi_separable(A5, {2, 3, 5})
    assert is_pi_separable(A5, set())
    S4 = corpus["S4"].build()
    for pi in [set(), {2}, {3}, {2, 3}]:
        assert is_pi_separable(S4, pi)


@pytest.mark.parametrize("name, tests", [("C12", False), ("Q8", False), ("S3", True)])
def test_a_normal_hall_subgroup_permutes_without_a_test(corpus, monkeypatch, name, tests):
    """A class of one Hall subgroup is a normal Hall subgroup, which permutes
    with every subgroup, so AW == WA is tested only against the members of
    larger classes: never on a sigma-nilpotent group, and on S3 against its
    three Sylow 2-subgroups."""
    tested = []
    permutes = sigma_module._permutes
    monkeypatch.setattr(sigma_module, "_permutes",
                        lambda G, A, w, limits: tested.append(w) or permutes(G, A, w, limits))
    G = corpus[name].build()
    verdicts = [is_sigma_permutable(G, H, S1) for H in all_subgroups(G)]
    assert bool(tested) == tests
    assert all(verdicts) != tests


def test_a_builtin_campaign_walks_each_pi_partition_once_per_group(monkeypatch):
    """Solubility, sigma-solubility at every sigma and pi-separability at
    every pi (Lemma 2.2) all read one per-group fact, P(G), the primes of
    the nonabelian chief factors, memoised with no partition in its key.
    It walks one series per prime q of |G|, at {q} | pi(G) - {q}, and none
    on a group with at most two primes, which is soluble (Burnside's
    p^a q^b theorem).  A walk starts by generating O^q(G) from G's own mask
    at the block {q}, so those calls are the walks run: a builtin campaign
    computes P on 47 subgroups, 6 of them with three primes, and walks 18
    series, where a walk on every group walked 82, a sigma-solubility memo
    keyed by sigma(G) 138, one keyed by partition text 309, and a
    pi-separability with a walk of its own 354."""
    computes = []  # (number of primes of |G|, the primes q walked at)
    memo = structure_module._memo
    generated = structure_module._ElementTable.generated_by_orders

    def counting(G, limits, compute, *key):
        if key[0] != "insoluble-primes":
            return memo(G, limits, compute, *key)
        walked = []

        def spying(table, mask, keep):
            # keep is the block's isdisjoint, bound to the block's set
            if mask == G.mask and len(keep.__self__) == 1:
                walked.extend(keep.__self__)
            return generated(table, mask, keep)

        def compute_spied():
            computes.append((len(primes_of(G.order)), walked))
            with monkeypatch.context() as m:
                m.setattr(structure_module._ElementTable, "generated_by_orders", spying)
                return compute()
        return memo(G, limits, compute_spied, *key)

    monkeypatch.setattr(structure_module, "_memo", counting)
    clear_intern_cache()  # no fact memoised by an earlier test
    run_campaign(builtin_corpus(), CampaignConfig(jobs=1, zero_millis=True))
    assert all(len(walked) == len(set(walked)) == (n if n > 2 else 0) for n, walked in computes)
    assert (len(computes), sum(n > 2 for n, _ in computes)) == (47, 6)
    assert sum(len(walked) for _, walked in computes) == 18


SIGMA_MEMOS = {"block-generated", "hall-block", "psigma-t", "sigma-residual", "sylow-type"}


@pytest.mark.parametrize("name, kinds", [
    ("S4", SIGMA_MEMOS), ("SL(2,3)", SIGMA_MEMOS), ("C3xS4", SIGMA_MEMOS),
    ("A5", {"block-generated", "sigma-residual"})])
def test_sigma1_rows_compute_no_sigma_memo_after_the_singleton_rows(name, kinds, monkeypatch):
    """sigma1 and the partition of one listed block per prime of |G| have
    the same blocks inside pi(G), and every sigma memo is keyed by those
    blocks as prime sets, one block or all of them.  So once a group's
    sigma-scope rows have run at the singleton partition, its sigma1 rows
    compute no memo at all: no R_i, Hall data of a block, PsigmaT,
    residual or Lemma 2.1 scan, and no memo of ``structure`` either, P(G)
    included, which every sigma-solubility verdict reads.  A5 is not sigma-soluble, so it has no
    PsigmaT or Lemma 2.1 scan to share."""
    clear_intern_cache()  # nothing cached on the group by an earlier test
    G = builtin_entry(name).build()
    computed = []
    memo = structure_module._memo

    def spying(G, limits, compute, *key):
        return memo(G, limits, lambda: computed.append(key[0]) or compute(), *key)

    monkeypatch.setattr(sigma_module, "_memo", spying)
    monkeypatch.setattr(structure_module, "_memo", spying)
    sigma_scope = [sid for sid, st in harness_module.REGISTRY.items() if st.scope == "sigma"]
    singleton = SigmaPartition.of_blocks(*({p} for p in primes_of(G.order)))
    run_statements(G, name, sigma_scope, sigmas=[singleton])
    assert set(computed) & SIGMA_MEMOS == kinds
    assert "insoluble-primes" in computed
    computed.clear()
    run_statements(G, name, sigma_scope, sigmas=[S1])
    assert computed == []
    clear_intern_cache()


def test_hall_data_of_a_block_is_computed_once_per_subgroup_and_block(monkeypatch):
    """The Hall data of a block depends on the subgroup and the block's
    primes alone, and is memoised by them: over every campaign partition of
    C5xA4, whose order has three primes, the complete Hall sigma-sets and
    PsigmaT, which asks the Hall data of G and of its subgroups, compute
    each (subgroup, block) once, though partitions that share a block ask
    it again."""
    clear_intern_cache()  # no Hall data cached by an earlier test
    G = builtin_entry("C5xA4").build()
    asked, computed = [], []
    hall_block = sigma_module._hall_block
    memo = structure_module._memo

    def asking(H, ps, part, limits):
        asked.append((H.mask, ps))
        return hall_block(H, ps, part, limits)

    def spying(H, limits, compute, *key):
        if key[0] == "hall-block":
            return memo(H, limits, lambda: computed.append((H.mask, key[1])) or compute(), *key)
        return memo(H, limits, compute, *key)

    monkeypatch.setattr(sigma_module, "_hall_block", asking)
    monkeypatch.setattr(sigma_module, "_memo", spying)
    for sigma in campaign_sigmas(G):
        assert complete_hall_sigma_set(G, sigma) is not None
        psigma_t_violation(G, sigma)
    assert len(computed) == len(set(computed)) == len(set(asked)) < len(asked)
    assert set(computed) == set(asked)
    assert {ps for mask, ps in computed if mask == G.mask} == {
        frozenset(b) for b in ({2}, {3}, {5}, {2, 3}, {2, 5}, {3, 5}, {2, 3, 5})}
    clear_intern_cache()


def test_largest_normal_block_subgroup(corpus):
    S4 = corpus["S4"].build()
    D = sigma_nilpotent_residual(S4, S1)  # the A4 inside S4
    assert largest_normal_block_subgroup(D, {2}).order == 4
    assert largest_normal_block_subgroup(D, {3}).order == 1
    assert largest_normal_block_subgroup(D, {2, 3}).order == 12


def test_induces_power_automorphisms(corpus):
    S3 = corpus["S3"].build()
    assert induces_power_automorphisms(S3, sigma_nilpotent_residual(S3, S1))
    A4 = corpus["A4"].build()
    assert not induces_power_automorphisms(A4, sigma_nilpotent_residual(A4, S1))
    F20 = corpus["F20"].build()
    assert induces_power_automorphisms(F20, sigma_nilpotent_residual(F20, S1))
    SL23 = corpus["SL(2,3)"].build()
    assert not induces_power_automorphisms(SL23, sigma_nilpotent_residual(SL23, S1))
    with pytest.raises(GroupInputError):
        induces_power_automorphisms(S3, sub(S3, "(1 2)"))


# ---------------------------------------------------------------------------
# cached verdicts keep the caller's limits

LOW_TABLE = Limits(table_order_bound=10)


def test_cached_sigma_soluble_keeps_a_lower_table_bound(corpus):
    assert is_sigma_soluble(corpus["S4"].build(), S1)
    with pytest.raises(CapacityError, match="group order 24 exceeds multiplication-table bound 10"):
        is_sigma_soluble(builtin_entry("S4").build(), S1, LOW_TABLE)


def test_cached_sylow_type_verdict_keeps_a_lower_subgroup_bound(corpus):
    S4 = corpus["S4"].build()
    assert sigma_full_sylow_type_violation(S4, S1) is None
    with pytest.raises(CapacityError, match="subgroup-enumeration bound 3"):
        sigma_full_sylow_type_violation(S4, S1, Limits(subgroup_bound=3))


@pytest.mark.parametrize("stext", ["[2,3]", "sigma1"])
def test_sigma_nilpotency_keeps_a_lower_table_bound_with_no_table(table_builds, stext):
    """Sigma-nilpotency reads one R_i memo per block of sigma(G), and every
    read checks the table bound: at a one-block partition and at sigma1, S4
    under a table bound of 10 is refused before any table is built, and
    again once the R_i are cached under the default limits."""
    clear_intern_cache()  # no table or R_i left on S4 by an earlier test
    sigma = parse_sigma(stext)
    S4 = builtin_entry("S4").build()
    refused = pytest.raises(CapacityError,
                            match="group order 24 exceeds multiplication-table bound 10")
    with refused:
        is_sigma_nilpotent(S4, sigma, LOW_TABLE)
    assert table_builds == []
    assert is_sigma_nilpotent(S4, sigma) == (stext == "[2,3]")
    with refused:
        is_sigma_nilpotent(S4, sigma, LOW_TABLE)
    clear_intern_cache()


@pytest.mark.parametrize("verdict", [
    lambda G, limits: is_sigma_nilpotent(G, S1, limits),
    lambda G, limits: sigma_nilpotent_residual(G, S1, limits),
    lambda G, limits: psigma_t_violation(G, S1, limits),
    lambda G, limits: complete_hall_sigma_set(G, S1, limits),
    lambda G, limits: is_sigma_permutable(G, full_subgroup(G), S1, limits),
    lambda G, limits: sigma_full_sylow_type_violation(G, S1, limits),
], ids=["nilpotent", "residual", "psigma-t", "hall-set", "permutable", "sylow-type"])
def test_every_cached_verdict_keeps_a_lower_table_bound(corpus, verdict):
    first = verdict(corpus["S4"].build(), Limits())
    with pytest.raises(CapacityError, match="multiplication-table bound 10"):
        verdict(builtin_entry("S4").build(), LOW_TABLE)
    # the default limits still find the cached verdict
    assert verdict(corpus["S4"].build(), Limits()) == first


def test_table_only_results_are_computed_once_per_root(monkeypatch):
    """A sigma result that reads only the root's table is cached once per
    root and mask, and so is every memo of ``structure`` it reads, P(G)
    included: asked under two limits with one table bound, each is computed
    once, and a lower table bound still refuses the cached value."""
    clear_intern_cache()  # nothing cached on S4 by an earlier test
    computed = []
    memo = structure_module._memo

    def spying(G, limits, compute, *key):
        # the value's key with any limits left out
        value = (G.mask, *(k for k in key if not isinstance(k, Limits)))
        return memo(G, limits, lambda: computed.append(value) or compute(), *key)

    monkeypatch.setattr(sigma_module, "_memo", spying)
    monkeypatch.setattr(structure_module, "_memo", spying)
    S4 = builtin_entry("S4").build()
    asks = [lambda limits: is_sigma_soluble(S4, S1, limits),
            lambda limits: sigma_nilpotent_residual(S4, S1, limits),
            lambda limits: largest_normal_block_subgroup(S4, {2}, limits)]
    first = [ask(Limits()) for ask in asks]
    assert [ask(Limits(subgroup_bound=50)) for ask in asks] == first
    assert {"insoluble-primes", "sigma-residual", "class-closures"} <= {k[1] for k in computed}
    assert len(computed) == len(set(computed))
    for ask in asks:
        with pytest.raises(CapacityError, match="group order 24 exceeds multiplication-table "
                                                "bound 10"):
            ask(LOW_TABLE)


def test_power_automorphism_check_keeps_a_lower_table_bound(table_builds):
    """Normality is checked on the table fetched under the caller's limits,
    so a table bound below |G| refuses before any table is built."""
    clear_intern_cache()  # no table left on S4 by an earlier test
    S4 = builtin_entry("S4").build()
    V4 = sub(S4, "(1 2)(3 4)", "(1 3)(2 4)")
    with pytest.raises(CapacityError, match="group order 24 exceeds multiplication-table bound 10"):
        induces_power_automorphisms(S4, V4, LOW_TABLE)
    assert table_builds == []
    clear_intern_cache()


# ---------------------------------------------------------------------------
# internal checks raise InvariantError, which python -O keeps

def test_hall_set_order_check_raises(corpus, monkeypatch):
    S3 = corpus["S3"].build()
    blocks = sigma_module._hall_data(S3, S1, Limits())
    # drop the Sylow 3-block: the members no longer multiply to |G|
    monkeypatch.setattr(sigma_module, "_hall_data", lambda G, sigma, limits: blocks[:1])
    with pytest.raises(InvariantError, match="multiply to 2, not 6"):
        complete_hall_sigma_set(S3, S1)


@pytest.fixture()
def fresh_s3():
    """S3 on an empty intern table, emptied again afterwards, so nothing a
    test caches on it reaches another test."""
    clear_intern_cache()
    yield builtin_entry("S3").build()
    clear_intern_cache()


def test_residual_witness_check_raises(monkeypatch, fresh_s3):
    # S3 at sigma1 has residual A3: a residual that is not normal, or one
    # whose quotient is not sigma-nilpotent, trips a check
    S3 = fresh_s3
    with monkeypatch.context() as m:
        m.setattr(sigma_module, "_greedy_subgroup", lambda G, mask, limits: sub(S3, "(1 2)"))
        with pytest.raises(InvariantError, match="residual: not normal, or the quotient"):
            sigma_nilpotent_residual(S3, S1)
    # a trivial D is normal, and S3/1 is not sigma-nilpotent: |R_2| = 6, not 1 * 2
    monkeypatch.setattr(sigma_module, "_greedy_subgroup",
                        lambda G, mask, limits: trivial_subgroup(S3))
    with pytest.raises(InvariantError, match="residual: not normal, or the quotient"):
        sigma_nilpotent_residual(S3, S1)


def test_residual_normality_is_tested_on_every_nontrivial_residual(monkeypatch, fresh_s3):
    """A residual above 1 is tested for normality on the table, and one
    planted answer of "not normal" trips the check; D = 1, at a one-block
    partition, is normal with no test and no table."""
    S3 = fresh_s3
    asked = []
    monkeypatch.setattr(sigma_module, "_is_normal_in",
                        lambda table, G, N: asked.append(N.order) or False)
    assert sigma_nilpotent_residual(S3, parse_sigma("[2,3]")).order == 1
    assert asked == []
    with pytest.raises(InvariantError, match="residual: not normal, or the quotient"):
        sigma_nilpotent_residual(S3, S1)
    assert asked == [3]


def test_largest_normal_block_check_raises(monkeypatch, fresh_s3):
    # two subgroups of order 2 of S3 passed off as class closures join to S3,
    # which is not a 2-group
    S3 = fresh_s3
    halves = {sub(S3, "(1 2)").mask, sub(S3, "(1 3)").mask}
    monkeypatch.setattr(sigma_module, "_class_closures", lambda table, gmask, gens: halves)
    with pytest.raises(InvariantError, match="join outside the block"):
        largest_normal_block_subgroup(full_subgroup(S3), {2})
