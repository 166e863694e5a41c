"""Builtin catalog integrity, corpus file round trips, prime-set partitions."""

import contextlib
import math
import re
import signal
import time

import pytest

from sigmagroups import (CapacityError, CorpusEntry, GroupInputError, Limits, Perm,
                         PermGroup, builtin_corpus, builtin_entry, parse_corpus_file,
                         partitions_of_primes)
from sigmagroups.corpus import RefusedEntry
from sigmagroups.numbers import prime_factors, primes_of, trial_division
from sigmagroups.permcore import clear_intern_cache
from sigmagroups.sigma import SigmaPartition

REQUIRED_NAMES = (
    ["C1"] + [f"C{n}" for n in range(2, 17)]
    + ["E4", "E8", "E9", "S3", "S4", "S5", "A4", "A5", "D8", "D10", "D12",
       "Q8", "Q16", "F20", "F21", "SL(2,3)", "C3xS3", "C2xA4"]
)


# ---------------------------------------------------------------------------
# builtin catalog

def test_builtin_names_are_unique():
    names = [e.name for e in builtin_corpus()]
    assert len(names) == len(set(names))


def test_required_groups_are_present(corpus):
    missing = [n for n in REQUIRED_NAMES if n not in corpus]
    assert not missing, missing


def test_every_entry_builds_to_its_declared_order(corpus):
    for e in corpus.values():
        G = e.build()
        assert G.order == e.expected_order, e.name
        assert G.degree == e.degree, e.name


def test_every_entry_has_at_most_three_primes(corpus):
    for e in corpus.values():
        assert len(primes_of(e.expected_order)) <= 3, e.name


def test_builds_are_interned(corpus):
    assert corpus["S4"].build() is corpus["S4"].build()


def test_table_bound_refuses_before_any_element_is_listed(monkeypatch):
    """The chain knows the order, so a group over the table bound is refused
    without being enumerated."""
    listed = []
    original = PermGroup.elements
    monkeypatch.setattr(PermGroup, "elements",
                        lambda self, *a: listed.append(self.order) or original(self, *a))
    with pytest.raises(CapacityError,
                       match="group order 24 exceeds multiplication-table bound 10"):
        builtin_entry("S4").build(Limits(table_order_bound=10))
    assert listed == []


def test_table_bound_refuses_a_declared_order_before_the_chain_is_built(chain_builds):
    """An entry declared as S_60 is refused by its declared order, 60!,
    with the message the generated order would give, and no Schreier-Sims
    chain is built: its build took tens of milliseconds only to be refused."""
    n = 60
    S60 = CorpusEntry("S60", n, (Perm.parse("(1 2)", n),
                                 Perm.parse("(" + " ".join(map(str, range(1, n + 1))) + ")", n)),
                      math.factorial(n))
    with pytest.raises(CapacityError) as refusal:
        S60.build()
    assert str(refusal.value) == (f"group order {math.factorial(n)} exceeds "
                                  f"multiplication-table bound {Limits().table_order_bound}")
    assert chain_builds == []


def test_a_raised_table_bound_alone_admits_a_larger_group(table_builds):
    """The table bound is the one bound on a group's order: A8 (20160) is
    built and listed under a raised table bound alone, and building it
    makes no table."""
    A8 = CorpusEntry("A8", 8, (Perm.parse("(1 2 3)", 8), Perm.parse("(2 3 4 5 6 7 8)", 8)),
                     20160)
    try:
        G = A8.build(Limits(table_order_bound=30000))
        assert len(G.elements()) == 20160
        assert table_builds == []
    finally:
        clear_intern_cache()


def test_builtin_entry_lookup():
    assert builtin_entry("Q8").expected_order == 8
    with pytest.raises(GroupInputError):
        builtin_entry("no-such-group")


def test_order_mismatch_fails_loudly():
    bad = CorpusEntry("bogus", 3, (Perm.parse("(1 2 3)", 3),), 6)
    with pytest.raises(GroupInputError, match="bogus"):
        bad.build()


@pytest.mark.parametrize("order", [0, -6, 6.0, True, "6"], ids=repr)
def test_a_declared_order_that_is_not_a_count_is_refused(order):
    """A campaign labels the rows of an entry that does not build from the
    primes of its declared order, so an order that is not a positive int is
    refused when the entry is made, in a corpus file too, where the refusal
    is raised when the entry is built."""
    with pytest.raises(GroupInputError, match="corpus entry 'z': declared order must be"):
        CorpusEntry("z", 3, (Perm.parse("(1 2 3)", 3),), order)
    if order == 0:
        [entry] = parse_corpus_file("group z deg 3\ngen (1 2 3)\norder 0\n")
        with pytest.raises(GroupInputError, match="declared order must be at least 1, got 0"):
            entry.build()


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` inside the block once ``seconds`` of wall time
    have passed, so a stalled call fails the test then rather than when it
    returns; the old alarm handler is restored on the way out."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("order", [7, 10, 2**61 - 1], ids=repr)
def test_a_declared_order_with_a_prime_above_the_degree_is_refused(order):
    """No group of degree 3 has an order with a prime factor above 3, so the
    entry is refused when it is made, at once: a campaign labels the rows of
    an entry that does not build by factoring its declared order, and
    factoring 2**61 - 1 by trial division stalls it."""
    message = f"corpus entry 'z': declared order {order} has a prime factor above the degree 3"
    t0 = time.perf_counter()
    with deadline(1):
        with pytest.raises(GroupInputError, match=re.escape(message)):
            CorpusEntry("z", 3, (Perm.parse("(1 2 3)", 3),), order)
        assert time.perf_counter() - t0 < 1
        [entry] = parse_corpus_file(f"group z deg 3\ngen (1 2 3)\norder {order}\n")
        assert time.perf_counter() - t0 < 1
    with pytest.raises(GroupInputError, match=re.escape(message)):
        entry.build()


@pytest.mark.parametrize("degree, order, fits", [
    (4, 24, True), (4, 48, False), (3, 6, True), (3, 2 ** 13, False), (16, 2 ** 13, True),
    (16, 2 ** 16, False)], ids=repr)
def test_a_declared_order_must_divide_degree_factorial(degree, order, fits):
    """Every group of degree n has an order dividing n!, so a declared order
    with a prime of higher exponent than in n! (Legendre's formula) is
    refused when the entry is made: 2^4 divides 48 but not 4! = 24."""
    gens = (Perm.parse("(1 2 3)", degree),)
    if fits:
        assert CorpusEntry("z", degree, gens, order).expected_order == order
    else:
        with pytest.raises(GroupInputError, match=re.escape(
                f"corpus entry 'z': declared order {order} does not divide {degree}!")):
            CorpusEntry("z", degree, gens, order)


@pytest.mark.parametrize("n, limit, found, rest", [
    (2 ** 52, 10 ** 8, ((2, 52),), 1), (2 ** 100, 10 ** 10, ((2, 100),), 1),
    (10 ** 18 + 3, 3, (), 10 ** 18 + 3), (45, 3, ((3, 2),), 5)], ids=repr)
def test_trial_division_stops_at_one_or_at_its_limit(n, limit, found, rest):
    """The division stops once the next divisor's square is above what is
    left, so a power of two is done at 1 whatever the limit, and once the
    next divisor is above the limit, so 10^18 + 3, with no prime factor up
    to 3, is left whole after two divisions; the limit itself is tried."""
    assert trial_division(n, limit) == (found, rest)


@pytest.mark.parametrize("degree, order", [(10 ** 8, 2 ** 52), (10 ** 10, 2 ** 100)], ids=repr)
def test_a_huge_declared_power_of_two_is_read_at_once(degree, order):
    """Checking that the declared order divides degree! factors it only as
    far as what is left of it, so each file is read at once: a division up
    to min(degree, sqrt(order)), 6.7e7 and 1e10 divisions, takes a minute
    or more."""
    t0 = time.perf_counter()
    with deadline(1):
        [entry] = parse_corpus_file(f"group X deg {degree}\norder {order}\n")
    assert time.perf_counter() - t0 < 1
    assert (entry.degree, entry.expected_order) == (degree, order)


def naive_factorisation(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def test_prime_factors_match_a_naive_factorisation():
    for n in [*range(1, 10_001), math.factorial(20), 2 ** 100 * 3 ** 5]:
        assert prime_factors(n) == naive_factorisation(n), n


@pytest.mark.parametrize("degree", [0, True, 3.0, "3"], ids=repr)
def test_a_degree_that_is_not_a_count_is_refused(degree):
    """The declared-order check reads the degree, so a library entry's
    degree must be a positive int, as a corpus file's must: ``CorpusEntry``
    is the one check of both."""
    with pytest.raises(GroupInputError, match="corpus entry 'z': degree must be"):
        CorpusEntry("z", degree, (), 1)
    if degree == 0:
        [entry] = parse_corpus_file("group z deg 0\norder 1\n")
        with pytest.raises(GroupInputError,
                           match="^corpus entry 'z': degree must be at least 1, got 0$"):
            entry.build()


def test_selected_orders(corpus):
    expected = {"S5": 120, "SL(2,5)": 120, "PSL(2,7)": 168, "F21": 21,
                "C7:C6": 42, "C13:C3": 39, "C5xA4": 60, "C2xSL(2,3)": 48}
    for name, order in expected.items():
        assert corpus[name].expected_order == order


# ---------------------------------------------------------------------------
# corpus files

GOOD_FILE = """\
# a comment
group S3 deg 3
gen (1 2 3)
gen (1 2)
order 6
tags soluble demo

group K4 deg 4
gen (1 2)(3 4)
gen (1 3)(2 4)
order 4
"""


def test_parse_corpus_file():
    entries = parse_corpus_file(GOOD_FILE)
    assert [e.name for e in entries] == ["S3", "K4"]
    assert entries[0].tags == ("soluble", "demo")
    assert entries[1].build().order == 4


def corpus_text(entries):
    """Entries in the corpus file format, as ``parse_corpus_file`` reads it."""
    chunks = []
    for e in entries:
        lines = [f"group {e.name} deg {e.degree}", *(f"gen {g}" for g in e.generators),
                 f"order {e.expected_order}"]
        if e.tags:
            lines.append("tags " + " ".join(e.tags))
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def test_round_trip_through_serialization():
    entries = parse_corpus_file(GOOD_FILE)
    again = parse_corpus_file(corpus_text(entries))
    assert [(e.name, e.degree, e.expected_order, e.tags,
             tuple(str(g) for g in e.generators)) for e in entries] == \
           [(e.name, e.degree, e.expected_order, e.tags,
             tuple(str(g) for g in e.generators)) for e in again]


def test_builtin_round_trips():
    text = corpus_text(builtin_corpus())
    again = parse_corpus_file(text)
    assert [e.name for e in again] == [e.name for e in builtin_corpus()]


@pytest.mark.parametrize("text,fragment", [
    ("group X deg 3\ngen (1 2)\n", "no order line"),
    ("group X\ngen (1 2)\norder 2\n", "expected 'group"),
    ("gen (1 2)\norder 2\n", "before any group header"),
    ("group X deg 3\ngen (1 2)\norder 2\n\ngroup X deg 3\ngen (1 2)\norder 2\n",
     "duplicate group name"),
    ("group X deg 3\nfrobnicate yes\norder 1\n", "unknown directive"),
    ("group X deg zero\norder 1\n", "bad degree"),
    ("group X deg 3\norder 2\norder 2\n", "second order line"),
    ("group X deg 3\ngen (1 9)\norder 2\n", "line 2"),
    ("group X deg 3\ngen (1 2)\norder twelve\n", "bad order line"),
])
def test_parse_corpus_file_errors(text, fragment):
    """A syntax error stops the file when it is read.  A generator that does
    not fit its entry, such as (1 9) at degree 3, refuses that entry alone:
    the file reads, and building the entry raises the line-numbered
    message."""
    if "gen (1 9)" in text:
        [entry] = parse_corpus_file(text)
        assert isinstance(entry, RefusedEntry) and entry.name == "X"
        with pytest.raises(GroupInputError, match=f"^{fragment}: point 9 outside 1..3$"):
            entry.build()
        return
    with pytest.raises(GroupInputError, match=fragment.replace("(", "\\(")):
        parse_corpus_file(text)


def test_only_the_first_bad_generator_of_an_entry_is_reported():
    """Every bad generator line is read, the first one's message is kept,
    and the entries around the refused one parse as before."""
    text = ("group A deg 2\ngen (1 2)\norder 2\n\n"
            "group X deg 3\ngen (1 2 2)\ngen (4 1)\norder 2\n\n"
            "group B deg 3\ngen (1 2 3)\norder 3\n")
    a, x, b = parse_corpus_file(text)
    assert (a.name, a.expected_order, b.name, b.expected_order) == ("A", 2, "B", 3)
    assert x == RefusedEntry("X", "line 6: repeated point 2 in '(1 2 2)'")


def test_parse_corpus_file_checks_generated_order():
    # a prime above the degree is refused when the file is read, and the
    # refusal is raised when the entry is built
    [entry] = parse_corpus_file("group X deg 3\ngen (1 2 3)\norder 7\n")
    with pytest.raises(GroupInputError, match="'X': declared order 7 has a prime factor"):
        entry.build()
    # an order whose primes fit the degree is checked against the group at build
    [entry] = parse_corpus_file("group X deg 3\ngen (1 2 3)\norder 6\n")
    with pytest.raises(GroupInputError, match="'X': generated order 3, declared 6"):
        entry.build()


def test_reading_a_corpus_file_builds_no_chain(chain_builds):
    """Parsing only reads text: the 45 builtins' corpus text yields 45
    entries and no Schreier-Sims chain."""
    entries = parse_corpus_file(corpus_text(builtin_corpus()))
    assert len(entries) == 45
    assert chain_builds == []


def test_empty_file_yields_no_entries():
    assert parse_corpus_file("") == []
    assert parse_corpus_file("# just a comment\n") == []


# ---------------------------------------------------------------------------
# partitions of a prime set

def test_partition_counts_follow_bell_numbers():
    assert len(partitions_of_primes([])) == 1
    assert len(partitions_of_primes([2])) == 1
    assert len(partitions_of_primes([2, 3])) == 2
    assert len(partitions_of_primes([2, 3, 5])) == 5
    assert len(partitions_of_primes([2, 3, 5, 7])) == 15
    assert len(partitions_of_primes([2, 3, 5, 7, 11])) == 52


def test_partitions_are_distinct_listed_and_sorted():
    parts = partitions_of_primes([2, 3, 5])
    texts = [p.text() for p in parts]
    assert len(set(texts)) == 5
    assert all(not p.classical for p in parts)
    assert texts == sorted(texts, key=lambda t: (t.count("["), t))
    assert "[2,3,5]" in texts and "[2][3][5]" in texts


def test_partitions_cover_every_prime_exactly_once():
    for p in partitions_of_primes([2, 3, 5]):
        covered = sorted(q for b in p.blocks for q in b)
        assert covered == [2, 3, 5]


def test_empty_prime_set_gives_the_empty_partition():
    (only,) = partitions_of_primes([])
    assert only == SigmaPartition()
    assert only.text() == "[]"


def test_partitions_reject_bad_input():
    with pytest.raises(GroupInputError):
        partitions_of_primes([4])
    with pytest.raises(CapacityError):
        partitions_of_primes([2, 3, 5, 7, 11, 13, 17])
