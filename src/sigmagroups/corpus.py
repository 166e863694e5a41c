"""Builtin group catalog, corpus file I/O, and prime-set partitions.

The catalog is curated rather than exhaustive by order; the line-oriented
file format is the extension point for importing further groups:

    # comment
    group S3 deg 3
    gen (1 2 3)
    gen (1 2)
    order 6
    tags soluble

Entries are blank-line separated; ``order`` is mandatory and is checked
against the group actually generated when the entry is built, so a typo'd
generator fails loudly there, and in a campaign gives only its own rows.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import (CapacityError, DEFAULT_LIMITS, GroupInputError, Limits, _check_count,
                     _check_prime)
from .numbers import trial_division
from .permcore import Perm, PermGroup, interned, parse_cycles
from .sigma import SigmaPartition
from .structure import _check_table_room


@dataclass(frozen=True)
class CorpusEntry:
    """A named group of permutations with its declared order.

    Making an entry checks only values: the degree and the declared order
    are counts, and the order divides degree!, as the order of every group
    of that degree does: it has no prime factor above the degree, and no
    prime p in it has a higher exponent than p has in degree!.  The
    generated order and the table bound are checked by ``build``."""
    name: str
    degree: int
    generators: tuple[Perm, ...]
    expected_order: int
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # a campaign labels the rows of an entry that does not build from the
        # primes of its declared order, so that order must be a count with no
        # prime factor above the degree, as the order of every group of that
        # degree is: factoring it then stops at the degree, or at 1
        _check_count(f"corpus entry {self.name!r}: declared order", self.expected_order)
        _check_count(f"corpus entry {self.name!r}: degree", self.degree)
        found, rest = trial_division(self.expected_order, self.degree)
        for p, e in found:
            # Legendre: p has exponent sum(degree // p^k, k >= 1) in degree!;
            # a term past k = e is non-zero only when the first is above e
            if e > sum(self.degree // p ** k for k in range(1, e + 1)):
                raise GroupInputError(f"corpus entry {self.name!r}: declared order "
                                      f"{self.expected_order} does not divide {self.degree}!")
        # what is left is 1, a prime at most the degree (so it divides
        # degree!), or it has a prime factor above the degree
        if rest > self.degree:
            raise GroupInputError(
                f"corpus entry {self.name!r}: declared order {self.expected_order} has a "
                f"prime factor above the degree {self.degree}")

    def generated(self) -> PermGroup:
        """The group of the generators, with its Schreier-Sims chain only, so
        no bound applies; GroupInputError when its order is not the declared one."""
        G = PermGroup(self.degree, self.generators)
        if G.order != self.expected_order:
            raise GroupInputError(
                f"corpus entry {self.name!r}: generated order {G.order}, "
                f"declared {self.expected_order}")
        return G

    def build(self, limits: Limits = DEFAULT_LIMITS) -> PermGroup:
        """The interned group; CapacityError when its declared order exceeds
        the multiplication-table bound of ``limits``.

        Every lattice computed for the group is of it or of a subgroup or
        quotient, none larger, so the table bound, the one bound on a
        group's order, is checked here, before any work is done: against the
        declared order, before the chain is built.  ``generated`` then
        refuses any other order, so a group that builds fits the bound."""
        _check_table_room(self.expected_order, limits)
        return interned(self.generated())


@dataclass(frozen=True)
class RefusedEntry:
    """A corpus-file entry with a generator that does not fit it, or whose
    values ``CorpusEntry`` refused.  ``build`` raises that refusal, so the
    entry fails alone: a campaign gives it one ``error`` row per statement,
    and a command that names it is a usage error.  No declared order is
    kept, since a refused one cannot be factored safely."""
    name: str
    refusal: str
    # not a declared order: a campaign pool starts such an entry last
    expected_order = 0

    def build(self, limits: Limits = DEFAULT_LIMITS) -> PermGroup:
        raise GroupInputError(self.refusal)


def _entry(name: str, degree: int, gens: list[str], order: int, tags: str) -> CorpusEntry:
    perms = tuple(Perm(parse_cycles(g, degree)) for g in gens)
    return CorpusEntry(name, degree, perms, order, tuple(tags.split()))


def _cycle_text(n: int) -> str:
    return "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"


# Generator words for the non-cyclic entries were derived once (matrix actions
# for SL(2,5) and GL(3,2), semidirect actions for the Frobenius groups) and
# are frozen here; expected_order re-checks them on every build.
_BUILTIN: list[CorpusEntry] = []

_BUILTIN.append(_entry("C1", 1, [], 1, "cyclic abelian nilpotent trivial"))
for _n in range(2, 17):
    _tags = "cyclic abelian nilpotent"
    if len({p for p in (2, 3, 5, 7, 11, 13) if _n % p == 0}) == 1:
        _tags += " p-group"
    _BUILTIN.append(_entry(f"C{_n}", _n, [_cycle_text(_n)], _n, _tags))

_BUILTIN += [
    _entry("E4", 4, ["(1 2)", "(3 4)"], 4, "elementary-abelian abelian nilpotent p-group"),
    _entry("E8", 6, ["(1 2)", "(3 4)", "(5 6)"], 8, "elementary-abelian abelian nilpotent p-group"),
    _entry("E9", 6, ["(1 2 3)", "(4 5 6)"], 9, "elementary-abelian abelian nilpotent p-group"),
    _entry("S3", 3, ["(1 2 3)", "(1 2)"], 6, "symmetric soluble"),
    _entry("S4", 4, ["(1 2 3 4)", "(1 2)"], 24, "symmetric soluble"),
    _entry("S5", 5, ["(1 2 3 4 5)", "(1 2)"], 120, "symmetric insoluble"),
    _entry("A4", 4, ["(1 2 3)", "(1 2)(3 4)"], 12, "alternating soluble"),
    _entry("A5", 5, ["(1 2 3 4 5)", "(1 2 3)"], 60, "alternating simple insoluble perfect"),
    _entry("D8", 4, ["(1 2 3 4)", "(1 3)"], 8, "dihedral nilpotent p-group"),
    _entry("D10", 5, ["(1 2 3 4 5)", "(2 5)(3 4)"], 10, "dihedral soluble"),
    _entry("D12", 6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"], 12, "dihedral soluble"),
    _entry("Q8", 8, ["(1 2 3 4)(5 8 7 6)", "(1 5 3 7)(2 6 4 8)"], 8,
           "quaternion nilpotent p-group"),
    _entry("Q16", 16, ["(1 2 3 4 5 6 7 8)(9 16 15 14 13 12 11 10)",
                       "(1 9 5 13)(2 10 6 14)(3 11 7 15)(4 12 8 16)"], 16,
           "quaternion nilpotent p-group"),
    _entry("F20", 5, ["(1 2 3 4 5)", "(2 3 5 4)"], 20, "frobenius soluble"),
    _entry("F21", 7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"], 21, "frobenius soluble"),
    _entry("SL(2,3)", 8, ["(1 4 7)(2 8 5)", "(1 6 2 3)(4 7 8 5)"], 24, "linear soluble"),
    _entry("C3xS3", 6, ["(1 2 3)", "(4 5 6)", "(4 5)"], 18, "direct-product soluble"),
    _entry("C2xA4", 6, ["(1 2)", "(3 4 5)", "(3 4)(5 6)"], 24, "direct-product soluble"),
    # beyond the required minimum: more PsigmaT positives/negatives and two
    # more insoluble groups so the campaign sees each class fail often enough
    _entry("Dic3", 7, ["(1 2 3)", "(2 3)(4 5 6 7)"], 12, "dicyclic soluble"),
    _entry("C7:C6", 7, ["(1 2 3 4 5 6 7)", "(2 4 3 7 5 6)"], 42, "frobenius soluble"),
    _entry("C13:C3", 13, ["(1 2 3 4 5 6 7 8 9 10 11 12 13)",
                          "(2 4 10)(3 7 6)(5 13 11)(8 9 12)"], 39, "frobenius soluble"),
    _entry("C4xS3", 7, ["(1 2 3 4)", "(5 6 7)", "(5 6)"], 24, "direct-product soluble"),
    _entry("C2xS4", 6, ["(1 2)", "(3 4 5 6)", "(3 4)"], 48, "direct-product soluble"),
    _entry("C3xA4", 7, ["(1 2 3)", "(4 5 6)", "(4 5)(6 7)"], 36, "direct-product soluble"),
    _entry("C5xA4", 9, ["(1 2 3 4 5)", "(6 7 8)", "(6 7)(8 9)"], 60, "direct-product soluble"),
    _entry("C3xS4", 7, ["(1 2 3)", "(4 5 6 7)", "(4 5)"], 72, "direct-product soluble"),
    _entry("C2xSL(2,3)", 10, ["(1 2)", "(3 6 9)(4 10 7)", "(3 8 4 5)(6 9 10 7)"], 48,
           "direct-product soluble"),
    _entry("SL(2,5)", 24, ["(1 6 11 16 21)(2 12 22 7 17)(3 18 8 23 13)(4 24 19 14 9)",
                           "(1 20 4 5)(2 15 3 10)(6 21 24 9)(7 16 23 14)"
                           "(8 11 22 19)(12 17 18 13)"], 120, "linear insoluble perfect"),
    _entry("PSL(2,7)", 7, ["(2 6)(3 7)", "(1 4 2)(3 5 6)"], 168,
           "linear simple insoluble perfect"),
]


def builtin_corpus() -> list[CorpusEntry]:
    return list(_BUILTIN)


def builtin_entry(name: str) -> CorpusEntry:
    for e in _BUILTIN:
        if e.name == name:
            return e
    raise GroupInputError(f"no builtin group named {name!r}")


# ---------------------------------------------------------------------------
# corpus files

def _is_decimal(text: str) -> bool:
    """Does ``int`` read this text as plain decimal digits?  isdecimal,
    unlike isdigit, admits only digits that int reads, and refuses the signs
    and underscores int accepts; int reads at most
    sys.get_int_max_str_digits() digits (0: no limit)."""
    return text.isdecimal() and not 0 < sys.get_int_max_str_digits() < len(text)


def parse_corpus_file(text: str) -> list[CorpusEntry | RefusedEntry]:
    """The entries of a corpus file's text, in file order; no group is built.

    GroupInputError on a syntax error: a bad header, directive or order
    line, a missing order line or a duplicate name.  An entry with a
    generator that does not fit it, such as a point outside its degree, is
    a ``RefusedEntry`` with the first such line's numbered message, and so
    is one whose values ``CorpusEntry`` refuses, such as a degree or order
    that is not a count or a declared order that does not divide degree!.
    The generated order and the table bound are checked when an entry is
    built, so a wrong entry fails alone."""
    entries: list[CorpusEntry | RefusedEntry] = []
    names: set[str] = set()
    cur: dict | None = None

    def flush(lineno):
        nonlocal cur
        if cur is None:
            return
        if cur["order"] is None:
            raise GroupInputError(
                f"line {lineno}: entry {cur['name']!r} has no order line")
        try:
            if cur["refusal"] is not None:
                raise GroupInputError(cur["refusal"])
            entries.append(CorpusEntry(cur["name"], cur["degree"], tuple(cur["gens"]),
                                       cur["order"], tuple(cur["tags"])))
        except GroupInputError as exc:
            entries.append(RefusedEntry(cur["name"], str(exc)))
        cur = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            flush(lineno)
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "group":
            flush(lineno)
            if len(fields) != 4 or fields[2] != "deg":
                raise GroupInputError(
                    f"line {lineno}: expected 'group <name> deg <n>', got {raw!r}")
            name = fields[1]
            if name in names:
                raise GroupInputError(f"line {lineno}: duplicate group name {name!r}")
            names.add(name)
            if not _is_decimal(fields[3]):
                raise GroupInputError(f"line {lineno}: bad degree {fields[3]!r}")
            cur = {"name": name, "degree": int(fields[3]), "gens": [], "order": None, "tags": [],
                   "refusal": None}
            continue
        if cur is None:
            raise GroupInputError(f"line {lineno}: {kind!r} before any group header")
        if kind == "gen":
            body = line[len("gen"):].strip()
            try:
                cur["gens"].append(Perm(parse_cycles(body, cur["degree"])))
            except GroupInputError as exc:
                if cur["refusal"] is None:
                    cur["refusal"] = f"line {lineno}: {exc}"
        elif kind == "order":
            if cur["order"] is not None:
                raise GroupInputError(f"line {lineno}: second order line for {cur['name']!r}")
            if len(fields) != 2 or not _is_decimal(fields[1]):
                raise GroupInputError(f"line {lineno}: bad order line {raw!r}")
            cur["order"] = int(fields[1])
        elif kind == "tags":
            cur["tags"].extend(fields[1:])
        else:
            raise GroupInputError(f"line {lineno}: unknown directive {kind!r}")
    flush(len(text.splitlines()) + 1)
    return entries


# ---------------------------------------------------------------------------
# partitions of a prime set

def partitions_of_primes(pi) -> list[SigmaPartition]:
    """All set partitions of pi (Bell(|pi|) many) as listed partitions.

    The discrete partition already agrees with sigma1 on pi, so the classical
    spelling is never added separately; the empty prime set yields the single
    empty partition.
    """
    primes = sorted(set(map(_check_prime, pi)))
    if len(primes) > 6:
        raise CapacityError(f"partitions of {len(primes)} primes exceed the size bound 6")
    out: list[SigmaPartition] = []
    for blocks in _set_partitions(primes):
        out.append(SigmaPartition.of_blocks(*blocks))
    out.sort(key=lambda s: (len(s.blocks), s.text()))
    return out


def _set_partitions(items: list) -> list[list[set]]:
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [part[i] | {head}] + part[i + 1:])
        out.append(part + [{head}])
    return out
