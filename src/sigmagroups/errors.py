"""Shared error types and capacity limits."""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .numbers import is_prime

# Primality is decided by trial division, so a prime given as input, a block
# number of a partition included, has at most 9 digits
BLOCK_DIGITS = 9
_TOO_LONG = f"a block number has more than {BLOCK_DIGITS} digits"

# Table indices are 16-bit, so no group of larger order gets a table, and no
# group of larger order has its elements listed
MAX_TABLE_ORDER = 1 << 16


class GroupInputError(ValueError):
    """Malformed input or usage: bad cycle text, degree mismatch, non-member
    generator, a resource bound out of range, ..."""


class CapacityError(RuntimeError):
    """A configured resource bound was exceeded; the message names the bound."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never a property of the input.

    Raised explicitly rather than by ``assert``, so the checks still run
    under ``python -O``."""


@dataclass(frozen=True)
class Limits:
    """Resource bounds for lattices and tables.

    ``subgroup_bound`` caps the size of both lattices: the subgroup lattice
    and the normal lattice, so it reaches every statement and call that
    reads normal subgroups (Lem2.3, Lem2.4, Lem2.5, ``chief_series``,
    ``minimal_normal_subgroups``).  ``table_order_bound`` caps the order of
    a group given a multiplication table, which every subgroup or normal
    lattice needs, and it is the one bound on a group's order: a corpus
    group over it is refused before its elements are listed.  The table of
    a group of order n is n rows of n ``array('H')`` entries, 2·n² bytes:
    32 MiB at the default 4096 and 8 GiB at 65536.  Above
    ``MAX_TABLE_ORDER``, 65536, the bound is a GroupInputError, since table
    indices are 16-bit.  A bound that is not an ``int`` (a bool included)
    or is below 1 is a GroupInputError too.  The command line offers one
    ``--`` option per field, read off this class with the help text in the
    field's metadata, so a refusal names the field by that option."""

    subgroup_bound: int = field(default=2000, metadata={
        "help": "largest number of subgroups, or of normal subgroups, of one group"})
    table_order_bound: int = field(default=4096, metadata={
        "help": "largest group order given a multiplication table; the table of "
                "order n takes 2*n^2 bytes: 32 MiB at 4096, 8 GiB at 65536, the "
                "largest bound admitted"})

    def __post_init__(self):
        for cap in fields(self):
            _check_count(f"--{cap.name.replace('_', '-')}", getattr(self, cap.name))
        if self.table_order_bound > MAX_TABLE_ORDER:
            raise GroupInputError(
                f"table order bound {self.table_order_bound} is above {MAX_TABLE_ORDER}, the "
                f"largest group order whose table indices fit 16 bits")


def _check_count(option: str, value) -> None:
    """GroupInputError unless ``value`` is an ``int`` of at least 1; a bool
    is not a count, as it is not a ``PermGroup`` degree."""
    if type(value) is not int:
        raise GroupInputError(f"{option} must be an int, got {value!r}")
    if value < 1:
        raise GroupInputError(f"{option} must be at least 1, got {value}")


def _check_prime(p) -> int:
    """``p`` when it is a prime ``int`` of at most ``BLOCK_DIGITS`` digits,
    else GroupInputError.  A bool is not a prime, and the digits are
    counted before any trial division."""
    if type(p) is not int:
        raise GroupInputError(f"a prime must be an int, got {p!r}")
    if p >= 10 ** BLOCK_DIGITS:
        raise GroupInputError(_TOO_LONG)
    if not is_prime(p):
        raise GroupInputError(f"{p} is not a prime")
    return p


DEFAULT_LIMITS = Limits()
