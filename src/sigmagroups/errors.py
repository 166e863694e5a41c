"""Shared error types and capacity limits."""
from __future__ import annotations

from dataclasses import dataclass, fields


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
    """Resource bounds for element lists, lattices and tables.

    ``subgroup_bound`` caps the size of both lattices: the subgroup lattice
    and the normal lattice, so it reaches every statement and call that
    reads normal subgroups (Lem2.3, Lem2.4, Lem2.5, ``chief_series``,
    ``minimal_normal_subgroups``).  ``table_order_bound`` caps the order of
    a group given a multiplication table, which every subgroup or normal
    lattice needs.  The table of a group of order n is n rows of n
    ``array('H')`` entries, 2·n² bytes: 32 MiB at the default 4096 and
    8 GiB at 65536.  Above 65536 the bound is a GroupInputError, since
    table indices are 16-bit.  Any bound below 1 is a GroupInputError too.
    The command line offers one ``--`` option per field, read off this
    class, so a refusal names the field by that option."""

    element_cache_bound: int = 20000
    subgroup_bound: int = 2000
    table_order_bound: int = 4096

    def __post_init__(self):
        for cap in fields(self):
            value = getattr(self, cap.name)
            if value < 1:
                raise GroupInputError(
                    f"--{cap.name.replace('_', '-')} must be at least 1, got {value}")
        if self.table_order_bound > 1 << 16:
            raise GroupInputError(
                f"table order bound {self.table_order_bound} is above 65536, the largest "
                f"group order whose table indices fit 16 bits")


DEFAULT_LIMITS = Limits()
