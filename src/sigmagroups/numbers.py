"""Integer helpers on positive ints: group orders and counts, and the
declared orders of corpus entries, which may be far larger than any group
that is built (``trial_division`` bounds the work on those)."""
from __future__ import annotations

import functools


def trial_division(n: int, limit: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The sorted (prime, exponent) pairs of the primes of n >= 1 up to
    ``limit``, and what is left of n after dividing them out.  The division
    stops once the next divisor is above ``limit`` or its square is above
    what is left, so it makes at most min(limit, sqrt(n)) divisions, and
    none more once 1 is left; what is left then is 1, a prime, or a number
    whose prime factors are all above ``limit``."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = []
    d = 2
    while d <= limit and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    return tuple(out), n


@functools.lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted (prime, exponent) pairs of n >= 1."""
    found, rest = trial_division(n, n)
    return found + ((rest, 1),) if rest > 1 else found


def primes_of(n: int) -> frozenset[int]:
    return frozenset(p for p, _ in prime_factors(n))


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == ((n, 1),)


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(prime_factors(n)) == 1


def part_for_primes(n: int, primes) -> int:
    """Largest divisor of n supported on the given primes."""
    out = 1
    for p, e in prime_factors(n):
        if p in primes:
            out *= p ** e
    return out
