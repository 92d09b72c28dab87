"""Exact arbitrary-precision integer helpers.

Pure functions on Python ints: perfect-square detection, the integer
preimages of a value set under x^2 + c (the one backward step behind the
preperiodic sets and the square-value sets of the prefix certificates),
and divisor enumeration (behind `diophantine.quartic_curve_points`).
"""

from __future__ import annotations

import math


def is_perfect_square(n: int) -> int | None:
    """Nonnegative root r with r*r == n, or None if n is not a square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def square_preimages(values: frozenset[int], c: int) -> frozenset[int]:
    """The integers y with y^2 + c in `values`."""
    roots = (is_perfect_square(v - c) for v in values)
    return frozenset(y for r in roots if r is not None for y in (r, -r))


def positive_divisors(n: int) -> list[int]:
    """Ascending positive divisors of |n|, by trial division.  n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    n = abs(n)
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]

