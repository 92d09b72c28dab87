"""Rational periodic and preperiodic points of x^2 + c for integer c.

Rational periodic points of a monic integer quadratic are integers of period
1 or 2 (no larger period occurs over Q), so the periodic part is read off the
discriminants of x^2 - x + c and x^2 + x + c + 1.  The preperiodic set of
every map is the backward closure of its periodic points under
`arith.square_preimages`, which is finite.  A map whose periodic part
contains a perfect square falls into exactly one of two one-parameter
shapes, whose preperiodic sets have a closed form.  This module is the one
place that defines both (`shape_constant` and `PREPER_TARGETS`):

    c = s^2 - s^4      ->  {s^2, -s^2, 1-s^2, -(1-s^2)}   (square fixed point)
    c = -1 - s^2 - s^4 ->  {s^2, -s^2, 1+s^2, -(1+s^2)}   (square in a 2-cycle)

`preper_set` does not read the closed form; it is data for the callers that
need the targets as formulas in s, and the tests check it against the
closure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import is_perfect_square, square_preimages

FIXED_SQUARE = "fixed-square"
TWO_CYCLE_SQUARE = "two-cycle-square"

# shape -> its preperiodic targets as (sign, offset), each meaning the value
# sign*s^2 + offset; the preperiodic set of the shape's map is exactly these
PREPER_TARGETS = {
    FIXED_SQUARE: ((1, 0), (-1, 0), (1, -1), (-1, 1)),
    TWO_CYCLE_SQUARE: ((1, 0), (-1, 0), (1, 1), (-1, -1)),
}


def shape_constant(kind: str, s: int) -> int:
    """The constant c of the given shape: s^2 - s^4 (fixed) or -1 - s^2 - s^4 (cycle)."""
    s2 = s * s
    if kind == FIXED_SQUARE:
        return s2 - s2 * s2
    if kind == TWO_CYCLE_SQUARE:
        return -1 - s2 - s2 * s2
    raise ValueError(f"unknown square shape {kind!r}")


class SquareForm(NamedTuple):
    """Shape of a map with a square periodic point: s*s is that point."""

    kind: str  # FIXED_SQUARE or TWO_CYCLE_SQUARE
    s: int     # normalized nonnegative; only s^2 enters any formula


class Portrait(NamedTuple):
    """The rational preperiodic structure of one map x^2 + c."""

    c: int
    fixed_points: frozenset[int]
    two_cycles: frozenset[tuple[int, int]]
    preper: frozenset[int]
    square_form: SquareForm | None


def rational_periodic_points(c: int) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Integer fixed points and 2-cycles of x^2 + c; no higher period exists over Q.

    Fixed points are the integer roots of x^2 - x + c (present iff 1 - 4c is a
    square); 2-cycle members are the integer roots of x^2 + x + c + 1 (present
    iff -3 - 4c is a square).  Cycles are returned as sorted pairs.
    """
    fixed: frozenset[int] = frozenset()
    d = is_perfect_square(1 - 4 * c)
    if d is not None:
        # 1 - 4c is odd, so d is odd and both roots are integers
        fixed = frozenset({(1 + d) // 2, (1 - d) // 2})
    cycles: frozenset[tuple[int, int]] = frozenset()
    d = is_perfect_square(-3 - 4 * c)
    if d is not None:
        a, b = (-1 + d) // 2, (-1 - d) // 2
        cycles = frozenset({(min(a, b), max(a, b))})
    return fixed, cycles


def recognize_square_periodic(c: int) -> SquareForm | None:
    """Match c against the two shapes that admit a square periodic point.

    A square fixed point s^2 (a root of x^2 - x + c) forces c = s^2 - s^4, and
    a square 2-cycle point s^2 (a root of x^2 + x + c + 1) forces
    c = -1 - s^2 - s^4, so the first square periodic point, fixed points first
    and ascending, gives the shape in O(1).  For c = 0 that is 0, so s = 0.
    """
    fixed, cycles = rational_periodic_points(c)
    for kind, points in ((FIXED_SQUARE, fixed), (TWO_CYCLE_SQUARE, sum(cycles, ()))):
        for p in sorted(points):
            s = is_perfect_square(p)
            if s is not None:
                return SquareForm(kind, s)
    return None


@lru_cache(maxsize=None)
def preper_set(c: int) -> frozenset[int]:
    """All rational (hence integer) preperiodic points of x^2 + c.

    The backward closure of the periodic points: adjoin the integer
    preimages +-sqrt(p - c) of the newest points until nothing new appears
    (always finite).  For the two square shapes this equals the closed form
    `PREPER_TARGETS`.
    """
    fixed, cycles = rational_periodic_points(c)
    pts = frontier = fixed.union(*cycles)
    while frontier:
        frontier = square_preimages(frontier, c) - pts
        pts |= frontier
    return pts


def portrait(c: int) -> Portrait:
    """Assemble the full portrait of x^2 + c."""
    fixed, cycles = rational_periodic_points(c)
    return Portrait(
        c=c,
        fixed_points=fixed,
        two_cycles=cycles,
        preper=preper_set(c),
        square_form=recognize_square_periodic(c),
    )
