"""Canonical heights with explicit error bounds, and the iterate bound N.

They feed the `heights` command and demo 03 only: no certificate rests on
them, since `exceptional` finds each certificate's iterate N exactly.

The canonical height of a under f(x) = x^2 + c is hhat(a) = lim h(f^n(a))/2^n
with h(x) = log max(|x|, 1).  For integer x the one-step defect is uniformly
bounded:

    |x^2 + c| <= max(|x|,1)^2 * 2(|c|+1)                    (triangle inequality)
    max(|x^2 + c|, 1) >= max(|x|,1)^2 / (2(|c|+1))
        [x^2 >= 2|c|: |x^2+c| >= x^2/2;  x^2 < 2|c|: max(|x|,1)^2 < 2(|c|+1)]

so |h(f(x)) - 2 h(x)| <= log(|c|+1) + log 2 =: C(f), and telescoping gives
|hhat(a) - h(f^n(a))/2^n| <= sum_{k>=n} C/2^(k+1) = C/2^n.

Integral points on the genus-one model Y^2 = f(f(X)) are found exactly by
factoring: Y^2 - (X^2+c)^2 = c forces (Y - X^2 - c)(Y + X^2 + c) = c, so
each point comes from a divisor pair of c, and diophantine.phi2_curve_points
lists them all.  This replaces an ineffective finiteness argument with a complete
enumeration.

The minimal positive height is searched over a box of integers only, and
every bound built from it carries the rigor flag "box-searched".  Since
f(-a) = f(a) gives -a the same estimate and the preperiodic set is closed
under negation, only a >= 0 is evaluated, and two facts confine the search
to a handful of integers (`min_positive_height`):

* c > 0: every iterate f^k(a), k >= 1, is positive and increasing in a >= 0,
  so the estimate is nondecreasing in a and the minimum is at a = 0;
* c < 0: the escape lemma (Call-Silverman; Silverman, The Arithmetic of
  Dynamical Systems, Sec. 3.4) says that if |x| >= 2 and x^2 >= 2|c| then
  |x^2 + c| >= x^2/2 >= |x|, so the orbit of x stays in that region and
  log|f(y)| >= 2 log|y| - log 2 along it.  Applied to x = f(a), telescoping
  gives h(f^n(a))/2^n >= (log|a^2 + c| - log 2)/2, so only the a with
  |a^2 + c| small, those near sqrt(-c), can hold the minimum.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .diophantine import phi2_curve_points
from .dynamics import QuadraticMap
from .portraits import preper_set

# Orbit values stay exact integers up to 2^L, L = max(_EXACT_BITS, bitlen|c| + 195);
# beyond it v^2 >= 2^450 |c|, so the one-step defect |log(1 + c/v^2)| of the
# iteration on logs is below 2^-450 and invisible at double precision.
_EXACT_BITS = 256

# 2.0**iterations overflows a double past this
MAX_ITERATIONS = 1023

# Absolute slack on the escape-lemma stop, far above the float rounding of
# log|a| - log 2 - C/2^n and of a height estimate (both below 1e-12)
_ESCAPE_MARGIN = 1e-9

RIGOR_BOX = "box-searched"


class HeightEstimate(NamedTuple):
    """h(f^n(a))/2^n together with the telescoping error bound C(f)/2^n."""

    value: float
    error: float
    iterations: int

    @property
    def lower(self) -> float:
        return self.value - self.error

    @property
    def upper(self) -> float:
        return self.value + self.error


class IterateBound(NamedTuple):
    """N = ceil(log2(B / hmin)) + 2, with B dominating heights of integral points.

    Once f^N(a) is a perfect square for an integer a, a must be preperiodic;
    `rigor` records that hmin was minimized over a box of integers rather than
    all rationals.  `integral_points` are the points of Y^2 = f(f(X)) that B
    was taken over, so a caller need not enumerate them again.
    """

    N: int
    B: float
    hmin: float
    rigor: str
    integral_points: frozenset[tuple[int, int]]


def height_defect_bound(map: QuadraticMap) -> float:
    """C(f) = log(|c|+1) + log 2, the uniform bound on |h(f(x)) - 2h(x)|."""
    return math.log(abs(map.c) + 1) + math.log(2.0)


def naive_height(x: int) -> float:
    """log max(|x|, 1)."""
    return math.log(max(abs(x), 1))


def canonical_height(map: QuadraticMap, a: int, iterations: int) -> HeightEstimate:
    """Estimate hhat(a) as h(f^n(a))/2^n with guaranteed error C(f)/2^n.

    The orbit is computed exactly in big integers until values pass 2^L,
    L = max(256, bitlen|c| + 195), after which the remaining doublings happen
    on logs; past that size v^2 >= 2^450 |c|, the neglected per-step terms
    total less than 2^-450 and the reported error bound still holds.
    """
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}], got {iterations}")
    c = map.c
    v, step = a, 0
    exact_bits = max(_EXACT_BITS, c.bit_length() + 195)
    while step < iterations and v.bit_length() <= exact_bits:
        v = v * v + c
        step += 1
    if step == iterations:
        value = naive_height(v) / 2.0**iterations
    else:
        value = math.log(abs(v)) / 2.0**step
    return HeightEstimate(value=value, error=height_defect_bound(map) / 2.0**iterations,
                          iterations=iterations)


def integral_points_on_phi2(map: QuadraticMap) -> frozenset[tuple[int, int]]:
    """Every integer point (X, Y) with Y^2 = f(f(X)); complete by factoring.

    Requires c not in {0, -1} (otherwise the curve degenerates).
    """
    c = map.c
    if c in (0, -1):
        raise ValueError("integral point enumeration needs c outside {0, -1}")
    return frozenset((x, sign * y) for x, y in phi2_curve_points(c) for sign in (1, -1))


def min_positive_height(
    map: QuadraticMap,
    search_box: int = 0,
    iterations: int = 30,
) -> tuple[float, str]:
    """Smallest positive canonical-height lower bound over a box of integers.

    Covers |a| <= max(search_box, |c|+1), skipping the (exactly known)
    preperiodic points; every remaining integer has strictly positive height,
    so its lower bound value - error must come out positive once `iterations`
    is large enough.  Raises ArithmeticError naming the most negative integer
    of the box whose lower bound is still nonpositive, in which case the
    caller should raise `iterations`.

    The result is that of evaluating every integer of the box, found from a
    few of them (a and -a have the same estimate):

    * c > 0: no integer is preperiodic and the lower bound is nondecreasing
      in a >= 0 (below).  So the minimum is the bound at a = 0 when that is
      positive; otherwise the nonpositive bounds are those of 0..k-1, and the
      first positive one, k, is found by bisection.
    * c < 0: two walks start at isqrt(-c), one up to the box edge and one
      down to 0.  Along each, |x| grows for x = f(a) = a^2 + c.  So once
      |x| >= 2, x^2 >= 2|c| and (log|x| - log 2)/2 - C(f)/2^n exceeds the
      positive minimum so far, the escape lemma (module docstring) puts the
      bound of every later a of that walk above it, so none of them lowers
      the minimum or fails, and the walk stops.  `_ESCAPE_MARGIN` covers the float rounding.

    Why the float estimates keep the order for c > 0.  The estimate of a is
    fl(log v) / 2^s, where v = f^s(a) and s is the first step at which v
    reaches 2^L (`canonical_height`; c < 2^L), or n if none does.  Int-to-float
    conversion and math.log are monotone, and the division is exact.  For
    0 <= a < a' the iterates of a' are the larger, so the switch to logs
    comes no later: s' <= s.  If s' = s, then v <= v'.  If s' < s, then
    v' >= 2^L, while w = f^(s-1)(a) < 2^L and c <= w (or, at s = 1, c < 2^L)
    give v = w^2 + c <= 2^(2L).  So the estimate of a is at most
    fl(log 2^(2L)) / 2^s = fl(log 2^L) / 2^(s-1), and that of a' is at
    least fl(log 2^L) / 2^s'.  Subtracting the common error keeps the order.
    That float identity holds while 2^(2L) is a float, for c < 2^316 (a test
    pins it); past that math.log of an int can miss it by an ulp.
    """
    c = map.c
    if c in (0, -1):
        raise ValueError("minimal height search needs c outside {0, -1}")
    if search_box < 0:
        raise ValueError(f"--box must be >= 0, got {search_box}")
    box = max(search_box, abs(c) + 1)
    hmin = math.inf
    failed = None  # the largest a whose lower bound is nonpositive
    if c > 0:
        hmin = canonical_height(map, 0, iterations).lower
        if hmin <= 0.0:
            # the first a >= 1 with a positive bound is failed + 1
            failed = bisect_left(range(1, box + 1), True,
                                 key=lambda a: canonical_height(map, a, iterations).lower > 0.0)
    else:
        skip = preper_set(c)
        error = math.inf  # C/2^n, read off the first estimate; hmin is inf until then
        root = math.isqrt(-c)
        for walk in (range(root + 1, box + 1), range(root, -1, -1)):
            for a in walk:
                x = a * a + c
                # escape lemma on x = f(a): each later a of the walk has a bound
                # >= (log|x| - log 2)/2 - C/2^n
                if (abs(x) >= 2 and x * x >= -2 * c and (math.log(abs(x)) - math.log(2.0)) / 2
                        - error > hmin + _ESCAPE_MARGIN):
                    break
                if a in skip:
                    continue
                est = canonical_height(map, a, iterations)
                error = est.error
                if est.lower <= 0.0:
                    failed = max(a, failed or 0)
                else:
                    hmin = min(hmin, est.lower)
    if failed is not None:
        raise ArithmeticError(
            f"height lower bound for a={-failed} is nonpositive at "
            f"{iterations} iterations; increase iterations"
        )
    if not math.isfinite(hmin):
        raise ArithmeticError("no wandering integer found in the search box")
    return hmin, RIGOR_BOX


def compute_iterate_bound(
    map: QuadraticMap,
    search_box: int = 0,
    iterations: int = 30,
) -> IterateBound:
    """The iterate bound N for the map, from integral points and the height minimum.

    B is the larger of hmin and the height upper bounds of all X-coordinates
    of integral points on Y^2 = f(f(X)); then N = ceil(log2(B/hmin)) + 2 >= 2.
    """
    hmin, rigor = min_positive_height(map, search_box, iterations)
    points = integral_points_on_phi2(map)
    B = hmin
    for X, _Y in points:
        est = canonical_height(map, X, iterations)
        B = max(B, est.upper)
    ratio = B / hmin
    N = 2 if ratio <= 1.0 else math.ceil(math.log2(ratio)) + 2
    return IterateBound(N=N, B=B, hmin=hmin, rigor=rigor, integral_points=points)
