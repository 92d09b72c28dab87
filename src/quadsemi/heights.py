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
every point has X^2 <= 2|c|, and diophantine.phi2_curve_points lists them
all.  This replaces an ineffective finiteness argument with a complete
enumeration.

The minimal positive height is searched over a box of integers only, and
every bound built from it carries the rigor flag "box-searched".  The search
evaluates a = 0, 1, 2, ... only, since f(-a) = f(a) gives -a the same estimate
and the preperiodic set is closed under negation.  It stops before the box
edge by the escape lemma (Call-Silverman; Silverman, The Arithmetic of
Dynamical Systems, Sec. 3.4): if |x| >= 2 and x^2 >= 2|c| then
|x^2 + c| >= x^2/2 >= |x|, so the orbit stays in that region and
log|f(x)| >= 2 log|x| - log 2.  Telescoping the estimate gives
h(f^n(a))/2^n >= log|a| - log 2, so its lower bound is at least
log|a| - log 2 - C(f)/2^n, which grows with |a|; once that exceeds the
minimum found so far, no larger |a| can go below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diophantine import phi2_curve_points
from .dynamics import QuadraticMap
from .portraits import preper_set

# Orbit values are kept as exact integers up to this size; beyond it the
# iteration continues on logs, where the one-step defect |log(1 + c/x^2)| is
# below 2^-450 and invisible at double precision.
_EXACT_BITS = 256

# 2.0**iterations overflows a double past this
MAX_ITERATIONS = 1023

# Absolute slack on the escape-lemma stop, far above the float rounding of
# log|a| - log 2 - C/2^n and of a height estimate (both below 1e-12)
_ESCAPE_MARGIN = 1e-9

RIGOR_BOX = "box-searched"


@dataclass(frozen=True)
class HeightEstimate:
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


@dataclass(frozen=True)
class IterateBound:
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

    The orbit is computed exactly in big integers until values pass 2^256,
    after which the remaining doublings happen on logs; past that size the
    neglected per-step terms total less than 2^-450 and the reported error
    bound still holds.
    """
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}], got {iterations}")
    c = map.c
    v = a
    step = 0
    while step < iterations and v.bit_length() <= _EXACT_BITS:
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

    Only a = 0, 1, 2, ... is evaluated, because a and -a have the same
    estimate.  The scan stops once a >= 2, a^2 >= 2|c| and
    log a - log 2 - C(f)/2^n exceeds the minimum so far (or 0, once some
    lower bound failed): by the escape lemma no larger |a| has a lower bound
    below that, so the result equals the full box scan's.
    """
    c = map.c
    if c in (0, -1):
        raise ValueError("minimal height search needs c outside {0, -1}")
    if search_box < 0:
        raise ValueError(f"--box must be >= 0, got {search_box}")
    box = max(search_box, abs(c) + 1)
    skip = preper_set(c)
    hmin = math.inf
    failed = None
    for a in range(box + 1):
        if a in skip:
            continue
        est = canonical_height(map, a, iterations)
        if est.lower <= 0.0:
            failed = a
        else:
            hmin = min(hmin, est.lower)
        to_beat = hmin if failed is None else 0.0
        # escape lemma: every |a'| >= a has lower bound >= log|a'| - log 2 - C/2^n
        if (a >= 2 and a * a >= 2 * abs(c)
                and math.log(a) - math.log(2.0) - est.error > to_beat + _ESCAPE_MARGIN):
            break
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
