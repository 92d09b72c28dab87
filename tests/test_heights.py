import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from quadsemi import heights
from quadsemi.arith import is_perfect_square
from quadsemi.diophantine import phi2_curve_points
from quadsemi.dynamics import QuadraticMap
from quadsemi.heights import (
    MAX_ITERATIONS,
    RIGOR_BOX,
    canonical_height,
    compute_iterate_bound,
    height_defect_bound,
    integral_points_on_phi2,
    min_positive_height,
    naive_height,
)
from quadsemi.portraits import preper_set


def test_naive_height_examples():
    assert naive_height(0) == 0.0
    assert naive_height(1) == 0.0
    assert naive_height(100) == pytest.approx(math.log(100))
    assert naive_height(-100) == pytest.approx(math.log(100))


def test_canonical_height_fixed_point_is_zero():
    # the orbit sticks at 4, so the estimate is log(4)/2^n, inside the error band
    est = canonical_height(QuadraticMap(-12), 4, 20)
    assert est.value == pytest.approx(math.log(4) / 2**20)
    assert est.value <= est.error
    assert est.error == pytest.approx(height_defect_bound(QuadraticMap(-12)) / 2**20)


def test_canonical_height_critical_orbit_of_one():
    est = canonical_height(QuadraticMap(1), 0, 30)
    assert est.value > 0
    assert est.error == pytest.approx(2 * math.log(2) / 2**30)


def test_canonical_height_escaping_point():
    est = canonical_height(QuadraticMap(-12), 5, 20)
    assert est.value > 0.5  # 5 -> 13 -> 157 -> ... roughly log(13)/2


def test_canonical_height_agrees_with_plain_iteration_at_small_depth():
    # at depths where the orbit stays exact, value is literally h(f^n(a))/2^n
    f = QuadraticMap(3)
    v = f.iterate(4, 2)
    assert canonical_height(f, 2, 4).value == pytest.approx(math.log(v) / 16)


def test_canonical_height_band_holds_the_orbit_for_huge_constants():
    # c = 2^600 lies far above 2^256, where the switch to logs once came
    # whatever c; from f^2(a) ~ 2^1200 on the one-step defects are below
    # 2^-1800, so log f^4(a) / 2^4 is the height to double precision
    c, a = 2**600, 2**256
    f = QuadraticMap(c)
    est = canonical_height(f, a, 30)
    assert est.lower <= math.log(f.iterate(4, a)) / 16 <= est.upper


def test_canonical_height_validates_iterations():
    with pytest.raises(ValueError):
        canonical_height(QuadraticMap(1), 0, 0)
    # 2.0**1024 overflows a double: reject the count instead of OverflowError
    with pytest.raises(ValueError, match=r"iterations must be in \[1, 1023\], got 1100"):
        canonical_height(QuadraticMap(5), 7, 1100)
    est = canonical_height(QuadraticMap(5), 7, MAX_ITERATIONS)
    assert est.lower > 0 and est.error > 0


@given(st.integers(-3000, 3000), st.integers(0, 10**6), st.integers(1, 40))
def test_canonical_height_is_even_in_a(c, a, n):
    f = QuadraticMap(c)
    assert canonical_height(f, -a, n) == canonical_height(f, a, n)


@given(st.integers(-3000, 3000), st.integers(0, 10**80))
@example(-2, 2)  # the fixed point 2 of x^2 - 2 meets the bound with slack log 2 / 2^30
def test_escape_lemma_lower_bound(c, a):
    # |a| >= 2 and a^2 >= 2|c| keep the orbit escaping, so hhat(a) >= log|a| - log 2
    edge = math.isqrt(2 * abs(c))
    a = max(a, 2, edge if edge * edge == 2 * abs(c) else edge + 1)
    f = QuadraticMap(c)
    for x in (a, -a):
        est = canonical_height(f, x, 30)
        assert est.lower >= math.log(a) - math.log(2.0) - est.error, (c, x)


def test_doubling_identity_sampled():
    rng = random.Random(4)
    n = 30
    for _ in range(100):
        c = rng.randint(-50, 50)
        a = rng.randint(-50, 50)
        f = QuadraticMap(c)
        tol = 3 * height_defect_bound(f) / 2**n
        ha = canonical_height(f, a, n).value
        hfa = canonical_height(f, f(a), n).value
        assert abs(hfa - 2 * ha) <= tol, (c, a)


def test_preperiodic_points_have_tiny_value():
    for c in range(-40, 41):
        f = QuadraticMap(c)
        for a in preper_set(c):
            est = canonical_height(f, a, 25)
            assert est.value <= est.error, (c, a)


def test_integral_points_examples():
    assert integral_points_on_phi2(QuadraticMap(-12)) == {
        (4, 2), (4, -2), (-4, 2), (-4, -2)
    }
    assert integral_points_on_phi2(QuadraticMap(3)) == frozenset()
    assert integral_points_on_phi2(QuadraticMap(2)) == frozenset()


def test_integral_points_satisfy_curve_and_match_brute_force():
    for c in range(-60, 61):
        if c in (0, -1):
            continue
        pts = integral_points_on_phi2(QuadraticMap(c))
        for X, Y in pts:
            assert Y * Y == (X * X + c) ** 2 + c
        brute = set()
        for X in range(0, 2001):
            y = is_perfect_square((X * X + c) ** 2 + c)
            if y is not None:
                brute |= {(X, y), (X, -y), (-X, y), (-X, -y)}
        assert pts == frozenset(brute), c


def phi2_scan_reference(c):
    """Slow reference for phi2_curve_points: a square test at every
    |X| <= isqrt(2|c|) + 1.  That holds every point, since (Y - U)(Y + U) = c
    with U = X^2 + c gives |U| <= (|c| + 1)/2, so X^2 = U - c <= 2|c|."""
    r = math.isqrt(2 * abs(c)) + 1
    pts = []
    for X in range(-r, r + 1):
        y = is_perfect_square((X * X + c) ** 2 + c)
        if y is not None:
            pts.append((X, y))
    return pts


def test_integral_points_equal_the_scan_reference():
    for c in range(-3000, 3001):
        if c in (0, -1):
            continue
        assert phi2_curve_points(c) == phi2_scan_reference(c), c


def test_integral_points_degenerate_constants_rejected():
    for c in (0, -1):
        with pytest.raises(ValueError):
            integral_points_on_phi2(QuadraticMap(c))


def test_min_positive_height_examples():
    hmin, rigor = min_positive_height(QuadraticMap(2))
    assert hmin > 0 and rigor == RIGOR_BOX
    hmin, _ = min_positive_height(QuadraticMap(-12))
    assert hmin > 0


def test_min_positive_height_minimizer_for_c_one():
    # every integer wanders under x^2 + 1; the smallest height comes from a=0
    hmin, _ = min_positive_height(QuadraticMap(1))
    assert hmin == canonical_height(QuadraticMap(1), 0, 30).lower


def test_min_positive_height_rejects_degenerate_constants():
    with pytest.raises(ValueError):
        min_positive_height(QuadraticMap(0))


def test_min_positive_height_rejects_negative_box():
    with pytest.raises(ValueError, match="--box must be >= 0, got -7"):
        min_positive_height(QuadraticMap(5), search_box=-7)


def _box_scan_reference(map, search_box=0, iterations=30):
    """Slow reference for min_positive_height: every integer of the two-sided box."""
    c = map.c
    if c in (0, -1):
        raise ValueError("minimal height search needs c outside {0, -1}")
    box = max(search_box, abs(c) + 1)
    skip = preper_set(c)
    hmin = math.inf
    for a in range(-box, box + 1):
        if a in skip:
            continue
        est = canonical_height(map, a, iterations)
        if est.lower <= 0.0:
            raise ArithmeticError(
                f"height lower bound for a={a} is nonpositive at "
                f"{iterations} iterations; increase iterations"
            )
        hmin = min(hmin, est.lower)
    if not math.isfinite(hmin):
        raise ArithmeticError("no wandering integer found in the search box")
    return hmin, RIGOR_BOX


def _one_sided_scan_reference(map, search_box=0, iterations=30):
    """Second reference for min_positive_height: a = 0, 1, 2, ... up to the escape
    bound log a - log 2 - C/2^n, which needs no a near sqrt(-c) to stop."""
    c = map.c
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
        if (a >= 2 and a * a >= 2 * abs(c)
                and math.log(a) - math.log(2.0) - est.error > to_beat + 1e-9):
            break
    if failed is not None:
        raise ArithmeticError(
            f"height lower bound for a={-failed} is nonpositive at "
            f"{iterations} iterations; increase iterations"
        )
    return hmin, RIGOR_BOX


def _outcome(search, c, box, iterations):
    """(hmin, rigor), or the ArithmeticError message."""
    try:
        return search(QuadraticMap(c), box, iterations)
    except ArithmeticError as exc:
        return str(exc)


def test_preper_set_is_closed_under_negation():
    for c in range(-3000, 3001):
        skip = preper_set(c)
        assert skip == frozenset(-a for a in skip), c


@pytest.mark.parametrize("iterations", [1, 2, 3, 5, 30])
def test_min_positive_height_equals_box_scan(iterations):
    # small iteration counts exercise the ArithmeticError path (which a is named)
    for c in range(-300, 301):
        if c in (0, -1):
            continue
        assert _outcome(min_positive_height, c, 0, iterations) == _outcome(
            _box_scan_reference, c, 0, iterations), c


@pytest.mark.parametrize("c", [2, -2, -12, 47, -130, 512, -999, 1500, -2999, 3000])
def test_min_positive_height_equals_box_scan_wide_box(c):
    assert min_positive_height(QuadraticMap(c), 10000) == _box_scan_reference(
        QuadraticMap(c), 10000)


@settings(max_examples=40, deadline=None)
@given(st.integers(-3000, 3000).filter(lambda c: c not in (0, -1)),
       st.integers(0, 5000), st.integers(1, 40))
def test_min_positive_height_equals_box_scan_sampled(c, box, iterations):
    assert _outcome(min_positive_height, c, box, iterations) == _outcome(
        _box_scan_reference, c, box, iterations)


@pytest.mark.parametrize("box", [0, 10000])
def test_min_positive_height_equals_one_sided_scan(box):
    for c in range(-3000, 3001):
        if c in (0, -1):
            continue
        assert min_positive_height(QuadraticMap(c), box) == _one_sided_scan_reference(
            QuadraticMap(c), box), c


def test_min_positive_height_equals_one_sided_scan_on_the_grid():
    # small iteration counts fail, and the error must name the same integer
    for c in range(-400, 401):
        if c in (0, -1):
            continue
        for iterations in range(1, 9):
            for box in (0, 50, 5000):
                assert _outcome(min_positive_height, c, box, iterations) == _outcome(
                    _one_sided_scan_reference, c, box, iterations), (c, iterations, box)


def _pivot_bits(c):
    """canonical_height's switch point L: orbit values >= 2^L go on in logs."""
    return max(256, c.bit_length() + 195)


def _largest_below_pivot(c, k):
    """The largest a >= 0 with f^k(a) < 2^L under x^2 + c, c > 0 (None if none)."""
    f = QuadraticMap(c)
    pivot = 2 ** _pivot_bits(c)
    if f.iterate(k, 0) >= pivot:
        return None
    lo, hi = 0, pivot
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if f.iterate(k, mid) < pivot else (lo, mid)
    return lo


def test_the_order_proofs_float_identity_holds_to_the_end_of_the_float_range():
    # min_positive_height's docstring: fl(log 2^(2L)) = 2 fl(log 2^L) at every
    # switch point L with 2^(2L) below 2^1024, that is for every c < 2^316
    for L in range(256, 512):
        assert math.log(2 ** (2 * L)) == 2 * math.log(2**L), L


@pytest.mark.parametrize("c", [1, 2, 7, 3000, 10**12, 2**200, 2**300])
def test_estimates_keep_their_order_where_the_switch_to_logs_moves(c):
    # a and a + 1 switch from exact orbits to logs at different steps here
    f = QuadraticMap(c)
    for iterations in (1, 2, 3, 5, 30):
        floor = canonical_height(f, 0, iterations).lower
        for k in range(6):
            a = _largest_below_pivot(c, k)
            if a is None:
                continue
            lows = [canonical_height(f, b, iterations).lower for b in (a, a + 1, a + 2)]
            assert floor <= lows[0] <= lows[1] <= lows[2], (iterations, k)


@pytest.mark.parametrize("c", [10**12, -10**12, 10**18, -10**18, -10**24 - 7])
def test_min_positive_height_reaches_large_constants(c, monkeypatch):
    calls = []
    estimate = heights.canonical_height
    monkeypatch.setattr(heights, "canonical_height",
                        lambda *args: calls.append(args[1]) or estimate(*args))
    hmin, rigor = min_positive_height(QuadraticMap(c))
    assert hmin > 0 and rigor == RIGOR_BOX
    assert len(calls) <= 8, calls


def test_iterate_bound_examples():
    assert compute_iterate_bound(QuadraticMap(3)).N == 2
    assert compute_iterate_bound(QuadraticMap(-12)).N == 2
    for c in (-30, -7, 2, 5, 17, 101):
        bound = compute_iterate_bound(QuadraticMap(c))
        assert bound.N >= 2
        assert bound.B >= bound.hmin > 0
        assert bound.rigor == RIGOR_BOX


def test_iterate_bound_formula_holds():
    for c in (-21, -12, 2, 3, 6):
        bound = compute_iterate_bound(QuadraticMap(c))
        expected = 2 if bound.B <= bound.hmin else math.ceil(
            math.log2(bound.B / bound.hmin)) + 2
        assert bound.N == expected
