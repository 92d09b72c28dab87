import math

import pytest
from hypothesis import given, strategies as st

from quadsemi.arith import is_perfect_square
from quadsemi.diophantine import _quartic_box, quartic_curve_points
from quadsemi.dynamics import QuadraticMap
from quadsemi.portraits import (
    FIXED_SQUARE,
    PREPER_TARGETS,
    TWO_CYCLE_SQUARE,
    SquareForm,
    portrait,
    preper_set,
    rational_periodic_points,
    recognize_square_periodic,
    shape_constant,
)
from references import brute_force_preper, residue_search


def test_periodic_points_examples():
    fixed, cycles = rational_periodic_points(-12)
    assert fixed == {4, -3} and cycles == frozenset()
    fixed, cycles = rational_periodic_points(-1)
    assert fixed == frozenset() and cycles == {(-1, 0)}
    assert rational_periodic_points(1) == (frozenset(), frozenset())


@given(st.integers(-300, 300))
def test_periodic_points_verified_by_evaluation(c):
    f = QuadraticMap(c)
    fixed, cycles = rational_periodic_points(c)
    for p in fixed:
        assert f(p) == p
    for a, b in cycles:
        assert a != b and f(a) == b and f(b) == a


def test_recognize_square_periodic_examples():
    form = recognize_square_periodic(-12)
    assert form.kind == FIXED_SQUARE and form.s == 2
    form = recognize_square_periodic(-21)
    assert form.kind == TWO_CYCLE_SQUARE and form.s == 2
    assert recognize_square_periodic(-4) is None
    assert recognize_square_periodic(0).kind == FIXED_SQUARE
    assert recognize_square_periodic(-1).kind == TWO_CYCLE_SQUARE
    assert recognize_square_periodic(-3) == recognize_square_periodic(-3)
    assert recognize_square_periodic(-3).s == 1


def _recognize_reference(c):
    """Exhaustive search of s = 0 .. isqrt(isqrt(|c|)) + 2, fixed shape first."""
    limit = math.isqrt(math.isqrt(abs(c))) + 2
    for s in range(limit + 1):
        if c == s * s - s**4:
            return SquareForm(FIXED_SQUARE, s)
    for s in range(limit + 1):
        if c == -1 - s * s - s**4:
            return SquareForm(TWO_CYCLE_SQUARE, s)
    return None


def test_recognize_square_periodic_matches_reference_on_a_range():
    for c in range(-200_000, 200_001):
        assert recognize_square_periodic(c) == _recognize_reference(c), c


def test_recognize_square_periodic_matches_reference_on_big_shapes():
    for s in range(1001):
        for c in (s * s - s**4, -1 - s * s - s**4):
            assert recognize_square_periodic(c) == _recognize_reference(c), c


def test_recognize_zero_takes_the_smaller_square_fixed_point():
    # x^2 has the square fixed points 0 and 1, i.e. s = 0 and s = 1
    assert recognize_square_periodic(0) == SquareForm(FIXED_SQUARE, 0)


def test_shape_constant_round_trips_through_recognition():
    assert shape_constant(FIXED_SQUARE, 2) == -12
    assert shape_constant(TWO_CYCLE_SQUARE, 2) == -21
    for kind in (FIXED_SQUARE, TWO_CYCLE_SQUARE):
        for s in range(31):
            c = shape_constant(kind, s)
            assert shape_constant(kind, -s) == c
            form = recognize_square_periodic(c)
            if (kind, s) == (FIXED_SQUARE, 1):
                # c = 0 has the square fixed points 0 and 1; 0 is reported
                assert form == SquareForm(FIXED_SQUARE, 0)
            else:
                assert form == SquareForm(kind, s), (kind, s)
    with pytest.raises(ValueError):
        shape_constant("no-such-shape", 2)


def _shape_cases(lo, hi):
    return [(kind, s) for s in range(lo, hi + 1)
            for kind in (FIXED_SQUARE, TWO_CYCLE_SQUARE)]


# s <= 3 lies in test_preper_equivalence_medium_range; brute force costs
# O(s^4), so s = 17..30 (about 10 s) is opt-in
@pytest.mark.parametrize("kind,s", _shape_cases(4, 16) + [
    pytest.param(kind, s, marks=pytest.mark.extended) for kind, s in _shape_cases(17, 30)
])
def test_closed_form_preper_matches_brute_force_on_shapes(kind, s):
    c = shape_constant(kind, s)
    assert preper_set(c) == brute_force_preper(c)


def test_closure_equals_the_closed_form_on_shapes():
    for kind, targets in PREPER_TARGETS.items():
        for s in [*range(2001), 10**6, 10**9, 2**70 + 3]:
            closed = {sign * s * s + offset for sign, offset in targets}
            assert preper_set(shape_constant(kind, s)) == closed, (kind, s)


def _even_quartic(f):
    """(a4, a2, a0) with f(s) = a4 s^4 + a2 s^2 + a0, for f such a polynomial.

    Read off f at s = 0, 1, 2, and checked at s = 3..9.
    """
    v0, v1, v2 = f(0), f(1), f(2)
    a4 = (v2 - 4 * v1 + 3 * v0) // 12
    a2, a0 = v1 - v0 - a4, v0
    for s in range(3, 10):
        assert f(s) == a4 * s**4 + a2 * s * s + a0, s
    return a4, a2, a0


def _square_root_polynomial(a4, a2, a0):
    """(k, m) with a4 s^4 + a2 s^2 + a0 = (k s^2 + m)^2, k > 0, or None."""
    k = is_perfect_square(a4)
    if not k or a2 % (2 * k) or (a2 // (2 * k)) ** 2 != a0:
        return None
    return k, a2 // (2 * k)


def test_preper_set_is_the_closed_form_for_every_s():
    """PrePer(shape_constant(kind, s)) is the closed form T(s) of
    `PREPER_TARGETS` at every integer s: a proof, not a sample.

    PrePer(c) is the backward closure of the periodic points, which are
    integers of period 1 or 2: the roots (1 +- sqrt(1 - 4c))/2 of
    x^2 - x + c and (-1 +- sqrt(-3 - 4c))/2 of x^2 + x + c + 1.  A point p
    has integer preimages +-sqrt(p - c) exactly when p - c is a square.
    With c = c(s) a shape constant, each of these six quantities (two
    discriminants, and p - c for the four targets p) is a quartic
    a4 s^4 + a2 s^2 + a0 with a4 a square.

    (i) T(s) is inside PrePer: x^2 + c maps each target to a target, as an
        identity in s, so every target has a finite orbit.
    (ii) Three of the six quartics are squares (k s^2 + m)^2 of
        polynomials, and the points they give, the periodic points of one
        discriminant or the preimages +-(k s^2 + m) of a target, are
        targets, again as identities in s.
    (iii) The other three have 4 a4 a0 != a2^2, so `quartic_curve_points`
        lists all their integral points.  They lie at s in {0, 1} for the
        fixed shape and at s = 0 for the cycle shape.
    So at every other s the periodic points are targets, the preimages of
    targets are targets, and the closure is T(s); at the special s,
    `preper_set` is compared with T(s) directly.
    """
    squares, special = 0, {}
    for kind, targets in PREPER_TARGETS.items():
        c4, c2, c0 = _even_quartic(lambda s: shape_constant(kind, s))
        assert c4 == -1
        # (i): (sign s^2 + offset)^2 + c(s), with c4 = -1, has no s^4 term
        for sign, offset in targets:
            assert (2 * sign * offset + c2, offset * offset + c0) in targets, (kind, sign)
        # each quartic, with the points a square root r = k s^2 + m gives:
        # (b + r)/d and (b - r)/d as (sign, offset) pairs
        quartics = [((-4 * c4, -4 * c2, 1 - 4 * c0), 1, 2),    # fixed points
                    ((-4 * c4, -4 * c2, -3 - 4 * c0), -1, 2)]  # 2-cycle points
        quartics += [((-c4, sign - c2, offset - c0), 0, 1) for sign, offset in targets]
        special[kind] = set()
        for (a4, a2, a0), b, d in quartics:
            root = _square_root_polynomial(a4, a2, a0)
            if root is not None:  # (ii)
                squares += 1
                k, m = root
                for pm in (1, -1):
                    assert (pm * k) % d == 0 and (b + pm * m) % d == 0, (kind, a4, a2, a0)
                    assert (pm * k // d, (b + pm * m) // d) in targets, (kind, a4, a2, a0)
                continue
            # (iii): the curve is complete, all its points within the box
            assert is_perfect_square(a4) and 4 * a4 * a0 != a2 * a2
            box = _quartic_box(a4, a2, a0)
            special[kind] |= {abs(q) for q, _ in quartic_curve_points(a4, a2, a0, box + 1)}
        for s in special[kind]:
            closed = {sign * s * s + offset for sign, offset in targets}
            assert preper_set(shape_constant(kind, s)) == closed, (kind, s)
    assert squares == 6
    assert special == {FIXED_SQUARE: {0, 1}, TWO_CYCLE_SQUARE: {0}}


def test_the_two_square_forms_never_collide():
    # s^2 - s^4 = -1 - u^2 - u^4 is impossible: no solutions mod 4
    hits = residue_search([lambda s, u: s * s - s**4 + 1 + u * u + u**4], 2, 4)
    assert hits == []


def test_preper_set_examples():
    assert preper_set(-12) == {4, -4, 3, -3}
    assert preper_set(-3) == {1, -1, 2, -2}
    assert preper_set(0) == {0, 1, -1}


def test_brute_force_examples():
    assert brute_force_preper(-12) == {3, -3, 4, -4}
    assert brute_force_preper(0) == {0, 1, -1}
    assert brute_force_preper(2) == frozenset()


def test_preper_equivalence_medium_range():
    for c in range(-120, 121):
        assert preper_set(c) == brute_force_preper(c), c


def test_preper_forward_closed_and_contains_periodic():
    for c in range(-80, 81):
        f = QuadraticMap(c)
        pts = preper_set(c)
        fixed, cycles = rational_periodic_points(c)
        assert fixed <= pts
        for a, b in cycles:
            assert a in pts and b in pts
        assert all(f(p) in pts for p in pts)


def test_square_form_gives_square_periodic_point():
    for c in range(-150, 151):
        form = recognize_square_periodic(c)
        if form is None:
            continue
        s2 = form.s**2
        pts = preper_set(c)
        assert s2 in pts
        f = QuadraticMap(c)
        # s^2 is genuinely periodic: period 1 or 2
        assert f(s2) == s2 or f(f(s2)) == s2
        assert is_perfect_square(s2) is not None


def test_fixed_form_identities():
    for s in range(0, 12):
        c = s * s - s**4
        f = QuadraticMap(c)
        pts = preper_set(c)
        assert {s * s, -s * s, 1 - s * s, s * s - 1} <= pts
        assert f(-s * s) == f(s * s) == s * s
        assert f(1 - s * s) == f(-(1 - s * s)) == 1 - s * s


@given(st.integers(-200, 200), st.integers(0, 40))
def test_escape_bound(c, off):
    # |f(a)| > |a| whenever |a| >= |c| + 2
    a = abs(c) + 2 + off
    f = QuadraticMap(c)
    assert abs(f(a)) > a
    assert abs(f(-a)) > a


def test_portrait_assembly():
    p = portrait(-12)
    assert p.fixed_points == {4, -3}
    assert p.two_cycles == frozenset()
    assert p.preper == {4, -4, 3, -3}
    assert p.square_form.kind == FIXED_SQUARE and p.square_form.s == 2


def test_backward_closure_used_without_square_form():
    # c = -2: fixed points 2, -1; preimages pull in 0 and +-1, then +-2
    assert recognize_square_periodic(-2) is None
    assert preper_set(-2) == {0, 1, -1, 2, -2}
    assert preper_set(-2) == brute_force_preper(-2)
