import math
import random

import pytest
from hypothesis import given, strategies as st

from quadsemi.arith import (
    is_perfect_square,
    positive_divisors,
    square_preimages,
)
from references import residue_search


def test_perfect_square_examples():
    assert is_perfect_square(0) == 0
    assert is_perfect_square(144) == 12
    assert is_perfect_square(12) is None
    assert is_perfect_square(-4) is None


@given(st.integers(min_value=-10**18, max_value=10**18))
def test_square_detection_matches_floor_sqrt(n):
    r = is_perfect_square(n)
    if n < 0:
        assert r is None
    elif r is not None:
        assert r >= 0 and r * r == n
    else:
        assert math.isqrt(n) ** 2 != n


def test_square_preimages_match_brute_force():
    # every y with y^2 + c in [-200, 200] and |c| <= 60 has y^2 <= 260 < 21^2
    rng = random.Random(7)
    for c in range(-60, 61):
        for _ in range(8):
            values = frozenset(rng.sample(range(-200, 201), rng.randint(0, 12)))
            expected = {y for y in range(-20, 21) if y * y + c in values}
            assert square_preimages(values, c) == expected, (c, values)


def test_positive_divisors_examples():
    assert positive_divisors(3) == [1, 3]
    assert positive_divisors(-12) == [1, 2, 3, 4, 6, 12]
    assert positive_divisors(1) == [1]


def test_positive_divisors_rejects_zero():
    with pytest.raises(ValueError):
        positive_divisors(0)


@given(st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0))
def test_positive_divisors_products_and_count(n):
    pairs = [(s * d, n // (s * d)) for d in positive_divisors(n) for s in (1, -1)]
    assert all(d * e == n for d, e in pairs)
    assert len(set(pairs)) == len(pairs)
    tau = sum(1 for d in range(1, abs(n) + 1) if abs(n) % d == 0)
    assert len(pairs) == 2 * tau


def test_positive_divisors_sorted():
    assert positive_divisors(-36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_residue_search_known_obstructions():
    # z^2 - s^2 - 2 and z^2 - s^2 + 2 both vanish nowhere mod 4
    assert residue_search([lambda z, s: z * z - s * s - 2], 2, 4) == []
    assert residue_search([lambda z, s: z * z - s * s + 2], 2, 4) == []


def test_residue_search_keeps_diagonal_solutions():
    hits = residue_search([lambda x, s: x * x - s * s], 2, 4)
    assert (0, 0) in hits and (1, 1) in hits


def test_residue_search_validates_arguments():
    with pytest.raises(ValueError):
        residue_search([lambda *v: 0], 5, 4)
    with pytest.raises(ValueError):
        residue_search([lambda x: x], 1, 1)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    st.integers(min_value=2, max_value=6),
)
def test_residue_search_agrees_with_nested_loops(coeffs, m):
    # independent evaluator: direct double loop over all residue vectors
    a, b, c = coeffs

    def expr(x, y):
        return a * x * x + b * y + c

    expected = [
        (x, y) for x in range(m) for y in range(m) if expr(x, y) % m == 0
    ]
    assert residue_search([expr], 2, m) == expected
