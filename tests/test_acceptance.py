"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time

import pytest

from quadsemi.arith import is_perfect_square
from quadsemi.dynamics import (
    GeneratorSet,
    QuadraticMap,
    SequenceSampler,
    certified_counts,
    join_certified_words,
    monte_carlo_stability,
    stability_certificate,
)
from quadsemi.diophantine import (
    modular_obstruction,
    quartic_curve_points,
    registry,
    verify_all,
)
from quadsemi.exceptional import construct_irreducible_prefix, scan_exceptional_pairs
from quadsemi.heights import (
    canonical_height,
    compute_iterate_bound,
    height_defect_bound,
    integral_points_on_phi2,
)
from quadsemi.oracle import cross_validate
from quadsemi.portraits import preper_set
from references import brute_force_preper


@pytest.fixture(scope="module")
def entries():
    return registry()


def _line(number, title, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}: PASS - {title}{suffix} "
          f"[{elapsed:.2f}s]")


def test_criterion_1_all_48_lemmas_match(entries):
    started = time.perf_counter()
    results = verify_all(entries, bound=50)
    mismatched = [r.entry_id for r in results if not r.matched]
    assert mismatched == [], f"mismatched entries: {mismatched}"
    assert len(results) == 48
    _line(1, "all 48 case systems match their complete solution sets, points "
          "compared within bound 50",
          started, "exact set equality")


def test_criterion_2_modular_obstructions(entries):
    started = time.perf_counter()
    tagged = 0
    for entry in entries:
        for modulus in (4, 8):
            if f"mod{modulus}" in entry.techniques:
                res = modular_obstruction(entry, modulus)
                assert res.confirmed, (entry.id, res)
                tagged += 1
    assert tagged >= 8
    _line(2, f"{tagged} mod-tagged entries confirmed by exhaustive residue "
             "enumeration", started)


def test_criterion_3_quartic_curve_spot_checks():
    started = time.perf_counter()
    expected = {
        (1, 0, 1): [(0, 1)],                       # y^2 = q^4 + 1
        (1, 0, -1): [(-1, 0), (1, 0)],             # y^2 = q^4 - 1
        (1, -1, 1): [(-1, 1), (0, 1), (1, 1)],     # y^2 = q^4 - q^2 + 1
        (1, 1, 1): [(0, 1)],                       # y^2 = q^4 + q^2 + 1
        (1, 1, 2): [(-1, 2), (1, 2)],              # y^2 = q^4 + q^2 + 2
        (1, 2, 2): [],                             # y^2 = q^4 + 2q^2 + 2
    }
    for (a4, a2, a0), points in expected.items():
        got = quartic_curve_points(a4, a2, a0, 1000)
        assert got == points, (a4, a2, a0, got)
    _line(3, "six quartic curves reproduce their exact point lists at bound 1000",
          started)


def test_criterion_4_classification_equivalence_grid():
    started = time.perf_counter()
    pairs = set(scan_exceptional_pairs(-100, 100))
    expected = {(-1, -3), (0, -1), (0, -3), (-12, -21), (-72, -91)}
    expected |= {(b, a) for a, b in expected}
    assert pairs == expected, pairs.symmetric_difference(expected)
    _line(4, "scan of [-100,100]^2, listed from the solved case systems, finds "
             "exactly the classified exceptional pairs", started, f"{len(pairs)} ordered pairs")


def test_criterion_5_constant_sequence_scan_and_monte_carlo():
    started = time.perf_counter()
    S = GeneratorSet.from_cs([-4, -12])
    assert certified_counts(S, 10) == [1] * 10
    certified = join_certified_words(S, 10, "ab", "ab", "|").split("|")
    assert certified == ["b" * n for n in range(1, 11)]

    p = 2.0**-10
    trials = 10**5
    sampler = SequenceSampler.uniform(2, seed=20250807)
    estimate = monte_carlo_stability(S, sampler, depth=10, trials=trials)
    tolerance = 3 * math.sqrt(p * (1 - p) / trials)
    assert abs(estimate - p) <= tolerance, (estimate, p, tolerance)
    _line(5, "only the constant words are square-free up to length 10; "
             "Monte Carlo estimate within 3 standard errors of 2^-10",
          started, f"estimate {estimate:.6f}")


def test_criterion_6_certificate_oracle_consistency():
    started = time.perf_counter()
    for cs in ([1, 2], [-1, -12], [-4, -12]):
        report = cross_validate(GeneratorSet.from_cs(cs), 3)
        assert report.forbidden == (), (cs, report.forbidden)
    _line(6, "no certified-yet-reducible word exists for the three probe sets "
             "up to length 3", started)


def test_criterion_7_portrait_oracle_equivalence():
    started = time.perf_counter()
    for c in range(-500, 501):
        assert preper_set(c) == brute_force_preper(c), c
    _line(7, "closed-form/backward-closure preperiodic sets equal the "
             "orbit-simulation oracle for all |c| <= 500", started)


def test_criterion_8_height_properties():
    started = time.perf_counter()
    import random

    rng = random.Random(20250807)
    n = 30
    for _ in range(100):
        c = rng.randint(-50, 50)
        a = rng.randint(-50, 50)
        f = QuadraticMap(c)
        tol = 3 * height_defect_bound(f) / 2**n
        assert abs(canonical_height(f, f(a), n).value
                   - 2 * canonical_height(f, a, n).value) <= tol, (c, a)
        for p in preper_set(c):
            est = canonical_height(f, p, n)
            assert est.value <= est.error, (c, p)

    for c in range(-50, 51):
        if c in (0, -1):
            continue
        assert compute_iterate_bound(QuadraticMap(c)).N >= 2, c

    for c in range(-200, 201):
        if c in (0, -1):
            continue
        got = integral_points_on_phi2(QuadraticMap(c))
        brute = set()
        for X in range(0, 10001):
            y = is_perfect_square((X * X + c) ** 2 + c)
            if y is not None:
                brute |= {(X, y), (X, -y), (-X, y), (-X, -y)}
        assert got == frozenset(brute), c
    _line(8, "doubling identity, preperiodic heights, N >= 2, and integral "
             "points vs brute force all hold", started)


def test_criterion_9_constructive_prefixes():
    started = time.perf_counter()
    for cs in ([1, 3], [-12, -21], [-12, -21, -4]):
        S = GeneratorSet.from_cs(cs)
        recipe = construct_irreducible_prefix(S)
        assert recipe.n_iterate >= 2
        for n in range(1, 4):
            for F in itertools.product(range(len(S)), repeat=n):
                word = recipe.expand(F)
                assert stability_certificate(S, word).certified, (cs, word)
    _line(9, "constructed prefixes stay certified-irreducible under every "
             "extension of length <= 3", started)
