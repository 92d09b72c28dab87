import random
from itertools import product

import pytest

from quadsemi.arith import is_perfect_square, positive_divisors
from quadsemi.dynamics import GeneratorSet, compose_word
from quadsemi.oracle import (
    COUNTER_NAMES,
    _prime_scan,
    cross_validate,
    find_factor,
    is_irreducible_exact,
    poly_eval,
)

# The cross-validation benchmark's panel without its last three pairs
# (-49, 49), (-4, 73) and (-36, 97), which Kronecker's search could not
# decide within any practical budget (test_cli.py cross-validates them):
# 20 pairs of irreducible letters, then 5 with a reducible letter x^2 - q^2.
KRONECKER_DECIDED = [
    (93, 44), (55, 72), (-39, -47), (-73, 54), (-57, 21), (51, -99), (-84, -6),
    (-90, 26), (-33, -63), (48, 89), (34, 46), (-17, -32), (59, -71), (-73, 4),
    (-19, 59), (26, 11), (45, -89), (-63, 79), (10, 98), (-39, -86), (-1, -79),
    (-81, -54), (-49, -28), (-9, 2), (-81, 25)]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_basic_verdicts():
    assert is_irreducible_exact([-4, 0, 1]) is False          # (x-2)(x+2)
    assert is_irreducible_exact([1, 0, 1]) is True            # x^2 + 1
    assert is_irreducible_exact([143, 0, -24, 0, 1]) is False # (x^2-11)(x^2-13)
    assert is_irreducible_exact([0, 1]) is True               # x
    assert is_irreducible_exact([0, 0, 1]) is False           # x^2


def test_found_factors_divide():
    g = find_factor([143, 0, -24, 0, 1])
    assert g in ([-11, 0, 1], [-13, 0, 1])
    # x^4 - 8x^2 + 4 = (x^2+2x-2)(x^2-2x-2): no rational roots, still reducible
    g = find_factor([4, 0, -8, 0, 1])
    assert g is not None and len(g) == 3
    assert find_factor([1, 0, 1]) is None


def test_composed_towers():
    # ((x^2+1)^2+1)^2+1 comes from a square-free orbit, hence irreducible
    S = GeneratorSet.from_cs([1, 2])
    assert is_irreducible_exact(compose_word(S, (0, 0, 0))) is True
    # (x^2-4) outermost forces reducibility of the whole tower
    S = GeneratorSet.from_cs([-4, -12])
    f = compose_word(S, (0, 1, 1))
    g = find_factor(f)
    assert g is not None
    q, r = _divmod(f, g)
    assert r == [] and _mul(q, g) == f


def _divmod(f, g):
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * (len(f) - dg)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        quot[k - dg] = c
        for j in range(dg + 1):
            rem[k - dg + j] -= c * g[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem[: dg]


def test_validation():
    with pytest.raises(ValueError):
        is_irreducible_exact([5])               # constant
    with pytest.raises(ValueError):
        is_irreducible_exact([1, 0, 2])         # not monic
    with pytest.raises(ValueError):
        is_irreducible_exact([0] * 33 + [1])    # degree 33 > cap
    assert is_irreducible_exact([0] * 33 + [1], degree_cap=33) is False


def test_products_of_random_irreducible_quadratics_are_caught():
    rng = random.Random(11)
    done = 0
    while done < 30:
        b1, c1 = rng.randint(-20, 20), rng.randint(-20, 20)
        b2, c2 = rng.randint(-20, 20), rng.randint(-20, 20)
        if (is_perfect_square(b1 * b1 - 4 * c1) is not None
                or is_perfect_square(b2 * b2 - 4 * c2) is not None):
            continue  # want irreducible factors
        f = _mul([c1, b1, 1], [c2, b2, 1])
        assert is_irreducible_exact(f) is False
        g = find_factor(f)
        assert g is not None and poly_eval(f, 0) % poly_eval(g, 0) == 0
        done += 1


def test_random_irreducible_quadratics_pass():
    rng = random.Random(13)
    done = 0
    while done < 40:
        b, c = rng.randint(-20, 20), rng.randint(-20, 20)
        if is_perfect_square(b * b - 4 * c) is not None:
            continue
        assert is_irreducible_exact([c, b, 1]) is True
        done += 1


def test_cross_validate_examples():
    rep = cross_validate(GeneratorSet.from_cs([1, 2]), 3)
    assert rep.passed and rep.words_checked == 14

    rep = cross_validate(GeneratorSet.from_cs([-1, -12]), 2)
    assert rep.passed
    # (x^2-1) o (x^2-12) has a square at orbit position 1 and is reducible:
    # the one-sided certificate stays silent, the oracle factors it
    assert (0, 1) not in rep.unknown_irreducible
    assert is_irreducible_exact(
        compose_word(GeneratorSet.from_cs([-1, -12]), (0, 1))) is False

    rep = cross_validate(GeneratorSet.from_cs([-4]), 1)
    assert rep.passed and rep.words_checked == 1


def test_cross_validate_depth_cap():
    with pytest.raises(ValueError):
        cross_validate(GeneratorSet.from_cs([1, 2]), 6)  # degree 64 > cap 32


def test_single_letter_certificates_agree_with_oracle():
    from quadsemi.dynamics import stability_certificate

    for c in range(-30, 31):
        S = GeneratorSet.from_cs([c])
        if stability_certificate(S, (0,)).certified:
            assert is_irreducible_exact([c, 0, 1]) is True, c


def test_reducible_outermost_letter_forces_reducible_composition():
    # x^2 - 4 = (x-2)(x+2) outermost splits the whole tower
    S = GeneratorSet.from_cs([-4, -12, 3])
    for word in [(0, 1), (0, 2), (0, 1, 2), (0, 0, 1)]:
        assert is_irreducible_exact(compose_word(S, word)) is False, word


# --- slow reference: Kronecker's interpolation search ----------------------

_NODE_POOL = tuple(x for k in range(9) for x in ((k, -k) if k else (0,)))


def _newton_to_coeffs(newton, nodes):
    """Expand sum_i newton[i] * prod_{j<i}(x - nodes[j]) into a coefficient list."""
    poly = [0]
    basis = [1]
    for i, c in enumerate(newton):
        if len(poly) < len(basis):
            poly += [0] * (len(basis) - len(poly))
        for j, b in enumerate(basis):
            poly[j] += c * b
        if i < len(newton) - 1:
            basis = _mul(basis, [-nodes[i], 1])
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def kronecker_reference(f, d):
    """A monic degree-d divisor of f found by interpolation, or None.

    Candidate divisor values at d nodes run over the signed divisors of the
    f-evaluations there; Newton divided differences prune non-integral
    candidates level by level, the value at node d is forced by monicity,
    and every survivor is checked by exact division.  Exhaustive over all
    monic degree-d divisors, since such a divisor's value at each node must
    divide f there.  f must have no integer root.
    """
    evals = sorted(((x, poly_eval(f, x)) for x in _NODE_POOL),
                   key=lambda xv: (abs(xv[1]), abs(xv[0])))
    nodes = [x for x, _ in evals[: d + 1]]
    values = [v for _, v in evals[: d + 1]]
    assert all(values), "integer roots must be removed before the factor search"
    choice_lists = [[s * q for q in positive_divisors(v) for s in (1, -1)]
                    for v in values[:d]]
    target_x, target_f = nodes[d], values[d]

    def dfs(k, newton, diag):
        if k == d:
            # monic leading coefficient 1 forces the value at the last node
            val, prod = 0, 1
            for i in range(d):
                val += newton[i] * prod
                prod *= target_x - nodes[i]
            val += prod
            if val == 0 or target_f % val != 0:
                return None
            g = _newton_to_coeffs(newton + [1], nodes)
            _, rem = _divmod(f, g)
            return g if not rem and len(g) - 1 == d else None
        for v in choice_lists[k]:
            nd = [v]
            for i, prev in enumerate(diag):
                den = nodes[k] - nodes[k - 1 - i]
                num = nd[i] - prev
                if num % den != 0:
                    break
                nd.append(num // den)
            else:
                found = dfs(k + 1, newton + [nd[-1]], nd)
                if found is not None:
                    return found
        return None

    return dfs(0, [], [])


def reference_find_factor(f):
    """Integer roots by trial division, then Kronecker's search in each degree
    the mod-p degree filter leaves open (the filter only prunes; the sympy
    comparison below checks it independently)."""
    if len(f) == 2:
        return None
    if f[0] == 0:
        return [0, 1]
    for r in positive_divisors(f[0]):
        for root in (r, -r):
            if poly_eval(f, root) == 0:
                return [-root, 1]
    allowed, _ = _prime_scan(f)
    for d in sorted(allowed - {1}):
        g = kronecker_reference(f, d)
        if g is not None:
            return g
    return None


def _random_quadratic_products(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        b1, c1 = rng.randint(-20, 20), rng.randint(-20, 20)
        b2, c2 = rng.randint(-20, 20), rng.randint(-20, 20)
        out.append(_mul([c1, b1, 1], [c2, b2, 1]))
    return out


SMALL_INPUTS = [
    [-4, 0, 1], [1, 0, 1], [143, 0, -24, 0, 1], [0, 0, 1], [4, 0, -8, 0, 1],
    compose_word(GeneratorSet.from_cs([1, 2]), (0, 0, 0)),
    compose_word(GeneratorSet.from_cs([-4, -12]), (0, 1, 1)),
    *(compose_word(GeneratorSet.from_cs([-4, -12, 3]), w)
      for w in [(0, 1), (0, 2), (0, 1, 2), (0, 0, 1)]),
    *([c, 0, 1] for c in range(-30, 31)),
    *_random_quadratic_products(11, 30),
]


def _assert_agree(f):
    g = find_factor(f)
    if g is not None:
        _, rem = _divmod(f, g)
        assert rem == [] and 1 <= len(g) - 1 < len(f) - 1, (f, g)
    assert (g is None) == (reference_find_factor(f) is None), f


def test_find_factor_agrees_with_kronecker_on_small_inputs():
    for f in SMALL_INPUTS:
        _assert_agree(f)


@pytest.mark.parametrize("pair", KRONECKER_DECIDED)
def test_find_factor_agrees_with_kronecker_on_the_panel(pair):
    S = GeneratorSet.from_cs(list(pair))
    for n in range(1, 4):
        for word in product(range(2), repeat=n):
            _assert_agree(compose_word(S, word))


def _sympy_irreducible(sympy, f):
    x = sympy.Symbol("x")
    factors = sympy.Poly(list(reversed(f)), x).factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


def _random_irreducible(sympy, rng, degree):
    while True:
        f = [rng.randint(-15, 15) for _ in range(degree)] + [1]
        if _sympy_irreducible(sympy, f):
            return f


def test_verdicts_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    inputs = []
    while len(inputs) < 40:  # compositions of degree <= 16
        cs = sorted({rng.randint(-100, 100) for _ in range(rng.randint(1, 3))})
        if rng.random() < 0.4:
            cs = sorted(set(cs) | {-rng.randint(1, 10) ** 2})
        word = tuple(rng.randrange(len(cs)) for _ in range(rng.randint(1, 4)))
        inputs.append(compose_word(GeneratorSet.from_cs(cs), word))
    for _ in range(25):  # products of irreducible quadratics and quartics
        f = [1]
        for _ in range(rng.randint(2, 3)):
            f = _mul(f, _random_irreducible(sympy, rng, rng.choice((2, 4))))
        inputs.append(f)
    for f in inputs:
        g = find_factor(f)
        if g is not None:
            assert _divmod(f, g)[1] == [], f
        assert (g is None) == _sympy_irreducible(sympy, f), f


# --- regressions: inputs Kronecker's search could not decide ---------------

def test_two_quartic_factors_are_found():
    # ((x^2+73)^2+73)^2 - 4 = ((x^2+73)^2+71)((x^2+73)^2+75)
    f = compose_word(GeneratorSet.from_cs([-4, 73]), (0, 1, 1))
    assert find_factor(f) in ([5400, 0, 146, 0, 1], [5404, 0, 146, 0, 1])


def test_non_squarefree_word_is_factored():
    # (x^2-1) o (x^2-1) o (x^2-79) = (x^2-79)^2 ((x^2-79)^2 - 2)
    f = compose_word(GeneratorSet.from_cs([-1, -79]), (0, 0, 1))
    g = find_factor(f)
    assert g is not None and 1 <= len(g) - 1 < 8
    assert _divmod(f, g)[1] == []


def test_squarefree_modulo_no_small_prime():
    # every odd prime up to 97 divides the discriminant, and so does 2
    D = 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        D *= p
    assert find_factor([-D, 0, 1]) is None                 # x^2 - D
    assert find_factor(_mul([-1, 1], [-1 - 2 * D, 1])) in ([-1, 1], [-1 - 2 * D, 1])


def test_cross_validate_degree_16():
    rep = cross_validate(GeneratorSet.from_cs([-4, 73]), 4)
    assert rep.passed and rep.words_checked == 30


@pytest.mark.extended
def test_cross_validate_degree_32():
    rep = cross_validate(GeneratorSet.from_cs([-4, 73]), 5)
    assert rep.passed and rep.words_checked == 62


def test_cross_validate_counters_repeat():
    S = GeneratorSet.from_cs([-4, 73])
    first, second = cross_validate(S, 3), cross_validate(S, 3)
    assert set(first.counters) == set(COUNTER_NAMES)
    assert first.counters == second.counters
    assert first.counters["factor_searches"] > 0
