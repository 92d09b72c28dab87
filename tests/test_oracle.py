import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quadsemi import oracle
from quadsemi.arith import is_perfect_square, positive_divisors
from quadsemi.dynamics import GeneratorSet, compose_word, stability_certificate
from quadsemi.oracle import (
    _SMALL_PRIMES,
    COUNTER_NAMES,
    _SPLIT_DRAWS,
    _distinct_degree_split,
    _equal_degree_split,
    _next_good_prime,
    _prime_scan,
    _repeated_factor,
    _zassenhaus,
    cross_validate,
    find_factor,
    is_irreducible_exact,
)
from references import gcd_reference, gfp_rem, powmod_reference

# The cross-validation benchmark's panel without its last three pairs
# (-49, 49), (-4, 73) and (-36, 97), which Kronecker's search could not
# decide within any practical budget (test_cli.py cross-validates them):
# 20 pairs of irreducible letters, then 5 with a reducible letter x^2 - q^2.
KRONECKER_DECIDED = [
    (93, 44), (55, 72), (-39, -47), (-73, 54), (-57, 21), (51, -99), (-84, -6),
    (-90, 26), (-33, -63), (48, 89), (34, 46), (-17, -32), (59, -71), (-73, 4),
    (-19, 59), (26, 11), (45, -89), (-63, 79), (10, 98), (-39, -86), (-1, -79),
    (-81, -54), (-49, -28), (-9, 2), (-81, 25)]
CROSSVAL_PANEL = KRONECKER_DECIDED + [(-49, 49), (-4, 73), (-36, 97)]


def _horner(f, x):
    """Value at x of the polynomial with ascending coefficients f."""
    v = 0
    for a in reversed(f):
        v = v * x + a
    return v


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
    with pytest.raises(ValueError, match=r"coefficient 0 is 1\.0, not an int"):
        find_factor([1.0, 0, 1.0])
    with pytest.raises(ValueError, match="coefficient 0 is '1', not an int"):
        find_factor(['1', 0, 1])
    assert is_irreducible_exact([0] * 32 + [1]) is False    # x^32, at the cap
    assert is_irreducible_exact([1] + [0] * 31 + [1]) is True  # x^32 + 1, at the cap


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
        assert g is not None and _horner(f, 0) % _horner(g, 0) == 0
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


def reference_cross_validate(gens, max_len):
    """Every word by length, then in dictionary order, one certificate each."""
    forbidden, unknown_irreducible, checked = [], [], 0
    for n in range(1, max_len + 1):
        for word in product(range(len(gens.maps)), repeat=n):
            checked += 1
            certified = stability_certificate(gens, word).certified
            irreducible = is_irreducible_exact(compose_word(gens, word))
            if certified and not irreducible:
                forbidden.append(word)
            elif not certified and irreducible:
                unknown_irreducible.append(word)
    return checked, tuple(forbidden), tuple(unknown_irreducible)


# reducible letters x^2 - 1, x^2 - 4, x^2 - 9 and the constant 0; the second,
# third and fourth sets have irreducible words with a square, and (-12, 4, 0)
# lists (0, 1) before (0, 0, 1): by length first, not in dictionary order
@pytest.mark.parametrize("cs,max_len", [((-1, -12), 3), ((-12, 4, 0), 3), ((0, -8, 3), 3),
                                        ((-4, 9), 3), ((-9, 2, 0), 2), ((-4, 73), 4)])
def test_cross_validate_equals_reference(cs, max_len):
    gens = GeneratorSet.from_cs(cs)
    rep = cross_validate(gens, max_len)
    assert (rep.words_checked, rep.forbidden, rep.unknown_irreducible) \
        == reference_cross_validate(gens, max_len)


def test_cross_validate_reads_the_printed_list(monkeypatch):
    # the reducible word (0, 1) of {x^2-1, x^2-12} added to the certified
    # text is reported forbidden; the certified word (1, 0) dropped from it
    # moves to unknown_irreducible
    S = GeneratorSet.from_cs([-1, -12])
    clean = cross_validate(S, 2)
    assert clean.passed and clean.forbidden == ()
    real = oracle.join_certified_words

    def patch_join(edit):
        # the certified text, split at sep, edited with the heads and tails
        def join(gens, max_len, heads, tails, sep, **kwargs):
            words = real(gens, max_len, heads, tails, sep, **kwargs).split(sep)
            return sep.join(edit(words, heads, tails))

        monkeypatch.setattr(oracle, "join_certified_words", join)

    patch_join(lambda words, heads, tails: words + [heads[0] + tails[1]])
    rep = cross_validate(S, 2)
    assert rep.forbidden == ((0, 1),) and not rep.passed
    assert rep.unknown_irreducible == clean.unknown_irreducible
    dropped = (1, 0)
    assert stability_certificate(S, dropped).certified
    assert dropped not in clean.unknown_irreducible
    patch_join(lambda words, heads, tails: [w for w in words if w != heads[1] + tails[0]])
    rep = cross_validate(S, 2)
    assert rep.passed and rep.unknown_irreducible == tuple(
        sorted(clean.unknown_irreducible + (dropped,), key=lambda w: (len(w), w)))


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
    evals = sorted(((x, _horner(f, x)) for x in _NODE_POOL),
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


def _degree_sums(split):
    """The degrees a factor over Q can have, by a squarefree reduction's split."""
    sums = {0}
    for d, g in split:
        for _ in range((len(g) - 1) // d):
            sums |= {x + d for x in sums}
    return sums


def _factor_count(split):
    return sum((len(g) - 1) // d for d, g in split)


def _full_scan(f):
    """(p, split) for the small primes modulo which f is squarefree, and the
    degrees in 1..n//2 that all of their splits allow.

    Every one of `_SMALL_PRIMES` until no degree is left, kept apart from
    `_prime_scan`'s stop rule: the finest filter the oracle's primes give.
    """
    splits, allowed = [], set(range(1, (len(f) - 1) // 2 + 1))
    for p in _SMALL_PRIMES:
        if not allowed:
            break  # intersections only shrink
        split = _distinct_degree_split(f, p)
        if split is not None:
            splits.append((p, split))
            allowed &= _degree_sums(split)
    return splits, allowed


def full_scan_find_factor(f, splits, allowed):
    """`find_factor` with every small prime scanned (`_full_scan(f)`): the
    search at the first odd prime with the fewest modular factors, pruned by
    all of them."""
    if not allowed:
        return None
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    odd = [(p, split) for p, split in splits if p > 2]
    if not odd:
        g = _repeated_factor(f, counters)
        if g is not None:
            return g
        odd = [_next_good_prime(f)]
    p, split = min(odd, key=lambda ps: _factor_count(ps[1]))
    return _zassenhaus(f, allowed, p, split, counters)


def reference_find_factor(f, allowed):
    """Integer roots by trial division, then Kronecker's search in each degree
    `allowed` leaves open: the mod-p degree filter of all small primes (the
    filter only prunes; the sympy comparison below checks it independently)."""
    if len(f) == 2:
        return None
    if f[0] == 0:
        return [0, 1]
    for r in positive_divisors(f[0]):
        for root in (r, -r):
            if _horner(f, root) == 0:
                return [-root, 1]
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


def _assert_agree(f, kronecker=True):
    """find_factor's factor divides f, and its verdict is the full scan's and,
    unless kronecker is False, that of Kronecker's search."""
    g = find_factor(f)
    if g is not None:
        _, rem = _divmod(f, g)
        assert rem == [] and 1 <= len(g) - 1 < len(f) - 1, (f, g)
    splits, allowed = _full_scan(f)
    assert (g is None) == (full_scan_find_factor(f, splits, allowed) is None), f
    if kronecker:
        assert (g is None) == (reference_find_factor(f, allowed) is None), f


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


# --- the prime scan's stop rule --------------------------------------------

def _words(letters, max_len):
    for n in range(1, max_len + 1):
        yield from product(range(letters), repeat=n)


@pytest.mark.parametrize("cs,max_len", [((-49, 49), 3), ((-4, 73), 3), ((-36, 97), 3),
                                        ((-21, 5, -11), 4)])
def test_find_factor_agrees_with_the_full_scan(cs, max_len):
    # the panel's other 25 pairs are checked against both references above
    S = GeneratorSet.from_cs(list(cs))
    for word in _words(len(cs), max_len):
        _assert_agree(compose_word(S, word), kronecker=False)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=3, unique=True), st.data())
@settings(max_examples=40, deadline=None)
def test_find_factor_agrees_with_the_full_scan_on_random_words(cs, data):
    word = data.draw(st.lists(st.integers(0, len(cs) - 1), min_size=1, max_size=3))
    _assert_agree(compose_word(GeneratorSet.from_cs(cs), tuple(word)), kronecker=False)


def _recorded_scan(f, monkeypatch):
    """_prime_scan(f)'s result, every prime it tried, and (p, factor count)
    for each squarefree reduction among them."""
    tried, seen = [], []
    real = oracle._distinct_degree_split

    def split(f, p):
        out = real(f, p)
        tried.append(p)
        if out is not None:
            seen.append((p, _factor_count(out)))
        return out

    counters = dict.fromkeys(COUNTER_NAMES, 0)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_distinct_degree_split", split)
        allowed, chosen = _prime_scan(f, counters)
    assert counters["primes_scanned"] == len(seen)
    return allowed, chosen, tried, seen


SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # sqrt2 + sqrt3 + sqrt5


def _assert_stop_rule(f, monkeypatch):
    allowed, chosen, tried, seen = _recorded_scan(f, monkeypatch)
    odd = [(p, r) for p, r in seen if p > 2]
    for g in range(1, len(odd)):  # the rule held after no earlier prime
        assert 2 ** (min(r for _, r in odd[:g]) - 1) > g, f
    if allowed and chosen is not None:
        r = min(r for _, r in odd)
        assert chosen[0] == next(p for p, rp in odd if rp == r), f
        assert _factor_count(chosen[1]) == r
        if tried[-1] != _SMALL_PRIMES[-1]:  # stopped before the last prime
            assert 2 ** (r - 1) <= len(odd), f


@pytest.mark.parametrize("cs", CROSSVAL_PANEL + [(-21, 5, -11)])
def test_prime_scan_stops_at_the_first_prime_the_rule_allows(cs, monkeypatch):
    S = GeneratorSet.from_cs(list(cs))
    for word in _words(len(cs), 3):
        _assert_stop_rule(compose_word(S, word), monkeypatch)


def _squarefree_mod_2_products(seed, count):
    """Products of two monic quadratics that are x^2 + x + 1 and x^2 + x mod 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        b1, c1, b2, c2 = (2 * rng.randint(-10, 9) + e for e in (1, 1, 1, 0))
        out.append(_mul([c1, b1, 1], [c2, b2, 1]))
    return out


def test_prime_scan_stop_rule_on_small_inputs(monkeypatch):
    # no composition is squarefree mod 2, but these products are: p = 2
    # prunes their degrees without counting toward g
    mod_2 = _squarefree_mod_2_products(5, 30)
    assert all(_distinct_degree_split(f, 2) is not None for f in mod_2)
    for f in SMALL_INPUTS + mod_2 + [SWINNERTON_DYER_8]:
        _assert_stop_rule(f, monkeypatch)


def test_reducible_word_is_decided_in_fewer_splits_than_small_primes(monkeypatch):
    # ((x^2+73)^2+73)^2 - 4 has two quartic factors, so no reduction is
    # irreducible and degree 4 stays allowed: only the stop rule ends the scan
    f = compose_word(GeneratorSet.from_cs([-4, 73]), (0, 1, 1))
    calls = []
    real = oracle._distinct_degree_split
    monkeypatch.setattr(oracle, "_distinct_degree_split",
                        lambda f, p: calls.append(p) or real(f, p))
    g = find_factor(f)
    assert g is not None and _divmod(f, g)[1] == []
    assert len(calls) < len(_SMALL_PRIMES)


def test_swinnerton_dyer_octic_is_irreducible():
    # its Galois group is (Z/2)^3, so it has at least 4 factors modulo every
    # prime: no reduction certifies it, and the subset search has to
    for p in _SMALL_PRIMES:
        split = _distinct_degree_split(SWINNERTON_DYER_8, p)
        if split is not None:
            assert _factor_count(split) >= 4, p
    assert find_factor(SWINNERTON_DYER_8) is None
    _assert_agree(SWINNERTON_DYER_8, kronecker=False)


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


# The oracle's work counters pin its search: a kernel that returned another
# polynomial anywhere would move them.

@pytest.mark.extended
def test_cross_validate_degree_32():
    rep = cross_validate(GeneratorSet.from_cs([-4, 73]), 5)
    assert rep.passed and rep.words_checked == 62
    assert rep.counters == {"primes_scanned": 369, "factor_searches": 41,
                            "modular_factors_max": 6, "subsets_tried": 206,
                            "exact_divisions": 31}


def test_cross_validate_three_letters_at_degree_16():
    rep = cross_validate(GeneratorSet.from_cs([-21, 5, -11]), 4)
    assert rep.passed and rep.words_checked == 120
    assert len(rep.unknown_irreducible) == 27
    assert rep.counters == {"primes_scanned": 302, "factor_searches": 69,
                            "modular_factors_max": 4, "subsets_tried": 113,
                            "exact_divisions": 3}


def test_cross_validate_counters_repeat():
    S = GeneratorSet.from_cs([-4, 73])
    first, second = cross_validate(S, 3), cross_validate(S, 3)
    assert set(first.counters) == set(COUNTER_NAMES)
    assert first.counters == second.counters
    assert first.counters["factor_searches"] > 0


def test_equal_degree_split_stops_after_its_draw_cap(monkeypatch):
    # x^4 + 1 mod 3 is (x^2 + x + 2)(x^2 + 2x + 2), and find_factor splits
    # it at d = 2; an rng that always draws 0 never splits it
    calls = []
    real = oracle._equal_degree_split

    def spy(g, d, p, rng):
        calls.append((g, d, p))
        return real(g, d, p, rng)

    monkeypatch.setattr(oracle, "_equal_degree_split", spy)
    assert find_factor([1, 0, 0, 0, 1]) is None
    assert ([1, 0, 0, 0, 1], 2, 3) in calls

    class Zeros:
        draws = 0

        def randrange(self, n):
            self.draws += 1
            return 0

    rng = Zeros()
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="degree-4 product of degree-2 factors mod 3"):
        _equal_degree_split([1, 0, 0, 0, 1], 2, 3, rng)
    assert time.perf_counter() - start < 1.0
    assert rng.draws == 4 * _SPLIT_DRAWS


# --- the packed powering ring and the gcd, against schoolbook references ---

# every prime the scan uses, then primes past the small ones, as
# _next_good_prime can return, up to the widest slots a 16-bit p needs
RING_PRIMES = _SMALL_PRIMES + (101, 10007, 65521)


def _random_poly(rng, length, p):
    return [rng.randrange(p) for _ in range(length)]


def _largest_slot_residue(n, p):
    """The residue whose square has the largest slot value the width rule
    admits, n*(p-1)^2, in its middle coefficient."""
    return [p - 1] * n


@pytest.mark.parametrize("p", RING_PRIMES)
def test_packed_ring_reduces_every_slot_exactly(p):
    rng = random.Random(p)
    for n in range(2, 33):
        f = _random_poly(rng, n, p) + [1]
        ring = oracle._PackedRing(f, p)
        top = n * (p - 1) ** 2
        slots = 2 * n - 1
        # the Barrett step on the values just below the largest slot value,
        # on the largest value in each of the top residue classes (every
        # class when p <= 2n-1), where its error is largest, and on random ones
        for values in (list(range(top, max(top - slots, -1), -1)),
                       [top - (top - r) % p for r in range(p - 1, max(p - 1 - slots, -1), -1)],
                       [rng.randint(0, top) for _ in range(slots)]):
            reduced = ring.reduce_slots(sum(v << ring.w * i for i, v in enumerate(values)))
            slot = (1 << ring.w) - 1
            assert [reduced >> ring.w * i & slot for i in range(len(values))] \
                == [v % p for v in values], (n, p)
        # G = floor(x^(2n-2) / f): x^(2n-2) - G*f has degree below n
        g = ring.unpack(ring.g)
        assert len(g) == n - 1
        rest = [-c for c in _mul(g, f)]
        rest[2 * n - 2] += 1
        assert all(c % p == 0 for c in rest[n:]), (n, p)
        # one product whose slots reach the largest value, one of random residues
        for a, b in ((_largest_slot_residue(n, p),) * 2,
                     (_random_poly(rng, n, p), _random_poly(rng, n, p))):
            assert ring.unpack(ring.mul(ring.pack(a), ring.pack(b))) \
                == gfp_rem(_mul(a, b), f, p), (n, p)


def _powering_cases(p, degrees):
    """Seeded (modulus, base, exponent) triples for each degree: the zero
    base, x, a base of degree above the modulus's with coefficients outside
    [0, p), and the residue that reaches the largest slot value, each to the
    powers 0, 1, p, (p^d - 1)/2 as in the equal-degree split, and a random one."""
    rng = random.Random(p)
    for n in degrees:
        f = _random_poly(rng, n, p) + [1]
        d = rng.randint(1, max(1, min(n // 2, 48 // p.bit_length())))
        exponents = (0, 1, p, (p**d - 1) // 2, rng.randrange(1 << 24))
        high = [rng.randint(-3 * p, 3 * p) for _ in range(n + rng.randint(1, n + 2))]
        for base in ([], [0, 1], high, _largest_slot_residue(n, p)):
            for e in exponents:
                yield f, base, e


def _assert_powering_agrees(p, degrees):
    ring = None
    for f, base, e in _powering_cases(p, degrees):
        if ring is None or ring.modulus != f:
            ring = oracle._PackedRing(f, p)
        assert oracle._m_powmod(base, e, ring) == powmod_reference(base, e, f, p), (f, base, e)


@pytest.mark.parametrize("p", RING_PRIMES)
def test_packed_powering_equals_the_reference(p):
    _assert_powering_agrees(p, (2, 3, 5 + p % 23, 32))  # every degree under extended


@pytest.mark.extended
@pytest.mark.parametrize("p", RING_PRIMES)
def test_packed_powering_equals_the_reference_at_every_degree(p):
    _assert_powering_agrees(p, range(2, 33))


def _trim_mod(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


@pytest.mark.parametrize("p", RING_PRIMES)
def test_gcd_equals_the_reference(p):
    rng = random.Random(p)
    for n in range(1, 33):
        common = _random_poly(rng, rng.randint(0, n), p) + [1]
        a = _mul(common, _random_poly(rng, rng.randint(1, 33 - n), p) + [1])
        b = _mul(common, _random_poly(rng, rng.randint(0, 33 - n), p))
        a, b = (_trim_mod(x, p) for x in (a, b))
        for x, y in ((a, b), (b, a), (a, []), ([], b), (a, a), ([], [])):
            assert oracle._p_gcd(x, y, p) == gcd_reference(x, y, p), (x, y)
