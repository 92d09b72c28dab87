import copy
import math
import pickle
import random
import time
import tracemalloc
from bisect import bisect_right
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from quadsemi import dynamics
from quadsemi.arith import is_perfect_square
from quadsemi.diophantine import quartic_curve_points
from quadsemi.dynamics import (
    SCAN_BUDGET,
    SCAN_LETTER_BUDGET,
    GeneratorSet,
    QuadraticMap,
    OrbitAutomaton,
    SequenceSampler,
    StabilityVerdict,
    _DEAD,
    _GOLDEN,
    _MASK64,
    _STREAM,
    _START,
    _bounded_reach,
    _escape_radius,
    _mix_lanes,
    _pack,
    _unpack,
    certified_counts,
    check_scan_budget,
    compose_word,
    join_certified_words,
    monte_carlo_stability,
    orbit_entries,
    stability_certificate,
)
from references import (
    SIEVE_FACTORS,
    SIEVE_TABLES,
    dfs_scan_reference,
    mix64,
    passes_every_table,
)


def _horner(f, x):
    """Value at x of the polynomial with ascending coefficients f."""
    v = 0
    for a in reversed(f):
        v = v * x + a
    return v


def test_evaluate_examples():
    assert QuadraticMap(-12)(-4) == 4
    assert QuadraticMap(0)(0) == 0
    assert QuadraticMap(5)(10) == 105


def test_iterate_examples():
    assert QuadraticMap(-12).iterate(3, 0) == 17412  # 0 -> -12 -> 132 -> 17412
    assert QuadraticMap(-1).iterate(2, 0) == 0       # the 2-cycle 0 <-> -1
    assert QuadraticMap(7).iterate(0, 7) == 7


def test_iterate_rejects_negative_count():
    with pytest.raises(ValueError):
        QuadraticMap(1).iterate(-1, 0)


def test_generator_set_validation():
    with pytest.raises(ValueError, match="nonempty"):
        GeneratorSet.from_cs([])
    with pytest.raises(ValueError, match=r"distinct, got \[3, 3\]"):
        GeneratorSet.from_cs([3, 3])


def test_generator_set_is_an_immutable_value():
    # a __slots__ class, where the other records are NamedTuples: len and
    # indexing run over the maps
    a, b = GeneratorSet.from_cs([-4, 73]), GeneratorSet((QuadraticMap(-4), QuadraticMap(73)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != GeneratorSet.from_cs([73, -4]) and a != a.maps
    assert len(a) == 2 and a[1] == QuadraticMap(73) and a.cs == (-4, 73)
    assert repr(a) == "GeneratorSet(maps=(QuadraticMap(c=-4), QuadraticMap(c=73)))"
    for name in ("maps", "cs", "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    with pytest.raises(AttributeError):
        del a.maps
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_compose_word_examples():
    # (x^2-1) o (x^2-12) = x^4 - 24x^2 + 143
    S = GeneratorSet.from_cs([-1, -12])
    assert compose_word(S, (0, 1)) == [143, 0, -24, 0, 1]
    assert compose_word(GeneratorSet.from_cs([5]), (0,)) == [5, 0, 1]
    assert compose_word(GeneratorSet.from_cs([0, 1]), (0, 0)) == [0, 0, 0, 0, 1]


def test_compose_word_degree_cap():
    S = GeneratorSet.from_cs([1])
    with pytest.raises(ValueError):
        compose_word(S, (0,) * 9)  # degree 512 > 256
    assert len(compose_word(S, (0,) * 8)) == 257


def test_adjusted_critical_orbit_examples():
    S = GeneratorSet.from_cs([-4, -12])
    assert list(orbit_entries(S, (1, 0))) == [12, 4]
    assert list(orbit_entries(S, (1, 1))) == [12, 132]
    assert list(orbit_entries(S, (0,))) == [4]


def test_stability_certificate_examples():
    S = GeneratorSet.from_cs([-4, -12])
    v = stability_certificate(S, (1, 0))
    assert not v.certified and v.first_square_index == 2 and v.witness_root == 2
    assert stability_certificate(S, (1, 1)).certified
    v = stability_certificate(S, (0, 1, 0))
    assert not v.certified and v.first_square_index == 1 and v.witness_root == 2


def test_one_letter_words_certified_iff_negated_constant_nonsquare():
    # entry 1 of the one-letter word (0,)*n over {c} is -c, and entry k >= 2
    # is f^k(0), a square only for c in {0, -1}, where -c already is one
    for c in (-2, 3, -12):
        assert stability_certificate(GeneratorSet.from_cs([c]), (0,) * 10).certified, c
    for c in (0, -1):
        v = stability_certificate(GeneratorSet.from_cs([c]), (0,) * 5)
        assert v.first_square_index == 1, c


def test_one_letter_words_certified_iff_negated_constant_nonsquare_range():
    for c in range(-200, 201):
        v = stability_certificate(GeneratorSet.from_cs([c]), (0,) * 12)
        if is_perfect_square(-c) is not None:
            assert v.first_square_index == 1, c
        else:
            assert v.certified, c


def test_word_validation():
    S = GeneratorSet.from_cs([1, 2])
    with pytest.raises(ValueError):
        orbit_entries(S, ())
    with pytest.raises(ValueError):
        stability_certificate(S, (0, 2))


# The tests named for scan_words check the two readers behind the `scan-words`
# command: `certified_counts` and `join_certified_words`, which share one
# automaton there.  Letter p is written "<p" first and ".p" after, and words
# are joined by "|".

def scan_readers(S, max_len):
    """The per-length certified counts and the certified-word text, read as
    `scan-words` reads them: from one lent automaton."""
    automaton = OrbitAutomaton(S.cs)
    heads = [f"<{p}" for p in range(len(S))]
    tails = [f".{p}" for p in range(len(S))]
    return (certified_counts(S, max_len, automaton=automaton),
            join_certified_words(S, max_len, heads, tails, "|", automaton=automaton))


def scan_readers_expected(results, max_len):
    """scan_readers' two values, read off (word, verdict) pairs in dictionary order."""
    certified = [w for w, v in results if v.certified]
    return (certified_per_length(results, max_len),
            "|".join(f"<{w[0]}" + "".join(f".{p}" for p in w[1:]) for w in certified))


def certified_per_length(results, max_len):
    """The certified words of each length 1..max_len among (word, verdict) pairs."""
    counts = [0] * max_len
    for word, verdict in results:
        counts[len(word) - 1] += verdict.certified
    return counts


def test_scan_words_constant_sequence_story():
    # over {x^2-4, x^2-12} only the constant x^2-12 words stay square-free
    S = GeneratorSet.from_cs([-4, -12])
    assert scan_readers(S, 3) == ([1, 1, 1], "<1|<1.1|<1.1.1")


def test_scan_words_single_generator_and_edge_cases():
    assert scan_readers(GeneratorSet.from_cs([1]), 2) == ([1, 1], "<0|<0.0")
    assert scan_readers(GeneratorSet.from_cs([1, 2]), 0) == ([], "")
    with pytest.raises(ValueError):
        join_certified_words(GeneratorSet.from_cs([1, 2]), 25, "ab", "ab", "|")  # budget


def _admits(s, max_len):
    try:
        check_scan_budget(s, max_len)
    except ValueError:
        return False
    return True


def test_letter_budget_admits_every_scan_the_word_budget_admits():
    # with two or more generators the word count alone decides, as it did
    # before the letter budget; the rule is checked, no scan is run
    for s in list(range(2, 40)) + [1023, 1024, SCAN_BUDGET, SCAN_BUDGET + 1]:
        for max_len in range(0, 30):
            words = sum(s**k for k in range(1, max_len + 1))
            assert _admits(s, max_len) == (words <= SCAN_BUDGET), (s, max_len)


def test_letter_budget_bounds_the_one_generator_scan():
    # one word per length, max_len * (max_len + 1) / 2 letters in all
    top = max(n for n in range(10_000) if n * (n + 1) // 2 <= SCAN_LETTER_BUDGET)
    assert _admits(1, top) and not _admits(1, top + 1)
    with pytest.raises(ValueError, match="letters"):
        check_scan_budget(1, 1_000_000)
    with pytest.raises(ValueError, match="more than 1048576 words"):
        check_scan_budget(1, SCAN_BUDGET + 1)


def test_scan_words_dictionary_order():
    # every word over {x^2+1, x^2+2} up to length 2 is certified
    assert join_certified_words(GeneratorSet.from_cs([1, 2]), 2, "ab", "ab", "|") \
        == "a|aa|ab|b|ba|bb"


words = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-6, 6), min_size=2, max_size=3, unique=True),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )
)


@given(words)
@settings(max_examples=60)
def test_orbit_entries_match_composed_prefixes(case):
    cs, word = case
    S = GeneratorSet.from_cs(cs)
    word = tuple(i % len(cs) for i in word)
    orbit = list(orbit_entries(S, word))
    assert orbit[0] == -S.maps[word[0]].c
    for k in range(2, len(word) + 1):
        prefix_poly = compose_word(S, word[:k])
        assert orbit[k - 1] == _horner(prefix_poly, 0)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_unknown_at_first_position_iff_negated_constant_square(c1, c2):
    if c1 == c2:
        return
    S = GeneratorSet.from_cs([c1, c2])
    v = stability_certificate(S, (0, 1))
    if is_perfect_square(-c1) is not None:
        assert not v.certified and v.first_square_index == 1
    else:
        assert v.certified or v.first_square_index > 1


def test_sampler_validation():
    with pytest.raises(ValueError):
        SequenceSampler((), 1)
    with pytest.raises(ValueError):
        SequenceSampler((1.0, 0.0), 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sampler_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        SequenceSampler((bad, 1.0), 1)


def test_sampler_rejects_weights_whose_sum_overflows():
    # 1e308 + 1e308 is inf, which would make letter 0's share 0.0
    with pytest.raises(ValueError, match="finite sum.*1e\\+308"):
        SequenceSampler((1e308, 1e308), 1)
    assert SequenceSampler((1e308, 7e307), 1)._cumulative() == [1e308 / (1e308 + 7e307), 1.0]


def test_monte_carlo_single_trial_is_bernoulli():
    S = GeneratorSet.from_cs([-4, -12])
    est = monte_carlo_stability(S, SequenceSampler.uniform(2, 123), 5, 1)
    assert est in (0.0, 1.0)


def test_monte_carlo_seed_reproducible():
    S = GeneratorSet.from_cs([-4, -12])
    sampler = SequenceSampler.uniform(2, 42)
    a = monte_carlo_stability(S, sampler, 8, 4000)
    b = monte_carlo_stability(S, sampler, 8, 4000)
    assert a == b


def test_monte_carlo_single_generator_all_square_free():
    S = GeneratorSet.from_cs([1])
    assert monte_carlo_stability(S, SequenceSampler.uniform(1, 9), 6, 100) == 1.0


def test_monte_carlo_weight_count_mismatch():
    S = GeneratorSet.from_cs([1, 2])
    with pytest.raises(ValueError):
        monte_carlo_stability(S, SequenceSampler.uniform(3, 1), 4, 10)


# --- slow references: exact integers, math.isqrt, the whole word drawn up front


def reference_orbit(cs, word):
    """Every entry rebuilt from 0 with exact integers."""
    yield -cs[word[0]]
    for k in range(2, len(word) + 1):
        v = 0
        for j in range(k - 1, -1, -1):
            v = v * v + cs[word[j]]
        yield v


def reference_certificate(cs, word):
    for k, entry in enumerate(reference_orbit(cs, word), start=1):
        if entry >= 0 and math.isqrt(entry) ** 2 == entry:
            return StabilityVerdict(False, k, math.isqrt(entry))
    return StabilityVerdict(True)


def reference_scan(cs, max_len):
    words = sorted(w for n in range(1, max_len + 1)
                   for w in product(range(len(cs)), repeat=n))
    return [(w, reference_certificate(cs, w)) for w in words]


def _trial_word(seed, trial, depth, cum, k):
    """All `depth` letters of one trial from the stream keyed by (seed, trial)."""
    if k == 1:
        return (0,) * depth
    state = mix64((seed ^ (trial * _STREAM)) & _MASK64)
    letters = []
    for _ in range(depth):
        state = (state + _GOLDEN) & _MASK64
        u = mix64(state) / 18446744073709551616.0  # 2**64, can round to 1.0
        letters.append(min(bisect_right(cum, u), k - 1))
    return tuple(letters)


def reference_monte_carlo(cs, sampler, depth, trials):
    cum = sampler._cumulative()
    hits = sum(reference_certificate(cs, _trial_word(sampler.seed, t, depth, cum, len(cs)))
               .certified for t in range(trials))
    return hits / trials


constant_sets = st.lists(st.integers(-60, 60), min_size=1, max_size=3, unique=True)
SQUARE_SETS = [(-4, -12), (0, -1), (-1, -2)]
# x^2 + 2v + 1 maps v = (x^2+3)^7(0), a 116-bit value, to the square (v + 1)^2,
# so word (1, 0, 0, 0, 0, 0, 0, 0) has a square far above the sieve modulus
V7 = QuadraticMap(3).iterate(7, 0)
DEEP_SQUARE_SET = (3, 2 * V7 + 1)


def test_square_far_above_the_sieve_modulus_is_found():
    S = GeneratorSet.from_cs(DEEP_SQUARE_SET)
    word = (1,) + (0,) * 7
    assert V7 > 1 << 100
    assert stability_certificate(S, word) == StabilityVerdict(False, 8, V7 + 1)


@given(constant_sets, st.integers(1, 5))
@example(SQUARE_SETS[0], 6)
@example(SQUARE_SETS[1], 6)
@example(SQUARE_SETS[2], 6)
@example(DEEP_SQUARE_SET, 8)
@settings(max_examples=40, deadline=None)
def test_scan_words_equals_reference(cs, max_len):
    assert scan_readers(GeneratorSet.from_cs(cs), max_len) \
        == scan_readers_expected(reference_scan(cs, max_len), max_len)


@given(constant_sets, st.lists(st.integers(0, 2), min_size=1, max_size=12))
@example(SQUARE_SETS[0], [1, 0, 1])
@example(SQUARE_SETS[1], [1, 1, 0])
@example(SQUARE_SETS[2], [1, 0, 0, 1])
@settings(max_examples=150, deadline=None)
def test_stability_certificate_equals_reference(cs, word):
    word = tuple(i % len(cs) for i in word)
    S = GeneratorSet.from_cs(cs)
    assert stability_certificate(S, word) == reference_certificate(cs, word)
    assert list(orbit_entries(S, word)) == list(reference_orbit(cs, word))


@given(constant_sets, st.data(), st.integers(0, (1 << 64) - 1), st.integers(1, 10))
@example(SQUARE_SETS[0], None, 7, 10)
@example(SQUARE_SETS[1], None, 3, 4)
@example(SQUARE_SETS[2], None, 11, 8)
@example(DEEP_SQUARE_SET, None, 15, 8)  # 4 of the 200 trials hit the deep square
@settings(max_examples=40, deadline=None)
def test_monte_carlo_equals_reference(cs, data, seed, depth):
    if data is None:
        weights = (1.0,) * len(cs)
    else:
        weights = tuple(data.draw(st.lists(st.floats(0.01, 100.0), min_size=len(cs),
                                           max_size=len(cs))))
    sampler = SequenceSampler(weights, seed)
    S = GeneratorSet.from_cs(cs)
    assert monte_carlo_stability(S, sampler, depth, 200) \
        == reference_monte_carlo(cs, sampler, depth, 200)


# with this seed, trial 0's first letter mixes to within 2^10 of 2^64, so its
# uniform draw rounds to exactly 1.0
SEED_DRAWING_ONE = 13696288941778812732


def test_monte_carlo_uniform_draw_of_one_picks_the_last_generator():
    state = mix64(SEED_DRAWING_ONE)
    assert mix64((state + _GOLDEN) & _MASK64) / 18446744073709551616.0 == 1.0
    S = GeneratorSet.from_cs([-4, -12])
    sampler = SequenceSampler.uniform(2, SEED_DRAWING_ONE)
    assert _trial_word(SEED_DRAWING_ONE, 0, 3, sampler._cumulative(), 2)[0] == 1
    assert monte_carlo_stability(S, sampler, 3, 1) \
        == reference_monte_carlo((-4, -12), sampler, 3, 1)


def float_rule_letter(cum, z):
    """The letter of draw z by the float rule the cuts replace."""
    return min(bisect_right(cum, z / 18446744073709551616.0), len(cum) - 1)


# (2.0, 0.3, 0.3, 1e-17) gives cum [0.769..., 0.884..., 1.0000000000000002, 1.0],
# unsorted at its end: a draw rounding to 1.0 takes letter 2, not the last
CUT_WEIGHTS = [(1.0,) * s for s in range(1, 5)] + [
    (1.0, 30.0), (1e308, 7e307), (2.0, 0.3, 0.3, 1e-17)]


@pytest.mark.parametrize("weights", CUT_WEIGHTS, ids=str)
def test_cut_letter_equals_the_float_rule(weights):
    sampler = SequenceSampler(weights, 1)
    cum, cuts = sampler._cumulative(), sampler._cuts()
    assert len(cuts) == len(weights) - 1
    rng = random.Random(str(weights))
    top = 1 << 64
    probes = {z for cut in cuts for z in range(cut - 3, cut + 4) if 0 <= z < top}
    probes |= set(range(top - 1024, top))  # every z / 2**64 that rounds to 1.0
    probes |= {rng.getrandbits(64) for _ in range(2000)} | {0, mix64(
        (mix64(SEED_DRAWING_ONE) + _GOLDEN) & _MASK64)}
    for z in probes:
        assert bisect_right(cuts, z) == float_rule_letter(cum, z), z
    if weights == (2.0, 0.3, 0.3, 1e-17):
        assert cum[2] > cum[3] == 1.0 and float_rule_letter(cum, top - 1) == 2


# cuts computed on Python 3.11; the weights are added left to right, not by
# sum(), which Python 3.12 made compensated, so they hold on every version
PINNED_CUTS = {
    (2.0, 0.3, 0.3, 1e-17): [14189803133622733824, 16318273603666144256,
                             18446744073709551616],
    (0.1, 0.2, 0.3): [3074457345618258177, 9223372036854775296],
    (1.0, 30.0): [595056260442243520],
}


@pytest.mark.parametrize("weights", PINNED_CUTS, ids=str)
def test_cuts_are_the_same_on_every_python_version(weights):
    assert SequenceSampler(weights, 1)._cuts() == PINNED_CUTS[weights]


def test_mix_lanes_equals_mix64_lane_by_lane():
    rng = random.Random(5)
    for n in (1, 2, 7, 1024):
        values = ([0, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(n - 2)])[:n]
        packed = _pack(values)
        assert packed == sum(v << (128 * i) for i, v in enumerate(values))
        assert list(_unpack(packed, n)) == values
        lanes = _pack([(1 << 64) - 1] * n)
        assert list(_unpack(_mix_lanes(packed, lanes), n)) == [mix64(v) for v in values]


@pytest.mark.parametrize("cs,weights", [((-4, -12), (1.0, 1.0)), ((7,), (1.0,)),
                                        (DEEP_SQUARE_SET, (1.0, 1.0)),
                                        ((-21, 5, -11), (1.0, 30.0, 1.0))])
def test_monte_carlo_equals_reference_across_chunks(cs, weights):
    # trial counts just below, at and past one and two chunks of lanes
    S = GeneratorSet.from_cs(cs)
    sampler = SequenceSampler(weights, 11)
    for trials in (1023, 1024, 1025, 2049):
        assert monte_carlo_stability(S, sampler, 6, trials) \
            == reference_monte_carlo(cs, sampler, 6, trials), trials


def test_sieve_tables_follow_their_formula():
    assert [m for m, _ in SIEVE_TABLES] == list(SIEVE_FACTORS)
    for m, squares in SIEVE_TABLES:
        assert squares == {x * x % m for x in range(m)}


def test_sieve_tables_match_euler_criterion():
    # independent of the table formula: for an odd prime p, r != 0 is a
    # square mod p iff r^((p-1)/2) == 1 mod p
    for p, squares in SIEVE_TABLES:
        if p in (64, 9, 25):
            continue
        euler = {0} | {r for r in range(1, p) if pow(r, (p - 1) // 2, p) == 1}
        assert squares == euler and len(squares) == (p + 1) // 2


def test_every_small_square_passes_the_sieve():
    assert all(passes_every_table(r * r) for r in range(10**4 + 1))


@given(st.integers(min_value=0, max_value=1 << 12000))
def test_every_large_square_passes_the_sieve(r):
    assert passes_every_table(r * r)


def test_sieve_rejects_almost_every_nonsquare():
    start = 10**12
    nonsquares = [n for n in range(start, start + 10**4) if is_perfect_square(n) is None]
    assert sum(passes_every_table(n) for n in nonsquares) <= 5


# (constants, length) pairs on which the scan-words readers must equal the reference walk
DFS_CASES = [((-14, 40), 12), ((3, -7, 11), 8), ((-1, -2), 12), ((-4, -12), 12),
             (DEEP_SQUARE_SET, 9)]


# 201 first letters, each with its own value set Q(c1) over one wide B
DENSE = pytest.param(tuple(range(-100, 101)), 2, id="dense-201-2")


SCAN_CASES = DFS_CASES + [DENSE] + [
    pytest.param(cs, n, marks=pytest.mark.extended)
    for cs, n in [((-14, 40), 16), ((-4, -12), 16), ((3, -7, 11), 10)]]


@pytest.mark.parametrize("cs,max_len", SCAN_CASES)
def test_scan_words_equals_dfs_reference(cs, max_len):
    S = GeneratorSet.from_cs(cs)
    assert scan_readers(S, max_len) \
        == scan_readers_expected(dfs_scan_reference(S, max_len), max_len)


@pytest.mark.parametrize("cs,max_len", SCAN_CASES)
def test_certified_counts_equal_scan_words(cs, max_len):
    S = GeneratorSet.from_cs(cs)
    assert certified_counts(S, max_len) \
        == certified_per_length(dfs_scan_reference(S, max_len), max_len)


def test_certified_counts_of_a_set_with_a_live_cycle():
    # {-16, 4} keeps non-free states live at every length; 3/8 of its
    # length-16 words are certified
    S = GeneratorSet.from_cs((-16, 4))
    counts = certified_counts(S, 16)
    assert counts == certified_per_length(dfs_scan_reference(S, 16), 16)
    assert counts[-1] == 24_576


def test_certified_counts_reach_past_the_scan_budget():
    S = GeneratorSet.from_cs((-4, -12))  # only 2, 22, 222, ... are certified
    assert certified_counts(S, 2000) == [1] * 2000
    assert certified_counts(GeneratorSet.from_cs((1, 2)), 0) == []
    with pytest.raises(ValueError):
        certified_counts(S, -1)


@pytest.mark.parametrize("cs,max_len", DFS_CASES + [DENSE, ((-16, 4), 12), ((7,), 30),
                                                    ((-4,), 5), ((-4, -12), 0)])
def test_join_certified_words_equals_scan_words(cs, max_len):
    # with no automaton lent; the reference walk gives the scanned words
    S = GeneratorSet.from_cs(cs)
    heads = [f"<{p}" for p in range(len(cs))]
    tails = [f".{p}" for p in range(len(cs))]
    _, expected = scan_readers_expected(dfs_scan_reference(S, max_len), max_len)
    assert join_certified_words(S, max_len, heads, tails, "|") == expected


def test_join_certified_words_keeps_the_scan_budget():
    S = GeneratorSet.from_cs((1, 2))
    with pytest.raises(ValueError, match="more than 1048576 words"):
        join_certified_words(S, 25, "ab", "cd", "|")
    with pytest.raises(ValueError, match="letters"):
        join_certified_words(GeneratorSet.from_cs((1,)), 1_000_000, "a", "b", "|")
    with pytest.raises(ValueError, match="max_len must be >= 0"):
        join_certified_words(S, -1, "ab", "cd", "|")


def test_join_certified_words_rejects_a_nul_or_a_missing_piece():
    # a NUL in a tail once stood for a word's start inside the templates:
    # this call gave 26 words where 14 are certified
    S = GeneratorSet.from_cs([-14, 40])
    assert sum(certified_counts(S, 3)) == 14
    for heads, tails, sep in ((["A", "B"], ["a\x00", "b"], "|"),
                              (["A", "\x00B"], ["a", "b"], "|"),
                              (["A", "B"], ["a", "b"], "|\x00")):
        with pytest.raises(ValueError, match="NUL"):
            join_certified_words(S, 3, heads, tails, sep)
    for heads, tails in ((["A"], ["a", "b"]), (["A", "B"], ["a", "b", "c"])):
        with pytest.raises(ValueError, match="one piece per generator"):
            join_certified_words(S, 3, heads, tails, "|")


def test_scan_budget_rejects_a_negative_length():
    with pytest.raises(ValueError, match="max_len must be >= 0"):
        check_scan_budget(2, -1)
    assert check_scan_budget(2, 0) == 0


def test_counts_and_text_share_a_lent_automaton():
    # the counts build every row the text reads, so the text builds none
    S = GeneratorSet.from_cs((-21, 5, -11))
    automaton = OrbitAutomaton(S.cs)
    assert certified_counts(S, 7, automaton=automaton) == certified_counts(S, 7)
    rows = list(automaton.trans)
    pieces = ("a", "b", "c")
    assert join_certified_words(S, 7, pieces, pieces, "|", automaton=automaton) \
        == join_certified_words(S, 7, pieces, pieces, "|")
    assert automaton.trans == rows
    other = OrbitAutomaton((-21, 5))
    with pytest.raises(ValueError, match="other generator constants"):
        certified_counts(S, 7, automaton=other)
    with pytest.raises(ValueError, match="other generator constants"):
        join_certified_words(S, 7, pieces, pieces, "|", automaton=other)


@pytest.mark.parametrize("cs,max_len", [((-14, 40), 14), ((-21, 5, -11), 9)])
def test_join_certified_words_peaks_near_two_texts(cs, max_len):
    # the parts and the joined text; the templates are gone and the text is
    # not copied again (3.24 and 3.09 texts before that, 2.24 and 2.09 after)
    S = GeneratorSet.from_cs(cs)
    pieces = [str(p) for p in range(len(cs))]
    text = []
    peak = _traced_peak(lambda: text.append(join_certified_words(S, max_len, pieces,
                                                                 pieces, ", ")))
    assert peak < 2.5 * len(text[0]), peak / len(text[0])


# (-16, 4) has three nonsquare entries up to length 9 that pass the square sieve
@pytest.mark.parametrize("cs,max_len", DFS_CASES + [((-16, 4), 9)])
def test_scan_words_builds_exact_entries_only_for_dying_words(cs, max_len, monkeypatch):
    # the scan-words readers build no exact entry at all; the certificate of
    # a word whose own last entry is its first square builds that entry
    # once, last, and tests it once
    events = []
    real_entry, real_square = dynamics._entry, dynamics.is_perfect_square

    def entry(cs, word, k):
        value = real_entry(cs, word, k)
        events.append(("entry", tuple(word[:k]), value))
        return value

    def square(n):
        events.append(("square", n))
        return real_square(n)

    monkeypatch.setattr(dynamics, "_entry", entry)
    monkeypatch.setattr(dynamics, "is_perfect_square", square)
    S = GeneratorSet.from_cs(cs)
    reference = dfs_scan_reference(S, max_len)
    assert scan_readers(S, max_len) == scan_readers_expected(reference, max_len)
    assert not any(e[0] == "entry" for e in events)
    dying = [(w, v) for w, v in reference if v.first_square_index == len(w)]
    for word, verdict in dying:
        events.clear()
        assert stability_certificate(S, word) == verdict
        value = verdict.witness_root ** 2
        assert [e for e in events if e[0] == "entry"] == [("entry", word, value)]
        assert events[-2:] == [("entry", word, value), ("square", value)]


# sets and weights for edge cases: skewed weights that keep most trials
# square-free, one generator, three generators, a square far above 2^64
TABLE_CASES = [((-4, -12), (1.0, 30.0), 5), ((7,), (1.0,), 5),
               ((-21, 5, -11), (1.0, 1.0, 1.0), 5), (DEEP_SQUARE_SET, (1.0, 1.0), 15)]


@pytest.mark.parametrize("cs,weights,seed", TABLE_CASES)
def test_monte_carlo_table_edges_equal_reference(cs, weights, seed):
    # trial counts just below, at and above powers of the generator count
    S = GeneratorSet.from_cs(cs)
    sampler = SequenceSampler(weights, seed)
    counts = sorted({b**k + d for b in {2, max(len(cs), 2)}
                     for k in range(3, 7) for d in (-1, 0, 1)})
    for trials in counts:
        assert monte_carlo_stability(S, sampler, 8, trials) \
            == reference_monte_carlo(cs, sampler, 8, trials), trials


@pytest.mark.parametrize("cs,depth,trials", [((7,), 8, 100), ((-14, 40), 6, 64),
                                               ((3, -7, 11), 4, 81)])
def test_monte_carlo_reads_every_entry_from_the_automaton_table(cs, depth, trials, monkeypatch):
    # every entry's verdict is read from the transition table, where each
    # state's row is built once: no trial builds an exact entry
    calls = []
    real_entry = dynamics._entry

    def counting(cs, word, k):
        calls.append(k)
        return real_entry(cs, word, k)

    monkeypatch.setattr(dynamics, "_entry", counting)
    S = GeneratorSet.from_cs(cs)
    sampler = SequenceSampler.uniform(len(cs), 5)
    assert monte_carlo_stability(S, sampler, depth, trials) \
        == reference_monte_carlo(cs, sampler, depth, trials)
    assert calls == []


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_monte_carlo_peak_does_not_grow_with_trials():
    # a run keeps only the transition table, whatever the trial count
    S = GeneratorSet.from_cs([-14, 40])
    sampler = SequenceSampler.uniform(2, 1)
    peaks = [_traced_peak(lambda: monte_carlo_stability(S, sampler, 20, trials))
             for trials in (2_000, 20_000)]
    assert abs(peaks[1] - peaks[0]) < 16 * 1024, peaks


# --- the orbit automaton against the exact references

NEAR_2_100 = st.integers((1 << 100) - 1000, (1 << 100) + 1000).map(
    lambda n: n * (-1) ** (n % 2))
small_sets = st.lists(st.integers(-100, 100), min_size=1, max_size=4, unique=True)
# sets with 0, with a square -c, and with two constants near 2^100
automaton_sets = st.one_of(
    small_sets,
    small_sets.map(lambda cs: list(dict.fromkeys([0] + cs))),
    st.tuples(st.integers(0, 10), small_sets).map(
        lambda t: list(dict.fromkeys([-t[0] ** 2] + t[1]))),
    st.lists(NEAR_2_100, min_size=2, max_size=2, unique=True).flatmap(
        lambda big: st.lists(st.integers(-100, 100), max_size=2).map(
            lambda small: list(dict.fromkeys(big + small)))),
)


@given(automaton_sets, st.data())
@example([0, -9, 5], None)
@example([(1 << 100) + 1, -(1 << 100) + 3, -1], None)
@example([4, -1], None)  # 0 is in Q(4), yet entry 1 is -4; (0, 1, 1) has orbit [-4, 5, 4]
@settings(max_examples=40, deadline=None)
def test_automaton_equals_exact_references(cs, data):
    S = GeneratorSet.from_cs(cs)
    max_len = {1: 9, 2: 6, 3: 4}.get(len(cs), 3)
    assert scan_readers(S, max_len) \
        == scan_readers_expected(dfs_scan_reference(S, max_len), max_len)
    seed = 7 if data is None else data.draw(st.integers(0, (1 << 64) - 1))
    sampler = SequenceSampler.uniform(len(cs), seed)
    assert monte_carlo_stability(S, sampler, 9, 60) \
        == reference_monte_carlo(cs, sampler, 9, 60)
    words = [w for n in (7, 8) for w in product(range(len(cs)), repeat=n)]
    for word in words[::max(1, len(words) // 40)]:
        assert stability_certificate(S, word) == reference_certificate(cs, word)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=3, unique=True))
@example([-14, 40])
@example([0, -1])
@example(list(DEEP_SQUARE_SET))
@settings(max_examples=40, deadline=None)
def test_inner_values_escape_or_stay_in_the_reach(cs):
    # every F(u)(0), |u| <= 7, lies in B or beyond R, where it grows for good
    radius = _escape_radius(cs)
    big = max(abs(c) for c in cs)
    assert radius * (radius - 1) > big and radius**2 >= 2 * big + 1
    reach = _bounded_reach(cs, radius)
    assert all(abs(v) <= radius for v in reach)
    values = [0]
    for _ in range(7):
        values = [v * v + c for v in values for c in cs]
        assert all(v in reach or abs(v) > radius for v in values)
    assert all(abs(x * x + c) > abs(x) for x in (radius + 1, -radius - 1) for c in cs)


@given(st.lists(st.integers(-60, 60), min_size=1, max_size=4, unique=True))
@example([-4, -12])
@example([-72, -91])
@example([-12, -21])
@example([-59, -51])  # (9^2 - 51)^2 - 59 = 29^2: a point with X^2 > max|c| + sqrt(max|c|)
@settings(max_examples=60, deadline=None)
def test_second_states_equal_the_curve_points(cs):
    # after (p1, p2) the state is S_2, the X-coordinates in B of the points of
    # Y^2 = (X^2 + c2)^2 + c1, or dead when 0 is one; quartic_curve_points
    # lists every point once its bound passes the factoring box
    automaton = OrbitAutomaton(cs)
    radius = _escape_radius(cs)
    reach = _bounded_reach(cs, radius)
    for p1, p2 in product(range(len(cs)), repeat=2):
        one = automaton.step(_START, p1)
        if one == _DEAD:
            assert is_perfect_square(-cs[p1]) is not None
            continue
        c1, c2 = cs[p1], cs[p2]
        points = quartic_curve_points(1, 2 * c2, c2 * c2 + c1, 10**4)
        assert all(abs(q) <= radius for q, _ in points)
        expected = {q for q, _ in points} & reach
        state = automaton.step(one, p2)
        if 0 in expected:
            assert state == _DEAD
        else:
            assert automaton.keys[state] == expected


def test_deep_square_scan_is_fast():
    # B holds the orbit of 0 under x^2 + 3 up to 2^58; the curve's X range
    # reaches 2^58 too, and is never walked
    S = GeneratorSet.from_cs(DEEP_SQUARE_SET)
    start = time.perf_counter()
    counts, text = scan_readers(S, 9)
    assert time.perf_counter() - start < 0.5
    words = set(text.split("|"))
    assert "<1" + ".0" * 6 in words and "<1" + ".0" * 7 not in words
    assert (counts, text) == scan_readers_expected(dfs_scan_reference(S, 9), 9)


def test_automaton_dead_state_follows_the_first_square():
    automaton = OrbitAutomaton((-4, -12))
    state = automaton.step(_START, 1)  # entry 1 is 12
    assert state > _START
    assert automaton.step(state, 0) == _DEAD  # entry 2 is (0 - 4)^2 - 12 = 4
    assert automaton.step(_DEAD, 1) == _DEAD


@pytest.mark.parametrize("cs", [(-14, 40), (-4, -12), DEEP_SQUARE_SET])
@pytest.mark.parametrize("run", [
    lambda S: scan_readers(S, 12),
    lambda S: monte_carlo_stability(S, SequenceSampler.uniform(2, 5), 12, 2000),
    lambda S: join_certified_words(S, 12, "ab", "cd", "|"),
    lambda S: certified_counts(S, 12)])
def test_every_row_is_built_once(cs, run, monkeypatch):
    # a state whose row is still None when row() is entered gets its row
    # built there: no state's row is built twice
    built = []
    real_row = OrbitAutomaton.row

    def row(self, state):
        if self.trans[state] is None:
            built.append(state)
        return real_row(self, state)

    monkeypatch.setattr(OrbitAutomaton, "row", row)
    run(GeneratorSet.from_cs(cs))
    assert built
    assert len(built) == len(set(built))


def test_one_letter_scan_builds_the_start_row_alone(monkeypatch):
    # s square tests on the start row; neither B nor a value set is built
    def refuse(*args):
        raise AssertionError("built beyond the start row")

    monkeypatch.setattr(OrbitAutomaton, "_square_values", refuse)
    monkeypatch.setattr(dynamics, "_bounded_reach", refuse)
    cs = range(-1000, 1000)
    S = GeneratorSet.from_cs(cs)
    certified = [is_perfect_square(-c) is None for c in cs]
    assert certified_counts(S, 1) == [sum(certified)]
    names = [str(p) for p in range(2000)]
    assert join_certified_words(S, 1, names, names, ",").split(",") == [
        name for name, ok in zip(names, certified) if ok]
