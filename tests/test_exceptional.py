import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import references
from quadsemi import diophantine, exceptional
from quadsemi.arith import is_perfect_square
from quadsemi.diophantine import System, legal_systems
from quadsemi.dynamics import (
    _DEAD,
    _START,
    GeneratorSet,
    OrbitAutomaton,
    QuadraticMap,
    stability_certificate,
)
from quadsemi.exceptional import (
    CERTIFIED,
    FAMILY,
    INAPPLICABLE,
    REFUTED,
    SPORADIC_PAIR,
    THREE_LETTER,
    TWO_LETTER,
    ClosedForm,
    DerivedFamily,
    _family_parameter,
    certify_no_square_images,
    check_exceptional_prefix,
    classify_from_systems,
    closed_form_of,
    construct_irreducible_prefix,
    is_exceptional_pair,
    scan_exceptional_pairs,
)
from quadsemi.heights import compute_iterate_bound
from quadsemi.portraits import (
    FIXED_SQUARE,
    PREPER_TARGETS,
    TWO_CYCLE_SQUARE,
    preper_set,
    recognize_square_periodic,
    shape_constant,
)
from references import window_scan, witness_pairs, witness_scan


def test_sporadic_pair():
    v = is_exceptional_pair(-1, -3)
    assert v.is_exceptional
    assert v.closed_form.kind == SPORADIC_PAIR


def test_family_pair_with_witnesses():
    v = is_exceptional_pair(-12, -21)
    assert v.is_exceptional
    assert v.closed_form.kind == FAMILY and v.closed_form.s == 2
    assert v.square_periodic == (4, 4)
    b1, p1 = v.image_witnesses[0]
    b2, p2 = v.image_witnesses[1]
    assert b1 * b1 - 12 == p1 and p1 in {4, -4, 5, -5}
    assert b2 * b2 - 21 == p2 and p2 in {4, -4, 3, -3}
    assert (b1, b2) == (4, 5)


def test_non_exceptional_pair():
    v = is_exceptional_pair(-4, -12)
    assert not v.is_exceptional
    assert v.square_periodic[0] is None  # x^2 - 4 has no square periodic point
    assert v.closed_form is None


def test_pair_requires_distinct_constants():
    with pytest.raises(ValueError):
        is_exceptional_pair(5, 5)


def test_closed_form_matching():
    assert closed_form_of(-3, -1).kind == SPORADIC_PAIR
    assert closed_form_of(-21, -12).s == 2
    assert closed_form_of(0, -1).s == 0
    assert closed_form_of(0, -3).s == 1
    assert closed_form_of(-72, -91).s == 3
    assert closed_form_of(-4, -12) is None


def test_scan_matches_classification_small_grid():
    pairs = set(scan_exceptional_pairs(-25, 5))
    expected = {(-1, -3), (0, -1), (0, -3), (-12, -21)}
    expected |= {(b, a) for a, b in expected}
    assert pairs == expected


SCAN_BOXES = [
    (-1500, 1500), (-2000, 1000), (-1750, 1250), (-25, 5), (-100, 100),
    (0, 0), (-3, -1), (-21, -12), (-13, -11), (5, 10),
]


@pytest.mark.parametrize("box", SCAN_BOXES)
def test_scan_matches_reference(box):
    assert scan_exceptional_pairs(*box) == witness_scan(*box)


@given(st.integers(-3000, 3000), st.integers(-3000, 3000))
@settings(max_examples=15, deadline=None)
def test_scan_matches_reference_on_random_boxes(a, b):
    box = (min(a, b), max(a, b))
    assert scan_exceptional_pairs(*box) == witness_scan(*box)


def _seeded_boxes(n):
    rng = random.Random(37)
    return [tuple(sorted((rng.randint(-10**8, 10**3), rng.randint(-10**8, 10**3))))
            for _ in range(n)]


@pytest.mark.parametrize("box", [
    *SCAN_BOXES, (-10**6, 10**6), (-10**9, 10**9), (-10**12, 10**12), *_seeded_boxes(40)])
def test_scan_equals_the_window_scan(box):
    # the search that listed the pairs before the case systems did
    assert scan_exceptional_pairs(*box) == window_scan(*box)


@pytest.mark.parametrize("box", [(-1500, 1500), (-10**6, 10**6)])
def test_scan_gives_no_verdict_and_returns_only_exceptional_pairs(box, monkeypatch):
    # the listing reads the derived classification alone: no witness
    # verdict, no preperiodic set and, once the derivation is cached, no
    # square test
    classify_from_systems()
    calls = []

    def counting(name, f):
        def wrapped(*args):
            calls.append((name, args))
            return f(*args)
        return wrapped

    for module, name in ((exceptional, "is_exceptional_pair"), (exceptional, "preper_set"),
                         (exceptional, "is_perfect_square"),
                         (diophantine, "is_perfect_square")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    pairs = scan_exceptional_pairs(*box)
    assert calls == []
    monkeypatch.undo()
    assert all(is_exceptional_pair(c1, c2).is_exceptional for c1, c2 in pairs)
    assert len(pairs) == {(-1500, 1500): 16, (-10**6, 10**6): 66}[box]


def _partner_roots_reference(sign, a, top):
    roots = []
    for s in range(top):
        v = sign * s * s + a
        if v >= 0 and math.isqrt(v) ** 2 == v:
            roots.append(s)
    return roots


def _partner_roots_cases():
    rng = random.Random(20)
    offsets = sorted({o for targets in PREPER_TARGETS.values() for _, o in targets})
    cases = [
        (1, -25, 10),   # a < 0 with a y = 0 solution, s = 5
        (-1, -25, 10),  # a < 0 leaves no value a - s^2 >= 0
        (1, 0, 7), (-1, 0, 7),  # a = 0
        (1, 9, 5),      # y = 3 (s = 0) and y = 5 (s = 4) end the window
        (-1, 25, 5),    # y = 3 (s = 4) and y = 5 (s = 0) end the window
        (1, 7, 1), (1, 9, 1), (-1, 9, 1), (-1, 8, 1),  # top = 1
    ]
    for _ in range(400):
        sign, offset = rng.choice((1, -1)), rng.choice(offsets)
        s1 = rng.randrange(60)
        c1 = (shape_constant(rng.choice(sorted(PREPER_TARGETS)), s1) if rng.random() < 0.7
              else rng.randint(-5000, 5000))
        cases.append((sign, offset - c1, rng.randint(1, 60)))
    return cases


def test_partner_roots_match_a_direct_check_of_every_s(monkeypatch):
    # the window scan's root finder, now in tests/references.py
    tests = []

    def counting(n):
        tests.append(n)
        return is_perfect_square(n)

    monkeypatch.setattr(references, "is_perfect_square", counting)
    for sign, a, top in _partner_roots_cases():
        tests.clear()
        roots = references.partner_roots(sign, a, top)
        assert sorted(roots) == _partner_roots_reference(sign, a, top), (sign, a, top)
        assert len(set(roots)) == len(roots)
        assert len(tests) <= top  # the window is never longer than the s range


def test_scan_is_the_closed_form_at_ten_to_the_twelfth():
    pairs = scan_exceptional_pairs(-10**12, 10**12)
    assert pairs == _closed_form_pairs(10**12)
    assert len(pairs) == 2002


def test_scan_is_the_closed_form_at_ten_to_the_sixteenth():
    pairs = scan_exceptional_pairs(-10**16, 10**16)
    assert pairs == _closed_form_pairs(10**16)
    assert len(pairs) == 20002


@pytest.mark.extended
def test_scan_is_the_closed_form_at_ten_to_the_twentieth():
    pairs = scan_exceptional_pairs(-10**20, 10**20)
    assert pairs == _closed_form_pairs(10**20)
    assert len(pairs) == 200002


def _closed_form_pairs(w):
    """Both orders of {-1, -3} and of each family pair inside [-w, w], sorted."""
    pairs = {(-1, -3)}
    s = 0
    while (c2 := shape_constant(TWO_CYCLE_SQUARE, s)) >= -w:
        pairs.add((shape_constant(FIXED_SQUARE, s), c2))
        s += 1
    return sorted(pairs | {(b, a) for a, b in pairs})


@pytest.mark.extended
def test_scan_matches_reference_over_the_shape_constants_of_a_wide_box():
    # the box is too wide for witness_scan's walk over every constant, so
    # the reference pairs the box's shape constants, s^4 <= 10^9
    lo, hi = -10**9, 10**9
    shapes = {shape_constant(kind, s)
              for s in range(180) for kind in (FIXED_SQUARE, TWO_CYCLE_SQUARE)}
    cs = sorted(c for c in shapes if lo <= c <= hi)
    pairs = scan_exceptional_pairs(lo, hi)
    assert len(pairs) == 358
    assert pairs == witness_pairs(cs)


THE_FAMILY_SYSTEM = System("B", "+q^2", "+q^2")


def test_derivation_is_the_closed_form():
    derived = classify_from_systems.__wrapped__()
    assert derived == classify_from_systems()
    assert [p.pair for p in derived.finite] == [(-3, -1), (-3, 0), (-1, 0)]
    assert derived.finite[0].systems == (System("C", "-q^2", "+(q^2+1)"),
                                        System("C", "+(q^2+1)", "-q^2"))
    assert derived.families == (
        DerivedFamily((FIXED_SQUARE, TWO_CYCLE_SQUARE), (THE_FAMILY_SYSTEM,)),)
    assert derived.sporadic() == [(-3, -1)]
    # the finite pairs other than {-3, -1} are the family at s = 1 and s = 0
    assert [closed_form_of(*p.pair) for p in derived.finite] == [
        ClosedForm(SPORADIC_PAIR), ClosedForm(FAMILY, 1), ClosedForm(FAMILY, 0)]


@pytest.mark.parametrize("system,change,differs", [
    # {-3, 0} comes from the point (1, 2, 0, 1) of one system and its mirror in t
    pytest.param(System("B", "+q^2", "-(q^2-1)"),
                 lambda f, l: (f - {(1, 2, 0, 1), (1, 2, 0, -1)}, l),
                 lambda d: (-3, 0) not in [p.pair for p in d.finite], id="drop-point"),
    # a point at s = 2, t = 0 of a family C system would make {-21, -1} exceptional
    pytest.param(System("C", "+q^2", "+q^2"),
                 lambda f, l: (f | {(0, 0, 2, 0)}, l),
                 lambda d: (-21, -1) in [p.pair for p in d.finite], id="add-point"),
    pytest.param(THE_FAMILY_SYSTEM, lambda f, l: (f, set()),
                 lambda d: d.families == (), id="drop-line"),
    pytest.param(System("B", "+q^2", "-q^2"), lambda f, l: (f, {(0, 0)}),
                 lambda d: d.families[0].systems == (THE_FAMILY_SYSTEM,
                                                     System("B", "+q^2", "-q^2")),
                 id="add-line"),
])
def test_derivation_reads_every_solution(monkeypatch, system, change, differs):
    # the solver, patched so that `system`'s solution set is change(finite, families)
    solve = exceptional.solve_system_complete

    def patched(sys_):
        finite, families = solve(sys_)
        return change(set(finite), set(families)) if sys_ == system else (finite, families)

    monkeypatch.setattr(exceptional, "solve_system_complete", patched)
    derived = classify_from_systems.__wrapped__()
    assert derived != classify_from_systems()
    assert differs(derived)


def test_derivation_solves_every_legal_system_once(monkeypatch):
    solved = []
    solve = exceptional.solve_system_complete

    def recording(system):
        solved.append(system)
        return solve(system)

    monkeypatch.setattr(exceptional, "solve_system_complete", recording)
    classify_from_systems.__wrapped__()
    assert solved == list(legal_systems())


SETUP_PROBE = """
import sys

solved = []


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "solve_system_complete":
        solved.append(frame.f_code.co_filename)


sys.setprofile(profile)
import quadsemi
quadsemi.registry()
from quadsemi.exceptional import classify_from_systems
print(classify_from_systems.cache_info().misses, len(solved))
quadsemi.scan_exceptional_pairs(0, 0)
print(classify_from_systems.cache_info().misses, len(solved))
"""


def test_import_and_registry_load_derive_nothing():
    # the start-up that every command pays (import quadsemi, then the
    # registry) must not run the derivation; the first listing runs it once
    src = str(Path(exceptional.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": pythonpath},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1", "48"]


def _family_parameter_reference(a, b):
    limit = math.isqrt(math.isqrt(abs(b) + 2)) + 2
    for s in range(limit + 1):
        if a == s * s - s**4 and b == -1 - s * s - s**4:
            return s
    return None


def test_family_parameter_matches_reference():
    shapes = {c for s in range(60) for c in (s * s - s**4, -1 - s * s - s**4)}
    cs = sorted(set(range(-300, 51)) | shapes)
    for a in cs:
        for b in cs:
            assert _family_parameter(a, b) == _family_parameter_reference(a, b), (a, b)


def test_witness_route_equals_closed_form_route():
    # the dynamical witnesses and the syntactic shapes agree pair by pair
    for c1 in range(-30, 11):
        for c2 in range(-30, 11):
            if c1 == c2:
                continue
            assert (closed_form_of(c1, c2) is not None) == \
                is_exceptional_pair(c1, c2).is_exceptional, (c1, c2)


def test_certify_no_square_images_examples():
    cert = certify_no_square_images(1, 3)
    assert cert.status == CERTIFIED and cert.n_iterate >= 2

    cert = certify_no_square_images(-12, -21)
    assert cert.status == REFUTED
    assert cert.witness_b == 5 and cert.witness_value == 4

    cert = certify_no_square_images(-3, 5)
    assert cert.status == CERTIFIED

    # b = 2 gives f(f(-1)) = 1, a square, at N = 2, but no b gives one at N = 3
    cert = certify_no_square_images(-3, -5)
    assert cert.status == CERTIFIED and cert.n_iterate == 3
    assert cert.rigor == "exact"

    assert certify_no_square_images(0, 5).status == INAPPLICABLE
    assert certify_no_square_images(5, -1).status == INAPPLICABLE
    assert certify_no_square_images(5, 5).status == INAPPLICABLE


def test_certified_direction_agrees_with_sweep():
    for c1, c2 in ((1, 3), (-3, 5), (2, 7)):
        cert = certify_no_square_images(c1, c2)
        assert cert.status == CERTIFIED
        outer, inner = QuadraticMap(c1), QuadraticMap(c2)
        for b in range(10001):
            v = outer.iterate(cert.n_iterate, inner(b))
            assert is_perfect_square(v) is None, (c1, c2, b)


# every ordered pair of distinct constants outside {0, -1} in [-40, 40]^2
GRID_PAIRS = [(c1, c2) for c1 in range(-40, 41) for c2 in range(-40, 41)
              if c1 != c2 and c1 not in (0, -1) and c2 not in (0, -1)]


def _square_images(c_outer, c_inner, n, bound):
    """Every b in 0..bound with f_outer^n(f_inner(b)) a square, built plainly.

    Only b^2 enters, so b >= 0 covers |b| <= bound.
    """
    outer, inner = QuadraticMap(c_outer), QuadraticMap(c_inner)
    return [b for b in range(bound + 1)
            if is_perfect_square(outer.iterate(n, inner(b))) is not None]


@pytest.mark.parametrize("bound", [
    200, pytest.param(2000, marks=pytest.mark.extended)])
def test_exact_iterate_leaves_no_square_in_plain_sweep(bound):
    refuted = 0
    for c1, c2 in GRID_PAIRS:
        cert = certify_no_square_images(c1, c2)
        assert cert.rigor == "exact", (c1, c2)
        if cert.status == REFUTED:
            refuted += 1
            # the witness is the smallest b >= 0 with a square at N = 2
            assert cert.n_iterate == 2
            b = cert.witness_b
            assert QuadraticMap(c1).iterate(2, QuadraticMap(c2)(b)) == cert.witness_value
            assert is_perfect_square(cert.witness_value) is not None
            assert _square_images(c1, c2, 2, b)[0] == b, (c1, c2)
            continue
        assert cert.status == CERTIFIED
        assert _square_images(c1, c2, cert.n_iterate, bound) == [], (c1, c2)
        if cert.n_iterate > 2:
            # N - 1 has a square image, so N is minimal
            assert _square_images(c1, c2, cert.n_iterate - 1, bound), (c1, c2)
    assert refuted == 17


def heights_certificate_reference(c1, c2):
    """(status, N) of the height-based certificate: N from `compute_iterate_bound`.

    A square value of f1^N forces its argument into PrePer(f1), so it
    suffices that f1 has no square periodic point, or that no integer image
    b^2 + c2 lands in PrePer(f1), or that the landing points all have
    nonsquare N-th iterates.
    """
    phi1 = QuadraticMap(c1)
    n = compute_iterate_bound(phi1).N
    if recognize_square_periodic(c1) is None:
        return CERTIFIED, n
    hits = [p for p in preper_set(c1) if is_perfect_square(p - c2) is not None]
    if any(is_perfect_square(phi1.iterate(n, p)) is not None for p in hits):
        return REFUTED, n
    return CERTIFIED, n


def test_exact_iterate_never_exceeds_the_heights_iterate():
    lower = certified_only_exactly = 0
    for c1, c2 in GRID_PAIRS:
        status, n = heights_certificate_reference(c1, c2)
        cert = certify_no_square_images(c1, c2)
        if status == CERTIFIED:
            assert cert.status == CERTIFIED and cert.n_iterate <= n, (c1, c2)
            lower += cert.n_iterate < n
        else:
            # the reference found a square at its N, so that N cannot certify
            assert cert.status == REFUTED or cert.n_iterate != n, (c1, c2)
            certified_only_exactly += cert.status == CERTIFIED
    assert lower == 271 and certified_only_exactly == 16


def test_recipe_takes_the_ordering_with_the_smaller_iterate():
    # changed counts the pairs where the listed ordering certifies, but the
    # reverse one certifies at a smaller N
    changed = 0
    for c1, c2 in GRID_PAIRS:
        if is_perfect_square(-c1) is not None or is_perfect_square(-c2) is not None \
                or is_exceptional_pair(c1, c2).is_exceptional:
            continue
        listed, reverse = certify_no_square_images(c1, c2), certify_no_square_images(c2, c1)
        n = min(cert.n_iterate for cert in (listed, reverse) if cert.status == CERTIFIED)
        rec = construct_irreducible_prefix(GeneratorSet.from_cs([c1, c2]))
        assert rec.shape == TWO_LETTER and rec.n_iterate == n, (c1, c2)
        # a tie keeps the listed ordering
        listed_wins = listed.status == CERTIFIED and listed.n_iterate == n
        assert rec.outer == (0 if listed_wins else 1), (c1, c2)
        changed += listed.status == CERTIFIED and not listed_wins
    assert changed == 47


def test_every_family_prefix_certifies():
    for s in range(2, 41):
        rep = check_exceptional_prefix(s)
        assert rep.passed and rep.n_iterate >= 2, s
        S = GeneratorSet.from_cs([rep.c2, rep.c1])
        rec = construct_irreducible_prefix(S)
        assert rec.shape == THREE_LETTER and rec.n_iterate == rep.n_iterate
        assert rec.rigor == "exact"


def _dead_reachable(cs, word):
    """Whether the orbit automaton reaches _DEAD from the state after `word`."""
    automaton = OrbitAutomaton(cs)
    state = _START
    for letter in word:
        state = automaton.step(state, letter)
    seen, todo = {state}, [state]
    while todo:
        state = todo.pop()
        if state == _DEAD:
            return True
        for letter in range(len(cs)):
            nxt = automaton.step(state, letter)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def _seeded_generator_sets(count, seed):
    """Seeded sets of 2-4 constants up to 10^6 in size, with two irreducible maps."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        top = rng.choice((10, 100, 10**4, 10**6))
        cs = list({rng.randint(-top, top) for _ in range(rng.randint(2, 4))})
        if sum(is_perfect_square(-c) is None for c in cs) >= 2:
            sets.append(cs)
    return sets


def test_recipes_never_reach_the_dead_state():
    # the recipe's promise, checked by the orbit automaton: no extension of
    # the prefix word has a square entry
    family = [[shape_constant(FIXED_SQUARE, s), shape_constant(TWO_CYCLE_SQUARE, s), 5]
              for s in range(2, 12)]
    for cs in _seeded_generator_sets(300, 17) + family + [[-3, -5], [-12, -21, -4]]:
        rec = construct_irreducible_prefix(GeneratorSet.from_cs(cs))
        assert not _dead_reachable(cs, rec.prefix_word()), (cs, rec)


@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=4, unique=True))
@settings(max_examples=60, deadline=None)
def test_recipes_never_reach_the_dead_state_on_random_sets(cs):
    assume(sum(is_perfect_square(-c) is None for c in cs) >= 2)
    rec = construct_irreducible_prefix(GeneratorSet.from_cs(cs))
    assert not _dead_reachable(cs, rec.prefix_word()), (cs, rec)


def test_exceptional_prefix_reports():
    for s in range(2, 13):
        rep = check_exceptional_prefix(s)
        assert rep.passed, rep
        assert rep.n_iterate >= 2
        names = [name for name, _ in rep.subchecks]
        assert any("mod 4" in n for n in names)
    with pytest.raises(ValueError):
        check_exceptional_prefix(1)
    with pytest.raises(ValueError):
        check_exceptional_prefix(0)


def test_construct_prefix_non_exceptional():
    rec = construct_irreducible_prefix(GeneratorSet.from_cs([1, 3]))
    assert rec.shape == TWO_LETTER
    assert rec.n_iterate == 2
    assert rec.prefix_word() == (0, 0, 1)


def test_construct_prefix_family_pair():
    S = GeneratorSet.from_cs([-21, -12])
    rec = construct_irreducible_prefix(S)
    assert rec.shape == THREE_LETTER
    # the square-fixed-point map x^2 - 12 must sit outermost
    assert S.maps[rec.outer].c == -12
    assert rec.prefix_word() == (1,) * rec.n_iterate + (0, 1)


def test_construct_prefix_filters_reducible_generators():
    S = GeneratorSet.from_cs([-12, -21, -4])
    rec = construct_irreducible_prefix(S)
    assert rec.shape == THREE_LETTER
    assert S.maps[rec.outer].c == -12 and S.maps[rec.inner].c == -21

    with pytest.raises(ValueError):
        construct_irreducible_prefix(GeneratorSet.from_cs([-4]))
    with pytest.raises(ValueError):
        construct_irreducible_prefix(GeneratorSet.from_cs([-4, 1]))


def test_recipe_expansions_are_certified_quick():
    S = GeneratorSet.from_cs([1, 3])
    rec = construct_irreducible_prefix(S)
    for n in range(1, 3):
        for F in itertools.product(range(len(S)), repeat=n):
            assert stability_certificate(S, rec.expand(F)).certified
