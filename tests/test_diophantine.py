import json
import shutil

import pytest

from quadsemi.arith import is_perfect_square
from quadsemi.diophantine import (
    _SELECTORS,
    RegistryError,
    SolutionFamily,
    System,
    modular_obstruction,
    quartic_curve_points,
    registry,
    registry_checksum,
    registry_path,
    solve_system_bounded,
    verify_lemma,
)

REGISTRY_SHA256 = "bf5afa0bbcbc485914a3ca1545848da3895a461aa5f37d8ca76c41bd6f763124"


def grid_reference(system, bound):
    """Slow reference for solve_system_bounded: square tests on the whole (s, t) grid."""
    qs = range(-bound, bound + 1)
    left_sel = _SELECTORS[system.left]
    right_sel = _SELECTORS[system.right]
    left_vals = {t: left_sel(t) for t in qs}
    right_const = {t: system.right_constant(t) for t in qs}
    sols = set()
    for s in qs:
        a = system.left_constant(s)
        r = right_sel(s)
        for t in qs:
            x = is_perfect_square(left_vals[t] - a)
            if x is None:
                continue
            y = is_perfect_square(r - right_const[t])
            if y is None:
                continue
            sols.add((x, y, s, t))
    return sols


def box_scan_reference(a4, a2, a0, bound):
    """Slow reference for quartic_curve_points: a square test for every |q| <= bound."""
    pts = []
    for q in range(-bound, bound + 1):
        y = is_perfect_square(a4 * q**4 + a2 * q * q + a0)
        if y is not None:
            pts.append((q, y))
    return pts


@pytest.fixture(scope="module")
def entries():
    return registry()


@pytest.fixture(scope="module")
def by_id(entries):
    return {e.id: e for e in entries}


def test_registry_counts_and_checksum(entries):
    assert len(entries) == 48
    per_family = {"A": 0, "B": 0, "C": 0}
    for e in entries:
        per_family[e.system.family] += 1
    assert per_family == {"A": 16, "B": 16, "C": 16}
    assert registry_checksum() == REGISTRY_SHA256


def test_registry_known_entries(by_id):
    e = by_id["case1.1"]
    assert {f.template for f in e.claimed} == {
        "(±1, 0, 0, ±1)", "(0, ±1, ±1, 0)", "(±u^2, ±u^2, ±u, ±u)"
    }
    assert by_id["case2.14"].claimed == ()
    assert "mod4" in by_id["case2.14"].techniques
    assert by_id["case3.11"].claimed == ()
    assert "mod8" in by_id["case3.11"].techniques


def test_registry_env_override_and_tamper_detection(tmp_path, monkeypatch):
    target = tmp_path / "registry.json"
    shutil.copy(registry_path(), target)
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    assert len(registry()) == 48

    doc = json.loads(target.read_text())
    doc["entries"] = doc["entries"][:-1]
    target.write_text(json.dumps(doc))
    with pytest.raises(RegistryError):
        registry()


def test_registry_rejects_bad_claim(tmp_path, monkeypatch):
    target = tmp_path / "registry.json"
    doc = json.loads(open(registry_path()).read())
    doc["entries"][0]["solutions"].append("(±3, 0, 0, ±1)")  # not a solution
    target.write_text(json.dumps(doc))
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    with pytest.raises(RegistryError):
        registry()


def test_system_selector_legality():
    with pytest.raises(RegistryError):
        System("A", "+(q^2+1)", "+q^2")  # q^2+1 never occurs in family A
    with pytest.raises(RegistryError):
        System("B", "+q^2", "+(q^2+1)")
    with pytest.raises(RegistryError):
        System("D", "+q^2", "+q^2")


def test_solution_family_parsing():
    fam = SolutionFamily.parse("(±u^2, ±(u^2-1), ±u, ±u)")
    assert fam.parametric
    inst = fam.instantiate(2)
    assert (4, 3, 2, -2) in inst and (1, 0, -1, 1) in inst
    fam = SolutionFamily.parse("(0, ±1, ±1, 0)")
    assert not fam.parametric
    assert fam.instantiate(5) == {(0, 1, 1, 0), (0, 1, -1, 0)}
    with pytest.raises(RegistryError):
        SolutionFamily.parse("(u, 0, 0)")
    with pytest.raises(RegistryError):
        SolutionFamily.parse("(±u, 0, 0, 0)")  # x may not be linear in u


def test_solve_system_bounded_examples(by_id):
    sols = solve_system_bounded(by_id["case1.1"].system, 5)
    expected = {(1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0)}
    for u in range(6):
        for s in {u, -u}:
            for t in {u, -u}:
                expected.add((u * u, u * u, s, t))
    assert sols == expected

    sols = solve_system_bounded(by_id["case3.16"].system, 5)
    expected = set()
    for u in range(6):
        for s in {u, -u}:
            for t in {u, -u}:
                expected.add((u * u, u * u, s, t))
    assert sols == expected

    assert solve_system_bounded(by_id["case1.2"].system, 0) == {(0, 0, 0, 0)}


@pytest.mark.parametrize("bound", [0, 1, 2, 7, 60, 150])
def test_solver_equals_grid_reference(entries, bound):
    # the 48 entries are every legal (family, left, right) system
    for e in entries:
        assert solve_system_bounded(e.system, bound) == grid_reference(e.system, bound), e.id


def test_verify_lemma_examples(by_id):
    assert verify_lemma(by_id["case1.1"], 50).matched
    v = verify_lemma(by_id["case2.13"], 50)
    assert v.matched  # claimed empty, found empty
    with pytest.raises(ValueError):
        verify_lemma(by_id["case1.1"], 0)


def test_verify_lemma_negative_control(by_id):
    # dropping a family must surface as extra solutions, nothing missing
    e = by_id["case1.1"]
    tampered = type(e)(e.id, e.system, e.claimed[:-1], e.techniques)
    v = verify_lemma(tampered, 20)
    assert not v.matched
    assert v.extra and not v.missing


def test_modular_obstruction_examples(by_id):
    assert modular_obstruction(by_id["case2.15"], 4).confirmed
    assert modular_obstruction(by_id["case3.15"], 8).confirmed
    with pytest.raises(ValueError):
        modular_obstruction(by_id["case1.1"], 4)
    with pytest.raises(ValueError):
        modular_obstruction(by_id["case2.13"], 8)


def test_mod_tagged_entries_also_have_empty_solution_sets(entries):
    for e in entries:
        if "mod4" in e.techniques or "mod8" in e.techniques:
            assert e.claimed == ()
            assert solve_system_bounded(e.system, 50) == set(), e.id


@pytest.mark.extended
def test_verify_all_at_extended_bound(entries):
    from quadsemi.diophantine import verify_all

    results = verify_all(entries, bound=5000)
    mismatched = [r.entry_id for r in results if not r.matched]
    assert mismatched == []


def test_symmetry_tagged_entries_swap_onto_targets(entries, by_id):
    bound = 20
    for e in entries:
        target = e.symmetry_target
        if target is None:
            continue
        mine = solve_system_bounded(e.system, bound)
        theirs = solve_system_bounded(by_id[target].system, bound)
        assert mine == {(y, x, t, s) for (x, y, s, t) in theirs}


def test_parametric_families_satisfy_systems(entries):
    for e in entries:
        for fam in e.claimed:
            for x, y, s, t in fam.instantiate(50):
                assert e.system.is_solution(x, y, s, t), (e.id, fam.template)


def test_quartic_curve_points_examples():
    assert quartic_curve_points(1, 0, 1, 100) == [(0, 1)]
    assert quartic_curve_points(1, -1, 1, 100) == [(-1, 1), (0, 1), (1, 1)]
    assert quartic_curve_points(1, 1, 2, 100) == [(-1, 2), (1, 2)]
    with pytest.raises(ValueError):
        quartic_curve_points(1, 0, 1, 0)


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 40])
def test_quartic_curve_points_equal_box_scan_reference(bound):
    # square a4 (the scan is cut short by factoring), negative a4 (cut short
    # where the quartic turns negative) and positive non-square a4 (not cut
    # short), across zero and nonzero 4 a4 a0 - a2^2
    for a4 in (-9, -4, -3, -2, -1, 0, 1, 2, 3, 4, 9):
        for a2 in range(-12, 13):
            for a0 in range(-20, 21):
                assert quartic_curve_points(a4, a2, a0, bound) == \
                    box_scan_reference(a4, a2, a0, bound), (a4, a2, a0)


@pytest.mark.parametrize("coeffs", [
    (1, 0, 1), (1, 0, -1), (1, -1, 1), (1, 1, 1), (1, 1, 2), (1, 2, 2),  # the audit's
    (1, 2, 1), (4, 4, 1), (9, -6, 1), (1, 0, 0), (4, 0, 0),  # 4 a4 a0 = a2^2
    (4, 1, 3), (9, 5, -7), (25, -3, 11), (16, 40, 25),
])
def test_quartic_curve_points_equal_box_scan_reference_at_bound_2000(coeffs):
    assert quartic_curve_points(*coeffs, 2000) == box_scan_reference(*coeffs, 2000)

