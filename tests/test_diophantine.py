import collections
import json
import math
import random
import re
import shutil

import pytest

from quadsemi import diophantine
from quadsemi.arith import is_perfect_square
from quadsemi.diophantine import (
    LemmaEntry,
    LemmaVerification,
    ObstructionResult,
    RegistryError,
    SolutionFamily,
    System,
    _canonical_solutions,
    _quartic_box,
    _system_quartics,
    legal_systems,
    modular_obstruction,
    phi2_curve_points,
    quartic_curve_points,
    registry,
    registry_checksum,
    registry_path,
    registry_provenance,
    solve_system_complete,
    verify_all,
    verify_lemma,
)
from quadsemi.portraits import FIXED_SQUARE, SquareForm, portrait
from references import residue_search

REGISTRY_SHA256 = "bf5afa0bbcbc485914a3ca1545848da3895a461aa5f37d8ca76c41bd6f763124"


# each selector's value at q, written out independently of the package's table
SELECTOR_VALUES = {
    "+q^2": lambda q: q * q,
    "-q^2": lambda q: -q * q,
    "+(q^2-1)": lambda q: q * q - 1,
    "-(q^2-1)": lambda q: -(q * q - 1),
    "+(q^2+1)": lambda q: q * q + 1,
    "-(q^2+1)": lambda q: -(q * q + 1),
}


def grid_reference(system, bound):
    """Slow reference for solve_system_bounded: square tests on the whole (s, t) grid."""
    qs = range(-bound, bound + 1)
    left_sel = SELECTOR_VALUES[system.left]
    right_sel = SELECTOR_VALUES[system.right]
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


def solve_system_bounded(system: System, bound: int) -> set[tuple[int, int, int, int]]:
    """Exhaustive canonical solutions (x>=0, y>=0, s, t) with |s|, |t| <= bound.

    A cross-check of `solve_system_complete` that does not split off the
    line |s| = |t|.  Both equations depend on s and t only through s^2 and
    t^2, so the scan covers s, t >= 0 and expands the signs afterwards.  In
    the quartic form of `solve_system_complete`,

        x^2 = s^4 + e s^2 + C(t),   C(t) = lam t^2 + C0,
        y^2 = t^4 + f t^2 + D(s),   D(s) = sigma s^2 + D0,

    the factoring box (`_quartic_box`) applies to both:

        s^2 <= (|4C(t) - 1| + 3) // 4,
        t^2 <= (|4D(s) - 1| + 3) // 4 <= s^2 + c2,
        c2 = (|4 D0 - 1| + 3) // 4,

    the last step since |4D(s) - 1| <= 4s^2 + |4 D0 - 1|.  Each t leaves the
    s with t^2 - c2 <= s^2 <= (|4C(t) - 1| + 3) // 4, a window of O(1)
    values, and every pair in it gets the two exact square tests.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    (e, c0), (f, d0), lam, _sigma = _system_quartics(system)
    c2 = _quartic_box(1, f, d0)

    def pairs():
        for t in range(bound + 1):
            s_hi = min(bound, math.isqrt(_quartic_box(1, e, lam * t * t + c0)))
            low = t * t - c2
            s_lo = math.isqrt(low - 1) + 1 if low > 0 else 0
            for s in range(s_lo, s_hi + 1):
                yield s, t

    return _canonical_solutions(system, pairs())


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


def _env_copy(tmp_path, monkeypatch):
    """A copy of the bundled registry, put in effect through QUADSEMI_REGISTRY."""
    target = tmp_path / "registry.json"
    shutil.copy(registry_path(), target)
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    return target


def test_registry_env_override_and_tamper_detection(tmp_path, monkeypatch):
    target = _env_copy(tmp_path, monkeypatch)
    assert len(registry()) == 48

    doc = json.loads(target.read_text())
    doc["entries"] = doc["entries"][:-1]
    target.write_text(json.dumps(doc))
    for _ in range(2):  # a failed load is not cached: it raises every time
        with pytest.raises(RegistryError, match="exactly 48 entries"):
            registry()


def test_registry_rejects_bad_claim(tmp_path, monkeypatch):
    target = tmp_path / "registry.json"
    doc = json.loads(open(registry_path()).read())
    doc["entries"][0]["solutions"].append("(±3, 0, 0, ±1)")  # not a solution
    target.write_text(json.dumps(doc))
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    with pytest.raises(RegistryError):
        registry()


def test_registry_rejects_a_line_with_the_swapped_key(tmp_path, monkeypatch):
    target = _env_copy(tmp_path, monkeypatch)
    doc = json.loads(target.read_text())
    rec = next(rec for rec in doc["entries"] if rec["id"] == "case1.3")
    assert rec["solutions"][-1] == "(±u^2, ±(u^2-1), ±u, ±u)"
    rec["solutions"][-1] = "(±(u^2-1), ±u^2, ±u, ±u)"
    target.write_text(json.dumps(doc))
    with pytest.raises(RegistryError, match=r"case1.3: claimed line .* every u"):
        registry()


def test_line_identity_equals_the_line_checked_pointwise(entries):
    # two quadratics in u^2 that agree at 11 values of u are equal, so the
    # exact identity holds exactly when the line solves the system at |u| <= 10
    keys = {(k1, k2) for k1 in range(-3, 4) for k2 in range(-3, 4)}
    for e in entries:
        for k1, k2 in keys:
            pointwise = all(e.system.is_solution(abs(u * u + k1), abs(u * u + k2), s, t)
                            for u in range(11) for s in (u, -u) for t in (u, -u))
            assert diophantine._is_line_of(e.system, (k1, k2)) == pointwise, (e.id, k1, k2)


def _count_family_parses(monkeypatch) -> list[str]:
    parsed: list[str] = []
    parse = SolutionFamily.parse.__func__

    def counting(cls, template):
        parsed.append(template)
        return parse(cls, template)

    monkeypatch.setattr(SolutionFamily, "parse", classmethod(counting))
    return parsed


def test_registry_unchanged_bytes_give_the_same_object():
    assert registry() is registry()


def test_registry_second_call_on_unchanged_bytes_parses_nothing(monkeypatch):
    registry()
    parsed = _count_family_parses(monkeypatch)
    registry()
    assert parsed == []


def test_registry_rewritten_file_is_loaded_again(tmp_path, monkeypatch):
    target = _env_copy(tmp_path, monkeypatch)
    first = registry()
    parsed = _count_family_parses(monkeypatch)
    # the same entries in other bytes: reformatted, with ASCII escapes
    target.write_text(json.dumps(json.loads(target.read_text()), indent=4))
    second = registry()
    assert second is not first and second == first
    assert parsed  # validated again, not served from the cache
    assert registry_provenance() == {"source": "env",
                                     "sha256": registry_checksum(str(target))}


def test_registry_switching_the_env_override_loads_again(tmp_path, monkeypatch):
    monkeypatch.delenv("QUADSEMI_REGISTRY", raising=False)
    bundled = registry()
    assert registry_provenance() == {"source": "bundled", "sha256": REGISTRY_SHA256}
    _env_copy(tmp_path, monkeypatch)
    overridden = registry()
    assert overridden is not bundled and overridden == bundled
    assert registry_provenance() == {"source": "env", "sha256": REGISTRY_SHA256}
    monkeypatch.delenv("QUADSEMI_REGISTRY")
    assert registry() is not overridden
    assert registry_provenance() == {"source": "bundled", "sha256": REGISTRY_SHA256}


def test_registry_failure_is_not_cached(tmp_path, monkeypatch):
    target = _env_copy(tmp_path, monkeypatch)
    good = target.read_bytes()
    target.write_text(good.decode("utf-8").replace('"case1.1"', '"case1.2"', 1))
    for _ in range(2):
        with pytest.raises(RegistryError, match="duplicate entry id case1.2"):
            registry()
    target.write_bytes(good)
    assert [e.id for e in registry()][:2] == ["case1.1", "case1.2"]


def test_registry_result_cannot_be_changed():
    entries = registry()
    assert isinstance(entries, tuple)
    with pytest.raises(AttributeError):
        entries.append(entries[0])
    with pytest.raises(AttributeError):
        entries[0].id = "case9.9"
    assert registry()[0].id == "case1.1"


# each record type of the registry path -> a builder of one instance from
# fresh objects, so two calls give equal records that are not the same object
RECORDS = {
    "System": lambda: System("B", "+q^2", "-(q^2-1)"),
    "_Coord": lambda: diophantine._Coord(True, 0, 1, 0),
    "SolutionFamily": lambda: SolutionFamily.parse("(±u^2, ±(u^2-1), ±u, ±u)"),
    "LemmaEntry": lambda: LemmaEntry("case1.1", System("A", "+q^2", "+q^2"),
                                     (SolutionFamily.parse("(0, ±1, ±1, 0)"),),
                                     frozenset({"factor", "sandwich"})),
    "LemmaVerification": lambda: LemmaVerification(
        "case1.1", 50, frozenset({(0, 1, 1, 0)}), frozenset(), frozenset({(0, -1)}),
        frozenset(), note="n", pairs_tested=7),
    "ObstructionResult": lambda: ObstructionResult("case2.14", 4, False, (0, 1, 1, 0)),
    "SquareForm": lambda: SquareForm(FIXED_SQUARE, 2),
    "Portrait": lambda: portrait(-12),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
def test_records_are_immutable_values(make):
    a, b = make(), make()
    assert type(a).__name__ in RECORDS
    assert a is not b and a == b and hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.no_such_field = 0


def test_lemma_entry_repr_is_pinned():
    entry = next(e for e in registry() if e.id == "case1.14")
    assert repr(entry) == (
        "LemmaEntry(id='case1.14', system=System(family='A', left='+(q^2-1)', "
        "right='-q^2'), claimed=(SolutionFamily(template='(0, 0, 0, ±1)', "
        "coords=(_Coord(pm=False, a0=0, a1=0, a2=0), _Coord(pm=False, a0=0, a1=0, a2=0), "
        "_Coord(pm=False, a0=0, a1=0, a2=0), _Coord(pm=True, a0=1, a1=0, a2=0))),), "
        "techniques=frozenset({'symmetry:case1.8'}))")


def test_registry_checksum_of_a_missing_file_raises_registry_error(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(RegistryError, match="cannot read registry at .*missing.json"):
        registry_checksum(str(missing))


# family -> (legal left selectors, legal right selectors), written out by hand
# as an independent reference for the legality rule System derives from
# portraits.PREPER_TARGETS
LEGAL_SELECTORS = {
    "A": ({"+q^2", "-q^2", "+(q^2-1)", "-(q^2-1)"},
          {"+q^2", "-q^2", "+(q^2-1)", "-(q^2-1)"}),
    "B": ({"+q^2", "-q^2", "+(q^2+1)", "-(q^2+1)"},
          {"+q^2", "-q^2", "+(q^2-1)", "-(q^2-1)"}),
    "C": ({"+q^2", "-q^2", "+(q^2+1)", "-(q^2+1)"},
          {"+q^2", "-q^2", "+(q^2+1)", "-(q^2+1)"}),
}


def test_system_legality_matches_the_reference_table():
    for family, (legal_left, legal_right) in LEGAL_SELECTORS.items():
        for left in SELECTOR_VALUES:
            for right in SELECTOR_VALUES:
                legal = left in legal_left and right in legal_right
                try:
                    System(family, left, right)
                    accepted = True
                except RegistryError:
                    accepted = False
                assert accepted == legal, (family, left, right)


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
    assert fam.line_key() == (0, -1) and fam.points() == set()
    fam = SolutionFamily.parse("(0, ±1, ±1, 0)")
    assert not fam.parametric
    assert fam.line_key() is None
    assert fam.points() == {(0, 1, 1, 0), (0, 1, -1, 0)}
    assert SolutionFamily.parse("(-2, ±1, 3, 0)").points() == {(2, 1, 3, 0)}  # x enters as |x|
    with pytest.raises(RegistryError):
        SolutionFamily.parse("(u, 0, 0)")


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


@pytest.mark.parametrize("bound", [0, 1, 2, *range(3, 13), 60, 150])
def test_solver_equals_grid_reference(entries, bound):
    # the 48 entries are every legal (family, left, right) system; at the
    # small bounds the edges of the solver's s-windows sit at small t
    for e in entries:
        assert solve_system_bounded(e.system, bound) == grid_reference(e.system, bound), e.id


def test_pairs_tested_do_not_depend_on_the_bound(entries):
    per_bound = [[r.pairs_tested for r in verify_all(entries, bound)]
                 for bound in (1, 300, 10**9)]
    assert per_bound[0] == per_bound[1] == per_bound[2]
    assert all(n > 0 for n in per_bound[0])
    # the total of a fixed version repeats exactly, and changes with the search
    assert sum(per_bound[0]) == 161


def test_solver_counts_into_the_given_counters(by_id):
    counters = {"pairs_tested": 5}
    solve_system_complete(by_id["case1.1"].system, counters)
    assert counters == {"pairs_tested": 5 + verify_lemma(by_id["case1.1"], 300).pairs_tested}


def complete_within(system, bound):
    """solve_system_complete's solutions with |s|, |t| <= bound, each line family expanded."""
    finite, families = solve_system_complete(system)
    sols = {p for p in finite if abs(p[2]) <= bound and abs(p[3]) <= bound}
    for k1, k2 in families:
        for s in range(-bound, bound + 1):
            for t in (s, -s):
                sols.add((abs(s * s + k1), abs(s * s + k2), s, t))
    return sols


def test_registry_systems_are_every_legal_system(entries):
    # so the completeness tests below cover the systems of any valid registry
    legal = {(family, left, right)
             for family, (lefts, rights) in LEGAL_SELECTORS.items()
             for left in lefts for right in rights}
    assert {(e.system.family, e.system.left, e.system.right) for e in entries} == legal
    assert len(legal) == len(entries) == 48


def test_legal_systems_are_the_registry_systems(entries):
    # built from the shapes and selectors alone, they are the registry's 48
    generated = [(s.family, s.left, s.right) for s in legal_systems()]
    assert sorted(generated) == sorted((e.system.family, e.system.left, e.system.right)
                                       for e in entries)
    assert len(set(generated)) == 48


@pytest.mark.parametrize("bound", [
    *range(0, 41), 300, 2000, 5000, pytest.param(20000, marks=pytest.mark.extended)])
def test_complete_solver_equals_bounded_solver(entries, bound):
    # slow reference: solve_system_bounded, itself checked against the grid
    for e in entries:
        assert complete_within(e.system, bound) == solve_system_bounded(e.system, bound), e.id


def test_complete_solver_finds_exactly_the_claimed_lines(entries):
    lines = {}
    for e in entries:
        finite, families = solve_system_complete(e.system)
        assert not any(diophantine._on_line(p, families) for p in finite), e.id
        claimed = {fam.line_key() for fam in e.claimed if fam.parametric}
        assert families == claimed, e.id
        if families:
            lines[e.id] = families
    assert sorted(lines) == ["case1.1", "case1.11", "case1.3", "case1.9", "case2.1",
                             "case3.1", "case3.13", "case3.16", "case3.4"]


def test_line_key_reads_only_the_line_shape():
    def key(template):
        return SolutionFamily.parse(template).line_key()

    assert key("(±u^2, ±(u^2-1), ±u, ±u)") == (0, -1)
    assert key("(u^2, (u^2+1), ±u, ±u)") == (0, 1)  # x, y enter as |x|, |y|
    assert key("(±(u^2+0), u^2, ±u, ±u)") == (0, 0)
    assert key("(0, 0, 0, 0)") is None
    assert key("(±1, ±1, ±1, ±1)") is None


@pytest.mark.parametrize("template", [
    pytest.param("(0, ±1, ±u, 0)", id="u-in-s-only"),
    pytest.param("(±u^2, ±u^2, u, ±u)", id="bare-u-in-s"),  # s = u misses s = -u
    pytest.param("(±u^2, ±u^2, ±u, u)", id="bare-u-in-t"),
    pytest.param("(1, ±u^2, ±u, ±u)", id="constant-x"),
    pytest.param("(±u^2, ±u^2, ±u^2, ±u)", id="u-squared-s"),
    pytest.param("(±u, 0, 0, 0)", id="x-linear-in-u"),
    pytest.param("(±u, ±u^2, ±u, ±u)", id="x-linear-on-the-line"),
])
def test_a_template_in_u_that_is_no_line_fails_to_parse(template):
    with pytest.raises(RegistryError, match=re.escape(f"{template!r} uses u but is not a line")):
        SolutionFamily.parse(template)


def instantiate(fam, bound):
    """Every canonical instance (x>=0, y>=0, s, t) of a template with |s|, |t| <= bound.

    u runs over every integer that can reach the box, negative ones too.
    """
    def values(coord, u):
        v = coord.a0 + coord.a1 * u + coord.a2 * u * u
        return {v, -v} if coord.pm else {v}

    xs, ys, ss, ts = fam.coords
    return {(abs(x), abs(y), s, t)
            for u in (range(-bound, bound + 1) if fam.parametric else (0,))
            for x in values(xs, u) for y in values(ys, u)
            for s in values(ss, u) for t in values(ts, u)
            if abs(s) <= bound and abs(t) <= bound}


def line_instances(keys, bound):
    """Every instance with u <= bound of the lines (|u^2 + k1|, |u^2 + k2|, ±u, ±u)."""
    return {(abs(u * u + k1), abs(u * u + k2), s, t)
            for k1, k2 in keys for u in range(bound + 1) for s in (u, -u) for t in (u, -u)}


def instantiate_both(entry, bound):
    """Slow reference for verify_lemma: both solution sets expanded to the bound."""
    found = solve_system_bounded(entry.system, bound)
    claimed = set().union(*(instantiate(fam, bound) for fam in entry.claimed))
    return found, claimed


def _with_claims(entry, *templates, drop=()):
    claimed = tuple(f for f in entry.claimed if f.template not in drop)
    claimed += tuple(SolutionFamily.parse(t) for t in templates)
    return LemmaEntry(entry.id, entry.system, claimed, entry.techniques)


# the id's True or False says whether the claimed line keys are the solver's
@pytest.mark.parametrize("case,same_lines", [
    # a family dropped
    pytest.param(("case1.1", (), ("(±u^2, ±u^2, ±u, ±u)",)), False, id="case0-False"),
    # bogus claimed points: off the line, on it, and off it with the line's (x, y) at u = |s|
    # and one beyond the smaller bounds
    pytest.param(("case1.1", ("(±3, 0, 0, ±1)", "(2, 2, ±1, ±1)", "(1, 1, ±1, 0)",
                              "(0, 0, 0, ±3)"), ()),
                 True, id="case1-True"),
    # a claimed point that is an instance of the shared line
    pytest.param(("case1.3", ("(1, 0, ±1, ±1)",), ()), True, id="case2-True"),
    # a swapped family key
    pytest.param(("case1.3", ("(±(u^2-1), ±u^2, ±u, ±u)",), ("(±u^2, ±(u^2-1), ±u, ±u)",)),
                 False, id="case3-False"),
    # a line the system lacks, claimed beside the line it has
    pytest.param(("case1.1", ("(±(u^2+1), ±u^2, ±u, ±u)",), ()), False, id="case4-False"),
    # a line claimed where the system has none
    pytest.param(("case2.3", ("(±u^2, ±u^2, ±u, ±u)",), ()), False, id="case5-False"),
    # the registry's own claims
    pytest.param(("case1.9", (), ()), True, id="case6-True"),
    pytest.param(("case2.14", (), ()), True, id="case7-True"),
    # a line the system lacks, claimed through the system's points on |s| = |t|
    pytest.param(("case1.4", ("(u^2, (u^2-1), ±u, ±u)",), ("(±1, 0, ±1, ±1)",)),
                 False, id="case8-False"),
    # a family dropped, and a claimed point on it
    pytest.param(("case1.1", ("(1, 1, ±1, ±1)",), ("(±u^2, ±u^2, ±u, ±u)",)),
                 False, id="case9-False"),
])
@pytest.mark.parametrize("bound", [1, 2, 5, 30])
def test_fast_comparison_equals_instantiating_both(by_id, case, same_lines, bound):
    entry_id, added, dropped = case
    entry = _with_claims(by_id[entry_id], *added, drop=dropped)
    v = verify_lemma(entry, bound)
    assert (not v.extra_lines and not v.missing_lines) == same_lines
    found, claimed = instantiate_both(entry, bound)
    # the reported lines, expanded to the bound, supply the rest of each difference
    extra = v.extra | (line_instances(v.extra_lines, bound) - claimed)
    missing = v.missing | (line_instances(v.missing_lines, bound) - found)
    assert (extra, missing) == (found - claimed, claimed - found)
    assert v.matched == (found == claimed)


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
    assert v.extra_lines == {(0, 0)} and not v.missing_lines
    assert not v.extra and not v.missing


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


def residue_reference(system, modulus):
    """Slow reference for System.residue_solutions: residue_search over all modulus^4 vectors."""
    return residue_search([lambda x, y, s, t: x * x - system.x_square(s, t),
                           lambda x, y, s, t: y * y - system.y_square(s, t)], 4, modulus)


@pytest.mark.parametrize("modulus", [
    *range(2, 9), *(pytest.param(m, marks=pytest.mark.extended) for m in range(9, 17))])
def test_residue_solutions_equal_residue_search(entries, modulus):
    for e in entries:
        hits = e.system.residue_solutions(modulus)
        assert hits == residue_reference(e.system, modulus), e.id
        tag = f"mod{modulus}"
        if tag in e.techniques:
            res = modular_obstruction(e, modulus)
            assert res.confirmed == (not hits)
            assert res.witness == (hits[0] if hits else None)


def per_pair_residue_solutions(system, modulus):
    """Reference for System.residue_solutions: x_square and y_square at every pair (s, t)."""
    roots = {}
    for r in range(modulus):
        roots.setdefault(r * r % modulus, []).append(r)
    hits = []
    for s in range(modulus):
        for t in range(modulus):
            xs = roots.get(system.x_square(s, t) % modulus, [])
            ys = roots.get(system.y_square(s, t) % modulus, [])
            hits += [(x, y, s, t) for x in xs for y in ys]
    return sorted(hits)


@pytest.mark.parametrize("modulus", range(2, 17))
def test_residue_solutions_equal_the_per_pair_evaluation(entries, modulus):
    for e in entries:
        assert e.system.residue_solutions(modulus) == per_pair_residue_solutions(
            e.system, modulus), e.id


def test_residue_solutions_validate_the_modulus(by_id):
    with pytest.raises(ValueError, match="modulus"):
        by_id["case1.1"].system.residue_solutions(1)


@pytest.mark.parametrize("bound", [5000, pytest.param(20000, marks=pytest.mark.extended)])
def test_verify_all_at_large_bound(entries, bound):
    results = verify_all(entries, bound=bound)
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
            for x, y, s, t in instantiate(fam, 50):
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


@pytest.mark.parametrize("a2", [-1, 1])
def test_quartic_box_holds_every_point_of_the_monic_curves(a2):
    # the curves of the case systems: y^2 = q^4 +- q^2 + a0, whose box is
    # (|4 a0 - 1| + 3) // 4; a0 in {0, 1} gives |4 a0 - 1| <= 3
    for a0 in range(-300, 301):
        q_max = math.isqrt(_quartic_box(1, a2, a0))
        assert box_scan_reference(1, a2, a0, q_max) == \
            box_scan_reference(1, a2, a0, 2 * q_max + 10), a0


@pytest.mark.parametrize("coeffs", [
    (1, 0, 1), (1, 0, -1), (1, -1, 1), (1, 1, 1), (1, 1, 2), (1, 2, 2),  # the audit's
    (1, 2, 1), (4, 4, 1), (9, -6, 1), (1, 0, 0), (4, 0, 0),  # 4 a4 a0 = a2^2
    (4, 1, 3), (9, 5, -7), (25, -3, 11), (16, 40, 25),
])
def test_quartic_curve_points_equal_box_scan_reference_at_bound_2000(coeffs):
    assert quartic_curve_points(*coeffs, 2000) == box_scan_reference(*coeffs, 2000)


def test_square_leading_route_equals_box_scan_reference():
    # seeded curves y^2 = k^2 q^4 + a2 q^2 + a0, a third with a planted point
    # (q0, y0) and a third with a planted y = 0, at bounds up to two past the
    # factoring box; the tally below shows each case the route must handle
    rng = random.Random(2029)
    seen = collections.Counter()
    for _ in range(3000):
        k, a2, q0 = rng.randint(1, 5), rng.randint(-60, 60), rng.randint(0, 6)
        a4 = k * k
        a0 = rng.choice([rng.randint(-400, 400), -(a4 * q0**4 + a2 * q0 * q0),
                         rng.randint(0, 50) ** 2 - a4 * q0**4 - a2 * q0 * q0])
        n = 4 * a4 * a0 - a2 * a2
        if n == 0:
            continue
        bound = rng.randint(1, math.isqrt(_quartic_box(a4, a2, a0)) + 2)
        got = quartic_curve_points(a4, a2, a0, bound)
        assert got == box_scan_reference(a4, a2, a0, bound), (a4, a2, a0, bound)
        full = quartic_curve_points(a4, a2, a0, 10**9)
        seen["k >= 2, odd a2, with points"] += k >= 2 and a2 % 2 == 1 and bool(got)
        seen["k >= 2, even a2, with points"] += k >= 2 and a2 % 2 == 0 and bool(got)
        seen["n < 0"] += n < 0 and bool(got)
        seen["n > 0"] += n > 0 and bool(got)
        seen["y = 0"] += any(y == 0 for _, y in got)
        seen["bound below the largest |q|"] += len(got) < len(full)
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


def test_square_leading_route_makes_few_square_tests(monkeypatch):
    calls = []
    square = diophantine.is_perfect_square
    monkeypatch.setattr(diophantine, "is_perfect_square", lambda v: calls.append(v) or square(v))
    assert quartic_curve_points(1, 0, -10**12, 10**15) == [(-1000, 0), (1000, 0)]
    # 10^12 = 2^12 5^12 has 13^2 divisors; the box scan to 10^6 made 10^6 tests
    assert len(calls) <= 2 * 13**2, len(calls)



def test_phi2_curve_points_are_every_point_of_the_curve():
    # Y^2 = (X^2 + c)^2 + c for c = -1 too, where the heights refuse the curve
    for c in range(-60, 61):
        if c == 0:
            with pytest.raises(ValueError, match="nonzero"):
                phi2_curve_points(c)
            continue
        assert phi2_curve_points(c) == box_scan_reference(1, 2 * c, c * c + c, 500), c
