"""Tests of the benchmark itself.  Run with:  python3 -m pytest bench/tests -q"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import quadsemi  # noqa: E402
import quadsemi.cli  # noqa: E402

ENTRIES = [(e.id, tuple(sorted(e.techniques))) for e in quadsemi.registry()]


def cli_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = quadsemi.cli.main(argv + ["--json"])
    assert code == 0, argv
    return json.loads(out.getvalue())


# --- tail percentile -----------------------------------------------------------

def test_tail_is_the_eleventh_largest_sample():
    value, pct = run.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0
    samples = [float(x) for x in range(37)]
    value, pct = run.tail(samples[::-1])
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 27 / 37)
    assert run.tail([float(x) for x in range(11)]) == (0.0, 100 / 11)


def test_tail_with_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# --- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for r in range(3):
        a = json.dumps(workloads.make_round(workload, 7, r, ENTRIES))
        b = json.dumps(workloads.make_round(workload, 7, r, ENTRIES))
        assert a.encode() == b.encode()


@pytest.mark.parametrize("workload", ["words", "certify", "crossval"])
def test_seed_and_round_change_the_inputs(workload):
    base = workloads.make_round(workload, 7, 0, ENTRIES)
    assert base != workloads.make_round(workload, 8, 0, ENTRIES)
    assert base != workloads.make_round(workload, 7, 1, ENTRIES)


def test_generated_constants_are_irreducible_letters():
    for seed in range(20):
        for item in workloads.words_round(seed, 0) + workloads.certify_round(seed, 0):
            if item["check"] in ("scan", "mc") and "-4,-12" not in item["argv"]:
                cs = checks._ints(checks._arg(item["argv"], "-c"))
                assert all(workloads.is_irreducible_letter(c) for c in cs)
                assert len(set(cs)) == len(cs)


def test_reducible_partners_keep_the_population_sign_split():
    letters = workloads.irreducible_letters(workloads.CROSSVAL_C_MAX)
    share = sum(c > 0 for c in letters) / len(letters)
    for seed in range(50):
        pairs = workloads.reducible_pairs(workloads.random.Random(seed), 12)
        positive = sum(c > 0 for _, c in pairs)
        assert abs(positive - 12 * share) < 1
        assert all(not workloads.is_irreducible_letter(q) for q, _ in pairs)
        assert all(workloads.is_irreducible_letter(c) for _, c in pairs)


# --- reference checks reject corrupted reports ---------------------------------

def _flip(key):
    def corrupt(report):
        report["verdicts"][key] = not report["verdicts"][key]
    return corrupt


def _bump(section, key, delta=1):
    def corrupt(report):
        report[section][key] += delta
    return corrupt


def _drop_first(section, key):
    def corrupt(report):
        report[section][key] = report[section][key][1:]
    return corrupt


def _set(section, key, value):
    def corrupt(report):
        report[section][key] = value
    return corrupt


CASES = [
    ("verify", ["verify-lemma", "case1.1", "--bound", "20"], _flip("all_matched")),
    ("obstruction", ["obstruction", "case3.11", "--mod", "8"], _flip("confirmed")),
    ("curve", ["curve-points", "--coeffs", "1,-1,1", "--bound", "50"],
     _drop_first("witnesses", "points")),
    ("scan", ["scan-words", "-c", "-4,-12", "-L", "6"],
     _set("witnesses", "certified_words", [[1], [2], [2, 2]])),
    ("scan", ["scan-words", "-c", "3,-7", "-L", "6"], _bump("verdicts", "words")),
    ("mc", ["mc-stability", "-c", "3,-7", "-L", "6", "-T", "200", "--seed", "1"],
     _set("verdicts", "estimate", 0.5)),
    ("exceptional", ["exceptional", "-c1", "-12", "-c2", "-21"], _flip("is_exceptional")),
    ("prefix", ["construct-prefix", "-c", "1,3"], _set("verdicts", "prefix_word", [2])),
    ("prefix", ["construct-prefix", "-c", "-12,-21"], _set("verdicts", "n_iterate", 1)),
    ("heights", ["heights", "-c", "-12", "--box", "100"], _set("verdicts", "hmin", 0.0)),
    ("heights", ["heights", "-c", "-12", "--box", "100"],
     _set("witnesses", "integral_points", [[3, 4]])),
    ("portrait", ["portrait", "-c", "-12"], _drop_first("verdicts", "preperiodic")),
    ("scan-pairs", ["scan-pairs", "--min", "-100", "--max", "100"],
     _drop_first("witnesses", "pairs")),
    ("crossval", ["cross-validate", "-c", "-1,-12", "-L", "2"], _bump("verdicts", "forbidden")),
]


@pytest.mark.parametrize("kind,argv,corrupt", CASES,
                         ids=[f"{kind}:{' '.join(argv[:3])}" for kind, argv, _ in CASES])
def test_check_accepts_the_report_and_rejects_a_corruption(kind, argv, corrupt):
    item = {"id": "t", "argv": argv, "check": kind}
    report = cli_report(argv)
    assert checks.check(item, report, {}) is None
    corrupt(report)
    assert checks.check(item, report, {}) is not None


def test_check_reports_a_missing_field_as_a_mismatch():
    item = {"id": "t", "argv": ["portrait", "-c", "-12"], "check": "portrait"}
    assert checks.check(item, {"verdicts": {}}, {}) is not None


def test_mc_check_uses_the_rate_of_a_scan_of_the_same_set():
    ctx = {}
    scan = {"id": "s", "argv": ["scan-words", "-c", "-4,-12", "-L", "8"], "check": "scan"}
    assert checks.check(scan, cli_report(scan["argv"]), ctx) is None
    assert ctx[("rate", (-4, -12), 8)] == 2.0**-8
    assert checks.square_free_count([-4, -12], 8) == 1


def test_closed_form_pairs_match_the_known_grid():
    expected = {(-1, -3), (0, -1), (0, -3), (-12, -21), (-72, -91)}
    expected |= {(b, a) for a, b in expected}
    assert checks.exceptional_pairs(-100, 100) == expected


# --- tracing -------------------------------------------------------------------

def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "quadsemi" or name.startswith("quadsemi.")
            for attr, value in vars(module).items()}


def _traced_counts():
    tracer = tracing.Tracer()
    tracer.install(quadsemi)
    try:
        for argv in (["verify-lemma", "case2.14", "--bound", "30"],
                     ["scan-words", "-c", "3,-7", "-L", "5"],
                     ["construct-prefix", "-c", "-12,-21"],
                     ["cross-validate", "-c", "-1,-12", "-L", "2"]):
            token = tracer.begin_item(argv[0])
            cli_report(argv)
            tracer.end_item(token)
        wrapped = _bindings()
    finally:
        tracer.restore()
    totals = tracer.totals()
    return tracer, totals, wrapped


def test_tracer_restores_every_original_binding():
    before = _bindings()
    tracer, _, during = _traced_counts()
    changed = {key for key in before if during[key] is not before[key]}
    assert ("quadsemi.diophantine", "is_perfect_square") in changed
    assert ("quadsemi.dynamics", "is_perfect_square") in changed
    assert ("quadsemi.cli", "main") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_counts_repeat_exactly():
    _, first, _ = _traced_counts()
    _, second, _ = _traced_counts()
    for table in ("leaf", "fn"):
        assert ({k: v[0] for k, v in first[table].items()}
                == {k: v[0] for k, v in second[table].items()})
    assert first["counts"] == second["counts"]
    assert first["leaf"]["square"][0] > 0
    assert first["fn"]["quadsemi.cli.main"][0] == 4


def test_self_time_excludes_children():
    tracer, totals, _ = _traced_counts()
    fn = totals["fn"]
    main_calls, main_total, main_self = fn["quadsemi.cli.main"]
    assert 0 <= main_self < main_total
    solve = fn["quadsemi.diophantine.solve_system_bounded"]
    assert solve[2] <= solve[1]
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)
    assert {span[5] for span in tracer.spans} >= {"verify-lemma", "scan-words"}


def test_speedometer_averages_the_samples_near_an_item():
    w = worker.SAMPLE_WINDOW_S
    speed = worker.Speedometer()
    speed.samples = [(10.0, 1.0), (10.0 + w / 2, 2.0), (10.0 + w, 4.0), (10.0 + 9 * w, 8.0)]
    assert speed.loop_time(10.0 + w * 1.25, 10.0 + w * 1.25) == 3.0
    assert speed.loop_time(10.0, 10.0 + w / 2) == pytest.approx(7 / 3)
    # no sample within the window: the closest one
    assert speed.loop_time(10.0 + 4 * w, 10.0 + 4 * w) == 4.0


def test_covered_merges_overlapping_intervals():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracing._covered([]) == 0.0


# --- the metric list matches BENCHMARK.json --------------------------------------

def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = {"latencies_s": [0.1] * 20, "scaled_latencies_s": [0.1] * 20,
           "calibration_s": 0.005, "failures": {}, "peak_rss_kb": 1024}
    e2e, _ = run.end_to_end(res, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()}
    traced = {"per_layer": tracing.layer_metrics(
        tracing.Tracer().totals(), (0, 0),
        {"report_bytes": 0, "nonzero_exits": 0, "exceptions": 0}),
        "spans": 0}
    layer = run.per_layer({"scaled_latencies_s": [0.5]}, dict(traced, scaled_latencies_s=[1.0]))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
