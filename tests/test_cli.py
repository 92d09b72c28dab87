import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quadsemi
from quadsemi import cli, diophantine, dynamics, heights
from quadsemi.cli import _one_based, build_parser, main
from quadsemi.diophantine import registry, registry_checksum, registry_path, verify_all
from quadsemi.dynamics import GeneratorSet, QuadraticMap
from quadsemi.exceptional import closed_form_of
from quadsemi.heights import compute_iterate_bound, integral_points_on_phi2
from references import dfs_scan_reference

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _err = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def normalized(report):
    report = json.loads(json.dumps(report))
    report["timings"]["elapsed_s"] = 0.0
    return report


@pytest.mark.parametrize("name,argv", [
    ("orbit.json", ["orbit", "-c", "-4,-12", "-w", "2,1"]),
    ("verify_lemma_case2.14.json", ["verify-lemma", "case2.14", "--bound", "12"]),
    ("curve_points.json", ["curve-points", "--coeffs", "1,1,2", "--bound", "50"]),
    ("scan_words.json", ["scan-words", "-c", "-14,40", "-L", "8"]),
    ("mc_stability.json", ["mc-stability", "-c", "-4,-12", "-L", "10",
                           "-T", "20000", "--seed", "7"]),
    ("construct_prefix.json", ["construct-prefix", "-c", "-12,-21,-4"]),
])
def test_golden_reports(capsys, name, argv):
    code, report = run_json(capsys, argv)
    assert code == 0
    expected = json.loads((GOLDEN / name).read_text())
    assert normalized(report) == expected


def test_verify_lemma_report_independent_of_install_location(tmp_path):
    copy = tmp_path / "site" / "quadsemi"
    shutil.copytree(Path(quadsemi.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "QUADSEMI_REGISTRY"}
    env["PYTHONPATH"] = str(copy.parent)

    def python(*argv):
        proc = subprocess.run([sys.executable, *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert Path(python("-c", "import quadsemi; print(quadsemi.__file__)").strip()) \
        == copy / "__init__.py"
    report = json.loads(python("-m", "quadsemi", "verify-lemma", "case2.14",
                               "--bound", "12", "--json"))
    expected = json.loads((GOLDEN / "verify_lemma_case2.14.json").read_text())
    assert normalized(report) == expected


def test_orbit_human_output_and_exit(capsys):
    code, out, _ = run(capsys, ["orbit", "-c", "-4,-12", "-w", "2,1"])
    assert code == 0
    assert "[12, 4]" in out and "unknown" in out


def test_orbit_bad_word_index_is_usage_error(capsys):
    code, _, err = run(capsys, ["orbit", "-c", "-4,-12", "-w", "3"])
    assert code == 2 and "out of range" in err


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_orbit_entry_too_long_to_print_exits_2(capsys, extra):
    # entry 13 of 1^13 over {50} has more digits than the interpreter prints
    code, out, err = run(capsys, ["orbit", "-c", "50", "-w", ",".join(["1"] * 13)] + extra)
    assert code == 2 and out == ""
    assert err.startswith("error: orbit entry 13 of the 13-letter word has more than")
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


def test_orbit_stops_at_the_first_entry_too_long_to_print(capsys, monkeypatch):
    # entry 13 is the first over the limit, and entry 40 of 1^40 over {50}
    # would have about 2^39 digits: building past entry 13 fails at once
    built = []
    entry = dynamics._entry

    def build(cs, word, k):
        assert k <= 13, f"entry {k} was built after entry 13 was over the limit"
        built.append(k)
        return entry(cs, word, k)

    monkeypatch.setattr(dynamics, "_entry", build)
    code, out, err = run(capsys, ["orbit", "-c", "50", "-w", ",".join(["1"] * 40)])
    assert code == 2 and out == ""
    assert err.startswith("error: orbit entry 13 of the 40-letter word has more than")
    assert built == list(range(1, 14))


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_lemma_requires_id_or_all(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma"])
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert re.search(r"\bid\b", message) and "--all" in message
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", "case1.1", "--all"])
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert re.search(r"\bid\b", message) and "--all" in message


def test_verify_lemma_single(capsys):
    code, report = run_json(capsys, ["verify-lemma", "case1.1", "--bound", "20"])
    assert code == 0
    assert report["verdicts"] == {"all_matched": True, "matched": 1, "total": 1}


CLASSIFICATION = {
    "sporadic": [[-3, -1]],
    "families": [{"shapes": ["fixed-square", "two-cycle-square"],
                  "systems": [["B", "+q^2", "+q^2"]]}],
}


def test_verify_lemma_all(capsys):
    code, report = run_json(capsys, ["verify-lemma", "--all", "--bound", "20"])
    assert code == 0
    assert report["verdicts"] == {"all_matched": True, "matched": 48, "total": 48,
                                  "classification": CLASSIFICATION}
    assert len(report["witnesses"]["results"]) == 48
    pairs = sum(r.pairs_tested for r in verify_all(registry(), 20))
    assert report["stats"] == {"counters": {"pairs_tested": pairs}}
    assert run_json(capsys, ["verify-lemma", "--all", "--bound", "20"])[1]["stats"] \
        == report["stats"]


def test_verify_lemma_reports_the_classification_with_all_only(capsys):
    code, out, _ = run(capsys, ["verify-lemma", "--all"])
    assert code == 0
    assert out.splitlines()[-1] == (
        "exceptional pairs derived from the 48 solved systems: sporadic [(-3, -1)]; "
        "families: fixed-square x two-cycle-square at every s, from B +q^2 +q^2")
    # the single-id report, as a registry audit runs it, has no such key or line
    for entry in registry():
        argv = ["verify-lemma", entry.id, "--bound", "300"]
        code, report = run_json(capsys, argv)
        assert code == 0 and list(report["verdicts"]) == ["all_matched", "matched", "total"]
        code, out, _ = run(capsys, argv)
        assert "derived" not in out


def test_verify_lemma_at_a_bound_no_loop_could_reach(capsys):
    start = time.perf_counter()
    code, report = run_json(capsys, ["verify-lemma", "--all", "--bound", "1000000000"])
    assert time.perf_counter() - start < 10  # a loop to the bound would take hours
    assert code == 0 and report["verdicts"]["all_matched"] is True
    assert report["stats"] == {"counters": {"pairs_tested": 161}}


def _registry_with(tmp_path, entry_id, solutions):
    """A copy of the bundled registry with one entry's solutions replaced by solutions(old)."""
    target = tmp_path / "registry.json"
    doc = json.loads(Path(registry_path()).read_text())
    for rec in doc["entries"]:
        if rec["id"] == entry_id:
            rec["solutions"] = solutions(rec["solutions"])
    target.write_text(json.dumps(doc))
    return target


def test_verify_lemma_mismatch_exits_1(capsys, tmp_path, monkeypatch):
    # drop the parametric family
    target = _registry_with(tmp_path, "case1.1", lambda sols: sols[:-1])
    bundled_sha256 = registry_checksum()
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    code, report = run_json(capsys, ["verify-lemma", "case1.1", "--bound", "10"])
    assert code == 1
    assert report["inputs"]["registry"] == {
        "source": "env", "sha256": registry_checksum(str(target))}
    assert report["inputs"]["registry"]["sha256"] != bundled_sha256
    assert report["verdicts"]["all_matched"] is False
    row = report["witnesses"]["results"][0]
    assert row["extra_lines"] == [[0, 0]] and row["missing_lines"] == []
    assert row["extra"] == [] and row["missing"] == []
    assert list(row) == ["id", "matched", "extra", "missing", "extra_lines",
                         "missing_lines", "note"]
    code, out, _ = run(capsys, ["verify-lemma", "case1.1", "--bound", "10"])
    assert out.splitlines()[1] == ("  MISMATCH case1.1: extra=[] missing=[] "
                                   "extra_lines=[(0, 0)] missing_lines=[]")


def test_verify_lemma_mismatch_at_a_bound_no_loop_could_reach(capsys, tmp_path, monkeypatch):
    target = _registry_with(tmp_path, "case1.1", lambda sols: sols[:-1])
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    start = time.perf_counter()
    code, report = run_json(capsys, ["verify-lemma", "case1.1", "--bound", "1000000000"])
    assert time.perf_counter() - start < 10  # listing the line's instances would not end
    assert code == 1
    row = report["witnesses"]["results"][0]
    assert row["extra"] == [] and row["extra_lines"] == [[0, 0]]


def test_registry_template_with_a_bare_u_exits_2(capsys, tmp_path, monkeypatch):
    # "u" alone covers only half of the line, so only "±u" is accepted for s and t
    template = "(±u^2, ±u^2, u, ±u)"
    target = _registry_with(tmp_path, "case1.1", lambda sols: sols[:-1] + [template])
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    code, out, err = run(capsys, ["verify-lemma", "case1.1", "--bound", "3"])
    assert code == 2 and out == ""
    assert err == (f"error: case1.1: solution template {template!r} uses u but is not a line "
                   "(u^2+k1, u^2+k2, ±u, ±u)\n")


def test_obstruction_exit_codes(capsys):
    code, report = run_json(capsys, ["obstruction", "case2.13", "--mod", "4"])
    assert code == 0 and report["verdicts"]["confirmed"] is True
    # contract violation: entry not tagged for that modulus
    code, _, err = run(capsys, ["obstruction", "case1.1", "--mod", "4"])
    assert code == 2 and "not tagged" in err


def test_unknown_lemma_id_exits_2_with_the_id_range(capsys):
    for argv in (["verify-lemma", "case9.9"], ["obstruction", "case9.9", "--mod", "4"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: unknown lemma id 'case9.9'; ids run case1.1..case3.16\n"


def _drop_id(doc):
    del doc["entries"][0]["id"]


def _string_entry(doc):
    doc["entries"][0] = "case1.1"


def _integer_solution(doc):
    doc["entries"][0]["solutions"] = [7]


def _string_techniques(doc):
    doc["entries"][0]["techniques"] = "mod4"


def _top_level_list(doc):
    return doc["entries"]


@pytest.mark.parametrize("tamper,message", [
    pytest.param(_drop_id, "entries[0]: 'id' must be a string", id="no-id"),
    pytest.param(_string_entry, "entries[0] must be an object", id="string-entry"),
    pytest.param(_integer_solution, "entries[0]: 'solutions' must be a list of strings",
                 id="integer-solution"),
    pytest.param(_string_techniques, "entries[0]: 'techniques' must be a list of strings",
                 id="string-techniques"),
    pytest.param(_top_level_list, "registry must be a JSON object", id="top-level-list"),
])
def test_malformed_registry_exits_2(capsys, tmp_path, monkeypatch, tamper, message):
    doc = json.loads(Path(registry_path()).read_text())
    doc = tamper(doc) or doc
    target = tmp_path / "registry.json"
    target.write_text(json.dumps(doc))
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    code, out, err = run(capsys, ["verify-lemma", "case1.1"])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_curve_points_reach_on_a_square_leading_coefficient(capsys):
    code, report = run_json(capsys, ["curve-points", "--coeffs", "1,1,2",
                                     "--bound", "1000000000000"])
    assert code == 0
    assert report["witnesses"]["points"] == [[-1, 2], [1, 2]]


def test_curve_points_reach_on_a_negative_leading_coefficient(capsys):
    code, report = run_json(capsys, ["curve-points", "--coeffs", "-1,0,5",
                                     "--bound", "2000000"])
    assert code == 0
    assert report["witnesses"]["points"] == [[-1, 2], [1, 2]]


def test_scan_pairs(capsys):
    code, report = run_json(capsys, ["scan-pairs", "--min", "-25", "--max", "5"])
    assert code == 0
    pairs = {tuple(p) for p in report["witnesses"]["pairs"]}
    assert pairs == {(-1, -3), (-3, -1), (0, -1), (-1, 0), (0, -3), (-3, 0),
                     (-12, -21), (-21, -12)}


def test_scan_pairs_inverted_box_exits_2(capsys):
    code, out, err = run(capsys, ["scan-pairs", "--min", "5", "--max", "-5"])
    assert code == 2 and out == ""
    assert "--min must not exceed --max" in err and "Traceback" not in err


def test_scan_pairs_reach_a_million(capsys):
    code, report = run_json(capsys, ["scan-pairs", "--min", "-1000000",
                                     "--max", "1000000"])
    assert code == 0
    pairs = [tuple(p) for p in report["witnesses"]["pairs"]]
    assert report["verdicts"]["count"] == len(pairs) == 66
    assert all(closed_form_of(c1, c2) is not None for c1, c2 in pairs)


@pytest.mark.extended
def test_scan_pairs_reach_a_billion(capsys):
    started = time.perf_counter()
    code, report = run_json(capsys, ["scan-pairs", "--min", "-1000000000",
                                     "--max", "1000000000"])
    assert time.perf_counter() - started < 10
    assert code == 0 and report["verdicts"]["count"] == 358
    assert all(closed_form_of(*p) is not None for p in report["witnesses"]["pairs"])


def test_construct_prefix(capsys):
    code, report = run_json(capsys, ["construct-prefix", "-c", "-12,-21,-4"])
    assert code == 0
    v = report["verdicts"]
    assert v["shape"] == "three-letter" and v["outer_c"] == -12
    assert v["prefix_word"][: v["n_iterate"]] == [1] * v["n_iterate"]

    code, _, err = run(capsys, ["construct-prefix", "-c", "-4,-9"])
    assert code == 2 and "irreducible" in err


def test_construct_prefix_takes_the_order_with_the_smaller_n(capsys):
    # (-3, -5) certifies at N = 3 and (-5, -3) at N = 2, so -5 goes outermost
    code, report = run_json(capsys, ["construct-prefix", "-c", "-3,-5"])
    assert code == 0
    v = report["verdicts"]
    assert report["witnesses"]["rigor"] == "exact"
    assert v["outer_c"] == -5 and v["inner_c"] == -3 and v["n_iterate"] == 2
    assert v["prefix_word"] == [2, 2, 1]


def test_mc_stability_deterministic(capsys):
    argv = ["mc-stability", "-c", "-4,-12", "-L", "6", "-T", "3000", "--seed", "99"]
    code1, rep1 = run_json(capsys, argv)
    code2, rep2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert rep1["verdicts"]["estimate"] == rep2["verdicts"]["estimate"]


def test_cross_validate_cli(capsys):
    code, report = run_json(capsys, ["cross-validate", "-c", "-1,-12", "-L", "2"])
    assert code == 0
    assert report["verdicts"]["passed"] is True


@pytest.mark.parametrize("cs", ["-49,49", "-4,73", "-36,97"])
def test_cross_validate_decides_former_budget_failures_cli(capsys, cs):
    code, report = run_json(capsys, ["cross-validate", "-c", cs, "-L", "3"])
    assert code == 0
    assert report["verdicts"]["passed"] is True


def test_cross_validate_counters(capsys):
    code, report = run_json(capsys, ["cross-validate", "-c", "-4,73", "-L", "3"])
    assert code == 0
    assert report["stats"]["counters"] == {
        "primes_scanned": 32, "factor_searches": 9, "modular_factors_max": 3,
        "subsets_tried": 17, "exact_divisions": 7,
    }


def test_cross_validate_beyond_the_degree_cap(capsys):
    code, out, err = run(capsys, ["cross-validate", "-c", "1,2", "-L", "6"])
    assert code == 2 and out == ""
    assert err == ("error: words of length 6 compose to degree 64, "
                   "beyond the oracle cap 32\n")


def test_heights_cli(capsys):
    code, report = run_json(capsys, ["heights", "-c", "-12"])
    assert code == 0
    v = report["verdicts"]
    assert v["N"] == 2 and v["rigor"] == "box-searched"
    pts = {tuple(p) for p in report["witnesses"]["integral_points"]}
    assert pts == {(4, 2), (4, -2), (-4, 2), (-4, -2)}


def test_heights_cli_reports_the_bound_and_its_points(capsys):
    # slow reference: the report rebuilt from compute_iterate_bound and a
    # second, separate enumeration of the points
    for c in range(-60, 61):
        if c in (0, -1):
            continue
        code, report = run_json(capsys, ["heights", "-c", str(c)])
        bound = compute_iterate_bound(QuadraticMap(c))
        assert code == 0
        assert report["verdicts"] == {"hmin": bound.hmin, "B": bound.B, "N": bound.N,
                                      "rigor": bound.rigor}, c
        assert report["witnesses"] == {"integral_points": [
            list(p) for p in sorted(integral_points_on_phi2(QuadraticMap(c)))]}, c


def test_heights_cli_enumerates_the_points_once(capsys, monkeypatch):
    # counted where every enumeration ends, whoever holds integral_points_on_phi2
    calls = []
    curve_points = heights.phi2_curve_points
    monkeypatch.setattr(heights, "phi2_curve_points",
                        lambda c: calls.append(c) or curve_points(c))
    for c in (-12, 3, 10**6):
        assert run(capsys, ["heights", "-c", str(c)])[0] == 0
    assert calls == [-12, 3, 10**6]


def test_heights_cli_degenerate_constant(capsys):
    code, _, err = run(capsys, ["heights", "-c", "0"])
    assert code == 2 and "outside {0, -1}" in err


def test_heights_cli_too_few_iterations_exits_2(capsys):
    code, out, err = run(capsys, ["heights", "-c", "5", "--iterations", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: height lower bound") and "increase iterations" in err


def test_heights_cli_too_many_iterations_exits_2(capsys):
    code, out, err = run(capsys, ["heights", "-c", "5", "--iterations", "1100"])
    assert code == 2 and out == ""
    assert err == "error: iterations must be in [1, 1023], got 1100\n"


def test_heights_cli_negative_box_exits_2(capsys):
    code, out, err = run(capsys, ["heights", "-c", "5", "--box", "-7"])
    assert code == 2 and out == ""
    assert err == "error: --box must be >= 0, got -7\n"


def test_heights_cli_box_width_does_not_set_the_cost(capsys):
    # the height search never walks out to the edge of a 10^9 box
    started = time.perf_counter()
    _, wide = run_json(capsys, ["heights", "-c", "3000", "--box", "1000000000"])
    assert time.perf_counter() - started < 1.0
    _, narrow = run_json(capsys, ["heights", "-c", "3000", "--box", "0"])
    assert wide["verdicts"] == narrow["verdicts"]


def test_heights_cli_on_a_twelve_digit_constant(capsys):
    # the verdicts of the scans over a = 0, 1, 2, ... and |X| <= sqrt(2|c|)
    code, report = run_json(capsys, ["heights", "-c", "-1000000000000"])
    assert code == 0
    assert report["verdicts"] == {"hmin": 6.907755252603075, "B": 9.210327898198868,
                                  "N": 3, "rigor": "box-searched"}
    assert report["witnesses"]["integral_points"] == [
        [x, y] for x in (-1000050, 1000050) for y in (-99997500, 99997500)]


def test_mc_stability_custom_weights(capsys):
    code, report = run_json(capsys, [
        "mc-stability", "-c", "-4,-12", "-L", "4", "-T", "500",
        "--seed", "3", "--weights", "1,3",
    ])
    assert code == 0
    assert report["inputs"]["weights"] == [1.0, 3.0]
    assert 0.0 <= report["verdicts"]["estimate"] <= 1.0


@pytest.mark.parametrize("weights", ["nan,1", "inf,1", "1,-inf"])
def test_mc_stability_non_finite_weights_exit_2(capsys, weights):
    code, out, err = run(capsys, [
        "mc-stability", "-c", "-4,-12", "-L", "4", "-T", "50",
        "--seed", "3", "--weights", weights,
    ])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "positive and finite" in err


def test_mc_stability_weights_with_an_overflowing_sum_exit_2(capsys):
    code, out, err = run(capsys, [
        "mc-stability", "-c", "-4,-12", "-L", "10", "-T", "200",
        "--seed", "3", "--weights", "1e308,1e308",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite sum" in err


@pytest.mark.parametrize("weights", ["1,,2", "a,1"])
def test_mc_stability_malformed_weights_exit_2(capsys, weights):
    code, out, err = run(capsys, [
        "mc-stability", "-c", "-4,-12", "-L", "4", "-T", "50",
        "--seed", "3", "--weights", weights,
    ])
    assert code == 2 and out == ""
    assert err == (f"error: --weights must be a comma-separated list of numbers, "
                   f"got {weights!r}\n")


def test_mc_stability_uniform_draw_of_one(capsys):
    # this seed's first uniform draw rounds to exactly 1.0
    code, report = run_json(capsys, [
        "mc-stability", "-c", "-4,-12", "-L", "3", "-T", "1",
        "--seed", "13696288941778812732",
    ])
    assert code == 0
    assert report["verdicts"]["estimate"] == 1.0


VALID_ARGV = {
    "orbit": ["-c", "-4,-12", "-w", "2,1"],
    "scan-words": ["-c", "-4,-12", "-L", "3"],
    "portrait": ["-c", "-21"],
    "exceptional": ["-c1", "-1", "-c2", "-3"],
    "scan-pairs": ["--min", "-5", "--max", "5"],
    "construct-prefix": ["-c", "-12,-21"],
    "verify-lemma": ["case2.14"],
    "obstruction": ["case2.14", "--mod", "4"],
    "curve-points": ["--coeffs", "1,1,2"],
    "heights": ["-c", "-12"],
    "mc-stability": ["-c", "-4,-12", "-L", "3", "-T", "5", "--seed", "1"],
    "cross-validate": ["-c", "-1,-12", "-L", "2"],
}


def test_valid_argv_covers_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(VALID_ARGV)
    for command, argv in VALID_ARGV.items():
        assert parser.parse_args([command, *argv]).command == command


@pytest.mark.parametrize("command", sorted(VALID_ARGV))
def test_threads_flag_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *VALID_ARGV[command], "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(VALID_ARGV))
def test_report_shape(capsys, monkeypatch, command):
    argv = [command, *VALID_ARGV[command]]
    dumps, calls = json.dumps, []

    def recording(obj, **kwargs):
        calls.append(kwargs)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", recording)
    code, out, _ = run(capsys, argv + ["--json"])
    monkeypatch.undo()
    # one json.dumps per report; only scan-words splices a pre-encoded value
    assert ["default" in kwargs for kwargs in calls] == [command == "scan-words"]
    report = json.loads(out)
    assert out.splitlines() == [json.dumps(report)]  # one line, compact
    stats = ["stats"] if command in ("cross-validate", "verify-lemma") else []
    assert list(report) == ["schema", "command", "inputs", "verdicts", "witnesses",
                            *stats, "timings"]
    assert report["schema"] == "quadsemi-report/3"
    assert report["command"] == command
    text_code, out, _ = run(capsys, argv)
    assert text_code == code and out.strip()
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_second_main_call_builds_no_parser(capsys, monkeypatch):
    argv = ["portrait", "-c", "-21"]
    run(capsys, argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _ = run(capsys, argv)
    assert code == 0 and "x^2-21" in out
    assert built == []


def test_main_keeps_no_flag_between_calls(capsys):
    argv = ["verify-lemma", "case2.14"]
    _, out, _ = run(capsys, argv + ["--verbose"])
    assert "  match    case2.14" in out.splitlines()
    _, out, _ = run(capsys, argv)
    assert out.splitlines() == [
        "1/1 entries match the complete solution sets, points compared within |s|, |t| <= 50"]

    _, report = run_json(capsys, ["heights", "-c", "-12", "--box", "50"])
    assert report["inputs"]["box"] == 50
    _, report = run_json(capsys, ["heights", "-c", "-12"])
    assert report["inputs"]["box"] == 0


def test_main_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heights", "-c", "-12", "--box"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, report = run_json(capsys, ["heights", "-c", "-12"])
    assert code == 0
    assert report["inputs"] == {"c": -12, "iterations": 30, "box": 0}


def test_version_prints_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"quadsemi {quadsemi.__version__}\n"


# argv that main parses with the named subcommand's parser, and argv that
# it leaves to the top parser, valid and malformed
PARSE_CORPUS = [
    *([command, *argv, *json_flag] for command, argv in VALID_ARGV.items()
      for json_flag in ([], ["--json"])),
    *([command, "-h"] for command in VALID_ARGV),
    ["--version"], ["--vers"], ["-h"], [], ["--"], ["no-such-command"],
    ["verify-lemma", "case2.14", "--bou", "7"],
    ["verify-lemma"], ["verify-lemma", "case1.1", "--all"],
    ["portrait", "-c", "-21", "extra"],
    ["heights", "-c", "-12", "--threads", "2"],
    ["heights", "-c", "-12", "--box"],
    ["scan-pairs", "--min", "-1500", "--max", "1500"],
    ["exceptional", "-c1=-3", "-c2", "5"],
    ["portrait", "--", "-c", "-21"],
    ["obstruction", "case2.14", "--mod", "5"],
]


def parse_outcome(capsys, parse, argv):
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return args, code, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_main_parses_as_the_top_parser_does(capsys, argv):
    reference = parse_outcome(capsys, lambda a: build_parser().parse_args(a), argv)
    assert parse_outcome(capsys, cli._parse, argv) == reference


def test_main_without_argv_parses_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["quadsemi", "portrait", "-c", "-21", "--json"])
    assert cli._parse(None) == build_parser().parse_args(["portrait", "-c", "-21", "--json"])
    code, out, _ = run(capsys, None)
    assert code == 0 and json.loads(out)["inputs"] == {"c": -21}


def test_verify_lemma_reads_the_registry_once(capsys, monkeypatch):
    path = registry_path()
    opened = []

    def counting_open(file, *args, **kwargs):
        if str(file) == path:
            opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(diophantine, "open", counting_open, raising=False)
    for argv in (["verify-lemma", "case2.14"], ["verify-lemma", "--all", "--bound", "5"]):
        opened.clear()
        code, report = run_json(capsys, argv)
        assert code == 0 and len(opened) == 1
    assert report["inputs"]["registry"]["sha256"] == registry_checksum()


def test_verify_lemma_reports_the_digest_of_the_bytes_it_verified(
        capsys, tmp_path, monkeypatch):
    target = tmp_path / "registry.json"
    shutil.copy(registry_path(), target)
    verified_sha256 = registry_checksum(str(target))
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    read = diophantine._read_registry

    def read_then_rewrite(path):
        data = read(path)
        target.write_text(json.dumps(json.loads(data)))  # same entries, other bytes
        return data

    monkeypatch.setattr(diophantine, "_read_registry", read_then_rewrite)
    code, report = run_json(capsys, ["verify-lemma", "case2.14"])
    assert code == 0
    assert report["inputs"]["registry"] == {"source": "env", "sha256": verified_sha256}
    assert registry_checksum(str(target)) != verified_sha256


def test_rewritten_registry_of_the_same_length_is_validated_again(
        capsys, tmp_path, monkeypatch):
    target = tmp_path / "registry.json"
    data = Path(registry_path()).read_bytes()
    target.write_bytes(data)
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    validate, validated = diophantine._validate, []

    def counting(data, path):
        validated.append(data)
        return validate(data, path)

    monkeypatch.setattr(diophantine, "_validate", counting)
    for text in (data, data.replace(b"The 48", b"All 48")):
        assert len(text) == len(data)
        target.write_bytes(text)
        code, report = run_json(capsys, ["verify-lemma", "case2.14"])
        assert code == 0 and validated[-1] == text
        assert report["inputs"]["registry"] == {
            "source": "env", "sha256": hashlib.sha256(text).hexdigest()}
    assert len(validated) == 2


def test_registry_source_follows_the_environment_on_every_call(
        capsys, tmp_path, monkeypatch):
    target = tmp_path / "registry.json"
    shutil.copy(registry_path(), target)  # the same bytes at another path
    sources = []
    for env in (str(target), None, str(target), None):
        if env is None:
            monkeypatch.delenv("QUADSEMI_REGISTRY", raising=False)
        else:
            monkeypatch.setenv("QUADSEMI_REGISTRY", env)
        _, report = run_json(capsys, ["verify-lemma", "case2.14"])
        sources.append(report["inputs"]["registry"])
    digest = registry_checksum()
    assert sources == [{"source": source, "sha256": digest}
                       for source in ("env", "bundled", "env", "bundled")]


def test_unchanged_registry_is_not_hashed_again(capsys, monkeypatch):
    # counts the calls of the digest constructor that the registry's digest uses
    argv = ["verify-lemma", "case2.14"]
    run_json(capsys, argv)
    sha256, hashed = diophantine._new_sha256, []

    def counting(*args, **kwargs):
        hashed.append(args)
        return sha256(*args, **kwargs)

    monkeypatch.setattr(diophantine, "_new_sha256", counting)
    code, report = run_json(capsys, argv)
    monkeypatch.undo()
    assert code == 0 and hashed == []
    assert report["inputs"]["registry"]["sha256"] == registry_checksum()


def test_bundled_registry_is_found_once(capsys, monkeypatch):
    files, found = diophantine.resources.files, []

    def counting(package):
        found.append(package)
        return files(package)

    monkeypatch.delenv("QUADSEMI_REGISTRY", raising=False)
    monkeypatch.setattr(diophantine.resources, "files", counting)
    diophantine._bundled_path.cache_clear()
    for _ in range(3):
        code, report = run_json(capsys, ["verify-lemma", "case2.14"])
        assert code == 0 and report["inputs"]["registry"]["source"] == "bundled"
    assert registry_path() == str(files("quadsemi") / "data" / "lemma_registry.json")
    assert found == ["quadsemi"]


@pytest.mark.parametrize("command", sorted(set(VALID_ARGV) - {"scan-words", "verify-lemma"}))
def test_verbose_flag_only_where_it_acts(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *VALID_ARGV[command], "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_scan_words_verbose_lists_the_certified_words(capsys):
    argv = ["scan-words", "-c", "-4,-12", "-L", "3"]
    _, terse, _ = run(capsys, argv)
    code, out, _ = run(capsys, argv + ["--verbose"])
    assert code == 0
    assert out.splitlines() == terse.splitlines() + ["  [2]", "  [2, 2]", "  [2, 2, 2]"]


def test_verify_lemma_verbose_lists_every_match(capsys):
    code, out, _ = run(capsys, ["verify-lemma", "--all", "--bound", "20", "--verbose"])
    assert code == 0
    matches = [line.split()[1] for line in out.splitlines() if line.startswith("  match ")]
    assert matches == [entry.id for entry in registry()]
    assert len(matches) == 48


@pytest.mark.parametrize("argv,flag,text", [
    pytest.param(["orbit", "-c", "-4,,-12", "-w", "1"], "-c", "-4,,-12", id="c-doubled"),
    pytest.param(["orbit", "-c", "-4,-12,", "-w", "1"], "-c", "-4,-12,", id="c-trailing"),
    pytest.param(["orbit", "-c", "-4,-12", "-w", "2,,1"], "-w", "2,,1", id="w-doubled"),
    pytest.param(["orbit", "-c", "-4,-12", "-w", "2,1,"], "-w", "2,1,", id="w-trailing"),
    pytest.param(["curve-points", "--coeffs", "1,1,,2"], "--coeffs", "1,1,,2",
                 id="coeffs-doubled"),
    pytest.param(["curve-points", "--coeffs", "1,1,2,"], "--coeffs", "1,1,2,",
                 id="coeffs-trailing"),
])
def test_empty_list_item_exits_2(capsys, argv, flag, text):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be a comma-separated list of integers, got {text!r}\n"


def test_portrait_cli(capsys):
    code, report = run_json(capsys, ["portrait", "-c", "-21"])
    assert code == 0
    v = report["verdicts"]
    assert v["square_form"] == {"kind": "two-cycle-square", "s": 2}
    assert sorted(v["preperiodic"]) == [-5, -4, 4, 5]


def test_scan_words_cli(capsys):
    code, report = run_json(capsys, ["scan-words", "-c", "-4,-12", "-L", "3"])
    assert code == 0
    assert report["verdicts"] == {"words": 14, "certified": 3}
    assert report["witnesses"]["certified_words"] == [[2], [2, 2], [2, 2, 2]]


def _without_timings(report_line):
    head, sep, tail = report_line.rpartition(', "timings": ')
    assert sep and re.fullmatch(r'\{"elapsed_s": [0-9.e-]+\}\}\n', tail)
    return head


def assert_scan_texts_match_the_list_encoding(capsys, monkeypatch, cs, max_len):
    results = dfs_scan_reference(GeneratorSet.from_cs(cs), max_len)
    certified = [_one_based(w) for w, v in results if v.certified]
    expected = json.dumps({
        "schema": "quadsemi-report/3", "command": "scan-words",
        "inputs": {"cs": cs, "max_len": max_len},
        "verdicts": {"words": len(results), "certified": len(certified)},
        "witnesses": {"certified_words": certified}, "timings": {}})
    # the report and the listing build no list per word
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_one_based", lambda word: pytest.fail("_one_based called"))
        argv = ["scan-words", "-c", ",".join(map(str, cs)), "-L", str(max_len)]
        for extra in (["--json"], ["--json", "--verbose"]):
            code, out, _ = run(capsys, argv + extra)
            assert code == 0
            assert _without_timings(out) == expected[:-len(', "timings": {}}')]
        code, out, _ = run(capsys, argv + ["--verbose"])
        assert code == 0
        assert out.splitlines()[1:] == [f"  {w}" for w in certified]


# x^2 + 2v + 1 maps v = (x^2+3)^7(0) to the square (v + 1)^2: word [2, 1, 1,
# 1, 1, 1, 1, 1] dies at its 8th entry, a 117-bit square
V7 = QuadraticMap(3).iterate(7, 0)
DEEP_SQUARE_SET = [3, 2 * V7 + 1]


@pytest.mark.parametrize("cs,max_len", [
    pytest.param(list(range(-1, -12, -1)), 2, id="eleven-generators"),
    pytest.param([7], 30, id="one-generator-L30"),
    pytest.param([-4, -12], 0, id="L0"),
    pytest.param([0, -1], 3, id="none-certified"),
    pytest.param([-6, -15, -27], 8, id="certified-with-gaps"),
    pytest.param([-4, -12], 10, id="pair-L10"),
    pytest.param([-16, 4], 12, id="live-cycle-pair-L12"),
    pytest.param([-21, 5, -11], 7, id="live-cycle-triple-L7"),
    pytest.param(DEEP_SQUARE_SET, 9, id="deep-square-L9"),
    pytest.param([-9, 5, -12], 6, id="first-letter-dies"),
    pytest.param([7], 1, id="one-word"),
])
def test_scan_words_texts_match_the_list_encoding(capsys, monkeypatch, cs, max_len):
    assert_scan_texts_match_the_list_encoding(capsys, monkeypatch, cs, max_len)


@given(st.lists(st.integers(-60, 60), min_size=1, max_size=4, unique=True), st.integers(0, 7))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scan_words_texts_match_the_list_encoding_on_random_sets(
        capsys, monkeypatch, cs, max_len):
    assert_scan_texts_match_the_list_encoding(capsys, monkeypatch, cs, max_len)


def test_scan_words_command_builds_no_word_tuples(capsys, monkeypatch):
    # no word's verdict or orbit is read one word at a time
    def refuse(*args):
        pytest.fail("a per-word path was called")

    for name in ("stability_certificate", "orbit_entries", "_entry"):
        monkeypatch.setattr(dynamics, name, refuse)
        monkeypatch.setattr(cli, name, refuse, raising=False)
    argv = ["scan-words", "-c", "-16,4", "-L", "10"]
    for extra in ([], ["--verbose"], ["--json"], ["--json", "--verbose"]):
        code, _, _ = run(capsys, argv + extra)
        assert code == 0


def test_scan_words_command_builds_one_automaton(capsys, monkeypatch):
    # the count and the text share it, so no row is built twice
    made = []
    real_init = dynamics.OrbitAutomaton.__init__

    def init(self, cs):
        made.append(cs)
        real_init(self, cs)

    monkeypatch.setattr(dynamics.OrbitAutomaton, "__init__", init)
    argv = ["scan-words", "-c", "-16,4", "-L", "10"]
    for extra in ([], ["--verbose"], ["--json"], ["--json", "--verbose"]):
        made.clear()
        code, _, _ = run(capsys, argv + extra)
        assert code == 0 and made == [(-16, 4)], extra


def test_terse_scan_words_builds_no_word_text(capsys, monkeypatch):
    argv = ["scan-words", "-c", "-4,-12", "-L", "3"]
    monkeypatch.setattr(cli, "join_certified_words",
                        lambda *a: pytest.fail("join_certified_words called"))
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == "14 words of length <= 3; 3 certified irreducible\n"


@pytest.mark.extended
def test_scan_words_at_the_word_budget_edge(capsys):
    # 2^20 - 2 = 1,048,574 words, the longest two-generator scan the budget admits
    results = dfs_scan_reference.__wrapped__(GeneratorSet.from_cs([-14, 40]), 19)
    certified = [w for w, v in results if v.certified]
    words = len(results)
    del results
    expected = "[" + ", ".join(str(_one_based(w)) for w in certified) + "]"
    del certified
    code, report_line, _ = run(capsys, ["scan-words", "-c", "-14,40", "-L", "19", "--json"])
    assert code == 0
    assert words == 1_048_574
    head = _without_timings(report_line)
    assert head.startswith('{"schema": "quadsemi-report/3", "command": "scan-words", '
                           '"inputs": {"cs": [-14, 40], "max_len": 19}, '
                           f'"verdicts": {{"words": {words}, "certified": ')
    assert head.endswith(f', "witnesses": {{"certified_words": {expected}}}')


@pytest.mark.extended
def test_scan_words_at_the_letter_budget_edge(capsys):
    # one generator to L = 6311, the longest scan the letter budget admits;
    # every entry of x^2 + 1's orbit, -1, 2, 5, 26, ..., is a nonsquare
    code, report_line, _ = run(capsys, ["scan-words", "-c", "1", "-L", "6311", "--json"])
    assert code == 0
    texts = ("[1" + ", 1" * (k - 1) + "]" for k in range(1, 6312))
    assert _without_timings(report_line) == (
        '{"schema": "quadsemi-report/3", "command": "scan-words", '
        '"inputs": {"cs": [1], "max_len": 6311}, '
        '"verdicts": {"words": 6311, "certified": 6311}, '
        f'"witnesses": {{"certified_words": [{", ".join(texts)}]}}')


def test_console_script_entry_point():
    exe = shutil.which("quadsemi")
    if exe is None:
        proc = subprocess.run(
            [sys.executable, "-m", "quadsemi", "orbit", "-c", "-4,-12", "-w", "2,1"],
            capture_output=True, text=True,
        )
    else:
        proc = subprocess.run(
            [exe, "orbit", "-c", "-4,-12", "-w", "2,1"],
            capture_output=True, text=True,
        )
    assert proc.returncode == 0
    assert "[12, 4]" in proc.stdout


def quadsemi_process(argv, **kwargs):
    """``python -m quadsemi *argv`` on this package, with stderr piped.

    Its stdout is block-buffered, as a console script's pipe is by default.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(quadsemi.__file__).parent.parent)
    return subprocess.Popen([sys.executable, "-m", "quadsemi", *argv],
                            stderr=subprocess.PIPE, env=env, **kwargs)


def test_reader_closing_the_pipe_early_gets_no_traceback():
    # about 290 KB of word lines, more than a pipe holds, so the write that
    # meets the closed pipe fails instead of finishing into the buffer
    with quadsemi_process(["scan-words", "-c", "-14,40", "-L", "12", "--verbose"],
                          stdout=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b"8190 words of length <= 12")
    assert b"Traceback" not in err and err == b""
    assert code == cli.EXIT_BROKEN_PIPE == 141


def test_short_report_into_a_closed_pipe_gets_no_traceback():
    # a short report waits in stdout's buffer and meets the closed pipe only
    # when flushed; what stays buffered must not fail again at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with quadsemi_process(["portrait", "-c", "-21"], stdout=write_end) as proc:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
    finally:
        os.close(write_end)
    assert err == b""
    assert code == cli.EXIT_BROKEN_PIPE


HELP_ARGV = [["--help"], ["--version"], ["scan-pairs", "-h"]]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_into_a_closed_pipe_gets_no_traceback(argv):
    # argparse prints and exits while parsing; the buffered text must not
    # fail again in the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with quadsemi_process(argv, stdout=write_end) as proc:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
    finally:
        os.close(write_end)
    assert b"Exception ignored" not in err and b"Traceback" not in err
    assert code == cli.EXIT_BROKEN_PIPE


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_into_an_open_pipe_is_argparse_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    _, code, out, _ = parse_outcome(capsys, lambda a: build_parser().parse_args(a), argv)
    with quadsemi_process(argv, stdout=subprocess.PIPE) as proc:
        text, err = proc.communicate(timeout=60)
    assert (proc.returncode, text.decode(), err) == (code, out, b"") and code == 0


@pytest.mark.parametrize("cs", ["1", "1,2"])
def test_scan_words_over_budget_exits_2_at_once(capsys, cs):
    start = time.perf_counter()
    code, out, err = run(capsys, ["scan-words", "-c", cs, "-L", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "more than 1048576 words" in err


def test_scan_words_negative_length_exits_2(capsys):
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["scan-words", "-c", "3", "-L", "-1"] + extra)
        assert (code, out, err) == (2, "", "error: max_len must be >= 0\n"), extra


def test_one_generator_scan_over_the_letter_budget_exits_2_at_once(capsys):
    # one million words, within the word budget, would hold 5 * 10^11 letters
    start = time.perf_counter()
    code, out, err = run(capsys, ["scan-words", "-c", "1", "-L", "1000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "letters (the scan budget)" in err


def test_cross_validate_over_the_scan_budget_exits_2_at_once(capsys):
    # 16 generators to length 5 make 1,118,480 words, over the 2^20 budget,
    # so no oracle call starts
    cs = ",".join(str(c) for c in range(1, 17))
    start = time.perf_counter()
    code, out, err = run(capsys, ["cross-validate", "-c", cs, "-L", "5"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "more than 1048576 words" in err
