import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadsemi
from quadsemi.cli import build_parser, main
from quadsemi.diophantine import registry_checksum, registry_path

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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_lemma_requires_id_or_all():
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", "case1.1", "--all"])
    assert exc.value.code == 2


def test_verify_lemma_single(capsys):
    code, report = run_json(capsys, ["verify-lemma", "case1.1", "--bound", "20"])
    assert code == 0
    assert report["verdicts"] == {"all_matched": True, "matched": 1, "total": 1}


def test_verify_lemma_all(capsys):
    code, report = run_json(capsys, ["verify-lemma", "--all", "--bound", "20"])
    assert code == 0
    assert report["verdicts"] == {"all_matched": True, "matched": 48, "total": 48}
    assert len(report["witnesses"]["results"]) == 48


def test_verify_lemma_mismatch_exits_1(capsys, tmp_path, monkeypatch):
    target = tmp_path / "registry.json"
    doc = json.loads(Path(registry_path()).read_text())
    for rec in doc["entries"]:
        if rec["id"] == "case1.1":
            rec["solutions"] = rec["solutions"][:-1]  # drop the parametric family
    target.write_text(json.dumps(doc))
    bundled_sha256 = registry_checksum()
    monkeypatch.setenv("QUADSEMI_REGISTRY", str(target))
    code, report = run_json(capsys, ["verify-lemma", "case1.1", "--bound", "10"])
    assert code == 1
    assert report["inputs"]["registry"] == {
        "source": "env", "sha256": registry_checksum(str(target))}
    assert report["inputs"]["registry"]["sha256"] != bundled_sha256
    assert report["verdicts"]["all_matched"] is False
    rows = report["witnesses"]["results"]
    assert rows[0]["extra"] and not rows[0]["missing"]


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


def test_construct_prefix(capsys):
    code, report = run_json(capsys, ["construct-prefix", "-c", "-12,-21,-4"])
    assert code == 0
    v = report["verdicts"]
    assert v["shape"] == "three-letter" and v["outer_c"] == -12
    assert v["prefix_word"][: v["n_iterate"]] == [1] * v["n_iterate"]

    code, _, err = run(capsys, ["construct-prefix", "-c", "-4,-9"])
    assert code == 2 and "irreducible" in err


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
        "factor_searches": 7, "modular_factors_max": 3,
        "subsets_tried": 11, "exact_divisions": 7,
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


def test_heights_cli_degenerate_constant(capsys):
    code, _, err = run(capsys, ["heights", "-c", "0"])
    assert code == 2 and "outside {0, -1}" in err


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
