"""Benchmark entry point: one run of one workload, metrics as the last line.

    python3 bench/run.py --workload {audit,words,certify,crossval} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/ and never installed.  Each measured pass runs in a fresh
interpreter (bench/worker.py), so the package's caches start cold.  A run
executes a fixed number of rounds of items, sized so that it lasts about
--seconds on the reference machine (workloads.rounds).

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh interpreters importing quadsemi and loading the registry), items per
second of call time, median and tail item latency, the share of items that
did not fail, and the worker's peak resident memory.  Latencies are scaled
to the reference machine's speed (see worker.py); the unscaled values are
printed too.  --trace 1 runs half as many rounds twice, untraced and traced,
and prints the per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A full record (provenance,
failure tally, latencies) goes to bench/out/.  Exits 1 without a result
line when the package source is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from worker import CALIBRATION_REF_S  # noqa: E402

SETUP_SAMPLES = 7
# every child is killed and reaped by this many seconds after the start:
# a set-up allowance plus a multiple of --seconds (the host can run at
# half the reference speed or less, and a traced run makes two passes)
DEADLINE_BASE_S = 50
DEADLINE_PER_SECOND = 8
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import quadsemi\n"
    "quadsemi.registry()\n"
    "print(repr(time.perf_counter()))\n"
)


class BenchError(RuntimeError):
    pass


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the 11th-largest sample, at percentile 100 * (n - 10) / n.  With
    fewer than 11 samples, the largest one at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline passed")
    return left


def setup_seconds(deadline: float) -> float:
    """Median time from spawning an interpreter to quadsemi imported and registry loaded."""
    src = ROOT / "src"
    if not (src / "quadsemi" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src}")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):  # the first one also writes bytecode caches
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(src)],
                              capture_output=True, text=True, env=_env(),
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples[1:])


def worker(deadline: float, workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                          timeout=_remaining(deadline))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(res: dict, setup_s: float) -> tuple[dict, list[str]]:
    """Metrics from the latencies scaled to the reference machine's speed."""
    lat, raw = res["scaled_latencies_s"], res["latencies_s"]
    n = len(lat)
    failed = sum(res["failures"].values())
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    notes = [f"item_tail_ms is p{pct:.2f} of {n} items",
             f"fail_ratio = {failed}/{n} = {failed / n:.4f}",
             f"calibration loop {res['calibration_s'] * 1e3:.3f} ms here, "
             f"{CALIBRATION_REF_S * 1e3:.3f} ms on the reference machine; unscaled: "
             f"items_per_s {n / sum(raw):.6g}, item_p50_ms "
             f"{statistics.median(raw) * 1e3:.6g}, item_tail_ms {tail(raw)[0] * 1e3:.6g}"]
    return metrics, notes


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = {}
    for name, value in traced["per_layer"].items():
        metrics[name] = (value, _layer_unit(name))
    # scaled call times, so that a swing in the host's speed between the two
    # passes does not pass for tracing cost
    untraced_s = sum(untraced["scaled_latencies_s"])
    metrics["trace.overhead_s"] = (sum(traced["scaled_latencies_s"]) - untraced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.spans"] = (traced["spans"], "count")
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="quadsemi benchmark: one run of one workload")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_SECOND * args.seconds

    try:
        if args.trace:
            rounds = str(workloads.traced_rounds(args.workload, args.seconds))
            res = worker(deadline, args.workload, args.seed, "--rounds", rounds)
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            traced = worker(deadline, args.workload, args.seed, "--rounds", rounds,
                            "--trace", "--spans-out", str(spans))
            metrics = per_layer(res, traced)
            mismatches = res["mismatches"] + traced["mismatches"]
            notes = [f"{res['rounds']} rounds traced; spans in {spans.relative_to(ROOT)}"
                     f" ({traced['spans_dropped']} dropped past the cap)"]
            res = traced
        else:
            setup_s = setup_seconds(deadline)
            rounds = str(workloads.rounds(args.workload, args.seconds))
            res = worker(deadline, args.workload, args.seed, "--rounds", rounds)
            metrics, notes = end_to_end(res, setup_s)
            mismatches = res["mismatches"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(res["latencies_s"])
    failed = sum(res["failures"].values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**res["provenance"], "git_commit": git_commit(),
                       "nproc": os.cpu_count(), "seed": args.seed,
                       "sizes": workloads.sizes(args.workload),
                       "rounds": res["rounds"], "items": attempted},
        "failures": res["failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "calibration_s": res["calibration_s"],
        "speed_samples": res["speed_samples"],
        # per item: id, latency, scaled latency, loop time, start, end
        "items": [[item_id, lat, scaled, loop, start, end]
                  for item_id, lat, scaled, loop, (start, end) in zip(
                      res["item_ids"], res["latencies_s"], res["scaled_latencies_s"],
                      res["item_loop_s"], res["item_spans"])],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {res['rounds']} rounds, "
          f"{attempted} items, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for kind, count in sorted(res["failures"].items()):
        print(f"  failure x{count}: {kind}")
    print(f"  provenance: {json.dumps(record['provenance'])}")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
