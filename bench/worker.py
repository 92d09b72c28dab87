"""One measured run in a fresh interpreter: the closed item loop of a workload.

    python3 bench/worker.py --workload W --seed N --rounds K [--trace]
                            [--spans-out PATH]

A single client makes one call at a time: ``quadsemi.cli.main(argv +
["--json"])`` with stdout and stderr captured, then parses the report and
checks it against the reference in checks.py.  Only the call is timed.

The host's speed swings by tens of percent within seconds, which would
swamp any change in the code.  So while the items run, a timer samples the
speed (``Speedometer``), and each item's latency is scaled by
CALIBRATION_REF_S over the mean loop time sampled during and around it:
latencies are reported at the reference machine's speed.  Raw times are
kept next to them.  The last line on stdout is one JSON object with the
results; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


# Median time of calibration_loop on the reference machine (2-core x86 VM,
# in the faster of its speeds).
CALIBRATION_REF_S = 0.000283
SAMPLE_INTERVAL_S = 0.01
SAMPLE_WINDOW_S = 0.1  # samples this close to an item's ends count for it


def calibration_loop(n: int = 22) -> int:
    """Small-integer work like the package's inner loops: square tests on a grid.

    Interpreter-bound code like this tracks the host's speed drift in the
    package's own loops closely; it never calls the package, so a change to
    the package cannot change it.
    """
    hits = 0
    for s in range(-n, n + 1):
        a = s * s - s**4
        for t in range(-n, n + 1):
            v = t * t - a
            if v >= 0:
                r = math.isqrt(v)
                hits += r * r == v
    return hits


class Speedometer:
    """The host's speed over a run, sampled by a timer while the items run.

    Every SAMPLE_INTERVAL_S a SIGALRM handler times calibration_loop.  Wall
    time, not CPU time: it tracked the items' wall time better.  The loop is
    shorter than the interpreter's switch interval, so the CLI's pool
    threads rarely take the GIL in the middle of it.  The handler's time is
    kept in ``spent``, so that the caller can take it out of an item's
    latency.  Items of seconds get hundreds of samples from within them.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the end, loop time)
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self.spent += end - start

    def __enter__(self) -> "Speedometer":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def loop_time(self, start: float, end: float) -> float:
        """Mean loop time of the samples within SAMPLE_WINDOW_S of [start, end]."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(times, end + SAMPLE_WINDOW_S)
        near = [loop for _, loop in self.samples[lo:hi]]
        if not near:  # the timer was held up: take the closest sample
            near = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        return statistics.fmean(near)


def import_package():
    """Import quadsemi from this checkout's src/, never from anywhere else."""
    if not (SRC / "quadsemi" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import quadsemi
    import quadsemi.cli

    if Path(quadsemi.__file__).resolve().parent != SRC / "quadsemi":
        raise SystemExit(f"error: quadsemi imported from {quadsemi.__file__}, not {SRC}")
    return quadsemi


def call(cli, argv: list[str]) -> tuple[float, float, str, str | None]:
    """Run one CLI call; returns (start, end, captured stdout, failure kind or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--json"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an item's failure must never abort the run
        end = time.perf_counter()
        return start, end, out.getvalue(), f"exception:{type(exc).__name__}: {exc}"[:120]
    end = time.perf_counter()
    return start, end, out.getvalue(), (f"exit:{code}" if code else None)


def run_loop(cli, entries, workload: str, seed: int, rounds: int, tracer=None) -> dict:
    latencies: list[float] = []
    spans: list[tuple[float, float]] = []
    ids: list[str] = []
    failures: Counter = Counter()
    mismatches = 0
    report_bytes = nonzero_exits = exceptions = 0
    with Speedometer() as speed:
        for r in range(rounds):
            ctx: dict = {}
            for item in workloads.make_round(workload, seed, r, entries):
                token = tracer.begin_item(item["id"]) if tracer else None
                spent = speed.spent
                start, end, stdout, failure = call(cli, item["argv"])
                latencies.append(end - start - (speed.spent - spent))
                if tracer:
                    tracer.end_item(token)
                spans.append((start, end))
                ids.append(item["id"])
                report_bytes += len(stdout.encode())
                if failure is None:
                    try:
                        failure = checks.check(item, json.loads(stdout), ctx)
                    except json.JSONDecodeError:
                        failure = "unparsable report"
                    if failure is not None:
                        mismatches += 1
                        failure = f"check:{item['check']}: {failure}"[:120]
                elif failure.startswith("exit:"):
                    nonzero_exits += 1
                else:
                    exceptions += 1
                if failure is not None:
                    failures[failure] += 1
    loops = [speed.loop_time(a, b) for a, b in spans]
    return {
        "rounds": rounds,
        "latencies_s": latencies,
        "scaled_latencies_s": [lat * CALIBRATION_REF_S / loop
                               for lat, loop in zip(latencies, loops)],
        "calibration_s": statistics.median(loop for _, loop in speed.samples),
        "item_loop_s": loops,
        "speed_samples": speed.samples,
        "item_spans": spans,
        "item_ids": ids,
        "failures": dict(failures),
        "mismatches": mismatches,
        "client": {"report_bytes": report_bytes, "nonzero_exits": nonzero_exits,
                   "exceptions": exceptions},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    package = import_package()
    entries = [(e.id, tuple(sorted(e.techniques))) for e in package.registry()]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(package)
    try:
        result = run_loop(package.cli, entries, args.workload, args.seed, args.rounds,
                          tracer)
    finally:
        if tracer:
            tracer.restore()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["provenance"] = {
        "version": package.__version__,
        "registry_sha256": package.registry_checksum(),
        "python": platform.python_version(),
    }
    if tracer:
        info = package.portraits.preper_set.cache_info()
        result["per_layer"] = layer_metrics(tracer.totals(), (info.hits, info.misses),
                                            result["client"])
        result["spans"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            with args.spans_out.open("w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "item"), span))) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
