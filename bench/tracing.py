"""Traced runs: wrappers around the package's public functions, from outside it.

``Tracer.install`` rebinds every public function that ``quadsemi/__init__.py``
re-exports, plus ``cli.main`` and ``arith.positive_divisors``, in every
quadsemi module that holds a reference to it; ``restore`` puts the originals
back.  Two kinds of wrapper:

* frames, for calls that are few per item: duration and self time per
  function and per layer, and a span (name, start, end, parent, item) for
  each call that enters a layer from another one;
* leaves, for hot calls such as ``is_perfect_square``: a call counter and
  busy time per category, no span.

Self time is a frame's duration minus the time its children cover: child
frames, plus leaf calls made directly from it.  The CLI's default thread
pool calls back into the package from worker threads; such calls count as
children of the client thread's innermost frame, and their overlapping
intervals are merged before subtracting.  Counters are kept per thread and
summed at the end, so counts never lose updates.  Layers are the package
modules.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

SPAN_CAP = 200_000

# qualified name -> leaf category; every other wrapped function is a frame.
# The categories other than "other" feed the per-layer metrics.  The "other"
# leaves feed none; they are leaves, not frames, because a frame would be
# wrong or too dear there:
# * floor_sqrt, recognize_square_periodic and rational_periodic_points run
#   inside the preper_set leaf, where a frame's time would be subtracted from
#   its caller's self time twice; called from exceptional frames once per
#   pair test, a leaf also keeps their time out of exceptional.self_s
#   without recording a span per call;
# * naive_height runs inside the canonical_height leaf, as above;
# * registry_path is called by cli.main; a leaf keeps it out of cli.self_s.
LEAVES = {
    "quadsemi.arith.is_perfect_square": "square",
    "quadsemi.arith.positive_divisors": "divisor",
    "quadsemi.arith.divisor_pairs": "divisor",
    "quadsemi.arith.residue_search": "residue",
    "quadsemi.dynamics.stability_certificate": "certificate",
    "quadsemi.heights.canonical_height": "canonical_height",
    "quadsemi.portraits.preper_set": "preper",
    "quadsemi.arith.floor_sqrt": "other",
    "quadsemi.portraits.recognize_square_periodic": "other",
    "quadsemi.portraits.rational_periodic_points": "other",
    "quadsemi.heights.naive_height": "other",
    "quadsemi.diophantine.registry_path": "other",
}
EXTRA_TARGETS = ("quadsemi.cli.main", "quadsemi.arith.positive_divisors")


def _qualname(fn) -> str:
    return f"{fn.__module__}.{fn.__name__}"


def public_targets(package) -> dict[str, object]:
    """Qualified name -> original object, for every function the tracer wraps."""
    targets = {}
    for name in dir(package):
        obj = getattr(package, name)
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", "").startswith(package.__name__ + "."):
            targets[_qualname(obj)] = obj
    for qual in EXTRA_TARGETS:
        module, _, name = qual.rpartition(".")
        targets[qual] = getattr(sys.modules[module], name)
    return targets


class _Frame:
    __slots__ = ("name", "layer", "start", "child_s", "child_leaf", "leaf_mark",
                 "foreign", "span_id", "span_ref", "recorded")

    def __init__(self, name, layer, start, leaf_mark):
        self.name, self.layer, self.start = name, layer, start
        self.child_s = 0.0     # own-thread child frames
        self.child_leaf = 0.0  # leaf time inside those child frames
        self.leaf_mark = leaf_mark
        self.foreign = []      # (start, end) of children run in other threads


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.leaf_depth = 0
        self.leaf_total = 0.0  # outermost leaf time in this thread
        self.active: set[str] = set()
        self.leaf = defaultdict(lambda: [0, 0.0, 0, 0])  # calls, busy, hits, bits
        self.square = self.leaf["square"]
        self.fn = defaultdict(lambda: [0, 0.0, 0.0])     # calls, total, self
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.item: str | None = None

    # --- thread state ------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            self._states.append(st)
            return st

    def _foreign_parent(self) -> _Frame | None:
        main = self._main
        return main.stack[-1] if main is not None and main.stack else None

    # --- frames ------------------------------------------------------------

    def _open(self, st: _ThreadState, name: str, layer: str) -> tuple[_Frame, _Frame | None]:
        parent = st.stack[-1] if st.stack else self._foreign_parent()
        frame = _Frame(name, layer, self.clock(), st.leaf_total)
        frame.recorded = parent is None or parent.layer != layer
        frame.span_id = next(self._ids) if frame.recorded else None
        inherited = parent.span_ref if parent is not None else None
        frame.span_ref = frame.span_id if frame.recorded else inherited
        st.stack.append(frame)
        return frame, parent

    def _close(self, st: _ThreadState, frame: _Frame, parent: _Frame | None) -> None:
        end = self.clock()
        st.stack.pop()
        duration = end - frame.start
        leaf_in = st.leaf_total - frame.leaf_mark
        covered = frame.child_s + (leaf_in - frame.child_leaf) + _covered(frame.foreign)
        self_s = max(0.0, duration - covered)
        rec = st.fn[frame.name]
        rec[0] += 1
        rec[1] += duration
        rec[2] += self_s
        st.layer_self[frame.layer] += self_s
        if parent is not None:
            if st.stack and st.stack[-1] is parent:
                parent.child_s += duration
                parent.child_leaf += leaf_in
            else:
                parent.foreign.append((frame.start, end))
        if frame.recorded:
            if len(self.spans) < SPAN_CAP:
                parent_span = parent.span_ref if parent is not None else None
                self.spans.append((frame.span_id, frame.name, frame.start, end,
                                   parent_span, self.item))
            else:
                self.dropped += 1

    def _frame_wrapper(self, fn, name: str, layer: str):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame, parent = tracer._open(st, name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                st.counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(st, frame, parent)
            if name == "quadsemi.dynamics.scan_words":
                st.counts["words_visited"] += len(result)
            elif name == "quadsemi.oracle.is_irreducible_exact" and result is False:
                st.counts["factor_found"] += 1
            return result

        return wrapper

    def _leaf_done(self, st: _ThreadState, start: float, end: float) -> None:
        """Charge an outermost leaf call to the frame that made it."""
        if st.stack:
            st.leaf_total += end - start
        else:
            parent = self._foreign_parent()
            if parent is not None:
                parent.foreign.append((start, end))

    def _leaf_wrapper(self, fn, category: str):
        tracer = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            st = tracer._state()
            outer = st.leaf_depth == 0
            first = category not in st.active
            st.leaf_depth += 1
            if first:
                st.active.add(category)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                st.leaf_depth -= 1
                rec = st.leaf[category]
                rec[0] += 1
                if first:
                    st.active.discard(category)
                    rec[1] += end - start
                if outer:
                    tracer._leaf_done(st, start, end)

        return wrapper

    def _square_wrapper(self, fn):
        """The leaf wrapper specialised for is_perfect_square, called ~10^7 times.

        It skips the generic wrapper's category bookkeeping, which cut a
        traced audit round from 21 s to 17 s (4.8 s untraced).
        """
        tracer = self
        clock = self.clock
        local = self._local

        def wrapper(n):
            try:
                st = local.st
            except AttributeError:
                st = tracer._state()
            st.leaf_depth += 1
            start = clock()
            try:
                root = fn(n)
            finally:
                end = clock()
                st.leaf_depth -= 1
            rec = st.square
            rec[0] += 1
            rec[1] += end - start
            rec[3] += n.bit_length()
            if root is not None:
                rec[2] += 1
            if not st.leaf_depth:
                if st.stack:
                    st.leaf_total += end - start
                else:
                    tracer._leaf_done(st, start, end)
            return root

        return wrapper

    # --- items -------------------------------------------------------------

    def begin_item(self, item_id: str):
        """Open the client-side span of one item; returns a token for end_item."""
        self.item = item_id
        return self._open(self._state(), "item", "client")

    def end_item(self, token) -> None:
        frame, parent = token
        self._close(self._state(), frame, parent)
        self.item = None

    # --- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target and rebind it wherever a quadsemi module refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main = self._state()
        wrappers = {}
        for qual, obj in public_targets(package).items():
            layer = qual.split(".")[1]
            if qual == "quadsemi.arith.is_perfect_square":
                wrappers[id(obj)] = self._square_wrapper(obj)
            elif qual in LEAVES:
                wrappers[id(obj)] = self._leaf_wrapper(obj, LEAVES[qual])
            else:
                wrappers[id(obj)] = self._frame_wrapper(obj, qual, layer)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package.__name__
                                      or modname.startswith(package.__name__ + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per-thread counters summed: leaf, fn, layer_self and counts tables."""
        leaf = defaultdict(lambda: [0, 0.0, 0, 0])
        fn = defaultdict(lambda: [0, 0.0, 0.0])
        layer_self = defaultdict(float)
        counts = defaultdict(int)
        for st in self._states:
            for key, rec in st.leaf.items():
                leaf[key] = [a + b for a, b in zip(leaf[key], rec)]
            for key, rec in st.fn.items():
                fn[key] = [a + b for a, b in zip(fn[key], rec)]
            for key, value in st.layer_self.items():
                layer_self[key] += value
            for key, value in st.counts.items():
                counts[key] += value
        return {"leaf": leaf, "fn": fn, "layer_self": layer_self, "counts": counts}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, preper_cache: tuple[int, int], client: dict) -> dict:
    """Per-layer metric name -> value.

    ``preper_cache`` is (hits, misses) from ``preper_set.cache_info()``;
    ``client`` holds what the item loop measured: report_bytes,
    nonzero_exits and exceptions.  A layer the workload never enters
    reads 0.
    """
    leaf, fn, counts = totals["leaf"], totals["fn"], totals["counts"]

    def dur(name):
        return fn[f"quadsemi.{name}"][1]

    def self_s(name):
        return fn[f"quadsemi.{name}"][2]

    square = leaf["square"]
    tests = fn["quadsemi.oracle.is_irreducible_exact"][0]
    hits, misses = preper_cache
    return {
        "arith.square_tests": square[0],
        "arith.square_hit_ratio": _ratio(square[2], square[0]),
        "arith.square_test_s": square[1],
        "arith.square_test_bits": _ratio(square[3], square[0]),
        "arith.residue_search_s": leaf["residue"][1],
        "arith.divisor_s": leaf["divisor"][1],
        "diophantine.solve_s": dur("diophantine.solve_system_bounded"),
        "diophantine.solve_self_s": self_s("diophantine.solve_system_bounded"),
        "diophantine.registry_loads": fn["quadsemi.diophantine.registry"][0],
        "diophantine.registry_load_s": dur("diophantine.registry"),
        "diophantine.obstruction_s": dur("diophantine.modular_obstruction"),
        "diophantine.curve_points_s": dur("diophantine.quartic_curve_points"),
        "dynamics.scan_s": dur("dynamics.scan_words"),
        "dynamics.scan_self_s": self_s("dynamics.scan_words"),
        "dynamics.words_visited": counts["words_visited"],
        "dynamics.mc_s": dur("dynamics.monte_carlo_stability"),
        "dynamics.mc_self_s": self_s("dynamics.monte_carlo_stability"),
        "dynamics.certificates": leaf["certificate"][0],
        "dynamics.compose_s": dur("dynamics.compose_word"),
        "portraits.preper_calls": leaf["preper"][0],
        "portraits.preper_cache_hit_ratio": _ratio(hits, hits + misses),
        "portraits.preper_s": leaf["preper"][1],
        "heights.iterate_bound_s": dur("heights.compute_iterate_bound"),
        "heights.canonical_height_calls": leaf["canonical_height"][0],
        "heights.canonical_height_s": leaf["canonical_height"][1],
        "heights.integral_points_s": dur("heights.integral_points_on_phi2"),
        "exceptional.pair_tests": fn["quadsemi.exceptional.is_exceptional_pair"][0],
        "exceptional.scan_pairs_s": dur("exceptional.scan_exceptional_pairs"),
        "exceptional.prefix_s": dur("exceptional.construct_irreducible_prefix"),
        "exceptional.self_s": totals["layer_self"]["exceptional"],
        "oracle.irreducibility_tests": tests,
        "oracle.test_s": dur("oracle.is_irreducible_exact"),
        "oracle.factor_found_ratio": _ratio(counts["factor_found"], tests),
        "oracle.budget_exhausted": counts["quadsemi.oracle.is_irreducible_exact:RuntimeError"],
        "oracle.cross_validate_s": dur("oracle.cross_validate"),
        "cli.calls": fn["quadsemi.cli.main"][0],
        "cli.self_s": totals["layer_self"]["cli"],
        "cli.report_bytes": client["report_bytes"],
        "cli.nonzero_exits": client["nonzero_exits"],
        "cli.exceptions": client["exceptions"],
    }
