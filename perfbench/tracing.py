"""Layer tracing from outside the program.

The tracer replaces each traced public function of invspan, in every invspan
module that binds it, with a wrapper.  Callers look functions up at call
time (``invariance_engine.numerical_rank`` is the ``lie_core`` function bound
in ``invariance_engine``), so replacing every binding sees every call.  Each
wrapped call becomes a span with its parent span and operation id; spans stay
in memory until the run writes them out.  Self time is a span's duration
minus the time of its direct children.

Functions traced for their call count alone (the per-vector flatten and
unflatten helpers) get a counting wrapper and no span.  Consecutive calls of
one childless function under the same parent are kept as one span record
with a call count, so a pass of about a million calls stays small in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "invariance_engine", "lie_core", "so3_irreps", "sphere_harmonics", "monte_carlo_stats")

MC_TESTS = (
    "energy_two_sample_test",
    "test_exchangeability",
    "test_rotational_invariance",
    "test_radial_angular_independence",
    "test_uniform_on_sphere",
    "test_gaussianity_1d",
)

# layer -> traced function -> per-function metrics (besides the extra counters below)
TRACED = {
    "cli": {"main": ("calls", "self_s")},
    "invariance_engine": {
        name: ("calls", "self_s")
        for name in ("verify_span", "accumulate_span", "decompose_so_n", "character_on_subspace", "block_form_check")
    },
    "lie_core": {
        "numerical_rank": ("calls", "s"),
        "conjugate_by_permutation": ("calls", "s"),
        "flatten_antisym": ("calls",),
        "unflatten_antisym": ("calls",),
    },
    "so3_irreps": {
        "build_generators": ("s",),
        "common_fixed_subspace_dim": ("s",),
        "rep_matrix_batch": ("calls", "s"),
    },
    "sphere_harmonics": {"sample_degree_block": ("calls", "s")},
    "monte_carlo_stats": {
        name: ("calls", "self_s") for name in MC_TESTS + ("orbit_walk_samples", "calibration_suite")
    },
}

# counters filled by observers or by the runner: name -> unit
COUNTERS = {
    "cli.report_bytes": "bytes",
    "invariance_engine.accumulate_span.rounds": "count",
    "lie_core.numerical_rank.rows": "count",
    "so3_irreps.rep_matrix_batch.matrices": "count",
    "monte_carlo_stats.draws": "count",
    "monte_carlo_stats.exceedances": "count",
    "monte_carlo_stats.distance_bytes_computed": "bytes",
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, functions in TRACED.items():
        for name, kinds in functions.items():
            for kind in kinds:
                units[f"{layer}.{name}.{kind}"] = _UNITS[kind]
    units.update(COUNTERS)
    units["monte_carlo_stats.exceedance_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.exceptions"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _row_count(vectors) -> int:
    shape = getattr(vectors, "shape", None)
    if shape is not None:
        return 1 if len(shape) < 2 else int(shape[0])
    return len(vectors) if hasattr(vectors, "__len__") else 0


def _observe_rank(tracer, bound, result):
    tracer.add("lie_core.numerical_rank.rows", _row_count(bound.arguments.get("vectors")))


def _observe_accumulate(tracer, bound, result):
    tracer.add("invariance_engine.accumulate_span.rounds", getattr(result[0], "rounds", 0))


def _observe_rep_batch(tracer, bound, result):
    tracer.add("so3_irreps.rep_matrix_batch.matrices", int(result.shape[0]))


def _exceedances(report: dict) -> int:
    """Draws at least as extreme as the observed statistic, read from a report."""
    b = report["n_permutations"]
    # the uniformity test reports its smaller component p-value as the statistic
    p = report["statistic"] if report["name"] == "uniform_on_sphere" else report["p_value"]
    return round(p * (b + 1)) - 1


def _pooled_rows(name: str, bound) -> list[int]:
    """Rows of each pairwise-distance matrix a test forms, from its inputs."""
    args = bound.arguments
    rows = _row_count(args.get("x"))
    if name == "energy_two_sample_test":
        return [rows + _row_count(args.get("y"))]
    if name in ("test_exchangeability", "test_rotational_invariance"):
        return [2 * rows] * int(args.get("n_rotations", 1))
    if name == "test_radial_angular_independence":
        return [rows]
    return []


def _mc_observer(name: str):
    def observe(tracer, bound, result):
        report = result.to_dict()
        tracer.add("monte_carlo_stats.draws", report["n_permutations"])
        tracer.add("monte_carlo_stats.exceedances", _exceedances(report))
        module = sys.modules["invspan.monte_carlo_stats"]
        cutover = getattr(module, "_FLOAT32_CUTOVER", math.inf)
        for rows in _pooled_rows(name, bound):
            tracer.add("monte_carlo_stats.distance_bytes_computed", rows * rows * (4 if rows > cutover else 8))

    return observe


OBSERVERS = {
    "lie_core.numerical_rank": _observe_rank,
    "invariance_engine.accumulate_span": _observe_accumulate,
    "so3_irreps.rep_matrix_batch": _observe_rep_batch,
    **{f"monte_carlo_stats.{name}": _mc_observer(name) for name in MC_TESTS},
}


class Tracer:
    """Wraps invspan's traced functions and records spans and counters."""

    def __init__(self):
        self.op = 0
        self.enabled = False
        self._patched = []  # (module, attribute, original)
        self._stack = []  # open spans: [name, id, start, child_time, child_count]
        self._next_id = 1
        self.reset()

    def reset(self) -> None:
        """Forget spans and counters; called between passes."""
        # [id, parent, op, name, start, end, self_s, calls, childless]
        self.spans = []
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.exclusive = defaultdict(float)
        self.counters = defaultdict(float)
        self.exceptions = defaultdict(int)
        self._raised = {}  # (layer, id(exc)) -> exc, kept alive so ids stay unique

    def add(self, counter: str, value: float) -> None:
        if self.enabled:
            self.counters[counter] += value

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"invspan.{layer}") for layer in LAYERS}
        bindings = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "invspan" and m]
        for layer, functions in TRACED.items():
            for fname, kinds in functions.items():
                original = getattr(modules[layer], fname, None)
                if original is None:
                    continue
                name = f"{layer}.{fname}"
                wrapper = self._count(name, original) if kinds == ("calls",) else self._span(name, original)
                for module in bindings:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _raised_from(self, layer: str, exc: BaseException) -> None:
        # an exception passing through several spans of one layer counts once
        if (layer, id(exc)) not in self._raised:
            self._raised[(layer, id(exc))] = exc
            self.exceptions[layer] += 1

    def _count(self, name: str, fn):
        tracer = self
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if tracer.enabled:
                    tracer._raised_from(layer, exc)
                raise

        return wrapper

    def _span(self, name: str, fn):
        tracer = self
        layer = name.split(".")[0]
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [name, tracer._next_id, 0.0, 0.0, 0]
            tracer._next_id += 1
            stack.append(frame)
            frame[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._raised_from(layer, exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, end, stack[-1] if stack else None)
            if observer is not None:
                observer(tracer, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _close(self, frame, end: float, parent) -> None:
        name, span_id, start, child_time, children = frame
        duration = end - start
        own = duration - child_time
        parent_id = None
        if parent is not None:
            parent[3] += duration
            parent[4] += 1
            parent_id = parent[1]
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.exclusive[name] += own
        last = self.spans[-1] if self.spans else None
        if (children == 0 and last is not None and last[8] and last[3] == name
                and last[1] == parent_id and last[2] == self.op):
            last[5] = end
            last[6] += own
            last[7] += 1
        else:
            self.spans.append([span_id, parent_id, self.op, name, start, end, own, 1, children == 0])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since reset()."""
        values = {}
        source = {"calls": self.calls, "s": self.inclusive, "self_s": self.exclusive}
        for layer, functions in TRACED.items():
            for fname, kinds in functions.items():
                for kind in kinds:
                    values[f"{layer}.{fname}.{kind}"] = source[kind][f"{layer}.{fname}"]
        for counter in COUNTERS:
            values[counter] = self.counters[counter]
        draws = self.counters["monte_carlo_stats.draws"]
        values["monte_carlo_stats.exceedance_ratio"] = (
            self.counters["monte_carlo_stats.exceedances"] / draws if draws else 0.0
        )
        for layer in LAYERS:
            values[f"{layer}.exceptions"] = self.exceptions[layer]
        values["trace.spans"] = sum(span[7] for span in self.spans)
        return values

    def write_spans(self, path, epoch: float) -> None:
        """Write the recorded spans as JSON lines, times relative to epoch.

        A record with calls > 1 stands for that many consecutive childless
        calls: start_s is the first one's start, end_s the last one's end and
        self_s their summed duration.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end, own, calls, _ in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start_s": start - epoch,
                    "end_s": end - epoch,
                    "self_s": own,
                    "calls": calls,
                }
                fh.write(json.dumps(record) + "\n")
