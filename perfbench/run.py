"""Run one invspan benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload certify [--seed 1729] [--seconds 24] [--trace 0]
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

A run repeats the workload's fixed list of operations (a pass) while another
pass still fits in --seconds, and always runs at least three.  With --trace 0
it reports the end-to-end metrics: setup_s is the median of at least fifteen
fresh-process set-ups (setup_probe.py), five in each pass spread evenly between its
operations, so that they sample the whole run; wall_s and cpu_s are the time of one pass, each
operation's median over the passes summed; peak_rss_mb is the process
high-water mark.  BLAS threads are pinned before numpy loads.  With --trace 1
it alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (tracing.py), plus trace.overhead_s, traced minus untraced
wall time of a pass.  End-to-end numbers come only from untraced runs.

Every output is checked (checks.py) and digested with sha256; an output
that changes between passes counts as a failure.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Machine details, per-operation digests and random-event counts
go to .perfbench_out/<workload>-seed<seed>-trace<t>.json, and a traced run
writes the spans of its last traced pass to
.perfbench_out/<workload>-seed<seed>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "invspan" / "schemas" / "reports.schema.json"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify", "theorem2_null", "theorem2_alt", "calibrate_walk")
DEFAULT_SEED = 1729  # the CLI's default seed
DEFAULT_SECONDS = 24
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 5
# One BLAS thread was as fast as two on a 2-core machine, and is never more than nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "INVSPAN_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    traced: bool
    op_wall_s: list[float] = field(default_factory=list)
    op_cpu_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    events: dict[str, list[int]] = field(default_factory=dict)
    exit_codes: list[int | None] = field(default_factory=list)
    layer_metrics: dict[str, float] = field(default_factory=dict)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _measure_setup(seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(seed)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _run_pass(ops, tracer, probe=None) -> PassResult:
    """Run and check every operation once; with probe, also measure set-up.

    The set-up probes run between operations, spread evenly over the pass,
    so that a slow spell of the machine does not catch all of them at once.
    """
    result = PassResult(traced=tracer is not None)
    probes_after = collections.Counter(
        k * len(ops) // SETUP_PROBES_PER_PASS for k in range(SETUP_PROBES_PER_PASS)
    ) if probe is not None else {}
    if tracer is not None:
        tracer.reset()
        tracer.install()
        tracer.enabled = True
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                outcome = op.run()
            except Exception as exc:  # a crashing operation is a failure, not the end of the run
                outcome = None
                problem = f"raised {exc!r}"
            result.op_wall_s.append(time.perf_counter() - wall0)
            result.op_cpu_s.append(time.process_time() - cpu0)
            if outcome is None:
                result.digests.append("")
                result.exit_codes.append(None)
                result.problems.append([problem])
            else:
                _record(result, op, outcome, tracer)
            result.setup_s += [probe() for _ in range(probes_after.get(index, 0))]
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    if tracer is not None:
        result.layer_metrics = tracer.metrics()
    return result


def _record(result: PassResult, op, outcome, tracer) -> None:
    if tracer is not None and outcome.exit_code is not None:
        tracer.add("cli.report_bytes", len(outcome.text.encode()))
    verdict = op.check(outcome)
    result.digests.append(hashlib.sha256(outcome.text.encode()).hexdigest())
    result.exit_codes.append(outcome.exit_code)
    result.problems.append(verdict.problems)
    for name, (count, base) in verdict.events.items():
        totals = result.events.setdefault(name, [0, 0])
        totals[0] += count
        totals[1] += base


def _sum_of_medians(passes: list[PassResult], attribute: str) -> float:
    """Time of one pass: each operation's median over the passes, summed."""
    per_op = zip(*(getattr(p, attribute) for p in passes))
    return sum(statistics.median(times) for times in per_op)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # Pin BLAS threads before numpy is first imported (by the modules below).
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path[:0] = [str(ROOT), str(SRC)]

    from perfbench import checks, machine, tracing, workloads

    import invspan

    if Path(invspan.__file__).resolve().parent != (SRC / "invspan").resolve():
        raise RuntimeError(f"imported invspan from {invspan.__file__}, not from {SRC}")
    for layer in tracing.LAYERS:
        importlib.import_module(f"invspan.{layer}")

    ops = workloads.OPERATIONS[name](seed, checks.Schema(SCHEMA))
    tracer = tracing.Tracer() if trace else None
    probe = None if trace else functools.partial(_measure_setup, seed)
    passes: list[PassResult] = []
    epoch = start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(_run_pass(ops, tracer if traced else None, probe))
        took = time.perf_counter() - pass_start
        both_kinds = len({p.traced for p in passes}) == 2
        enough = len(passes) >= MIN_PASSES and (both_kinds or not trace)
        if enough and time.perf_counter() - start + took > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples = [s for p in passes for s in p.setup_s]

    first = passes[0]
    failed = 0
    problems = []
    for p in passes:
        for op, digest, reference, found in zip(ops, p.digests, first.digests, p.problems):
            if digest != reference:
                found = found + ["output differs from the first pass"]
            failed += bool(found)
            problems.extend(f"{op.name}: {msg}" for msg in found)
    attempted = len(ops) * len(passes)
    aggregate = hashlib.sha256("\n".join(first.digests).encode()).hexdigest()

    untraced = [p for p in passes if not p.traced]
    wall_s = _sum_of_medians(untraced, "op_wall_s")
    if trace:
        traced_passes = [p for p in passes if p.traced]
        units = tracing.metric_units()
        values = {k: statistics.median(p.layer_metrics[k] for p in traced_passes) for k in units if k != "trace.overhead_s"}
        values["trace.overhead_s"] = _sum_of_medians(traced_passes, "op_wall_s") - wall_s
        metrics = {k: _metric(values[k], units[k]) for k in units}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "cpu_s": _sum_of_medians(untraced, "op_cpu_s"),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}

    info = machine.describe(BLAS_THREADS)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": info,
        "working_set_bytes": workloads.working_set_bytes(name),
        "l3_bytes": info["caches_bytes"].get("L3"),
        "setup_samples_s": setup_samples,
        "passes": [{"traced": p.traced, "wall_s": sum(p.op_wall_s), "cpu_s": sum(p.op_cpu_s)} for p in passes],
        "operations": [
            {"name": op.name, "exit_code": code, "sha256": digest}
            for op, code, digest in zip(ops, first.exit_codes, first.digests)
        ],
        "aggregate_sha256": aggregate,
        "random_events": {k: {"count": c, "base": b} for k, (c, b) in first.events.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}"
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl", epoch)

    print(f"workload {name} seed {seed} trace {int(trace)}: {len(passes)} passes of {len(ops)} operations")
    for key, entry in metrics.items():
        print(f"  {key:<58} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'fail_rate':<58} {failed / attempted:>14.6g} ratio ({failed} failed / {attempted} attempted)")
    for event, (count, base) in first.events.items():
        print(f"  {event:<58} {count:>14d} of {base} (random, not a failure)")
    print(f"  working set {record['working_set_bytes']} bytes computed, L3 {record['l3_bytes']} bytes")
    print(f"  outputs sha256 {aggregate}")
    for line in problems[:10]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in its own fresh process."""
    rows = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            rows[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':<16}{'setup_s':>10}{'wall_s':>10}{'cpu_s':>10}{'peak_rss_mb':>13}"
          f"{'fail_rate':>11}{'trace_overhead_s':>18}")
    summary = {}
    for name in WORKLOADS:
        plain, traced = rows[(name, 0)], rows[(name, 1)]
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        m["fail_rate"] = plain["failed"] / plain["attempted"]
        m["trace_overhead_s"] = traced["metrics"]["trace.overhead_s"]["value"]
        summary[name] = {"correct": plain["correct"] and traced["correct"], **m}
        print(f"{name:<16}{m['setup_s']:>10.3f}{m['wall_s']:>10.3f}{m['cpu_s']:>10.3f}{m['peak_rss_mb']:>13.1f}"
              f"{m['fail_rate']:>11.3g}{m['trace_overhead_s']:>18.3f}")
    print("units: setup_s, wall_s, cpu_s and trace_overhead_s in s; peak_rss_mb in MB; fail_rate failed/attempted")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invspan" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: no invspan source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
