"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py --runs 10 [--workloads certify,theorem2_null] \
        [--label a] [--compare .perfbench_out/steadiness-b.json]

Runs run.py --trace 0 once per seed (seeds 1 .. runs) for each workload,
each in a fresh process.  For every end-to-end metric it
prints the median of the values and their spread, (q3 - q1) / median with
the quartiles of statistics.quantiles(values, n=4), next to the metric's
bound in BENCHMARK.json.  A spread above the bound fails; one above a third
of the bound is flagged.  With --compare, each median must
also be no worse than the other set's by more than the bound, and every
run's output digest must match the other set's run with the same seed.
The summary is written to .perfbench_out/steadiness-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "aggregate_sha256": record["aggregate_sha256"],
    }


def _worse(new: float, old: float, better: str) -> float:
    """Share by which new is worse than old (negative when better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all in BENCHMARK.json")
    parser.add_argument("--label", default="a")
    parser.add_argument("--compare", default=None, help="summary of another set to compare against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    other = json.loads(Path(args.compare).read_text()) if args.compare else {}

    ok = True
    summary = {}
    for workload in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(_run(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        stats = {}
        for name, m in metrics.items():
            values = [r["metrics"][name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"median": median, "spread": (q3 - q1) / median, "bound": m["bound"]}
        summary[workload] = {"runs": runs, "stats": stats}
        for run in runs:
            if not run["correct"]:
                ok = False
                print(f"  FAIL {workload} seed {run['seed']}: {run['failed']} of {run['attempted']} failed")
        for name, s in stats.items():
            flag = "ok"
            if s["spread"] > s["bound"] / 3:
                flag = "above a third of the bound"
            if s["spread"] > s["bound"]:
                flag, ok = "ABOVE THE BOUND", False
            line = f"  {workload:<15} {name:<12} median {s['median']:<12.6g} spread {s['spread']:.4f} bound {s['bound']}"
            if workload in other:
                then = other[workload]["stats"][name]["median"]
                change = _worse(s["median"], then, metrics[name]["better"])
                line += f" vs other median {then:.6g} ({change:+.4f})"
                if change > s["bound"]:
                    flag, ok = "MEDIAN WORSE THAN THE BOUND", False
            print(f"{line}: {flag}")
        if workload in other:
            theirs = {r["seed"]: r["aggregate_sha256"] for r in other[workload]["runs"]}
            for run in runs:
                if run["seed"] in theirs and theirs[run["seed"]] != run["aggregate_sha256"]:
                    ok = False
                    print(f"  DIGEST MISMATCH {workload} seed {run['seed']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steadiness-{args.label}.json").write_text(json.dumps(summary, indent=2) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
