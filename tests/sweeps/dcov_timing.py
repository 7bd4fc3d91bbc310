"""Time the distance-covariance permutation test at several sample sizes.

For each n it draws n standard normal rows in R^9 and times
`_independence_core` (set-up, observed statistic and B permuted
statistics, no report) with B = 199, taking the best of a few repeats,
and the same for one curtailed run, stopped where calibration stops it
(`_stop_count(0.05, 199)`).  One more full run under tracemalloc gives
the peak of the memory Python allocates, printed beside the times; it is
not timed, since tracing slows every allocation.  BLAS is pinned to one
thread the way the CLI pins it for INVSPAN_THREADS=1, before numpy loads.

With --digests nothing is timed: for each digest case it prints the
observed statistic as float.hex, the exceedance count and the draws
scored, for the public run and for runs curtailed at stop 1 and 5.  Two
checkouts that print the same lines score every case bit for bit alike.
The cases are normal rows in R^9 at even and odd n from 100 to 3000, 120
rows on 24 directions with one row repeated (tied directions), 120 rows
of norm exactly 3 (constant radii), and 1000 rows of the `constant` law
at degree 2 (radii equal only up to rounding).

    PYTHONPATH=src python tests/sweeps/dcov_timing.py [--repeats 3] [--sizes 200 3000]
    PYTHONPATH=src python tests/sweeps/dcov_timing.py --digests

pytest does not collect this file.
"""

import argparse
import os
import sys
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from invspan import monte_carlo_stats as mcs  # noqa: E402
from invspan.sphere_harmonics import sample_degree_block  # noqa: E402

SIZES = (200, 1000, 2048, 2100, 3000, 5000)
PERMUTATIONS = 199
DIMENSION = 9
CURTAIL_STOP = mcs._stop_count(0.05, PERMUTATIONS)
DIGEST_SIZES = (100, 101, 200, 257, 1000, 2048, 2049, 3000)
DIGEST_STOPS = (None, 1, 5)


def best_time(rows, repeats: int, stop=None) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        mcs._independence_core(rows, PERMUTATIONS, 7, stop)
        best = min(best, time.perf_counter() - start)
    return best


def traced_peak(rows) -> int:
    """Peak bytes Python allocates during one run."""
    tracemalloc.start()
    try:
        mcs._independence_core(rows, PERMUTATIONS, 7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def digest_cases():
    """(name, rows) for every digest case."""
    for n in DIGEST_SIZES:
        yield f"normal n={n}", np.random.default_rng(n).standard_normal((n, DIMENSION))
    rng = np.random.default_rng(24)
    directions = rng.standard_normal((24, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    tied = directions[np.arange(120) % 24] * rng.uniform(1.0, 2.0, (120, 1))
    tied[119] = tied[0]
    yield "tied directions n=120", tied
    # the signed permutations of (1, 2, 2) all have norm exactly 3
    signs = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])
    base = np.concatenate([signs * np.roll([1.0, 2.0, 2.0], k) for k in range(3)])
    yield "constant radii n=120", np.tile(base, (5, 1))
    yield "constant law n=1000", sample_degree_block(2, 1.0, "constant", 1000, 1000)


def print_digests() -> None:
    print(f"B = {PERMUTATIONS}, numpy {np.__version__}")
    for name, rows in digest_cases():
        for stop in DIGEST_STOPS:
            statistic, counts, used = mcs._independence_core(rows, PERMUTATIONS, 7, stop)
            run = "public" if stop is None else f"stop {stop}"
            print(f"{name} {run}: {float(statistic).hex()} counts {counts.tolist()} draws {used}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--digests", action="store_true", help="print each case's statistic and counts, untimed")
    args = parser.parse_args()
    if args.digests:
        print_digests()
        return 0
    print(f"B = {PERMUTATIONS}, d = {DIMENSION}, best of {args.repeats}, numpy {np.__version__}")
    for n in args.sizes:
        rows = np.random.default_rng(n).standard_normal((n, DIMENSION))
        seconds = best_time(rows, args.repeats)
        curtailed = best_time(rows, args.repeats, CURTAIL_STOP)
        peak = traced_peak(rows) / 2**20
        print(
            f"n = {n:5d}: {seconds:.3f} s, curtailed at stop {CURTAIL_STOP} {curtailed * 1e3:.1f} ms,"
            f" tracemalloc peak {peak:.1f} MiB",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
