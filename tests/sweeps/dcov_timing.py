"""Time the distance-covariance permutation test at several sample sizes.

For each n it draws n standard normal rows in R^9 and times
`_independence_core` (set-up, observed statistic and B permuted
statistics, no report) with B = 199, taking the best of a few repeats,
and the same for one curtailed run, stopped where calibration stops it
(`_stop_count(0.05, 199)`).  One more full run under tracemalloc gives
the peak of the memory Python allocates, printed beside the times; it is
not timed, since tracing slows every allocation.  The sizes straddle the float32 cutover (2048 rows), so
both dtypes are timed.  BLAS is pinned to one thread the way the CLI pins
it for INVSPAN_THREADS=1, before numpy loads.

    PYTHONPATH=src python tests/sweeps/dcov_timing.py [--repeats 3] [--sizes 200 3000]

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

SIZES = (200, 1000, 2048, 2100, 3000, 5000)
PERMUTATIONS = 199
DIMENSION = 9
CURTAIL_STOP = mcs._stop_count(0.05, PERMUTATIONS)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    args = parser.parse_args()
    print(f"B = {PERMUTATIONS}, d = {DIMENSION}, best of {args.repeats}, numpy {np.__version__}")
    for n in args.sizes:
        rows = np.random.default_rng(n).standard_normal((n, DIMENSION))
        dtype = "float64" if n <= mcs._FLOAT32_CUTOVER else "float32"
        seconds = best_time(rows, args.repeats)
        curtailed = best_time(rows, args.repeats, CURTAIL_STOP)
        peak = traced_peak(rows) / 2**20
        print(
            f"n = {n:5d} ({dtype}): {seconds:.3f} s, curtailed at stop {CURTAIL_STOP} {curtailed * 1e3:.1f} ms,"
            f" tracemalloc peak {peak:.1f} MiB",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
