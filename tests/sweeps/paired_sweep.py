"""Time the paired energy tests at several sample sizes, or print their digests.

For each n it draws n standard normal rows in R^9 and times
`test_exchangeability` and `test_rotational_invariance` (one rotation
batch) with B = 199, taking the best of a few repeats.  One more run of
each under tracemalloc gives the peak of the memory Python allocates,
printed beside the times; it is not timed, since tracing slows every
allocation.  BLAS is pinned to one thread the way the CLI pins it for
INVSPAN_THREADS=1, before numpy loads.

With --digests nothing is timed: for each digest case it prints, for the
exchangeability and the rotation test, the observed statistic as
float.hex, the exceedance count and the p-value.  Two checkouts that
print the same lines score every case alike.  The cases are normal rows
at n from 100 to 3000 in d = 3, 6 and 9; the same rows rounded to halves
(rows tied within and across the two samples); rows of which a third
have equal coordinates and a tenth are zero (pairs with y_i == x_i in
the exchangeability and the rotation test); and rows that all have equal
coordinates (every exchangeability pair tied, statistic exactly 0).

    PYTHONPATH=src python tests/sweeps/paired_sweep.py [--repeats 3] [--sizes 1000 3000]
    PYTHONPATH=src python tests/sweeps/paired_sweep.py --digests

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

SIZES = (200, 1000, 3000, 6000)
PERMUTATIONS = 199
DIMENSION = 9
DIGEST_SIZES = (100, 101, 200, 257, 1000, 2049, 3000)
DIGEST_DIMENSIONS = (3, 6, 9)
TESTS = {"exchangeability": mcs._permuted_copy, "rotation": mcs._rotated_copy}


def best_time(rows, repeats: int) -> float:
    """Best time of the two tests run back to back."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        mcs.test_exchangeability(rows, PERMUTATIONS, 7)
        mcs.test_rotational_invariance(rows, 1, PERMUTATIONS, 8)
        best = min(best, time.perf_counter() - start)
    return best


def traced_peak(run) -> int:
    """Peak bytes Python allocates during run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def digest_cases():
    """(name, rows) for every digest case."""
    for n in DIGEST_SIZES:
        for d in DIGEST_DIMENSIONS:
            rows = np.random.default_rng(1000 * n + d).standard_normal((n, d))
            yield f"normal n={n} d={d}", rows
            yield f"halves n={n} d={d}", np.round(2.0 * rows) / 2.0
            tied = rows.copy()
            tied[::3] = tied[::3, :1]
            tied[1::10] = 0.0
            yield f"pair ties n={n} d={d}", tied
    for n in DIGEST_SIZES[::2]:
        yield f"equal coordinates n={n}", np.repeat(np.random.default_rng(n).standard_normal((n, 1)), 4, axis=1)


def print_digests() -> None:
    print(f"B = {PERMUTATIONS}, numpy {np.__version__}")
    for name, rows in digest_cases():
        for seed, (test, partner) in enumerate(TESTS.items(), 7):
            observed, counts, used = mcs._paired_core(rows, partner, 1, PERMUTATIONS, seed)
            p_value = mcs._p_value(counts[0], used)
            print(f"{name} {test}: {float(observed[0]).hex()} exceedances {counts[0]} p {p_value}", flush=True)


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
        exchange = traced_peak(lambda: mcs.test_exchangeability(rows, PERMUTATIONS, 7)) / 2**20
        rotation = traced_peak(lambda: mcs.test_rotational_invariance(rows, 1, PERMUTATIONS, 8)) / 2**20
        print(
            f"n = {n:5d}: {seconds:.3f} s for both, tracemalloc peak {exchange:.2f} MiB (exchangeability),"
            f" {rotation:.2f} MiB (rotation)",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
