"""Compare curtailed and full Monte Carlo decisions over a grid of cases.

Each case draws data for one of the three chunked tests (distance
covariance, uniformity, Gaussianity) at one of three strengths (null, a
mild and a strong departure), runs the public test, which draws all B,
and the test's core curtailed at its stop count, and compares the two
decisions.  It prints every mismatch, and per test the cases that stopped
early and the share of draws saved.  The grid is seeds x alpha x B x test.

    PYTHONPATH=src python tests/sweeps/curtail_sweep.py [--seeds 60]

It exits 1 if any decision differs.  pytest does not collect this file;
the decision oracle in tests/test_monte_carlo_stats.py draws its cases
from TESTS and case_data.
"""

import argparse
import sys
import time

import numpy as np

from invspan import monte_carlo_stats as mcs

ALPHAS = (0.005, 0.01, 0.05, 0.2)
DRAWS = (99, 199, 299)


def case_data(kind, strength, rng):
    """Data for one test; strength 0 is null data, 1 a mild and 2 a strong departure."""
    if kind == "independence":
        x = rng.standard_normal((120, 3))
        x[:, 2] *= (1.0, 1.5, 3.0)[strength]  # the radius depends on the direction
        return x
    if kind == "uniformity":
        x = rng.standard_normal((200, 3))
        x[:, 2] += (0.0, 0.15, 0.3)[strength]  # a cap around the pole
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    return (rng.standard_normal, rng.laplace, lambda size: rng.standard_t(2, size))[strength](size=150)


# test -> (core(x, B, seed, stop), public(x, B, seed, alpha), Bonferroni components)
TESTS = {
    "independence": (
        lambda x, b, seed, stop=None: mcs._independence_core(x, b, seed, stop),
        lambda x, b, seed, alpha: mcs.test_radial_angular_independence(x, b, seed, alpha),
        1,
    ),
    "uniformity": (
        lambda x, b, seed, stop=None: mcs._uniformity_core(x, seed, b, stop),
        lambda x, b, seed, alpha: mcs.test_uniform_on_sphere(x, seed, alpha, b),
        2,
    ),
    "gaussianity": (
        lambda x, b, seed, stop=None: mcs._gaussianity_core(x, seed, b, stop),
        lambda x, b, seed, alpha: mcs.test_gaussianity_1d(x, seed, alpha, b),
        1,
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=60)
    args = parser.parse_args()
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for kind, (core, public, components) in TESTS.items():
        cases = early = rejections = used_total = draws_total = 0
        for seed in range(args.seeds):
            for alpha in ALPHAS:
                for b in DRAWS:
                    data_seed = seed * 1000 + int(alpha * 1000) + b
                    x = case_data(kind, seed % 3, np.random.default_rng(data_seed))
                    full = public(x, b, seed, alpha).reject
                    stop = mcs._stop_count(alpha, b, components)
                    _, counts, used = core(x, b, seed, stop)
                    curtailed = bool(counts.min() < stop)
                    if curtailed != full:
                        mismatches += 1
                        print(f"MISMATCH {kind} seed={seed} alpha={alpha} B={b}: full {full}, curtailed {curtailed}")
                    cases += 1
                    early += used < b
                    rejections += full
                    used_total += used
                    draws_total += b
        total += cases
        print(
            f"{kind}: {cases} cases, {rejections} rejections, {early} stopped early, "
            f"{used_total} of {draws_total} draws scored ({1 - used_total / draws_total:.1%} saved)"
        )
    print(f"{total} cases, {mismatches} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
