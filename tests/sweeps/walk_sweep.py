"""Compare the orbit walk with its step-by-step reference through the uniformity test.

Each case runs `orbit_walk_samples` and the one-step-at-a-time walk in
tests/reference_engine.py on the same seed, then the uniformity test on
both sets of recorded states with one test seed.  A case has moved when
any recorded state, or either p-value or statistic, differs from the
reference's in any bit.  The grid is ell x odd swap x (burn_in, thin) x
seeds, with n recorded states per walk.  (burn_in, thin) runs at
(100, 10) and at (7, 3), whose recorded states fall off the pieces'
boundaries.  Large ells (say --ells 5,12) split each draw block into
many pieces of a few dozen steps.  Each walk also runs again with
one-step pieces (`_WALK_PIECE` = d^2), and a case whose states differ
from the default pieces' in any bit is counted as unstable; that checks
bit stability by hand at weights beyond the tier-1 tests (say
--ells 12,24).

    PYTHONPATH=src python tests/sweeps/walk_sweep.py [--seeds 20] [--n 2000] [--ells 1,2,3]

It prints every moved or unstable case and the largest state
difference, and exits 1 if any case moved or is unstable.  pytest does
not collect this file; the walk oracle in tests/test_monte_carlo_stats.py
covers the same walk at small sizes.
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference_engine as ref  # noqa: E402
from invspan import monte_carlo_stats as mcs  # noqa: E402

SCHEDULES = ((100, 10), (7, 3))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--ells", default="1,2,3", help="comma-separated weights")
    args = parser.parse_args()
    ells = [int(ell) for ell in args.ells.split(",")]
    start = time.perf_counter()
    cases = moved = unstable = 0
    worst_state = worst_statistic = 0.0
    for ell, odd, (burn_in, thin), seed in itertools.product(ells, (False, True), SCHEDULES, range(args.seeds)):
        walk_seed = 1000 * ell + 100 * odd + seed
        states = mcs.orbit_walk_samples(ell, args.n, odd, walk_seed, burn_in, thin).rows
        default, mcs._WALK_PIECE = mcs._WALK_PIECE, (2 * ell + 1) ** 2
        try:
            one_step = mcs.orbit_walk_samples(ell, args.n, odd, walk_seed, burn_in, thin).rows
        finally:
            mcs._WALK_PIECE = default
        if not np.array_equal(one_step, states):
            unstable += 1
            print(f"UNSTABLE ell={ell} odd={odd} burn_in={burn_in} thin={thin} seed={walk_seed}: one-step pieces move a bit")
        reference = ref.orbit_random_walk(
            ell, burn_in + thin * args.n, odd, seed=walk_seed, burn_in=burn_in, thin=thin
        )
        got = mcs.test_uniform_on_sphere(states, walk_seed + 1)
        want = mcs.test_uniform_on_sphere(reference, walk_seed + 1)
        worst_state = max(worst_state, float(np.max(np.abs(states - reference))))
        worst_statistic = max(worst_statistic, abs(got.statistic - want.statistic))
        same_states = np.array_equal(states, reference)
        if not same_states or got.p_value != want.p_value or got.statistic != want.statistic:
            moved += 1
            print(
                f"MOVED ell={ell} odd={odd} burn_in={burn_in} thin={thin} seed={walk_seed}: "
                f"states {'equal' if same_states else 'differ'}, "
                f"p {want.p_value} -> {got.p_value}, statistic {want.statistic!r} -> {got.statistic!r}"
            )
        cases += 1
    print(
        f"{cases} cases, {moved} moved, {unstable} unstable, largest state difference {worst_state:.1e}, "
        f"largest statistic difference {worst_statistic:.1e}, {time.perf_counter() - start:.1f} s"
    )
    return 1 if moved or unstable else 0


if __name__ == "__main__":
    sys.exit(main())
