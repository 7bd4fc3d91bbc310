"""Compare the so(n) split's closed-form self-check with the transposition sweep it replaced.

decompose_so_n checks its split with the projector A -> AJ + JA onto the
standard part (`invariance_engine._split_residual`, limit 1e-11).  Before,
it conjugated both parts by each adjacent transposition and projected back
(`transposition_sweep` in tests/reference_engine.py, limit 1e-10).  Each
case perturbs `ones_fixing_rotation(n)` by eps in one of four ways (dense,
upper-triangular, first-order rotation, non-orthogonal within the
complement of ones; see `perturbed_frame`), builds the split from that
frame and runs both checks on it.  n cycles through 4..16 and log10(eps)
is uniform on [-11, -6].  The exact frames for n = 4..max-n then go
through the closed-form check alone.

    PYTHONPATH=src python tests/sweeps/split_sweep.py [--frames 1200] [--max-n 64] [--seed 0]

Per kind it prints how many frames each check rejects, the misses (frames
the old sweep rejects and the new check passes) and the smallest ratio of
the new residual to the old over the frames the old sweep rejects.  Then
it prints the largest residual on an exact frame and the margin below
1e-11.  It exits 1 on a miss or on a margin under 10^3.  pytest does not
collect this file; tests/test_invariance_engine.py runs the same
comparison on fewer frames for n = 4..12.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference_engine as ref  # noqa: E402
from invspan import invariance_engine as ie  # noqa: E402

OLD_LIMIT = 1e-10
MIN_MARGIN = 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=1200, help="perturbed frames over all kinds")
    parser.add_argument("--max-n", type=int, default=64, help="largest n of the exact frames")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    kinds = ref.FRAME_PERTURBATIONS
    misses = 0
    for kind_index, kind in enumerate(kinds):
        old_rejects = new_rejects = kind_misses = frames = 0
        ratio = math.inf
        for i in range(kind_index, args.frames, len(kinds)):
            rng = np.random.default_rng([args.seed, i])
            n = 4 + (i // len(kinds)) % 13
            eps = 10.0 ** rng.uniform(-11.0, -6.0)
            frame = ref.perturbed_frame(n, kind, eps, rng)
            standard, stabilizer = ref.compound_split(frame)
            old = ref.transposition_sweep(standard, stabilizer)
            new = ie._split_residual(frame, standard, stabilizer)
            frames += 1
            old_rejects += old > OLD_LIMIT
            new_rejects += new > ie._SPLIT_TOL
            if old > OLD_LIMIT:
                ratio = min(ratio, new / old)
                if new <= ie._SPLIT_TOL:
                    kind_misses += 1
                    print(f"MISS {kind} n={n} eps={eps:.3e}: old {old:.3e}, new {new:.3e}")
        misses += kind_misses
        print(
            f"{kind:>10}: {frames} frames, old sweep rejects {old_rejects}, new check rejects "
            f"{new_rejects}, {kind_misses} missed, smallest new/old ratio {ratio:.3g}"
        )

    worst, worst_n = 0.0, 0
    for n in range(4, args.max_n + 1):
        _, standard, stabilizer = ie.decompose_so_n(n)
        res = ie._split_residual(ie.ones_fixing_rotation(n), standard.vectors, stabilizer.vectors)
        if res > worst:
            worst, worst_n = res, n
    margin = ie._SPLIT_TOL / worst if worst else math.inf
    print(
        f"exact frames n=4..{args.max_n}: largest residual {worst:.2e} (n={worst_n}), "
        f"margin {margin:.3g} below {ie._SPLIT_TOL:g}; {misses} missed in all, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if misses or margin < MIN_MARGIN else 0


if __name__ == "__main__":
    sys.exit(main())
