"""Compare span accumulation in complement coordinates with the projected frontier.

Each case runs `invariance_engine.accumulate_span` and
`accumulate_span_projected` from tests/reference_engine.py, which projects
each round's images off the whole span with two Gram-Schmidt passes.  A case
is a mismatch when span_dim, generator_dim, rounds, full or tol differ
(tol bit for bit) or the two span projectors differ by more than 1e-10.
The cases are the weight-ell generators for ell = 1..20, the criterion-2
control (one plane rotation annihilating the ones vector in so(4)) and
random families in so(n), n = 3..9: generic, stabilizer-only,
standard-only, rank-deficient and stabilizer with a standard part at
1e-16 relative size.

    PYTHONPATH=src python tests/sweeps/span_sweep.py [--families 200] [--max-ell 20] [--per-round]

For every case the engine's own SVDs are recorded.  The sweep prints the
smallest kept and the largest dropped singular value over all rounds
against the threshold DEFAULT_RANK_TOL * sqrt(n) (per round with --per-round),
every mismatch, and exits 1 if there is one.  pytest does not collect this
file; tests/test_engine_oracle.py covers the same comparison up to n = 12
and ell = 12.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference_engine as ref  # noqa: E402
from invspan.invariance_engine import accumulate_span  # noqa: E402
from invspan.so3_irreps import build_generators  # noqa: E402

FIELDS = ("span_dim", "generator_dim", "rounds", "full")
KINDS = ("generic", "stabilizer", "standard", "repeated", "near-stabilizer")


def recorded_accumulation(generators, n):
    """accumulate_span with the singular values of each of its rounds.

    The engine calls np.linalg.svd with full_matrices=True once to split
    off the generators' complement and then once per round that forms
    images, so every such call after the first is a round.
    """
    real_svd = np.linalg.svd
    seen = []

    def svd(a, *args, **kwargs):
        out = real_svd(a, *args, **kwargs)
        if kwargs.get("full_matrices", True):
            seen.append(out[1])
        return out

    np.linalg.svd = svd
    try:
        report, basis = accumulate_span(generators, n)
    finally:
        np.linalg.svd = real_svd
    rounds = seen[1:]
    assert len(rounds) in (report.rounds, report.rounds - 1), "unexpected SVD calls"
    return report, basis, rounds


def standard_part(a):
    v = a.sum(axis=1) / a.shape[0]
    return np.subtract.outer(v, v)


def random_families(count, seed=20261018):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(3, 10))
        kind = KINDS[i % len(KINDS)]
        m = rng.standard_normal((int(rng.integers(1, 4)), n, n))
        family = list(m - np.swapaxes(m, 1, 2))
        if kind == "stabilizer":
            family = [a - standard_part(a) for a in family]
        elif kind == "standard":
            family = [standard_part(a) for a in family]
        elif kind == "repeated":
            family = family[:1] + [s * family[0] for s in (-2.0, 1e-3)]
        elif kind == "near-stabilizer":
            family = [a - standard_part(a) + 1e-16 * standard_part(a) for a in family]
        yield f"{kind} n={n} #{i}", family, n


def cases(families, max_ell):
    for ell in range(1, max_ell + 1):
        yield f"ell={ell}", build_generators(ell).matrices, 2 * ell + 1
    u = np.array([1.0, -1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, -1.0, 0.0])
    yield "criterion-2 control", [ref.plane_rotation(u, v)], 4
    yield from random_families(families)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", type=int, default=200)
    parser.add_argument("--max-ell", type=int, default=20)
    parser.add_argument("--per-round", action="store_true")
    args = parser.parse_args()
    start = time.perf_counter()
    total = mismatches = 0
    worst_kept, worst_dropped = math.inf, 0.0
    for name, generators, n in cases(args.families, args.max_ell):
        report, basis, rounds = recorded_accumulation(generators, n)
        slow, slow_basis = ref.accumulate_span_projected(generators, n)
        differ = [f for f in FIELDS if getattr(report, f) != getattr(slow, f)]
        if report.tol.hex() != slow.tol.hex():
            differ.append("tol")
        gap = float(np.max(np.abs(basis.vectors.T @ basis.vectors - slow_basis.vectors.T @ slow_basis.vectors)))
        if gap > 1e-10:
            differ.append(f"projector {gap:.1e}")
        total += 1
        if differ:
            mismatches += 1
            print(f"MISMATCH {name}: {', '.join(differ)}")
        kept = [float(s[s > report.tol].min(initial=math.inf)) for s in rounds]
        dropped = [float(s[s <= report.tol].max(initial=0.0)) for s in rounds]
        low, high = min(kept, default=math.inf), max(dropped, default=0.0)
        worst_kept, worst_dropped = min(worst_kept, low), max(worst_dropped, high)
        if name.startswith(("ell", "criterion")):
            print(
                f"{name}: span_dim {report.span_dim}, rounds {report.rounds}, threshold {report.tol:.1e}, "
                f"smallest kept {low:.1e}, largest dropped {high:.1e}"
            )
            if args.per_round:
                for k, (a, b) in enumerate(zip(kept, dropped), 1):
                    print(f"    round {k}: smallest kept {a:.1e}, largest dropped {b:.1e}")
    print(
        f"{total} cases, {mismatches} mismatches, smallest kept {worst_kept:.1e}, "
        f"largest dropped {worst_dropped:.1e}, {time.perf_counter() - start:.1f} s"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
