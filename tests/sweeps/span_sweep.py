"""Compare the two-norm span certificate with the projected frontier accumulation.

Each case runs `invariance_engine.accumulate_span`, which decides the span
from the Frobenius norms of the family's standard and stabilizer parts,
and `accumulate_span_projected` from tests/reference_engine.py, which
conjugates the frontier by the adjacent transpositions round after round
and projects the images off the whole span with two Gram-Schmidt passes.
A case is a mismatch when span_dim, generator_dim, full or tol differ
(tol bit for bit), when rounds is not the number of parts of so(n) the
reference's span contains, or when the reference span's projector differs
by more than 1e-10 from that of the closed-form rows (`compound_split`)
of the parts whose norms exceed tol.  The cases are the weight-ell generators for ell = 1..20, the
criterion-2 control (one plane rotation annihilating the ones vector in
so(4)) and random families in so(n), n = 3..9: generic, stabilizer-only,
standard-only, rank-deficient and stabilizer with a standard part at
1e-16 relative size.

    PYTHONPATH=src python tests/sweeps/span_sweep.py [--families 200] [--max-ell 20]

Which parts a case contains is read from the reference's span
(`part_norms` of its basis: n - 1 and (n-1)(n-2)/2 for a whole part, 0
for none).  The sweep prints the largest norm the engine read for a part
the reference's span does not contain and the smallest norm it read for
one it does, each against its case's threshold DEFAULT_RANK_TOL * sqrt(n),
every mismatch, and exits 1 if there is one.  pytest does not collect
this file; tests/test_engine_oracle.py covers the same comparison up to
n = 12 and ell = 12.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference_engine as ref  # noqa: E402
from invspan.invariance_engine import accumulate_span, ones_fixing_rotation  # noqa: E402
from invspan.so3_irreps import build_generators  # noqa: E402

FIELDS = ("span_dim", "generator_dim", "full")
KINDS = ("generic", "stabilizer", "standard", "repeated", "near-stabilizer")


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


def contained_parts(slow_basis, n):
    """Whether the reference's span contains the standard and the stabilizer part."""
    standard, stabilizer = ref.part_norms(slow_basis.vectors, n)
    return standard**2 > 0.5, stabilizer**2 > 0.5


def certified_projector(report):
    """Projector onto the closed-form rows of the parts whose norms exceed tol."""
    parts = zip(ref.compound_split(ones_fixing_rotation(report.n)), (report.standard_norm, report.stabilizer_norm))
    rows = np.vstack([part for part, norm in parts if norm > report.tol])
    return rows.T @ rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", type=int, default=200)
    parser.add_argument("--max-ell", type=int, default=20)
    args = parser.parse_args()
    start = time.perf_counter()
    total = mismatches = 0
    absent = (0.0, "none", math.nan)  # largest absent-part norm, its case, its threshold
    present = (math.inf, "none", math.nan)  # smallest present-part norm, its case, its threshold
    for name, generators, n in cases(args.families, args.max_ell):
        report, _ = accumulate_span(generators, n)
        slow, slow_basis = ref.accumulate_span_projected(generators, n)
        contained = contained_parts(slow_basis, n)
        differ = [f for f in FIELDS if getattr(report, f) != getattr(slow, f)]
        if report.tol.hex() != slow.tol.hex():
            differ.append("tol")
        if report.rounds != sum(contained):
            differ.append(f"rounds {report.rounds} for {sum(contained)} parts")
        gap = float(np.max(np.abs(certified_projector(report) - slow_basis.vectors.T @ slow_basis.vectors)))
        if gap > 1e-10:
            differ.append(f"projector {gap:.1e}")
        total += 1
        if differ:
            mismatches += 1
            print(f"MISMATCH {name}: {', '.join(differ)}")
        for norm, inside in zip((report.standard_norm, report.stabilizer_norm), contained):
            if inside and norm < present[0]:
                present = (norm, name, report.tol)
            elif not inside and norm > absent[0]:
                absent = (norm, name, report.tol)
        if name.startswith(("ell", "criterion")):
            print(
                f"{name}: span_dim {report.span_dim}, rounds {report.rounds}, threshold {report.tol:.1e}, "
                f"standard norm {report.standard_norm:.3e}, stabilizer norm {report.stabilizer_norm:.3e}"
            )
    print(
        f"{total} cases, {mismatches} mismatches, "
        f"largest absent-part norm {absent[0]:.1e} ({absent[1]}, threshold {absent[2]:.1e}), "
        f"smallest present-part norm {present[0]:.1e} ({present[1]}, threshold {present[2]:.1e}), "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
