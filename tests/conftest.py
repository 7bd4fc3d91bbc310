"""Shared helpers for the test suite."""

from fractions import Fraction

import numpy as np
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite's
# verdict does not depend on the run.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def rational_rank(rows) -> int:
    """Exact rank over the rationals by fraction Gaussian elimination.

    Entries must be exactly representable (floats convert exactly), so
    this is an independent oracle for numerical rank computations.
    """
    mat = [[Fraction(x) for x in row] for row in np.asarray(rows).tolist()]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank
