"""Real antisymmetric matrices, permutation conjugation, and span ranking.

The algebra so(n) is represented by exactly antisymmetric float arrays.
Exact means entries[j, i] == -entries[i, j] bitwise: every constructor
here guarantees it, and the recipe (m - m.T) / 2 produces it for free
because IEEE rounding is sign-symmetric.

Subspaces of so(n) are handled through a flattening of the strict upper
triangle (row-major pair order, scaled by sqrt(2)) chosen so that the
Euclidean dot product of two flattened vectors equals the real part of
the trace form tr(a conj(b).T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError

DEFAULT_RANK_TOL = 1e-8

__all__ = [
    "DEFAULT_RANK_TOL",
    "Permutation",
    "SubspaceBasis",
    "flatten_antisym",
    "numerical_rank",
    "signed_index_map",
    "so_dim",
    "svd_row_basis",
    "unflatten_antisym",
    "upper_triangle_indices",
]


def so_dim(n: int) -> int:
    """Dimension n(n-1)/2 of so(n)."""
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def upper_triangle_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, row-major."""
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _check_antisym(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if not np.array_equal(a, -a.T):
        raise ValueError(f"{name} is not exactly antisymmetric")
    return a


def _square_stack(matrices, n: int | None = None) -> list[np.ndarray]:
    """matrices as float arrays: a non-empty family of square matrices of one size, n if given."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if not mats:
        raise ValueError("no generators given")
    if n is None:
        n = mats[0].shape[0] if mats[0].ndim else 0
    for m in mats:
        if m.shape != (n, n):
            raise DimensionError(f"generator of shape {m.shape} is not a square matrix of size {n}")
    return mats


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., n-1} stored as the image tuple.

    images[i] is where i is sent.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"invalid transposition ({i} {j}) on {n} points")
        images = list(range(n))
        images[i], images[j] = j, i
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, image in enumerate(self.images):
            inv[image] = i
        return Permutation(tuple(inv))


@lru_cache(maxsize=1024)
def signed_index_map(perm: Permutation) -> tuple[np.ndarray, np.ndarray]:
    """Relabelling a -> e a e^-1 by perm on flattened coordinates, as a signed gather.

    With e the permutation matrix, e[perm(i), i] = 1, it returns (idx, sign)
    with flat(e a e^-1)[k] = sign[k] * flat(a)[idx[k]].
    Entry k of the result, the pair (i, j), comes from the pair
    (inv(i), inv(j)) of a; the sign is -1 where that pair lies below the
    diagonal.  Apply it to a (rank, n(n-1)/2) stack of flattened vectors at
    once as vectors[:, idx] * sign.  Built on first use and cached per
    permutation; the arrays are read-only.
    """
    n = perm.n
    rows, cols = upper_triangle_indices(n)
    position = np.empty((n, n), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    inv = np.asarray(perm.inverse().images, dtype=np.intp)
    src_rows, src_cols = inv[rows], inv[cols]
    idx = position[src_rows, src_cols]
    sign = np.where(src_rows < src_cols, 1.0, -1.0)
    idx.setflags(write=False)
    sign.setflags(write=False)
    return idx, sign


def flatten_antisym(a: np.ndarray) -> np.ndarray:
    """Strict upper triangle of a, row-major, scaled by sqrt(2).

    The scaling makes flat(a) . flat(b) equal the trace form
    tr(a b^T) = sum(a * b) for real antisymmetric a, b.
    """
    a = _check_antisym(a, "a")
    rows, cols = upper_triangle_indices(a.shape[0])
    return math.sqrt(2.0) * a[rows, cols]


def _side_from_flat(length: int) -> int:
    n = (1 + math.isqrt(1 + 8 * length)) // 2
    if n * (n - 1) // 2 != length:
        raise DimensionError(f"length {length} is not n(n-1)/2 for any integer n")
    return n


def unflatten_antisym(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of flatten_antisym.

    A stack of flattened vectors (last axis) gives a stack of matrices.
    """
    v = np.asarray(v)
    if v.ndim == 0:
        raise DimensionError("flattened vector must have at least one dimension")
    if n is None:
        n = _side_from_flat(v.shape[-1])
    elif so_dim(n) != v.shape[-1]:
        raise DimensionError(f"vector of length {v.shape[-1]} does not fit so({n})")
    rows, cols = upper_triangle_indices(n)
    a = np.zeros(v.shape[:-1] + (n, n), dtype=v.dtype)
    a[..., rows, cols] = v / math.sqrt(2.0)
    a[..., cols, rows] = -a[..., rows, cols]
    return a


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of so(n) in flattened coordinates.

    vectors has shape (rank, n(n-1)/2) with orthonormal rows; tol is the
    absolute singular-value threshold that produced the rank, or 0.0 for
    a basis built in closed form with no rank decision (decompose_so_n).
    """

    n: int
    vectors: np.ndarray
    rank: int
    tol: float

    def __post_init__(self):
        if self.vectors.shape != (self.rank, so_dim(self.n)):
            raise DimensionError(
                f"basis shape {self.vectors.shape} does not match rank {self.rank} in so({self.n})"
            )

    def matrices(self) -> np.ndarray:
        """The basis elements as a (rank, n, n) stack of antisymmetric matrices."""
        return unflatten_antisym(self.vectors, self.n)

    def residual(self, flat: np.ndarray) -> float:
        """Distance from flat to its projection onto the subspace.

        For a stack of flattened vectors (rows) this is the largest distance.
        """
        flat = np.atleast_2d(np.asarray(flat, dtype=float))
        off = flat - (flat @ self.vectors.T) @ self.vectors
        return float(np.max(np.linalg.norm(off, axis=1), initial=0.0))


def svd_row_basis(rows: np.ndarray):
    """Rank and orthonormal row-space basis of a stacked-vector matrix.

    Returns (rank, threshold, basis) where basis holds the right singular
    vectors with singular value > threshold = DEFAULT_RANK_TOL * s_max.  Basis
    row signs are fixed (largest-magnitude entry positive) so repeated
    runs give identical output.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a non-empty 2-d stack of vectors")
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite entries in span vectors")
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    smax = s[0] if s.size else 0.0
    threshold = DEFAULT_RANK_TOL * smax
    rank = int(np.sum(s > threshold))
    basis = vt[:rank]
    lead = basis[np.arange(rank), np.argmax(np.abs(basis), axis=1)]
    return rank, float(threshold), basis * np.where(lead < 0, -1.0, 1.0)[:, None]


def numerical_rank(vectors) -> SubspaceBasis:
    """Numerical rank of a family of flattened so(n) elements.

    vectors is an iterable of flattened antisymmetric matrices (or a 2-d
    array of them stacked as rows).  Singular values above
    DEFAULT_RANK_TOL * s_max count toward the rank.
    """
    rows = np.atleast_2d(np.asarray(list(vectors) if not isinstance(vectors, np.ndarray) else vectors, dtype=float))
    if rows.size == 0:
        raise ValueError("empty list of vectors")
    n = _side_from_flat(rows.shape[1])
    rank, threshold, basis = svd_row_basis(rows)
    return SubspaceBasis(n=n, vectors=basis, rank=rank, tol=threshold)
