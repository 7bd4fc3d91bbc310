"""Span certificates for permutation-conjugated rotation generators.

The central object is the subspace of so(n) spanned by all conjugates
e_sigma A e_sigma^-1 of a family of generators A, with sigma running over
the symmetric group.  When the family is the generator image of an
irreducible SO(3) representation with no fixed vectors, that span is the
whole of so(n): certifying this numerically is what verify_span does.

The module also builds the complementary pair of symmetric-group
invariant subspaces of so(n),

    stabilizer part: matrices annihilating the all-ones vector,
    standard part:   its orthocomplement under the trace form,

whose characters on a transposition (+1 on the standard part, -1 on the
stabilizer part for n = 4) drive the span argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, InvarianceViolationError
from .lie_core import (
    DEFAULT_RANK_TOL,
    Permutation,
    SubspaceBasis,
    flatten_antisym,
    numerical_rank,
    signed_index_map,
    so_dim,
    upper_triangle_indices,
)
from .so3_irreps import build_generators, common_fixed_subspace_dim

__all__ = [
    "BlockFormReport",
    "DecompositionReport",
    "SpanReport",
    "accumulate_span",
    "block_form_check",
    "character_on_subspace",
    "decompose_so_n",
    "ones_fixing_rotation",
    "verify_span",
]


@dataclass
class SpanReport:
    """Outcome of the conjugated-span accumulation in so(n)."""

    n: int
    generator_dim: int
    span_dim: int
    full: bool
    rounds: int
    tol: float
    hypothesis_satisfied: bool = True

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "generator_dim": self.generator_dim,
            "span_dim": self.span_dim,
            "full": self.full,
            "rounds": self.rounds,
            "tol": self.tol,
            "hypothesis_satisfied": self.hypothesis_satisfied,
        }


@dataclass
class DecompositionReport:
    """Dimensions and transposition characters of the invariant pair."""

    n: int
    standard_dim: int
    stabilizer_dim: int
    standard_char_transposition: float
    stabilizer_char_transposition: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "standard_dim": self.standard_dim,
            "stabilizer_dim": self.stabilizer_dim,
            "standard_char_transposition": self.standard_char_transposition,
            "stabilizer_char_transposition": self.stabilizer_char_transposition,
        }


@dataclass
class BlockFormReport:
    """Residuals of the block shapes after rotating e_1 onto the ones direction."""

    n: int
    stabilizer_first_rowcol_max: float
    standard_complement_max: float
    cross_gram_max: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "stabilizer_first_rowcol_max": self.stabilizer_first_rowcol_max,
            "standard_complement_max": self.standard_complement_max,
            "cross_gram_max": self.cross_gram_max,
            "tol": self.tol,
            "passed": self.passed,
        }


def _conjugate_flat(vectors: np.ndarray, perm: Permutation) -> np.ndarray:
    """Relabel every flattened row of vectors by perm at once."""
    idx, sign = signed_index_map(perm)
    return vectors[..., idx] * sign


def accumulate_span(
    generators, n: int, tol_factor: float = DEFAULT_RANK_TOL
) -> tuple[SpanReport, SubspaceBasis]:
    """Close the span of antisymmetric generators under index relabeling.

    Starting from the given n x n antisymmetric matrices, the current
    basis is conjugated by every adjacent transposition and the results
    are added, round after round, until one full round leaves the rank
    unchanged.  Adjacent transpositions generate the symmetric group, so
    the stable span equals the sum of conjugates over all permutations.
    Each round's stack is reduced to its R factor before the rank SVD:
    R has the stack's singular values and row space and at most
    n(n-1)/2 rows.

    Returns the report and an orthonormal basis of the accumulated span.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    mats = [np.asarray(g, dtype=float) for g in generators]
    if not mats:
        raise ValueError("no generators given")
    for g in mats:
        if g.shape != (n, n):
            raise DimensionError(f"generator of shape {g.shape} does not live in so({n})")

    full_dim = so_dim(n)
    transpositions = [Permutation.transposition(n, i, i + 1) for i in range(n - 1)]
    basis = numerical_rank([flatten_antisym(g) for g in mats], tol_factor)
    generator_dim = basis.rank
    if generator_dim == 0:
        raise DegenerateInputError("the generators span only the zero matrix")

    rounds = 0
    while True:
        rounds += 1
        images = [_conjugate_flat(basis.vectors, tau) for tau in transpositions]
        stack = np.vstack([basis.vectors] + images)
        grown = numerical_rank(np.linalg.qr(stack, mode="r"), tol_factor)
        if grown.rank == basis.rank:
            basis = grown
            break
        basis = grown
        if rounds > full_dim + 2:
            raise ArithmeticError("span accumulation failed to stabilize")

    report = SpanReport(
        n=n,
        generator_dim=generator_dim,
        span_dim=basis.rank,
        full=basis.rank == full_dim,
        rounds=rounds,
        tol=basis.tol,
    )
    return report, basis


def verify_span(ell: int, tol_factor: float = DEFAULT_RANK_TOL) -> SpanReport:
    """Certify that conjugates of the weight-ell generators span so(2 ell + 1).

    Checks the no-fixed-vector hypothesis first; a violation is recorded
    in the report rather than raised, since the span itself is still
    well defined.
    """
    gens = build_generators(ell)
    n = gens.dimension
    hypothesis = common_fixed_subspace_dim(gens) == 0
    report, _ = accumulate_span(gens.matrices, n, tol_factor)
    report.hypothesis_satisfied = hypothesis
    return report


def _ones_annihilation_map(n: int) -> np.ndarray:
    """Matrix of the flattened-coordinates map A -> A . (1, ..., 1)^T."""
    rows, cols = upper_triangle_indices(n)
    pairs = np.arange(rows.size)
    k = np.zeros((n, rows.size))
    k[rows, pairs] = 1.0 / math.sqrt(2.0)
    k[cols, pairs] = -1.0 / math.sqrt(2.0)
    return k


def decompose_so_n(
    n: int, tol_factor: float = DEFAULT_RANK_TOL
) -> tuple[DecompositionReport, SubspaceBasis, SubspaceBasis]:
    """Split so(n) into its two invariant parts under index relabeling.

    The stabilizer part is the kernel of A -> A.ones (dimension
    (n-1)(n-2)/2) and the standard part is its orthocomplement under the
    trace form (dimension n-1, a copy of the standard permutation
    representation).  Both bases are checked to be invariant under all
    adjacent transpositions.  Returns (report, standard, stabilizer).
    """
    if n < 4:
        raise DimensionError(f"decomposition is defined for n >= 4, got {n}")
    k = _ones_annihilation_map(n)
    _, s, vt = np.linalg.svd(k, full_matrices=True)
    smax = s[0]
    threshold = tol_factor * smax
    rank = int(np.sum(s > threshold))
    standard = SubspaceBasis(n=n, vectors=vt[:rank].copy(), rank=rank, tol=float(threshold))
    stabilizer = SubspaceBasis(
        n=n, vectors=vt[rank:].copy(), rank=vt.shape[0] - rank, tol=float(threshold)
    )

    for basis in (standard, stabilizer):
        for i in range(n - 1):
            tau = Permutation.transposition(n, i, i + 1)
            res = basis.residual(_conjugate_flat(basis.vectors, tau))
            if res > 1e-10:
                raise InvarianceViolationError(
                    f"subspace not stable under adjacent transposition, residual {res:.3e}"
                )

    swap01 = Permutation.transposition(n, 0, 1)
    report = DecompositionReport(
        n=n,
        standard_dim=standard.rank,
        stabilizer_dim=stabilizer.rank,
        standard_char_transposition=character_on_subspace(standard, swap01),
        stabilizer_char_transposition=character_on_subspace(stabilizer, swap01),
    )
    return report, standard, stabilizer


def character_on_subspace(basis: SubspaceBasis, perm: Permutation, tol: float = 1e-8) -> float:
    """Trace of the relabeling action restricted to an invariant subspace.

    Raises InvarianceViolationError when a conjugated basis vector does
    not project back into the subspace within tol.
    """
    if perm.n != basis.n:
        raise DimensionError(f"permutation on {perm.n} points vs so({basis.n}) subspace")
    images = _conjugate_flat(basis.vectors, perm)
    if basis.residual(images) > tol:
        raise InvarianceViolationError("subspace is not invariant under the given permutation")
    return float(np.sum(basis.vectors * images))


def ones_fixing_rotation(n: int) -> np.ndarray:
    """Special orthogonal matrix sending e_1 to (1, ..., 1)/sqrt(n).

    A Householder reflection does the transport; a sign flip on the
    second coordinate of the domain restores determinant +1 without
    moving e_1.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    target = np.full(n, 1.0 / math.sqrt(n))
    u = np.zeros(n)
    u[0] = 1.0
    u -= target
    h = np.eye(n) - 2.0 * np.outer(u, u) / (u @ u)
    h[:, 1] *= -1.0
    return h


def block_form_check(n: int, tol: float = 1e-10) -> BlockFormReport:
    """Conjugate both invariant parts by the ones-fixing rotation.

    In the rotated frame every stabilizer element must have zero first
    row and column, every standard element must vanish outside the first
    row and column, and the two families must stay orthogonal under the
    trace form.
    """
    _, standard, stabilizer = decompose_so_n(n)
    b = ones_fixing_rotation(n)
    conj_std = b.T @ standard.matrices() @ b
    conj_stab = b.T @ stabilizer.matrices() @ b

    stab_max = float(max(np.max(np.abs(conj_stab[:, 0, :])), np.max(np.abs(conj_stab[:, :, 0]))))
    std_max = float(np.max(np.abs(conj_std[:, 1:, 1:])))
    cross = float(np.max(np.abs(np.einsum("aij,bij->ab", conj_std, conj_stab))))

    passed = stab_max <= tol and std_max <= tol and cross <= tol
    return BlockFormReport(
        n=n,
        stabilizer_first_rowcol_max=stab_max,
        standard_complement_max=std_max,
        cross_gram_max=cross,
        tol=tol,
        passed=passed,
    )
