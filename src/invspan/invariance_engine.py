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
stabilizer part for n = 4) drive the span argument.  Both bases are
built in closed form from ones_fixing_rotation; no rank is decided.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, InvarianceViolationError
from .lie_core import (
    DEFAULT_RANK_TOL,
    Permutation,
    SubspaceBasis,
    _square_stack,
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

_SPLIT_TOL = 1e-11
_CHARACTER_TOL = 1e-8
_BLOCK_FORM_TOL = 1e-10


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
        return asdict(self)


@dataclass
class DecompositionReport:
    """Dimensions and transposition characters of the invariant pair."""

    n: int
    standard_dim: int
    stabilizer_dim: int
    standard_char_transposition: float
    stabilizer_char_transposition: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BlockFormReport:
    """Residuals of the block shapes after rotating e_1 onto the ones direction."""

    n: int
    stabilizer_first_rowcol_max: float
    standard_complement_max: float
    cross_gram_max: float
    standard_projector_residual: float
    stabilizer_projector_residual: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def accumulate_span(generators, n: int) -> tuple[SpanReport, SubspaceBasis]:
    """Close the span of antisymmetric generators under index relabeling.

    Starting from the given n x n antisymmetric matrices, the span is
    conjugated by every adjacent transposition and the results are added,
    round after round, until one round adds nothing.  Adjacent
    transpositions generate the symmetric group, so the stable span
    equals the sum of conjugates over all permutations.

    Only the frontier is conjugated: the directions D_k that round k
    added, with D_0 the generators' own basis.  If B_k = B_{k-1} + D_k,
    every transposition t maps B_{k-1} into B_k, so the span of B_k and
    t B_k equals the span of B_k and t D_k.

    Alongside the span the function keeps an orthonormal basis C of its
    complement, taken at the start from the full SVD of the generators'
    basis.  A round stacks the n-1 images of D_k and forms images @ C^T,
    their coordinates in the complement: the projection off the span
    becomes one product with an orthonormal C instead of two
    Gram-Schmidt passes against the whole span, and every factorization
    after it has width dim C, which shrinks as the span grows.  A tall
    product is reduced to its R factor first.  Its full SVD R = U S W^T
    splits the complement: the rows of W^T with singular value above the
    threshold, times C, are D_{k+1}, and the remaining rows, times C,
    are the next C.  Both come out orthonormal and orthogonal to each
    other, and over the whole run at most (n-1) n(n-1)/2 rows are ever
    conjugated.

    The threshold is DEFAULT_RANK_TOL * sqrt(n).  sqrt(n) is the largest
    singular value of the stack [B; t_1 B; ...; t_{n-1} B] of n
    orthonormal blocks once B is stable (stack^T stack is then n times
    the projector onto B), and an upper bound on it before, since each
    block has norm 1.  Since C has orthonormal rows, images @ C^T has
    the singular values of the images projected off the span, so the
    threshold is compared with what each round adds, as in full so(n)
    coordinates.  Kept and dropped singular values
    sit many orders apart (for the weight-ell generators, ell <= 20,
    kept ones are >= 5e-4 and dropped ones <= 2e-12; see
    tests/sweeps/span_sweep.py), so every round's rank, and with it
    rounds, span_dim and full, equals that of thresholding each whole
    stack relative to its largest singular value.

    Once C is empty the span is all of so(n) and every image lies in
    it.  If the frontier is not empty then, the next round is counted,
    since projecting its images off the span would leave nothing, but it
    is not carried out.

    Returns the report and an orthonormal basis of the accumulated span.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    mats = _square_stack(generators, n)

    full_dim = so_dim(n)
    maps = [signed_index_map(Permutation.transposition(n, i, i + 1)) for i in range(n - 1)]
    basis = numerical_rank([flatten_antisym(g) for g in mats])
    generator_dim = basis.rank
    if generator_dim == 0:
        raise DegenerateInputError("the generators span only the zero matrix")

    threshold = DEFAULT_RANK_TOL * math.sqrt(n)
    span = frontier = basis.vectors
    complement = np.linalg.svd(span, full_matrices=True)[2][generator_dim:]
    rounds = 0
    while frontier.shape[0]:
        rounds += 1
        if not complement.shape[0]:
            break
        images = np.vstack([frontier[:, idx] * sign for idx, sign in maps]) @ complement.T
        if images.shape[0] > images.shape[1]:
            images = np.linalg.qr(images, mode="r")
        _, s, wt = np.linalg.svd(images, full_matrices=True)
        kept = int(np.count_nonzero(s > threshold))
        frontier = wt[:kept] @ complement
        complement = wt[kept:] @ complement
        span = np.vstack([span, frontier])

    rank = span.shape[0]
    report = SpanReport(
        n=n,
        generator_dim=generator_dim,
        span_dim=rank,
        full=rank == full_dim,
        rounds=rounds,
        tol=threshold,
    )
    return report, SubspaceBasis(n=n, vectors=span, rank=rank, tol=threshold)


def verify_span(ell: int) -> SpanReport:
    """Certify that conjugates of the weight-ell generators span so(2 ell + 1).

    Checks the no-fixed-vector hypothesis first; a violation is recorded
    in the report rather than raised, since the span itself is still
    well defined.

    What is checked is a positive-dimensional group given by its Lie
    algebra generators, here the weight-ell irrep of SO(3).  A finite
    group has none: the 24 rotations of the cube act irreducibly on R^3
    and, like the coordinate permutations, keep {+-1}^3, which a generic
    rotation moves.  No claim is made about any other hypothesis.
    """
    gens = build_generators(ell)
    hypothesis = common_fixed_subspace_dim(gens) == 0
    report, _ = accumulate_span(gens.matrices, gens.dimension)
    report.hypothesis_satisfied = hypothesis
    return report


def decompose_so_n(n: int) -> tuple[DecompositionReport, SubspaceBasis, SubspaceBasis]:
    """Split so(n) into its two invariant parts under index relabeling.

    Let b_0, ..., b_{n-1} be the columns of b = ones_fixing_rotation(n),
    with b_0 = ones/sqrt(n).  The flattened matrices
    (b_j b_k^T - b_k b_j^T) / sqrt(2) = b (E_jk - E_kj) b^T / sqrt(2),
    j < k in row-major order, are the rows of the second compound of b^T
    and form an orthonormal basis of so(n).  The n-1 rows with j = 0 are
    plane rotations moving the ones direction: they span the standard
    part, a copy of the standard permutation representation.  The other
    (n-1)(n-2)/2 rows only involve columns orthogonal to ones, so they
    annihilate it and span the stabilizer part.  The projector
    A -> AJ + JA (J = 11^T/n) onto the standard part commutes with every
    relabeling, so a standard basis that it fixes and a stabilizer basis
    that it sends to 0 span invariant subspaces: _split_residual checks
    that, and that b is orthogonal.  Returns (report, standard, stabilizer).
    """
    if n < 4:
        raise DimensionError(f"decomposition is defined for n >= 4, got {n}")
    bt = ones_fixing_rotation(n).T
    rows, cols = upper_triangle_indices(n)
    pairs = bt[rows][:, rows] * bt[cols][:, cols] - bt[rows][:, cols] * bt[cols][:, rows]
    standard = SubspaceBasis(n=n, vectors=pairs[: n - 1], rank=n - 1, tol=0.0)
    stabilizer = SubspaceBasis(n=n, vectors=pairs[n - 1 :], rank=so_dim(n) - n + 1, tol=0.0)
    res = _split_residual(bt.T, standard.vectors, stabilizer.vectors)
    if res > _SPLIT_TOL:
        raise InvarianceViolationError(f"so({n}) split is not invariant under relabeling, residual {res:.3e}")

    swap01 = Permutation.transposition(n, 0, 1)
    report = DecompositionReport(
        n=n,
        standard_dim=standard.rank,
        stabilizer_dim=stabilizer.rank,
        standard_char_transposition=character_on_subspace(standard, swap01),
        stabilizer_char_transposition=character_on_subspace(stabilizer, swap01),
    )
    return report, standard, stabilizer


def _pair_incidence(w: np.ndarray) -> np.ndarray:
    """M(w)[i, k] = [r_k = i] w[s_k] - [s_k = i] w[r_k] for the pairs k = (r_k, s_k), r_k < s_k.

    x @ M(w)^T = sqrt(2) A w for the flattened x of an antisymmetric A; M(1) is the pairs' incidence matrix.
    """
    rows, cols = upper_triangle_indices(w.size)
    points = np.arange(w.size)[:, None]
    return (points == rows) * w[cols] - (points == cols) * w[rows]


def _standard_part(flat: np.ndarray, incidence: np.ndarray) -> np.ndarray:
    """AJ + JA = v1^T - 1v^T (J = 11^T/n, v = A1/n) for each flattened row A, with incidence = M(1)."""
    return (flat @ incidence.T) @ incidence / incidence.shape[0]


def _split_residual(frame: np.ndarray, standard: np.ndarray, stabilizer: np.ndarray) -> float:
    """Largest of max|frame frame^T - I|, |P x - x| over standard rows and |P x| over stabilizer rows.

    P = _standard_part = M(1)^T M(1) / n, so |P x| = |M(1) x| / sqrt(n).
    An orthogonal frame has orthonormal second-compound rows.
    """
    n = frame.shape[0]
    incidence = _pair_incidence(np.ones(n))
    return max(
        float(np.max(np.abs(frame @ frame.T - np.eye(n)))),
        float(np.max(np.linalg.norm(standard - _standard_part(standard, incidence), axis=1))),
        float(np.max(np.linalg.norm(stabilizer @ incidence.T, axis=1))) / math.sqrt(n),
    )


def character_on_subspace(basis: SubspaceBasis, perm: Permutation) -> float:
    """Trace of the relabeling action restricted to an invariant subspace.

    Raises InvarianceViolationError when a conjugated basis vector does
    not project back into the subspace within 1e-8.
    """
    if perm.n != basis.n:
        raise DimensionError(f"permutation on {perm.n} points vs so({basis.n}) subspace")
    idx, sign = signed_index_map(perm)
    images = basis.vectors[:, idx] * sign
    if basis.residual(images) > _CHARACTER_TOL:
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


def block_form_check(n: int) -> BlockFormReport:
    """Check both invariant parts in the rotated frame and against the projector.

    Conjugated by the ones-fixing rotation, every stabilizer element must
    have zero first row and column, every standard element must vanish
    outside the first row and column, and the two families must stay
    orthogonal under the trace form.  decompose_so_n builds both parts
    from the same rotation, so these residuals measure rounding in that
    construction.  The projector P(A) = AJ + JA onto the standard part,
    J = 11^T/n, needs no rotation: it must fix every standard element and
    send every stabilizer element to 0.

    Only the n - 1 standard elements are formed as matrices.  Row 0 of
    b^T S b, b the rotation, is -(S b_0)^T b = -x @ M(b_0)^T @ b / sqrt(2)
    for S's flattened row x (_pair_incidence); column 0 is its negative.
    b_0 is b's own first column, so a frame as wrong as the bases reads 0.
    Conjugation keeps the trace form, so the cross Gram is read unrotated.
    P is _standard_part, as in _split_residual, on sqrt(2)-scaled entries.
    """
    _, standard, stabilizer = decompose_so_n(n)
    std, stab = standard.vectors, stabilizer.vectors
    b = ones_fixing_rotation(n)
    incidence = _pair_incidence(np.ones(n))
    root2 = math.sqrt(2.0)
    residuals = {
        "stabilizer_first_rowcol_max": float(np.max(np.abs(stab @ _pair_incidence(b[:, 0]).T @ b))) / root2,
        "standard_complement_max": float(np.max(np.abs((b.T @ standard.matrices() @ b)[:, 1:, 1:]))),
        "cross_gram_max": float(np.max(np.abs(std @ stab.T))),
        "standard_projector_residual": float(np.max(np.abs(_standard_part(std, incidence) - std))) / root2,
        "stabilizer_projector_residual": float(np.max(np.abs(_standard_part(stab, incidence)))) / root2,
    }
    passed = all(r <= _BLOCK_FORM_TOL for r in residuals.values())
    return BlockFormReport(n=n, **residuals, tol=_BLOCK_FORM_TOL, passed=passed)
