"""Span certificates for permutation-conjugated rotation generators.

The central object is the subspace of so(n) spanned by all conjugates
e_sigma A e_sigma^-1 of a family of generators A, with sigma running over
the symmetric group.  When the family is the generator image of an
irreducible SO(3) representation with no fixed vectors, that span is the
whole of so(n): certifying this numerically is what verify_span does.

Under relabeling, so(n) splits into the standard part and the stabilizer
part (the matrices annihilating the all-ones vector).  For n >= 3 the two
are irreducible and not isomorphic (Fulton & Harris, Representation
Theory, Prop. 3.12), so the span is the sum of the parts the family
touches, and accumulate_span reads it from two projection norms.
decompose_so_n builds both parts in closed form from ones_fixing_rotation.
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
    """Outcome of the span certificate in so(n); rounds counts the parts whose norm exceeds tol."""

    n: int
    generator_dim: int
    span_dim: int
    full: bool
    rounds: int
    tol: float
    standard_norm: float
    stabilizer_norm: float
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
    """Certify the span of the generators' conjugates under index relabeling from two norms.

    numerical_rank gives the generators' flattened rows an orthonormal
    basis B (k x m, m = n(n-1)/2; k is generator_dim).  The projector P
    onto the standard part is _standard_part, x M^T M / n with M = M(1);
    M M^T = n I - 11^T, so standard_norm = |P B| = |B M^T| / sqrt(n), a
    scatter of B onto the n points (_part_norms).  stabilizer_norm =
    |B - P B| is taken directly, since a difference of squares cancels to
    about 1e-8 when B lies in the standard part.
    The two parts are irreducible and not isomorphic for n >= 3, so the
    span contains a part exactly when its norm is nonzero:

        span_dim = (n-1) [standard_norm > tol] + (n-1)(n-2)/2 [stabilizer_norm > tol]

    with tol = DEFAULT_RANK_TOL * sqrt(n); rounds counts the parts contained.
    tests/sweeps/span_sweep.py read absent parts at most 3.3e-13, present ones at least 4.2e-2.

    For the weight-ell generators J_a (n = 2 ell + 1) the Casimir identity
    sum_a J_a^2 = -ell(ell+1) I gives sum_a |J_a 1|^2 = ell(ell+1) n, so by
    |P A|^2 = (2/n) |A 1|^2 the standard parts' squared norms sum to
    2 ell(ell+1).  The total sum_a |J_a|^2 = -tr(sum_a J_a^2) =
    ell(ell+1)(2 ell+1) leaves ell(ell+1)(2 ell-1) to the stabilizer parts.
    Both are positive, so every weight spans all of so(n).

    Returns (report, B); nothing with m^2 entries is built.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    mats = _square_stack(generators, n)
    family = numerical_rank([flatten_antisym(g) for g in mats])
    if family.rank == 0:
        raise DegenerateInputError("the generators span only the zero matrix")

    tol = DEFAULT_RANK_TOL * math.sqrt(n)
    standard_norm, stabilizer_norm = _part_norms(family.vectors, n)
    standard, stabilizer = standard_norm > tol, stabilizer_norm > tol
    span_dim = (n - 1) * standard + so_dim(n - 1) * stabilizer
    report = SpanReport(
        n=n,
        generator_dim=family.rank,
        span_dim=span_dim,
        full=span_dim == so_dim(n),
        rounds=int(standard) + int(stabilizer),
        tol=tol,
        standard_norm=standard_norm,
        stabilizer_norm=stabilizer_norm,
    )
    return report, family


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

    The parts are the rows of _compound_rows(ones_fixing_rotation(n)): the
    n-1 standard rows move the ones direction and the rest annihilate it.
    The projector A -> AJ + JA (J = 11^T/n) onto the standard part commutes
    with every relabeling, so a standard basis that it fixes and a
    stabilizer basis that it sends to 0 span invariant subspaces:
    _split_residual checks that, and that the frame is orthogonal.
    Returns (report, standard, stabilizer).
    """
    if n < 4:
        raise DimensionError(f"decomposition is defined for n >= 4, got {n}")
    frame = ones_fixing_rotation(n)
    pairs = _compound_rows(frame)
    standard = SubspaceBasis(n=n, vectors=pairs[: n - 1], rank=n - 1, tol=0.0)
    stabilizer = SubspaceBasis(n=n, vectors=pairs[n - 1 :], rank=so_dim(n) - n + 1, tol=0.0)
    res = _split_residual(frame, standard.vectors, stabilizer.vectors)
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


def _compound_rows(frame: np.ndarray) -> np.ndarray:
    """Rows of the second compound of frame^T: for an orthogonal frame, a basis of so(n).

    Row (j, k), j < k in row-major order, is the flattened
    (b_j b_k^T - b_k b_j^T) / sqrt(2) for the columns b_j of frame: entry
    (r, s) is b_j[r] b_k[s] - b_j[s] b_k[r].  With b_0 = ones/sqrt(n) the
    first n-1 rows span the standard part and the rest the stabilizer
    part.  Each block of entries with a common r is filled in place, so no
    temporary is larger than m x n.
    """
    n = frame.shape[0]
    rows, cols = upper_triangle_indices(n)
    first, second = frame.T[rows], frame.T[cols]
    out = np.empty((rows.size, rows.size))
    start = 0
    for r in range(n - 1):
        block = out[:, start : start + n - 1 - r]
        np.multiply(first[:, r, None], second[:, r + 1 :], out=block)
        block -= first[:, r + 1 :] * second[:, r, None]
        start += n - 1 - r
    return out


def _part_norms(flat: np.ndarray, n: int) -> tuple[float, float]:
    """Frobenius norms of the standard and stabilizer parts of a stack of flattened rows.

    _standard_part's projector without its (n, m) M(1), 67 MB at n = 257:
    x M(1)^T is a signed scatter onto the n points, the standard part its gather over n.
    """
    rows, cols = upper_triangle_indices(n)
    sums = np.zeros((flat.shape[0], n))
    np.add.at(sums, (slice(None), rows), flat)
    np.subtract.at(sums, (slice(None), cols), flat)
    standard = (sums[:, rows] - sums[:, cols]) / n
    return float(np.linalg.norm(sums)) / math.sqrt(n), float(np.linalg.norm(flat - standard))


def _pair_incidence(w: np.ndarray) -> np.ndarray:
    """M(w)[i, k] = [r_k = i] w[s_k] - [s_k = i] w[r_k] for the pairs k = (r_k, s_k), r_k < s_k.

    x @ M(w)^T = sqrt(2) A w for the flattened x of an antisymmetric A; M(1) is the pairs' incidence matrix.
    """
    rows, cols = upper_triangle_indices(w.size)
    points = np.arange(w.size)[:, None]
    return (points == rows) * w[cols] - (points == cols) * w[rows]


def _standard_part(flat: np.ndarray, incidence: np.ndarray) -> np.ndarray:
    """AJ + JA = v1^T - 1v^T (J = 11^T/n, v = A1/n) for each flattened row A, with incidence = M(1).

    A second form of _part_norms' scatter: at decompose's n <= 125 the dense product
    is BLAS-fast, and the scatter would move block-check's reported last bits.
    """
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
    images = basis.vectors[:, idx]
    images *= sign
    if basis.residual(images) > _CHARACTER_TOL:
        raise InvarianceViolationError("subspace is not invariant under the given permutation")
    return float(np.sum(np.multiply(images, basis.vectors, out=images)))


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
