"""Slow references and test-only oracles for the library's fast paths.

For the span certificate, the so(n) splitting and the orbit walk, every
conjugation in the per-vector references goes one matrix at a time:
unflatten, relabel with conjugate_by_permutation, flatten again.  Each
accumulation round of accumulate_span takes the SVD of the whole stacked
round, not of a reduced factor, and every residual, character and
block-form entry is computed vector by vector.  invariance_engine works on
whole bases through signed index maps and must agree with these functions
up to rounding.  accumulate_span_projected is the frontier accumulation
that projects the images off the whole span with two Gram-Schmidt passes
in full so(n) coordinates.  The engine certifies the span from two
projection norms instead of accumulating it: it must report the same
span_dim, generator_dim, full and tol as these SVD loops, and norms
that part_norms, matrix by matrix, reproduces; its rounds counts the
parts of so(n) the span contains, not accumulation rounds.  The orbit
walk here applies every step to the state on its own;
monte_carlo_stats.orbit_random_walk draws the same steps and must record
the same states up to rounding.

The oracles that the library does not need itself:

- permutation_matrix and conjugate_by_permutation, matrix conjugation
  e a e^-1 by index gathering; lie_core.signed_index_map must match it
  bit for bit.
- plane_rotation, the generator u v^T - v u^T; with u, v orthogonal to
  the ones vector it is criterion 2's negative control.
- random_rotation, cartesian_rotation and euler_zyz_from_matrix, scalar
  Euler angles and 3 x 3 point rotations, for checking rep_matrix and
  coefficient rotation against the point rotations they represent.
- haar_rotation, one checked Haar draw from SO(d) through
  monte_carlo_stats._haar_batch.
- compound_split, transposition_sweep and perturbed_frame: the so(n)
  split's old self-check, which conjugated both parts by every adjacent
  transposition, and the frames to run it on; decompose_so_n's
  closed-form check must reject every frame this sweep rejects.
"""

import math

import numpy as np

from invspan import monte_carlo_stats as mcs
from invspan.errors import DimensionError
from invspan.invariance_engine import BlockFormReport, DecompositionReport, SpanReport, ones_fixing_rotation
from invspan.lie_core import (
    DEFAULT_RANK_TOL,
    Permutation,
    SubspaceBasis,
    flatten_antisym,
    numerical_rank,
    signed_index_map,
    so_dim,
    unflatten_antisym,
)
from invspan.so3_irreps import RotationSpec, build_generators, rep_matrix_batch


def permutation_matrix(perm):
    """Matrix e with e[perm(i), i] = 1, so that e @ x permutes coordinates."""
    n = perm.n
    mat = np.zeros((n, n))
    mat[list(perm.images), range(n)] = 1.0
    return mat


def conjugate_by_permutation(perm, a):
    """Relabel indices of a by perm: result[perm(i), perm(j)] = a[i, j].

    Equals e a e^-1 with e = permutation_matrix(perm), computed by exact
    index gathering so antisymmetry survives bitwise.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] != perm.n:
        raise DimensionError(f"permutation on {perm.n} points vs matrix of size {a.shape[0]}")
    inv = perm.inverse().images
    return a[np.ix_(inv, inv)].copy()


def plane_rotation(u, v):
    """Generator u v^T - v u^T of the rotation in the plane spanned by u, v."""
    m = np.outer(u, v)
    return m - m.T


def random_rotation(rng):
    """Haar-distributed rotation: uniform alpha, gamma and uniform cos(beta)."""
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    gamma = rng.uniform(0.0, 2.0 * math.pi)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    return RotationSpec(alpha, beta, gamma)


def _rot_z(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def cartesian_rotation(rot):
    """The 3x3 point rotation R_z(alpha) R_y(beta) R_z(gamma)."""
    return _rot_z(rot.alpha) @ _rot_y(rot.beta) @ _rot_z(rot.gamma)


def euler_zyz_from_matrix(r):
    """Euler angles of a 3x3 special orthogonal matrix (Z-Y-Z order)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise DimensionError("need a 3x3 rotation matrix")
    beta = math.acos(min(1.0, max(-1.0, r[2, 2])))
    if math.sin(beta) > 1e-9:
        alpha = math.atan2(r[1, 2], r[0, 2])
        gamma = math.atan2(r[2, 1], -r[2, 0])
    elif r[2, 2] > 0.0:
        # beta ~ 0: only alpha + gamma is determined
        alpha = math.atan2(r[1, 0], r[0, 0])
        gamma = 0.0
    else:
        # beta ~ pi: only alpha - gamma is determined
        alpha = math.atan2(-r[0, 1], r[1, 1])
        gamma = 0.0
    return RotationSpec(alpha, beta, gamma)


def haar_rotation(d, seed):
    """One Haar-distributed d x d special orthogonal matrix, checked.

    Draws through monte_carlo_stats._haar_batch, the sampler the rotation
    tests use, and checks that the result is special orthogonal.
    """
    if d < 2:
        raise DimensionError(f"need dimension at least 2, got {d}")
    q = mcs._haar_batch(np.random.default_rng(seed), 1, d)[0]
    defect = np.max(np.abs(q.T @ q - np.eye(d)))
    if defect > 1e-10 or abs(np.linalg.det(q) - 1.0) > 1e-8:
        raise ArithmeticError(f"orthonormalization defect {defect:.3e}")
    return q


def conjugate_rows(vectors, perm):
    return np.array(
        [flatten_antisym(conjugate_by_permutation(perm, unflatten_antisym(v, perm.n))) for v in vectors]
    )


def residual(basis, v):
    return float(np.linalg.norm(v - basis.vectors.T @ (basis.vectors @ v)))


def part_norms(vectors, n):
    """Frobenius norms of the standard parts AJ + JA (J = 11^T/n) of the rows' matrices and of the rest.

    Matrix by matrix: AJ + JA = v 1^T - 1 v^T with v = A 1 / n, and the
    Frobenius norm of a matrix equals that of its flattened row.
    """
    standard = stabilizer = 0.0
    for a in unflatten_antisym(np.asarray(vectors), n):
        v = a.sum(axis=1) / n
        part = np.subtract.outer(v, v)
        standard += float(np.sum(part * part))
        stabilizer += float(np.sum((a - part) ** 2))
    return math.sqrt(standard), math.sqrt(stabilizer)


def accumulate_span(generators, n):
    full_dim = so_dim(n)
    transpositions = [Permutation.transposition(n, i, i + 1) for i in range(n - 1)]
    basis = numerical_rank([flatten_antisym(np.asarray(g, dtype=float)) for g in generators])
    generator_dim = basis.rank
    standard_norm, stabilizer_norm = part_norms(basis.vectors, n)
    rounds = 0
    while True:
        rounds += 1
        stack = [basis.vectors] + [conjugate_rows(basis.vectors, tau) for tau in transpositions]
        grown = numerical_rank(np.vstack(stack))
        stable = grown.rank == basis.rank
        basis = grown
        if stable:
            break
        assert rounds <= full_dim + 2, "reference accumulation did not stabilize"
    report = SpanReport(
        n=n,
        generator_dim=generator_dim,
        span_dim=basis.rank,
        full=basis.rank == full_dim,
        rounds=rounds,
        tol=basis.tol,
        standard_norm=standard_norm,
        stabilizer_norm=stabilizer_norm,
    )
    return report, basis


def accumulate_span_projected(generators, n):
    """Frontier accumulation with the images projected off the whole span.

    Each round conjugates the frontier by the n-1 adjacent transpositions,
    subtracts the projection onto the current span twice, reduces a tall
    stack to its R factor and keeps the right singular vectors above
    DEFAULT_RANK_TOL * sqrt(n) as the next frontier.
    """
    full_dim = so_dim(n)
    maps = [signed_index_map(Permutation.transposition(n, i, i + 1)) for i in range(n - 1)]
    basis = numerical_rank([flatten_antisym(np.asarray(g, dtype=float)) for g in generators])
    threshold = DEFAULT_RANK_TOL * math.sqrt(n)
    span = frontier = basis.vectors
    rounds = 0
    while frontier.shape[0]:
        rounds += 1
        images = np.vstack([frontier[:, idx] * sign for idx, sign in maps])
        for _ in range(2):
            images -= (images @ span.T) @ span
        if images.shape[0] > images.shape[1]:
            images = np.linalg.qr(images, mode="r")
        _, s, vt = np.linalg.svd(images, full_matrices=False)
        frontier = vt[s > threshold]
        span = np.vstack([span, frontier])
        assert span.shape[0] <= full_dim, "span accumulation exceeded the dimension of so(n)"
    rank = span.shape[0]
    standard_norm, stabilizer_norm = part_norms(basis.vectors, n)
    report = SpanReport(
        n=n,
        generator_dim=basis.rank,
        span_dim=rank,
        full=rank == full_dim,
        rounds=rounds,
        tol=threshold,
        standard_norm=standard_norm,
        stabilizer_norm=stabilizer_norm,
    )
    return report, SubspaceBasis(n=n, vectors=span, rank=rank, tol=threshold)


def character(basis, perm, tol=1e-8):
    trace = 0.0
    for v in basis.vectors:
        image = conjugate_rows([v], perm)[0]
        assert residual(basis, image) <= tol, "reference character: subspace not invariant"
        trace += float(v @ image)
    return trace


def decompose(n):
    """Standard and stabilizer parts from the kernel of A -> A . ones."""
    k = np.zeros((n, so_dim(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for col, (i, j) in enumerate(pairs):
        k[i, col] += 1.0 / math.sqrt(2.0)
        k[j, col] -= 1.0 / math.sqrt(2.0)
    _, s, vt = np.linalg.svd(k, full_matrices=True)
    threshold = DEFAULT_RANK_TOL * s[0]
    rank = int(np.sum(s > threshold))
    standard = SubspaceBasis(n=n, vectors=vt[:rank].copy(), rank=rank, tol=float(threshold))
    stabilizer = SubspaceBasis(n=n, vectors=vt[rank:].copy(), rank=vt.shape[0] - rank, tol=float(threshold))
    for basis in (standard, stabilizer):
        for i in range(n - 1):
            tau = Permutation.transposition(n, i, i + 1)
            for v in basis.vectors:
                assert residual(basis, conjugate_rows([v], tau)[0]) <= 1e-10
    swap01 = Permutation.transposition(n, 0, 1)
    report = DecompositionReport(
        n=n,
        standard_dim=standard.rank,
        stabilizer_dim=stabilizer.rank,
        standard_char_transposition=character(standard, swap01),
        stabilizer_char_transposition=character(stabilizer, swap01),
    )
    return report, standard, stabilizer


def compound_split(frame):
    """The standard and stabilizer rows that decompose_so_n builds from frame, pair by pair.

    Row (j, k), j < k, is the flattened (b_j b_k^T - b_k b_j^T) / sqrt(2) of
    the columns b_j, b_k of frame; the n-1 rows with j = 0 come first.
    """
    n = frame.shape[0]
    rows = np.array(
        [flatten_antisym(plane_rotation(frame[:, j], frame[:, k])) for j in range(n) for k in range(j + 1, n)]
    ) / math.sqrt(2.0)
    return rows[: n - 1], rows[n - 1 :]


def transposition_sweep(standard, stabilizer):
    """Largest residual of either part's rows under the adjacent transpositions.

    The self-check decompose_so_n made before its closed-form projector:
    each part's rows are conjugated by each of the n-1 adjacent
    transpositions and projected back onto the part; the largest distance
    that is left over is returned.
    """
    n = (1 + math.isqrt(1 + 8 * standard.shape[1])) // 2
    worst = 0.0
    for vectors in (standard, stabilizer):
        for i in range(n - 1):
            idx, sign = signed_index_map(Permutation.transposition(n, i, i + 1))
            images = vectors[:, idx] * sign
            off = images - (images @ vectors.T) @ vectors
            worst = max(worst, float(np.max(np.linalg.norm(off, axis=1))))
    return worst


FRAME_PERTURBATIONS = ("dense", "upper", "rotation", "complement")


def perturbed_frame(n, kind, eps, rng):
    """ones_fixing_rotation(n) moved by about eps in one of FRAME_PERTURBATIONS.

    dense and upper add eps times a Gaussian matrix, in full or its upper
    triangle; rotation multiplies by I + eps K, K antisymmetric, a
    rotation to first order; complement mixes the columns orthogonal to
    ones by I + eps G, so they stay orthogonal to ones but not to each
    other.
    """
    b = ones_fixing_rotation(n)
    g = rng.standard_normal((n, n))
    if kind == "dense":
        return b + eps * g
    if kind == "upper":
        return b + eps * np.triu(g)
    if kind == "rotation":
        return b @ (np.eye(n) + eps * (g - g.T))
    if kind == "complement":
        b[:, 1:] = b[:, 1:] @ (np.eye(n - 1) + eps * g[1:, 1:])
        return b
    raise ValueError(f"unknown perturbation {kind!r}")


def block_form(n, tol=1e-10):
    _, standard, stabilizer = decompose(n)
    b = ones_fixing_rotation(n)
    conj_std = [b.T @ unflatten_antisym(v, n) @ b for v in standard.vectors]
    conj_stab = [b.T @ unflatten_antisym(v, n) @ b for v in stabilizer.vectors]
    stab_max = max(max(np.max(np.abs(c[0, :])), np.max(np.abs(c[:, 0]))) for c in conj_stab)
    std_max = max(np.max(np.abs(c[1:, 1:])) for c in conj_std)
    cross = max(abs(float(np.sum(cs * ct))) for cs in conj_std for ct in conj_stab)
    # the projector onto the standard part, A -> AJ + JA with J = 11^T/n
    j = np.full((n, n), 1.0 / n)
    std_proj = max(np.max(np.abs(a @ j + j @ a - a)) for a in map(unflatten_antisym, standard.vectors))
    stab_proj = max(np.max(np.abs(a @ j + j @ a)) for a in map(unflatten_antisym, stabilizer.vectors))
    residuals = (stab_max, std_max, cross, std_proj, stab_proj)
    return BlockFormReport(
        n=n,
        stabilizer_first_rowcol_max=float(stab_max),
        standard_complement_max=float(std_max),
        cross_gram_max=cross,
        standard_projector_residual=float(std_proj),
        stabilizer_projector_residual=float(stab_proj),
        tol=tol,
        passed=all(r <= tol for r in residuals),
    )


def orbit_random_walk(ell, steps, include_odd_permutation=False, start=None, seed=0, burn_in=100, thin=10):
    gens = build_generators(ell)
    d = gens.dimension
    if start is None:
        start = np.zeros(d)
        start[0] = 1.0
    rng = np.random.default_rng(seed)
    v = np.array(start, dtype=float)
    recorded = []
    done = 0
    block_size = 20000
    while done < steps:
        block = min(block_size, steps - done)
        alphas = rng.uniform(0.0, 2.0 * math.pi, block)
        betas = np.arccos(rng.uniform(-1.0, 1.0, block))
        gammas = rng.uniform(0.0, 2.0 * math.pi, block)
        mats = rep_matrix_batch(gens, alphas, betas, gammas)
        perms = rng.permuted(np.tile(np.arange(d), (block, 1)), axis=1)
        conj = mats[np.arange(block)[:, None, None], perms[:, :, None], perms[:, None, :]]
        for t in range(block):
            v = conj[t] @ v
            if include_odd_permutation:
                v[0], v[1] = v[1], v[0]
            done += 1
            if done > burn_in and (done - burn_in) % thin == 0:
                recorded.append(v.copy())
    return np.array(recorded)


def gaussianity_bootstrap(values, seed, n_bootstrap, stop=None):
    """Observed KS distance, exceedance count and draws scored, from scipy.special.ndtr.

    A curtailed run scores whole chunks (monte_carlo_stats._FIRST_CHUNK
    draws, doubling, at most _PANEL_BUDGET // n) and stops after the
    chunk in which the count reaches stop.
    """
    from scipy.special import ndtr

    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    steps = np.arange(1, n + 1) / n

    def ks(row):
        cdf = ndtr(np.sort(row / math.sqrt(float(np.mean(row * row)))))
        return max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / n))))

    observed = ks(v)
    z = np.random.default_rng(seed).standard_normal((n_bootstrap, n))
    exceeds = [ks(row) >= observed for row in z]
    used, size = 0, mcs._FIRST_CHUNK
    while used < n_bootstrap and (stop is None or sum(exceeds[:used]) < stop):
        used = min(used + min(size, max(1, mcs._PANEL_BUDGET // n)), n_bootstrap)
        size *= 2
    return observed, sum(exceeds[:used]), used
