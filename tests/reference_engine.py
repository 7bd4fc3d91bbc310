"""Slow references for the span certificate, the so(n) splitting and the orbit walk.

Every conjugation in the per-vector references goes one matrix at a time:
unflatten, relabel with conjugate_by_permutation, flatten again.  Each
accumulation round of accumulate_span takes the SVD of the whole stacked
round, not of a reduced factor, and every residual, character and
block-form entry is computed vector by vector.  invariance_engine works on
whole bases through signed index maps and must agree with these functions
up to rounding.  accumulate_span_projected is the frontier accumulation
that projects the images off the whole span with two Gram-Schmidt passes
in full so(n) coordinates; the engine, which works in coordinates of the
span's complement, must report the same rank, rounds and tol.  The orbit
walk here applies every step to the state on its own;
monte_carlo_stats.orbit_random_walk draws the same steps and must record
the same states up to rounding.
"""

import math

import numpy as np

from invspan.invariance_engine import BlockFormReport, DecompositionReport, SpanReport, ones_fixing_rotation
from invspan.lie_core import (
    DEFAULT_RANK_TOL,
    Permutation,
    SubspaceBasis,
    conjugate_by_permutation,
    flatten_antisym,
    numerical_rank,
    signed_index_map,
    so_dim,
    unflatten_antisym,
)
from invspan.so3_irreps import build_generators, rep_matrix_batch


def conjugate_rows(vectors, perm):
    return np.array(
        [flatten_antisym(conjugate_by_permutation(perm, unflatten_antisym(v, perm.n))) for v in vectors]
    )


def residual(basis, v):
    return float(np.linalg.norm(v - basis.vectors.T @ (basis.vectors @ v)))


def accumulate_span(generators, n, tol_factor=DEFAULT_RANK_TOL):
    full_dim = so_dim(n)
    transpositions = [Permutation.transposition(n, i, i + 1) for i in range(n - 1)]
    basis = numerical_rank([flatten_antisym(np.asarray(g, dtype=float)) for g in generators], tol_factor)
    generator_dim = basis.rank
    rounds = 0
    while True:
        rounds += 1
        stack = [basis.vectors] + [conjugate_rows(basis.vectors, tau) for tau in transpositions]
        grown = numerical_rank(np.vstack(stack), tol_factor)
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
    )
    return report, basis


def accumulate_span_projected(generators, n, tol_factor=DEFAULT_RANK_TOL):
    """Frontier accumulation with the images projected off the whole span.

    Each round conjugates the frontier by the n-1 adjacent transpositions,
    subtracts the projection onto the current span twice, reduces a tall
    stack to its R factor and keeps the right singular vectors above
    tol_factor * sqrt(n) as the next frontier.
    """
    full_dim = so_dim(n)
    maps = [signed_index_map(Permutation.transposition(n, i, i + 1)) for i in range(n - 1)]
    basis = numerical_rank([flatten_antisym(np.asarray(g, dtype=float)) for g in generators], tol_factor)
    threshold = tol_factor * math.sqrt(n)
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
    report = SpanReport(
        n=n,
        generator_dim=basis.rank,
        span_dim=rank,
        full=rank == full_dim,
        rounds=rounds,
        tol=threshold,
    )
    return report, SubspaceBasis(n=n, vectors=span, rank=rank, tol=threshold)


def character(basis, perm, tol=1e-8):
    trace = 0.0
    for v in basis.vectors:
        image = conjugate_rows([v], perm)[0]
        assert residual(basis, image) <= tol, "reference character: subspace not invariant"
        trace += float(v @ image)
    return trace


def decompose(n, tol_factor=DEFAULT_RANK_TOL):
    """Standard and stabilizer parts from the kernel of A -> A . ones."""
    k = np.zeros((n, so_dim(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for col, (i, j) in enumerate(pairs):
        k[i, col] += 1.0 / math.sqrt(2.0)
        k[j, col] -= 1.0 / math.sqrt(2.0)
    _, s, vt = np.linalg.svd(k, full_matrices=True)
    threshold = tol_factor * s[0]
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


def block_form(n, tol=1e-10):
    _, standard, stabilizer = decompose(n)
    b = ones_fixing_rotation(n)
    conj_std = [b.T @ unflatten_antisym(v, n) @ b for v in standard.vectors]
    conj_stab = [b.T @ unflatten_antisym(v, n) @ b for v in stabilizer.vectors]
    stab_max = max(max(np.max(np.abs(c[0, :])), np.max(np.abs(c[:, 0]))) for c in conj_stab)
    std_max = max(np.max(np.abs(c[1:, 1:])) for c in conj_std)
    cross = max(abs(float(np.sum(cs * ct))) for cs in conj_std for ct in conj_stab)
    return BlockFormReport(
        n=n,
        stabilizer_first_rowcol_max=float(stab_max),
        standard_complement_max=float(std_max),
        cross_gram_max=cross,
        tol=tol,
        passed=stab_max <= tol and std_max <= tol and cross <= tol,
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
