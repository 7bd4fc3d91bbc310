"""Seeded Monte Carlo tests for distributional symmetry claims.

The module provides one two-sample primitive (the energy distance between
empirical measures, V-statistic form, with permutation calibration) and
builds the symmetry tests on it: exchangeability of coordinates,
invariance under random rotations, independence of radius and direction,
uniformity on the sphere, and one-dimensional Gaussianity.  A random walk
on a sphere driven by permutation-conjugated irreducible rotations probes
that the group those matrices generate acts transitively enough to leave
only the uniform distribution invariant.

Every test consumes an integer seed and returns a TestReport that is
bit-identical across runs with the same inputs.  Internally each logical
unit of randomness derives its own stream from the seed, so results do
not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateInputError, DimensionError
from .so3_irreps import build_generators, rep_matrix_batch

__all__ = [
    "SampleMatrix",
    "TestReport",
    "calibration_suite",
    "dump_sample_matrix",
    "energy_two_sample_test",
    "haar_rotation",
    "load_sample_matrix",
    "orbit_random_walk",
    "orbit_walk_samples",
    "test_exchangeability",
    "test_gaussianity_1d",
    "test_radial_angular_independence",
    "test_rotational_invariance",
    "test_uniform_on_sphere",
]

DEFAULT_PERMUTATIONS = 999
DEFAULT_ALPHA = 0.01
UNIFORMITY_SIMULATIONS = 499
GAUSSIANITY_BOOTSTRAP = 299

# pooled sizes up to this use float64 distance matrices; larger ones float32
_FLOAT32_CUTOVER = 2048
# scratch entries per distance-covariance kernel pass (1 MiB in float64)
_DCOV_BUFFER = 2**17


@dataclass(frozen=True)
class SampleMatrix:
    """n sample vectors in R^d stacked as rows, all entries finite."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 1:
            raise DimensionError(f"need a 2-d stack of row vectors, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("sample entries must be finite")
        object.__setattr__(self, "rows", r)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def dump_sample_matrix(samples: SampleMatrix, path) -> None:
    np.savetxt(path, samples.rows, fmt="%.17g", delimiter=",")


def load_sample_matrix(path) -> SampleMatrix:
    return SampleMatrix(np.loadtxt(path, delimiter=",", ndmin=2))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one seeded hypothesis test."""

    name: str
    statistic: float
    p_value: float
    n_permutations: int
    alpha: float
    reject: bool
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")
        if not math.isfinite(self.statistic):
            raise ValueError("test statistic must be finite")
        if self.reject != (self.p_value < self.alpha):
            raise ValueError("reject flag must equal (p_value < alpha)")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": float(self.statistic),
            "p_value": float(self.p_value),
            "n_permutations": int(self.n_permutations),
            "alpha": float(self.alpha),
            "reject": bool(self.reject),
            "seed": int(self.seed),
        }


def _as_rows(x, min_n: int = 1) -> np.ndarray:
    rows = x.rows if isinstance(x, SampleMatrix) else np.asarray(x, dtype=float)
    if rows.ndim != 2:
        raise DimensionError(f"need a 2-d stack of row vectors, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("sample entries must be finite")
    if rows.shape[0] < min_n:
        raise ValueError(f"need at least {min_n} rows, got {rows.shape[0]}")
    return rows


def _report(name, statistic, p_value, n_permutations, alpha, seed) -> TestReport:
    return TestReport(
        name=name,
        statistic=float(statistic),
        p_value=float(p_value),
        n_permutations=int(n_permutations),
        alpha=float(alpha),
        reject=bool(p_value < alpha),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Haar-distributed rotations


def _haar_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """count independent Haar draws from SO(d), shape (count, d, d)."""
    g = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(g)
    diag = np.einsum("...ii->...i", r)
    signs = np.where(diag < 0.0, -1.0, 1.0)
    q = q * signs[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0.0, :, -1] *= -1.0
    return q


def haar_rotation(d: int, seed) -> np.ndarray:
    """One Haar-distributed d x d special orthogonal matrix.

    A standard Gaussian matrix is orthonormalized by QR; multiplying each
    column by the sign of the corresponding diagonal entry of R removes
    the factorization ambiguity and makes the law Haar on O(d).  If the
    determinant is -1 the last column is flipped, landing in SO(d).
    """
    if d < 2:
        raise DimensionError(f"need dimension at least 2, got {d}")
    q = _haar_batch(np.random.default_rng(seed), 1, d)[0]
    defect = np.max(np.abs(q.T @ q - np.eye(d)))
    if defect > 1e-10 or abs(np.linalg.det(q) - 1.0) > 1e-8:
        raise ArithmeticError(f"orthonormalization defect {defect:.3e}")
    return q


# ---------------------------------------------------------------------------
# Energy two-sample machinery


def _distance_matrix(pooled: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix with an exactly zero diagonal.

    Small inputs use float64 broadcast differences (bitwise reproducible
    per entry); large ones use a float32 Gram-matrix path to keep the
    quadratic cost and memory in check.
    """
    total = pooled.shape[0]
    if total <= _FLOAT32_CUTOVER:
        out = np.empty((total, total))
        step = 256
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            diff = pooled[lo:hi, None, :] - pooled[None, :, :]
            out[lo:hi] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    else:
        x32 = pooled.astype(np.float32)
        sq = np.einsum("ij,ij->i", x32, x32)
        out = x32 @ x32.T
        out *= -2.0
        out += sq[:, None]
        out += sq[None, :]
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        _zero_exact_row_ties(out, pooled)
    np.fill_diagonal(out, 0.0)
    return out


def _zero_exact_row_ties(dist: np.ndarray, pooled: np.ndarray) -> None:
    """Entries between bitwise equal rows must be exactly zero.

    The Gram path loses that to float32 cancellation, which would break
    the tie contract (identical samples score zero), so repair in place.
    """
    order = np.lexsort(pooled.T)
    ordered = pooled[order]
    boundary = np.any(ordered[1:] != ordered[:-1], axis=1)
    if boundary.all():
        return
    starts = np.flatnonzero(np.concatenate(([True], boundary)))
    ends = np.concatenate((starts[1:], [pooled.shape[0]]))
    for lo, hi in zip(starts, ends):
        if hi - lo > 1:
            group = order[lo:hi]
            dist[np.ix_(group, group)] = 0.0


def _energy_observed(dist: np.ndarray, n: int, m: int) -> float:
    saa = float(dist[:n, :n].sum(dtype=np.float64))
    sbb = float(dist[n:, n:].sum(dtype=np.float64))
    sab = float(dist[:n, n:].sum(dtype=np.float64))
    return 2.0 * (sab / (n * m)) - saa / (n * n) - sbb / (m * m)


def _energy_permutation_stats(dist: np.ndarray, labels: np.ndarray, n: int, m: int) -> np.ndarray:
    """Energy statistics for many 0/1 label columns against one matrix.

    labels has shape (n + m, B) with exactly n ones per column marking
    the first group.  Everything reduces to one matrix product.
    """
    labels = labels.astype(dist.dtype)
    rowsums = dist.sum(axis=1, dtype=np.float64)
    total = float(rowsums.sum())
    q = dist @ labels
    szq = np.einsum("ib,ib->b", labels, q, dtype=np.float64)
    s1q = np.einsum("i,ib->b", rowsums, labels, dtype=np.float64)
    saa = szq
    sab = s1q - szq
    sbb = total - 2.0 * s1q + szq
    return 2.0 * (sab / (n * m)) - saa / (n * n) - sbb / (m * m)


def _relabel_columns(rng: np.random.Generator, total: int, n: int, count: int) -> np.ndarray:
    noise = rng.random((total, count))
    ranks = np.argsort(np.argsort(noise, axis=0), axis=0)
    return (ranks < n).astype(np.float64)


def _pairswap_columns(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    keep = rng.integers(0, 2, size=(n, count)).astype(np.float64)
    return np.concatenate([keep, 1.0 - keep], axis=0)


def _energy_test_core(x_rows, y_rows, n_permutations, rng, paired: bool):
    n, m = x_rows.shape[0], y_rows.shape[0]
    pooled = np.concatenate([x_rows, y_rows], axis=0)
    dist = _distance_matrix(pooled)
    observed = _energy_observed(dist, n, m)
    if paired:
        labels = _pairswap_columns(rng, n, n_permutations)
    else:
        labels = _relabel_columns(rng, n + m, n, n_permutations)
    stats = _energy_permutation_stats(dist, labels, n, m)
    p_value = (1.0 + int(np.sum(stats >= observed))) / (n_permutations + 1.0)
    return observed, p_value


def energy_two_sample_test(
    x,
    y,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> TestReport:
    """Permutation energy test of equality of two sample distributions.

    The statistic is the squared energy distance between the empirical
    measures, 2 mean|x_i - y_j| - mean|x_i - x_i'| - mean|y_j - y_j'| with
    all means over full index grids, so identical samples score exactly
    zero.  The null distribution comes from pooled relabelings that
    preserve the group sizes.
    """
    x_rows = _as_rows(x)
    y_rows = _as_rows(y)
    if x_rows.shape[1] != y_rows.shape[1]:
        raise DimensionError(
            f"dimension mismatch: {x_rows.shape[1]} vs {y_rows.shape[1]}"
        )
    if n_permutations < 99:
        raise ValueError(f"need at least 99 permutations, got {n_permutations}")
    rng = np.random.default_rng(seed)
    observed, p_value = _energy_test_core(x_rows, y_rows, n_permutations, rng, paired=False)
    return _report("energy_two_sample", observed, p_value, n_permutations, alpha, seed)


def test_exchangeability(
    x,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> TestReport:
    """Energy test of x against a per-row coordinate-permuted copy.

    Under exchangeable coordinates each pair (row, permuted row) is an
    exchangeable pair, so the null is realized by swapping the two group
    labels within pairs; that restricted relabeling keeps the test exact
    despite the rows being shared between the samples.
    """
    rows = _as_rows(x, min_n=100)
    if n_permutations < 99:
        raise ValueError(f"need at least 99 permutations, got {n_permutations}")
    ss = np.random.SeedSequence(seed)
    data_rng, perm_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    n, d = rows.shape
    order = data_rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
    shuffled = np.take_along_axis(rows, order, axis=1)
    observed, p_value = _energy_test_core(rows, shuffled, n_permutations, perm_rng, paired=True)
    return _report("exchangeability", observed, p_value, n_permutations, alpha, seed)


def test_rotational_invariance(
    x,
    n_rotations: int = 1,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> TestReport:
    """Energy test of x against per-row Haar-rotated copies.

    Each batch pairs every row with a fresh Haar rotation applied to it;
    within-pair label swaps give an exact null because a rotationally
    invariant row and its rotated image form an exchangeable pair.  With
    n_rotations > 1 the batch p-values are Bonferroni-combined and the
    largest batch statistic is reported.
    """
    rows = _as_rows(x, min_n=100)
    if n_rotations < 1:
        raise ValueError(f"need at least one rotation batch, got {n_rotations}")
    if n_permutations < 99:
        raise ValueError(f"need at least 99 permutations, got {n_permutations}")
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(2 * n_rotations)
    n, d = rows.shape
    best_p = 1.0
    best_stat = -math.inf
    for k in range(n_rotations):
        rot_rng = np.random.default_rng(children[2 * k])
        perm_rng = np.random.default_rng(children[2 * k + 1])
        q = _haar_batch(rot_rng, n, d)
        rotated = np.einsum("nij,nj->ni", q, rows)
        stat, p = _energy_test_core(rows, rotated, n_permutations, perm_rng, paired=True)
        best_p = min(best_p, p)
        best_stat = max(best_stat, stat)
    p_value = min(1.0, n_rotations * best_p)
    return _report("rotational_invariance", best_stat, p_value, n_permutations, alpha, seed)


# ---------------------------------------------------------------------------
# Distance covariance: radius vs direction


def _triangle_panels(centered: np.ndarray, panel_elements: int) -> list[tuple[int, np.ndarray]]:
    """Upper-triangle row panels (lo, A[lo:hi, lo:]) of a symmetric matrix.

    Entries on and below the diagonal are zeroed and those above it
    doubled (exact), so a panel sum over j >= i equals the full sum over
    rows lo..hi-1.  Each panel holds about panel_elements entries, so
    panels grow taller as the triangle narrows.
    """
    n = centered.shape[0]
    panels = []
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, panel_elements // (n - lo)))
        panel = np.triu(centered[lo:hi, lo:], 1)
        panel *= 2
        panels.append((lo, panel))
        lo = hi
    return panels


def _dcov_stats(radius_rows: np.ndarray, panels: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """sum_ij |r_i - r_j| * A_ij for each row r of radius_rows.

    A is given as its triangle panels (_triangle_panels).  Per panel one
    scratch buffer takes the absolute differences of all rows at once and
    a single matrix-vector product against the panel reduces them.
    """
    k = radius_rows.shape[0]
    buf = np.empty(k * max(panel.size for _, panel in panels), dtype=radius_rows.dtype)
    totals = np.zeros(k)
    for lo, panel in panels:
        h, w = panel.shape
        diffs = buf[: k * h * w].reshape(k, h, w)
        np.subtract(radius_rows[:, lo : lo + h, None], radius_rows[:, None, lo:], out=diffs)
        np.abs(diffs, out=diffs)
        totals += diffs.reshape(k, h * w) @ panel.ravel()
    return totals


def test_radial_angular_independence(
    x,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> TestReport:
    """Distance-covariance test between |x_i| and x_i / |x_i|.

    The statistic is the squared sample distance covariance (V-statistic)
    between the radius and the direction; the permutation null shuffles
    the radial column against fixed directions, which is exact under
    independence.  The observed and the permuted statistics go through
    one kernel, which scores a few radius rows at a time in about
    _DCOV_BUFFER scratch entries.
    """
    rows = _as_rows(x, min_n=100)
    if n_permutations < 99:
        raise ValueError(f"need at least 99 permutations, got {n_permutations}")
    radii = np.linalg.norm(rows, axis=1)
    if np.any(radii < 1e-12):
        raise DegenerateInputError("zero-norm rows have no direction")
    directions = rows / radii[:, None]
    n = rows.shape[0]
    rng = np.random.default_rng(seed)

    dtype = np.float64 if n <= _FLOAT32_CUTOVER else np.float32
    dmat = _distance_matrix(directions).astype(dtype, copy=False)
    row_means = dmat.mean(axis=1, dtype=np.float64)
    grand = float(row_means.mean())
    dmat -= row_means.astype(dtype)[:, None]
    dmat -= row_means.astype(dtype)[None, :]
    dmat += dtype(grand)

    # enough permutations per pass that the widest panel is about 4 rows
    # tall: each panel then serves several permutations while in cache
    per_pass = max(1, _DCOV_BUFFER // (4 * n))
    panels = _triangle_panels(dmat, _DCOV_BUFFER // per_pass)
    del dmat
    r_cast = radii.astype(dtype)
    observed = _dcov_stats(r_cast[None, :], panels)[0] / (n * n)
    count = 0
    for done in range(0, n_permutations, per_pass):
        k = min(per_pass, n_permutations - done)
        shuffled = r_cast[np.stack([rng.permutation(n) for _ in range(k)])]
        count += int(np.sum(_dcov_stats(shuffled, panels) / (n * n) >= observed))
    p_value = (1.0 + count) / (n_permutations + 1.0)
    return _report("radial_angular_independence", observed, p_value, n_permutations, alpha, seed)


# ---------------------------------------------------------------------------
# Uniformity on the sphere


def _uniformity_stats(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resultant lengths and second-moment deviations of (count, n, d) samples."""
    n, d = stack.shape[1:]
    resultant = np.linalg.norm(stack.mean(axis=1), axis=1)
    cov = np.matmul(stack.transpose(0, 2, 1), stack) / n
    cov_dev = np.linalg.norm(cov - np.eye(d) / d, "fro", axis=(1, 2))
    return resultant, cov_dev


def test_uniform_on_sphere(
    x,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
    n_simulations: int = UNIFORMITY_SIMULATIONS,
) -> TestReport:
    """Monte Carlo test of uniformity for unit vectors.

    Combines the resultant length |mean v_i| and the Frobenius deviation
    of the second-moment matrix from I/d.  Both are calibrated against
    n_simulations draws of exactly uniform samples of the same shape and
    Bonferroni-combined; the reported statistic is the smaller of the two
    component Monte Carlo p-values (smaller means less uniform).  The
    simulations are drawn and scored in chunks of about 2**18 entries.
    """
    rows = _as_rows(x)
    norms = np.linalg.norm(rows, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("rows must be unit vectors within 1e-8")
    if n_simulations < 99:
        raise ValueError(f"need at least 99 simulations, got {n_simulations}")
    n, d = rows.shape
    [obs_res], [obs_cov] = _uniformity_stats(rows[None])
    rng = np.random.default_rng(seed)
    chunk = max(1, 2**18 // (n * d))
    hits_res = 0
    hits_cov = 0
    for done in range(0, n_simulations, chunk):
        g = rng.standard_normal((min(chunk, n_simulations - done), n, d))
        g /= np.linalg.norm(g, axis=2)[:, :, None]
        sim_res, sim_cov = _uniformity_stats(g)
        hits_res += int(np.sum(sim_res >= obs_res))
        hits_cov += int(np.sum(sim_cov >= obs_cov))
    p_res = (1.0 + hits_res) / (n_simulations + 1.0)
    p_cov = (1.0 + hits_cov) / (n_simulations + 1.0)
    smaller = min(p_res, p_cov)
    p_value = min(1.0, 2.0 * smaller)
    return _report("uniform_on_sphere", smaller, p_value, n_simulations, alpha, seed)


# ---------------------------------------------------------------------------
# One-dimensional Gaussianity


def _ks_zero_mean_unit(sorted_scaled: np.ndarray) -> np.ndarray:
    """KS distances against N(0,1) for pre-sorted rows, shape (..., n)."""
    n = sorted_scaled.shape[-1]
    cdf = ndtr(sorted_scaled)
    steps = np.arange(1, n + 1) / n
    upper = np.max(steps - cdf, axis=-1)
    lower = np.max(cdf - (steps - 1.0 / n), axis=-1)
    return np.maximum(upper, lower)


def test_gaussianity_1d(
    values,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
    n_bootstrap: int = GAUSSIANITY_BOOTSTRAP,
) -> TestReport:
    """KS test against a zero-mean normal with estimated variance.

    The scale is fitted as sqrt(mean(v^2)) under the zero-mean model, and
    the null distribution of the KS distance is simulated by a parametric
    bootstrap that refits the scale on every replicate (exact here, by
    scale equivariance of the statistic).
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 100:
        raise ValueError(f"need at least 100 values, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if float(np.var(v)) < 1e-300:
        raise DegenerateInputError("constant sample has zero variance")
    if n_bootstrap < 99:
        raise ValueError(f"need at least 99 bootstrap replicates, got {n_bootstrap}")
    n = v.size
    scale = math.sqrt(float(np.mean(v * v)))
    observed = float(_ks_zero_mean_unit(np.sort(v / scale)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_bootstrap, n))
    fitted = np.sqrt(np.mean(z * z, axis=1))
    sims = _ks_zero_mean_unit(np.sort(z / fitted[:, None], axis=1))
    count = int(np.sum(sims >= observed))
    p_value = (1.0 + count) / (n_bootstrap + 1.0)
    return _report("gaussianity_1d", observed, p_value, n_bootstrap, alpha, seed)


# ---------------------------------------------------------------------------
# Orbit random walk


def orbit_random_walk(
    ell: int,
    steps: int,
    include_odd_permutation: bool = False,
    start: np.ndarray | None = None,
    seed: int = 0,
    burn_in: int = 100,
    thin: int = 10,
) -> SampleMatrix:
    """Random walk v <- P_sigma^-1 D(g) P_sigma v on the unit sphere.

    Each step conjugates a Haar-random rotation in the weight-ell
    representation by a fresh uniform coordinate permutation and applies
    it to the state; with include_odd_permutation a fixed swap of the
    first two coordinates is interleaved after every step.  States are
    recorded every `thin` steps once `burn_in` steps have passed.  With
    steps=0 the output is the start vector alone.
    """
    if steps < 0 or burn_in < 0 or thin < 1:
        raise ValueError("need steps >= 0, burn_in >= 0 and thin >= 1")
    gens = build_generators(ell)
    d = gens.dimension
    if start is None:
        start = np.zeros(d)
        start[0] = 1.0
    start = np.asarray(start, dtype=float)
    if start.shape != (d,):
        raise DimensionError(f"start of shape {start.shape} does not match dimension {d}")
    if abs(np.linalg.norm(start) - 1.0) > 1e-8:
        raise ValueError("start must be a unit vector within 1e-8")
    if steps == 0:
        return SampleMatrix(start[None, :].copy())

    rng = np.random.default_rng(seed)
    v = start.copy()
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
    if not recorded:
        raise ValueError(
            f"no states recorded: steps={steps} with burn_in={burn_in}, thin={thin}"
        )
    out = np.array(recorded)
    drift = np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0))
    if drift > 1e-8:
        raise ArithmeticError(f"norm drift {drift:.3e} exceeds 1e-8")
    return SampleMatrix(out)


def orbit_walk_samples(
    ell: int,
    n_samples: int,
    include_odd_permutation: bool = False,
    seed: int = 0,
    burn_in: int = 100,
    thin: int = 10,
) -> SampleMatrix:
    """Walk long enough to record exactly n_samples thinned states."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    steps = burn_in + thin * n_samples
    return orbit_random_walk(
        ell,
        steps,
        include_odd_permutation=include_odd_permutation,
        start=None,
        seed=seed,
        burn_in=burn_in,
        thin=thin,
    )


# ---------------------------------------------------------------------------
# Level calibration


def _calibration_cases(alpha: float, n_permutations: int):
    def energy_case(data_rng, test_seed):
        x = data_rng.standard_normal((150, 3))
        y = data_rng.standard_normal((150, 3))
        return energy_two_sample_test(x, y, n_permutations, test_seed, alpha)

    def exchangeability_case(data_rng, test_seed):
        x = data_rng.standard_normal((200, 6))
        return test_exchangeability(x, n_permutations, test_seed, alpha)

    def rotation_case(data_rng, test_seed):
        x = data_rng.standard_normal((200, 3))
        return test_rotational_invariance(x, 1, n_permutations, test_seed, alpha)

    def independence_case(data_rng, test_seed):
        x = data_rng.standard_normal((200, 4))
        return test_radial_angular_independence(x, n_permutations, test_seed, alpha)

    def uniformity_case(data_rng, test_seed):
        g = data_rng.standard_normal((200, 3))
        g /= np.linalg.norm(g, axis=1)[:, None]
        return test_uniform_on_sphere(g, test_seed, alpha)

    def gaussianity_case(data_rng, test_seed):
        v = data_rng.standard_normal(150)
        return test_gaussianity_1d(v, test_seed, alpha)

    return [
        ("energy_two_sample", energy_case),
        ("exchangeability", exchangeability_case),
        ("rotational_invariance", rotation_case),
        ("radial_angular_independence", independence_case),
        ("uniform_on_sphere", uniformity_case),
        ("gaussianity_1d", gaussianity_case),
    ]


def calibration_suite(
    seed: int = 0,
    repetitions: int = 200,
    alpha: float = 0.05,
    n_permutations: int = 199,
) -> dict:
    """Null rejection rates for every test over seeded repetitions.

    Each repetition of each test draws fresh null data and a fresh test
    seed from streams indexed by (seed, test, repetition), so the result
    is independent of evaluation order.  A rate is flagged as in-band
    when it lies within [alpha/2, 2 alpha].
    """
    if repetitions < 1:
        raise ValueError(f"need at least one repetition, got {repetitions}")
    cases = _calibration_cases(alpha, n_permutations)
    tests = {}
    all_ok = True
    for t, (name, runner) in enumerate(cases):
        rejections = 0
        for r in range(repetitions):
            data_rng = np.random.default_rng(np.random.SeedSequence([seed, t, r, 0]))
            test_seed = int(np.random.SeedSequence([seed, t, r, 1]).generate_state(1)[0])
            rejections += runner(data_rng, test_seed).reject
        rate = rejections / repetitions
        ok = alpha / 2.0 <= rate <= 2.0 * alpha
        all_ok = all_ok and ok
        tests[name] = {
            "rejections": int(rejections),
            "rate": float(rate),
            "within_band": bool(ok),
        }
    return {
        "seed": int(seed),
        "repetitions": int(repetitions),
        "alpha": float(alpha),
        "band": [alpha / 2.0, 2.0 * alpha],
        "tests": tests,
        "all_within_band": bool(all_ok),
    }
