"""Seeded Monte Carlo tests for distributional symmetry claims.

The module provides one two-sample primitive (the energy distance between
empirical measures, V-statistic form, with permutation calibration) and
builds the symmetry tests on it: exchangeability of coordinates,
invariance under random rotations, independence of radius and direction,
uniformity on the sphere, and one-dimensional Gaussianity.  A random walk
on a sphere driven by permutation-conjugated irreducible rotations probes
that the group those matrices generate acts transitively enough to leave
only the uniform distribution invariant.

Every distance test (the unpaired and the paired energy tests and the
distance covariance) streams its Euclidean distances in float64 panels,
all products of the same Gram factors of the mean-centred rows, so no
test stores an n x n matrix.  The energy tests read upper-triangle row
panels, which meet all their permutation columns in one product each;
distance covariance centres by w = 2m - g (m the distances' row means
from one such pass, g their mean), 2A_ij = 2D_ij - w_i - w_j, and scores
panels of cyclic offsets, in which each pair's radius partner lies in one
contiguous run.  Distances between bitwise equal rows are exactly zero.
Distance covariance holds its radii, and scores its centred distances,
in float32 at every size; every other statistic is float64.

Every test scores its simulated statistics through one exceedance
counter and reports the p-value (1 + c)/(B + 1), c being the number of
the B draws at least as large as the observed statistic.  The counter
can stop once the decision is fixed (Besag & Clifford 1991, Biometrika
78:301); only calibration, which exposes decisions alone, uses that, so
every public report draws all B.

The Gaussianity test takes the normal CDF from a numpy port of Cephes
ndtr that is bit-equal to scipy.special.ndtr, so the module needs numpy
alone.  Its bootstrap scores each replicate with a logistic approximation
to the CDF, whose error is below _SCREEN_BOUND, and rescores exactly only
the replicates whose approximate distance lies within _SCREEN_BOUND of the
observed one.  Every other replicate falls on the same side of it either
way, so every count is that of exact scoring.

Every test consumes an integer seed and returns a TestReport that is
bit-identical across runs with the same inputs.  Internally each logical
unit of randomness derives its own stream from the seed, so results do
not depend on evaluation order.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError, DimensionError
from .so3_irreps import build_generators, rep_matrix_batch

__all__ = [
    "SampleMatrix",
    "TestReport",
    "calibration_suite",
    "dump_sample_matrix",
    "energy_two_sample_test",
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

# scratch entries per kernel buffer (1 MiB in float64): an energy-test
# triangle panel (a paired test's Gram block holds 4x), a cyclic-offset
# distance panel of distance covariance and its minima, a row block
# of the paired tests' swap draws or of the rotation test's Haar partners,
# and a uniformity or Gaussianity chunk
_PANEL_BUDGET = 2**17
# rows per Gram product of a cyclic-offset distance panel
_GRAM_ROWS = 128
# draws in the first chunk of a chunked test; each further chunk doubles, up to the test's cap
_FIRST_CHUNK = 25
# step-matrix entries per orbit-walk piece (256 KiB in float64)
_WALK_PIECE = 2**15


@dataclass(frozen=True)
class SampleMatrix:
    """n sample vectors in R^d stacked as rows, all entries finite."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 1:
            raise DimensionError(f"need a non-empty 2-d stack of row vectors, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("sample entries must be finite")
        object.__setattr__(self, "rows", r)


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
        return asdict(self)


def _as_rows(x, min_n: int = 1) -> np.ndarray:
    rows = (x if isinstance(x, SampleMatrix) else SampleMatrix(x)).rows
    if rows.shape[0] < min_n:
        raise ValueError(f"need at least {min_n} rows, got {rows.shape[0]}")
    return rows


def _check_draws(count: int, what: str) -> None:
    """Every test scores at least 99 simulated draws, so that its p-value can reach 0.01."""
    if count < 99:
        raise ValueError(f"need at least 99 {what}, got {count}")


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
# Exceedance counting


def _p_value(count, draws: int, components: int = 1) -> float:
    """Bonferroni p-value min(1, k (1 + c)/(B + 1)) of k components whose smallest count among B draws is c."""
    return min(1.0, components * ((1.0 + int(count)) / (draws + 1.0)))


def _stop_count(alpha: float, draws: int, components: int = 1) -> int:
    """Smallest exceedance count at which a test no longer rejects.

    A test Bonferroni-combining k components rejects when
    _p_value(c, B, k) < alpha for its smallest count c.  The rule is
    evaluated as the reports evaluate it, not solved, so a float boundary
    such as 10/200 < 0.05 (False) falls the way the report falls.  It only
    turns from True to False as c grows, so once every component's count
    reaches the returned value the decision is fixed.  0 means the test can
    never reject; B + 1 means it always rejects.
    """
    return bisect.bisect_left(
        range(draws + 1), True, key=lambda c: not _p_value(c, draws, components) < alpha
    )


def _count_exceedances(observed, chunks, stop: int | None = None) -> tuple[np.ndarray, int]:
    """Per component, the simulated statistics at least as large as the observed one.

    observed holds one statistic per component, and chunks yields
    (components, draws) arrays of simulated statistics in draw order.
    Returns the counts and the number of draws scored.  Given a stop
    count, no further chunk is pulled once every component's count has
    reached it (not even the first when stop is 0): a count only grows,
    so the decision is already that of the full run.
    """
    observed = np.reshape(observed, (-1, 1))
    counts = np.zeros(observed.shape[0], dtype=np.int64)
    used = 0
    chunks = iter(chunks)
    while stop is None or counts.min() < stop:
        sims = next(chunks, None)
        if sims is None:
            break
        counts += np.count_nonzero(sims >= observed, axis=1)
        used += sims.shape[1]
    return counts, used


def _chunk_sizes(total: int, cap: int):
    """Draws per chunk, summing to total: _FIRST_CHUNK, then doubling, each at most cap.

    A curtailed run on null data stops after a few tens of draws, so the
    first chunks are small; a full run soon scores cap draws per chunk.
    Both score the same chunks up to the stop.
    """
    done, size = 0, _FIRST_CHUNK
    while done < total:
        k = min(size, cap, total - done)
        yield k
        done += k
        size *= 2


# ---------------------------------------------------------------------------
# Haar-distributed rotations


def _haar_batch(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """count independent Haar draws from SO(d), shape (count, d, d).

    Each Gaussian matrix is orthonormalized by QR.  Multiplying each column
    by the sign of the matching diagonal entry of R makes the law Haar on
    O(d); flipping the last column where the determinant is -1 lands in SO(d).
    """
    g = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(g)
    diag = np.einsum("...ii->...i", r)
    signs = np.where(diag < 0.0, -1.0, 1.0)
    q = q * signs[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0.0, :, -1] *= -1.0
    return q


# ---------------------------------------------------------------------------
# Distance panels and the energy tests


def _tie_classes(rows: np.ndarray) -> np.ndarray | None:
    """Class index per row, shared exactly by bitwise equal rows; None if all rows differ."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    boundary = np.any(ordered[1:] != ordered[:-1], axis=1)
    if boundary.all():
        return None
    classes = np.empty(rows.shape[0], dtype=np.intp)
    classes[order] = np.concatenate(([0], np.cumsum(boundary)))
    return classes


def _relabel_columns(rng: np.random.Generator, total: int, n: int, count: int) -> np.ndarray:
    """0/1 label columns, shape (total, count), with n ones per column.

    Column b marks the n rows with the smallest noise in column b.
    """
    order = np.argsort(rng.random((total, count)), axis=0)
    labels = np.zeros((total, count))
    np.put_along_axis(labels, order[:n], 1.0, axis=0)
    return labels


def _panel_rows(n: int, panel_elements: int):
    """Row ranges (lo, hi) of upper-triangle panels [lo:hi, lo:] of an n x n matrix.

    Each panel holds about panel_elements entries, so panels grow taller
    as the triangle narrows.
    """
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, panel_elements // (n - lo)))
        yield lo, hi
        lo = hi


def _gram_factors(rows: np.ndarray):
    """Tie classes of rows, and Gram factors whose products are their squared distances.

    With a, b two rows less the mean row, [-2a, |a|^2, 1] . [b, 1, |b|^2]
    = |a - b|^2: row i of left and row j of right give the squared
    distance of rows i and j.
    """
    classes = _tie_classes(rows)
    centred = rows - rows.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    ones = np.ones(rows.shape[0])
    return classes, np.column_stack([-2.0 * centred, sq, ones]), np.column_stack([centred, ones, sq])


def _distance_panels(pooled: np.ndarray, parts: int, panel_elements: int):
    """Float64 Euclidean distances of pooled rows in upper-triangle row panels.

    pooled stacks `parts` samples of k rows each.  For each range (lo, hi)
    of _panel_rows(k, panel_elements) this yields (lo, hi, block), where
    block holds the distances from rows lo..hi-1 to rows lo..k-1 of every
    pair of samples: a parts x parts grid of h x w blocks (h = hi - lo,
    w = k - lo) whose entries on and below the diagonal are zero.  Each
    block is one product of the _gram_factors, clamped at zero and square
    rooted; distances between bitwise equal rows are exactly zero.  block
    is a reused buffer, valid until the next one is yielded.
    """
    k = pooled.shape[0] // parts
    classes, left, right = _gram_factors(pooled)
    offsets = k * np.arange(parts)[:, None]
    bounds = list(_panel_rows(k, panel_elements))
    buf = np.empty(parts * parts * max((hi - lo) * (k - lo) for lo, hi in bounds))
    for lo, hi in bounds:
        h, w = hi - lo, k - lo
        rows = (offsets + np.arange(lo, hi)).ravel()
        cols = (offsets + np.arange(lo, k)).ravel()
        block = np.matmul(left[rows], right[cols].T, out=buf[: rows.size * cols.size].reshape(rows.size, cols.size))
        np.maximum(block, 0.0, out=block)
        np.sqrt(block, out=block)
        if classes is not None:
            block[classes[rows][:, None] == classes[cols][None, :]] = 0.0
        lower = np.tri(h, dtype=bool)
        for p, q in np.ndindex(parts, parts):
            block[p * h : (p + 1) * h, q * w : q * w + h][lower] = 0.0
        yield lo, hi, block


def _energy_stats(pooled: np.ndarray, labels: np.ndarray, n: int, m: int) -> np.ndarray:
    """Energy statistics, one per 0/1 column z of labels (its n ones mark the first sample).

    With w = z/n - (1 - z)/m, the statistic 2 s_ab/(n m) - s_aa/n^2 -
    s_bb/m^2 is -w^T D w = -2 sum_{i<j} w_i w_j D_ij, where s_ab sums the
    distances between the two samples and so on.  Each triangle panel of
    _distance_panels meets every column in one matrix product.  Bitwise
    equal rows are first merged into one row whose weight comes from the
    integer label counts of its class, so samples holding the same rows
    score exactly zero.
    """
    classes = _tie_classes(pooled)
    sizes = 1.0
    if classes is not None:
        order = np.argsort(classes, kind="stable")
        starts = np.flatnonzero(np.diff(classes[order], prepend=-1))
        pooled = pooled[order[starts]]
        labels = np.add.reduceat(labels[order], starts, axis=0)
        sizes = np.diff(starts, append=order.size)[:, None]
    weights = labels / n - (sizes - labels) / m
    totals = np.zeros(weights.shape[1])
    for lo, hi, block in _distance_panels(pooled, 1, _PANEL_BUDGET):
        totals += np.einsum("ib,ib->b", weights[lo:hi], block @ weights[lo:])
    # adding 0.0 turns the -0.0 of all-zero weights into 0.0
    return -2.0 * totals + 0.0


def _paired_energy_stats(x_rows: np.ndarray, y_rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Paired energy statistics, one per column u of the +-1 matrix signs.

    Column u puts x_i in the first sample and y_i in the second when
    u_i = 1, and the other way round when u_i = -1.  With
    K = D_xy + D_yx - D_xx - D_yy (D_xy[i, j] = |x_i - y_j|), the sums of
    distances within and across the two samples give
    2 s_ab - s_aa - s_bb = u^T K u, so each statistic is
    (tr K + 2 sum_{i<j} K_ij u_i u_j) / n^2.

    K is never stored: its upper-triangle row panels K[lo:hi, lo:] are
    formed in the D_xy block of each 2 x 2 block panel of _distance_panels
    on the pooled rows (x, y), about _PANEL_BUDGET entries of K each, and
    each panel meets every column in one matrix product with signs[lo:].  The
    diagonal 2|x_i - y_i| comes from x - y directly.  Pairs with x_i == y_i
    bitwise are left out (u_i = 0): their row and column of K vanish.
    """
    n = x_rows.shape[0]
    live = np.any(x_rows != y_rows, axis=1)
    if not live.all():
        x_rows, y_rows, signs = x_rows[live], y_rows[live], signs[live]
    k = x_rows.shape[0]
    trace = 2.0 * float(np.linalg.norm(x_rows - y_rows, axis=1).sum())
    totals = np.zeros(signs.shape[1])
    if k > 1:
        for lo, hi, gram in _distance_panels(np.concatenate([x_rows, y_rows]), 2, _PANEL_BUDGET):
            h, w = hi - lo, k - lo
            panel = gram[:h, w:]
            panel += gram[h:, :w]
            panel -= gram[:h, :w]
            panel -= gram[h:, w:]
            totals += np.einsum("ib,ib->b", signs[lo:hi], panel @ signs[lo:])
    return (trace + 2.0 * totals) / (n * n)


def _paired_swap_stats(x_rows, y_rows, n_permutations, rng) -> np.ndarray:
    """Observed paired energy statistic, then n_permutations within-pair swap statistics.

    Column 0 of the sign matrix is the observed orientation (all ones);
    each further column swaps pair i where rng.integers(0, 2) drew 0.
    The int32 draw is the default int64 stream at half the memory, taken
    in row blocks of about _PANEL_BUDGET entries.
    """
    n = x_rows.shape[0]
    signs = np.ones((n, n_permutations + 1))
    rows = max(1, _PANEL_BUDGET // n_permutations)
    for lo in range(0, n, rows):
        # the draws run row by row, so row blocks take the stream in order
        block = signs[lo:lo + rows, 1:]
        np.multiply(rng.integers(0, 2, size=block.shape, dtype=np.int32), 2.0, out=block)
        block -= 1.0
    return _paired_energy_stats(x_rows, y_rows, signs)


def _energy_core(x, y, n_permutations, seed):
    """energy_two_sample_test's observed statistic, exceedance counts and draws scored."""
    x_rows = _as_rows(x)
    y_rows = _as_rows(y)
    if x_rows.shape[1] != y_rows.shape[1]:
        raise DimensionError(
            f"dimension mismatch: {x_rows.shape[1]} vs {y_rows.shape[1]}"
        )
    _check_draws(n_permutations, "permutations")
    rng = np.random.default_rng(seed)
    n, m = x_rows.shape[0], y_rows.shape[0]
    observed = np.r_[np.ones(n), np.zeros(m)]
    labels = np.column_stack([observed, _relabel_columns(rng, n + m, n, n_permutations)])
    stats = _energy_stats(np.concatenate([x_rows, y_rows]), labels, n, m)
    return (stats[0], *_count_exceedances(stats[0], [stats[None, 1:]]))


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
    observed, counts, _ = _energy_core(x, y, n_permutations, seed)
    return _report("energy_two_sample", observed, _p_value(counts[0], n_permutations), n_permutations, alpha, seed)


def _permutations(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count uniform permutations of range(n) as rows, the draws of count rng.permutation(n) calls in turn."""
    return rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)


def _permuted_copy(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """rows with each row's coordinates in a fresh uniform order."""
    return np.take_along_axis(rows, _permutations(rng, *rows.shape), axis=1)


def _rotated_copy(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """rows with a fresh Haar rotation applied to each row, drawn in row blocks of about _PANEL_BUDGET entries."""
    out = np.empty_like(rows)
    step = max(1, _PANEL_BUDGET // rows.shape[1] ** 2)
    for lo in range(0, rows.shape[0], step):
        # the draws run matrix by matrix, so row blocks take the stream in order
        block = rows[lo:lo + step]
        out[lo:lo + step] = np.einsum("nij,nj->ni", _haar_batch(rng, *block.shape), block)
    return out


def _paired_core(x, partner, batches, n_permutations, seed):
    """A paired test's per-batch observed statistics, exceedance counts and draws scored.

    Batch k pairs every row with its image in partner(rng, rows), rng
    drawn from child 2k of SeedSequence(seed).spawn(2 batches), and
    scores within-pair swaps drawn from child 2k + 1.
    """
    rows = _as_rows(x, min_n=100)
    if batches < 1:
        raise ValueError(f"need at least one rotation batch, got {batches}")
    _check_draws(n_permutations, "permutations")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2 * batches)]
    pairs = zip(rngs[::2], rngs[1::2])
    stats = np.stack([_paired_swap_stats(rows, partner(p, rows), n_permutations, s) for p, s in pairs])
    return (stats[:, 0], *_count_exceedances(stats[:, 0], [stats[:, 1:]]))


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
    observed, counts, _ = _paired_core(x, _permuted_copy, 1, n_permutations, seed)
    return _report("exchangeability", observed[0], _p_value(counts[0], n_permutations), n_permutations, alpha, seed)


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
    observed, counts, _ = _paired_core(x, _rotated_copy, n_rotations, n_permutations, seed)
    p_value = _p_value(counts.min(), n_permutations, n_rotations)
    return _report("rotational_invariance", observed.max(), p_value, n_permutations, alpha, seed)


# ---------------------------------------------------------------------------
# Distance covariance: radius vs direction


def _centred_offsets(rows: np.ndarray, w: np.ndarray, dtype, panel_elements: int):
    """Twice the double-centred distances of rows by cyclic offset, in panels of about panel_elements entries.

    w holds the off-diagonal row sums of the double-centred A
    (_distance_weights).  Yields (c, panel) with panel[t, i] =
    2 A[i, (i + c + t) % n] = 2 D_ij - w_i - w_j, D_ij = |u_i - u_j| and
    j = (i + c + t) % n, the offsets c + t running through 1..n // 2 in
    order: diagonals e and n - e for each offset e, so every pair i < j
    is met once, at offset j - i or n - (j - i), whichever is at most
    n // 2.  For even n the pairs at offset n / 2 would be met twice; the
    second copy (columns n / 2 and up of that offset) is zero.  The
    distances of _GRAM_ROWS rows to their h partners each are the band of
    one product of the _gram_factors, clamped at zero and square rooted;
    distances between bitwise equal rows are exactly zero.  Each panel is
    centred in float64, in place, then cast to dtype; it is a reused
    buffer, valid until the next one is yielded.
    """
    n = rows.shape[0]
    half = n // 2
    classes, left, right = _gram_factors(rows)
    # partners wrap around: right row n + j is row j
    right = np.concatenate([right, right[:half]])
    if classes is not None:
        same_class = sliding_window_view(np.concatenate([classes, classes]), n)
    # partner_w[e, i] = w[(i + e) % n]
    partner_w = sliding_window_view(np.concatenate([w, w]), n)
    height = max(1, min(half, panel_elements // n))
    buf = np.empty(height * n)
    gram = np.empty(_GRAM_ROWS * (_GRAM_ROWS + height))
    for c in range(1, half + 1, height):
        h = min(height, half + 1 - c)
        panel = buf[: h * n].reshape(h, n)
        for lo in range(0, n, _GRAM_ROWS):
            m = min(_GRAM_ROWS, n - lo)
            width = m + h - 1
            # rows lo..lo+m-1 against partners lo+c..lo+c+width-1; a row
            # stride of width + 1 reads the band entry (r, r + t) at (r, t)
            np.matmul(left[lo : lo + m], right[lo + c : lo + c + width].T, out=gram[: m * width].reshape(m, width))
            panel[:, lo : lo + m] = gram[: m * (width + 1)].reshape(m, width + 1)[:, :h].T
        np.maximum(panel, 0.0, out=panel)
        np.sqrt(panel, out=panel)
        if classes is not None:
            panel[classes == same_class[c : c + h]] = 0.0
        panel *= 2
        panel -= w
        panel -= partner_w[c : c + h]
        if n % 2 == 0 and c + h - 1 == half:
            panel[-1, half:] = 0.0
        yield c, panel.astype(dtype, copy=False)


def _distance_weights(rows: np.ndarray) -> np.ndarray:
    """Off-diagonal row sums w of the double-centred distance matrix of rows, from one triangle pass.

    The row sums of D, with m = D1/n and g = mean(m), come from one pass
    over _distance_panels.  Every row of A = D - m1^T - 1m^T + g sums to 0
    and A_ii = g - 2 m_i, so w_i = sum_{j != i} A_ij = 2 m_i - g, and
    A_ij = D_ij - (w_i + w_j)/2.
    """
    sums = np.zeros(rows.shape[0])
    for lo, hi, block in _distance_panels(rows, 1, _PANEL_BUDGET):
        sums[lo:hi] += block.sum(axis=1)
        sums[lo:] += block.sum(axis=0)
    means = sums / rows.shape[0]
    return 2.0 * means - means.mean()


def _dcov_stats(panels, rows: np.ndarray, w: np.ndarray, sizes) -> np.ndarray:
    """sum_ij |r_i - r_j| A_ij for each row r of rows, scoring each panel of A as it comes.

    panels yields (c, P) with P[t, i] = 2 A[i, (i + c + t) % n], in the
    dtype of rows, for every offset c + t of 1..n // 2 (_centred_offsets),
    and w holds the off-diagonal row sums w_i = sum_{j != i} A_ij in
    float64.  With |a - b| = a + b - 2 min(a, b) each sum is
    2 x.w - 2 sum P[t, i] min(x_i, x_{(i + c + t) % n}), where x is the
    row as given.  The caller shifts the radii by one radius they take
    (_independence_core takes their lower median), so the terms stay
    small and constant radii score exactly zero.

    The rows are scored in consecutive blocks of `sizes` rows.  With
    xx = [x, x] the partners of offset e are the contiguous run
    xx[e : e + n]; each block is copied into one scratch buffer of
    doubled rows, so against each panel one `np.minimum` of two
    contiguous operands fills about _PANEL_BUDGET scratch entries with
    the minima of a whole block over a few offsets, and one matrix-vector
    product reduces them.  A row's sum depends in its last bits on the
    block it is scored in, and on nothing else.
    """
    k, n = rows.shape
    bounds = np.cumsum([0, *sizes])
    blocks = list(zip(bounds[:-1], bounds[1:]))
    doubled = np.empty((max(sizes), 2 * n), dtype=rows.dtype)
    # partners[b, e, i] = doubled[b, i + e], the row's entry (i + e) % n
    partners = sliding_window_view(doubled, n, axis=1)
    buf = np.empty(max(_PANEL_BUDGET, max(sizes) * n), dtype=rows.dtype)
    totals = np.zeros(k)
    for c, panel in panels:
        h = panel.shape[0]
        for lo, hi in blocks:
            x = rows[lo:hi]
            doubled[: hi - lo, :n] = x
            doubled[: hi - lo, n:] = x
            step = max(1, _PANEL_BUDGET // x.size)
            for t in range(0, h, step):
                s = min(step, h - t)
                mins = buf[: x.size * s].reshape(hi - lo, s, n)
                np.minimum(x[:, None, :], partners[: hi - lo, c + t : c + t + s], out=mins)
                totals[lo:hi] -= mins.reshape(hi - lo, s * n) @ panel[t : t + s].ravel()
    for lo, hi in blocks:
        totals[lo:hi] += rows[lo:hi].astype(np.float64) @ w
    return 2.0 * totals


def _independence_core(x, n_permutations, seed, stop=None):
    """test_radial_angular_independence's observed statistic, exceedance counts and draws scored."""
    rows = _as_rows(x, min_n=100)
    _check_draws(n_permutations, "permutations")
    radii = np.linalg.norm(rows, axis=1)
    if np.any(radii < 1e-12):
        raise DegenerateInputError("zero-norm rows have no direction")
    directions = rows / radii[:, None]
    n = rows.shape[0]
    rng = np.random.default_rng(seed)

    w = _distance_weights(directions)
    r_cast = radii.astype(np.float32)
    # every radius row is a permutation of r_cast, so the lower median
    # taken out here is the one each row would take
    mid = (n - 1) // 2
    r_cast -= np.partition(r_cast, mid)[mid]

    def score(sizes, observed=False):
        """The statistics of the observed radii, if asked, then of sum(sizes) permuted ones, in one pass.

        The observed row is a block of its own and each chunk of
        permutations one block, so every run scores each row alike.
        """
        first = int(observed)
        radius_rows = np.empty((first + sum(sizes), n), dtype=np.float32)
        radius_rows[:first] = r_cast
        at = first
        for k in sizes:
            # drawn a chunk at a time: the stream of one whole draw
            np.take(r_cast, _permutations(rng, k, n), out=radius_rows[at : at + k])
            at += k
        panels = _centred_offsets(directions, w, np.float32, _PANEL_BUDGET)
        return _dcov_stats(panels, radius_rows, w, [1] * first + sizes) / (n * n)

    # enough permutations per chunk that a block's minima span a few offsets
    chunks = list(_chunk_sizes(n_permutations, max(1, _PANEL_BUDGET // (4 * n))))
    # a public run scores every chunk in one pass, a curtailed run one
    # chunk per pass as the counter pulls them; the observed row joins the first
    groups = [chunks] if stop is None else [[k] for k in chunks]
    stats = score(groups[0], observed=True)
    sims = itertools.chain([stats[None, 1:]], (score(g)[None] for g in groups[1:]))
    return (stats[0], *_count_exceedances(stats[0], sims, stop))


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
    independence.  No centred distance is stored: one upper-triangle pass
    over the direction distances D gives w = 2m - g, the off-diagonal row
    sums of the double-centred A (m the row means of D, g their mean).
    The radii are shifted once by their lower median before any is
    drawn; every permuted row holds the same radii, so each row takes the
    shift it would take on its own.  A second pass streams D by cyclic
    offset, in panels of about _PANEL_BUDGET entries, each centred in
    float64 as it is made, 2A_ij = 2D_ij - w_i - w_j, then cast to
    float32 at every n; one kernel scores the observed radii and all B
    permuted ones, held in float32, against it with weights w, a block of
    radius rows against a few offsets at a time, reading each offset's
    radius partners as one contiguous run.  Radii equal up to float64
    rounding round to one float32 value, barring a rounding boundary
    between them, and score exactly zero.  Memory is O(n (B + 1)) for the
    radius rows plus a few panels.
    """
    observed, counts, _ = _independence_core(x, n_permutations, seed)
    return _report(
        "radial_angular_independence", observed, _p_value(counts[0], n_permutations), n_permutations, alpha, seed
    )


# ---------------------------------------------------------------------------
# Uniformity on the sphere


def _uniformity_stats(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resultant lengths and second-moment deviations of (count, n, d) samples."""
    count, n, d = stack.shape
    sums = np.ones(n) @ stack
    resultant = np.sqrt(np.einsum("ci,ci->c", sums, sums)) / n
    cov = np.matmul(stack.transpose(0, 2, 1), stack)
    cov /= n
    cov.reshape(count, d * d)[:, :: d + 1] -= 1.0 / d
    cov_dev = np.sqrt(np.einsum("cij,cij->c", cov, cov))
    return resultant, cov_dev


def _uniformity_core(x, seed, n_simulations, stop=None):
    """test_uniform_on_sphere's observed (resultant, deviation) pair, exceedance counts and draws scored."""
    rows = _as_rows(x)
    norms = np.linalg.norm(rows, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("rows must be unit vectors within 1e-8")
    _check_draws(n_simulations, "simulations")
    n, d = rows.shape
    observed = np.concatenate(_uniformity_stats(rows[None]))
    rng = np.random.default_rng(seed)

    def simulated():
        sizes = list(_chunk_sizes(n_simulations, max(1, _PANEL_BUDGET // (n * d))))
        buffer = np.empty((max(sizes), n, d))
        for k in sizes:
            g = rng.standard_normal(out=buffer[:k])
            g /= np.sqrt(np.einsum("cni,cni->cn", g, g))[:, :, None]
            yield np.stack(_uniformity_stats(g))

    return (observed, *_count_exceedances(observed, simulated(), stop))


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
    simulations are drawn and scored in chunks of at most about
    _PANEL_BUDGET (2**17) entries, each drawn into one reused buffer.
    """
    _, counts, _ = _uniformity_core(x, seed, n_simulations)
    smaller = _p_value(counts.min(), n_simulations)
    p_value = _p_value(counts.min(), n_simulations, 2)
    return _report("uniform_on_sphere", smaller, p_value, n_simulations, alpha, seed)


# ---------------------------------------------------------------------------
# One-dimensional Gaussianity


# Cephes ndtr (Moshier 1989), the algorithm scipy.special.ndtr runs, with
# its coefficients and Horner order: erf's rational form T/U for |a| < 1,
# 1 - erf up to sqrt(2), then erfc's P/Q form below 8 sqrt(2) and its R/S
# form beyond, until a^2/2 passes _MAXLOG and erfc is taken as 0
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878019e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440
# a replicate's screened KS distance is within 1.4145e-4 of its exact one,
# so only replicates this close to the observed distance can fall on
# either side of it
_SCREEN_BOUND = 2e-4


def _polevl(x, coefs, monic=False):
    """Cephes polevl, or p1evl when monic (a leading coefficient 1 left out of coefs)."""
    ans = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a non-NaN float array, bit-equal to scipy.special.ndtr.

    exp(-x^2) goes through math.exp, the C library exp Cephes calls: np.exp
    may differ from it in the last bit.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    mid = ~inner & (z < 1.0)
    y[mid] = 0.5 * (1.0 - _erf(z[mid]))
    tail = z >= 1.0
    t = z[tail]
    live = t * t <= _MAXLOG
    t = t[live]
    e = np.fromiter(map(math.exp, (-(t * t)).tolist()), float, t.size)
    near = t < 8.0
    p = np.where(near, _polevl(t, _ERFC_P), _polevl(t, _ERFC_R))
    q = np.where(near, _polevl(t, _ERFC_Q, monic=True), _polevl(t, _ERFC_S, monic=True))
    erfc = np.zeros(live.shape)
    erfc[live] = e * p / q
    y[tail] = 0.5 * erfc
    upper = ~inner & (x > 0.0)
    y[upper] = 1.0 - y[upper]
    return y


def _screen_ndtr(a: np.ndarray) -> np.ndarray:
    """Logistic approximation to the standard normal CDF (Bowling et al. 2009).

    1/(1 + exp(-a(1.5976 + 0.07056 a^2))) is within 1.4145e-4 of the CDF
    everywhere, so KS distances taken from it are too.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a * (1.5976 + 0.07056 * a * a)))


def _ks_distance(cdf: np.ndarray) -> np.ndarray:
    """KS distances of pre-sorted rows, given a CDF at each row's values, shape (..., n)."""
    n = cdf.shape[-1]
    steps = np.arange(1, n + 1) / n
    upper = np.max(steps - cdf, axis=-1)
    lower = np.max(cdf - (steps - 1.0 / n), axis=-1)
    return np.maximum(upper, lower)


def _gaussianity_core(values, seed, n_bootstrap, stop=None):
    """test_gaussianity_1d's observed KS distance, exceedance counts and draws scored."""
    v = _as_rows(np.reshape(values, (-1, 1)), min_n=100)[:, 0]
    if float(np.var(v)) < 1e-300:
        raise DegenerateInputError("constant sample has zero variance")
    _check_draws(n_bootstrap, "bootstrap replicates")
    n = v.size
    scale = math.sqrt(float(np.mean(v * v)))
    observed = float(_ks_distance(_ndtr(np.sort(v / scale))))
    rng = np.random.default_rng(seed)

    def simulated():
        # each replicate is scored from the screen, and again exactly when
        # it lies within _SCREEN_BOUND of observed: every count is exact
        sizes = list(_chunk_sizes(n_bootstrap, max(1, _PANEL_BUDGET // n)))
        buffer = np.empty((max(sizes), n))
        for k in sizes:
            rows = rng.standard_normal(out=buffer[:k])
            rows /= np.sqrt(np.mean(rows * rows, axis=1))[:, None]
            rows.sort(axis=1)
            sims = _ks_distance(_screen_ndtr(rows))
            close = np.abs(sims - observed) <= _SCREEN_BOUND
            if close.any():
                sims[close] = _ks_distance(_ndtr(rows[close]))
            yield sims[None]

    return (observed, *_count_exceedances(observed, simulated(), stop))


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
    scale equivariance of the statistic).  The replicates are drawn and
    scored in chunks of at most about _PANEL_BUDGET (2**17) entries, each
    drawn into one reused buffer and scaled and sorted in place.
    """
    observed, counts, _ = _gaussianity_core(values, seed, n_bootstrap)
    return _report("gaussianity_1d", observed, _p_value(counts[0], n_bootstrap), n_bootstrap, alpha, seed)


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

    Steps are drawn in blocks of 20000: the block's Euler angles, then its
    permutations, which each piece of about _WALK_PIECE entries draws in
    turn (permuted draws row by row, so the stream is the block's).  Each
    piece builds and conjugates its step matrices, and the state advances
    by them one at a time, v <- step @ v, so no piece boundary changes a
    bit of the recorded states.  With d = 2 ell + 1 the working set is
    O(_WALK_PIECE + d^2) entries besides the block's 3 x 20000 angles,
    whatever `steps` and `burn_in` are.
    """
    steps, burn_in, thin = (operator.index(k) for k in (steps, burn_in, thin))
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
    if not np.all(np.isfinite(start)):
        raise ValueError("start entries must be finite")
    if abs(np.linalg.norm(start) - 1.0) > 1e-8:
        raise ValueError("start must be a unit vector within 1e-8")
    if steps == 0:
        return SampleMatrix(start[None, :].copy())
    n_states = max(steps - burn_in, 0) // thin
    if n_states == 0:
        raise ValueError(
            f"no states recorded: steps={steps} with burn_in={burn_in}, thin={thin}"
        )

    rng = np.random.default_rng(seed)
    # the odd swap after each step is folded in as a swap of the step
    # matrix's rows 0 and 1, gathered through the row permutation
    rows = np.arange(d)
    if include_odd_permutation:
        rows[[0, 1]] = [1, 0]
    span = max(_WALK_PIECE // (d * d), 1)
    out = np.empty((n_states, d))
    v = start.copy()
    k = done = 0
    block_size = 20000
    while done < steps:
        block = min(block_size, steps - done)
        alphas = rng.uniform(0.0, 2.0 * math.pi, block)
        betas = np.arccos(rng.uniform(-1.0, 1.0, block))
        gammas = rng.uniform(0.0, 2.0 * math.pi, block)
        for lo in range(0, block, span):
            hi = min(lo + span, block)
            p = _permutations(rng, hi - lo, d)
            mats = rep_matrix_batch(gens, alphas[lo:hi], betas[lo:hi], gammas[lo:hi])
            conj = mats[np.arange(hi - lo)[:, None, None], p[:, rows, None], p[:, None, :]]
            # past counts the steps taken after burn_in, this one included
            for past, step in enumerate(conj, done + lo + 1 - burn_in):
                v = step @ v
                if past > 0 and past % thin == 0:
                    out[k] = v
                    k += 1
        done += block
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
    return orbit_random_walk(ell, steps, include_odd_permutation, seed=seed, burn_in=burn_in, thin=thin)


# ---------------------------------------------------------------------------
# Level calibration


def _calibration_cases(n_permutations: int):
    """(name, draws B, Bonferroni components, case) for every calibrated test.

    case(data_rng, test_seed, stop) draws null data and returns the test
    core's exceedance counts, curtailed at stop for the chunked cores.
    """

    def energy_case(data_rng, test_seed, stop):
        x = data_rng.standard_normal((150, 3))
        y = data_rng.standard_normal((150, 3))
        return _energy_core(x, y, n_permutations, test_seed)[1]

    def exchangeability_case(data_rng, test_seed, stop):
        x = data_rng.standard_normal((200, 6))
        return _paired_core(x, _permuted_copy, 1, n_permutations, test_seed)[1]

    def rotation_case(data_rng, test_seed, stop):
        x = data_rng.standard_normal((200, 3))
        return _paired_core(x, _rotated_copy, 1, n_permutations, test_seed)[1]

    def independence_case(data_rng, test_seed, stop):
        x = data_rng.standard_normal((200, 4))
        return _independence_core(x, n_permutations, test_seed, stop)[1]

    def uniformity_case(data_rng, test_seed, stop):
        g = data_rng.standard_normal((200, 3))
        g /= np.linalg.norm(g, axis=1)[:, None]
        return _uniformity_core(g, test_seed, UNIFORMITY_SIMULATIONS, stop)[1]

    def gaussianity_case(data_rng, test_seed, stop):
        v = data_rng.standard_normal(150)
        return _gaussianity_core(v, test_seed, GAUSSIANITY_BOOTSTRAP, stop)[1]

    return [
        ("energy_two_sample", n_permutations, 1, energy_case),
        ("exchangeability", n_permutations, 1, exchangeability_case),
        ("rotational_invariance", n_permutations, 1, rotation_case),
        ("radial_angular_independence", n_permutations, 1, independence_case),
        ("uniform_on_sphere", UNIFORMITY_SIMULATIONS, 2, uniformity_case),
        ("gaussianity_1d", GAUSSIANITY_BOOTSTRAP, 1, gaussianity_case),
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

    Only decisions leave the suite, so each chunked test stops drawing
    once its decision is fixed: its core is curtailed at _stop_count, and
    every test rejects exactly when its smallest count stays below that
    count.  A curtailed run scores a prefix of the full run's draws with
    the same statistics, so every decision, and the result, equals that
    of the public test functions, which draw all B.
    """
    if repetitions < 1:
        raise ValueError(f"need at least one repetition, got {repetitions}")
    cases = _calibration_cases(n_permutations)
    tests = {}
    all_ok = True
    for t, (name, draws, components, case) in enumerate(cases):
        stop = _stop_count(alpha, draws, components)
        rejections = 0
        for r in range(repetitions):
            data_rng = np.random.default_rng(np.random.SeedSequence([seed, t, r, 0]))
            test_seed = int(np.random.SeedSequence([seed, t, r, 1]).generate_state(1)[0])
            rejections += bool(case(data_rng, test_seed, stop).min() < stop)
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
