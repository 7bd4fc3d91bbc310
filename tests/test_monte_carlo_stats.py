"""Permutation tests, Haar sampling, and the orbit random walk."""

import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import chisquare

import reference_engine as ref
from invspan import monte_carlo_stats as mcs
from invspan.errors import DegenerateInputError, DimensionError
from invspan.sphere_harmonics import sample_degree_block

# the curtailed-decision sweep's cases, shared with the decision oracle below
_spec = importlib.util.spec_from_file_location(
    "curtail_sweep", Path(__file__).resolve().parent / "sweeps" / "curtail_sweep.py"
)
curtail_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(curtail_sweep)


def _energy_statistic_naive(x, y):
    n, m = len(x), len(y)
    dxy = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    dxx = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    dyy = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=2)
    return 2.0 * dxy.mean() - dxx.mean() - dyy.mean()


def _dcov_statistic_naive(rows):
    radii = np.linalg.norm(rows, axis=1)
    directions = rows / radii[:, None]
    a = np.abs(radii[:, None] - radii[None, :])
    b = np.linalg.norm(directions[:, None, :] - directions[None, :, :], axis=2)

    def center(m):
        return m - m.mean(axis=0) - m.mean(axis=1)[:, None] + m.mean()

    n = len(rows)
    return float(np.sum(center(a) * center(b))) / (n * n)


def _row_panels(directions, panel_elements, dtype):
    """Doubled upper-triangle row panels (lo, 2 A[lo:hi, lo:] above the diagonal) of the double-centred A.

    The layout the distance covariance kept before its cyclic-offset
    panels, kept with _row_panel_weights and _row_panel_stats as the oracle
    of _distance_weights, _centred_offsets and _dcov_stats: two passes
    over the upper-triangle _distance_panels blocks, each centred block
    cut into panels of at most panel_elements entries (or one row), each
    panel cast to dtype.
    """
    n = directions.shape[0]
    sums = np.zeros(n)
    for lo, hi, block in mcs._distance_panels(directions, 1, mcs._PANEL_BUDGET):
        sums[lo:hi] += block.sum(axis=1)
        sums[lo:] += block.sum(axis=0)
    means = sums / n
    grand = float(means.mean())
    panels = []
    for lo, hi, block in mcs._distance_panels(directions, 1, mcs._PANEL_BUDGET):
        block -= means[lo:hi, None]
        block -= means[None, lo:]
        block += grand
        step = max(1, panel_elements // (n - lo))
        for top in range(lo, hi, step):
            panel = np.triu(block[top - lo : top - lo + step, top - lo :], 1)
            panel *= 2
            panels.append((top, panel.astype(dtype, copy=False)))
    return panels


def _row_panel_weights(panels):
    """w_i = sum_{j != i} A_ij in float64: a panel's row sums plus its column sums give 2 w_i."""
    weights = np.zeros(panels[0][1].shape[1])
    for lo, panel in panels:
        weights[lo : lo + panel.shape[0]] += panel.sum(axis=1, dtype=np.float64)
        weights[lo:] += panel.sum(axis=0, dtype=np.float64)
    return weights / 2


def _row_panel_stats(radius_rows, panels, weights):
    """sum_ij |r_i - r_j| A_ij per row r, as 2 x.w - 2 sum_{i<j} P_ij min(x_i, x_j) over the row panels P."""
    k, n = radius_rows.shape
    mid = (n - 1) // 2
    x = radius_rows - np.partition(radius_rows, mid, axis=1)[:, mid : mid + 1]
    totals = x.astype(np.float64) @ weights
    for lo, panel in panels:
        h, w = panel.shape
        mins = np.minimum(x[:, lo : lo + h, None], x[:, None, lo:])
        totals -= mins.reshape(k, h * w) @ panel.ravel()
    return 2.0 * totals


def _vmf_threeway(n, kappa, seed):
    # inverse-cdf sampler for a von Mises-Fisher cap around the pole
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    w = 1.0 + np.log(u + (1.0 - u) * np.exp(-2.0 * kappa)) / kappa
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(np.clip(1.0 - w * w, 0.0, None))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), w])


# ---------------------------------------------------------------------------
# Haar rotations


def test_haar_rotation_is_special_orthogonal():
    for d in (2, 3, 7):
        q = ref.haar_rotation(d, 13)
        np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-10)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def test_haar_rotation_rejects_small_d():
    with pytest.raises(DimensionError):
        ref.haar_rotation(1, 0)


def test_haar_rotation_angle_uniform_on_so2():
    angles = np.empty(10_000)
    for k in range(10_000):
        q = ref.haar_rotation(2, 90_000 + k)
        angles[k] = math.atan2(q[1, 0], q[0, 0])
    angles = np.mod(angles, 2.0 * math.pi)
    counts, _ = np.histogram(angles, bins=16, range=(0.0, 2.0 * math.pi))
    assert chisquare(counts).pvalue > 0.01


def test_haar_rotation_mean_is_zero():
    total = np.zeros((3, 3))
    for k in range(10_000):
        total += ref.haar_rotation(3, 80_000 + k)
    assert np.abs(total / 10_000).max() <= 4.0 / math.sqrt(10_000)


def test_haar_rotation_deterministic():
    np.testing.assert_array_equal(ref.haar_rotation(4, 5), ref.haar_rotation(4, 5))


# ---------------------------------------------------------------------------
# Energy two-sample test


def test_energy_identical_samples_score_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 3))
    report = mcs.energy_two_sample_test(x, x, 199, 2)
    assert report.statistic == 0.0
    assert report.p_value >= 0.5
    assert not report.reject


def test_energy_statistic_matches_naive():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal((30, 2)) + 0.5
    report = mcs.energy_two_sample_test(x, y, 99, 4)
    assert report.statistic == pytest.approx(_energy_statistic_naive(x, y), abs=1e-12)


def test_energy_detects_mean_shift():
    rng = np.random.default_rng(70)
    x = rng.standard_normal((500, 3))
    y = rng.standard_normal((500, 3)) + 2.0
    report = mcs.energy_two_sample_test(x, y, 199, 71)
    assert report.p_value == pytest.approx(0.005)
    assert report.reject


def test_energy_null_case():
    rng = np.random.default_rng(72)
    x = rng.standard_normal((150, 3))
    y = rng.standard_normal((150, 3))
    report = mcs.energy_two_sample_test(x, y, 199, 73)
    assert report.p_value == pytest.approx(0.915)
    assert not report.reject


def test_energy_input_validation():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionError):
        mcs.energy_two_sample_test(rng.standard_normal((10, 2)), rng.standard_normal((10, 3)))
    with pytest.raises(ValueError):
        mcs.energy_two_sample_test(
            rng.standard_normal((10, 2)), rng.standard_normal((10, 2)), n_permutations=50
        )


def test_energy_float32_path_stays_exact_on_ties():
    # a pooled size of 3000 once took a float32 distance path; x = y must
    # still score exactly zero at that size
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1500, 2))
    report = mcs.energy_two_sample_test(x, x, 99, 7)
    assert report.statistic == 0.0


def test_energy_row_shuffle_scores_exactly_zero():
    # samples holding the same rows in another order, with and without
    # repeated rows, score exactly +0.0; every relabeling then scores >= 0
    rng = np.random.default_rng(8)
    for n, d, ties in [(150, 3, False), (200, 2, True), (1500, 2, False)]:
        x = rng.standard_normal((n, d))
        if ties:
            x = np.round(x)
        report = mcs.energy_two_sample_test(x, x[rng.permutation(n)], 99, 9)
        assert report.statistic == 0.0 and not np.signbit(report.statistic)
        assert report.p_value == 1.0


def _energy_dense(pooled, labels, n, m):
    """-w^T D w per label column from one dense broadcast distance matrix, and sum |w_i w_j D_ij|."""
    dist = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=2)
    w = labels / n - (1.0 - labels) / m
    terms = w[:, None, :] * w[None, :, :] * dist[:, :, None]
    return -terms.sum(axis=(0, 1)), np.abs(terms).sum(axis=(0, 1))


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    d=st.integers(1, 5),
    columns=st.integers(1, 4),
    panel_elements=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    shift=st.sampled_from([0.0, 1e4]),
)
@example(n=30, m=25, d=3, columns=3, panel_elements=2000, seed=1, ties=False, shift=0.0)  # one panel
@example(n=40, m=17, d=2, columns=2, panel_elements=57 * 5, seed=2, ties=False, shift=0.0)  # ragged last panel
@example(n=35, m=35, d=1, columns=4, panel_elements=50, seed=3, ties=True, shift=0.0)  # tied rows
@example(n=20, m=31, d=4, columns=2, panel_elements=120, seed=4, ties=True, shift=1e4)  # ties far from the origin
def test_energy_kernel_matches_dense_v_statistic(n, m, d, columns, panel_elements, seed, ties, shift):
    # relative to sum |w_i w_j D_ij|, since the signed sum may cancel; a
    # shift far from the origin tests the Gram form's cancellation
    rng = np.random.default_rng(seed)
    pooled = rng.standard_normal((n + m, d))
    if ties:
        pooled = np.round(2.0 * pooled) / 2.0
    pooled += shift
    labels = np.zeros((n + m, columns))
    for column in labels.T:
        column[rng.permutation(n + m)[:n]] = 1.0
    with mock.patch.object(mcs, "_PANEL_BUDGET", panel_elements):
        got = mcs._energy_stats(pooled, labels, n, m)
    exact, scale = _energy_dense(pooled, labels, n, m)
    assert got.shape == (columns,)
    assert np.all(np.abs(got - exact) <= 1e-9 * scale)


def test_energy_memory_stays_bounded():
    # the pooled 6000 x 6000 distance matrix alone would take 137 MiB
    # (float32); numpy reports its buffers to tracemalloc
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((2, 3000, 9))
    tracemalloc.start()
    try:
        mcs.energy_two_sample_test(x, y, 199, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_orbit_walk_memory_stays_bounded():
    # one draw block's 20000 step matrices would take 95 MiB at ell = 12
    # and 3.8 MiB at ell = 2 (float64), and its permutations with the tile
    # they permute 7.6 MiB at ell = 12 (int64); the walk builds both in pieces
    for ell, odd, cap in ((12, True, 8), (2, False, 8)):
        tracemalloc.start()
        try:
            mcs.orbit_walk_samples(ell, 2000, odd, seed=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cap * 2**20, (ell, peak)


def test_orbit_walk_burn_in_keeps_memory_bounded():
    # 5000 burn-in steps at ell = 12 take 24 MiB as step matrices (float64);
    # the walk takes them one at a time from its pieces
    tracemalloc.start()
    try:
        mcs.orbit_random_walk(12, 5300, True, burn_in=5000, thin=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("kind, cap_mib", [("uniformity", 1.6), ("gaussianity", 4.5)])
def test_simulated_nulls_stay_within_their_buffer(kind, cap_mib):
    # at n = 2000 one chunk of about _PANEL_BUDGET entries is 1 MiB
    # (float64); each test draws into one buffer of that size, and only
    # its scoring temporaries may come on top
    rng = np.random.default_rng(64)
    if kind == "uniformity":
        x = rng.standard_normal((2000, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        run = lambda: mcs.test_uniform_on_sphere(x, 65, n_simulations=499)  # noqa: E731
    else:
        v = rng.standard_normal(2000)
        run = lambda: mcs.test_gaussianity_1d(v, 66, n_bootstrap=299)  # noqa: E731
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cap_mib * 2**20, peak


class _TiedNoise:
    """Stands in for a Generator whose uniform draws tie often."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, shape):
        return np.round(self._rng.random(shape), 1)


@pytest.mark.parametrize("total, n, count", [(10, 3, 7), (57, 20, 40), (300, 150, 9)])
def test_relabel_columns_match_double_argsort(total, n, count):
    # one argsort plus a scatter marks the same rows as ranking the noise
    # with a second argsort, bit for bit, also where the noise ties
    for rng, noise in [
        (np.random.default_rng(total), np.random.default_rng(total).random((total, count))),
        (_TiedNoise(total), _TiedNoise(total).random((total, count))),
    ]:
        labels = mcs._relabel_columns(rng, total, n, count)
        ranks = np.argsort(np.argsort(noise, axis=0), axis=0)
        np.testing.assert_array_equal(labels, (ranks < n).astype(np.float64))
        assert labels.dtype == np.float64 and np.all(labels.sum(axis=0) == n)


# ---------------------------------------------------------------------------
# Exchangeability


def test_exchangeability_accepts_iid():
    rng = np.random.default_rng(74)
    report = mcs.test_exchangeability(rng.standard_normal((300, 5)), 199, 75)
    assert report.p_value == pytest.approx(0.565)
    assert not report.reject


def test_exchangeability_rejects_distinct_marginals():
    rng = np.random.default_rng(76)
    z = rng.standard_normal((400, 2))
    x = np.column_stack([z[:, 0], z[:, 0] + 3.0 * z[:, 1]])
    report = mcs.test_exchangeability(x, 199, 77)
    assert report.p_value == pytest.approx(0.005)
    assert report.reject


def test_exchangeability_accepts_sphere_uniform():
    # identically distributed but dependent coordinates stay exchangeable
    rng = np.random.default_rng(11)
    x = rng.standard_normal((600, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    report = mcs.test_exchangeability(x, 199, 12)
    assert report.p_value == pytest.approx(0.305)
    assert not report.reject


def test_exchangeability_needs_enough_rows():
    with pytest.raises(ValueError):
        mcs.test_exchangeability(np.zeros((50, 3)), 199, 0)


# ---------------------------------------------------------------------------
# Rotational invariance


def test_rotational_invariance_accepts_gaussian():
    rng = np.random.default_rng(78)
    report = mcs.test_rotational_invariance(rng.standard_normal((500, 5)), 1, 199, 79)
    assert report.p_value == pytest.approx(0.295)
    assert not report.reject


def test_rotational_invariance_rejects_cube():
    # the cube law is anisotropic; this seed is a verified rejection at
    # alpha = 0.05 (the effect is small, so single seeds vary)
    x = np.random.default_rng(9).uniform(-1.0, 1.0, (2000, 3))
    report = mcs.test_rotational_invariance(x, 3, 199, seed=1009, alpha=0.05)
    assert report.p_value == pytest.approx(0.030)
    assert report.reject


def test_rotational_invariance_accepts_coefficient_blocks():
    block = sample_degree_block(2, 1.0, "lognormal", 800, 31)
    report = mcs.test_rotational_invariance(block, 1, 199, 32)
    assert report.p_value == pytest.approx(0.275)
    assert not report.reject


def test_rotational_invariance_bonferroni_over_rotations():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((200, 3))
    single = mcs.test_rotational_invariance(x, 1, 199, 15)
    triple = mcs.test_rotational_invariance(x, 3, 199, 15)
    assert 0.0 <= triple.p_value <= 1.0
    assert single.n_permutations == triple.n_permutations == 199
    with pytest.raises(ValueError):
        mcs.test_rotational_invariance(x, 0, 199, 15)


# ---------------------------------------------------------------------------
# Paired energy kernel (exchangeability and rotation tests)


def _paired_dense(x, y, signs):
    """Pooled V-statistic per swap column, from one dense broadcast distance matrix.

    Also returns sum |K_ij| / n^2 for K = D_xy + D_yx - D_xx - D_yy, the
    scale of the rounding error of a signed sum over K.
    """
    n = len(x)
    pooled = np.concatenate([x, y])
    dist = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=2)
    stats = []
    for u in signs.T:
        a = np.concatenate([u > 0, u < 0])
        b = ~a
        stats.append(
            2.0 * dist[np.ix_(a, b)].mean() - dist[np.ix_(a, a)].mean() - dist[np.ix_(b, b)].mean()
        )
    k = dist[:n, n:] + dist[n:, :n] - dist[:n, :n] - dist[n:, n:]
    return np.array(stats), float(np.abs(k).sum()) / (n * n)


def _paired_case(n, d, columns, seed, ties, pair_ties, shift=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n, d))
    if ties:
        # coarse rounding ties rows within and across the two samples
        x, y = np.round(2.0 * x) / 2.0, np.round(2.0 * y) / 2.0
    tied = rng.random(n) < pair_ties
    y[tied] = x[tied]
    x, y = x + shift, y + shift
    signs = rng.choice([-1.0, 1.0], size=(n, columns))
    return x, y, signs, tied


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 5),
    columns=st.integers(1, 4),
    panel_elements=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    pair_ties=st.sampled_from([0.0, 0.3, 1.0]),
    shift=st.sampled_from([0.0, 1e4]),
)
@example(n=60, d=3, columns=3, panel_elements=4000, seed=1, ties=False, pair_ties=0.0, shift=0.0)  # one panel
@example(n=57, d=2, columns=2, panel_elements=57 * 5, seed=2, ties=False, pair_ties=0.0, shift=0.0)  # ragged last panel
@example(n=40, d=1, columns=4, panel_elements=50, seed=3, ties=True, pair_ties=0.3, shift=0.0)  # tied rows and pairs
def test_paired_kernel_matches_dense_v_statistic(n, d, columns, panel_elements, seed, ties, pair_ties, shift):
    # a shift far from the origin tests the Gram form's cancellation
    x, y, signs, _ = _paired_case(n, d, columns, seed, ties, pair_ties, shift)
    with mock.patch.object(mcs, "_PANEL_BUDGET", panel_elements):
        got = mcs._paired_energy_stats(x, y, signs)
    exact, scale = _paired_dense(x, y, signs)
    assert got.shape == (columns,)
    if scale == 0.0:
        # every pair is tied, so K vanishes and so does every statistic
        assert np.all(got == 0.0)
    else:
        assert np.all(np.abs(got - exact) <= 1e-9 * scale)


def test_paired_kernel_ties_across_pairs_are_exact():
    # every pair is (p, q) or (q, p), so every distance is 0 or c = |p - q|
    # and column u scores 2 c (u . o)^2 / n^2 for the orientations o; a
    # Gram-form zero off by one ulp would add about 1e-8 c per entry
    rng = np.random.default_rng(31)
    n = 90
    for _ in range(5):
        p, q = rng.standard_normal((2, 5)) * 3.0
        orient = rng.choice([-1.0, 1.0], size=n)
        x = np.where(orient[:, None] > 0, p, q)
        y = np.where(orient[:, None] > 0, q, p)
        signs = rng.choice([-1.0, 1.0], size=(n, 6))
        with mock.patch.object(mcs, "_PANEL_BUDGET", 2**9):
            got = mcs._paired_energy_stats(x, y, signs)
        expected = 2.0 * np.linalg.norm(p - q) * (orient @ signs) ** 2 / n**2
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15 * np.linalg.norm(p - q))


def test_paired_kernel_flipping_a_tied_pair_changes_no_bit():
    x, y, signs, tied = _paired_case(200, 3, 8, 23, False, 0.2)
    assert tied.any() and not tied.all()
    flipped = signs.copy()
    flipped[tied] *= -1.0
    with mock.patch.object(mcs, "_PANEL_BUDGET", 2**10):
        np.testing.assert_array_equal(
            mcs._paired_energy_stats(x, y, signs), mcs._paired_energy_stats(x, y, flipped)
        )


@pytest.mark.parametrize("n", [150, 1100])
def test_paired_identical_samples_score_exactly_zero(n):
    # y is a separate, bitwise equal copy of x; pooled sizes 300 and 2200,
    # a small and a large case
    x = np.random.default_rng(24).standard_normal((n, 4))
    stats = mcs._paired_swap_stats(x, x.copy(), 199, np.random.default_rng(25))
    counts, used = mcs._count_exceedances(stats[0], [stats[None, 1:]])
    assert stats[0] == 0.0
    assert mcs._p_value(counts[0], used) == 1.0
    # rows with equal coordinates are their own coordinate permutations
    rows = np.repeat(x[:, :1], 3, axis=1)
    report = mcs.test_exchangeability(rows, 199, 26)
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert not report.reject


@pytest.mark.parametrize("shape", [(3000, 199), (200, 199), (150, 999)])
def test_paired_swap_int32_draw_reproduces_the_int64_stream(shape):
    a, b = np.random.default_rng(29), np.random.default_rng(29)
    np.testing.assert_array_equal(a.integers(0, 2, shape, dtype=np.int32), b.integers(0, 2, shape))
    np.testing.assert_array_equal(a.random(8), b.random(8))
    # the swap statistics are the ones the int64 draw's signs give
    n, k = shape
    x = np.random.default_rng(30).standard_normal((n, 3))
    y = x + 0.1 * np.random.default_rng(31).standard_normal((n, 3))
    signs = np.ones((n, k + 1))
    signs[:, 1:] = 2.0 * np.random.default_rng(32).integers(0, 2, shape) - 1.0
    np.testing.assert_array_equal(
        mcs._paired_swap_stats(x, y, k, np.random.default_rng(32)), mcs._paired_energy_stats(x, y, signs)
    )


def test_paired_swap_row_blocks_reproduce_one_whole_draw():
    # 203 columns make each row block an odd number of int32 draws, so
    # every block but the last ends halfway through a 64-bit output
    n, k = 3001, 203
    rows = mcs._PANEL_BUDGET // k
    assert rows < n and rows * k % 2 == 1
    captured = []
    with mock.patch.object(mcs, "_paired_energy_stats", lambda x, y, signs: captured.append(signs.copy())):
        rng = np.random.default_rng(33)
        mcs._paired_swap_stats(np.zeros((n, 1)), np.zeros((n, 1)), k, rng)
    whole = np.random.default_rng(33)
    expected = np.ones((n, k + 1))
    expected[:, 1:] = 2.0 * whole.integers(0, 2, (n, k)) - 1.0
    np.testing.assert_array_equal(captured[0], expected)
    np.testing.assert_array_equal(rng.random(8), whole.random(8))


@pytest.mark.parametrize("n, d", [(1, 3), (100, 5), (3001, 9), (1000, 50), (5, 370)])
def test_rotated_copy_row_blocks_reproduce_one_whole_draw(n, d):
    # the Haar partners come in blocks of _PANEL_BUDGET // d^2 rows (one
    # row when d^2 exceeds it); they and the stream after them equal one draw
    rows = np.random.default_rng(34).standard_normal((n, d))
    rng = np.random.default_rng(35)
    got = mcs._rotated_copy(rng, rows)
    whole = np.random.default_rng(35)
    expected = np.einsum("nij,nj->ni", mcs._haar_batch(whole, n, d), rows)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(rng.random(8), whole.random(8))


def test_rotated_copy_memory_stays_within_a_panel():
    # the whole (1000, 50, 50) Haar stack alone is 19 MiB, and QR and its
    # sign fix hold four such arrays; numpy reports its buffers to tracemalloc
    rows = np.random.default_rng(36).standard_normal((1000, 50))
    tracemalloc.start()
    try:
        mcs._rotated_copy(np.random.default_rng(37), rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_exchangeability_permutations_follow_the_draw_stream():
    # a small panel budget splits K into many panels; the p-value must
    # still equal the naive count over the same rng.integers swap columns
    n, b, seed = 120, 99, 27
    rows = np.random.default_rng(28).standard_normal((n, 3))
    rows[:, 0] *= 1.3
    with mock.patch.object(mcs, "_PANEL_BUDGET", 2**9):
        report = mcs.test_exchangeability(rows, b, seed)
    assert len(list(mcs._panel_rows(n, 2**9))) > 10
    data_rng, perm_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    order = data_rng.permuted(np.tile(np.arange(3), (n, 1)), axis=1)
    shuffled = np.take_along_axis(rows, order, axis=1)
    keep = perm_rng.integers(0, 2, size=(n, b))
    signs = np.column_stack([np.ones(n), 2.0 * keep - 1.0])
    stats, _ = _paired_dense(rows, shuffled, signs)
    assert report.statistic == pytest.approx(stats[0], rel=1e-12)
    assert report.p_value == (1.0 + np.sum(stats[1:] >= stats[0])) / (b + 1.0)


def test_exchangeability_memory_stays_bounded():
    # the pooled 6000 x 6000 distance matrix alone would take 137 MiB
    # (float32) or 275 MiB (float64); numpy reports its buffers to tracemalloc
    rows = np.random.default_rng(29).standard_normal((3000, 9))
    tracemalloc.start()
    try:
        mcs.test_exchangeability(rows, 199, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Radial and angular independence


def test_independence_statistic_matches_naive():
    # the float64 kernel, on the same weights, offset panels and median
    # shift, matches the naive double sum to 1e-12; the public statistic,
    # scored in float32, lies within the float32 kernel band of it,
    # 1e-5 sum_ij |r_i - r_j| |A_ij| / n^2
    rng = np.random.default_rng(16)
    rows = rng.standard_normal((120, 3))
    report = mcs.test_radial_angular_independence(rows, 99, 17)
    naive = _dcov_statistic_naive(rows)
    radii = np.linalg.norm(rows, axis=1)
    directions = rows / radii[:, None]
    weights = mcs._distance_weights(directions)
    panels = mcs._centred_offsets(directions, weights, np.float64, mcs._PANEL_BUDGET)
    [wide] = mcs._dcov_stats(panels, _median_shifted(radii[None]), weights, [1]) / 120**2
    assert wide == pytest.approx(naive, abs=1e-12)
    centred, _ = _centred_dense(directions)
    scale = np.sum(np.abs(radii[:, None] - radii[None, :]) * np.abs(centred)) / 120**2
    assert abs(report.statistic - naive) <= 1e-5 * scale


def _dcov_statistic_chunked(rows, chunk=100):
    """Dense float64 distance covariance, a block of broadcast rows at a time.

    With a, b the radius and direction distance matrices, the double
    centring expands to sum a_ij b_ij - 2/n sum_i a_i. b_i. + a.. b../n^2.
    """
    radii = np.linalg.norm(rows, axis=1)
    directions = rows / radii[:, None]
    n = len(rows)
    a_sums, b_sums, ab = np.zeros(n), np.zeros(n), 0.0
    for lo in range(0, n, chunk):
        a = np.abs(radii[lo : lo + chunk, None] - radii[None, :])
        b = np.linalg.norm(directions[lo : lo + chunk, None, :] - directions[None, :, :], axis=2)
        a_sums[lo : lo + chunk] = a.sum(axis=1)
        b_sums[lo : lo + chunk] = b.sum(axis=1)
        ab += float(np.sum(a * b))
    return (ab - 2.0 * (a_sums @ b_sums) / n + a_sums.sum() * b_sums.sum() / n**2) / (n * n)


def test_independence_large_n_matches_dense_float64():
    # only the storage of the centred panels and of the radii is float32;
    # the distances and their centring stay float64
    rng = np.random.default_rng(45)
    small = rng.standard_normal((120, 3))
    assert _dcov_statistic_chunked(small, 7) == pytest.approx(_dcov_statistic_naive(small), rel=1e-12)
    for rows in (rng.standard_normal((3000, 9)), sample_degree_block(2, 1.0, "lognormal", 3000, 46)):
        report = mcs.test_radial_angular_independence(rows, 99, 47)
        assert report.statistic == pytest.approx(_dcov_statistic_chunked(rows), rel=1e-6)


def test_independence_memory_stays_bounded():
    # the dense 3000 x 3000 direction distance matrix alone would take
    # 34 MiB (float32) or 69 MiB (float64), a store of each pair's
    # centred distance 17 MiB; the B + 1 float32 radius rows take 2.3 MiB
    # at B = 199 and 11.4 MiB at B = 999
    rows = np.random.default_rng(48).standard_normal((3000, 9))
    for draws, bound in ((199, 8), (999, 16)):
        tracemalloc.start()
        try:
            mcs.test_radial_angular_independence(rows, draws, 49)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


def test_independence_accepts_gaussian():
    rng = np.random.default_rng(41)
    report = mcs.test_radial_angular_independence(rng.standard_normal((800, 4)), 199, 42)
    assert report.p_value == pytest.approx(0.125)
    assert not report.reject


def test_independence_rejects_coupled_radius():
    rng = np.random.default_rng(43)
    u = rng.standard_normal((800, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = (1.0 + np.abs(u[:, 0]))[:, None] * u
    report = mcs.test_radial_angular_independence(x, 199, 44)
    assert report.p_value == pytest.approx(0.005)
    assert report.reject


def test_independence_accepts_coefficient_blocks():
    block = sample_degree_block(2, 1.0, "lognormal", 800, 31)
    report = mcs.test_radial_angular_independence(block, 199, 33)
    assert report.p_value == pytest.approx(0.37)
    assert not report.reject


def _offset_rows(a):
    """Cyclic-offset rows D[c - 1, i] = 2 a[i, (i + c) % n] of a dense symmetric a, c = 1..n // 2.

    The layout of the offset panels, gathered from a stored matrix.  For
    even n the second copy of each offset-n/2 pair (columns n/2 and up of
    the last row) is zero.
    """
    n = a.shape[0]
    cols = np.arange(n)
    rows = np.array([2 * a[cols, (cols + c) % n] for c in range(1, n // 2 + 1)]).reshape(n // 2, n)
    if n % 2 == 0:
        rows[-1, n // 2 :] = 0
    return rows


def _offset_pairs(n):
    """The unordered pair (min, max) each entry of the (n // 2, n) offset layout stores, None where it stores 0."""
    pairs = [[tuple(sorted((i, (i + c) % n))) for i in range(n)] for c in range(1, n // 2 + 1)]
    if n % 2 == 0:
        pairs[-1][n // 2 :] = [None] * (n // 2)
    return pairs


def _panels_of(offset_rows, height):
    """(c, panel) for the offset rows cut into panels of `height` offsets, as _centred_offsets yields them."""
    return [(c, offset_rows[c - 1 : c - 1 + height]) for c in range(1, offset_rows.shape[0] + 1, height)]


def _gathered(panels):
    """The (n // 2, n) offset rows of a stream of (c, panel), checking that the offsets run 1..n // 2 in order."""
    panels = [(c, panel.copy()) for c, panel in panels]
    if not panels:
        return None
    starts = [c for c, _ in panels]
    assert starts == list(itertools.accumulate([1] + [p.shape[0] for _, p in panels[:-1]]))
    return np.concatenate([p for _, p in panels])


def _offset_distances(points, budget):
    """The (n // 2, n) offset rows of the distances of points, from the generator's exact 2D at zero weights."""
    twice = _gathered(mcs._centred_offsets(points, np.zeros(points.shape[0]), np.float64, budget))
    return None if twice is None else twice / 2


def _median_shifted(rows):
    """Each row less its lower median, the shift _independence_core gives the radii before scoring."""
    mid = (rows.shape[-1] - 1) // 2
    return rows - np.partition(rows, mid, axis=-1)[..., mid : mid + 1]


def _block_sizes(k, block):
    """k rows split into consecutive blocks of at most `block` rows."""
    return [min(block, k - lo) for lo in range(0, k, block)]


def _off_diagonal_sums(a):
    """w_i = sum_{j != i} a_ij in float64, the weights _dcov_stats takes with the panels of a."""
    a = a.astype(np.float64)
    return a.sum(axis=1) - np.diag(a)


def _kernel_case(n, rows, height, seed, ties, dtype=np.float64, shift=0.0, a_kind="symmetric", block=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + a.T
    if a_kind == "centred":
        a = a - a.mean(axis=0) - a.mean(axis=1)[:, None] + a.mean()
    elif a_kind == "offset":
        a += 5.0
    r = rng.standard_normal((rows, n))
    if ties:
        r = np.round(r)
    r = r + shift
    r_in = r.astype(dtype)
    if shift:
        # a float32 radius near 1e3 carries a rounding error of 3e-5 that
        # no kernel can undo, so shifted radii are scored as the kernel
        # receives them; unshifted ones are scored unrounded
        r = r_in.astype(np.float64)
    dist = np.abs(r[:, :, None] - r[:, None, :])
    exact = np.einsum("kij,ij->k", dist, a)
    scale = np.einsum("kij,ij->k", dist, np.abs(a))
    offsets = _offset_rows(a.astype(dtype))
    weights = _off_diagonal_sums(a)
    sizes = _block_sizes(rows, block or rows)
    got = mcs._dcov_stats(_panels_of(offsets, height), _median_shifted(r_in), weights, sizes)
    return got, exact, scale, offsets


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    rows=st.integers(1, 5),
    height=st.integers(1, 25),
    block=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    shift=st.sampled_from([0.0, 1e3, -1e3]),
    a_kind=st.sampled_from(["symmetric", "centred", "offset"]),
)
@example(n=1, rows=2, height=4, block=2, seed=6, ties=False, shift=0.0, a_kind="symmetric")  # no pair at all
@example(n=2, rows=3, height=4, block=2, seed=7, ties=False, shift=1e3, a_kind="offset")  # one pair, half its row zero
@example(n=3, rows=2, height=1, block=1, seed=8, ties=True, shift=0.0, a_kind="centred")  # one offset, wrapping
@example(n=30, rows=3, height=15, block=3, seed=1, ties=False, shift=0.0, a_kind="symmetric")  # one panel, even n
@example(n=37, rows=2, height=5, block=1, seed=2, ties=False, shift=0.0, a_kind="symmetric")  # ragged last panel, odd n
@example(n=25, rows=4, height=4, block=3, seed=3, ties=True, shift=0.0, a_kind="symmetric")  # tied radii, ragged blocks
@example(n=33, rows=3, height=4, block=2, seed=4, ties=False, shift=1e3, a_kind="offset")  # far shift, large row sums
@example(n=28, rows=2, height=3, block=2, seed=5, ties=True, shift=-1e3, a_kind="centred")  # negative radii, dCov-like A
def test_dcov_kernel_matches_double_sum(n, rows, height, block, seed, ties, shift, a_kind):
    # relative to sum_ij |r_i - r_j| |A_ij|, since the signed sum may cancel;
    # the min form must not lose that bound to a shift of the radii, to
    # the row sums of A, which it adds back as 2 x.w, or to the blocks the
    # rows are scored in
    got, exact, scale, offsets = _kernel_case(n, rows, height, seed, ties, np.float64, shift, a_kind, block)
    assert got.shape == (rows,)
    assert np.all(np.abs(got - exact) <= 1e-12 * scale)
    assert offsets.shape == (n // 2, n)


def _centred_dense(points):
    """Double-centred broadcast distance matrix, and |D_ij| + |r_i| + |r_j| + |g| per entry."""
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    means = dist.mean(axis=1)
    grand = means.mean()
    centred = dist - means[:, None] - means[None, :] + grand
    return centred, dist + means[:, None] + means[None, :] + grand


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 5),
    block_elements=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    shift=st.sampled_from([0.0, 1e4]),
)
@example(n=1, d=2, block_elements=2000, seed=6, ties=False, shift=0.0)  # no pair at all
@example(n=2, d=3, block_elements=1, seed=7, ties=False, shift=0.0)  # one pair, one offset per panel
@example(n=3, d=1, block_elements=4, seed=8, ties=True, shift=1e4)  # one offset, wrapping
@example(n=30, d=3, block_elements=2000, seed=1, ties=False, shift=0.0)  # one panel, even n
@example(n=37, d=2, block_elements=2000, seed=2, ties=False, shift=0.0)  # one panel, odd n
@example(n=37, d=2, block_elements=37 * 7, seed=5, ties=False, shift=0.0)  # a ragged last panel
@example(n=40, d=2, block_elements=100, seed=9, ties=False, shift=0.0)  # many panels, even n
@example(n=25, d=1, block_elements=300, seed=3, ties=True, shift=0.0)  # tied rows
@example(n=33, d=4, block_elements=150, seed=4, ties=True, shift=1e4)  # ties far from the origin
@example(n=300, d=3, block_elements=2000, seed=10, ties=True, shift=0.0)  # Gram products of more than one row block
def test_dcov_panels_match_dense_centring(n, d, block_elements, seed, ties, shift):
    # the weights from the triangle panels, the offset distances and their
    # double centring, streamed in panels of _PANEL_BUDGET entries without
    # a dense matrix, against the broadcast distances and the off-diagonal
    # row sums of their dense centring; bitwise equal rows are exactly zero apart
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    if ties:
        points = np.round(2.0 * points) / 2.0
    points += shift
    centred, scale = _centred_dense(points)
    with mock.patch.object(mcs, "_PANEL_BUDGET", block_elements):
        weights = mcs._distance_weights(points)
        distances = _offset_distances(points, block_elements)
        got = _gathered(mcs._centred_offsets(points, weights, np.float64, block_elements))
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    np.testing.assert_allclose(weights, _off_diagonal_sums(centred), rtol=1e-12, atol=1e-9)
    if n < 2:
        assert distances is None and got is None
        return
    assert got.shape == (n // 2, n) and got.dtype == np.float64
    assert np.all(np.abs(distances - _offset_rows(dist) / 2) <= 1e-9 * (1.0 + _offset_rows(dist)))
    assert not np.any(distances[_offset_rows(dist) == 0.0])
    assert np.all(np.abs(got - _offset_rows(centred)) <= 1e-9 * _offset_rows(scale))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 36, 37, 101])
def test_dcov_offsets_place_each_centred_entry_exactly(n, dtype):
    # the dense matrix built from the same distance panels, centred by the
    # same operations (2D_ij - w_i - w_j, row index first) and gathered
    # into the offset layout, equals the centred panels bit for bit; one
    # budget gives many short panels, the other one panel of all n // 2 offsets
    points = np.random.default_rng(n).standard_normal((n, 3))
    if n > 4:
        points[n // 2] = points[1]
    weights = mcs._distance_weights(points)
    for budget in (2 * n, (n // 2 + 1) * n):
        distances = _offset_distances(points, budget)
        got = _gathered(mcs._centred_offsets(points, weights, dtype, budget))
        if n < 2:
            assert distances is None and got is None
            continue
        count = len(list(mcs._centred_offsets(points, weights, dtype, budget)))
        assert count == (-(-(n // 2) // 2) if budget == 2 * n else 1)
        dense = np.zeros((n, n))
        for c, row in enumerate(_offset_pairs(n)):
            for i, pair in enumerate(row):
                if pair is not None:
                    dense[pair] = dense[pair[::-1]] = distances[c, i]
        twice = 2 * dense
        twice -= weights[:, None]
        twice -= weights[None, :]
        assert got.dtype == dtype
        # _offset_rows doubles what it gathers, so it gathers half of 2A
        np.testing.assert_array_equal(got, _offset_rows(twice / 2).astype(dtype))
        if n > 4:
            # the tied pair (1, n // 2) is exactly zero apart
            assert distances[n // 2 - 2, 1] == 0.0


def test_dcov_kernel_panel_shapes():
    # n // 2 offset rows of n entries; every unordered pair i < j is stored
    # exactly once, and only the second copy of the offset-n/2 pairs
    # of an even n is left zero
    for n in (1, 2, 3, 36, 37):
        pairs = _offset_pairs(n)
        stored = [pair for row in pairs for pair in row if pair is not None]
        assert sorted(stored) == [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert sum(pair is None for row in pairs for pair in row) == (n // 2 if n % 2 == 0 else 0)
        expected = np.array([[0.0 if pair is None else 2.0 for pair in row] for row in pairs]).reshape(n // 2, n)
        np.testing.assert_array_equal(_offset_rows(np.ones((n, n))), expected)
        points = np.random.default_rng(n).standard_normal((n, 2))
        weights = mcs._distance_weights(points)
        for budget in (n, 3 * n, 2**17):
            shapes = [panel.shape for _, panel in mcs._centred_offsets(points, weights, np.float64, budget)]
            assert all(w == n and 1 <= h <= max(1, budget // n) for h, w in shapes)
            assert sum(h for h, _ in shapes) == n // 2
        centred = list(mcs._centred_offsets(points, weights, np.float32, 2**17))
        assert all(panel.dtype == np.float32 for _, panel in centred)
        if n > 1:
            distances = _offset_distances(points, 2**17)
            assert distances.dtype == np.float64 and np.all((distances == 0.0) == (expected == 0.0))
            assert not np.any(centred[-1][1][expected[-centred[-1][1].shape[0] :] == 0.0])


def test_dcov_kernel_float32_within_1e5_of_float64():
    for seed in range(5):
        for shift in (0.0, 1e3, -1e3):
            got, exact, scale, offsets = _kernel_case(300, 4, 4, seed, False, np.float32, shift, block=3)
            assert got.dtype == np.float64 and offsets.dtype == np.float32
            assert np.all(np.abs(got - exact) <= 1e-5 * scale)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dcov_kernel_constant_rows_score_exactly_zero(dtype):
    # the shift is a radius the rows take, so every shifted radius is
    # exactly zero; the mean of 0.1 repeated n times is not 0.1.  Rows on
    # the coordinate axes have norm exactly r.  The kernel in dtype scores
    # the shifted radii zero, and so does the test, which scores in float32
    n = 120 if dtype == np.float64 else 2100
    axes = np.arange(n) % 3
    for r in (0.1, 1.0 / 3.0, 7.3, 1e3 + 0.1):
        rows = np.zeros((n, 3))
        rows[np.arange(n), axes] = np.where(np.arange(n) % 2, -r, r)
        directions = rows / r
        weights = mcs._distance_weights(directions)
        panels = mcs._centred_offsets(directions, weights, dtype, mcs._PANEL_BUDGET)
        shifted = _median_shifted(np.linalg.norm(rows, axis=1).astype(dtype)[None])
        assert mcs._dcov_stats(panels, shifted, weights, [1]).tolist() == [0.0]
        observed, counts, used = mcs._independence_core(rows, 99, 28)
        assert observed == 0.0 and not np.signbit(observed)
        # every permuted statistic is exactly zero too
        assert counts.tolist() == [99] and used == 99


def test_panel_weights_are_off_diagonal_row_sums():
    # w = 2m - g = -diag(A) is the off-diagonal row sums of the dense
    # double-centred A, for even and odd n; the centred panels read back
    # from the layout sum to it too, to the rounding of either storage dtype
    for n in (22, 23):
        points = np.random.default_rng(29).standard_normal((n, 3))
        weights = mcs._distance_weights(points)
        centred, _ = _centred_dense(points)
        np.testing.assert_allclose(weights, _off_diagonal_sums(centred), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(weights, -np.diag(centred), rtol=1e-13, atol=1e-13)
        for dtype, tol in ((np.float64, 1e-13), (np.float32, 1e-6)):
            offsets = _gathered(mcs._centred_offsets(points, weights, dtype, 4 * n))
            stored = np.zeros((n, n))
            for c, row in enumerate(_offset_pairs(n)):
                for i, pair in enumerate(row):
                    if pair is not None:
                        stored[pair] = stored[pair[::-1]] = offsets[c, i] / 2.0
            assert np.all(np.abs(stored.sum(axis=1) - weights) <= tol * (1.0 + np.abs(stored).sum(axis=1)))


def _record_kernel_calls(monkeypatch):
    calls = []
    kernel = mcs._dcov_stats

    def recording(panels, rows, w, sizes):
        before = rows.copy()
        out = kernel(panels, rows, w, sizes)
        calls.append((before, list(sizes), out, w.copy()))
        return out

    monkeypatch.setattr(mcs, "_dcov_stats", recording)
    return calls


@pytest.mark.parametrize("n", [120, 2100])
def test_dcov_kernel_matches_the_row_panel_oracle_on_the_draw_stream(n, monkeypatch):
    # every radius row the test scores, observed and permuted, against the
    # row-panel kernel, within 1e-12 (float64) or 1e-5 (float32) of
    # sum_ij |r_i - r_j| |A_ij|; an exceedance flag may differ only for a
    # draw that close to the observed statistic
    calls = _record_kernel_calls(monkeypatch)
    rows = np.random.default_rng(54).standard_normal((n, 4))
    rows *= 1.0 + 0.2 * np.abs(rows[:, :1])
    mcs.test_radial_angular_independence(rows, 99, 55)
    radius_rows = np.concatenate([r for r, _, _, _ in calls])
    got = np.concatenate([out for _, _, out, _ in calls])
    assert radius_rows.shape == (100, n)
    radii = np.linalg.norm(rows, axis=1)
    directions = rows / radii[:, None]
    dtype = radius_rows.dtype
    panels = _row_panels(directions, 4 * n, dtype)
    oracle = _row_panel_stats(radius_rows, panels, _row_panel_weights(panels))
    exact = _row_panels(directions, 4 * n, np.float64)
    wide = [(lo, np.abs(panel)) for lo, panel in exact]
    # the kernel's one weight vector is the oracle's float64 row sums of A
    [(_, _, _, weights)] = calls
    np.testing.assert_allclose(weights, _row_panel_weights(exact), rtol=1e-12, atol=1e-12)
    scale = _row_panel_stats(radius_rows.astype(np.float64), wide, _row_panel_weights(wide))
    tol = 1e-12 if dtype == np.float64 else 1e-5
    assert np.all(np.abs(got - oracle) <= tol * scale)
    bound = tol * (scale[1:] + scale[0])
    differ = (got[1:] >= got[0]) != (oracle[1:] >= oracle[0])
    assert np.all(np.abs(got[1:] - got[0])[differ] <= bound[differ])


def test_independence_permutations_follow_the_draw_stream(monkeypatch):
    # a small scratch budget splits the 99 permutations into several
    # blocks, the last one short; the count must still equal one naive
    # statistic per rng.permutation draw, in order
    monkeypatch.setattr(mcs, "_PANEL_BUDGET", 2**12)
    calls = _record_kernel_calls(monkeypatch)
    rng = np.random.default_rng(18)
    rows = rng.standard_normal((120, 3))
    rows *= 1.0 + 0.3 * np.abs(rows[:, :1])
    report = mcs.test_radial_angular_independence(rows, 99, 19)
    [(_, sizes, _, _)] = calls
    sizes = sizes[1:]
    assert sum(sizes) == 99 and len(sizes) > 2 and sizes[-1] < sizes[0]
    radii = np.linalg.norm(rows, axis=1)
    directions = rows / radii[:, None]
    observed = _dcov_statistic_naive(rows)
    draws = np.random.default_rng(19)
    count = 0
    for _ in range(99):
        shuffled = directions * radii[draws.permutation(120)][:, None]
        count += _dcov_statistic_naive(shuffled) >= observed
    assert report.p_value == (1.0 + count) / 100.0


@pytest.mark.parametrize(("n", "k"), [(200, 163), (3000, 10), (7, 5)])
def test_permutation_batches_are_the_permutation_draws(n, k):
    # one rng.permuted call over k tiled ranges draws what k rng.permutation(n)
    # calls draw, and leaves the stream where they leave it
    batched, single = np.random.default_rng(n), np.random.default_rng(n)
    np.testing.assert_array_equal(mcs._permutations(batched, k, n), np.stack([single.permutation(n) for _ in range(k)]))
    assert batched.random() == single.random()


def test_independence_batches_are_the_permutation_draws(monkeypatch):
    # the radius rows scored after the observed one, in several blocks of
    # one pass or in one pass per block (the observed row joining the
    # first), are the float32 median-shifted radii under one
    # rng.permutation(n) draw each, in order
    monkeypatch.setattr(mcs, "_PANEL_BUDGET", 2**12)
    calls = _record_kernel_calls(monkeypatch)
    rows = np.random.default_rng(30).standard_normal((120, 3))
    draws = np.random.default_rng(31)
    radii = np.linalg.norm(rows, axis=1).astype(np.float32)
    expected = _median_shifted(radii)[np.stack([draws.permutation(120) for _ in range(99)])]
    mcs.test_radial_angular_independence(rows, 99, 31)
    [(radius_rows, sizes, _, weights)] = calls
    assert len(sizes) > 3
    np.testing.assert_array_equal(radius_rows[1:], expected)
    calls.clear()
    mcs._independence_core(rows, 99, 31, 100)
    assert [block for _, block, _, _ in calls] == [sizes[:2]] + [[size] for size in sizes[2:]]
    np.testing.assert_array_equal(calls[0][0][0], radius_rows[0])
    np.testing.assert_array_equal(np.concatenate([calls[0][0][1:]] + [r for r, _, _, _ in calls[1:]]), expected)
    assert all(np.array_equal(w, weights) for _, _, _, w in calls)


def test_independence_makes_one_distance_pass_per_chunk_pulled(monkeypatch):
    # the weights come from one triangle pass; each chunk the counter
    # pulls costs one offset pass, the observed row riding with the first,
    # and a public run makes one offset pass in all
    passes = {"_distance_panels": 0, "_centred_offsets": 0}

    def counting(name):
        generator = getattr(mcs, name)

        def counted(*args):
            passes[name] += 1
            return generator(*args)

        monkeypatch.setattr(mcs, name, counted)

    counting("_distance_panels")
    counting("_centred_offsets")
    rows = np.random.default_rng(56).standard_normal((200, 4))
    chunks = list(mcs._chunk_sizes(199, mcs._PANEL_BUDGET // 800))
    assert chunks == [25, 50, 100, 24]
    # stops that pull one, three and all four chunks, then a public run
    for stop, pulled in ((1, 1), (mcs._stop_count(0.05, 199), 3), (200, 4), (None, 4)):
        passes.update(dict.fromkeys(passes, 0))
        _, _, used = mcs._independence_core(rows, 199, 57, stop)
        assert used == sum(chunks[:pulled])
        assert passes == {"_distance_panels": 1, "_centred_offsets": 1 if stop is None else pulled}


@pytest.mark.parametrize("n", [120, 2100])
def test_independence_statistic_is_the_unpermuted_kernel_row(n, monkeypatch):
    # the reported statistic is exactly the kernel's value on the
    # unpermuted radii, scored as a block of its own, at a small and a large n
    calls = _record_kernel_calls(monkeypatch)
    rng = np.random.default_rng(20)
    rows = rng.standard_normal((n, 4))
    report = mcs.test_radial_angular_independence(rows, 99, 21)
    [(radius_rows, sizes, out, _)] = calls
    radii = np.linalg.norm(rows, axis=1).astype(radius_rows.dtype)
    np.testing.assert_array_equal(radius_rows[0], _median_shifted(radii))
    assert report.statistic == out[0] / (n * n)
    assert sizes[0] == 1 and sum(sizes[1:]) == 99


def _norm_three_rows(n):
    # every row has norm exactly 3
    signs = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])
    base = np.concatenate([signs * np.roll([1.0, 2.0, 2.0], k) for k in range(3)])
    rows = np.tile(base, (n // len(base) + 1, 1))[:n]
    assert np.all(np.linalg.norm(rows, axis=1) == 3.0)
    return rows


@pytest.mark.parametrize("n", [120, 2100])
def test_independence_constant_radii(n):
    # every statistic is exactly zero
    report = mcs.test_radial_angular_independence(_norm_three_rows(n), 99, 22)
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert not report.reject


@pytest.mark.parametrize("n", [300, 1000, 2048])
@pytest.mark.parametrize("ell", [1, 2, 4])
def test_independence_constant_law_scores_exactly_zero(ell, n):
    # the constant law's radii are equal only up to float64 rounding, a
    # noise that is a function of the direction; float32 rounds it away at
    # every n, so every statistic is exactly zero
    block = sample_degree_block(ell, 1.0, "constant", n, 100 * ell + n)
    assert len(np.unique(np.linalg.norm(block, axis=1))) > 1
    report = mcs.test_radial_angular_independence(block, 99, 23)
    assert report.statistic == 0.0
    assert report.p_value == 1.0


def test_independence_constant_radii_on_tied_directions():
    # 120 rows of norm 3, up to rounding, on 24 directions, one row
    # repeated: the exact tie whose float64 rounding rejected independence
    rng = np.random.default_rng(24)
    directions = rng.standard_normal((24, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    rows = 3.0 * directions[np.arange(120) % 24]
    rows[119] = rows[0]
    assert len(np.unique(np.linalg.norm(rows, axis=1))) > 1
    report = mcs.test_radial_angular_independence(rows, 199, 25)
    assert report.statistic == 0.0
    assert report.p_value == 1.0


def test_independence_all_radii_but_one_equal():
    # the median radius is 3, so the min form sees one nonzero shifted
    # radius and no minimum but zero; it must still match the double sum
    rows = _norm_three_rows(120)
    rows[7] *= 2.0
    report = mcs.test_radial_angular_independence(rows, 99, 30)
    assert report.statistic == pytest.approx(_dcov_statistic_naive(rows), rel=1e-12)


def test_independence_rejects_zero_rows():
    rows = np.ones((120, 3))
    rows[5] = 0.0
    with pytest.raises(DegenerateInputError):
        mcs.test_radial_angular_independence(rows, 199, 0)


# ---------------------------------------------------------------------------
# Uniformity on the sphere


def test_uniformity_accepts_normalized_gaussian():
    rng = np.random.default_rng(82)
    g = rng.standard_normal((2000, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    report = mcs.test_uniform_on_sphere(g, 83)
    assert report.p_value == pytest.approx(1.0)
    assert not report.reject


def test_uniformity_rejects_pole_concentration():
    report = mcs.test_uniform_on_sphere(_vmf_threeway(2000, 1.0, 0), 500)
    assert report.p_value == pytest.approx(0.004)
    assert report.reject


def test_uniformity_rejects_non_unit_rows():
    rng = np.random.default_rng(20)
    with pytest.raises(ValueError):
        mcs.test_uniform_on_sphere(rng.standard_normal((100, 3)), 0)


# ---------------------------------------------------------------------------
# Gaussianity


def test_gaussianity_accepts_normal():
    rng = np.random.default_rng(80)
    report = mcs.test_gaussianity_1d(rng.standard_normal(5000), 81)
    assert report.p_value == pytest.approx(23.0 / 300.0)
    assert not report.reject


def test_gaussianity_rejects_lognormal_radius_marginal():
    block = sample_degree_block(2, 1.0, "lognormal", 2000, 23)
    report = mcs.test_gaussianity_1d(block[:, 0], 24)
    assert report.p_value == pytest.approx(1.0 / 300.0)
    assert report.reject


def test_gaussianity_accepts_chi_radius_marginal():
    block = sample_degree_block(2, 1.0, "chi", 2000, 21)
    report = mcs.test_gaussianity_1d(block[:, 0], 22)
    assert report.p_value == pytest.approx(0.26666666666666666)
    assert not report.reject


def test_gaussianity_input_validation():
    with pytest.raises(DegenerateInputError):
        mcs.test_gaussianity_1d(np.full(500, 2.5), 0)
    with pytest.raises(ValueError):
        mcs.test_gaussianity_1d(np.zeros(50), 0)
    with pytest.raises(ValueError):
        mcs.test_gaussianity_1d(np.r_[np.ones(499), np.nan], 0)


def test_ndtr_port_is_bit_equal_to_scipy():
    rng = np.random.default_rng(90)
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * mcs._MAXLOG)]
    edges = [e for b in edges for e in (b, np.nextafter(b, 0.0), np.nextafter(b, np.inf))]
    far = [38.0, 38.5, 40.0, 1e3, 1e6, np.inf]
    x = np.concatenate(
        [
            rng.standard_normal(200_000),
            3.0 * rng.standard_normal(200_000),
            np.linspace(-40.0, 40.0, 800_001),
            edges,
            np.negative(edges),
            [0.0, -0.0],
            far,
            np.negative(far),
        ]
    )
    np.testing.assert_array_equal(mcs._ndtr(x).view(np.int64), ndtr(x).view(np.int64))


def test_screen_error_stays_below_its_bound():
    # between grid points the error moves by at most the largest gap between
    # the two derivatives times half the step; beyond +-40 both CDFs are
    # within 1e-300 of 0 and 1
    step = 1e-5
    worst = gap = 0.0
    for start in np.arange(-40.0, 40.0, 10.0):
        x = start + step * np.arange(1_000_001)
        s = mcs._screen_ndtr(x)
        worst = max(worst, float(np.max(np.abs(s - ndtr(x)))))
        slope = s * (1.0 - s) * (1.5976 + 3.0 * 0.07056 * x * x)
        gap = max(gap, float(np.max(np.abs(slope - np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)))))
    assert worst < 1.4146e-4
    assert worst + gap * step / 2.0 < mcs._SCREEN_BOUND


def test_gaussianity_bootstrap_skips_the_exact_cdf_when_no_replicate_is_close():
    # a far-from-normal sample: every replicate's screened distance is far
    # below the observed one, so only the observed distance needs _ndtr
    values = np.random.default_rng(91).exponential(size=400)
    expected = mcs._gaussianity_core(values, 92, 299)
    with mock.patch.object(mcs, "_ndtr", wraps=mcs._ndtr) as exact:
        got = mcs._gaussianity_core(values, 92, 299)
    assert exact.call_count == 1
    assert got[0] == expected[0] and got[1].tolist() == expected[1].tolist() == [0] and got[2] == expected[2]


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, 400),
    b=st.sampled_from((99, 299)),
    kind=st.sampled_from(("normal", "t3", "repeated")),
    alpha=st.sampled_from((0.01, 0.05, 0.2)),
)
def test_gaussianity_core_matches_the_scipy_reference(seed, n, b, kind, alpha):
    rng = np.random.default_rng(seed)
    values = {
        "normal": lambda: rng.standard_normal(n),
        "t3": lambda: rng.standard_t(3, n),
        "repeated": lambda: rng.integers(-3, 4, n) * rng.choice((0.5, 1.0)),
    }[kind]()
    for stop in (None, mcs._stop_count(alpha, b)):
        observed, counts, used = mcs._gaussianity_core(values, seed, b, stop)
        expected, count, expected_used = ref.gaussianity_bootstrap(values, seed, b, stop)
        assert (observed, counts.tolist(), used) == (expected, [count], expected_used)


# ---------------------------------------------------------------------------
# Orbit random walk


def test_orbit_walk_zero_steps_returns_start():
    out = mcs.orbit_random_walk(1, 0)
    np.testing.assert_array_equal(out.rows, np.array([[1.0, 0.0, 0.0]]))


def test_orbit_walk_records_expected_count():
    out = mcs.orbit_random_walk(1, 110, seed=3)
    assert out.rows.shape == (1, 3)
    out = mcs.orbit_walk_samples(2, 25, seed=3)
    assert out.rows.shape == (25, 5)
    np.testing.assert_allclose(np.linalg.norm(out.rows, axis=1), np.ones(25), atol=1e-10)


def test_orbit_walk_raises_when_nothing_recorded():
    with pytest.raises(ValueError):
        mcs.orbit_random_walk(1, 100, seed=0)


def test_orbit_walk_deterministic_and_odd_variant():
    a = mcs.orbit_walk_samples(1, 40, seed=6)
    b = mcs.orbit_walk_samples(1, 40, seed=6)
    np.testing.assert_array_equal(a.rows, b.rows)
    odd = mcs.orbit_walk_samples(1, 40, include_odd_permutation=True, seed=6)
    assert odd.rows.shape == (40, 3)
    assert np.any(odd.rows != a.rows)


def test_orbit_walk_start_validation():
    with pytest.raises(DimensionError):
        mcs.orbit_random_walk(1, 200, start=np.ones(5) / math.sqrt(5.0))
    with pytest.raises(ValueError):
        mcs.orbit_random_walk(1, 200, start=np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        mcs.orbit_random_walk(1, 200, thin=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_orbit_walk_rejects_non_finite_start(bad):
    # abs(nan - 1) > 1e-8 is False, so the unit-norm check alone lets nan through
    with pytest.raises(ValueError, match="start"):
        mcs.orbit_random_walk(1, 200, start=np.array([bad, 0.0, 0.0]))


def test_orbit_walk_requires_integer_step_counts():
    for counts in ({"steps": 50.0}, {"steps": 50, "burn_in": 1.5}, {"steps": 50, "thin": 2.5}):
        with pytest.raises(TypeError):
            mcs.orbit_random_walk(1, **counts)
    out = mcs.orbit_random_walk(1, np.int64(50), burn_in=np.int32(0), thin=np.int64(5))
    assert out.rows.shape == (10, 3)


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("ell", [1, 2, 3, 7])
def test_orbit_walk_matches_step_by_step_reference(ell, odd):
    start = np.random.default_rng(ell).standard_normal(2 * ell + 1)
    start /= np.linalg.norm(start)
    for thin, burn_in in itertools.product((1, 2, 3, 10), (0, 7, 100)):
        # 25 recorded states and thin - 1 trailing steps that reach none
        steps = burn_in + 26 * thin - 1
        kwargs = dict(start=start, seed=10 * thin + burn_in, burn_in=burn_in, thin=thin)
        got = mcs.orbit_random_walk(ell, steps, odd, **kwargs).rows
        want = ref.orbit_random_walk(ell, steps, odd, **kwargs)
        assert got.shape == want.shape == (25, 2 * ell + 1)
        np.testing.assert_array_equal(got, want)


def test_orbit_walk_matches_reference_across_a_draw_block():
    # the 20000-step draw block ends one step into a group of three
    steps, burn_in, thin = 20500, 7, 3
    assert (20000 - burn_in) % thin == 1
    got = mcs.orbit_random_walk(2, steps, True, seed=41, burn_in=burn_in, thin=thin).rows
    want = ref.orbit_random_walk(2, steps, True, seed=41, burn_in=burn_in, thin=thin)
    assert got.shape == want.shape == ((steps - burn_in) // thin, 5)
    np.testing.assert_array_equal(got, want)


def _recorded_walk(ell, odd, monkeypatch):
    """walk(budget, steps, burn_in, thin) -> states, with `pieces` the steps of each rep_matrix_batch call."""
    d = 2 * ell + 1
    pieces = []
    rep_matrix_batch = mcs.rep_matrix_batch

    def recording(gens, alphas, betas, gammas):
        pieces.append(len(alphas))
        return rep_matrix_batch(gens, alphas, betas, gammas)

    monkeypatch.setattr(mcs, "rep_matrix_batch", recording)

    def walk(budget, steps, burn_in, thin):
        pieces.clear()
        monkeypatch.setattr(mcs, "_WALK_PIECE", budget)
        kwargs = dict(seed=100 * thin + burn_in, burn_in=burn_in, thin=thin)
        rows = mcs.orbit_random_walk(ell, steps, odd, **kwargs).rows
        # each draw block is cut into pieces of `span` steps, and its last
        # piece holds the 1 to span steps left
        span = max(budget // (d * d), 1)
        sizes = iter(pieces)
        for first in range(0, steps, 20000):
            held = [next(sizes)]
            while sum(held) < min(20000, steps - first):
                held.append(next(sizes))
            assert sum(held) == min(20000, steps - first)
            assert set(held[:-1]) <= {span} and held[-1] <= span
        assert next(sizes, None) is None
        return rows

    return walk, pieces


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_orbit_walk_pieces_change_no_bits(ell, odd, monkeypatch):
    # the default pieces, one piece per draw block, and pieces of thin, 1,
    # 2, 3 and 5 steps, which end inside the burn-in and between recorded
    # states, give the same states bit for bit
    d = 2 * ell + 1
    walk, pieces = _recorded_walk(ell, odd, monkeypatch)
    default = mcs._WALK_PIECE
    for thin, burn_in, across_block in [(1, 0, True), (10, 7, True)] + [
        (thin, burn_in, False) for thin, burn_in in itertools.product((1, 3, 10), (0, 7, 100))
    ]:
        # two default pieces and then some, ending thin - 1 steps into a
        # group; or one 20000-step block and a few steps of the next
        steps = 20000 + 3 * thin + 1 if across_block else burn_in + 2 * (default // (d * d)) + 4 * thin - 1
        got = walk(default, steps, burn_in, thin)
        assert len(pieces) >= 3
        np.testing.assert_array_equal(got, walk(20000 * d * d * thin, steps, burn_in, thin))
        assert len(pieces) == 1 + across_block
        if thin >= 2:
            np.testing.assert_array_equal(got, walk(d * d * thin, steps, burn_in, thin))
        if across_block:
            continue
        # a dozen groups, ending thin - 1 steps into the next
        steps = burn_in + 13 * thin - 1
        want = walk(default, steps, burn_in, thin)
        for budget in (d * d, 2 * d * d, 3 * d * d, 5 * d * d):
            np.testing.assert_array_equal(walk(budget, steps, burn_in, thin), want)
            ends = np.cumsum(pieces)[:-1]
            if budget % (thin * d * d):
                # some piece ends between two recorded states
                assert np.any((ends > burn_in) & ((ends - burn_in) % thin != 0))

    # one-step pieces: every step matrix is built alone
    for thin, burn_in in itertools.product((1, 3), (0, 7)):
        got = walk(d * d, 41, burn_in, thin)
        assert pieces == [1] * 41
        np.testing.assert_array_equal(got, walk(default, 41, burn_in, thin))


@pytest.mark.parametrize("odd", [False, True])
def test_orbit_walk_pieces_change_no_bits_at_weight_7(odd, monkeypatch):
    # from weight 7 on, BLAS picks its kernel by size, so this checks that
    # a step matrix's bits do not depend on how many are built at once
    d = 15
    walk, pieces = _recorded_walk(7, odd, monkeypatch)
    burn_in, thin = 7, 3
    steps = burn_in + 2 * (mcs._WALK_PIECE // (d * d)) + 4 * thin - 1
    want = walk(mcs._WALK_PIECE, steps, burn_in, thin)
    assert len(pieces) == 3
    np.testing.assert_array_equal(walk(20000 * d * d, steps, burn_in, thin), want)
    assert pieces == [steps]
    np.testing.assert_array_equal(walk(d * d, steps, burn_in, thin), want)
    assert pieces == [1] * steps


# ---------------------------------------------------------------------------
# Reports, sample IO, calibration


def test_report_validation():
    with pytest.raises(ValueError):
        mcs.TestReport("x", 0.0, 1.5, 99, 0.01, False, 0)
    with pytest.raises(ValueError):
        mcs.TestReport("x", math.nan, 0.5, 99, 0.01, False, 0)
    with pytest.raises(ValueError):
        mcs.TestReport("x", 0.0, 0.001, 99, 0.01, False, 0)
    report = mcs.TestReport("x", 0.0, 0.5, 99, 0.01, False, 0)
    assert report.to_dict()["p_value"] == 0.5


def test_sample_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    samples = mcs.SampleMatrix(rng.standard_normal((20, 4)))
    path = tmp_path / "rows.csv"
    mcs.dump_sample_matrix(samples, path)
    back = mcs.load_sample_matrix(path)
    np.testing.assert_array_equal(back.rows, samples.rows)
    with pytest.raises(DimensionError):
        mcs.SampleMatrix(np.zeros(3))
    with pytest.raises(ValueError):
        mcs.SampleMatrix(np.array([[1.0, math.inf]]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mcs.orbit_walk_samples(1, 0), "need at least one sample, got 0"),
        (lambda: mcs.calibration_suite(repetitions=0), "need at least one repetition, got 0"),
    ],
)
def test_count_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$") as excinfo:
        call()
    assert excinfo.type is ValueError


def test_calibration_suite_structure():
    result = mcs.calibration_suite(seed=5, repetitions=4, alpha=0.05, n_permutations=99)
    assert result["repetitions"] == 4
    assert result["band"] == [0.025, 0.1]
    assert set(result["tests"]) == {
        "energy_two_sample",
        "exchangeability",
        "rotational_invariance",
        "radial_angular_independence",
        "uniform_on_sphere",
        "gaussianity_1d",
    }
    for entry in result["tests"].values():
        assert 0.0 <= entry["rate"] <= 1.0
        assert entry["rejections"] <= 4
    assert isinstance(result["all_within_band"], bool)


# ---------------------------------------------------------------------------
# Exceedance counting and curtailed decisions


def _report_rejects(count, b, alpha, components):
    # the public reports' own rule: plain p < alpha, or uniformity's
    # Bonferroni pair min(1, 2 p) < alpha
    p = mcs._p_value(count, b)
    if components == 1:
        return mcs._report("x", 0.0, p, b, alpha, 0).reject
    return min(1.0, 2.0 * p) < alpha


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("b", [99, 199, 299, 499, 999])
@pytest.mark.parametrize(
    "alpha", [0.001, 0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.05, 0.1, 0.15, 0.2, 0.5, 1.5]
)
def test_stop_count_is_the_first_count_that_cannot_reject(alpha, b, components):
    # the grid holds the float boundaries alpha (B + 1) in {1, 10, 15},
    # e.g. 0.01 x 100, 0.05 x 200 and 0.05 x 300 or 0.015 x 1000
    h = mcs._stop_count(alpha, b, components)
    assert 0 <= h <= b + 1
    if h > 0:
        assert _report_rejects(h - 1, b, alpha, components)
    if h <= b:
        assert not _report_rejects(h, b, alpha, components)
        assert not _report_rejects(b, b, alpha, components)


def test_stop_count_at_calibration_defaults():
    assert mcs._stop_count(0.05, 199) == 9  # 10/200 < 0.05 is False
    assert mcs._stop_count(0.05, mcs.UNIFORMITY_SIMULATIONS, 2) == 12
    assert mcs._stop_count(0.05, mcs.GAUSSIANITY_BOOTSTRAP) == 14
    assert mcs._stop_count(0.01, 99) == 0  # 1/100 < 0.01 is False: never rejects
    assert mcs._stop_count(1.5, 99) == 100  # always rejects


def test_counter_stops_after_the_chunk_that_fixes_the_decision():
    observed = np.array([0.5, 0.5])
    chunks = [np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), np.array([[1.0], [1.0]]), np.array([[1.0], [1.0]])]
    pulled = []

    def stream():
        for chunk in chunks:
            pulled.append(chunk)
            yield chunk

    counts, used = mcs._count_exceedances(observed, stream(), stop=2)
    assert counts.tolist() == [3, 2] and used == 4 and len(pulled) == 2
    counts, used = mcs._count_exceedances(observed, chunks)
    assert counts.tolist() == [4, 3] and used == 5
    pulled.clear()
    counts, used = mcs._count_exceedances(observed, stream(), stop=0)
    assert counts.tolist() == [0, 0] and used == 0 and not pulled


def test_chunk_schedule_grows_to_its_cap():
    assert list(mcs._chunk_sizes(199, 163)) == [25, 50, 100, 24]
    assert list(mcs._chunk_sizes(199, 10)) == [10] * 19 + [9]
    assert list(mcs._chunk_sizes(20, 163)) == [20]


def _simulated_chunks(monkeypatch, first, cap_entries, run):
    """The simulated-statistic chunks a test core hands the counter, under a given schedule."""
    captured = []
    count = mcs._count_exceedances

    def capturing(observed, chunks, stop=None):
        chunks = list(chunks)
        captured.extend(chunks)
        return count(observed, chunks, stop)

    with monkeypatch.context() as m:
        m.setattr(mcs, "_count_exceedances", capturing)
        m.setattr(mcs, "_FIRST_CHUNK", first)
        m.setattr(mcs, "_PANEL_BUDGET", cap_entries)
        run()
    return captured


@pytest.mark.parametrize(
    "kind, n, d, draws",
    [
        ("uniformity", 200, 3, 299),
        ("uniformity", 2000, 5, 99),
        ("gaussianity", 150, 1, 299),
        ("independence", 200, 4, 199),
        ("independence", 2100, 9, 99),
    ],
)
def test_simulated_statistics_do_not_depend_on_the_chunking(kind, n, d, draws, monkeypatch):
    # curtailing scores a prefix of the full run's draws, so the draw
    # stream and the statistics must be the same in one chunk and in many
    rng = np.random.default_rng(60)
    if kind == "independence":
        # distance covariance keeps its chunks, one block of rows each, and
        # scores them in one pass over the distances or, curtailed, in one
        # pass per chunk; its observed row is a block of its own either way
        x = rng.standard_normal((n, d))
        one_pass = []
        whole = _simulated_chunks(
            monkeypatch, 7, mcs._PANEL_BUDGET, lambda: one_pass.append(mcs._independence_core(x, draws, 61))
        )
        passes = []
        split = _simulated_chunks(
            monkeypatch, 7, mcs._PANEL_BUDGET, lambda: passes.append(mcs._independence_core(x, draws, 61, draws + 1))
        )
        assert len(whole) == 1 and len(split) > 3
        assert one_pass[0][0] == passes[0][0] and one_pass[0][2] == passes[0][2] == draws
        np.testing.assert_array_equal(np.concatenate(split, axis=1), whole[0])
        return
    if kind == "uniformity":
        x = rng.standard_normal((n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        run = lambda: mcs._uniformity_core(x, 61, draws)  # noqa: E731
    else:
        x = rng.standard_normal(n)
        run = lambda: mcs._gaussianity_core(x, 61, draws)  # noqa: E731
    whole = _simulated_chunks(monkeypatch, draws, 2**40, run)
    split = _simulated_chunks(monkeypatch, 7, 40 * n * d, run)
    assert len(whole) == 1 and len(split) > 3
    np.testing.assert_array_equal(np.concatenate(split, axis=1), whole[0])


@pytest.mark.parametrize("kind", sorted(curtail_sweep.TESTS))
@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from(curtail_sweep.ALPHAS),
    b=st.sampled_from(curtail_sweep.DRAWS),
    strength=st.integers(0, 2),
)
@example(seed=3, alpha=0.01, b=99, strength=2)  # stop count 0: no draw is needed
@example(seed=4, alpha=0.05, b=199, strength=0)  # the 10/200 float boundary
def test_curtailed_decision_equals_the_public_report(kind, seed, alpha, b, strength):
    core, public, components = curtail_sweep.TESTS[kind]
    x = curtail_sweep.case_data(kind, strength, np.random.default_rng(seed))
    report = public(x, b, seed, alpha)
    stop = mcs._stop_count(alpha, b, components)
    _, counts, used = core(x, b, seed, stop)
    assert bool(counts.min() < stop) == report.reject
    if used < b:
        assert np.all(counts >= stop)
    else:
        _, full_counts, full_used = core(x, b, seed)
        assert used == full_used == b
        np.testing.assert_array_equal(counts, full_counts)
    if stop == 0:
        assert used == 0 and not report.reject


def _public_calibration(seed, repetitions, alpha, b):
    """calibration_suite's result, built from the public test functions on the same streams."""
    def uniform(rng):
        g = rng.standard_normal((200, 3))
        return g / np.linalg.norm(g, axis=1)[:, None]

    runs = {
        "energy_two_sample": lambda rng, s: mcs.energy_two_sample_test(
            rng.standard_normal((150, 3)), rng.standard_normal((150, 3)), b, s, alpha
        ),
        "exchangeability": lambda rng, s: mcs.test_exchangeability(rng.standard_normal((200, 6)), b, s, alpha),
        "rotational_invariance": lambda rng, s: mcs.test_rotational_invariance(
            rng.standard_normal((200, 3)), 1, b, s, alpha
        ),
        "radial_angular_independence": lambda rng, s: mcs.test_radial_angular_independence(
            rng.standard_normal((200, 4)), b, s, alpha
        ),
        "uniform_on_sphere": lambda rng, s: mcs.test_uniform_on_sphere(uniform(rng), s, alpha),
        "gaussianity_1d": lambda rng, s: mcs.test_gaussianity_1d(rng.standard_normal(150), s, alpha),
    }
    tests = {}
    for t, (name, run) in enumerate(runs.items()):
        rejections = 0
        for r in range(repetitions):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, r, 0]))
            test_seed = int(np.random.SeedSequence([seed, t, r, 1]).generate_state(1)[0])
            rejections += run(rng, test_seed).reject
        rate = rejections / repetitions
        tests[name] = {"rejections": rejections, "rate": rate, "within_band": alpha / 2 <= rate <= 2 * alpha}
    return {
        "seed": seed,
        "repetitions": repetitions,
        "alpha": alpha,
        "band": [alpha / 2, 2 * alpha],
        "tests": tests,
        "all_within_band": all(entry["within_band"] for entry in tests.values()),
    }


@pytest.mark.parametrize("b", [99, 199])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("seed", [5, 1729])
def test_calibration_suite_matches_the_public_tests(seed, alpha, b):
    # the suite curtails every test at its stop count; its rejection
    # counts must still be those of the full public runs
    assert mcs.calibration_suite(seed, 10, alpha, b) == _public_calibration(seed, 10, alpha, b)
