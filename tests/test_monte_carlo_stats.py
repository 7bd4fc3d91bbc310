"""Permutation tests, Haar sampling, and the orbit random walk."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from invspan import monte_carlo_stats as mcs
from invspan.errors import DegenerateInputError, DimensionError
from invspan.sphere_harmonics import sample_degree_block


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
        q = mcs.haar_rotation(d, 13)
        np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-10)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def test_haar_rotation_rejects_small_d():
    with pytest.raises(DimensionError):
        mcs.haar_rotation(1, 0)


def test_haar_rotation_angle_uniform_on_so2():
    angles = np.empty(10_000)
    for k in range(10_000):
        q = mcs.haar_rotation(2, 90_000 + k)
        angles[k] = math.atan2(q[1, 0], q[0, 0])
    angles = np.mod(angles, 2.0 * math.pi)
    counts, _ = np.histogram(angles, bins=16, range=(0.0, 2.0 * math.pi))
    assert chisquare(counts).pvalue > 0.01


def test_haar_rotation_mean_is_zero():
    total = np.zeros((3, 3))
    for k in range(10_000):
        total += mcs.haar_rotation(3, 80_000 + k)
    assert np.abs(total / 10_000).max() <= 4.0 / math.sqrt(10_000)


def test_haar_rotation_deterministic():
    np.testing.assert_array_equal(mcs.haar_rotation(4, 5), mcs.haar_rotation(4, 5))


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
    # pooled size above the precision cutover still scores x = y as zero
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1500, 2))
    report = mcs.energy_two_sample_test(x, x, 99, 7)
    assert report.statistic == 0.0


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
# Radial and angular independence


def test_independence_statistic_matches_naive():
    rng = np.random.default_rng(16)
    rows = rng.standard_normal((120, 3))
    report = mcs.test_radial_angular_independence(rows, 99, 17)
    assert report.statistic == pytest.approx(_dcov_statistic_naive(rows), abs=1e-12)


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


def _kernel_case(n, rows, panel_elements, seed, ties, dtype=np.float64):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + a.T
    r = rng.standard_normal((rows, n))
    if ties:
        r = np.round(r)
    exact = np.einsum("kij,ij->k", np.abs(r[:, :, None] - r[:, None, :]), a)
    scale = np.einsum("kij,ij->k", np.abs(r[:, :, None] - r[:, None, :]), np.abs(a))
    panels = mcs._triangle_panels(a.astype(dtype), panel_elements)
    got = mcs._dcov_stats(r.astype(dtype), panels)
    return got, exact, scale, panels


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    rows=st.integers(1, 5),
    panel_elements=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
@example(n=30, rows=3, panel_elements=2000, seed=1, ties=False)  # one panel
@example(n=37, rows=2, panel_elements=37 * 5, seed=2, ties=False)  # ragged last panel
@example(n=25, rows=4, panel_elements=100, seed=3, ties=True)  # tied radii
def test_dcov_kernel_matches_double_sum(n, rows, panel_elements, seed, ties):
    # relative to sum_ij |r_i - r_j| |A_ij|, since the signed sum may cancel
    got, exact, scale, panels = _kernel_case(n, rows, panel_elements, seed, ties)
    assert got.shape == (rows,)
    assert np.all(np.abs(got - exact) <= 1e-12 * scale)
    assert sum(panel.shape[0] for _, panel in panels) == n


def test_dcov_kernel_panel_shapes():
    # a budget of n**2 gives one panel; a smaller one ragged panels that
    # cover every row, each within the budget
    n = 37
    assert [lo for lo, _ in mcs._triangle_panels(np.ones((n, n)), n * n)] == [0]
    panels = mcs._triangle_panels(np.ones((n, n)), 5 * n)
    heights = [panel.shape[0] for _, panel in panels]
    assert heights[0] == 5 and sum(heights) == n and n % heights[0] != 0
    assert all(panel.size <= 5 * n for _, panel in panels)
    for lo, panel in panels:
        h, w = panel.shape
        assert w == n - lo
        np.testing.assert_array_equal(panel, 2.0 * np.triu(np.ones((h, w)), 1))


def test_dcov_kernel_float32_within_1e5_of_float64():
    for seed in range(5):
        got, exact, scale, panels = _kernel_case(300, 4, 3000, seed, False, np.float32)
        assert got.dtype == np.float64 and panels[0][1].dtype == np.float32
        assert np.all(np.abs(got - exact) <= 1e-5 * scale)


def _record_kernel_calls(monkeypatch):
    calls = []
    kernel = mcs._dcov_stats

    def recording(radius_rows, panels):
        out = kernel(radius_rows, panels)
        calls.append((radius_rows.copy(), out))
        return out

    monkeypatch.setattr(mcs, "_dcov_stats", recording)
    return calls


def test_independence_permutations_follow_the_draw_stream(monkeypatch):
    # a small scratch budget splits the 99 permutations into several
    # passes, the last one short; the count must still equal one naive
    # statistic per rng.permutation draw, in order
    monkeypatch.setattr(mcs, "_DCOV_BUFFER", 2**12)
    calls = _record_kernel_calls(monkeypatch)
    rng = np.random.default_rng(18)
    rows = rng.standard_normal((120, 3))
    rows *= 1.0 + 0.3 * np.abs(rows[:, :1])
    report = mcs.test_radial_angular_independence(rows, 99, 19)
    sizes = [len(out) for _, out in calls[1:]]
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


@pytest.mark.parametrize("n", [120, 2100])
def test_independence_statistic_is_the_unpermuted_kernel_row(n, monkeypatch):
    # the reported statistic is exactly the kernel's value on the
    # unpermuted radii, on both sides of the float32 cutover
    calls = _record_kernel_calls(monkeypatch)
    rng = np.random.default_rng(20)
    rows = rng.standard_normal((n, 4))
    report = mcs.test_radial_angular_independence(rows, 99, 21)
    radius_rows, out = calls[0]
    np.testing.assert_array_equal(radius_rows, np.linalg.norm(rows, axis=1)[None, :].astype(radius_rows.dtype))
    assert report.statistic == out[0] / (n * n)
    assert sum(len(out) for _, out in calls[1:]) == 99


@pytest.mark.parametrize("n", [120, 2100])
def test_independence_constant_radii(n):
    # every row has norm exactly 3, so every statistic is exactly zero
    signs = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])
    base = np.concatenate([signs * np.roll([1.0, 2.0, 2.0], k) for k in range(3)])
    rows = np.tile(base, (n // len(base) + 1, 1))[:n]
    assert np.all(np.linalg.norm(rows, axis=1) == 3.0)
    report = mcs.test_radial_angular_independence(rows, 99, 22)
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert not report.reject


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
