"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints a single summary line; all randomness is frozen so the
suite is bit-reproducible.
"""

import math
import time

import numpy as np
from reference_engine import plane_rotation

from invspan import monte_carlo_stats as mcs
from invspan.invariance_engine import accumulate_span, block_form_check, decompose_so_n, verify_span
from invspan.lie_core import so_dim
from invspan.sphere_harmonics import (
    PowerSpectrum,
    empirical_power_spectrum,
    gauss_legendre_grid,
    grid_mean_square,
    laplacian_eigen_check,
    sample_coefficient_arrays,
    sample_degree_block,
    synthesize_batch,
    ylm_matrix,
)

RADIAL_LAWS = ("chi", "lognormal", "constant")


def test_criterion_01_span_certification_weights_1_to_6():
    start = time.time()
    for ell in range(1, 7):
        n = 2 * ell + 1
        report = verify_span(ell)
        assert report.full, f"weight {ell} span is not all of so({n})"
        assert report.span_dim == so_dim(n)
        assert report.n == n
        assert report.hypothesis_satisfied
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"span certification took {elapsed:.1f}s"
    print(f"criterion 1 PASS: weights 1..6 give full spans in {elapsed:.1f}s")


def test_criterion_02_reducible_negative_control():
    # a single plane rotation annihilating the all-ones vector keeps a
    # one dimensional invariant subspace, so its orbit span must not fill
    u = np.array([1.0, -1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, -1.0, 0.0])
    report, _ = accumulate_span([plane_rotation(u, v)], 4)
    assert not report.full
    assert report.span_dim == 3
    print(f"criterion 2 PASS: reducible control spans {report.span_dim}/6, full=false")


def test_criterion_03_decomposition_dimensions():
    worst_cross = 0.0
    for n in range(4, 13):
        report, standard, stabilizer = decompose_so_n(n)
        assert report.standard_dim == n - 1
        assert report.stabilizer_dim == (n - 1) * (n - 2) // 2
        cross = float(np.abs(standard.vectors @ stabilizer.vectors.T).max())
        worst_cross = max(worst_cross, cross)
        assert cross <= 1e-10
    print(f"criterion 3 PASS: dims exact for n=4..12, worst cross product {worst_cross:.2e}")


def test_criterion_04_transposition_characters():
    report, _, _ = decompose_so_n(4)
    assert abs(report.standard_char_transposition - 1.0) <= 1e-12
    assert abs(report.stabilizer_char_transposition + 1.0) <= 1e-12
    print(
        "criterion 4 PASS: n=4 transposition characters "
        f"({report.standard_char_transposition:+.0f}, {report.stabilizer_char_transposition:+.0f})"
    )


def test_criterion_05_block_form():
    worst = 0.0
    for n in range(4, 11):
        report = block_form_check(n)
        assert report.tol == 1e-10
        assert report.passed, f"block form failed at n={n}"
        worst = max(
            worst,
            report.stabilizer_first_rowcol_max,
            report.standard_complement_max,
            report.cross_gram_max,
        )
    print(f"criterion 5 PASS: block form holds for n=4..10, worst residual {worst:.2e}")


def test_criterion_06_harmonic_analysis():
    grid = gauss_legendre_grid(8)
    basis = ylm_matrix(8, grid.theta, grid.phi)
    gram = (basis * grid.weights) @ basis.T
    gram_defect = float(np.abs(gram - np.eye(81)).max())
    assert gram_defect <= 1e-6

    ratios = {}
    for ell in (1, 3):
        r_h = laplacian_eigen_check(ell, 1e-3)
        r_half = laplacian_eigen_check(ell, 5e-4)
        assert r_h <= 1e-3, f"degree {ell} residual {r_h:.2e} too large at h=1e-3"
        ratios[ell] = r_h / r_half
        assert 3.4 <= ratios[ell] <= 4.6, f"degree {ell} convergence ratio {ratios[ell]:.2f}"
    print(
        f"criterion 6 PASS: gram defect {gram_defect:.2e}, "
        f"halving ratios {ratios[1]:.2f} and {ratios[3]:.2f}"
    )


def test_criterion_07_theorem2_pipeline():
    # part 1: degree-4 blocks pass the three symmetry tests for each law
    for law in RADIAL_LAWS:
        block = sample_degree_block(4, 1.0, law, 5000, 1000)
        exch = mcs.test_exchangeability(block, 199, 2000, 0.01)
        rot = mcs.test_rotational_invariance(block, 1, 199, 3000, 0.01)
        indep = mcs.test_radial_angular_independence(block, 199, 4000, 0.01)
        for report in (exch, rot, indep):
            assert not report.reject, f"{law}: {report.name} rejected, p={report.p_value}"

    # part 2: spectrum recovery and the variance identity, all three laws
    spectrum = PowerSpectrum(np.array([1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15]))
    grid = gauss_legendre_grid(spectrum.lmax)
    identity_value = sum(
        (2 * ell + 1) * c for ell, c in enumerate(spectrum.values)
    ) / (4.0 * math.pi)
    n = 5000
    for law in RADIAL_LAWS:
        rows = sample_coefficient_arrays(spectrum, law, n, 70)
        estimate, _ = empirical_power_spectrum(rows)
        for ell in range(spectrum.lmax + 1):
            block = rows[:, ell * ell : (ell + 1) ** 2]
            per_sample = np.einsum("ij,ij->i", block, block) / (2 * ell + 1)
            se = float(per_sample.std(ddof=1)) / math.sqrt(n)
            gap = abs(float(estimate.values[ell]) - float(spectrum.values[ell]))
            # the tiny absolute floor covers the constant law, whose
            # per-sample power is exact and has zero standard error
            assert gap <= 3.0 * se + 1e-9, f"{law}: C_{ell} off by {gap:.3e} (se {se:.3e})"
        fields = synthesize_batch(rows, spectrum.lmax, grid)
        per_ms = np.array([grid_mean_square(f, grid) for f in fields])
        se = float(per_ms.std(ddof=1)) / math.sqrt(n)
        gap = abs(float(per_ms.mean()) - identity_value)
        assert gap <= 3.0 * se + 1e-9, f"{law}: variance identity off by {gap:.3e}"
    print("criterion 7 PASS: all laws pass the three tests, spectrum and variance within 3 SE")


def test_criterion_08_bernstein_properties():
    # chi radial law: Gaussian marginals, so rejections happen at rate ~ alpha
    alpha = 0.05
    rejections = 0
    for k in range(200):
        block = sample_degree_block(2, 1.0, "chi", 1000, 50_000 + k)
        report = mcs.test_gaussianity_1d(block[:, 0], seed=60_000 + k, alpha=alpha)
        rejections += report.reject
    rate = rejections / 200.0
    assert alpha / 2.0 <= rate <= 2.0 * alpha, f"chi false-rejection rate {rate}"

    # lognormal radial law: marginals are not Gaussian
    power_hits = 0
    for k in range(20):
        block = sample_degree_block(2, 1.0, "lognormal", 5000, 70_000 + k)
        power_hits += mcs.test_gaussianity_1d(block[:, 0], seed=80_000 + k, alpha=0.01).reject
    lognormal_power = power_hits / 20.0
    assert lognormal_power >= 0.9

    # centered exponential vectors are exchangeable but not isotropic
    power_hits = 0
    for k in range(10):
        rng = np.random.default_rng(90_000 + k)
        x = rng.exponential(1.0, (5000, 5)) - 1.0
        power_hits += mcs.test_rotational_invariance(x, 1, 199, seed=91_000 + k, alpha=0.01).reject
    exponential_power = power_hits / 10.0
    assert exponential_power >= 0.9
    print(
        f"criterion 8 PASS: chi rate {rate:.3f} in [0.025, 0.1], lognormal power "
        f"{lognormal_power:.2f}, exponential power {exponential_power:.2f}"
    )


def test_criterion_09_orbit_walk_uniformity():
    p_values = {}
    for ell in (1, 2):
        for odd in (False, True):
            states = mcs.orbit_walk_samples(ell, 10_000, odd, seed=100 + ell)
            report = mcs.test_uniform_on_sphere(states, seed=200 + ell, alpha=0.01)
            assert not report.reject, f"walk ell={ell} odd={odd} rejected, p={report.p_value}"
            p_values[(ell, odd)] = report.p_value
    print(
        "criterion 9 PASS: uniformity holds for ell=1,2 with and without the odd factor "
        f"(p values {sorted(p_values.values())})"
    )


def test_criterion_10_calibration_suite():
    result = mcs.calibration_suite(seed=1729, repetitions=200, alpha=0.05, n_permutations=199)
    assert result["all_within_band"], f"rates outside band: {result['tests']}"
    lo, hi = result["band"]
    for name, entry in result["tests"].items():
        assert lo <= entry["rate"] <= hi, f"{name} rate {entry['rate']}"
    rates = {name: entry["rate"] for name, entry in result["tests"].items()}
    print(f"criterion 10 PASS: all null rates within [{lo}, {hi}]: {rates}")
