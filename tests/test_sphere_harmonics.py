"""Real spherical harmonics, sampling, synthesis, and spectrum estimation."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from reference_engine import cartesian_rotation, random_rotation

from invspan.errors import DimensionError
from invspan.so3_irreps import RotationSpec, build_generators
from invspan.sphere_harmonics import (
    MAX_LMAX,
    RADIAL_LAWS,
    PowerSpectrum,
    SphereGrid,
    empirical_power_spectrum,
    eval_ylm,
    gauss_legendre_grid,
    grid_mean_square,
    laplacian_eigen_check,
    lm_index,
    read_power_spectrum,
    rotate_coefficient_rows,
    rotate_coefficients,
    sample_coefficient_arrays,
    sample_degree_block,
    synthesize_batch,
    write_power_spectrum,
    ylm_matrix,
)


def _sphere_angles(points):
    points = np.asarray(points, dtype=float)
    theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * math.pi)
    return theta, phi


def test_lm_index_layout():
    assert lm_index(0, 0) == 0
    assert lm_index(1, -1) == 1
    assert lm_index(1, 0) == 2
    assert lm_index(1, 1) == 3
    assert lm_index(2, -2) == 4
    assert lm_index(3, 3) == 15


def test_y00_is_constant():
    rng = np.random.default_rng(0)
    theta = rng.uniform(0.1, math.pi - 0.1, 20)
    phi = rng.uniform(0.0, 2.0 * math.pi, 20)
    np.testing.assert_allclose(
        eval_ylm(0, 0, theta, phi), np.full(20, 1.0 / math.sqrt(4.0 * math.pi)), atol=1e-15
    )


def test_y10_matches_closed_form():
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.1, math.pi - 0.1, 20)
    phi = rng.uniform(0.0, 2.0 * math.pi, 20)
    coeff = math.sqrt(3.0 / (4.0 * math.pi))
    np.testing.assert_allclose(eval_ylm(1, 0, theta, phi), coeff * np.cos(theta), atol=1e-14)


def test_degree_one_and_two_closed_forms():
    rng = np.random.default_rng(2)
    theta = rng.uniform(0.1, math.pi - 0.1, 15)
    phi = rng.uniform(0.0, 2.0 * math.pi, 15)
    st, ct = np.sin(theta), np.cos(theta)
    c1 = math.sqrt(3.0 / (4.0 * math.pi))
    np.testing.assert_allclose(eval_ylm(1, 1, theta, phi), c1 * st * np.cos(phi), atol=1e-14)
    np.testing.assert_allclose(eval_ylm(1, -1, theta, phi), c1 * st * np.sin(phi), atol=1e-14)
    c20 = math.sqrt(5.0 / (16.0 * math.pi))
    np.testing.assert_allclose(
        eval_ylm(2, 0, theta, phi), c20 * (3.0 * ct * ct - 1.0), atol=1e-13
    )
    c22 = math.sqrt(15.0 / (16.0 * math.pi))
    np.testing.assert_allclose(
        eval_ylm(2, 2, theta, phi), c22 * st * st * np.cos(2.0 * phi), atol=1e-13
    )
    np.testing.assert_allclose(
        eval_ylm(2, -2, theta, phi), c22 * st * st * np.sin(2.0 * phi), atol=1e-13
    )


def _eval_ylm_climb(ell, m, theta, phi):
    # eval_ylm's former recursion: up the diagonal to L_mm, then upward
    # in degree to L_lm, one order at a time
    x, s = np.cos(theta), np.sin(theta)
    am = abs(m)
    cur = np.full(theta.shape, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, am + 1):
        cur = cur * s * math.sqrt((2 * k + 1) / (2.0 * k))
    if ell > am:
        prev = cur
        cur = x * math.sqrt(2 * am + 3.0) * cur
        for k in range(am + 2, ell + 1):
            a = math.sqrt((4.0 * k * k - 1.0) / (k * k - am * am))
            b = math.sqrt(((k - 1.0) ** 2 - am * am) / (4.0 * (k - 1.0) ** 2 - 1.0))
            cur, prev = a * (x * cur - b * prev), cur
    if m > 0:
        return math.sqrt(2.0) * cur * np.cos(m * phi)
    if m < 0:
        return math.sqrt(2.0) * cur * np.sin(am * phi)
    return cur


def test_eval_ylm_matches_its_former_recursion_bitwise():
    # the shared diagonal and column recursions multiply in the same
    # order as the single-order climb they replaced
    rng = np.random.default_rng(3)
    theta = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0.0, math.pi, 30)])
    phi = rng.uniform(0.0, 2.0 * math.pi, theta.shape[0])
    for ell in range(21):
        for m in range(-ell, ell + 1):
            np.testing.assert_array_equal(eval_ylm(ell, m, theta, phi), _eval_ylm_climb(ell, m, theta, phi))
            got = eval_ylm(ell, m, 0.7, 2.1)
            assert type(got) is float
            assert got == _eval_ylm_climb(ell, m, np.array([0.7]), np.array([2.1]))[0]


def test_ylm_matrix_rows_match_eval_ylm_bitwise():
    # both read the shared diagonal and column recursions, and scale by
    # sqrt(2) and then by cos or sin(m phi) in the same order
    rng = np.random.default_rng(4)
    theta = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0.0, math.pi, 30)])
    phi = rng.uniform(0.0, 2.0 * math.pi, theta.shape[0])
    basis = ylm_matrix(20, theta, phi)
    for ell in range(21):
        for m in range(-ell, ell + 1):
            np.testing.assert_array_equal(basis[lm_index(ell, m)], eval_ylm(ell, m, theta, phi))


def test_ylm_matrix_memory_is_its_output():
    # at lmax 32 on its Gauss grid the output takes 17.8 MiB, and a
    # (lmax+1, lmax+1, npts) Legendre table would take as much again
    grid = gauss_legendre_grid(32)
    tracemalloc.start()
    try:
        out = ylm_matrix(32, grid.theta, grid.phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * out.nbytes, (peak, out.nbytes)


def test_eval_ylm_rejects_bad_order():
    with pytest.raises(DimensionError):
        eval_ylm(2, 3, 0.5, 0.5)
    with pytest.raises(DimensionError):
        eval_ylm(-1, 0, 0.5, 0.5)


def test_orthonormality_on_quadrature_grid():
    grid = gauss_legendre_grid(4)
    basis = ylm_matrix(4, grid.theta, grid.phi)
    gram = (basis * grid.weights) @ basis.T
    np.testing.assert_allclose(gram, np.eye(25), atol=1e-6)


def test_laplacian_eigen_residuals():
    assert laplacian_eigen_check(0, 1e-3) <= 1e-9
    assert laplacian_eigen_check(1, 1e-3) <= 1e-4
    assert laplacian_eigen_check(3, 1e-3) <= 1e-3


def test_laplacian_second_order_convergence():
    r_h = laplacian_eigen_check(6, 1e-3)
    r_half = laplacian_eigen_check(6, 5e-4)
    assert 3.5 <= r_h / r_half <= 4.5


def test_laplacian_rejects_bad_step():
    with pytest.raises(ValueError):
        laplacian_eigen_check(1, 0.0)
    with pytest.raises(ValueError):
        laplacian_eigen_check(1, 0.5)


def test_grid_weights():
    grid = gauss_legendre_grid(8)
    assert grid.npoints == 9 * 17
    assert np.all(grid.weights > 0.0)
    assert float(grid.weights.sum()) == pytest.approx(4.0 * math.pi, abs=1e-10)


def test_constant_law_block_norm_is_exact():
    block = sample_degree_block(3, 1.0, "constant", 200, 42)
    norms2 = np.einsum("ij,ij->i", block, block)
    np.testing.assert_allclose(norms2, np.full(200, 7.0), atol=1e-12)


def test_zero_power_gives_zero_coefficients():
    spectrum = PowerSpectrum(np.array([1.0, 0.0, 2.0]))
    [row] = sample_coefficient_arrays(spectrum, "chi", 1, 3)
    np.testing.assert_array_equal(row[1:4], np.zeros(3))
    assert np.any(row[4:9] != 0.0)


def test_chi_law_marginals_match_power():
    # one draw of eta times an independent direction is jointly Gaussian,
    # so each coordinate has variance C within Monte Carlo error
    n = 100_000
    block = sample_degree_block(2, 0.7, "chi", n, 99)
    sq = block * block
    var = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(var - 0.7) <= 3.0 * se)


def test_expected_block_norm_all_laws():
    # E[norm^2] = (2 ell + 1) C for every radial law
    n = 60_000
    for law in RADIAL_LAWS:
        block = sample_degree_block(3, 2.0, law, n, 7)
        norms2 = np.einsum("ij,ij->i", block, block)
        se = norms2.std(ddof=1) / math.sqrt(n)
        assert abs(norms2.mean() - 14.0) <= 3.0 * se + 1e-9


def test_sample_rejects_unknown_law():
    with pytest.raises(ValueError):
        sample_degree_block(2, 1.0, "cauchy", 10, 0)


def test_sampling_is_deterministic():
    spectrum = PowerSpectrum(np.array([0.5, 1.0, 0.25]))
    a = sample_coefficient_arrays(spectrum, "lognormal", 50, 123)
    b = sample_coefficient_arrays(spectrum, "lognormal", 50, 123)
    np.testing.assert_array_equal(a, b)
    c = sample_coefficient_arrays(spectrum, "lognormal", 50, 124)
    assert np.any(a != c)


def test_synthesize_constant_field():
    rows = np.zeros((1, 9))
    rows[0, 0] = 3.0
    grid = gauss_legendre_grid(2)
    [field] = synthesize_batch(rows, 2, grid)
    np.testing.assert_allclose(field, np.full(grid.npoints, 3.0 / math.sqrt(4.0 * math.pi)), atol=1e-14)


def test_synthesize_single_mode_is_cos_theta():
    rows = np.zeros((1, 4))
    rows[0, lm_index(1, 0)] = 1.0
    grid = gauss_legendre_grid(3)
    [field] = synthesize_batch(rows, 1, grid)
    np.testing.assert_allclose(
        field, math.sqrt(3.0 / (4.0 * math.pi)) * np.cos(grid.theta), atol=1e-14
    )


def test_parseval_identity():
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((1, 81))
    grid = gauss_legendre_grid(8)
    fields = synthesize_batch(rows, 8, grid)
    lhs = float(fields[0] ** 2 @ grid.weights)
    rhs = float(rows[0] @ rows[0])
    assert lhs == pytest.approx(rhs, rel=1e-4)
    assert grid_mean_square(fields[0], grid) == pytest.approx(rhs / (4.0 * math.pi), rel=1e-4)


def test_rotate_identity_is_noop():
    rng = np.random.default_rng(17)
    block = rng.standard_normal(5)
    out = rotate_coefficients(2, RotationSpec(0.0, 0.0, 0.0), block)
    np.testing.assert_allclose(out, block, atol=1e-14)


def test_rotate_preserves_norm():
    rng = np.random.default_rng(18)
    for _ in range(5):
        block = rng.standard_normal(7)
        out = rotate_coefficients(3, random_rotation(rng), block)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(block), abs=1e-10)


def test_rotation_equivariance_of_synthesis():
    # rotating coefficients evaluates the original field at g^-1 x
    rng = np.random.default_rng(19)
    rows = rng.standard_normal((3, 25))
    rot = random_rotation(rng)
    rotated = rotate_coefficient_rows(rows, rot)
    points = rng.standard_normal((20, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    g = cartesian_rotation(rot)
    theta_x, phi_x = _sphere_angles(points)
    theta_b, phi_b = _sphere_angles(points @ g)
    field_rot = rotated @ ylm_matrix(4, theta_x, phi_x)
    field_orig = rows @ ylm_matrix(4, theta_b, phi_b)
    np.testing.assert_allclose(field_rot, field_orig, atol=1e-8)


def test_rotate_rows_acts_per_degree():
    rng = np.random.default_rng(20)
    rows = rng.standard_normal((6, 16))
    before = rows.copy()
    rot = random_rotation(rng)
    rotated = rotate_coefficient_rows(rows, rot)
    np.testing.assert_array_equal(rows, before)
    np.testing.assert_array_equal(rotated[:, 0], rows[:, 0])
    for ell in range(1, 4):
        block = slice(ell * ell, (ell + 1) ** 2)
        np.testing.assert_array_equal(rotated[:, block], rotate_coefficients(ell, rot, rows[:, block]))
        # each row of the stack rotates to the same bits as that row's block alone
        for row, out in zip(rows[:, block], rotated[:, block]):
            np.testing.assert_array_equal(out, rotate_coefficients(ell, rot, row))
    with pytest.raises(DimensionError):
        rotate_coefficient_rows(np.zeros((2, 8)), rot)


def test_rotating_rows_keeps_only_each_degrees_generators_and_z_to_y():
    # with cold caches, rotating lmax 32 rows leaves each degree's three
    # generators and its z_to_y matrix, 4 d^2 floats, and no basis of
    # d^3 floats per degree
    build_generators.cache_clear()
    rows = np.random.default_rng(21).standard_normal((3, 33 * 33))
    tracemalloc.start()
    try:
        rotated = rotate_coefficient_rows(rows, RotationSpec(0.4, 1.1, 2.3))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rotated.shape == rows.shape
    assert held <= 1.25 * 32 * sum((2 * ell + 1) ** 2 for ell in range(33)), held / 2**20


def test_rotate_rejects_wrong_block_length():
    with pytest.raises(DimensionError):
        rotate_coefficients(2, RotationSpec(0.1, 0.2, 0.3), np.zeros(7))


def test_empirical_spectrum_constant_law():
    spectrum = PowerSpectrum(np.ones(9))
    rows = sample_coefficient_arrays(spectrum, "constant", 10_000, 5)
    estimate, moments = empirical_power_spectrum(rows)
    assert np.all(estimate.values >= 0.95)
    assert np.all(estimate.values <= 1.05)
    # distinct orders in one degree are uncorrelated within MC error
    bound = 4.0 / math.sqrt(10_000)
    for m in moments:
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) <= bound


def test_empirical_spectrum_zero_input():
    rows = np.zeros((10, 16))
    estimate, _ = empirical_power_spectrum(rows)
    np.testing.assert_array_equal(estimate.values, np.zeros(4))


def test_empirical_spectrum_rejects_empty():
    with pytest.raises(ValueError):
        empirical_power_spectrum([])


def test_power_spectrum_file_round_trip(tmp_path):
    path = tmp_path / "spec.txt"
    spectrum = PowerSpectrum(np.array([1.0, 0.25, 0.125]))
    write_power_spectrum(spectrum, path)
    back = read_power_spectrum(path)
    np.testing.assert_array_equal(back.values, spectrum.values)


def test_power_spectrum_file_errors(tmp_path):
    gap = tmp_path / "gap.txt"
    gap.write_text("0 1.0\n2 0.5\n")
    with pytest.raises(ValueError):
        read_power_spectrum(gap)
    dup = tmp_path / "dup.txt"
    dup.write_text("0 1.0\n0 0.5\n")
    with pytest.raises(ValueError):
        read_power_spectrum(dup)
    neg = tmp_path / "neg.txt"
    neg.write_text("0 -1.0\n")
    with pytest.raises(ValueError):
        read_power_spectrum(neg)
    # an unparsable degree or value names its file and line
    degree = tmp_path / "degree.txt"
    degree.write_text("0 1.0\nx 0.5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(degree))}:2: invalid literal for int"):
        read_power_spectrum(degree)
    value = tmp_path / "value.txt"
    value.write_text("# spectrum\n0 1.0\n1 y\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(value))}:3: could not convert string to float"):
        read_power_spectrum(value)
    # so does a negative or non-finite value
    for text, lineno in (("0 1.0\n1 -0.5\n", 2), ("0 nan\n", 1), ("0 inf\n", 1)):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:{lineno}: power values must be finite and nonnegative"):
            read_power_spectrum(bad)
    # and a degree below 0 or above MAX_LMAX
    too_high = "".join(f"{ell} 1.0\n" for ell in range(MAX_LMAX + 2))
    for text, lineno, ell in (("0 1.0\n1 0.5\n-1 0.5\n", 3, -1), (too_high, MAX_LMAX + 2, MAX_LMAX + 1)):
        bad = tmp_path / "degree_range.txt"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:{lineno}: degree must lie in 0..{MAX_LMAX}, got {ell}$"):
            read_power_spectrum(bad)


def test_lmax_cap_enforced():
    with pytest.raises(DimensionError):
        gauss_legendre_grid(MAX_LMAX + 1)


def _spectrum_file(tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    return path


_Z3 = np.zeros(3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: ylm_matrix(2, [0.1, 0.2], [0.3]), DimensionError, "theta and phi must be 1-d arrays of equal"),
        (lambda tmp: ylm_matrix(2, np.zeros((2, 2)), np.zeros((2, 2))), DimensionError, "theta and phi must be 1-d"),
        (lambda tmp: ylm_matrix(2, [4.0], [0.0]), ValueError, "theta must lie in [0, pi]"),
        (lambda tmp: SphereGrid(_Z3, _Z3, np.ones(2)), DimensionError, "grid arrays must share one shape"),
        (lambda tmp: SphereGrid(_Z3, _Z3, np.array([-1.0, 1.0, 13.0])), ValueError, "grid weights must be positive"),
        (lambda tmp: SphereGrid(_Z3, _Z3, np.ones(3)), ValueError, "grid weights sum to 3.0, expected 4 pi"),
        (lambda tmp: PowerSpectrum(np.array([])), DimensionError, "power spectrum must be a non-empty 1-d array"),
        (lambda tmp: PowerSpectrum(np.ones((2, 2))), DimensionError, "power spectrum must be a non-empty 1-d array"),
        (lambda tmp: PowerSpectrum(np.array([1.0, -0.5])), ValueError, "power values must be finite and nonnegative"),
        (
            lambda tmp: read_power_spectrum(_spectrum_file(tmp, "0 1.0\n1 0.5 0.25\n")),
            ValueError,
            ":2: expected 'ell value', got '1 0.5 0.25\\n'",
        ),
        (
            lambda tmp: read_power_spectrum(_spectrum_file(tmp, "# comments only\n\n")),
            ValueError,
            "spec.txt: no spectrum entries found",
        ),
        (lambda tmp: sample_degree_block(-1, 1.0, "chi", 10, 0), ValueError, "need ell >= 0, n >= 1 and c >= 0"),
        (lambda tmp: sample_degree_block(2, 1.0, "chi", 0, 0), ValueError, "need ell >= 0, n >= 1 and c >= 0"),
        (lambda tmp: sample_degree_block(2, -1.0, "chi", 10, 0), ValueError, "need ell >= 0, n >= 1 and c >= 0"),
        (lambda tmp: sample_coefficient_arrays(PowerSpectrum.constant(2), "chi", 0, 0), ValueError, "need n >= 1"),
        (
            lambda tmp: synthesize_batch(np.zeros((2, 9)), 3, gauss_legendre_grid(3)),
            DimensionError,
            "rows of shape (2, 9) do not match lmax 3",
        ),
    ],
)
def test_input_checks_raise_their_messages(call, error, message, tmp_path):
    with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
        call(tmp_path)
    assert excinfo.type is error
