"""Real spherical harmonics, random coefficient models, and field synthesis.

Harmonics Y_lm are real valued and normalized so that the integral of
Y_lm^2 over the sphere (surface measure, total mass 4 pi) is one:

    m = 0:  Y_l0(theta)
    m > 0:  sqrt(2) L_lm(cos theta) cos(m phi)
    m < 0:  sqrt(2) L_l|m|(cos theta) sin(|m| phi)

with L_lm the fully normalized associated Legendre functions computed by
the standard stable upward recursion (no Condon-Shortley sign; the sign
convention matches the complex-to-real unitary used for the generators in
so3_irreps, which the rotation equivariance tests pin down).

Random fields follow the decomposition of an exchangeable-and-invariant
coefficient block into a radius times an independent uniform direction:
a_l. = eta * u with u uniform on the unit sphere of R^(2l+1) and
E[eta^2] = (2l+1) C_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DimensionError
from .so3_irreps import RotationSpec, build_generators, rep_matrix

__all__ = [
    "PowerSpectrum",
    "RADIAL_LAWS",
    "SphereGrid",
    "empirical_power_spectrum",
    "eval_ylm",
    "gauss_legendre_grid",
    "grid_mean_square",
    "laplacian_eigen_check",
    "lm_index",
    "read_power_spectrum",
    "rotate_coefficient_rows",
    "rotate_coefficients",
    "sample_coefficient_arrays",
    "sample_degree_block",
    "synthesize_batch",
    "write_power_spectrum",
    "ylm_matrix",
]

RADIAL_LAWS = ("chi", "lognormal", "constant")

MAX_LMAX = 64


def lm_index(ell: int, m: int) -> int:
    """Position of (ell, m) in the flat coefficient layout, m ascending."""
    if abs(m) > ell:
        raise DimensionError(f"|m| = {abs(m)} exceeds ell = {ell}")
    return ell * ell + ell + m


def _check_lmax(lmax: int) -> None:
    if lmax < 0 or lmax > MAX_LMAX:
        raise DimensionError(f"lmax must lie in 0..{MAX_LMAX}, got {lmax}")


def _legendre_diagonal(lmax: int, s: np.ndarray):
    """Yield L_mm for m = 0, ..., lmax, with s = sin(theta) >= 0."""
    cur = np.full(s.shape, 1.0 / math.sqrt(4.0 * math.pi))
    yield cur
    for m in range(1, lmax + 1):
        cur = cur * s * math.sqrt((2 * m + 1) / (2.0 * m))
        yield cur


def _legendre_column(lmax: int, m: int, x: np.ndarray, diag: np.ndarray):
    """Yield L_lm(x) for l = m, ..., lmax, upward in degree from diag = L_mm."""
    cur = diag
    yield cur
    if lmax > m:
        prev, cur = cur, x * math.sqrt(2 * m + 3.0) * cur
        yield cur
    for ell in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = math.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
        prev, cur = cur, a * (x * cur - b * prev)
        yield cur


def _as_points(theta, phi):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape or theta.ndim != 1:
        raise DimensionError("theta and phi must be 1-d arrays of equal length")
    if np.any(theta < -1e-9) or np.any(theta > math.pi + 1e-9):
        raise ValueError("theta must lie in [0, pi]")
    return theta, phi


def ylm_matrix(lmax: int, theta, phi) -> np.ndarray:
    """All harmonics up to lmax at the given points, shape ((lmax+1)^2, npts).

    Each order's Legendre column is written into the output as the
    recursion yields it, so the working set is the output and a few rows.
    """
    _check_lmax(lmax)
    theta, phi = _as_points(theta, phi)
    x = np.cos(theta)
    out = np.empty(((lmax + 1) ** 2, theta.shape[0]))
    rt2 = math.sqrt(2.0)
    for m, diag in enumerate(_legendre_diagonal(lmax, np.sin(theta))):
        cos_m = np.cos(m * phi)
        sin_m = np.sin(m * phi)
        for ell, value in enumerate(_legendre_column(lmax, m, x, diag), m):
            if m == 0:
                out[lm_index(ell, 0)] = value
            else:
                out[lm_index(ell, m)] = rt2 * value * cos_m
                out[lm_index(ell, -m)] = rt2 * value * sin_m
    return out


def eval_ylm(ell: int, m: int, theta, phi):
    """Real spherical harmonic of degree ell and order m.

    Accepts scalars or matching 1-d arrays; returns the same shape.
    """
    _check_lmax(ell)
    lm_index(ell, m)
    scalar = np.isscalar(theta) and np.isscalar(phi)
    theta, phi = _as_points(theta, phi)
    am = abs(m)
    # one order only: up the diagonal to L_mm, then upward in degree to L_lm
    for cur in _legendre_diagonal(am, np.sin(theta)):
        pass
    for cur in _legendre_column(ell, am, np.cos(theta), cur):
        pass
    if m > 0:
        vals = math.sqrt(2.0) * cur * np.cos(m * phi)
    elif m < 0:
        vals = math.sqrt(2.0) * cur * np.sin(am * phi)
    else:
        vals = cur
    return float(vals[0]) if scalar else vals


def laplacian_eigen_check(ell: int, h: float) -> float:
    """Max |Delta Y_lm + l(l+1) Y_lm| over a fixed 7 x 9 interior grid.

    Delta is the coordinate Laplace-Beltrami operator
    (1/sin t) d/dt (sin t dY/dt) + (1/sin^2 t) d^2 Y/dp^2, discretized
    with second-order central differences of step h.
    """
    if not (0.0 < h < 0.1):
        raise ValueError(f"step must lie in (0, 0.1), got {h}")
    thetas = np.linspace(0.2, math.pi - 0.2, 7)
    phis = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
    tt, pp = [a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij")]
    sin_t = np.sin(tt)
    sin_p = np.sin(tt + h / 2.0)
    sin_m = np.sin(tt - h / 2.0)
    # the degree-ell rows of ylm_matrix, one row per order m
    y0, y_tp, y_tm, y_pp, y_pm = (
        ylm_matrix(ell, t, p)[ell * ell :]
        for t, p in ((tt, pp), (tt + h, pp), (tt - h, pp), (tt, pp + h), (tt, pp - h))
    )
    theta_part = (sin_p * (y_tp - y0) - sin_m * (y0 - y_tm)) / (h * h * sin_t)
    phi_part = (y_pp - 2.0 * y0 + y_pm) / (h * h * sin_t * sin_t)
    return float(np.max(np.abs(theta_part + phi_part + ell * (ell + 1) * y0)))


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature points (theta, phi) with weights summing to 4 pi."""

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (self.theta.shape == self.phi.shape == self.weights.shape):
            raise DimensionError("grid arrays must share one shape")
        if np.any(self.weights <= 0.0):
            raise ValueError("grid weights must be positive")
        total = float(np.sum(self.weights))
        if abs(total - 4.0 * math.pi) > 1e-8:
            raise ValueError(f"grid weights sum to {total}, expected 4 pi")

    @property
    def npoints(self) -> int:
        return self.theta.shape[0]


def gauss_legendre_grid(lmax: int) -> SphereGrid:
    """Gauss-Legendre x uniform-azimuth grid, exact through degree 2 lmax.

    lmax + 1 polar nodes and 2 lmax + 1 azimuths.
    """
    _check_lmax(lmax)
    n_phi = 2 * lmax + 1
    x, w = leggauss(lmax + 1)
    theta_nodes = np.arccos(x)
    phi_nodes = 2.0 * math.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(theta_nodes, phi_nodes, indexing="ij")
    ww = np.repeat(w * (2.0 * math.pi / n_phi), n_phi)
    return SphereGrid(theta=tt.ravel(), phi=pp.ravel(), weights=ww)


@dataclass(frozen=True)
class PowerSpectrum:
    """Angular power values C_0..C_lmax, all finite and nonnegative."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DimensionError("power spectrum must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("power values must be finite and nonnegative")
        _check_lmax(v.size - 1)
        object.__setattr__(self, "values", v)

    @property
    def lmax(self) -> int:
        return self.values.size - 1

    @classmethod
    def constant(cls, lmax: int, value: float = 1.0) -> "PowerSpectrum":
        return cls(np.full(lmax + 1, float(value)))


def read_power_spectrum(path) -> PowerSpectrum:
    """Parse 'ell value' lines; blank lines and # comments are skipped."""
    entries: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'ell value', got {raw!r}")
            try:
                ell, value = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= ell <= MAX_LMAX:
                raise ValueError(f"{path}:{lineno}: degree must lie in 0..{MAX_LMAX}, got {ell}")
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{path}:{lineno}: power values must be finite and nonnegative, got {parts[1]}")
            if ell in entries:
                raise ValueError(f"{path}:{lineno}: duplicate degree {ell}")
            entries[ell] = value
    if not entries:
        raise ValueError(f"{path}: no spectrum entries found")
    lmax = max(entries)
    if sorted(entries) != list(range(lmax + 1)):
        raise ValueError(f"{path}: degrees must cover 0..{lmax} without gaps")
    return PowerSpectrum(np.array([entries[ell] for ell in range(lmax + 1)]))


def write_power_spectrum(spectrum: PowerSpectrum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# angular power spectrum: ell C_ell\n")
        for ell, value in enumerate(spectrum.values):
            fh.write(f"{ell} {float(value)!r}\n")


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((n, dim))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-300):
        bad = norms < 1e-300
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def _radial_draw(rng: np.random.Generator, law: str, c: float, dim: int, n: int) -> np.ndarray:
    """Radial factors with E[eta^2] = dim * c for each supported law."""
    target = dim * c
    if law == "chi":
        return math.sqrt(c) * np.linalg.norm(rng.standard_normal((n, dim)), axis=1)
    if law == "lognormal":
        return math.sqrt(target) / math.e * np.exp(rng.standard_normal(n))
    if law == "constant":
        return np.full(n, math.sqrt(target))
    raise ValueError(f"unknown radial law {law!r}; expected one of {RADIAL_LAWS}")


def _sample_blocks(rng: np.random.Generator, ell: int, c: float, law: str, n: int) -> np.ndarray:
    dim = 2 * ell + 1
    u = _unit_rows(rng, n, dim)
    eta = _radial_draw(rng, law, c, dim, n)
    return eta[:, None] * u


def sample_degree_block(ell: int, c: float, radial_law: str, n: int, seed) -> np.ndarray:
    """n independent draws of one degree block, shape (n, 2 ell + 1).

    Each row is eta * u with u uniform on the unit sphere of R^(2 ell + 1)
    and eta drawn by the radial law, scaled to E[eta^2] = (2 ell + 1) c.
    """
    if ell < 0 or n < 1 or c < 0.0:
        raise ValueError("need ell >= 0, n >= 1 and c >= 0")
    return _sample_blocks(np.random.default_rng(seed), ell, c, radial_law, n)


def sample_coefficient_arrays(spectrum: PowerSpectrum, radial_law: str, n: int, seed) -> np.ndarray:
    """n coefficient vectors stacked as rows, shape (n, (lmax+1)^2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    cols = np.zeros((n, (spectrum.lmax + 1) ** 2))
    for ell, c in enumerate(spectrum.values):
        cols[:, ell * ell : (ell + 1) ** 2] = _sample_blocks(rng, ell, float(c), radial_law, n)
    return cols


def synthesize_batch(rows: np.ndarray, lmax: int, grid: SphereGrid) -> np.ndarray:
    """Fields for many stacked coefficient vectors, shape (n, npoints)."""
    rows = np.asarray(rows, dtype=float)
    if _rows_lmax(rows) != lmax:
        raise DimensionError(f"rows of shape {rows.shape} do not match lmax {lmax}")
    basis = ylm_matrix(lmax, grid.theta, grid.phi)
    return rows @ basis


def grid_mean_square(values: np.ndarray, grid: SphereGrid) -> float:
    """Average of values^2 against the normalized surface measure."""
    values = np.asarray(values, dtype=float)
    return float(values**2 @ grid.weights / (4.0 * math.pi))


def rotate_coefficients(ell: int, rot: RotationSpec, block: np.ndarray) -> np.ndarray:
    """Rotate one degree-ell block, or each row of an (n, 2 ell + 1) stack of them.

    Every row is reduced on its own, so a row rotates to the same bits
    alone as inside a stack (a matrix product would use gemv for one and
    gemm for the other).
    """
    block = np.asarray(block, dtype=float)
    if block.ndim not in (1, 2) or block.shape[-1] != 2 * ell + 1:
        raise DimensionError(f"block of shape {block.shape} does not match degree {ell}")
    return np.einsum("...j,ij->...i", block, rep_matrix(build_generators(ell), rot))


def rotate_coefficient_rows(rows: np.ndarray, rot: RotationSpec) -> np.ndarray:
    """Rotate every degree block of stacked coefficient rows; degree zero is untouched."""
    rows = np.asarray(rows, dtype=float)
    out = rows.copy()
    for ell in range(1, _rows_lmax(rows) + 1):
        block = slice(ell * ell, (ell + 1) ** 2)
        out[:, block] = rotate_coefficients(ell, rot, rows[:, block])
    return out


def _rows_lmax(rows: np.ndarray) -> int:
    """lmax of a 2-d stack of coefficient rows, each of length (lmax+1)^2."""
    if rows.ndim != 2:
        raise DimensionError("need a 2-d stack of coefficient rows")
    side = math.isqrt(rows.shape[1])
    if side * side != rows.shape[1]:
        raise DimensionError(f"row length {rows.shape[1]} is not a perfect square")
    return side - 1


def empirical_power_spectrum(rows: np.ndarray) -> tuple[PowerSpectrum, list[np.ndarray]]:
    """Estimated spectrum and per-degree second-moment matrices of coefficient rows.

    C_l is estimated as the mean of a_lm^2 over rows and m; the returned
    matrices hold the mean of a_lm a_lm' for the off-diagonal
    decorrelation checks.
    """
    rows = np.asarray(rows, dtype=float)
    lmax = _rows_lmax(rows)
    n = rows.shape[0]
    c_hat = np.zeros(lmax + 1)
    moments = []
    for ell in range(lmax + 1):
        block = rows[:, ell * ell : (ell + 1) ** 2]
        second = block.T @ block / n
        moments.append(second)
        c_hat[ell] = float(np.trace(second)) / (2 * ell + 1)
    return PowerSpectrum(c_hat), moments
