"""Real orthogonal irreducible representations of the rotation group SO(3).

For weight ell >= 1 the representation acts on a (2 ell + 1)-dimensional
real space indexed by m = -ell..ell, the index convention of real-valued
spherical harmonics (m > 0 cosine-type, m < 0 sine-type).  Generators are
built from the complex ladder operators and conjugated to the real basis;
signs are fixed so that exp(alpha gen_z) and exp(beta gen_y) match the
action T(x) -> T(g^-1 x) of the corresponding point rotations on harmonic
expansions, which pins down

    [gen_x, gen_y] = gen_z,  [gen_y, gen_z] = gen_x,  [gen_z, gen_x] = gen_y

and the Casimir sum gen_x^2 + gen_y^2 + gen_z^2 = -ell(ell+1) I.

gen_z pairs m with -m alone, so exp(t gen_z) is a plane rotation per pair, and with
X = exp(-(pi/2) gen_x), exp(t gen_y) = X exp(t gen_z) X^T (Pinchon & Hoggan 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError
from .lie_core import _square_stack, svd_row_basis

__all__ = [
    "IrrepGenerators",
    "RotationSpec",
    "build_generators",
    "commutant_dimension",
    "common_fixed_subspace_dim",
    "rep_matrix",
    "rep_matrix_batch",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RotationSpec:
    """Euler angles (alpha, beta, gamma) in Z-Y-Z order.

    Stored in the canonical ranges alpha, gamma in [0, 2 pi) and
    beta in [0, pi]; values outside are folded to an equivalent triple
    on construction.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(g)):
            raise ValueError("Euler angles must be finite")
        if not (0.0 <= b <= math.pi and 0.0 <= a < _TWO_PI and 0.0 <= g < _TWO_PI):
            b = b % _TWO_PI
            if b > math.pi:
                # R_y(-b) = R_z(pi) R_y(b) R_z(pi)
                b = _TWO_PI - b
                a += math.pi
                g += math.pi
            # x % 2 pi rounds to 2 pi itself for a tiny negative x; a second fold makes it 0
            a, g = a % _TWO_PI % _TWO_PI, g % _TWO_PI % _TWO_PI
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)

    def angles(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(eq=False)
class IrrepGenerators:
    """The three real antisymmetric generators of the weight-ell irrep."""

    ell: int
    gen_x: np.ndarray
    gen_y: np.ndarray
    gen_z: np.ndarray

    @property
    def dimension(self) -> int:
        return 2 * self.ell + 1

    @property
    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.gen_x, self.gen_y, self.gen_z)

    @cached_property
    def z_to_y(self) -> np.ndarray:
        """Read-only X = exp(-(pi/2) gen_x) = Re V diag(i^w) V^H for i gen_x = V diag(w) V^H."""
        w, vecs = np.linalg.eigh(1j * self.gen_x)
        x = np.ascontiguousarray(((vecs * np.exp(0.5j * math.pi * w)) @ vecs.conj().T).real)
        defect = max(np.max(np.abs(x @ self.gen_z @ x.T - self.gen_y)), np.max(np.abs(x.T @ x - np.eye(len(x)))))
        if defect > 1e-10:
            raise ArithmeticError(f"z-to-y rotation misses by {defect:.3e} at weight {self.ell}")
        x.setflags(write=False)
        return x


def _angular_momentum(ell: int):
    """Complex J_x, J_y, J_z in the eigenbasis of J_z (m ascending)."""
    ms = np.arange(-ell, ell + 1, dtype=float)
    jz = np.diag(ms.astype(complex))
    raise_coeff = np.sqrt(ell * (ell + 1) - ms[:-1] * (ms[:-1] + 1))
    jp = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex)
    jp[np.arange(1, 2 * ell + 1), np.arange(0, 2 * ell)] = raise_coeff
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return jx, jy, jz


def _complex_to_real_unitary(ell: int) -> np.ndarray:
    """Unitary mapping complex harmonics to the real cosine/sine basis."""
    d = 2 * ell + 1
    u = np.zeros((d, d), dtype=complex)
    u[ell, ell] = 1.0
    rt = 1.0 / math.sqrt(2.0)
    for m in range(1, ell + 1):
        cs = (-1.0) ** m
        u[ell + m, ell - m] = rt
        u[ell + m, ell + m] = cs * rt
        u[ell - m, ell - m] = 1j * rt
        u[ell - m, ell + m] = -1j * cs * rt
    return u


def _to_real_antisym(m: np.ndarray) -> np.ndarray:
    imag = np.max(np.abs(m.imag))
    if imag > 1e-12:
        raise ArithmeticError(f"generator has imaginary residue {imag:.3e}")
    r = m.real
    return (r - r.T) / 2.0


@lru_cache(maxsize=None)
def build_generators(ell: int) -> IrrepGenerators:
    """Generators of the real weight-ell irrep of SO(3); requires ell >= 1."""
    if ell < 1:
        raise DimensionError(f"irreducible weight must be >= 1, got {ell}")
    jx, jy, jz = _angular_momentum(ell)
    u = _complex_to_real_unitary(ell)
    uh = u.conj().T
    gen_x = _to_real_antisym(u @ (1j * jx) @ uh)
    gen_y = _to_real_antisym(u @ (-1j * jy) @ uh)
    gen_z = _to_real_antisym(u @ (1j * jz) @ uh)
    gens = IrrepGenerators(ell=ell, gen_x=gen_x, gen_y=gen_y, gen_z=gen_z)
    _validate_generators(gens)
    for g in gens.matrices:
        g.setflags(write=False)
    return gens


def _validate_generators(gens: IrrepGenerators) -> None:
    gx, gy, gz = gens.matrices
    def comm(a, b):
        m = a @ b
        return m - m.T
    worst = max(
        np.max(np.abs(comm(gx, gy) - gz)),
        np.max(np.abs(comm(gy, gz) - gx)),
        np.max(np.abs(comm(gz, gx) - gy)),
    )
    if worst > 1e-10:
        raise ArithmeticError(f"so(3) bracket relations violated by {worst:.3e}")
    ell = gens.ell
    casimir = gx @ gx + gy @ gy + gz @ gz
    defect = np.max(np.abs(casimir + ell * (ell + 1) * np.eye(gens.dimension)))
    if defect > 1e-8:
        raise ArithmeticError(f"Casimir defect {defect:.3e} at weight {ell}")
    if np.any(np.count_nonzero(gz, axis=1) > 1):
        raise ArithmeticError(f"a row of gen_z has more than one nonzero entry at weight {ell}")


def _z_rotations(gens: IrrepGenerators, angles) -> np.ndarray:
    """Stack of exp(angle * gen_z), one plane rotation per (m, -m) pair.

    Row i of gen_z holds at most one entry a = gen_z[i, j], so row i of
    exp(angle gen_z) is cos(a angle) at i and sin(a angle) at j.
    """
    gz = gens.gen_z
    rows = np.arange(gens.dimension)
    cols = np.abs(gz).argmax(axis=1)
    theta = np.multiply.outer(np.asarray(angles, dtype=float), gz[rows, cols])
    out = np.zeros(theta.shape + (rows.size,))
    out[:, rows, rows] = np.cos(theta)
    out[:, rows, cols] = np.sin(theta)
    return out


def rep_matrix(gens: IrrepGenerators, rot: RotationSpec) -> np.ndarray:
    """Representation matrix exp(a gen_z) exp(b gen_y) exp(g gen_z)."""
    a, b, g = rot.angles()
    q = rep_matrix_batch(gens, [a], [b], [g])[0]
    defect = np.max(np.abs(q.T @ q - np.eye(q.shape[0])))
    if defect > 1e-10:
        raise ArithmeticError(f"representation matrix not orthogonal, defect {defect:.3e}")
    return q


def rep_matrix_batch(gens: IrrepGenerators, alphas, betas, gammas) -> np.ndarray:
    """Stack of Z(alpha) X Z(beta) X^T Z(gamma), with Z = `_z_rotations` and X = gens.z_to_y.

    Each matrix is a product of its own d x d factors, so no bit depends on the batch length."""
    x = gens.z_to_y
    return _z_rotations(gens, alphas) @ x @ _z_rotations(gens, betas) @ x.T @ _z_rotations(gens, gammas)


def _generator_triple(gens) -> list[np.ndarray]:
    return _square_stack(gens.matrices if isinstance(gens, IrrepGenerators) else gens)


def commutant_dimension(gens) -> int:
    """Dimension of the space of matrices commuting with every generator.

    Equals 1 exactly when the generators act irreducibly with real
    commutant field (the case for the harmonic representations here);
    a direct sum of two copies of the same irrep gives 4.
    """
    mats = _generator_triple(gens)
    d = mats[0].shape[0]
    eye = np.eye(d)
    rank, _, _ = svd_row_basis(np.vstack([np.kron(eye, g.T) - np.kron(g, eye) for g in mats]))
    return d * d - rank


def common_fixed_subspace_dim(gens) -> int:
    """Dimension of the joint kernel of the generators.

    Zero means no vector is fixed by every one-parameter rotation, which
    for connected groups rules out one dimensional invariant subspaces.
    """
    mats = _generator_triple(gens)
    rank, _, _ = svd_row_basis(np.vstack(mats))
    return mats[0].shape[0] - rank

