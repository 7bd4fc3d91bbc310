"""Real irreducible rotation representations and their generators."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from reference_engine import cartesian_rotation, euler_zyz_from_matrix, haar_rotation, random_rotation
from scipy.linalg import expm

from invspan.errors import DimensionError
from invspan.lie_core import flatten_antisym, numerical_rank
from invspan.so3_irreps import (
    IrrepGenerators,
    RotationSpec,
    _validate_generators,
    _z_rotations,
    build_generators,
    common_fixed_subspace_dim,
    commutant_dimension,
    rep_matrix,
    rep_matrix_batch,
)


def test_weight_one_spans_so3():
    gens = build_generators(1)
    assert gens.dimension == 3
    for g in gens.matrices:
        assert g.shape == (3, 3)
        assert np.array_equal(g, -g.T)
    rank = numerical_rank([flatten_antisym(g) for g in gens.matrices]).rank
    assert rank == 3


def test_weight_two_casimir():
    gens = build_generators(2)
    gx, gy, gz = gens.matrices
    casimir = gx @ gx + gy @ gy + gz @ gz
    np.testing.assert_allclose(casimir, -6.0 * np.eye(5), atol=1e-12)


def test_weight_three_bracket_relations():
    gens = build_generators(3)
    gx, gy, gz = gens.matrices

    def comm(a, b):
        m = a @ b
        return m - m.T

    np.testing.assert_allclose(comm(gx, gy), gz, atol=1e-10)
    np.testing.assert_allclose(comm(gy, gz), gx, atol=1e-10)
    np.testing.assert_allclose(comm(gz, gx), gy, atol=1e-10)


def test_build_generators_rejects_trivial_weight():
    with pytest.raises(DimensionError):
        build_generators(0)
    with pytest.raises(DimensionError):
        build_generators(-2)


def test_rep_matrix_identity_rotation():
    gens = build_generators(2)
    np.testing.assert_allclose(
        rep_matrix(gens, RotationSpec(0.0, 0.0, 0.0)), np.eye(5), atol=1e-14
    )


def test_rep_matrix_weight_one_axial_rotation():
    # exp(alpha gen_z) fixes the m=0 coordinate and rotates the other two
    gens = build_generators(1)
    alpha = 0.73
    q = rep_matrix(gens, RotationSpec(alpha, 0.0, 0.0))
    assert q[1, 1] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(q[1, :], [0.0, 1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(q[:, 1], [0.0, 1.0, 0.0], atol=1e-14)
    block = q[np.ix_([0, 2], [0, 2])]
    np.testing.assert_allclose(block @ block.T, np.eye(2), atol=1e-14)
    assert np.trace(block) == pytest.approx(2.0 * math.cos(alpha), abs=1e-12)


def test_rep_matrix_is_orthogonal_special():
    rng = np.random.default_rng(3)
    for ell in (1, 2, 4):
        gens = build_generators(ell)
        q = rep_matrix(gens, random_rotation(rng))
        d = gens.dimension
        np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-12)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def test_rep_matrix_homomorphism():
    rng = np.random.default_rng(4)
    gens = build_generators(3)
    r1 = random_rotation(rng)
    r2 = random_rotation(rng)
    composed = euler_zyz_from_matrix(cartesian_rotation(r1) @ cartesian_rotation(r2))
    left = rep_matrix(gens, r1) @ rep_matrix(gens, r2)
    right = rep_matrix(gens, composed)
    np.testing.assert_allclose(left, right, atol=1e-10)


def test_rep_matrix_batch_matches_single():
    rng = np.random.default_rng(6)
    gens = build_generators(2)
    rots = [random_rotation(rng) for _ in range(5)]
    alphas = np.array([r.alpha for r in rots])
    betas = np.array([r.beta for r in rots])
    gammas = np.array([r.gamma for r in rots])
    batch = rep_matrix_batch(gens, alphas, betas, gammas)
    assert batch.shape == (5, 5, 5)
    for k, r in enumerate(rots):
        np.testing.assert_array_equal(batch[k], rep_matrix(gens, r))


@pytest.mark.parametrize("ell", [2, 7, 12])
def test_rep_matrix_batch_rows_do_not_depend_on_batch_length(ell):
    # each matrix is a product of its own factors, so a batch of one and
    # longer batches give the same bits
    gens = build_generators(ell)
    rng = np.random.default_rng(ell)
    alphas, betas, gammas = rng.uniform(0.0, 2.0 * math.pi, (3, 777))
    whole = rep_matrix_batch(gens, alphas, betas, gammas)
    for t in (1, 2, 50):
        np.testing.assert_array_equal(rep_matrix_batch(gens, alphas[:t], betas[:t], gammas[:t]), whole[:t])


@pytest.mark.parametrize("ell", [1, 2, 3, 12])
def test_z_rotations_and_z_to_y_match_the_generators(ell):
    gens = build_generators(ell)
    angles = np.array([0.0, 0.7, math.pi, 2.0 * math.pi - 1e-3])
    for angle, z in zip(angles, _z_rotations(gens, angles)):
        np.testing.assert_allclose(z, expm(angle * gens.gen_z), rtol=0.0, atol=1e-12)
    x = gens.z_to_y
    assert x is gens.z_to_y and not x.flags.writeable
    np.testing.assert_allclose(x @ gens.gen_z @ x.T, gens.gen_y, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(x, expm(-0.5 * math.pi * gens.gen_x), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("ell", [1, 3])
def test_validate_generators_needs_gen_z_in_plane_rotation_form(ell):
    # a random orthogonal change of basis keeps the brackets and the
    # Casimir, but spreads gen_z's rows over many entries
    q = haar_rotation(2 * ell + 1, ell)
    gens = build_generators(ell)
    _validate_generators(gens)
    turned = IrrepGenerators(ell, *(q @ g @ q.T for g in gens.matrices))
    with pytest.raises(ArithmeticError, match="more than one nonzero entry"):
        _validate_generators(turned)


@pytest.mark.parametrize("ell", [*range(1, 7), 12, 24])
def test_rep_matrix_batch_matches_matrix_exponential(ell):
    gens = build_generators(ell)
    near = 2.0 * math.pi - 1e-9
    alphas = np.array([0.4, near, near, 1.1, 2.0 * math.pi - 1e-3])
    betas = np.array([0.0, math.pi, 1.0, 0.0, math.pi])
    gammas = np.array([near, 0.2, near, 5.0, 2.0 * math.pi - 1e-3])
    batch = rep_matrix_batch(gens, alphas, betas, gammas)
    for k in range(alphas.size):
        expected = (
            expm(alphas[k] * gens.gen_z)
            @ expm(betas[k] * gens.gen_y)
            @ expm(gammas[k] * gens.gen_z)
        )
        np.testing.assert_allclose(batch[k], expected, rtol=0.0, atol=1e-12)


def test_rotation_spec_folds_angles():
    folded = RotationSpec(0.3, -0.5, 0.1)
    assert 0.0 <= folded.beta <= math.pi
    raw = cartesian_rotation(folded)
    # folding must preserve the underlying point rotation
    direct = (
        cartesian_rotation(RotationSpec(0.3, 0.0, 0.0))
        @ np.array(
            [
                [math.cos(-0.5), 0.0, math.sin(-0.5)],
                [0.0, 1.0, 0.0],
                [-math.sin(-0.5), 0.0, math.cos(-0.5)],
            ]
        )
        @ cartesian_rotation(RotationSpec(0.1, 0.0, 0.0))
    )
    np.testing.assert_allclose(raw, direct, atol=1e-14)
    with pytest.raises(ValueError):
        RotationSpec(math.nan, 0.0, 0.0)


@pytest.mark.parametrize(
    "angles", [(-1e-20, 0.0, 0.0), (0.0, 0.0, -5e-17), (-1e-300, 1.0, -1e-300), (0.0, -1e-20, 0.0)]
)
def test_rotation_spec_never_stores_two_pi(angles):
    # x % 2pi rounds to 2pi itself for tiny negative x
    rot = RotationSpec(*angles)
    assert 0.0 <= rot.alpha < 2.0 * math.pi
    assert 0.0 <= rot.gamma < 2.0 * math.pi
    assert 0.0 <= rot.beta <= math.pi
    raw = SimpleNamespace(alpha=angles[0], beta=angles[1], gamma=angles[2])
    np.testing.assert_allclose(cartesian_rotation(rot), cartesian_rotation(raw), atol=1e-14)


def test_euler_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(10):
        rot = random_rotation(rng)
        r = cartesian_rotation(rot)
        back = cartesian_rotation(euler_zyz_from_matrix(r))
        np.testing.assert_allclose(back, r, atol=1e-12)
    # gimbal-lock cases determine only a combined angle
    for beta in (0.0, math.pi):
        r = cartesian_rotation(RotationSpec(0.7, beta, 0.4))
        back = cartesian_rotation(euler_zyz_from_matrix(r))
        np.testing.assert_allclose(back, r, atol=1e-12)


def test_commutant_dimension_irreducible():
    assert commutant_dimension(build_generators(1)) == 1
    assert commutant_dimension(build_generators(2)) == 1


def test_commutant_dimension_double_copy():
    gens = build_generators(1)
    doubled = [
        np.block([[g, np.zeros((3, 3))], [np.zeros((3, 3)), g]]) for g in gens.matrices
    ]
    assert commutant_dimension(doubled) == 4


def test_common_fixed_subspace_dim_irreducible():
    for ell in (1, 2, 3):
        assert common_fixed_subspace_dim(build_generators(ell)) == 0


def test_common_fixed_subspace_dim_padded():
    gens = build_generators(1)
    padded = []
    for g in gens.matrices:
        big = np.zeros((4, 4))
        big[:3, :3] = g
        padded.append(big)
    assert common_fixed_subspace_dim(padded) == 1


def test_common_fixed_subspace_dim_zero_generators():
    zeros = [np.zeros((3, 3)) for _ in range(3)]
    assert common_fixed_subspace_dim(zeros) == 3


def test_random_rotation_is_deterministic_per_seed():
    r1 = random_rotation(np.random.default_rng(42))
    r2 = random_rotation(np.random.default_rng(42))
    assert r1.angles() == r2.angles()
