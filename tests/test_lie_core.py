"""Antisymmetric matrix algebra, permutation actions, and rank tools."""

import math
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import reference_engine as ref
from conftest import rational_rank
from hypothesis import given, settings
from hypothesis import strategies as st

from invspan.errors import DimensionError
from invspan.lie_core import (
    Permutation,
    SubspaceBasis,
    _check_antisym,
    flatten_antisym,
    numerical_rank,
    signed_index_map,
    so_dim,
    svd_row_basis,
    unflatten_antisym,
)


def _coord_rotation(n, i, j):
    a = np.zeros((n, n))
    a[i, j] = 1.0
    a[j, i] = -1.0
    return a


def test_so_basis_counts():
    # the canonical basis E_ij - E_ji, i < j, is the unflattened sqrt(2) I
    for n, count in ((3, 3), (4, 6), (5, 10)):
        basis = unflatten_antisym(math.sqrt(2.0) * np.eye(so_dim(n)))
        assert basis.shape == (count, n, n)
        for b in basis:
            assert np.array_equal(b, -b.T)
            assert sorted(b.ravel().tolist()) == [-1.0] + [0.0] * (n * n - 2) + [1.0]


def test_so_dim_formula():
    assert [so_dim(n) for n in (2, 3, 4, 13)] == [1, 3, 6, 78]


def test_permutation_matrix_identity():
    np.testing.assert_array_equal(
        ref.permutation_matrix(Permutation((0, 1, 2, 3))), np.eye(4)
    )


def test_permutation_matrix_dets():
    swap = Permutation.transposition(4, 0, 1)
    assert np.linalg.det(ref.permutation_matrix(swap)) == pytest.approx(-1.0)
    cycle = Permutation((1, 2, 0))
    assert np.linalg.det(ref.permutation_matrix(cycle)) == pytest.approx(1.0)


def test_permutation_matrix_moves_coordinates():
    perm = Permutation((2, 0, 1))
    x = np.array([10.0, 20.0, 30.0])
    moved = ref.permutation_matrix(perm) @ x
    # entry sent to perm(i) comes from i
    np.testing.assert_array_equal(moved, np.array([20.0, 30.0, 10.0]))


def test_conjugate_identity_is_noop():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5))
    a = m - m.T
    np.testing.assert_array_equal(
        ref.conjugate_by_permutation(Permutation((0, 1, 2, 3, 4)), a), a
    )


def test_conjugate_swaps_rows_and_columns():
    # swapping labels 0,1 sends the (0,2) entry to position (1,2)
    a = _coord_rotation(4, 0, 2)
    out = ref.conjugate_by_permutation(Permutation.transposition(4, 0, 1), a)
    np.testing.assert_array_equal(out, _coord_rotation(4, 1, 2))


def test_conjugate_matches_matrix_sandwich():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 6))
    a = m - m.T
    perm = Permutation(tuple(int(k) for k in rng.permutation(6)))
    e = ref.permutation_matrix(perm)
    np.testing.assert_allclose(
        ref.conjugate_by_permutation(perm, a), e @ a @ e.T, atol=1e-14
    )


def test_conjugate_composition_action():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((5, 5))
    a = m - m.T
    sigma = Permutation(tuple(int(k) for k in rng.permutation(5)))
    tau = Permutation(tuple(int(k) for k in rng.permutation(5)))
    left = ref.conjugate_by_permutation(tau, ref.conjugate_by_permutation(sigma, a))
    # tau after sigma sends i to tau(sigma(i))
    right = ref.conjugate_by_permutation(Permutation(tuple(tau.images[k] for k in sigma.images)), a)
    np.testing.assert_array_equal(left, right)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_signed_index_map_matches_matrix_conjugation_bitwise(data):
    n = data.draw(st.integers(2, 12), label="n")
    perm = Permutation(tuple(data.draw(st.permutations(range(n)), label="images")))
    m = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1e300, 1e300)), label="m")
    a = m - m.T
    idx, sign = signed_index_map(perm)
    got = flatten_antisym(a)[idx] * sign
    want = flatten_antisym(ref.conjugate_by_permutation(perm, a))
    # the flattened vector keeps no sign of a zero below the diagonal, so
    # +0.0 and -0.0 are identified (adding 0.0 maps -0.0 to +0.0 and
    # leaves every other value's bits alone)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    # the map is applied to whole stacks of flattened rows
    stack = np.array([flatten_antisym(a), -flatten_antisym(a)])
    np.testing.assert_array_equal(stack[:, idx] * sign, np.array([got, -got]))


def test_signed_index_map_is_cached_and_read_only():
    perm = Permutation.transposition(5, 1, 3)
    idx, sign = signed_index_map(perm)
    assert signed_index_map(Permutation.transposition(5, 1, 3))[0] is idx
    assert not idx.flags.writeable and not sign.flags.writeable


def test_unflatten_stack_matches_rows():
    rng = np.random.default_rng(12)
    flats = rng.standard_normal((3, so_dim(5)))
    stacked = unflatten_antisym(flats, 5)
    assert stacked.shape == (3, 5, 5)
    for flat, mat in zip(flats, stacked):
        np.testing.assert_array_equal(mat, unflatten_antisym(flat))


def test_conjugate_dimension_mismatch():
    with pytest.raises(DimensionError):
        ref.conjugate_by_permutation(Permutation((0, 1, 2)), _coord_rotation(4, 0, 1))


def test_plane_rotation_generator():
    u = np.array([1.0, -1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, -1.0, 0.0])
    a = ref.plane_rotation(u, v)
    assert np.array_equal(a, -a.T)
    np.testing.assert_array_equal(a, np.outer(u, v) - np.outer(v, u))
    # the plane rotation annihilates vectors orthogonal to its plane
    np.testing.assert_array_equal(a @ np.ones(4), np.zeros(4))


def test_flatten_round_trip_preserves_product():
    rng = np.random.default_rng(13)
    m1 = rng.standard_normal((6, 6))
    m2 = rng.standard_normal((6, 6))
    a = m1 - m1.T
    b = m2 - m2.T
    fa = flatten_antisym(a)
    fb = flatten_antisym(b)
    np.testing.assert_allclose(unflatten_antisym(fa), a, atol=1e-15)
    np.testing.assert_allclose(unflatten_antisym(fa, 6), a, atol=1e-15)
    assert fa @ fb == pytest.approx(np.sum(a * b), abs=1e-12)


def test_unflatten_rejects_bad_length():
    with pytest.raises(DimensionError):
        unflatten_antisym(np.zeros(4))
    with pytest.raises(DimensionError):
        unflatten_antisym(np.zeros(6), n=5)


def test_numerical_rank_canonical_basis():
    canonical = unflatten_antisym(math.sqrt(2.0) * np.eye(so_dim(3)))
    basis = numerical_rank([flatten_antisym(b) for b in canonical])
    assert basis.rank == 3
    assert basis.n == 3


def test_numerical_rank_duplicates():
    v = flatten_antisym(_coord_rotation(4, 0, 1))
    assert numerical_rank([v, v]).rank == 1


def test_numerical_rank_random_so5_matches_exact_oracle():
    rng = np.random.default_rng(2024)
    flats = []
    for _ in range(10):
        m = rng.standard_normal((5, 5))
        flats.append(flatten_antisym(m - m.T))
    rows = np.array(flats)
    basis = numerical_rank(rows)
    assert basis.rank == 10
    # floats convert to fractions exactly, so this rank is exact
    assert rational_rank(rows) == 10


def test_numerical_rank_rejects_empty():
    with pytest.raises(ValueError):
        numerical_rank([])


def test_numerical_rank_deterministic_basis():
    rng = np.random.default_rng(15)
    rows = np.array(
        [flatten_antisym(m - m.T) for m in rng.standard_normal((4, 5, 5))]
    )
    b1 = numerical_rank(rows)
    b2 = numerical_rank(rows)
    np.testing.assert_array_equal(b1.vectors, b2.vectors)
    gram = b1.vectors @ b1.vectors.T
    np.testing.assert_allclose(gram, np.eye(b1.rank), atol=1e-12)


def test_subspace_residual():
    basis = numerical_rank([flatten_antisym(_coord_rotation(3, 0, 1))])
    inside = flatten_antisym(_coord_rotation(3, 0, 1)) * 2.5
    outside = flatten_antisym(_coord_rotation(3, 1, 2))
    assert basis.residual(inside) == pytest.approx(0.0, abs=1e-12)
    assert basis.residual(outside) == pytest.approx(np.linalg.norm(outside))
    # a stack of rows reports its largest distance
    assert basis.residual(np.array([inside, outside])) == pytest.approx(np.linalg.norm(outside))


def test_permutation_inverse_and_call():
    perm = Permutation((2, 0, 3, 1))
    inv = perm.inverse()
    for i in range(4):
        assert inv.images[perm.images[i]] == i
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_generator_families_share_one_shape_check():
    # so3_irreps and accumulate_span reject malformed families through the
    # same helper, each with the exception type it raised on its own
    from invspan.invariance_engine import accumulate_span
    from invspan.so3_irreps import commutant_dimension

    good = _coord_rotation(3, 0, 1)
    cases = [
        ([], ValueError),
        ([np.zeros((3, 4))], DimensionError),
        ([good, _coord_rotation(4, 0, 1)], DimensionError),
        ([np.zeros(3)], DimensionError),
    ]
    for family, error in cases:
        for check in (commutant_dimension, lambda f: accumulate_span(f, 3)):
            with pytest.raises(ValueError) as excinfo:
                check(family)
            assert excinfo.type is error
    with pytest.raises(DimensionError):
        accumulate_span([good], 4)
    # antisymmetry stays with flatten_antisym
    with pytest.raises(ValueError, match="not exactly antisymmetric"):
        accumulate_span([np.eye(3)], 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _check_antisym(np.zeros((2, 3))), DimensionError, "matrix must be square, got shape (2, 3)"),
        (lambda: Permutation.transposition(3, 1, 1), ValueError, "invalid transposition (1 1) on 3 points"),
        (lambda: Permutation.transposition(3, 0, 3), ValueError, "invalid transposition (0 3) on 3 points"),
        (
            lambda: unflatten_antisym(np.float64(1.0)),
            DimensionError,
            "flattened vector must have at least one dimension",
        ),
        (
            lambda: SubspaceBasis(3, np.zeros((2, 3)), 1, 0.0),
            DimensionError,
            "basis shape (2, 3) does not match rank 1 in so(3)",
        ),
        (lambda: svd_row_basis(np.zeros((0, 3))), ValueError, "need a non-empty 2-d stack of vectors"),
        (lambda: svd_row_basis(np.zeros(3)), ValueError, "need a non-empty 2-d stack of vectors"),
        (lambda: svd_row_basis(np.array([[np.nan, 1.0, 0.0]])), ValueError, "non-finite entries in span vectors"),
    ],
)
def test_input_checks_raise_their_messages(call, error, message):
    with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
        call()
    assert excinfo.type is error
