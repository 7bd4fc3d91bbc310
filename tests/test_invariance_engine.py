"""Span certificates and the permutation-invariant splitting of so(n)."""

import itertools

import numpy as np
import pytest
from conftest import rational_rank

from invspan.errors import DegenerateInputError, DimensionError, InvarianceViolationError
from invspan.invariance_engine import (
    accumulate_span,
    block_form_check,
    character_on_subspace,
    decompose_so_n,
    ones_fixing_rotation,
    verify_span,
)
from invspan.lie_core import (
    Permutation,
    flatten_antisym,
    numerical_rank,
    plane_rotation,
    so_dim,
)


def _coord_rotation(n, i, j):
    a = np.zeros((n, n))
    a[i, j] = 1.0
    a[j, i] = -1.0
    return a


def _exact_orbit_rank(a):
    """Rank of the full symmetric-group orbit of an integer-entry matrix.

    Conjugation by a permutation only moves entries, so the orbit stays
    integer valued and its rank over the rationals is exact.
    """
    n = a.shape[0]
    iu = np.triu_indices(n, k=1)
    rows = []
    for images in itertools.permutations(range(n)):
        inv = Permutation(images).inverse().images
        rows.append(a[np.ix_(inv, inv)][iu])
    return rational_rank(np.array(rows))


def test_verify_span_low_weights():
    for ell, n in ((1, 3), (2, 5)):
        report = verify_span(ell)
        assert report.n == n
        assert report.full
        assert report.span_dim == so_dim(n)
        assert report.hypothesis_satisfied
        assert report.rounds >= 1
    # weight one is already all of so(3) before any conjugation
    assert verify_span(1).generator_dim == 3


def test_accumulate_span_returns_orthonormal_basis():
    gens = [_coord_rotation(4, 0, 1)]
    report, basis = accumulate_span(gens, 4)
    assert basis.vectors.shape == (report.span_dim, so_dim(4))
    gram = basis.vectors @ basis.vectors.T
    np.testing.assert_allclose(gram, np.eye(report.span_dim), atol=1e-12)


def test_coordinate_plane_rotation_orbit_saturates_so4():
    # the relabeling orbit of E12-E21 spans all of so(4); exact rational
    # elimination over all 24 permutations confirms the numerical rank
    assert _exact_orbit_rank(_coord_rotation(4, 0, 1)) == 6
    report, _ = accumulate_span([_coord_rotation(4, 0, 1)], 4)
    assert report.full
    assert report.span_dim == 6


def test_ones_annihilating_plane_rotation_is_not_full():
    # a plane rotation killing the all-ones vector keeps an invariant
    # subspace, so its orbit span stays inside the 3-dimensional
    # annihilator part of so(4)
    u = np.array([1.0, -1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, -1.0, 0.0])
    a = plane_rotation(u, v)
    assert _exact_orbit_rank(a) == 3
    report, basis = accumulate_span([a], 4)
    assert not report.full
    assert report.span_dim == 3
    # every element of the accumulated span annihilates ones
    for mat in basis.matrices():
        np.testing.assert_allclose(mat @ np.ones(4), np.zeros(4), atol=1e-12)


def test_accumulate_span_input_validation():
    with pytest.raises(ValueError):
        accumulate_span([], 4)
    with pytest.raises(ValueError):
        accumulate_span([np.eye(4)], 4)
    with pytest.raises(DimensionError):
        accumulate_span([_coord_rotation(3, 0, 1)], 4)
    with pytest.raises(DimensionError):
        accumulate_span([_coord_rotation(1, 0, 0)], 1)


def test_accumulate_span_rejects_zero_generators():
    for family in ([np.zeros((4, 4))], [np.zeros((3, 3)), np.zeros((3, 3))]):
        with pytest.raises(DegenerateInputError, match="only the zero matrix"):
            accumulate_span(family, family[0].shape[0])


def test_decompose_dimensions():
    for n, d1, d2 in ((4, 3, 3), (5, 4, 6), (6, 5, 10)):
        report, standard, stabilizer = decompose_so_n(n)
        assert (report.standard_dim, report.stabilizer_dim) == (d1, d2)
        assert standard.rank == d1
        assert stabilizer.rank == d2
        cross = np.abs(standard.vectors @ stabilizer.vectors.T)
        assert cross.max() <= 1e-10


def test_decompose_rejects_small_n():
    with pytest.raises(DimensionError):
        decompose_so_n(3)


def test_stabilizer_part_annihilates_ones():
    _, standard, stabilizer = decompose_so_n(5)
    ones = np.ones(5)
    for mat in stabilizer.matrices():
        np.testing.assert_allclose(mat @ ones, np.zeros(5), atol=1e-12)
    # no nonzero standard element does
    images = np.array([mat @ ones for mat in standard.matrices()])
    norms = np.linalg.norm(images, axis=1)
    assert norms.min() > 0.5


def test_transposition_characters_n4():
    report, _, _ = decompose_so_n(4)
    assert report.standard_char_transposition == pytest.approx(1.0, abs=1e-12)
    assert report.stabilizer_char_transposition == pytest.approx(-1.0, abs=1e-12)


def test_character_of_identity_is_dimension():
    _, standard, stabilizer = decompose_so_n(4)
    ident = Permutation.identity(4)
    assert character_on_subspace(standard, ident) == pytest.approx(3.0, abs=1e-12)
    assert character_on_subspace(stabilizer, ident) == pytest.approx(3.0, abs=1e-12)


def test_character_of_zero_subspace_is_zero():
    zero = numerical_rank(np.zeros((2, so_dim(4))))
    assert zero.rank == 0
    assert character_on_subspace(zero, Permutation.transposition(4, 0, 1)) == 0.0


def test_character_rejects_non_invariant_subspace():
    line = numerical_rank([flatten_antisym(_coord_rotation(4, 0, 1))])
    with pytest.raises(InvarianceViolationError):
        character_on_subspace(line, Permutation.transposition(4, 1, 2))
    with pytest.raises(DimensionError):
        character_on_subspace(line, Permutation.identity(5))


def test_ones_fixing_rotation_properties():
    for n in (2, 4, 9):
        b = ones_fixing_rotation(n)
        np.testing.assert_allclose(b.T @ b, np.eye(n), atol=1e-12)
        assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-10)
        target = np.full(n, 1.0 / np.sqrt(n))
        np.testing.assert_allclose(b[:, 0], target, atol=1e-12)
    with pytest.raises(DimensionError):
        ones_fixing_rotation(1)


def test_block_form_check_passes():
    for n in (4, 7):
        report = block_form_check(n)
        assert report.passed
        assert report.stabilizer_first_rowcol_max <= 1e-10
        assert report.standard_complement_max <= 1e-10
        assert report.cross_gram_max <= 1e-10


def test_span_report_round_trip():
    report = verify_span(1)
    d = report.to_dict()
    assert d["full"] is True
    assert d["span_dim"] == 3
    assert set(d) >= {"n", "generator_dim", "span_dim", "full", "rounds", "tol"}
