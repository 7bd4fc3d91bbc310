"""Span certificates and the permutation-invariant splitting of so(n)."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import rational_rank
import reference_engine as ref
from reference_engine import plane_rotation

from invspan import cli
from invspan import monte_carlo_stats as mcs
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
    DEFAULT_RANK_TOL,
    Permutation,
    SubspaceBasis,
    flatten_antisym,
    numerical_rank,
    so_dim,
)
from invspan.so3_irreps import build_generators


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
    # the orthonormal basis of the generators' rows that the two norms are read from
    gens = [_coord_rotation(4, 0, 1), _coord_rotation(4, 1, 2), -2.0 * _coord_rotation(4, 0, 1)]
    report, family = accumulate_span(gens, 4)
    assert family.vectors.shape == (report.generator_dim, so_dim(4)) == (2, 6)
    np.testing.assert_allclose(family.vectors @ family.vectors.T, np.eye(2), atol=1e-12)


def test_accumulate_span_weight_twelve():
    # so(25) contains both parts, so rounds is 2; the threshold is DEFAULT_RANK_TOL * sqrt(n)
    report, family = accumulate_span(build_generators(12).matrices, 25)
    assert (report.span_dim, report.rounds, report.full) == (300, 2, True)
    assert report.tol == DEFAULT_RANK_TOL * math.sqrt(25)
    assert np.max(np.abs(family.vectors @ family.vectors.T - np.eye(3))) <= 1e-12


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
    report, _ = accumulate_span([a], 4)
    assert not report.full
    assert report.span_dim == 3


def test_reducible_control_reports_its_two_norms():
    # criterion 2's control lies in the stabilizer part: its standard norm
    # is rounding, far below tol, and its stabilizer norm is the whole basis
    u = np.array([1.0, -1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, -1.0, 0.0])
    report, _ = accumulate_span([plane_rotation(u, v)], 4)
    assert report.standard_norm <= 1e-12
    assert report.stabilizer_norm > report.tol
    assert report.rounds == 1


def test_verify_span_norms_are_the_casimir_shares():
    # the weight-ell generators are orthogonal with equal norms, so the
    # orthonormal basis carries 3 / (ell(ell+1)(2 ell+1)) of the generators'
    # squared part norms 2 ell(ell+1) and ell(ell+1)(2 ell-1)
    for ell in (1, 2, 3, 12):
        n = 2 * ell + 1
        report, _ = accumulate_span(build_generators(ell).matrices, n)
        assert report.standard_norm**2 == pytest.approx(6 / n, rel=1e-12)
        assert report.stabilizer_norm**2 == pytest.approx(3 * (n - 2) / n, rel=1e-12)


def test_compound_rows_peak_at_their_output():
    # the rows are filled in place; the four gathered (m, m) temporaries
    # they replace peaked at about 4 times the output
    import invspan.invariance_engine as ie

    frame = ones_fixing_rotation(48)
    tracemalloc.start()
    try:
        out = ie._compound_rows(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (so_dim(48), so_dim(48))
    assert peak <= 1.25 * out.nbytes, peak / out.nbytes


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


def test_decompose_passes_on_exact_frames():
    for n in range(4, 33):
        report, _, _ = decompose_so_n(n)
        assert (report.standard_dim, report.stabilizer_dim) == (n - 1, so_dim(n) - n + 1)


@pytest.mark.parametrize("kind", ref.FRAME_PERTURBATIONS)
def test_decompose_rejects_what_the_transposition_sweep_rejects(kind, monkeypatch):
    import invspan.invariance_engine as ie

    rejected = 0
    for n in range(4, 13):
        for k, eps in enumerate((1e-11, 1e-10, 1e-9, 1e-8, 1e-6)):
            frame = ref.perturbed_frame(n, kind, eps, np.random.default_rng([n, k]))
            if ref.transposition_sweep(*ref.compound_split(frame)) <= 1e-10:
                continue
            rejected += 1
            monkeypatch.setattr(ie, "ones_fixing_rotation", lambda n, frame=frame: frame)
            with pytest.raises(InvarianceViolationError, match="residual"):
                decompose_so_n(n)
    assert rejected >= 9 * 3


@pytest.mark.parametrize("wrong", [np.eye, lambda n: ones_fixing_rotation(n)[:, ::-1]], ids=["identity", "reversed"])
def test_decompose_rejects_wrong_frames(wrong, monkeypatch):
    import invspan.invariance_engine as ie

    monkeypatch.setattr(ie, "ones_fixing_rotation", wrong)
    for n in (4, 7):
        with pytest.raises(InvarianceViolationError):
            decompose_so_n(n)


def test_split_residual_sees_swapped_parts():
    import invspan.invariance_engine as ie

    _, standard, stabilizer = decompose_so_n(6)
    frame = ones_fixing_rotation(6)
    assert ie._split_residual(frame, standard.vectors, stabilizer.vectors) <= 1e-14
    # the transposition sweep passes the swapped split; the projector does not
    assert ref.transposition_sweep(stabilizer.vectors, standard.vectors) <= 1e-14
    assert ie._split_residual(frame, stabilizer.vectors, standard.vectors) > 0.5


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
    ident = Permutation((0, 1, 2, 3))
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
        character_on_subspace(line, Permutation((0, 1, 2, 3, 4)))


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
        assert report.standard_projector_residual <= 1e-10
        assert report.stabilizer_projector_residual <= 1e-10


def _swapped(n):
    report, standard, stabilizer = decompose_so_n(n)
    return report, stabilizer, standard


def _mixed(n):
    # rotate the first standard element into the first stabilizer element
    report, standard, stabilizer = decompose_so_n(n)
    std, stab = standard.vectors.copy(), stabilizer.vectors.copy()
    std[0], stab[0] = (std[0] + stab[0]) / math.sqrt(2.0), (std[0] - stab[0]) / math.sqrt(2.0)
    return report, replace(standard, vectors=std), replace(stabilizer, vectors=stab)


def _identity_frame(n):
    # the split that the identity would give in place of the ones-fixing
    # rotation: E_0k - E_k0 and E_jk - E_kj (j, k >= 1)
    basis = np.eye(so_dim(n))
    standard = SubspaceBasis(n=n, vectors=basis[: n - 1], rank=n - 1, tol=0.0)
    stabilizer = SubspaceBasis(n=n, vectors=basis[n - 1 :], rank=so_dim(n) - n + 1, tol=0.0)
    return None, standard, stabilizer


@pytest.mark.parametrize("split", [_swapped, _mixed, _identity_frame])
def test_block_form_check_rejects_wrong_bases(split, monkeypatch):
    import invspan.invariance_engine as ie

    n = 6
    monkeypatch.setattr(ie, "decompose_so_n", split)
    if split is _identity_frame:
        # rotating by the same wrong frame leaves the three old residuals at
        # 0; only the projector, which needs no frame, sees the fault
        monkeypatch.setattr(ie, "ones_fixing_rotation", lambda n: np.eye(n))
        report = block_form_check(n)
        assert max(report.stabilizer_first_rowcol_max, report.standard_complement_max, report.cross_gram_max) == 0.0
    else:
        # a standard element in the stabilizer basis moves the ones
        # direction, and a stabilizer element in the standard basis does not
        # vanish off the first row and column (0.707 swapped, 0.5 mixed)
        report = block_form_check(n)
        assert report.stabilizer_first_rowcol_max > 0.1
        assert report.standard_complement_max > 0.1
    assert report.standard_projector_residual > 0.1 or report.stabilizer_projector_residual > 0.1
    assert not report.passed


def test_span_report_round_trip():
    report = verify_span(1)
    d = report.to_dict()
    assert d["full"] is True
    assert d["span_dim"] == 3
    assert set(d) >= {"n", "generator_dim", "span_dim", "full", "rounds", "tol"}


# ---------------------------------------------------------------------------
# Memory models behind the CLI ceilings

# command -> (size option, run(size), c, unit(size)): peak RSS above the
# interpreter, fitted in fresh processes with one BLAS thread
# (tests/sweeps/algebra_peaks.py), is at most c x unit(size) bytes.  The unit
# is 8 m^2 for decompose, character and block-check, with m = n(n - 1)/2,
# and 8 d^2 for verify-span and for orbit-walk at its default --n, with
# d = 2 ell + 1: verify-span holds the generators and d x d factorizations,
# and only 3 x m flattened rows.  Its fits read 20.6-27.3 x unit at ell = 64,
# 128 and 256, highest at 64, where the peak is 3.5 MiB; c = 36 leaves a
# third of headroom there.
# tracemalloc sees numpy's buffers but not LAPACK's workspace, so it reads
# below the fit; orbit-walk's c also covers its tracemalloc peak at ell = 32,
# which counts the walk's fixed piece buffers that the fit's ell = 1 baseline
# takes away
def _so_unit(m):
    return lambda size: 8 * m(size) ** 2


def _irrep_unit(ell):
    return 8 * (2 * ell + 1) ** 2


def _walk_and_test(ell):
    # the orbit-walk handler at --n 100, with the generators and z_to_y built afresh
    build_generators.cache_clear()
    mcs.test_uniform_on_sphere(mcs.orbit_walk_samples(ell, 100), 0, 0.01)


_MEMORY_MODELS = {
    "verify-span": ("ell", verify_span, 36.0, _irrep_unit),
    "decompose": ("n", decompose_so_n, 4.4, _so_unit(so_dim)),
    "character": ("n", decompose_so_n, 4.4, _so_unit(so_dim)),
    "block-check": ("n", block_form_check, 4.4, _so_unit(so_dim)),
    "orbit-walk": ("ell", _walk_and_test, 80.0, _irrep_unit),
}


@pytest.mark.parametrize(
    "command, size", [("verify-span", 12), ("decompose", 32), ("block-check", 32), ("orbit-walk", 32)]
)
def test_algebra_peaks_stay_within_their_models(command, size):
    _, run, c, unit = _MEMORY_MODELS[command]
    tracemalloc.start()
    try:
        run(size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= c * unit(size), peak / unit(size)


@pytest.mark.parametrize("command", list(_MEMORY_MODELS))
def test_cli_ceiling_is_the_largest_size_within_2_gib(command):
    option, _, c, unit = _MEMORY_MODELS[command]
    _, highest = cli._option_spec(command, option)["range"]
    at_ceiling, above = (c * unit(size) for size in (highest, highest + 1))
    assert at_ceiling <= 2**31 < above
