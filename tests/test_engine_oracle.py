"""The whole-basis engine against the slow per-vector reference and closed forms."""

import numpy as np
import pytest
import reference_engine as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from invspan.invariance_engine import (
    accumulate_span,
    block_form_check,
    character_on_subspace,
    decompose_so_n,
    verify_span,
)
from invspan.lie_core import Permutation, flatten_antisym, so_dim, unflatten_antisym
from invspan.so3_irreps import build_generators


def _projector(basis):
    return basis.vectors.T @ basis.vectors


def _assert_same_span(generators, n):
    fast, fast_basis = accumulate_span(generators, n)
    slow, slow_basis = ref.accumulate_span(generators, n)
    for field in ("span_dim", "generator_dim", "rounds", "full"):
        assert getattr(fast, field) == getattr(slow, field), field
    assert fast.tol == pytest.approx(slow.tol, rel=1e-12, abs=0)
    assert np.max(np.abs(_projector(fast_basis) - _projector(slow_basis))) <= 1e-10
    return fast


def _random_families():
    """Random generator families, some confined to one invariant part."""
    rng = np.random.default_rng(20231030)
    for n in (4, 5, 6, 7):
        for count in (1, 2):
            m = rng.standard_normal((count, n, n))
            yield f"random n={n} count={count}", list(m - np.swapaxes(m, 1, 2)), n
        _, _, stabilizer = ref.decompose(n)
        coeffs = rng.standard_normal((2, stabilizer.rank))
        yield f"stabilizer-only n={n}", list(unflatten_antisym(coeffs @ stabilizer.vectors, n)), n
        u = rng.standard_normal(n)
        yield f"standard-only n={n}", [ref.plane_rotation(u - u.mean(), np.ones(n))], n


@pytest.mark.parametrize("ell", range(1, 7))
def test_span_matches_reference_for_irreducible_generators(ell):
    report = _assert_same_span(build_generators(ell).matrices, 2 * ell + 1)
    assert report.full


def test_span_matches_reference_for_reducible_control():
    u = np.array([1.0, -1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, -1.0, 0.0])
    report = _assert_same_span([ref.plane_rotation(u, v)], 4)
    assert report.span_dim == 3 and not report.full


def test_span_matches_reference_for_random_families():
    dims = {}
    for name, generators, n in _random_families():
        dims[name] = _assert_same_span(generators, n).span_dim
    # families inside one part close up to exactly that part
    for n in (4, 5, 6, 7):
        assert dims[f"stabilizer-only n={n}"] == (n - 1) * (n - 2) // 2
        assert dims[f"standard-only n={n}"] == n - 1


def _standard_part(a):
    """Standard part v 1^T - 1 v^T of an antisymmetric a, with v = a . ones / n."""
    v = a.sum(axis=1) / a.shape[0]
    return np.subtract.outer(v, v)


def _draw_family(data, max_n):
    """A drawn generator family of one kind and the span dimension it must reach."""
    n = data.draw(st.integers(3, max_n), label="n")
    count = data.draw(st.integers(1, 3), label="count")
    kind = data.draw(
        st.sampled_from(["generic", "stabilizer", "standard", "repeated", "near-stabilizer"]), label="kind"
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = rng.standard_normal((count, n, n))
    family = list(m - np.swapaxes(m, 1, 2))
    if kind == "stabilizer":
        family = [a - _standard_part(a) for a in family]
    elif kind == "standard":
        family = [_standard_part(a) for a in family]
    elif kind == "repeated":
        # rank deficient: scaled copies of the first generator
        scales = data.draw(st.lists(st.sampled_from([1.0, -2.0, 1e-3, 1e3]), min_size=1, max_size=2), label="scales")
        family = family[:1] + [s * family[0] for s in scales]
    elif kind == "near-stabilizer":
        # a standard component at rounding scale, as in the criterion-2 control
        family = [a - _standard_part(a) + 1e-16 * _standard_part(a) for a in family]
    stabilizer_dim = (n - 1) * (n - 2) // 2
    expected = {"stabilizer": stabilizer_dim, "standard": n - 1, "near-stabilizer": stabilizer_dim}
    return family, n, expected.get(kind, so_dim(n))


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_span_matches_reference_for_drawn_families(data):
    family, n, expected_dim = _draw_family(data, 8)
    assert _assert_same_span(family, n).span_dim == expected_dim


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_span_matches_projected_accumulation_for_drawn_families(data):
    # complement coordinates against the projection off the whole span
    family, n, expected_dim = _draw_family(data, 12)
    fast, fast_basis = accumulate_span(family, n)
    slow, slow_basis = ref.accumulate_span_projected(family, n)
    for field in ("n", "generator_dim", "span_dim", "full", "rounds", "tol"):
        assert getattr(fast, field) == getattr(slow, field), field
    assert fast.span_dim == expected_dim
    assert np.max(np.abs(_projector(fast_basis) - _projector(slow_basis))) <= 1e-10
    assert np.max(np.abs(fast_basis.vectors @ fast_basis.vectors.T - np.eye(fast.span_dim))) <= 1e-12


@pytest.mark.parametrize("ell", range(1, 13))
def test_verify_span_matches_projected_accumulation(ell):
    report = verify_span(ell)
    slow, _ = ref.accumulate_span_projected(build_generators(ell).matrices, 2 * ell + 1)
    slow.hypothesis_satisfied = True
    assert report == slow
    # the same float, bit for bit
    assert report.tol.hex() == slow.tol.hex()
    assert report.full


@pytest.mark.parametrize("n", range(4, 17))
def test_decompose_character_and_block_form_match_reference(n):
    fast, standard, stabilizer = decompose_so_n(n)
    slow, ref_standard, ref_stabilizer = ref.decompose(n)
    assert (fast.standard_dim, fast.stabilizer_dim) == (slow.standard_dim, slow.stabilizer_dim)
    for field in ("standard_char_transposition", "stabilizer_char_transposition"):
        assert getattr(fast, field) == pytest.approx(getattr(slow, field), rel=1e-12, abs=1e-12), field
    assert np.max(np.abs(_projector(standard) - _projector(ref_standard))) <= 1e-10
    assert np.max(np.abs(_projector(stabilizer) - _projector(ref_stabilizer))) <= 1e-10

    # the closed-form bases stack to an orthonormal basis of so(n)
    stacked = np.vstack([standard.vectors, stabilizer.vectors])
    assert stacked.shape == (so_dim(n), so_dim(n))
    assert np.max(np.abs(stacked @ stacked.T - np.eye(so_dim(n)))) <= 1e-14

    # characters on the engine's own bases: a transposition touching 0, one
    # that does not, and the n-cycle, which is not a transposition
    perms = (
        Permutation.transposition(n, 0, 1),
        Permutation.transposition(n, n - 2, n - 1),
        Permutation(tuple(range(1, n)) + (0,)),
    )
    for perm in perms:
        for basis in (standard, stabilizer):
            expected = ref.character(basis, perm)
            assert character_on_subspace(basis, perm) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    fast_block = block_form_check(n)
    slow_block = ref.block_form(n)
    assert fast_block.passed and slow_block.passed
    for field in (
        "stabilizer_first_rowcol_max",
        "standard_complement_max",
        "cross_gram_max",
        "standard_projector_residual",
        "stabilizer_projector_residual",
    ):
        assert getattr(fast_block, field) == pytest.approx(getattr(slow_block, field), abs=1e-12), field


def test_generator_projection_norms_match_closed_form():
    """Squared norms of the generators' standard and stabilizer parts.

    The standard part of A is fixed by A . ones, and the map A -> A . ones
    in flattened coordinates has singular value sqrt(n/2) on it, so
    |P_std A|^2 = (2/n) |A . ones|^2.  Summed over the three generators,
    sum_a |J_a ones|^2 = -ones^T (sum_a J_a^2) ones = ell(ell+1) n by the
    Casimir identity, so |P_std G|^2 = 2 ell(ell+1).  The total is
    sum_a |J_a|^2 = ell(ell+1)(2 ell+1), which leaves ell(ell+1)(2 ell-1)
    for the stabilizer part.
    """
    for ell in range(2, 13):
        g = np.array([flatten_antisym(m) for m in build_generators(ell).matrices])
        _, standard, stabilizer = decompose_so_n(2 * ell + 1)
        std = float(np.sum((g @ standard.vectors.T) ** 2))
        stab = float(np.sum((g @ stabilizer.vectors.T) ** 2))
        casimir = ell * (ell + 1)
        assert std == pytest.approx(2 * casimir, rel=1e-9), ell
        assert stab == pytest.approx(casimir * (2 * ell - 1), rel=1e-9), ell
        assert std + stab == pytest.approx(casimir * (2 * ell + 1), rel=1e-9), ell
