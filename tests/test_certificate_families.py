"""The span certificate on groups beyond the SO(3) irreps, and where it stops.

As a module over the symmetric group, so(n) is the sum of the standard
part (matrices v 1^T - 1 v^T) and the stabilizer of the ones vector.
For n >= 3 the two parts are irreducible and not isomorphic, so the
permutation-conjugation span of a generator family is the sum of the
parts it touches.  With the standard part of A equal to v 1^T - 1 v^T,
v = A 1 / n, that gives a rule from two norms:

    |P_std A|^2 = (2/n) |A 1|^2,   |P_stab A|^2 = |A|^2 - |P_std A|^2,
    span_dim = (n-1) [std > 0] + (n-1)(n-2)/2 [stab > 0].

Each family below is checked against accumulate_span with that rule,
against the split from decompose_so_n, and for n <= 9 against the slow
reference.  The cube group closes the file: a finite irreducible group
that the coordinate permutations normalize, with no generators to feed
the certificate.
"""

import itertools
import math

import numpy as np
import pytest
import reference_engine as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from invspan.errors import DegenerateInputError
from invspan.invariance_engine import accumulate_span, decompose_so_n, ones_fixing_rotation
from invspan.lie_core import flatten_antisym, so_dim, unflatten_antisym
from invspan.so3_irreps import build_generators, commutant_dimension, common_fixed_subspace_dim


def _irrep(ell):
    return list(build_generators(ell).matrices)


def _tensor(ell1, ell2):
    """SO(3) x SO(3) on the tensor product of the weight-ell1 and weight-ell2 irreps."""
    eye1, eye2 = np.eye(2 * ell1 + 1), np.eye(2 * ell2 + 1)
    return [np.kron(g, eye2) for g in _irrep(ell1)] + [np.kron(eye1, g) for g in _irrep(ell2)]


def _quaternion_units():
    """SU(2) on H = R^4: left multiplication by i, j and k on (1, i, j, k) coordinates."""
    li = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    lj = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    lk = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
    return [li, lj, lk]


def _traceless_symmetric(k):
    """SO(k) on traceless symmetric k x k matrices, X -> L X - X L, in a Frobenius-orthonormal basis."""
    basis = []
    for a, b in itertools.combinations(range(k), 2):
        s = np.zeros((k, k))
        s[a, b] = s[b, a] = 1.0 / math.sqrt(2.0)
        basis.append(s)
    for m in range(1, k):
        diag = np.zeros(k)
        diag[:m] = 1.0
        diag[m] = -m
        basis.append(np.diag(diag / math.sqrt(m * (m + 1))))
    basis = np.array(basis)
    out = []
    for gen in unflatten_antisym(math.sqrt(2.0) * np.eye(so_dim(k))):
        image = gen @ basis - basis @ gen
        g = np.einsum("rij,sij->rs", basis, image)
        out.append((g - g.T) / 2.0)
    return out


def _direct_sum(*ells):
    dims = [2 * ell + 1 for ell in ells]
    out = []
    for axis in range(3):
        g = np.zeros((sum(dims), sum(dims)))
        start = 0
        for ell, d in zip(ells, dims):
            g[start : start + d, start : start + d] = _irrep(ell)[axis]
            start += d
        out.append(g)
    return out


FAMILIES = {
    "SO(3)xSO(3) on l=1 (x) l=1": _tensor(1, 1),
    "SO(3)xSO(3) on l=1 (x) l=2": _tensor(1, 2),
    "SU(2) on H": _quaternion_units(),
    "SO(3) on traceless symmetric 3x3": _traceless_symmetric(3),
    "SO(4) on traceless symmetric 4x4": _traceless_symmetric(4),
    "SO(2) on R^2": [np.array([[0.0, -1.0], [1.0, 0.0]])],
    "l=1 (+) l=1": _direct_sum(1, 1),
    "l=1 (+) l=2": _direct_sum(1, 2),
}


def _two_norms(family):
    """Squared norms of the family's standard and stabilizer parts, summed over its members."""
    a = np.array(family)
    n = a.shape[-1]
    total = float(np.sum(a * a))
    std = 2.0 / n * float(np.sum(a.sum(axis=2) ** 2))
    return std, total - std, total


def _span_rule(n, std, stab, total):
    present = 1e-10 * total
    return (n - 1) * (std > present) + (n - 1) * (n - 2) // 2 * (stab > present)


def test_families_are_exactly_antisymmetric_and_have_no_fixed_vector():
    li, lj, lk = _quaternion_units()
    np.testing.assert_array_equal(li @ lj, lk)
    np.testing.assert_array_equal(li @ li, -np.eye(4))
    for name, family in FAMILIES.items():
        assert all(np.array_equal(g, -g.T) for g in family), name
        assert common_fixed_subspace_dim(family) == 0, name
    # the two tensor products and the traceless symmetric matrices are irreducible
    for name in ("SO(3)xSO(3) on l=1 (x) l=1", "SO(3)xSO(3) on l=1 (x) l=2", "SO(4) on traceless symmetric 4x4"):
        assert commutant_dimension(FAMILIES[name]) == 1, name
    assert commutant_dimension(FAMILIES["l=1 (+) l=1"]) == 4


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_span_follows_the_two_norm_rule(name):
    family = FAMILIES[name]
    n = family[0].shape[0]
    std, stab, total = _two_norms(family)
    report, _ = accumulate_span(family, n)
    assert report.span_dim == _span_rule(n, std, stab, total)
    assert report.full
    assert std > 0.0 and (stab > 1e-10 * total) == (n > 2)

    if n >= 4:
        # the same two norms from the closed-form split
        g = np.array([flatten_antisym(m) for m in family])
        _, standard, stabilizer = decompose_so_n(n)
        assert float(np.sum((g @ standard.vectors.T) ** 2)) == pytest.approx(std, rel=1e-12)
        assert float(np.sum((g @ stabilizer.vectors.T) ** 2)) == pytest.approx(stab, rel=1e-12)
    if n <= 9:
        slow, _ = ref.accumulate_span(family, n)
        assert (slow.span_dim, slow.generator_dim, slow.full) == (
            report.span_dim,
            report.generator_dim,
            report.full,
        )


def _ones_fixing_orthogonal(n, rng):
    """Random orthogonal Q with Q 1 = 1: b diag(1, R) b^T for R Haar on O(n - 1)."""
    b = ones_fixing_rotation(n)
    r, upper = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    r = r * np.sign(np.diag(upper))
    block = np.eye(n)
    block[1:, 1:] = r
    return b @ block @ b.T


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32 - 1))
def test_conjugating_by_ones_fixing_orthogonal_matrices_keeps_both_norms(name, seed):
    family = FAMILIES[name]
    n = family[0].shape[0]
    q = _ones_fixing_orthogonal(n, np.random.default_rng(seed))
    np.testing.assert_allclose(q @ np.ones(n), np.ones(n), atol=1e-13)
    moved = [q @ g @ q.T for g in family]
    std, stab, total = _two_norms(family)
    moved_std, moved_stab, _ = _two_norms(moved)
    assert moved_std == pytest.approx(std, abs=1e-12 * total)
    assert moved_stab == pytest.approx(stab, abs=1e-12 * total)


def _cube_rotations():
    """The 24 signed permutation matrices of determinant +1."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[list(perm), range(3)] = signs
            if np.linalg.det(m) > 0:
                out.append(m)
    return out


def test_cube_group_is_irreducible_and_permutation_stable_but_finite():
    """Exchangeability plus invariance under the rotations of the cube does not give SO(3) invariance.

    The uniform law on the cube's vertices is exchangeable and invariant
    under the 24 rotations of the cube, which act irreducibly on R^3, yet
    a generic rotation moves it.  The group is finite: it has no
    generators, and the certificate rejects the zero family it leaves.
    """
    vertices = {tuple(v) for v in itertools.product((1.0, -1.0), repeat=3)}
    rotations = _cube_rotations()
    assert len(rotations) == 24
    for m in rotations:
        assert {tuple(m @ v) for v in map(np.array, vertices)} == vertices
    for perm in itertools.permutations(range(3)):
        assert {tuple(np.array(v)[list(perm)]) for v in vertices} == vertices
    assert commutant_dimension(rotations) == 1

    generic = ref.haar_rotation(3, seed=2023)
    moved = generic @ np.array(sorted(vertices)).T
    off = [min(np.linalg.norm(col - np.array(v)) for v in vertices) for col in moved.T]
    assert max(off) > 0.1

    with pytest.raises(DegenerateInputError):
        accumulate_span([np.zeros((3, 3))], 3)
