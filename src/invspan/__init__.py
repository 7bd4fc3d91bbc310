"""Numerical certificates for permutation-plus-rotation invariance.

The package certifies, in floating point with explicit tolerances, that
conjugating an irreducible rotation representation by coordinate
permutations spans the full antisymmetric matrix algebra, decomposes that
algebra under the permutation action, and demonstrates the probabilistic
consequences (isotropic harmonic fields, radius/direction independence,
and the Gaussian characterization) with seeded Monte Carlo tests.

Submodules are imported on first attribute access so that the command
line front end can cap linear-algebra thread pools before the numeric
stack loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "DegenerateInputError": "errors",
    "DimensionError": "errors",
    "InvarianceViolationError": "errors",
    # lie_core
    "Permutation": "lie_core",
    "SubspaceBasis": "lie_core",
    "bracket": "lie_core",
    "conjugate_by_permutation": "lie_core",
    "flatten_antisym": "lie_core",
    "matrix_exponential": "lie_core",
    "numerical_rank": "lie_core",
    "permutation_matrix": "lie_core",
    "plane_rotation": "lie_core",
    "signed_index_map": "lie_core",
    "so_basis": "lie_core",
    "so_dim": "lie_core",
    "unflatten_antisym": "lie_core",
    # so3_irreps
    "IrrepGenerators": "so3_irreps",
    "RotationSpec": "so3_irreps",
    "build_generators": "so3_irreps",
    "cartesian_rotation": "so3_irreps",
    "commutant_dimension": "so3_irreps",
    "common_fixed_subspace_dim": "so3_irreps",
    "euler_zyz_from_matrix": "so3_irreps",
    "random_rotation": "so3_irreps",
    "rep_matrix": "so3_irreps",
    "rep_matrix_batch": "so3_irreps",
    # invariance_engine
    "BlockFormReport": "invariance_engine",
    "DecompositionReport": "invariance_engine",
    "SpanReport": "invariance_engine",
    "accumulate_span": "invariance_engine",
    "block_form_check": "invariance_engine",
    "character_on_subspace": "invariance_engine",
    "decompose_so_n": "invariance_engine",
    "ones_fixing_rotation": "invariance_engine",
    "verify_span": "invariance_engine",
    # sphere_harmonics
    "CoefficientArray": "sphere_harmonics",
    "PowerSpectrum": "sphere_harmonics",
    "RADIAL_LAWS": "sphere_harmonics",
    "SphereGrid": "sphere_harmonics",
    "empirical_power_spectrum": "sphere_harmonics",
    "eval_ylm": "sphere_harmonics",
    "gauss_legendre_grid": "sphere_harmonics",
    "grid_mean_square": "sphere_harmonics",
    "laplacian_eigen_check": "sphere_harmonics",
    "lm_index": "sphere_harmonics",
    "rotate_coefficient_array": "sphere_harmonics",
    "rotate_coefficients": "sphere_harmonics",
    "sample_coefficient_arrays": "sphere_harmonics",
    "sample_coefficients": "sphere_harmonics",
    "sample_degree_block": "sphere_harmonics",
    "synthesize": "sphere_harmonics",
    "synthesize_batch": "sphere_harmonics",
    "ylm_matrix": "sphere_harmonics",
    # monte_carlo_stats
    "SampleMatrix": "monte_carlo_stats",
    "TestReport": "monte_carlo_stats",
    "calibration_suite": "monte_carlo_stats",
    "energy_two_sample_test": "monte_carlo_stats",
    "haar_rotation": "monte_carlo_stats",
    "orbit_random_walk": "monte_carlo_stats",
    "orbit_walk_samples": "monte_carlo_stats",
    "test_exchangeability": "monte_carlo_stats",
    "test_gaussianity_1d": "monte_carlo_stats",
    "test_radial_angular_independence": "monte_carlo_stats",
    "test_rotational_invariance": "monte_carlo_stats",
    "test_uniform_on_sphere": "monte_carlo_stats",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
