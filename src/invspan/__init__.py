"""Numerical certificates for permutation-plus-rotation invariance.

The package certifies, in floating point with explicit tolerances, that
conjugating an irreducible rotation representation by coordinate
permutations spans the full antisymmetric matrix algebra, splits that
algebra into its standard and stabilizer parts under the permutation
action, and demonstrates the probabilistic consequences (isotropic
harmonic fields, radius/direction independence, and the Gaussian
characterization) with seeded Monte Carlo tests.

Import from the submodules, for example
``from invspan.invariance_engine import verify_span``.  The package
itself loads no numeric module, so the command line front end can cap
linear-algebra thread pools before numpy loads.
"""

__version__ = "0.1.0"
