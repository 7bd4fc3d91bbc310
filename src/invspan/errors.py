"""Exception types shared across the package."""

__all__ = ["DegenerateInputError", "DimensionError", "InvarianceViolationError"]


class DimensionError(ValueError):
    """Inputs have an invalid or mutually incompatible dimension."""


class DegenerateInputError(ValueError):
    """Input data is degenerate for the requested statistic (for example
    a zero-norm row where a direction is needed, or zero variance)."""


class InvarianceViolationError(ValueError):
    """A subspace that was assumed invariant under a permutation action
    turned out not to be."""
