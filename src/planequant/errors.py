"""Exception types shared across the package."""


class PlanequantError(Exception):
    """Base class for all package-specific errors."""


class RangeOverflowError(PlanequantError, OverflowError):
    """Raised when the sum of ``normalization_factor`` overflows a double, as at
    N = 1000 and |z|^2 = 800; coherent states and symbols hold at every finite |z|^2."""


class DimensionMismatchError(PlanequantError, ValueError):
    """Raised when two objects with incompatible dimensions are combined."""


class QuadratureOrderError(PlanequantError, ValueError):
    """Raised when a Gauss-Laguerre order exceeds 186, where numpy's weights overflow."""


class MissingDependencyError(PlanequantError, ImportError):
    """Raised when a computation needs a library that is not installed."""


class ConvergenceError(PlanequantError, RuntimeError):
    """Raised when an iterative eigenvalue computation fails to converge."""


class VerificationError(PlanequantError, RuntimeError):
    """Raised when a built-in mathematical invariant is violated."""
