"""Exception types shared across the package."""


class PlanequantError(Exception):
    """Base class for all package-specific errors."""


class RangeOverflowError(PlanequantError, OverflowError):
    """Raised when |z|^2 is past the linear-scale limit of ``coherent_state``
    and ``normalization_factor``, where e^{|z|^2} overflows a double."""


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
