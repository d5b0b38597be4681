"""Coherent-state quantization of the complex plane on a truncated Fock space.

The package builds the N-dimensional coherent-state frame, quantizes
polynomial phase-space observables into Hermitian matrices, evaluates their
coherent-state expectation values, and analyzes the spectra of the
position/momentum matrices up to N = 10^6, including the forbidden-cell /
spectral-width product that stays below 2*pi.
"""

from .bounds import BoundsReport, PhysicalScales, bounds_report, solve_characteristic_length
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    MissingDependencyError,
    PlanequantError,
    QuadratureOrderError,
    RangeOverflowError,
    VerificationError,
)
from .frame import (
    CoherentState,
    PhasePoint,
    QuadratureSpec,
    coherent_state,
    gauss_laguerre_rule,
    normalization_factor,
    overlap,
    verify_identity_resolution,
)
from .operators import (
    OperatorMatrix,
    PolynomialSymbol,
    commutator,
    hall_coordinates,
    hamiltonian,
    last_level_projector,
    momentum_operator,
    position_operator,
    quantize,
    quantize_monomial,
    quantize_quadrature,
)
from .spectra import (
    SpectrumSummary,
    SymTridiagonal,
    eig_all,
    extreme_eigenvalues,
    gap_margin,
    position_tridiagonal,
    semicircle_count_deviation,
    semicircle_density,
    sigma_table,
    spectrum_summary,
    sturm_count,
)
from .symbols import (
    SymbolGrid,
    corrective_factor,
    lower_symbol,
    quadratic_symbols,
    symbol_grid,
    uncertainty_product,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CheckResult",
    "CoherentState",
    "ConvergenceError",
    "DimensionMismatchError",
    "MissingDependencyError",
    "OperatorMatrix",
    "PhasePoint",
    "PhysicalScales",
    "PlanequantError",
    "PolynomialSymbol",
    "QuadratureOrderError",
    "QuadratureSpec",
    "RangeOverflowError",
    "SpectrumSummary",
    "SymTridiagonal",
    "SymbolGrid",
    "VerificationError",
    "bounds_report",
    "coherent_state",
    "commutator",
    "corrective_factor",
    "eig_all",
    "extreme_eigenvalues",
    "gap_margin",
    "gauss_laguerre_rule",
    "hall_coordinates",
    "hamiltonian",
    "last_level_projector",
    "lower_symbol",
    "momentum_operator",
    "normalization_factor",
    "overlap",
    "position_operator",
    "position_tridiagonal",
    "quadratic_symbols",
    "quantize",
    "quantize_monomial",
    "quantize_quadrature",
    "run_verification",
    "semicircle_count_deviation",
    "semicircle_density",
    "sigma_table",
    "solve_characteristic_length",
    "spectrum_summary",
    "sturm_count",
    "symbol_grid",
    "uncertainty_product",
    "verify_identity_resolution",
]
