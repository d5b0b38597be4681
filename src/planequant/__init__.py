"""Coherent-state quantization of the complex plane on a truncated Fock space.

The package builds the N-dimensional coherent-state frame, quantizes
polynomial phase-space observables into Hermitian matrices, evaluates their
coherent-state expectation values, and analyzes the spectra of the
position/momentum matrices up to N = 10^6, including the forbidden-cell /
spectral-width product that stays below 2*pi.
"""

import importlib

__version__ = "0.1.0"

# Each public name by the module that defines it.  A name is imported on first
# use, so ``import planequant`` and the ``bounds`` command load no numpy.
_EXPORTS = {
    "bounds": ("BoundsReport", "PhysicalScales", "bounds_report", "solve_characteristic_length"),
    "errors": ("ConvergenceError", "DimensionMismatchError", "MissingDependencyError",
               "PlanequantError", "QuadratureOrderError", "RangeOverflowError",
               "VerificationError"),
    "frame": ("CoherentState", "PhasePoint", "QuadratureSpec", "coherent_state",
              "gauss_laguerre_rule", "normalization_factor", "overlap",
              "verify_identity_resolution"),
    "operators": ("OperatorMatrix", "PolynomialSymbol", "commutator", "hall_coordinates",
                  "hamiltonian", "last_level_projector", "momentum_operator",
                  "position_operator", "quantize", "quantize_monomial", "quantize_quadrature"),
    "spectra": ("SpectrumSummary", "SymTridiagonal", "eig_all", "extreme_eigenvalues",
                "gap_margin", "position_tridiagonal", "semicircle_count_deviation",
                "semicircle_density", "sigma_table", "spectrum_summary", "sturm_count"),
    "symbols": ("SymbolGrid", "corrective_factor", "lower_symbol", "quadratic_symbols",
                "symbol_grid", "uncertainty_product"),
    "verify": ("CheckResult", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, or one of the modules above, imported on first use (PEP 562).

    A name is looked up in its module on every access and bound nowhere
    here, so it is always the module's own binding.
    """
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
