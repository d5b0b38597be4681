"""Cross-module invariant suite backing the ``verify`` CLI command.

Each check is named, deterministic for a fixed seed, and returns its worst
margin so failures are actionable.  The fault-injection hook perturbs one
off-diagonal entry of the tridiagonal fed to the structural checks, to
prove the harness can fail at all; ``interlacing`` then fails by name.
``symmetry`` passes: a zero-diagonal tridiagonal keeps a sign-symmetric
spectrum whatever its couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra, symbols
from .frame import PhasePoint, verify_identity_resolution
from .operators import (
    OperatorMatrix,
    commutator,
    hamiltonian,
    last_level_projector,
    momentum_operator,
    position_operator,
)
from .spectra import TWO_PI


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _dims_ladder(limit: int) -> list[int]:
    base = [1, 2, 3, 4, 5, 8, 12, 13, 32, 33, 64, 100, 101]
    return sorted({d for d in base if d <= limit} | {limit})


def _check_commutator(limit: int) -> CheckResult:
    worst = 0.0
    for n in _dims_ladder(limit):
        q = position_operator(n)
        p = momentum_operator(n)
        expected = 1j * (np.eye(n) - n * last_level_projector(n).entries)
        dev = float(np.max(np.abs(commutator(q, p).entries - expected)))
        worst = max(worst, dev)
    return CheckResult("commutator", worst <= 1e-12, f"max deviation {worst:.3e}")


def _check_hamiltonian(limit: int) -> CheckResult:
    worst = 0.0
    for n in _dims_ladder(limit):
        q = position_operator(n).entries
        p = momentum_operator(n).entries
        built = (p @ p + q @ q) / 2.0
        dev = float(np.max(np.abs(built - hamiltonian(n).entries)))
        worst = max(worst, dev)
    return CheckResult("hamiltonian", worst <= 1e-12, f"max deviation {worst:.3e}")


def _check_identity_resolution(limit: int) -> CheckResult:
    worst = 0.0
    for n in (1, 8, min(64, limit)):
        worst = max(worst, verify_identity_resolution(n))
    return CheckResult("identity_resolution", worst <= 1e-9, f"max deviation {worst:.3e}")


def _check_sandwich(limit: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for n in sorted({2, 12, min(32, limit)}):
        q = position_operator(n)
        q2 = q.entries @ q.entries
        p = momentum_operator(n)
        p2 = p.entries @ p.entries
        h = hamiltonian(n)
        for _ in range(20):
            qq, pp = rng.uniform(-4.0, 4.0, size=2)
            x = PhasePoint(qq, pp)
            c = symbols.corrective_factor(n, math.sqrt(x.r2))
            a_val, b_val = symbols.quadratic_symbols(n, x)
            sq = symbols.lower_symbol(q, x)
            worst = max(worst, abs(sq - c * qq))
            sq2 = symbols.lower_symbol(OperatorMatrix(q2), x)
            worst = max(worst, abs(sq2 - (a_val + b_val)))
            sp2 = symbols.lower_symbol(OperatorMatrix(p2), x)
            worst = max(worst, abs(sp2 - (a_val - b_val)))
            sh = symbols.lower_symbol(h, x)
            worst = max(worst, abs(sh - a_val))
    origin_worst = max(
        abs(symbols.uncertainty_product(n, PhasePoint(0.0, 0.0)) - 0.5)
        for n in range(2, min(64, limit) + 1)
    )
    ok = worst <= 1e-10 and origin_worst <= 1e-12
    return CheckResult(
        "sandwich_vs_formula",
        ok,
        f"max closed-form deviation {worst:.3e}, origin product deviation {origin_worst:.3e}",
    )


def _check_sturm_qr(limit: int, rng: np.random.Generator) -> CheckResult:
    mism = 0
    for n in sorted({12, 101, min(512, limit)}):
        t = spectra.position_tridiagonal(n)
        ev = spectra.eig_all(t)
        bound = math.sqrt(2.0 * n) + 1.0
        for lam in rng.uniform(-bound, bound, size=50):
            if spectra.sturm_count(t, float(lam)) != int(np.searchsorted(ev, lam)):
                mism += 1
    return CheckResult("sturm_qr", mism == 0, f"{mism} count mismatches")


def _structural_tridiagonal(n: int, inject_fault: bool) -> spectra.SymTridiagonal:
    t = spectra.position_tridiagonal(n)
    if not inject_fault:
        return t
    off = t.offdiag.copy()
    off[n // 2] *= 1.25  # the test hook: one perturbed coupling
    return spectra.SymTridiagonal(off)


def _check_symmetry(limit: int, inject_fault: bool, rng: np.random.Generator) -> CheckResult:
    # eig_all returns +-sigma, so the spectrum's sign symmetry is checked on
    # the Sturm count: #(ev < lam) + #(ev < -lam) = n away from eigenvalues,
    # and exactly n % 2 eigenvalues (the odd-n zero) lie in [-1e-9, 1e-9).
    # The injected fault keeps the zero diagonal, so this check passes on it.
    n = min(401, limit)
    t = _structural_tridiagonal(n, inject_fault)
    bound = t.gershgorin_bound() + 1.0
    mism = sum(
        spectra.sturm_count(t, lam) + spectra.sturm_count(t, -lam) != n
        for lam in rng.uniform(0.0, bound, size=50).tolist()
    )
    near_zero = spectra.sturm_count(t, 1e-9) - spectra.sturm_count(t, -1e-9)
    return CheckResult(
        "symmetry",
        mism == 0 and near_zero == n % 2,
        f"{mism} of 50 Sturm count pairs at +-lam miss {n}, "
        f"{near_zero} eigenvalue(s) in [-1e-9, 1e-9), expected {n % 2}",
    )


def _check_interlacing(limit: int, inject_fault: bool) -> CheckResult:
    n = min(200, limit)
    ev_n = spectra.eig_all(_structural_tridiagonal(n, inject_fault))
    ev_n1 = spectra.eig_all(spectra.position_tridiagonal(n + 1))
    margin = spectra._interlacing_margin(ev_n, ev_n1)
    return CheckResult("interlacing", margin > 0.0, f"worst margin {margin:.3e}")


def _check_gaps(limit: int) -> CheckResult:
    worst = math.inf
    for n in sorted({5, 12, min(150, limit)}):
        report = spectra.gap_properties(n)
        if not report.gaps_ok:
            return CheckResult("gap", False, f"gap bound violated at dim {n}")
        worst = min(worst, report.worst_gap_margin)
    return CheckResult("gap", True, f"smallest gap margin {worst:.3e}")


def _check_sigma(limit: int) -> CheckResult:
    dims = list(range(2, min(200, limit) + 1))
    summaries = spectra.sigma_table(dims)
    # every summary already holds sigma < 2*pi, or raises VerificationError
    sigmas = {s.dim: s.sigma for s in summaries}
    monotone = all(
        sigmas[n + 2] > sigmas[n] for n in dims if n + 2 in sigmas
    )
    top = max(sigmas.values())
    return CheckResult(
        "sigma_below_two_pi",
        monotone,
        f"largest sigma {top:.9g} vs 2*pi {TWO_PI:.9g}, parity-monotone: {monotone}",
    )


def run_verification(
    n_max_dense: int = 200,
    seed: int = 0,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Run the named invariant checks and return one result per check."""
    if n_max_dense < 4:
        raise ValueError(f"n_max_dense must be >= 4, got {n_max_dense}")
    rng = np.random.default_rng(seed)
    return [
        _check_commutator(n_max_dense),
        _check_hamiltonian(n_max_dense),
        _check_identity_resolution(n_max_dense),
        _check_sandwich(n_max_dense, rng),
        _check_sturm_qr(n_max_dense, rng),
        _check_interlacing(n_max_dense, inject_fault),
        _check_gaps(n_max_dense),
        _check_symmetry(n_max_dense, inject_fault, rng),
        _check_sigma(n_max_dense),
    ]
