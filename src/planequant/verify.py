"""Cross-module invariant suite backing the ``verify`` CLI command.

Each check is named, deterministic for a fixed seed, and reports its worst
margin so failures are actionable.  The suite runs one fixed plan, the
dimensions written in each check: the operator identities on 14 dimensions
up to 200, the frame and closed-form checks up to 64, and the spectral
checks up to 201.  A deviation check passes iff ``_worst`` of its
deviations is at most its threshold, and a margin check iff the smallest of
its margins is > 0; either is NaN when any of its inputs is, so a NaN fails
the check by name.  Each check has a tested fault that fails it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra, symbols
from .errors import ConvergenceError, VerificationError
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


# The dimensions of the commutator and energy identities.
_OPERATOR_DIMS = (1, 2, 3, 4, 5, 8, 12, 13, 32, 33, 64, 100, 101, 200)


def _worst(devs) -> float:
    """The largest of ``devs``, or NaN if any is NaN (``max`` would drop it)."""
    return float(np.max(devs))


def _check_commutator() -> CheckResult:
    devs = []
    for n in _OPERATOR_DIMS:
        q = position_operator(n)
        p = momentum_operator(n)
        expected = 1j * (np.eye(n) - n * last_level_projector(n).entries)
        devs.append(np.max(np.abs(commutator(q, p).entries - expected)))
    worst = _worst(devs)
    return CheckResult("commutator", worst <= 1e-12, f"max deviation {worst:.3e}")


def _check_hamiltonian() -> CheckResult:
    devs = []
    for n in _OPERATOR_DIMS:
        q = position_operator(n).entries
        p = momentum_operator(n).entries
        built = (p @ p + q @ q) / 2.0
        devs.append(np.max(np.abs(built - hamiltonian(n).entries)))
    worst = _worst(devs)
    return CheckResult("hamiltonian", worst <= 1e-12, f"max deviation {worst:.3e}")


def _check_identity_resolution() -> CheckResult:
    worst = _worst([verify_identity_resolution(n) for n in (1, 8, 64)])
    return CheckResult("identity_resolution", worst <= 1e-9, f"max deviation {worst:.3e}")


def _check_sandwich(rng: np.random.Generator) -> CheckResult:
    devs = []
    for n in (2, 12, 32):
        q = position_operator(n)
        q2 = q.entries @ q.entries
        p = momentum_operator(n)
        p2 = p.entries @ p.entries
        h = hamiltonian(n)
        # 20 drawn points and, off the seed's stream, one at |z|^2 = 5000
        for qq, pp in [*rng.uniform(-4.0, 4.0, size=(20, 2)), (60.0, 80.0)]:
            x = PhasePoint(qq, pp)
            c = symbols.corrective_factor(n, math.sqrt(x.r2))
            a_val, b_val = symbols.quadratic_symbols(n, x)
            devs += [
                abs(symbols.lower_symbol(q, x) - c * qq),
                abs(symbols.lower_symbol(OperatorMatrix(q2), x) - (a_val + b_val)),
                abs(symbols.lower_symbol(OperatorMatrix(p2), x) - (a_val - b_val)),
                abs(symbols.lower_symbol(h, x) - a_val),
            ]
    worst = _worst(devs)
    origin_worst = _worst([
        abs(symbols.uncertainty_product(n, PhasePoint(0.0, 0.0)) - 0.5) for n in range(2, 65)
    ])
    ok = worst <= 1e-10 and origin_worst <= 1e-12
    return CheckResult(
        "sandwich_vs_formula",
        ok,
        f"max closed-form deviation {worst:.3e}, origin product deviation {origin_worst:.3e}",
    )


def _check_sturm_qr(rng: np.random.Generator) -> CheckResult:
    # Each shift is counted at +lam and -lam, and 1e-9 straddles the odd-N
    # zero, so a count that breaks the spectrum's sign symmetry mismatches.
    mism = 0
    for n in (12, 101, 200):
        t = spectra.position_tridiagonal(n)
        ev = spectra.eig_all(t)
        lams = [*rng.uniform(0.0, math.sqrt(2.0 * n) + 1.0, size=25).tolist(), 1e-9]
        for lam in lams + [-x for x in lams]:
            if spectra.sturm_count(t, lam) != int(np.searchsorted(ev, lam)):
                mism += 1
    return CheckResult("sturm_qr", mism == 0, f"{mism} count mismatches")


def _check_interlacing(n: int) -> CheckResult:
    ev_n = spectra.eig_all(spectra.position_tridiagonal(n))
    ev_n1 = spectra.eig_all(spectra.position_tridiagonal(n + 1))
    # > 0 when the spectra strictly interlace, ev_n1[i] < ev_n[i] < ev_n1[i + 1]
    margin = float(np.minimum((ev_n - ev_n1[:-1]).min(), (ev_n1[1:] - ev_n).min()))
    return CheckResult("interlacing", margin > 0.0, f"worst margin {margin:.3e}")


def _check_gaps() -> CheckResult:
    worst = float(np.min([spectra.gap_margin(n) for n in (5, 12, 150)]))
    return CheckResult("gap", worst > 0.0, f"smallest gap margin {worst:.3e}")


def _check_sigma() -> CheckResult:
    try:
        # each summary proves its extremes and holds sigma < 2*pi, or raises
        summaries = spectra.sigma_table(range(2, 201))
    except (VerificationError, ConvergenceError) as exc:
        return CheckResult("sigma_below_two_pi", False, str(exc))
    sigmas = {s.dim: s.sigma for s in summaries}
    monotone = all(sigmas[n + 2] > sigmas[n] for n in sigmas if n + 2 in sigmas)
    top = max(sigmas.values())
    return CheckResult(
        "sigma_below_two_pi",
        monotone,
        f"largest sigma {top:.9g} vs 2*pi {TWO_PI:.9g}, parity-monotone: {monotone}",
    )


def run_verification(*, seed: int = 0) -> list[CheckResult]:
    """Run the named invariant checks and return one result per check."""
    rng = np.random.default_rng(seed)
    return [
        _check_commutator(),
        _check_hamiltonian(),
        _check_identity_resolution(),
        _check_sandwich(rng),
        _check_sturm_qr(rng),
        _check_interlacing(200),
        _check_gaps(),
        _check_sigma(),
    ]
