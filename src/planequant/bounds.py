"""Physical-units consequences of the forbidden-cell/width bound.

The dimensionless product delta_N * Delta_N < 2*pi turns into dimensioned
inequalities once a characteristic length l_c and momentum p_c are chosen:
position cells satisfy delta*Delta <= 2*pi*l_c^2 and momentum cells
delta*Delta <= 2*pi*p_c^2.  Postulating a minimal resolvable length l_m
then caps the largest observable scale at l_max ~ sigma*(l_c/l_m)*l_c; in
the noncommutative-plane reading the minimal area theta plays the role of
l_m^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .spectra import TWO_PI


def _is_real_number(v) -> bool:
    """int or float, but not bool (True would otherwise pass as a length of 1)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class PhysicalScales:
    """Characteristic and minimal scales of a concrete system (SI units)."""

    l_c: float                 # characteristic length, meters
    p_c: float                 # characteristic momentum
    l_m: float                 # assumed minimal length, meters
    theta: float | None = None  # minimal area for the planar-coordinate case, m^2

    def __post_init__(self):
        for name in ("l_c", "p_c", "l_m"):
            v = getattr(self, name)
            if not (_is_real_number(v) and v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if self.theta is not None and not (
            _is_real_number(self.theta) and self.theta > 0.0 and math.isfinite(self.theta)
        ):
            raise ValueError(f"theta must be positive and finite, got {self.theta!r}")
        if self.l_c < self.l_m:
            raise ValueError(
                f"the scale ratio l_c/l_m must be >= 1, got {self.l_c / self.l_m:.3g}"
            )

    @property
    def rho_u(self) -> float:
        return self.l_c / self.l_m


@dataclass(frozen=True)
class BoundsReport:
    """Evaluated dimensioned bounds for one set of scales."""

    scales: PhysicalScales
    sigma: float
    l_max: float
    hall_minimal_length: float | None
    hall_l_max: float | None

    def lines(self) -> list[str]:
        s = self.scales
        out = [
            f"characteristic length  l_c = {s.l_c:.9g} m",
            f"characteristic momentum p_c = {s.p_c:.9g}",
            f"minimal length         l_m = {s.l_m:.9g} m   (ratio l_c/l_m = {s.rho_u:.9g})",
            f"position inequality:  delta_N(Q) * Delta_N(Q) <= 2*pi*l_c^2 "
            f"= {TWO_PI * s.l_c**2:.9g} m^2",
            f"momentum inequality:  delta_N(P) * Delta_N(P) <= 2*pi*p_c^2 "
            f"= {TWO_PI * s.p_c**2:.9g}",
            f"maximal observable length (sigma = {self.sigma:.9g}): "
            f"l_max = sigma * (l_c/l_m) * l_c = {self.l_max:.9g} m",
        ]
        if self.hall_l_max is not None:
            out.append(
                f"planar-coordinate case: minimal length sqrt(theta) = "
                f"{self.hall_minimal_length:.9g} m gives "
                f"l_max <= 2*pi*(l_c/sqrt(theta))*l_c = {self.hall_l_max:.9g} m"
            )
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "l_c": self.scales.l_c,
                "p_c": self.scales.p_c,
                "l_m": self.scales.l_m,
                "theta": self.scales.theta,
                "rho_u": self.scales.rho_u,
                "sigma": self.sigma,
                "l_max": self.l_max,
                "hall_minimal_length": self.hall_minimal_length,
                "hall_l_max": self.hall_l_max,
            }
        )


def bounds_report(scales: PhysicalScales, sigma: float = TWO_PI) -> BoundsReport:
    """Evaluate the dimensioned bounds; sigma defaults to its limit 2*pi.

    Callers wanting the finite-N product can pass sigma from
    ``spectra.spectrum_summary``.
    """
    if not (0.0 < sigma <= TWO_PI):
        raise ValueError(f"sigma must lie in (0, 2*pi], got {sigma!r}")
    l_max = sigma * scales.rho_u * scales.l_c
    hall_lm = hall_lmax = None
    if scales.theta is not None:
        hall_lm = math.sqrt(scales.theta)
        hall_lmax = TWO_PI * (scales.l_c / hall_lm) * scales.l_c
    return BoundsReport(
        scales=scales,
        sigma=sigma,
        l_max=l_max,
        hall_minimal_length=hall_lm,
        hall_l_max=hall_lmax,
    )


def solve_characteristic_length(l_m: float, universe_size: float) -> float:
    """Inverse problem: l_c with l_m * L = 2*pi * l_c^2.

    Given a minimal length and a largest observable size, returns the
    characteristic length that makes the bound tight.
    """
    if not (l_m > 0.0 and universe_size > 0.0):
        raise ValueError("l_m and universe_size must be positive")
    return math.sqrt(l_m * universe_size / TWO_PI)
