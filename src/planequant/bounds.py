"""Physical-units consequences of the forbidden-cell/width bound.

The dimensionless product delta_N * Delta_N < 2*pi turns into dimensioned
inequalities once a characteristic length l_c and momentum p_c are chosen:
position cells satisfy delta*Delta <= 2*pi*l_c^2 and momentum cells
delta*Delta <= 2*pi*p_c^2.  Postulating a minimal resolvable length l_m
then caps the largest observable scale at l_max ~ sigma*(l_c/l_m)*l_c; in
the noncommutative-plane reading the minimal area theta plays the role of
l_m^2.

A ``BoundsReport`` stores only its inputs, the scales and sigma, owns the
check 0 < sigma <= 2*pi and derives l_max and the planar-coordinate values;
scales whose derived values leave the positive finite doubles are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .spectra import TWO_PI


def _check_positive_finite(name: str, v) -> None:
    """ValueError unless v is a positive finite int or float (bool is not a length of 1)."""
    if not (isinstance(v, (int, float)) and not isinstance(v, bool)
            and v > 0.0 and math.isfinite(v)):
        raise ValueError(f"{name} must be a positive finite number, got {v!r}")


@dataclass(frozen=True)
class PhysicalScales:
    """Characteristic and minimal scales of a concrete system (SI units)."""

    l_c: float                 # characteristic length, meters
    p_c: float                 # characteristic momentum
    l_m: float                 # assumed minimal length, meters
    theta: float | None = None  # minimal area for the planar-coordinate case, m^2

    def __post_init__(self):
        for name in ("l_c", "p_c", "l_m"):
            _check_positive_finite(name, getattr(self, name))
        if self.theta is not None:
            _check_positive_finite("theta", self.theta)
        if self.l_c < self.l_m:
            raise ValueError(
                f"the scale ratio l_c/l_m must be >= 1, got {self.l_c / self.l_m:.3g}"
            )

    @property
    def rho_u(self) -> float:
        return self.l_c / self.l_m


@dataclass(frozen=True)
class BoundsReport:
    """Dimensioned bounds of one set of scales and a product sigma in (0, 2*pi].

    The planar-coordinate values are None without theta.
    """

    scales: PhysicalScales
    sigma: float = TWO_PI

    def __post_init__(self):
        if not (0.0 < self.sigma <= TWO_PI):
            raise ValueError(f"sigma must lie in (0, 2*pi], got {self.sigma!r}")
        for name, value in self._derived().items():
            if not (0.0 < value < math.inf):
                raise ValueError(f"derived value {name} = {value!r} is not a positive finite number")

    def _derived(self) -> dict[str, float]:
        """The values derived from the scales, by their names in ``lines``."""
        s = self.scales
        values = {"l_c/l_m": s.rho_u, "2*pi*l_c^2": TWO_PI * (s.l_c * s.l_c),
                  "2*pi*p_c^2": TWO_PI * (s.p_c * s.p_c), "l_max": self.l_max,
                  "2*pi*(l_c/sqrt(theta))*l_c": self.hall_l_max}
        return {name: value for name, value in values.items() if value is not None}

    @property
    def l_max(self) -> float:
        return self.sigma * self.scales.rho_u * self.scales.l_c

    @property
    def hall_minimal_length(self) -> float | None:
        return None if self.scales.theta is None else math.sqrt(self.scales.theta)

    @property
    def hall_l_max(self) -> float | None:
        lm, l_c = self.hall_minimal_length, self.scales.l_c
        return None if lm is None else TWO_PI * (l_c / lm) * l_c

    def lines(self) -> list[str]:
        s, derived = self.scales, self._derived()
        out = [
            f"characteristic length  l_c = {s.l_c:.9g} m",
            f"characteristic momentum p_c = {s.p_c:.9g}",
            f"minimal length         l_m = {s.l_m:.9g} m   (ratio l_c/l_m = {s.rho_u:.9g})",
            f"position inequality:  delta_N(Q) * Delta_N(Q) <= 2*pi*l_c^2 "
            f"= {derived['2*pi*l_c^2']:.9g} m^2",
            f"momentum inequality:  delta_N(P) * Delta_N(P) <= 2*pi*p_c^2 "
            f"= {derived['2*pi*p_c^2']:.9g}",
            f"maximal observable length (sigma = {self.sigma:.9g}): "
            f"l_max = sigma * (l_c/l_m) * l_c = {self.l_max:.9g} m",
        ]
        if s.theta is not None:
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
    """The bounds at sigma, by default its 2*pi limit; ``spectrum_summary`` gives finite-N ones."""
    return BoundsReport(scales, sigma)


def solve_characteristic_length(l_m: float, universe_size: float) -> float:
    """Inverse problem: l_c with l_m * L = 2*pi * l_c^2.

    Given a minimal length and a largest observable size, returns the
    characteristic length that makes the bound tight.  Both must be positive
    finite numbers.  Formed from their roots, l_c cannot overflow; one that
    rounds to 0 raises ValueError naming it.
    """
    _check_positive_finite("l_m", l_m)
    _check_positive_finite("universe_size", universe_size)
    l_c = math.sqrt(l_m) * math.sqrt(universe_size) / math.sqrt(TWO_PI)
    if l_c == 0.0:
        raise ValueError(f"derived value l_c = {l_c!r} is not a positive finite number")
    return l_c
