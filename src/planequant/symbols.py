"""Lower symbols (coherent-state expectation values) and phase-space grids.

The authoritative definition of a lower symbol is the matrix sandwich
<z|A|z>.  For the position/momentum family there are closed forms in the
partial sums S_m = sum_{j<m} t_j of t_j = |z|^{2j}/j!:

    <z|Q|z> = C q,   <z|P|z> = C p
    <z|Q^2|z> = A + B,    <z|P^2|z> = A - B,    <z|H|z> = A

with C = S_{N-1}/S_N, d = S_{N-2}/S_N, B = d (q^2 - p^2)/2 and
A = |z|^2 d + (C + (N-1) t_{N-1}/S_N)/2, all ratios that ``_closed_forms``
takes from one recurrence at any finite |z|^2.  They are cross-validated
against the sandwich and mpmath in the tests; B depends on the complex
point through q^2 - p^2, not only on |z|.

Grid sweeps are pure and row-major deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .frame import PhasePoint, as_dimension, check_memory, coherent_state
from .operators import OperatorMatrix

# A variance is ``half`` less a nonnegative term: down to this fraction of
# ``half`` it is roundoff and clamped to zero, and anything lower is raised.
_VARIANCE_CLAMP = -1e-14

# Peak bytes per cell of ``symbol_grid``: the tracemalloc peak of an 801 x 801
# grid is at most 36.1 MB, 56 bytes (7 doubles) per cell, for every kind and N.
_GRID_BYTES_PER_CELL = 56


def lower_symbol(op: OperatorMatrix, x: PhasePoint) -> complex:
    """<z|A|z> for the coherent state at x; real to roundoff when A is Hermitian."""
    state = coherent_state(op.dim, x)
    return complex(np.vdot(state.coeffs, op.entries @ state.coeffs))


def _closed_forms(n_dim: int, q, p):
    """(r2, C, d, half, g) at the point (q, p) of floats, or at the points of
    arrays q and p broadcast against each other.

    half = (C + (N-1) t_{N-1}/S_N)/2 and g = (t_{N-2} - C t_{N-1})/S_N =
    C^2 - d >= 0.  y_m = r2 t_{m-1}/S_m runs from y_1 = r2 by
    y_{m+1} = r2 y_m/(y_m + m), and S_m/S_{m+1} = m/(y_m + m).  A step
    divides before it multiplies and subtracts nothing, so no finite r2
    overflows; one that is not finite raises ``ValueError``.  Once every y
    is 0.0 it stays so, and the loop stops (checked every 64 steps) with
    the same bits: C = d = 1 and both last terms are 0.  Arrays are updated
    in place, apart from each step's denominator.
    """
    with np.errstate(over="ignore"):
        r2 = (q * q + p * p) / 2.0
    if not float(np.max(r2)) < math.inf:
        raise ValueError(f"|z|^2 = (q^2 + p^2)/2 must be finite, got {np.max(r2)}")
    if n_dim == 1:  # C = d = 0, and no variance
        zero = 0.0 * r2
        return r2, zero, zero, zero, zero
    # S_{N-2}/S_{N-1} and t_{N-2}/S_{N-1}, as they are at N = 2 and after a stop
    y, d, t2 = r2 + 0.0, float(n_dim > 2), float(n_dim == 2)
    for m in range(1, n_dim - 1):
        den = y + m
        y /= den
        if m == n_dim - 2:
            t2, d = y + 0.0, m / den
        y *= r2
        if m % 64 == 0 and not np.any(y):
            break
    den = y + (n_dim - 1)
    y /= den  # t_{N-1}/S_N
    c = (n_dim - 1) / den
    d *= c
    t2 *= c
    t2 -= y * c
    y *= n_dim - 1  # y becomes half
    y += c
    y /= 2.0
    return r2, c, d, y, t2


def _energy(q, p, r2, c, d, half, g):
    """A = r2 d + half, a sum of nonnegative terms and exactly 1/2 at the origin."""
    return r2 * d + half


def _anisotropy(q, p, r2, c, d, half, g):
    """B = d (q^2 - p^2)/2."""
    return d * (q * q - p * p) / 2.0


def _spread_product(q, p, r2, c, d, half, g):
    """(dQ)(dP) = sqrt(var_Q var_P), with var_Q = A + B - (C q)^2 = half - q^2 g
    and var_P = half - p^2 g; a variance below ``_VARIANCE_CLAMP`` times
    ``half`` raises ``ArithmeticError``."""
    # 0-d arrays at one point, so that the updates below stay in place
    var_q, var_p = np.asarray(q * q * g), np.asarray(p * p * g)
    for name, var in (("Q", var_q), ("P", var_p)):
        np.subtract(half, var, out=var)
        if np.min(var) < 0.0 and np.any(var < _VARIANCE_CLAMP * half):
            raise ArithmeticError(f"negative {name} variance {np.min(var)} beyond roundoff clamp")
        np.maximum(var, 0.0, out=var)
    var_q *= var_p
    return np.sqrt(var_q, out=var_q)


class GridKind(NamedTuple):
    """One grid kind: its plot label, its command-line default N, and its value rule."""

    label: str
    default_dim: int
    value: Callable  # (q, p, *_closed_forms(N, q, p)) -> the grid's values


GRID_KINDS = {
    "Q2": GridKind("position-squared symbol", 12, lambda *f: _energy(*f) + _anisotropy(*f)),
    "P2": GridKind("momentum-squared symbol", 12, lambda *f: _energy(*f) - _anisotropy(*f)),
    "H": GridKind("energy symbol", 5, _energy),
    "UNCERTAINTY": GridKind("spread product", 10, _spread_product),
    "C": GridKind("corrective factor", 12, lambda q, p, r2, c, *_: c),
}


def _at_point(n_dim: int, q: float, p: float, value: Callable):
    """``value`` at the one point (q, p), by the grids' own code on floats."""
    q, p = float(q), float(p)
    return value(q, p, *_closed_forms(as_dimension(n_dim, 1, "n_dim"), q, p))


def corrective_factor(n_dim: int, r: float) -> float:
    """Radial factor C(r) relating <z|Q|z> to q; in (0, 1], decreasing in r.

    C(r) = S_{N-1}(r^2) / S_N(r^2) tends to 1 as N grows.
    """
    if not (r >= 0.0):
        raise ValueError(f"r must be nonnegative, got {r!r}")
    # C depends on |z|^2 alone, which at (q, p) = (r, r) is r^2 exactly (finite below r = 9.4e153)
    return float(_at_point(n_dim, r, r, GRID_KINDS["C"].value))


def quadratic_symbols(n_dim: int, x: PhasePoint) -> tuple[float, float]:
    """The pair (A, B) with <z|Q^2|z> = A + B, <z|P^2|z> = A - B, <z|H|z> = A."""
    a_val, b_val = _at_point(n_dim, x.q, x.p, lambda *f: (_energy(*f), _anisotropy(*f)))
    return float(a_val), float(b_val)


def uncertainty_product(n_dim: int, x: PhasePoint) -> float:
    """Spread product (dQ)(dP) in the coherent state at x.

    Equals exactly 1/2 at the origin for every N >= 2; for N = 2 the value
    1/2 is a supremum approached from below at large |z|.
    """
    return float(_at_point(n_dim, x.q, x.p, _spread_product))


def _check_kind(which: str) -> None:
    """ValueError unless ``which`` is one of ``GRID_KINDS``."""
    if which not in GRID_KINDS:
        raise ValueError(f"unknown grid kind {which!r}; expected one of {tuple(GRID_KINDS)}")


def _check_axes(*ranges: tuple[float, float, int]) -> list[tuple[float, float, int]]:
    """Every (min, max, steps) axis as Python (float, float, int); ValueError
    unless min < max are finite and steps is an integer (not bool) >= 2."""
    for lo, hi, steps in ranges:
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise ValueError(f"grid steps must be an integer, got {steps!r}")
        if steps < 2:
            raise ValueError(f"grid needs at least 2 steps per axis, got {steps}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid range must be finite, got ({lo}, {hi})")
        if not lo < hi:
            raise ValueError(f"grid range must satisfy min < max, got ({lo}, {hi})")
    return [(float(lo), float(hi), int(steps)) for lo, hi, steps in ranges]


@dataclass(frozen=True, eq=False)
class SymbolGrid:
    """Dense phase-space evaluation of one symbol family member.

    ``values[i, j]`` is the value at (q_i, p_j); CSV export is row-major in
    that order.  The grid holds a read-only copy of the values it is given,
    and compares and hashes by identity, as the array cannot.
    """

    which: str
    n_dim: int
    q_range: tuple[float, float, int]
    p_range: tuple[float, float, int]
    values: np.ndarray

    def __post_init__(self):
        _check_kind(self.which)
        q_range, p_range = _check_axes(self.q_range, self.p_range)
        object.__setattr__(self, "n_dim", as_dimension(self.n_dim, 1, "n_dim"))
        object.__setattr__(self, "q_range", q_range)
        object.__setattr__(self, "p_range", p_range)
        vals = np.array(self.values, dtype=float)
        expected = (self.q_range[2], self.p_range[2])
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} does not match grid {expected}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def q_axis(self) -> np.ndarray:
        lo, hi, steps = self.q_range
        return np.linspace(lo, hi, steps)

    @property
    def p_axis(self) -> np.ndarray:
        lo, hi, steps = self.p_range
        return np.linspace(lo, hi, steps)


def symbol_grid(
    n_dim: int,
    which: str,
    q_range: tuple[float, float, int],
    p_range: tuple[float, float, int],
) -> SymbolGrid:
    """Evaluate one kind of ``GRID_KINDS`` over a (q, p) grid.

    Every argument, and the memory the grid needs, is checked before the
    grid is allocated.
    """
    _check_kind(which)
    n_dim = as_dimension(n_dim, 1, "n_dim")
    q_range, p_range = _check_axes(q_range, p_range)
    check_memory(_GRID_BYTES_PER_CELL * q_range[2] * p_range[2],
                 f"the arrays of a {q_range[2]} x {p_range[2]} grid")
    q = np.linspace(*q_range[:2], q_range[2])
    p = np.linspace(*p_range[:2], p_range[2])
    q, p = q[:, None], p[None, :]
    vals = GRID_KINDS[which].value(q, p, *_closed_forms(n_dim, q, p))
    return SymbolGrid(which=which, n_dim=n_dim, q_range=q_range, p_range=p_range, values=vals)


def grid_to_csv(grid: SymbolGrid) -> str:
    """Row-major CSV with header q,p,value; 9 significant digits.

    Each axis value is formatted once and the values are read as Python
    floats, which format about four times faster than numpy scalars and
    print the same digits.  A q-row is one ``%`` template over its values,
    which ``"%.9g"`` prints as ``f"{v:.9g}"`` does.
    """
    ps = [f"{pv:.9g}" for pv in grid.p_axis.tolist()]
    lines = ["q,p,value\n"]
    for qv, row in zip(grid.q_axis.tolist(), grid.values.tolist()):
        q = f"{qv:.9g}"
        lines.append("".join([f"{q},{p},%.9g\n" for p in ps]) % tuple(row))
    return "".join(lines)


def grid_to_json(grid: SymbolGrid) -> str:
    return json.dumps(
        {
            "which": grid.which,
            "n_dim": grid.n_dim,
            "q_range": list(grid.q_range),
            "p_range": list(grid.p_range),
            "values": grid.values.ravel().tolist(),
        }
    )


def grid_gnuplot_script(grid: SymbolGrid, csv_name: str) -> str:
    """Gnuplot surface-plot script rendering a grid CSV."""
    steps_q = grid.q_range[2]
    steps_p = grid.p_range[2]
    label = GRID_KINDS[grid.which].label
    return "\n".join(
        [
            f"# surface plot of the {label} at dimension {grid.n_dim}",
            "set datafile separator ','",
            "set xlabel 'q'",
            "set ylabel 'p'",
            f"set zlabel '{label}'",
            "set hidden3d",
            f"set dgrid3d {steps_q},{steps_p}",
            f"splot '{csv_name}' every ::1 using 1:2:3 with lines notitle",
        ]
    ) + "\n"
