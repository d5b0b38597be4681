"""Lower symbols (coherent-state expectation values) and phase-space grids.

The authoritative definition of a lower symbol is the matrix sandwich
<z|A|z>.  For the position/momentum family there are closed forms built
from truncated exponential sums:

    <z|Q|z> = C(|z|) q,   <z|P|z> = C(|z|) p
    <z|Q^2|z> = A + B,    <z|P^2|z> = A - B,    <z|H|z> = A

with C = S_{N-1}/S_N, B = (q^2 - p^2)/2 * S_{N-2}/S_N and A the energy-
weighted sum, where S_m = sum_{j<m} |z|^{2j}/j!.  The closed forms are fast
paths, cross-validated against the sandwich in the tests; B depends on the
complex point through q^2 - p^2, not only on |z|.

Grid sweeps are pure and row-major deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeOverflowError
from .frame import OVERFLOW_R2, PhasePoint, as_dimension, coherent_state
from .operators import OperatorMatrix

# Tiny negative variances from roundoff are clamped to zero; anything more
# negative indicates a genuine fault and is raised.
_VARIANCE_CLAMP = -1e-14

GRID_KINDS = ("Q2", "P2", "H", "UNCERTAINTY", "C")


def lower_symbol(op: OperatorMatrix, x: PhasePoint) -> complex:
    """<z|A|z> for the coherent state at x; real to roundoff when A is Hermitian."""
    state = coherent_state(op.dim, x)
    return complex(np.vdot(state.coeffs, op.entries @ state.coeffs))


def _closed_forms(n_dim: int, r2, q, p):
    """(C, A, B) at the points (q, p) with r2 = (q^2 + p^2)/2, vectorized.

    C = S_{N-1}/S_N, A = A_num/S_N and B = (q^2 - p^2)/2 * S_{N-2}/S_N, where
    S_m = sum_{j<m} r2^j/j! and A_num = sum_{k=1..N} r2^{k-1}/(k-1)! * e_k
    with e_k the k-th diagonal energy (k - 1/2, except (N-1)/2 at k = N).
    """
    r2 = np.asarray(r2, dtype=float)
    term = np.ones_like(r2)
    total = np.zeros_like(r2)
    s_nm1 = np.zeros_like(r2)
    s_nm2 = np.zeros_like(r2)
    a_num = np.zeros_like(r2)
    for j in range(n_dim):
        if j > 0:
            term = term * r2 / j
        total = total + term
        k = j + 1
        energy = (2 * k - 1 - (n_dim if k == n_dim else 0)) / 2.0
        a_num = a_num + term * energy
        if j == n_dim - 3:
            s_nm2 = total.copy()
        if j == n_dim - 2:
            s_nm1 = total.copy()
    return s_nm1 / total, a_num / total, s_nm2 / total * (q * q - p * p) / 2.0


def _check_range(r2: float) -> None:
    if r2 > OVERFLOW_R2:
        raise RangeOverflowError(
            f"|z|^2 = {r2} exceeds the linear-scale limit {OVERFLOW_R2}"
        )


def corrective_factor(n_dim: int, r: float) -> float:
    """Radial factor C(r) relating <z|Q|z> to q; in (0, 1], decreasing in r.

    C(r) = S_{N-1}(r^2) / S_N(r^2) tends to 1 as N grows.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    if not (r >= 0.0):
        raise ValueError(f"r must be nonnegative, got {r!r}")
    _check_range(r * r)
    c, _, _ = _closed_forms(n_dim, r * r, r, 0.0)
    return float(c)


def quadratic_symbols(n_dim: int, x: PhasePoint) -> tuple[float, float]:
    """The pair (A, B) with <z|Q^2|z> = A + B, <z|P^2|z> = A - B, <z|H|z> = A."""
    n_dim = as_dimension(n_dim, 1, "n_dim")
    r2 = x.r2
    _check_range(r2)
    _, a_val, b_val = _closed_forms(n_dim, r2, x.q, x.p)
    return float(a_val), float(b_val)


def uncertainty_product(n_dim: int, x: PhasePoint) -> float:
    """Spread product (dQ)(dP) in the coherent state at x.

    Equals exactly 1/2 at the origin for every N >= 2; for N = 2 the value
    1/2 is a supremum approached from below at large |z|.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    r2 = x.r2
    _check_range(r2)
    c, a_val, b_val = _closed_forms(n_dim, r2, x.q, x.p)
    var_q = float(a_val + b_val - (c * x.q) ** 2)
    var_p = float(a_val - b_val - (c * x.p) ** 2)
    for name, v in (("Q", var_q), ("P", var_p)):
        if v < _VARIANCE_CLAMP:
            raise ArithmeticError(f"negative {name} variance {v} beyond roundoff clamp")
    return math.sqrt(max(var_q, 0.0) * max(var_p, 0.0))


def _check_axes(*ranges: tuple[float, float, int]) -> None:
    """Raise ValueError unless every (min, max, steps) axis has min < max, steps >= 2."""
    for lo, hi, steps in ranges:
        if steps < 2:
            raise ValueError(f"grid needs at least 2 steps per axis, got {steps}")
        if not lo < hi:
            raise ValueError(f"grid range must satisfy min < max, got ({lo}, {hi})")


@dataclass(frozen=True)
class SymbolGrid:
    """Dense phase-space evaluation of one symbol family member.

    ``values[i, j]`` is the value at (q_i, p_j); CSV export is row-major in
    that order.
    """

    which: str
    n_dim: int
    q_range: tuple[float, float, int]
    p_range: tuple[float, float, int]
    values: np.ndarray

    def __post_init__(self):
        _check_axes(self.q_range, self.p_range)
        vals = np.asarray(self.values, dtype=float)
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
    """Evaluate one of Q2 | P2 | H | UNCERTAINTY | C over a (q, p) grid.

    Every argument is checked before the grid is allocated.
    """
    if which not in GRID_KINDS:
        raise ValueError(f"unknown grid kind {which!r}; expected one of {GRID_KINDS}")
    n_dim = as_dimension(n_dim, 1, "n_dim")
    _check_axes(q_range, p_range)
    q = np.linspace(*q_range[:2], q_range[2])
    p = np.linspace(*p_range[:2], p_range[2])
    qg, pg = np.meshgrid(q, p, indexing="ij")
    r2 = (qg * qg + pg * pg) / 2.0
    if float(r2.max()) > OVERFLOW_R2:
        raise RangeOverflowError(
            f"grid reaches |z|^2 = {float(r2.max()):.1f} beyond the linear-scale limit"
        )
    c, a_val, b_val = _closed_forms(n_dim, r2, qg, pg)
    if which == "Q2":
        vals = a_val + b_val
    elif which == "P2":
        vals = a_val - b_val
    elif which == "H":
        vals = a_val
    elif which == "C":
        vals = c
    else:  # UNCERTAINTY
        var_q = np.maximum(a_val + b_val - (c * qg) ** 2, 0.0)
        var_p = np.maximum(a_val - b_val - (c * pg) ** 2, 0.0)
        vals = np.sqrt(var_q * var_p)
    return SymbolGrid(which=which, n_dim=n_dim, q_range=q_range, p_range=p_range, values=vals)


def grid_to_csv(grid: SymbolGrid) -> str:
    """Row-major CSV with header q,p,value; 9 significant digits.

    Each axis value is formatted once and the values are read as Python
    floats, which format about four times faster than numpy scalars and
    print the same digits.
    """
    ps = [f"{pv:.9g}" for pv in grid.p_axis.tolist()]
    lines = ["q,p,value"]
    for qv, row in zip(grid.q_axis.tolist(), grid.values.tolist()):
        q = f"{qv:.9g}"
        lines.append("\n".join([f"{q},{p},{v:.9g}" for p, v in zip(ps, row)]))
    return "\n".join(lines) + "\n"


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
    label = {
        "Q2": "position-squared symbol",
        "P2": "momentum-squared symbol",
        "H": "energy symbol",
        "UNCERTAINTY": "spread product",
        "C": "corrective factor",
    }[grid.which]
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
