"""Lower symbols (coherent-state expectation values) and phase-space grids.

The authoritative definition of a lower symbol is the matrix sandwich
<z|A|z>.  For the position/momentum family there are closed forms built
from truncated exponential sums:

    <z|Q|z> = C(|z|) q,   <z|P|z> = C(|z|) p
    <z|Q^2|z> = A + B,    <z|P^2|z> = A - B,    <z|H|z> = A

with C = S_{N-1}/S_N, B = (q^2 - p^2)/2 * S_{N-2}/S_N and
A = (|z|^2 + N/2) C - (N-1)/2, where S_m = sum_{j<m} |z|^{2j}/j! comes from
``frame.exp_partial_sums``.  The closed forms are fast paths, cross-validated
against the sandwich and 50-digit mpmath in the tests; B depends on the
complex point through q^2 - p^2, not only on |z|.

Grid sweeps are pure and row-major deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .frame import PhasePoint, as_dimension, check_memory, coherent_state, exp_partial_sums
from .operators import OperatorMatrix

# Tiny negative variances from roundoff are clamped to zero; anything more
# negative indicates a genuine fault and is raised.
_VARIANCE_CLAMP = -1e-14

# Peak bytes per cell of ``symbol_grid``: the tracemalloc peak of an 801 x 801
# grid is 56.5 MB, 88 bytes (11 doubles) per cell, for every kind and N.
_GRID_BYTES_PER_CELL = 88


def lower_symbol(op: OperatorMatrix, x: PhasePoint) -> complex:
    """<z|A|z> for the coherent state at x; real to roundoff when A is Hermitian."""
    state = coherent_state(op.dim, x)
    return complex(np.vdot(state.coeffs, op.entries @ state.coeffs))


def _closed_forms(n_dim: int, r2, q, p):
    """(C, A, B) at the points (q, p) with r2 = (q^2 + p^2)/2, vectorized.

    A = sum_k t_k e_k / S_N over the terms t_k = r2^k/k! and the diagonal
    energies e_k = k + 1/2, except e_{N-1} = (N-1)/2, which sits N/2 lower.
    With sum_{k<N-1} k t_k = r2 S_{N-2} and t_{N-1} = S_N - S_{N-1} that is
    r2 S_{N-2}/S_N + (C + (N-1) t_{N-1}/S_N)/2 = (r2 + N/2) C - (N-1)/2.
    The first form is the one evaluated: its terms are all nonnegative, so
    nothing cancels (the second loses ulp(N/2) for r2 << N), and it is
    exactly 1/2 at the origin.
    """
    s_nm2, s_nm1, s_n = exp_partial_sums(n_dim, r2)
    c, d = s_nm1 / s_n, s_nm2 / s_n
    a_val = r2 * d + (c + (n_dim - 1) * ((s_n - s_nm1) / s_n)) / 2.0
    return c, a_val, d * (q * q - p * p) / 2.0


def _spread_product(c, a_val, b_val, q, p):
    """(dQ)(dP) from the closed forms at the points (q, p), vectorized.

    Variances down to ``_VARIANCE_CLAMP`` are roundoff and count as zero; a
    more negative one raises ``ArithmeticError``.
    """
    var_q = a_val + b_val - (c * q) ** 2
    var_p = a_val - b_val - (c * p) ** 2
    for name, var in (("Q", var_q), ("P", var_p)):
        lowest = float(np.min(var))
        if lowest < _VARIANCE_CLAMP:
            raise ArithmeticError(f"negative {name} variance {lowest} beyond roundoff clamp")
    return np.sqrt(np.maximum(var_q, 0.0) * np.maximum(var_p, 0.0))


class GridKind(NamedTuple):
    """One grid kind: its plot label, its command-line default N, and its value rule."""

    label: str
    default_dim: int
    value: Callable  # (C, A, B, q, p) of the closed forms -> the grid's values


GRID_KINDS = {
    "Q2": GridKind("position-squared symbol", 12, lambda c, a, b, q, p: a + b),
    "P2": GridKind("momentum-squared symbol", 12, lambda c, a, b, q, p: a - b),
    "H": GridKind("energy symbol", 5, lambda c, a, b, q, p: a),
    "UNCERTAINTY": GridKind("spread product", 10, _spread_product),
    "C": GridKind("corrective factor", 12, lambda c, a, b, q, p: c),
}


def corrective_factor(n_dim: int, r: float) -> float:
    """Radial factor C(r) relating <z|Q|z> to q; in (0, 1], decreasing in r.

    C(r) = S_{N-1}(r^2) / S_N(r^2) tends to 1 as N grows.
    """
    if not (r >= 0.0):
        raise ValueError(f"r must be nonnegative, got {r!r}")
    c, _, _ = _closed_forms(n_dim, r * r, r, 0.0)
    return float(c)


def quadratic_symbols(n_dim: int, x: PhasePoint) -> tuple[float, float]:
    """The pair (A, B) with <z|Q^2|z> = A + B, <z|P^2|z> = A - B, <z|H|z> = A."""
    _, a_val, b_val = _closed_forms(n_dim, x.r2, x.q, x.p)
    return float(a_val), float(b_val)


def uncertainty_product(n_dim: int, x: PhasePoint) -> float:
    """Spread product (dQ)(dP) in the coherent state at x.

    Equals exactly 1/2 at the origin for every N >= 2; for N = 2 the value
    1/2 is a supremum approached from below at large |z|.
    """
    c, a_val, b_val = _closed_forms(n_dim, x.r2, x.q, x.p)
    return float(_spread_product(c, a_val, b_val, x.q, x.p))


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
    qg, pg = np.meshgrid(q, p, indexing="ij")
    r2 = (qg * qg + pg * pg) / 2.0
    vals = GRID_KINDS[which].value(*_closed_forms(n_dim, r2, qg, pg), qg, pg)
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
