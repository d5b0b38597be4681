"""Lower symbols (coherent-state expectation values) and phase-space grids.

The authoritative definition of a lower symbol is the matrix sandwich
<z|A|z>.  For the position/momentum family there are closed forms in the
partial sums S_m = sum_{j<m} t_j of t_j = |z|^{2j}/j!:

    <z|Q|z> = C q,   <z|P|z> = C p,   <z|H|z> = A = |z|^2 d + half
    <z|Q^2|z> = A + B = half + d q^2,   <z|P^2|z> = A - B = half + d p^2

with C = S_{N-1}/S_N, d = S_{N-2}/S_N, half = (C + (N-1) t_{N-1}/S_N)/2
and B = d (q^2 - p^2)/2, ratios that ``_closed_forms`` takes from one
recurrence at any finite |z|^2, so each symbol is a sum of nonnegative
terms.  The tests hold them to the sandwich and to mpmath.  A
``SymbolGrid`` is its kind, dimension and axes; it evaluates its values
once, pure and row-major deterministic, in blocks of q-rows whose
temporaries stay in cache, and CSV export reads it in the same blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .frame import PhasePoint, as_dimension, check_memory, coherent_state, squared_radius

if TYPE_CHECKING:  # a grid needs no operator, so lower-symbols loads no operators or spectra
    from .operators import OperatorMatrix

# A variance is ``half`` less a nonnegative term: down to this fraction of
# ``half`` it is roundoff and clamped to zero, and anything lower is raised.
_VARIANCE_CLAMP = -1e-14

# Peak bytes per cell of the lower-symbols command, which a ``SymbolGrid``
# checks before it allocates.  Under tracemalloc, at 801 x 801: the grid
# alone peaks at 9.5 bytes per cell (its values, 8, and one block's
# temporaries), and the command with its export at 41.0 as CSV and 59.3 as
# JSON.  Python 3.11's json encoder also holds formatted values in batches
# before it joins them, up to 3.4 MB more, most at about 50,000 cells.
_GRID_BYTES_PER_CELL = 64

# Cells in one block of q-rows: a block's seven doubles per cell fit in cache.
_BLOCK_CELLS = 16384

_Axis = tuple[float, float, int]  # (min, max, steps) of a grid axis


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
    overflows, and ``squared_radius`` refuses one that is not finite.  Once
    every y is 0.0 it stays so, and the loop stops (checked every 64 steps)
    with the same bits: C = d = 1 and both last terms are 0.  Arrays are
    updated in place, apart from each step's denominator.
    """
    r2 = squared_radius(q, p)
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


def _square(x, r2, c, d, half, g):
    """half + d x^2: <z|Q^2|z> = A + B at x = q and <z|P^2|z> = A - B at x = p,
    each a sum of nonnegative terms where A + B cancels when B < 0."""
    return d * (x * x) + half


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
    "Q2": GridKind("position-squared symbol", 12, lambda q, p, *f: _square(q, *f)),
    "P2": GridKind("momentum-squared symbol", 12, lambda q, p, *f: _square(p, *f)),
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
    def pair(q, p, r2, c, d, half, g):
        return _energy(q, p, r2, c, d, half, g), d * (q * q - p * p) / 2.0

    a_val, b_val = _at_point(n_dim, x.q, x.p, pair)
    return float(a_val), float(b_val)


def uncertainty_product(n_dim: int, x: PhasePoint) -> float:
    """Spread product (dQ)(dP) in the coherent state at x.

    Equals exactly 1/2 at the origin for every N >= 2; for N = 2 the value
    1/2 is a supremum approached from below at large |z|.
    """
    return float(_at_point(n_dim, x.q, x.p, _spread_product))


@dataclass(frozen=True, eq=False)
class SymbolGrid:
    """One kind of ``GRID_KINDS`` over a (q, p) grid, which is its four inputs.

    They are checked once: the kind, the dimension, and two (min, max, steps)
    axes with finite min < max and an integer steps >= 2; then the memory,
    before any axis is allocated; then |z|^2 at the axes' farthest corner,
    the largest of the grid, before any value is computed.  ``values[i, j]``,
    the value at (q_i, p_j), is one read-only array that the grid allocates
    and fills in blocks of about ``_BLOCK_CELLS`` cells, whole q-rows each,
    from the kind's rule on each block; CSV export is row-major in that
    order.  A grid compares and hashes by identity, as its array cannot.
    """

    which: str
    n_dim: int
    q_range: _Axis
    p_range: _Axis
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.which not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.which!r}; expected one of {tuple(GRID_KINDS)}")
        object.__setattr__(self, "n_dim", as_dimension(self.n_dim, 1, "n_dim"))
        for name in ("q_range", "p_range"):
            lo, hi, steps = getattr(self, name)
            if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
                raise ValueError(f"grid steps must be an integer, got {steps!r}")
            if steps < 2:
                raise ValueError(f"grid needs at least 2 steps per axis, got {steps}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"grid range must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"grid range must satisfy min < max, got ({lo}, {hi})")
            object.__setattr__(self, name, (float(lo), float(hi), int(steps)))
        check_memory(_GRID_BYTES_PER_CELL * self.q_range[2] * self.p_range[2],
                     f"the arrays of a {self.q_range[2]} x {self.p_range[2]} grid")
        q_axis, p = self.q_axis, self.p_axis[None, :]
        # |z|^2 grows with |q| and |p|, so the corner farthest out has the largest
        squared_radius(np.max(np.abs(q_axis)), np.max(np.abs(p)))
        rule = GRID_KINDS[self.which].value
        values = np.empty((q_axis.size, p.size))
        for rows in _row_blocks(self):
            q = q_axis[rows, None]
            values[rows] = rule(q, p, *_closed_forms(self.n_dim, q, p))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def q_axis(self) -> np.ndarray:
        return np.linspace(*self.q_range)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(*self.p_range)


def _row_blocks(grid: SymbolGrid) -> list[slice]:
    """The grid's q-rows in blocks of about ``_BLOCK_CELLS`` cells, whole rows each."""
    q_steps, p_steps = grid.q_range[2], grid.p_range[2]
    step = max(1, _BLOCK_CELLS // p_steps)
    return [slice(lo, lo + step) for lo in range(0, q_steps, step)]


def symbol_grid(n_dim: int, which: str, q_range: _Axis, p_range: _Axis) -> SymbolGrid:
    """Evaluate one kind of ``GRID_KINDS`` over a (q, p) grid; see ``SymbolGrid``."""
    return SymbolGrid(which, n_dim, q_range, p_range)


def grid_to_csv(grid: SymbolGrid) -> str:
    """Row-major CSV with header q,p,value; 9 significant digits.

    Each axis value is formatted once and the values are read as Python
    floats, one block of q-rows at a time (the grid's own blocks), which
    format about four times faster than numpy scalars and print the same
    digits.  A q-row is one ``%`` template over its values, which ``"%.9g"``
    prints as ``f"{v:.9g}"`` does, joined from the grid's row tails
    ``,p,%.9g`` with the row's q between them.
    """
    tails = [f",{pv:.9g},%.9g\n" for pv in grid.p_axis.tolist()]
    q_axis, lines = grid.q_axis, ["q,p,value\n"]
    for rows in _row_blocks(grid):
        for qv, row in zip(q_axis[rows].tolist(), grid.values[rows].tolist()):
            q = f"{qv:.9g}"
            lines.append((q + q.join(tails)) % tuple(row))
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
    label = GRID_KINDS[grid.which].label
    return "\n".join(
        [
            f"# surface plot of the {label} at dimension {grid.n_dim}",
            "set datafile separator ','",
            "set xlabel 'q'",
            "set ylabel 'p'",
            f"set zlabel '{label}'",
            "set hidden3d",
            f"set dgrid3d {grid.q_range[2]},{grid.p_range[2]}",
            f"splot '{csv_name}' every ::1 using 1:2:3 with lines notitle",
        ]
    ) + "\n"
