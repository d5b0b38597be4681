"""Tests for lower symbols, closed forms and phase-space grids.

The matrix sandwich is the authoritative definition; every closed form is
cross-checked against it here.
"""

import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planequant.frame import PhasePoint, coherent_state
from planequant import frame, symbols
from planequant.operators import (
    OperatorMatrix,
    hamiltonian,
    momentum_operator,
    position_operator,
)
from planequant.symbols import (
    GRID_KINDS,
    SymbolGrid,
    corrective_factor,
    grid_gnuplot_script,
    grid_to_csv,
    grid_to_json,
    lower_symbol,
    quadratic_symbols,
    symbol_grid,
    uncertainty_product,
)

SQRT2 = math.sqrt(2.0)


def _squared(op: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(op.entries @ op.entries)


def _per_cell_csv(grid: SymbolGrid) -> str:
    """The original per-cell export over numpy scalars, kept as the byte reference."""
    lines = ["q,p,value"]
    for i, qv in enumerate(grid.q_axis):
        for j, pv in enumerate(grid.p_axis):
            lines.append(f"{qv:.9g},{pv:.9g},{grid.values[i, j]:.9g}")
    return "\n".join(lines) + "\n"


def _per_value_json(grid: SymbolGrid) -> str:
    """The original JSON export over numpy scalars, kept as the byte reference."""
    return json.dumps(
        {
            "which": grid.which,
            "n_dim": grid.n_dim,
            "q_range": list(grid.q_range),
            "p_range": list(grid.p_range),
            "values": [float(v) for v in grid.values.ravel()],
        }
    )


def _export_grids() -> list:
    """Non-square grids whose axes cross -0.0/0.0 and whose axes and values
    print in fixed and exponent form."""
    return [
        pytest.param(symbol_grid(12, "Q2", (-6.0, 6.0, 7), (-6.0, 6.0, 4)), id="q2-7x4"),
        pytest.param(symbol_grid(5, "UNCERTAINTY", (-1.0, 1.0, 5), (-1e-5, -0.0, 3)),
                     id="spread-negative-zero-p"),
        pytest.param(symbol_grid(2, "C", (-37.0, 37.0, 3), (-0.0, 2e-5, 6)), id="c-large-z"),
        pytest.param(symbol_grid(3, "UNCERTAINTY", (-37.0, 37.0, 4), (-1e-9, 1e-9, 5)),
                     id="spread-tiny-p"),
        # C falls like (N - 1)/|z|^2, to about 1e-200 and 1e-240
        pytest.param(symbol_grid(3, "C", (1e100, 1e120, 3), (-2.0, 2.0, 5)), id="c-tiny-values"),
        # Q2 saturates at (N - 1)/2 = 5.5 far out, on axes in exponent form
        pytest.param(symbol_grid(12, "Q2", (-1e12, 1e12, 5), (-1e-7, 0.0, 3)),
                     id="q2-exponent-axes"),
    ]


def _mp_sample() -> list:
    """(N, q, p): 40 points per N, |q|, |p| <= 6 for N <= 12 and |q|, |p| <= 20
    with |z|^2 <= 700 for N = 64 and 200."""
    rng = np.random.default_rng(5)
    points = [(n, float(q), float(p)) for n in (2, 3, 5, 10, 12)
              for q, p in rng.uniform(-6.0, 6.0, (40, 2))]
    for n in (64, 200):
        kept = 0
        while kept < 40:
            q, p = rng.uniform(-20.0, 20.0, 2)
            if (q * q + p * p) / 2.0 <= 700.0:
                points.append((n, float(q), float(p)))
                kept += 1
    return points


# (N, |z|^2) past the linear-scale limit |z|^2 = 700, where e^{|z|^2} overflows
_BEYOND_THE_LIMIT = [(n, r2) for n in (3, 10, 64, 2000) for r2 in (900.0, 2000.0, 5e5)]

# the value of each grid kind in ``_mp_closed_forms``
_MP_KEYS = {"C": "C", "H": "A", "Q2": "A+B", "P2": "A-B", "UNCERTAINTY": "spread"}


def _mp_closed_forms(n_dim: int, q: float, p: float) -> dict:
    """C, A, A +- B and (dQ)(dP) at 50 digits, straight from their definitions:
    partial sums S_m and the energy-weighted sum over the diagonal of H."""
    with mpmath.workdps(50):
        q, p = mpmath.mpf(q), mpmath.mpf(p)
        r2 = (q * q + p * p) / 2
        term, sums, energy = mpmath.mpf(1), [0, 0], mpmath.mpf(0)
        for k in range(n_dim):
            if k:
                term = term * r2 / k
            sums.append(sums[-1] + term)
            energy += term * (k + mpmath.mpf(0.5) if k < n_dim - 1 else mpmath.mpf(n_dim - 1) / 2)
        s_nm2, s_nm1, s_n = sums[-3:]
        c, a_val = s_nm1 / s_n, energy / s_n
        b_val = (q * q - p * p) / 2 * s_nm2 / s_n
        var_q, var_p = a_val + b_val - (c * q) ** 2, a_val - b_val - (c * p) ** 2
        return {"C": c, "A": a_val, "A+B": a_val + b_val, "A-B": a_val - b_val,
                "spread": mpmath.sqrt(var_q * var_p)}


def _full_recurrence(n_dim: int, r2: float) -> tuple:
    """(C, d, half, g) by every step of the ratio recurrence, on Python floats."""
    if n_dim == 1:
        return 0.0, 0.0, 0.0, 0.0
    y, d, t2 = r2, float(n_dim > 2), float(n_dim == 2)
    for m in range(1, n_dim - 1):
        den = y + m
        y = y / den
        if m == n_dim - 2:
            t2, d = y, m / den
        y = y * r2
    den = y + (n_dim - 1)
    t1, c = y / den, (n_dim - 1) / den
    return c, d * c, (c + (n_dim - 1) * t1) / 2.0, t2 * c - t1 * c


def _relative_error(got: float, want) -> float:
    with mpmath.workdps(50):
        return float(abs((got - want) / want)) if want else abs(got)


def _traced_peak(build) -> int:
    """The tracemalloc peak of ``build()``."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLowerSymbol:
    def test_identity_sandwich_is_one(self):
        ident = OperatorMatrix(np.eye(9, dtype=complex))
        for point in (PhasePoint(0, 0), PhasePoint(1.5, -2.0)):
            assert lower_symbol(ident, point) == pytest.approx(1.0, abs=1e-12)

    def test_position_sandwich_matches_corrective_factor(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 12, 40):
            q_op = position_operator(n)
            for _ in range(10):
                q, p = rng.uniform(-4, 4, 2)
                x = PhasePoint(q, p)
                got = lower_symbol(q_op, x)
                want = corrective_factor(n, math.sqrt(x.r2)) * q
                assert abs(got - want) <= 1e-12
                assert abs(got.imag) <= 1e-12

    def test_momentum_sandwich_matches_corrective_factor(self):
        n = 11
        p_op = momentum_operator(n)
        x = PhasePoint(0.7, -1.9)
        want = corrective_factor(n, math.sqrt(x.r2)) * x.p
        assert abs(lower_symbol(p_op, x) - want) <= 1e-12

    def test_energy_sandwich_matches_radial_form(self):
        for n in (2, 5, 12):
            h = hamiltonian(n)
            for x in (PhasePoint(0, 0), PhasePoint(2.2, 1.1), PhasePoint(-3.0, 0.4)):
                a_val, _ = quadratic_symbols(n, x)
                assert abs(lower_symbol(h, x) - a_val) <= 1e-12

    def test_sandwiches_past_the_old_limit(self):
        # at |z|^2 = 5000 the sandwich holds every closed form as it does
        # below |z|^2 = 700, where the coherent state used to stop
        n, x = 64, PhasePoint(60.0, 80.0)
        c = corrective_factor(n, math.sqrt(x.r2))
        a_val, b_val = quadratic_symbols(n, x)
        q_op, p_op = position_operator(n), momentum_operator(n)
        for op, want in [(q_op, c * x.q), (p_op, c * x.p), (_squared(q_op), a_val + b_val),
                         (_squared(p_op), a_val - b_val), (hamiltonian(n), a_val)]:
            assert abs(lower_symbol(op, x) - want) <= 1e-12


class TestCorrectiveFactor:
    def test_unity_at_origin(self):
        for n in (2, 7, 100):
            assert corrective_factor(n, 0.0) == 1.0

    def test_two_level_value(self):
        assert corrective_factor(2, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_high_precision_oracle(self):
        # 50-digit evaluation of the partial-sum ratio at N = 12, r = 2
        assert corrective_factor(12, 2.0) == pytest.approx(0.99807370002086903, rel=1e-14)

    def test_matches_sandwich_along_real_axis(self):
        n = 12
        q_op = position_operator(n)
        for q in (0.5, 2.0, 2 * SQRT2, 5.0):
            x = PhasePoint(q, 0.0)
            sandwich = lower_symbol(q_op, x).real / q
            assert abs(corrective_factor(n, math.sqrt(x.r2)) - sandwich) <= 1e-12

    def test_in_unit_interval_and_decreasing(self):
        for n in (2, 5, 24):
            rs = np.linspace(0.0, 8.0, 60)
            vals = [corrective_factor(n, float(r)) for r in rs]
            assert all(0.0 < v <= 1.0 for v in vals)
            assert all(b < a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_tends_to_one_with_dimension(self):
        r = 2.0
        assert corrective_factor(400, r) == pytest.approx(1.0, abs=1e-12)

    def test_overflow_domain(self):
        # past |z|^2 = 700 the ratio is still accurate, as at r = 40 (|z|^2 = 1600)
        for n, r2 in _BEYOND_THE_LIMIT + [(5, 1600.0)]:
            r = math.sqrt(r2)
            with mpmath.workdps(50):
                want = _mp_closed_forms(n, r * mpmath.sqrt(2), 0.0)["C"]
            assert _relative_error(corrective_factor(n, r), want) <= 1e-15, (n, r2)


class TestQuadraticSymbols:
    def test_origin_values(self):
        for n in (2, 3, 9):
            a_val, b_val = quadratic_symbols(n, PhasePoint(0.0, 0.0))
            assert a_val == pytest.approx(0.5, abs=1e-15)
            assert b_val == 0.0

    def test_sandwich_agreement(self):
        rng = np.random.default_rng(11)
        for n in (2, 6, 12, 33):
            q2 = _squared(position_operator(n))
            p2 = _squared(momentum_operator(n))
            for _ in range(10):
                x = PhasePoint(*rng.uniform(-4, 4, 2))
                a_val, b_val = quadratic_symbols(n, x)
                assert abs(lower_symbol(q2, x) - (a_val + b_val)) <= 1e-12
                assert abs(lower_symbol(p2, x) - (a_val - b_val)) <= 1e-12

    def test_momentum_square_is_rotated_position_square(self):
        # the p^2 symbol at z equals the q^2 symbol at i*z
        n = 12
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = complex(*rng.uniform(-2, 2, 2))
            a1, b1 = quadratic_symbols(n, PhasePoint.from_z(z))
            a2, b2 = quadratic_symbols(n, PhasePoint.from_z(1j * z))
            assert a1 - b1 == pytest.approx(a2 + b2, abs=1e-12)

    def test_depends_on_complex_point_not_radius(self):
        # B carries q^2 - p^2, so points with equal |z| differ
        n = 8
        _, b_along_q = quadratic_symbols(n, PhasePoint(2.0, 0.0))
        _, b_along_p = quadratic_symbols(n, PhasePoint(0.0, 2.0))
        assert b_along_q == pytest.approx(-b_along_p, abs=1e-14)
        assert b_along_q > 0.0


class TestUncertaintyProduct:
    def test_minimal_at_origin(self):
        # exactly 1/2, from the scalar formula and from the grid's centre cell
        for n in range(2, 65):
            assert uncertainty_product(n, PhasePoint(0.0, 0.0)) == 0.5
            grid = symbol_grid(n, "UNCERTAINTY", (-1.0, 1.0, 3), (-1.0, 1.0, 3))
            assert grid.values[1, 1] == 0.5

    def test_two_level_supremum(self):
        for q in np.linspace(-12.0, 12.0, 121):
            for p in (0.0, 0.8):
                val = uncertainty_product(2, PhasePoint(float(q), p))
                assert val <= 0.5 + 1e-12

    def test_two_level_large_q_approaches_half_from_below(self):
        # exact rational value at q = 10, p = 0
        assert uncertainty_product(2, PhasePoint(10.0, 0.0)) == pytest.approx(
            0.48039215686274509, rel=1e-13
        )
        vals = [uncertainty_product(2, PhasePoint(q, 0.0)) for q in (10.0, 16.0, 24.0)]
        assert all(v < 0.5 for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_matches_sandwich_variances(self):
        rng = np.random.default_rng(23)
        for n in (2, 5, 17):
            q_op = position_operator(n)
            p_op = momentum_operator(n)
            q2 = _squared(q_op)
            p2 = _squared(p_op)
            for _ in range(8):
                x = PhasePoint(*rng.uniform(-3, 3, 2))
                vq = lower_symbol(q2, x).real - lower_symbol(q_op, x).real ** 2
                vp = lower_symbol(p2, x).real - lower_symbol(p_op, x).real ** 2
                want = math.sqrt(max(vq, 0.0) * max(vp, 0.0))
                assert uncertainty_product(n, x) == pytest.approx(want, abs=1e-11)

    def test_quarter_turn_and_reflection_invariance(self):
        # exact symmetries of the product: z -> iz, z -> -z, z -> conj(z).
        # (full rotational invariance only emerges with growing N.)
        rng = np.random.default_rng(17)
        for n in (2, 5, 12):
            for _ in range(8):
                z = complex(*rng.uniform(-2.5, 2.5, 2))
                base = uncertainty_product(n, PhasePoint.from_z(z))
                for w in (1j * z, -z, np.conj(z)):
                    assert uncertainty_product(n, PhasePoint.from_z(complex(w))) == pytest.approx(
                        base, abs=1e-12
                    )

    def test_saturated_plateau_grows_with_dimension(self):
        # length of the q-interval (p = 0) where the product sits within
        # 1e-6 of 1/2 increases with the dimension
        qs = np.linspace(0.0, 6.0, 301)
        widths = []
        for n in (5, 10, 15):
            flat = [uncertainty_product(n, PhasePoint(float(q), 0.0)) for q in qs]
            widths.append(sum(abs(v - 0.5) <= 1e-6 for v in flat))
        assert widths[0] < widths[1] < widths[2]


class TestHighPrecisionClosedForms:
    # worst relative error over the sample: C 3.0e-16, A 3.1e-16,
    # A + B 7.2e-15, A - B 8.3e-15 (the sum of A and B as a caller forms it),
    # (dQ)(dP) 1.2e-14 at N = 2 beside the zero of var_Q, where the product
    # itself is ill-conditioned (1.5e-15 at every other point)
    BOUNDS = {"C": 1e-15, "A": 1e-15, "A+B": 1e-14, "A-B": 1e-14, "spread": 2e-14}

    def test_closed_forms_against_mpmath(self):
        worst = dict.fromkeys(self.BOUNDS, 0.0)
        for n, q, p in _mp_sample():
            x = PhasePoint(q, p)
            a_val, b_val = quadratic_symbols(n, x)
            got = {"A": a_val, "A+B": a_val + b_val, "A-B": a_val - b_val,
                   "spread": uncertainty_product(n, x)}
            ref = _mp_closed_forms(n, q, p)
            # C(r) at the radius as corrective_factor takes it
            r = math.hypot(q, p) / SQRT2
            got["C"] = corrective_factor(n, r)
            with mpmath.workdps(50):
                ref["C"] = _mp_closed_forms(n, r * mpmath.sqrt(2), 0.0)["C"]
                for key, value in got.items():
                    worst[key] = max(worst[key], float(abs((value - ref[key]) / ref[key])))
        assert all(worst[key] <= bound for key, bound in self.BOUNDS.items()), worst

    @pytest.mark.parametrize("which", ["Q2", "P2"])
    def test_square_grid_cells_against_mpmath(self, which):
        # half + d q^2 and half + d p^2 add nonnegative terms: worst 3.6e-16
        # (Q2) and 3.7e-16 (P2) over the sample, where A + B and A - B reach
        # 7.2e-15 and 8.3e-15.  Each point is the first cell of its own grid.
        worst = 0.0
        for n, q, p in _mp_sample():
            grid = symbol_grid(n, which, (q, q + 1.0, 2), (p, p + 1.0, 2))
            assert (grid.q_axis[0], grid.p_axis[0]) == (q, p)
            want = _mp_closed_forms(n, q, p)[_MP_KEYS[which]]
            worst = max(worst, _relative_error(grid.values[0, 0], want))
        assert worst <= 1e-15, worst

    def test_spread_product_sweep_against_mpmath(self):
        # 12 random points with |z|^2 <= 700 per N; the summed route was
        # 1.7e-13 off at N = 1600
        rng = np.random.default_rng(1)
        for n in (2, 10, 64, 200, 1600):
            kept = 0
            while kept < 12:
                q, p = rng.uniform(-37.5, 37.5, 2).tolist()
                if (q * q + p * p) / 2.0 <= 700.0:
                    kept += 1
                    got = uncertainty_product(n, PhasePoint(q, p))
                    want = _mp_closed_forms(n, q, p)["spread"]
                    assert _relative_error(got, want) <= 2e-15, (n, q, p)

    def test_symbols_beyond_the_linear_scale_limit(self):
        # one point at 30 degrees for each (N, |z|^2) past 700; worst 2.3e-15
        # for the product at N = |z|^2 = 2000, on the truncation edge, and
        # 4.2e-16 elsewhere
        for n, r2 in _BEYOND_THE_LIMIT:
            x = PhasePoint(math.sqrt(1.5 * r2), math.sqrt(0.5 * r2))
            ref = _mp_closed_forms(n, x.q, x.p)
            a_val, b_val = quadratic_symbols(n, x)
            got = {"A": a_val, "A+B": a_val + b_val, "A-B": a_val - b_val,
                   "spread": uncertainty_product(n, x)}
            for key, value in got.items():
                assert _relative_error(value, ref[key]) <= 4e-15, (n, r2, key)

    def test_energy_symbol_at_large_dimension(self):
        # A is evaluated as a sum of nonnegative terms, which keeps full
        # relative accuracy where (r2 + N/2) C - (N-1)/2 would lose
        # ulp(N/2) to cancellation (1e-13 at N = 4096)
        for n in (1000, 4096):
            for q in (0.3, 1.7, 3.1):
                a_val, _ = quadratic_symbols(n, PhasePoint(q, 0.0))
                ref = _mp_closed_forms(n, q, 0.0)["A"]
                assert float(abs((a_val - ref) / ref)) <= 1e-15, (n, q)


class TestSymbolGrid:
    def test_uncertainty_near_origin(self):
        grid = symbol_grid(6, "UNCERTAINTY", (-1e-4, 1e-4, 2), (-1e-4, 1e-4, 2))
        assert np.allclose(grid.values, 0.5, atol=1e-7)

    def test_grid_matches_pointwise_ops(self):
        grid = symbol_grid(9, "Q2", (-3.0, 3.0, 7), (-2.0, 2.0, 5))
        for i, q in enumerate(grid.q_axis):
            for j, p in enumerate(grid.p_axis):
                a_val, b_val = quadratic_symbols(9, PhasePoint(float(q), float(p)))
                assert grid.values[i, j] == pytest.approx(a_val + b_val, abs=1e-13)

    def test_position_square_grid_symmetries(self):
        grid = symbol_grid(12, "Q2", (-6.0, 6.0, 41), (-6.0, 6.0, 41))
        assert np.max(np.abs(grid.values - grid.values[::-1, :])) <= 1e-12
        assert np.max(np.abs(grid.values - grid.values[:, ::-1])) <= 1e-12

    def test_energy_grid_is_radial(self):
        grid = symbol_grid(5, "H", (-4.0, 4.0, 33), (-4.0, 4.0, 33))
        # value at (q, p) equals value at (p, q) for a radial function on a square grid
        assert np.max(np.abs(grid.values - grid.values.T)) <= 1e-12

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            symbol_grid(5, "H", (-1.0, 1.0, 1), (-1.0, 1.0, 5))
        with pytest.raises(ValueError):
            symbol_grid(5, "H", (2.0, -2.0, 5), (-1.0, 1.0, 5))
        with pytest.raises(ValueError):
            symbol_grid(5, "NOPE", (-1.0, 1.0, 5), (-1.0, 1.0, 5))
        with pytest.raises(ValueError, match=r"must be finite, got \(-inf, 1.0\)"):
            symbol_grid(5, "H", (-1.0, 1.0, 5), (-math.inf, 1.0, 5))

    def test_grid_rejects_an_unknown_kind(self):
        # checked by the dataclass itself, before any export reads the kind
        with pytest.raises(ValueError, match="unknown grid kind 'nope'; expected one of"):
            SymbolGrid("nope", 10, (0.0, 1.0, 2), (0.0, 1.0, 2))

    @pytest.mark.parametrize("steps", [2.5, np.float64(3.0), True, np.True_],
                             ids=["float", "numpy-float", "bool", "numpy-bool"])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="grid steps must be an integer"):
            symbol_grid(10, "Q2", (0.0, 1.0, steps), (0.0, 1.0, 3))
        # a numpy integer is an integer
        grid = symbol_grid(10, "Q2", (0.0, 1.0, np.int64(3)), (0.0, 1.0, 3))
        assert grid.values.shape == (3, 3)

    def test_numpy_integer_steps_cannot_wrap_the_memory_check(self, monkeypatch):
        # in int64, 56 bytes x (2^32)^2 cells wraps to 0 bytes
        def no_axis(*args, **kwargs):
            raise AssertionError("axis allocated before the memory check")

        monkeypatch.setattr(frame, "_physical_memory_bytes", lambda: 8 * 2**30)
        monkeypatch.setattr(np, "linspace", no_axis)
        steps = np.int64(2**32)
        with pytest.raises(ValueError, match="physical memory"):
            symbol_grid(5, "H", (-1.0, 1.0, steps), (-1.0, 1.0, steps))

    def test_overflow_domain(self):
        # every kind at every cell against mpmath, with |z|^2 = 900, 2000 and
        # 5e5 at the ends of the q axis: worst 4.3e-16
        for n in (3, 64):
            for r2 in (900.0, 2000.0, 5e5):
                q_max = math.sqrt(2.0 * r2)
                for which, key in _MP_KEYS.items():
                    grid = symbol_grid(n, which, (-q_max, q_max, 3), (-1.0, 1.0, 3))
                    for i, q in enumerate(grid.q_axis.tolist()):
                        for j, p in enumerate(grid.p_axis.tolist()):
                            want = _mp_closed_forms(n, q, p)[key]
                            assert _relative_error(grid.values[i, j], want) <= 1e-15, \
                                (n, r2, which, q, p)

    # At r2 = 1 every y is 0.0 by the step 192 check, and N = 193 ends with
    # that step; N = 1000 stops there too.  Together with r2 = 900 no entry
    # stops below N = 1000, so the whole array runs every step.
    @pytest.mark.parametrize("n_dim", [1, 2, 3, 64, 65, 66, 191, 192, 193, 194, 195, 257, 1000])
    def test_early_stop_matches_the_full_recurrence_bit_for_bit(self, n_dim):
        q = np.sqrt(2.0 * np.array([0.0, 1e-300, 0.5, 1.0, 7.5, 30.0, 900.0]))
        _, *whole = symbols._closed_forms(n_dim, q, np.zeros(1))
        for i, qi in enumerate(q.tolist()):
            _, *alone = symbols._closed_forms(n_dim, q[i:i + 1], np.zeros(1))
            want = [w.hex() for w in _full_recurrence(n_dim, qi * qi / 2.0)]
            assert [v[i].hex() for v in whole] == want, (n_dim, qi)
            assert [v[0].hex() for v in alone] == want, (n_dim, qi)

    @pytest.mark.parametrize("n_dim", [1, 2, 3, 64, 200])
    def test_every_kind_equals_the_scalar_path_bit_for_bit(self, n_dim):
        # |z|^2 reaches 1800 at the corners, past the old linear-scale limit
        grids = {which: symbol_grid(n_dim, which, (-42.0, 42.0, 15), (-42.0, 42.0, 15))
                 for which in GRID_KINDS}
        axis = grids["C"].q_axis.tolist()
        for i, q in enumerate(axis):
            for j, p in enumerate(axis):
                for which, grid in grids.items():
                    cell = symbols._at_point(n_dim, q, p, GRID_KINDS[which].value)
                    assert float(grid.values[i, j]).hex() == float(cell).hex(), (which, q, p)
                x = PhasePoint(q, p)
                a_val, _ = quadratic_symbols(n_dim, x)
                assert grids["H"].values[i, j] == a_val
                assert grids["UNCERTAINTY"].values[i, j] == uncertainty_product(n_dim, x)
                if abs(q) == abs(p):  # where |z|^2 is q^2, the radius corrective_factor takes
                    assert grids["C"].values[i, j] == corrective_factor(n_dim, abs(q))

    def test_uncertainty_grid_equals_the_scalar_product_bit_for_bit(self):
        grid = symbol_grid(12, "UNCERTAINTY", (-8.0, 8.0, 17), (-6.0, 6.0, 13))
        for i, q in enumerate(grid.q_axis.tolist()):
            for j, p in enumerate(grid.p_axis.tolist()):
                assert grid.values[i, j] == uncertainty_product(12, PhasePoint(q, p))

    def test_negative_variance_raises_on_both_paths(self, monkeypatch):
        # shift half by -1: the Q variance at the origin becomes -1/2, far
        # below the roundoff clamp, and neither path may clamp it to zero
        real = symbols._closed_forms
        monkeypatch.setattr(symbols, "_closed_forms", lambda *args: (
            lambda r2, c, d, half, g: (r2, c, d, half - 1.0, g))(*real(*args)))
        for call in (lambda: uncertainty_product(6, PhasePoint(0.0, 0.0)),
                     lambda: symbol_grid(6, "UNCERTAINTY", (-1.0, 1.0, 3), (-1.0, 1.0, 3))):
            with pytest.raises(ArithmeticError, match="negative Q variance"):
                call()

    def test_overflow_message_is_shared(self):
        # an |z|^2 that overflows a double is refused by one check, without
        # numpy's overflow warning, on every path
        message = r"\|z\|\^2 = \(q\^2 \+ p\^2\)/2 must be finite, got inf"
        for call in (lambda: uncertainty_product(5, PhasePoint(1e200, 0.0)),
                     lambda: quadratic_symbols(5, PhasePoint(0.0, -1e200)),
                     lambda: corrective_factor(5, 1e200),
                     lambda: symbol_grid(5, "UNCERTAINTY", (-1e200, 1e200, 3), (-1.0, 1.0, 2))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    call()

    def test_values_are_the_array_the_rule_returned(self, monkeypatch):
        # the grid holds its rule's result itself, frozen, not a copy of it
        returned = []
        rule = GRID_KINDS["H"]
        monkeypatch.setitem(GRID_KINDS, "H", rule._replace(
            value=lambda *f: returned.append(rule.value(*f)) or returned[-1]))
        grid = symbol_grid(5, "H", (-1.0, 1.0, 3), (-2.0, 2.0, 4))
        assert len(returned) == 1 and grid.values is returned[0]
        assert grid.values.shape == (3, 4) and not grid.values.flags.writeable

    def test_peak_memory_of_the_default_grid(self):
        # the benchmark's 801 x 801 spread grid at N = 64 peaks at 36.1 MB;
        # the summed route held 11 doubles per cell, 56.5 MB
        peak = _traced_peak(
            lambda: symbol_grid(64, "UNCERTAINTY", (-6.0, 6.0, 801), (-6.0, 6.0, 801)))
        assert peak <= 40e6, peak

    @pytest.mark.parametrize("which", sorted(GRID_KINDS))
    def test_memory_guard_covers_the_peak(self, which):
        # 7 doubles per cell plus a fixed ufunc buffer of about 150 kB
        cells = 401 * 401
        for n in (1, 2, 64):
            peak = _traced_peak(lambda: symbol_grid(n, which, (-6.0, 6.0, 401), (-6.0, 6.0, 401)))
            assert peak <= symbols._GRID_BYTES_PER_CELL * cells + 2**18, (n, peak / cells)


class TestGridExports:
    @pytest.fixture()
    def grid(self) -> SymbolGrid:
        return symbol_grid(5, "H", (-1.0, 1.0, 3), (-2.0, 2.0, 3))

    def test_csv_layout(self, grid):
        lines = grid_to_csv(grid).strip().splitlines()
        assert lines[0] == "q,p,value"
        assert len(lines) == 1 + 9
        q, p, v = (float(s) for s in lines[1].split(","))
        assert (q, p) == (-1.0, -2.0)
        assert v == pytest.approx(grid.values[0, 0], rel=1e-8)

    def test_csv_round_trips_at_nine_digits(self, grid):
        for line in grid_to_csv(grid).strip().splitlines()[1:]:
            for cell in line.split(","):
                assert f"{float(cell):.9g}" == cell

    @pytest.mark.parametrize("grid", _export_grids())
    def test_csv_bytes_match_per_cell_reference(self, grid):
        assert grid_to_csv(grid) == _per_cell_csv(grid)

    @pytest.mark.parametrize("grid", _export_grids())
    def test_json_bytes_match_per_value_reference(self, grid):
        assert grid_to_json(grid) == _per_value_json(grid)

    def test_json_round_trip(self, grid):
        data = json.loads(grid_to_json(grid))
        assert data["which"] == "H"
        assert data["n_dim"] == 5
        assert data["values"] == pytest.approx(list(grid.values.ravel()))

    def test_json_of_numpy_scalars_matches_python_scalars(self):
        # the dimension and ranges are stored as Python scalars, which json can write
        twin = symbol_grid(10, "C", (0.0, 1.0, 3), (0.0, 1.0, 3))
        grids = [symbol_grid(10, "C", q_range, (0.0, 1.0, 3))
                 for q_range in ((0.0, 1.0, np.int64(3)), (0.0, np.float32(1.0), 3))]
        grids.append(SymbolGrid("C", np.int64(10), (np.float32(0.0), 1.0, np.int64(3)),
                                twin.p_range))
        for grid in grids:
            assert grid_to_json(grid) == grid_to_json(twin)

    def test_gnuplot_script_mentions_csv(self, grid):
        script = grid_gnuplot_script(grid, "h.csv")
        assert "splot 'h.csv'" in script
        assert "set dgrid3d 3,3" in script


class TestOneDomain:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 12, 64, 400]),
           q=st.floats(-1e150, 1e150), p=st.floats(-1e150, 1e150))
    def test_every_point_has_a_unit_norm_state(self, n, q, p):
        # every PhasePoint has a finite |z|^2, and there the state, the
        # sandwich and the closed forms are finite: there is no other limit
        x = PhasePoint(q, p)
        state = coherent_state(n, x)
        assert np.all(np.isfinite(state.coeffs))
        assert abs(float(np.linalg.norm(state.coeffs)) - 1.0) <= 1e-14
        assert math.isfinite(abs(lower_symbol(position_operator(n), x)))
        assert math.isfinite(uncertainty_product(n, x))
        assert all(math.isfinite(v) for v in quadratic_symbols(n, x))

    def test_phase_point_refuses_an_overflowing_radius(self):
        with pytest.raises(ValueError, match=r"\|z\|\^2 = \(q\^2 \+ p\^2\)/2 must be finite, got inf"):
            PhasePoint(1e200, 0.0)


class TestSmallestDimensions:
    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(-20.0, 20.0), p=st.floats(-20.0, 20.0))
    def test_one_level(self, q, p):
        # Q, P and H all vanish on the single Fock state
        x = PhasePoint(q, p)
        assert coherent_state(1, x).coeffs.tolist() == [1.0]
        assert quadratic_symbols(1, x) == (0.0, 0.0)
        assert uncertainty_product(1, x) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(-20.0, 20.0), p=st.floats(-20.0, 20.0))
    def test_two_levels_match_the_sandwich(self, q, p):
        x = PhasePoint(q, p)
        state = coherent_state(2, x)
        expected = np.array([1.0, x.z]) / math.sqrt(1.0 + x.r2)
        assert np.max(np.abs(state.coeffs - expected)) <= 1e-15
        q_op, p_op = position_operator(2), momentum_operator(2)
        a_val, b_val = quadratic_symbols(2, x)
        q2, p2 = lower_symbol(_squared(q_op), x).real, lower_symbol(_squared(p_op), x).real
        assert abs(q2 - (a_val + b_val)) <= 1e-14
        assert abs(p2 - (a_val - b_val)) <= 1e-14
        var_q = q2 - lower_symbol(q_op, x).real ** 2
        var_p = p2 - lower_symbol(p_op, x).real ** 2
        spread = uncertainty_product(2, x)
        assert abs(spread - math.sqrt(var_q * var_p)) <= 1e-12
        assert spread <= 0.5 * (1.0 + 4.0 * np.finfo(float).eps)

    def test_two_levels_half_at_the_origin(self):
        origin = PhasePoint(0.0, 0.0)
        assert quadratic_symbols(2, origin) == (0.5, 0.0)
        assert uncertainty_product(2, origin) == 0.5
