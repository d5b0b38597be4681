"""Tests for the truncated coherent-state frame."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planequant.errors import DimensionMismatchError, QuadratureOrderError, RangeOverflowError
from planequant.frame import (
    CoherentState,
    PhasePoint,
    QuadratureSpec,
    coherent_state,
    frame_sandwich,
    gauss_laguerre_rule,
    monomial_state_matrix,
    normalization_factor,
    overlap,
    phase_plane_quadrature,
    verify_identity_resolution,
)

SQRT2 = math.sqrt(2.0)


class TestPhasePoint:
    def test_z_and_r2(self):
        x = PhasePoint(q=1.0, p=1.0)
        assert x.z == pytest.approx((1.0 + 1.0j) / SQRT2)
        assert x.r2 == pytest.approx(1.0)

    def test_from_z_round_trip(self):
        x = PhasePoint.from_z(0.3 - 1.7j)
        assert x.z == pytest.approx(0.3 - 1.7j)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            PhasePoint(q=bad, p=0.0)


class TestNormalizationFactor:
    def test_only_constant_term_at_origin(self):
        assert normalization_factor(5, 0.0) == 1.0

    def test_two_terms(self):
        assert normalization_factor(2, 1.0) == 2.0

    def test_high_precision_oracle(self):
        # 60-digit partial sum of 4.5^n/n! for n < 12
        expected = 89.800704590438248275
        assert normalization_factor(12, 4.5) == pytest.approx(expected, rel=1e-14)

    def test_bounded_by_exponential(self):
        for r2 in (0.1, 3.0, 25.0):
            for n in (1, 4, 40):
                assert normalization_factor(n, r2) <= math.exp(r2)

    def test_monotone_in_dim_and_converges(self):
        # the +40 margin gives 1e-12 convergence for r2 up to ~20; beyond
        # that the series tail at mean+40 is no longer that small
        for r2 in (0.5, 4.5, 18.0):
            prev = normalization_factor(1, r2)
            n_limit = int(r2) + 40
            for n in range(2, n_limit + 1):
                cur = normalization_factor(n, r2)
                assert cur >= prev
                # strict growth whenever the next term is representable
                increment = math.exp(n * math.log(r2) - math.lgamma(n + 1.0)) if r2 > 0 else 0.0
                if increment > 4.0 * np.finfo(float).eps * cur:
                    assert cur > prev
                prev = cur
            assert prev == pytest.approx(math.exp(r2), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            normalization_factor(0, 1.0)
        for bad in (-0.5, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                normalization_factor(3, bad)

    def test_overflow_domain(self):
        # every finite r2 is accepted; only a sum past the largest double raises
        with mpmath.workdps(40):
            want = sum(mpmath.mpf(800) ** n / mpmath.factorial(n) for n in range(4))
        assert normalization_factor(4, 800.0) == pytest.approx(float(want), rel=1e-15)
        # each term divides before it multiplies, so none overflows before the sum
        assert normalization_factor(1000, 709.0) == pytest.approx(math.exp(709.0), rel=1e-14)
        with pytest.raises(RangeOverflowError, match="N = 1000, r2 = 800.0 overflows a double"):
            normalization_factor(1000, 800.0)

    def test_huge_dimension_returns_early(self):
        assert normalization_factor(10**9, 1.0) == pytest.approx(math.e, rel=1e-15)

    # At r2 = 1 the term 1/j! is first 0.0 at j = 178, where the sum stops:
    # N = 179, 180, 1000 and 10^9 stop there, and N = 177 and 178 end before.
    @pytest.mark.parametrize("n_dim", [177, 178, 179, 180, 1000, 10**9])
    def test_early_stop_matches_the_full_loop_bit_for_bit(self, n_dim):
        full = 0.0
        term = 1.0
        for j in range(min(n_dim, 1000)):
            term = term * 1.0 / j if j else 1.0
            full += term
        assert normalization_factor(n_dim, 1.0).hex() == full.hex()


class TestCoherentState:
    def test_vacuum(self):
        cs = coherent_state(3, PhasePoint(0.0, 0.0))
        assert np.allclose(cs.coeffs, [1.0, 0.0, 0.0])

    def test_vacuum_at_large_dimension(self):
        # at N = 200 the zero node is still exactly the e_0 column
        cs = coherent_state(200, PhasePoint(0.0, 0.0))
        expected = np.zeros(200, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(cs.coeffs, expected)

    def test_two_level_at_unit_z(self):
        cs = coherent_state(2, PhasePoint(q=SQRT2, p=0.0))
        assert np.allclose(cs.coeffs, [1 / SQRT2, 1 / SQRT2], atol=1e-15)

    def test_high_precision_oracle(self):
        # 50-digit evaluation of z^n/sqrt(n! * sum) at z = 1.3 + 0.7i, N = 12
        cs = coherent_state(12, PhasePoint.from_z(1.3 + 0.7j))
        assert cs.coeffs[0] == pytest.approx(0.336217041347041707 + 0.0j, abs=1e-14)
        assert cs.coeffs[1] == pytest.approx(0.43708215375115422 + 0.235351928942929195j, abs=1e-14)
        assert cs.coeffs[5] == pytest.approx(-0.16855338756875652 + 0.134055269014408824j, abs=1e-14)
        assert cs.coeffs[11] == pytest.approx(
            0.00255369677855769459 - 0.00290596156247430377j, abs=1e-14
        )

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        q=st.floats(min_value=-20, max_value=20),
        p=st.floats(min_value=-20, max_value=20),
    )
    def test_unit_norm_everywhere(self, n, q, p):
        cs = coherent_state(n, PhasePoint(q, p))
        assert np.linalg.norm(cs.coeffs) == pytest.approx(1.0, abs=1e-14)

    def test_coefficients_against_mpmath(self):
        # relative error of every entry above 1e-290, against the 40-digit
        # column normalized by its exactly rounded norm: worst 4.9e-15 on the
        # grid and 7.8e-15 at N = 4096, |z|^2 = 3000
        cases = [(n, r2) for n in (12, 64, 300, 4096) for r2 in (0.3, 5.0, 80.0, 699.0)]
        for n, r2 in cases + _FAR_POINTS:
            x = PhasePoint.from_z(math.sqrt(r2) * complex(math.cos(0.7), math.sin(0.7)))
            ref = _mp_anchored_column(x.z, n)
            ref /= math.sqrt(math.fsum(np.abs(ref) ** 2))
            got = coherent_state(n, x).coeffs
            keep = np.abs(ref) > 1e-290
            err = np.abs(got[keep] - ref[keep]) / np.abs(ref[keep])
            assert err.max() <= 1e-14, (n, r2, err.max())

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            CoherentState(coeffs=np.array([1.0, 1.0]))

    def test_rejects_nan_coefficients(self):
        with pytest.raises(ValueError, match="unit norm, got nan"):
            CoherentState(np.array([math.nan, 0.0]))

    @pytest.mark.parametrize("coeffs", [np.array(1.0), np.eye(2)[:1]],
                             ids=["scalar", "row-matrix"])
    def test_rejects_non_vector(self, coeffs):
        with pytest.raises(ValueError, match="1-D"):
            CoherentState(coeffs)

    def test_dim_is_the_coefficient_count(self):
        assert CoherentState(np.array([0.6, 0.8j])).dim == 2
        assert coherent_state(7, PhasePoint(0.3, -0.2)).dim == 7


# (N, |z|^2) past the old linear-scale limit |z|^2 = 700, where the
# unanchored running product overflowed
_FAR_POINTS = [(64, 5000.0), (1000, 2000.0), (4096, 3000.0)]


@functools.cache
def _mp_inv_sqrt() -> list:
    """1/sqrt(n) at 40 digits for n = 1..4095 (index 0 unused)."""
    with mpmath.workdps(40):
        return [None] + [1 / mpmath.sqrt(n) for n in range(1, 4096)]


def _mp_anchored_column(z: complex, n_dim: int) -> np.ndarray:
    """z^n / sqrt(n!) for n < N at 40 digits, over the largest of their moduli."""
    inv = _mp_inv_sqrt()
    with mpmath.workdps(40):
        zz = mpmath.mpc(z.real, z.imag)
        col = [mpmath.mpc(1)]
        for n in range(1, n_dim):
            col.append(col[-1] * zz * inv[n])
        peak = max(abs(c) for c in col)
        return np.array([complex(c / peak) for c in col])


def _running_product(n_dim: int, z: np.ndarray) -> np.ndarray:
    """z^n / sqrt(n!) as the unanchored running product, one column per node."""
    steps = np.ones((n_dim, z.size), dtype=complex)
    steps[1:] = z[None, :] / np.sqrt(np.arange(1.0, n_dim))[:, None]
    return np.multiply.accumulate(steps, axis=0)


class TestMonomialStateMatrix:
    @staticmethod
    def _worst_relative_error(n_dim, z):
        v = monomial_state_matrix(n_dim, z)
        worst = 0.0
        for j, zj in enumerate(z):
            ref = _mp_anchored_column(zj, n_dim)
            keep = np.abs(ref) > 1e-290
            err = np.abs(v[:, j][keep] - ref[keep]) / np.abs(ref[keep])
            worst = max(worst, float(err.max()))
        return worst

    def test_quadrature_nodes_against_mpmath(self):
        # every radial node of the default rule at a generic angle (every
        # third at N = 182, plus the outermost six at a second angle)
        for n in (64, 182):
            quad = QuadratureSpec.default_for(n)
            z = phase_plane_quadrature(quad)[0].reshape(-1, quad.angular_order)
            if n == 64:
                nodes = z[:, 1]
            else:
                nodes = np.concatenate([z[::3, 1], z[-6:, quad.angular_order // 3]])
            assert self._worst_relative_error(n, nodes) <= 1e-13, n

    def test_random_and_far_points_against_mpmath(self):
        # random points with |z|^2 <= 700, and one at each of _FAR_POINTS
        rng = np.random.default_rng(3)
        for n, count in ((171, 6), (1000, 4), (4096, 3)):
            r = np.sqrt(rng.uniform(0.0, 700.0, count))
            r[0] = math.sqrt(700.0)
            z = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
            assert self._worst_relative_error(n, z) <= 1e-13, n
        for n, r2 in _FAR_POINTS:
            z = np.array([math.sqrt(r2) * complex(math.cos(0.7), math.sin(0.7))])
            assert self._worst_relative_error(n, z) <= 1e-13, (n, r2)

    def test_scalar_node_is_one_column(self):
        v = monomial_state_matrix(4, 0.5)
        assert v.shape == (4, 1)
        assert np.array_equal(v, monomial_state_matrix(4, [0.5]))
        with pytest.raises(ValueError, match="1-D"):
            monomial_state_matrix(4, [[0.5, 1.0]])

    def test_no_overflow_at_the_largest_quadrature_node(self):
        # the order-186 rule reaches |z|^2 = 712.6
        z = np.sqrt(gauss_laguerre_rule(186)[0][-1:]).astype(complex)
        assert np.all(np.isfinite(monomial_state_matrix(4096, z)))


def _node_by_node_sandwich(dim, quad, g):
    """sum_j w_j g_j v_j v_j^H as the explicit product V (w g) V^H over every node."""
    z, w = phase_plane_quadrature(quad)
    v = _running_product(dim, z)
    return (v * (w * g)) @ v.conj().T


class TestFrameSandwich:
    @pytest.mark.parametrize("n_dim", [1, 2, 8, 33, 64])
    @pytest.mark.parametrize("rule", [QuadratureSpec.default_for, lambda n: QuadratureSpec(n + 4, 3)],
                             ids=["default", "aliasing"])
    @pytest.mark.parametrize("symbol", ["real", "non-hermitian"])
    def test_matches_the_node_by_node_product(self, n_dim, rule, symbol):
        # the aliasing rule has 3 angles, far below the 2N - 1 exactness needs,
        # and the per-circle DFT aliases the same modes the node sum does
        quad = rule(n_dim)
        f = {"real": lambda z: np.real(z) ** 2 + np.imag(z) ** 3,
             "non-hermitian": lambda z: z**2 * np.conj(z)}[symbol]
        want = _node_by_node_sandwich(n_dim, quad, f(phase_plane_quadrature(quad)[0]))
        got = frame_sandwich(n_dim, quad, f)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("f", [lambda z: z[:-1], lambda z: 1.0, lambda z: z.reshape(-1, 1)])
    def test_rejects_a_symbol_without_one_value_per_node(self, f):
        with pytest.raises(ValueError, match="one value per quadrature node"):
            frame_sandwich(4, QuadratureSpec.default_for(4), f)


class TestOverlap:
    def test_self_overlap_is_one(self):
        cs = coherent_state(9, PhasePoint(1.2, -0.4))
        assert overlap(cs, cs) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_against_unit_z(self):
        n = 2
        a = coherent_state(n, PhasePoint(0.0, 0.0))
        b = coherent_state(n, PhasePoint(SQRT2, 0.0))
        assert overlap(a, b) == pytest.approx(1 / SQRT2, abs=1e-14)

    def test_bounded_by_one(self):
        n = 17
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = coherent_state(n, PhasePoint(*rng.uniform(-3, 3, 2)))
            b = coherent_state(n, PhasePoint(*rng.uniform(-3, 3, 2)))
            assert abs(overlap(a, b)) <= 1.0 + 1e-12

    def test_matches_gaussian_kernel_at_large_dim(self):
        # 50-digit oracle for the truncated overlap; the truncation tail at
        # N = 40 is far below double precision for these points.
        n = 40
        a = coherent_state(n, PhasePoint.from_z(1.1 + 0.3j))
        b = coherent_state(n, PhasePoint.from_z(-0.4 + 0.9j))
        got = overlap(a, b)
        assert got == pytest.approx(0.120579990732070093 + 0.242888883232870456j, abs=1e-13)
        z1, z2 = 1.1 + 0.3j, -0.4 + 0.9j
        kernel = np.exp(np.conj(z1) * z2 - abs(z1) ** 2 / 2 - abs(z2) ** 2 / 2)
        assert got == pytest.approx(kernel, abs=1e-12)

    def test_conjugate_symmetry_exact(self):
        n = 23
        a = coherent_state(n, PhasePoint(0.9, 1.7))
        b = coherent_state(n, PhasePoint(-1.1, 0.2))
        assert overlap(a, b) == np.conj(overlap(b, a))

    def test_dimension_mismatch(self):
        a = coherent_state(3, PhasePoint(0.1, 0.0))
        b = coherent_state(4, PhasePoint(0.1, 0.0))
        with pytest.raises(DimensionMismatchError):
            overlap(a, b)


class TestQuadrature:
    def test_gauss_laguerre_moments(self):
        t, w = gauss_laguerre_rule(24)
        for j in range(0, 47, 6):
            assert (w * t**j).sum() == pytest.approx(math.factorial(j), rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_laguerre_rule(0)
        with pytest.raises(ValueError):
            QuadratureSpec(radial_order=0, angular_order=4)

    def test_largest_supported_order(self):
        t, w = gauss_laguerre_rule(186)
        assert np.all(np.isfinite(t)) and w.sum() == pytest.approx(1.0, rel=1e-13)
        # numpy's weights are NaN from order 187 on: refused before numpy runs
        with pytest.raises(QuadratureOrderError, match="largest supported order 186"):
            gauss_laguerre_rule(187)

    @pytest.mark.parametrize("orders", [(4, 2.5), (True, 4), (4, False), ("8", 4), (4, 0)])
    def test_spec_orders_are_dimensions(self, orders):
        with pytest.raises(ValueError):
            QuadratureSpec(*orders)

    def test_spec_takes_numpy_integers(self):
        quad = QuadratureSpec(np.int64(5), np.int32(7))
        assert (quad.radial_order, quad.angular_order) == (5, 7)
        assert type(quad.radial_order) is int and type(quad.angular_order) is int


class TestIdentityResolution:
    def test_scalar_case(self):
        assert verify_identity_resolution(1) <= 1e-12

    def test_default_quadrature_small(self):
        assert verify_identity_resolution(8) <= 1e-10

    def test_default_quadrature_dim_64(self):
        assert verify_identity_resolution(64) <= 1e-9

    def test_insufficient_order_deviates(self):
        # exactness at N = 8 needs radial order >= 8 and angular order >= 15
        quad = QuadratureSpec(radial_order=3, angular_order=5)
        assert verify_identity_resolution(8, quad=quad) > 1e-10

    def test_default_rule_beyond_the_largest_order_raises(self):
        # N = 183 needs radial order 187, whose weights numpy returns as NaN
        with pytest.raises(QuadratureOrderError, match="186"):
            verify_identity_resolution(183)
