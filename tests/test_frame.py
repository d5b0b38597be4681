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
    OVERFLOW_R2,
    CoherentState,
    PhasePoint,
    QuadratureSpec,
    coherent_state,
    coherent_state_log,
    exp_partial_sums,
    gauss_laguerre_rule,
    log_normalization_factor,
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
        with pytest.raises(ValueError):
            normalization_factor(3, -0.5)

    def test_overflow_domain(self):
        with pytest.raises(RangeOverflowError):
            normalization_factor(4, 800.0)

    def test_log_variant_matches_direct(self):
        for n, r2 in ((1, 0.0), (7, 2.5), (60, 48.0)):
            assert log_normalization_factor(n, r2) == pytest.approx(
                math.log(normalization_factor(n, r2)), abs=1e-12
            )

    def test_log_variant_beyond_overflow(self):
        # 60-digit oracle: ln sum_{n<50} 800^n/n!
        assert log_normalization_factor(50, 800.0) == pytest.approx(
            183.0433501551417945, rel=1e-14
        )


def _full_partial_sums(n_dim, r2):
    """(S_{N-2}, S_{N-1}, S_N) by the running product over every one of the N terms."""
    total = 0.0 * r2
    term, sums = total + 1.0, [total, total]
    for j in range(n_dim):
        if j:
            term = term * r2 / j
        total = total + term
        sums.append(total)
    return tuple(sums[-3:])


class TestExpPartialSums:
    def test_first_dimensions(self):
        assert exp_partial_sums(1, 2.0) == (0.0, 0.0, 1.0)
        assert exp_partial_sums(2, 2.0) == (0.0, 1.0, 3.0)
        assert exp_partial_sums(3, 2.0) == (1.0, 3.0, 5.0)

    def test_python_float_stays_python_float(self):
        assert all(type(s) is float for s in exp_partial_sums(7, 1.5))

    # At r2 = 1 the terms 1/j! reach 0.0 before j = 192, the first exit
    # check that sees it.  That check is the last step at N = 193, so the
    # loop just ends; N = 194 and 195 exit at their second- and
    # third-to-last step, and N = 1000 stops at j = 192 too.
    @pytest.mark.parametrize("n_dim", [64, 65, 66, 191, 192, 193, 194, 195, 257, 1000])
    def test_early_return_matches_the_full_loop_bit_for_bit(self, n_dim):
        got = exp_partial_sums(n_dim, 1.0)
        assert got == _full_partial_sums(n_dim, 1.0)
        r2 = np.array([0.0, 0.5, 1.0, 7.5, 30.0])
        for a, b in zip(exp_partial_sums(n_dim, r2), _full_partial_sums(n_dim, r2)):
            assert np.array_equal(a, b)

    def test_huge_dimension_returns_early(self):
        assert exp_partial_sums(10**9, 1.0) == _full_partial_sums(1000, 1.0)
        assert normalization_factor(10**9, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_range_is_checked_on_every_entry(self):
        with pytest.raises(RangeOverflowError, match="800.0 exceeds"):
            exp_partial_sums(4, np.array([1.0, 800.0, 2.0]))
        for bad in (np.array([1.0, -0.5]), np.array([np.nan, 2.0]), -1e-300):
            with pytest.raises(ValueError, match="nonnegative"):
                exp_partial_sums(4, bad)


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
        # column normalized by its exactly rounded norm: worst 4.5e-15
        for n in (12, 64, 300, 4096):
            for r2 in (0.3, 5.0, 80.0, 699.0):
                x = PhasePoint.from_z(math.sqrt(r2) * complex(math.cos(0.7), math.sin(0.7)))
                ref = _mp_monomials(x.z, n)
                ref /= math.sqrt(math.fsum(np.abs(ref) ** 2))
                got = coherent_state(n, x).coeffs[: ref.size]
                keep = np.abs(ref) > 1e-290
                err = np.abs(got[keep] - ref[keep]) / np.abs(ref[keep])
                assert err.max() <= 1e-14, (n, r2, err.max())

    def test_log_variant_matches_linear_state(self):
        # coherent_state_log rebuilds the linear-scale state at N = 171
        x = PhasePoint(q=3.0, p=-2.0)
        small = coherent_state(171, x).coeffs
        logmag, phase = coherent_state_log(171, x)
        rebuilt = np.exp(logmag) * np.exp(1j * phase)
        assert np.max(np.abs(small - rebuilt)) < 1e-12

    def test_overflow_domain(self):
        with pytest.raises(RangeOverflowError):
            coherent_state(4, PhasePoint(q=60.0, p=0.0))
        # the log variant still works there
        logmag, _ = coherent_state_log(4, PhasePoint(q=60.0, p=0.0))
        assert np.all(np.isfinite(logmag))

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            CoherentState(coeffs=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("coeffs", [np.array(1.0), np.eye(2)[:1]],
                             ids=["scalar", "row-matrix"])
    def test_rejects_non_vector(self, coeffs):
        with pytest.raises(ValueError, match="1-D"):
            CoherentState(coeffs)

    def test_dim_is_the_coefficient_count(self):
        assert CoherentState(np.array([0.6, 0.8j])).dim == 2
        assert coherent_state(7, PhasePoint(0.3, -0.2)).dim == 7


@functools.cache
def _mp_inv_sqrt() -> list:
    """1/sqrt(n) at 40 digits for n = 1..4095 (index 0 unused)."""
    with mpmath.workdps(40):
        return [None] + [1 / mpmath.sqrt(n) for n in range(1, 4096)]


def _mp_monomials(z: complex, n_dim: int) -> np.ndarray:
    """z^n / sqrt(n!) at 40 digits, from n = 0 until the entries fall below 1e-290 past the peak."""
    inv = _mp_inv_sqrt()
    with mpmath.workdps(40):
        zz = mpmath.mpc(z.real, z.imag)
        tiny = mpmath.mpf("1e-290")
        c = mpmath.mpc(1)
        rows = [1.0]
        for n in range(1, n_dim):
            c = c * zz * inv[n]
            if n > abs(z) ** 2 and abs(c) < tiny:
                break
            rows.append(complex(c))
    return np.array(rows)


class TestMonomialStateMatrix:
    @staticmethod
    def _worst_relative_error(n_dim, z):
        v = monomial_state_matrix(n_dim, z)
        worst = 0.0
        for j, zj in enumerate(z):
            ref = _mp_monomials(zj, n_dim)
            keep = np.abs(ref) > 1e-290
            err = np.abs(v[: ref.size, j][keep] - ref[keep]) / np.abs(ref[keep])
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

    def test_points_up_to_the_overflow_limit_against_mpmath(self):
        rng = np.random.default_rng(3)
        for n, count in ((171, 6), (1000, 4), (4096, 3)):
            r = np.sqrt(rng.uniform(0.0, OVERFLOW_R2, count))
            r[0] = math.sqrt(OVERFLOW_R2)
            z = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
            assert self._worst_relative_error(n, z) <= 1e-13, n

    def test_scalar_node_is_one_column(self):
        v = monomial_state_matrix(4, 0.5)
        assert v.shape == (4, 1)
        assert np.array_equal(v, monomial_state_matrix(4, [0.5]))
        with pytest.raises(ValueError, match="1-D"):
            monomial_state_matrix(4, [[0.5, 1.0]])

    def test_no_overflow_at_the_largest_quadrature_node(self):
        # the order-186 rule reaches |z|^2 = 712.6, above OVERFLOW_R2
        z = np.sqrt(gauss_laguerre_rule(186)[0][-1:]).astype(complex)
        assert np.all(np.isfinite(monomial_state_matrix(4096, z)))


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

    def test_insufficient_order_raises_with_diagnostic(self):
        quad = QuadratureSpec(radial_order=3, angular_order=5)
        with pytest.raises(QuadratureOrderError, match="radial order >= 8"):
            verify_identity_resolution(8, quad=quad, tol=1e-10)

    def test_default_rule_beyond_the_largest_order_raises(self):
        # N = 183 needs radial order 187, whose weights numpy returns as NaN
        with pytest.raises(QuadratureOrderError, match="186"):
            verify_identity_resolution(183, tol=1e-9)

    def test_nan_tolerance_fails_the_check(self):
        # the check is "dev <= tol"; a NaN on either side must not pass it
        with pytest.raises(QuadratureOrderError):
            verify_identity_resolution(8, tol=math.nan)
