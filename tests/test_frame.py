"""Tests for the truncated coherent-state frame."""

import math

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
    coherent_state_log,
    gauss_laguerre_rule,
    inv_sqrt_fact,
    log_normalization_factor,
    normalization_factor,
    overlap,
    verify_identity_resolution,
)

SQRT2 = math.sqrt(2.0)


def test_inv_sqrt_fact_matches_the_division_loop_bit_for_bit():
    for n in [*range(1, 200), 500, 1000, 5000]:
        expected = [1.0]
        for k in range(1, n):
            expected.append(expected[-1] / math.sqrt(k))
        assert np.array_equal(inv_sqrt_fact(n), np.array(expected)), n


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


class TestCoherentState:
    def test_vacuum(self):
        cs = coherent_state(3, PhasePoint(0.0, 0.0))
        assert np.allclose(cs.coeffs, [1.0, 0.0, 0.0])

    def test_vacuum_on_the_log_domain_fill(self):
        # beyond the direct-factorial cap the zero node is the e_0 column
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
        assert np.linalg.norm(cs.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_log_path_matches_direct_path(self):
        # dimensions beyond the direct-factorial cap go through the log branch
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
            CoherentState(dim=2, coeffs=np.array([1.0, 1.0]))


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
