"""Tests for the physical-units bounds calculator."""

import json
import math

import pytest

from planequant.bounds import (
    BoundsReport,
    PhysicalScales,
    bounds_report,
    solve_characteristic_length,
)

TWO_PI = 2.0 * math.pi


class TestPhysicalScales:
    def test_ratio(self):
        s = PhysicalScales(l_c=1e-10, p_c=1.0, l_m=1e-35)
        assert s.rho_u == pytest.approx(1e25)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            PhysicalScales(l_c=1e-35, p_c=1.0, l_m=1e-10)

    @pytest.mark.parametrize("field", ["l_c", "p_c", "l_m"])
    def test_rejects_nonpositive(self, field):
        kwargs = {"l_c": 1.0, "p_c": 1.0, "l_m": 1.0}
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            PhysicalScales(**kwargs)

    @pytest.mark.parametrize("field", ["l_c", "p_c", "l_m", "theta"])
    def test_rejects_bool(self, field):
        kwargs = {"l_c": 1.0, "p_c": 1.0, "l_m": 1.0}
        kwargs[field] = True
        with pytest.raises(ValueError):
            PhysicalScales(**kwargs)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            PhysicalScales(l_c=1.0, p_c=1.0, l_m=0.5, theta=-1.0)


class TestBoundsReport:
    def test_equal_scales_give_two_pi_cell(self):
        report = bounds_report(PhysicalScales(l_c=1.0, p_c=1.0, l_m=1.0))
        assert report.l_max == pytest.approx(TWO_PI)

    def test_atomic_to_astronomical(self):
        # Bohr-radius-scale l_c with a Planck-scale minimal length lands at
        # ~6.3e15 m, i.e. order 10^16
        report = bounds_report(PhysicalScales(l_c=1e-10, p_c=1.0, l_m=1e-35))
        assert report.l_max == pytest.approx(TWO_PI * 1e15, rel=1e-12)

    def test_minimal_area_equal_to_cell_area(self):
        report = bounds_report(PhysicalScales(l_c=2.0, p_c=1.0, l_m=1.0, theta=4.0))
        assert report.hall_minimal_length == pytest.approx(2.0)
        assert report.hall_l_max == pytest.approx(TWO_PI * 2.0)

    def test_finite_dim_sigma_shrinks_the_bound(self):
        scales = PhysicalScales(l_c=1.0, p_c=1.0, l_m=1.0)
        finite = bounds_report(scales, sigma=2.0)
        assert finite.l_max == pytest.approx(2.0)
        with pytest.raises(ValueError):
            bounds_report(scales, sigma=10.0)

    @pytest.mark.parametrize("sigma", [10.0, 0.0, -1.0, math.nan])
    def test_report_built_directly_checks_sigma(self, sigma):
        # the report owns the (0, 2*pi] check, not only bounds_report
        with pytest.raises(ValueError):
            BoundsReport(PhysicalScales(l_c=1.0, p_c=1.0, l_m=1.0), sigma=sigma)

    def test_report_derives_from_its_inputs(self):
        scales = PhysicalScales(l_c=2.0, p_c=1.0, l_m=1.0, theta=4.0)
        assert BoundsReport(scales) == bounds_report(scales)
        report = BoundsReport(scales, sigma=3.0)
        assert (report.l_max, report.hall_minimal_length) == (12.0, 2.0)
        plain = BoundsReport(PhysicalScales(l_c=2.0, p_c=1.0, l_m=1.0))
        assert plain.hall_minimal_length is None and plain.hall_l_max is None

    def test_report_lines_and_json(self):
        report = bounds_report(PhysicalScales(l_c=1e-5, p_c=2.0, l_m=1e-6, theta=1e-12))
        text = "\n".join(report.lines())
        assert "2*pi*l_c^2" in text
        assert "2*pi*p_c^2" in text
        assert "sqrt(theta)" in text
        data = json.loads(report.to_json())
        assert data["rho_u"] == pytest.approx(10.0)
        assert data["hall_minimal_length"] == pytest.approx(1e-6)


class TestInverseProblem:
    def test_infrared_wavelength_scale(self):
        # Planck-scale cell and a ~1.3e26 m horizon pin l_c to ~1e-5 m
        l_c = solve_characteristic_length(1.6e-35, 1.3e26)
        assert l_c == pytest.approx(
            math.sqrt(1.6e-35 * 1.3e26 / TWO_PI), rel=1e-12
        )
        assert 1e-6 < l_c < 1e-4

    def test_round_trip_with_bound(self):
        l_m, l_c = 1e-9, 1e-3
        size = TWO_PI * l_c * l_c / l_m
        assert solve_characteristic_length(l_m, size) == pytest.approx(l_c, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            solve_characteristic_length(0.0, 1.0)
