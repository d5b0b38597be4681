"""Tests for the physical-units bounds calculator."""

import json
import math
import re

import mpmath
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

    @pytest.mark.parametrize("scales, name", [
        (dict(l_c=1.0, p_c=1e200, l_m=1.0), "2*pi*p_c^2 = inf"),
        (dict(l_c=1e-200, p_c=1.0, l_m=1e-200), "2*pi*l_c^2 = 0.0"),
        (dict(l_c=1e150, p_c=1.0, l_m=1e-160), "l_c/l_m = inf"),
        (dict(l_c=1e150, p_c=1.0, l_m=1e140, theta=1e-300), "2*pi*(l_c/sqrt(theta))*l_c = inf"),
    ], ids=["momentum-cell", "position-cell", "ratio", "planar-l-max"])
    def test_report_refuses_derived_values_out_of_range(self, scales, name):
        # every value the report derives is a positive finite number, so no
        # report prints inf or writes the non-JSON Infinity
        with pytest.raises(ValueError, match=f"^derived value {re.escape(name)} is not"):
            BoundsReport(PhysicalScales(**scales))

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

    @pytest.mark.parametrize("l_m, size", [(1e-300, 1e-20), (1e-300, 1e-300), (1e10, 1e300)])
    def test_l_c_beyond_the_products_range_to_two_ulp(self, l_m, size):
        # l_m * size is subnormal, 0 or inf here, while l_c is an ordinary double
        with mpmath.workdps(40):
            exact = mpmath.sqrt(mpmath.mpf(l_m) * mpmath.mpf(size) / (2 * mpmath.pi))
            l_c = solve_characteristic_length(l_m, size)
            assert abs(l_c - exact) <= 2 * math.ulp(float(exact)), (l_c, exact)
