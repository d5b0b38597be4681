"""Tests for the tridiagonal spectral machinery.

The two LAPACK routes, the full spectrum by dqds on the half-size
bidiagonal and the bisection for the extreme eigenvalues, are cross-checked
throughout, and both are held against the pure-Python Sturm count.
"""

import ctypes
import json
import logging
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg.lapack import dstebz

from planequant import cli, frame, spectra
from planequant.cli import _TABLE_DIMS as TABLE_DIMS
from planequant.errors import ConvergenceError, MissingDependencyError, VerificationError
from planequant.operators import momentum_operator
from planequant.spectra import (
    GapReport,
    SpectrumSummary,
    SymTridiagonal,
    asymptotic_check,
    char_poly_recurrence,
    eig_all,
    extreme_eigenvalues,
    gap_properties,
    gnuplot_extremes_script,
    gnuplot_sigma_script,
    hermite_residual,
    hermite_value,
    position_tridiagonal,
    semicircle_count_deviation,
    semicircle_density,
    sigma_table,
    spectrum_summary,
    spectrum_to_csv,
    sturm_count,
    summaries_to_csv,
    summaries_to_json,
)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def _extreme_indices(n: int) -> tuple[int, int]:
    """0-based ascending indices of the smallest positive and largest eigenvalue."""
    return (n + 1) // 2, n - 1


def _assert_sturm_bracketed(t: SymTridiagonal, lam_min: float, lam_max: float) -> None:
    """Exactly one eigenvalue, the expected one, within 8 ulps of each result."""
    for lam, index in zip((lam_min, lam_max), _extreme_indices(t.dim)):
        below = sturm_count(t, lam * (1.0 - 8.0 * EPS))
        above = sturm_count(t, lam * (1.0 + 8.0 * EPS))
        assert (below, above) == (index, index + 1), (t.dim, lam)


def _value(mantissa_exp: tuple[float, int]) -> float:
    mantissa, exp2 = mantissa_exp
    return math.ldexp(mantissa, exp2)


class TestSymTridiagonal:
    def test_position_data(self):
        t = position_tridiagonal(5)
        assert t.dim == 5
        assert t.offdiag == pytest.approx(np.sqrt(np.arange(1, 5) / 2.0))

    def test_rejects_nonpositive_offdiag(self):
        with pytest.raises(ValueError):
            SymTridiagonal(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("offdiag", [[math.inf, 1.0], [1.0, math.nan]])
    def test_rejects_non_finite_entries(self, offdiag):
        with pytest.raises(ValueError, match="finite"):
            SymTridiagonal(np.array(offdiag))

    def test_rejects_non_vector_offdiag(self):
        with pytest.raises(ValueError, match="1-D"):
            SymTridiagonal(np.ones((2, 2)))

    def test_zero_diagonal_is_read_only_zeros(self):
        diag = position_tridiagonal(7)._zero_diag
        assert diag.tolist() == [0.0] * 7
        with pytest.raises(ValueError):
            diag[0] = 1.0


class TestCharPolyRecurrence:
    def test_degree_two_closed_form(self):
        # p_2(x) = x^2 - 1/2
        assert _value(char_poly_recurrence(2, 0.0)) == -0.5
        assert _value(char_poly_recurrence(2, 1.0)) == 0.5
        assert _value(hermite_value(2, 0.0)) == -2.0  # 4x^2 - 2 at 0

    def test_degree_three_closed_form(self):
        # scaled polynomial 8x^3 - 12x
        for lam in (-2.0, -0.3, 0.0, 0.5, 1.5):
            assert _value(hermite_value(3, lam)) == pytest.approx(8 * lam**3 - 12 * lam, rel=1e-14)
        root = math.sqrt(1.5)
        assert abs(_value(hermite_value(3, root))) < 1e-13

    def test_matches_the_scalar_loop_bit_for_bit(self):
        def scalar_loop(n, lam):
            # the plain-float recurrence, rescaled by 2^-frexp every 16 steps
            p_prev, p, exp2 = 1.0, -lam, 0
            for k in range(1, n):
                p, p_prev = -lam * p - 0.5 * k * p_prev, p
                if k % 16 == 0:
                    m = max(abs(p), abs(p_prev))
                    if m > 0.0 and (m > 2.0**500 or m < 2.0**-500):
                        shift = math.frexp(m)[1]
                        p, p_prev = math.ldexp(p, -shift), math.ldexp(p_prev, -shift)
                        exp2 += shift
            return p, exp2

        for n in (1, 2, 3, 15, 16, 17, 31, 32, 33, 100, 600, 1000, 5000):
            for lam in (0.0, 1e-3, 0.35, 1.0, -2.5, 7.1, 30.0, 123.4, -400.0):
                assert char_poly_recurrence(n, lam) == scalar_loop(n, lam), (n, lam)

    def test_rescaling_keeps_range(self):
        mantissa, exp2 = char_poly_recurrence(600, 0.35)
        assert math.isfinite(mantissa)
        assert abs(mantissa) < 2.0**520

    def test_residual_small_at_eigenvalues(self):
        for n in (12, 200, 1000):
            ev = eig_all(position_tridiagonal(n))
            assert hermite_residual(n, ev).max() <= 1e-8

    def test_residual_reads_the_same_recurrence(self):
        # zeros, midpoints and points far outside the spectrum, where the
        # recurrence is rescaled many times
        ev = eig_all(position_tridiagonal(600))
        lams = np.concatenate([ev, (ev[:-1] + ev[1:]) / 2.0, [-80.0, 45.5, 200.0]])
        expected = []
        for lam in lams:
            p_n, e_n = char_poly_recurrence(600, float(lam))
            p_m, e_m = char_poly_recurrence(599, float(lam))
            top = abs(p_n)
            other = math.ldexp(abs(p_m), e_m - e_n)
            expected.append(top / max(top, other))
        assert np.array_equal(hermite_residual(600, lams), np.array(expected))

    def test_residual_large_away_from_eigenvalues(self):
        ev = eig_all(position_tridiagonal(12))
        midpoints = (ev[:-1] + ev[1:]) / 2.0
        assert hermite_residual(12, midpoints).min() > 1e-3


class TestEigAll:
    def test_two_by_two(self):
        assert eig_all(position_tridiagonal(2)) == pytest.approx(
            [-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-15
        )

    def test_three_by_three(self):
        root = math.sqrt(1.5)
        assert eig_all(position_tridiagonal(3)) == pytest.approx([-root, 0.0, root], abs=1e-14)

    def test_spectrum_symmetric(self):
        for n in (7, 24, 301):
            ev = eig_all(position_tridiagonal(n))
            assert np.max(np.abs(ev + ev[::-1])) <= 1e-12

    def test_zero_eigenvalue_iff_odd(self):
        for n in (9, 44, 101, 200):
            ev = eig_all(position_tridiagonal(n))
            smallest = np.min(np.abs(ev))
            if n % 2:
                assert smallest <= 1e-12
            else:
                assert smallest > 0.01

    def test_momentum_spectrum_equals_position_spectrum(self):
        n = 30
        ev_q = eig_all(position_tridiagonal(n))
        ev_p = np.linalg.eigvalsh(momentum_operator(n).entries)
        assert np.max(np.abs(ev_q - ev_p)) <= 1e-12

    def test_matches_bisection_and_interlaces_neighbors(self):
        n = 12
        ev = eig_all(position_tridiagonal(n))
        lam_min, lam_max = extreme_eigenvalues(position_tridiagonal(n))
        assert ev[-1] == pytest.approx(lam_max, abs=1e-12)
        assert ev[n // 2] == pytest.approx(lam_min, abs=1e-12)
        ev_lo = eig_all(position_tridiagonal(n - 1))
        ev_hi = eig_all(position_tridiagonal(n + 1))
        assert np.all(ev_lo > ev[:-1]) and np.all(ev_lo < ev[1:])
        assert np.all(ev > ev_hi[:-1]) and np.all(ev < ev_hi[1:])

    def test_dense_cap_enforced(self):
        with pytest.raises(ValueError, match="full-spectrum cap"):
            eig_all(position_tridiagonal(spectra.DENSE_SPECTRUM_CAP + 1))

    def test_dim_one(self):
        assert eig_all(position_tridiagonal(1)).tolist() == [0.0]

    def test_matches_stebz_relative_on_every_small_dim(self):
        tiny = np.finfo(float).tiny
        for n in range(2, 301):
            t = position_tridiagonal(n)
            m, w, _, _, info = dstebz(np.zeros(n), t.offdiag, 1, 0.0, math.inf, 0, 0,
                                      2.0 * tiny, b"E")
            assert info == 0 and m == n // 2
            positive = eig_all(t)[n - m:]
            assert np.all(np.abs(positive - w[:m]) <= 1e-14 * w[:m]), n

    def test_exactly_sign_symmetric_with_positive_zero(self):
        for n in range(1, 301):
            ev = eig_all(position_tridiagonal(n))
            assert np.array_equal(ev, -ev[::-1]), n
            if n % 2:
                middle = ev[n // 2]
                assert middle == 0.0 and not np.signbit(middle), n
        rows = spectrum_to_csv(eig_all(position_tridiagonal(101))).splitlines()
        assert rows[1 + 50] == "50,0"

    def test_dqds_failure_is_convergence_error(self, monkeypatch):
        lapack = spectra._lapack()

        @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 5)
        def failing_dlasq1(n, d, e, work, info):
            lapack.integer.from_address(info).value = 2

        monkeypatch.setattr(spectra, "_lapack", lambda: lapack._replace(dlasq1=failing_dlasq1))
        with pytest.raises(ConvergenceError, match="info = 2"):
            eig_all(position_tridiagonal(10))


def _scipy_stebz(t: SymTridiagonal, kind: bytes, vl: float, vu: float, il: int, iu: int,
                 abstol: float) -> tuple[int, str | None, int]:
    """(m, lowest eigenvalue as float.hex, info) from scipy's f2py dstebz, the oracle.

    f2py wants a nonempty off-diagonal; at dim 1 LAPACK reads none.
    """
    off = t.offdiag if t.dim > 1 else np.zeros(1)
    m, w, _, _, info = dstebz(np.zeros(t.dim), off, {b"V": 1, b"I": 2}[kind],
                              vl, vu, il, iu, abstol, b"E")
    return m, float(w[0]).hex() if m else None, info


def _bound_stebz(t: SymTridiagonal, *args) -> tuple[int, str | None, int]:
    """The same triple from the ctypes binding."""
    m, value, info = spectra._dstebz(t, *args)
    return m, value.hex() if m else None, info


@pytest.fixture
def rebind_lapack():
    """Unbind LAPACK before and after the test, so the test binds its own."""
    spectra._lapack.cache_clear()
    yield
    spectra._lapack.cache_clear()


def _hide_numpy_lapack(monkeypatch):
    monkeypatch.setattr(spectra, "_NUMPY_LAPACK_SYMBOLS", ("no_dstebz_", "no_dlasq1_"))


class TestLapackBinding:
    """The ctypes binding of dstebz and dlasq1, against scipy's f2py dstebz."""

    def test_both_modes_match_scipy_bit_for_bit_on_every_small_dim(self):
        # value mode on an interval around one eigenvalue, and one that only counts
        tiny = spectra._STEBZ_ABSTOL
        for n in range(1, 301):
            t = position_tridiagonal(n)
            pad = 1.0 + 2.0 * max(t.offdiag, default=0.0)
            ev = np.concatenate(([-pad], eig_all(t), [pad]))
            cases = [(b"I", 0.0, 0.0, i, i, tiny) for i in sorted({1, (n + 1) // 2, n})]
            cases += [(b"V", 0.5 * (ev[i - 1] + ev[i]), 0.5 * (ev[i] + ev[i + 1]), 0, 0, tiny)
                      for i in sorted({1, n // 2 + 1, n})]
            cases.append((b"V", -ev[-1], ev[-1], 0, 0, 2.0 * ev[-1]))
            for case in cases:
                assert _bound_stebz(t, *case) == _scipy_stebz(t, *case), (n, case)

    def test_repeated_calls_on_one_matrix_match_scipy_at_large_dim(self):
        n = 10**5
        t = position_tridiagonal(n)
        (m, half_m), (big, half_big) = spectra._extreme_guesses(n)
        tiny = spectra._STEBZ_ABSTOL
        cases = []
        for guess, half in ((big, half_big), (m, half_m)):
            lo, hi = guess * (1.0 - half), guess * (1.0 + half)
            cases += [(b"V", lo, hi, 0, 0, tiny), (b"V", -lo, lo, 0, 0, 4.0 * lo)]
        cases += [(b"I", 0.0, 0.0, i + 1, i + 1, tiny) for i in spectra._extreme_indices(n)]
        rejected = (b"V", big, m, 0, 0, tiny)  # vu < vl: info = -5 and no count
        for case in cases + [rejected] + cases[:2]:
            assert _bound_stebz(t, *case) == _scipy_stebz(t, *case), case

    def test_threads_sharing_one_matrix(self):
        # the GIL is released inside dstebz; each call must still see its own
        # arguments and results
        t = position_tridiagonal(3000)
        expected = {i: spectra._stebz_eigenvalue(t, i) for i in range(1500, 3000, 100)}

        def work(seed):
            indices = list(expected)[seed % 3::3] * 4
            return [(i, spectra._stebz_eigenvalue(t, i)) for i in indices]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(work, seed) for seed in range(6)]
                results = [pair for f in futures for pair in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert all(value == expected[i] for i, value in results)

    def test_binding_is_logged_once_with_its_source(self, rebind_lapack, caplog):
        source = "numpy" if spectra._numpy_routines() is not None else "scipy"
        with caplog.at_level(logging.DEBUG, logger="planequant.spectra"):
            spectra._lapack()
            spectra._lapack()
        messages = [r.getMessage() for r in caplog.records if "LAPACK" in r.getMessage()]
        assert len(messages) == 1 and f"from {source}" in messages[0], messages

    def test_scipy_capsules_give_the_same_bits(self, monkeypatch, rebind_lapack, caplog):
        dims = [n for n in TABLE_DIMS if n <= 10**5]
        native = [extreme_eigenvalues(position_tridiagonal(n)) for n in dims]
        spectrum = eig_all(position_tridiagonal(1001))
        _hide_numpy_lapack(monkeypatch)
        spectra._lapack.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="planequant.spectra"):
            assert spectra._lapack().integer is ctypes.c_int
        assert "LAPACK dstebz and dlasq1 from scipy" in caplog.text
        assert [extreme_eigenvalues(position_tridiagonal(n)) for n in dims] == native
        assert eig_all(position_tridiagonal(1001)).tobytes() == spectrum.tobytes()

    def test_no_lapack_is_a_usage_error_naming_the_extra(self, monkeypatch, rebind_lapack,
                                                         tmp_path, capsys):
        _hide_numpy_lapack(monkeypatch)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        with pytest.raises(MissingDependencyError, match="'scipy' extra"):
            extreme_eigenvalues(position_tridiagonal(10))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["spectrum", "--n", "50"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "'scipy' extra" in err and "Traceback" not in err


class TestSturmCount:
    def test_half_below_zero_for_even_dim(self):
        for n in (2, 10, 64):
            assert sturm_count(position_tridiagonal(n), 0.0) == n // 2

    def test_zero_eigenvalue_straddle_for_odd_dim(self):
        for n in (3, 11, 101):
            t = position_tridiagonal(n)
            assert sturm_count(t, 1e-9) - sturm_count(t, -1e-9) == 1

    def test_everything_below_gershgorin_bound(self):
        t = position_tridiagonal(50)
        assert sturm_count(t, t.gershgorin_bound() + 1.0) == 50
        assert sturm_count(t, -t.gershgorin_bound() - 1.0) == 0

    def test_monotone_in_shift(self):
        t = position_tridiagonal(33)
        shifts = np.linspace(-9, 9, 40)
        counts = [sturm_count(t, float(s)) for s in shifts]
        assert counts == sorted(counts)

    def test_agrees_with_full_spectrum(self):
        rng = np.random.default_rng(41)
        for n in (12, 101, 300):
            t = position_tridiagonal(n)
            ev = eig_all(t)
            bound = math.sqrt(2.0 * n) + 1.0
            for lam in rng.uniform(-bound, bound, size=50):
                assert sturm_count(t, float(lam)) == int(np.searchsorted(ev, lam))


class TestExtremeEigenvalues:
    def test_three_by_three_single_positive_zero(self):
        lam_min, lam_max = extreme_eigenvalues(position_tridiagonal(3))
        root = math.sqrt(1.5)
        assert lam_min == pytest.approx(root, rel=1e-12)
        assert lam_max == pytest.approx(root, rel=1e-12)

    def test_reference_product_at_dim_ten(self):
        lam_min, lam_max = extreme_eigenvalues(position_tridiagonal(10))
        sigma = 4.0 * lam_min * lam_max
        assert sigma == pytest.approx(4.713054, abs=1e-5)

    def test_requires_dim_two(self):
        with pytest.raises(ValueError):
            extreme_eigenvalues(position_tridiagonal(1))

    def test_deterministic(self):
        t = position_tridiagonal(500)
        assert extreme_eigenvalues(t) == extreme_eigenvalues(t)

    def test_matches_full_spectrum_on_every_small_dim(self):
        # compared on the lambda_M scale; the relative agreement of every
        # positive eigenvalue is test_matches_stebz_relative_on_every_small_dim
        for n in range(2, 301):
            ev = eig_all(position_tridiagonal(n))
            idx_m, idx_max = _extreme_indices(n)
            lam_min, lam_max = extreme_eigenvalues(position_tridiagonal(n))
            assert abs(lam_min - ev[idx_m]) <= 1e-14 * ev[-1]
            assert abs(lam_max - ev[idx_max]) <= 1e-14 * ev[-1]

    def test_sturm_brackets_every_small_dim(self):
        for n in range(2, 301):
            t = position_tridiagonal(n)
            _assert_sturm_bracketed(t, *extreme_eigenvalues(t))

    def test_sturm_brackets_at_one_million(self):
        t = position_tridiagonal(1_000_000)
        _assert_sturm_bracketed(t, *extreme_eigenvalues(t))

    def test_matches_full_spectrum_to_tolerance(self):
        for n in (17, 64, 333):
            ev = eig_all(position_tridiagonal(n))
            lam_min, lam_max = extreme_eigenvalues(position_tridiagonal(n))
            assert lam_max == pytest.approx(ev[-1], abs=1e-12)
            positive = ev[ev > 1e-9]
            assert lam_min == pytest.approx(positive[0], abs=1e-12)


class TestBracketedRoute:
    """The asymptotic bracket must hit on every dimension it serves, agree
    with the index route to 2 ulp, and fall back to that route exactly when
    LAPACK's counts do not prove the bracketed index."""

    @staticmethod
    def _index_route(t: SymTridiagonal) -> tuple[float, float]:
        return tuple(spectra._stebz_eigenvalue(t, i) for i in _extreme_indices(t.dim))

    def test_guesses_within_a_tenth_of_the_half_width(self):
        for n in (spectra._BRACKET_MIN_DIM, spectra._BRACKET_MIN_DIM + 1, 1000, 1001, 5000):
            ev = eig_all(position_tridiagonal(n))
            for (guess, half_width), index in zip(spectra._extreme_guesses(n),
                                                  _extreme_indices(n)):
                assert abs(guess / ev[index] - 1.0) <= 0.1 * half_width, (n, index)

    def test_no_fallback_on_ladder_and_survey(self, caplog):
        dims = TABLE_DIMS + list(range(spectra._BRACKET_MIN_DIM, 2001))
        with caplog.at_level(logging.DEBUG, logger=spectra.__name__):
            sigma_table(dims)
        assert [r.getMessage() for r in caplog.records] == []

    def test_matches_index_route_to_two_ulp(self):
        for n in list(range(spectra._BRACKET_MIN_DIM, 3001)) + TABLE_DIMS:
            t = position_tridiagonal(n)
            exact = self._index_route(t)
            for got, want in zip(extreme_eigenvalues(t), exact):
                assert abs(got - want) <= 2.0 * np.spacing(want), (n, got, want)
            if n < spectra._BRACKET_MIN_DIM:
                continue
            # margin of at least 2: the index route's value lies within half of
            # its bracket's half-width of the guess
            for (guess, half_width), want in zip(spectra._extreme_guesses(n), exact):
                assert abs(guess / want - 1.0) <= 0.5 * half_width, (n, guess, want, half_width)

    def test_largest_eigenvalue_bisects_from_a_narrow_bracket(self):
        _, (_, half_width) = spectra._extreme_guesses(10**4)
        assert half_width <= 1e-13

    def test_index_route_below_threshold(self, monkeypatch):
        def no_guess(n_dim):
            raise AssertionError("asymptotic guesses used below the threshold")

        monkeypatch.setattr(spectra, "_extreme_guesses", no_guess)
        t = position_tridiagonal(spectra._BRACKET_MIN_DIM - 1)
        assert extreme_eigenvalues(t) == self._index_route(t)

    @pytest.mark.parametrize("n", [1000, 1001])
    @pytest.mark.parametrize("miss", ["neighbour", "wide", "empty", "narrow", "degenerate"])
    def test_missed_bracket_falls_back_to_index_route(self, n, miss, monkeypatch, caplog):
        t = position_tridiagonal(n)
        ev = eig_all(t)
        idx_m, idx_max = _extreme_indices(n)
        exact = self._index_route(t)
        width = 1e-9
        guesses = {
            # one eigenvalue in the bracket, but not the wanted one
            "neighbour": ((ev[idx_m + 1], width), (ev[idx_max - 1], width)),
            # several eigenvalues in the bracket
            "wide": ((3.0 * ev[idx_m], 0.9), (0.5 * ev[idx_max], 0.9)),
            # none in the bracket
            "empty": ((1.5 * ev[idx_m], width), (2.0 * ev[idx_max], width)),
            # just above stebz's value, too narrow to reach it
            "narrow": tuple((v * (1.0 + 4.0 * EPS), EPS) for v in exact),
            # no interval at all
            "degenerate": ((exact[0], 0.0), (-exact[1], width)),
        }[miss]
        monkeypatch.setattr(spectra, "_extreme_guesses", lambda n_dim: guesses)
        with caplog.at_level(logging.DEBUG, logger=spectra.__name__):
            assert extreme_eigenvalues(t) == exact
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        for line, index in zip(lines, (idx_m, idx_max)):
            assert line.startswith(f"dim {n}, index {index}: bracket (")


class TestSpectrumSummary:
    def test_dim_two_product(self):
        s = spectrum_summary(2)
        assert s.sigma == pytest.approx(2.0, abs=1e-12)
        assert s.parity == "even"
        assert s.delta == pytest.approx(2.0 * s.lambda_min_pos)

    def test_dim_three_product(self):
        s = spectrum_summary(3)
        assert s.sigma == pytest.approx(3.0, abs=1e-12)
        assert s.parity == "odd"
        assert s.delta == pytest.approx(s.lambda_min_pos)

    def test_reference_value_dim_1000(self):
        s = spectrum_summary(1000)
        assert s.sigma == pytest.approx(6.209670, abs=1e-5)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            spectrum_summary(1)

    def test_numpy_integer_dimensions(self):
        assert position_tridiagonal(np.int64(5)).dim == 5
        s = spectrum_summary(np.int32(10))
        assert type(s.dim) is int
        assert json.loads(summaries_to_json([s]))[0]["N"] == 10
        assert [t.dim for t in sigma_table([np.int64(10), np.uint16(11)])] == [10, 11]
        assert type(hermite_value(np.int64(3), 0.3)[1]) is int

    @pytest.mark.parametrize("call", [
        lambda: position_tridiagonal(True),
        lambda: spectrum_summary(np.True_),
        lambda: sigma_table([3, True]),
        lambda: sigma_table([3, 4.0]),
        lambda: char_poly_recurrence(True, 0.3),
        lambda: char_poly_recurrence(2.5, 0.3),
        lambda: hermite_residual(0, [0.3]),
        lambda: hermite_residual(-2, [0.3]),
        lambda: asymptotic_check("200"),
        lambda: asymptotic_check(200.0),
    ])
    def test_rejects_bool_and_float_dimensions(self, call):
        with pytest.raises(ValueError, match="integer"):
            call()

    def test_physical_memory_is_reported(self):
        assert frame._physical_memory_bytes() > 0

    def test_memory_guard_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(frame, "_physical_memory_bytes", lambda: 8 * 2**30)
        for call in (lambda: position_tridiagonal(10**9),
                     lambda: spectrum_summary(10**9),
                     lambda: sigma_table([10, 10**9])):
            with pytest.raises(ValueError, match="physical memory"):
                call()

    def test_memory_guard_checks_the_whole_list_first(self, monkeypatch):
        room = spectra._BYTES_PER_DIM * 1000
        monkeypatch.setattr(frame, "_physical_memory_bytes", lambda: room)
        assert position_tridiagonal(1000).dim == 1000
        with pytest.raises(ValueError, match="dim 1001"):
            position_tridiagonal(1001)

        def no_work(*args, **kwargs):
            raise AssertionError("spectrum_summary ran before the memory check")

        monkeypatch.setattr(spectra, "spectrum_summary", no_work)
        with pytest.raises(ValueError, match="dim 1001"):
            sigma_table([10, 1001])

    def test_memory_guard_covers_the_bisection_workspaces(self):
        n = 10**5
        tracemalloc.start()
        try:
            extreme_eigenvalues(position_tridiagonal(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= spectra._BYTES_PER_DIM * n, peak / n

    def test_matrix_holds_no_lapack_workspace_between_calls(self):
        n = 10**5
        tracemalloc.start()
        try:
            t = position_tridiagonal(n)
            extreme_eigenvalues(t)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 16 * n, retained / n

    def test_invariant_guard(self):
        with pytest.raises(VerificationError, match="lambda_m <= lambda_M"):
            SpectrumSummary(dim=4, lambda_min_pos=2.0, lambda_max=1.0)

    def test_two_pi_guard_on_the_derived_product(self):
        with pytest.raises(VerificationError, match="sigma = 8.0 violates the 2[*]pi bound"):
            SpectrumSummary(3, 2.0, 2.0)

    def test_derives_what_it_does_not_store(self):
        even, odd = SpectrumSummary(4, 0.5, 1.0), SpectrumSummary(5, 0.5, 1.0)
        assert (even.parity, even.delta, even.width, even.sigma) == ("even", 1.0, 2.0, 2.0)
        assert (odd.parity, odd.delta, odd.width, odd.sigma) == ("odd", 0.5, 2.0, 1.0)
        with pytest.raises(TypeError):
            SpectrumSummary(dim=4, lambda_min_pos=0.5, lambda_max=1.0,
                            delta=0.1, width=2.0, sigma=1.0, parity="odd")


class TestSigmaTable:
    def test_matches_independent_dqds_route(self):
        # sigma rebuilt from the full dqds spectrum, not from the stebz route
        # that sigma_table runs; both are within a few ulps of each other
        for s in sigma_table(range(2, 40)):
            ev = eig_all(position_tridiagonal(s.dim))
            lam_m, lam_max = float(ev[ev > 0.0][0]), float(ev[-1])
            delta = 2.0 * lam_m if s.dim % 2 == 0 else lam_m
            expected = delta * 2.0 * lam_max
            assert abs(s.sigma - expected) <= 1e-14 * expected, s.dim

    def test_monotone_within_parity(self):
        summaries = sigma_table(list(range(2, 81)))
        sigmas = {s.dim: s.sigma for s in summaries}
        for n in range(2, 79):
            assert sigmas[n + 2] > sigmas[n]

    def test_all_below_two_pi(self):
        for s in sigma_table([2, 3, 10, 55, 100, 551]):
            assert s.sigma < TWO_PI

    def test_rejects_empty_or_bad(self):
        with pytest.raises(ValueError):
            sigma_table([])
        with pytest.raises(ValueError):
            sigma_table([2, 1])

    def test_no_runtime_warnings_on_survey_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summaries = sigma_table(range(2, 2001))
        assert len(summaries) == 1999


class TestGapProperties:
    @pytest.mark.parametrize("n", [5, 12, 100, 101])
    def test_gaps_and_interlacing_pass(self, n):
        report = gap_properties(n)
        assert report.passed
        assert report.worst_gap_margin > 0.0
        assert report.worst_interlacing_margin > 0.0

    def test_flags_derive_from_margins(self):
        report = GapReport(dim=5, worst_gap_margin=-1e-3, worst_interlacing_margin=2.0)
        assert (report.parity, report.gaps_ok, report.interlacing_ok) == ("odd", False, True)
        assert not report.passed

    def test_interlacing_is_strict_for_ten_eleven(self):
        ev10 = eig_all(position_tridiagonal(10))
        ev11 = eig_all(position_tridiagonal(11))
        assert np.all(ev11[:-1] < ev10) and np.all(ev10 < ev11[1:])


class TestSemicircle:
    def test_full_support_integrates_to_dim(self):
        n = 100
        a = math.sqrt(2.0 * n)
        assert semicircle_density(n, -a, a) == pytest.approx(n, rel=1e-12)

    def test_half_support_by_symmetry(self):
        n = 64
        assert semicircle_density(n, 0.0, math.sqrt(2.0 * n)) == pytest.approx(n / 2, rel=1e-12)

    def test_out_of_support_clips_with_warning(self):
        n = 16
        with pytest.warns(UserWarning, match="clipped"):
            full = semicircle_density(n, -100.0, 100.0)
        assert full == pytest.approx(n, rel=1e-12)

    def test_matches_sturm_counts_at_scale(self):
        rng = np.random.default_rng(2)
        n = 2000
        a = math.sqrt(2.0 * n)
        for _ in range(6):
            x1, x2 = np.sort(rng.uniform(-0.8 * a, 0.8 * a, size=2))
            if x2 - x1 < 0.3 * a:
                x2 = min(x1 + 0.3 * a, 0.9 * a)
            predicted, counted, rel = semicircle_count_deviation(n, float(x1), float(x2))
            assert rel <= 0.02

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            semicircle_density(10, 1.0, -1.0)


class TestAsymptotics:
    def test_requires_large_dim(self):
        with pytest.raises(ValueError):
            asymptotic_check(50)

    def test_ratios_below_one_and_improving(self):
        reports = [asymptotic_check(n) for n in (100, 400, 1600)]
        for r in reports:
            assert 0.9 < r.largest_ratio < 1.0
            assert 0.9 < r.smallest_ratio < 1.0
            assert 0.9 < r.sigma_ratio < 1.0
        assert reports[0].largest_ratio < reports[1].largest_ratio < reports[2].largest_ratio
        assert reports[0].sigma_ratio < reports[1].sigma_ratio < reports[2].sigma_ratio

    def test_parity_prefactors_visible(self):
        even = asymptotic_check(100)
        odd = asymptotic_check(101)
        assert even.smallest_ratio == pytest.approx(1.0, abs=0.01)
        assert odd.smallest_ratio == pytest.approx(1.0, abs=0.01)


class TestExports:
    def test_summary_csv_schema(self):
        text = summaries_to_csv(sigma_table([10, 55]))
        lines = text.strip().splitlines()
        assert lines[0] == "N,lambda_m,lambda_M,delta,width,sigma,parity,two_pi"
        cells = lines[1].split(",")
        assert cells[0] == "10" and cells[6] == "even"
        assert float(cells[5]) == pytest.approx(4.713054, abs=1e-5)

    def test_csv_and_json_share_one_row_schema(self):
        summaries = sigma_table([2, 3, 10, 55])
        header, *lines = summaries_to_csv(summaries).splitlines()
        rows = json.loads(summaries_to_json(summaries))
        assert len(lines) == len(rows) == 4
        for line, row in zip(lines, rows):
            assert header.split(",") == list(row)
            assert line.split(",") == [f"{v:.9g}" if isinstance(v, float) else str(v)
                                       for v in row.values()]
        with pytest.raises(ValueError, match="no summaries"):
            summaries_to_csv([])

    def test_summary_json(self):
        import json

        rows = json.loads(summaries_to_json(sigma_table([3])))
        assert rows[0]["N"] == 3
        assert rows[0]["sigma"] == pytest.approx(3.0, abs=1e-11)
        assert rows[0]["two_pi"] == TWO_PI

    def test_spectrum_csv(self):
        text = spectrum_to_csv(eig_all(position_tridiagonal(3)))
        lines = text.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 4

    def test_gnuplot_scripts_reference_csv(self):
        assert "'s.csv'" in gnuplot_sigma_script("s.csv")
        assert "strcol(7)" in gnuplot_extremes_script("s.csv")
