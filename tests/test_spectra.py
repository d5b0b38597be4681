"""Tests for the tridiagonal spectral machinery.

The two LAPACK routes, the full spectrum by dqds on the half-size
bidiagonal and the Sturm counts that certify the extreme eigenvalues, are
cross-checked throughout, and both are held against the pure-Python Sturm
count.  The asymptotic guesses and the certified extreme eigenvalues are
held against the 40-digit Hermite zeros of tests/data/hermite_extremes.json,
written by tests/make_hermite_reference.py.
"""

import ctypes
import importlib.util
import json
import logging
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dstebz

from planequant import cli, frame, spectra, verify
from planequant.cli import _TABLE_DIMS as TABLE_DIMS
from planequant.errors import ConvergenceError, MissingDependencyError, VerificationError
from planequant.operators import momentum_operator
from planequant.spectra import (
    SpectrumSummary,
    SymTridiagonal,
    eig_all,
    extreme_eigenvalues,
    gap_margin,
    gnuplot_extremes_script,
    gnuplot_sigma_script,
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
TINY = np.finfo(float).tiny
_TESTS = Path(__file__).parent
_REFERENCE_PATH = _TESTS / "data" / "hermite_extremes.json"


def _extreme_indices(n: int) -> tuple[int, int]:
    """0-based ascending indices of the smallest positive and largest eigenvalue."""
    return (n + 1) // 2, n - 1


def _assert_counted(t: SymTridiagonal, lam: float, index: int, rel: float) -> None:
    """The oracle counts exactly eigenvalue ``index`` within ``rel`` relative of lam."""
    below = sturm_count(t, lam * (1.0 - rel))
    above = sturm_count(t, lam * (1.0 + rel))
    assert (below, above) == (index, index + 1), (t.dim, lam, rel)


def _assert_sturm_bracketed(t: SymTridiagonal, lam_min: float, lam_max: float) -> None:
    """Exactly one eigenvalue, the expected one, near each result.

    Within 8 ulps, except for lambda_m from N = 100 on: that is the guess,
    near the true zero, while the oracle's count changes up to N eps / 24.5
    relative away from it, so it is counted within N eps / 8, and eps for
    the guess's own error.
    """
    rels = [8.0 * EPS, 8.0 * EPS]
    if t.dim >= spectra._BRACKET_MIN_DIM:
        rels[0] = (t.dim / 8.0 + 1.0) * EPS
    for lam, index, rel in zip((lam_min, lam_max), _extreme_indices(t.dim), rels):
        _assert_counted(t, lam, index, rel)


@cache
def _reference_zeros() -> dict[int, tuple[float, float]]:
    """(lambda_m, lambda_M) by dimension from the committed 40-digit reference."""
    zeros = json.loads(_REFERENCE_PATH.read_text(encoding="utf-8"))["zeros"]
    return {int(n): (float(z["lambda_m"]), float(z["lambda_M"])) for n, z in zeros.items()}


def _assert_near_reference(n: int, extremes) -> None:
    """Both extremes within 2 ulp of the reference zeros."""
    for got, ref in zip(extremes, _reference_zeros()[n]):
        assert abs(got - ref) <= 2.0 * np.spacing(ref), (n, got, ref)


class TestSymTridiagonal:
    def test_position_data(self):
        # the matrix is its squared off-diagonal k/2, exact in binary
        for n in (1, 2, 5, 1001, 10**6):
            t = position_tridiagonal(n)
            assert t.dim == n and list(vars(t)) == ["dim", "e2"]
            assert t.e2.tobytes() == (np.arange(1, n) / 2).tobytes(), n
            assert not t.e2.flags.writeable
        with pytest.raises(TypeError):
            SymTridiagonal(offdiag=np.ones(2))


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

    def test_sturm_counts_its_extremes_and_interlaces_neighbors(self):
        n = 12
        t = position_tridiagonal(n)
        ev = eig_all(t)
        for i in _extreme_indices(n):
            _assert_counted(t, float(ev[i]), i, 8.0 * EPS)
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
            m, w, _, _, info = dstebz(np.zeros(n), np.sqrt(t.e2), 1, 0.0, math.inf, 0, 0,
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

    dstebz takes the off-diagonal and squares it itself.  f2py wants a
    nonempty off-diagonal; at dim 1 LAPACK reads none.
    """
    off = np.sqrt(t.e2) if t.dim > 1 else np.zeros(1)
    m, w, _, _, info = dstebz(np.zeros(t.dim), off, {b"V": 1, b"I": 2}[kind],
                              vl, vu, il, iu, abstol, b"E")
    return m, float(w[0]).hex() if m else None, info


@pytest.fixture
def rebind_lapack():
    """Unbind LAPACK before and after the test, so the test binds its own."""
    spectra._lapack.cache_clear()
    yield
    spectra._lapack.cache_clear()


def _hide_numpy_lapack(monkeypatch):
    monkeypatch.setattr(spectra, "_NUMPY_LAPACK_SYMBOLS", ("no_dlaebz_", "no_dlasq1_"))


def _brackets(n: int) -> list[tuple[float, float]]:
    """Both (lo, hi] brackets that prove the extremes of dimension n, of the one room."""
    room = spectra._room(n)
    return [(v * (1.0 - room), v * (1.0 + room)) for v in extreme_eigenvalues(n)]


def _isolating_brackets(t: SymTridiagonal, indices) -> list[tuple[float, float]]:
    """For each index i, eigenvalue i alone in a bracket cut at eig_all's midpoints."""
    ev = eig_all(t)
    cuts = np.concatenate(([ev[0] - 1.0], 0.5 * (ev[1:] + ev[:-1]), [ev[-1] + 1.0]))
    return [(float(cuts[i]), float(cuts[i + 1])) for i in indices]


class TestLapackBinding:
    """The ctypes binding of dlaebz and dlasq1, against the pure-Python count
    and scipy's f2py dstebz, the LAPACK driver that calls dlaebz."""

    @pytest.mark.parametrize("n", [100, 101, 1000, 4606, 4607, 5555, 10**4, 10**5 + 1, 10**6])
    def test_counts_match_the_oracle_and_dstebz_on_both_brackets(self, n):
        t = position_tridiagonal(n)
        brackets = _brackets(n)
        for (lo, hi), (at_lo, at_hi) in zip(brackets, spectra._dlaebz(t, brackets)):
            assert (at_lo, at_hi) == (sturm_count(t, lo), sturm_count(t, hi)), n
            # a count-only dstebz call (a tolerance wider than the bracket) counts the same matrix
            m, _, info = _scipy_stebz(t, b"V", lo, hi, 0, 0, 4.0 * hi)
            assert (m, info) == (at_hi - at_lo, 0), (n, lo, hi)

    def test_counts_between_every_eigenvalue_of_small_dims(self):
        for n in range(1, 61):
            t = position_tridiagonal(n)
            ev = eig_all(t)
            pad = 1.0 + 2.0 * math.sqrt(t.e2.max(initial=0.0))
            shifts = np.concatenate(([-pad], 0.5 * (ev[1:] + ev[:-1]), [pad])).tolist()
            # and each eigenvalue's own ends, 8 eps relative out (8 eps for the
            # zero of odd N), where a count on a perturbed diagonal changes
            half = 8.0 * EPS * np.maximum(np.abs(ev), 1.0)
            ends = list(zip((ev - half).tolist(), (ev + half).tolist()))
            brackets = [*zip(shifts[:-1], shifts[1:]), *ends, (-pad, pad)]
            counted = spectra._dlaebz(t, brackets)
            assert counted == [(sturm_count(t, lo), sturm_count(t, hi)) for lo, hi in brackets], n
            assert counted[n:2 * n] == [(i, i + 1) for i in range(n)], n
            assert counted[-1] == (0, n)

    def test_threads_sharing_one_matrix(self):
        # the GIL is released inside dlaebz; each call must still see its own
        # arguments and results
        t = position_tridiagonal(3000)
        brackets = dict(zip(range(1500, 3000, 100),
                            _isolating_brackets(t, range(1500, 3000, 100))))
        expected = {i: spectra._dlaebz(t, [bracket])[0] for i, bracket in brackets.items()}
        assert all(counts == (i, i + 1) for i, counts in expected.items())

        def work(seed):
            indices = list(expected)[seed % 3::3] * 4
            return [(i, spectra._dlaebz(t, [brackets[i]])[0]) for i in indices]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(work, seed) for seed in range(6)]
                results = [pair for f in futures for pair in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert all(counted == expected[i] for i, counted in results)

    @pytest.mark.parametrize("n, info", [(1000, -1)], ids=["count"])
    def test_dlaebz_failure_is_convergence_error(self, n, info, monkeypatch):
        # LAPACK's bisection kernel reports info = -1 on a count (ijob 1) only
        # for an ijob out of range; whatever it reports, the route stops
        # rather than read its counts.  The count it was handed reads the
        # matrix's e2, passed as e2 and in e's place
        lapack = spectra._lapack()
        e_is_e2 = []

        @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)
        def failing_dlaebz(*args):
            e_is_e2.append(args[10] == args[11])
            lapack.dlaebz(*args)
            lapack.integer.from_address(args[-1]).value = info

        monkeypatch.setattr(spectra, "_lapack", lambda: lapack._replace(dlaebz=failing_dlaebz))
        with pytest.raises(ConvergenceError, match=f"info = {info} for dim {n}"):
            extreme_eigenvalues(n)
        assert e_is_e2 == [True]

    @pytest.mark.parametrize("n", [100, 1001, 55255])
    def test_count_reads_no_e(self, n, monkeypatch):
        # with ijob = 1 dlaebz reads d, e2 and pivmin alone, which is why
        # _dlaebz may pass e2 in e's place: a NaN e gives the same counts
        t = position_tridiagonal(n)
        edge = math.sqrt(2.0 * n) + 1.0
        shifts = np.linspace(-edge, edge, 151).tolist()
        brackets = list(zip(shifts[:-1], shifts[1:]))
        counts = spectra._dlaebz(t, brackets)
        lapack, nan_e = spectra._lapack(), np.full(n, math.nan)

        @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)
        def nan_e_dlaebz(*args):
            lapack.dlaebz(*args[:10], nan_e.ctypes.data, *args[11:])

        monkeypatch.setattr(spectra, "_lapack", lambda: lapack._replace(dlaebz=nan_e_dlaebz))
        assert spectra._dlaebz(t, brackets) == counts
        assert counts[0][0] == 0 and counts[-1][1] == n

    def test_binding_is_logged_once_with_its_source(self, rebind_lapack, caplog):
        source = "numpy" if spectra._numpy_routines() is not None else "scipy"
        with caplog.at_level(logging.DEBUG, logger="planequant.spectra"):
            spectra._lapack()
            spectra._lapack()
        messages = [r.getMessage() for r in caplog.records if "LAPACK" in r.getMessage()]
        assert len(messages) == 1 and f"from {source}" in messages[0], messages

    def test_scipy_capsules_give_the_same_bits(self, monkeypatch, rebind_lapack, caplog):
        # the ladder's dqds dims and certified extremes, and two more
        # certified dims, one odd
        dims = [n for n in TABLE_DIMS if n <= 10**5] + [101, 1311]
        native = [extreme_eigenvalues(n) for n in dims]
        spectrum = eig_all(position_tridiagonal(1001))
        _hide_numpy_lapack(monkeypatch)
        spectra._lapack.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="planequant.spectra"):
            assert spectra._lapack().integer is ctypes.c_int
        assert "LAPACK dlaebz and dlasq1 from scipy" in caplog.text
        assert [extreme_eigenvalues(n) for n in dims] == native
        assert eig_all(position_tridiagonal(1001)).tobytes() == spectrum.tobytes()

    def test_no_lapack_is_a_usage_error_naming_the_extra(self, monkeypatch, rebind_lapack,
                                                         tmp_path, capsys):
        _hide_numpy_lapack(monkeypatch)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        with pytest.raises(MissingDependencyError, match="'scipy' extra"):
            extreme_eigenvalues(10)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["spectrum", "--n", "50"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "'scipy' extra" in err and "Traceback" not in err


class TestSturmCount:
    def test_half_below_zero_for_even_dim(self):
        for n in (2, 10, 64):
            assert sturm_count(position_tridiagonal(n), 0.0) == n // 2

    def test_counts_the_zero_eigenvalue_of_odd_dim_at_zero(self):
        # both counts take the eigenvalues at or below the shift, as LAPACK's do
        for n in (1, 3, 11, 101):
            t = position_tridiagonal(n)
            (_, at_zero), = spectra._dlaebz(t, [(0.0, 0.0)])
            below_or_at = int(np.searchsorted(eig_all(t), 0.0, side="right"))
            assert sturm_count(t, 0.0) == at_zero == below_or_at == (n + 1) // 2, n

    def test_zero_eigenvalue_straddle_for_odd_dim(self):
        for n in (3, 11, 101):
            t = position_tridiagonal(n)
            assert sturm_count(t, 1e-9) - sturm_count(t, -1e-9) == 1

    def test_tiny_positive_pivot_keeps_its_sign(self):
        # the oracle floors a pivot of magnitude below pivmin to the floor of
        # its own sign, dlaebz to -pivmin: on the 1 x 1 zero matrix at
        # lam = -1e-310 the pivot is +1e-310, so the oracle counts 0, exactly,
        # and dlaebz counts 1
        t = position_tridiagonal(1)
        assert sturm_count(t, -1e-310) == 0
        assert spectra._dlaebz(t, [(-1e-310, 1e-310)]) == [(1, 1)]
        assert sturm_count(t, 1e-310) == 1

    def test_everything_below_gershgorin_bound(self):
        t = position_tridiagonal(50)
        bound = 2.0 * math.sqrt(t.e2.max())  # no row of |entries| sums to more
        assert sturm_count(t, bound + 1.0) == 50
        assert sturm_count(t, -bound - 1.0) == 0

    def test_nan_shift_raises(self):
        # every pivot comparison with NaN is False, which would count 0
        t = position_tridiagonal(5)
        with pytest.raises(ValueError, match="lam must not be NaN"):
            sturm_count(t, math.nan)
        assert (sturm_count(t, math.inf), sturm_count(t, -math.inf)) == (5, 0)

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
        lam_min, lam_max = extreme_eigenvalues(3)
        root = math.sqrt(1.5)
        assert lam_min == pytest.approx(root, rel=1e-12)
        assert lam_max == pytest.approx(root, rel=1e-12)

    def test_reference_product_at_dim_ten(self):
        lam_min, lam_max = extreme_eigenvalues(10)
        sigma = 4.0 * lam_min * lam_max
        assert sigma == pytest.approx(4.713054, abs=1e-5)

    def test_requires_dim_two(self):
        with pytest.raises(ValueError):
            extreme_eigenvalues(1)

    def test_deterministic(self):
        assert extreme_eigenvalues(500) == extreme_eigenvalues(500)

    def test_matches_full_spectrum_on_every_small_dim(self):
        # compared on the lambda_M scale; the relative agreement of every
        # positive eigenvalue is test_matches_stebz_relative_on_every_small_dim
        for n in range(2, 301):
            ev = eig_all(position_tridiagonal(n))
            idx_m, idx_max = _extreme_indices(n)
            lam_min, lam_max = extreme_eigenvalues(n)
            assert abs(lam_min - ev[idx_m]) <= 1e-14 * ev[-1]
            assert abs(lam_max - ev[idx_max]) <= 1e-14 * ev[-1]

    def test_sturm_brackets_every_small_dim(self):
        for n in range(2, 301):
            t = position_tridiagonal(n)
            _assert_sturm_bracketed(t, *extreme_eigenvalues(n))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(301, 4606))
    def test_sturm_brackets_sampled_dims(self, n):
        _assert_sturm_bracketed(position_tridiagonal(n), *extreme_eigenvalues(n))

    def test_sturm_brackets_at_one_million(self):
        # lambda_m is the certified guess, the true zero, while the oracle's
        # count changes 4.5e-12 relative away from it, beyond 8 ulps; the
        # oracle must still count it within N eps / 8, and the reference
        # holds its digits
        n = 1_000_000
        extremes = extreme_eigenvalues(n)
        _assert_sturm_bracketed(position_tridiagonal(n), *extremes)
        _assert_near_reference(n, extremes)

    def test_matches_full_spectrum_to_tolerance(self):
        for n in (17, 64, 333):
            ev = eig_all(position_tridiagonal(n))
            lam_min, lam_max = extreme_eigenvalues(n)
            assert lam_max == pytest.approx(ev[-1], abs=1e-12)
            positive = ev[ev > 1e-9]
            assert lam_min == pytest.approx(positive[0], abs=1e-12)


def _dstebz_by_index(t: SymTridiagonal, indices) -> tuple[float, ...]:
    """scipy's f2py dstebz (RANGE='I') on each 0-based index, the independent oracle."""
    return tuple(float.fromhex(_scipy_stebz(t, b"I", 0.0, 0.0, i + 1, i + 1, 2.0 * TINY)[1])
                 for i in indices)


@cache
def _extremes_and_neighbours(n: int) -> tuple[float, float, float, float]:
    """Eigenvalues i_m, i_m + 1, i_M - 1 and i_M of dimension n by dstebz, once per n."""
    i_m, i_max = _extreme_indices(n)
    return _dstebz_by_index(position_tridiagonal(n), (i_m, i_m + 1, i_max - 1, i_max))


class TestBracketedRoute:
    """At every N one count of one room must prove both extremes, the
    guesses must match the reference, and a bracket LAPACK's counts do not
    prove must raise ConvergenceError at every N.  Below N = 100 the
    values are eig_all's entries, and from there on eig_all is not called."""

    def test_guesses_within_a_tenth_of_the_half_width(self):
        # held to the 40-digit reference, not to dqds, whose lambda_M is
        # 21 ulp off at N = 5000 where the guess is within 1
        for n in (spectra._BRACKET_MIN_DIM, spectra._BRACKET_MIN_DIM + 1, 1000, 1001, 1311, 1312,
                  5000):
            for guess, ref in zip(spectra._extreme_guesses(n), _reference_zeros()[n]):
                assert abs(guess / ref - 1.0) <= 0.1 * spectra._room(n), (n, guess, ref)

    @pytest.mark.parametrize("n", [100, 101, 102, 340, 1001, 1320, 10**4, 10**5, 2, 3, 55, 99])
    def test_counts_change_within_half_the_room_of_the_zero(self, n):
        # each count changes at the least double of its proved bracket that
        # counts index + 1, found by bisecting the bracket's doubles with
        # dlaebz and confirmed by the oracle.  That point lies within the
        # (N - 1) eps / 2 drift of the 40-digit zero that the room is derived
        # from, lambda_M's within 2 ulp, and lambda_m's within N eps / 16
        # (N eps / 24.5 at worst, N = 102) or 1 ulp, as the point is a double
        t = position_tridiagonal(n)
        indices, brackets = _extreme_indices(n), _brackets(n)
        assert spectra._dlaebz(t, brackets) == [(i, i + 1) for i in indices]
        bits = [[int(np.float64(x).view(np.int64)) for x in b] for b in brackets]
        while any(hi - lo > 1 for lo, hi in bits):
            mids = [float(np.int64((lo + hi) // 2).view(np.float64)) for lo, hi in bits]
            # one interval whose two ends are the two midpoints counts both
            (at_m, at_max), = spectra._dlaebz(t, [tuple(mids)])
            for b, mid, count, i in zip(bits, mids, (at_m, at_max), indices):
                if b[1] - b[0] > 1:
                    # the upper end keeps count i + 1, the lower end count i
                    b[1 if count > i else 0] = int(np.float64(mid).view(np.int64))
        if n in _reference_zeros():
            refs = _reference_zeros()[n]
        else:
            newton_zero = _reference_script().newton_zero
            refs = [float(newton_zero(n, v)) for v in extreme_eigenvalues(n)]
        for (lo, hi), i, ref, largest in zip(bits, indices, refs, (False, True)):
            below, point = (float(np.int64(b).view(np.float64)) for b in (lo, hi))
            assert (sturm_count(t, below), sturm_count(t, point)) == (i, i + 1), (n, i)
            drift, ulp = abs(point / ref - 1.0), np.spacing(ref)
            assert drift <= (n - 1) * EPS / 2.0, (n, i, point, ref)
            if largest:
                assert abs(point - ref) <= 2.0 * ulp, (n, i, point, ref)
            else:
                assert drift <= n * EPS / 16.0 or abs(point - ref) <= ulp, (n, i, point, ref)

    def test_ladder_and_survey_return_without_logging(self, caplog):
        dims = TABLE_DIMS + list(range(2, 2001))
        spectra._lapack()  # bound outside the capture, whatever test ran before
        with caplog.at_level(logging.DEBUG, logger=spectra.__name__):
            sigma_table(dims)
        assert [r.getMessage() for r in caplog.records] == []

    def test_matches_dstebz_by_index_to_two_ulp(self):
        # both extremes are held to the 40-digit reference where it has the
        # dimension, and on 100..1320 off the ladder the reference alone is
        # the truth.  Elsewhere lambda_M is also held to f2py dstebz by index;
        # lambda_m's count changes up to N eps / 24.5 away from its true zero.
        # Below N = 100 the truth is test_within_six_ulp_of_newton_below_threshold
        dims = [n for n in TABLE_DIMS if n >= spectra._BRACKET_MIN_DIM]
        reference_only = set(range(spectra._BRACKET_MIN_DIM, 1321)) - set(dims)
        for n in list(range(spectra._BRACKET_MIN_DIM, 3001)) + dims:
            extremes = extreme_eigenvalues(n)
            if n in _reference_zeros():
                _assert_near_reference(n, extremes)
            if n in reference_only:
                exact = _reference_zeros()[n]
            else:
                exact = _dstebz_by_index(position_tridiagonal(n), _extreme_indices(n))
                assert abs(extremes[1] - exact[1]) <= 2.0 * np.spacing(exact[1]), (
                    n, extremes, exact)
            # margin of at least 2: the exact value lies within half of the
            # room of the guess
            room = spectra._room(n)
            for guess, want in zip(spectra._extreme_guesses(n), exact):
                assert abs(guess / want - 1.0) <= 0.5 * room, (n, guess, want, room)

    def test_within_six_ulp_of_newton_below_threshold(self):
        # dqds is not held to dstebz by index here, as the two differ by up
        # to 8 ulp; the truth is 40-digit Newton, started from the dense
        # eigensolver's value so that it finds the zero of the wanted index
        newton_zero = _reference_script().newton_zero
        for n in range(2, 100):
            t = position_tridiagonal(n)
            off = np.sqrt(t.e2)
            dense = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
            for got, i in zip(extreme_eigenvalues(n), _extreme_indices(n)):
                ref = newton_zero(n, float(dense[i]))
                ulp = np.spacing(float(ref))
                assert abs(Decimal(got) - ref) <= 6 * Decimal(ulp), (n, i, got, ref)

    def test_full_spectrum_below_threshold(self, monkeypatch):
        # eig_all's entries, bit for bit, each proved by one count
        counted, dlaebz = [], spectra._dlaebz

        def recorded(t, brackets):
            counted.append(t.dim)
            return dlaebz(t, brackets)

        monkeypatch.setattr(spectra, "_dlaebz", recorded)
        for n in range(2, 100):
            got = extreme_eigenvalues(n)
            ev = eig_all(position_tridiagonal(n))
            assert [v.hex() for v in got] == [float(ev[i]).hex() for i in _extreme_indices(n)], n
            assert all(type(v) is float for v in got)
        assert counted == list(range(2, 100))

    def test_no_full_spectrum_from_threshold(self, monkeypatch):
        def no_eig_all(t):
            raise AssertionError("eig_all called from the threshold on")

        monkeypatch.setattr(spectra, "eig_all", no_eig_all)
        for n in list(range(100, 301)) + [n for n in TABLE_DIMS if n >= 100]:
            extreme_eigenvalues(n)
        # nor for a bracket the counts do not prove
        guess_m, _ = spectra._extreme_guesses(1000)
        monkeypatch.setattr(spectra, "_extreme_guesses", lambda n_dim: (guess_m, guess_m))
        with pytest.raises(ConvergenceError, match="^dim 1000, index 999: "):
            extreme_eigenvalues(1000)

    @pytest.mark.parametrize("miss, n", [
        *((miss, n) for miss in ("neighbour", "wide", "empty", "narrow", "degenerate")
          for n in (1000, 1001, 10000, 10001, spectra.DENSE_SPECTRUM_CAP + 1, 99)),
        *((miss, n) for miss in ("empty", "narrow", "degenerate") for n in (2, 3)),
    ])
    def test_unproved_bracket_raises(self, miss, n, monkeypatch, tmp_path, capsys):
        # for either extreme, at every N: an error naming N, the index, the
        # bracket and the counts at its ends, never a value, and exit 2 from
        # the CLI.  Both brackets share one room, so each miss sets the room
        # and the missing value, eig_all's entry below N = 100 and the guess
        # from there on; the other value stays proved.  N = 2 and 3 have one
        # positive eigenvalue, with no positive neighbour and no other to
        # share a wide bracket with
        t = position_tridiagonal(n)
        proved, room = extreme_eigenvalues(n), spectra._room(n)
        ev_m, ev_max = _dstebz_by_index(t, _extreme_indices(n))
        width = 1e-9
        if miss == "neighbour":
            # one eigenvalue in the bracket, but not the wanted one
            room, misses = width, _extremes_and_neighbours(n)[1:3]
        else:
            room, misses = {
                # several eigenvalues in the bracket
                "wide": (0.5, (4.5 * ev_m, 0.5 * ev_max)),
                # none in the bracket
                "empty": (width, (1.5 * ev_m, 2.0 * ev_max)),
                # the bracket of the room one room above the zero: just above
                # the point where the count changes, too narrow to reach it
                "narrow": (room, tuple(v * (1.0 + 3.0 * room) for v in (ev_m, ev_max))),
                # no interval at all: its ends reversed
                "degenerate": (width, (-ev_m, -ev_max)),
            }[miss]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(spectra, "_room", lambda n_dim: room)
        for k, index in enumerate(_extreme_indices(n)):
            values = tuple(misses[j] if j == k else proved[j] for j in range(2))
            if n < spectra._BRACKET_MIN_DIM:
                monkeypatch.setattr(spectra, "eig_all", lambda t, i=index, v=misses[k]: (
                    np.where(np.arange(t.dim) == i, v, eig_all(t))))
            else:
                monkeypatch.setattr(spectra, "_extreme_guesses", lambda n_dim, g=values: g)
            lo, hi = misses[k] * (1.0 - room), misses[k] * (1.0 + room)
            message = (f"dim {n}, index {index}: bracket ({lo!r}, {hi!r}] has "
                       f"{sturm_count(t, lo)} and {sturm_count(t, hi)} eigenvalue(s) "
                       "at or below its ends")
            with pytest.raises(ConvergenceError) as raised:
                extreme_eigenvalues(n)
            assert str(raised.value) == message
            assert cli.main(["sigma-table", "--n-list", str(n), "--out", "s.csv"]) == cli.EXIT_USAGE
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not (tmp_path / "s.csv").exists()

    def test_certified_extremes_within_two_ulp_of_reference(self):
        # the guesses, the values from N = 100 on, are within eps of the
        # 40-digit zeros, the error the room allows them, and within 2 ulp
        dims = sorted(_reference_zeros())
        assert dims[0] == 100 and set(range(100, 1321)) <= set(dims) and len(dims) == 1298
        for n in dims:
            extremes = extreme_eigenvalues(n)
            _assert_near_reference(n, extremes)
            for got, ref in zip(extremes, _reference_zeros()[n]):
                assert abs(got / ref - 1.0) <= EPS, (n, got, ref)

    @pytest.mark.parametrize("n, calls", [
        (99, [(1, 2)]), (100, [(1, 2)]), (1311, [(1, 2)]), (1312, [(1, 2)]),
        (4606, [(1, 2)]), (4607, [(1, 2)]), (10000, [(1, 2)]), (10001, [(1, 2)]),
        (2, [(1, 2)]), (3, [(1, 2)]),
    ])
    def test_one_dlaebz_call_per_certified_dim(self, n, calls, monkeypatch):
        # every dim from 2 on is certified: (ijob, minp) of each LAPACK
        # call, one count (ijob = 1) of both brackets
        lapack = spectra._lapack()
        recorded_calls = []

        @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)
        def recorded(*args):
            recorded_calls.append(tuple(lapack.integer.from_address(args[k]).value
                                        for k in (0, 4)))
            lapack.dlaebz(*args)

        monkeypatch.setattr(spectra, "_lapack", lambda: lapack._replace(dlaebz=recorded))
        spectrum_summary(n)
        assert recorded_calls == calls, recorded_calls


def _reference_script():
    spec = importlib.util.spec_from_file_location(
        "make_hermite_reference", _TESTS / "make_hermite_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHermiteReference:
    def test_file_covers_the_scripts_dimensions(self):
        assert sorted(_reference_zeros()) == _reference_script().reference_dims()

    @pytest.mark.parametrize("n", [4607, 4620])
    def test_entries_regenerate_from_the_script(self, n):
        stored = json.loads(_REFERENCE_PATH.read_text(encoding="utf-8"))["zeros"][str(n)]
        assert _reference_script().hermite_extremes(n) == stored


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

    @pytest.mark.parametrize("call", [
        lambda: position_tridiagonal(True),
        lambda: spectrum_summary(np.True_),
        lambda: sigma_table([3, True]),
        lambda: sigma_table([3, 4.0]),
        lambda: gap_margin(True),
        lambda: gap_margin(2.5),
        lambda: semicircle_density(0, 0.0, 1.0),
        lambda: semicircle_count_deviation(-2, 0.0, 1.0),
        lambda: spectrum_summary("200"),
        lambda: spectrum_summary(200.0),
        lambda: extreme_eigenvalues(True),
        lambda: extreme_eigenvalues(2.5),
        lambda: extreme_eigenvalues(position_tridiagonal(10)),
        lambda: SymTridiagonal(np.ones(3)),
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

    @staticmethod
    def _peak_bytes(call) -> int:
        """Peak bytes tracemalloc sees while ``call()`` runs."""
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_guard_covers_both_routes(self):
        # eig_all sets the guard; the count of LAPACK's bisection kernel
        # needs less than half of it
        n = 1311
        for call in (lambda: eig_all(position_tridiagonal(n)), lambda: extreme_eigenvalues(n)):
            peak = self._peak_bytes(call)
            assert peak <= spectra._BYTES_PER_DIM * n, peak / n

    @pytest.mark.parametrize("n", [10**5], ids=["certified"])
    def test_extreme_route_peaks_at_32_bytes_per_dim(self, n):
        # no 10 N bisection workspace (93 bytes per dim at 4606 with one)
        peak = self._peak_bytes(lambda: extreme_eigenvalues(n))
        assert peak <= 32 * n, peak / n

    def test_extreme_route_holds_e2_once(self):
        # e2 is built in place and held uncopied (8 bytes per dim), and the
        # dlaebz count reads it in place; a private copy of it peaked at 17
        n = 10**5
        peak = self._peak_bytes(lambda: extreme_eigenvalues(n))
        assert peak <= 9 * n, peak / n

    def test_dlaebz_count_allocates_no_per_dimension_array(self):
        # the count reads e2 in place and maps its zero diagonal, so one
        # count allocates a few cells per bracket and no array of N entries
        n = 10**5
        t, brackets = position_tridiagonal(n), _brackets(n)
        spectra._lapack()  # bound outside the trace
        peak = self._peak_bytes(lambda: spectra._dlaebz(t, brackets))
        assert peak <= n, peak / n

    def test_matrix_holds_no_lapack_workspace_between_calls(self):
        # after one count of each kind the matrix still holds its 8-byte
        # e2 alone: no zero diagonal, root or pivot floor
        n = 10**5
        tracemalloc.start()
        try:
            t = position_tridiagonal(n)
            spectra._dlaebz(t, _brackets(n))
            sturm_count(t, 1.0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert list(vars(t)) == ["dim", "e2"]
        assert retained <= 9 * n, retained / n

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
        # sigma rebuilt from the full dqds spectrum, not from the dlaebz route
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
        assert gap_margin(n) > 0.0
        assert verify._check_interlacing(n).passed

    def test_one_positive_eigenvalue_has_no_gap(self):
        assert gap_margin(2) == gap_margin(3) == math.inf

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

    def test_count_deviation_checks_the_interval_before_counting(self, monkeypatch):
        def no_count(t, lam):
            raise AssertionError("counted before the interval was checked")

        monkeypatch.setattr(spectra, "sturm_count", no_count)
        for x1, x2 in ((5.0, 1.0), (1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="need x1 < x2"):
                semicircle_count_deviation(10**6, x1, x2)


class TestAsymptotics:
    def test_ratios_below_one_and_improving(self):
        reports = [spectrum_summary(n) for n in (100, 400, 1600)]
        for r in reports:
            assert 0.9 < r.largest_ratio < 1.0
            assert 0.9 < r.smallest_ratio < 1.0
            assert 0.9 < r.sigma_ratio < 1.0
        assert reports[0].largest_ratio < reports[1].largest_ratio < reports[2].largest_ratio
        assert reports[0].sigma_ratio < reports[1].sigma_ratio < reports[2].sigma_ratio

    def test_parity_prefactors_visible(self):
        even = spectrum_summary(100)
        odd = spectrum_summary(101)
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

    def test_spectrum_csv_blocks_match_per_value_reference(self):
        # 10001 values are three blocks of formatting, the last one ragged
        ev = eig_all(position_tridiagonal(10001))
        reference = "\n".join(["index,eigenvalue", *(f"{i},{v:.9g}" for i, v in enumerate(ev))])
        assert spectrum_to_csv(ev) == reference + "\n"

    def test_gnuplot_scripts_reference_csv(self):
        assert "'s.csv'" in gnuplot_sigma_script("s.csv")
        assert "strcol(7)" in gnuplot_extremes_script("s.csv")
