"""Spectral analysis of the position/momentum matrices at scale.

The position matrix is symmetric tridiagonal with zero diagonal and
off-diagonal sqrt(k/2); its eigenvalues are the zeros of the degree-N
Hermite polynomial, symmetric about the origin.  A zero-diagonal tridiagonal
is permutation-similar to [[0, B], [B^T, 0]] with B bidiagonal of size
ceil(N/2), so its eigenvalues are exactly +- the singular values of B
(Demmel & Kahan 1990).  Two independent routes are provided, both LAPACK:

* ``eig_all``             - full spectrum as +- the singular values of the
                            half-size bidiagonal B by dqds (dlasq1, Fernando
                            & Parlett 1994), every eigenvalue to high
                            relative accuracy, O(N^2) work, for N up to
                            ``DENSE_SPECTRUM_CAP`` = 20000;
* ``extreme_eigenvalues`` - the smallest positive and the largest eigenvalue
                            of the position matrix of dimension N: below
                            N = 100 the two entries of ``eig_all``, from
                            there on Sturm counts of LAPACK's bisection
                            kernel dlaebz, O(N) per count, practical to
                            N = 10^6: one call proves that each asymptotic
                            bracket holds its eigenvalue alone, and at most
                            one more bisects both.  From N = 4607 on the
                            guess itself is returned, within 1.73 ulp of
                            40-digit Newton on every N in 4607..6606.

``sturm_count`` is a pure-Python pivot count kept as the independent oracle
that the tests and the ``verify`` checks hold both routes against.

A summary stores only what was measured, the dimension and the smallest
and largest positive eigenvalues, and derives the rest: the minimal
forbidden cell delta_N (lambda_m for odd N, 2*lambda_m for even N), the
spectral width Delta_N = 2*lambda_M and their product
sigma_N = delta_N * Delta_N, which stays below 2*pi and increases within
each parity class, and their ratios to the large-N laws.  The dense
operators read their off-diagonal sqrt(k/2) from ``position_tridiagonal``.
A closed-form semicircle density is the remaining cross-check.  The
three-term Hermite recurrence lives in the tests alone: 40-digit Newton
for the reference extremes and acceptance criterion 7's residual.

Both routes are deterministic: dlasq1 and dlaebz are serial LAPACK code,
so identical inputs give identical results whatever the thread count.
Before building a tridiagonal, ``position_tridiagonal`` checks that the
arrays of either route fit in physical memory.

The two LAPACK routines come from ``_lapack``, which binds them with
ctypes on the first spectral computation of a process: from numpy's own
LAPACK where numpy exports them, as its scipy-openblas wheels do, and from
scipy.linalg.cython_lapack otherwise.  With numpy's, no command imports
scipy; with scipy's, only a spectral computation pays its ~0.3 s import.
Both are plain calls that allocate their own workspaces, so no matrix
holds LAPACK state between calls.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import mmap
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, MissingDependencyError, VerificationError
from .frame import as_dimension, check_memory

_log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

# Largest dimension eig_all accepts; extreme eigenvalues use bisection beyond.
DENSE_SPECTRUM_CAP = 20_000

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Bisection tolerances for dlaebz, those of LAPACK's driver: an interval has
# converged below max(abstol, pivot floor, reltol * its larger end).  abstol
# just above underflow leaves the relative 2-ulp test alone; ulp * ||T||
# would move lambda_m by 5e-11 relative at N = 10^6.
_LAEBZ_ABSTOL = 2.0 * _TINY
_LAEBZ_RELTOL = 2.0 * _EPS

# From this dimension on, extreme_eigenvalues counts and bisects the asymptotic
# brackets of _extreme_guesses; below it reads eig_all, as at N = 3 the two
# brackets return the one positive eigenvalue 1 ulp apart, out of order.
_BRACKET_MIN_DIM = 100

# Relative error bound of both asymptotic guesses at _BRACKET_MIN_DIM.  It
# falls like nu^-4, the order of either expansion's first omitted term:
# lambda_M's error is 9.7e-11 at N = 100 and 8.9e-15 at N = 1000, and odd-N
# lambda_m's satisfies err (N/100)^4 <= 8.4e-10 on 101..1999.
_GUESS_ERROR_AT_MIN_DIM = 1e-9

# First zero of the Airy function Ai, for the largest-zero expansion.
_AIRY_A1 = -2.338107410459767

# Peak bytes per dimension of the larger route: eig_all needs 48 N
# (tridiagonal, B's two halves, 4 * ceil(N/2) work, output).  The extreme
# eigenvalues need the off-diagonal and the squared off-diagonal each dlaebz
# call forms (16 N), and a few cells per interval; the zero diagonal is a
# mapping whose pages are only read.
_BYTES_PER_DIM = 48

# The bound LAPACK routines, in the order of _Lapack's fields.
_ROUTINES = ("dlaebz", "dlasq1")

# Exported names of numpy's bundled ILP64 LAPACK (scipy-openblas), tried first.
_NUMPY_LAPACK_SYMBOLS = tuple(f"scipy_{name}_64_" for name in _ROUTINES)


class _Lapack(NamedTuple):
    """dlaebz and dlasq1 as ctypes calls, and the ctypes type of their INTEGERs.

    Every argument is passed by address.  dlaebz(ijob, nitmax, n, mmax, minp,
    nbmin, abstol, reltol, pivmin, d, e, e2, nval, ab, c, mout, nab, work,
    iwork, info) is the Sturm bisection kernel that LAPACK's eigenvalue
    driver by bisection calls.
    It works on minp intervals (ab(j, 1), ab(j, 2)] of the mmax x 2
    column-major ab, and counts the pivots <= 0 of the LDL^T factorization
    on the squared off-diagonal e2 (n - 1), tiny pivots set to -pivmin.
    With ijob = 1 it counts both ends of each interval into nab(j, 1) and
    nab(j, 2).  With ijob = 2 it bisects each interval, given its end counts
    in nab, until it is narrower than max(abstol, pivmin, reltol * its larger
    end), or for nitmax halvings; c is its workspace, nval is not read, and
    nbmin = 0 keeps to the scalar loop.  dlasq1(n, d, e, work, info): d (n)
    holds the diagonal on entry and the singular values in descending order
    on exit, e (n) the off-diagonal in its first n - 1 entries, work 4 n
    doubles.
    """

    dlaebz: Callable[..., None]
    dlasq1: Callable[..., None]
    integer: type


def _numpy_routines() -> tuple[int, int] | None:
    """Addresses of the ``_ROUTINES`` in numpy's own ILP64 LAPACK, or None.

    numpy's linalg extension links a LAPACK, and wheels built on
    scipy-openblas export it under ``_NUMPY_LAPACK_SYMBOLS``; builds on
    Accelerate, MKL or a distribution's LAPACK may not.
    """
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    try:
        return tuple(ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
                     for name in _NUMPY_LAPACK_SYMBOLS)
    except AttributeError:
        return None


def _scipy_routines() -> tuple[int, int]:
    """Addresses of the ``_ROUTINES`` in scipy's LP64 LAPACK; ImportError without scipy.

    scipy.linalg.cython_lapack exports each routine as a PyCapsule holding
    its function pointer.
    """
    from scipy.linalg import cython_lapack

    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.argtypes = [ctypes.py_object]
    get_name.restype = ctypes.c_char_p
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    get_pointer.restype = ctypes.c_void_p
    capsules = (cython_lapack.__pyx_capi__[name] for name in _ROUTINES)
    return tuple(get_pointer(capsule, get_name(capsule)) for capsule in capsules)


@cache
def _lapack() -> _Lapack:
    """dlaebz and dlasq1, bound on the first spectral computation of a process.

    numpy's own LAPACK comes first: it is loaded with numpy, so a spectrum
    costs no further import.  Where numpy does not export both routines,
    they come from scipy.linalg.cython_lapack, whose import costs about
    0.3 s; that LAPACK uses 32-bit INTEGERs, and the integer type is the
    only difference between the two.  Without either, MissingDependencyError
    names the ``scipy`` extra.
    """
    routines, integer, source = _numpy_routines(), ctypes.c_int64, "numpy"
    if routines is None:
        try:
            routines = _scipy_routines()
        except ImportError as exc:
            raise MissingDependencyError(
                "numpy's LAPACK does not export dlaebz and dlasq1 and scipy is not "
                "installed; install the 'scipy' extra (pip install 'planequant[scipy]')"
            ) from exc
        integer, source = ctypes.c_int, "scipy"
    _log.debug("LAPACK dlaebz and dlasq1 from %s, %d-bit integers",
               source, 8 * ctypes.sizeof(integer))
    ptr = ctypes.c_void_p
    dlaebz = ctypes.CFUNCTYPE(None, *[ptr] * 20)(routines[0])
    dlasq1 = ctypes.CFUNCTYPE(None, *[ptr] * 5)(routines[1])
    return _Lapack(dlaebz, dlasq1, integer)


@dataclass(frozen=True, eq=False)
class SymTridiagonal:
    """Symmetric tridiagonal matrix with zero diagonal, held as its off-diagonal.

    Every matrix here has a zero diagonal, so its spectrum is symmetric about
    the origin: the precondition of ``eig_all``'s dqds split and of the
    indices ``extreme_eigenvalues`` looks for.  The entries must be finite and
    strictly positive (an unreduced matrix); ``dim`` is len(offdiag) + 1.
    The matrix holds a read-only copy of the array it is given, and compares
    and hashes by identity, as the array cannot.
    """

    offdiag: np.ndarray

    def __post_init__(self):
        off = np.array(self.offdiag, dtype=float)
        if off.ndim != 1:
            raise ValueError(f"need a 1-D off-diagonal, got shape {off.shape}")
        if not np.all(np.isfinite(off)):
            raise ValueError("off-diagonal entries must be finite")
        if off.size and not np.all(off > 0.0):
            raise ValueError("off-diagonal entries must be strictly positive (unreduced matrix)")
        off.setflags(write=False)
        object.__setattr__(self, "offdiag", off)

    @property
    def dim(self) -> int:
        return self.offdiag.shape[0] + 1

    @cached_property
    def _zero_diag(self) -> np.ndarray:
        """The zero diagonal that dlaebz takes as an argument, read-only.

        It is a copy-on-write anonymous mapping rather than ``np.zeros``:
        pages that are only read stay on the kernel's zero page, so the
        diagonal adds no resident memory.  A calloc could instead reuse freed
        heap memory and clear it, which costs 8 MB of peak at N = 10^6.
        """
        buf = mmap.mmap(-1, 8 * self.dim, access=mmap.ACCESS_COPY)
        diag = np.frombuffer(buf, dtype=float)
        diag.setflags(write=False)
        return diag

    @cached_property
    def _addresses(self) -> tuple[int, int]:
        """Addresses of the zero diagonal and the off-diagonal, as LAPACK takes them.

        Both arrays are read-only and live as long as the matrix, so each
        address is read once rather than through ``ndarray.ctypes`` on every
        call, which costs more than a short call's LAPACK work; no call
        state is kept.
        """
        return self._zero_diag.ctypes.data, self.offdiag.ctypes.data

    @cached_property
    def _count_data(self):
        """Plain-Python squared off-diagonal and pivot floor, cached for repeated counting."""
        bsq = (self.offdiag * self.offdiag).tolist()
        max_bsq = max(bsq) if bsq else 1.0
        pivmin = np.finfo(float).tiny * max(max_bsq, 1.0)
        return bsq, pivmin


def position_tridiagonal(n_dim: int) -> SymTridiagonal:
    """Tridiagonal data of the position matrix: zero diagonal, sqrt(k/2) off.

    Raises ValueError if the arrays of either spectral route at this
    dimension would not fit in physical memory.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    check_memory(_BYTES_PER_DIM * n_dim, f"the spectral arrays of dim {n_dim}")
    return SymTridiagonal(np.sqrt(np.arange(1, n_dim) / 2.0))


# ---------------------------------------------------------------------------
# full spectrum (dqds on the half-size bidiagonal)
# ---------------------------------------------------------------------------

def eig_all(t: SymTridiagonal) -> np.ndarray:
    """All eigenvalues of a (zero-diagonal) ``SymTridiagonal``, in ascending order.

    Ordering the rows odd indices first turns T into [[0, B], [B^T, 0]],
    with B bidiagonal of size ceil(N/2): diagonal offdiag[0::2],
    off-diagonal offdiag[1::2], and for odd N a zero last row.  The
    eigenvalues are -sigma, (0 for odd N,) +sigma over the singular values
    sigma of B (Demmel & Kahan 1990), which dqds (LAPACK dlasq1, Fernando &
    Parlett 1994) computes to high relative accuracy.  O(N^2) work; the
    spectrum is exactly sign-symmetric and the odd-N middle value is +0.0.
    Dimensions beyond ``DENSE_SPECTRUM_CAP`` are rejected; there
    ``extreme_eigenvalues`` gives the position matrix's extremes and
    ``sturm_count`` counts any matrix's eigenvalues.
    """
    if t.dim > DENSE_SPECTRUM_CAP:
        raise ValueError(
            f"dim {t.dim} exceeds the full-spectrum cap {DENSE_SPECTRUM_CAP}; "
            "use extreme_eigenvalues (position matrix) or sturm_count instead"
        )
    n = t.dim
    half, pairs = (n + 1) // 2, n // 2
    d = np.zeros(half)
    e = np.zeros(half)
    d[:pairs] = t.offdiag[0::2]
    e[: (n - 1) // 2] = t.offdiag[1::2]
    work = np.empty(4 * half)
    lapack = _lapack()
    info = lapack.integer(0)
    lapack.dlasq1(ctypes.byref(lapack.integer(half)), d.ctypes.data, e.ctypes.data,
                  work.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise ConvergenceError(
            f"dqds (dlasq1) on the half-size bidiagonal failed with info = {info.value} "
            f"for dim {n}"
        )
    sigma = d[:pairs]
    ev = np.zeros(n)
    np.negative(sigma, out=ev[:pairs])
    ev[n - pairs:] = sigma[::-1]
    return ev


# ---------------------------------------------------------------------------
# Sturm counting and certified bisection
# ---------------------------------------------------------------------------

def sturm_count(t: SymTridiagonal, lam: float) -> int:
    """Number of eigenvalues strictly below lam.

    Counts negative pivots of the LDL^T factorization of T - lam*I via
    d_k = -lam - offdiag_{k-1}^2 / d_{k-1}, with tiny pivots replaced by a
    signed floor so the division never produces infinities.  Monotone
    nondecreasing in lam: -inf counts 0 and +inf counts N; a NaN lam
    raises ValueError.
    """
    if math.isnan(lam):
        raise ValueError(f"lam must not be NaN, got {lam!r}")
    bsq, pivmin = t._count_data
    count = 0
    d = -lam
    if d <= 0.0:
        if d > -pivmin:
            d = -pivmin
        count = 1
    elif d < pivmin:
        d = pivmin
    for b in bsq:
        d = -lam - b / d
        if d <= 0.0:
            if d > -pivmin:
                d = -pivmin
            count += 1
        elif d < pivmin:
            d = pivmin
    return count


class _Interval(NamedTuple):
    """(lo, hi] with the eigenvalue counts at or below its ends."""

    lo: float
    hi: float
    at_lo: int = 0
    at_hi: int = 0


def _dlaebz(t: SymTridiagonal, ijob: int, intervals: list[_Interval]) -> list[_Interval]:
    """The ``intervals`` after one LAPACK dlaebz call with ``ijob`` on ``t``.

    ijob = 1 counts both ends of each interval.  ijob = 2 bisects each
    interval, whose counts must leave it one eigenvalue, until it is
    narrower than max(_LAEBZ_ABSTOL, pivmin, _LAEBZ_RELTOL * its larger end),
    and moves a converged interval to the front with its counts, so callers
    pick results by count.

    The squared off-diagonal, the pivot floor tiny * max(1, max e2) and the
    cap of log2((width + pivmin) / pivmin) + 2 halvings are those of LAPACK's
    driver.  Each call allocates e2 (n doubles) and a few cells per interval,
    with no room for a split: a nonzero info (intervals left unconverged, or
    a split) raises ConvergenceError.  Calls share only the matrix's
    read-only arrays, so threads may share a matrix.
    """
    lapack = _lapack()
    integer, double, byref = lapack.integer, ctypes.c_double, ctypes.byref
    m = len(intervals)
    lo, hi, at_lo, at_hi = zip(*intervals)
    e2 = t.offdiag * t.offdiag
    pivmin = _TINY * float(e2.max(initial=1.0))
    nitmax = 0
    if ijob == 2:
        width = max(h - l for l, h in zip(lo, hi))
        nitmax = int((math.log(width + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
    ab = (double * (2 * m))(*lo, *hi)
    nab = (integer * (2 * m))(*at_lo, *at_hi)
    mout, info = integer(), integer()
    lapack.dlaebz(byref(integer(ijob)), byref(integer(nitmax)), byref(integer(t.dim)),
                  byref(integer(m)), byref(integer(m)), byref(integer(0)),
                  byref(double(_LAEBZ_ABSTOL)), byref(double(_LAEBZ_RELTOL)),
                  byref(double(pivmin)), *t._addresses, e2.ctypes.data, (integer * m)(), ab,
                  (double * m)(), byref(mout), nab, (double * m)(), (integer * m)(), byref(info))
    if info.value != 0:
        raise ConvergenceError(
            f"Sturm bisection (dlaebz, ijob = {ijob}) failed with info = {info.value} "
            f"for dim {t.dim}"
        )
    return [_Interval(ab[j], ab[m + j], nab[j], nab[m + j]) for j in range(m)]


def _bisect(t: SymTridiagonal, intervals: list[_Interval]) -> dict[int, float]:
    """{index: eigenvalue} for intervals that each hold eigenvalue ``at_lo`` alone.

    One dlaebz call (ijob = 2) bisects them all, and each result is the
    midpoint of its final interval, as LAPACK's driver returns it.
    """
    return {done.at_lo: 0.5 * (done.lo + done.hi) for done in _dlaebz(t, 2, intervals)}


def _guess_error(n_dim: int) -> float:
    """Relative error bound of both asymptotic guesses at ``n_dim`` >= _BRACKET_MIN_DIM."""
    return _GUESS_ERROR_AT_MIN_DIM * (_BRACKET_MIN_DIM / n_dim) ** 4


def _extreme_guesses(n_dim: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """Asymptotic ((lambda_m, half-width), (lambda_M, half-width)) of the position matrix.

    The position eigenvalues are the Hermite zeros, whose squares are the
    zeros of the Laguerre polynomial L_k^(alpha) with k = floor(N/2) and
    alpha = -1/2 (even N) or +1/2 (odd N); both expansions run in
    nu = 2N + 1.  lambda_M^2 is Gatteschi's Airy-type expansion of the
    largest Laguerre zero (Gatteschi 2002; the initial guesses of Chebfun's
    hermpts, Townsend, Trogdon & Olver 2016).  lambda_m^2 is the
    Bessel-type expansion of the smallest one, j^2/nu (1 + (j^2 - 3/2)/(3 nu^2)
    + ...), at the first zero j of J_alpha: pi/2 or pi.  Its nu^-4 term follows
    from the perturbation series of the Hermite equation
    psi'' + (nu - x^2) psi = 0 about x = 0.

    Each guess comes with the relative half-width of the bracket whose
    LAPACK counts prove the result, the sum of two error terms.  The guess
    term, 1e-9 (100/N)^4, bounds the expansions' own error; from N = 4607 on
    it is below eps and ``extreme_eigenvalues`` returns the guess itself.
    The solver term is room for the point where the LAPACK Sturm count
    changes, which the bracket must contain.  For lambda_m it is N eps / 8:
    the bisected value drifts from the true zero within the O(N eps)
    relative-perturbation bound of bisection on a zero-diagonal tridiagonal
    (Demmel & Kahan 1990), by at most N eps / 27 on N = 100..3000 and on the
    default sigma-table ladder to 10^6.  For lambda_M it is 3 sqrt(N) eps:
    the bisected value is within a few ulps of the true zero, and dqds's within 0.45 sqrt(N) eps
    on N <= 20000, so the guess also lies well inside the bracket around the
    full-spectrum route's value.  A bracket that misses costs a full
    spectrum up to ``DENSE_SPECTRUM_CAP`` and a ConvergenceError beyond it,
    never a wrong result.
    """
    nu = 2.0 * n_dim + 1.0
    a, c = _AIRY_A1, 2.0 ** (1.0 / 3.0)
    big2 = (nu + c * c * a * nu ** (1.0 / 3.0) + 0.2 * c**4 * a * a * nu ** (-1.0 / 3.0)
            + (11.0 / 35.0 - 0.25 - 12.0 / 175.0 * a**3) / nu
            + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a**4) * c * c * nu ** (-5.0 / 3.0)
            - (15152.0 / 3031875.0 * a**5 + 1088.0 / 121275.0 * a * a) * c * nu ** (-7.0 / 3.0))
    j2 = (math.pi if n_dim % 2 else 0.5 * math.pi) ** 2
    e = 1.0 / (nu * nu)
    small2 = j2 / nu * (1.0 + (j2 - 1.5) / 3.0 * e
                        + (11.0 / 45.0 * j2 * j2 - 13.0 / 12.0 * j2 + 11.0 / 8.0) * e * e)
    guess_error = _guess_error(n_dim)
    return ((math.sqrt(small2), guess_error + n_dim * _EPS / 8.0),
            (math.sqrt(big2), guess_error + 3.0 * math.sqrt(n_dim) * _EPS))


def _extreme_indices(n_dim: int) -> tuple[int, int]:
    """0-based indices of the smallest positive and the largest eigenvalue.

    The spectrum is symmetric with floor(N/2) negative values and, for odd
    N, a zero in the middle; the first positive eigenvalue therefore sits at
    index ceil(N/2).
    """
    return (n_dim + 1) // 2, n_dim - 1


def extreme_eigenvalues(n_dim: int) -> tuple[float, float]:
    """(smallest positive, largest) eigenvalue of the position matrix of dimension ``n_dim``.

    ``n_dim`` is an integer >= 2; anything else, a matrix included, raises
    ValueError.  The matrix is ``position_tridiagonal(n_dim)``, and the
    route follows from N alone; its zero diagonal makes the spectrum
    symmetric, which fixes the index i of each eigenvalue.  Below N = 100
    both values are entries i of ``eig_all``, bit for bit.  From there on
    one dlaebz call proves that each asymptotic bracket holds eigenvalue i
    alone, by counts of i and i + 1 at its ends.  A bracket the counts do
    not prove is logged and answered by ``eig_all`` up to
    ``DENSE_SPECTRUM_CAP``; beyond it, it raises ConvergenceError.
    Below N = 4607 one more call bisects the proved brackets to 2 ulp
    relative around the point where the count changes.  For lambda_M that
    point is within 2 ulp of the true eigenvalue; for lambda_m it drifts
    away as N grows (101 ulp at N = 5555, 4.5e-12 relative at 10^6), and
    each bracket's half-width holds room for that drift.  From N = 4607 on,
    where the guess term of ``_extreme_guesses``, 1e-9 (100/N)^4, is at most
    eps, a proved bracket returns the guess itself.  Against 40-digit Newton
    the certified values are within 1.73 ulp (lambda_M, worst at N = 5494)
    and 1.64 ulp (lambda_m, worst at N = 6397) on every N in 4607..6606.
    Other zero-diagonal matrices take ``eig_all`` and ``sturm_count``.
    """
    n_dim = as_dimension(n_dim, 2, "n_dim")
    t = position_tridiagonal(n_dim)
    indices = _extreme_indices(n_dim)
    values, proved, missed = {}, [], []
    if n_dim < _BRACKET_MIN_DIM:
        missed = list(indices)
    else:
        guesses = _extreme_guesses(n_dim)
        certified = _guess_error(n_dim) <= _EPS
        brackets = [_Interval(g * (1.0 - h), g * (1.0 + h)) for g, h in guesses]
        for i, (guess, _), counted in zip(indices, guesses, _dlaebz(t, 1, brackets)):
            if (counted.at_lo, counted.at_hi) != (i, i + 1):
                miss = (f"dim {n_dim}, index {i}: bracket ({counted.lo!r}, {counted.hi!r}] has "
                        f"{counted.at_lo} and {counted.at_hi} eigenvalue(s) at or below its ends")
                if n_dim > DENSE_SPECTRUM_CAP:
                    raise ConvergenceError(
                        f"{miss}, beyond the full-spectrum cap {DENSE_SPECTRUM_CAP}")
                _log.debug("%s; using the full spectrum", miss)
                missed.append(i)
            elif certified:
                values[i] = guess
            else:
                proved.append(counted)
    if proved:
        values.update(_bisect(t, proved))
    if missed:
        spectrum = eig_all(t)
        values.update((i, float(spectrum[i])) for i in missed)
    return values[indices[0]], values[indices[1]]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _parity(n_dim: int) -> str:
    return "odd" if n_dim % 2 else "even"


def _forbidden_cell(n_dim: int, lam_m: float) -> float:
    """Minimal forbidden cell delta_N: the gap from lam_m to 0 (odd N) or to -lam_m (even N)."""
    return lam_m if n_dim % 2 else 2.0 * lam_m


@dataclass(frozen=True)
class SpectrumSummary:
    """Extreme positive eigenvalues of one dimension, and what derives from them.

    Only the measured values are stored, so a summary cannot contradict
    itself: ``delta`` is the minimal forbidden cell delta_N, ``width`` the
    spectral width Delta_N = 2 lambda_M and ``sigma`` their product.  The
    ratios lambda_M / sqrt(2N), delta_N sqrt(2N) / pi and sigma / (2 pi)
    approach 1 from below as N grows.
    """

    dim: int
    lambda_min_pos: float
    lambda_max: float

    def __post_init__(self):
        if not (0.0 < self.lambda_min_pos <= self.lambda_max):
            raise VerificationError(
                f"need 0 < lambda_m <= lambda_M, got ({self.lambda_min_pos}, {self.lambda_max})"
            )
        if not (self.sigma < TWO_PI):
            raise VerificationError(f"sigma = {self.sigma} violates the 2*pi bound at dim {self.dim}")

    @property
    def parity(self) -> str:
        return _parity(self.dim)

    @property
    def delta(self) -> float:
        return _forbidden_cell(self.dim, self.lambda_min_pos)

    @property
    def width(self) -> float:
        return 2.0 * self.lambda_max

    @property
    def sigma(self) -> float:
        return self.delta * self.width

    @property
    def largest_ratio(self) -> float:
        return self.lambda_max / math.sqrt(2.0 * self.dim)

    @property
    def smallest_ratio(self) -> float:
        return self.delta * math.sqrt(2.0 * self.dim) / math.pi

    @property
    def sigma_ratio(self) -> float:
        return self.sigma / TWO_PI


def spectrum_summary(n_dim: int) -> SpectrumSummary:
    """Assemble the forbidden-cell/width summary for one dimension."""
    n_dim = as_dimension(n_dim, 2, "n_dim")
    return SpectrumSummary(n_dim, *extreme_eigenvalues(n_dim))


def sigma_table(n_list) -> list[SpectrumSummary]:
    """One ``spectrum_summary`` per dimension, every dimension validated first.

    Dimensions and memory are checked for the whole list before any work.
    """
    n_list = [as_dimension(n, 2, "n") for n in n_list]
    if not n_list:
        raise ValueError("empty dimension list")
    check_memory(_BYTES_PER_DIM * max(n_list), f"the spectral arrays of dim {max(n_list)}")
    return [spectrum_summary(n) for n in n_list]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Gap and interlacing margins of one dimension, as ``gap_properties`` measures them."""

    dim: int
    worst_gap_margin: float
    worst_interlacing_margin: float

    @property
    def parity(self) -> str:
        return _parity(self.dim)


def _interlacing_margin(ev_n: np.ndarray, ev_n1: np.ndarray) -> float:
    """Worst margin of strict interlacing ev_n1[i] < ev_n[i] < ev_n1[i+1]; > 0 when it holds."""
    return float(min((ev_n - ev_n1[:-1]).min(), (ev_n1[1:] - ev_n).min()))


def gap_properties(n_dim: int) -> GapReport:
    """Margins of the consecutive-gap lower bound and of interlacing with order N+1.

    The gap margin is > 0 when every gap between consecutive positive
    eigenvalues exceeds the minimal forbidden cell of the smallest positive
    one, and the interlacing margin when the order-N and order-N+1 spectra
    strictly interlace.
    """
    n_dim = as_dimension(n_dim, 2, "n_dim")
    ev_n = eig_all(position_tridiagonal(n_dim))
    ev_n1 = eig_all(position_tridiagonal(n_dim + 1))
    pos = ev_n[_extreme_indices(n_dim)[0]:]  # eig_all's spectrum is exactly sign-symmetric
    bound = _forbidden_cell(n_dim, float(pos[0]))
    if pos.size >= 2:
        worst_gap = float(np.min(np.diff(pos)) - bound)
    else:
        worst_gap = math.inf
    return GapReport(dim=n_dim, worst_gap_margin=worst_gap,
                     worst_interlacing_margin=_interlacing_margin(ev_n, ev_n1))


def semicircle_density(n_dim: int, x1: float, x2: float) -> float:
    """Predicted eigenvalue count in [x1, x2] from the semicircle density.

    Integrates w(t) = sqrt(2N - t^2)/(pi N) in closed form; intervals
    reaching outside the support [-sqrt(2N), sqrt(2N)] are clipped with a
    warning.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    if not x1 < x2:
        raise ValueError(f"need x1 < x2, got ({x1}, {x2})")
    a = math.sqrt(2.0 * n_dim)
    cx1, cx2 = max(x1, -a), min(x2, a)
    if cx1 != x1 or cx2 != x2:
        warnings.warn(
            f"interval ({x1}, {x2}) clipped to the spectral support (+-{a:.6g})",
            stacklevel=2,
        )
    if cx1 >= cx2:
        return 0.0

    def antideriv(tv: float) -> float:
        return 0.5 * (tv * math.sqrt(max(2.0 * n_dim - tv * tv, 0.0))
                      + 2.0 * n_dim * math.asin(tv / a))

    return (antideriv(cx2) - antideriv(cx1)) / math.pi


def semicircle_count_deviation(n_dim: int, x1: float, x2: float) -> tuple[float, int, float]:
    """(predicted, counted, relative deviation) for one interval.

    The exact count comes from Sturm pivots, independent of the density
    formula; the interval is checked before anything is counted.
    """
    predicted = semicircle_density(n_dim, x1, x2)
    t = position_tridiagonal(n_dim)
    counted = sturm_count(t, x2) - sturm_count(t, x1)
    rel = abs(predicted - counted) / max(counted, 1)
    return predicted, counted, rel


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _summary_row(s: SpectrumSummary) -> dict:
    """One sigma-table row, keyed by its column names in CSV order."""
    return {"N": s.dim, "lambda_m": s.lambda_min_pos, "lambda_M": s.lambda_max,
            "delta": s.delta, "width": s.width, "sigma": s.sigma,
            "parity": s.parity, "two_pi": TWO_PI}


def summaries_to_csv(summaries) -> str:
    """CSV of ``_summary_row``: floats to 9 significant digits, the rest with ``str``."""
    rows = [_summary_row(s) for s in summaries]
    if not rows:
        raise ValueError("no summaries to write")
    lines = [",".join(rows[0])]
    lines.extend(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row.values())
                 for row in rows)
    return "\n".join(lines) + "\n"


def summaries_to_json(summaries) -> str:
    return json.dumps([_summary_row(s) for s in summaries])


def spectrum_to_csv(eigenvalues) -> str:
    """Full-spectrum dump with schema index,eigenvalue."""
    lines = ["index,eigenvalue"]
    lines.extend(f"{i},{v:.9g}" for i, v in enumerate(eigenvalues))
    return "\n".join(lines) + "\n"


def spectrum_to_json(eigenvalues) -> str:
    return json.dumps({"eigenvalues": [float(v) for v in eigenvalues]})


def gnuplot_sigma_script(csv_name: str) -> str:
    """Plot sigma against dimension with the 2*pi asymptote."""
    return "\n".join(
        [
            "# forbidden-cell / spectral-width product against dimension",
            "set datafile separator ','",
            "set logscale x",
            "set xlabel 'N'",
            "set ylabel 'sigma'",
            f"two_pi = {TWO_PI!r}",
            f"plot '{csv_name}' every ::1 using 1:6 with linespoints title 'sigma', \\",
            "     two_pi with lines dashtype 2 title '2 pi'",
        ]
    ) + "\n"


def gnuplot_extremes_script(csv_name: str) -> str:
    """Plot the extreme positive eigenvalues split by parity."""
    return "\n".join(
        [
            "# extreme positive eigenvalues against dimension, by parity",
            "set datafile separator ','",
            "set logscale x",
            "set xlabel 'N'",
            "set ylabel 'eigenvalue'",
            f"plot '{csv_name}' every ::1 using 1:(strcol(7) eq 'even' ? $2 : 1/0) "
            "with points title 'smallest positive (even N)', \\",
            f"     '{csv_name}' every ::1 using 1:(strcol(7) eq 'odd' ? $2 : 1/0) "
            "with points title 'smallest positive (odd N)', \\",
            f"     '{csv_name}' every ::1 using 1:3 with lines title 'largest'",
        ]
    ) + "\n"
