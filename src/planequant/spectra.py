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
                            by Sturm bisection (stebz), O(N) per count,
                            practical to N = 10^6.  From N = 100 on, stebz
                            starts on a bracket around the Hermite-zero
                            asymptotics, sized from the guess's error model
                            and stebz's own rounding (relative half-width
                            1e-9 at N = 100; 6.7e-14 for lambda_M and
                            2.8e-13 for lambda_m at N = 10^4), and LAPACK
                            counts prove the index of what it returns; a
                            result they do not prove comes from
                            index-selected bisection.  With an absolute
                            tolerance at the underflow threshold there is no
                            tolerance to choose.  lambda_M is accurate to a
                            few ulps relative.  lambda_m is not: stebz's
                            relative error against 40-digit Newton on the
                            three-term recurrence is 1.8e-14 at N = 10^4,
                            2.4e-13 at 10^5 and 4.5e-12 at 10^6, which its
                            bracket is sized to contain.

``sturm_count`` is a pure-Python pivot count kept as the independent oracle
that the tests and the ``verify`` checks hold both routes against.

A summary stores only what was measured, the dimension and the smallest
and largest positive eigenvalues, and derives the rest: the minimal
forbidden cell delta_N (lambda_m for odd N, 2*lambda_m for even N), the
spectral width Delta_N = 2*lambda_M and their product
sigma_N = delta_N * Delta_N, which stays below 2*pi and increases within
each parity class, and their ratios to the large-N laws.  The dense
operators read their off-diagonal sqrt(k/2) from ``position_tridiagonal``.
A closed-form semicircle density and the three-term recurrence for the
characteristic polynomial provide the remaining cross-checks.  The recurrence is written once, vectorized and rescaled by
exact powers of two; ``char_poly_recurrence`` reads it at one point and
``hermite_residual`` at many.

Both routes are deterministic: dlasq1 and stebz are serial LAPACK code, so
identical inputs give identical results whatever the thread count.  Before
building a tridiagonal, ``position_tridiagonal`` checks that the arrays of
either route fit in physical memory.

Both LAPACK routines come from ``_lapack``, which binds them with ctypes on
the first spectral computation of a process: from numpy's own LAPACK where
numpy exports them, as its scipy-openblas wheels do, and from
scipy.linalg.cython_lapack otherwise.  With numpy's, no command imports
scipy; with scipy's, only a spectral computation pays its ~0.3 s import.
Both are plain calls that allocate their own workspaces, so no matrix holds
LAPACK state between calls.
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

# Absolute tolerance for stebz.  It must be positive: at <= 0 LAPACK uses
# ulp * ||T||, which moves lambda_m by 5e-11 relative at N = 10^6.  Just
# above underflow, only the routine's relative 2-ulp test stops bisection.
_STEBZ_ABSTOL = 2.0 * np.finfo(float).tiny

# From this dimension on, extreme_eigenvalues starts stebz on the asymptotic
# brackets of _extreme_guesses; below it the Airy expansion's error grows past
# its model (1.7e-9 at N = 50).
_BRACKET_MIN_DIM = 100

# Relative error bound of both asymptotic guesses at _BRACKET_MIN_DIM.  It
# falls like nu^-4, the order of either expansion's first omitted term:
# lambda_M's error is 9.7e-11 at N = 100 and 8.9e-15 at N = 1000, and odd-N
# lambda_m's satisfies err (N/100)^4 <= 8.4e-10 on 101..1999.
_GUESS_ERROR_AT_MIN_DIM = 1e-9

_EPS = float(np.finfo(float).eps)

# First zero of the Airy function Ai, for the largest-zero expansion.
_AIRY_A1 = -2.338107410459767

# Rescale cadence for the characteristic-polynomial recurrence.
_RESCALE_EVERY = 16

# Peak bytes per dimension of the larger route: the tridiagonal's off-diagonal
# and zero diagonal (16 N) plus the 80 N workspace each dstebz call allocates
# for w, iblock, isplit, work and iwork.  eig_all needs 48 N (tridiagonal, B's
# two halves, 4 * ceil(N/2) work, output).
_BYTES_PER_DIM = 96

# Exported names of numpy's bundled ILP64 LAPACK (scipy-openblas), tried first.
_NUMPY_LAPACK_SYMBOLS = ("scipy_dstebz_64_", "scipy_dlasq1_64_")


class _Lapack(NamedTuple):
    """dstebz and dlasq1 as ctypes calls, and the ctypes type of their INTEGERs.

    Every argument is passed by address.  dstebz(range, order, n, vl, vu,
    il, iu, abstol, d, e, m, nsplit, w, iblock, isplit, work, iwork, info)
    takes the lengths of its two character arguments last, as size_t.
    dlasq1(n, d, e, work, info): d (n) holds the diagonal on entry and the
    singular values in descending order on exit, e (n) the off-diagonal in
    its first n - 1 entries, work 4 n doubles.
    """

    dstebz: Callable[..., None]
    dlasq1: Callable[..., None]
    integer: type


def _numpy_routines() -> tuple[int, int] | None:
    """Addresses of (dstebz, dlasq1) in numpy's own ILP64 LAPACK, or None.

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
    """Addresses of (dstebz, dlasq1) in scipy's LP64 LAPACK; ImportError without scipy.

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
    capsules = (cython_lapack.__pyx_capi__[name] for name in ("dstebz", "dlasq1"))
    return tuple(get_pointer(capsule, get_name(capsule)) for capsule in capsules)


@cache
def _lapack() -> _Lapack:
    """dstebz and dlasq1, bound on the first spectral computation of a process.

    numpy's own LAPACK comes first: it is loaded with numpy, so a spectrum
    costs no further import.  Where numpy does not export the two routines,
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
                "numpy's LAPACK does not export dstebz and dlasq1 and scipy is not "
                "installed; install the 'scipy' extra (pip install 'planequant[scipy]')"
            ) from exc
        integer, source = ctypes.c_int, "scipy"
    _log.debug("LAPACK dstebz and dlasq1 from %s, %d-bit integers",
               source, 8 * ctypes.sizeof(integer))
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    dstebz = ctypes.CFUNCTYPE(None, *[ptr] * 18, size, size)(routines[0])
    dlasq1 = ctypes.CFUNCTYPE(None, *[ptr] * 5)(routines[1])
    return _Lapack(dstebz, dlasq1, integer)


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix with zero diagonal, held as its off-diagonal.

    Every matrix here has a zero diagonal, so its spectrum is symmetric about
    the origin: the precondition of ``eig_all``'s dqds split and of the index
    proof in ``extreme_eigenvalues``.  The entries must be finite and
    strictly positive (an unreduced matrix); ``dim`` is len(offdiag) + 1.
    The matrix holds a read-only copy of the array it is given.
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
        """The zero diagonal that stebz takes as an argument, read-only.

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
        """Addresses of the zero diagonal and the off-diagonal, as stebz takes them.

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

    def gershgorin_bound(self) -> float:
        """Upper bound on |eigenvalues| from row sums."""
        radius = np.zeros(self.dim)
        radius[:-1] += self.offdiag
        radius[1:] += self.offdiag
        return float(np.max(radius))


def position_tridiagonal(n_dim: int) -> SymTridiagonal:
    """Tridiagonal data of the position matrix: zero diagonal, sqrt(k/2) off.

    Raises ValueError if the arrays of either spectral route at this
    dimension would not fit in physical memory.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    check_memory(_BYTES_PER_DIM * n_dim, f"the spectral arrays of dim {n_dim}")
    return SymTridiagonal(np.sqrt(np.arange(1, n_dim) / 2.0))


# ---------------------------------------------------------------------------
# characteristic polynomial recurrence
# ---------------------------------------------------------------------------

def _scaled_recurrence(n_dim: int, lams):
    """(p_N, p_{N-1}, exp2) at each lam (array or scalar), p_k = value * 2**exp2.

    p_0 = 1, p_1 = -lam, p_{k+1} = -lam p_k - (k/2) p_{k-1}.  Every
    _RESCALE_EVERY steps a pair that has left [2^-500, 2^500] is rescaled by a
    power of two, which is exact, so the recurrence stays in range for any N.
    """
    p_prev = np.ones_like(lams)
    p = neg = -lams
    exp2 = np.zeros(np.shape(lams), dtype=int)
    for k in range(1, n_dim):
        p, p_prev = neg * p - 0.5 * k * p_prev, p
        if k % _RESCALE_EVERY == 0:
            m = np.maximum(np.abs(p), np.abs(p_prev))
            out = (m > 0.0) & ((m > 2.0**500) | (m < 2.0**-500))
            if out.any():
                shift = np.where(out, np.frexp(m)[1], 0)
                p = np.ldexp(p, -shift)
                p_prev = np.ldexp(p_prev, -shift)
                exp2 += shift
    return p, p_prev, exp2


def char_poly_recurrence(n_dim: int, lam: float) -> tuple[float, int]:
    """Characteristic polynomial p_N(lam) of the position matrix, scaled.

    Returned as (mantissa, exp2) with p_N(lam) = mantissa * 2**exp2; see
    ``_scaled_recurrence``.
    """
    n_dim = as_dimension(n_dim, 0, "n_dim")
    if n_dim == 0:
        return 1.0, 0
    p, _, exp2 = _scaled_recurrence(n_dim, np.float64(lam))
    return float(p), int(exp2)


def hermite_value(n_dim: int, lam: float) -> tuple[float, int]:
    """Scaled Hermite polynomial value: H_N(lam) = (-2)^N p_N(lam).

    Same (mantissa, exp2) convention as ``char_poly_recurrence``.
    """
    n_dim = as_dimension(n_dim, 0, "n_dim")
    p, exp2 = char_poly_recurrence(n_dim, lam)
    sign = -1.0 if n_dim % 2 else 1.0
    return sign * p, exp2 + n_dim


def hermite_residual(n_dim: int, lams) -> np.ndarray:
    """|p_N| / max(|p_N|, |p_{N-1}|) at each lam, vectorized.

    Near a zero of p_N the denominator is carried by p_{N-1} (the zeros of
    consecutive orders interlace), so the ratio measures closeness to a zero
    relative to the local polynomial scale.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    p, p_prev, _ = _scaled_recurrence(n_dim, np.atleast_1d(np.asarray(lams, dtype=float)))
    denom = np.maximum(np.abs(p), np.abs(p_prev))
    denom[denom == 0.0] = 1.0
    return np.abs(p) / denom


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
    Dimensions beyond ``DENSE_SPECTRUM_CAP`` are rejected; use
    ``extreme_eigenvalues`` there.
    """
    if t.dim > DENSE_SPECTRUM_CAP:
        raise ValueError(
            f"dim {t.dim} exceeds the full-spectrum cap {DENSE_SPECTRUM_CAP}; "
            "use extreme_eigenvalues/sturm_count instead"
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
    nondecreasing in lam.
    """
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


def _dstebz(t: SymTridiagonal, kind: bytes, vl: float, vu: float, il: int, iu: int,
            abstol: float) -> tuple[int, float, int]:
    """(m, lowest eigenvalue found, info) of dstebz in range ``kind`` (b"V" or b"I").

    Every call allocates its own argument cells and one workspace of 10 n
    doubles, sized from LAPACK's documentation: w (n) and work (4 n) take
    the first half, and iblock, isplit (n each) and iwork (3 n) the second,
    whose 5 n doubles hold 5 n INTEGERs of 8 bytes or of 4.  Calls share
    only the matrix's read-only arrays, passed by their cached addresses, so
    threads may share a matrix.  m is 0 when LAPACK rejects an argument
    before it counts.
    """
    lapack = _lapack()
    n, integer, byref = t.dim, lapack.integer, ctypes.byref
    m, nsplit, info = integer(), integer(), integer()
    buf = np.empty(10 * n)
    w = buf.ctypes.data
    ints, step = w + buf.nbytes // 2, ctypes.sizeof(integer) * n
    lapack.dstebz(byref(ctypes.c_char(kind)), byref(ctypes.c_char(b"E")), byref(integer(n)),
                  byref(ctypes.c_double(vl)), byref(ctypes.c_double(vu)), byref(integer(il)),
                  byref(integer(iu)), byref(ctypes.c_double(abstol)), *t._addresses,
                  byref(m), byref(nsplit), w, ints, ints + step,
                  w + 8 * n, ints + 2 * step, byref(info), 1, 1)
    return m.value, float(buf[0]), info.value


def _stebz_eigenvalue(t: SymTridiagonal, index: int) -> float:
    """Eigenvalue with 0-based ascending index by LAPACK Sturm bisection."""
    m, value, info = _dstebz(t, b"I", 0.0, 0.0, index + 1, index + 1, _STEBZ_ABSTOL)
    if info != 0 or m != 1:
        raise ConvergenceError(
            f"stebz returned info = {info} and {m} eigenvalue(s) for index {index} "
            f"of dim {t.dim}"
        )
    return value


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

    Each guess comes with the relative half-width of the bracket that stebz
    starts from, the sum of two error terms.  The guess term,
    1e-9 (100/N)^4, bounds the expansions' own error.  The solver term is
    room for the rounding of the value the bracket must contain.  For
    lambda_m it is N eps / 8: stebz's value drifts from the true zero within
    the O(N eps) relative-perturbation bound of bisection on a zero-diagonal
    tridiagonal (Demmel & Kahan 1990), by at most N eps / 27 on N = 100..3000
    and on the default sigma-table ladder to 10^6.  For lambda_M it is
    3 sqrt(N) eps: stebz's value is within a few ulps of the true zero, and
    dqds's within 0.45 sqrt(N) eps on N <= 20000, so the guess also lies
    well inside the bracket around the full-spectrum route's value.  A
    bracket that misses costs the index route, not a wrong result.
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
    guess_error = _GUESS_ERROR_AT_MIN_DIM * (_BRACKET_MIN_DIM / n_dim) ** 4
    return ((math.sqrt(small2), guess_error + n_dim * _EPS / 8.0),
            (math.sqrt(big2), guess_error + 3.0 * math.sqrt(n_dim) * _EPS))


def _bracketed_eigenvalue(t: SymTridiagonal, index: int, guess: float, half_width: float) -> float:
    """Eigenvalue ``index`` (>= N/2) by stebz on an asymptotic bracket, proved by counts.

    stebz in value mode refines the one eigenvalue in (lo, hi] =
    (guess (1 - half_width), guess (1 + half_width)].  The result is taken
    only if LAPACK's counts prove its index: the bracket holds exactly one
    eigenvalue, and (-lo, lo] exactly 2 index - N.  The spectrum of a
    zero-diagonal matrix is symmetric, so the second count leaves N - index
    eigenvalues above lo, and the one in the bracket is the lowest of them.
    An absolute tolerance wider than (-lo, lo] stops that second call right
    after its counts.  Any other outcome is logged and answered by the index
    route.
    """
    lo, hi = guess * (1.0 - half_width), guess * (1.0 + half_width)
    m = inside = None
    if 0.0 < lo < hi:
        m, value, info = _dstebz(t, b"V", lo, hi, 0, 0, _STEBZ_ABSTOL)
        if info == 0 and m == 1:
            inside, _, info = _dstebz(t, b"V", -lo, lo, 0, 0, 4.0 * lo)
            if info == 0 and inside == 2 * index - t.dim:
                return value
    _log.debug("dim %d, index %d: bracket (%r, %r] held %s eigenvalue(s) and (-lo, lo] %s; "
               "using the index route", t.dim, index, lo, hi, m, inside)
    return _stebz_eigenvalue(t, index)


def _extreme_indices(n_dim: int) -> tuple[int, int]:
    """0-based indices of the smallest positive and the largest eigenvalue.

    The spectrum is symmetric with floor(N/2) negative values and, for odd
    N, a zero in the middle; the first positive eigenvalue therefore sits at
    index ceil(N/2).
    """
    return (n_dim + 1) // 2, n_dim - 1


def extreme_eigenvalues(t: SymTridiagonal) -> tuple[float, float]:
    """(smallest positive, largest) eigenvalue of a (zero-diagonal) ``SymTridiagonal``.

    LAPACK Sturm bisection (stebz), O(N) per count, practical at N = 10^6.
    The zero diagonal makes the spectrum symmetric, which fixes the index of
    the smallest positive eigenvalue and proves the bracketed results.  From
    N = 100 on, stebz starts on the bracket of the position matrix's
    asymptotic guesses, which skips most of its bisection steps; LAPACK
    counts prove each bracketed result's index, and a result they do not prove
    (another matrix, a missed bracket) comes from index-selected bisection.
    Either way the bisection runs to stebz's own criterion, 2 ulp relative
    around the point where its Sturm count changes.  For lambda_M that point
    is within a few ulps of the true eigenvalue; for lambda_m of the position
    matrix it is not: against 40-digit Newton on the three-term recurrence
    its relative error is 1.8e-14 at N = 10^4, 2.4e-13 at N = 10^5 and
    4.5e-12 at N = 10^6.  Each bracket's half-width comes from
    ``_extreme_guesses``: the guess's own error, which falls like N^-4, plus
    room for stebz's rounding, so it contains stebz's value, not only the
    true one.
    """
    if t.dim < 2:
        raise ValueError(f"need dim >= 2 for a positive eigenvalue, got {t.dim}")
    idx_m, idx_max = _extreme_indices(t.dim)
    if t.dim < _BRACKET_MIN_DIM:
        return _stebz_eigenvalue(t, idx_m), _stebz_eigenvalue(t, idx_max)
    guess_m, guess_max = _extreme_guesses(t.dim)
    return (_bracketed_eigenvalue(t, idx_m, *guess_m),
            _bracketed_eigenvalue(t, idx_max, *guess_max))


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
    return SpectrumSummary(n_dim, *extreme_eigenvalues(position_tridiagonal(n_dim)))


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
    """Gap and interlacing margins for one dimension; a check passes when its margin is > 0."""

    dim: int
    worst_gap_margin: float
    worst_interlacing_margin: float

    @property
    def parity(self) -> str:
        return _parity(self.dim)

    @property
    def gaps_ok(self) -> bool:
        return self.worst_gap_margin > 0.0

    @property
    def interlacing_ok(self) -> bool:
        return self.worst_interlacing_margin > 0.0

    @property
    def passed(self) -> bool:
        return self.gaps_ok and self.interlacing_ok


def gap_properties(n_dim: int) -> GapReport:
    """Check consecutive-gap lower bounds and interlacing with order N+1.

    Every gap between consecutive positive eigenvalues exceeds the minimal
    forbidden cell of the smallest positive one, and the order-N and
    order-N+1 spectra strictly interlace.
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
    # strict interlacing: ev_n1[i] < ev_n[i] < ev_n1[i+1]
    left = ev_n - ev_n1[:-1]
    right = ev_n1[1:] - ev_n
    worst_inter = float(min(left.min(), right.min()))
    return GapReport(dim=n_dim, worst_gap_margin=worst_gap, worst_interlacing_margin=worst_inter)


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
    formula.
    """
    t = position_tridiagonal(n_dim)
    counted = sturm_count(t, x2) - sturm_count(t, x1)
    predicted = semicircle_density(n_dim, x1, x2)
    rel = abs(predicted - counted) / max(counted, 1)
    return predicted, counted, rel


def asymptotic_check(n_dim: int) -> SpectrumSummary:
    """The summary whose large-N ratios are meaningful; needs n_dim >= 100."""
    return spectrum_summary(as_dimension(n_dim, 100, "n_dim"))


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
