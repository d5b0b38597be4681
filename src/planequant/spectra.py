"""Spectral analysis of the position/momentum matrices at scale.

The position matrix is symmetric tridiagonal with zero diagonal and
off-diagonal sqrt(k/2); its eigenvalues are the zeros of the degree-N
Hermite polynomial, symmetric about the origin.  A zero-diagonal
tridiagonal's spectrum depends only on its squared off-diagonal e2, which
for the position matrix is k/2, exact in binary, so a ``SymTridiagonal``
is its dimension and builds e2 from it.  It is permutation-similar to
[[0, B], [B^T, 0]] with B bidiagonal of size ceil(N/2), so its eigenvalues
are exactly +- the singular values of B (Demmel & Kahan 1990).  Two
independent routes are provided, both LAPACK.  ``eig_all`` gives the full
spectrum as +- the singular values of B by dqds (dlasq1, Fernando &
Parlett 1994), every eigenvalue to high relative accuracy, O(N^2) work,
for N up to ``DENSE_SPECTRUM_CAP`` = 20000.  ``extreme_eigenvalues`` gives the
smallest positive and the largest eigenvalue of the position matrix of
dimension N: below N = 100 the two entries of ``eig_all``, from there on
two asymptotic guesses, and at every N both proved by one Sturm count of
LAPACK's bisection kernel dlaebz (O(N), practical to N = 10^6) on
brackets of one relative room; a bracket the count does not prove raises
ConvergenceError.

``sturm_count`` is a pure-Python pivot count kept as the independent oracle
that the tests and the ``verify`` checks hold both routes against.  Both
counts read e2 itself, so they count the exact position matrix, and take
LAPACK's pivot floor from ``_pivot_floor``.

A summary stores only what was measured, the dimension and the smallest
and largest positive eigenvalues, and derives the rest: the minimal
forbidden cell delta_N (lambda_m for odd N, 2*lambda_m for even N), the
spectral width Delta_N = 2*lambda_M and their product
sigma_N = delta_N * Delta_N, which stays below 2*pi and increases within
each parity class, and their ratios to the large-N laws.  The dense
operators root their off-diagonal sqrt(k/2) from ``position_tridiagonal``.
A closed-form semicircle density is the remaining cross-check.  The
three-term Hermite recurrence lives in the tests alone: 40-digit Newton
for the reference extremes and acceptance criterion 7's residual.

Both routes are deterministic: dlasq1 and dlaebz are serial LAPACK code,
so identical inputs give identical results whatever the thread count.
Before building its e2, a ``SymTridiagonal`` checks that the arrays of
either route fit in physical memory.

The two LAPACK routines come from ``_lapack``, which binds them with
ctypes on the first spectral computation of a process: from numpy's own
LAPACK where numpy exports them, as its scipy-openblas wheels do, and from
scipy.linalg.cython_lapack otherwise.  With numpy's, no command imports
scipy; with scipy's, only a spectral computation pays its ~0.3 s import.
Both are plain calls that allocate their own workspaces, and a
``SymTridiagonal`` holds only its dimension and read-only e2: a count reads
e2 in place and builds only a zero-diagonal mapping per call, so no matrix
keeps state between calls.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import mmap
import warnings
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, MissingDependencyError, VerificationError
from .frame import as_dimension, check_memory

_log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

# Largest dimension eig_all accepts: its dqds takes O(N^2) work.
DENSE_SPECTRUM_CAP = 20_000

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# From this dimension on, extreme_eigenvalues takes its values from the guesses,
# within eps of the zeros there, and below it from eig_all (at N = 3 the two
# guesses are 1 ulp apart, out of order); one count proves either.
_BRACKET_MIN_DIM = 100

# First zero of the Airy function Ai, for the largest-zero expansion.
_AIRY_A1 = -2.338107410459767

# pi^2 as the sum of two doubles, good to 3.7e-32, for the smallest-zero expansion.
_PI_SQUARED = (9.869604401089358, 6.265295508739711e-16)

# Peak bytes per dimension of the larger route, with room: eig_all holds
# 40 N (e2, B's two halves, 4 * ceil(N/2) work, output).  The extreme
# eigenvalues hold e2 once (8 N) and a few cells per bracket: a count reads
# e2 in place, and its zero diagonal is a mapping whose pages are only read.
_BYTES_PER_DIM = 48

# The bound LAPACK routines, in the order of _Lapack's fields.
_ROUTINES = ("dlaebz", "dlasq1")

# Exported names of numpy's bundled ILP64 LAPACK (scipy-openblas), tried first.
_NUMPY_LAPACK_SYMBOLS = tuple(f"scipy_{name}_64_" for name in _ROUTINES)


class _Lapack(NamedTuple):
    """dlaebz and dlasq1 as ctypes calls, and the ctypes type of their INTEGERs.

    Every argument is passed by address.  dlaebz(ijob, nitmax, n, mmax, minp,
    nbmin, abstol, reltol, pivmin, d, e, e2, nval, ab, c, mout, nab, work,
    iwork, info), the Sturm kernel of LAPACK's bisection driver, works on
    minp intervals (ab(j, 1), ab(j, 2)] of the mmax x 2 column-major ab and
    counts the pivots <= 0 of the LDL^T factorization on d and the squared
    off-diagonal e2 (n - 1), every pivot of magnitude below pivmin set to
    -pivmin.  With ijob = 1 it counts both ends of each interval into
    nab(j, 1) and nab(j, 2), and reads neither e nor the tolerances, nitmax,
    nbmin, nval, c, work or iwork, so those four arrays go in as NULL.
    dlasq1(n, d, e, work, info): d (n) holds the diagonal on entry and the
    singular values in descending order on exit, e (n) the off-diagonal in
    its first n - 1 entries, work 4 n doubles.
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
    """The position matrix of dimension ``dim``, held as its squared off-diagonal e2 = k/2.

    The matrix has a zero diagonal, so its spectrum is symmetric about the
    origin, the precondition of ``eig_all``'s dqds split and of the indices
    ``extreme_eigenvalues`` looks for, and depends only on the squares e2 of
    the off-diagonal entries sqrt(k/2), LAPACK's E2, which are exact in
    binary.  ``dim`` is an integer >= 1; anything else raises ValueError
    naming ``n_dim``, as does a dimension whose spectral arrays would not
    fit in physical memory, before anything is allocated.  The matrix builds
    its read-only e2 once and holds it uncopied beside ``dim``, and compares
    and hashes by identity, as the array cannot.
    """

    dim: int
    e2: np.ndarray = field(init=False)

    def __post_init__(self):
        dim = as_dimension(self.dim, 1, "n_dim")
        check_memory(_BYTES_PER_DIM * dim, f"the spectral arrays of dim {dim}")
        e2 = np.arange(1.0, dim)
        e2 *= 0.5  # in place: no integer temporary
        e2.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "e2", e2)


def position_tridiagonal(n_dim: int) -> SymTridiagonal:
    """The position matrix of dimension ``n_dim``; see ``SymTridiagonal``."""
    return SymTridiagonal(n_dim)


# ---------------------------------------------------------------------------
# full spectrum (dqds on the half-size bidiagonal)
# ---------------------------------------------------------------------------

def eig_all(t: SymTridiagonal) -> np.ndarray:
    """All eigenvalues of the position matrix ``t``, in ascending order.

    Ordering the rows odd indices first turns T into [[0, B], [B^T, 0]],
    with B bidiagonal of size ceil(N/2): diagonal sqrt(e2[0::2]),
    off-diagonal sqrt(e2[1::2]), rooted straight into dqds's workspaces,
    and for odd N a zero last row.  The eigenvalues are -sigma, (0 for odd
    N,) +sigma over the singular values sigma of B (Demmel & Kahan 1990),
    which dqds (LAPACK dlasq1, Fernando & Parlett 1994) computes to high
    relative accuracy.  O(N^2) work; the
    spectrum is exactly sign-symmetric and the odd-N middle value is +0.0.
    Dimensions beyond ``DENSE_SPECTRUM_CAP`` are rejected.
    ``extreme_eigenvalues`` reads it below N = 100 only, and ``sturm_count``
    counts eigenvalues at any dimension.
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
    np.sqrt(t.e2[0::2], out=d[:pairs])
    np.sqrt(t.e2[1::2], out=e[: (n - 1) // 2])
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
# Sturm counting and certified guesses
# ---------------------------------------------------------------------------

def _pivot_floor(t: SymTridiagonal) -> float:
    """tiny * max(1, max e2), the pivot floor of LAPACK's bisection driver, which both counts use.

    The largest of e2 = k/2 is (N - 1)/2, so no scan of e2 is needed.  A
    Python float, so ``sturm_count``'s pivot tests compare plain floats.
    """
    return _TINY * max(1.0, (t.dim - 1) / 2)


def sturm_count(t: SymTridiagonal, lam: float) -> int:
    """Number of eigenvalues at or below lam.

    Counts the pivots <= 0 of the LDL^T factorization of T - lam*I via
    d_k = -lam - e2_{k-1} / d_{k-1}, with a pivot of magnitude below the
    floor replaced by the floor of its own sign, so the division never
    produces infinities; at an eigenvalue, it is counted.  LAPACK's dlaebz
    sets every such pivot to minus the floor instead, so the two differ
    there: on the 1 x 1 zero matrix at lam = -1e-310 this count is 0,
    which is exact, and dlaebz's is 1.  Monotone nondecreasing in lam: -inf
    counts 0 and +inf counts N; a NaN lam raises ValueError.
    """
    if math.isnan(lam):
        raise ValueError(f"lam must not be NaN, got {lam!r}")
    pivmin = _pivot_floor(t)
    count, d = 0, 1.0
    for b in [0.0, *t.e2.tolist()]:  # the first pivot is -lam - 0 / 1 = -lam, bit for bit
        d = -lam - b / d
        if d <= 0.0:
            if d > -pivmin:
                d = -pivmin
            count += 1
        elif d < pivmin:
            d = pivmin
    return count


def _dlaebz(t: SymTridiagonal, brackets: list[tuple[float, float]]) -> list[tuple[int, int]]:
    """(at_lo, at_hi): the eigenvalues at or below both ends of each (lo, hi], by one dlaebz call.

    dlaebz with ijob = 1 counts on the matrix's e2 and ``_pivot_floor``;
    it reads no e, so e2's address goes in e's place as well.  Its zero
    diagonal is a copy-on-write anonymous mapping, not ``np.zeros``: pages
    that are only read stay on the kernel's zero page and add no resident
    memory, where a calloc may reuse and clear freed heap, 8 MB of peak at
    N = 10^6.  Each call allocates the mapping and a few cells per bracket,
    and shares only the read-only e2, so threads may share a matrix; a
    nonzero info raises ConvergenceError.
    """
    lapack = _lapack()
    integer, double, byref = lapack.integer, ctypes.c_double, ctypes.byref
    m = len(brackets)
    lo, hi = zip(*brackets)
    e2 = t.e2.ctypes.data
    zero_diag = np.frombuffer(mmap.mmap(-1, 8 * t.dim, access=mmap.ACCESS_COPY))
    ab = (double * (2 * m))(*lo, *hi)
    nab = (integer * (2 * m))()
    mout, info, zero = integer(), integer(), integer(0)
    lapack.dlaebz(byref(integer(1)), byref(zero), byref(integer(t.dim)),
                  byref(integer(m)), byref(integer(m)), byref(zero),
                  byref(double(0.0)), byref(double(0.0)), byref(double(_pivot_floor(t))),
                  zero_diag.ctypes.data, e2, e2, None, ab, None, byref(mout), nab, None, None,
                  byref(info))
    if info.value != 0:
        raise ConvergenceError(
            f"Sturm count (dlaebz, ijob = 1) failed with info = {info.value} for dim {t.dim}")
    return [(nab[j], nab[m + j]) for j in range(m)]


def _halves(x: float) -> tuple[float, float]:
    """x as hi + lo, exactly, each of at most 26 bits (Veltkamp), so products of halves are exact."""
    scaled = 134217729.0 * x
    hi = scaled - (scaled - x)
    return hi, x - hi


def _sqrt_of_sum(terms: list[float]) -> float:
    """sqrt of the exact sum of ``terms`` to about 0.5 ulp: one Newton step on an exact residual."""
    root = math.sqrt(math.fsum(terms))
    hi, lo = _halves(root)
    return root + math.fsum([*terms, -hi * hi, -2.0 * hi * lo, -lo * lo]) / (2.0 * root)


def _extreme_guesses(n_dim: int) -> tuple[float, float]:
    """Asymptotic (lambda_m, lambda_M) of the position matrix, within eps of the zeros from N = 100.

    The position eigenvalues are the Hermite zeros, whose squares are the
    zeros of the Laguerre polynomial L_k^(alpha) with k = floor(N/2) and
    alpha = -1/2 (even N) or +1/2 (odd N); both expansions run in
    nu = 2N + 1.  lambda_M^2 is Gatteschi's Airy-type expansion of the
    largest Laguerre zero, in powers of nu^(-2/3) at the Airy zero a
    (Gatteschi 2002; the initial guesses of Chebfun's hermpts, Townsend,
    Trogdon & Olver 2016).  lambda_m^2 is the Bessel-type expansion of the
    smallest one, j^2/nu (1 + (j^2 - 3/2)/(3 nu^2) + ...), at the first zero
    j of J_alpha: pi/2 or pi; its nu^-4 term follows from the perturbation
    series of the Hermite equation psi'' + (nu - x^2) psi = 0 about x = 0.
    The last terms, nu^-6 for lambda_m^2 and nu^-3 for lambda_M^2, are
    rational fits to high-precision zeros, and lambda_M^2's four terms after
    them, nu^(1/3) nu^(-2k/3) for k = 6..9, float fits to 90-digit zeros on
    N = 300..30000.  Each square is summed exactly from doubles, pi^2 and
    j^2/nu split in two, and ``_sqrt_of_sum`` roots it, so a guess is within
    about 0.5 ulp of its expansion.  Evaluated exactly, the expansions' own
    relative errors against 40-digit Newton are at most 312.4 nu^-8
    (lambda_m, N = 101) and 0.083 nu^(-22/3) (lambda_M, N = 100), both
    below eps from N = 100 on.
    """
    nu = 2.0 * n_dim + 1.0
    a, c, t = _AIRY_A1, 2.0 ** (1.0 / 3.0), nu ** (-2.0 / 3.0)
    big = _sqrt_of_sum([nu, nu ** (1.0 / 3.0) * (
        c * c * a + t * (0.2 * c**4 * a * a + t * (
            11.0 / 35.0 - 0.25 - 12.0 / 175.0 * a**3 + t * (
                (16.0 / 1575.0 * a + 92.0 / 7875.0 * a**4) * c * c - t * (
                    (15152.0 / 3031875.0 * a**5 + 1088.0 / 121275.0 * a * a) * c - t * (
                        52688.0 / 21896875.0 * a**6 + 6464.0 / 875875.0 * a**3
                        - 145557.0 / 6370000.0 + t * (0.23512856932109 + t * (
                            0.18396718432619 + t * (0.1734651952215 + t * 0.1317302269)))))))))])
    j2_parts = [x if n_dim % 2 else 0.25 * x for x in _PI_SQUARED]
    j2, e = j2_parts[0], 1.0 / (nu * nu)
    series = e * ((j2 - 1.5) / 3.0 + e * ((11.0 / 45.0 * j2 - 13.0 / 12.0) * j2 + 11.0 / 8.0 + e * (
        ((73.0 / 315.0 * j2 - 31.0 / 15.0) * j2 + 65.0 / 8.0) * j2 - 173.0 / 16.0)))
    quotient = j2 / nu
    # j^2/nu - quotient from the remainder j^2 - quotient * nu, exact while nu < 2^27
    remainder = math.fsum([*j2_parts, *(-half * nu for half in _halves(quotient))]) / nu
    return _sqrt_of_sum([quotient, remainder, quotient * series]), big


def _room(n_dim: int) -> float:
    """Relative half-width r = (N/2 + 8) eps of both brackets v(1 - r, 1 + r].

    A count on the exact e2 rounds once in the division and once in the
    subtraction per pivot: it is the exact count of a matrix whose e2 moved
    by at most eps relative, the off-diagonal by eps/2, beside the pivot
    floor (Kahan 1966; Demmel, Dhillon & Ren 1995), which moves every
    eigenvalue by at most (N - 1) eps / 2 relative (Demmel & Kahan 1990).
    r covers that drift, the value's own error (eps for a guess, 6 ulp for
    dqds) and eps for rounding the ends.  It decides only whether a proof
    succeeds: a proved v is within r + (N - 1) eps / 2 of the true zero.
    """
    return (n_dim / 2.0 + 8.0) * _EPS


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
    symmetric, which fixes the index i of each eigenvalue.  The values v
    are entries i of ``eig_all``, bit for bit, below N = 100 and the
    asymptotic guesses from there on.  At every N one dlaebz call counts
    both brackets v(1 - r, 1 + r], r = ``_room(N)``; counts i and i + 1 at
    a bracket's ends prove that it holds eigenvalue i alone.  Against
    40-digit Newton the values are within 6 ulp below N = 100 and 1.17 ulp
    on 100..6606.  A bracket the counts do not prove raises
    ConvergenceError naming N, the index, the bracket and both counts.
    ``eig_all`` and ``sturm_count`` take the matrix itself.
    """
    n_dim = as_dimension(n_dim, 2, "n_dim")
    t = position_tridiagonal(n_dim)
    indices = _extreme_indices(n_dim)
    if n_dim < _BRACKET_MIN_DIM:
        spectrum = eig_all(t)
        values = float(spectrum[indices[0]]), float(spectrum[indices[1]])
    else:
        values = _extreme_guesses(n_dim)
    room = _room(n_dim)
    brackets = [(v * (1.0 - room), v * (1.0 + room)) for v in values]
    for i, (lo, hi), counts in zip(indices, brackets, _dlaebz(t, brackets)):
        if counts != (i, i + 1):
            raise ConvergenceError(
                f"dim {n_dim}, index {i}: bracket ({lo!r}, {hi!r}] has "
                f"{counts[0]} and {counts[1]} eigenvalue(s) at or below its ends")
    return values


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

def gap_margin(n_dim: int) -> float:
    """Worst margin of the consecutive-gap lower bound of the position matrix; > 0 when it holds.

    The bound holds when every gap between consecutive positive eigenvalues
    exceeds the minimal forbidden cell of the smallest positive one; with a
    single positive eigenvalue there is no gap, and the margin is infinite.
    """
    n_dim = as_dimension(n_dim, 2, "n_dim")
    ev = eig_all(position_tridiagonal(n_dim))
    pos = ev[_extreme_indices(n_dim)[0]:]  # eig_all's spectrum is exactly sign-symmetric
    if pos.size < 2:
        return math.inf
    return float(np.min(np.diff(pos)) - _forbidden_cell(n_dim, float(pos[0])))


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


def _gnuplot_script(title: str, ylabel: str, *plot: str) -> str:
    """A gnuplot script over a sigma-table CSV: ``title``, N on a log axis, then ``plot``."""
    return "\n".join([f"# {title}", "set datafile separator ','", "set logscale x",
                      "set xlabel 'N'", f"set ylabel '{ylabel}'", *plot]) + "\n"


def gnuplot_sigma_script(csv_name: str) -> str:
    """Plot sigma against dimension with the 2*pi asymptote."""
    return _gnuplot_script(
        "forbidden-cell / spectral-width product against dimension", "sigma",
        f"two_pi = {TWO_PI!r}",
        f"plot '{csv_name}' every ::1 using 1:6 with linespoints title 'sigma', \\",
        "     two_pi with lines dashtype 2 title '2 pi'")


def gnuplot_extremes_script(csv_name: str) -> str:
    """Plot the extreme positive eigenvalues split by parity."""
    return _gnuplot_script(
        "extreme positive eigenvalues against dimension, by parity", "eigenvalue",
        f"plot '{csv_name}' every ::1 using 1:(strcol(7) eq 'even' ? $2 : 1/0) "
        "with points title 'smallest positive (even N)', \\",
        f"     '{csv_name}' every ::1 using 1:(strcol(7) eq 'odd' ? $2 : 1/0) "
        "with points title 'smallest positive (odd N)', \\",
        f"     '{csv_name}' every ::1 using 1:3 with lines title 'largest'")
