"""Truncated coherent-state frame on the complex plane.

The frame lives in an N-dimensional Hilbert space spanned by the first N
Fock states.  A phase-space point z = (q + ip)/sqrt(2) is mapped to the
normalized state with coefficients z^n / sqrt(n! * N(|z|^2)), where
N(x) = sum_{n<N} x^n/n! is the truncated exponential series.  Everything
here is dimensionless (unit mass, unit frequency, unit action); physical
scales enter only in the bounds calculator of the CLI.

Every coefficient vector comes from ``monomial_state_matrix``, the running
product c_n = c_{n-1} z / sqrt(n) from c_0 = 1, and a state is that column
over its own 2-norm.  Every quadrature integral over the frame is the one
chunked sum V w V^H of ``frame_sandwich``, and every linear-scale partial
sum S_m of the exponential series comes from ``exp_partial_sums``.

A dimension is a plain ``int`` N >= 1, checked by ``as_dimension``.  All
functions are pure and keep no caches, so concurrent use from multiple
threads is safe.
"""

from __future__ import annotations

import cmath
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, QuadratureOrderError, RangeOverflowError

# Largest |z|^2 accepted by the linear-scale routines.  exp(710) overflows a
# double; we reject a little earlier and point callers at the log variants.
OVERFLOW_R2 = 700.0

# Unit-norm tolerance for coherent-state coefficient vectors.
NORM_TOL = 1e-12

# Largest Gauss-Laguerre order numpy's laggauss can build: from order 187 on
# its weight scaling overflows and the weights come back NaN.
_MAX_LAGUERRE_ORDER = 186


def as_dimension(value, minimum: int = 1, name: str = "dim") -> int:
    """``value`` as a plain ``int`` dimension >= ``minimum``.

    Python and numpy integers are accepted; ``bool``, floats and other
    non-integers raise ``ValueError`` like an out-of-range dimension does.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return n


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where os.sysconf does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(need: int, what: str) -> None:
    """Raise ValueError, before anything is allocated, if ``need`` bytes exceed physical memory."""
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ValueError(
            f"{what} need about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


@dataclass(frozen=True)
class PhasePoint:
    """A point of the classical phase plane, z = (q + i p)/sqrt(2)."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError(f"phase point components must be finite, got ({self.q}, {self.p})")

    @property
    def z(self) -> complex:
        return complex(self.q, self.p) / math.sqrt(2.0)

    @property
    def r2(self) -> float:
        """|z|^2 = (q^2 + p^2)/2."""
        return (self.q * self.q + self.p * self.p) / 2.0

    @classmethod
    def from_z(cls, z: complex) -> "PhasePoint":
        z = complex(z)
        return cls(q=math.sqrt(2.0) * z.real, p=math.sqrt(2.0) * z.imag)


def half_log_fact(n_dim: int) -> np.ndarray:
    """0.5 * log(n!) for n = 0..N-1, the package's one log-factorial table."""
    return 0.5 * np.array([math.lgamma(n + 1.0) for n in range(n_dim)])


@dataclass(frozen=True)
class CoherentState:
    """Unit-norm coefficient vector of a truncated coherent state, held as a read-only copy."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1:
            raise ValueError(f"expected a 1-D coefficient vector, got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        nrm = float(np.linalg.norm(coeffs))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"coherent-state coefficients must have unit norm, got {nrm!r}")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def _check_linear_range(r2: float, log_variant: str) -> None:
    """Raise ``RangeOverflowError`` if |z|^2 = ``r2`` is past the linear-scale limit."""
    if r2 > OVERFLOW_R2:
        raise RangeOverflowError(
            f"|z|^2 = {r2} exceeds the linear-scale limit {OVERFLOW_R2}; use {log_variant}"
        )


def exp_partial_sums(n_dim: int, r2):
    """(S_{N-2}, S_{N-1}, S_N) of S_m = sum_{j<m} r2^j / j!, elementwise; S_m = 0 for m <= 0.

    The running product t_j = t_{j-1} r2 / j from t_0 = 1, summed in order,
    over a nonnegative float or array ``r2``; a Python float stays one.
    Once every term is 0.0 no later sum changes, so the loop stops there
    (checked every 64 terms) with the same bits.  Rejects r2 beyond
    ``OVERFLOW_R2``; the log-domain variants go on.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    low, high = (r2.min(), r2.max()) if isinstance(r2, np.ndarray) else (r2, r2)
    if not (low >= 0.0):
        raise ValueError(f"r2 must be nonnegative, got {low!r}")
    _check_linear_range(high, "the log-domain variants")
    total = s_nm2 = s_nm1 = 0.0 * r2
    term = total + 1.0
    for j in range(n_dim):
        if j:
            term = term * r2 / j
            if j % 64 == 0 and j < n_dim - 1 and not np.any(term):
                return total, total, total
        total = total + term
        if j == n_dim - 3:
            s_nm2 = total
        elif j == n_dim - 2:
            s_nm1 = total
    return s_nm2, s_nm1, total


def normalization_factor(n_dim: int, r2: float) -> float:
    """Truncated exponential series sum_{n<N} r2^n / n!.

    S_N of ``exp_partial_sums``.  Rejects r2 beyond the overflow threshold;
    use ``log_normalization_factor`` there instead.
    """
    return float(exp_partial_sums(n_dim, r2)[2])


def log_normalization_factor(n_dim: int, r2: float) -> float:
    """log of the truncated exponential series, stable for any r2 >= 0."""
    n_dim = as_dimension(n_dim, 1, "n_dim")
    if not (r2 >= 0.0):
        raise ValueError(f"r2 must be nonnegative, got {r2!r}")
    if r2 == 0.0:
        return 0.0
    n = np.arange(n_dim)
    logs = n * math.log(r2) - 2.0 * half_log_fact(n_dim)
    top = logs.max()
    return top + math.log(np.exp(logs - top).sum())


def coherent_state(n_dim: int, x: PhasePoint) -> CoherentState:
    """Normalized truncated coherent state attached to the phase point x."""
    n_dim = as_dimension(n_dim, 1, "n_dim")
    _check_linear_range(x.r2, "coherent_state_log")
    raw = monomial_state_matrix(n_dim, [x.z])[:, 0]
    return CoherentState(raw / np.linalg.norm(raw))


def coherent_state_log(n_dim: int, x: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Log-domain coherent state: (log-magnitude, phase) coefficient pairs.

    Valid for any |z|^2, including beyond the linear-scale overflow limit.
    """
    n = as_dimension(n_dim, 1, "n_dim")
    z = x.z
    ns = np.arange(n)
    if z == 0:
        logmag = np.full(n, -np.inf)
        logmag[0] = 0.0
        return logmag, np.zeros(n)
    log_norm = log_normalization_factor(n, x.r2)
    logmag = ns * math.log(abs(z)) - half_log_fact(n) - 0.5 * log_norm
    phase = ns * cmath.phase(z)
    return logmag, phase


def overlap(a: CoherentState, b: CoherentState) -> complex:
    """Inner product <a|b> of two states in the same truncated space."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dimensions differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.coeffs, b.coeffs))


@dataclass(frozen=True)
class QuadratureSpec:
    """Phase-plane quadrature orders: radial Gauss-Laguerre x uniform angular."""

    radial_order: int
    angular_order: int

    def __post_init__(self):
        for name in ("radial_order", "angular_order"):
            object.__setattr__(self, name, as_dimension(getattr(self, name), 1, name))

    @classmethod
    def default_for(cls, n_dim: int) -> "QuadratureSpec":
        # Exact for matrix elements of the N-dim frame: radial degree in
        # t = |z|^2 is at most 2N-2 and angular Fourier modes satisfy
        # |m| <= N-1, with headroom for low-degree symbol factors.
        n_dim = as_dimension(n_dim, 1, "n_dim")
        return cls(radial_order=n_dim + 4, angular_order=4 * n_dim + 4)


def gauss_laguerre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral_0^inf f(t) e^{-t} dt, exact to degree 2m-1.

    Delegates to numpy's Newton-polished rule: the plain Jacobi-matrix
    eigenvector construction loses all relative accuracy in the tiny weights
    of the largest nodes (first eigenvector components below sqrt(eps)),
    which wrecks moments beyond degree ~40.  Orders above 186, where numpy's
    weights overflow, raise ``QuadratureOrderError``.
    """
    m = as_dimension(m, 1, "quadrature order")
    if m > _MAX_LAGUERRE_ORDER:
        raise QuadratureOrderError(
            f"Gauss-Laguerre order {m} exceeds the largest supported order {_MAX_LAGUERRE_ORDER}"
        )
    return np.polynomial.laguerre.laggauss(m)


def phase_plane_quadrature(quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flattened nodes z_j and weights w_j discretizing (1/pi) e^{-|z|^2} d^2z.

    With t = |z|^2 the Gaussian-plane integral becomes a Laguerre integral in
    t times a uniform angular average, so sum_j w_j g(z_j) recovers
    (1/pi) int g(z) e^{-|z|^2} d^2z exactly for g polynomial in (z, conj z)
    within the orders of ``quad``.
    """
    t, wt = gauss_laguerre_rule(quad.radial_order)
    k = quad.angular_order
    theta = 2.0 * np.pi * np.arange(k) / k
    z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    w = np.repeat(wt / k, k)
    return z.ravel(), w


def monomial_state_matrix(n_dim: int, z: np.ndarray) -> np.ndarray:
    """Matrix V with V[n, j] = z_j^n / sqrt(n!) for n = 0..N-1.

    One column per node of the 1-D array ``z``; a scalar is one node.
    These are the unnormalized coherent-state coefficients at each node;
    quadrature sandwiches V * w * V^H reproduce frame integrals.  Row n is
    the running product V[n] = V[n-1] * z / sqrt(n) from V[0] = 1, one
    ``np.multiply.accumulate`` down the rows z / sqrt(n).

    One route serves every N and |z|.  |z|^n / sqrt(n!) is unimodal in n
    with its peak near e^{|z|^2/2}, so no product overflows below
    |z|^2 ~ 1400 (twice ``OVERFLOW_R2``); past the peak the entries only
    shrink, and may underflow to zero.  z = 0 gives e_0 exactly.  Entry n
    carries n rounding errors; against 40-digit mpmath the worst relative
    error over entries above 1e-290 is 2.6e-15 at the quadrature nodes of
    N = 64, 4.7e-15 at N = 182 and 7.0e-15 for |z|^2 <= 700 at N = 4096.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 1:
        raise ValueError(f"nodes must be a scalar or a 1-D array, got shape {z.shape}")
    steps = np.empty((n_dim, z.size), dtype=complex)
    steps[0] = 1.0
    steps[1:] = z[None, :] / np.sqrt(np.arange(1.0, n_dim))[:, None]
    return np.multiply.accumulate(steps, axis=0, out=steps)


def frame_sandwich(dim: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j v_j v_j^H over the columns v_j of ``monomial_state_matrix``.

    The nodes are processed in chunks to bound the Vandermonde workspace.
    """
    out = np.zeros((dim, dim), dtype=complex)
    chunk = 16384
    for start in range(0, z.size, chunk):
        v = monomial_state_matrix(dim, z[start:start + chunk])
        out += (v * w[start:start + chunk]) @ v.conj().T
    return out


def verify_identity_resolution(
    n_dim: int,
    quad: QuadratureSpec | None = None,
    tol: float | None = None,
) -> float:
    """Max-abs deviation of the quadrature frame integral from the identity.

    Evaluates (1/pi) int |z><z| N(|z|^2) e^{-|z|^2} d^2z entrywise with the
    supplied (or default) quadrature and returns max |G - I|.  If ``tol`` is
    given and the deviation exceeds it (or is NaN), raises
    ``QuadratureOrderError`` with the orders needed for exactness.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    if quad is None:
        quad = QuadratureSpec.default_for(n_dim)
    z, w = phase_plane_quadrature(quad)
    gram = frame_sandwich(n_dim, z, w)
    dev = float(np.max(np.abs(gram - np.eye(n_dim))))
    if tol is not None and not dev <= tol:
        raise QuadratureOrderError(
            f"identity resolution deviates by {dev:.3e} > {tol:.1e} with radial order "
            f"{quad.radial_order}, angular order {quad.angular_order}; exactness for "
            f"dim {n_dim} needs radial order >= {n_dim} and angular order >= {2 * n_dim - 1}"
        )
    return dev
