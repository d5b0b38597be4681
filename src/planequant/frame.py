"""Truncated coherent-state frame on the complex plane.

The frame lives in an N-dimensional Hilbert space spanned by the first N
Fock states.  A phase-space point z = (q + ip)/sqrt(2) is mapped to the
normalized state with coefficients z^n / sqrt(n! * N(|z|^2)), where
N(x) = sum_{n<N} x^n/n! is the truncated exponential series.  Everything
here is dimensionless (unit mass, unit frequency, unit action); physical
scales enter only in the bounds calculator of the CLI.

Every coefficient vector comes from ``monomial_state_matrix``, the running product
of z / sqrt(n) anchored at its largest entry, and a state is that column over its
own 2-norm.  Every quadrature integral over the frame is the one sum of
``frame_sandwich``, which takes the plane rule's angular DFT on each radial circle
and builds the matrix one diagonal at a time; ``normalization_factor`` sums N(x).

The domain is every point with finite |z|^2, checked by ``squared_radius``;
a dimension is a plain ``int`` N >= 1, checked by ``as_dimension``.  All
functions are pure and keep no caches, so concurrent use from multiple
threads is safe.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, QuadratureOrderError, RangeOverflowError

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


def squared_radius(q, p):
    """|z|^2 = (q^2 + p^2)/2 at the point (q, p), or at the points of arrays q and p
    broadcast together; one that is not finite, outside the frame's domain,
    raises ``ValueError`` without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        r2 = (q * q + p * p) / 2.0
    if not float(np.max(r2)) < math.inf:
        raise ValueError(f"|z|^2 = (q^2 + p^2)/2 must be finite, got {np.max(r2)}")
    return r2


@dataclass(frozen=True)
class PhasePoint:
    """A point of the classical phase plane, z = (q + i p)/sqrt(2), with |z|^2 finite."""

    q: float
    p: float

    def __post_init__(self):
        squared_radius(self.q, self.p)

    @property
    def z(self) -> complex:
        return complex(self.q, self.p) / math.sqrt(2.0)

    @property
    def r2(self) -> float:
        """|z|^2 = (q^2 + p^2)/2."""
        return squared_radius(self.q, self.p)

    @classmethod
    def from_z(cls, z: complex) -> "PhasePoint":
        z = complex(z)
        return cls(q=math.sqrt(2.0) * z.real, p=math.sqrt(2.0) * z.imag)


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Unit-norm coefficient vector of a truncated coherent state, held as a read-only copy.

    States compare and hash by identity, as their array cannot.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1:
            raise ValueError(f"expected a 1-D coefficient vector, got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        nrm = float(np.linalg.norm(coeffs))
        if not (abs(nrm - 1.0) <= NORM_TOL):
            raise ValueError(f"coherent-state coefficients must have unit norm, got {nrm!r}")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def normalization_factor(n_dim: int, r2: float) -> float:
    """Truncated exponential series sum_{n<N} r2^n / n!, for finite r2 >= 0.

    The terms t_n = (t_{n-1} / n) r2 from t_0 = 1, divided first so that none
    overflows before the sum, are summed in order up to the first 0.0, after
    which every term is 0.0.  A sum that overflows a double, as at N = 1000
    and r2 = 800 (not 709), raises ``RangeOverflowError``.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    if not (0.0 <= r2 < math.inf):
        raise ValueError(f"r2 must be finite and nonnegative, got {r2!r}")
    total = term = 1.0
    for n in range(1, n_dim):
        term = term / n * r2
        if not term:
            break
        total += term
    if total == math.inf:
        raise RangeOverflowError(f"the sum at N = {n_dim}, r2 = {r2} overflows a double")
    return float(total)


def coherent_state(n_dim: int, x: PhasePoint) -> CoherentState:
    """Normalized truncated coherent state attached to the phase point x."""
    n_dim = as_dimension(n_dim, 1, "n_dim")
    raw = monomial_state_matrix(n_dim, [x.z])[:, 0]
    return CoherentState(raw / np.linalg.norm(raw))


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
    return _plane_nodes(t, k).ravel(), np.repeat(wt / k, k)


def _plane_nodes(t: np.ndarray, k: int) -> np.ndarray:
    """Nodes sqrt(t_i) e^{2 pi i j / k} of the plane rule, one row per radial node."""
    theta = 2.0 * np.pi * np.arange(k) / k
    return np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]


def monomial_state_matrix(n_dim: int, z: np.ndarray) -> np.ndarray:
    """Matrix V whose column j is v[n] = z_j^n / sqrt(n!), n = 0..N-1, over |v[p]|.

    One column per node of the 1-D array ``z``; a scalar is one node.  v peaks at
    the anchor p = min(N - 1, floor(|z_j|^2)).  With s_k = z_j / sqrt(k),
    the phases s_k / |s_k| accumulate up to p, the factors 1 / |s_k| back down
    from p, and s_k on past p: none exceeds 1 in modulus, so no finite |z|^2
    overflows, entries far from p may underflow to 0, and z = 0 gives e_0.
    |s_k| is a root of a sum of squares, as hypot rounds one way along a
    direction, a bias that p factors compound.  Worst relative error against
    40-digit mpmath, over entries above 1e-290: 4.9e-15 at the quadrature
    nodes of N = 64 and 182, and 1.5e-14 at N = 4096, |z|^2 = 3000.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 1:
        raise ValueError(f"nodes must be a scalar or a 1-D array, got shape {z.shape}")
    steps = np.ones((n_dim, z.size), dtype=complex)
    s = np.divide(z, np.sqrt(np.arange(1.0, n_dim))[:, None], out=steps[1:])
    size2 = s.real * s.real + s.imag * s.imag
    down = np.ones((n_dim, z.size))  # 1 / |s_k| on the rows 1..p, where |s_k| >= 1
    np.divide(1.0, np.sqrt(size2), out=down[:-1], where=size2 >= 1.0)
    s *= down[:-1]
    np.multiply.accumulate(steps, axis=0, out=steps)
    np.multiply.accumulate(down[::-1], axis=0, out=down[::-1])
    return np.multiply(steps, down, out=steps)


def frame_sandwich(dim: int, quad: QuadratureSpec, f) -> np.ndarray:
    """sum_j w_j f(z_j) v_j v_j^H over the nodes z_j of ``phase_plane_quadrature(quad)``.

    v_j[m] = z_j^m / sqrt(m!), and ``f`` maps the flat node array, in the
    rule's radial-major order, to one value g_j per node.  Node (i, k) is
    r_i e^{i theta_k}, theta_k = 2 pi k / K, so v_j[m] = e^{i m theta_k}
    rho_i[m] / rho_i[0], rho_i the real column of ``monomial_state_matrix``
    at r_i (rho_i[0]^2 >= 2.1e-308 up to order 186), and the angular sum of
    entry (m, n) is the inverse DFT of g on circle i at mode (m - n) mod K:

        G[m, n] = sum_i rho_i[m] rho_i[n] F[i, (m - n) mod K],
        F = ifft(g as R x K, axis=1) * (wt / rho[0]^2)[:, None].

    That is the same finite sum reordered, so a short angular rule aliases
    exactly as the node-by-node sum does.  The matrix is built one diagonal
    pair (m - n = +-d) at a time from the radial products rho[d:] rho[:N-d],
    in O(R (N + K)) memory and O(R N^2 + R K log K) work.
    """
    t, wt = gauss_laguerre_rule(quad.radial_order)
    k = quad.angular_order
    z = _plane_nodes(t, k)
    g = np.asarray(f(z.ravel()), dtype=complex)
    if g.shape != (z.size,):
        raise ValueError("symbol function must return one value per quadrature node")
    rho = monomial_state_matrix(dim, np.sqrt(t)).real
    modes = np.fft.ifft(g.reshape(z.shape), axis=1)
    modes *= (wt / rho[0] ** 2)[:, None]
    # mode j of circle i as the real pair at columns 2j, 2j + 1
    pairs = modes.view(np.float64)
    out = np.empty((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    for d in range(dim):
        lo, up = 2 * (d % k), 2 * (-d % k)
        sums = ((rho[d:] * rho[:dim - d]) @ pairs[:, [lo, lo + 1, up, up + 1]]).view(complex)
        flat[d * dim::dim + 1] = sums[:, 0]  # G[n + d, n]
        flat[d::dim + 1][:dim - d] = sums[:, 1]  # G[n, n + d]
    return out


def verify_identity_resolution(n_dim: int, quad: QuadratureSpec | None = None) -> float:
    """Max-abs deviation of the quadrature frame integral from the identity.

    Evaluates (1/pi) int |z><z| N(|z|^2) e^{-|z|^2} d^2z entrywise with the
    supplied (or default) quadrature and returns max |G - I|, NaN if any
    entry is NaN.  The integral is exact for radial order >= N and angular
    order >= 2N - 1; the caller judges the deviation.
    """
    n_dim = as_dimension(n_dim, 1, "n_dim")
    if quad is None:
        quad = QuadratureSpec.default_for(n_dim)
    gram = frame_sandwich(n_dim, quad, np.ones_like)
    return float(np.max(np.abs(gram - np.eye(n_dim))))
