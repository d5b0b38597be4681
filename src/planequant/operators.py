"""Quantization of classical observables into N x N matrices.

A polynomial observable f(z, conj z) = sum c * z^a * conj(z)^b is mapped to
the matrix with entries

    A[k, l] = delta_{k+a, l+b} * (k+a)! / sqrt(k! l!)        (0-based k, l)

obtained by integrating f against the coherent-state projector with the
Gaussian plane measure.  ``quantize`` writes each term's ratio, one running
product of factors at least 1, straight into its one diagonal of a single
matrix; ``quantize_monomial`` is ``quantize`` of one term.  A quadrature
fallback handles black-box symbols and doubles as an independent oracle for
the closed form.  Named constructors
build the position, momentum and truncated-oscillator matrices plus the
noncommutative-plane coordinates scaled by a minimal area theta, the
tridiagonal ones from the root of ``spectra.position_tridiagonal``'s e2.

Matrices are immutable after construction; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionMismatchError
from .frame import QuadratureSpec, as_dimension, frame_sandwich
from .spectra import position_tridiagonal

# Conjugate-symmetry threshold: OperatorMatrix's Hermiticity test, relative
# to the largest entry (entries grow like (k+a)!/k!, so no absolute bound
# fits), and PolynomialSymbol.is_real_symbol's coefficient-pair test.
HERMITIAN_TOL = 1e-12

# Dense matrices beyond this size are almost certainly a mistake here; the
# spectral module works from tridiagonal data instead.
MAX_DENSE_DIM = 4096


def _check_dim(n_dim: int) -> int:
    """``n_dim`` as a plain int in 1..MAX_DENSE_DIM."""
    n_dim = as_dimension(n_dim, 1, "n_dim")
    if n_dim > MAX_DENSE_DIM:
        raise ValueError(
            f"dense operator dimension {n_dim} exceeds the cap {MAX_DENSE_DIM}; "
            "use the tridiagonal spectral routines for large dimensions"
        )
    return n_dim


def _merge_coefficients(cs: list[complex]) -> complex:
    """Sum of coefficients, each part zeroed where it cancels to roundoff.

    Summing m terms errs by at most (m-1) half-ulps of the magnitudes summed;
    a part no larger than m ulps of them is indistinguishable from zero.
    """
    total = sum(cs, 0j)
    slack = len(cs) * np.finfo(float).eps
    re, im = total.real, total.imag
    if abs(re) <= slack * sum(abs(c.real) for c in cs):
        re = 0.0
    if abs(im) <= slack * sum(abs(c.imag) for c in cs):
        im = 0.0
    return complex(re, im)


@dataclass(frozen=True)
class PolynomialSymbol:
    """Finite sum of monomials c * z^a * conj(z)^b on the phase plane.

    Terms are canonicalized: sorted by (a, b), duplicates merged, zero
    coefficients dropped.  A real or imaginary part that merging cancels to
    roundoff of the magnitudes summed counts as zero.
    """

    terms: tuple[tuple[int, int, complex], ...]

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int, complex]]) -> "PolynomialSymbol":
        parts: dict[tuple[int, int], list[complex]] = {}
        for a, b, c in terms:
            a, b = as_dimension(a, 0, "exponent a"), as_dimension(b, 0, "exponent b")
            parts.setdefault((a, b), []).append(complex(c))
        merged = ((a, b, _merge_coefficients(cs)) for (a, b), cs in sorted(parts.items()))
        return cls(terms=tuple((a, b, c) for a, b, c in merged if c != 0))

    @classmethod
    def zero(cls) -> "PolynomialSymbol":
        return cls(terms=())

    @classmethod
    def monomial(cls, a: int, b: int, c: complex = 1.0) -> "PolynomialSymbol":
        return cls.from_terms([(a, b, c)])

    @classmethod
    def position(cls) -> "PolynomialSymbol":
        """q = (z + conj z)/sqrt(2)."""
        s = 1.0 / math.sqrt(2.0)
        return cls.from_terms([(1, 0, s), (0, 1, s)])

    @classmethod
    def momentum(cls) -> "PolynomialSymbol":
        """p = (z - conj z)/(i sqrt(2))."""
        s = 1.0 / math.sqrt(2.0)
        return cls.from_terms([(1, 0, -1j * s), (0, 1, 1j * s)])

    def is_real_symbol(self) -> bool:
        """True iff f is real-valued: every (a,b,c) has partner (b,a,conj(c))."""
        table = {(a, b): c for a, b, c in self.terms}
        for (a, b), c in table.items():
            partner = table.get((b, a), 0j)
            if abs(partner - c.conjugate()) > HERMITIAN_TOL * max(1.0, abs(c)):
                return False
        return True

    def evaluate(self, z):
        """Evaluate f at complex z (scalar or array)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        zc = np.conj(z)
        for a, b, c in self.terms:
            out = out + c * z**a * zc**b
        return out if out.shape else complex(out)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix of a quantized observable: a read-only copy of ``entries``.

    Matrices compare and hash by identity, as their array cannot.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square 2-D matrix, got shape {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "OperatorMatrix":
        """Take over, read-only and uncopied, a square complex matrix this module built."""
        entries.setflags(write=False)
        op = cls.__new__(cls)
        object.__setattr__(op, "entries", entries)
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def is_hermitian(self) -> bool:
        """A == A^H up to HERMITIAN_TOL times the largest |entry|."""
        scale = float(np.max(np.abs(self.entries)))
        return float(np.max(np.abs(self.entries - self.entries.conj().T))) <= HERMITIAN_TOL * scale


def _transition_amplitudes(m: np.ndarray, a: int, b: int) -> np.ndarray:
    """(k+a)! / sqrt(k! l!) on the diagonal l = k + a - b at the rows m = min(k, l).

    With M = max(k, l) = m + |a-b| the ratio is the running product
    prod_{t=1..min(a,b)} (M+t) * prod_{t=1..|a-b|} sqrt(m+t).  Every factor
    is at least 1, so no partial product exceeds the result, and a term and
    its conjugate partner (b, a) get the same product bit for bit.  Against
    exact factorials the worst relative error is 1.1e-15 at
    (N, a, b) = (4096, 40, 41), 1.6e-15 at (4096, 60, 0) and 1.2e-15 at
    (1000, 80, 80).
    """
    d = abs(a - b)
    amp = np.ones(len(m))
    for t in range(1, d + 1):
        amp *= np.sqrt(m + t)
    for t in range(d + 1, d + min(a, b) + 1):
        amp *= m + t
    return amp


def quantize_monomial(n_dim: int, a: int, b: int) -> OperatorMatrix:
    """Quantize z^a conj(z)^b: single nonzero diagonal at offset a - b."""
    return quantize(PolynomialSymbol.monomial(a, b), n_dim)


def quantize(sym: PolynomialSymbol, n_dim: int) -> OperatorMatrix:
    """Quantize a polynomial symbol by linearity, each term into its one diagonal."""
    n_dim = _check_dim(n_dim)
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    for a, b, c in sym.terms:
        m = np.arange(n_dim - abs(a - b))
        ks, ls = (m, m + a - b) if a >= b else (m + b - a, m)
        entries[ks, ls] += c * _transition_amplitudes(m, a, b)
    return OperatorMatrix._adopt(entries)


def quantize_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    n_dim: int,
    quad: QuadratureSpec | None = None,
) -> OperatorMatrix:
    """Quantize a black-box phase-space function by plane quadrature.

    Entry (k, l) is sum_j w_j f(z_j) z_j^k conj(z_j)^l / sqrt(k! l!); for
    polynomial f within the quadrature's exactness this matches ``quantize``
    to roundoff and serves as its independent oracle.
    """
    n_dim = _check_dim(n_dim)
    if quad is None:
        quad = QuadratureSpec.default_for(n_dim)
    return OperatorMatrix._adopt(frame_sandwich(n_dim, quad, f))


def _hermitian_tridiagonal(upper: np.ndarray) -> OperatorMatrix:
    """Zero-diagonal Hermitian matrix with ``upper`` above the diagonal."""
    entries = np.zeros((upper.size + 1, upper.size + 1), dtype=complex)
    np.fill_diagonal(entries[:, 1:], upper)
    np.fill_diagonal(entries[1:], np.conj(upper))
    return OperatorMatrix._adopt(entries)


def position_operator(n_dim: int) -> OperatorMatrix:
    """Symmetric tridiagonal position matrix with off-diagonal sqrt(k/2)."""
    return _hermitian_tridiagonal(np.sqrt(position_tridiagonal(_check_dim(n_dim)).e2))


def momentum_operator(n_dim: int) -> OperatorMatrix:
    """Hermitian momentum matrix: -i sqrt(k/2) above, +i sqrt(k/2) below."""
    return _hermitian_tridiagonal(-1j * np.sqrt(position_tridiagonal(_check_dim(n_dim)).e2))


def hamiltonian(n_dim: int) -> OperatorMatrix:
    """Truncated oscillator energy (P^2 + Q^2)/2, diagonal in the Fock basis.

    Diagonal entries are k + 1/2 for k = 0..N-2 and (N-1)/2 for the last
    level, which sits below the preceding one: degenerate with it for even N,
    halfway between the last two oscillator levels for odd N.
    """
    n_dim = _check_dim(n_dim)
    entries = np.diag(np.arange(n_dim) + 0.5 + 0j)
    entries[n_dim - 1, n_dim - 1] = (n_dim - 1) / 2.0
    return OperatorMatrix._adopt(entries)


def last_level_projector(n_dim: int) -> OperatorMatrix:
    """Rank-one projector onto the highest Fock level."""
    n_dim = _check_dim(n_dim)
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    entries[n_dim - 1, n_dim - 1] = 1.0
    return OperatorMatrix._adopt(entries)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a b - b a."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {a.dim} vs {b.dim}")
    return OperatorMatrix._adopt(a.entries @ b.entries - b.entries @ a.entries)


def hall_coordinates(n_dim: int, theta: float) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Planar coordinate pair with commutator i*theta*(I - N |N-1><N-1|).

    Scaling both position and momentum by sqrt(theta) is the unique choice
    reproducing that commutator from the canonical-up-to-truncation pair.
    """
    if not (0.0 < theta < math.inf):
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    off = math.sqrt(theta) * np.sqrt(position_tridiagonal(_check_dim(n_dim)).e2)
    return _hermitian_tridiagonal(off), _hermitian_tridiagonal(-1j * off)
