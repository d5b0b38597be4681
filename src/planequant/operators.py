"""Quantization of classical observables into N x N matrices.

A polynomial observable f(z, conj z) = sum c * z^a * conj(z)^b is mapped to
the matrix with entries

    A[k, l] = delta_{k+a, l+b} * (k+a)! / sqrt(k! l!)        (0-based k, l)

obtained by integrating f against the coherent-state projector with the
Gaussian plane measure.  A quadrature fallback handles black-box symbols and
doubles as an independent oracle for the closed form.  Named constructors
build the position, momentum and truncated-oscillator matrices plus the
noncommutative-plane coordinates scaled by a minimal area theta.

Matrices are immutable after construction; all functions are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionMismatchError
from .frame import (
    QuadratureSpec,
    as_dimension,
    frame_sandwich,
    half_log_fact,
    phase_plane_quadrature,
)

# Hermiticity detection threshold for OperatorMatrix, relative to the
# largest entry: entries grow like (k+a)!/k!, so no absolute bound fits.
HERMITIAN_TOL = 1e-12

# Dense matrices beyond this size are almost certainly a mistake here; the
# spectral module works from tridiagonal data instead.
MAX_DENSE_DIM = 4096

# Largest a+b for which factorial ratios are formed as exact small products;
# larger shifts use frame's log-factorial table.
_EXACT_PRODUCT_DEGREE = 40


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
            a, b = int(a), int(b)
            if a < 0 or b < 0:
                raise ValueError(f"monomial exponents must be nonnegative, got ({a}, {b})")
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

    def is_real_symbol(self, tol: float = 1e-12) -> bool:
        """True iff f is real-valued: every (a,b,c) has partner (b,a,conj(c))."""
        table = {(a, b): c for a, b, c in self.terms}
        for (a, b), c in table.items():
            partner = table.get((b, a), 0j)
            if abs(partner - c.conjugate()) > tol * max(1.0, abs(c)):
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

    def to_json(self) -> str:
        return json.dumps(
            [{"a": a, "b": b, "re": c.real, "im": c.imag} for a, b, c in self.terms]
        )

    @classmethod
    def from_json(cls, text: str) -> "PolynomialSymbol":
        data = json.loads(text)
        return cls.from_terms(
            (int(t["a"]), int(t["b"]), complex(t["re"], t["im"])) for t in data
        )


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix of a quantized observable, immutable after build."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape ({self.dim}, {self.dim}), got {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @cached_property
    def is_hermitian(self) -> bool:
        """A == A^H up to HERMITIAN_TOL times the largest |entry|."""
        scale = float(np.max(np.abs(self.entries)))
        return float(np.max(np.abs(self.entries - self.entries.conj().T))) <= HERMITIAN_TOL * scale

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "re": self.entries.real.tolist(),
                "im": self.entries.imag.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "OperatorMatrix":
        data = json.loads(text)
        entries = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
        return cls(dim=int(data["dim"]), entries=entries)

    def to_csv(self) -> str:
        """CSV rows with re/im interleaved columns (re00,im00,re01,im01,...)."""
        lines = []
        for row in self.entries:
            cells = []
            for v in row:
                cells.append(f"{v.real:.9g}")
                cells.append(f"{v.imag:.9g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _transition_amplitudes(ks: np.ndarray, ls: np.ndarray, a: int, b: int) -> np.ndarray:
    """(k+a)! / sqrt(k! l!) along the surviving diagonal l = k + a - b.

    Small integer products keep full precision for moderate a+b; the
    log-factorial table handles larger shifts where the products would lose
    nothing anyway.
    """
    if a + b <= _EXACT_PRODUCT_DEGREE:
        prod = np.ones(len(ks))
        for t in range(1, a + 1):
            prod *= ks + t
        for t in range(1, b + 1):
            prod *= ls + t
        return np.sqrt(prod)
    half = half_log_fact(int(ks[-1]) + a + 1)
    return np.exp(2.0 * half[ks + a] - half[ks] - half[ls])


def quantize_monomial(n_dim: int, a: int, b: int) -> OperatorMatrix:
    """Quantize z^a conj(z)^b: single nonzero diagonal at offset a - b."""
    n_dim = _check_dim(n_dim)
    if a < 0 or b < 0:
        raise ValueError(f"monomial exponents must be nonnegative, got ({a}, {b})")
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    d = a - b
    k0 = max(0, -d)
    k1 = (n_dim - 1) - max(0, d)
    if k1 >= k0:
        ks = np.arange(k0, k1 + 1)
        ls = ks + d
        entries[ks, ls] = _transition_amplitudes(ks, ls, a, b)
    return OperatorMatrix(dim=n_dim, entries=entries)


def quantize(sym: PolynomialSymbol, n_dim: int) -> OperatorMatrix:
    """Quantize a polynomial symbol by linearity over its monomials."""
    n_dim = _check_dim(n_dim)
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    for a, b, c in sym.terms:
        entries += c * quantize_monomial(n_dim, a, b).entries
    return OperatorMatrix(dim=n_dim, entries=entries)


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
    z, w = phase_plane_quadrature(quad)
    fz = np.asarray(f(z), dtype=complex)
    if fz.shape != z.shape:
        raise ValueError("symbol function must return one value per quadrature node")
    return OperatorMatrix(dim=n_dim, entries=frame_sandwich(n_dim, z, w * fz))


def position_operator(n_dim: int) -> OperatorMatrix:
    """Symmetric tridiagonal position matrix with off-diagonal sqrt(k/2)."""
    n_dim = _check_dim(n_dim)
    off = np.sqrt(np.arange(1, n_dim) / 2.0)
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    idx = np.arange(n_dim - 1)
    entries[idx, idx + 1] = off
    entries[idx + 1, idx] = off
    return OperatorMatrix(dim=n_dim, entries=entries)


def momentum_operator(n_dim: int) -> OperatorMatrix:
    """Hermitian momentum matrix: -i sqrt(k/2) above, +i sqrt(k/2) below."""
    n_dim = _check_dim(n_dim)
    off = np.sqrt(np.arange(1, n_dim) / 2.0)
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    idx = np.arange(n_dim - 1)
    entries[idx, idx + 1] = -1j * off
    entries[idx + 1, idx] = 1j * off
    return OperatorMatrix(dim=n_dim, entries=entries)


def hamiltonian(n_dim: int) -> OperatorMatrix:
    """Truncated oscillator energy (P^2 + Q^2)/2, diagonal in the Fock basis.

    Diagonal entries are k + 1/2 for k = 0..N-2 and (N-1)/2 for the last
    level, which sits below the preceding one: degenerate with it for even N,
    halfway between the last two oscillator levels for odd N.
    """
    n_dim = _check_dim(n_dim)
    diag = np.arange(n_dim) + 0.5
    diag[n_dim - 1] = (n_dim - 1) / 2.0
    return OperatorMatrix(dim=n_dim, entries=np.diag(diag).astype(complex))


def last_level_projector(n_dim: int) -> OperatorMatrix:
    """Rank-one projector onto the highest Fock level."""
    n_dim = _check_dim(n_dim)
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    entries[n_dim - 1, n_dim - 1] = 1.0
    return OperatorMatrix(dim=n_dim, entries=entries)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a b - b a."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {a.dim} vs {b.dim}")
    return OperatorMatrix(dim=a.dim, entries=a.entries @ b.entries - b.entries @ a.entries)


def hall_coordinates(n_dim: int, theta: float) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Planar coordinate pair with commutator i*theta*(I - N |N-1><N-1|).

    Scaling both position and momentum by sqrt(theta) is the unique choice
    reproducing that commutator from the canonical-up-to-truncation pair.
    """
    if not (theta > 0.0):
        raise ValueError(f"theta must be positive, got {theta!r}")
    s = math.sqrt(theta)
    q = position_operator(n_dim)
    p = momentum_operator(n_dim)
    return (
        OperatorMatrix(dim=q.dim, entries=s * q.entries),
        OperatorMatrix(dim=q.dim, entries=s * p.entries),
    )
