"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``) after its
assertions; a failed assertion therefore doubles as the FAIL line.  Heavy
shared computations are module-scoped fixtures so the suite stays within
its runtime budgets, which are asserted where the criterion states one.
"""

import math
import time

import numpy as np
import pytest

from planequant.frame import (
    PhasePoint,
    QuadratureSpec,
    phase_plane_quadrature,
    verify_identity_resolution,
)
from planequant.operators import (
    OperatorMatrix,
    hamiltonian,
    last_level_projector,
    momentum_operator,
    position_operator,
    quantize_monomial,
)
from planequant.spectra import (
    eig_all,
    extreme_eigenvalues,
    position_tridiagonal,
    semicircle_count_deviation,
    sigma_table,
)
from planequant.symbols import (
    corrective_factor,
    lower_symbol,
    quadratic_symbols,
    uncertainty_product,
)

TWO_PI = 2.0 * math.pi

REFERENCE_SIGMA_BASE = {
    10: 4.713054,
    55: 5.774856,
    100: 5.941534,
    551: 6.173778,
    1000: 6.209670,
    5555: 6.259760,
    10000: 6.267356,
}
REFERENCE_SIGMA_EXTENDED = {
    55255: 6.278122,
    100000: 6.279776,
    500555: 6.282020,
    1000000: 6.282450,
}


@pytest.fixture(scope="module")
def base_table():
    dims = sorted(REFERENCE_SIGMA_BASE)
    start = time.perf_counter()
    summaries = sigma_table(dims)
    elapsed = time.perf_counter() - start
    return summaries, elapsed


@pytest.fixture(scope="module")
def extended_table():
    dims = sorted(REFERENCE_SIGMA_EXTENDED)
    start = time.perf_counter()
    summaries = sigma_table(dims)
    elapsed = time.perf_counter() - start
    return summaries, elapsed


@pytest.fixture(scope="module")
def exhaustive_table():
    return sigma_table(list(range(2, 2001)))


def test_criterion_1_reference_products(base_table, extended_table):
    summaries, elapsed = base_table
    for s in summaries:
        assert s.sigma == pytest.approx(REFERENCE_SIGMA_BASE[s.dim], abs=1e-5), s.dim
    assert elapsed <= 60.0, f"base ladder took {elapsed:.1f}s"
    ext, ext_elapsed = extended_table
    for s in ext:
        assert s.sigma == pytest.approx(REFERENCE_SIGMA_EXTENDED[s.dim], abs=1e-5), s.dim
    assert ext_elapsed <= 600.0, f"extended ladder took {ext_elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 PASS: reference products reproduced to 1e-5 "
        f"(base {elapsed:.1f}s, extended {ext_elapsed:.1f}s)"
    )


def test_criterion_2_bound_and_monotonicity(exhaustive_table, base_table, extended_table):
    sigmas = {s.dim: s.sigma for s in exhaustive_table}
    assert len(sigmas) == 1999
    assert all(v < TWO_PI for v in sigmas.values())
    for s in list(base_table[0]) + list(extended_table[0]):
        assert s.sigma < TWO_PI
    for n in range(2, 1999):
        assert sigmas[n + 2] > sigmas[n], f"parity monotonicity fails at {n}"
    print("\nACCEPTANCE 2 PASS: sigma < 2*pi on 2..2000 and the ladder; "
          "parity-monotone on 2..2000")


def test_criterion_3_commutator_identity():
    devs = []
    for n in list(range(1, 201)) + [500, 1000]:
        q = position_operator(n).entries
        p = momentum_operator(n).entries
        got = q @ p - p @ q
        expected = 1j * (np.eye(n) - n * last_level_projector(n).entries)
        devs.append(np.max(np.abs(got - expected)))
    worst = float(np.max(devs))  # NaN-propagating, unlike max()
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 3 PASS: commutator identity to 1e-12 (worst {worst:.2e})")


def test_criterion_4_energy_identity():
    assert np.diag(hamiltonian(5).entries).real.tolist() == [0.5, 1.5, 2.5, 3.5, 2.0]
    devs = []
    for n in range(1, 501):
        q = position_operator(n).entries.real
        w = momentum_operator(n).entries.imag  # P = i*W with W real
        built = (q @ q - w @ w) / 2.0
        devs.append(np.max(np.abs(built - hamiltonian(n).entries.real)))
    worst = float(np.max(devs))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 4 PASS: energy identity to 1e-12 for N <= 500 (worst {worst:.2e})")


def test_criterion_5_identity_resolution():
    worst = float(np.max([verify_identity_resolution(n) for n in range(1, 65)]))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 5 PASS: identity resolution to 1e-10 for N <= 64 (worst {worst:.2e})")


def test_criterion_6_lower_symbol_closed_forms():
    rng = np.random.default_rng(2024)
    devs = []
    for n in range(2, 65):
        q_op = position_operator(n)
        q2 = OperatorMatrix(q_op.entries @ q_op.entries)
        p_op = momentum_operator(n)
        p2 = OperatorMatrix(p_op.entries @ p_op.entries)
        h = hamiltonian(n)
        radii = rng.uniform(0.0, 6.0, size=100)
        angles = rng.uniform(0.0, TWO_PI, size=100)
        for r, a in zip(radii, angles):
            x = PhasePoint.from_z(r * complex(math.cos(a), math.sin(a)))
            c = corrective_factor(n, math.sqrt(x.r2))
            a_val, b_val = quadratic_symbols(n, x)
            devs += [
                abs(lower_symbol(q_op, x) - c * x.q),
                abs(lower_symbol(q2, x) - (a_val + b_val)),
                abs(lower_symbol(p2, x) - (a_val - b_val)),
                abs(lower_symbol(h, x) - a_val),
            ]
    worst = float(np.max(devs))
    assert worst <= 1e-10
    origin_worst = float(np.max([
        abs(uncertainty_product(n, PhasePoint(0.0, 0.0)) - 0.5) for n in range(2, 201)
    ]))
    assert origin_worst <= 1e-12
    print(
        f"\nACCEPTANCE 6 PASS: closed forms match sandwiches to 1e-10 (worst {worst:.2e}); "
        f"origin product 0.5 to 1e-12 (worst {origin_worst:.2e})"
    )


def hermite_residual(n_dim, lams):
    """|p_N| / max(|p_N|, |p_{N-1}|) at each lam, p_k the order-k characteristic polynomial.

    p_0 = 1, p_1 = -lam, p_{k+1} = -lam p_k - (k/2) p_{k-1}.  Every 16 steps
    a pair that has left [2^-500, 2^500] is divided by a power of two, which
    is exact and cancels in the ratio.  Near a zero of p_N the denominator is
    carried by p_{N-1}, whose zeros interlace, so the ratio measures closeness
    to a zero relative to the local polynomial scale.
    """
    neg = -np.asarray(lams, dtype=float)
    p_prev, p = np.ones_like(neg), neg
    for k in range(1, n_dim):
        p, p_prev = neg * p - 0.5 * k * p_prev, p
        if k % 16 == 0:
            m = np.maximum(np.abs(p), np.abs(p_prev))
            shift = np.where((m > 0.0) & ((m > 2.0**500) | (m < 2.0**-500)), np.frexp(m)[1], 0)
            p, p_prev = np.ldexp(p, -shift), np.ldexp(p_prev, -shift)
    denom = np.maximum(np.abs(p), np.abs(p_prev))
    return np.abs(p) / np.where(denom == 0.0, 1.0, denom)


def test_residual_small_at_eigenvalues():
    for n in (12, 200, 1000):
        ev = eig_all(position_tridiagonal(n))
        assert hermite_residual(n, ev).max() <= 1e-8


def test_residual_large_away_from_eigenvalues():
    # a helper that returned zeros would pass criterion 7 without this
    ev = eig_all(position_tridiagonal(12))
    midpoints = (ev[:-1] + ev[1:]) / 2.0
    assert hermite_residual(12, midpoints).min() > 1e-3


def test_criterion_7_hermite_zero_structure():
    dims = list(range(2, 33)) + [50, 51, 100, 101, 250, 251, 512, 513,
                                 999, 1000, 1500, 1501, 1999, 2000]
    residuals = []
    for n in dims:
        ev = eig_all(position_tridiagonal(n))
        residuals.append(hermite_residual(n, ev).max())
        # interlacing with the next order
        ev_next = eig_all(position_tridiagonal(n + 1))
        assert np.all(ev_next[:-1] < ev) and np.all(ev < ev_next[1:]), n
        # parity gap bounds on consecutive positive eigenvalues
        pos = ev[ev > 1e-10 * math.sqrt(2.0 * n)]
        if pos.size >= 2:
            bound = pos[0] if n % 2 else 2.0 * pos[0]
            assert float(np.min(np.diff(pos))) > bound, n
    worst_res = float(np.max(residuals))
    assert worst_res <= 1e-8
    print(
        f"\nACCEPTANCE 7 PASS: eigenvalues are polynomial zeros to 1e-8 "
        f"(worst residual {worst_res:.2e}); interlacing and gap bounds hold to N = 2000"
    )


def test_criterion_8_asymptotics_and_semicircle():
    lam_min, lam_max = extreme_eigenvalues(100000)
    ratio = lam_max / math.sqrt(2.0 * 100000)
    assert 0.985 <= ratio <= 1.0
    rng = np.random.default_rng(99)
    n = 10000
    a = math.sqrt(2.0 * n)
    rels = []
    for _ in range(10):
        x1, x2 = np.sort(rng.uniform(-0.85 * a, 0.85 * a, size=2))
        if x2 - x1 < 0.2 * a:
            x2 = min(x1 + 0.2 * a, 0.9 * a)
        _, _, rel = semicircle_count_deviation(n, float(x1), float(x2))
        rels.append(rel)
    worst_rel = float(np.max(rels))
    assert worst_rel <= 0.02
    print(
        f"\nACCEPTANCE 8 PASS: largest-eigenvalue ratio {ratio:.5f} in [0.985, 1]; "
        f"semicircle counts within 2% (worst {worst_rel:.3%})"
    )


def test_criterion_9_monomial_oracle_equivalence():
    # deviation is scaled by the largest entry of each operator: for a = b = 5
    # at N = 32 the entries reach ~5e7, where an unscaled 1e-10 would demand
    # more significant digits than doubles carry.  v_j[n] = z_j^n / sqrt(n!)
    # is the test's own unanchored running product.
    devs = []
    for n in range(1, 33):
        quad = QuadratureSpec.default_for(n + 10)  # headroom for degree-5 factors
        z, w = phase_plane_quadrature(quad)
        steps = np.ones((n, z.size), dtype=complex)
        steps[1:] = z[None, :] / np.sqrt(np.arange(1.0, n))[:, None]
        v = np.multiply.accumulate(steps, axis=0)
        for a in range(6):
            for b in range(6):
                f = z**a * np.conj(z) ** b
                via_quad = (v * (w * f)) @ v.conj().T
                closed = quantize_monomial(n, a, b).entries
                scale = max(1.0, float(np.max(np.abs(closed))))
                devs.append(np.max(np.abs(via_quad - closed)) / scale)
    worst = float(np.max(devs))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 9 PASS: closed-form vs quadrature quantization to 1e-10 "
          f"relative to entry scale (worst {worst:.2e})")
