"""Tests for polynomial-symbol quantization and the named operators."""

import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planequant.errors import DimensionMismatchError, QuadratureOrderError
from planequant.frame import (
    PhasePoint,
    QuadratureSpec,
    coherent_state,
    coherent_state_log,
    exp_partial_sums,
    log_normalization_factor,
    monomial_state_matrix,
    normalization_factor,
    verify_identity_resolution,
)
from planequant.operators import (
    OperatorMatrix,
    PolynomialSymbol,
    commutator,
    hall_coordinates,
    hamiltonian,
    last_level_projector,
    momentum_operator,
    position_operator,
    quantize,
    quantize_monomial,
    quantize_quadrature,
)
from planequant.symbols import corrective_factor, quadratic_symbols, symbol_grid, uncertainty_product

SQRT2 = math.sqrt(2.0)


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class TestPolynomialSymbol:
    def test_canonicalization_merges_terms(self):
        sym = PolynomialSymbol.from_terms([(1, 0, 1.0), (1, 0, 2.0), (0, 0, 0.0)])
        assert sym.terms == ((1, 0, 3.0 + 0j),)

    def test_real_symbol_predicate(self):
        assert PolynomialSymbol.position().is_real_symbol()
        assert PolynomialSymbol.momentum().is_real_symbol()
        assert PolynomialSymbol.monomial(1, 1, 2.5).is_real_symbol()
        assert not PolynomialSymbol.monomial(1, 0, 1.0).is_real_symbol()
        assert not PolynomialSymbol.from_terms([(1, 0, 1.0), (0, 1, -1.0)]).is_real_symbol()

    def test_evaluate(self):
        sym = PolynomialSymbol.position()
        z = 0.8 - 0.25j
        assert sym.evaluate(z) == pytest.approx((z + np.conj(z)) / SQRT2)

    def test_json_round_trip(self):
        sym = PolynomialSymbol.from_terms([(2, 1, 0.5 - 0.25j), (0, 3, 1.5j)])
        again = PolynomialSymbol.from_json(sym.to_json())
        assert again == sym
        parsed = json.loads(sym.to_json())
        assert set(parsed[0]) == {"a", "b", "re", "im"}

    def test_cancelled_terms_leave_no_roundoff_ghost(self):
        # 1j + 1.936j - 1j - 1.936j sums to -2.2e-16j in floating point
        sym = PolynomialSymbol.from_terms([(5, 5, 1j), (5, 5, 1.936j), (5, 5, -1j), (5, 5, -1.936j)])
        assert sym.terms == ()
        sym = PolynomialSymbol.from_terms([(1, 0, 0.1), (1, 0, 0.2), (1, 0, -0.3), (1, 0, 2j)])
        assert sym.terms == ((1, 0, 2j),)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            PolynomialSymbol.from_terms([(-1, 0, 1.0)])

    @pytest.mark.parametrize("bad", [1.5, True, "2", pytest.param(np.float64(2.0), id="np.float64")])
    def test_rejects_non_integer_exponents(self, bad):
        # exponents go through as_dimension: no silent int() truncation
        with pytest.raises(ValueError, match="exponent"):
            PolynomialSymbol.from_terms([(bad, 0, 1.0)])
        with pytest.raises(ValueError, match="exponent"):
            quantize_monomial(4, bad, 0)
        with pytest.raises(ValueError, match="exponent"):
            quantize_monomial(4, 0, bad)


class TestQuantizeMonomial:
    def test_constant_gives_identity(self):
        assert _max_dev(quantize_monomial(6, 0, 0).entries, np.eye(6)) == 0.0

    def test_lowering_operator(self):
        a = quantize_monomial(5, 1, 0).entries
        expected = np.diag(np.sqrt(np.arange(1.0, 5.0)), 1)
        assert _max_dev(a, expected) <= 1e-14

    def test_number_diagonal_via_quadrature_oracle(self):
        closed = quantize_monomial(4, 1, 1)
        oracle = quantize_quadrature(lambda z: z * np.conj(z), 4)
        assert _max_dev(closed.entries, oracle.entries) <= 1e-12
        assert _max_dev(np.diag(closed.entries), np.arange(1.0, 5.0)) <= 1e-14

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3), (5, 2)])
    def test_matches_quadrature_oracle(self, a, b):
        n = 12
        closed = quantize_monomial(n, a, b)
        oracle = quantize_quadrature(lambda z: z**a * np.conj(z) ** b, n)
        assert _max_dev(closed.entries, oracle.entries) <= 1e-10

    def test_large_shift_matches_quadrature_oracle(self):
        # degree 41 still matches the independent quadrature rule
        n = 6
        closed = quantize_monomial(n, 21, 20)
        oracle = quantize_quadrature(
            lambda z: z**21 * np.conj(z) ** 20,
            n,
            quad=QuadratureSpec(radial_order=60, angular_order=120),
        )
        assert _max_dev(closed.entries, oracle.entries) <= 1e-6 * np.max(np.abs(closed.entries))

    @pytest.mark.parametrize("n,a,b", [
        (64, 25, 20), (64, 20, 25), (300, 30, 31), (200, 0, 45),
        (2, 20, 20), (2, 20, 21), (64, 40, 0), (64, 0, 41), (300, 20, 20), (300, 21, 20),
        (300, 1, 39), (300, 39, 2), (4096, 40, 41), (4096, 60, 0), (1000, 80, 80),
    ])
    def test_large_shift_matches_exact_factorials(self, n, a, b):
        # ((k+a)!)^2 / (k! l!) = [(k+a)!/k!] [(l+b)!/l!] as exact integers, its
        # square root at 50 digits; every row of short diagonals, about 300
        # evenly spaced rows (and the last) of long ones
        entries = quantize_monomial(n, a, b).entries
        assert not np.any(entries.imag)
        rows = range(max(0, b - a), n - max(0, a - b))
        with localcontext() as ctx:
            ctx.prec = 50
            for k in [*rows[:: max(1, len(rows) // 300)], rows[-1]]:
                l = k + a - b
                square = math.prod(range(k + 1, k + a + 1)) * math.prod(range(l + 1, l + b + 1))
                exact = Decimal(square).sqrt()
                rel = abs(Decimal(float(entries[k, l].real)) - exact) / exact
                assert rel <= Decimal("1e-14"), (k, l, rel)

    def test_dense_cap(self):
        with pytest.raises(ValueError):
            quantize_monomial(5000, 0, 0)


class TestQuantize:
    def test_zero_symbol(self):
        z = quantize(PolynomialSymbol.zero(), 7)
        assert _max_dev(z.entries, 0.0) == 0.0

    def test_position_symbol_matches_direct_fill(self):
        for n in (1, 2, 5, 33, 170):
            via_symbol = quantize(PolynomialSymbol.position(), n)
            direct = position_operator(n)
            assert _max_dev(via_symbol.entries, direct.entries) <= 1e-14

    def test_momentum_symbol_matches_direct_fill(self):
        for n in (2, 5, 33):
            via_symbol = quantize(PolynomialSymbol.momentum(), n)
            direct = momentum_operator(n)
            assert _max_dev(via_symbol.entries, direct.entries) <= 1e-14

    def test_quadrature_identity(self):
        op = quantize_quadrature(lambda z: np.ones_like(z), 9)
        assert _max_dev(op.entries, np.eye(9)) <= 1e-12

    def test_quadrature_position(self):
        sym = PolynomialSymbol.position()
        op = quantize_quadrature(sym.evaluate, 10)
        assert _max_dev(op.entries, position_operator(10).entries) <= 1e-10

    def test_quadrature_beyond_the_largest_order_raises(self):
        # the default rule at N = 183 has radial order 187; numpy's weights
        # there are NaN, which used to give an all-NaN matrix
        with pytest.raises(QuadratureOrderError, match="186"):
            quantize_quadrature(lambda z: np.ones_like(z), 183)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=32),
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
                st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_real_symbols_quantize_to_hermitian(self, n, data):
        # symmetrize: f + conj(f) is real-valued by construction
        terms = [(a, b, c) for a, b, c in data] + [(b, a, np.conj(c)) for a, b, c in data]
        sym = PolynomialSymbol.from_terms(terms)
        assert sym.is_real_symbol()
        assert quantize(sym, n).is_hermitian

    def test_hermitian_relative_to_largest_entry(self):
        # entries reach ~1e38 here, so only a relative tolerance can pass
        # transposes that differ in roundoff
        sym = PolynomialSymbol.from_terms([(21, 20, 1.0), (20, 21, 1.0)])
        assert quantize(sym, 64).is_hermitian
        big = OperatorMatrix(np.array([[0.0, 1e38], [1e38 * (1 + 1e-14), 0.0]]))
        assert big.is_hermitian
        tiny = OperatorMatrix(np.array([[0.0, 1e-20], [0.0, 0.0]]))
        assert not tiny.is_hermitian

    @pytest.mark.parametrize("terms", [
        [(21, 20, 1.0), (20, 21, 1.0)],
        [(30, 2, 1 + 2j), (2, 30, 1 - 2j)],
    ])
    def test_real_symbol_is_hermitian_bit_for_bit(self, terms):
        # a term and its conjugate partner share one running product
        entries = quantize(PolynomialSymbol.from_terms(terms), 64).entries
        assert np.array_equal(entries, entries.conj().T)

    def test_non_real_symbol_not_hermitian(self):
        op = quantize(PolynomialSymbol.monomial(2, 0, 1.0), 6)
        assert not op.is_hermitian


class TestNamedOperators:
    def test_position_two_by_two(self):
        expected = np.array([[0.0, 1 / SQRT2], [1 / SQRT2, 0.0]])
        assert _max_dev(position_operator(2).entries, expected) <= 1e-15

    def test_momentum_two_by_two(self):
        expected = np.array([[0.0, -1j / SQRT2], [1j / SQRT2, 0.0]])
        assert _max_dev(momentum_operator(2).entries, expected) <= 1e-15

    def test_hermitian_flags(self):
        for n in (1, 2, 9):
            assert position_operator(n).is_hermitian
            assert momentum_operator(n).is_hermitian
            assert hamiltonian(n).is_hermitian

    @pytest.mark.parametrize(
        "n,expected",
        [
            (5, [0.5, 1.5, 2.5, 3.5, 2.0]),
            (2, [0.5, 0.5]),
            (3, [0.5, 1.5, 1.0]),
        ],
    )
    def test_energy_diagonal(self, n, expected):
        assert np.diag(hamiltonian(n).entries).real.tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 45, 128])
    def test_energy_equals_half_sum_of_squares(self, n):
        q = position_operator(n).entries
        p = momentum_operator(n).entries
        assert _max_dev((p @ p + q @ q) / 2.0, hamiltonian(n).entries) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 200])
    def test_commutator_identity(self, n):
        got = commutator(position_operator(n), momentum_operator(n)).entries
        expected = 1j * (np.eye(n) - n * last_level_projector(n).entries)
        assert _max_dev(got, expected) <= 1e-12

    def test_commutator_with_self_vanishes(self):
        q = position_operator(9)
        assert _max_dev(commutator(q, q).entries, 0.0) == 0.0

    def test_commutator_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(position_operator(3), position_operator(4))

    def test_hall_unit_area_reduces_to_canonical_pair(self):
        x1, x2 = hall_coordinates(6, theta=1.0)
        assert _max_dev(x1.entries, position_operator(6).entries) == 0.0
        assert _max_dev(x2.entries, momentum_operator(6).entries) == 0.0

    def test_hall_two_by_two_scaling(self):
        x1, _ = hall_coordinates(2, theta=2.0)
        assert _max_dev(x1.entries, np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-15

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_hall_commutator(self, theta):
        n = 7
        x1, x2 = hall_coordinates(n, theta)
        got = commutator(x1, x2).entries
        expected = 1j * theta * (np.eye(n) - n * last_level_projector(n).entries)
        assert _max_dev(got, expected) <= 1e-12

    def test_hall_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            hall_coordinates(4, theta=0.0)


class TestOperatorMatrix:
    def test_json_round_trip(self):
        op = momentum_operator(4)
        again = OperatorMatrix.from_json(op.to_json())
        assert again.dim == 4
        assert _max_dev(again.entries, op.entries) == 0.0

    def test_json_dim_must_match_entries(self):
        data = json.loads(momentum_operator(4).to_json())
        data["dim"] = 5
        with pytest.raises(ValueError, match="dim"):
            OperatorMatrix.from_json(json.dumps(data))

    @pytest.mark.parametrize("entries", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))],
                             ids=["non-square", "1-D", "3-D"])
    def test_rejects_non_square_matrix(self, entries):
        with pytest.raises(ValueError, match="square 2-D"):
            OperatorMatrix(entries)

    def test_csv_interleaves_re_im(self):
        op = momentum_operator(2)
        rows = op.to_csv().strip().splitlines()
        assert len(rows) == 2
        first = [float(v) for v in rows[0].split(",")]
        assert first == pytest.approx([0.0, 0.0, 0.0, -1 / SQRT2])

    def test_entries_are_immutable(self):
        op = position_operator(3)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    @pytest.mark.parametrize("build", [
        lambda: quantize_monomial(1024, 0, 0),
        lambda: quantize(PolynomialSymbol.position(), 1024),
        lambda: position_operator(1024),
        lambda: momentum_operator(1024),
        lambda: hamiltonian(1024),
        lambda: last_level_projector(1024),
    ], ids=["monomial", "quantize", "position", "momentum", "hamiltonian", "projector"])
    def test_constructors_hand_over_their_matrix(self, build):
        # the matrix built for the operator becomes its entries uncopied
        op, peak = _traced_peak(build)
        assert not op.entries.flags.writeable
        assert peak <= 1.25 * op.entries.nbytes, peak / op.entries.nbytes

    def test_hall_coordinates_hold_only_their_two_matrices(self):
        # each matrix is built already scaled, with no unscaled copy beside it
        (x1, x2), peak = _traced_peak(lambda: hall_coordinates(1024, 0.5))
        assert peak <= 2.25 * x1.entries.nbytes, peak / x1.entries.nbytes
        s = math.sqrt(0.5)
        assert np.array_equal(x1.entries, s * position_operator(1024).entries)
        assert np.array_equal(x2.entries, s * momentum_operator(1024).entries)

    def test_commutator_holds_one_product_besides_its_result(self):
        a, b = position_operator(1024), momentum_operator(1024)
        op, peak = _traced_peak(lambda: commutator(a, b))
        assert peak <= 2.25 * op.entries.nbytes, peak / op.entries.nbytes


def _traced_peak(build):
    """``build()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_DIMENSION_TAKERS = {
    "quantize_monomial": lambda n: quantize_monomial(n, 0, 0),
    "quantize": lambda n: quantize(PolynomialSymbol.position(), n),
    "position_operator": position_operator,
    "hamiltonian": hamiltonian,
    "normalization_factor": lambda n: normalization_factor(n, 1.0),
    "exp_partial_sums": lambda n: exp_partial_sums(n, 1.0),
    "log_normalization_factor": lambda n: log_normalization_factor(n, 1.0),
    "corrective_factor": lambda n: corrective_factor(n, 1.0),
    "quadratic_symbols": lambda n: quadratic_symbols(n, PhasePoint(1.0, 0.5)),
    "uncertainty_product": lambda n: uncertainty_product(n, PhasePoint(1.0, 0.5)),
    "symbol_grid": lambda n: symbol_grid(n, "C", (-1.0, 1.0, 3), (-1.0, 1.0, 3)),
    "coherent_state": lambda n: coherent_state(n, PhasePoint(1.0, 0.5)),
    "coherent_state_log": lambda n: coherent_state_log(n, PhasePoint(1.0, 0.5)),
    "verify_identity_resolution": verify_identity_resolution,
    "monomial_state_matrix": lambda n: monomial_state_matrix(n, [0.3 + 0.4j, 2.0]),
    "QuadratureSpec.default_for": QuadratureSpec.default_for,
}


@pytest.mark.parametrize("bad", [True, 4.0, 0, -3, "4", pytest.param(np.True_, id="np.True_")])
@pytest.mark.parametrize("name", sorted(_DIMENSION_TAKERS))
def test_dimensions_are_checked_alike(name, bad):
    # bool and float dimensions raise ValueError, not a numpy TypeError;
    # numpy integers are accepted like Python ints
    call = _DIMENSION_TAKERS[name]
    with pytest.raises(ValueError, match="n_dim"):
        call(bad)
    got, want = call(np.int64(5)), call(5)
    assert type(getattr(got, "dim", 5)) is int
    assert np.array_equal(_payload(got), _payload(want))


def _payload(result) -> np.ndarray:
    for attr in ("entries", "values", "coeffs"):
        if hasattr(result, attr):
            return np.asarray(getattr(result, attr))
    return np.asarray(result)
