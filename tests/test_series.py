import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperdiff.scalars import LogMagnitude, QComplex
from hyperdiff.series import (
    ExponentialCombo,
    PolynomialOperator,
    TaylorPolynomial,
    apply_operator,
    eigen_defect_bound,
    exp_truncate,
    read_coefficients,
    write_operator,
    write_taylor,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def exact_polys(draw, max_len=7):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_len))
    return TaylorPolynomial([QComplex(c) for c in coeffs])


class TestDifferentiate:
    def test_power_rule(self):
        assert TaylorPolynomial.monomial(3).differentiate(1) == TaylorPolynomial.from_pairs([(2, 3)])

    def test_annihilation_of_low_degree(self):
        for k in range(5):
            assert TaylorPolynomial.monomial(k).differentiate(k + 1).is_zero

    def test_exp_truncation_shift(self):
        e3 = TaylorPolynomial([1, 1, Fraction(1, 2), Fraction(1, 6)])
        assert e3.differentiate(2) == TaylorPolynomial([1, 1])

    def test_big_order_no_overflow_in_float_mode(self):
        # falling factorial far beyond 2^53, product still representable
        f = TaylorPolynomial.from_pairs([(250, 1e-300)]).to_float()
        out = f.differentiate(150)
        coeff = out.coefficient(100)
        expected_log = math.log(1e-300) + math.lgamma(251) - math.lgamma(101)
        assert math.log(abs(coeff)) == pytest.approx(expected_log, rel=1e-9)


class TestEquality:
    def test_equal_polynomials_hash_equal(self):
        # the exact and the floating zero compare equal, so a set holds one of them
        assert TaylorPolynomial.zero(True) == TaylorPolynomial.zero(False)
        assert len({TaylorPolynomial.zero(True), TaylorPolynomial.zero(False)}) == 1


class TestApplyOperator:
    def test_single_derivative(self):
        p = PolynomialOperator({1: QComplex(1)})
        assert apply_operator(p, TaylorPolynomial.monomial(4)) == TaylorPolynomial.from_pairs([(3, 4)])

    def test_second_derivative(self):
        p = PolynomialOperator({2: QComplex(1)})
        f = TaylorPolynomial.from_pairs([(3, 1), (1, 1)])
        assert apply_operator(p, f) == TaylorPolynomial.from_pairs([(1, 6)])

    def test_two_term_operator_hand_expansion(self):
        # z^3 (1 + z) acting on z^5: D^3 z^5 + D^4 z^5 = 60 z^2 + 120 z
        p = PolynomialOperator({3: QComplex(1), 4: QComplex(1)})
        got = apply_operator(p, TaylorPolynomial.monomial(5))
        assert got == TaylorPolynomial.from_pairs([(2, 60), (1, 120)])

    @settings(max_examples=60)
    @given(exact_polys(), exact_polys(), rationals, rationals)
    def test_linearity_exact(self, f, g, alpha, beta):
        p = PolynomialOperator({2: QComplex(Fraction(1, 3)), 5: QComplex(-2)})
        lhs = apply_operator(p, f.scale(QComplex(alpha)) + g.scale(QComplex(beta)))
        rhs = apply_operator(p, f).scale(QComplex(alpha)) + apply_operator(p, g).scale(QComplex(beta))
        assert lhs == rhs


class TestOperatorType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PolynomialOperator({0: QComplex(1)})  # constant
        with pytest.raises(ValueError):
            PolynomialOperator({})
        with pytest.raises(ValueError):
            PolynomialOperator({-1: QComplex(1), 2: QComplex(1)})

    def test_valence_degree(self):
        p = PolynomialOperator({2: QComplex(5), 7: QComplex(-1)})
        assert p.valence == 2 and p.degree == 7
        assert p.coefficient(4) == QComplex(0)


class TestApplyToExponential:
    def test_zero_frequency(self):
        p = PolynomialOperator({4: QComplex(1)})
        assert p.value_at(QComplex(0)) == QComplex(0)

    def test_direct_evaluation(self):
        p = PolynomialOperator({2: QComplex(1)})
        assert p.value_at(QComplex(2)) == QComplex(4)

    def test_product_form_evaluation(self):
        # z^3 (z - 1)^3 at w = -2: (-8) * (-27) = 216
        coeffs = {3 + i: QComplex(math.comb(3, i) * (-1) ** (3 - i)) for i in range(4)}
        p = PolynomialOperator(coeffs)
        assert p.value_at(QComplex(-2)) == QComplex(216)


class TestEvaluate:
    def test_square(self):
        assert TaylorPolynomial.monomial(2).evaluate(QComplex(3)) == QComplex(9)

    def test_zero_poly(self):
        assert TaylorPolynomial.zero().evaluate(QComplex(5, -2)) == QComplex(0)

    def test_hand_expansion_at_complex_point(self):
        f = TaylorPolynomial([1, 2, 1])  # (1 + z)^2
        assert f.evaluate(QComplex(1, 1)) == QComplex(3, 4)


class TestMajorant:
    def test_unit_monomial(self):
        assert TaylorPolynomial.monomial(7).majorant_norm(1.0).log == pytest.approx(0.0)

    def test_direct_sum(self):
        got = TaylorPolynomial([1, 1]).majorant_norm(2.0)
        assert got.value() == pytest.approx(3.0)

    def test_exp_partial_sum(self):
        f = TaylorPolynomial([QComplex(Fraction(1, math.factorial(j))) for j in range(11)])
        val = f.majorant_norm(1.0).value()
        assert math.e - 3e-7 <= val <= math.e

    @settings(max_examples=30)
    @given(exact_polys(), st.integers(min_value=0, max_value=99))
    def test_dominates_point_values(self, f, salt):
        # 100 deterministic directions on each of several radii
        r = 2.0
        angle = 2 * math.pi * ((salt * 37) % 100) / 100.0
        z = complex(r * math.cos(angle), r * math.sin(angle)) * ((salt % 4 + 1) / 4.0)
        bound = f.majorant_norm(r)
        val = abs(f.to_float().evaluate(z))
        if val > 0:
            assert math.log(val) <= bound.log + 1e-9

    @settings(max_examples=30)
    @given(exact_polys(), exact_polys())
    def test_subadditive(self, f, g):
        r = 1.5
        lhs = (f + g).majorant_norm(r)
        rhs = f.majorant_norm(r) + g.majorant_norm(r)
        assert lhs.log <= rhs.log + 1e-9

    @settings(max_examples=30)
    @given(exact_polys())
    def test_monotone_in_radius(self, f):
        assert f.majorant_norm(1.0).log <= f.majorant_norm(2.0).log + 1e-12


class TestExpTruncate:
    def test_zero_frequency(self):
        poly, tail = exp_truncate(QComplex(0), 5, 1.0)
        assert poly == TaylorPolynomial([1])
        assert tail.is_zero

    def test_degree_zero_tail_exceeds_remainder(self):
        _, tail = exp_truncate(QComplex(1), 0, 1.0)
        assert tail.value() >= math.e - 1

    def test_deep_truncation_tail_small(self):
        _, tail = exp_truncate(QComplex(1), 20, 1.0)
        assert tail.value() <= 1e-18

    def test_tail_dominates_true_remainder(self):
        w, n, r = QComplex(3), 24, 1.5
        _, tail = exp_truncate(w, n, r)
        x = 3.0 * r
        true_tail = sum(
            math.exp(j * math.log(x) - math.lgamma(j + 1)) for j in range(n + 1, n + 200)
        )
        assert tail.value() >= true_tail


class TestEigenConsistency:
    def _defect_and_bound(self, p, w, n, r):
        trunc, _ = exp_truncate(w, n, r)
        image = apply_operator(p, trunc)
        scaled = trunc.scale(p.value_at(w))
        defect = (image - scaled).majorant_norm(r)
        bound = eigen_defect_bound(p, w, n, r)
        return defect, bound

    def test_defect_below_reported_bound(self):
        p = PolynomialOperator({2: QComplex(1), 3: QComplex(Fraction(-1, 4))})
        for n in (20, 40, 80):
            defect, bound = self._defect_and_bound(p, QComplex(-2), n, 1.0)
            assert defect.log <= bound.log + 1e-9

    def test_bound_decreases_with_truncation_degree(self):
        p = PolynomialOperator({2: QComplex(1), 3: QComplex(Fraction(-1, 4))})
        bounds = [eigen_defect_bound(p, QComplex(-2), n, 1.0).log for n in (20, 40, 80)]
        assert bounds[0] > bounds[1] > bounds[2]


class TestExponentialCombo:
    def test_distinct_frequencies_enforced(self):
        with pytest.raises(ValueError):
            ExponentialCombo([(1.0, 2.0), (3.0, 2.0)])

    def test_truncate_sums_terms(self):
        combo = ExponentialCombo([(QComplex(2), QComplex(1))])
        poly, tail = combo.truncate(10, 1.0)
        base, base_tail = exp_truncate(QComplex(1), 10, 1.0)
        assert poly == base.scale(QComplex(2))
        assert tail.log == pytest.approx(base_tail.log + math.log(2))


class TestCoefficientFiles:
    def test_taylor_round_trip_exact(self):
        f = TaylorPolynomial.from_pairs([(0, Fraction(1, 3)), (4, Fraction(-7, 2))])
        buf = io.StringIO()
        write_taylor(f, buf)
        buf.seek(0)
        assert read_coefficients(buf) == f

    def test_taylor_round_trip_float(self):
        f = TaylorPolynomial([0.1 + 0.25j, 0j, complex(3.0, -1e-17)])
        buf = io.StringIO()
        write_taylor(f, buf)
        buf.seek(0)
        back = read_coefficients(buf)
        assert back.coeffs == f.coeffs

    def test_operator_round_trip(self):
        p = PolynomialOperator({3: QComplex(Fraction(1, 27)), 4: QComplex(1)})
        buf = io.StringIO()
        write_operator(p, buf)
        assert "#operator m=3 d=4" in buf.getvalue()
        buf.seek(0)
        assert read_coefficients(buf) == p

    def test_header_required(self):
        with pytest.raises(ValueError):
            read_coefficients(io.StringIO("0,1,0\n"))

    def test_truncation_degree_preserved(self):
        buf = io.StringIO("#taylor N=9\n2,1/2,0\n")
        f = read_coefficients(buf)
        assert f.truncation == 9 and f.degree == 2

    def test_taylor_round_trip_integers_past_the_str_digit_limit(self):
        # 7^6000 has 5071 digits, past the interpreter's default 4300-digit
        # int/str conversion limit
        big = 7**6000
        f = TaylorPolynomial.from_pairs(
            [(0, QComplex(Fraction(-big, 3), Fraction(1, big + 2))), (5, QComplex(big))]
        )
        buf = io.StringIO()
        write_taylor(f, buf)
        assert max(len(token) for token in buf.getvalue().replace("/", ",").split(",")) > 4300
        buf.seek(0)
        assert read_coefficients(buf) == f
