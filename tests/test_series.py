import io
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperdiff.criterion import _battery
from hyperdiff.families import make_family
from hyperdiff.scalars import NEG_INF, QComplex, exp_log, format_scalar, log_abs, log_sum, to_qcomplex
from hyperdiff.series import (
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
        # a float coefficient times a falling factorial far beyond 2^53: the
        # coefficient enters as its dyadic value and the product is exact
        f = TaylorPolynomial.from_pairs([(250, 1e-300)])
        out = f.differentiate(150)
        coeff = out.coefficient(100)
        assert coeff == QComplex(Fraction(1e-300) * math.perm(250, 150))
        expected_log = math.log(1e-300) + math.lgamma(251) - math.lgamma(101)
        assert log_abs(coeff) == pytest.approx(expected_log, rel=1e-9)


class TestEquality:
    def test_equal_polynomials_hash_equal(self):
        # equality ignores the truncation degree, so a set holds one of each value
        assert TaylorPolynomial.zero() == TaylorPolynomial([0, 0.0])
        assert len({TaylorPolynomial.zero(), TaylorPolynomial([0, 0.0])}) == 1
        assert len({TaylorPolynomial([1, 0.5]), TaylorPolynomial([1, Fraction(1, 2), 0])}) == 1

    def test_a_polynomial_and_an_operator_never_compare_equal(self):
        # one term map serves both kinds, but equality is exact in type
        f = TaylorPolynomial.from_pairs([(1, 2), (3, Fraction(-1, 5))])
        op = PolynomialOperator({1: 2, 3: Fraction(-1, 5)})
        assert list(f.terms()) == list(op.terms())
        assert f != op and op != f
        assert not (f == op) and not (op == f)

    def test_an_operator_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(PolynomialOperator({1: 1, 2: 3}))


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


def _written(f):
    buf = io.StringIO()
    write_taylor(f, buf)
    return buf.getvalue()


def _term_by_term(op, f):
    """P(D) f summed over every term of P, also the terms above N, whose f^(j) is zero."""
    out = TaylorPolynomial.zero()
    for j, c in op.terms():
        out = out + f.differentiate(j).scale(c)
    return out


# the F5 table with interior zero coefficients: P_1 = z - z^4/2, P_2 = z^2 + z^3/3 + 2 z^5
GAPS = [
    PolynomialOperator({1: QComplex(1), 4: QComplex(Fraction(-1, 2))}),
    PolynomialOperator({2: QComplex(1), 3: QComplex(Fraction(1, 3)), 5: QComplex(2)}),
]


class TestApplyOperatorTruncation:
    """Equality ignores N, so each case also compares N and the written #taylor header."""

    def _check(self, op, f):
        got, want = apply_operator(op, f), _term_by_term(op, f)
        assert got == want
        assert got.truncation == want.truncation == (f.truncation - op.valence if op.valence <= f.truncation else -1)
        assert _written(got) == _written(want)

    def test_dense_f3_operators_on_the_criterion_battery(self):
        seq = make_family("F3")
        cases = [(seq.op(n), g) for g in _battery((0, 1, 2, 3, 4, 5), 0) for n in (1, 2, 3, 5, 8)]
        assert sum(op.degree > g.truncation for op, g in cases) > len(cases) // 2  # terms above N
        assert any(op.valence > g.truncation for op, g in cases)  # P(D) g = 0: every term above N
        for op, g in cases:
            self._check(op, g)

    def test_gap_table_with_zero_top_coefficients(self):
        # N above the degree: the cut is at N, not at the last nonzero coefficient
        for coeffs in ([1], [0, 2], [1, 0, 3, 0], [Fraction(1, 2), 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 7]):
            f = TaylorPolynomial([QComplex(c) for c in coeffs])
            for op in GAPS:
                self._check(op, f)

    def test_zero_polynomial(self):
        for op in GAPS:
            got = apply_operator(op, TaylorPolynomial.zero())
            assert got.is_zero and got.truncation == -1


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


class TestDerivativeMajorant:
    def test_valence_shifted_sum(self):
        # P = z^2 H with H = 3 - 2z + z^2: B / r^m = 2 + 2r = 6 bounds |H'| = |2z - 2| on |z| = 2
        op = PolynomialOperator({2: QComplex(3), 3: QComplex(-2), 4: QComplex(1)})
        assert exp_log(op.derivative_majorant(2.0) - 2 * math.log(2.0)) == pytest.approx(6.0)
        # a monomial has constant modulus on circles: its arc correction is zero
        assert PolynomialOperator({5: QComplex(7)}).derivative_majorant(2.0) == NEG_INF


class TestMajorant:
    def test_unit_monomial(self):
        assert TaylorPolynomial.monomial(7).majorant_norm(1.0) == pytest.approx(0.0)

    def test_direct_sum(self):
        got = TaylorPolynomial([1, 1]).majorant_norm(2.0)
        assert exp_log(got) == pytest.approx(3.0)

    def test_exp_partial_sum(self):
        f = TaylorPolynomial([QComplex(Fraction(1, math.factorial(j))) for j in range(11)])
        val = exp_log(f.majorant_norm(1.0))
        assert math.e - 3e-7 <= val <= math.e

    @settings(max_examples=30)
    @given(exact_polys(), st.integers(min_value=0, max_value=99))
    def test_dominates_point_values(self, f, salt):
        # 100 deterministic directions on each of several radii
        r = 2.0
        angle = 2 * math.pi * ((salt * 37) % 100) / 100.0
        z = complex(r * math.cos(angle), r * math.sin(angle)) * ((salt % 4 + 1) / 4.0)
        bound = f.majorant_norm(r)
        val = abs(f.evaluate(z))
        if val > 0:
            assert math.log(val) <= bound + 1e-9

    @settings(max_examples=30)
    @given(exact_polys(), exact_polys())
    def test_subadditive(self, f, g):
        r = 1.5
        lhs = (f + g).majorant_norm(r)
        rhs = log_sum((f.majorant_norm(r), g.majorant_norm(r)))
        assert lhs <= rhs + 1e-9

    @settings(max_examples=30)
    @given(exact_polys())
    def test_monotone_in_radius(self, f):
        assert f.majorant_norm(1.0) <= f.majorant_norm(2.0) + 1e-12


class TestExpTruncate:
    def test_zero_frequency(self):
        poly, tail = exp_truncate(QComplex(0), 5, 1.0)
        assert poly == TaylorPolynomial([1])
        assert tail == NEG_INF

    def test_degree_zero_tail_exceeds_remainder(self):
        _, tail = exp_truncate(QComplex(1), 0, 1.0)
        assert exp_log(tail) >= math.e - 1

    def test_deep_truncation_tail_small(self):
        _, tail = exp_truncate(QComplex(1), 20, 1.0)
        assert exp_log(tail) <= 1e-18

    def test_tail_dominates_true_remainder(self):
        w, n, r = QComplex(3), 24, 1.5
        _, tail = exp_truncate(w, n, r)
        x = 3.0 * r
        true_tail = sum(
            math.exp(j * math.log(x) - math.lgamma(j + 1)) for j in range(n + 1, n + 200)
        )
        assert exp_log(tail) >= true_tail


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
            assert defect <= bound + 1e-9

    def test_bound_decreases_with_truncation_degree(self):
        p = PolynomialOperator({2: QComplex(1), 3: QComplex(Fraction(-1, 4))})
        bounds = [eigen_defect_bound(p, QComplex(-2), n, 1.0) for n in (20, 40, 80)]
        assert bounds[0] > bounds[1] > bounds[2]


class Dense:
    """Reference model: a coefficient in every slot 0..N, zero in the gaps."""

    def __init__(self, cs):
        self.cs = [to_qcomplex(c) for c in cs]

    def add(self, other):
        a, b = (self, other) if len(self.cs) >= len(other.cs) else (other, self)
        out = list(a.cs)
        for j, c in enumerate(b.cs):
            out[j] = out[j] + c
        return Dense(out)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, f):
        return Dense([c * to_qcomplex(f) for c in self.cs])

    def differentiate(self, k):
        return Dense([self.cs[i + k] * math.perm(i + k, k) for i in range(max(len(self.cs) - k, 0))])

    def evaluate(self, z):
        x, acc = to_qcomplex(z), QComplex(0)
        for c in reversed(self.cs):
            acc = acc * x + c
        return acc

    def majorant(self, r):
        return log_sum(log_abs(c) + j * math.log(r) for j, c in enumerate(self.cs) if c)


float_parts = st.sampled_from([0.0, -0.0, 1.5, -2.25, 0.1, 7.0, 1e-300, -3e-200])
float_scalars = st.builds(complex, float_parts, float_parts)
exact_scalars = st.builds(QComplex, rationals, rationals) | st.just(QComplex(0))
# a float coefficient enters as its exact dyadic value, so lists may mix the two
dense_lists = st.lists(exact_scalars | float_scalars, max_size=6)


class TestDenseReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(dense_lists, dense_lists, exact_scalars | float_scalars, st.integers(0, 4),
           exact_scalars | float_scalars)
    def test_operations_match_the_model_bit_for_bit(self, a, b, factor, order, z):
        p, q, mp, mq = TaylorPolynomial(a), TaylorPolynomial(b), Dense(a), Dense(b)
        cases = [
            (p + q, mp.add(mq)),
            (p - q, mp.sub(mq)),
            (p - p, mp.sub(mp)),
            ((p + q) - q, mp.add(mq).sub(mq)),
            (p.scale(factor), mp.scale(factor)),
            (p.differentiate(order), mp.differentiate(order)),
        ]
        for poly, model in cases:
            assert poly.truncation == len(model.cs) - 1
            assert [(j, format_scalar(c)) for j, c in poly.terms()] == [
                (j, format_scalar(c)) for j, c in enumerate(model.cs) if c
            ]
            assert format_scalar(poly.evaluate(z)) == format_scalar(model.evaluate(z))
            assert repr(poly.majorant_norm(2.0)) == repr(model.majorant(2.0))


class DenseOperator:
    """Reference model: the dense row c_m..c_d, zero in the gaps."""

    def __init__(self, coeffs_by_degree):
        items = [(j, to_qcomplex(c)) for j, c in sorted(dict(coeffs_by_degree).items())]
        items = [(j, c) for j, c in items if c]
        if not items or items[0][0] < 0 or items[-1][0] < 1:
            raise ValueError("not a nonconstant operator")
        self.valence, self.degree = items[0][0], items[-1][0]
        self.row = [QComplex(0)] * (self.degree - self.valence + 1)
        for j, c in items:
            self.row[j - self.valence] = c

    def __eq__(self, other):
        return (self.valence, self.row) == (other.valence, other.row)

    def coefficient(self, j):
        if self.valence <= j <= self.degree:
            return self.row[j - self.valence]
        return QComplex(0)

    def terms(self):
        return [(self.valence + i, c) for i, c in enumerate(self.row) if c]

    def to_float(self):
        return [complex(c) for c in reversed(self.row)]

    def value_at(self, w):
        x, acc = to_qcomplex(w), QComplex(0)
        for c in reversed(self.row):
            acc = acc * x + c
        return acc * x**self.valence

    def written(self):
        rows = [f"{j},{format_scalar(c)}\n" for j, c in self.terms()]
        return f"#operator m={self.valence} d={self.degree}\n" + "".join(rows)


def _same_operator(op, model):
    assert (op.valence, op.degree) == (model.valence, model.degree)
    assert [(j, format_scalar(c)) for j, c in op.terms()] == [
        (j, format_scalar(c)) for j, c in model.terms()
    ]
    for j in range(-1, model.degree + 2):
        assert format_scalar(op.coefficient(j)) == format_scalar(model.coefficient(j))


op_scalars = exact_scalars | float_scalars | st.sampled_from([0, 0.0, -0.0, 3, Fraction(-1, 3)])
op_inputs = st.dictionaries(st.integers(0, 6), op_scalars, min_size=1, max_size=5)


class TestDenseOperatorModel:
    @settings(max_examples=200, deadline=None)
    @given(op_inputs, op_inputs, exact_scalars | float_parts | float_scalars)
    @example({0: 0.0, 3: QComplex(1)}, {1: -0.0, 2: complex(-0.0, 1.5)}, 0.1)
    def test_operator_matches_the_model_bit_for_bit(self, raw, raw_other, w):
        def built(cls, coeffs):
            try:
                return cls(coeffs)
            except ValueError:
                return None

        model, model_other = built(DenseOperator, raw), built(DenseOperator, raw_other)
        op, other = built(PolynomialOperator, raw), built(PolynomialOperator, raw_other)
        assert (op is None, other is None) == (model is None, model_other is None)
        if model is None or model_other is None:
            return
        from_pairs = PolynomialOperator(list(reversed(list(raw.items()))))
        for got in (op, from_pairs):
            _same_operator(got, model)
        assert from_pairs == op
        assert (op == other) == (model == model_other)
        assert op.to_float() == model.to_float()
        buf = io.StringIO()
        write_operator(op, buf)
        assert buf.getvalue() == model.written()
        buf.seek(0)
        back = read_coefficients(buf)
        assert back == op
        _same_operator(back, model)
        assert format_scalar(op.value_at(w)) == format_scalar(model.value_at(w))

    def test_zero_float_coefficient_leaves_the_operator_exact(self):
        op = PolynomialOperator({0: 0.0, 3: QComplex(1)})
        assert (op.valence, op.degree) == (3, 3)
        # a nonzero float coefficient is kept as its exact dyadic value
        op = PolynomialOperator({1: 0.1, 3: QComplex(1)})
        assert op.coefficient(1) == QComplex(Fraction(0.1)) and op.coefficient(3) == QComplex(1)


tall_rationals = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))
tall_scalars = st.builds(QComplex, tall_rationals, tall_rationals.filter(bool))
exact_points = (
    st.just(QComplex(0))
    | st.builds(QComplex, tall_rationals | rationals)
    | st.builds(QComplex, st.just(0), tall_rationals | rationals)
    | st.builds(QComplex, tall_rationals | rationals, tall_rationals | rationals)
)


@st.composite
def tall_exact_operators(draw):
    """({j: c_j}, None) with valence m, degree d <= 40, gaps, and rational parts of height up
    to 2^64; or, with a drawn point rho, (z - rho) times such a polynomial, and rho."""
    with_root = draw(st.booleans())
    m = draw(st.integers(0, 20))
    d = draw(st.integers(max(m, 1), 40 - with_root))
    raw = draw(st.dictionaries(st.integers(m, d), tall_scalars | st.just(QComplex(0)), max_size=6))
    raw.update({m: draw(tall_scalars), d: draw(tall_scalars)})
    if not with_root:
        return raw, None
    rho, q = draw(exact_points), [raw.get(j, QComplex(0)) for j in range(m, d + 1)]
    row = [a - rho * b for a, b in zip([QComplex(0)] + q, q + [QComplex(0)])]
    return {m + i: c for i, c in enumerate(row)}, rho


@st.composite
def unreduced_triples(draw):
    """{j: (x, y, b)}, c_j = (x + iy)/b, in increasing j, valence m, degree d <= 40, gaps, parts of height up
    to 2^64, every triple scaled by one drawn common factor, so no triple is in lowest terms past k = 1. A real
    operator has y = 0 throughout; a complex one mixes real, imaginary and complex terms."""
    m = draw(st.integers(0, 20))
    d = draw(st.integers(max(m, 1), 40))
    js = sorted({m, d, *draw(st.lists(st.integers(m, d), max_size=6))})
    k, parts = draw(st.integers(1, 2**70)), st.integers(-(2**64), 2**64)
    pair = st.tuples(parts, parts if draw(st.booleans()) else st.just(0)).filter(any)
    return {j: (x * k, y * k, draw(st.integers(1, 2**64)) * k) for j, (x, y) in ((j, draw(pair)) for j in js)}


def _value(x, y, b):
    return QComplex(Fraction(x, b), Fraction(y, b))


class TestExactValueAt:
    @settings(max_examples=150, deadline=None)
    @given(tall_exact_operators(), st.lists(exact_points, min_size=3, max_size=4))
    def test_integer_pass_equals_the_model_horner(self, drawn, ws):
        # DenseOperator.value_at is the QComplex Horner that reduces a Fraction at every step. Each
        # operator evaluates every point in a row from its one integer form: `cold` before any
        # read of its terms, `warm` after one
        raw, rho = drawn
        model, points = DenseOperator(raw), ws if rho is None else [*ws, rho]
        cold, warm = PolynomialOperator(raw), PolynomialOperator(raw)
        poly = TaylorPolynomial.from_pairs(list(warm.terms()))
        for z in points:
            want = model.value_at(z)
            assert cold.value_at(z) == want and warm.value_at(z) == want and poly.evaluate(z) == want
        assert cold == warm and list(cold.terms()) == model.terms()
        if rho is not None:
            assert cold.value_at(rho) == QComplex(0)

    @settings(max_examples=100, deadline=None)
    @given(unreduced_triples(), st.lists(exact_points, min_size=3, max_size=4))
    def test_unreduced_triples_read_as_their_values(self, triples, ws):
        # an operator built from unreduced triples has the terms, file and values of its reduced
        # coefficients, whether its samples come before the first read of its terms or after
        model = DenseOperator({j: _value(*t) for j, t in triples.items()})
        cold, warm = PolynomialOperator._raw(None, triples), PolynomialOperator._raw(None, dict(triples))
        assert (cold.valence, cold.degree) == (model.valence, model.degree)
        assert list(warm.terms()) == model.terms()
        for z in ws:
            want = model.value_at(z)
            assert cold.value_at(z) == want and warm.value_at(z) == want
        assert list(cold.terms()) == model.terms() and cold == warm == PolynomialOperator(dict(model.terms()))
        buf = io.StringIO()
        write_operator(cold, buf)
        assert buf.getvalue() == model.written()


@st.composite
def held_and_reduced(draw):
    """(held, reduced, model): one polynomial of truncation N <= 12 twice, and its Dense model. It is held as
    triples scaled by a drawn common factor, and reduced first in its twin. A real one has y = 0 throughout; a
    complex one mixes real, imaginary and complex terms."""
    n = draw(st.integers(-1, 12))
    js = sorted(set(draw(st.lists(st.integers(0, n), max_size=6)))) if n >= 0 else []
    k, parts, dens = draw(st.integers(1, 2**40)), st.integers(-(2**20), 2**20), st.integers(1, 2**20)
    pair = st.tuples(parts, parts if draw(st.booleans()) else st.just(0)).filter(any)
    return _held_twins(n, {j: (x * k, y * k, draw(dens) * k) for j, (x, y) in ((j, draw(pair)) for j in js)})


def _held_twins(n, triples):
    """A polynomial of truncation n held as the triples, its twin reduced first, and its Dense model."""
    held, reduced = TaylorPolynomial._raw(None, n, triples), TaylorPolynomial._raw(None, n, dict(triples))
    reduced.terms()
    return held, reduced, Dense([_value(*triples[j]) if j in triples else 0 for j in range(n + 1)])


def _model_apply(op, model):
    out = Dense([])
    for j, c in op.terms():
        out = out.add(model.differentiate(j).scale(c))
    return out


# an F5 table with complex coefficients: P_1 = (1/2 + i/3) z - (2 - i) z^3, P_2 = i z^2 + 3/7 z^3 + (1 - i/9) z^5
COMPLEX = [
    PolynomialOperator({1: QComplex(Fraction(1, 2), Fraction(1, 3)), 3: QComplex(-2, 1)}),
    PolynomialOperator({2: QComplex(0, 1), 3: Fraction(3, 7), 5: QComplex(1, Fraction(-1, 9))}),
]
HELD_OPERATORS = [make_family("F4").op(n) for n in (1, 3)] + [make_family("F3").op(n) for n in (1, 2, 3)]
HELD_OPERATORS += GAPS + COMPLEX


class TestHeldTriples:
    """Real and complex polynomials stay unreduced Gaussian-integer triples through differentiate, scale, + and -
    (so through apply_operator), reduced only at a degree where two terms meet. Each result from the held operands
    must equal the one from operands reduced first, and the Dense model, in terms, N, file and norm to the bit."""

    @staticmethod
    def _check(got, also, model):
        for held in (got._triples, also._triples):  # no empty map, no (0, 0, b) entry, no denominator b <= 0
            assert held is None or held and all((x or y) and b > 0 for x, y, b in held.values())
        norm = repr(got.majorant_norm(3.0))  # read from the triples as held
        assert norm == repr(also.majorant_norm(3.0)) == repr(model.majorant(3.0))
        assert got.truncation == also.truncation == len(model.cs) - 1
        want = [(j, format_scalar(c)) for j, c in enumerate(model.cs) if c]
        assert [(j, format_scalar(c)) for j, c in got.terms()] == want == [
            (j, format_scalar(c)) for j, c in also.terms()]
        assert _written(got) == _written(also)

    @settings(max_examples=150, deadline=None)
    @given(held_and_reduced(), held_and_reduced(), st.integers(0, 4),
           st.sampled_from([0, 1, -1, Fraction(-7, 3), QComplex(Fraction(1, 2), -2), QComplex(0, Fraction(2, 3))]),
           st.sampled_from(HELD_OPERATORS))
    # the sum cancels at z^1, a degree both hold, and keeps z^2 and z^3, which one side holds
    @example(_held_twins(3, {1: (6, 0, 4), 3: (-3, 0, 9)}), _held_twins(3, {1: (-3, 0, 2), 2: (2, 0, 2)}), 1, -1,
             GAPS[0])
    # a real term and a complex term meet at z^1
    @example(_held_twins(2, {1: (6, 0, 4), 2: (1, 0, 3)}), _held_twins(2, {1: (3, -2, 6)}), 1, QComplex(1, -2),
             COMPLEX[0])
    # 1/3 + 2i/3 and 1/3 - 2i/3 meet at z^1: the sum's imaginary parts cancel there, and the difference's real parts
    @example(_held_twins(2, {1: (2, 4, 6), 2: (0, 5, 10)}), _held_twins(1, {1: (3, -6, 9)}), 2,
             QComplex(0, Fraction(2, 3)), COMPLEX[1])
    def test_held_triples_read_as_the_reduced_terms(self, p, q, order, factor, op):
        (hp, rp, mp), (hq, rq, mq) = p, q
        cases = [
            (lambda a, b: a.differentiate(order), mp.differentiate(order)),
            (lambda a, b: a.scale(factor), mp.scale(factor)),
            (lambda a, b: a + b, mp.add(mq)),
            (lambda a, b: a - b, mp.sub(mq)),
            (lambda a, b: a - a, mp.sub(mp)),
            (lambda a, b: (a + b) - b, mp.add(mq).sub(mq)),
            (lambda a, b: apply_operator(op, a), _model_apply(op, mp)),
            (lambda a, b: apply_operator(op, a) - b, _model_apply(op, mp).sub(mq)),
        ]
        for run, model in cases:
            self._check(run(hp, hq), run(rp, rq), model)


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
        assert list(back.terms()) == list(f.terms())
        assert back.truncation == f.truncation

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

    @pytest.mark.parametrize(
        "text",
        [
            "#operator m=7 d=9\n3,1,0\n4,2,0\n",  # the body has m=3 d=4
            "#operator m=3 d=9\n3,1,0\n4,2,0\n",
            "#operator m=3\n3,1,0\n4,2,0\n",
            "#operator m=3 d=four\n3,1,0\n4,2,0\n",
            "#operator\n3,1,0\n4,2,0\n",
            "#taylor\n0,1,0\n",
            "#taylor M=2\n0,1,0\n",
            "#taylor N=3\n0,1,0\n#taylor N=3\n1,5,0\n",  # two blocks are not one polynomial
            "0,1,0\n#taylor N=3\n1,5,0\n",  # a data line before its header
        ],
    )
    def test_header_must_state_the_body(self, text):
        with pytest.raises(ValueError):
            read_coefficients(io.StringIO(text))

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
