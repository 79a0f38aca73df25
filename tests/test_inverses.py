import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperdiff.errors import PreconditionError
from hyperdiff.families import make_family
from hyperdiff.inverses import (
    build_f_nk,
    fnk_decay,
    fnk_norm_log,
    inverse_for_polynomial,
    solve_monic_system,
    stirling_threshold_ok,
    write_right_inverse,
)
from hyperdiff.scalars import NEG_INF, QComplex, divide_by_int, log_abs, log_sum
from hyperdiff.series import (
    PolynomialOperator,
    TaylorPolynomial,
    apply_operator,
    read_coefficients,
    write_taylor,
)
from oracles import cramer_with_cofactors


def random_exact(rng, span=9):
    re = Fraction(rng.randint(-span, span), rng.randint(1, span))
    im = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return QComplex(re, im)


def _shifted(op):
    """a_j = c_{j+m} for j = 0..d-m."""
    return tuple(op.coefficient(j) for j in range(op.valence, op.degree + 1))


class TestShiftedCoeffs:
    def test_monomial(self):
        assert _shifted(PolynomialOperator({5: QComplex(1)})) == (QComplex(1),)

    def test_f1_at_3(self):
        got = _shifted(make_family("F1").op(3))
        assert got == (QComplex(Fraction(1, 27)), QComplex(1))

    def test_f3_at_1(self):
        got = _shifted(make_family("F3").op(1))
        assert got == (QComplex(-1), QComplex(1))


class TestSolveMonicSystem:
    def test_pure_monomial(self):
        assert solve_monic_system([QComplex(1)], 3) == (
            QComplex(0),
            QComplex(0),
            QComplex(0),
            QComplex(1),
        )

    def test_shifted_pair(self):
        # g = z - 1 satisfies g + g' = z
        assert solve_monic_system([QComplex(1), QComplex(1)], 1) == (QComplex(-1), QComplex(1))

    def test_scaling(self):
        assert solve_monic_system([QComplex(2)], 0) == (QComplex(Fraction(1, 2)),)

    def test_zero_leading_rejected(self):
        with pytest.raises(PreconditionError):
            solve_monic_system([QComplex(0), QComplex(1)], 1)

    def test_solution_solves_the_system(self):
        rng = random.Random(5)
        for _ in range(40):
            k = rng.randint(0, 6)
            a = [random_exact(rng) for _ in range(k + 1)]
            if not a[0]:
                a[0] = QComplex(1)
            b = solve_monic_system(a, k)

            def coeff(i):
                return a[i] if i < len(a) else QComplex(0)

            assert a[0] * b[k] == QComplex(1)
            for s in range(k):
                acc = QComplex(0)
                for j in range(s, k + 1):
                    acc = acc + coeff(j - s) * b[j] * (
                        math.factorial(j) // math.factorial(s)
                    )
                assert acc == QComplex(0), s

    def test_survives_tiny_leading_coefficient(self):
        # b_3 = 1/a_0 ~ e^299 and b_0 ~ e^1197 would leave the double range; the float
        # coefficients enter as their exact dyadic values and the solve stays exact
        a = [1e-130, 1.0]
        b = solve_monic_system(a, 3)
        assert b[3] == QComplex(1 / Fraction(1e-130))
        assert log_abs(b[3]) == pytest.approx(-math.log(1e-130), rel=1e-12)
        assert log_abs(b[0]) == pytest.approx(-4 * math.log(1e-130) + math.log(6), rel=1e-12)

    def test_triangularity(self):
        # b_s depends only on a_0..a_{k-s}
        rng = random.Random(11)
        k = 4
        base = [random_exact(rng) for _ in range(k + 1)]
        if not base[0]:
            base[0] = QComplex(1)
        b0 = solve_monic_system(base, k)
        for j in range(1, k + 1):
            mod = list(base)
            mod[j] = mod[j] + QComplex(13)
            b1 = solve_monic_system(mod, k)
            for s in range(k + 1):
                if j > k - s:
                    assert b0[s] == b1[s], (j, s)


class TestCramerCrossCheck:
    def test_matches_spec_examples(self):
        assert cramer_with_cofactors([QComplex(1), QComplex(1)], 1)[0] == (QComplex(-1), QComplex(1))
        assert cramer_with_cofactors([QComplex(1)], 2)[0] == (QComplex(0), QComplex(0), QComplex(1))
        a = [QComplex(1), QComplex(0), QComplex(1)]
        assert cramer_with_cofactors(a, 2)[0] == solve_monic_system(a, 2)

    def test_dual_route_randomized(self):
        rng = random.Random(42)
        for _ in range(60):
            k = rng.randint(0, 6)
            a = [random_exact(rng) for _ in range(k + 1)]
            if not a[0]:
                a[0] = QComplex(1)
            assert cramer_with_cofactors(a, k)[0] == solve_monic_system(a, k)

    def test_size_cap(self):
        with pytest.raises(PreconditionError):
            cramer_with_cofactors([QComplex(1)] * 10, 9)

    def test_float_rejected(self):
        # the oracle is exact only: QComplex refuses a bare float
        with pytest.raises(TypeError):
            cramer_with_cofactors([1.0, 2.0], 1)

    def test_coefficient_bound_with_instance_constant(self):
        # |b_s| <= sum over j of C / |a_0|^(k+1-j), with the j = 0 cofactor
        # included (the k+1 exponent term carries the dominant contribution)
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randint(1, 6)
            a = [random_exact(rng) for _ in range(k + 1)]
            if not a[0]:
                a[0] = QComplex(1)
            b, table = cramer_with_cofactors(a, k)
            c_log = max(log_abs(v) for row in table.phi for v in row)  # C = max |Phi_{j,s,k}|
            inv_a0 = -log_abs(a[0])
            for s, bs in enumerate(b):
                rhs = log_sum(c_log + (k + 1 - j) * inv_a0 for j in range(0, k + 1))
                assert log_abs(bs) <= rhs + 1e-9


class TestBuildF:
    def test_pure_integration(self):
        inv = build_f_nk(PolynomialOperator({4: QComplex(1)}), 0)
        assert inv.f == TaylorPolynomial.from_pairs([(4, Fraction(1, 24))])
        assert apply_operator(inv.operator, inv.f) == TaylorPolynomial([1])

    def test_scaled_monomial(self):
        inv = build_f_nk(PolynomialOperator({5: QComplex(2)}), 0)
        assert inv.f == TaylorPolynomial.from_pairs([(5, Fraction(1, 240))])

    def test_two_term_operator(self):
        p = PolynomialOperator({3: QComplex(1), 4: QComplex(1)})
        inv = build_f_nk(p, 1)
        assert apply_operator(p, inv.f) == TaylorPolynomial.monomial(1)

    def test_exact_identity_battery(self):
        rng = random.Random(99)
        for _ in range(200):
            k = rng.randint(0, 6)
            m = rng.randint(1, 12)
            spread = rng.randint(0, 3)
            coeffs = {}
            for j in range(m, m + spread + 1):
                coeffs[j] = random_exact(rng, span=6)
            coeffs[m] = coeffs[m] if coeffs[m] else QComplex(1)
            top = m + spread
            coeffs[top] = coeffs[top] if coeffs[top] else QComplex(1)
            p = PolynomialOperator(coeffs)
            inv = build_f_nk(p, k)  # verification on construction
            assert apply_operator(p, inv.f) == TaylorPolynomial.monomial(k, QComplex(1))
            assert set(inv.f.support()) <= set(range(p.valence, k + p.valence + 1))

    def test_inverse_for_polynomial(self):
        p = PolynomialOperator({3: QComplex(1)})
        y = TaylorPolynomial([1, 1])
        h = inverse_for_polynomial(p, y)
        assert h == TaylorPolynomial.from_pairs([(3, Fraction(1, 6)), (4, Fraction(1, 24))])
        assert apply_operator(p, h) == y
        assert inverse_for_polynomial(p, TaylorPolynomial.zero()).is_zero
        assert inverse_for_polynomial(p, TaylorPolynomial.monomial(2)) == build_f_nk(p, 2).f

    @pytest.mark.parametrize("family, ns", [("F4", (1, 2, 6, 11)), ("F3", (1, 2, 4)), ("F5", (1, 2))])
    def test_truncation_is_k_plus_valence(self, family, ns):
        # N = k + m, and the terms are b_s / ((s+1)...(s+m)) at s + m, as summed term by term
        gaps = [
            PolynomialOperator({1: QComplex(1), 4: QComplex(Fraction(-1, 2))}),
            PolynomialOperator({2: QComplex(1), 3: QComplex(Fraction(1, 3)), 5: QComplex(2)}),
        ]
        seq = make_family(family, {"ops": gaps} if family == "F5" else {})
        for n in ns:
            op = seq.op(n)
            m = op.valence
            for k in range(5):
                inv = build_f_nk(op, k)
                b = solve_monic_system(_shifted(op)[: k + 1], k)
                pairs = [(s + m, b_s * QComplex(Fraction(math.factorial(s), math.factorial(s + m))))
                         for s, b_s in enumerate(b)]
                assert inv.f == TaylorPolynomial.from_pairs(pairs)
                assert inv.f.truncation == k + m
                buf = io.StringIO()
                write_right_inverse(inv, buf)
                assert buf.getvalue().splitlines()[1] == f"#taylor N={k + m}"
                assert apply_operator(op, inv.f).truncation == k

    def test_inverse_for_polynomial_truncation(self):
        p = PolynomialOperator({2: QComplex(1), 3: QComplex(Fraction(1, 3)), 5: QComplex(2)})
        for y in (TaylorPolynomial([1, 0, 3]), TaylorPolynomial([0, 0, 0, 2]), TaylorPolynomial([5])):
            assert inverse_for_polynomial(p, y).truncation == y.degree + p.valence
        assert inverse_for_polynomial(p, TaylorPolynomial.zero()).truncation == -1

    def test_serialization_round_trip(self):
        inv = build_f_nk(make_family("F4").op(6), 2)
        buf = io.StringIO()
        write_right_inverse(inv, buf, n=6)
        text = buf.getvalue()
        assert "route=polynomial" in text and "n=6" in text
        buf.seek(0)
        assert read_coefficients(buf) == inv.f


_REAL_TABLE = [
    PolynomialOperator({1: QComplex(Fraction(3, 7)), 4: QComplex(Fraction(-1, 2))}),
    PolynomialOperator({2: QComplex(Fraction(-5, 9)), 3: QComplex(Fraction(1, 3)), 5: QComplex(2)}),
]
_COMPLEX_TABLE = [
    PolynomialOperator({1: QComplex(Fraction(1, 2), Fraction(3, 4)), 3: QComplex(1)}),
    PolynomialOperator({2: QComplex(Fraction(-2, 3)), 3: QComplex(0, Fraction(1, 5)), 4: QComplex(3)}),
]
_CORRECTION_CASES = [
    ("F1", {}, (1, 2, 5, 12)), ("F2", {}, (1, 3, 9)), ("F3", {}, (1, 2, 4)), ("F4", {}, (1, 3, 7)),
    ("F4", {"c": "-7/2"}, (2, 5)), ("F5", {"ops": _REAL_TABLE}, (1, 2)), ("F5", {"ops": _COMPLEX_TABLE}, (1, 2)),
]


# evaluation points: zero, real, and complex with an imaginary part
_POINTS = [QComplex(0), QComplex(-2), QComplex(Fraction(1, 3)), QComplex(Fraction(-5, 7), Fraction(2, 9))]


def _eager_f(op, k):
    """f_{n,k} with every coefficient divided out at once, as terms."""
    m = op.valence
    b = solve_monic_system(_shifted(op)[: k + 1], k)
    terms = {s + m: divide_by_int(b_s, math.perm(s + m, m)) for s, b_s in enumerate(b) if b_s}
    return TaylorPolynomial._raw(terms, k + m)


def _written(f):
    buf = io.StringIO()
    write_taylor(f, buf)
    return buf.getvalue()


class TestUnreducedCorrections:
    """build_f_nk hands real corrections over as unreduced pairs; every read matches the eager model."""

    @pytest.mark.parametrize("family, params, ns", _CORRECTION_CASES)
    def test_reads_match_the_eager_model_in_both_orders(self, family, params, ns):
        seq = make_family(family, params)
        for n in ns:
            op = seq.op(n)
            for k in range(4):
                model = _eager_f(op, k)
                lazy_first = build_f_nk(op, k, verify=False).f
                read_first = build_f_nk(op, k, verify=False).f
                # lazy reads first, then the reducing ones
                assert (lazy_first.degree, lazy_first.is_zero, lazy_first.support(), lazy_first.truncation) == (
                    model.degree, model.is_zero, model.support(), model.truncation)
                assert lazy_first.majorant_norm(2.0) == model.majorant_norm(2.0)
                assert [lazy_first.evaluate(z) for z in _POINTS] == [model.evaluate(z) for z in _POINTS]
                assert [lazy_first.coefficient(j) for j in range(-1, k + op.valence + 2)] == [
                    model.coefficient(j) for j in range(-1, k + op.valence + 2)]
                assert list(lazy_first.terms()) == list(model.terms())
                assert lazy_first == model and model == lazy_first and hash(lazy_first) == hash(model)
                assert _written(lazy_first) == _written(model)
                # the reducing reads first, then the lazy ones
                assert _written(read_first) == _written(model) and hash(read_first) == hash(model)
                assert read_first == model and list(read_first.terms()) == list(model.terms())
                assert read_first.coefficient(k + op.valence) == model.coefficient(k + op.valence)
                assert (read_first.degree, read_first.support()) == (model.degree, model.support())
                assert read_first.majorant_norm(2.0) == model.majorant_norm(2.0)

    @pytest.mark.parametrize("family, params, ns", _CORRECTION_CASES)
    def test_majorant_norm_is_the_same_before_and_after_a_read(self, family, params, ns):
        seq = make_family(family, params)
        for n in ns:
            for k in (0, 3):
                f = build_f_nk(seq.op(n), k, verify=False).f
                before = [f.majorant_norm(r) for r in (0.5, 1.0, 3.0, 1e300)]
                list(f.terms())
                assert [f.majorant_norm(r) for r in (0.5, 1.0, 3.0, 1e300)] == before

    def test_the_pairs_are_held_until_a_coefficient_is_read(self):
        op = make_family("F1").op(40)
        f = build_f_nk(op, 2, verify=False).f
        f.majorant_norm(2.0), f.degree, f.support(), f.scale(Fraction(-3, 5)), f.evaluate(QComplex(-2))
        assert f._terms is None  # no lazy read reduced it
        f.coefficient(40)
        assert f._pairs is None and f._terms is not None  # the first read dropped the pairs
        complex_f = build_f_nk(_COMPLEX_TABLE[0], 2, verify=False).f
        assert complex_f._pairs is None  # complex b_s are divided out at once

    @pytest.mark.parametrize(
        "factor", [Fraction(-3, 7), 5, 0.75, QComplex(1, -2), QComplex(0, Fraction(1, 3)), 0, QComplex(0)]
    )
    @pytest.mark.parametrize("family, params, ns", _CORRECTION_CASES[::2])
    def test_scale(self, factor, family, params, ns):
        op = make_family(family, params).op(ns[-1])
        for k in (0, 2):
            model = _eager_f(op, k).scale(factor)
            got = build_f_nk(op, k, verify=False).f.scale(factor)
            assert (got.degree, got.is_zero, got.support(), got.truncation) == (
                model.degree, model.is_zero, model.support(), model.truncation)
            assert got.majorant_norm(2.0) == model.majorant_norm(2.0)
            assert got == model and list(got.terms()) == list(model.terms()) and _written(got) == _written(model)


class TestFnkDecay:
    def test_f4_closed_form_norms(self):
        rep = fnk_decay(make_family("F4"), 0, 2.0, (1, 30))
        for row, n in zip(rep.rows, range(1, 31)):
            assert row.norm == pytest.approx(
                n * math.log(2) - math.lgamma(n + 1), rel=1e-9
            )
        assert rep.verdict == "supports"

    def test_f2_float_route_thresholds_and_decay(self):
        # F2's paper coefficients: doubles up to n = 709, the same mantissas below
        seq = make_family("F2")
        rep = fnk_decay(seq, 1, 2.0, (2, 200))
        assert rep.verdict == "supports"
        assert rep.crossing is not None
        # threshold marker flips on and stays on
        flags = [row.stirling_ok for row in rep.rows]
        first = flags.index(True)
        assert all(flags[first:])

    def test_norm_nonnegative_any_single_n(self):
        seq = make_family("F1")
        mag = fnk_norm_log(seq, 7, 3, 2.0)
        assert mag != NEG_INF

    def test_requires_r_above_one(self):
        with pytest.raises(PreconditionError):
            fnk_decay(make_family("F4"), 0, 1.0, (1, 10))

    def test_tiny_leading_coefficient_table_is_exact(self):
        # P_m = 1e-130 z^m + z^(m+1): a float solve leaves the double range at b_0 (1e130 * 6e260);
        # the exact solve does not, so every norm of the sweep is finite
        table = [PolynomialOperator({m: 1e-130, m + 1: 1.0}) for m in range(1, 9)]
        rep = fnk_decay(make_family("F5", {"ops": table}), 3, 2.0, (2, 8))
        assert all(math.isfinite(row.norm) for row in rep.rows)
        inv = build_f_nk(table[1], 3)  # verified with rational equality on construction
        assert rep.rows[0].norm == inv.f.majorant_norm(2.0)

    def test_exact_and_ratio_routes_agree_on_unit_f2(self):
        # one route now: the norm is the exact inverse's majorant, for F2 with either c_mode
        for params in ({"c_mode": "unit"}, {}):
            seq = make_family("F2", params)
            for n in (3, 8, 15, 710):
                for k in (0, 1, 2):
                    inv = build_f_nk(seq.op(n), k)
                    assert fnk_norm_log(seq, n, k, 2.0) == inv.f.majorant_norm(2.0)

    # P_n = c_n z^n + z^(n+1), n = 1..16, with c_n = 10^-30 at n = 14: at k = 1 and r = 2 the threshold
    # holds from n = 9, fails again at n = 14 and holds after, so the crossing is 15
    LATE_DIP = [PolynomialOperator({n: Fraction(1, 10**30) if n == 14 else 1, n + 1: 1}) for n in range(1, 17)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("F1", None), ("F2", None), ("F3", None), ("F4", {"c": "1/3"}), ("F5", "late_dip")]),
        st.integers(0, 3),
        st.sampled_from([1.5, 2.0, 8.0]),
        st.integers(1, 14),
        st.integers(0, 12),
    )
    def test_crossing_is_the_first_index_from_which_the_threshold_holds(self, family, k, r, lo, width):
        tag, params = family
        seq = make_family(tag, {"ops": self.LATE_DIP} if params == "late_dip" else params)
        hi = min(lo + width, 16) if tag == "F5" else lo + width
        rep = fnk_decay(seq, k, r, (lo, hi))
        rows = rep.rows
        want = next((row.n for i, row in enumerate(rows) if all(later.stirling_ok for later in rows[i:])), None)
        assert rep.crossing == want

    def test_late_dip_crossing(self):
        rep = fnk_decay(make_family("F5", {"ops": self.LATE_DIP}), 1, 2.0, (2, 16))
        flags = {row.n: row.stirling_ok for row in rep.rows}
        assert flags[13] and not flags[14] and flags[15] and flags[16]
        assert rep.crossing == 15
        assert fnk_decay(make_family("F5", {"ops": self.LATE_DIP}), 1, 2.0, (2, 14)).crossing is None

    def test_stirling_marker_matches_hand_computation(self):
        seq = make_family("F4")
        # (m!)^(1/m) > 2r  <=>  lgamma(m+1)/m > log(2r)
        for n in (2, 5, 9, 14):
            expected = math.lgamma(n + 1) / n > math.log(4.0) + 1e-12
            assert stirling_threshold_ok(seq, n, 1, 2.0) == expected
