import io
import math
import random
from fractions import Fraction

import pytest

from hyperdiff.errors import PreconditionError
from hyperdiff.families import make_family
from hyperdiff.inverses import (
    build_f_nk,
    cramer_with_cofactors,
    exp_inverse,
    fnk_decay,
    fnk_norm_log,
    inverse_for_polynomial,
    solve_monic_system,
    solve_ratio_normalized,
    stirling_threshold_ok,
    write_right_inverse,
)
from hyperdiff.scalars import LogMagnitude, QComplex
from hyperdiff.series import (
    PolynomialOperator,
    TaylorPolynomial,
    apply_operator,
    exp_truncate,
    read_coefficients,
)


def random_exact(rng, span=9):
    re = Fraction(rng.randint(-span, span), rng.randint(1, span))
    im = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return QComplex(re, im)


class TestShiftedCoeffs:
    def test_monomial(self):
        assert tuple(PolynomialOperator({5: QComplex(1)}).coeffs) == (QComplex(1),)

    def test_f1_at_3(self):
        got = tuple(make_family("F1").op(3).coeffs)
        assert got == (QComplex(Fraction(1, 27)), QComplex(1))

    def test_f3_at_1(self):
        got = tuple(make_family("F3").op(1).coeffs)
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
        with pytest.raises(PreconditionError):
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
            c_log = table.instance_constant_log()
            inv_a0 = -LogMagnitude.of(a[0]).log
            for s, bs in enumerate(b):
                lhs = LogMagnitude.of(bs)
                rhs = LogMagnitude.sum(
                    LogMagnitude(c_log + (k + 1 - j) * inv_a0) for j in range(0, k + 1)
                )
                assert lhs.log <= rhs.log + 1e-9


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

    def test_serialization_round_trip(self):
        inv = build_f_nk(make_family("F4").op(6), 2)
        buf = io.StringIO()
        write_right_inverse(inv, buf, n=6)
        text = buf.getvalue()
        assert "route=polynomial" in text and "n=6" in text
        buf.seek(0)
        assert read_coefficients(buf) == inv.f


class TestExpInverse:
    def test_root_frequency_gives_zero_combo(self):
        assert exp_inverse(PolynomialOperator({2: QComplex(1)}), QComplex(0)).is_zero

    def test_simple_scale(self):
        combo = exp_inverse(PolynomialOperator({2: QComplex(1)}), QComplex(2))
        weight, freq = combo.terms[0]
        assert weight == QComplex(Fraction(1, 4)) and freq == QComplex(2)

    def test_f3_scale_from_enumeration(self):
        combo = exp_inverse(make_family("F3").op(2), QComplex(-2))
        expected = QComplex(1) / QComplex((Fraction(-2) ** 2) * (Fraction(-2) - Fraction(1, 2)) ** 2)
        assert combo.terms[0][0] == expected

    def test_identity_up_to_truncation_tail(self):
        # applying P to the scaled truncation returns the truncation up to a
        # defect bounded by the reported eigen defect over |P(w)|
        from hyperdiff.series import eigen_defect_bound

        p = make_family("F3").op(2)
        w = QComplex(-2)
        scale = exp_inverse(p, w).terms[0][0]
        for n in (40, 80):
            trunc, _ = exp_truncate(w, n, 1.0)
            image = apply_operator(p, trunc.scale(scale))
            defect = (image - trunc).majorant_norm(1.0)
            bound = eigen_defect_bound(p, w, n, 1.0) * LogMagnitude.of(scale)
            assert defect.log <= bound.log + 1e-9


class TestRatioSolve:
    def test_matches_direct_solve_in_range(self):
        a = [complex(0.25), complex(1.0), complex(-0.5)]
        b_direct = solve_monic_system(a, 2)
        b_tilde, log_a0 = solve_ratio_normalized(a, 2)
        for s in range(3):
            expected = abs(b_direct[s])
            if expected == 0:
                assert abs(b_tilde[s]) == 0
            else:
                got = math.exp(math.log(abs(b_tilde[s])) - log_a0)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_survives_tiny_leading_coefficient(self):
        # raw b_k would be ~ e^600, far out of double range
        a = [complex(1e-130), complex(1.0)]
        b_tilde, log_a0 = solve_ratio_normalized(a, 3)
        log_b3 = math.log(abs(b_tilde[3])) - log_a0
        assert log_b3 == pytest.approx(-math.log(1e-130), rel=1e-12)


class TestFnkDecay:
    def test_f4_closed_form_norms(self):
        rep = fnk_decay(make_family("F4"), 0, 2.0, (1, 30))
        for row, n in zip(rep.rows, range(1, 31)):
            assert row.norm.log == pytest.approx(
                n * math.log(2) - math.lgamma(n + 1), rel=1e-9
            )
        assert rep.verdict == "supports"

    def test_f2_float_route_thresholds_and_decay(self):
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
        assert not mag.is_zero

    def test_requires_r_above_one(self):
        with pytest.raises(PreconditionError):
            fnk_decay(make_family("F4"), 0, 1.0, (1, 10))

    def test_exact_and_ratio_routes_agree_on_unit_f2(self):
        exact_seq = make_family("F2", {"c_mode": "unit"})
        for n in (3, 8, 15):
            for k in (0, 1, 2):
                exact_norm = fnk_norm_log(exact_seq, n, k, 2.0)
                inv = build_f_nk(exact_seq.op(n), k)
                assert exact_norm.log == pytest.approx(
                    inv.f.majorant_norm(2.0).log, rel=1e-12
                )

    def test_stirling_marker_matches_hand_computation(self):
        seq = make_family("F4")
        # (m!)^(1/m) > 2r  <=>  lgamma(m+1)/m > log(2r)
        for n in (2, 5, 9, 14):
            expected = math.lgamma(n + 1) / n > math.log(4.0) + 1e-12
            assert stirling_threshold_ok(seq, n, 1, 2.0) == expected
