import io
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperdiff.errors import ConfigError, PreconditionError
from hyperdiff.families import (
    _FLOOR_LOG,
    _MIN_LEN,
    GrowthRule,
    OperatorSequence,
    Shape,
    _circle_samples,
    _circle_scan,
    _make_counter,
    check_property_P,
    check_property_Q,
    check_property_R,
    circle_min,
    make_family,
    positive_rational,
    unicity_exponent,
)
from hyperdiff.lacunary import decay_report, m0_member, select_indices
from hyperdiff.scalars import LN2, NEG_INF, QComplex, exp_log, log_abs, log_margin, log_sum
from hyperdiff.series import PolynomialOperator, TaylorPolynomial, write_operator

from oracles import shape_abs_at_exact, shape_op_by_fractions


class TestRationalEnumeration:
    def test_first_values(self):
        got = [positive_rational(i) for i in range(1, 11)]
        want = [
            Fraction(1),
            Fraction(1, 2),
            Fraction(2),
            Fraction(1, 3),
            Fraction(1),
            Fraction(3),
            Fraction(1, 4),
            Fraction(2, 3),
            Fraction(3, 2),
            Fraction(4),
        ]
        assert got == want

    def test_closed_form_matches_the_diagonal_enumeration(self):
        want = [Fraction(p, s - p) for s in range(2, 200) for p in range(1, s)][:10**4]
        assert [positive_rational(n) for n in range(1, 10**4 + 1)] == want
        # the blocks before s = 1414215 hold 1414214 * 1414213 / 2 = 999999911791
        # pairs, so n = 10^12 is p = 88209 in block s
        assert positive_rational(10**12) == Fraction(88209, 1414215 - 88209)

    def test_determinism_across_instances(self):
        a = make_family("F3")
        b = make_family("F3")
        for n in (1, 5, 17, 40):
            assert a.op(n) == b.op(n)


class TestMakeFamily:
    def test_f1_coefficients(self):
        op = make_family("F1").op(2)
        assert op.coefficient(2) == QComplex(Fraction(1, 4))
        assert op.coefficient(3) == QComplex(1)

    def test_f4_monomial(self):
        op = make_family("F4").op(5)
        assert op.valence == op.degree == 5
        assert op.coefficient(5) == QComplex(1)

    def test_f3_first_operator(self):
        op = make_family("F3").op(1)  # z(z - 1)
        assert op.coefficient(1) == QComplex(-1) and op.coefficient(2) == QComplex(1)

    def test_sequence_takes_exactly_one_of_shape_and_table(self):
        shape, table = make_family("F4").shape, [PolynomialOperator({n: 1, n + 2: Fraction(1, n)}) for n in (1, 2, 3)]
        seq = OperatorSequence("F5", "three", table=table)
        assert seq.max_n == 3 and [seq.op(n) for n in (1, 2, 3)] == table
        with pytest.raises(PreconditionError):
            seq.op(4)
        assert OperatorSequence("F4", "four", shape=shape).max_n is None
        for sources in ({}, {"shape": shape, "table": table}):
            with pytest.raises(PreconditionError):
                OperatorSequence("X", "x", **sources)

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            make_family("F9")

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            make_family("F2", {"c_mode": "weird"})
        with pytest.raises(ConfigError):
            make_family("F4", {"c": "0"})
        with pytest.raises(ConfigError):
            make_family("F1", {"c": "1"})
        with pytest.raises(ConfigError):
            make_family("F5", {"ops": [PolynomialOperator({1: QComplex(1)})], "c": "2"})

    @pytest.mark.parametrize("base", ["inf", "1e400", "nan", "1", "0.5"])
    def test_f2_log_base_must_be_finite_above_one(self, base):
        with pytest.raises(ConfigError):
            make_family("F2", {"log_base": base})

    def test_f4_decay_regime(self):
        seq = make_family("F4", {"decay": "pow2cubic"})
        assert seq.op(2).coefficient(2) == QComplex(Fraction(1, 2**8))
        # |c_n|^(1/n^2) = 2^-n -> 0
        for n in (2, 4, 6):
            assert seq.log_coeff(n, n) / n**2 == pytest.approx(-n * math.log(2))

    def test_metadata_consistency_n_up_to_50(self):
        fams = [
            make_family("F1"),
            make_family("F2"),
            make_family("F2", {"c_mode": "unit"}),
            make_family("F3"),
            make_family("F4"),
        ]
        for seq in fams:
            for n in range(1, 51):
                op = seq.op(n)
                support = [j for j, _ in op.terms()]
                assert seq.valence(n) == min(support)
                assert seq.degree(n) == max(support)

    def test_escorts_match_exact_coefficients(self):
        for tag in ("F1", "F3", "F4"):
            seq = make_family(tag)
            for n in (2, 7, 19):
                for j, c in seq.op(n).terms():
                    assert seq.log_coeff(n, j) == pytest.approx(log_abs(c), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("params", [{}, {"c_mode": "unit"}, {"log_base": "2"}])
    def test_f2_coefficients_are_the_doubles_while_normal(self, params):
        # where exp(log c_n) is a normal double, c_n is that double's exact value, the
        # operator F2 always had (the paper's c_709 = 1.4e-308 is already subnormal)
        shape = make_family("F2", params).shape
        normal = [n for n in range(1, 710) if math.exp(shape.log_c(n)) >= 2.0**-1022]
        assert len(normal) >= 708
        for n in normal:
            assert shape.c(n) == Fraction(math.exp(shape.log_c(n)))

    @pytest.mark.parametrize("params", [{}, {"log_base": "2"}])
    @pytest.mark.parametrize("n", [709, 710, 2000, 10**5])
    def test_f2_deep_coefficients_agree_with_the_escort(self, params, n):
        # past the double range c_n keeps a 53-bit mantissa, so the log escort that (Q),
        # the index selection and (R) read stays the log of the operator's coefficient
        seq = make_family("F2", params)
        c = seq.op(n).coefficient(n)
        assert c and c.re.numerator.bit_length() <= 53 and c.re.denominator & (c.re.denominator - 1) == 0
        assert log_margin(log_abs(c), seq.shape.log_c(n)) == 0.0
        assert seq.log_coeff(n, n) == seq.shape.log_c(n)

    def test_f5_table(self):
        ops = [PolynomialOperator({n: QComplex(1)}) for n in range(3, 9)]
        seq = make_family("F5", {"ops": ops})
        assert seq.op(1) == ops[0]
        with pytest.raises(PreconditionError):
            seq.op(7)


class TestClosedForms:
    """Each family's one closed form for |P_n(z)| against Horner on the built operator."""

    @pytest.mark.parametrize(
        "tag, params",
        [
            ("F1", {}),
            ("F2", {}),
            ("F2", {"c_mode": "unit"}),
            ("F2", {"log_base": "2"}),
            ("F3", {}),
            ("F4", {"c": "7/2"}),
            ("F4", {"decay": "pow2cubic"}),
        ],
    )
    def test_abs_log_matches_horner(self, tag, params):
        seq = make_family(tag, params)
        for n in range(1, 10):  # 2^-(n^3) stays a nonzero double
            op = seq.op(n)
            # the roots of every family (0, -1, q_n, -n^-n) and points off them
            roots = [Fraction(0), Fraction(-1), positive_rational(n), -Fraction(1, n**n)]
            for x in roots + [Fraction(1, 2), Fraction(-5, 2)]:
                got, want = seq.log_abs_at(n, x), log_abs(op.value_at(QComplex(x)))
                assert (got == NEG_INF) == (want == NEG_INF), (n, x)
                if want != NEG_INF:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (n, x)
            # complex doubles: exact Horner on the real axis, the closed form in floats off it
            for z in (0j, -1 + 0j, -3 + 0j, 1.5j, -2 + 0.5j, -0.5 - 1j):
                got, want = seq.log_abs_at(n, z), log_abs(op.value_at(z))
                assert (got == NEG_INF) == (want == NEG_INF), (n, z)
                if want != NEG_INF:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (n, z)


_SHAPED = [
    ("F1", {}),
    ("F2", {}),
    ("F2", {"c_mode": "unit"}),
    ("F2", {"log_base": "2"}),
    ("F3", {}),
    ("F4", {}),
    ("F4", {"c": "7/2"}),
    ("F4", {"decay": "pow2cubic"}),
]


class TestShapes:
    """Each built-in shape c_n z^n (z - rho_n)^mu_n against the operator it builds."""

    @pytest.mark.parametrize("tag, params", _SHAPED)
    def test_shape_agrees_with_built_operator(self, tag, params):
        seq = make_family(tag, params)
        points = [Fraction(1, 2), Fraction(-5, 2), Fraction(3), 1.5j, -2 + 0.5j, -0.5 - 1j]
        for n in (1, 2, 3, 7, 9 if "decay" in params else 20):  # 2^-(n^3) stays a nonzero double
            op = seq.op(n)
            assert (seq.valence(n), seq.degree(n)) == (op.valence, op.degree)
            items = list(seq.log_items(n))
            assert [j for j, _ in items] == [j for j, _ in op.terms()]
            for j, mag in items:
                want = log_abs(op.coefficient(j))
                assert mag == pytest.approx(want, rel=1e-12, abs=1e-12), (n, j)
            want = log_sum(log_abs(c) for _, c in op.terms())
            assert seq.coeff_abs_log_sum(n) == pytest.approx(want, rel=1e-12, abs=1e-12)
            for z in points:
                got, want = seq.log_abs_at(n, z), log_abs(op.value_at(z))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (n, z)

    @pytest.mark.parametrize("tag, params, ns", [
        ("F1", {}, range(1, 300)),
        ("F2", {}, [*range(1, 80), 709, 710, 711, 1000]),
        ("F2", {"c_mode": "unit"}, range(1, 300)),
        ("F3", {}, range(1, 201)),
        ("F4", {}, range(1, 100)),
        ("F4", {"c": "-7/2"}, range(1, 100)),
        ("F4", {"decay": "pow2cubic"}, range(1, 31)),
    ])
    def test_integer_builder_matches_the_fraction_expansion(self, tag, params, ns):
        # the same coefficients, in the same increasing order, as the binomial expansion
        seq = make_family(tag, params)
        for n in ns:
            assert list(seq.op(n).terms()) == list(shape_op_by_fractions(seq.shape, n).terms()), n

    @pytest.mark.parametrize("tag, params, ns", [
        ("F1", {}, (1, 2, 5, 40, 151, 300)),
        ("F2", {}, (1, 2, 40, 709, 710)),
        ("F2", {"c_mode": "unit"}, (1, 2, 40, 300)),
        ("F3", {}, (1, 2, 7, 50, 160)),
        ("F4", {"c": "-7/2"}, (1, 2, 50)),
        ("F4", {"decay": "pow2cubic"}, (1, 2, 5, 12)),
    ])
    def test_samples_before_any_read_match_the_fraction_expansion(self, tag, params, ns):
        # P_n takes its samples, rho_n first, from its integer form before any coefficient is read;
        # then its terms reduce to the oracle's: same file bytes, equal both ways
        seq = make_family(tag, params)
        for n in ns:
            op, want = seq.op(n), shape_op_by_fractions(seq.shape, n)
            roots = [QComplex(seq.shape.root(n))] if seq.shape.mult(n) else []
            for z in [*roots, QComplex(-2), QComplex(Fraction(3, 7)), QComplex(Fraction(-1, 3), Fraction(1, 2))]:
                assert op.value_at(z) == want.value_at(z), (n, z)
            assert [op.value_at(z) for z in roots] == [QComplex(0)] * len(roots)
            got_file, want_file = io.StringIO(), io.StringIO()
            write_operator(op, got_file)
            write_operator(want, want_file)
            assert got_file.getvalue() == want_file.getvalue() and op == want and want == op, n

    @pytest.mark.parametrize("tag, params", [fam for fam in _SHAPED if fam[0] in ("F2", "F4")])
    def test_closed_form_sum_keeps_the_item_sum_bits(self, tag, params):
        # on F2 and F4 the closed form A_n is bit for bit the log-sum-exp of the
        # items, so basis.csv logA_k does not depend on which one is used
        seq = make_family(tag, params)
        for n in range(1, 300):
            want = log_sum(mag for _, mag in seq.log_items(n))
            assert seq.coeff_abs_log_sum(n) == want, n


_BAND_FAMILIES = [
    ("F1", {}, (1, 2, 5, 16, 17, 60, 145, 151, 152, 300, 2000)),  # rho_145 underflows to -0.0
    ("F2", {}, (2, 40, 400)),
    ("F2", {"c_mode": "unit"}, (1, 40, 400)),
    ("F3", {}, (1, 2, 7, 50, 300)),
    ("F4", {"c": "-7/2"}, (1, 50)),
]


def _band_samples(rho: Fraction):
    """(z, where) with z = +-rho 2^k (1 + e): inside (|k| <= 63), at the edge (|k| = 64) and outside
    (|k| >= 65) the band |log|z| - log|rho|| <= 64 ln 2; z = rho, a point 2^-100 from it, z = 0, and
    +-1, +-2 and 3/7."""
    yield rho, "in"
    yield rho * (1 + Fraction(1, 2**100)), "in"
    yield Fraction(0), "out"
    for z in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3, 7)):
        yield z, "any"
    for k in (-300, -65, -64, -63, -10, 0, 10, 63, 64, 65, 300):
        where = "in" if abs(k) <= 63 else "edge" if abs(k) == 64 else "out"
        for e in (Fraction(0), Fraction(1, 2**40), Fraction(-1, 2**40)):
            yield rho * Fraction(2) ** k * (1 + e), where
            yield -rho * Fraction(2) ** k * (1 + e), where


def _counting_roots(shape):
    """The shape with a root that records each index it is built for, and that record."""
    built = []
    return shape._replace(root=lambda n: built.append(n) or shape.root(n)), built


class TestBandRule:
    """Outside |log|z| - log|rho_n|| <= 64 ln 2, Shape.abs_at reads log|z - rho_n| as the larger log."""

    @pytest.mark.parametrize("tag, params, ns", _BAND_FAMILIES)
    def test_abs_at_is_within_its_bound_of_the_exact_subtraction(self, tag, params, ns):
        shape = make_family(tag, params).shape
        counted, built = _counting_roots(shape)
        read = 0
        for n in ns:
            mu = shape.mult(n)
            rho = Fraction(shape.root(n)) if mu else Fraction(1)
            for z, where in _band_samples(rho):
                built.clear()
                got = counted.abs_at(n, z)
                exact = shape.log_c(n) + log_abs(z) * n + (log_abs(z - rho) * mu if mu else 0.0)
                if mu and z == rho or not z:
                    assert got == exact == NEG_INF, (n, z)
                if built or not mu:
                    # the exact route is the subtraction itself, bit for bit; inside the band it is the only
                    # route, and outside it is taken only where the log is within mu 2^-10 of 0
                    assert got == exact, (n, z)
                    assert not mu or where != "out" or abs(exact) < mu * 2**-10, (n, z)
                    continue
                assert where != "in", (n, z)
                read += 1
                want = shape_abs_at_exact(shape, n, z)
                if want != NEG_INF:
                    assert abs(got - want) <= mu * 2**-62 + 4 * math.ulp(want), (n, z, got, want)
        assert read > 0 or tag == "F4"

    @pytest.mark.parametrize("tag, params, ns", _BAND_FAMILIES)
    def test_circle_min_is_abs_at_at_r_sgn_rho(self, tag, params, ns):
        shape = make_family(tag, params).shape
        counted, built = _counting_roots(shape)
        either = 0
        for n in ns:
            if shape.mult(n):  # circle_min reads the sign of rho_n from its double, also where that underflows
                assert math.copysign(1.0, shape.float_root(n)) == (1.0 if shape.root(n) > 0 else -1.0), n
            for r in (1e-300, 1e-20, 0.5, 1.0, 2.0, 1e20, 1e308):
                z = Fraction(r)
                at = -z if shape.mult(n) and shape.root(n) < 0 else z
                got = shape.circle_min(n, r)
                assert got == shape.abs_at(n, at), (n, r)
                built.clear()
                other = counted.abs_at(n, -at)
                if not built:  # outside the band either sign reads the same log
                    assert other == got, (n, r)
                    either += 1
        assert either > 0

    def test_f1_sweep_builds_the_root_only_inside_the_band(self):
        # at r = 2, |log 2 + n log n| <= 64 ln 2 holds for n <= 15 only; each of those builds rho_n once
        seq = make_family("F1")
        seq.shape, built = _counting_roots(seq.shape)
        rep = check_property_R(seq, 2.0, (1, 2000))
        assert rep.verdict == "supports"
        assert built == list(range(1, 16))

    def test_f1_unit_circle_sweep_builds_the_root_only_to_1100_ln_2(self):
        # at r = 1 the log -n^-n is within mu 2^-10 of 0, so the band widens to n log n <= 1100 ln 2: n <= 151
        seq = make_family("F1")
        seq.shape, built = _counting_roots(seq.shape)
        rep = check_property_R(seq, 1.0, (1, 2000))
        assert rep.verdict == "inconclusive"
        assert built == list(range(1, 152))

    def test_f1_unit_circle_keeps_the_exact_log(self):
        # min |P_n| on |z| = 1 is 1 - n^-n: outside the band from n = 17, but its log -n^-n is within
        # mu 2^-10 of 0, so up to n = 151 the root is subtracted exactly and the log stays below the floor 0
        shape = make_family("F1").shape
        for n in range(14, 60):
            got = shape.circle_min(n, 1.0)
            assert got < 0 and got == pytest.approx(-float(Fraction(1, n**n)), rel=1e-12), n


def _counting_items(monkeypatch):
    """Wrap every shape's item generator; returns how many items each call yielded."""
    inner, calls = Shape.items, []

    def items(self, n):
        calls.append(0)
        for item in inner(self, n):
            calls[-1] += 1
            yield item

    monkeypatch.setattr(Shape, "items", items)  # a shape is an immutable named tuple
    return calls


class TestLazyEscorts:
    def test_log_coeff_matches_item_list(self):
        ops = [PolynomialOperator({n: QComplex(Fraction(1, n)), n + 2: QComplex(-3)}) for n in range(1, 30)]
        fams = [
            make_family("F1"),
            make_family("F2"),
            make_family("F2", {"c_mode": "unit"}),
            make_family("F3"),
            make_family("F4", {"c": "7/2"}),
            make_family("F4", {"decay": "pow2cubic"}),
            make_family("F5", {"ops": ops}),
        ]
        for seq in fams:
            for n in (1, 2, 7, 19, 29):
                listed = dict(seq.log_items(n))
                for j in range(n - 1, 2 * n + 3):
                    got = seq.log_coeff(n, j)
                    if j in listed:
                        assert got == listed[j], (seq, n, j)
                    else:
                        assert got == NEG_INF, (seq, n, j)

    def test_f3_log_coeff_reads_only_up_to_its_exponent(self, monkeypatch):
        seq = make_family("F3")
        calls = _counting_items(monkeypatch)
        seq.log_coeff(80_917, 80_917)
        seq.log_coeff(500, 503)
        assert calls == [1, 4]
        assert len(list(seq.log_items(40))) == 41 and calls[-1] == 41

    def test_decay_report_reads_items_only_for_nonempty_tails(self, monkeypatch):
        seq = make_family("F3")
        basis = select_indices(seq, 3)
        (n1, m1), (n2, _), (_, m3) = [(e.n, e.valence) for e in basis.entries]
        calls = _counting_items(monkeypatch)
        half, quarter = QComplex(Fraction(1, 2)), QComplex(Fraction(1, 4))
        cases = (
            # member, item reads: n + 1 per non-empty strict tail
            (m0_member(basis, [QComplex(1), half, quarter]), [n1 + 1, n2 + 1]),
            (TaylorPolynomial.from_pairs([(m1, 1), (m3, 1)]), [n1 + 1, n2 + 1]),
            (m0_member(basis, [QComplex(1), half]), [n1 + 1]),
            (TaylorPolynomial.zero(), []),
        )
        for f, want in cases:
            calls.clear()
            decay_report(basis, f, 1.0)
            assert sorted(calls) == want


class TestPropertyP:
    def test_f3_supports_on_negative_samples(self):
        rep = check_property_P(make_family("F3"), [QComplex(-2), QComplex(-3), QComplex(-5)], (1, 40))
        assert rep.verdict == "supports"

    def test_f4_supports_on_circle_samples(self):
        rep = check_property_P(make_family("F4"), [complex(2, 0), complex(0, 2)], (1, 60))
        assert rep.verdict == "supports"

    def test_f1_refutes_inside_unit_disk(self):
        rep = check_property_P(make_family("F1"), [QComplex(Fraction(1, 2))], (1, 60))
        assert rep.verdict == "refutes"
        assert rep.witness is not None

    def test_empty_samples_rejected(self):
        with pytest.raises(PreconditionError):
            check_property_P(make_family("F1"), [], (1, 10))

    def test_f3_sweep_holds_one_operator_at_a_time(self):
        # each exact P_n is dropped once its samples are read, so the peak is one operator,
        # not the 250 operators of the sweep (about 8 MB together)
        tracemalloc.start()
        try:
            rep = check_property_P(make_family("F3"), [QComplex(-3)], (1, 250))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert rep.verdict == "supports"


class TestPropertyQ:
    def test_f2_supports_k_up_to_3(self):
        rep = check_property_Q(make_family("F2"), 3, (2, 200))
        assert rep.verdict == "supports"

    def test_f1_refutes_at_k_2_with_exact_witness(self):
        rep = check_property_Q(make_family("F1"), 2, (1, 60))
        assert rep.verdict == "refutes"
        assert rep.witness["k"] == 2
        stats = rep.tracks["growth"][2]
        for n, stat in zip(range(1, 61), stats):
            assert abs(stat - (1 - 2) * math.log(n)) <= 1e-9 * max(1.0, abs(stat))

    def test_f4_unit_supports(self):
        rep = check_property_Q(make_family("F4"), 4, (1, 60))
        assert rep.verdict == "supports"
        # statistic is exactly m(n) = n
        assert rep.tracks["growth"][1][-1] == pytest.approx(math.log(60))

    @pytest.mark.parametrize(
        "tag, params, k_max, n_range",
        [
            ("F1", {}, 5, (1, 60)),
            ("F2", {}, 3, (2, 80)),
            ("F2", {"c_mode": "unit"}, 3, (1, 40)),
            ("F3", {}, 4, (1, 40)),
            ("F4", {"c": "7/2"}, 3, (1, 40)),
            ("F4", {"decay": "pow2cubic"}, 2, (1, 30)),
            ("F5", "gaps", 4, (1, 12)),
            ("F1", {}, 2, (10, 5)),
        ],
    )
    def test_tracks_match_one_log_coeff_read_per_k_and_n(self, tag, params, k_max, n_range):
        # an F5 table with terms at m, m + 2 and m + 3 only: k = 1 lands on a missing exponent
        if params == "gaps":
            params = {"ops": [PolynomialOperator({m: QComplex(Fraction(1, m)), m + 2: QComplex(-m, 1),
                                                  m + 3: QComplex(2)}) for m in range(1, 13)]}
        seq = make_family(tag, params)
        rep = check_property_Q(seq, k_max, n_range)
        ns = range(n_range[0], n_range[1] + 1)
        growth = {k: [] for k in range(1, k_max + 1)}
        bound = {}
        for k in growth:
            for n in ns:
                m = seq.valence(n)
                growth[k].append(math.log(m) + (k / m) * seq.log_coeff(n, m))
            bound[k] = max((seq.log_coeff(n, k + seq.valence(n)) for n in ns), default=-math.inf)
        assert rep.tracks["growth"] == growth
        assert rep.tracks["shifted_bound_log"] == bound
        if tag == "F5":
            assert bound[1] == -math.inf and bound[2] > -math.inf


def test_sweeps_classify_each_track_once(monkeypatch):
    calls = []
    classify = GrowthRule.classify
    monkeypatch.setattr(GrowthRule, "classify", lambda rule, ns, logs: calls.append(1) or classify(rule, ns, logs))
    seq = make_family("F1")
    for check, tracks in (
        (lambda: check_property_P(seq, [QComplex(-2), QComplex(-3), QComplex(Fraction(1, 2))], (1, 30)), 3),
        (lambda: check_property_Q(seq, 4, (1, 30)), 4),
        (lambda: check_property_R(seq, 2.0, (1, 30)), 2),
    ):
        calls.clear()
        check()
        assert len(calls) == tracks


class TestPropertyR:
    def test_f1_supports_at_r_2(self):
        rep = check_property_R(make_family("F1"), 2.0, (1, 40), 256)
        assert rep.verdict == "supports"
        # both tracks are the exact minimum |P_40(-2)| = 2^40 (2 - 40^-40)
        exact = math.log(2**40 * (2 - Fraction(1, 40**40)))
        assert rep.tracks["lower_log"][-1] == rep.tracks["upper_log"][-1] == pytest.approx(exact, rel=1e-15)

    def test_f3_refutes_with_near_root_witnesses(self):
        for r in (1.0, 2.0, 3.0):
            rep = check_property_R(make_family("F3"), r, (1, 40), 256)
            assert rep.verdict == "refutes", r
            hits = rep.witness["vanishing"]
            assert len(hits) >= 2
            for n, log_val in hits:
                assert log_val < -n * math.log(2)

    def test_f2_refutes_at_unit_circle(self):
        rep = check_property_R(make_family("F2"), 1.0, (2, 100), 256)
        assert rep.verdict == "refutes"

    def test_f2_unit_witnesses_are_exact_roots(self):
        # the root z = -1 lies on the unit circle: the exact minimum there reads -inf
        rep = check_property_R(make_family("F2", {"c_mode": "unit"}), 1.0, (1, 80), 256)
        hits = rep.witness["vanishing"]
        assert rep.verdict == "refutes" and hits
        assert all(log_val == -math.inf for _, log_val in hits)

    def test_f4_unit_inconclusive_at_unit_circle(self):
        rep = check_property_R(make_family("F4"), 1.0, (1, 60), 256)
        assert rep.verdict in ("inconclusive", "refutes")

    def test_collapsed_lower_bound_never_refutes(self):
        # the scan's certified lower track reads -inf, which is a weak bound, not a witness of small values
        cases = [
            # P_n = z^(n+8) (z - 129/64) has its root 1/64 outside |z| = 2, nearer than the arc
            # correction pi r / M = 0.0245
            (2.0, [PolynomialOperator({n + 8: QComplex(Fraction(-129, 64)), n + 9: QComplex(1)})
                   for n in range(1, 121)]),
            # P_n = z + z^3 at r = 1e200: the float samples of H = 1 + z^2 overflow, so the scan's
            # bounds are (-inf, inf), and the upper track is the exact log|P_n(r)| = 1381.55...
            (1e200, [PolynomialOperator({1: QComplex(1), 3: QComplex(1)})] * 12),
        ]
        for r, table in cases:
            seq = make_family("F5", {"ops": table})
            ns = list(range(1, len(table) + 1))
            rep = check_property_R(seq, r, (1, len(table)), 256)
            lower = rep.tracks["lower_log"]
            assert all(v == -math.inf for v in lower)
            assert GrowthRule().classify(ns, lower)[0][-1] == "refutes"
            fr = Fraction(r)
            assert rep.tracks["upper_log"] == [min(seq.log_abs_at(n, fr), seq.log_abs_at(n, -fr)) for n in ns]
            assert all(verdict != "refutes" for _, _, verdict in rep.rows)
            assert rep.verdict == "inconclusive" and rep.witness is None

    def test_scan_past_double_range(self):
        # |z^m| = 2^m leaves the double range at m = 1024; the scan factors it out.
        # P_n = z^(1014+n) (z + 1/3) has min |P_n| = 2^(1014+n) 5/3 on |z| = 2, at z = -2
        ns = range(1, 87)
        table = [PolynomialOperator({1014 + n: QComplex(Fraction(1, 3)), 1015 + n: QComplex(1)}) for n in ns]
        rep = check_property_R(make_family("F5", {"ops": table}), 2.0, (1, 86), 256)
        for n, lower, upper in zip(ns, rep.tracks["lower_log"], rep.tracks["upper_log"]):
            exact = (1014 + n) * LN2 + math.log(5 / 3)
            assert upper == pytest.approx(exact, rel=1e-12)
            # the arc correction (pi r / M) sup|H'| = 0.0245 is 1.5% of 5/3
            assert exact + math.log(0.98) < lower < upper
        assert rep.verdict == "supports"

    def test_f1_past_double_range(self):
        # |z^n| = 2^n leaves the double range at n = 1024; the exact minimum
        # |P_n(-2)| = 2^n (2 - n^-n), about 2^(n+1), stays in the log domain
        ns = range(1015, 1101)
        rep = check_property_R(make_family("F1"), 2.0, (ns[0], ns[-1]), 256)
        for n, lower, upper in zip(ns, rep.tracks["lower_log"], rep.tracks["upper_log"]):
            assert upper == pytest.approx((n + 1) * LN2, rel=1e-12)
            assert lower == upper
        assert rep.verdict == "supports"

    def test_exact_sample_only_at_the_radius_itself(self):
        # 1e-13 is not 0: the exact minimum at z = r must not move to a nearby
        # rational (0 is the centre, where |P_n| vanishes)
        rep = check_property_R(make_family("F4"), 1e-13, (1, 12))
        for n, upper in zip(range(1, 13), rep.tracks["upper_log"]):
            assert upper == pytest.approx(n * math.log(1e-13), rel=1e-12)
        assert rep.verdict == "refutes"

    @pytest.mark.parametrize("tag, params", _SHAPED)
    def test_closed_form_is_the_least_on_rational_circle_points(self, tag, params):
        # z = r((1 - t^2) + 2ti)/(1 + t^2) lies exactly on |z| = r for every rational t
        seq = make_family(tag, params)
        for r in (0.3, 1.0, 2.0, 2.5):
            fr = Fraction(r)
            for n in (1, 2, 5, 9 if "decay" in params else 24):
                closed = seq.shape.circle_min(n, r)
                negative = seq.shape.mult(n) and seq.shape.root(n) < 0
                assert log_margin(closed, seq.log_abs_at(n, -fr if negative else fr)) == 0.0
                for t in map(Fraction, (0, "1/5", "1/2", 1, "-7/3", 10**6)):
                    z = _circle_point(fr, t)
                    assert log_margin(closed, seq.log_abs_at(n, z)) >= 0, (r, n, t)

    def test_f3_past_the_double_range_refutes(self):
        # F3's coefficients leave the double range near n = 300; its exact minimum does not
        rep = check_property_R(make_family("F3"), 2.0, (1, 400))
        assert rep.verdict == "refutes" and len(rep.witness["vanishing"]) >= 2

    def test_f1_supports_far_out(self):
        rep = check_property_R(make_family("F1"), 2.0, (1, 2000))
        assert rep.verdict == "supports"
        assert rep.tracks["lower_log"][-1] == pytest.approx(2001 * LN2, rel=1e-15)


class TestCircleMin:
    def test_monomial_exact(self):
        for n in (1, 5, 64):
            got = circle_min(PolynomialOperator({n: QComplex(1)}), 2.0, 64)
            assert got == pytest.approx(n * math.log(2))

    def test_root_on_circle_gives_zero(self):
        p = PolynomialOperator({0: QComplex(-1), 1: QComplex(1)})
        assert circle_min(p, 1.0, 256) == NEG_INF

    def test_quadratic_example(self):
        p = PolynomialOperator({0: QComplex(-2), 2: QComplex(1)})
        val = exp_log(circle_min(p, 1.0, 1024))
        assert abs(val - 1.0) < 0.05

    def test_lower_bound_below_sampled_min(self):
        for coeffs in ({0: QComplex(-2), 2: QComplex(1)}, {1: QComplex(3), 4: QComplex(-1)}):
            p = PolynomialOperator(coeffs)
            for r in (0.5, 1.0, 2.5):
                lower, upper = _circle_scan(p, r, 128)
                assert lower <= upper + 1e-12

    def test_sample_floor(self):
        with pytest.raises(PreconditionError):
            circle_min(PolynomialOperator({0: QComplex(1), 1: QComplex(1)}), 1.0, 32)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, r):
        p = PolynomialOperator({0: QComplex(1), 1: QComplex(1)})
        with pytest.raises(PreconditionError):
            circle_min(p, r, 64)
        with pytest.raises(PreconditionError):
            check_property_R(make_family("F1"), r, (1, 2), 64)


def _circle_point(r: Fraction, t: Fraction, scale: Fraction = Fraction(1)) -> QComplex:
    """scale times the point r((1 - t^2) + 2ti)/(1 + t^2), which lies exactly on |z| = r."""
    return QComplex(scale * r * (1 - t * t) / (1 + t * t), scale * r * 2 * t / (1 + t * t))


_ratios = st.fractions(min_value=-9, max_value=9, max_denominator=10**6)


@st.composite
def _scanned_tables(draw):
    """(op, r) with H = P/z^m a scaled product of factors z - rho, each rho on or near |z| = r
    (so the expanded coefficients cancel beside it), plus a few dense rational terms."""
    r = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0, 2.5]))
    coeffs = [QComplex(draw(_ratios.filter(bool)))]
    for _ in range(draw(st.integers(1, 5))):
        # rho = (1 + delta) times a point of the circle, delta 0 or within 2^-50..2^-4
        delta = draw(st.sampled_from([0, 1, -1])) * Fraction(1, 2 ** draw(st.integers(4, 50)))
        rho = _circle_point(Fraction(r), draw(_ratios), 1 + delta)
        coeffs = [a - rho * b for a, b in zip([QComplex(0)] + coeffs, coeffs + [QComplex(0)])]
    for j in draw(st.lists(st.integers(0, len(coeffs) - 2), max_size=3)):  # the leading term stays
        coeffs[j] = coeffs[j] + QComplex(draw(_ratios), draw(_ratios))
    m = draw(st.integers(0, 3))
    return PolynomialOperator({m + j: c for j, c in enumerate(coeffs)}), r


class TestScanOracle:
    """Every float sample of the circle scan against H = P/z^m evaluated exactly at the
    same point: a finite double is a dyadic rational, so the sample point is exact."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_scanned_tables())
    # dense coefficients on which the rounding error reaches 0.112 of the guard at |z| = 2
    @example((PolynomialOperator({
        0: QComplex(Fraction(-922408, 492027), Fraction(48499, 133138)),
        1: QComplex(Fraction(-689989, 10509), Fraction(106508, 171211)),
    }), 2.0))
    # the same H at valence 1000, where a factor d + 1 would overstate H's d - m + 1 terms 501 times
    @example((PolynomialOperator({
        1000: QComplex(Fraction(-922408, 492027), Fraction(48499, 133138)),
        1001: QComplex(Fraction(-689989, 10509), Fraction(106508, 171211)),
    }), 2.0))
    def test_float_samples_within_the_guard(self, table):
        op, r = table
        m_samples = 64
        samples, guard = _circle_samples(op, r, m_samples)
        assert len(samples) == m_samples
        g, rr = Fraction(guard), Fraction(r) ** 2
        # the arc correction (pi r / M) sup|H'| bounds the change of H over the chord
        # 2 r sin(pi / 2M) to the nearest sample; the rest is slack for the float point
        slack = Fraction(math.pi / m_samples - 2 * math.sin(math.pi / (2 * m_samples)))
        for z, val in samples:
            zq = QComplex(Fraction(z.real), Fraction(z.imag))
            assert abs(zq.abs_squared() / rr - 1) <= slack, z
            exact = QComplex(0)
            for j in range(op.degree, op.valence - 1, -1):
                exact = exact * zq + op.coefficient(j)
            h2, v = exact.abs_squared(), Fraction(val)
            assert h2 <= (v + g) ** 2, (z, val, guard)
            assert v <= g or (v - g) ** 2 <= h2, (z, val, guard)


class TestUnicityExponent:
    def test_sqrt_points(self):
        est = unicity_exponent(lambda n: math.sqrt(n), 1e6)
        assert abs(est.chi - 2.0) <= 0.1
        assert est.unicity_supported

    def test_linear_points(self):
        est = unicity_exponent(lambda n: float(n), 1e6)
        assert abs(est.chi - 1.0) <= 0.05
        assert not est.unicity_supported

    def test_exponential_points(self):
        est = unicity_exponent(lambda n: 2.0**n, 1e6)
        assert est.chi < 0.35
        assert not est.unicity_supported

    def test_counting_monotone_and_stable_under_doubling(self):
        est1 = unicity_exponent(lambda n: math.sqrt(n), 1e6)
        est2 = unicity_exponent(lambda n: math.sqrt(n), 2e6)
        assert abs(est1.chi - est2.chi) < 0.02
        assert all(b >= a for a, b in zip(est1.counts, est1.counts[1:]))

    def test_explicit_list_source(self):
        pts = [math.sqrt(n) for n in range(1, 20001)]
        est = unicity_exponent(pts, 100.0)
        assert abs(est.chi - 2.0) <= 0.1

    def test_too_few_points(self):
        with pytest.raises(PreconditionError):
            unicity_exponent([1.0, 2.0, 3.0], 1e3)

    @pytest.mark.parametrize(
        "gen, moduli",
        [(lambda n: float(n), [float(n) for n in range(1, 20001)]),
         (lambda n: 2.0**n if n < 1024 else math.inf, [2.0**n for n in range(1, 1024)])],
        ids=["linear", "pow2"],
    )
    def test_generator_counts_match_the_materialised_list(self, gen, moduli):
        from_gen, from_list = _make_counter(gen), _make_counter(moduli)
        for r in (0.5, 1.0, 1.5, 2.0, 7.0, 8.0, 1000.0, 1024.0, 12345.6, 16384.0, 20000.0, 1e300):
            if r <= moduli[-1]:
                assert from_gen(r) == from_list(r), r

    def test_bounded_generator_rejected(self):
        with pytest.raises(PreconditionError, match="never exceeds r"):
            _make_counter(lambda n: 1.0)(5.0)

    @pytest.mark.parametrize("bad", [[math.nan], [-5.0] * 20, [math.inf]])
    def test_list_moduli_must_be_finite_and_nonnegative(self, bad):
        # a NaN among 1..13 moved chi from 1.0 to 1.0414; 20 copies of -5 to 1.4771
        good = [float(k) for k in range(1, 14)]
        assert unicity_exponent(good, 100).chi == 1.0
        with pytest.raises(PreconditionError):
            unicity_exponent(bad + good, 100)


class TestGrowthRule:
    def test_supports_needs_threshold(self):
        ns = list(range(1, 41))
        logs = [0.1 * n for n in ns]
        verdicts, _ = GrowthRule(threshold_log=100.0).classify(ns, logs)
        assert verdicts[-1] == "inconclusive"
        verdicts, _ = GrowthRule(threshold_log=1.0).classify(ns, logs)
        assert verdicts[-1] == "supports"

    def test_oscillating_but_growing_supports(self):
        ns = list(range(1, 41))
        logs = [2.0 * n + (10.0 if n % 7 == 0 else 0.0) for n in ns]
        verdicts, _ = GrowthRule(threshold_log=20.0).classify(ns, logs)
        assert verdicts[-1] == "supports"

    def test_decay_refutes(self):
        ns = list(range(1, 41))
        logs = [-0.5 * n for n in ns]
        verdicts, info = GrowthRule(vanish_hits=None).classify(ns, logs)
        assert verdicts[-1] == "refutes" and "decay" in info

    def test_short_sweep_inconclusive(self):
        verdicts, info = GrowthRule().classify([1, 2, 3], [1.0, 2.0, 3.0])
        assert verdicts == ["inconclusive"] * 3 and info == {}

    def test_track_needs_eight_values_and_a_last_half_at_log_0(self):
        # seven values below the floor are too few to refute; the eighth refutes, and a
        # last half that reaches log 0 escapes the floor refutation
        ns = list(range(1, 9))
        verdicts, info = GrowthRule(vanish_hits=None).classify(ns, [-1.0] * 8)
        assert verdicts == ["inconclusive"] * 7 + ["refutes"] and "decay" in info
        verdicts, _ = GrowthRule(vanish_hits=None).classify(ns, [-1.0] * 7 + [0.0])
        assert verdicts[-1] == "inconclusive"

    def test_degenerate_rule_rejected(self):
        for bad in ({"vanish_hits": 0}, {"vanish_hits": -1}):
            with pytest.raises(ConfigError):
                GrowthRule(**bad)

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(
            GrowthRule,
            threshold_log=st.floats(-5.0, 30.0),
            vanish_hits=st.none() | st.integers(1, 4),
        ),
        st.integers(1, 40),
        st.lists(
            st.sampled_from([-math.inf, math.inf, 0.0, -0.0, 1.0])
            | st.integers(-80, 40).map(float)
            | st.floats(-80.0, 80.0),
            max_size=60,
        ),
    )
    def test_running_matches_prefix_reclassification(self, rule, lo, logs):
        ns = list(range(lo, lo + len(logs)))
        verdicts, info = rule.classify(ns, logs)
        expected = [_reclassify(rule, ns[:i], logs[:i])[0] for i in range(1, len(ns) + 1)]
        assert verdicts == expected
        assert repr(info) == repr(_reclassify(rule, ns, logs)[1])

    def test_classify_peaks_under_1_mb_on_2_15_values(self):
        # a growing track keeps every value a suffix minimum of its window, the deques' worst case;
        # the sparse table of range minima it replaced peaked at 3.97 MB here
        rule, ns = GrowthRule(), list(range(1, 2**15 + 1))
        logs = [0.01 * n + (1.0 if n % 7 == 0 else 0.0) for n in ns]
        tracemalloc.start()
        try:
            verdicts, info = rule.classify(ns, logs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert verdicts[-1] == "supports" and repr(info) == repr(_reclassify(rule, ns, logs)[1])

    @pytest.mark.parametrize("logs, minima", [
        ([-1.0] * 8 + [-0.0, 0.0, 0.5, 0.0] + [1.0, 2.0, 3.0, 4.0], "(-1.0, -0.0, 1.0)"),
        ([-1.0] * 8 + [0.0, -0.0, 0.5, -0.0] + [1.0, 2.0, 3.0, 4.0], "(-1.0, 0.0, 1.0)"),
        ([0.5, 0.0, -0.0, 0.5, 0.5, 0.5, 0.5, 0.5] + [1.0, 1.5, 1.2, 1.1] + [2.0, 3.0, 4.0, 5.0], "(0.0, 1.0, 2.0)"),
    ])
    def test_zero_ties_read_as_min_reads_them(self, logs, minima):
        # 16 values: first half logs[:8], quartiles logs[8:12] and logs[12:]; a window whose minimum is
        # a tie of 0.0 and -0.0 reports the first of them, as min() over the slice does
        rule, ns = GrowthRule(threshold_log=1.0), list(range(10, 26))
        verdicts, info = rule.classify(ns, logs)
        assert verdicts[-1] == "supports"
        assert repr(info) == repr(_reclassify(rule, ns, logs)[1]) == f"{{'quartile_minima': {minima}}}"

    def test_windows_that_skip_past_their_last_end(self):
        # the floor refutation holds for L = 10..20, so no window is read there; at L = 21 the
        # quartile window starts at 10, past the end 6 it was read to at L = 9
        ns = list(range(10, 31))
        logs = [-1.0] * 4 + [0.5] + [-1.0 - i for i in range(1, 16)] + [40.0]
        rule = GrowthRule()
        verdicts, info = rule.classify(ns, logs)
        assert verdicts[8:] == ["inconclusive"] + ["refutes"] * 11 + ["inconclusive"]
        assert verdicts == [_reclassify(rule, ns[:i], logs[:i])[0] for i in range(1, len(ns) + 1)]
        assert repr(info) == repr(_reclassify(rule, ns, logs)[1])


def _reclassify(rule, ns, logs):
    """Reference: the growth rule evaluated from scratch on one whole track."""
    info = {}
    if rule.vanish_hits is not None:
        hits = [(n, v) for n, v in zip(ns, logs) if v < -n * LN2]
        if len(hits) >= rule.vanish_hits:
            info["vanishing"] = hits
            return "refutes", info
    if len(logs) < _MIN_LEN:
        return "inconclusive", info
    half = list(logs[len(logs) // 2 :])
    if all(v < _FLOOR_LOG for v in half) and half[-1] <= half[0]:
        info["decay"] = {"first": half[0], "last": half[-1], "floor": _FLOOR_LOG}
        return "refutes", info
    q3 = half[: len(half) // 2]
    q4 = half[len(half) // 2 :]
    first_half_min = min(logs[: len(logs) // 2])
    if min(q4) > min(q3) and min(half) > first_half_min and logs[-1] > rule.threshold_log:
        info["quartile_minima"] = (first_half_min, min(q3), min(q4))
        return "supports", info
    return "inconclusive", info


class TestF2OpenQuestions:
    def test_empirical_behavior_straddles_e(self):
        # |P_n(z)| ~ (|z|/e)^n up to slow factors: decay inside |z| < e,
        # growth outside; the checker records what it sees, no hard-coding
        seq = make_family("F2")
        grown = check_property_P(seq, [complex(4.0, 0.0)], (2, 200))
        assert grown.verdict == "supports"
        shrunk = check_property_P(seq, [complex(2.0, 0.0)], (2, 200))
        assert shrunk.verdict == "refutes"

    def test_log_base_parameter_changes_constants(self):
        nat = make_family("F2")
        base2 = make_family("F2", {"log_base": "2"})
        n = 20
        c_nat = nat.log_coeff(n, n)
        c_two = base2.log_coeff(n, n)
        assert c_two == pytest.approx(c_nat * math.log(2), rel=1e-12)
