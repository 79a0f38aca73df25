import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperdiff.scalars import (
    NEG_INF,
    SLACK,
    QComplex,
    certify,
    exp_log,
    factorial,
    format_scalar,
    log_abs,
    log_falling,
    log_fraction,
    log_margin,
    log_ratio,
    log_sum,
    log_triple,
    parse_real,
    parse_scalar,
    scale_by_int,
    to_qcomplex,
    to_triple,
    write_csv,
    write_jsonl,
)
from hyperdiff import scalars
from hyperdiff.errors import InvariantViolation, PreconditionError
from hyperdiff.families import make_family

from oracles import log_rational

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
# nonzero integer parts, small or past 2^1100
triple_parts = (st.integers(1, 2**64) | st.integers(2**1100, 2**1300)).flatmap(lambda v: st.sampled_from([v, -v]))


def _ulps(got: float, want: float) -> float:
    return 0.0 if got == want else abs(got - want) / math.ulp(want)


@st.composite
def qcomplexes(draw):
    return QComplex(draw(rationals), draw(rationals))


class TestQComplex:
    def test_field_axioms_spot(self):
        a = QComplex(Fraction(1, 3), Fraction(-2, 7))
        b = QComplex(Fraction(5, 2), Fraction(1, 11))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * QComplex(1) == a

    @given(qcomplexes(), qcomplexes())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(qcomplexes())
    def test_division_inverts(self, a):
        if not a:
            return
        assert (a * a) / a == a

    def test_integer_power(self):
        a = QComplex(1, 1)
        assert a**2 == QComplex(0, 2)
        assert a**0 == QComplex(1)

    def test_float_mix_rejected(self):
        with pytest.raises(TypeError):
            QComplex(1) + 0.5

    def test_abs_squared_exact(self):
        assert QComplex(Fraction(3, 5), Fraction(4, 5)).abs_squared() == 1


# Real-only, complex, zero and negative parts, with heights up to 2**200.
huge = st.integers(min_value=-(2**200), max_value=2**200)
parts = st.one_of(
    st.just(Fraction(0)),
    rationals,
    st.builds(Fraction, huge, st.integers(min_value=1, max_value=2**200)),
)
operands = st.one_of(st.builds(QComplex, parts), st.builds(QComplex, parts, parts))


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


class TestQComplexAgainstPartFormulas:
    """Every operator, real fast path or not, against the general (re, im) formulas."""

    @staticmethod
    def _check(got, want):
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert (got.re, got.im) == want
        if not want[1]:
            assert got == QComplex(want[0]) and hash(got) == hash(QComplex(want[0]))

    @given(operands, operands)
    def test_binary_operators(self, x, y):
        (a, b), (c, d) = (x.re, x.im), (y.re, y.im)
        self._check(x + y, (a + c, b + d))
        self._check(x - y, (a - c, b - d))
        self._check(x * y, _ref_mul((a, b), (c, d)))
        den = c * c + d * d
        if den:
            self._check(x / y, ((a * c + b * d) / den, (b * c - a * d) / den))

    @given(operands, huge)
    def test_int_operands(self, x, n):
        self._check(x * n, (x.re * n, x.im * n))
        self._check(n * x, (x.re * n, x.im * n))
        self._check(x + n, (x.re + n, x.im))
        self._check(n - x, (n - x.re, -x.im))

    @given(operands, st.integers(min_value=0, max_value=5))
    def test_pow(self, x, e):
        want = (Fraction(1), Fraction(0))
        for _ in range(e):
            want = _ref_mul(want, (x.re, x.im))
        self._check(x**e, want)

    @given(parts, st.sampled_from([0, 1, 1000]))
    def test_real_base_pow(self, a, e):
        got = QComplex(a) ** e
        assert type(got.re) is Fraction and type(got.im) is Fraction and got.im == 0
        # a is in lowest terms, so its powered parts are too
        assert (got.re.numerator, got.re.denominator) == (a.numerator**e, a.denominator**e)
        assert got == QComplex(got.re) and hash(got) == hash(QComplex(got.re))

    @pytest.mark.parametrize("num", [QComplex(3), QComplex(0), QComplex(1, 1)])
    def test_division_by_real_zero_raises(self, num):
        for zero in (QComplex(0), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                num / zero


class TestLogMagnitude:
    """Log magnitudes are plain float logs: ``log_abs``, ``log_sum`` and ``exp_log``."""

    def test_zero_identity(self):
        assert log_abs(0) == log_abs(Fraction(0)) == log_abs(QComplex(0)) == log_abs(0.0) == NEG_INF
        assert log_abs(0) + log_abs(QComplex(7)) == NEG_INF  # a product with an exact zero is an exact zero
        assert log_sum((NEG_INF, 0.0)) == 0.0
        assert exp_log(NEG_INF) == 0.0

    def test_huge_products_no_overflow(self):
        big = log_abs(Fraction(2**100000))
        bigger = big + big + big
        assert math.isfinite(bigger)
        assert bigger == pytest.approx(300000 * math.log(2))

    def test_huge_complex_no_overflow(self):
        # both parts nonzero: the squared modulus is a rational far past the double range
        got = log_abs(QComplex(Fraction(3 * 2**100000), Fraction(4 * 2**100000)))
        assert got == pytest.approx(100000 * math.log(2) + math.log(5))
        assert log_abs(QComplex(0, -Fraction(1, 2**100000))) == pytest.approx(-100000 * math.log(2))

    @given(st.floats(min_value=-500, max_value=500), st.floats(min_value=-500, max_value=500))
    def test_add_is_log_sum(self, x, y):
        assert exp_log(log_sum((x, y))) == pytest.approx(math.exp(x) + math.exp(y), rel=1e-12)

    def test_exp_log_overflows_to_inf(self):
        assert exp_log(1000.0) == math.inf
        assert exp_log(math.inf) == math.inf
        assert exp_log(math.log(3.0)) == pytest.approx(3.0)

    def test_of_exact_fraction_matches_float(self):
        fr = Fraction(355, 113)
        assert log_abs(fr) == pytest.approx(math.log(355 / 113))

    def test_of_complex_parts(self):
        assert log_abs(QComplex(0, Fraction(-7))) == pytest.approx(math.log(7))
        assert log_abs(QComplex(3, 4)) == pytest.approx(math.log(5))

    def test_of_native_scalars(self):
        assert log_abs(-(10**400)) == pytest.approx(400 * math.log(10))
        assert log_abs(-2.5) == math.log(2.5)
        assert log_abs(3 + 4j) == pytest.approx(math.log(5))

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(["real", "imaginary", "mixed"]), triple_parts, triple_parts, triple_parts,
           st.integers(1, 2**80))
    # parts past 2^1100 put the value past 2^1020 or under 2^-1020, where log_ratio takes its far branch
    @example("real", 3 * 2**1100 + 1, 5, 7, 3**40)
    @example("imaginary", 1, -(2**1100 + 5), 2**1150 - 1, 2**79 + 1)
    @example("mixed", 2**1100 - 3, -(2**1101 + 7), 9, 1)
    @example("mixed", 5, -7, 2**1100 + 1, 6)
    def test_an_unreduced_triple_reads_as_its_reduced_value(self, kind, x, y, b, k):
        # log_triple of (x + iy)k / bk is the log_abs of the reduced QComplex to the bit, and the one of the three
        # Fraction cases (the axis part's log, else half the log of the squared modulus) computed here
        x, y, b = (0 if kind == "imaginary" else x), (0 if kind == "real" else y), abs(b)
        value = QComplex(Fraction(x, b), Fraction(y, b))
        if not value.im:
            want = log_fraction(abs(value.re))
        elif not value.re:
            want = log_fraction(abs(value.im))
        else:
            want = 0.5 * log_fraction(value.re * value.re + value.im * value.im)
        assert repr(log_triple(x * k, y * k, b * k)) == repr(log_abs(value)) == repr(want)
        assert repr(log_triple(*to_triple(value))) == repr(want)
        assert log_triple(0, 0, b * k) == NEG_INF

    def test_log_fraction_keeps_the_digits_next_to_1(self):
        # log p - log q rounds log(1 - 14^-14) to 0.0; |P_14(-1)| of F1 is 1 - 14^-14
        got = log_fraction(1 - Fraction(1, 14**14))
        assert abs(got + 14.0**-14) <= 1e-12 * 14.0**-14
        for fr in (Fraction(1, 2), Fraction(2, 3), Fraction(1001, 1000), Fraction(3, 2), Fraction(7, 3)):
            assert log_fraction(fr) == pytest.approx(math.log(fr.numerator / fr.denominator), rel=1e-15)
        assert log_fraction(Fraction(10**400 + 1, 10**400)) == 0.0  # 10^-400 underflows, no error
        with pytest.raises(ValueError):
            log_fraction(Fraction(0))

    def test_log_fraction_of_the_f3_sample_is_within_an_ulp(self):
        # |P_300(z)| of F3 at z = (3/128)(1 + 2^-40) has 27951- and 28201-bit parts; log p - log q
        # read its log 69 ulps from the 60-digit decimal one
        z = Fraction(3, 128) * (1 + Fraction(1, 2**40))
        value = make_family("F3").op(300).value_at(QComplex(z)).re
        assert _ulps(log_fraction(abs(value)), log_rational(value)) <= 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 14000), st.integers(-8, 8), st.integers(0, 64), st.data())
    def test_log_fraction_of_huge_parts_is_within_a_few_ulps(self, bits, spread, near, data):
        # p and q of close bit lengths (under 4300 digits, so a failing draw prints); for near > 0,
        # p = q (1 + e) with |e| <= 2^-near
        q = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        if near:
            p = q + data.draw(st.integers(-(q >> near), q >> near).filter(lambda d: d + q > 0))
        else:
            p = data.draw(st.integers(1, 2 ** max(1, bits + spread)))
        assert _ulps(log_fraction(Fraction(p, q)), log_rational(Fraction(p, q))) <= 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.sampled_from([-1020, -1019, -2, -1, 0, 1, 1019, 1020]), st.integers(-3000, 3000)),
        st.integers(1, 2**64), st.integers(0, 2**64 - 1), st.integers(1, 2**200),
    )
    @example(1019, 896727, 5794992457191552792, 614008)  # p, q and g p, g q differ in bit-length difference,
    @example(-1020, 950397, 5529725096132913496, 832969)  # one 1019 and the other 1020 in absolute value
    def test_log_ratio_depends_on_the_value_alone(self, e, base, spread, g):
        # p/q = 2^e (1 + t), t = spread 2^-64 in [0, 1), so e = floor(log2(p/q)) (e + 1 where rounding down
        # reaches 2^(e+1)): the log1p branch at e in {-1, 0}, the plain quotient while |e| < 1020 and the
        # scaled one past that, on both edges, where p, q and g p, g q differ in their bit-length difference
        if e >= 0:
            q, p = base, (base << e) + ((base << e) * spread >> 64)
        else:
            p, q = base, (base << (-e - 1)) + ((base << (-e - 1)) * spread >> 64)
        got = log_ratio(p, q)
        assert log_ratio(g * p, g * q) == got == log_fraction(Fraction(p, q))
        assert _ulps(got, log_rational(Fraction(p, q))) <= 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**5000), st.integers(1, 2**5000), st.integers(0, 3000))
    @example(2**4100, 2**100 + 1, 0)  # the top bits tie, and only the exact comparison finds p/q < 2^4000
    @example(3**2000 + 1, 1, 0)
    def test_log_ratio_matches_its_exact_division_form(self, p, q, shift):
        # the top 64 bits give floor(log2(p/q)) and the quotient x = (p 2^-e)/q where they decide them; the
        # reference takes both from exact int comparison and true division
        p <<= shift
        e = p.bit_length() - q.bit_length()
        e -= (p << -e if e < 0 else p) < (q << e if e > 0 else q)
        if abs(e) >= 1020:
            x = (p << -e) / q if e < 0 else p / (q << e)
            ln2_hi, ln2_lo = float.fromhex("0x1.62e42fee00000p-1"), float.fromhex("0x1.a39ef35793c76p-33")
            assert log_ratio(p, q) == math.fsum((e * ln2_hi, e * ln2_lo, math.log(x)))
        assert log_ratio(p, q) == log_ratio(q * p, q * q)

    def test_log_ratio_of_n_to_the_n_over_n_factorial_is_within_an_ulp(self):
        # the self-norm of F1's f_{n,0}, n^n/n!, crosses e = 1020 near n = 710; log p - log q was up to 12 ulps off
        for n in range(700, 2001):
            p, q = n**n, math.factorial(n)
            assert _ulps(log_ratio(p, q), log_rational(Fraction(p, q))) <= 1, n

    def test_log_ratio_rejects_nonpositive(self):
        for p, q in ((0, 1), (-3, 2), (1, 0), (2, -1)):
            with pytest.raises(ValueError):
                log_ratio(p, q)

    def test_sum_empty_and_overflow_free(self):
        assert log_sum([]) == NEG_INF
        assert log_sum([NEG_INF, NEG_INF]) == NEG_INF
        assert log_sum([1000.0, 999.0]) == pytest.approx(1000.0 + math.log1p(math.exp(-1)))

    def test_sum_is_correctly_rounded(self):
        # a plain left-to-right float sum rounds 1 + 10 * 1e-16 to 1
        logs = [0.0] + [math.log(1e-16)] * 10
        want = math.log(math.fsum(math.exp(x) for x in logs))
        assert want > 0.0
        assert log_sum(iter(logs)) == want

    def test_lone_term_is_returned_as_it_is(self):
        # hi + log(fsum([1.0])) is hi, so a one-term sum loses no bits
        for x in (-800.0, math.log(1e-16), -1.0, 0.5, 700.0, 1e308, math.inf):
            for logs in ([x], [NEG_INF, x, NEG_INF]):
                assert log_sum(iter(logs)) == x
            if math.isfinite(x):
                assert x + math.log(math.fsum([1.0])) == x

    def test_add_is_the_two_term_sum(self):
        logs = [-math.inf, -800.0, math.log(1e-16), -1.0, 0.0, 0.1, 1.0, 700.0, 1e308, math.inf]
        for a, b in itertools.product(logs, repeat=2):
            got = log_sum((a, b))
            assert type(got) is float and got == log_sum((b, a)), (a, b)
            if math.isinf(a) or math.isinf(b):
                assert got == max(a, b), (a, b)  # -inf adds nothing, inf absorbs everything
            else:
                hi, lo = max(a, b), min(a, b)
                want = hi + math.log1p(math.exp(lo - hi))
                assert got == pytest.approx(want, rel=2**-50, abs=2**-50), (a, b)


class TestLogFalling:
    def test_matches_the_exact_log(self):
        # lgamma(m + 1) - lgamma(m - s + 1) alone is off by 6.9e-11 relative at s = 1, m = 343706
        for m in (1, 2, 3, 44, 45, 46, 90, 91, 126, 535, 1316, 6813, 18688, 114492, 343706):
            for s in sorted({0, 1, 3, m // 45, m}):
                if s <= m:
                    want = math.log(math.perm(m, s))
                    assert abs(log_falling(m, s) - want) <= 1e-14 * want, (m, s)


# argument runs for ``factorial``: an ascending run, a repeat, a lone value (a backward or a long forward jump) and 0
_factorial_runs = st.lists(
    st.one_of(
        st.builds(lambda n, length: list(range(n, min(n + length, 3001))), st.integers(0, 3000), st.integers(1, 8)),
        st.integers(0, 3000).map(lambda n: [n] * 3),
        st.integers(0, 3000).map(lambda n: [n]),
        st.just([0]),
    ),
    min_size=1,
    max_size=8,
).map(lambda runs: [n for run in runs for n in run])


class TestFactorial:
    @settings(max_examples=200, deadline=None)
    @given(_factorial_runs)
    @example([0, 1, 2, 3, 3, 2999, 3000, 3000, 5, 0, 1500, 1501, 2, 3000, 0])
    def test_matches_math_factorial_in_any_call_order(self, ns):
        for n in ns:
            assert factorial(n) == math.factorial(n), n
            # the memo is one (n, n!) pair, the one just returned
            assert scalars._last_factorial == (n, math.factorial(n)), n

    def test_negative_argument_raises(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestLogMargin:
    def test_margin_is_rhs_minus_lhs_beyond_rounding(self):
        assert log_margin(1.0, 2.0) == 1.0
        assert log_margin(2.0, 1.0) == -1.0

    def test_tie_is_zero(self):
        assert log_margin(2.0, 2.0) == 0.0
        assert log_margin(2.0, 2.0 + 1e-15) == 0.0  # equal up to rounding

    def test_slack_edge(self):
        # the slack is relative to max(1, |lhs|, |rhs|)
        for scale in (1.0, 1e3):
            inside, outside = 0.5 * SLACK * scale, 2.0 * SLACK * scale
            assert log_margin(scale, scale + inside) == 0.0
            assert log_margin(scale, scale + outside) > 0
            assert log_margin(scale + outside, scale) < 0

    def test_two_exact_zeros(self):
        assert log_margin(float("-inf"), float("-inf")) == 0.0

    def test_one_infinite_side(self):
        assert log_margin(float("-inf"), 0.0) == math.inf
        assert log_margin(0.0, float("-inf")) == -math.inf
        assert log_margin(-1e300, float("inf")) == math.inf

    def test_nan_reads_neither_way(self):
        for lhs, rhs in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)):
            margin = log_margin(lhs, rhs)
            assert not margin > 0 and not margin >= 0

    @pytest.mark.parametrize("lhs, rhs", [(2.0, 2.0), (NEG_INF, NEG_INF), (2.0, 2.0 + 1e-15), (1e3, 1e3 - 1e-8)])
    def test_certify_tie_holds_only_non_strict(self, lhs, rhs):
        # an exact tie, and a tie within rounding either way
        assert certify("tie", lhs, rhs, strict=False)
        assert not certify("tie", lhs, rhs, raises=False)
        with pytest.raises(InvariantViolation) as info:
            certify("tie", lhs, rhs)
        assert str(info.value) == f"tie failed: log {lhs!r} < log {rhs!r} does not hold, margin 0.0"

    def test_certify_beyond_rounding(self):
        assert certify("bound", 1.0, 2.0) and certify("bound", 1.0, 2.0, strict=False)
        with pytest.raises(InvariantViolation) as info:
            certify("bound", 2.0, 1.0, strict=False)
        assert str(info.value) == "bound failed: log 2.0 <= log 1.0 does not hold, margin -1.0"

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 0.0), (0.0, math.nan)])
    @pytest.mark.parametrize("strict", [True, False])
    def test_certify_nan_side_fails(self, lhs, rhs, strict):
        assert not certify("nan", lhs, rhs, strict=strict, raises=False)
        with pytest.raises(InvariantViolation, match=r" does not hold, margin nan$"):
            certify("nan", lhs, rhs, strict=strict)


class TestScalarText:
    def test_rational_round_trip(self):
        assert parse_real("3/4") == Fraction(3, 4)
        assert parse_real("-12") == Fraction(-12)
        # a decimal is read as the nearest double, then as that double's exact value
        assert parse_real("0.5") == Fraction(1, 2)
        assert parse_real("0.1") == Fraction(0.1) != Fraction(1, 10)

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "1.5e400"])
    def test_decimal_overflow_rejected(self, token):
        with pytest.raises(ValueError):
            parse_real(token)

    def test_scalar_round_trip_exact(self):
        v = QComplex(Fraction(-3, 7), Fraction(22, 5))
        re, im = format_scalar(v).split(",")
        assert parse_scalar(re, im) == v

    def test_scalar_round_trip_float(self):
        # decimals in, the exact dyadic values out, in rational notation
        v = parse_scalar("0.1", "-2.5e-17")
        assert v == to_qcomplex(complex(0.1, -2.5e-17))
        re, im = format_scalar(v).split(",")
        assert "." not in re + im
        assert parse_scalar(re, im) == v

    def test_scale_by_int_huge(self):
        # a product past the double range in both directions stays exact
        tiny = to_qcomplex(1e-300)
        for big in (math.factorial(200), math.factorial(400)):
            out = scale_by_int(tiny, big)
            assert out == QComplex(Fraction(1e-300) * big)
            assert log_abs(out) == pytest.approx(math.log(1e-300) + math.log(big), rel=1e-12)

    def test_scale_by_int_exact(self):
        assert scale_by_int(QComplex(Fraction(1, 3)), 6) == QComplex(2)


def _strict_json(line):
    """The object on one JSON-lines line; a non-JSON constant (NaN, Infinity, -Infinity) raises."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(line, parse_constant=reject)


def _csv(rows, header="h"):
    out = io.StringIO()
    write_csv(out, header, rows)
    return out.getvalue()


def _jsonl(records):
    out = io.StringIO()
    write_jsonl(out, records)
    return out.getvalue()


class TestResultFiles:
    def test_csv_spells_each_cell_kind_once(self):
        row = (NEG_INF, math.inf, -1.5, 0.1, 1e300, True, False, 7, -12, Fraction(-2, 3), Fraction(4), "F4")
        assert _csv([row], "a,b") == "a,b\n-inf,inf,-1.5,0.1,1e+300,True,False,7,-12,-2/3,4,F4\n"

    def test_csv_writes_the_header_and_one_line_per_row(self):
        assert _csv([], "k,n_k") == "k,n_k\n"
        assert _csv(iter([(1, 2.0), [3, NEG_INF]]), "#taylor N=3") == "#taylor N=3\n1,2.0\n3,-inf\n"

    def test_json_spells_an_infinite_log_as_the_csv_does(self):
        text = _jsonl([{"lo": NEG_INF, "hi": math.inf, "mid": -1.5}])
        assert text == '{"hi": "inf", "lo": "-inf", "mid": -1.5}\n'
        record = _strict_json(text)
        assert [record["lo"], record["hi"]] == _csv([(NEG_INF, math.inf)]).split()[1].split(",")
        assert type(record["mid"]) is float

    def test_jsonl_spells_each_value_kind(self):
        records = [
            {"flag": True, "count": 3, "eps": str(Fraction(1, 4)), "name": "F4"},
            {"logs": [0.5, NEG_INF, [math.inf]], "notes": {"first": NEG_INF, "last": 2.0}},
            {"indices": (1, 6, 12), "pair": (NEG_INF, 0.25)},
        ]
        text = _jsonl(iter(records))
        assert text == (
            '{"count": 3, "eps": "1/4", "flag": true, "name": "F4"}\n'
            '{"logs": [0.5, "-inf", ["inf"]], "notes": {"first": "-inf", "last": 2.0}}\n'
            '{"indices": [1, 6, 12], "pair": ["-inf", 0.25]}\n'
        )
        parsed = [_strict_json(line) for line in text.splitlines()]
        assert parsed[0] == {"count": 3, "eps": "1/4", "flag": True, "name": "F4"}
        assert parsed[2]["indices"] == [1, 6, 12]

    def test_writers_leave_their_input_alone(self):
        record = {"logs": [NEG_INF], "pair": (math.inf,)}
        _jsonl([record])
        assert record == {"logs": [NEG_INF], "pair": (math.inf,)}

    @given(st.floats(allow_nan=False))
    def test_every_float_has_one_spelling(self, x):
        cell = _csv([(x,)]).splitlines()[1]
        assert cell == repr(x) == str(x)
        value = _strict_json(_jsonl([{"x": x}]))["x"]
        assert value == (cell if math.isinf(x) else x)
        assert float(cell) == x


class TestBoundaryConversion:
    def test_a_double_enters_as_its_exact_dyadic_value(self):
        assert to_qcomplex(0.1) == Fraction(0.1)
        assert to_qcomplex(0.1).re == Fraction(3602879701896397, 2**55)
        assert to_qcomplex(complex(-0.5, 2.0)) == QComplex(Fraction(-1, 2), 2)
        q = QComplex(Fraction(1, 3))
        assert to_qcomplex(q) is q
        assert to_qcomplex(7) == QComplex(7)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, complex(1, math.nan), complex(math.inf, 0)]
    )
    def test_non_finite_double_is_a_typed_error(self, value):
        with pytest.raises(PreconditionError, match="not a finite number"):
            to_qcomplex(value)

    def test_arithmetic_still_rejects_a_bare_float(self):
        with pytest.raises(TypeError):
            QComplex(1) + 0.5
        with pytest.raises(TypeError):
            QComplex(1) * 0.5
