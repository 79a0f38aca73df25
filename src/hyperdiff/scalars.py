"""Scalar ground types: exact rational complex numbers and log-domain magnitudes.

Every coefficient and every point of the series kernel is a ``QComplex``, with
exact rational real/imaginary parts, so identities hold with equality
(right-inverse identities, annihilation checks). A double that comes from
outside (a library float coefficient, a non-real CLI point, a decimal in a
table) enters through ``to_qcomplex`` as its exact dyadic value. Nonnegative
sizes that would overflow any native type (2**m, m!, A_k * m**d, ...) travel
as their natural logarithm, a plain float with -inf for an exact zero: a product
is a sum of logs, a sum is ``log_sum``, and comparisons never overflow. Floats
stay only where a value is a measured estimate: log magnitudes, and the samples
of the F5 circle scan.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, TextIO

from .errors import InvariantViolation, PreconditionError

LN2 = math.log(2.0)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # fdlibm's split of ln 2, to 2^-86
NEG_INF = float("-inf")

# Rounding slack of ``log_margin``, relative to max(1, |lhs|, |rhs|). Error
# model: each side is a log computed with at most 2^20 roundings of relative
# size u = 2^-53 on operands no larger than that scale, and at most one
# log-sum-exp (``log_sum``) of K <= 2^20 terms, whose float sum is
# ``math.fsum``, correctly rounded: a relative error of at most u, not (K - 1)u,
# and so an absolute u to the log; a log-sum-exp passes its terms' log errors
# through unamplified. Both sides together err by at most 2 * (2^20 + 1) * u
# < 2^-31 < SLACK.
SLACK = 2.0**-30


def log_margin(lhs: float, rhs: float) -> float:
    """rhs - lhs for the inequality lhs < rhs between two logs, 0.0 within rounding.

    The margin reads 0.0 when |rhs - lhs| <= SLACK * max(1, |lhs|, |rhs|), so a
    tie within rounding decides nothing; two equal sides (two exact zeros,
    -inf, included) also give 0.0. One infinite side gives +-inf and a NaN side
    NaN. Read it as ``> 0`` (the inequality holds beyond rounding) or ``>= 0``
    (it is not violated beyond rounding); NaN fails both.
    """
    if lhs == rhs:
        return 0.0
    margin = rhs - lhs
    if abs(margin) <= SLACK * max(1.0, abs(lhs), abs(rhs)) < math.inf:
        return 0.0
    return margin


def certify(kind: str, lhs: float, rhs: float, *, strict: bool = True, raises: bool = True) -> bool:
    """Whether the log inequality lhs < rhs (lhs <= rhs when not ``strict``) holds, read through
    ``log_margin``: a tie within rounding certifies only the non-strict form, and a NaN side neither.
    A failure raises, when ``raises`` is set, an ``InvariantViolation`` naming kind, both logs and the margin."""
    margin = log_margin(lhs, rhs)
    if margin > 0 or not strict and margin >= 0:
        return True
    if raises:
        relation = "<" if strict else "<="
        raise InvariantViolation(f"{kind} failed: log {lhs!r} {relation} log {rhs!r} does not hold, margin {margin!r}")
    return False


def log_ratio(p: int, q: int) -> float:
    """Natural log of p/q for positive ints, within about an ulp. With e = floor(log2(p/q)): log1p((p - q)/q) for e
    in {-1, 0}, log(p / q) while |e| < 1020, else log(x) + e ln 2, x = (p 2^-e)/q correctly rounded and taken from the
    top 64 bits hp, hq of p and q where they decide it (then O(1)): each branch depends on the value p/q alone."""
    if p <= 0 or q <= 0:
        raise ValueError("log_ratio needs positive integers")
    e = (lp := p.bit_length()) - (lq := q.bit_length())
    hp, hq = p >> lp - 64 if lp > 64 else p << 64 - lp, q >> lq - 64 if lq > 64 else q << 64 - lq
    e -= (k := hp < hq or hp == hq and (p << -e if e < 0 else p) < (q << e if e > 0 else q))  # p/q < 2^e
    if -1 <= e <= 0:
        return math.log1p((p - q) / q)
    if abs(e) < 1020:
        return math.log(p / q)
    lo, hi = (hp << k) / (hq + 1), ((hp + 1) << k) / hq  # the ends of the range of x
    x = lo if lo == hi else (p << -e) / q if e < 0 else p / (q << e)
    return math.fsum((e * _LN2_HI, e * _LN2_LO, math.log(x)))  # e * _LN2_HI is exact while |e| < 2^20


def log_fraction(fr: Fraction) -> float:
    """Natural log of a positive rational, through ``log_ratio``."""
    return log_ratio(fr.numerator, fr.denominator)


def log_falling(m: int, s: int) -> float:
    """log(m!/(m-s)!) for 0 <= s <= m. lgamma(m+1) - lgamma(m-s+1), two values near m log m,
    errs by about u m/s relative (u = 2^-53; 6.9e-11 at m = 343706, s = 1), so while s < m/45 the
    s logs are summed with ``math.fsum`` instead, within about u; past that the difference errs by
    at most about 45u, and summing would cost more than m/45 logs."""
    if 45 * s < m:
        return math.fsum(math.log(m - i) for i in range(s))
    return math.lgamma(m + 1) - math.lgamma(m - s + 1)


class QComplex:
    """Complex number with exact rational real and imaginary parts.

    Arithmetic stays exact; a bare float operand is rejected, so a rounded
    value cannot slip into an identity (``to_qcomplex`` converts one on
    purpose). When both operands of +, -, * or / are real (zero imaginary
    part), the result comes from a single ``Fraction`` operation on the real
    parts.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "QComplex":
        if isinstance(value, QComplex):
            return value
        if isinstance(value, Fraction):
            return _real(value)
        if isinstance(value, int):
            return _real(Fraction(value))
        raise TypeError(f"cannot coerce {type(value).__name__} to QComplex exactly")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QComplex(other)
        if not isinstance(other, QComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = QComplex.coerce(other)
        if not (self.im or other.im):
            return _real(self.re + other.re)
        return QComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QComplex.coerce(other)
        if not (self.im or other.im):
            return _real(self.re - other.re)
        return QComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QComplex.coerce(other).__sub__(self)

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, int):
            if not self.im:
                return _real(self.re * other)
            return QComplex(self.re * other, self.im * other)
        other = QComplex.coerce(other)
        if not (self.im or other.im):
            return _real(self.re * other.re)
        return QComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QComplex.coerce(other)
        if not (self.im or other.im):
            return _real(self.re / other.re)  # Fraction raises ZeroDivisionError on 0
        den = other.re * other.re + other.im * other.im
        if not den:
            raise ZeroDivisionError("division by zero QComplex")
        return QComplex(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("QComplex powers take nonnegative integer exponents")
        if not self.im:
            return _real(self.re**exponent)
        result = QC_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs_squared()))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


_F0 = Fraction(0)


def _real(re: Fraction) -> QComplex:
    """QComplex(re) for a Fraction, sharing one zero imaginary part and skipping coercion."""
    out = object.__new__(QComplex)
    out.re, out.im = re, _F0
    return out


QC_ZERO = QComplex(0, 0)
QC_ONE = QComplex(1, 0)


def to_qcomplex(value) -> QComplex:
    """value as a QComplex: an exact value as it is, a double or complex double as its exact
    dyadic value. The one door from floats into the exact regime; a NaN or infinite part raises."""
    if isinstance(value, (float, complex)):
        value = complex(value)
        if not cmath.isfinite(value):
            raise PreconditionError(f"{value!r} is not a finite number")
        return QComplex(Fraction(value.real), Fraction(value.imag))
    return QComplex.coerce(value)


def to_complex(value) -> complex:
    try:
        return complex(value)
    except OverflowError as exc:
        raise PreconditionError("an exact value beyond the double range entered a float sample") from exc


def scale_by_int(value: QComplex, factor: int) -> QComplex:
    """value * factor, exactly, for a possibly huge positive integer factor."""
    return value * factor


def divide_by_int(value: QComplex, divisor: int) -> QComplex:
    """value / divisor, exactly, for a possibly huge positive integer divisor."""
    return value * QComplex(Fraction(1, divisor))


def log_abs(value) -> float:
    """log |value| of any supported scalar, without overflow; -inf for an exact zero."""
    if isinstance(value, QComplex):
        # purely real/imaginary fast paths avoid squaring huge rationals
        if not value.im:
            return log_abs(value.re)
        if not value.re:
            return log_abs(value.im)
        return 0.5 * log_fraction(value.abs_squared())
    if isinstance(value, Fraction):
        return log_fraction(abs(value)) if value else NEG_INF
    mag = abs(value) if isinstance(value, (int, complex)) else abs(float(value))
    return math.log(mag) if mag else NEG_INF


def log_sum(logs: Iterable[float]) -> float:
    """log(sum(exp(l))) over logs, summed by ``math.fsum`` (correctly rounded on every Python):
    -inf for no term or only -inf terms, inf if a term is inf, a lone term as it is (hi + log 1)."""
    logs = [l for l in logs if l != NEG_INF]
    if len(logs) < 2:
        return logs[0] if logs else NEG_INF
    hi = max(logs)
    if hi == math.inf:
        return hi
    return hi + math.log(math.fsum(math.exp(l - hi) for l in logs))


def exp_log(log: float) -> float:
    """The magnitude exp(log) as a float: 0.0 at -inf, inf past the double range."""
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


# -- result files ------------------------------------------------------------


def write_csv(out: TextIO, header: str, rows: Iterable[Iterable]) -> None:
    """The one text form of a result table: the header line, then each row's cells as str(cell)
    joined by commas. A float cell is its shortest repr ("-inf" and "inf" included), a bool
    True/False, a Fraction p/q."""
    out.write(header + "\n")
    out.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_jsonl(out: TextIO, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted, a tuple as a list, and an infinite float at any depth
    as its CSV text "-inf" or "inf" (``json.dumps`` would write the non-JSON token -Infinity)."""
    out.writelines(json.dumps(_json_value(record), sort_keys=True) + "\n" for record in records)


def _json_value(value):
    if isinstance(value, float):
        return str(value) if math.isinf(value) else value
    if isinstance(value, dict):
        return {key: _json_value(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(val) for val in value]
    return value


# -- scalar text format ------------------------------------------------------
#
# Coefficient files carry one `index,re,im` line per entry, written in rational
# notation (`p/q` or a bare integer). A decimal token on input is read as the
# nearest double, which then enters as its exact dyadic value.
# Integers of any length go through Decimal, which the interpreter's limit on
# int/str conversion (4300 digits by default) does not apply to.

_RATIONAL = re.compile(r"([+-]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")


def format_real(value: Fraction) -> str:
    num = str(Decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


def parse_real(token: str) -> Fraction:
    """Parse a real token: rational notation exactly, a decimal as its double's exact value."""
    token = token.strip()
    if not token:
        raise ValueError("empty numeric token")
    rational = _RATIONAL.fullmatch(token)
    if rational:
        num, den = rational.groups()
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
    if "/" in token or not any(ch in token for ch in ".eE"):
        raise ValueError(f"bad numeric token {token!r}")
    if token.lstrip("+-").replace(".", "").replace("e", "").replace("E", "") == "":
        raise ValueError(f"bad numeric token {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"numeric token {token!r} is not a finite double")
    return to_qcomplex(value).re


def format_scalar(value: QComplex) -> str:
    return f"{format_real(value.re)},{format_real(value.im)}"


def parse_scalar(re_token: str, im_token: str) -> QComplex:
    return QComplex(parse_real(re_token), parse_real(im_token))
