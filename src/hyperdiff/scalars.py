"""Scalar ground types: exact rational complex numbers and log-domain magnitudes.

Two scalar regimes coexist throughout the package. ``QComplex`` carries exact
rational real/imaginary parts and supports equality-level algebra (right-inverse
identities, annihilation checks). Plain ``complex`` is the floating regime used
for growth/decay sweeps. Nonnegative sizes that would overflow any native type
(2**m, m!, A_k * m**d, ...) travel as ``LogMagnitude``: a natural logarithm with
-inf encoding an exact zero, so products and comparisons never overflow.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

from .errors import PreconditionError

LN2 = math.log(2.0)
NEG_INF = float("-inf")

# Relative guard band for log-domain strict inequalities; avoids spurious
# passes when both sides agree to rounding error.
GUARD = 1e-12


def log_lt(lhs: float, rhs: float, guard: float = GUARD) -> bool:
    """Strict ``lhs < rhs`` for log-domain floats with a relative guard band."""
    if lhs == NEG_INF:
        return rhs > NEG_INF
    if rhs == NEG_INF:
        return False
    return lhs < rhs - guard * max(1.0, abs(lhs), abs(rhs))


def log_fraction(fr: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerators/denominators."""
    if fr <= 0:
        raise ValueError("log_fraction needs a positive rational")
    return math.log(fr.numerator) - math.log(fr.denominator)


def falling_factorial(m: int, s: int) -> int:
    """Exact m·(m-1)···(m-s+1), 0 when s > m; ValueError on a negative argument."""
    return math.perm(m, s)


class QComplex:
    """Complex number with exact rational real and imaginary parts.

    Arithmetic stays exact; mixing with floats is rejected so the exact and
    floating regimes cannot silently contaminate each other. When both operands
    of +, -, * or / are real (zero imaginary part), the result comes from a
    single ``Fraction`` operation on the real parts.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "QComplex":
        if isinstance(value, QComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
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

Scalar = Union[QComplex, complex]


def is_exact(value) -> bool:
    return isinstance(value, (QComplex, int, Fraction))


def to_complex(value) -> complex:
    try:
        return complex(value)
    except OverflowError as exc:
        raise PreconditionError("an exact value beyond the double range entered the floating regime") from exc


def scale_by_int(value: Scalar, factor: int) -> Scalar:
    """value * factor for a possibly huge positive integer factor.

    Exact scalars multiply exactly. Floating scalars route through the log
    domain once the factor no longer fits a double, so a tiny coefficient times
    a huge falling factorial still lands on the representable product instead
    of overflowing at the intermediate step.
    """
    if isinstance(value, QComplex):
        return value * factor
    if factor.bit_length() <= 53:
        return value * factor
    mag = abs(value)
    if mag == 0.0:
        return 0j
    total = math.log(mag) + math.log(factor)
    if total > 709.0:
        return complex("inf") * (1 if value.real >= 0 else -1)
    return (value / mag) * math.exp(total)


def divide_by_int(value: Scalar, divisor: int) -> Scalar:
    """value / divisor for a possibly huge positive integer divisor."""
    if isinstance(value, QComplex):
        return value * QComplex(Fraction(1, divisor))
    if divisor.bit_length() <= 53:
        return value / divisor
    mag = abs(value)
    if mag == 0.0:
        return 0j
    total = math.log(mag) - math.log(divisor)
    if total < -745.0:
        return 0j
    return (value / mag) * math.exp(total)


class LogMagnitude:
    """A nonnegative magnitude stored as its natural logarithm.

    ``log == -inf`` encodes an exact zero, which keeps multiplication
    (log addition) and comparison total without special cases leaking out.
    """

    __slots__ = ("log",)

    def __init__(self, log: float):
        self.log = float(log)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogMagnitude":
        return cls(NEG_INF)

    @classmethod
    def one(cls) -> "LogMagnitude":
        return cls(0.0)

    @classmethod
    def of(cls, value) -> "LogMagnitude":
        """Magnitude |value| of any supported scalar, without overflow."""
        if isinstance(value, LogMagnitude):
            return value
        if isinstance(value, QComplex):
            # purely real/imaginary fast paths avoid squaring huge rationals
            if not value.im:
                return cls.of(value.re)
            if not value.re:
                return cls.of(value.im)
            sq = value.abs_squared()
            return cls(0.5 * log_fraction(sq))
        if isinstance(value, Fraction):
            if not value:
                return cls.zero()
            return cls(log_fraction(abs(value)))
        if isinstance(value, int):
            if not value:
                return cls.zero()
            return cls(math.log(abs(value)))
        if isinstance(value, complex):
            mag = abs(value)
            return cls(math.log(mag)) if mag else cls.zero()
        mag = abs(float(value))
        return cls(math.log(mag)) if mag else cls.zero()

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log == NEG_INF

    def value(self) -> float:
        """Collapse to a float; may round to 0.0 or inf outside double range."""
        if self.is_zero:
            return 0.0
        try:
            return math.exp(self.log)
        except OverflowError:
            return float("inf")

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "LogMagnitude") -> "LogMagnitude":
        if self.is_zero or other.is_zero:
            return LogMagnitude.zero()
        return LogMagnitude(self.log + other.log)

    def __truediv__(self, other: "LogMagnitude") -> "LogMagnitude":
        if other.is_zero:
            raise ZeroDivisionError("division by zero LogMagnitude")
        if self.is_zero:
            return LogMagnitude.zero()
        return LogMagnitude(self.log - other.log)

    def __add__(self, other: "LogMagnitude") -> "LogMagnitude":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = (self.log, other.log) if self.log >= other.log else (other.log, self.log)
        return LogMagnitude(hi + math.log1p(math.exp(lo - hi)))

    def __pow__(self, exponent: float) -> "LogMagnitude":
        if self.is_zero:
            if exponent == 0:
                return LogMagnitude.one()
            if exponent < 0:
                raise ZeroDivisionError("negative power of zero magnitude")
            return LogMagnitude.zero()
        return LogMagnitude(self.log * exponent)

    @staticmethod
    def sum(items: Iterable["LogMagnitude"]) -> "LogMagnitude":
        logs = [it.log for it in items if it.log != NEG_INF]
        if not logs:
            return LogMagnitude.zero()
        hi = max(logs)
        if hi == float("inf"):
            return LogMagnitude(hi)
        return LogMagnitude(hi + math.log(sum(math.exp(l - hi) for l in logs)))

    # -- comparisons -------------------------------------------------------

    def __lt__(self, other):
        return self.log < _as_log(other)

    def __le__(self, other):
        return self.log <= _as_log(other)

    def __gt__(self, other):
        return self.log > _as_log(other)

    def __ge__(self, other):
        return self.log >= _as_log(other)

    def __eq__(self, other):
        if isinstance(other, LogMagnitude):
            return self.log == other.log
        return NotImplemented

    def __hash__(self):
        return hash(self.log)

    def __repr__(self):
        return "LogMagnitude(zero)" if self.is_zero else f"LogMagnitude(log={self.log!r})"


def fmt_log(value: Union[float, "LogMagnitude"]) -> str:
    """Text form of a log-domain value: "-inf" for an exact zero, else repr of the log."""
    log = value.log if isinstance(value, LogMagnitude) else value
    return "-inf" if log == NEG_INF else repr(log)


def _as_log(other) -> float:
    if isinstance(other, LogMagnitude):
        return other.log
    raise TypeError("LogMagnitude compares only with LogMagnitude")


# -- scalar text format ------------------------------------------------------
#
# Coefficient files carry one `index,re,im` line per entry. Exact values use
# rational notation (`p/q` or a bare integer); floating values use the shortest
# round-tripping decimal produced by repr(). The two never mix in one file.
# Integers of any length go through Decimal, which the interpreter's limit on
# int/str conversion (4300 digits by default) does not apply to.

_RATIONAL = re.compile(r"([+-]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")


def format_real(value) -> str:
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return repr(float(value))


def parse_real(token: str):
    """Parse a real token: Fraction for rational notation, float for decimals."""
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
    return float(token)


def format_scalar(value: Scalar) -> str:
    if isinstance(value, QComplex):
        return f"{format_real(value.re)},{format_real(value.im)}"
    c = complex(value)
    return f"{format_real(c.real)},{format_real(c.imag)}"


def parse_scalar(re_token: str, im_token: str) -> Scalar:
    re_val = parse_real(re_token)
    im_val = parse_real(im_token)
    if isinstance(re_val, Fraction) and isinstance(im_val, Fraction):
        return QComplex(re_val, im_val)
    return complex(float(re_val), float(im_val))
