"""Truncated power series, polynomial differential operators, and their action.

Every "entire function" handled here is a truncated Taylor polynomial with an
explicit truncation degree; operations that drop tails report a majorant bound
for what was dropped. Coefficients live in one of two regimes (exact rational
complex or double complex) and never mix inside a single object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, TextIO, Tuple, Union

from .scalars import (
    LogMagnitude,
    QComplex,
    QC_ONE,
    QC_ZERO,
    Scalar,
    falling_factorial,
    format_scalar,
    is_exact,
    parse_scalar,
    scale_by_int,
    to_complex,
)

CoeffLike = Union[QComplex, complex, float, int, Fraction]


def _coerce_coeffs(values: Iterable[CoeffLike]) -> Tuple[tuple, bool]:
    """Normalize a coefficient list to one regime; returns (coeffs, exact)."""
    raw = list(values)
    exact = all(is_exact(v) for v in raw)
    if exact:
        out = []
        for v in raw:
            q = QComplex.coerce(v)
            out.append(q if q else QC_ZERO)
        return tuple(out), True
    return tuple(to_complex(v) for v in raw), False


class TaylorPolynomial:
    """A truncated entire function sum(a_j z^j, j=0..N) with explicit N.

    The stored length is the truncation degree plus one and is preserved by
    construction even when the top coefficients are zero; equality compares
    values after stripping trailing zeros.
    """

    __slots__ = ("coeffs", "exact", "_support")

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        cs, exact = _coerce_coeffs(coeffs)
        self.coeffs = cs
        self.exact = exact
        self._support = tuple(i for i, c in enumerate(cs) if c is not QC_ZERO and c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, coeffs: tuple, exact: bool, support: tuple) -> "TaylorPolynomial":
        """Internal constructor for callers that already guarantee invariants."""
        obj = object.__new__(cls)
        obj.coeffs = coeffs
        obj.exact = exact
        obj._support = support
        return obj

    @classmethod
    def zero(cls, exact: bool = True) -> "TaylorPolynomial":
        if exact:
            return cls._raw((), True, ())
        return cls._raw((0j,), False, ())

    @classmethod
    def monomial(cls, degree: int, coeff: CoeffLike = 1) -> "TaylorPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        zero: CoeffLike = QC_ZERO if is_exact(coeff) else 0j
        return cls([zero] * degree + [coeff])

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, CoeffLike]]) -> "TaylorPolynomial":
        items = list(pairs)
        if not items:
            return cls.zero()
        if any(j < 0 for j, _ in items):
            raise ValueError("negative exponent")
        top = max(j for j, _ in items)
        exact = all(is_exact(c) for _, c in items)
        zero: CoeffLike = QC_ZERO if exact else 0j
        out = [zero] * (top + 1)
        touched = set()
        for j, c in items:
            out[j] = out[j] + (QComplex.coerce(c) if exact else to_complex(c))
            touched.add(j)
        support = []
        for j in sorted(touched):
            if out[j]:
                support.append(j)
            else:
                out[j] = zero
        return cls._raw(tuple(out), exact, tuple(support))

    # -- structure ---------------------------------------------------------

    @property
    def truncation(self) -> int:
        """Explicit truncation degree N (-1 for the empty zero polynomial)."""
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        """Greatest exponent with a nonzero coefficient (-1 for zero)."""
        return self._support[-1] if self._support else -1

    @property
    def is_zero(self) -> bool:
        return not self._support

    def support(self) -> Tuple[int, ...]:
        return self._support

    def coefficient(self, j: int) -> Scalar:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return QC_ZERO if self.exact else 0j

    def __eq__(self, other):
        if not isinstance(other, TaylorPolynomial):
            return NotImplemented
        if self.exact != other.exact:
            return self.is_zero and other.is_zero
        d = max(self.degree, other.degree)
        return all(self.coefficient(j) == other.coefficient(j) for j in range(d + 1))

    def __hash__(self):
        return hash(tuple(self.coeffs[: self.degree + 1]))

    def __repr__(self):
        if self.is_zero:
            return "TaylorPolynomial(0)"
        parts = [f"{self.coeffs[j]}*z^{j}" for j in self._support[:4]]
        if len(self._support) > 4:
            parts.append("...")
        return f"TaylorPolynomial({' + '.join(parts)}; N={self.truncation})"

    # -- linear algebra ----------------------------------------------------

    def _zero_coeff(self):
        return QC_ZERO if self.exact else 0j

    def __add__(self, other: "TaylorPolynomial") -> "TaylorPolynomial":
        if not isinstance(other, TaylorPolynomial):
            return NotImplemented
        a, b = self, other
        if a.exact != b.exact:
            a, b = a.to_float(), b.to_float()
        if len(b.coeffs) > len(a.coeffs):
            a, b = b, a
        out = list(a.coeffs)
        support = set(a._support)
        zero = a._zero_coeff()
        for j in b._support:
            s = out[j] + b.coeffs[j]
            if s:
                out[j] = s
                support.add(j)
            else:
                out[j] = zero
                support.discard(j)
        return TaylorPolynomial._raw(tuple(out), a.exact, tuple(sorted(support)))

    def __neg__(self) -> "TaylorPolynomial":
        return self.scale(-1 if self.exact else -1.0)

    def __sub__(self, other: "TaylorPolynomial") -> "TaylorPolynomial":
        return self + (-other)

    def scale(self, factor: CoeffLike) -> "TaylorPolynomial":
        if self.exact and is_exact(factor):
            f = QComplex.coerce(factor)
            if not f:
                return TaylorPolynomial._raw((QC_ZERO,) * len(self.coeffs), True, ())
            out = [QC_ZERO] * len(self.coeffs)
            for j in self._support:
                out[j] = self.coeffs[j] * f
            return TaylorPolynomial._raw(tuple(out), True, self._support)
        f = to_complex(factor)
        me = self.to_float()
        out_f = [0j] * len(me.coeffs)
        support = []
        for j in me._support:
            v = me.coeffs[j] * f
            if v:
                out_f[j] = v
                support.append(j)
        return TaylorPolynomial._raw(tuple(out_f), False, tuple(support))

    def to_float(self) -> "TaylorPolynomial":
        if not self.exact:
            return self
        out = [0j] * max(1, len(self.coeffs))
        support = []
        for j in self._support:
            v = to_complex(self.coeffs[j])
            if v:
                out[j] = v
                support.append(j)
        return TaylorPolynomial._raw(tuple(out), False, tuple(support))

    # -- analysis ----------------------------------------------------------

    def differentiate(self, order: int = 1) -> "TaylorPolynomial":
        """Exact coefficient shift a_i -> a_{i+order} * (i+order)!/i!.

        The falling factorial is taken as an exact integer, so no intermediate
        overflow occurs in either regime even for orders in the tens of
        thousands.
        """
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self
        n = len(self.coeffs) - order
        if n <= 0:
            return TaylorPolynomial.zero(exact=self.exact)
        out = [self._zero_coeff()] * n
        support = []
        for i in self._support:
            if i < order:
                continue
            v = scale_by_int(self.coeffs[i], falling_factorial(i, order))
            if v:
                out[i - order] = v
                support.append(i - order)
        return TaylorPolynomial._raw(tuple(out), self.exact, tuple(support))

    def evaluate(self, z: CoeffLike) -> Scalar:
        """Horner evaluation; exact when both the series and the point are exact."""
        if self.is_zero:
            return QC_ZERO if (self.exact and is_exact(z)) else 0j
        if self.exact and is_exact(z):
            zq = QComplex.coerce(z)
            acc = QC_ZERO
            for c in reversed(self.coeffs):
                acc = acc * zq + c
            return acc
        zf = to_complex(z)
        acc = 0j
        for c in reversed(self.to_float().coeffs):
            acc = acc * zf + c
        return acc

    def majorant_norm(self, r: float) -> LogMagnitude:
        """Coefficient majorant sum(|a_j| r^j) in the log domain.

        Upper-bounds the sup of |f| on the closed disk of radius r.
        """
        if r <= 0:
            raise ValueError("majorant radius must be positive")
        log_r = math.log(r)
        terms = []
        for j in self._support:
            mag = LogMagnitude.of(self.coeffs[j])
            terms.append(LogMagnitude(mag.log + j * log_r))
        return LogMagnitude.sum(terms)


class PolynomialOperator:
    """A nonconstant polynomial P(z) = sum(c_j z^j, j=m..d) acting as P(D).

    The valence m is the least exponent with nonzero coefficient, the degree d
    the greatest; both coefficients are required nonzero on construction.
    """

    __slots__ = ("valence", "degree", "coeffs", "exact")

    def __init__(self, coeffs_by_degree):
        if isinstance(coeffs_by_degree, dict):
            items = sorted(coeffs_by_degree.items())
        else:
            items = sorted(coeffs_by_degree)
        items = [(j, c) for j, c in items if c]
        if not items:
            raise ValueError("operator polynomial has no nonzero coefficients")
        m = items[0][0]
        d = items[-1][0]
        if m < 0:
            raise ValueError("negative exponent in operator polynomial")
        if d < 1:
            raise ValueError("operator polynomial must be nonconstant (degree >= 1)")
        exact = all(is_exact(c) for _, c in items)
        zero: CoeffLike = QC_ZERO if exact else 0j
        row = [zero] * (d - m + 1)
        for j, c in items:
            row[j - m] = QComplex.coerce(c) if exact else to_complex(c)
        if not row[0] or not row[-1]:
            raise ValueError("operator coefficients at valence and degree must be nonzero")
        self.valence = m
        self.degree = d
        self.coeffs = tuple(row)
        self.exact = exact

    def coefficient(self, j: int) -> Scalar:
        if self.valence <= j <= self.degree:
            return self.coeffs[j - self.valence]
        return QC_ZERO if self.exact else 0j

    def terms(self):
        for offset, c in enumerate(self.coeffs):
            if c:
                yield self.valence + offset, c

    def value_at(self, w: CoeffLike) -> Scalar:
        """P(w) by Horner; the eigenvalue of P(D) on e_w."""
        if self.exact and is_exact(w):
            wq = QComplex.coerce(w)
            acc = QC_ZERO
            for c in reversed(self.coeffs):
                acc = acc * wq + c
            return acc * wq**self.valence
        wf = to_complex(w)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * wf + to_complex(c)
        return acc * wf**self.valence

    def coeff_abs_log_sum(self) -> LogMagnitude:
        """log of A = sum(|c_j|), the coefficient absolute sum."""
        return LogMagnitude.sum(LogMagnitude.of(c) for _, c in self.terms())

    def derivative_majorant(self, r: float) -> LogMagnitude:
        """log of B = sum(j |c_j| r^(j-1)), a sup bound for |P'| on |z| = r."""
        if r <= 0:
            raise ValueError("radius must be positive")
        log_r = math.log(r)
        return LogMagnitude.sum(
            LogMagnitude(LogMagnitude.of(c).log + math.log(j) + (j - 1) * log_r)
            for j, c in self.terms()
            if j >= 1
        )

    def to_float(self) -> "PolynomialOperator":
        if not self.exact:
            return self
        return PolynomialOperator({j: to_complex(c) for j, c in self.terms()})

    def __eq__(self, other):
        if not isinstance(other, PolynomialOperator):
            return NotImplemented
        return (
            self.exact == other.exact
            and self.valence == other.valence
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = " + ".join(f"{c}*z^{j}" for j, c in list(self.terms())[:4])
        return f"PolynomialOperator({body}; m={self.valence}, d={self.degree})"


class ExponentialCombo:
    """A finite combination sum(weight_t * e^(w_t z)) with distinct frequencies."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[CoeffLike, CoeffLike]] = ()):
        items = list(terms)
        freqs = [to_complex(w) for _, w in items]
        if len(set(freqs)) != len(freqs):
            raise ValueError("exponential combo frequencies must be pairwise distinct")
        self.terms = tuple(items)

    @property
    def is_zero(self) -> bool:
        return not any(a for a, _ in self.terms)

    def truncate(self, n: int, r: float = 1.0) -> Tuple[TaylorPolynomial, LogMagnitude]:
        """Sum of truncated exponentials plus a combined tail majorant."""
        total = TaylorPolynomial.zero()
        tails = []
        for weight, freq in self.terms:
            base, tail = exp_truncate(freq, n, r)
            total = total + base.scale(weight)
            tails.append(LogMagnitude.of(weight) * tail)
        return total, LogMagnitude.sum(tails)


# -- operations ---------------------------------------------------------------


def apply_operator(op: PolynomialOperator, f: TaylorPolynomial) -> TaylorPolynomial:
    """P(D) f = sum(c_j f^(j)), linear in f, exact in the exact regime."""
    if op.exact and not f.exact:
        op = op.to_float()
    elif f.exact and not op.exact:
        f = f.to_float()
    result = TaylorPolynomial.zero(exact=f.exact)
    for j, c in op.terms():
        result = result + f.differentiate(j).scale(c)
    return result


def exp_truncate(w: CoeffLike, n: int, r: float) -> Tuple[TaylorPolynomial, LogMagnitude]:
    """Degree-n truncation of e^(wz) plus a majorant for the dropped tail.

    The tail bound dominates sum(|w|^j r^j / j!, j > n); a geometric majorant
    of the remainder is used when |w| r < n + 2, else the crude bound e^(|w| r).
    """
    if n < 0:
        raise ValueError("truncation degree must be >= 0")
    if r <= 0:
        raise ValueError("radius must be positive")
    if is_exact(w):
        wq = QComplex.coerce(w)
        coeffs = [QC_ONE]
        for j in range(1, n + 1):
            coeffs.append(coeffs[-1] * wq * QComplex(Fraction(1, j)))
        poly = TaylorPolynomial(coeffs)
        x = LogMagnitude.of(wq).value() * r
    else:
        wf = to_complex(w)
        coeffs_f = [1 + 0j]
        for j in range(1, n + 1):
            coeffs_f.append(coeffs_f[-1] * wf / j)
        poly = TaylorPolynomial(coeffs_f)
        x = abs(wf) * r
    if x == 0.0:
        return poly, LogMagnitude.zero()
    log_x = math.log(x)
    head = (n + 1) * log_x - math.lgamma(n + 2)
    if x < n + 2:
        tail = LogMagnitude(head - math.log1p(-x / (n + 2)))
    else:
        tail = LogMagnitude(x)
    return poly, tail


def eigen_defect_bound(op: PolynomialOperator, w: CoeffLike, n: int, r: float) -> LogMagnitude:
    """Majorant bound for P(D)E_n - P(w)E_n where E_n truncates e_w at degree n.

    Exact coefficient bookkeeping gives the defect coefficients as the dropped
    blocks of each shifted truncation; the bound is their coefficient majorant
    and therefore certifies the operator/eigenvalue consistency check.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    mag_w = LogMagnitude.of(QComplex.coerce(w) if is_exact(w) else to_complex(w))
    x_log = (mag_w * LogMagnitude(math.log(r))).log if not mag_w.is_zero else None
    if x_log is None:
        return LogMagnitude.zero()
    terms = []
    for s, c in op.terms():
        lo = max(0, n - s + 1)
        inner = LogMagnitude.sum(
            LogMagnitude(i * x_log - math.lgamma(i + 1)) for i in range(lo, n + 1)
        )
        if inner.is_zero:
            continue
        base = LogMagnitude.of(c) * (mag_w**s)
        terms.append(base * inner)
    return LogMagnitude.sum(terms)


# -- coefficient files --------------------------------------------------------
#
# Format: a header line `#taylor N=<degree>` or `#operator m=<valence> d=<degree>`
# followed by one `index,re,im` line per stored coefficient. Rational notation
# marks the exact regime, decimal notation the floating one.


def write_taylor(f: TaylorPolynomial, out: TextIO) -> None:
    out.write(f"#taylor N={f.truncation}\n")
    for j in f.support():
        out.write(f"{j},{format_scalar(f.coeffs[j])}\n")


def write_operator(op: PolynomialOperator, out: TextIO) -> None:
    out.write(f"#operator m={op.valence} d={op.degree}\n")
    for j, c in op.terms():
        out.write(f"{j},{format_scalar(c)}\n")


def _parse_body(lines) -> list:
    entries = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad coefficient line {line!r}")
        entries.append((int(parts[0]), parse_scalar(parts[1], parts[2])))
    return entries


def read_coefficients(source: TextIO):
    """Parse a coefficient file into a TaylorPolynomial or PolynomialOperator."""
    lines = source.read().splitlines()
    header = next(
        (
            l.strip()
            for l in lines
            if l.strip().startswith("#taylor") or l.strip().startswith("#operator")
        ),
        "",
    )
    if header.startswith("#taylor"):
        n = int(header.split("N=")[1])
        entries = _parse_body(lines)
        exact = all(isinstance(c, QComplex) for _, c in entries)
        zero: CoeffLike = QC_ZERO if exact else 0j
        out = [zero] * (n + 1)
        for j, c in entries:
            if j > n:
                raise ValueError(f"coefficient index {j} exceeds declared N={n}")
            out[j] = c
        return TaylorPolynomial(out)
    if header.startswith("#operator"):
        entries = _parse_body(lines)
        return PolynomialOperator(entries)
    raise ValueError("missing #taylor or #operator header")
