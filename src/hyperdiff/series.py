"""Truncated power series, polynomial differential operators, and their action.

Every "entire function" handled here is a truncated Taylor polynomial with an
explicit truncation degree, stored as its nonzero terms: the paper's right
inverses and lacunary members occupy a few degrees far above zero. Operations
that drop tails report a majorant bound for what was dropped. Every
coefficient is an exact rational complex number (``QComplex``); a float given
as a coefficient or a point enters as its exact dyadic value, so each
operation has one exact kernel path. Both polynomial kinds share one sparse
term map (``_Reducible``): F1–F3 operators and right inverses hold it as
unreduced Gaussian-integer triples (x, y, b), c = (x + iy)/b, until a coefficient
is read, and exact evaluation reads the triples as they are held. Real and
complex polynomials alike stay triples through differentiation, scaling, sums
and differences, so through ``apply_operator``: a sum reduces only a degree both
operands hold, and majorant norms read the triples. A coefficient text is
split into its ``#taylor`` / ``#operator`` blocks by one reader, ``read_blocks``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, TextIO, Tuple, Union

from .scalars import (
    NEG_INF,
    QComplex,
    QC_ONE,
    QC_ZERO,
    exp_log,
    format_scalar,
    log_abs,
    log_sum,
    log_triple,
    parse_scalar,
    to_complex,
    to_qcomplex,
    to_triple,
    write_csv,
)

CoeffLike = Union[QComplex, complex, float, int, Fraction]


def _coerce_terms(items: Iterable[Tuple[int, CoeffLike]]) -> dict:
    """{j: a_j} as QComplex from (j, a_j) pairs, distinct j in increasing order, without the zeros."""
    return {j: v for j, c in items if (v := to_qcomplex(c))}


def _majorant_log(terms: Iterable[Tuple[int, QComplex]], log_r: float) -> float:
    """log of sum(|c_j| r^j) over (j, c_j) pairs, from log r, so r itself may lie past the double range."""
    return log_sum(log_abs(c) + j * log_r for j, c in terms)


def _exact_horner(form: tuple, w: QComplex) -> QComplex:
    """sum(c_j w^(j-m)) from ``_Reducible._integer_form``: with w = u / q, Horner sums S = sum((X_j + i Y_j)
    u^(j-m) q^(d-j)) in ints, in one lane for a real w on real c_j, and S / (D q^(d-m)) reduces once."""
    den, xs, ys = form
    q = math.lcm(w.re.denominator, w.im.denominator)
    ur, ui = w.re.numerator * (q // w.re.denominator), w.im.numerator * (q // w.im.denominator)
    sr, si, qk = 0, 0, 1  # qk = q^(d-j)
    if ui or any(ys):
        for xr, xi in zip(xs, ys):
            sr, si = sr * ur - si * ui + xr * qk, sr * ui + si * ur + xi * qk
            qk *= q
    else:
        for x in xs:
            sr = sr * ur + x * qk
            qk *= q
    scale = den * (qk // q)
    return QComplex(Fraction(sr, scale), Fraction(si, scale) if si else 0)


class _Reducible:
    """A sparse exact polynomial: its nonzero terms {j: c_j} in increasing j, which may arrive as unreduced
    Gaussian-integer triples {j: (x, y, b)}, c_j = (x + iy)/b with b > 0 and (x, y) != (0, 0), held (``_terms``
    None) until the first read reduces each triple (a real one, y = 0, by one Fraction) and drops them. Structure
    reads (``_held``, ``degree``), ``_triple_terms`` and the integer form read the triples as held."""

    __slots__ = ()

    def _reduced_terms(self) -> dict:
        if self._terms is None:
            self._terms = {j: QComplex(Fraction(x, b), Fraction(y, b)) if y else QComplex.coerce(Fraction(x, b))
                           for j, (x, y, b) in self._triples.items()}  # a real triple by one Fraction
            self._triples = None
        return self._terms

    @property
    def _held(self) -> dict:
        """The term map as held: the triples, or the reduced terms; both have the same keys."""
        return self._triples or self._terms

    @property
    def degree(self) -> int:
        """Greatest exponent with a nonzero coefficient (-1 for zero)."""
        return next(reversed(self._held), -1)

    def terms(self):
        """The (j, c_j) pairs with c_j nonzero, in increasing j."""
        return self._reduced_terms().items()

    def coefficient(self, j: int) -> QComplex:
        return self._reduced_terms().get(j, QC_ZERO)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._reduced_terms() == other._reduced_terms()

    def _triple_terms(self) -> dict:
        """The terms as triples {j: (x, y, b)}: held triples as they are, reduced terms over their parts' least
        common denominator."""
        return self._triples if self._terms is None else {j: to_triple(c) for j, c in self._terms.items()}

    def _integer_form(self, m: int) -> tuple:
        """(D, X, Y) with c_j = (X_j + i Y_j) / D over one common denominator D; X and Y list j = degree down
        to m, 0 at a gap, and Y is all 0 when every c_j is real."""
        triples, den = self._triple_terms(), 1
        for _, _, b in triples.values():
            if b != 1 and den % b:  # den % 1 costs the length of a huge den
                den = den // math.gcd(den, b) * b
        span = [triples.get(j, (0, 0, 1)) for j in range(self.degree, m - 1, -1)]
        return den, [x * (den // b) for x, _, b in span], [y and y * (den // b) for _, y, b in span]


class TaylorPolynomial(_Reducible):
    """A truncated entire function sum(a_j z^j, j=0..N) with explicit N.

    Stored as its nonzero terms, a map {j: a_j} in increasing j, beside the
    truncation degree N. Construction preserves N even when the top
    coefficients are zero; the zero polynomial has N = -1. Equality compares
    values and ignores N. Coefficients may be held as unreduced Gaussian-integer triples (``_Reducible``):
    ``degree``, ``is_zero``, ``support``, ``evaluate`` and ``majorant_norm`` read them as held, and
    ``differentiate``, ``scale``, ``+`` and ``-`` return triples, reducing only where two terms meet.
    """

    __slots__ = ("_terms", "_triples", "truncation")

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        raw = list(coeffs)
        self._terms, self._triples, self.truncation = _coerce_terms(enumerate(raw)), None, len(raw) - 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, terms: Optional[dict], truncation: int, held: Optional[dict] = None) -> "TaylorPolynomial":
        """Internal constructor for callers that already guarantee invariants: terms, or triples ({} is terms)."""
        obj = object.__new__(cls)
        obj._terms, obj._triples, obj.truncation = (None, held, truncation) if held else (terms or {}, None, truncation)
        return obj

    @classmethod
    def zero(cls) -> "TaylorPolynomial":
        return cls._raw({}, -1)

    @classmethod
    def monomial(cls, degree: int, coeff: CoeffLike = 1) -> "TaylorPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls._raw(_coerce_terms([(degree, coeff)]), degree)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, CoeffLike]]) -> "TaylorPolynomial":
        """Sum of the terms a z^j; repeated exponents add up."""
        items = list(pairs)
        if not items:
            return cls.zero()
        if any(j < 0 for j, _ in items):
            raise ValueError("negative exponent")
        out: dict = {}
        for j, c in items:
            out[j] = out.get(j, QC_ZERO) + to_qcomplex(c)
        terms = {j: out[j] for j in sorted(out) if out[j]}
        return cls._raw(terms, max(out))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._held

    def support(self) -> Tuple[int, ...]:
        return tuple(self._held)

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __repr__(self):
        if self.is_zero:
            return "TaylorPolynomial(0)"
        items = list(self.terms())
        parts = [f"{c}*z^{j}" for j, c in items[:4]]
        if len(items) > 4:
            parts.append("...")
        return f"TaylorPolynomial({' + '.join(parts)}; N={self.truncation})"

    # -- linear algebra ----------------------------------------------------

    def __add__(self, other: "TaylorPolynomial") -> "TaylorPolynomial":
        if not isinstance(other, TaylorPolynomial):
            return NotImplemented
        a, b = (self, other) if self.truncation >= other.truncation else (other, self)
        out = dict(a._triple_terms())  # a degree one side holds is copied as it is; one both hold is reduced once
        for j, (x, y, d) in b._triple_terms().items():
            if j not in out:
                out[j] = x, y, d
                continue
            u, v, e = out.pop(j)
            sx, sy, sb = u * d + x * e, v * d + y * e, e * d
            if sx or sy:  # a zero sum drops the degree
                g = math.gcd(sx, sy, sb)
                out[j] = sx // g, sy // g, sb // g
        return TaylorPolynomial._raw(None, a.truncation, dict(sorted(out.items())))

    def __neg__(self) -> "TaylorPolynomial":
        return self.scale(-1)

    def __sub__(self, other: "TaylorPolynomial") -> "TaylorPolynomial":
        return self + (-other)

    def scale(self, factor: CoeffLike) -> "TaylorPolynomial":
        f = to_qcomplex(factor)
        if not f:
            return TaylorPolynomial._raw({}, self.truncation)
        u, v, w = to_triple(f)
        held = {j: (x * u - y * v, x * v + y * u, b * w) for j, (x, y, b) in self._triple_terms().items()}
        return TaylorPolynomial._raw(None, self.truncation, held)

    # -- analysis ----------------------------------------------------------

    def differentiate(self, order: int = 1) -> "TaylorPolynomial":
        """Exact coefficient shift a_i -> a_{i+order} * (i+order)!/i!.

        The falling factorial is taken as an exact integer, so orders in the
        tens of thousands cost only its length.
        """
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self
        if self.truncation < order:
            return TaylorPolynomial.zero()
        held = {i - order: (x * (p := math.perm(i, order)), y * p, b)
                for i, (x, y, b) in self._triple_terms().items() if i >= order}
        return TaylorPolynomial._raw(None, self.truncation - order, held)

    def evaluate(self, z: CoeffLike) -> QComplex:
        """Horner evaluation, exact, in one integer pass over the common denominator; held triples stay held."""
        if self.is_zero:
            return QC_ZERO
        return _exact_horner(self._integer_form(0), to_qcomplex(z))

    def majorant_norm(self, r: float) -> float:
        """log of the coefficient majorant sum(|a_j| r^j).

        Upper-bounds the sup of |f| on the closed disk of radius r.
        """
        if r <= 0:
            raise ValueError("majorant radius must be positive")
        log_r = math.log(r)  # a triple's log is the log of its reduced value, to the bit
        return log_sum(log_triple(*t) + j * log_r for j, t in self._triple_terms().items())


class PolynomialOperator(_Reducible):
    """A nonconstant polynomial P(z) = sum(c_j z^j, j=m..d) acting as P(D).

    Stored as its nonzero terms, a map {j: c_j} in increasing j. The valence m
    is the least exponent with nonzero coefficient, the degree d the greatest.
    A shaped family's operator may arrive as unreduced triples (``_Reducible``),
    reduced to terms only when a coefficient is first read; ``value_at`` reads
    neither, but one integer form built on the first sample and kept.
    """

    __slots__ = ("_terms", "_triples", "_form")

    def __init__(self, coeffs_by_degree):
        items = sorted((j, c) for j, c in dict(coeffs_by_degree).items() if c)
        self._terms = _coerce_terms(items)
        self._triples = self._form = None
        if not self._terms:
            raise ValueError("operator polynomial has no nonzero coefficients")
        if self.valence < 0:
            raise ValueError("negative exponent in operator polynomial")
        if self.degree < 1:
            raise ValueError("operator polynomial must be nonconstant (degree >= 1)")

    @classmethod
    def _raw(cls, terms: Optional[dict], held: Optional[dict] = None) -> "PolynomialOperator":
        """Internal constructor for callers that already guarantee invariants: terms, or triples."""
        obj = object.__new__(cls)
        obj._terms, obj._triples, obj._form = terms, held, None
        return obj

    @property
    def valence(self) -> int:
        return next(iter(self._held))

    def value_at(self, w: CoeffLike) -> QComplex:
        """P(w) = w^m H(w), H = P/z^m, the eigenvalue of P(D) on e_w; H(w) exactly by Horner over d..m
        in integers (``_exact_horner``), from the integer form built on the first sample and kept."""
        if self._form is None:
            self._form = self._integer_form(self.valence)
        wq = to_qcomplex(w)
        return _exact_horner(self._form, wq) * wq**self.valence

    def derivative_majorant(self, r: float) -> float:
        """log of B = sum((j - m) |c_j| r^(j-1)); B / r^m bounds |H'| on |z| = r, H = P/z^m."""
        if r <= 0:
            raise ValueError("radius must be positive")
        m, log_r = self.valence, math.log(r)
        return log_sum(log_abs(c) + math.log(j - m) + (j - 1) * log_r for j, c in self.terms() if j > m)

    def to_float(self) -> List[complex]:
        """The coefficients c_d..c_m of H = P/z^m as doubles, highest first: what the
        circle scan samples. A coefficient beyond the double range raises."""
        return [to_complex(self.coefficient(j)) for j in range(self.degree, self.valence - 1, -1)]

    def __repr__(self):
        body = " + ".join(f"{c}*z^{j}" for j, c in list(self.terms())[:4])
        return f"PolynomialOperator({body}; m={self.valence}, d={self.degree})"


# -- operations ---------------------------------------------------------------


def apply_operator(op: PolynomialOperator, f: TaylorPolynomial) -> TaylorPolynomial:
    """P(D) f = sum(c_j f^(j)), linear in f, exact; the terms j > N of P add f^(j) = 0."""
    result = TaylorPolynomial.zero()
    for j, c in op.terms():
        if j > f.truncation:
            break
        result = result + f.differentiate(j).scale(c)
    return result


def exp_truncate(w: CoeffLike, n: int, r: float) -> Tuple[TaylorPolynomial, float]:
    """Degree-n truncation of e^(wz) plus the log of a majorant for the dropped tail.

    The tail bound dominates sum(|w|^j r^j / j!, j > n); a geometric majorant
    of the remainder is used when |w| r < n + 2, else the crude bound e^(|w| r).
    """
    if n < 0:
        raise ValueError("truncation degree must be >= 0")
    if r <= 0:
        raise ValueError("radius must be positive")
    wq = to_qcomplex(w)
    coeffs = [QC_ONE]
    for j in range(1, n + 1):
        coeffs.append(coeffs[-1] * wq * QComplex(Fraction(1, j)))
    poly = TaylorPolynomial(coeffs)
    x = exp_log(log_abs(wq)) * r
    if x == 0.0:
        return poly, NEG_INF
    head = (n + 1) * math.log(x) - math.lgamma(n + 2)
    return poly, (head - math.log1p(-x / (n + 2)) if x < n + 2 else x)


def eigen_defect_bound(op: PolynomialOperator, w: CoeffLike, n: int, r: float) -> float:
    """log of a majorant bound for P(D)E_n - P(w)E_n where E_n truncates e_w at degree n.

    Exact coefficient bookkeeping gives the defect coefficients as the dropped
    blocks of each shifted truncation; the bound is their coefficient majorant
    and therefore certifies the operator/eigenvalue consistency check.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    log_w = log_abs(to_qcomplex(w))
    if log_w == NEG_INF:
        return NEG_INF
    x_log = log_w + math.log(r)
    terms = []
    for s, c in op.terms():
        inner = log_sum(i * x_log - math.lgamma(i + 1) for i in range(max(0, n - s + 1), n + 1))
        terms.append(log_abs(c) + log_w * s + inner)
    return log_sum(terms)


# -- coefficient files --------------------------------------------------------
#
# Format: a header line `#taylor N=<degree>` or `#operator m=<valence> d=<degree>`
# followed by one `index,re,im` line per stored coefficient, in rational
# notation (see ``scalars.parse_real`` for a decimal token). A coefficient file
# is one such block; an F5 table is one or more `#operator` blocks. Other `#`
# lines are comments, and a coefficient line before the first header is an error.


def write_taylor(f: TaylorPolynomial, out: TextIO) -> None:
    write_csv(out, f"#taylor N={f.truncation}", ((j, format_scalar(c)) for j, c in f.terms()))


def write_operator(op: PolynomialOperator, out: TextIO) -> None:
    header = f"#operator m={op.valence} d={op.degree}"
    write_csv(out, header, ((j, format_scalar(c)) for j, c in op.terms()))


def _read_block(header: str, lines: List[str]):
    """The TaylorPolynomial or PolynomialOperator of one header line and its stripped coefficient lines."""
    taylor = header.startswith("#taylor")
    names = ("N",) if taylor else ("m", "d")
    given = dict(token.partition("=")[::2] for token in header.split()[1:])
    try:
        fields = [int(given[name]) for name in names]  # the required integer fields name=<int>
    except (KeyError, ValueError):
        raise ValueError(f"header {header!r} needs integer fields {', '.join(names)}") from None
    entries: dict = {}
    for line in lines:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad coefficient line {line!r}")
        j = int(parts[0])
        if j in entries:
            raise ValueError(f"repeated coefficient index {j}")
        entries[j] = parse_scalar(parts[1], parts[2])
    if taylor:
        (n,) = fields
        for j in sorted(entries):
            if not 0 <= j <= n:
                raise ValueError(f"coefficient index {j} is outside 0..N={n}")
        return TaylorPolynomial._raw(_coerce_terms(sorted(entries.items())), max(n, -1))
    op = PolynomialOperator(entries)
    if [op.valence, op.degree] != fields:
        raise ValueError(f"{header!r} does not match the body (m={op.valence} d={op.degree})")
    return op


def read_blocks(text: str) -> list:
    """The ``#taylor`` and ``#operator`` blocks of a coefficient text, in order, each read into a TaylorPolynomial
    or a PolynomialOperator; a coefficient line before the first header raises ValueError."""
    blocks: List[Tuple[str, List[str]]] = []
    for line in map(str.strip, text.splitlines()):
        if line.startswith(("#taylor", "#operator")):
            blocks.append((line, []))
        elif line and not line.startswith("#"):
            if not blocks:
                raise ValueError(f"coefficient line {line!r} comes before the first #taylor or #operator header")
            blocks[-1][1].append(line)
    return [_read_block(header, lines) for header, lines in blocks]


def read_coefficients(source: TextIO):
    """Parse a coefficient file, one #taylor or #operator block, into a TaylorPolynomial or PolynomialOperator."""
    blocks = read_blocks(source.read())
    if len(blocks) != 1:
        raise ValueError(f"a coefficient file holds one #taylor or #operator block, not {len(blocks)}")
    return blocks[0]
