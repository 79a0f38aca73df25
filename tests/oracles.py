"""Independent second implementations, kept as oracles for the library's one route.

- ``cramer_with_cofactors`` solves the right-inverse system by cofactor
  expansion; ``inverses.solve_monic_system`` (back-substitution) must agree.
- ``exact_tail_norms`` materializes each tail image of a lacunary member and
  takes its majorant norm; ``lacunary.decay_report`` (a term-by-term log sum)
  must agree on a collision-free basis and dominate it otherwise.
- ``collision_free`` is the fact the single decay route rests on.
- ``shape_op_by_fractions`` expands c z^n (z - rho)^mu binomially in
  ``Fraction`` arithmetic; ``Shape.op`` (one integer pass) must agree.
- ``shape_abs_at_exact`` subtracts the exact root at every rational z and takes
  the log of |z - rho_n| in 60-digit decimals; ``Shape.abs_at``, which reads
  that log as the larger of two logs outside a band, must agree to within its
  stated bound.
"""

import decimal
import math
from fractions import Fraction
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from hyperdiff.errors import InvariantViolation, PreconditionError
from hyperdiff.scalars import QC_ONE, QC_ZERO, QComplex, log_abs
from hyperdiff.series import PolynomialOperator, TaylorPolynomial, apply_operator

# -- Cramer route ----------------------------------------------------------------
#
# The system matrix depends on a_0 only along its diagonal and bottom row, so
# determinants are computed over univariate polynomials in a formal slot t for
# a_0; the numerator coefficients are exactly the cofactor values Phi_{j,s,k}
# evaluated at (a_1..a_k), never materialized symbolically.

_Poly = Tuple[QComplex, ...]  # coefficients in t, low to high

_P_ZERO: _Poly = ()
_P_ONE: _Poly = (QC_ONE,)
_P_T: _Poly = (QC_ZERO, QC_ONE)


def _p_const(c: QComplex) -> _Poly:
    return (c,) if c else _P_ZERO


def _p_add(x: _Poly, y: _Poly) -> _Poly:
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] = out[i] + c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _p_mul(x: _Poly, y: _Poly) -> _Poly:
    if not x or not y:
        return _P_ZERO
    out = [QC_ZERO] * (len(x) + len(y) - 1)
    for i, ci in enumerate(x):
        if not ci:
            continue
        for j, cj in enumerate(y):
            if cj:
                out[i + j] = out[i + j] + ci * cj
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _p_neg(x: _Poly) -> _Poly:
    return tuple(-c for c in x)


def _det_poly(matrix: List[List[_Poly]]) -> _Poly:
    """Laplace expansion with memoization over column subsets."""
    size = len(matrix)
    full_mask = (1 << size) - 1
    memo: dict = {}

    def rec(row: int, mask: int) -> _Poly:
        if row == size:
            return _P_ONE
        key = mask
        got = memo.get(key)
        if got is not None:
            return got
        acc = _P_ZERO
        sign = 1
        for col in range(size):
            bit = 1 << col
            if not mask & bit:
                continue
            entry = matrix[row][col]
            if entry:
                sub = rec(row + 1, mask & ~bit)
                term = _p_mul(entry, sub)
                acc = _p_add(acc, term if sign > 0 else _p_neg(term))
            sign = -sign
        memo[key] = acc
        return acc

    return rec(0, full_mask)


CRAMER_K_CAP = 8


@dataclass(frozen=True)
class CofactorTable:
    """Cofactor values Phi_{j,s,k}(a_1..a_k): phi[s][j] multiplies a_0^j."""

    k: int
    phi: Tuple[Tuple[QComplex, ...], ...]


def cramer_with_cofactors(a: Sequence, k: int) -> Tuple[Tuple[QComplex, ...], CofactorTable]:
    """Exact cofactor-expansion solve (k <= 8): b_0..b_k and its cofactor table.

    A float coefficient is rejected with ``QComplex.coerce``'s TypeError.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if k > CRAMER_K_CAP:
        raise PreconditionError(f"Cramer cross-check is capped at k <= {CRAMER_K_CAP}")
    if not a:
        raise PreconditionError("empty coefficient list")
    aa = [QComplex.coerce(v) for v in a]
    if not aa[0]:
        raise PreconditionError("a_0 must be nonzero")

    def coeff(i: int) -> QComplex:
        return aa[i] if i < len(aa) else QC_ZERO

    size = k + 1

    def base_entry(s: int, j: int) -> _Poly:
        if s < k:
            if j < s:
                return _P_ZERO
            if j == s:
                return _P_T
            return _p_const(coeff(j - s) * (math.factorial(j) // math.factorial(s)))
        return _P_T if j == k else _P_ZERO

    base = [[base_entry(s, j) for j in range(size)] for s in range(size)]
    det_full = _det_poly(base)
    expected = tuple([QC_ZERO] * (k + 1) + [QC_ONE])
    if det_full != expected:
        raise InvariantViolation("system determinant is not a_0^(k+1); solver matrix is wrong")

    a0 = aa[0]
    a0_pows = [QC_ONE]
    for _ in range(size):
        a0_pows.append(a0_pows[-1] * a0)
    inv_det = QC_ONE / a0_pows[size]

    b: List[QComplex] = []
    phi_rows: List[Tuple[QComplex, ...]] = []
    rhs_col = [QC_ZERO] * k + [QC_ONE]
    for s in range(size):
        columns = [
            [(_p_const(rhs_col[row]) if j == s else base[row][j]) for j in range(size)]
            for row in range(size)
        ]
        numerator = _det_poly(columns)
        padded = tuple(numerator) + (QC_ZERO,) * (size + 1 - len(numerator))
        phi_rows.append(padded[: size + 1])
        value = QC_ZERO
        for j, cj in enumerate(numerator):
            if cj:
                value = value + cj * a0_pows[j]
        b.append(value * inv_det)
    return tuple(b), CofactorTable(k=k, phi=tuple(phi_rows))


# -- exact decay route -----------------------------------------------------------


def exact_tail_norms(basis, f: TaylorPolynomial, r: float) -> List[float]:
    """Per step k, the log majorant norm of P_{n_k}(D) applied to the strict tail of f,
    from the materialized exact image (f must lie on the basis exponents)."""
    coeffs = dict(f.terms())
    norms = []
    for entry in basis.entries:
        tail = [(e.valence, coeffs[e.valence]) for e in basis.entries[entry.k :] if e.valence in coeffs]
        image = apply_operator(basis.seq.op(entry.n), TaylorPolynomial.from_pairs(tail))
        norms.append(image.majorant_norm(r))
    return norms


def collision_free(entries) -> bool:
    """No two image terms of P_{n_k}(D) on the k-tail can share a degree.

    The image of the j-th tail term occupies [m_j - d_k, m_j - m_k]; blocks for
    consecutive j stay disjoint when the valence gap exceeds the step-k
    operator spread d_k - m_k.
    """
    for idx, e in enumerate(entries):
        spread = e.degree - e.valence
        tail_vals = [x.valence for x in entries[idx + 1 :]]
        for a, b in zip(tail_vals, tail_vals[1:]):
            if b - a <= spread:
                return False
    return True


# -- shaped operators -------------------------------------------------------------


def shape_op_by_fractions(shape, n: int) -> PolynomialOperator:
    """c z^n sum C(mu, i) (-rho)^(mu-i) z^i, i from mu down, one Fraction product per term."""
    c, mu = shape.c(n), shape.mult(n)
    coeffs = {n + mu: c}
    if mu:
        neg = -shape.root(n)
        power = neg
        for i in range(mu - 1, -1, -1):
            coeffs[n + i] = c * math.comb(mu, i) * power
            power = power * neg
    return PolynomialOperator(coeffs)


def log_rational(x: Fraction) -> float:
    """log|x| through 60-digit decimals; near 1 through the series of log(1 + e), |e| < 1e-9."""
    if not x:
        return -math.inf
    p, q = abs(x.numerator), x.denominator
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e = decimal.Decimal(p - q) / q
        if abs(e) < decimal.Decimal("1e-9"):
            return float(e - e**2 / 2 + e**3 / 3 - e**4 / 4 + e**5 / 5)
        return float((decimal.Decimal(p) / q).ln())


def shape_abs_at_exact(shape, n: int, z: Fraction) -> float:
    """log(|c_n| |z|^n |z - rho_n|^mu_n) with z - rho_n exact, summed as ``Shape.abs_at`` sums. The
    |z|^n term goes through the library's ``log_abs``, as in ``Shape.abs_at``, so only the
    |z - rho_n| term can differ."""
    mag = shape.log_c(n) + log_abs(z) * n
    mu = shape.mult(n)
    return mag + log_rational(z - shape.root(n)) * mu if mu else mag
