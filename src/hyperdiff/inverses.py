"""Right inverses for polynomial differential operators.

Polynomial route: for P with valence m and shifted coefficients a_j = c_{j+m},
solve the upper-triangular system

    sum(a_{j-s} b_j j!/s!, j=s..k) = 0   (s = 0..k-1),    a_0 b_k = 1,

whose determinant is a_0^{k+1}; then antidifferentiate m times,

    f_k(z) = sum(b_s z^{s+m} / ((s+1)(s+2)...(s+m)), s=0..k),

which satisfies P(D) f_k = z^k exactly. Every solve is exact: a float
coefficient enters as its exact dyadic value, so the identity is checked with
rational equality for every operator. Back-substitution is the production
solver; a Cramer/cofactor route (capped at k <= 8) is kept as an independent
cross-check oracle, and returns the cofactor table Phi_{j,s,k} with its solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO, Tuple

from .errors import InvariantViolation, PreconditionError
from .families import OperatorSequence
from .scalars import (
    LogMagnitude,
    QComplex,
    QC_ONE,
    QC_ZERO,
    divide_by_int,
    falling_factorial,
    is_exact,
    log_margin,
    to_qcomplex,
)
from .series import PolynomialOperator, TaylorPolynomial, apply_operator, write_taylor


# -- polynomial route ----------------------------------------------------------


def solve_monic_system(a: Sequence, k: int) -> Tuple[QComplex, ...]:
    """Unique solution b_0..b_k by back-substitution from s = k downward, exactly.

    The system matrix is upper triangular with determinant a_0^(k+1).
    """
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if not a:
        raise PreconditionError("empty coefficient list")
    aa = [to_qcomplex(v) for v in a]
    if not aa[0]:
        raise PreconditionError("a_0 must be nonzero (operator valence coefficient)")
    inv_a0 = QC_ONE / aa[0]

    def coeff(i: int) -> QComplex:
        return aa[i] if i < len(aa) else QC_ZERO

    b: List[QComplex] = [QC_ZERO] * (k + 1)
    b[k] = inv_a0
    for s in range(k - 1, -1, -1):
        acc = QC_ZERO
        for j in range(s + 1, k + 1):
            a_js = coeff(j - s)
            if not a_js:
                continue
            acc = acc + a_js * b[j] * falling_factorial(j, j - s)
        b[s] = -(inv_a0 * acc)
    return tuple(b)


# -- Cramer cross-check ----------------------------------------------------------
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
    """Exact cofactor-expansion solve (oracle route, k <= 8): b_0..b_k and its cofactor table."""
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if k > CRAMER_K_CAP:
        raise PreconditionError(f"Cramer cross-check is capped at k <= {CRAMER_K_CAP}")
    if not a:
        raise PreconditionError("empty coefficient list")
    if not all(is_exact(v) for v in a):
        raise PreconditionError("Cramer cross-check runs in exact arithmetic only")
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


# -- f_{n,k} construction --------------------------------------------------------


@dataclass(frozen=True)
class RightInverse:
    """One solved polynomial-route instance: P(D) f = z^k for a fixed operator."""

    k: int
    operator: PolynomialOperator
    f: TaylorPolynomial


def build_f_nk(op: PolynomialOperator, k: int, *, verify: bool = True) -> RightInverse:
    """Antidifferentiated solution with P(D) f = z^k; verify checks the identity with exact
    rational equality."""
    if k < 0:
        raise PreconditionError("k must be >= 0")
    m = op.valence
    # a_j = c_{j+m}, of which the solve reads a_0..a_k; a_0 is nonzero by the valence invariant
    b = solve_monic_system([op.coefficient(m + j) for j in range(k + 1)], k)
    pairs = []
    for s, b_s in enumerate(b):
        if not b_s:
            continue
        den = falling_factorial(s + m, m)  # (s+1)(s+2)...(s+m)
        pairs.append((s + m, divide_by_int(b_s, den)))
    f = TaylorPolynomial.from_pairs(pairs)
    if verify:
        image = apply_operator(op, f)
        if image != TaylorPolynomial.monomial(k, QC_ONE):
            raise InvariantViolation(
                f"right-inverse identity failed: P(D) f != z^{k} for {op!r}"
            )
    return RightInverse(k=k, operator=op, f=f)


def inverse_for_polynomial(op: PolynomialOperator, y: TaylorPolynomial) -> TaylorPolynomial:
    """Linear extension: sum(y_k f_{n,k}); P(D) applied to it returns y exactly."""
    result = TaylorPolynomial.zero()
    for k, y_k in y.terms():
        inv = build_f_nk(op, k, verify=False)
        result = result + inv.f.scale(y_k)
    return result


# -- decay sweep -------------------------------------------------------------------


@dataclass(frozen=True)
class FnkRow:
    n: int
    norm: LogMagnitude
    stirling_ok: bool


@dataclass(frozen=True)
class FnkDecayReport:
    k: int
    radius: float
    rows: Tuple[FnkRow, ...]
    crossing: Optional[int]
    verdict: str
    notes: dict


def fnk_norm_log(seq: OperatorSequence, n: int, k: int, r: float) -> LogMagnitude:
    """Majorant norm of f_{n,k} on |z| <= r, from the exact f_{n,k}, in the log domain."""
    return build_f_nk(seq.op(n), k, verify=False).f.majorant_norm(r)


def stirling_threshold_ok(seq: OperatorSequence, n: int, k: int, r: float) -> bool:
    """( |c_m|^{k+1-j} m! )^{1/m} > 2r for every j = 1..k (vacuous at k = 0)."""
    m = seq.valence(n)
    log_c = seq.log_coeff(n, m).log
    log_fact = math.lgamma(m + 1)
    target = math.log(2 * r)
    return all(
        log_margin(target, ((k + 1 - j) * log_c + log_fact) / m) > 0 for j in range(1, k + 1)
    )


def fnk_decay(
    seq: OperatorSequence, k: int, r: float, n_range: Tuple[int, int]
) -> FnkDecayReport:
    """Sweep ||f_{n,k}||_r with the Stirling threshold markers and a decay verdict.

    supports requires a crossing index from which the threshold holds for the
    rest of the sweep and the norms beyond it to shrink (final below first,
    late maxima below early maxima).
    """
    if r <= 1:
        raise PreconditionError("decay sweep requires r > 1")
    lo, hi = n_range
    ns = list(range(lo, hi + 1))
    rows: List[FnkRow] = []
    for n in ns:
        rows.append(
            FnkRow(
                n=n,
                norm=fnk_norm_log(seq, n, k, r),
                stirling_ok=stirling_threshold_ok(seq, n, k, r),
            )
        )
    crossing = None
    for i in range(len(rows)):
        if all(row.stirling_ok for row in rows[i:]):
            crossing = ns[i]
            break
    verdict = "inconclusive"
    notes: dict = {}
    if crossing is not None:
        post = [row.norm.log for row in rows if row.n >= crossing]
        if len(post) >= 4:
            half = len(post) // 2
            early, late = post[:half], post[half:]
            if post[-1] < post[0] and max(late) < max(early):
                verdict = "supports"
            elif post[-1] > post[0] and min(late) > max(early):
                verdict = "refutes"
            notes["post_crossing"] = {"first": post[0], "last": post[-1]}
    return FnkDecayReport(
        k=k, radius=r, rows=tuple(rows), crossing=crossing, verdict=verdict, notes=notes
    )


# -- serialization -----------------------------------------------------------------


def write_right_inverse(inv: RightInverse, out: TextIO, *, n: Optional[int] = None) -> None:
    """Coefficient file for f with a comment header noting (route, k, n)."""
    tag = f"# route=polynomial k={inv.k}"
    if n is not None:
        tag += f" n={n}"
    out.write(tag + "\n")
    write_taylor(inv.f, out)
