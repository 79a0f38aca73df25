"""Right inverses for polynomial differential operators.

Polynomial route: for P with valence m and shifted coefficients a_j = c_{j+m},
solve the upper-triangular system

    sum(a_{j-s} b_j j!/s!, j=s..k) = 0   (s = 0..k-1),    a_0 b_k = 1,

whose determinant is a_0^{k+1}; then antidifferentiate m times,

    f_k(z) = sum(b_s z^{s+m} / ((s+1)(s+2)...(s+m)), s=0..k),

which satisfies P(D) f_k = z^k exactly. Every solve is exact: a float
coefficient enters as its exact dyadic value, so the identity is checked with
rational equality for every operator. Back-substitution is the only solver; the
tests check it against an independent cofactor-expansion (Cramer) route.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from .errors import InvariantViolation, PreconditionError
from .families import OperatorSequence
from .scalars import (
    QComplex,
    QC_ONE,
    QC_ZERO,
    divide_by_int,
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
            acc = acc + a_js * b[j] * math.perm(j, j - s)
        b[s] = -(inv_a0 * acc)
    return tuple(b)


# -- f_{n,k} construction --------------------------------------------------------


class RightInverse(NamedTuple):
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
    # f_{s+m} = b_s / ((s+1)(s+2)...(s+m)), b_k = 1/a_0 != 0 so N = k + m; real b_s go over as unreduced pairs
    steps = [(s + m, b_s, math.perm(s + m, m)) for s, b_s in enumerate(b) if b_s]
    if any(b_s.im for b_s in b):
        f = TaylorPolynomial._raw({j: divide_by_int(b_s, d) for j, b_s, d in steps}, k + m)
    else:
        f = TaylorPolynomial._raw(None, k + m, {j: (b_s.re.numerator, b_s.re.denominator * d) for j, b_s, d in steps})
    if verify:
        image = apply_operator(op, f)
        if image != TaylorPolynomial.monomial(k, QC_ONE):
            raise InvariantViolation(
                f"right-inverse identity failed: P(D) f != z^{k} for {op!r}"
            )
    return RightInverse(k=k, operator=op, f=f)


def inverse_for_polynomial(op: PolynomialOperator, y: TaylorPolynomial) -> TaylorPolynomial:
    """Linear extension: sum(y_k f_{n,k}); P(D) applied to it returns y exactly."""
    terms = [build_f_nk(op, k, verify=False).f.scale(y_k) for k, y_k in y.terms()]
    return sum(terms[1:], terms[0]) if terms else TaylorPolynomial.zero()


# -- decay sweep -------------------------------------------------------------------


class FnkRow(NamedTuple):
    n: int
    norm: float  # log ||f_{n,k}||_r
    stirling_ok: bool


class FnkDecayReport(NamedTuple):
    k: int
    radius: float
    rows: Tuple[FnkRow, ...]
    crossing: Optional[int]  # the first n from which every row keeps the threshold, or None
    verdict: str


def fnk_norm_log(seq: OperatorSequence, n: int, k: int, r: float) -> float:
    """Majorant norm of f_{n,k} on |z| <= r, from the exact f_{n,k}, in the log domain."""
    return build_f_nk(seq.op(n), k, verify=False).f.majorant_norm(r)


def stirling_threshold_ok(seq: OperatorSequence, n: int, k: int, r: float) -> bool:
    """( |c_m|^{k+1-j} m! )^{1/m} > 2r for every j = 1..k (vacuous at k = 0)."""
    m = seq.valence(n)
    if k and m < 1:  # the m-th root needs m >= 1
        raise PreconditionError(f"the Stirling threshold needs valence >= 1, but P_{n} has valence {m}")
    log_c = seq.log_coeff(n, m)
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
    return _fnk_decays(seq, (k,), r, n_range)[0]


def _fnk_decays(
    seq: OperatorSequence, ks: Iterable[int], r: float, n_range: Tuple[int, int]
) -> List[FnkDecayReport]:
    """``fnk_decay`` for each k in ks, in one pass over n, so each P_n is built once for all k."""
    if r <= 1:
        raise PreconditionError("decay sweep requires r > 1")
    lo, hi = n_range
    ns = list(range(lo, hi + 1))
    tracks: dict[int, List[FnkRow]] = {k: [] for k in ks}
    for n in ns:
        for k, rows in tracks.items():
            rows.append(FnkRow(n=n, norm=fnk_norm_log(seq, n, k, r), stirling_ok=stirling_threshold_ok(seq, n, k, r)))
    reports = []
    for k, rows in tracks.items():
        # the first index from which the threshold holds to the end: one past the last failure
        first = next((i + 1 for i in range(len(rows) - 1, -1, -1) if not rows[i].stirling_ok), 0)
        crossing = ns[first] if first < len(rows) else None
        verdict = "inconclusive"
        post = [row.norm for row in rows[first:]]
        if len(post) >= 4:  # none when there is no crossing
            half = len(post) // 2
            early, late = post[:half], post[half:]
            if post[-1] < post[0] and max(late) < max(early):
                verdict = "supports"
            elif post[-1] > post[0] and min(late) > max(early):
                verdict = "refutes"
        reports.append(FnkDecayReport(k=k, radius=r, rows=tuple(rows), crossing=crossing, verdict=verdict))
    return reports


# -- serialization -----------------------------------------------------------------


def write_right_inverse(inv: RightInverse, out: TextIO, *, n: Optional[int] = None) -> None:
    """Coefficient file for f with a comment header noting (route, k, n)."""
    out.write(f"# route=polynomial k={inv.k}" + ("" if n is None else f" n={n}") + "\n")
    write_taylor(inv.f, out)
