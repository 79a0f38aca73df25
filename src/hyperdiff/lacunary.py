"""Sparse index selection, the lacunary monomial subspace, and decay audits.

The selection recursion picks, at each step, the least next index whose
valence m satisfies  max(log A_k, 0) + d(n_k) < m * log2 / log m,  where A_k
is the coefficient absolute sum of the current operator. This implies, for
every later index, the pairwise bound  A_k * m(n_j)^{d(n_k)} < 2^{m(n_j)},
which is exactly what the decay audit certifies. Members of the subspace are
finite sums a_j z^{m(n_j)}; applying P_{n_k}(D) annihilates the terms below k
exactly, and the audited bound controls the strict tail above k.

Selection is inherently sequential (each step depends on the last); the
pairwise audit and the decay rows are independent pure computations emitted
in (k, j) order, so callers may parallelize them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

from .errors import CapExhausted, InvariantViolation, PreconditionError
from .families import OperatorSequence
from .scalars import LN2, LogMagnitude, fmt_log, log_lt
from .series import TaylorPolynomial, apply_operator


@dataclass(frozen=True)
class BasisEntry:
    k: int
    n: int
    valence: int
    degree: int
    log_a: float


@dataclass(frozen=True)
class IneqPair:
    k: int
    j: int
    lhs_log: float
    rhs_log: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class IneqAudit:
    pairs: Tuple[IneqPair, ...]
    all_ok: bool

    @property
    def violations(self) -> Tuple[IneqPair, ...]:
        return tuple(p for p in self.pairs if not p.ok)


class LacunaryBasis:
    """Selected indices n_1 < n_2 < ... with valences, degrees, and log A_k."""

    __slots__ = ("seq", "entries")

    def __init__(self, seq: OperatorSequence, entries: Sequence[BasisEntry], *, strict: bool = True):
        entries = tuple(entries)
        if not entries:
            raise PreconditionError("a lacunary basis needs at least one entry")
        if entries[0].valence < 3:
            raise PreconditionError("first selected valence must be >= 3")
        for prev, cur in zip(entries, entries[1:]):
            if cur.n <= prev.n or cur.valence <= prev.degree:
                raise PreconditionError(
                    "basis normalization violated: need n and valence strictly "
                    f"interleaving degrees, got {prev} then {cur}"
                )
        self.seq = seq
        self.entries = entries
        if strict:
            audit = verify_ineq_ak(self)
            if not audit.all_ok:
                bad = audit.violations[0]
                raise InvariantViolation(
                    f"pairwise bound fails at (k={bad.k}, j={bad.j}): "
                    f"log A + d*log m = {bad.lhs_log:.6g} >= m*log2 = {bad.rhs_log:.6g}"
                )

    @classmethod
    def build(cls, seq: OperatorSequence, indices: Sequence[int], *, strict: bool = True) -> "LacunaryBasis":
        return cls(seq, [_entry(seq, k, n) for k, n in enumerate(indices, start=1)], strict=strict)

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(e.n for e in self.entries)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"LacunaryBasis(indices={self.indices})"


def select_indices(
    seq: OperatorSequence,
    count: int,
    n_start: int = 1,
    n_cap: int = 10**6,
) -> LacunaryBasis:
    """Recursively select the least admissible indices for a size-``count`` basis.

    Leading indices are skipped until the valence reaches 3; each subsequent
    index is the least one whose valence exceeds the previous degree and whose
    valence m satisfies the recursion target  max(log A, 0) + d < m*log2/log m
    (strictly, with a relative guard band).

    When the sequence declares nondecreasing valence (F1..F4), each least index
    is found by galloping: probe last + 1, + 2, + 4, ... (clamped at ``n_cap``),
    then bisect. Every conjunct of the test only turns from false to true as m
    grows (m*log2/log m increases for m >= 3), so this picks exactly the index
    the linear scan would. Other sequences (F5 tables) are scanned linearly.
    """
    if count < 2:
        raise PreconditionError("basis size must be >= 2")
    if n_start < 1:
        raise PreconditionError("n_start must be >= 1")

    def least(lo: int, ok: Callable[[int], bool]) -> Optional[int]:
        """Least n in [lo, n_cap] with ok(n), or None."""
        if not seq.nondecreasing_valence:
            return next((n for n in range(lo, n_cap + 1) if ok(n)), None)
        bad, probe = lo - 1, min(lo, n_cap)  # ok fails at bad; probe lo, lo + 1, lo + 3, ...
        while probe > bad and not ok(probe):
            bad, probe = probe, min(2 * probe - lo + 1, n_cap)
        if probe <= bad:
            return None
        return bad + 1 + bisect.bisect_left(range(bad + 1, probe), True, key=ok)

    n = least(n_start, lambda n: seq.valence(n) >= 3)
    if n is None:
        raise CapExhausted("no index with valence >= 3 below the cap", step=1)
    entries = [_entry(seq, 1, n)]
    while len(entries) < count:
        last = entries[-1]
        target = max(last.log_a, 0.0) + last.degree

        def admissible(n: int) -> bool:
            m = seq.valence(n)
            return m > last.degree and m >= 3 and log_lt(target, m * LN2 / math.log(m))

        chosen = least(last.n + 1, admissible)
        if chosen is None:
            raise CapExhausted(
                f"no admissible index <= {n_cap} at step {len(entries) + 1} "
                f"(recursion target {target:.6g}); this bounds the sweep, it does not refute",
                step=len(entries) + 1,
                condition="recursion",
            )
        entries.append(_entry(seq, len(entries) + 1, chosen))
    return LacunaryBasis(seq, entries, strict=True)


def _entry(seq: OperatorSequence, k: int, n: int) -> BasisEntry:
    return BasisEntry(
        k=k,
        n=n,
        valence=seq.valence(n),
        degree=seq.degree(n),
        log_a=seq.coeff_abs_log_sum(n).log,
    )


def verify_ineq_ak(basis: LacunaryBasis) -> IneqAudit:
    """Audit  log A_k + d(n_k)·log m(n_j) < m(n_j)·log 2  for every pair k < j."""
    pairs: List[IneqPair] = []
    entries = basis.entries
    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            ek, ej = entries[a], entries[b]
            lhs = ek.log_a + ek.degree * math.log(ej.valence)
            rhs = ej.valence * LN2
            pairs.append(
                IneqPair(
                    k=ek.k,
                    j=ej.k,
                    lhs_log=lhs,
                    rhs_log=rhs,
                    margin=rhs - lhs,
                    ok=log_lt(lhs, rhs),
                )
            )
    return IneqAudit(pairs=tuple(pairs), all_ok=all(p.ok for p in pairs))


def m0_member(basis: LacunaryBasis, coefficients: Sequence) -> TaylorPolynomial:
    """The member sum(a_j z^{m(n_j)}) of the lacunary subspace."""
    if len(coefficients) > len(basis):
        raise PreconditionError(
            f"{len(coefficients)} coefficients but basis has only {len(basis)} exponents"
        )
    pairs = [
        (entry.valence, a)
        for entry, a in zip(basis.entries, coefficients)
    ]
    return TaylorPolynomial.from_pairs(pairs)


@dataclass(frozen=True)
class DecayRow:
    k: int
    n: int
    measured: LogMagnitude  # norm of P_{n_k}(D) applied to the strict tail j > k
    bound: LogMagnitude  # sum over j >= k of |a_j| (2r)^{m(n_j)}
    diagonal: LogMagnitude  # norm of P_{n_k}(D) applied to the j = k term alone
    full: LogMagnitude  # norm of P_{n_k}(D) applied to all of f


@dataclass(frozen=True)
class DecayReport:
    rows: Tuple[DecayRow, ...]
    radius: float

    @property
    def measured_nonincreasing(self) -> bool:
        ms = [row.measured.log for row in self.rows]
        return all(b <= a for a, b in zip(ms, ms[1:]))


def decay_report(
    basis: LacunaryBasis, f: TaylorPolynomial, r: float, *, method: str = "auto"
) -> DecayReport:
    """Per-step decay audit for a lacunary member f.

    ``measured`` applies P_{n_k}(D) to the strict tail sum(a_j z^{m_j}, j > k),
    which is the part the pairwise bound sum(|a_j| (2r)^{m_j}, j >= k) provably
    dominates; the j = k term (reported as ``diagonal``, with ``full`` giving
    the whole image norm) is governed by the falling factorial m_k!/(m_k-s)!
    and can exceed the bound by orders of magnitude. measured <= bound is
    asserted for every step.

    ``method``: "exact" materializes every image polynomial; "log" computes the
    same norms term-by-term in the log domain, valid (and bit-equal up to float
    rounding) whenever consecutive valence gaps exceed every operator spread
    d - m, so no two image terms share a degree; "auto" picks "log" only for
    that collision-free case when the exact route would be expensive: long
    operators, or coefficients of more than about 10^6 bits.
    """
    if r <= 0:
        raise PreconditionError("radius must be positive")
    exponents = [e.valence for e in basis.entries]
    slot = {m: i for i, m in enumerate(exponents)}
    coeffs: List = [None] * len(exponents)
    for j in f.support():
        if j not in slot:
            raise PreconditionError(
                f"membership violation: coefficient at degree {j} is off the "
                f"lacunary support {tuple(exponents)}"
            )
        coeffs[slot[j]] = f.coefficient(j)
    collision_free = _collision_free(basis.entries)
    if method == "auto":
        # |log c| / log 2 (valence coefficient, coefficient sum) bounds the bit
        # height of an exact coefficient from below
        heavy = sum(e.degree - e.valence + 1 for e in basis.entries) > 20000 or any(
            max(abs(e.log_a), abs(basis.seq.log_coeff(e.n, e.valence).log)) > 10**6 * LN2
            for e in basis.entries
        )
        # floating families also prefer the log path: materializing deep
        # operators would underflow their coefficients for nothing
        method = "log" if (collision_free and (heavy or not basis.seq.exact)) else "exact"
    if method == "log" and not collision_free:
        method = "exact"
    if method not in ("exact", "log"):
        raise PreconditionError("method must be 'exact', 'log', or 'auto'")

    log_2r = math.log(2 * r)
    log_r = math.log(r)
    rows: List[DecayRow] = []
    for entry in basis.entries:
        k = entry.k
        if method == "exact":
            op = basis.seq.op(entry.n)
            tail_pairs = [
                (m, a)
                for i, (m, a) in enumerate(zip(exponents, coeffs))
                if a is not None and i >= k
            ]
            tail = TaylorPolynomial.from_pairs(tail_pairs)
            measured = apply_operator(op, tail).majorant_norm(r)
        else:
            tail = [
                (m_j, LogMagnitude.of(a).log)
                for m_j, a in zip(exponents[k:], coeffs[k:])
                if a is not None
            ]
            # an empty strict tail (always the last entry) needs no coefficients
            items = basis.seq.coeff_log_items(entry.n) if tail else []
            measured = LogMagnitude.sum(
                LogMagnitude(
                    a_log
                    + c_mag.log
                    + math.lgamma(m_j + 1)
                    - math.lgamma(m_j - s + 1)
                    + (m_j - s) * log_r
                )
                for m_j, a_log in tail
                for s, c_mag in items
            )
        # The j = k image is the single constant a_k * c_{m_k} * m_k!, because the
        # operator's valence equals this exponent; its support (degree 0) is
        # disjoint from the tail image (degrees >= m_{k+1} - d_k > 0), so the
        # full-image norm is exactly diagonal + measured.
        diag_a = coeffs[k - 1]
        if diag_a is not None:
            diagonal = LogMagnitude(
                LogMagnitude.of(diag_a).log
                + basis.seq.log_coeff(entry.n, entry.valence).log
                + math.lgamma(entry.valence + 1)
            )
        else:
            diagonal = LogMagnitude.zero()
        full = diagonal + measured
        bound = LogMagnitude.sum(
            LogMagnitude(LogMagnitude.of(a).log + m * log_2r)
            for i, (m, a) in enumerate(zip(exponents, coeffs))
            if a is not None and i >= k - 1
        )
        if measured.log > bound.log + 1e-9 * max(1.0, abs(bound.log)):
            raise InvariantViolation(
                f"tail decay bound fails at step {k}: measured log {measured.log:.6g} "
                f"> bound log {bound.log:.6g}"
            )
        rows.append(
            DecayRow(k=k, n=entry.n, measured=measured, bound=bound, diagonal=diagonal, full=full)
        )
    return DecayReport(rows=tuple(rows), radius=r)


# -- serialization ---------------------------------------------------------------


def _collision_free(entries: Sequence[BasisEntry]) -> bool:
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


def write_basis_csv(basis: LacunaryBasis, out: TextIO) -> None:
    out.write("k,n_k,m(n_k),d(n_k),logA_k\n")
    for e in basis.entries:
        out.write(f"{e.k},{e.n},{e.valence},{e.degree},{repr(e.log_a)}\n")


def write_decay_csv(report: DecayReport, out: TextIO) -> None:
    out.write("k,measured_log,bound_log\n")
    for row in report.rows:
        out.write(f"{row.k},{fmt_log(row.measured)},{fmt_log(row.bound)}\n")
