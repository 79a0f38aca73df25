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

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from .errors import CapExhausted, PreconditionError
from .families import OperatorSequence, gallop
from .scalars import LN2, certify, log_abs, log_falling, log_margin, log_sum, write_csv
from .series import TaylorPolynomial, _majorant_log


class BasisEntry(NamedTuple):
    k: int
    n: int
    valence: int
    degree: int
    log_a: float


class IneqPair(NamedTuple):
    k: int
    j: int
    lhs_log: float
    rhs_log: float
    margin: float
    ok: bool


class IneqAudit(NamedTuple):
    pairs: Tuple[IneqPair, ...]
    all_ok: bool

    @property
    def violations(self) -> Tuple[IneqPair, ...]:
        return tuple(p for p in self.pairs if not p.ok)


class LacunaryBasis:
    """Selected indices n_1 < n_2 < ... with valences, degrees, and log A_k."""

    __slots__ = ("seq", "entries")

    def __init__(self, seq: OperatorSequence, entries: Sequence[BasisEntry]):
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
        for bad in verify_ineq_ak(entries).violations:  # the first one raises
            certify(f"pairwise bound (A_k) at (k={bad.k}, j={bad.j})", bad.lhs_log, bad.rhs_log)

    @classmethod
    def build(cls, seq: OperatorSequence, indices: Sequence[int]) -> "LacunaryBasis":
        return cls(seq, [_entry(seq, k, n) for k, n in enumerate(indices, start=1)])

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
    beyond rounding (``log_margin`` > 0).

    When the sequence has a shape (F1..F4), its valence n is nondecreasing, so
    each least index is found by ``families.gallop``: probe last + 1, + 2, + 4, ...
    (clamped at ``n_cap``), then bisect. Every conjunct of the test only turns from false to true as m
    grows (m*log2/log m increases for m >= 3), so this picks exactly the index
    the linear scan would. Other sequences (F5 tables) are scanned linearly.
    """
    if count < 2:
        raise PreconditionError("basis size must be >= 2")
    if n_start < 1:
        raise PreconditionError("n_start must be >= 1")
    if seq.max_n is not None:
        n_cap = min(n_cap, seq.max_n)  # the end of a table bounds the scan like a cap

    def least(lo: int, ok: Callable[[int], bool]) -> Optional[int]:
        """Least n in [lo, n_cap] with ok(n), or None."""
        if seq.shape is not None:
            return gallop(lo, n_cap, ok)
        return next((n for n in range(lo, n_cap + 1) if ok(n)), None)

    n = least(n_start, lambda n: seq.valence(n) >= 3)
    if n is None:
        raise CapExhausted("no index with valence >= 3 below the cap", step=1)
    entries = [_entry(seq, 1, n)]
    while len(entries) < count:
        last = entries[-1]
        target = max(last.log_a, 0.0) + last.degree

        def admissible(n: int) -> bool:
            m = seq.valence(n)
            return m > last.degree and m >= 3 and log_margin(target, m * LN2 / math.log(m)) > 0

        chosen = least(last.n + 1, admissible)
        if chosen is None:
            raise CapExhausted(
                f"no admissible index <= {n_cap} at step {len(entries) + 1} "
                f"(recursion target {target:.6g}); this bounds the sweep, it does not refute",
                step=len(entries) + 1,
                condition="recursion",
            )
        entries.append(_entry(seq, len(entries) + 1, chosen))
    return LacunaryBasis(seq, entries)


def _entry(seq: OperatorSequence, k: int, n: int) -> BasisEntry:
    return BasisEntry(
        k=k,
        n=n,
        valence=seq.valence(n),
        degree=seq.degree(n),
        log_a=seq.coeff_abs_log_sum(n),
    )


def verify_ineq_ak(entries: Sequence[BasisEntry]) -> IneqAudit:
    """Audit  log A_k + d(n_k)·log m(n_j) < m(n_j)·log 2  for every pair k < j of basis entries."""
    pairs: List[IneqPair] = []
    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            ek, ej = entries[a], entries[b]
            lhs = ek.log_a + ek.degree * math.log(ej.valence)
            rhs = ej.valence * LN2
            margin = log_margin(lhs, rhs)
            pairs.append(IneqPair(ek.k, ej.k, lhs_log=lhs, rhs_log=rhs, margin=margin, ok=margin > 0))
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


class DecayRow(NamedTuple):
    k: int
    n: int
    measured: float  # log norm of P_{n_k}(D) applied to the strict tail j > k
    bound: float  # log of the sum over j >= k of |a_j| (2r)^{m(n_j)}


class DecayReport(NamedTuple):
    rows: Tuple[DecayRow, ...]
    radius: float

    @property
    def measured_nonincreasing(self) -> bool:
        ms = [row.measured for row in self.rows]
        return all(b <= a for a, b in zip(ms, ms[1:]))


def decay_report(basis: LacunaryBasis, f: TaylorPolynomial, r: float) -> DecayReport:
    """Per-step decay audit for a lacunary member f.

    ``measured`` applies P_{n_k}(D) to the strict tail sum(a_j z^{m_j}, j > k),
    which is the part the pairwise bound sum(|a_j| (2r)^{m_j}, j >= k) provably
    dominates; the j = k term is governed by the falling factorial m_k!/(m_k-s)!
    and can exceed the bound by orders of magnitude. measured <= bound is
    asserted for every step.

    ``measured`` sums |a_j c_s| m_j!/(m_j-s)! r^(m_j-s) over tail terms j and
    operator terms s in the log domain, each log m_j!/(m_j-s)! from ``log_falling``:
    the quantity the pairwise bound controls term by term. It is the tail image's
    majorant norm when no two image blocks [m_j - d_k, m_j - m_k] share a degree,
    as on every ``select_indices`` basis: the recursion forces d_j < m_{j+1}/log2(m_{j+1})
    with m_{j+1} >= 4, so m_{j+1} - m_j > d_j > d_k - m_k for j > k. Blocks collide
    only in a hand-built basis with some log A_j < 0 or no pairwise audit; ``measured``
    is then the triangle-inequality majorant, at least the norm, and measured <= bound
    holds.
    """
    if r <= 0:
        raise PreconditionError("radius must be positive")
    exponents = [e.valence for e in basis.entries]
    slot = {m: i for i, m in enumerate(exponents)}
    coeffs: List = [None] * len(exponents)
    for j, c in f.terms():
        if j not in slot:
            raise PreconditionError(
                f"membership violation: coefficient at degree {j} is off the "
                f"lacunary support {tuple(exponents)}"
            )
        coeffs[slot[j]] = c

    log_r = math.log(r)
    log_2r = math.log(2 * r) if 2 * r < math.inf else LN2 + log_r  # 2r overflows from r = 2^1023
    rows: List[DecayRow] = []
    for entry in basis.entries:
        k = entry.k
        tail = [(m_j, log_abs(a)) for m_j, a in zip(exponents[k:], coeffs[k:]) if a is not None]
        # an empty strict tail (always the last entry) needs no coefficients
        items = list(basis.seq.log_items(entry.n)) if tail else []
        measured = log_sum(
            a_log + c_log + log_falling(m_j, s) + (m_j - s) * log_r
            for m_j, a_log in tail
            for s, c_log in items
        )
        bound = _majorant_log(((m, a) for m, a in zip(exponents[k - 1:], coeffs[k - 1:]) if a is not None), log_2r)
        certify(f"tail decay bound at step {k}", measured, bound, strict=False)
        rows.append(DecayRow(k=k, n=entry.n, measured=measured, bound=bound))
    return DecayReport(rows=tuple(rows), radius=r)


# -- serialization ---------------------------------------------------------------


def write_basis_csv(basis: LacunaryBasis, out: TextIO) -> None:
    write_csv(out, "k,n_k,m(n_k),d(n_k),logA_k", basis.entries)


def write_decay_csv(report: DecayReport, out: TextIO) -> None:
    write_csv(out, "k,measured_log,bound_log", ((row.k, row.measured, row.bound) for row in report.rows))
