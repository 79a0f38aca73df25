"""Greedy construction of finite hypercyclic-orbit witnesses.

A trace is built step by step: at step k (target y_k, radius r_k, tolerance
eps_k) the engine picks the least admissible index n_k > n_{k-1} such that

  (a) the valence m(n_k) exceeds the degree of every earlier correction, so
      P_{n_k}(D) annihilates them exactly,
  (b) the correction h_k (the right inverse of y_k under P_{n_k}(D)) has
      majorant norm below eps_k on |z| <= r_k,
  (c) every earlier operator maps h_k below eps_k on its own radius, tried first on a floor read from h_k's
      degree and top coefficient in closed form, before h_k is built where a closed-form ceiling proves (b).

The accumulated vector x_K = sum(h_k) then satisfies, for every i <= K,
||P_{n_i}(D) x_K - y_i|| on |z| <= r_i bounded by sum(eps_j, j > i): the
steps below i are annihilated, step i is exact, and the tail is controlled
by (c). Every residual is re-verified by direct operator application,
independent of the construction bookkeeping.

The same engine runs multi-trace schedules (several traces interleaved on one
increasing index sequence, cross-condition (c) enforced globally), which is
what the prescribed-vector augmentation and joint-family demonstrations use.

Trace construction is sequential by nature; the residual re-verification pass
touches each step independently and may be parallelized by the caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, islice, takewhile
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from .errors import CapExhausted, InvariantViolation, PreconditionError
from .families import OperatorSequence
from .inverses import inverse_for_polynomial
from .scalars import (
    LN2, NEG_INF, QComplex, certify, format_scalar, log_abs, log_falling, log_fraction, log_margin, log_sum,
    write_csv, write_jsonl,
)
from .series import PolynomialOperator, TaylorPolynomial, apply_operator


# -- target enumeration ----------------------------------------------------------


def _reduced_fractions_of_weight(weight: int) -> List[Fraction]:
    """Nonzero rationals p/q in lowest terms with |p| + q == weight, sorted."""
    out = []
    for q in range(1, weight):
        p = weight - q
        if math.gcd(p, q) == 1:
            out.append(Fraction(p, q))
            out.append(Fraction(-p, q))
    return sorted(out)


def _polys_of_complexity(c: int) -> List[TaylorPolynomial]:
    """All rational polynomials of complexity exactly c, in canonical order.

    Complexity: 1 for the zero polynomial, else the sum over nonzero terms
    a_j z^j of (|p| + q + j) with a_j = p/q in lowest terms. Each class is
    finite; the union over c covers every rational polynomial exactly once.
    """
    if c == 1:
        return [TaylorPolynomial.zero()]

    results: List[List[Tuple[int, Fraction]]] = []

    def rec(budget: int, min_exp: int, acc: List[Tuple[int, Fraction]]) -> None:
        if budget == 0:
            if acc:
                results.append(list(acc))
            return
        for j in range(min_exp, budget + 1):
            for w in range(2, budget - j + 1):
                for val in _reduced_fractions_of_weight(w):
                    acc.append((j, val))
                    rec(budget - j - w, j + 1, acc)
                    acc.pop()

    rec(c, 0, [])

    def key(pairs: List[Tuple[int, Fraction]]):
        deg = max(j for j, _ in pairs)
        dense = [Fraction(0)] * (deg + 1)
        for j, v in pairs:
            dense[j] = v
        return (deg, dense)

    results.sort(key=key)
    return [
        TaylorPolynomial.from_pairs([(j, QComplex(v)) for j, v in pairs]) for pairs in results
    ]


def _rational_diagonal() -> Iterable[TaylorPolynomial]:
    c = 1
    while True:
        yield from _polys_of_complexity(c)
        c += 1


def enumerate_targets(count: int, *, zero_recurrent: bool = False) -> List[TaylorPolynomial]:
    """Deterministic target polynomials for the orbit construction.

    Lists all rational polynomials by increasing complexity (zero first).
    With zero_recurrent set, every even position (1-based) targets the zero
    polynomial and the odd positions walk the nonzero stream, so zero recurs
    infinitely often as the count grows.
    """
    if count < 0:
        raise PreconditionError("count must be >= 0")
    if not zero_recurrent:
        return list(islice(_rational_diagonal(), count))
    stream = (p for p in _rational_diagonal() if not p.is_zero)
    return [
        TaylorPolynomial.zero() if position % 2 == 0 else next(stream)
        for position in range(1, count + 1)
    ]


# -- greedy engine -----------------------------------------------------------------


class SynthesisStep(NamedTuple):
    index: int  # 1-based position inside its trace
    global_index: int  # 1-based position in the build schedule
    trace: int
    n: int
    target: TaylorPolynomial
    radius: float
    eps: Fraction
    correction: TaylorPolynomial
    correction_norm: float  # log ||h_k|| on |z| <= r_k
    cross_norm_logs: Tuple[float, ...]  # against all earlier global steps


class ResidualRecord(NamedTuple):
    index: int
    n: int
    radius: float
    residual: float  # log ||P_{n_i}(D) x - y_i|| on |z| <= r_i
    budget_log: float  # log sum(eps_j, j > i) within the trace's schedule
    certificate_log: float  # log 2^(1-i)
    within_budget: bool
    certified: bool


class SynthesisTrace(NamedTuple):
    seq: OperatorSequence
    steps: Tuple[SynthesisStep, ...]
    vector: TaylorPolynomial
    residuals: Tuple[ResidualRecord, ...]

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(s.n for s in self.steps)

    def zero_steps(self) -> Tuple[SynthesisStep, ...]:
        return tuple(s for s in self.steps if s.target.is_zero)


def _correction_bounds(
    seq: OperatorSequence, n: int, y_logs: Sequence[Tuple[int, float]], log_r: float
) -> Tuple[int, float, float]:
    """(K+m, log|h_(K+m)|, a ceiling on log ||h|| on |z| <= e^log_r) of h = sum(y_k f_{n,k}), P_n of valence m and
    y_logs the (k, log|y_k|) of a target of degree K in ascending k, without h. Only f_{n,K} reaches z^(K+m), with top
    coefficient K!/(c_m (K+m)!), so nothing cancels there. f_{n,k} has k! u_(k-s) / (s+m)! at z^(s+m), where
    u = 1/sum(c_(m+i) x^i) as a power series, and back-substitution bounds |u_t| by
    U_t = sum(|c_(m+i)| U_(t-i), i = 1..t) / |c_m|, so ||h|| <= sum(|y_k| U_(k-s) r^(s+m) k!/(s+m)!, s <= k),
    with equality under a monomial. (-1, 0.0, -inf) for a zero target."""
    if not y_logs:
        return -1, 0.0, NEG_INF
    deg, m = y_logs[-1][0], seq.valence(n)
    c = dict(takewhile(lambda item: item[0] <= m + deg, seq.log_items(n)))  # log|c_j| for j <= K+m
    u = [-c[m]]  # log U_t
    for t in range(1, deg + 1):
        u.append(log_sum(c.get(m + i, NEG_INF) + u[t - i] for i in range(1, t + 1)) - c[m])
    falls = [log_falling(s + m, m) for s in range(deg + 1)]  # log (s+m)!/s!
    ceiling = log_sum(ly + log_falling(k, k - s) + u[k - s] - falls[s] + (s + m) * log_r
                      for k, ly in y_logs for s in range(k + 1))
    return deg + m, y_logs[-1][1] - c[m] - falls[deg], ceiling


def _top_image_logs(degree: int, log_top: float, priors: Iterable[Tuple[int, float, float]]) -> Iterator[float]:
    """Per (m, log|c_m|, log r), a floor for log ||P(D) h|| on |z| <= r, P of valence m, from h's degree K and
    log|h_K|: only c_m z^m acting on h_K z^K reaches z^(K-m), so c_m h_K K!/(K-m)! there cannot cancel, and its
    term alone (K!/(K-m)! from ``log_falling``) bounds the majorant from below. -inf when K < m."""
    for m, log_c, log_r in priors:
        yield log_c + log_top + log_falling(degree, m) + (degree - m) * log_r if degree >= m else -math.inf


def _build_schedule(
    seq: OperatorSequence,
    schedule: Sequence[Tuple[int, TaylorPolynomial]],
    n_cap: int,
    index_pool: Optional[Sequence[int]] = None,
) -> List[SynthesisStep]:
    """Run the greedy selection over a (trace, target) schedule.

    Step s works on radius s with tolerance 2^-s: the residual certificates
    2^(1-i) rest on exactly this schedule. Each candidate runs one chain:
    annihilation; (b), proven by the closed-form ceiling of ``_correction_bounds``
    below eps_s beyond rounding, or else by the exact correction h (zero, of norm
    -inf, for a zero target); (c)'s floors from h's closed-form head
    (``_top_image_logs``), one above eps_s beyond rounding rejecting the
    candidate with no h built or operator applied; h, if not built yet; the exact
    (c) over the earlier steps newest first, where a rejection almost always
    falls (largest radius, nearest index). The ceiling is tried only while the
    step's last exactly tested candidate passed (b), so F1, whose candidates all
    fail (b), never pays for it. A ceiling never lies below the exact norm, nor
    a floor above it, beyond rounding far inside ``log_margin``'s slack: the
    ceiling only adds a route for candidates whose (b) holds anyway, and neither
    changes the chosen index or the rejection tallies.
    """
    if seq.max_n is not None:
        n_cap = min(n_cap, seq.max_n)  # the end of a table bounds the scan like a cap
    steps: List[SynthesisStep] = []
    # (P(D), (m, log|c_m|, log r)) of each admitted step: test (c) applies the operator, its floor reads the rest
    admitted: List[Tuple[PolynomialOperator, Tuple[int, float, float]]] = []
    max_deg = -1
    n_prev = 0
    pool = sorted(index_pool) if index_pool is not None else None
    for s, (trace_id, target) in enumerate(schedule, start=1):
        r_s, log_r = float(s), math.log(s)
        e_s = Fraction(1, 2**s)
        e_log = log_fraction(e_s)
        y_logs = [(k, log_abs(y_k)) for k, y_k in target.terms()]
        candidates = range(n_prev + 1, n_cap + 1) if pool is None else [n for n in pool if n_prev < n <= n_cap]
        fail = {"annihilation": 0, "self_norm": 0, "cross_norm": 0}
        proven = False  # whether the last exactly tested candidate passed (b): only then is the ceiling tried
        for n in candidates:
            if seq.valence(n) <= max_deg:
                fail["annihilation"] += 1
                continue
            h = None
            bounds = proven and _correction_bounds(seq, n, y_logs, log_r)
            if not (bounds and log_margin(bounds[2], e_log) > 0):
                h = inverse_for_polynomial(seq.op(n), target)
                if not (proven := log_margin(h.majorant_norm(r_s), e_log) > 0):
                    fail["self_norm"] += 1
                    continue
            degree, log_top, _ = bounds or _correction_bounds(seq, n, y_logs, log_r)
            floors = _top_image_logs(degree, log_top, (p for _, p in reversed(admitted)))
            if any(log_margin(floor, e_log) < 0 for floor in floors):
                fail["cross_norm"] += 1
                continue
            h = inverse_for_polynomial(seq.op(n), target) if h is None else h
            cross_logs: List[float] = []
            for prior, (prior_op, _) in zip(reversed(steps), reversed(admitted)):
                c = apply_operator(prior_op, h).majorant_norm(prior.radius)
                if not log_margin(c, e_log) > 0:
                    break
                cross_logs.append(c)
            else:
                break
            fail["cross_norm"] += 1
        else:
            raise CapExhausted(
                f"no admissible index <= {n_cap} at build step {s} "
                f"(rejections: {fail})",
                step=s,
                condition=max(fail, key=fail.get) if any(fail.values()) else None,
            )
        cross_logs.reverse()
        steps.append(
            SynthesisStep(
                index=1 + sum(prior.trace == trace_id for prior in steps),
                global_index=s,
                trace=trace_id,
                n=n,
                target=target,
                radius=r_s,
                eps=e_s,
                correction=h,
                correction_norm=h.majorant_norm(r_s),
                cross_norm_logs=tuple(cross_logs),
            )
        )
        m = seq.valence(n)
        admitted.append((seq.op(n), (m, seq.log_coeff(n, m), log_r)))
        max_deg = max(max_deg, h.degree)
        n_prev = n
    return steps


def _residual(op: PolynomialOperator, x: TaylorPolynomial, y: TaylorPolynomial, r: float) -> float:
    """log ||P(D) x - y|| on |z| <= r: the orbit residual every certificate rests on."""
    return (apply_operator(op, x) - y).majorant_norm(r)


def _assemble(seq: OperatorSequence, steps: Sequence[SynthesisStep], trace_id: int) -> SynthesisTrace:
    """The trace trace_id of a built schedule: its steps, the sum of their corrections, and every
    residual recomputed directly on that sum, independent of the bookkeeping."""
    own = tuple(s for s in steps if s.trace == trace_id)
    vector = TaylorPolynomial.zero()
    for step in own:
        vector = vector + step.correction
    records = []
    for pos, step in enumerate(own, start=1):
        residual = _residual(seq.op(step.n), vector, step.target, step.radius)
        tail = sum((s.eps for s in own[pos:]), Fraction(0))
        budget_log = log_fraction(tail) if tail else -math.inf
        cert_log = (1 - pos) * LN2
        within = certify("residual budget", residual, budget_log, strict=False, raises=False)
        certified = certify(f"residual certificate at step {pos}", residual, cert_log)
        records.append(
            ResidualRecord(
                index=pos,
                n=step.n,
                radius=step.radius,
                residual=residual,
                budget_log=budget_log,
                certificate_log=cert_log,
                within_budget=within,
                certified=certified,
            )
        )
    return SynthesisTrace(seq=seq, steps=own, vector=vector, residuals=tuple(records))


def synthesize(
    seq: OperatorSequence,
    targets: Sequence[TaylorPolynomial],
    *,
    n_cap: int = 10**6,
    index_pool: Optional[Sequence[int]] = None,
) -> SynthesisTrace:
    """Build a single trace whose orbit approximates the target list.

    Step k works on radius k with tolerance 2^-k. Requires a sequence with
    unbounded valences whose right inverses exist throughout (valence
    coefficient nonzero holds by construction); index_pool restricts the
    candidate indices (used by the augmentation scheduler).
    """
    if not targets:
        raise PreconditionError("need at least one target")
    schedule = [(0, t) for t in targets]
    return _assemble(seq, _build_schedule(seq, schedule, n_cap, index_pool), 0)


# -- perturbation ------------------------------------------------------------------


class PerturbRow(NamedTuple):
    index: int
    n: int
    annihilated: bool  # m(n_i) > deg g, so the residual is literally unchanged
    residual: float
    base_residual: float
    exactly_equal: bool


class PerturbReport(NamedTuple):
    rows: Tuple[PerturbRow, ...]
    any_annihilation: bool


def perturb(trace: SynthesisTrace, g: TaylorPolynomial) -> PerturbReport:
    """Residual table for x + g: unchanged exactly wherever m(n_i) > deg g."""
    seq = trace.seq
    combined = trace.vector + g
    rows = []
    for step, base in zip(trace.steps, trace.residuals):
        residual = _residual(seq.op(step.n), combined, step.target, step.radius)
        annihilated = seq.valence(step.n) > g.degree
        equal = residual == base.residual
        if annihilated and not equal:
            raise InvariantViolation(
                f"annihilated step {step.index} changed its residual under perturbation"
            )
        rows.append(
            PerturbRow(
                index=step.index,
                n=step.n,
                annihilated=annihilated,
                residual=residual,
                base_residual=base.residual,
                exactly_equal=equal,
            )
        )
    return PerturbReport(rows=tuple(rows), any_annihilation=any(r.annihilated for r in rows))


# -- prescribed-vector augmentation --------------------------------------------------


class AugmentRow(NamedTuple):
    lam: Fraction
    step_index: int
    n: int
    radius: float
    direct: float  # log ||P_n(D)(v + lam x0) - y|| recomputed on the sum
    bound: float  # log(v residual + |lam| * base orbit norm)
    stated_log: float  # log 2^(2-i)
    ok: bool


class AugmentReport(NamedTuple):
    base_zero_indices: Tuple[int, ...]
    second_trace: SynthesisTrace
    rows: Tuple[AugmentRow, ...]


def augment(
    seq: OperatorSequence,
    base_trace: SynthesisTrace,
    extra_targets: Sequence[TaylorPolynomial],
    lambda_set: Sequence[Fraction],
    *,
    n_cap: int = 10**6,
) -> AugmentReport:
    """Combine a zero-recurrent base vector with a second trace on its zero steps.

    The second trace v draws its indices from the base trace's zero-targeting
    steps, where the base orbit is already certified small; then for every
    lambda and extra target y the step witnesses

        ||P_n(D)(v + lambda x0) - y|| <= v's residual + |lambda| * base orbit,

    which stays below 2^(2-i) because the i-th usable zero step sits at base
    position 2i or later. Every bound is re-verified by direct application.
    """
    zero_steps = base_trace.zero_steps()
    if not zero_steps:
        raise PreconditionError("base trace has no zero-targeting steps")
    for step in base_trace.steps:
        if step.index % 2 == 0 and not step.target.is_zero:
            raise PreconditionError(
                "base trace is not zero-recurrent: even steps must target zero"
            )
    if not extra_targets:
        raise PreconditionError("need at least one extra target")
    if not lambda_set:
        raise PreconditionError("need at least one lambda")
    if len(extra_targets) > len(zero_steps):
        raise PreconditionError(
            f"{len(extra_targets)} extra targets need at least as many zero steps "
            f"in the base trace (have {len(zero_steps)})"
        )
    pool = [s.n for s in zero_steps]
    second = synthesize(seq, list(extra_targets), n_cap=n_cap, index_pool=pool)
    x0 = base_trace.vector
    rows: List[AugmentRow] = []
    for pos, step in enumerate(second.steps, start=1):
        y = step.target
        op = seq.op(step.n)
        v_res = second.residuals[pos - 1].residual
        base_orbit = apply_operator(op, x0).majorant_norm(step.radius)
        stated_log = (2 - pos) * LN2
        for lam in lambda_set:
            lam = Fraction(lam)
            direct = _residual(op, second.vector + x0.scale(lam), y, step.radius)
            bound = log_sum((v_res, log_abs(lam) + base_orbit))
            ok = (certify(f"augmentation bound at step {pos}, lambda {lam}", direct, bound, strict=False)
                  and certify(f"augmentation stated bound at step {pos}, lambda {lam}", bound, stated_log))
            rows.append(
                AugmentRow(
                    lam=lam,
                    step_index=pos,
                    n=step.n,
                    radius=step.radius,
                    direct=direct,
                    bound=bound,
                    stated_log=stated_log,
                    ok=ok,
                )
            )
    return AugmentReport(
        base_zero_indices=tuple(pool), second_trace=second, rows=tuple(rows)
    )


# -- joint families ----------------------------------------------------------------


class ComboRow(NamedTuple):
    combo: Tuple[Fraction, ...]
    target_index: int
    global_step: int
    n: int
    radius: float
    direct: float
    tolerance_log: float
    ok: bool


class JointReport(NamedTuple):
    traces: Tuple[SynthesisTrace, ...]
    combo_rows: Tuple[ComboRow, ...]
    supports_disjoint: bool


def joint_family(
    seq: OperatorSequence,
    trace_count: int,
    targets: Sequence[TaylorPolynomial],
    combo_set: Sequence[Sequence[Fraction]],
    *,
    n_cap: int = 10**6,
) -> JointReport:
    """Build trace_count interleaved traces plus witnessed combination steps.

    One global greedy schedule serves all traces (annihilation and cross-norm
    conditions enforced across traces), so at a step designated to trace j
    with target y/c_j every other trace's orbit is within the eps tail; the
    combination sum(c_l x^(l)) then lands within (sum |c_l|) * 2^-s of y.
    Corrections never share exponent ranges, hence the spans of distinct
    traces intersect trivially.
    """
    if trace_count < 2:
        raise PreconditionError("need at least two traces")
    if not targets:
        raise PreconditionError("need at least one target")
    if not combo_set:
        raise PreconditionError("need at least one combination")
    combos = [tuple(Fraction(c) for c in combo) for combo in combo_set]
    for combo in combos:
        if len(combo) != trace_count:
            raise PreconditionError("combination length must equal the trace count")
        if not any(combo):
            raise PreconditionError("the zero combination witnesses nothing")
    schedule: List[Tuple[int, TaylorPolynomial]] = []
    for y in targets:
        for tid in range(trace_count):
            schedule.append((tid, y))
    combo_slots: List[Tuple[int, Tuple[Fraction, ...], int]] = []  # (global step, combo, target idx)
    for combo in combos:
        designated = next(i for i, c in enumerate(combo) if c)
        for t_idx, y in enumerate(targets):
            scaled = y.scale(QComplex(1) / QComplex(combo[designated]))
            schedule.append((designated, scaled))
            combo_slots.append((len(schedule), combo, t_idx))
    steps = _build_schedule(seq, schedule, n_cap)
    traces = [_assemble(seq, steps, tid) for tid in range(trace_count)]
    supports = []
    for step in steps:
        if not step.correction.is_zero:
            sup = step.correction.support()
            supports.append((sup[0], sup[-1]))
    disjoint = all(b0 > a1 for (_, a1), (b0, _) in zip(supports, supports[1:]))
    combo_rows: List[ComboRow] = []
    by_global = {s.global_index: s for s in steps}
    for global_step, combo, t_idx in combo_slots:
        step = by_global[global_step]
        y = targets[t_idx]
        combined = TaylorPolynomial.zero()
        for tid, coeff in enumerate(combo):
            if not coeff:
                continue
            combined = combined + traces[tid].vector.scale(coeff)
        direct = _residual(seq.op(step.n), combined, y, step.radius)
        abs_sum = sum(abs(c) for c in combo)
        tolerance_log = log_fraction(abs_sum) - global_step * LN2
        ok = certify(f"combination bound at global step {global_step}", direct, tolerance_log)
        combo_rows.append(
            ComboRow(
                combo=combo,
                target_index=t_idx,
                global_step=global_step,
                n=step.n,
                radius=step.radius,
                direct=direct,
                tolerance_log=tolerance_log,
                ok=ok,
            )
        )
    return JointReport(
        traces=tuple(traces), combo_rows=tuple(combo_rows), supports_disjoint=disjoint
    )


# -- serialization -----------------------------------------------------------------


def _poly_json(poly: TaylorPolynomial) -> list:
    return [[j, format_scalar(c)] for j, c in poly.terms()]


def write_trace_jsonl(trace: SynthesisTrace, out: TextIO) -> None:
    """One record per step, then one residual record per step, then a summary."""
    steps = (
        {
            "kind": "step",
            "step": step.index,
            "n": step.n,
            "radius": step.radius,
            "eps": str(step.eps),
            "target": _poly_json(step.target),
            "correction": _poly_json(step.correction),
            "correction_norm_log": step.correction_norm,
            "cross_norm_logs": step.cross_norm_logs,
        }
        for step in trace.steps
    )
    residuals = (
        {
            "kind": "residual",
            "step": rec.index,
            "n": rec.n,
            "radius": rec.radius,
            "residual_log": rec.residual,
            "budget_log": rec.budget_log,
            "certificate_log": rec.certificate_log,
            "within_budget": rec.within_budget,
            "certified": rec.certified,
        }
        for rec in trace.residuals
    )
    summary = {
        "kind": "summary",
        "sequence": trace.seq.label,
        "indices": trace.indices,
        "vector_degree": trace.vector.degree,
    }
    write_jsonl(out, chain(steps, residuals, [summary]))


def write_residual_csv(trace: SynthesisTrace, out: TextIO) -> None:
    write_csv(
        out,
        "i,n_i,radius,residual_log,budget_log,certificate_log,certified",
        (
            (rec.index, rec.n, rec.radius, rec.residual, rec.budget_log, rec.certificate_log, rec.certified)
            for rec in trace.residuals
        ),
    )
