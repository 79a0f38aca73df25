"""Greedy construction of finite hypercyclic-orbit witnesses.

A trace is built step by step: at step k (target y_k, radius r_k, tolerance
eps_k) the engine picks the least admissible index n_k > n_{k-1} such that

  (a) the valence m(n_k) exceeds the degree of every earlier correction, so
      P_{n_k}(D) annihilates them exactly,
  (b) the correction h_k (the right inverse of y_k under P_{n_k}(D)) has
      majorant norm below eps_k on |z| <= r_k,
  (c) every earlier operator maps h_k below eps_k on its own radius.

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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple

from .errors import CapExhausted, InvariantViolation, PreconditionError
from .families import OperatorSequence
from .inverses import inverse_for_polynomial
from .scalars import LN2, LogMagnitude, QComplex, fmt_log, format_scalar, log_fraction
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


@dataclass(frozen=True)
class SynthesisStep:
    index: int  # 1-based position inside its trace
    global_index: int  # 1-based position in the build schedule
    trace: int
    n: int
    target: TaylorPolynomial
    radius: float
    eps: Fraction
    correction: TaylorPolynomial
    correction_norm: LogMagnitude
    cross_norm_logs: Tuple[float, ...]  # against all earlier global steps


@dataclass(frozen=True)
class ResidualRecord:
    index: int
    n: int
    radius: float
    residual: LogMagnitude
    budget_log: float  # log sum(eps_j, j > i) within the trace's schedule
    certificate_log: float  # log 2^(1-i)
    within_budget: bool
    certified: bool


@dataclass(frozen=True)
class SynthesisTrace:
    seq: OperatorSequence
    steps: Tuple[SynthesisStep, ...]
    vector: TaylorPolynomial
    residuals: Tuple[ResidualRecord, ...]

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(s.n for s in self.steps)

    def zero_steps(self) -> Tuple[SynthesisStep, ...]:
        return tuple(s for s in self.steps if s.target.is_zero)


def _build_schedule(
    seq: OperatorSequence,
    schedule: Sequence[Tuple[int, TaylorPolynomial]],
    n_cap: int,
    index_pool: Optional[Sequence[int]] = None,
) -> List[SynthesisStep]:
    """Run the greedy selection over a (trace, target) schedule.

    Step s works on radius s with tolerance 2^-s: the residual certificates
    2^(1-i) rest on exactly this schedule.
    """
    steps: List[SynthesisStep] = []
    max_deg = -1
    n_prev = 0
    pool = sorted(index_pool) if index_pool is not None else None
    per_trace_count: dict = {}
    for s, (trace_id, target) in enumerate(schedule, start=1):
        r_s = float(s)
        e_s = Fraction(1, 2**s)
        e_log = log_fraction(e_s)
        if pool is not None:
            candidates: Iterable[int] = [n for n in pool if n > n_prev]
        else:
            candidates = range(n_prev + 1, n_cap + 1)
        fail = {"annihilation": 0, "self_norm": 0, "cross_norm": 0}
        chosen = None
        for n in candidates:
            if n > n_cap:
                break
            if seq.valence(n) <= max_deg:
                fail["annihilation"] += 1
                continue
            if target.is_zero:
                h = TaylorPolynomial.zero(exact=seq.exact)
                h_norm = LogMagnitude.zero()
            else:
                h = inverse_for_polynomial(seq.op(n), target)
                h_norm = h.majorant_norm(r_s)
                if not h_norm.log < e_log:
                    fail["self_norm"] += 1
                    continue
            cross_logs: List[float] = []
            ok = True
            for prior in steps:
                c = apply_operator(seq.op(prior.n), h).majorant_norm(prior.radius)
                if not c.log < e_log:
                    ok = False
                    break
                cross_logs.append(c.log)
            if not ok:
                fail["cross_norm"] += 1
                continue
            chosen = n
            break
        if chosen is None:
            worst = max(fail, key=lambda key: fail[key])
            raise CapExhausted(
                f"no admissible index <= {n_cap} at build step {s} "
                f"(rejections: {fail})",
                step=s,
                condition=worst,
            )
        per_trace_count[trace_id] = per_trace_count.get(trace_id, 0) + 1
        steps.append(
            SynthesisStep(
                index=per_trace_count[trace_id],
                global_index=s,
                trace=trace_id,
                n=chosen,
                target=target,
                radius=r_s,
                eps=e_s,
                correction=h,
                correction_norm=h_norm,
                cross_norm_logs=tuple(cross_logs),
            )
        )
        if not h.is_zero:
            max_deg = max(max_deg, h.degree)
        n_prev = chosen
    return steps


def _trace_vector(seq: OperatorSequence, steps: Sequence[SynthesisStep], trace_id: int) -> TaylorPolynomial:
    vec = TaylorPolynomial.zero(exact=seq.exact)
    for step in steps:
        if step.trace == trace_id:
            vec = vec + step.correction
    return vec


def _residual(op: PolynomialOperator, x: TaylorPolynomial, y: TaylorPolynomial, r: float) -> LogMagnitude:
    """||P(D) x - y|| on |z| <= r: the orbit residual every certificate rests on."""
    return (apply_operator(op, x) - y).majorant_norm(r)


def _residual_table(
    seq: OperatorSequence,
    steps: Sequence[SynthesisStep],
    trace_id: int,
    vector: TaylorPolynomial,
) -> Tuple[ResidualRecord, ...]:
    """Direct recomputation of every residual, independent of the bookkeeping."""
    own = [s for s in steps if s.trace == trace_id]
    records = []
    for pos, step in enumerate(own, start=1):
        residual = _residual(seq.op(step.n), vector, step.target, step.radius)
        tail = sum((s.eps for s in own[pos:]), Fraction(0))
        budget_log = log_fraction(tail) if tail else -math.inf
        cert_log = (1 - pos) * LN2
        within = residual.is_zero or residual.log <= budget_log + 1e-9
        certified = residual.is_zero or residual.log <= cert_log + 1e-9
        if not certified:
            raise InvariantViolation(
                f"residual certificate failed at step {pos}: log residual "
                f"{residual.log:.6g} exceeds log 2^{{1-{pos}}} = {cert_log:.6g}"
            )
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
    return tuple(records)


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
    steps = _build_schedule(seq, schedule, n_cap, index_pool)
    vector = _trace_vector(seq, steps, 0)
    residuals = _residual_table(seq, steps, 0, vector)
    return SynthesisTrace(seq=seq, steps=tuple(steps), vector=vector, residuals=residuals)


# -- perturbation ------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbRow:
    index: int
    n: int
    annihilated: bool  # m(n_i) > deg g, so the residual is literally unchanged
    residual: LogMagnitude
    base_residual: LogMagnitude
    exactly_equal: bool


@dataclass(frozen=True)
class PerturbReport:
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
        equal = residual.log == base.residual.log
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


@dataclass(frozen=True)
class AugmentRow:
    lam: Fraction
    step_index: int
    n: int
    radius: float
    direct: LogMagnitude  # ||P_n(D)(v + lam x0) - y|| recomputed on the sum
    bound: LogMagnitude  # v residual + |lam| * base orbit norm
    stated_log: float  # log 2^(2-i)
    ok: bool


@dataclass(frozen=True)
class AugmentReport:
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
            bound = v_res + LogMagnitude.of(lam) * base_orbit
            ok = (
                (direct.is_zero or direct.log <= bound.log + 1e-9)
                and (bound.is_zero or bound.log <= stated_log + 1e-9)
            )
            if not ok:
                raise InvariantViolation(
                    f"augmentation bound failed at step {pos}, lambda {lam}: "
                    f"direct {direct.log:.6g}, bound {bound.log:.6g}, stated {stated_log:.6g}"
                )
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


@dataclass(frozen=True)
class ComboRow:
    combo: Tuple[Fraction, ...]
    target_index: int
    global_step: int
    n: int
    radius: float
    direct: LogMagnitude
    tolerance_log: float
    ok: bool


@dataclass(frozen=True)
class JointReport:
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
            scaled = y.scale(QComplex(1) / QComplex(combo[designated])) if y.exact else y.scale(1.0 / complex(combo[designated]))
            schedule.append((designated, scaled))
            combo_slots.append((len(schedule), combo, t_idx))
    steps = _build_schedule(seq, schedule, n_cap)
    traces = []
    for tid in range(trace_count):
        vector = _trace_vector(seq, steps, tid)
        own = tuple(s for s in steps if s.trace == tid)
        residuals = _residual_table(seq, steps, tid, vector)
        traces.append(
            SynthesisTrace(seq=seq, steps=own, vector=vector, residuals=residuals)
        )
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
        combined = TaylorPolynomial.zero(exact=seq.exact)
        for tid, coeff in enumerate(combo):
            if not coeff:
                continue
            combined = combined + traces[tid].vector.scale(coeff)
        direct = _residual(seq.op(step.n), combined, y, step.radius)
        abs_sum = sum(abs(c) for c in combo)
        tolerance_log = log_fraction(abs_sum) - global_step * LN2
        ok = direct.is_zero or direct.log <= tolerance_log + 1e-9
        if not ok:
            raise InvariantViolation(
                f"combination bound failed at global step {global_step}: "
                f"direct {direct.log:.6g} > tolerance {tolerance_log:.6g}"
            )
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
    return [[j, format_scalar(poly.coefficient(j))] for j in poly.support()]


def _mag_json(mag: LogMagnitude):
    return None if mag.is_zero else mag.log


def write_trace_jsonl(trace: SynthesisTrace, out: TextIO) -> None:
    """One record per step, then one residual record per step, then a summary."""
    for step in trace.steps:
        out.write(
            json.dumps(
                {
                    "kind": "step",
                    "step": step.index,
                    "n": step.n,
                    "radius": step.radius,
                    "eps": str(step.eps),
                    "target": _poly_json(step.target),
                    "correction": _poly_json(step.correction),
                    "correction_norm_log": _mag_json(step.correction_norm),
                    "cross_norm_logs": list(step.cross_norm_logs),
                },
                sort_keys=True,
            )
            + "\n"
        )
    for rec in trace.residuals:
        out.write(
            json.dumps(
                {
                    "kind": "residual",
                    "step": rec.index,
                    "n": rec.n,
                    "radius": rec.radius,
                    "residual_log": _mag_json(rec.residual),
                    "budget_log": None if math.isinf(rec.budget_log) else rec.budget_log,
                    "certificate_log": rec.certificate_log,
                    "within_budget": rec.within_budget,
                    "certified": rec.certified,
                },
                sort_keys=True,
            )
            + "\n"
        )
    out.write(
        json.dumps(
            {
                "kind": "summary",
                "sequence": trace.seq.label,
                "indices": list(trace.indices),
                "vector_degree": trace.vector.degree,
            },
            sort_keys=True,
        )
        + "\n"
    )


def write_residual_csv(trace: SynthesisTrace, out: TextIO) -> None:
    out.write("i,n_i,radius,residual_log,budget_log,certificate_log,certified\n")
    for rec in trace.residuals:
        out.write(
            f"{rec.index},{rec.n},{rec.radius},{fmt_log(rec.residual)},{fmt_log(rec.budget_log)},"
            f"{repr(rec.certificate_log)},{rec.certified}\n"
        )
