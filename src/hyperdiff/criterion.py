"""Hypothesis assembly for the four-part spaceability criterion.

For a configured (sequence, route) pair the verifier gathers evidence that

  (i)   P_n(D) g -> 0 for polynomials g       (exact: zero once m(n) > deg g),
  (ii)  S_n y -> 0 on the route's target set  (decay sweeps),
  (iii) P_n(D) S_n y = y                      (exact identities per (n, k)),
  (iv)  P_{n_k}(D) f -> 0 on the lacunary subspace (tail decay audit),

and combines the four verdicts. The criterion's abstract conclusion (a closed
subspace of hypercyclic vectors) is realized separately by the synthesis
module; this one only certifies the hypotheses at desk scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, TextIO, Tuple

from .errors import PreconditionError
from .families import GrowthRule, OperatorSequence, check_property_P, combine
from .inverses import build_f_nk, fnk_decay
from .lacunary import decay_report, m0_member, select_indices
from .scalars import LogMagnitude, QComplex
from .series import TaylorPolynomial, apply_operator, eigen_defect_bound, exp_truncate
from .synthesis import _mag_json, _residual

# how many n values to spot-check for exact identities
SWEEP_POINTS = 12


@dataclass
class CriterionConfig:
    n_lo: int = 1
    n_hi: int = 40
    k_max: int = 3
    test_degrees: Tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    u_samples: Tuple = ()
    r: float = 2.0
    basis_size: int = 4
    trunc: int = 60
    seed: int = 0


@dataclass
class HypothesisEvidence:
    verdict: str
    rows: List[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


@dataclass
class CriterionReport:
    route: str
    seq_label: str
    items: dict  # keys "i", "ii", "iii", "iv" -> HypothesisEvidence

    @property
    def overall(self) -> str:
        return combine(ev.verdict for ev in self.items.values())


def _sample_indices(lo: int, hi: int, count: int) -> List[int]:
    if hi - lo + 1 <= count:
        return list(range(lo, hi + 1))
    step = (hi - lo) / (count - 1)
    seen = []
    for i in range(count):
        n = round(lo + i * step)
        if not seen or n > seen[-1]:
            seen.append(n)
    return seen


def _battery(degrees: Sequence[int], seed: int) -> List[TaylorPolynomial]:
    """Deterministic test polynomials: one per degree with mixed rational coefficients."""
    import random

    rng = random.Random(seed)
    out = []
    for d in degrees:
        coeffs = [QComplex(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(d)]
        coeffs.append(QComplex(Fraction(rng.randint(1, 5), 1)))
        out.append(TaylorPolynomial(coeffs))
    return out


def _check_unbounded_valence(seq: OperatorSequence, lo: int, hi: int) -> None:
    vals = [seq.valence(n) for n in _sample_indices(lo, hi, 16)]
    if max(vals) <= vals[0]:
        raise PreconditionError(
            "valence sequence looks bounded over the sweep range; the lacunary "
            "selection (hypothesis on unbounded valences) cannot proceed"
        )


def _hypothesis_i(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    rows = []
    ns = range(cfg.n_lo, cfg.n_hi + 1)
    for g in _battery(cfg.test_degrees, cfg.seed):
        crossing = next((n for n in ns if seq.valence(n) > g.degree), None)
        ok = None if crossing is None else all(
            apply_operator(seq.op(n), g).is_zero
            for n in _sample_indices(crossing, cfg.n_hi, SWEEP_POINTS)
        )
        rows.append({"degree": g.degree, "crossing": crossing, "exact_zero": ok})
    verdicts = {None: "inconclusive", True: "supports", False: "refutes"}
    crossings = {row["degree"]: row["crossing"] for row in rows if row["crossing"] is not None}
    return HypothesisEvidence(
        verdict=combine(verdicts[row["exact_zero"]] for row in rows),
        rows=rows,
        notes={"crossings": crossings},
    )


def _hypothesis_ii_q(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    rows = []
    for k in range(0, cfg.k_max + 1):
        rep = fnk_decay(seq, k, max(cfg.r, 1.5), (max(cfg.n_lo, 2), cfg.n_hi))
        final = rep.rows[-1].norm.log
        rows.append(dict(k=k, verdict=rep.verdict, crossing=rep.crossing, final_norm_log=final))
    return HypothesisEvidence(verdict=combine(row["verdict"] for row in rows), rows=rows)


def _hypothesis_ii_p(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    rep = check_property_P(seq, cfg.u_samples, (cfg.n_lo, cfg.n_hi), GrowthRule())
    verdicts, tracks = rep.tracks["per_sample_verdicts"], rep.tracks["samples"]
    # S_n e_w = e_w / P_n(w): growth of |P_n(w)| is exactly decay of the inverse
    rows = [
        {"w": str(w), "p_growth_verdict": verdicts[str(w)], "final_log": tracks[str(w)][-1]}
        for w in cfg.u_samples
    ]
    return HypothesisEvidence(verdict=rep.verdict, rows=rows)


def _hypothesis_iii_q(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    rows = []
    verdict = "supports"
    exact_everywhere = True
    for n in _sample_indices(cfg.n_lo, cfg.n_hi, SWEEP_POINTS):
        op = seq.op(n)
        for k in range(0, cfg.k_max + 1):
            if op.exact:
                build_f_nk(op, k, verify=True)  # raises on failure
                rows.append({"n": n, "k": k, "identity": "exact"})
            else:
                exact_everywhere = False
                inv = build_f_nk(op, k, verify=False)
                d_log = _residual(op, inv.f, TaylorPolynomial.monomial(k, 1.0 + 0j), max(cfg.r, 1.0)).log
                ok = d_log < -9 * math.log(10)
                rows.append({"n": n, "k": k, "identity": "float", "defect_log": d_log})
                if not ok:
                    verdict = "refutes"
    return HypothesisEvidence(
        verdict=verdict if rows else "inconclusive",
        rows=rows,
        notes={"exact": exact_everywhere},
    )


def _hypothesis_iii_p(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    rows = []
    verdict = "supports"
    for n in _sample_indices(cfg.n_lo, cfg.n_hi, SWEEP_POINTS):
        op = seq.op(n)
        for w in cfg.u_samples:
            val = op.value_at(w)
            if not val:
                rows.append({"n": n, "w": str(w), "status": "root (inverse defined as 0)"})
                continue
            # algebraic identity P(w) * (1/P(w)) = 1 is exact; certify the
            # truncation defect against its reported bound
            bound = eigen_defect_bound(op, w, cfg.trunc, 1.0)
            trunc, _ = exp_truncate(w, cfg.trunc, 1.0)
            defect = _residual(op, trunc, trunc.scale(val), 1.0)
            ok = defect.log <= bound.log + 1e-9 * max(1.0, abs(bound.log))
            rows.append(
                {
                    "n": n,
                    "w": str(w),
                    "defect_log": defect.log,
                    "bound_log": bound.log,
                    "within_bound": ok,
                }
            )
            if not ok:
                verdict = "refutes"
    return HypothesisEvidence(verdict=verdict if rows else "inconclusive", rows=rows)


def _hypothesis_iv(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    basis = select_indices(seq, cfg.basis_size)
    r_iv = max(1.0, cfg.r)
    q = max(4, math.ceil(4 * r_iv))
    member = m0_member(basis, [QComplex(Fraction(1, q ** e.valence)) for e in basis.entries])
    rep = decay_report(basis, member, r_iv)
    rows = [
        {
            "k": row.k,
            "n": row.n,
            "measured_log": row.measured.log,
            "bound_log": row.bound.log,
        }
        for row in rep.rows
    ]
    ok = rep.measured_nonincreasing and all(
        row.measured.log <= row.bound.log + 1e-9 for row in rep.rows
    )
    return HypothesisEvidence(
        verdict="supports" if ok else "inconclusive",
        rows=rows,
        notes={"indices": basis.indices, "decay_base": q, "radius": r_iv},
    )


def verify_hypotheses(
    seq: OperatorSequence, route: str, cfg: Optional[CriterionConfig] = None
) -> CriterionReport:
    """Assemble evidence for hypotheses (i)-(iv) along the requested route.

    Q-route needs a nonzero shifted leading coefficient throughout (valence
    coefficient, guaranteed by construction) and unbounded valences; P-route
    additionally needs a nonempty frequency sample set.
    """
    cfg = cfg or CriterionConfig()
    route = route.upper()
    if route not in ("P", "Q"):
        raise PreconditionError("route must be 'P' or 'Q'")
    if route == "P" and not cfg.u_samples:
        raise PreconditionError("P-route verification needs a nonempty u_samples set")
    if route == "P" and cfg.trunc < 0:
        raise PreconditionError(f"exponential truncation degree must be >= 0, got {cfg.trunc}")
    if cfg.n_lo > cfg.n_hi:
        raise PreconditionError(f"empty index range: n_lo={cfg.n_lo} exceeds n_hi={cfg.n_hi}")
    _check_unbounded_valence(seq, cfg.n_lo, cfg.n_hi)
    items = {"i": _hypothesis_i(seq, cfg)}
    if route == "Q":
        items["ii"] = _hypothesis_ii_q(seq, cfg)
        items["iii"] = _hypothesis_iii_q(seq, cfg)
    else:
        items["ii"] = _hypothesis_ii_p(seq, cfg)
        items["iii"] = _hypothesis_iii_p(seq, cfg)
    items["iv"] = _hypothesis_iv(seq, cfg)
    return CriterionReport(route=route, seq_label=seq.label, items=items)


def write_criterion_jsonl(report: CriterionReport, out: TextIO) -> None:
    """One JSON record per (hypothesis, row), plus a summary record."""
    for key in ("i", "ii", "iii", "iv"):
        ev = report.items[key]
        for row in ev.rows:
            record = {"hypothesis": key, "verdict": ev.verdict}
            record.update(_jsonable(row))
            out.write(json.dumps(record, sort_keys=True) + "\n")
    out.write(
        json.dumps(
            {
                "hypothesis": "overall",
                "route": report.route,
                "sequence": report.seq_label,
                "verdict": report.overall,
            },
            sort_keys=True,
        )
        + "\n"
    )


def _jsonable(row: dict) -> dict:
    out = {}
    for key, val in row.items():
        if isinstance(val, LogMagnitude):
            out[key] = _mag_json(val)
        elif isinstance(val, float) and math.isinf(val):
            out[key] = "-inf" if val < 0 else "inf"
        elif isinstance(val, tuple):
            out[key] = list(val)
        else:
            out[key] = val
    return out
