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

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, TextIO, Tuple

from .errors import PreconditionError
from .families import GrowthRule, OperatorSequence, check_property_P, combine
from .inverses import _fnk_decays, build_f_nk
from .lacunary import decay_report, m0_member, select_indices
from .scalars import QComplex, certify, write_jsonl
from .series import TaylorPolynomial, apply_operator, eigen_defect_bound, exp_truncate
from .synthesis import _residual

# how many n values to spot-check for exact identities
SWEEP_POINTS = 12


class CriterionConfig(NamedTuple):
    n_lo: int = 1
    n_hi: int = 40
    k_max: int = 3
    test_degrees: Tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    u_samples: Tuple = ()
    r: float = 2.0
    basis_size: int = 4
    trunc: int = 60
    seed: int = 0


class HypothesisEvidence(NamedTuple):
    verdict: str
    rows: List[dict]  # all of the evidence: criterion.jsonl writes one record per row


class CriterionReport(NamedTuple):
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
    battery = _battery(cfg.test_degrees, cfg.seed)
    ns = range(cfg.n_lo, cfg.n_hi + 1)
    firsts = [next((n for n in ns if seq.valence(n) > g.degree), None) for g in battery]
    checks = [set() if c is None else set(_sample_indices(c, cfg.n_hi, SWEEP_POINTS)) for c in firsts]
    exact = [None if c is None else True for c in firsts]
    for n in sorted(set().union(*checks)):  # n-major, so each P_n is built once
        op = seq.op(n)
        for i, g in enumerate(battery):
            if exact[i] and n in checks[i]:
                exact[i] = apply_operator(op, g).is_zero
    rows = [{"degree": g.degree, "crossing": c, "exact_zero": ok} for g, c, ok in zip(battery, firsts, exact)]
    verdicts = {None: "inconclusive", True: "supports", False: "refutes"}
    return HypothesisEvidence(verdict=combine(verdicts[ok] for ok in exact), rows=rows)


def _hypothesis_ii_q(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    reports = _fnk_decays(seq, range(cfg.k_max + 1), max(cfg.r, 1.5), (max(cfg.n_lo, 2), cfg.n_hi))
    rows = [
        dict(k=rep.k, verdict=rep.verdict, crossing=rep.crossing, final_norm_log=rep.rows[-1].norm)
        for rep in reports
    ]
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
    for n in _sample_indices(cfg.n_lo, cfg.n_hi, SWEEP_POINTS):
        op = seq.op(n)
        for k in range(0, cfg.k_max + 1):
            build_f_nk(op, k, verify=True)  # raises on failure
            rows.append({"n": n, "k": k, "identity": "exact"})
    return HypothesisEvidence(verdict="supports" if rows else "inconclusive", rows=rows)


def _hypothesis_iii_p(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    rows = []
    truncs = [exp_truncate(w, cfg.trunc, 1.0)[0] for w in cfg.u_samples]  # each depends on w alone
    for n in _sample_indices(cfg.n_lo, cfg.n_hi, SWEEP_POINTS):
        op = seq.op(n)
        for w, trunc in zip(cfg.u_samples, truncs):
            val = op.value_at(w)
            if not val:
                rows.append({"n": n, "w": str(w), "status": "root (inverse defined as 0)"})
                continue
            # algebraic identity P(w) * (1/P(w)) = 1 is exact; certify the
            # truncation defect against its reported bound
            bound = eigen_defect_bound(op, w, cfg.trunc, 1.0)
            defect = _residual(op, trunc, trunc.scale(val), 1.0)
            ok = certify("truncation defect bound", defect, bound, strict=False, raises=False)
            rows.append(
                {
                    "n": n,
                    "w": str(w),
                    "defect_log": defect,
                    "bound_log": bound,
                    "within_bound": ok,
                }
            )
    # a root row certifies nothing: supports needs a certified row and no refuted one
    certified = (row["within_bound"] for row in rows if "within_bound" in row)
    return HypothesisEvidence(verdict=combine("supports" if ok else "refutes" for ok in certified), rows=rows)


def _hypothesis_iv(seq: OperatorSequence, cfg: CriterionConfig) -> HypothesisEvidence:
    basis = select_indices(seq, cfg.basis_size)
    r_iv = max(1.0, cfg.r)
    q = max(4, math.ceil(4 * Fraction(r_iv)))  # exact: 4 * r_iv overflows a double from r_iv = 2^1022
    member = m0_member(basis, [QComplex(Fraction(1, q ** e.valence)) for e in basis.entries])
    rep = decay_report(basis, member, r_iv)
    rows = [
        {
            "k": row.k,
            "n": row.n,
            "measured_log": row.measured,
            "bound_log": row.bound,
        }
        for row in rep.rows
    ]
    # decay_report has already raised on any row whose measured norm exceeds its bound
    return HypothesisEvidence(verdict="supports" if rep.measured_nonincreasing else "inconclusive", rows=rows)


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
    if not cfg.r > 0:
        raise PreconditionError(f"radius r must be positive, got {cfg.r}")
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
    rows = [
        {"hypothesis": key, "verdict": report.items[key].verdict, **row}
        for key in ("i", "ii", "iii", "iv")
        for row in report.items[key].rows
    ]
    summary = {
        "hypothesis": "overall",
        "route": report.route,
        "sequence": report.seq_label,
        "verdict": report.overall,
    }
    write_jsonl(out, rows + [summary])
