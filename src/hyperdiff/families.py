"""Operator-sequence families, property evidence checkers, and unicity tools.

The built-in families F1..F4 are the standard separating examples for the
three divergence properties:

  (P) |P_n(z)| -> +infinity on some unicity sample set,
  (Q) valence-driven growth m(n)|c_{m(n),n}|^{k/m(n)} -> +infinity with the
      shifted coefficients {c_{k+m(n),n}} bounded,
  (R) the minimum of |P_n| on some circle |z| = r -> +infinity.

Checkers gather monotone finite evidence and return three-valued verdicts;
they never claim to decide a limit. All statistics are computed in the log
domain, with per-family closed-form magnitude escorts so that coefficients
like n^(-n) never underflow. Each sweep visits n in increasing order and
assembles its report in that order; an ``OperatorSequence`` caches the
operator it built last, so a sequence is not meant to be shared across threads.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import sys
from collections import deque
from fractions import Fraction
from typing import (Callable, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, TextIO, Tuple,
                    Union)

from .errors import ConfigError, PreconditionError
from .scalars import (LN2, NEG_INF, QComplex, exp_log, log_abs, log_fraction, log_sum, to_complex, to_qcomplex,
                      write_csv)
from .series import PolynomialOperator, _majorant_log

# -- rational enumeration ------------------------------------------------------

def positive_rational(n: int) -> Fraction:
    """n-th positive rational in the diagonal enumeration.

    Pairs (p, q) with p, q >= 1 are listed by increasing p + q, ties broken by
    increasing p; duplicate values (2/2, 3/3, ...) are kept. Deterministic and
    reproducible by construction.
    """
    if n < 1:
        raise ValueError("enumeration index starts at 1")
    # block s = p + q holds s - 1 pairs, so it is the least s with s(s-1)/2 >= n
    s = (math.isqrt(8 * n - 7) + 3) // 2
    p = n - (s - 1) * (s - 2) // 2
    return Fraction(p, s - p)


# -- operator sequences --------------------------------------------------------


class Shape(NamedTuple):
    """P_n(z) = c_n z^n (z - rho_n)^mu_n, each field a function of n.

    ``c`` is the exact c_n, read only to build the operator. ``root`` is the
    exact rho_n and ``float_root`` its double, whose sign stays where it underflows;
    a multiplicity ``mult`` of 0 (the default) has no root.
    """

    c: Callable[[int], Fraction]
    log_c: Callable[[int], float]
    mult: Callable[[int], int] = lambda n: 0
    root: Optional[Callable[[int], Fraction]] = None
    log_root: Optional[Callable[[int], float]] = None
    float_root: Optional[Callable[[int], float]] = None

    def op(self, n: int) -> PolynomialOperator:
        """P_n in one integer pass from z^(n+mu) down: with c = a/b and rho = p/q, the coefficient at z^(n+i) is
        a C(mu, i) (-p)^k / (b q^k), k = mu - i, handed over as that unreduced pair."""
        c, mu = self.c(n), self.mult(n)
        if not mu:  # c alone, reduced already
            return PolynomialOperator._raw({n: QComplex.coerce(c)})
        (a, b), (p, q) = c.as_integer_ratio(), self.root(n).as_integer_ratio()
        pairs, comb, pk, qk = {n + mu: (a, b)}, 1, 1, 1  # C(mu, i), (-p)^k, q^k
        for i in range(mu - 1, -1, -1):
            comb, pk, qk = comb * (i + 1) // (mu - i), pk * -p, qk * q
            pairs[n + i] = (a * comb * pk, b * qk)
        return PolynomialOperator._raw(None, dict(reversed(pairs.items())))

    def items(self, n: int) -> Iterator[Tuple[int, float]]:
        """(n + i, log|c_n| + log C(mu, i) + (mu - i) log|rho_n|) in exponent order; lazy,
        so log_coeff(n, n + i) computes i + 1 items, not mu + 1."""
        lc, mu = self.log_c(n), self.mult(n)
        log_root = self.log_root(n) if mu else 0.0
        lg_mu = math.lgamma(mu + 1)
        for i in range(mu + 1):
            log_comb = lg_mu - math.lgamma(i + 1) - math.lgamma(mu - i + 1)
            yield n + i, lc + log_comb + (mu - i) * log_root

    def abs_sum(self, n: int) -> float:
        """log A_n = log(|c_n| (1 + |rho_n|)^mu_n)."""
        mu = self.mult(n)
        return self.log_c(n) + (mu * math.log1p(abs(self.float_root(n))) if mu else 0.0)

    def abs_at(self, n: int, z: Union[Fraction, complex]) -> float:
        """log(|c_n| |z|^n |z - rho_n|^mu_n); exact rho_n at a Fraction z, its double at a non-real complex z
        (a float estimate). Where |log|z| - log|rho_n|| > 64 ln 2 the smaller of |z|, |rho_n| is t < 2^-64 times
        the larger, so log|z - rho_n| is the larger log within |log(1 +- t)| <= t/(1 - t) < 2^-63: the value
        within mu_n 2^-63, under an ulp from mu_n 2^-10 up. Below that, near |P_n(z)| = 1 where the sign of the
        log can matter, the band widens to 1100 ln 2: past it t < 2^-1100, under half the least subnormal, so
        log(1 +- t) rounds to 0 on either route (F1 on |z| = 1). Only inside does a Fraction z build rho_n."""
        lz, mu = log_abs(z), self.mult(n)
        mag = self.log_c(n) + lz * n
        if mu and isinstance(z, Fraction) and abs(lz - self.log_root(n)) > 64 * LN2:
            far = mag + max(lz, self.log_root(n)) * mu
            if abs(far) >= mu * 2**-10 or abs(lz - self.log_root(n)) > 1100 * LN2:
                return far
        if mu:
            rho = self.root(n) if isinstance(z, Fraction) else self.float_root(n)
            mag = mag + log_abs(z - rho) * mu
        return mag

    def circle_min(self, n: int, r: float) -> float:
        """log min |P_n| on |z| = r, that is |c_n| r^n |r - |rho_n||^mu_n, at z = r sgn(rho_n)."""
        z = Fraction(r)
        return self.abs_at(n, -z if self.mult(n) and math.copysign(1.0, self.float_root(n)) < 0 else z)


class OperatorSequence:
    """An indexed family n -> P_n with metadata and log-domain escorts, from one of a shape or a table.

    F1..F4 pass a ``shape``, which gives valence n, degree n + mu_n, A_n and
    |P_n(z)| in closed form and yields the (exponent, log |c_{j,n}|) items
    lazily, so sweeps stay overflow/underflow free and ``log_coeff``
    reads only up to the exponent it asks for. F5 passes a ``table``, P_n = table[n - 1] for
    n <= ``max_n = len(table)``, and each of these is read from the stored operator. Valence n
    is nondecreasing, so ``select_indices`` gallops on exactly the shaped families.

    On a shape, ``op`` keeps only the operator it built last, so a sweep or scan holds
    one exact operator at a time however far n runs: a loop that reads P_n more than
    once visits n in its outer loop, or holds the operator itself.
    """

    def __init__(
        self,
        tag: str,
        label: str,
        *,
        shape: Optional[Shape] = None,
        table: Optional[Sequence[PolynomialOperator]] = None,
    ):
        if (shape is None) == (table is None):
            raise PreconditionError("an operator sequence takes exactly one of a shape and a table")
        self.tag = tag
        self.label = label
        self.shape = shape
        self.table = table
        self.max_n = None if table is None else len(table)
        self._last: Tuple[int, Optional[PolynomialOperator]] = (0, None)  # (n, P_n) built last

    def _check_index(self, n: int) -> None:
        if n < 1:
            raise PreconditionError(f"sequence index must be >= 1, got {n}")
        if self.max_n is not None and n > self.max_n:
            raise PreconditionError(f"sequence {self.label} has only {self.max_n} entries")

    def op(self, n: int) -> PolynomialOperator:
        self._check_index(n)
        if self.table is not None:
            return self.table[n - 1]
        if self._last[0] != n:
            self._last = (n, self.shape.op(n))
        return self._last[1]

    def valence(self, n: int) -> int:
        self._check_index(n)
        return n if self.shape is not None else self.op(n).valence

    def degree(self, n: int) -> int:
        self._check_index(n)
        return n + self.shape.mult(n) if self.shape is not None else self.op(n).degree

    def log_items(self, n: int) -> Iterable[Tuple[int, float]]:
        """(j, log |c_{j,n}|) for each stored coefficient of P_n, ascending in j, lazily."""
        self._check_index(n)
        if self.shape is not None:
            return self.shape.items(n)
        return ((j, log_abs(c)) for j, c in self.op(n).terms())

    def log_coeff(self, n: int, j: int) -> float:
        """log |c_{j,n}|, stopping at the first matching item."""
        for jj, mag in self.log_items(n):
            if jj == j:
                return mag
        return NEG_INF

    def coeff_abs_log_sum(self, n: int) -> float:
        """log of A_n = sum |c_{j,n}|; closed form on a shaped family."""
        self._check_index(n)
        if self.shape is not None:
            return self.shape.abs_sum(n)
        return log_sum(mag for _, mag in self.log_items(n))

    def log_abs_at(self, n: int, z) -> float:
        """log |P_n(z)|.

        A shaped family reads its closed form at an int or Fraction z, exactly,
        and at a non-real z in floats. Every other point (a QComplex on the real
        axis, any point of a table) evaluates the operator exactly, which is
        what makes near-root witnesses detectable below 2^-n.
        """
        self._check_index(n)
        if self.shape is not None and isinstance(z, (int, Fraction)):
            return self.shape.abs_at(n, Fraction(z))
        z = to_qcomplex(z)
        if self.shape is not None and z.im:
            return self.shape.abs_at(n, to_complex(z))
        return log_abs(self.op(n).value_at(z))

    def __repr__(self):
        return f"OperatorSequence({self.label})"


def _parse_rational(value) -> Fraction:
    if isinstance(value, (int, Fraction, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"expected a rational constant, got {value!r}")


def _f1() -> OperatorSequence:
    # P_n = z^n (z + n^-n) = z^n/n^n + z^(n+1); in floats the root underflows harmlessly for large n.
    # 1 / Fraction(n**n) copies n**n by a multiplication, where Fraction(1, n**n) divides it by
    # their gcd 1: the division is what makes the exact root slow to build for large n
    shape = Shape(c=lambda n: 1, log_c=lambda n: 0.0, mult=lambda n: 1,
                  root=lambda n: -(1 / Fraction(n**n)), log_root=lambda n: -n * math.log(n),
                  float_root=lambda n: -(math.exp(-n * math.log(n)) if n * math.log(n) < 700 else 0.0))
    return OperatorSequence("F1", "F1: z^n/n^n + z^(n+1)", shape=shape)


def _f2(c_mode: str = "paper", log_base: str = "e") -> OperatorSequence:
    # P_n = c_n z^n (z + 1); paper coefficients c_n = n^(-n/log(n+1)), unit ones c_n = 1
    if c_mode not in ("paper", "unit"):
        raise ConfigError(f"F2 c_mode must be 'paper' or 'unit', got {c_mode!r}")
    try:
        ln_base = 1.0 if log_base == "e" else math.log(float(log_base))
    except ValueError:  # not a number, or not positive
        ln_base = math.nan
    if not 0 < ln_base < math.inf:
        raise ConfigError(f"F2 log_base must be e or a finite number above 1, got {log_base!r}")
    unit = c_mode == "unit"

    def log_c(n: int) -> float:
        # ln c_n = -n * ln(n) * ln(base) / ln(n+1)
        return -n * math.log(n) * ln_base / math.log(n + 1) if n > 1 and not unit else 0.0

    def c(n: int):
        # exp(log c_n) as its exact dyadic value while that double is normal; below, the
        # same 53-bit mantissa over a wider power of two, so c_n never underflows
        if unit:
            return 1
        lc = log_c(n)
        value = math.exp(lc)
        if value >= sys.float_info.min:
            return Fraction(value)
        e = math.ceil(-lc / LN2)
        return Fraction(math.exp(lc + e * LN2)) / 2**e

    shape = Shape(c=c, log_c=log_c, mult=lambda n: 1, root=lambda n: -1,
                  log_root=lambda n: 0.0, float_root=lambda n: -1.0)
    label = "F2(unit): z^n (1 + z)" if unit else "F2: n^(-n/log(n+1)) z^n (1 + z)"
    return OperatorSequence("F2", label, shape=shape)


def _f3() -> OperatorSequence:
    # P_n = z^n (z - q_n)^n over the diagonal enumeration of positive rationals
    shape = Shape(c=lambda n: 1, log_c=lambda n: 0.0, mult=lambda n: n, root=positive_rational,
                  log_root=lambda n: log_fraction(positive_rational(n)),
                  float_root=lambda n: float(positive_rational(n)))
    return OperatorSequence("F3", "F3: z^n (z - q_n)^n", shape=shape)


def _f4(c=1, decay: Optional[str] = None) -> OperatorSequence:
    # P_n = c_n z^n with c_n = c, or c 2^(-n^3) under the pow2cubic decay
    c = _parse_rational(c)
    if c == 0:
        raise ConfigError("F4 constant c must be nonzero")
    if decay not in (None, "pow2cubic"):
        raise ConfigError("F4 decay must be omitted or 'pow2cubic'")
    log_abs_c = log_abs(c)
    if decay is None:
        shape = Shape(c=lambda n: c, log_c=lambda n: log_abs_c)
        label = f"F4: {c} z^n"
    else:
        shape = Shape(c=lambda n: c * Fraction(1, 2 ** (n**3)),
                      log_c=lambda n: log_abs_c - (n**3) * LN2)
        label = f"F4: {c} 2^(-n^3) z^n"
    return OperatorSequence("F4", label, shape=shape)


def _f5(ops=None) -> OperatorSequence:
    if not ops:
        raise ConfigError("F5 needs an explicit operator table under params['ops']")
    table = list(ops)
    return OperatorSequence("F5", f"F5: explicit table of {len(table)} operators", table=table)


# tag -> (builder, the parameters it reads)
_FAMILIES = {
    "F1": (_f1, ()),
    "F2": (_f2, ("c_mode", "log_base")),
    "F3": (_f3, ()),
    "F4": (_f4, ("c", "decay")),
    "F5": (_f5, ("ops",)),
}


def make_family(tag: str, params: Optional[Mapping] = None) -> OperatorSequence:
    """Construct a built-in family (F1..F4) or wrap an explicit table (F5)."""
    params = dict(params or {})
    tag = tag.upper()
    if tag not in _FAMILIES:
        raise ConfigError(f"unknown family tag {tag!r} (expected F1..F5)")
    builder, known = _FAMILIES[tag]
    unknown = set(params) - set(known)
    if unknown:
        raise ConfigError(f"{tag} does not take parameters {sorted(unknown)}")
    return builder(**params)


# -- growth rule and evidence reports -------------------------------------------


# a prefix shorter than _MIN_LEN is inconclusive unless vanishing witnesses refute it; a longer
# one whose last half sits below _FLOOR_LOG without net growth is refuted
_MIN_LEN = 8
_FLOOR_LOG = 0.0


class GrowthRule(NamedTuple("GrowthRule", [("threshold_log", float), ("vanish_hits", Optional[int])])):
    """Finite-sweep evidence rule for 'the statistic diverges'.

    supports: strictly increasing quartile minima over the last half, the
    last-half minimum above the first-half minimum, and the final value above
    the threshold. refutes: either enough values below the vanishing envelope
    2^-n (witnesses of near-roots), or the whole last half sitting below the
    floor without net growth. Anything else is inconclusive.
    """

    __slots__ = ()

    def __new__(cls, threshold_log: float = 20.0, vanish_hits: Optional[int] = 2):
        self = super().__new__(cls, threshold_log, vanish_hits)
        if vanish_hits is not None and vanish_hits < 1:
            raise ConfigError(f"growth rule needs vanish_hits >= 1, got {self}")
        return self

    def classify(self, ns: Sequence[int], logs: Sequence[float]) -> Tuple[List[str], dict]:
        """The verdict on each prefix ns[:L], logs[:L] (L >= 1) in one O(n) pass, the last
        being the track's, and the evidence for the whole track."""
        first_min, q3_min, q4_min = _window_min(logs), _window_min(logs), _window_min(logs)
        verdicts: List[str] = []
        hits: List[Tuple[int, float]] = []
        high = -1  # last index whose value is not below the floor
        info: dict = {}
        for L, (n, v) in enumerate(zip(ns, logs), 1):
            if self.vanish_hits is not None and v < -n * LN2:
                hits.append((n, v))
            if not v < _FLOOR_LOG:
                high = L - 1
            h, q = L // 2, (L + L // 2) // 2  # last half logs[h:], its quartiles split at q
            if self.vanish_hits is not None and len(hits) >= self.vanish_hits:
                verdict, info = "refutes", {"vanishing": hits}
            elif L < _MIN_LEN:
                verdict, info = "inconclusive", {}
            elif high < h and v <= logs[h]:
                decay = {"first": logs[h], "last": v, "floor": _FLOOR_LOG}
                verdict, info = "refutes", {"decay": decay}
            else:
                first, q3, q4 = first_min(0, h), q3_min(h, q), q4_min(q, L)
                if q4 > q3 and min(q3, q4) > first and v > self.threshold_log:
                    verdict, info = "supports", {"quartile_minima": (first, q3, q4)}
                else:
                    verdict, info = "inconclusive", {}
            verdicts.append(verdict)
        return verdicts, info


def _window_min(values: Sequence[float]) -> Callable[[int, int], float]:
    """min(values[a:b]), a < b, for windows whose ends never move left, in O(1) amortized. The deque holds the
    window's suffix minima in order; the value leaving at a is its head exactly when the two are equal."""
    window, start, end = deque(), 0, 0  # the suffix minima of values[start:end], the window asked for last

    def query(a: int, b: int) -> float:
        nonlocal start, end
        for v in values[end:b]:
            while window and window[-1] > v:  # a tie stays, so the head is min()'s choice (0.0 or -0.0)
                window.pop()
            window.append(v)
        for v in values[start:a]:
            if window[0] == v:
                window.popleft()
        start, end = a, b
        return window[0]

    return query


class EvidenceReport(NamedTuple):
    """Outcome of one property check over an index range."""

    prop: str
    verdict: str
    rows: List[Tuple[int, float, str]]
    tracks: dict
    witness: Optional[dict] = None


def write_evidence_csv(report: EvidenceReport, out: TextIO) -> None:
    write_csv(out, "n,statistic_log,verdict_running", report.rows)


def combine(verdicts: Iterable[str]) -> str:
    """refutes if any verdict refutes, supports if there is one and all support, else inconclusive."""
    seen = set(verdicts)
    if "refutes" in seen:
        return "refutes"
    return "supports" if seen == {"supports"} else "inconclusive"


def _sweep(rule: GrowthRule, ns: List[int], refuting: Mapping, supporting: Mapping, gate=True):
    """Rows (n, min of the supporting tracks, running verdict), the last running verdict,
    the final (verdict, evidence) of each refuting track, and the first refuting key (the
    witness) or None. Each track is classified once.

    Refuting tracks only refute and supporting tracks only support; a false gate blocks support.
    """
    runs = {key: rule.classify(ns, track) for key, track in {**refuting, **supporting}.items()}
    rows = []
    for i, n in enumerate(ns):
        votes = [] if gate else ["inconclusive"]
        votes += [runs[k][0][i] for k in refuting if runs[k][0][i] == "refutes"]
        votes += [runs[k][0][i] if runs[k][0][i] != "refutes" else "inconclusive" for k in supporting]
        rows.append((n, min(track[i] for track in supporting.values()), combine(votes)))
    finals = {key: (runs[key][0][-1] if ns else "inconclusive", runs[key][1]) for key in refuting}
    witness = next((key for key, (verdict, _) in finals.items() if verdict == "refutes"), None)
    return rows, (rows[-1][2] if rows else "inconclusive"), finals, witness


def check_property_P(
    seq: OperatorSequence,
    u_samples: Sequence,
    n_range: Tuple[int, int],
    rule: Optional[GrowthRule] = None,
) -> EvidenceReport:
    """Evidence for |P_n(z)| -> +infinity at every sample point z.

    supports requires every sample to pass the growth rule; refutes requires
    an explicit witness sample with vanishing or floor-bounded values. Samples
    that print alike share one track. The sweep evaluates every sample at n
    before it moves on, so each P_n is built at most once and dropped after.
    """
    if not u_samples:
        raise PreconditionError("property (P) check needs a nonempty sample set")
    rule = rule or GrowthRule()
    lo, hi = n_range
    ns = list(range(lo, hi + 1))
    points = {str(z): z for z in u_samples}
    tracks: dict[str, List[float]] = {key: [] for key in points}
    for n in ns:
        for key, z in points.items():
            tracks[key].append(seq.log_abs_at(n, z))
    rows, verdict, finals, bad = _sweep(rule, ns, tracks, tracks)
    return EvidenceReport(
        prop="P",
        verdict=verdict,
        rows=rows,
        tracks={"samples": tracks, "per_sample_verdicts": {k: v for k, (v, _) in finals.items()}},
        witness=None if bad is None else {"sample": bad, **finals[bad][1]},
    )


def check_property_Q(
    seq: OperatorSequence,
    k_max: int,
    n_range: Tuple[int, int],
    rule: Optional[GrowthRule] = None,
) -> EvidenceReport:
    """Evidence for the valence-growth/bounded-shift property.

    Growth statistic per k: m(n) |c_{m(n),n}|^{k/m(n)} in the log domain.
    Boundedness statistic per k: max_n |c_{k+m(n),n}| against the cap 100.
    Each index is read once, its coefficients only up to the exponent m(n) + k_max.
    """
    bound_cap_log = math.log(100.0)
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    rule = rule or GrowthRule(threshold_log=1.0, vanish_hits=None)
    lo, hi = n_range
    ns = list(range(lo, hi + 1))
    growth: dict[int, List[float]] = {k: [] for k in range(1, k_max + 1)}
    bound: dict[int, float] = dict.fromkeys(growth, NEG_INF)
    for n in ns:
        m = seq.valence(n)
        if m < 1:  # the statistic m |c_m|^(k/m) needs m >= 1
            raise PreconditionError(f"property (Q) needs valence >= 1, but P_{n} has valence {m}")
        top = m + k_max
        logs = dict(itertools.takewhile(lambda item: item[0] <= top, seq.log_items(n)))
        for k, track in growth.items():
            track.append(math.log(m) + (k / m) * logs[m])
            bound[k] = max(bound[k], logs.get(k + m, NEG_INF))
    bounded_ok = all(v <= bound_cap_log for v in bound.values())
    rows, verdict, finals, bad = _sweep(rule, ns, growth, growth, gate=bounded_ok)
    return EvidenceReport(
        prop="Q",
        verdict=verdict,
        rows=rows,
        tracks={"growth": growth, "shifted_bound_log": bound, "bound_cap_log": bound_cap_log},
        witness=None if bad is None else {"k": bad, "statistic_log": growth[bad], **finals[bad][1]},
    )


def _check_circle(r: float, samples: int) -> None:
    if not 0 < r < math.inf:
        raise PreconditionError(f"property (R) radius must be positive and finite, got {r}")
    if samples < 64:
        raise PreconditionError("samples_per_circle must be >= 64")


def circle_min(op: PolynomialOperator, r: float, m_samples: int) -> float:
    """log of a certified lower bound for min |P| on |z| = r: the least of m_samples equispaced samples
    less the arc correction (pi r / M) sup|(P/z^m)'| and a floating-evaluation guard, or zero
    where they eat it (heavy cancellation). A monomial's arc correction is zero."""
    _check_circle(r, m_samples)
    lower, _ = _circle_scan(op, r, m_samples)
    return lower


def _circle_samples(op: PolynomialOperator, r: float, m_samples: int) -> Tuple[list, float]:
    """(z, |H(z)|) in floats at m_samples equispaced points z of |z| = r, where H = P/z^m,
    and the guard that bounds |float |H(z)| - exact |H(z)|| at each of these points z."""
    coeffs = op.to_float()
    samples = []
    for t in range(m_samples):
        z = r * cmath.exp(2j * math.pi * t / m_samples)
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        samples.append((z, abs(acc)))
    r_m = op.valence * math.log(r)
    h_terms = op.degree - op.valence + 1  # H has degree d - m
    return samples, 8.0 * 2.0**-52 * h_terms * exp_log(_majorant_log(op.terms(), math.log(r)) - r_m)


def _circle_scan(op: PolynomialOperator, r: float, m_samples: int) -> Tuple[float, float]:
    """Logs of (certified lower bound, upper bound) for min |P| on |z| = r. |P| = r^m |H| there,
    so the scan samples H and scales by r^m in the log domain: no float overflows. The upper bound
    adds the guard the lower bound subtracts, so rounding residue beside a root is no small value."""
    samples, guard = _circle_samples(op, r, m_samples)
    sampled = min(val for _, val in samples)
    r_m = op.valence * math.log(r)
    b = exp_log(op.derivative_majorant(r) - r_m)  # sup |H'| on |z| = r
    upper_val = sampled + guard
    # the one log that can be +inf: it is only stored and compared, never added to
    upper = log_abs(upper_val) + r_m if math.isfinite(upper_val) else math.inf
    if not (math.isfinite(sampled) and math.isfinite(b) and math.isfinite(guard)):
        return NEG_INF, upper
    lower_val = sampled - (math.pi * r / m_samples) * b - guard
    return (math.log(lower_val) + r_m if lower_val > 0 else NEG_INF), upper


def check_property_R(
    seq: OperatorSequence,
    r: float,
    n_range: Tuple[int, int],
    samples_per_circle: int = 256,
    rule: Optional[GrowthRule] = None,
) -> EvidenceReport:
    """Evidence for min{|P_n(z)| : |z| = r} -> +infinity.

    supports reads the certified lower-bound track through the growth rule;
    refutes reads the upper-bound track through the vanishing-witness and
    floor rules. On a shaped family (F1..F4) both tracks are the exact minimum
    ``Shape.circle_min``. On a table (F5) the lower track is the circle scan's
    certified bound and the upper track the least of its guarded sampled
    minimum and the exact values at z = r and z = -r (a float r is a rational).
    """
    _check_circle(r, samples_per_circle)
    rule = rule or GrowthRule()
    lo, hi = n_range
    ns = list(range(lo, hi + 1))
    lower_track: List[float] = []
    upper_track: List[float] = []
    fr = Fraction(r)
    for n in ns:
        seq._check_index(n)
        if seq.shape is not None:
            low = up = seq.shape.circle_min(n, r)
        else:
            low, scan_up = _circle_scan(seq.op(n), r, samples_per_circle)
            up = min(scan_up, seq.log_abs_at(n, fr), seq.log_abs_at(n, -fr))
        lower_track.append(low)
        upper_track.append(up)
    rows, verdict, finals, bad = _sweep(rule, ns, {"upper": upper_track}, {"lower": lower_track})
    return EvidenceReport(
        prop="R",
        verdict=verdict,
        rows=rows,
        tracks={"lower_log": lower_track, "upper_log": upper_track, "r": r},
        witness=None if bad is None else finals[bad][1],
    )


# -- unicity exponent ------------------------------------------------------------


class UnicityEstimate(NamedTuple):
    """Counting-function slopes and the resulting convergence-exponent estimate."""

    radii: List[float]
    counts: List[int]
    slopes: List[float]
    chi: float
    margin: float
    unicity_supported: bool


PointSource = Union[Sequence[float], Callable[[int], float]]


def unicity_exponent(
    points: PointSource,
    r_max: float,
    *,
    margin: float = 0.1,
) -> UnicityEstimate:
    """Estimate chi = limsup log n(r) / log r from a point-modulus source.

    ``points`` is either an explicit list of moduli or a 1-based nondecreasing
    generator index -> modulus (counting then proceeds by binary search, which
    is what makes r_max = 1e6 with ~1e12 points feasible). Slopes are read at
    8 radii per decade over the 6 decades below r_max.
    """
    per_decade, decades = 8, 6
    if r_max <= 10:
        raise PreconditionError("r_max must exceed 10")
    counter = _make_counter(points)
    if counter(r_max) < 10:
        raise PreconditionError("fewer than 10 point moduli below r_max")
    radii: List[float] = []
    counts: List[int] = []
    slopes: List[float] = []
    total = per_decade * decades
    for t in range(total + 1):
        rad = r_max * 10.0 ** (-(total - t) / per_decade)
        if rad <= 1.5:
            continue
        cnt = counter(rad)
        if cnt < 1:
            continue
        radii.append(rad)
        counts.append(cnt)
        slopes.append(math.log(cnt) / math.log(rad))
    last_decade = [s for rad, s in zip(radii, slopes) if rad >= r_max / 10.0]
    chi = max(last_decade) if last_decade else 0.0
    return UnicityEstimate(
        radii=radii,
        counts=counts,
        slopes=slopes,
        chi=chi,
        margin=margin,
        unicity_supported=chi > 1.0 + margin,
    )


def gallop(lo: int, hi: int, ok: Callable[[int], bool]) -> Optional[int]:
    """Least n in [lo, hi] with ok(n), or None, where ok turns from false to true at most once
    as n grows: probe lo, lo + 1, lo + 3, lo + 7, ... (clamped at hi), then bisect the last gap."""
    bad, probe = lo - 1, min(lo, hi)  # ok fails at bad
    while probe > bad and not ok(probe):
        bad, probe = probe, min(2 * probe - lo + 1, hi)
    if probe <= bad:
        return None
    return bad + 1 + bisect.bisect_left(range(bad + 1, probe), True, key=ok)


def _make_counter(points: PointSource) -> Callable[[float], int]:
    if callable(points):

        def counter(r: float) -> int:
            above = gallop(1, 2**62, lambda n: points(n) > r)
            if above is None:
                raise PreconditionError("point generator never exceeds r; moduli must be unbounded")
            return above - 1

        return counter
    moduli = sorted(float(p) for p in points)
    if not all(0 <= p < math.inf for p in moduli):
        raise PreconditionError("point moduli must be finite and nonnegative")

    def counter(r: float) -> int:
        return bisect.bisect_right(moduli, r)

    return counter

