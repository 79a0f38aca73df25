"""Workload job lists, the seeded input generator and the job outcome oracle.

A job is one ``hyperdiff`` CLI call. Its expected exit code and verdict lines
come from the paper's property separation table and the acceptance criteria
(``tests/test_acceptance.py``), not from what any one commit prints:

- F1 has (P) and (R) and lacks (Q); F3 has (P) and lacks (R); F2 has (Q).
- A property the table says holds may read ``inconclusive`` on a finite sweep
  where the certified bound is too weak; ``refutes`` there is a failure. Where
  the code at the commit that added the benchmark already prints ``supports``
  the job requires it, so a regression to ``inconclusive`` fails.
- Exact identities, certified residuals and certified decay bounds must hold.

The seed picks the (P) sample points, the synthesis target coefficients (with
degrees fixed), the extra augmentation targets and the criterion battery
seed. It never changes a job's size, and no expected outcome depends on it.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Tuple

SUPPORTS = frozenset({"supports"})
REFUTES = frozenset({"refutes"})
HOLDS = frozenset({"supports", "inconclusive"})  # true in the limit, finite sweep may fall short
TRUE = frozenset({"True"})

# README library example; criterion 03 pins the first two
F4_BASIS = "(3, 10, 59, 535, 6813, 114492)"


class WrongOutput(Exception):
    """A job's output contradicts its expected outcome."""


@dataclass(frozen=True)
class Job:
    name: str
    argv: Tuple[str, ...]  # CLI arguments, without --out
    exit_code: int
    verdicts: Dict[str, FrozenSet[str]]  # summary line "key: value" -> allowed values
    # (out dir, summary lines) -> work units; raises WrongOutput
    check: Callable[[Path, Dict[str, str]], int]
    known_failure: str = ""  # why the job fails at the commit that defined the benchmark


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    jobs: List[Job]
    must_reach: Tuple[str, ...]  # trace keys that must record calls
    # jobs that fail at the commit that defined the benchmark: run once after the
    # timed jobs and reported on their own, so every timed job completes
    known_failures: Tuple[Job, ...] = ()


# -- seeded inputs ------------------------------------------------------------------

# negative rationals <= -2 with numerator and denominator at most 9, by
# denominator; exact evaluation cost grows with the height, so each draw takes
# one point per denominator and the cost stays nearly the same for every seed
_P_POINTS = [
    [Fraction(-p, q) for p in range(2 * q, 10) if math.gcd(p, q) == 1] for q in (1, 2, 3)
]

# support pattern and coefficient magnitudes of the first 24 rational-diagonal
# targets; the seed permutes the magnitudes and picks signs, so the degrees
# and the arithmetic sizes stay fixed
_SYNTH_SUPPORT = [()] + [(0,)] * 6 + [(1,)] * 2 + [(0,)] * 4 + [(1,)] * 4 + [(2,)] * 2 + [(0,)] * 5
_SYNTH_MAGNITUDES = [
    Fraction(x)
    for x in "1 1 2 1/2 1/2 2 1 1 3 1/3 1/3 3 2 1/2 1/2 2 1 1 4 3/2 2/3 1/4 1/4".split()
]
_SMALL = [Fraction(x) for x in "1 2 1/2 3 1/3".split()]


def _poly_literal(degree_coeffs: Dict[int, Fraction]) -> str:
    if not degree_coeffs:
        return "0"
    top = max(degree_coeffs)
    return ",".join(str(degree_coeffs.get(j, 0)) for j in range(top + 1))


def _signed(rng: random.Random, value: Fraction) -> Fraction:
    return value if rng.random() < 0.5 else -value


def sample_points(rng: random.Random) -> str:
    return ",".join(str(rng.choice(points)) for points in _P_POINTS)


def synth_targets(rng: random.Random) -> str:
    mags = list(_SYNTH_MAGNITUDES)
    rng.shuffle(mags)
    polys = []
    for support in _SYNTH_SUPPORT:
        polys.append(_poly_literal({j: _signed(rng, mags.pop()) for j in support}))
    return ";".join(polys)


def extra_targets(rng: random.Random) -> str:
    return ";".join(_poly_literal({j: _signed(rng, rng.choice(_SMALL))}) for j in range(3))


def constant_target(rng: random.Random) -> str:
    return _poly_literal({0: _signed(rng, rng.choice(_SMALL))})


# -- output checks ------------------------------------------------------------------


def _rows(path: Path, header: str) -> List[List[str]]:
    if not path.is_file():
        raise WrongOutput(f"{path.name} missing")
    with open(path, newline="") as handle:
        lines = list(csv.reader(handle))
    if not lines or ",".join(lines[0]) != header:
        raise WrongOutput(f"{path.name}: bad header")
    return lines[1:]


def _log(token: str) -> float:
    return float(token)  # "-inf" parses to -inf


def _property_csvs(props: str, n_max: int) -> Callable[[Path, Dict[str, str]], int]:
    """Rows n_min..n_max per property, ending on the printed verdict."""

    def check(out: Path, lines: Dict[str, str]) -> int:
        total = 0
        for prop in props:
            rows = _rows(out / f"property_{prop}.csv", "n,statistic_log,verdict_running")
            first = 2 if prop == "Q" else 1
            if [int(r[0]) for r in rows] != list(range(first, n_max + 1)):
                raise WrongOutput(f"property_{prop}.csv: wrong index column")
            if rows[-1][2] != lines.get(f"property ({prop})"):
                raise WrongOutput(f"property_{prop}.csv: final verdict differs from the summary")
            total += len(rows)
        return total

    return check


def _residuals(count: int) -> Callable[[Path, Dict[str, str]], int]:
    def check(out: Path, lines: Dict[str, str]) -> int:
        rows = _rows(
            out / "residuals.csv", "i,n_i,radius,residual_log,budget_log,certificate_log,certified"
        )
        if len(rows) != count:
            raise WrongOutput(f"residuals.csv: {len(rows)} rows, expected {count}")
        for row in rows:
            if row[6] != "True" or _log(row[3]) > _log(row[5]) + 1e-9:
                raise WrongOutput(f"residuals.csv: step {row[0]} not certified")
        for name in ("trace.jsonl", "vector.coeffs"):
            if not (out / name).is_file():
                raise WrongOutput(f"{name} missing")
        return len(rows)

    return check


def _augment_rows(count: int) -> Callable[[Path, Dict[str, str]], int]:
    def check(out: Path, lines: Dict[str, str]) -> int:
        rows = _rows(
            out / "augment.csv", "lambda,target,step,n,radius,direct_log,bound_log,stated_log,ok"
        )
        if len(rows) != count:
            raise WrongOutput(f"augment.csv: {len(rows)} rows, expected {count}")
        for row in rows:
            direct, bound, stated = _log(row[5]), _log(row[6]), _log(row[7])
            if row[8] != "True" or direct > bound + 1e-9 or bound > stated + 1e-9:
                raise WrongOutput(f"augment.csv: bound fails at lambda={row[0]} target={row[1]}")
        return len(rows)

    return check


def _criterion_rows(out: Path, lines: Dict[str, str]) -> int:
    path = out / "criterion.jsonl"
    if not path.is_file():
        raise WrongOutput("criterion.jsonl missing")
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if not records:
        raise WrongOutput("criterion.jsonl is empty")
    return len(records)


def _basis_and_decay(
    count: int, n_start: int, scanned: bool = True
) -> Callable[[Path, Dict[str, str]], int]:
    """Basis and certified decay rows; work is the indices scanned, else the decay rows."""

    def check(out: Path, lines: Dict[str, str]) -> int:
        basis = _rows(out / "basis.csv", "k,n_k,m(n_k),d(n_k),logA_k")
        decay = _rows(out / "decay.csv", "k,measured_log,bound_log")
        ns = [int(r[1]) for r in basis]
        if len(ns) != count or ns != sorted(set(ns)) or str(tuple(ns)) != lines.get("basis indices"):
            raise WrongOutput(f"basis.csv: indices {ns} do not match the summary")
        if len(decay) != count:
            raise WrongOutput(f"decay.csv: {len(decay)} rows, expected {count}")
        for row in decay:
            if _log(row[1]) > _log(row[2]) + 1e-9:
                raise WrongOutput(f"decay.csv: measured norm above the bound at k={row[0]}")
        return ns[-1] - n_start + 1 if scanned else len(decay)

    return check


def _f1_inverse(n: int, k: int) -> Callable[[Path, Dict[str, str]], int]:
    """Re-check P_n(D) f = z^k exactly from the file, with F1's closed form P_n = z^n/n^n + z^(n+1)."""

    def check(out: Path, lines: Dict[str, str]) -> int:
        path = out / f"inverse_n{n}_k{k}.coeffs"
        if not path.is_file():
            raise WrongOutput(f"{path.name} missing")
        text = path.read_text().splitlines()
        if not text[:2] or text[1] != f"#taylor N={n + k}":
            raise WrongOutput(f"{path.name}: bad header")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the coefficients run to thousands of digits
        try:
            f: Dict[int, Fraction] = {}
            for line in text[2:]:
                j, re, im = line.split(",")
                if Fraction(im) != 0:
                    raise WrongOutput(f"{path.name}: nonreal coefficient at {j}")
                f[int(j)] = Fraction(re)
        finally:
            sys.set_int_max_str_digits(limit)
        c = Fraction(1, n**n)
        # coefficient i of c f^(n) + f^(n+1) is c f_{i+n} (i+n)!/i! + f_{i+n+1} (i+n+1)!/i!
        falling = math.factorial(n)  # (i+n)!/i! at i = 0
        for i in range(k + 1):
            value = c * f.get(i + n, 0) * falling + f.get(i + n + 1, 0) * falling * (i + n + 1)
            if value != (1 if i == k else 0):
                raise WrongOutput(f"{path.name}: P(D) f differs from z^{k} at degree {i}")
            falling = falling * (i + n + 1) // (i + 1)
        return len(f)

    return check


def _scanned(count: int) -> Callable[[Path, Dict[str, str]], int]:
    return lambda out, lines: count


# -- workloads ----------------------------------------------------------------------

def _check_properties(name: str, family: str, props: str, n_max: int, extra: Tuple[str, ...],
                      expect: Dict[str, FrozenSet[str]], known_failure: str = "") -> Job:
    argv = ("check-properties", "--family", family, "--props", props, "--n-max", str(n_max)) + extra
    return Job(name, argv, 0, expect, _property_csvs(props, n_max), known_failure)


def build_workload(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "sweep":
        f1 = {"property (P)": SUPPORTS, "property (Q)": REFUTES, "property (R)": HOLDS}

        def f1_args():
            return ("--r", "2.0", "--k-max", "2", f"--u-samples={sample_points(rng)}")

        return Workload(
            "sweep",
            "(n, property) indices evaluated",
            [
                _check_properties("F1-PQR-n1000", "F1", "PQR", 1000, f1_args(), f1),
                _check_properties(
                    "F3-PR-n160", "F3", "PR", 160,
                    ("--r", "2.0", f"--u-samples={sample_points(rng)}"),
                    {"property (P)": SUPPORTS, "property (R)": REFUTES},
                ),
                _check_properties(
                    "F2-Q-n2000", "F2", "Q", 2000, ("--k-max", "3"), {"property (Q)": SUPPORTS}
                ),
            ],
            must_reach=(
                "families.check_P", "families.check_Q", "families.check_R", "families.classify",
                "families.log_abs_at", "series.value_at", "scalars.qcomplex_mul", "cli.write",
            ),
            known_failures=(
                _check_properties(
                    "F1-PQR-n1100", "F1", "PQR", 1100, f1_args(), f1,
                    known_failure="the circle scan evaluates z**valence and raises OverflowError at n >= 1023",
                ),
            ),
        )
    if name == "construct":
        criterion = {f"hypothesis ({h})": SUPPORTS for h in ("i", "iii", "iv")}
        criterion.update({"hypothesis (ii)": HOLDS, "overall": HOLDS})
        return Workload(
            "construct",
            "certificate rows written",
            [
                Job(
                    "synthesize-F4-24",
                    ("synthesize", "--family", "F4", "--count", "24",
                     f"--targets=polys:{synth_targets(rng)}"),
                    0, {"all residuals certified": TRUE}, _residuals(24),
                ),
                Job(
                    "augment-F4-24",
                    ("augment", "--family", "F4", "--base-count", "24",
                     f"--extra={extra_targets(rng)}", "--lambdas=-1,1,2"),
                    0, {"all augmentation bounds hold": TRUE}, _augment_rows(9),
                ),
                Job(
                    "criterion-F3-Q-n40",
                    ("verify-criterion", "--family", "F3", "--route", "Q", "--n-max", "40",
                     "--seed", str(rng.randrange(10**6))),
                    0, criterion, _criterion_rows,
                ),
                Job(
                    "m0-F3-4",
                    ("build-m0", "--family", "F3", "--count", "4"),
                    0, {"decay": frozenset({"measured nonincreasing = True"})},
                    _basis_and_decay(4, 1, scanned=False),
                ),
            ],
            must_reach=(
                "series.apply_operator", "series.differentiate", "inverses.build_f_nk",
                "synthesis.synthesize", "synthesis.augment", "criterion.verify_hypotheses",
                "lacunary.select_indices", "lacunary.decay_report", "scalars.qcomplex_mul",
                "cli.write",
            ),
            known_failures=(
                Job(
                    "inverse-F1-n2000-k20",
                    ("build-inverse", "--family", "F1", "--n", "2000", "--k", "20"),
                    0, {"identity": frozenset({"exact"})}, _f1_inverse(2000, 20),
                    known_failure="the coefficient writer formats integers past Python's 4300-digit "
                    "limit and raises ValueError",
                ),
            ),
        )
    if name == "search":
        return Workload(
            "search",
            "candidate indices examined",
            [
                Job(
                    "synthesize-F1-cap2000",
                    ("synthesize", "--family", "F1", "--count", "2", "--n-cap", "2000",
                     f"--targets=polys:0;{constant_target(rng)}"),
                    4, {}, _scanned(2000),
                ),
                Job(
                    "m0-F4-6",
                    ("build-m0", "--family", "F4", "--count", "6", "--n-start", "3"),
                    0,
                    {"basis indices": frozenset({F4_BASIS}),
                     "decay": frozenset({"measured nonincreasing = True"})},
                    _basis_and_decay(6, 3),
                ),
            ],
            must_reach=(
                "inverses.build_f_nk", "inverses.inverse_for_polynomial", "synthesis.synthesize",
                "lacunary.select_indices", "families.valence", "scalars.qcomplex_div",
            ),
        )
    raise KeyError(name)


WORKLOADS = ("sweep", "construct", "search")
