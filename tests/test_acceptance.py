"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Every expected value is either exact (rational identities, zero tolerance) or
a certified inequality re-verified through direct operator application. The
stated runtime ceilings are asserted alongside the math.
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from hyperdiff.cli import main as cli_main
from hyperdiff.families import (
    check_property_P,
    check_property_Q,
    check_property_R,
    make_family,
    unicity_exponent,
)
from hyperdiff.inverses import build_f_nk, cramer_with_cofactors, solve_monic_system
from hyperdiff.lacunary import decay_report, m0_member, select_indices, verify_ineq_ak
from hyperdiff.scalars import LN2, LogMagnitude, QComplex, log_lt
from hyperdiff.series import (
    TaylorPolynomial,
    apply_operator,
    eigen_defect_bound,
    exp_truncate,
)
from hyperdiff.synthesis import augment, enumerate_targets, perturb, synthesize


def report(num: int, elapsed: float, limit: float, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d}: PASS ({elapsed:.2f}s < {limit:.0f}s) {detail}"
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_exact_right_inverse():
    start = time.monotonic()
    families = [
        make_family("F1"),
        make_family("F2", {"c_mode": "unit"}),
        make_family("F3"),
        make_family("F4"),
    ]
    cases = 0
    for seq in families:
        for n in range(1, 11):
            op = seq.op(n)
            for k in range(0, 6):
                inv = build_f_nk(op, k, verify=False)
                image = apply_operator(op, inv.f)
                assert image == TaylorPolynomial.monomial(k, QComplex(1)), (seq.tag, n, k)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, elapsed, 10, f"P_n(D) f_nk = z^k exactly in {cases} cases")


def test_criterion_02_dual_route_agreement():
    start = time.monotonic()
    rng = random.Random(20260810)
    for trial in range(200):
        k = rng.randint(0, 6)
        a = []
        for _ in range(k + 1):
            re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            im = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            a.append(QComplex(re, im))
        if not a[0]:
            a[0] = QComplex(1)
        assert solve_monic_system(a, k) == cramer_with_cofactors(a, k)[0], trial
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, elapsed, 10, "back-substitution equals Cramer on 200 rational systems")


def test_criterion_03_index_selection_audit():
    start = time.monotonic()
    seq = make_family("F4")
    basis = select_indices(seq, 6, n_start=3)
    assert basis.indices[:2] == (3, 10)
    # oracle minimality scan: every intermediate candidate fails the recursion
    for prev, cur in zip(basis.entries, basis.entries[1:]):
        target = max(prev.log_a, 0.0) + prev.degree
        for n in range(prev.n + 1, cur.n):
            m = seq.valence(n)
            admissible = m > prev.degree and m >= 3 and log_lt(target, m * LN2 / math.log(m))
            assert not admissible, (prev.n, n)
    audit = verify_ineq_ak(basis)
    assert audit.all_ok
    assert all(pair.margin > 0 for pair in audit.pairs)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, elapsed, 5, f"indices {basis.indices}, all {len(audit.pairs)} pair margins positive")


def test_criterion_04_m0_decay():
    start = time.monotonic()
    seq = make_family("F4")
    basis = select_indices(seq, 6, n_start=3)
    member = m0_member(basis, [QComplex(Fraction(1, 4**e.valence)) for e in basis.entries])
    rep = decay_report(basis, member, 1.0)
    for row in rep.rows:
        assert row.measured.log <= row.bound.log + 1e-9, row.k
    assert rep.measured_nonincreasing
    assert rep.rows[-1].measured.value() < 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(4, elapsed, 5, "tail norms below the pairwise bound, nonincreasing, final < 1e-3")


def test_criterion_05_eigenrelation():
    start = time.monotonic()
    seq = make_family("F3")
    for n in range(1, 9):
        op = seq.op(n)
        for w in (QComplex(-2), QComplex(-3), QComplex(-5)):
            trunc, _ = exp_truncate(w, 80, 1.0)
            image = apply_operator(op, trunc)
            scaled = trunc.scale(op.value_at(w))
            distance = (image - scaled).majorant_norm(1.0)
            bound = eigen_defect_bound(op, w, 80, 1.0)
            assert distance.log <= bound.log + 1e-9, (n, w)
            assert bound.value() < 1e-6, (n, w)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(5, elapsed, 5, "operator/eigenvalue distance below reported bound < 1e-6")


def test_criterion_06_property_separation_table():
    start = time.monotonic()
    f1, f2, f3 = make_family("F1"), make_family("F2"), make_family("F3")

    rep = check_property_R(f1, 2.0, (1, 40), 256)
    assert rep.verdict == "supports"

    rep = check_property_Q(f1, 2, (1, 60))
    assert rep.verdict == "refutes" and rep.witness["k"] == 2
    for n, stat in zip(range(1, 61), rep.tracks["growth"][2]):
        assert abs(stat - (1 - 2) * math.log(n)) <= 1e-9 * max(1.0, abs(stat))

    rep = check_property_P(f3, [QComplex(-2), QComplex(-3), QComplex(-5)], (1, 40))
    assert rep.verdict == "supports"

    for r in (1.0, 2.0, 3.0):
        rep = check_property_R(f3, r, (1, 40), 256)
        assert rep.verdict == "refutes", r
        hits = rep.witness["vanishing"]
        assert hits
        for n, log_val in hits:
            assert log_val < -n * LN2

    rep = check_property_Q(f2, 3, (2, 200))
    assert rep.verdict == "supports"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, elapsed, 60, "verdict matrix reproduced: F1 R+/Q-, F3 P+/R-, F2 Q+")


def test_criterion_07_unicity_exponent():
    start = time.monotonic()
    est_sqrt = unicity_exponent(lambda n: math.sqrt(n), 1e6)
    assert abs(est_sqrt.chi - 2.0) <= 0.1
    est_lin = unicity_exponent(lambda n: float(n), 1e6)
    assert abs(est_lin.chi - 1.0) <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(7, elapsed, 5, f"chi(sqrt)={est_sqrt.chi:.4f}, chi(linear)={est_lin.chi:.4f}")


def test_criterion_08_synthesis_certificate():
    start = time.monotonic()
    seq = make_family("F4")
    targets = enumerate_targets(8)
    trace = synthesize(seq, targets)
    for rec, step in zip(trace.residuals, trace.steps):
        image = apply_operator(seq.op(step.n), trace.vector)
        diff = image - step.target
        direct = diff.majorant_norm(step.radius) if not diff.is_zero else LogMagnitude.zero()
        limit = (1 - rec.index) * LN2
        assert direct.is_zero or direct.log <= limit + 1e-9, rec.index
    rep = perturb(trace, TaylorPolynomial.monomial(3))
    for row, step in zip(rep.rows, trace.steps):
        if seq.valence(step.n) > 3:
            assert row.exactly_equal, row.index
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(8, elapsed, 60, f"residuals <= 2^(1-i) on indices {trace.indices}; z^3 perturbation inert")


def test_criterion_09_augmentation():
    start = time.monotonic()
    seq = make_family("F4")
    base_targets = enumerate_targets(12, zero_recurrent=True)
    base = synthesize(seq, base_targets)
    extra = [TaylorPolynomial([QComplex(1)]), TaylorPolynomial.monomial(1, QComplex(1))]
    rep = augment(seq, base, extra, [Fraction(-1), Fraction(1), Fraction(2)])
    assert len(rep.rows) == 6
    for row in rep.rows:
        stated = (2 - row.step_index) * LN2
        assert row.bound.is_zero or row.bound.log <= stated + 1e-9
        # bound is itself re-verified against the directly applied operator
        assert row.direct.is_zero or row.direct.log <= row.bound.log + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(9, elapsed, 120, "bounds <= 2^(2-i) for all lambda and both extra targets")


def test_criterion_10_determinism(tmp_path):
    start = time.monotonic()

    def run_all(tag):
        out = tmp_path / tag
        rc = cli_main(
            ["build-m0", "--family", "F4", "--count", "6", "--n-start", "3",
             "--out", str(out / "m0")]
        )
        assert rc == 0
        rc = cli_main(
            ["check-properties", "--family", "F1", "--props", "QR", "--n-max", "60",
             "--r", "2.0", "--k-max", "2", "--out", str(out / "f1")]
        )
        assert rc == 0
        rc = cli_main(
            ["check-properties", "--family", "F3", "--props", "PR", "--n-max", "40",
             "--r", "2.0", "--u-samples=-2,-3,-5", "--out", str(out / "f3")]
        )
        assert rc == 0
        rc = cli_main(
            ["check-properties", "--family", "F2", "--props", "Q", "--n-max", "200",
             "--k-max", "3", "--out", str(out / "f2")]
        )
        assert rc == 0
        rc = cli_main(
            ["synthesize", "--family", "F4", "--count", "8", "--out", str(out / "syn")]
        )
        assert rc == 0
        rc = cli_main(
            ["perturb", "--family", "F4", "--count", "8", "--g", "0,0,0,1",
             "--out", str(out / "pert")]
        )
        assert rc == 0
        files = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out))] = path.read_bytes()
        return files

    first = run_all("run1")
    second = run_all("run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    elapsed = time.monotonic() - start
    report(10, elapsed, 600, f"{len(first)} output files byte-identical across reruns")
