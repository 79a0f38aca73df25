import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperdiff.cli import main
from hyperdiff.errors import CapExhausted, InvariantViolation, PreconditionError
from hyperdiff.families import make_family
from hyperdiff.lacunary import (
    BasisEntry,
    LacunaryBasis,
    decay_report,
    m0_member,
    select_indices,
    verify_ineq_ak,
    write_basis_csv,
    write_decay_csv,
)
from hyperdiff.scalars import LN2, NEG_INF, QComplex, log_margin
from hyperdiff.series import PolynomialOperator, TaylorPolynomial
from oracles import collision_free, exact_tail_norms


def brute_force_next_index(seq, last_n, last_degree, target, cap=10**6):
    """Independent scan oracle: least n with valence above the last degree and
    m log2 / log m strictly past the recursion target."""
    n = last_n + 1
    while n <= cap:
        m = seq.valence(n)
        if m > last_degree and m >= 3 and m * LN2 / math.log(m) > target:
            return n
        n += 1
    return None


class TestSelectIndices:
    def test_f4_first_steps_against_scan_oracle(self):
        seq = make_family("F4")
        basis = select_indices(seq, 3, n_start=3)
        assert basis.indices[:2] == (3, 10)
        # oracle re-derivation of each step
        target = 0.0 + 3  # log A = 0, d = 3
        assert brute_force_next_index(seq, 3, 3, target) == basis.indices[1]
        target = 0.0 + basis.indices[1]
        nxt = brute_force_next_index(seq, basis.indices[1], basis.indices[1], target)
        assert nxt == basis.indices[2]
        assert 35 <= basis.indices[2] <= 65  # oracle-verified bracket

    def test_minimality_previous_candidate_fails(self):
        seq = make_family("F4")
        basis = select_indices(seq, 5, n_start=3)
        for prev, cur in zip(basis.entries, basis.entries[1:]):
            m = cur.n - 1
            target = max(prev.log_a, 0.0) + prev.degree
            admissible = (
                m > prev.degree and m >= 3 and log_margin(target, m * LN2 / math.log(m)) > 0
            )
            assert not admissible

    def test_constant_valence_exhausts_cap(self):
        ops = [PolynomialOperator({4: QComplex(1), 5: QComplex(1)}) for _ in range(200)]
        seq = make_family("F5", {"ops": ops})
        with pytest.raises(CapExhausted):
            select_indices(seq, 3, n_cap=200)

    def test_small_count_rejected(self):
        with pytest.raises(PreconditionError):
            select_indices(make_family("F4"), 1)

    def test_skips_low_valence_prefix(self):
        seq = make_family("F4")
        basis = select_indices(seq, 2, n_start=1)
        assert basis.entries[0].valence >= 3


def linear_select(seq, count, n_start, n_cap):
    """Reference: the linear scan, testing every index in turn.

    Returns ("ok", indices) or ("cap", step, condition, message).
    """
    n = n_start
    while n <= n_cap and seq.valence(n) < 3:
        n += 1
    if n > n_cap:
        return ("cap", 1, None, "no index with valence >= 3 below the cap")
    chosen = [n]
    while len(chosen) < count:
        degree = seq.degree(chosen[-1])
        target = max(seq.coeff_abs_log_sum(chosen[-1]), 0.0) + degree
        n = chosen[-1] + 1
        while n <= n_cap:
            m = seq.valence(n)
            if m > degree and m >= 3 and log_margin(target, m * LN2 / math.log(m)) > 0:
                break
            n += 1
        else:
            step = len(chosen) + 1
            return ("cap", step, "recursion",
                    f"no admissible index <= {n_cap} at step {step} (recursion target "
                    f"{target:.6g}); this bounds the sweep, it does not refute")
        chosen.append(n)
    return ("ok", tuple(chosen))


def _galloped(seq, count, n_start, n_cap):
    try:
        return ("ok", select_indices(seq, count, n_start=n_start, n_cap=n_cap).indices)
    except CapExhausted as exc:
        return ("cap", exc.step, exc.condition, str(exc))


_MONOTONE_FAMILIES = (
    ("F1", None),
    ("F2", None),
    ("F2", {"c_mode": "unit"}),
    ("F3", None),
    ("F4", {"c": "7/2"}),
    ("F4", {"c": "1/9"}),
    ("F4", {"decay": "pow2cubic"}),
)


class TestGalloping:
    """Galloping on nondecreasing valence picks exactly what the linear scan picks."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.sampled_from(_MONOTONE_FAMILIES),
        st.integers(2, 5),
        st.integers(1, 40),
        # caps spread evenly in log scale over [10, 120000]
        st.floats(1.0, math.log10(120_000)).map(lambda e: min(int(10**e), 120_000)),
    )
    @example(("F4", {"c": "7/2"}), 5, 1, 120_000)
    @example(("F3", None), 4, 1, 80_917)
    @example(("F3", None), 4, 1, 80_916)
    @example(("F1", None), 2, 11, 11)
    def test_matches_linear_scan(self, family, count, n_start, n_cap):
        seq = make_family(*family)
        assert seq.shape is not None
        assert _galloped(seq, count, n_start, n_cap) == linear_select(seq, count, n_start, n_cap)

    def test_non_monotone_table_gets_least_admissible_index(self):
        # valences 3, 4 x4, 40, 4 x10, then 50: only n = 6 and n >= 17 are
        # admissible after n = 1, and probing 2, 3, 5, 9, 17 would step over 6
        valences = [3] + [4] * 4 + [40] + [4] * 10 + [50] * 10
        ops = [PolynomialOperator({m: QComplex(1)}) for m in valences]
        seq = make_family("F5", {"ops": ops})
        assert seq.shape is None
        assert select_indices(seq, 2, n_cap=len(ops)).indices == (1, 6)
        assert linear_select(seq, 2, 1, len(ops)) == ("ok", (1, 6))

    def test_default_cap_exhaustion_via_cli(self, tmp_path, capsys):
        rc = main(["build-m0", "--family", "F4", "--count", "7", "--n-start", "3",
                   "--out", str(tmp_path)])
        assert rc == 4
        assert capsys.readouterr().err == (
            "CapExhausted: no admissible index <= 1000000 at step 7 (recursion target "
            "114492); this bounds the sweep, it does not refute\n"
        )

    def test_recursion_rhs_strictly_increases_in_floats(self):
        # m*log2/log m for m in [3, 2*10**6]: the float values never tie or fall
        values = (m * LN2 / math.log(m) for m in range(3, 2 * 10**6 + 1))
        assert all(a < b for a, b in itertools.pairwise(values))


@st.composite
def growing_tables(draw):
    """A short F5 table: the valence starts at 3..6 and each next one adds 1..2m,
    operator spreads are 0..3, and coefficients are a/b with 0 < |a| <= 9, b <= 5."""
    nonzero = st.integers(-9, 9).filter(bool)
    ops, m = [], draw(st.integers(3, 6))
    for _ in range(draw(st.integers(6, 12))):
        ops.append(PolynomialOperator({
            j: QComplex(Fraction(draw(nonzero), draw(st.integers(1, 5))))
            for j in range(m, m + draw(st.integers(0, 3)) + 1)
        }))
        m += draw(st.integers(1, 2 * m))
    return ops


def selected_from_table(ops, count=3):
    """The selected basis of an F5 table; a draw whose table runs out is discarded."""
    try:
        return select_indices(make_family("F5", {"ops": ops}), count, n_cap=len(ops))
    except CapExhausted:
        assume(False)


class TestCollisionFree:
    """No two image blocks of a selected basis share a degree, so the term-by-term
    decay sum is the exact majorant norm (``decay_report`` rests on this)."""

    def test_selected_bases_of_builtin_families(self):
        for family in _MONOTONE_FAMILIES + (("F4", None),):
            seq = make_family(*family)
            for count in range(2, 7):
                try:
                    basis = select_indices(seq, count)
                except CapExhausted:
                    break
                assert collision_free(basis.entries), (family, basis)
            assert count >= 4, family

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(growing_tables())
    def test_selected_bases_of_random_tables(self, ops):
        assert collision_free(selected_from_table(ops).entries)

    def test_hand_built_basis_can_collide(self):
        # step 1 spreads over 5 degrees, wider than the tail gap 12 - 9
        assert not collision_free(_colliding_basis().entries)


def _colliding_basis():
    """P_1 = 2^-100 (z^3 + ... + z^8), P_2 = 2^-100 z^9, P_3 = z^12: the tiny coefficients
    keep every log A_k + d_k log m_j below m_j log 2, so the pairwise audit passes
    although the step-1 image blocks overlap."""
    tiny = QComplex(Fraction(1, 2**100))
    ops = [
        PolynomialOperator({j: tiny for j in range(3, 9)}),
        PolynomialOperator({9: tiny}),
        PolynomialOperator({12: QComplex(1)}),
    ]
    return LacunaryBasis.build(make_family("F5", {"ops": ops}), [1, 2, 3])


class TestVerifyIneq:
    def test_selected_bases_pass_for_builtin_families(self):
        for tag, params, start in (
            ("F1", None, 3),
            ("F2", None, 3),
            ("F2", {"c_mode": "unit"}, 3),
            ("F3", None, 1),
            ("F4", None, 3),
        ):
            seq = make_family(tag, params)
            basis = select_indices(seq, 4, n_start=start)
            audit = verify_ineq_ak(basis.entries)
            assert audit.all_ok, (tag, audit.violations)
            assert all(p.margin > 0 for p in audit.pairs)

    def test_random_growing_tables(self):
        rng = random.Random(2024)
        for trial in range(20):
            ops = []
            m = 3
            for n in range(1, 140):
                spread = rng.randint(0, 2)
                coeffs = {}
                for j in range(m, m + spread + 1):
                    num = rng.randint(1, 9) * rng.choice([-1, 1])
                    coeffs[j] = QComplex(Fraction(num, rng.randint(1, 5)))
                if not coeffs[m]:
                    coeffs[m] = QComplex(1)
                ops.append(PolynomialOperator(coeffs))
                m += rng.randint(1, 3)
            seq = make_family("F5", {"ops": ops})
            try:
                basis = select_indices(seq, 4, n_cap=len(ops))
            except CapExhausted:
                continue
            assert verify_ineq_ak(basis.entries).all_ok, trial

    def test_hand_built_violation_reported(self):
        with pytest.raises(InvariantViolation):
            LacunaryBasis.build(make_family("F4"), [3, 4])
        # F4's P_3 = z^3 and P_4 = z^4, each with A = 1
        audit = verify_ineq_ak([BasisEntry(1, 3, 3, 3, 0.0), BasisEntry(2, 4, 4, 4, 0.0)])
        assert not audit.all_ok
        bad = audit.violations[0]
        assert (bad.k, bad.j) == (1, 2)
        # 3 log 4 > 4 log 2
        assert bad.lhs_log == pytest.approx(3 * math.log(4))
        assert bad.rhs_log == pytest.approx(4 * math.log(2))

    def test_single_index_vacuous(self):
        audit = verify_ineq_ak([BasisEntry(1, 5, 5, 5, 0.0)])
        assert audit.all_ok and not audit.pairs


class TestM0Member:
    def test_basis_monomial(self):
        basis = select_indices(make_family("F4"), 3, n_start=3)
        f = m0_member(basis, [QComplex(1)])
        assert f == TaylorPolynomial.monomial(basis.entries[0].valence)

    def test_zero_member(self):
        basis = select_indices(make_family("F4"), 3, n_start=3)
        assert m0_member(basis, [QComplex(0)] * 3).is_zero

    def test_two_term_member(self):
        basis = select_indices(make_family("F4"), 2, n_start=3)
        f = m0_member(basis, [QComplex(1), QComplex(1)])
        assert f == TaylorPolynomial.from_pairs([(3, 1), (10, 1)])

    def test_too_many_coefficients(self):
        basis = select_indices(make_family("F4"), 2, n_start=3)
        with pytest.raises(PreconditionError):
            m0_member(basis, [QComplex(1)] * 3)


@pytest.fixture(scope="module")
def f4_basis():
    return select_indices(make_family("F4"), 6, n_start=3)


class TestDecayReport:

    def test_annihilation_of_first_monomial(self, f4_basis):
        f = m0_member(f4_basis, [QComplex(1)])
        rep = decay_report(f4_basis, f, 1.0)
        # at step 2 the operator valence exceeds the member degree: the image
        # is exactly zero, and the step-2 bound sum has no surviving terms
        assert rep.rows[1].measured == NEG_INF
        assert rep.rows[1].bound == NEG_INF
        # step 1 carries the single coefficient: bound (2r)^{m_1} = 2^3
        assert rep.rows[0].bound == pytest.approx(3 * math.log(2))

    def test_zero_member(self, f4_basis):
        rep = decay_report(f4_basis, TaylorPolynomial.zero(), 1.0)
        assert all(r.measured == NEG_INF and r.bound == NEG_INF for r in rep.rows)

    def test_geometric_member_bounds(self, f4_basis):
        f = m0_member(f4_basis, [QComplex(Fraction(1, 4**e.valence)) for e in f4_basis.entries])
        rep = decay_report(f4_basis, f, 1.0)
        for row in rep.rows:
            expected = sum(
                Fraction(1, 2 ** e.valence) for e in f4_basis.entries if e.k >= row.k
            )
            assert row.bound == pytest.approx(
                math.log(expected.numerator) - math.log(expected.denominator), rel=1e-9
            )
            assert row.measured <= row.bound + 1e-9
        bounds = [r.bound for r in rep.rows]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        assert rep.measured_nonincreasing

    def test_membership_violation(self, f4_basis):
        with pytest.raises(PreconditionError):
            decay_report(f4_basis, TaylorPolynomial.monomial(4), 1.0)

    def test_log_and_exact_methods_agree(self):
        # the exact oracle materializes every tail image; F3 at 4 entries
        # (P_80917 has 80918 terms) would take it past a minute
        for tag, count, n_start in (("F1", 4, 1), ("F2", 5, 1), ("F3", 3, 1), ("F4", 6, 3)):
            basis = select_indices(make_family(tag), count, n_start=n_start)
            f = m0_member(basis, [QComplex(Fraction(1, 4**e.valence)) for e in basis.entries])
            _assert_matches_oracle(decay_report(basis, f, 1.0), exact_tail_norms(basis, f, 1.0))
        # with a_j = 1 (build-m0 --decay-base 1) the falling factorials carry each log; the
        # difference lgamma(m_j + 1) - lgamma(m_j - s + 1) was off by 5.3e-13 relative on F2
        for tag in ("F2", "F4"):
            basis = select_indices(make_family(tag), 5)
            f = m0_member(basis, [QComplex(1)] * 5)
            _assert_matches_oracle(decay_report(basis, f, 1.0), exact_tail_norms(basis, f, 1.0), rel=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(growing_tables(), st.lists(st.fractions(-9, 9, max_denominator=9), min_size=3, max_size=3),
           st.sampled_from([1.0, 2.0]))
    def test_log_route_matches_exact_oracle_on_tables(self, ops, coefficients, r):
        basis = selected_from_table(ops)
        f = m0_member(basis, [QComplex(a) for a in coefficients])
        _assert_matches_oracle(decay_report(basis, f, r), exact_tail_norms(basis, f, r))

    def test_colliding_blocks_get_the_majorant(self):
        # z^9 - z^12 under P_1(D): the images overlap on degrees 4..6 with opposite
        # signs, so the exact norm is strictly below the term-by-term sum
        basis = _colliding_basis()
        f = m0_member(basis, [QComplex(0), QComplex(1), QComplex(-1)])
        row = decay_report(basis, f, 1.0).rows[0]
        exact = exact_tail_norms(basis, f, 1.0)[0]
        assert log_margin(exact, row.measured) > 0
        assert row.measured <= row.bound

    def test_pow2cubic_basis_reads_logs_not_coefficients(self):
        # P_535 = 2^(-535^3) z^535: materializing the image would build a
        # 153-million-bit coefficient; the log route reads its log
        basis = select_indices(make_family("F4", {"decay": "pow2cubic"}), 4)
        assert basis.indices[-1] == 535
        f = m0_member(basis, [QComplex(Fraction(1, 4**e.valence)) for e in basis.entries])
        tracemalloc.start()
        try:
            rep = decay_report(basis, f, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert rep.measured_nonincreasing

    def test_pow2cubic_count_5_runs_in_bounded_memory(self, python_child, tmp_path):
        # the exact route would need tens of GB here: the child caps its own
        # address space, so a regression fails instead of exhausting the host
        proc = python_child(
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from hyperdiff.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            # peak RSS of this program alone (ru_maxrss keeps the parent's peak across exec)
            "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
            "sys.exit(rc)\n",
            "build-m0", "--family", "F4", "--decay", "pow2cubic", "--count", "5",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 50 * 1024  # VmHWM is in kB

    def test_multi_term_operator_family(self):
        # interleaved-normalization family with two-term operators
        seq = make_family("F1")
        basis = select_indices(seq, 4, n_start=3)
        f = m0_member(basis, [QComplex(Fraction(1, 5**e.valence)) for e in basis.entries])
        rep = decay_report(basis, f, 1.0)
        assert all(r.measured <= r.bound + 1e-9 for r in rep.rows)


def _assert_matches_oracle(report, oracle, rel=1e-12):
    """Each measured log equals the exact oracle's within rel of max(1, |log|)."""
    assert len(report.rows) == len(oracle)
    for row, want in zip(report.rows, oracle):
        if want == NEG_INF:
            assert row.measured == NEG_INF, row
        else:
            assert abs(row.measured - want) <= rel * max(1.0, abs(want)), (row, want)


class TestSerialization:
    def test_basis_csv(self):
        basis = select_indices(make_family("F4"), 3, n_start=3)
        buf = io.StringIO()
        write_basis_csv(basis, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,n_k,m(n_k),d(n_k),logA_k"
        assert lines[1].startswith("1,3,3,3,")

    def test_decay_csv(self):
        basis = select_indices(make_family("F4"), 3, n_start=3)
        f = m0_member(basis, [QComplex(Fraction(1, 4**e.valence)) for e in basis.entries])
        rep = decay_report(basis, f, 1.0)
        buf = io.StringIO()
        write_decay_csv(rep, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,measured_log,bound_log"
        assert len(lines) == 4
