import io
import math
from fractions import Fraction

import pytest

from hyperdiff.errors import CapExhausted, PreconditionError
from hyperdiff.families import make_family
from hyperdiff.scalars import LN2, QComplex
from hyperdiff.series import TaylorPolynomial, apply_operator
from hyperdiff.synthesis import (
    augment,
    enumerate_targets,
    joint_family,
    perturb,
    synthesize,
    write_residual_csv,
    write_trace_jsonl,
)


def poly_str(p):
    if p.is_zero:
        return "0"
    return " + ".join(f"{p.coefficient(j)} z^{j}" for j in p.support())


class TestEnumerateTargets:
    def test_zero_first(self):
        assert enumerate_targets(1) == [TaylorPolynomial.zero()]

    def test_expected_members_in_first_fifty(self):
        got = {poly_str(p) for p in enumerate_targets(50)}
        for want in ("1 z^1", "1 z^0", "-1 z^0", "1 z^2", "1/2 z^0"):
            assert want in got

    def test_no_duplicates_in_first_200(self):
        keys = [poly_str(p) for p in enumerate_targets(200)]
        assert len(keys) == len(set(keys))

    def test_covers_degrees(self):
        degrees = {p.degree for p in enumerate_targets(200)}
        assert {0, 1, 2, 3}.issubset(degrees)

    def test_zero_recurrent_even_steps(self):
        ts = enumerate_targets(10, zero_recurrent=True)
        for pos, p in enumerate(ts, start=1):
            assert p.is_zero == (pos % 2 == 0)


@pytest.fixture(scope="module")
def trace():
    targets = enumerate_targets(8)
    return synthesize(make_family("F4"), targets)


class TestSynthesize:

    def test_indices_strictly_increase(self, trace):
        assert all(b > a for a, b in zip(trace.indices, trace.indices[1:]))

    def test_residual_certificates(self, trace):
        seq = trace.seq
        for rec, step in zip(trace.residuals, trace.steps):
            # independent recomputation through the operator action
            image = apply_operator(seq.op(step.n), trace.vector)
            direct = image - step.target
            measured = direct.majorant_norm(step.radius) if not direct.is_zero else None
            if measured is None:
                assert rec.residual.is_zero
            else:
                assert measured.log == rec.residual.log
            assert rec.certified
            if not rec.residual.is_zero:
                assert rec.residual.log <= (1 - rec.index) * LN2 + 1e-9

    def test_annihilation_structure(self, trace):
        seq = trace.seq
        for later in range(1, len(trace.steps)):
            op = seq.op(trace.steps[later].n)
            for earlier in range(later):
                h = trace.steps[earlier].correction
                assert apply_operator(op, h).is_zero

    def test_first_residual_within_half(self, trace):
        first = trace.residuals[0]
        assert first.residual.is_zero or first.residual.log <= -LN2 + 1e-9

    def test_all_zero_targets(self):
        trace = synthesize(make_family("F4"), [TaylorPolynomial.zero()] * 4)
        assert trace.vector.is_zero
        assert all(r.residual.is_zero for r in trace.residuals)

    def test_single_step_exact(self):
        trace = synthesize(make_family("F4"), [TaylorPolynomial([1])])
        assert trace.residuals[0].residual.is_zero

    def test_determinism_byte_for_byte(self):
        targets = enumerate_targets(6)
        bufs = []
        for _ in range(2):
            trace = synthesize(make_family("F4"), targets)
            buf = io.StringIO()
            write_trace_jsonl(trace, buf)
            csv_buf = io.StringIO()
            write_residual_csv(trace, csv_buf)
            bufs.append((buf.getvalue(), csv_buf.getvalue()))
        assert bufs[0] == bufs[1]

    def test_cap_exhaustion_reports_condition(self):
        with pytest.raises(CapExhausted) as err:
            synthesize(make_family("F4"), [TaylorPolynomial([1])] * 3, n_cap=4)
        assert err.value.step is not None


class TestPerturb:

    def test_zero_perturbation_identical(self, trace):
        rep = perturb(trace, TaylorPolynomial.zero())
        assert all(row.exactly_equal for row in rep.rows)

    def test_cubic_perturbation(self, trace):
        rep = perturb(trace, TaylorPolynomial.monomial(3))
        for row, step in zip(rep.rows, trace.steps):
            if trace.seq.valence(step.n) > 3:
                assert row.annihilated and row.exactly_equal
        assert rep.any_annihilation

    def test_high_degree_perturbation_flags_no_annihilation(self, trace):
        deg = trace.seq.valence(trace.steps[-1].n) + 5
        rep = perturb(trace, TaylorPolynomial.monomial(deg))
        assert not rep.any_annihilation


@pytest.fixture(scope="module")
def base():
    targets = enumerate_targets(12, zero_recurrent=True)
    return synthesize(make_family("F4"), targets)


class TestAugment:

    def test_base_zero_steps_exist(self, base):
        assert len(base.zero_steps()) == 6

    def test_lambda_zero_reduces_to_second_trace(self, base):
        seq = make_family("F4")
        rep = augment(seq, base, [TaylorPolynomial([1])], [Fraction(0)])
        row = rep.rows[0]
        second = rep.second_trace
        assert row.direct.log == second.residuals[0].residual.log

    def test_bounds_hold_for_lambda_set(self, base):
        seq = make_family("F4")
        extra = [TaylorPolynomial([1]), TaylorPolynomial.monomial(1)]
        rep = augment(seq, base, extra, [Fraction(-1), Fraction(1), Fraction(2)])
        assert len(rep.rows) == 6
        for row in rep.rows:
            assert row.ok
            if not row.bound.is_zero:
                assert row.bound.log <= row.stated_log + 1e-9
            if not row.direct.is_zero:
                assert row.direct.log <= row.bound.log + 1e-9

    def test_second_trace_uses_zero_step_indices(self, base):
        seq = make_family("F4")
        rep = augment(seq, base, [TaylorPolynomial([1])], [Fraction(1)])
        pool = set(rep.base_zero_indices)
        assert all(s.n in pool for s in rep.second_trace.steps)

    def test_non_zero_recurrent_base_rejected(self):
        seq = make_family("F4")
        bad = synthesize(seq, enumerate_targets(6))
        with pytest.raises(PreconditionError):
            augment(seq, bad, [TaylorPolynomial([1])], [Fraction(1)])

    def test_more_targets_than_zero_steps_rejected(self, base):
        seq = make_family("F4")
        with pytest.raises(PreconditionError):
            augment(seq, base, [TaylorPolynomial([1])] * 7, [Fraction(1)])


class TestJointFamily:
    def test_unit_combos_reduce_to_traces(self):
        seq = make_family("F4")
        rep = joint_family(seq, 2, [TaylorPolynomial([1])], [[1, 0], [0, 1]])
        assert rep.supports_disjoint
        for row in rep.combo_rows:
            assert row.ok

    def test_mixed_combos(self):
        seq = make_family("F4")
        rep = joint_family(
            seq,
            2,
            [TaylorPolynomial([1])],
            [[1, 1], [1, -1], [Fraction(1, 2), Fraction(3, 2)]],
        )
        for row in rep.combo_rows:
            assert row.ok
            abs_sum = sum(abs(c) for c in row.combo)
            expected = math.log(float(abs_sum)) - row.global_step * LN2
            assert row.tolerance_log == pytest.approx(expected, rel=1e-9)

    def test_difference_at_zero_target(self):
        seq = make_family("F4")
        rep = joint_family(seq, 2, [TaylorPolynomial.zero()], [[1, -1]])
        row = rep.combo_rows[0]
        assert row.ok

    def test_trace_residuals_certified(self):
        seq = make_family("F4")
        rep = joint_family(seq, 3, [TaylorPolynomial([1]), TaylorPolynomial.monomial(1)], [[1, 1, 1]])
        for trace in rep.traces:
            assert all(r.certified for r in trace.residuals)

    def test_zero_combo_rejected(self):
        with pytest.raises(PreconditionError):
            joint_family(make_family("F4"), 2, [TaylorPolynomial([1])], [[0, 0]])

    def test_needs_two_traces(self):
        with pytest.raises(PreconditionError):
            joint_family(make_family("F4"), 1, [TaylorPolynomial([1])], [[1]])


class TestAugmentZeroTarget:
    def test_lambda_one_zero_target_bound_is_orbit_sum(self, base):
        # with y = 0 the second trace's correction is zero, so the reported
        # bound collapses to the sum of the two traces' zero-step residuals
        seq = make_family("F4")
        rep = augment(seq, base, [TaylorPolynomial.zero()], [Fraction(1)])
        row = rep.rows[0]
        v_res = rep.second_trace.residuals[0].residual
        assert row.ok
        if v_res.is_zero:
            # single-step second trace: bound equals the base orbit alone
            from hyperdiff.series import apply_operator

            orbit = apply_operator(seq.op(row.n), base.vector).majorant_norm(row.radius)
            assert row.bound.log == orbit.log
