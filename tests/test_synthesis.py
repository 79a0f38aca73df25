import io
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hyperdiff.synthesis
from hyperdiff import series
from hyperdiff.errors import CapExhausted, PreconditionError
from hyperdiff.families import make_family
from hyperdiff.inverses import inverse_for_polynomial
from hyperdiff.scalars import LN2, NEG_INF, QComplex, log_abs, log_fraction, log_margin
from hyperdiff.series import PolynomialOperator, TaylorPolynomial, apply_operator
from hyperdiff.synthesis import (
    _build_schedule,
    _correction_bounds,
    _top_image_logs,
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
                assert rec.residual == NEG_INF
            else:
                assert measured == rec.residual
            assert rec.certified
            if rec.residual != NEG_INF:
                assert rec.residual <= (1 - rec.index) * LN2 + 1e-9

    def test_annihilation_structure(self, trace):
        seq = trace.seq
        for later in range(1, len(trace.steps)):
            op = seq.op(trace.steps[later].n)
            for earlier in range(later):
                h = trace.steps[earlier].correction
                assert apply_operator(op, h).is_zero

    def test_first_residual_within_half(self, trace):
        first = trace.residuals[0]
        assert first.residual == NEG_INF or first.residual <= -LN2 + 1e-9

    def test_all_zero_targets(self):
        trace = synthesize(make_family("F4"), [TaylorPolynomial.zero()] * 4)
        assert trace.vector.is_zero
        assert all(r.residual == NEG_INF for r in trace.residuals)

    def test_single_step_exact(self):
        trace = synthesize(make_family("F4"), [TaylorPolynomial([1])])
        assert trace.residuals[0].residual == NEG_INF

    def test_tie_with_eps_is_not_below_it(self):
        # under P_1 = z the correction of 1/3 + z/3 is z/3 + z^2/6, whose majorant at
        # r = 1 is exactly eps_1 = 1/2 (its float log is 1 ulp low): a tie, not a pass
        ops = [PolynomialOperator({1: QComplex(1)}), PolynomialOperator({2: QComplex(1)})]
        third = QComplex(Fraction(1, 3))
        trace = synthesize(make_family("F5", {"ops": ops}), [TaylorPolynomial([third, third])])
        assert trace.indices == (2,)

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

    def test_cap_exhaustion_without_candidates_names_no_condition(self):
        # step 1 takes n = 1, so under n_cap = 1 step 2 scans no candidate: no tally counts, and no reason is named
        with pytest.raises(CapExhausted) as err:
            synthesize(make_family("F4"), enumerate_targets(3), n_cap=1)
        assert (err.value.step, err.value.condition) == (2, None)
        assert str(err.value).endswith("(rejections: {'annihilation': 0, 'self_norm': 0, 'cross_norm': 0})")

    def test_capped_scan_retains_no_rejected_operator(self):
        # 1,499 candidates are rejected on their self norm; their operators (about 2 MB together)
        # are dropped, so the peak is one operator and one inverse
        targets = [TaylorPolynomial.zero(), TaylorPolynomial([QComplex(Fraction(1, 2))])]
        tracemalloc.start()
        try:
            with pytest.raises(CapExhausted) as err:
                synthesize(make_family("F1"), targets, n_cap=1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.condition == "self_norm"
        assert peak < 2**19

    def test_pow2cubic_scan_runs_in_bounded_memory(self, python_child, tmp_path):
        # each rejected candidate's operator carries a 2^(n^3) denominator: holding them all took
        # about 50 MB here. The child caps its own address space, so a regression fails instead
        # of exhausting the host
        proc = python_child(
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from hyperdiff.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            # peak RSS of this program alone (ru_maxrss keeps the parent's peak across exec)
            "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
            "sys.exit(rc)\n",
            "synthesize", "--family", "F4", "--decay", "pow2cubic", "--count", "3", "--n-cap", "160",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 4, proc.stderr
        assert int(proc.stdout.split()[-1]) < 35 * 1024  # VmHWM is in kB


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
        assert row.direct == second.residuals[0].residual

    def test_bounds_hold_for_lambda_set(self, base):
        seq = make_family("F4")
        extra = [TaylorPolynomial([1]), TaylorPolynomial.monomial(1)]
        rep = augment(seq, base, extra, [Fraction(-1), Fraction(1), Fraction(2)])
        assert len(rep.rows) == 6
        for row in rep.rows:
            assert row.ok
            if row.bound != NEG_INF:
                assert row.bound <= row.stated_log + 1e-9
            if row.direct != NEG_INF:
                assert row.direct <= row.bound + 1e-9

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

    def test_empty_lambda_set_rejected(self, base):
        # no lambda, no rows: "all bounds hold" would be vacuous
        with pytest.raises(PreconditionError, match="at least one lambda"):
            augment(make_family("F4"), base, [TaylorPolynomial([1])], [])


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

    def test_empty_combo_set_rejected(self):
        with pytest.raises(PreconditionError, match="at least one combination"):
            joint_family(make_family("F4"), 2, [TaylorPolynomial([1])], [])


class TestAugmentZeroTarget:
    def test_lambda_one_zero_target_bound_is_orbit_sum(self, base):
        # with y = 0 the second trace's correction is zero, so the reported
        # bound collapses to the sum of the two traces' zero-step residuals
        seq = make_family("F4")
        rep = augment(seq, base, [TaylorPolynomial.zero()], [Fraction(1)])
        row = rep.rows[0]
        v_res = rep.second_trace.residuals[0].residual
        assert row.ok
        if v_res == NEG_INF:
            # single-step second trace: bound equals the base orbit alone
            from hyperdiff.series import apply_operator

            orbit = apply_operator(seq.op(row.n), base.vector).majorant_norm(row.radius)
            assert row.bound == orbit


# -- the cross-norm check order ------------------------------------------------------


def _synthesized():
    return (synthesize(make_family("F4"), enumerate_targets(24)),)


def _augmented():
    seq = make_family("F4")
    base = synthesize(seq, enumerate_targets(16, zero_recurrent=True))
    return (augment(seq, base, enumerate_targets(6)[1:], [Fraction(1)]).second_trace,)


def _joint():
    return joint_family(make_family("F4"), 2, enumerate_targets(4)[1:], [[1, 1]]).traces


@pytest.mark.parametrize("build", [_synthesized, _augmented, _joint], ids=["synthesize", "augment", "joint"])
def test_cross_norm_logs_follow_step_order(build):
    """cross_norm_logs[i] is the step's correction measured under the i-th earlier global step."""
    built = build()
    seq = built[0].seq
    steps = sorted((s for t in built for s in t.steps), key=lambda s: s.global_index)
    assert [s.global_index for s in steps] == list(range(1, len(steps) + 1))
    assert len(steps) >= 3
    for step in steps:
        assert len(step.cross_norm_logs) == step.global_index - 1
        for prior, logged in zip(steps, step.cross_norm_logs):
            want = apply_operator(seq.op(prior.n), step.correction).majorant_norm(prior.radius)
            assert logged == want


def _oldest_first(seq, targets, n_cap):
    """Reference greedy loop: the cross-norm test runs over the earlier steps oldest first,
    each by an exact operator application, with the library's comparator.

    Returns (n, correction, cross_norm_logs) per step, or raises CapExhausted as
    the library does.
    """
    if seq.max_n is not None:
        n_cap = min(n_cap, seq.max_n)
    steps = []
    max_deg, n_prev = -1, 0
    for s, target in enumerate(targets, start=1):
        e_log = log_fraction(Fraction(1, 2**s))
        fail = {"annihilation": 0, "self_norm": 0, "cross_norm": 0}
        for n in range(n_prev + 1, n_cap + 1):
            if seq.valence(n) <= max_deg:
                fail["annihilation"] += 1
                continue
            if target.is_zero:
                h = TaylorPolynomial.zero()
            else:
                h = inverse_for_polynomial(seq.op(n), target)
                if not log_margin(h.majorant_norm(float(s)), e_log) > 0:
                    fail["self_norm"] += 1
                    continue
            logs = []
            for prior_step, (prior_n, _, _) in enumerate(steps, start=1):
                c = apply_operator(seq.op(prior_n), h).majorant_norm(float(prior_step))
                if not log_margin(c, e_log) > 0:
                    break
                logs.append(c)
            else:
                steps.append((n, h, tuple(logs)))
                break
            fail["cross_norm"] += 1
        else:
            raise CapExhausted(
                f"no admissible index <= {n_cap} at build step {s} (rejections: {fail})",
                step=s,
                condition=max(fail, key=fail.get) if any(fail.values()) else None,
            )
        if not h.is_zero:
            max_deg = max(max_deg, h.degree)
        n_prev = n
    return steps


# An F5 table with gaps and valences that rise and fall. After a zero target
# admitted at a high valence (n = 1), a later correction of lower degree is
# annihilated by that step's operator, so its image floor is -inf; the large
# c_m at n = 2 and n = 4 let low-degree corrections pass their own test, and
# the table's end stops later steps with annihilation and cross-norm tallies.
_F5_GAPS = [
    PolynomialOperator({6: 1, 8: Fraction(1, 3)}),
    PolynomialOperator({1: 64, 3: -1}),
    PolynomialOperator({3: QComplex(0, 1), 6: Fraction(1, 5)}),
    PolynomialOperator({2: 1000, 4: 1}),
    PolynomialOperator({8: 1, 11: QComplex(Fraction(1, 2), 1)}),
    PolynomialOperator({10: Fraction(1, 4), 13: 1}),
    PolynomialOperator({5: 1, 9: QComplex(0, -2)}),
    PolynomialOperator({13: 1, 14: Fraction(-1, 7), 17: 2}),
    PolynomialOperator({4: 1, 7: 1}),
    PolynomialOperator({16: 1, 20: Fraction(1, 9)}),
    PolynomialOperator({7: QComplex(Fraction(2, 3), 1), 10: 1}),
    PolynomialOperator({19: 1, 23: -1}),
    PolynomialOperator({9: 1, 12: Fraction(1, 2)}),
    PolynomialOperator({22: 1, 26: 1}),
]

# Complex coefficients throughout. From valence 3 on, a candidate that follows one whose exact correction passed
# its own test has that test proven by the closed-form ceiling, and most of those fall to the image floor.
_F5_COMPLEX = [
    PolynomialOperator({1: QComplex(Fraction(1, 2), Fraction(1, 3)), 3: QComplex(-2, 1)}),
    PolynomialOperator({2: QComplex(0, 1), 3: Fraction(3, 7), 5: QComplex(1, Fraction(-1, 9))}),
    *(PolynomialOperator({m: QComplex(Fraction(1, m), Fraction(1, 3)), m + 2: QComplex(-2, 1)}) for m in range(3, 9)),
]

# Monomials whose coefficient alternates 1000, 1/1000: a candidate that follows one passing its own test can fail
# it, so a ceiling that proved (b) where the exact norm does not would move a chosen index or a tally.
_F5_DROPS = [PolynomialOperator({m: 1000 if m % 2 else Fraction(1, 1000)}) for m in range(1, 25)]

_ORACLE_FAMILIES = {
    "F1": ("F1", {}),
    "F2-paper": ("F2", {}),
    "F2-unit": ("F2", {"c_mode": "unit"}),
    "F3": ("F3", {}),
    "F4": ("F4", {"c": "7/2"}),
    "F4-unit": ("F4", {}),
    "F5-gaps": ("F5", {"ops": _F5_GAPS}),
    "F5-complex": ("F5", {"ops": _F5_COMPLEX}),
    "F5-drops": ("F5", {"ops": _F5_DROPS}),
}


# the -inf floor, then a cap reached with cross-norm rejections
@example(tag="F5-gaps", start=0, length=5, n_cap=40)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    tag=st.sampled_from(sorted(_ORACLE_FAMILIES)),
    start=st.integers(0, 10),
    length=st.integers(1, 5),
    n_cap=st.integers(1, 40),
)
def test_newest_first_matches_oldest_first(tag, start, length, n_cap):
    """Neither the top-coefficient floor nor testing the newest earlier step first changes a
    chosen step or a cap-exhaustion report."""
    seq = make_family(*_ORACLE_FAMILIES[tag])
    targets = enumerate_targets(start + length)[start:]
    schedule = [(0, t) for t in targets]
    try:
        want = _oldest_first(seq, targets, n_cap)
    except CapExhausted as exc:
        with pytest.raises(CapExhausted) as err:
            _build_schedule(seq, schedule, n_cap)
        assert (err.value.step, err.value.condition, str(err.value)) == (exc.step, exc.condition, str(exc))
        return
    got = _build_schedule(seq, schedule, n_cap)
    assert [(s.n, s.correction, s.cross_norm_logs) for s in got] == want


def test_rejections_cost_few_operator_applications(monkeypatch):
    """Every rejected candidate falls to its image's top coefficient, so operators are applied only
    to admitted corrections (276 cross checks over 24 steps) and to the 24 residuals."""
    calls = 0
    apply = hyperdiff.synthesis.apply_operator

    def counting(op, f):
        nonlocal calls
        calls += 1
        return apply(op, f)

    monkeypatch.setattr(hyperdiff.synthesis, "apply_operator", counting)
    synthesize(make_family("F4"), enumerate_targets(24))
    assert calls <= 300


# -- the top-coefficient floor of an image ------------------------------------------

_HEIGHT = 2**64
_rationals = st.builds(Fraction, st.integers(-_HEIGHT, _HEIGHT), st.integers(1, _HEIGHT))
_scalars = st.builds(QComplex, _rationals, _rationals)
_nonzero = _scalars.filter(bool)


@st.composite
def _floor_cases(draw):
    """(operator, h, r): valence 0-20, degree <= 40, sparse terms; deg h above or below the valence."""
    m = draw(st.integers(0, 20))
    d = draw(st.integers(max(m, 1), 40))
    coeffs = draw(st.dictionaries(st.integers(m, d), _scalars, max_size=5))
    coeffs[m], coeffs[d] = draw(_nonzero), draw(_nonzero)
    below = m > 0 and draw(st.booleans())
    k = draw(st.integers(0, m - 1) if below else st.integers(m, m + 40))
    terms = draw(st.dictionaries(st.integers(0, k), _scalars, max_size=5))
    terms[k] = draw(_nonzero)
    r = draw(st.floats(0.25, 32.0))
    return PolynomialOperator(coeffs), TaylorPolynomial.from_pairs(terms.items()), r


# a monomial image, which the floor meets exactly, with a lowest term of h far above its top
_MONOMIAL_IMAGE = (
    PolynomialOperator({3: Fraction(1, 7)}),
    TaylorPolynomial.from_pairs([(0, 2**60), (9, 5)]),
    2.0,
)


@example(_MONOMIAL_IMAGE)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_floor_cases())
def test_top_image_floor_never_exceeds_the_image_norm(case):
    """The floor is never above log ||P(D) h|| beyond rounding, and it is -inf when deg h < m."""
    op, h, r = case
    m = op.valence
    top = log_abs(h.coefficient(h.degree))
    (floor,) = _top_image_logs(h.degree, top, [(m, log_abs(op.coefficient(m)), math.log(r))])
    exact = apply_operator(op, h).majorant_norm(r)
    assert log_margin(floor, exact) >= 0
    assert (floor == -math.inf) == (h.degree < m)


# -- the correction's head, in closed form ------------------------------------------

_HEAD_FAMILIES = {
    **_ORACLE_FAMILIES,
    "F4-pow2cubic": ("F4", {"decay": "pow2cubic"}),  # P_24 alone holds 2^-13824
}
_targets_coeffs = st.one_of(_rationals.map(QComplex), _scalars)  # real and complex


def _y_logs(y):
    return [(k, log_abs(c)) for k, c in y.terms()]


def _head_case(data, tag):
    """(seq, n, y): an index of the family and a real or complex target of degree 0-4."""
    seq = make_family(*_HEAD_FAMILIES[tag])
    n = data.draw(st.integers(1, seq.max_n or 24))
    k = data.draw(st.integers(0, 4))
    coeffs = data.draw(st.dictionaries(st.integers(0, k), _targets_coeffs, max_size=3))
    coeffs[k] = data.draw(_targets_coeffs.filter(bool))
    return seq, n, TaylorPolynomial.from_pairs(coeffs.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tag=st.sampled_from(sorted(_HEAD_FAMILIES)), data=st.data())
def test_correction_head_matches_the_built_correction(tag, data):
    """The closed-form head has the built correction's degree, and its log top coefficient to 2^-40 relative."""
    seq, n, y = _head_case(data, tag)
    h = inverse_for_polynomial(seq.op(n), y)
    degree, log_top, _ = _correction_bounds(seq, n, _y_logs(y), 0.0)
    assert degree == h.degree
    want = log_abs(h.coefficient(h.degree))
    assert abs(log_top - want) <= 2**-40 * max(1.0, abs(want))
    assert _correction_bounds(seq, n, [], 0.0) == (-1, 0.0, -math.inf)
    assert inverse_for_polynomial(seq.op(n), TaylorPolynomial.zero()).degree == -1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tag=st.sampled_from(sorted(_HEAD_FAMILIES)), data=st.data())
def test_correction_ceiling_never_below_the_built_correction_norm(tag, data):
    """The closed-form ceiling is never below log ||h||_r by more than 2^-40 relative. Under a monomial
    (F4) it is that norm, one-term targets included: the tie that the greedy chain sends to the exact test."""
    seq, n, y = _head_case(data, tag)
    r = data.draw(st.floats(1.0, 60.0))
    want = inverse_for_polynomial(seq.op(n), y).majorant_norm(r)
    *_, ceiling = _correction_bounds(seq, n, _y_logs(y), math.log(r))
    assert ceiling >= want - 2**-40 * max(1.0, abs(want))
    if tag.startswith("F4"):
        assert abs(ceiling - want) <= 2**-40 * max(1.0, abs(want))


def test_ceiling_route_skips_most_corrections(monkeypatch):
    """F4 candidates whose (b) the ceiling proves fall to (c)'s floor without a correction: at most 60 built over
    24 steps (879 when every candidate built one). F1 never passes (b), so its scan builds one per candidate."""
    calls = 0
    build = hyperdiff.synthesis.inverse_for_polynomial

    def counting(op, y):
        nonlocal calls
        calls += 1
        return build(op, y)

    monkeypatch.setattr(hyperdiff.synthesis, "inverse_for_polynomial", counting)
    synthesize(make_family("F4"), enumerate_targets(24))
    assert calls <= 60
    calls = 0
    with pytest.raises(CapExhausted):
        synthesize(make_family("F1"), [TaylorPolynomial.zero(), TaylorPolynomial.monomial(0, QComplex(1))], n_cap=200)
    assert calls == 200


def test_rejected_corrections_are_never_reduced(monkeypatch):
    """Floors read each candidate's head in closed form, and the exact cross checks, the residual pass of
    ``_assemble`` and ``augment`` read images and residuals from pairs: no held correction is ever reduced."""
    reduce = series._Reducible._reduced_terms
    held = 0

    def counting(self):
        nonlocal held
        held += isinstance(self, TaylorPolynomial) and self._terms is None
        return reduce(self)

    monkeypatch.setattr(series._Reducible, "_reduced_terms", counting)
    seq = make_family("F4")
    with pytest.raises(CapExhausted) as err:
        synthesize(seq, enumerate_targets(8), n_cap=40)
    assert str(err.value).endswith("(rejections: {'annihilation': 0, 'self_norm': 0, 'cross_norm': 6})")
    assert held == 0
    trace = synthesize(seq, enumerate_targets(12))
    assert all(rec.certified for rec in trace.residuals)
    base = synthesize(seq, enumerate_targets(12, zero_recurrent=True))
    report = augment(seq, base, enumerate_targets(3)[1:], [Fraction(-1), Fraction(1, 2)])
    assert report.rows and all(row.ok for row in report.rows)
    assert held == 0 and trace.vector._terms is None and report.second_trace.vector._terms is None
