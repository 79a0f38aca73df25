import io
import json

import pytest

from hyperdiff.criterion import (
    CriterionConfig,
    verify_hypotheses,
    write_criterion_jsonl,
)
from hyperdiff.errors import PreconditionError
from hyperdiff.families import make_family
from hyperdiff.scalars import QComplex
from hyperdiff.series import PolynomialOperator, TaylorPolynomial, apply_operator


class TestCheckAnnihilation:
    def test_valence_above_degree(self):
        p = PolynomialOperator({5: QComplex(1)})
        g = TaylorPolynomial([1, 0, 0, 1])
        assert apply_operator(p, g).is_zero

    def test_valence_below_degree(self):
        p = PolynomialOperator({2: QComplex(1)})
        g = TaylorPolynomial.monomial(3)
        assert apply_operator(p, g) == TaylorPolynomial.from_pairs([(1, 6)])

    def test_f1_at_10_kills_degree_9(self):
        op = make_family("F1").op(10)
        g = TaylorPolynomial([QComplex(i + 1) for i in range(10)])  # degree 9
        assert apply_operator(op, g).is_zero

    def test_zero_polynomial_always_annihilated(self):
        assert apply_operator(PolynomialOperator({1: QComplex(1)}), TaylorPolynomial.zero()).is_zero


@pytest.fixture(scope="module")
def report():
    return verify_hypotheses(
        make_family("F4"), "Q", CriterionConfig(n_lo=1, n_hi=40, k_max=3)
    )


class TestQRoute:

    def test_all_four_support(self, report):
        assert {k: ev.verdict for k, ev in report.items.items()} == {
            "i": "supports",
            "ii": "supports",
            "iii": "supports",
            "iv": "supports",
        }
        assert report.overall == "supports"

    def test_crossing_recorded_for_degree_5(self, report):
        assert report.items["i"].notes["crossings"][5] == 6

    def test_identity_exact_everywhere(self, report):
        assert report.items["iii"].notes["exact"]
        assert all(row["identity"] == "exact" for row in report.items["iii"].rows)

    def test_monotone_in_range_for_exact_hypotheses(self):
        small = verify_hypotheses(
            make_family("F4"), "Q", CriterionConfig(n_lo=1, n_hi=20, k_max=2)
        )
        large = verify_hypotheses(
            make_family("F4"), "Q", CriterionConfig(n_lo=1, n_hi=60, k_max=2)
        )
        for key in ("i", "iii"):
            assert small.items[key].verdict == "supports"
            assert large.items[key].verdict == "supports"


class TestPRoute:
    def test_f3_supports(self):
        rep = verify_hypotheses(
            make_family("F3"),
            "P",
            CriterionConfig(
                n_lo=1, n_hi=40, u_samples=(QComplex(-2), QComplex(-3), QComplex(-5)), trunc=60
            ),
        )
        assert rep.overall == "supports"
        # (ii) decay of the inverses is driven by |P_n(w)| growth on the samples
        assert all(row["p_growth_verdict"] == "supports" for row in rep.items["ii"].rows)
        # (iii) truncation defects certified against the reported bounds
        assert all(row.get("within_bound", True) for row in rep.items["iii"].rows)

    def test_needs_samples(self):
        with pytest.raises(PreconditionError):
            verify_hypotheses(make_family("F3"), "P", CriterionConfig(u_samples=()))

    def test_unknown_route(self):
        with pytest.raises(PreconditionError):
            verify_hypotheses(make_family("F4"), "X", CriterionConfig())


class TestPreconditions:
    def test_constant_valence_table(self):
        ops = [PolynomialOperator({2: QComplex(1), 3: QComplex(1)}) for _ in range(50)]
        seq = make_family("F5", {"ops": ops})
        with pytest.raises(PreconditionError):
            verify_hypotheses(seq, "Q", CriterionConfig(n_lo=1, n_hi=50))


class TestJsonReport:
    def test_one_record_per_row_plus_summary(self):
        rep = verify_hypotheses(
            make_family("F4"), "Q", CriterionConfig(n_lo=1, n_hi=30, k_max=2)
        )
        buf = io.StringIO()
        write_criterion_jsonl(rep, buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines[-1]["hypothesis"] == "overall"
        assert lines[-1]["verdict"] == "supports"
        count = sum(len(rep.items[k].rows) for k in ("i", "ii", "iii", "iv"))
        assert len(lines) == count + 1


class TestFloatFamilyQRoute:
    def test_f2_supports_with_wide_enough_sweep(self):
        rep = verify_hypotheses(
            make_family("F2"), "Q", CriterionConfig(n_lo=2, n_hi=200, k_max=2)
        )
        assert rep.items["i"].verdict == "supports"
        assert rep.items["ii"].verdict == "supports"
        assert rep.items["iii"].verdict == "supports"
        assert not rep.items["iii"].notes["exact"]
        assert rep.items["iv"].verdict == "supports"
