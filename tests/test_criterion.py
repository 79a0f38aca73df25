import io
import json
from fractions import Fraction

import pytest

from hyperdiff import criterion
from hyperdiff.cli import COMMANDS
from hyperdiff.criterion import (
    CriterionConfig,
    _hypothesis_ii_q,
    verify_hypotheses,
    write_criterion_jsonl,
)
from hyperdiff.errors import PreconditionError
from hyperdiff.families import make_family
from hyperdiff.inverses import build_f_nk, fnk_decay
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


@pytest.mark.parametrize(
    "family, route, n_max, u_samples",
    [
        ("F2", "Q", 400, "-2,-3,-5"),  # a float inverse's defect reached e^0.69 at n = 400, k = 1
        ("F2", "P", 40, "-2,-3,-5"),  # float defects e^-35 against certified bounds e^-142
        ("F4", "P", 30, "-2+1i,3j"),  # non-real points once pushed an exact family into floats
    ],
)
def test_exact_identities_are_never_refuted(family, route, n_max, u_samples):
    (parse,) = [key.parse for key in COMMANDS["verify-criterion"].keys if key.name == "u_samples"]
    cfg = CriterionConfig(n_hi=n_max, u_samples=parse(u_samples))
    ev = verify_hypotheses(make_family(family), route, cfg).items["iii"]
    assert ev.verdict == "supports"
    assert ev.rows
    for row in ev.rows:
        assert row["identity"] == "exact" if route == "Q" else row["within_bound"], row


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
        assert {row["degree"]: row["crossing"] for row in report.items["i"].rows}[5] == 6

    def test_identity_exact_everywhere(self, report):
        assert report.items["iii"].rows
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

    def test_defect_past_its_bound_refutes(self, monkeypatch):
        # (iii)'s defect bound is a certificate that does not raise: a failed row turns the verdict
        monkeypatch.setattr(criterion, "_residual", lambda *args: 7.0)
        cfg = CriterionConfig(n_lo=1, n_hi=10, u_samples=(QComplex(-2),), trunc=20)
        rep = verify_hypotheses(make_family("F3"), "P", cfg)
        assert rep.items["iii"].verdict == "refutes" and rep.overall == "refutes"
        rows = rep.items["iii"].rows
        assert [row["within_bound"] for row in rows] == [row["bound_log"] > 7.0 for row in rows]

    def test_root_rows_alone_are_inconclusive(self):
        # P_n(-1) = c_n (-1)^n (1 - 1) = 0 on F2: every (iii) row is a root, which certifies no identity
        ev = verify_hypotheses(make_family("F2"), "P", CriterionConfig(u_samples=(QComplex(-1),))).items["iii"]
        assert ev.rows and all(row["status"] == "root (inverse defined as 0)" for row in ev.rows)
        assert ev.verdict == "inconclusive"

    def test_root_rows_beside_certified_rows_support(self):
        cfg = CriterionConfig(u_samples=(QComplex(-1), QComplex(-2)))
        ev = verify_hypotheses(make_family("F2"), "P", cfg).items["iii"]
        roots = [row for row in ev.rows if "status" in row]
        assert roots and len(roots) < len(ev.rows)
        assert all(row["within_bound"] for row in ev.rows if "status" not in row)
        assert ev.verdict == "supports"

    def test_needs_samples(self):
        with pytest.raises(PreconditionError):
            verify_hypotheses(make_family("F3"), "P", CriterionConfig(u_samples=()))

    def test_unknown_route(self):
        with pytest.raises(PreconditionError):
            verify_hypotheses(make_family("F4"), "X", CriterionConfig())


def _table_family():
    # P_n = z^n + z^(n+1)/n: valence n, so the Q route applies
    ops = [PolynomialOperator({n: QComplex(1), n + 1: QComplex(Fraction(1, n))}) for n in range(1, 25)]
    return make_family("F5", {"ops": ops})


@pytest.mark.parametrize(
    "make", [lambda: make_family("F3"), lambda: make_family("F4"), _table_family], ids=["F3", "F4", "F5"]
)
def test_one_pass_decay_matches_per_k_sweeps(make):
    # (ii) sweeps n once for every k; each k swept on its own, on a fresh sequence, reports the same
    rows = _hypothesis_ii_q(make(), CriterionConfig(n_hi=24, k_max=3)).rows
    want = []
    for k in range(4):
        rep = fnk_decay(make(), k, 2.0, (2, 24))
        norms = [build_f_nk(make().op(n), k, verify=False).f.majorant_norm(2.0) for n in range(2, 25)]
        assert [row.norm for row in rep.rows] == norms
        want.append(dict(k=k, verdict=rep.verdict, crossing=rep.crossing, final_norm_log=rep.rows[-1].norm))
    assert rows == want


class TestPreconditions:
    def test_constant_valence_table(self):
        ops = [PolynomialOperator({2: QComplex(1), 3: QComplex(1)}) for _ in range(50)]
        seq = make_family("F5", {"ops": ops})
        with pytest.raises(PreconditionError):
            verify_hypotheses(seq, "Q", CriterionConfig(n_lo=1, n_hi=50))

    @pytest.mark.parametrize("route", ["P", "Q"])
    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, route, r):
        cfg = CriterionConfig(n_hi=5, r=r, u_samples=(QComplex(-2),))
        with pytest.raises(PreconditionError, match="radius r must be positive"):
            verify_hypotheses(make_family("F4"), route, cfg)


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
        # F2's coefficients are exact dyadic rationals, so its identities are exact too
        assert all(row["identity"] == "exact" for row in rep.items["iii"].rows)
        assert rep.items["iv"].verdict == "supports"
