import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperdiff.cli import COMMANDS, main, read_operator_table
from hyperdiff.scalars import QComplex
from hyperdiff.series import (
    PolynomialOperator,
    read_coefficients,
    write_operator,
)


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_no_command_is_config_error(self, capsys):
        assert run() == 2

    def test_empty_config_file(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        assert run("--config", str(cfg)) == 2

    def test_unknown_family(self, tmp_path):
        assert run("check-properties", "--family", "F9", "--out", str(tmp_path)) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("command=check-properties\nfamily=F1\nwhatever=1\n")
        assert run("--config", str(cfg)) == 2

    def test_missing_precondition(self, tmp_path):
        # (P) with an empty sample set
        rc = run(
            "check-properties",
            "--family",
            "F1",
            "--props",
            "P",
            "--u-samples",
            "",
            "--out",
            str(tmp_path),
        )
        assert rc == 3

    def test_nonpositive_decay_base(self, tmp_path, capsys):
        rc = run("build-m0", "--family", "F4", "--decay-base", "0", "--out", str(tmp_path))
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_inverted_index_range_is_precondition_error(self, tmp_path, capsys):
        rc = run(
            "verify-criterion", "--family", "F4", "--route", "Q", "--n-min", "10", "--n-max", "5",
            "--out", str(tmp_path),
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("PreconditionError:") and "Traceback" not in err

    def test_cap_exhaustion(self, tmp_path):
        rc = run(
            "build-m0",
            "--family",
            "F4",
            "--count",
            "6",
            "--n-start",
            "3",
            "--n-cap",
            "100",
            "--out",
            str(tmp_path),
        )
        assert rc == 4


class TestConfigFile:
    def test_command_from_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"command=check-properties\nfamily=F4\nprops=Q\nn_max=30\nout={out}\n"
        )
        assert run("--config", str(cfg)) == 0
        assert (out / "property_Q.csv").exists()
        assert "property (Q): supports" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command=unicity\npoints=linear\nout={out}\n")
        assert run("--config", str(cfg), "--points", "sqrt") == 0
        assert "chi estimate: 2.0" in capsys.readouterr().out

    def test_conflicting_commands_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=unicity\n")
        assert run("synthesize", "--config", str(cfg), "--family", "F4") == 2


class TestRoundTrip:
    def test_inverse_file_reparses_identically(self, tmp_path, capsys):
        out = tmp_path / "inv"
        assert (
            run(
                "build-inverse",
                "--family",
                "F4",
                "--n",
                "6",
                "--k",
                "2",
                "--out",
                str(out),
            )
            == 0
        )
        assert "identity: exact" in capsys.readouterr().out
        path = out / "inverse_n6_k2.coeffs"
        with open(path) as handle:
            f = read_coefficients(handle)
        buf = io.StringIO()
        from hyperdiff.series import write_taylor

        write_taylor(f, buf)
        body = [l for l in path.read_text().splitlines() if not l.startswith("# route")]
        assert buf.getvalue().splitlines() == body

    def test_vector_round_trip(self, tmp_path):
        out = tmp_path / "syn"
        assert run("synthesize", "--family", "F4", "--count", "4", "--out", str(out)) == 0
        path = out / "vector.coeffs"
        with open(path) as handle:
            f = read_coefficients(handle)
        buf = io.StringIO()
        from hyperdiff.series import write_taylor

        write_taylor(f, buf)
        assert buf.getvalue() == path.read_text()


class TestIdempotence:
    def test_rerun_overwrites_with_identical_bytes(self, tmp_path):
        out = tmp_path / "m0"
        args = (
            "build-m0",
            "--family",
            "F4",
            "--count",
            "5",
            "--n-start",
            "3",
            "--out",
            str(out),
        )
        assert run(*args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


class TestOperatorTable:
    def test_read_multi_block_table(self, tmp_path):
        path = tmp_path / "table.coeffs"
        ops = [
            PolynomialOperator({3: QComplex(1)}),
            PolynomialOperator({5: QComplex(Fraction(1, 2)), 6: QComplex(1)}),
        ]
        with open(path, "w") as handle:
            for op in ops:
                write_operator(op, handle)
        assert read_operator_table(str(path)) == ops

    def test_f5_through_cli(self, tmp_path, capsys):
        path = tmp_path / "table.coeffs"
        ops = [PolynomialOperator({n: QComplex(1)}) for n in range(3, 40)]
        with open(path, "w") as handle:
            for op in ops:
                write_operator(op, handle)
        out = tmp_path / "out"
        rc = run(
            "check-properties",
            "--family",
            "F5",
            "--table",
            str(path),
            "--props",
            "Q",
            "--n-min",
            "1",
            "--n-max",
            "37",
            "--out",
            str(out),
        )
        assert rc == 0
        assert "property (Q):" in capsys.readouterr().out


class TestCommands:
    def test_perturb_outputs(self, tmp_path, capsys):
        out = tmp_path / "p"
        rc = run(
            "perturb",
            "--family",
            "F4",
            "--count",
            "6",
            "--g",
            "0,0,0,1",
            "--out",
            str(out),
        )
        assert rc == 0
        lines = (out / "perturb.csv").read_text().splitlines()
        assert lines[0] == "i,n_i,annihilated,residual_log,base_residual_log,exactly_equal"
        assert len(lines) == 7

    def test_verify_criterion_output(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = run(
            "verify-criterion",
            "--family",
            "F4",
            "--route",
            "Q",
            "--n-max",
            "30",
            "--k-max",
            "2",
            "--out",
            str(out),
        )
        assert rc == 0
        assert "overall: supports" in capsys.readouterr().out
        assert (out / "criterion.jsonl").exists()

    @pytest.mark.parametrize("flag, empty", [("--k-max=-1", ("ii", "iii")), ("--degrees=", ("i",))])
    def test_verify_criterion_empty_evidence_is_inconclusive(self, tmp_path, capsys, flag, empty):
        rc = run(
            "verify-criterion", "--family", "F4", "--route", "Q", "--n-max", "30", flag,
            "--out", str(tmp_path / "c"),
        )
        assert rc == 0
        out = capsys.readouterr().out
        for hyp in empty:
            assert f"hypothesis ({hyp}): inconclusive" in out
        assert "overall: inconclusive" in out

    def test_verify_criterion_p_route_keeps_duplicate_samples(self, tmp_path, capsys):
        out = tmp_path / "p"
        rc = run(
            "verify-criterion", "--family", "F1", "--route", "P", "--n-max", "30",
            "--u-samples=-2,-2,-3", "--out", str(out),
        )
        assert rc == 0
        records = [json.loads(line) for line in (out / "criterion.jsonl").read_text().splitlines()]
        ii = [rec for rec in records if rec["hypothesis"] == "ii"]
        assert [rec["w"] for rec in ii] == ["-2", "-2", "-3"]
        assert all(rec["p_growth_verdict"] == "supports" for rec in ii)
        assert "hypothesis (ii): supports" in capsys.readouterr().out

    def test_joint_outputs(self, tmp_path):
        out = tmp_path / "j"
        rc = run("joint", "--family", "F4", "--out", str(out))
        assert rc == 0
        assert (out / "joint.csv").exists()
        assert (out / "trace_0.jsonl").exists() and (out / "trace_1.jsonl").exists()

    def test_augment_outputs(self, tmp_path):
        out = tmp_path / "a"
        rc = run("augment", "--family", "F4", "--out", str(out))
        assert rc == 0
        header = (out / "augment.csv").read_text().splitlines()[0]
        assert header == "lambda,target,step,n,radius,direct_log,bound_log,stated_log,ok"


class TestErrorCodes:
    def test_exception_exit_codes(self):
        from hyperdiff.errors import (
            CapExhausted,
            ConfigError,
            InvariantViolation,
            PreconditionError,
        )

        assert ConfigError("x").exit_code == 2
        assert PreconditionError("x").exit_code == 3
        assert CapExhausted("x").exit_code == 4
        assert InvariantViolation("x").exit_code == 5

    def test_exact_mode_on_float_family_rejected(self, tmp_path):
        rc = main(
            ["build-inverse", "--family", "F2", "--n", "4", "--k", "1",
             "--mode", "exact", "--out", str(tmp_path)]
        )
        assert rc == 3

    def test_float_mode_coerces(self, tmp_path, capsys):
        rc = main(
            ["build-inverse", "--family", "F4", "--n", "4", "--k", "1",
             "--mode", "float", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "floating" in capsys.readouterr().out


# -- fuzzing the command boundary ----------------------------------------------------

# malformed, non-finite and beyond-double-range literals
_MALFORMED = st.sampled_from(["", "x", "1/0", "1.2.3", "2,,3", "-", "nan", "inf", "1e400"])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _pick(*values):
    return st.sampled_from(values)


# small values per key, including zero/negative sizes and inverted index ranges;
# any value may also be replaced by one of the literals above
_VALUES = {
    "family": _pick("F1", "F2", "F3", "F4", "F5", "f4", "F9"),
    "c": _pick("2", "-1/3", "0"),
    "decay": _pick("pow2cubic", "fast"),
    "c_mode": _pick("paper", "unit", "other"),
    "log_base": _pick("e", "2", "1", "0", "-3"),
    "table": _pick("TABLE", "missing.coeffs"),
    "props": _pick("P", "Q", "R", "PQR", "", "z"),
    "n_min": _ints(-2, 12),
    "n_max": _ints(-2, 24),
    "r": _pick("-1", "0", "0.5", "2", "3.5"),
    "samples": _pick("-1", "0", "63", "64", "100"),
    "k_max": _ints(-1, 3),
    "u_samples": _pick("-2,-3", "-2", "0,1/2", "1+2i", "-5/2,-3"),
    "threshold_log": _pick("-5", "0", "1.5", "20"),
    "q_threshold_log": _pick("-5", "0", "1"),
    "points": _pick("sqrt", "linear", "pow2", "file:missing.txt", "cube"),
    "r_max": _pick("-1", "5", "100", "1e4"),
    "margin": _pick("-1", "0.1", "2"),
    "count": _ints(-1, 4),
    "n_start": _ints(-1, 6),
    "n_cap": _ints(-1, 60),
    "decay_base": _ints(-1, 5),
    "n": _ints(-1, 12),
    "k": _ints(-1, 6),
    "mode": _pick("auto", "exact", "float", "fast"),
    "route": _pick("P", "Q", "q", "R"),
    "basis_size": _ints(-1, 3),
    "trunc": _ints(-1, 20),
    "degrees": _pick("0,1,2", "-1,3", "5"),
    "seed": _ints(-2, 3),
    "targets": _pick("diagonal", "polys:1;0,1", "polys:", "spiral", "1;0,1", "1"),
    "zero_recurrent": _pick("true", "0", "maybe"),
    "g": _pick("0,0,0,1", "0", "1,2"),
    "base_count": _ints(-1, 6),
    "extra": _pick("1;0,1", "1", "0"),
    "lambdas": _pick("-1,1,2", "0", "1/2"),
    "traces": _ints(-1, 3),
    "combos": _pick("1,0;0,1;1,1", "0,0", "1", "1,2,3"),
}


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values = {}
    for key in COMMANDS[command]:
        # family is always set, and so is n_cap for the greedy commands: their
        # default cap of 10**6 candidates is a long linear search by design;
        # build-m0's galloping index search ends quickly at the default cap
        forced = ("family",) if command == "build-m0" else ("family", "n_cap")
        if key.name == "out" or (key.name not in forced and draw(st.booleans())):
            continue
        # mostly well-formed values, so that runs get past parsing into the commands
        values[key.name] = draw(_MALFORMED if draw(st.integers(0, 7)) == 0 else _VALUES[key.name])
    return command, values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cli_case())
@example(("verify-criterion", {"family": "F4", "route": "Q", "n_min": "10", "n_max": "5"}))
@example(("verify-criterion", {"family": "F4", "route": "P", "n_max": "20", "trunc": "-1"}))
@example(("check-properties", {"family": "F1", "n_max": "20", "r": "nan"}))
@example(("augment", {"family": "F2", "base_count": "4", "extra": "1e400", "n_cap": "40"}))
@example(("build-m0", {"family": "F3", "count": "4"}))
@example(("build-m0", {"family": "F1", "count": "4"}))
@example(("build-m0", {"family": "F4", "decay": "pow2cubic", "count": "3"}))
def test_fuzzed_configs_exit_with_a_typed_code(case):
    """Small random configs for every command end in exit code 0, 2, 3, 4 or 5, never a traceback."""
    command, values = case
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.coeffs"
        with open(table, "w") as handle:
            for n in range(1, 25):
                write_operator(PolynomialOperator({n: QComplex(1), n + 1: QComplex(Fraction(1, n))}), handle)
        argv = [command, f"--out={tmp}/out"]
        argv += [f"--{k.replace('_', '-')}={str(table) if v == 'TABLE' else v}" for k, v in values.items()]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejections
                rc = exc.code
    assert rc in (0, 2, 3, 4, 5), (argv, rc)
    assert "Traceback" not in err.getvalue()


def test_numpy_stays_unimported(python_child, tmp_path):
    """Importing hyperdiff and sweeping properties never loads numpy (only density_demo needs it)."""
    proc = python_child(
        "import sys\n"
        "import hyperdiff\n"
        "from hyperdiff.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(rc)\n",
        "check-properties", "--family", "F1", "--props", "PQR", "--n-max", "20",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
