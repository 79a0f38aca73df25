import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperdiff import cli, lacunary, synthesis
from hyperdiff.cli import COMMANDS, main, read_operator_table
from hyperdiff.families import make_family
from hyperdiff.lacunary import LacunaryBasis
from hyperdiff.scalars import LN2, QComplex, log_margin
from hyperdiff.series import (
    PolynomialOperator,
    TaylorPolynomial,
    apply_operator,
    read_coefficients,
    write_operator,
)


def run(*argv):
    return main(list(argv))


def _write_table(path):
    """A 24-operator F5 table: P_n = z^n + z^(n+1)/n."""
    with open(path, "w") as handle:
        for n in range(1, 25):
            write_operator(PolynomialOperator({n: QComplex(1), n + 1: QComplex(Fraction(1, n))}), handle)


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

    @pytest.mark.parametrize("family", ["F1", "F2", "F3", "F4"])
    def test_table_rejected_for_builtin_families(self, tmp_path, capsys, family):
        rc = run(
            "check-properties", "--family", family, "--table", "nonexistent", "--props", "Q",
            "--n-max", "5", "--out", str(tmp_path),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"ConfigError: {family} does not take parameters ['table']\n"

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

    @pytest.mark.parametrize(
        "argv",
        [("augment", "--family", "F4", "--base-count", "4", "--extra", "1", "--lambdas="),
         ("joint", "--family", "F4", "--combos=")],
        ids=["no-lambdas", "no-combos"],
    )
    def test_empty_certificate_set_is_precondition_error(self, tmp_path, capsys, argv):
        # zero rows would print a vacuous "all ... bounds hold: True"
        rc = run(*argv, "--out", str(tmp_path))
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("PreconditionError: need at least one") and "Traceback" not in captured.err
        assert "hold" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [("synthesize", "--family", "F4", "--count", "2"),
         ("check-properties", "--family", "F4", "--props", "Q", "--n-max", "5"),
         ("build-inverse", "--family", "F4", "--n", "6", "--k", "2")],
        ids=["synthesize", "check-properties", "build-inverse"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["existing-file", "below-a-file"])
    def test_out_path_that_cannot_be_a_directory_is_config_error(self, tmp_path, capsys, argv, below):
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        assert run(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"ConfigError: cannot create output directory {str(out)!r}: ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["synthesize", "perturb"])
    @pytest.mark.parametrize("targets", ["polys:1;2;3", "diagonal"])
    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_count_below_one_is_precondition_error(self, tmp_path, capsys, command, targets, count):
        # a negative count must not slice targets off the end of a literal list
        rc = run(command, "--family", "F4", "--targets", targets, "--count", count, "--out", str(tmp_path))
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("PreconditionError: ") and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_f2_greedy_step_with_underflowing_inverse(self, tmp_path, capsys):
        # the F2 inverses for the target 1 at n = 219..709 underflow in doubles, and
        # a_0 is subnormal at n = 710; F2's exact dyadic coefficients carry the
        # default scan through those indices to certified bounds
        rc = run("augment", "--family", "F2", "--out", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "all augmentation bounds hold: True" in out.splitlines()

    @pytest.mark.parametrize("n, k", [(710, 0), (708, 5)])
    def test_f2_float_inverse_past_the_double_range(self, tmp_path, capsys, n, k):
        # in doubles 1/a_0 overflows at n = 710 and b_5 at n = 708; the exact inverse
        # has no range, and its identity is checked with rational equality
        rc = run("build-inverse", "--family", "F2", "--n", str(n), "--k", str(k), "--out", str(tmp_path))
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "identity: exact"
        with open(tmp_path / f"inverse_n{n}_k{k}.coeffs") as handle:
            f = read_coefficients(handle)
        assert apply_operator(make_family("F2").op(n), f) == TaylorPolynomial.monomial(k)

    @pytest.mark.parametrize(
        "body",
        [
            "#operator m=1 d=3\n1,1,0\n3,abc,0\n",  # bad token
            "#operator m=0 d=0\n0,1,0\n",  # constant operator
            "#operator m=1 d=2\n1,1,0\n1,2,0\n2,1,0\n",  # repeated index
            "#operator m=1 d=1\n1,1/0,0\n",  # zero denominator
            "#operator m=7 d=9\n3,1,0\n4,2,0\n",  # header disagrees with the body
            "2,5,0\n#operator m=1 d=3\n1,1,0\n3,1,0\n",  # a coefficient line before the first header
            "#taylor N=2\n0,1,0\n#operator m=1 d=3\n1,1,0\n3,1,0\n",  # a #taylor block ahead of the operators
            "#operator m=1 d=3\n1,1,0\n3,1,0\n#taylor N=0\n#operator m=2 d=3\n2,1,0\n3,1,0\n",  # one between them
        ],
    )
    def test_malformed_table_is_config_error(self, tmp_path, capsys, body):
        table = tmp_path / "table.coeffs"
        table.write_text(body)
        rc = run(
            "build-inverse", "--family", "F5", "--table", str(table), "--n", "1", "--k", "1",
            "--out", str(tmp_path / "out"),
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {table}: ")

    def test_non_finite_table_value_is_config_error(self, tmp_path, capsys):
        # 1e999 overflows a double; read as inf it would reach property_P.csv
        table = tmp_path / "table.coeffs"
        table.write_text("#operator m=1 d=2\n1,1e999,0\n2,1.0,0\n")
        out = tmp_path / "out"
        rc = run("check-properties", "--family", "F5", "--table", str(table), "--props", "P",
                 "--n-max", "1", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {table}: ")
        assert not (out / "property_P.csv").exists()

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

    @pytest.mark.parametrize("token", ["nan", "nan+1i", "1e400+0i", "inf", "-2,1+nani"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("check-properties", "--family", "F1", "--props", "P"),
            ("verify-criterion", "--family", "F4", "--route", "P"),
        ],
    )
    def test_non_finite_sample_point_is_config_error(self, tmp_path, capsys, argv, token):
        rc = run(*argv, f"--u-samples={token}", "--n-max", "5", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigError: cannot parse sample point")
        assert not (tmp_path / "out").exists()

    def test_exact_sample_tokens_stay_exact(self):
        (parse,) = [key.parse for key in COMMANDS["check-properties"].keys if key.name == "u_samples"]
        assert parse("1e400,-5/2") == (QComplex(Fraction(10) ** 400), QComplex(Fraction(-5, 2)))
        # a non-real token is read as complex doubles, which enter as their exact dyadic values
        assert parse("1+2i,0.1-3i") == (QComplex(1, 2), QComplex(Fraction(0.1), -3))

    @pytest.mark.parametrize("props", ["", "X", "PX", "P Q", "S"])
    def test_unknown_property_letter_is_config_error(self, tmp_path, capsys, props):
        rc = run("check-properties", "--family", "F4", f"--props={props}", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigError: props must be letters from P, Q and R")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, n_min, n_max", [(("--n-max", "0"), 1, 0), (("--n-min", "5", "--n-max", "3"), 5, 3)])
    def test_empty_property_range_is_precondition_error(self, tmp_path, capsys, argv, n_min, n_max):
        """As in verify-criterion: exit 3 before any output, not three inconclusive verdicts over header-only CSVs."""
        rc = run("check-properties", "--family", "F4", *argv, "--out", str(tmp_path / "out"))
        assert rc == 3
        assert capsys.readouterr().err == f"PreconditionError: empty index range: n_min={n_min} exceeds n_max={n_max}\n"
        assert not (tmp_path / "out").exists()

    def test_q_range_clamped_to_two(self, tmp_path, capsys):
        """(Q) starts at n = 2, so n_max = 1 leaves it an empty sweep, not an error."""
        rc = run("check-properties", "--family", "F4", "--props", "PQR", "--n-max", "1", "--out", str(tmp_path))
        assert rc == 0
        assert capsys.readouterr().out.count("property (") == 3

    def test_lower_case_props_accepted(self, tmp_path, capsys):
        rc = run("check-properties", "--family", "F4", "--props", "qr", "--n-max", "8", "--out", str(tmp_path))
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["property (Q)", "property (R)"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["property_Q.csv", "property_R.csv"]

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_nonpositive_criterion_radius_is_precondition_error(self, tmp_path, capsys, r):
        rc = run("verify-criterion", "--family", "F4", "--n-max", "5", f"--r={r}", "--out", str(tmp_path))
        assert rc == 3
        assert capsys.readouterr().err.startswith("PreconditionError: radius r must be positive")

    def test_pow2_points_past_double_range(self, tmp_path, capsys):
        assert run("unicity", "--points", "pow2", "--r-max", "1e300", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.startswith("chi estimate: ")

    @pytest.mark.parametrize("bad", ["abc", "nan", "-3", "inf", "1/2"])
    def test_bad_point_file_token_is_config_error(self, tmp_path, capsys, bad):
        points = tmp_path / "points.txt"
        points.write_text(" ".join(str(k) for k in range(1, 14)) + f" {bad}\n")
        rc = run("unicity", f"--points=file:{points}", "--r-max", "100", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigError: ")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("base, props", [("inf", "Q"), ("1e400", "PQ")])
    def test_infinite_f2_log_base_is_config_error(self, tmp_path, capsys, base, props):
        # log(base) = inf made c_n = 0 for every n > 1, and (Q) read "refutes"
        rc = run("check-properties", "--family", "F2", "--log-base", base, "--props", props,
                 "--n-max", "10", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigError: F2 log_base must be e or a finite number")
        assert not (tmp_path / "out").exists()


    def test_valence_zero_table_is_precondition_error(self, tmp_path, capsys):
        # (Q) takes log m(n): an operator of valence 0 is named, not a math domain error
        table = tmp_path / "t.coeffs"
        table.write_text("#operator m=1 d=2\n1,1,0\n2,1,0\n#operator m=0 d=2\n0,-1,0\n2,1,0\n")
        rc = run("check-properties", "--family", "F5", "--table", str(table), "--props", "Q",
                 "--n-max", "2", "--out", str(tmp_path / "out"))
        assert rc == 3
        assert capsys.readouterr().err == "PreconditionError: property (Q) needs valence >= 1, but P_2 has valence 0\n"

    def test_failing_property_keeps_the_files_before_it_and_prints_nothing(self, tmp_path, capsys):
        # P, Q, R run in that order, each file written before the next check: (Q) fails on the valence-0
        # operator after property_P.csv is on disk, and no verdict line is printed
        table = tmp_path / "t.coeffs"
        table.write_text("#operator m=1 d=2\n1,1,0\n2,1,0\n#operator m=0 d=2\n0,-1,0\n2,1,0\n")
        out = tmp_path / "out"
        rc = run("check-properties", "--family", "F5", "--table", str(table), "--props", "RQP",
                 "--n-max", "2", "--out", str(out))
        assert rc == 3
        assert capsys.readouterr().out == ""
        assert sorted(path.name for path in out.iterdir()) == ["property_P.csv"]

    def test_huge_criterion_radius_is_not_a_traceback(self, tmp_path, capsys):
        # the (iv) decay base is ceil(4 r), and 4 r overflows a double from r = 2^1022
        rc = run("verify-criterion", "--family", "F4", "--route", "Q", "--r", "1e308",
                 "--out", str(tmp_path / "out"))
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("overall: ")

    def test_huge_criterion_radius_keeps_the_decay_bounds_finite(self, tmp_path):
        # the (iv) bound sums |a_j| (2r)^m_j; 2r overflows a double from r = 2^1023, so log 2r is log 2 + log r there
        assert run("verify-criterion", "--family", "F4", "--route", "Q", "--r", "1e308",
                   "--out", str(tmp_path)) == 0
        records = [json.loads(line) for line in (tmp_path / "criterion.jsonl").read_text().splitlines()]
        rows = [rec for rec in records if rec.get("hypothesis") == "iv" and "bound_log" in rec]
        assert rows
        for rec in rows:
            measured = -math.inf if rec["measured_log"] == "-inf" else rec["measured_log"]
            assert isinstance(rec["bound_log"], float) and math.isfinite(rec["bound_log"])
            assert measured <= rec["bound_log"]

    def test_valence_zero_table_in_the_criterion_is_precondition_error(self, tmp_path, capsys):
        # the Q route's Stirling threshold takes an m(n)-th root: valence 0 is named, not a division by zero
        table = tmp_path / "t.coeffs"
        table.write_text("#operator m=1 d=2\n1,1,0\n2,1,0\n#operator m=0 d=2\n0,-1,0\n2,1,0\n"
                         "#operator m=2 d=3\n2,1,0\n3,1,0\n#operator m=3 d=4\n3,1,0\n4,1,0\n")
        rc = run("verify-criterion", "--family", "F5", "--table", str(table), "--route", "Q",
                 "--n-max", "4", "--out", str(tmp_path / "out"))
        assert rc == 3
        assert capsys.readouterr().err == (
            "PreconditionError: the Stirling threshold needs valence >= 1, but P_2 has valence 0\n"
        )


class TestFrontDoor:
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_lists_every_command(self, capsys, flag):
        assert run(flag) == 0
        listed = capsys.readouterr().out.split("commands:\n")[1].split()
        assert listed == list(COMMANDS) and len(listed) == 9

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_lists_its_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: hyperdiff {command} ")
        flags = {tok.rstrip(",") for tok in out.split() if tok.startswith("--")}
        assert flags == {"--help", "--config"} | {f"--{k.name.replace('_', '-')}" for k in COMMANDS[command].keys}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("no-such-command",), "ConfigError: unknown command 'no-such-command'; commands: check-properties, "),
            ((), "ConfigError: no command given\n"),
            (("--out", "x", "synthesize"), "ConfigError: no command given\n"),
        ],
    )
    def test_unknown_or_missing_command_is_config_error(self, capsys, argv, message):
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_unknown_command_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=no-such-command\n")
        assert run("--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("ConfigError: unknown command 'no-such-command'")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--bogus", "1"), "ConfigError: unrecognized arguments: --bogus 1\n"),
            (("--family", "F4", "--count"), "ConfigError: argument --count: expected one argument\n"),
            (("--fam", "F4"), "ConfigError: unrecognized arguments: --fam F4\n"),
        ],
        ids=["unknown", "no-value", "abbreviated"],
    )
    def test_bad_flag_is_config_error(self, tmp_path, capsys, argv, message):
        # returned, not raised as argparse's SystemExit; a flag prefix is not read as the flag
        assert run("synthesize", "--out", str(tmp_path / "out"), *argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_one_parser_per_call(self, tmp_path, monkeypatch, capsys):
        # only the requested command's flags are declared
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__",
            lambda self, *args, **kwargs: built.append(kwargs.get("prog")) or init(self, *args, **kwargs),
        )
        assert run("build-inverse", "--family", "F4", "--n", "6", "--k", "2", "--out", str(tmp_path)) == 0
        assert built == ["hyperdiff build-inverse"]


def _json_logs(path):
    """Every value of a *_log or *_logs field of a JSON-lines file; a non-JSON constant raises."""
    def reject(token):
        raise ValueError(f"{path.name}: non-JSON constant {token}")

    logs = []
    for line in path.read_text().splitlines():
        for key, val in json.loads(line, parse_constant=reject).items():
            if key.endswith(("_log", "_logs")):
                logs += val if isinstance(val, list) else [val]
    return logs


class TestJsonLogs:
    def test_one_encoding_of_an_exact_zero(self, tmp_path, capsys):
        """criterion.jsonl and the trace files spell an infinite log "-inf" or "inf", as the CSV files do."""
        assert run("verify-criterion", "--family", "F4", "--route", "Q", "--n-max", "40",
                   "--out", str(tmp_path / "crit")) == 0
        assert run("synthesize", "--family", "F4", "--count", "8", "--out", str(tmp_path / "syn")) == 0
        assert run("augment", "--family", "F4", "--base-count", "8", "--extra", "1",
                   "--out", str(tmp_path / "aug")) == 0
        files = sorted(tmp_path.rglob("*.jsonl"))
        assert [p.name for p in files] == ["base_trace.jsonl", "second_trace.jsonl", "criterion.jsonl", "trace.jsonl"]
        for path in files:
            logs = _json_logs(path)
            assert "-inf" in logs, path.name
            assert all(type(v) is float or v in ("-inf", "inf") for v in logs), path.name
        residuals = [json.loads(line) for line in (tmp_path / "syn" / "trace.jsonl").read_text().splitlines()]
        assert residuals[-2]["budget_log"] == "-inf"  # the last step has no later eps_j
        with open(tmp_path / "syn" / "residuals.csv") as handle:
            assert handle.read().splitlines()[-1].split(",")[4] == "-inf"


# The exact text of four CSV files that the CLI builds row by row: a float is its repr
# (as CPython computes it with glibc's libm), an exact zero -inf, a bool True/False, a lambda p/q.
_GOLDEN = [
    (
        ("unicity", "--points", "sqrt", "--r-max", "20"),
        "unicity.csv",
        (
            "radius,count,slope\n"
            "2.0,4,2.0\n"
            "2.667042864326648,7,1.9836585419229573\n"
            "3.556558820077846,12,1.9584800365490644\n"
            "4.74274741132331,22,1.9857442560721135\n"
            "6.324555320336759,40,2.0\n"
            "8.433930068571645,71,1.9991343232804115\n"
            "11.246826503806982,126,1.9983925804045848\n"
            "14.997884186649117,224,1.998459245937195\n"
            "20.0,400,2.0\n"
        ),
    ),
    (
        ("perturb", "--family", "F4", "--count", "3"),
        "perturb.csv",
        (
            "i,n_i,annihilated,residual_log,base_residual_log,exactly_equal\n"
            "1,1,False,1.1013862238784056,-4.787488736533558,False\n"
            "2,6,True,-2.4203681286504297,-2.4203681286504297,True\n"
            "3,12,True,-inf,-inf,True\n"
        ),
    ),
    (
        ("augment", "--family", "F4", "--base-count", "4", "--extra", "1", "--lambdas=-1,1/2"),
        "augment.csv",
        (
            "lambda,target,step,n,radius,direct_log,bound_log,stated_log,ok\n"
            "-1,1,1,4,1.0,-6.579251212010101,-6.579251212010101,0.6931471805599453,True\n"
            "1/2,1,1,4,1.0,-7.272398392570047,-7.272398392570047,0.6931471805599453,True\n"
        ),
    ),
    (
        ("joint", "--family", "F4", "--combos", "1,0;1,-1/2"),
        "joint.csv",
        (
            "combo,target,global_step,n,radius,direct_log,tolerance_log,ok\n"
            "1 0,0,3,12,3.0,-2.9143168820684817,-2.0794415416798357,True\n"
            "1 -1/2,0,4,21,4.0,-inf,-2.367123614131617,True\n"
        ),
    ),
]


@pytest.mark.parametrize("argv, name, text", _GOLDEN, ids=[case[1] for case in _GOLDEN])
def test_result_file_bytes(tmp_path, capsys, argv, name, text):
    assert run(*argv, "--out", str(tmp_path)) == 0
    assert (tmp_path / name).read_bytes() == text.encode()


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

    @pytest.mark.parametrize("command, count", [("build-m0", "3"), ("synthesize", "6")])
    def test_f5_scan_ends_at_the_table(self, tmp_path, capsys, command, count):
        """A greedy scan that runs off the end of a table is cap exhaustion at the table's length."""
        path = tmp_path / "table.coeffs"
        _write_table(path)
        out = str(tmp_path / "out")
        rc = run(command, "--family", "F5", "--table", str(path), "--count", count, "--out", out)
        assert rc == 4
        assert capsys.readouterr().err.startswith("CapExhausted: no admissible index <= 24 at ")


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

    @pytest.mark.parametrize("command, size", [("synthesize", "--count=2"), ("joint", "--traces=2")])
    def test_target_list_prefix_is_optional(self, tmp_path, capsys, command, size):
        runs = []
        for i, spelling in enumerate(("polys:1;0,1", "1;0,1")):
            out = tmp_path / str(i)
            assert run(command, "--family", "F4", size, f"--targets={spelling}", "--out", str(out)) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert run(command, "--family", "F4", size, "--targets=spiral", "--out", str(tmp_path / "s")) == 2

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


def _certificate_error(kind, lhs, rhs, strict=True):
    """The stderr line of a failed ``scalars.certify``."""
    relation, margin = "<" if strict else "<=", log_margin(lhs, rhs)
    return f"InvariantViolation: {kind} failed: log {lhs!r} {relation} log {rhs!r} does not hold, margin {margin!r}\n"


def _residual_read_as(monkeypatch, value, caller):
    """Make ``synthesis._residual`` return the log ``value`` to ``caller`` and the true residual to any other."""
    inner = synthesis._residual

    def residual(*args):
        return value if sys._getframe(1).f_code.co_name == caller else inner(*args)

    monkeypatch.setattr(synthesis, "_residual", residual)


class TestCertificateFailures:
    """Each raising certificate, failed on purpose by patching its input: exit 5 and one worded message."""

    def test_residual_certificate(self, tmp_path, capsys, monkeypatch):
        _residual_read_as(monkeypatch, 7.0, "_assemble")
        assert run("synthesize", "--family", "F4", "--count", "2", "--out", str(tmp_path)) == 5
        # step 1 certifies log residual < log 2^0
        assert capsys.readouterr().err == _certificate_error("residual certificate at step 1", 7.0, 0.0)

    def test_augmentation_bound(self, tmp_path, capsys, monkeypatch):
        _residual_read_as(monkeypatch, 7.0, "augment")
        assert run("augment", "--family", "F4", "--base-count", "4", "--extra", "1", "--out", str(tmp_path)) == 5
        err = capsys.readouterr().err
        match = re.fullmatch(r"InvariantViolation: augmentation bound at step 1, lambda -1 failed: "
                             r"log 7\.0 <= log (\S+) does not hold, margin \S+\n", err)
        assert match, err
        bound = float(match.group(1))
        assert err == _certificate_error("augmentation bound at step 1, lambda -1", 7.0, bound, strict=False)

    def test_augmentation_stated_bound(self, tmp_path, capsys, monkeypatch):
        # the bound on direct is log_sum((v residual, log|lambda| + base orbit)); it must stay below log 2^(2-i)
        monkeypatch.setattr(synthesis, "log_sum", lambda logs: 5.0)
        assert run("augment", "--family", "F4", "--base-count", "4", "--extra", "1", "--out", str(tmp_path)) == 5
        want = _certificate_error("augmentation stated bound at step 1, lambda -1", 5.0, LN2)
        assert capsys.readouterr().err == want

    def test_combination_bound(self, tmp_path, capsys, monkeypatch):
        _residual_read_as(monkeypatch, 7.0, "joint_family")
        assert run("joint", "--family", "F4", "--out", str(tmp_path)) == 5
        err = capsys.readouterr().err
        match = re.fullmatch(r"InvariantViolation: combination bound at global step (\d+) failed: .*\n", err)
        assert match, err
        # the first combination (1, 0) has tolerance log(|1| + |0|) - s log 2
        step = int(match.group(1))
        assert err == _certificate_error(f"combination bound at global step {step}", 7.0, -step * LN2)

    def test_tail_decay_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lacunary, "log_sum", lambda logs: 3.0)  # the measured tail
        monkeypatch.setattr(lacunary, "_majorant_log", lambda terms, r: 2.0)  # its bound
        assert run("build-m0", "--family", "F4", "--count", "3", "--out", str(tmp_path)) == 5
        assert capsys.readouterr().err == _certificate_error("tail decay bound at step 1", 3.0, 2.0, strict=False)

    def test_pairwise_bound(self, tmp_path, capsys, monkeypatch):
        # hand F4's P_3 = z^3 and P_4 = z^4 to build-m0 as its basis: 3 log 4 < 4 log 2 fails
        monkeypatch.setattr(cli, "select_indices", lambda seq, count, **kw: LacunaryBasis.build(seq, [3, 4]))
        assert run("build-m0", "--family", "F4", "--count", "2", "--out", str(tmp_path)) == 5
        want = _certificate_error("pairwise bound (A_k) at (k=1, j=2)", 3 * math.log(4), 4 * LN2)
        assert capsys.readouterr().err == want



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
    "lambdas": _pick("-1,1,2", "0", "1/2", ""),
    "traces": _ints(-1, 3),
    "combos": _pick("1,0;0,1;1,1", "0,0", "1", "1,2,3", ""),
}


# the family keys each family reads (F1 and F3 read none)
_READS = {"F2": ("c_mode", "log_base"), "F4": ("c", "decay"), "F5": ("table",)}
_FAMILY_ONLY = {key for keys in _READS.values() for key in keys}


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values = {}
    reads = ()
    for key in COMMANDS[command].keys:
        # family is always set (and drawn first), and so is n_cap for the greedy
        # commands: their default cap of 10**6 candidates is a long linear search
        # by design; build-m0's galloping index search ends quickly at the default cap
        forced = ("family",) if command == "build-m0" else ("family", "n_cap")
        if key.name == "out" or (key.name not in forced and draw(st.booleans())):
            continue
        # a key the drawn family does not read is set one time in 16, so that it
        # rarely stops a run at configuration and the rejection stays covered
        if key.name in _FAMILY_ONLY and key.name not in reads and draw(st.integers(0, 15)):
            continue
        # mostly well-formed values, so that runs get past parsing into the commands
        values[key.name] = draw(_MALFORMED if draw(st.integers(0, 7)) == 0 else _VALUES[key.name])
        if key.name == "family":
            reads = _READS.get(values["family"].upper(), ())
    return command, values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cli_case())
@example(("verify-criterion", {"family": "F4", "route": "Q", "n_min": "10", "n_max": "5"}))
@example(("verify-criterion", {"family": "F4", "route": "P", "n_max": "20", "trunc": "-1"}))
@example(("check-properties", {"family": "F1", "n_max": "20", "r": "nan"}))
@example(("augment", {"family": "F2", "base_count": "4", "extra": "1e400", "n_cap": "40"}))
@example(("check-properties", {"family": "F5", "table": "TABLE", "props": "P", "n_max": "2", "u_samples": "1e200+0i"}))
@example(("build-m0", {"family": "F3", "count": "4"}))
@example(("build-m0", {"family": "F1", "count": "4"}))
@example(("build-m0", {"family": "F4", "decay": "pow2cubic", "count": "3"}))
def test_fuzzed_configs_exit_with_a_typed_code(case):
    """Small random configs for every command end in exit code 0, 2, 3, 4 or 5, never a traceback."""
    command, values = case
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.coeffs"
        _write_table(table)
        argv = [command, f"--out={tmp}/out"]
        argv += [f"--{k.replace('_', '-')}={str(table) if v == 'TABLE' else v}" for k, v in values.items()]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3, 4, 5), (argv, rc)
    assert "Traceback" not in err.getvalue()


def test_numpy_stays_unimported(python_child, tmp_path):
    """Nothing in hyperdiff imports numpy: importing it and sweeping properties leaves it unloaded."""
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
