"""Command-line front door: configure families, run checks, write reports.

Configuration is plain ``key=value`` text (one pair per line, ``#`` comments);
every key is also available as a ``--key`` flag, with flags taking precedence.
Exit codes: 2 config errors, 3 precondition failures, 4 cap exhaustion,
5 internal invariant violations.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .criterion import CriterionConfig, verify_hypotheses, write_criterion_jsonl
from .errors import ConfigError, HyperdiffError, PreconditionError
from .families import (
    GrowthRule,
    OperatorSequence,
    check_property_P,
    check_property_Q,
    check_property_R,
    make_family,
    unicity_exponent,
    write_evidence_csv,
)
from .inverses import build_f_nk, write_right_inverse
from .lacunary import (
    decay_report,
    m0_member,
    select_indices,
    write_basis_csv,
    write_decay_csv,
)
from .scalars import QComplex, to_qcomplex, write_csv
from .series import (
    PolynomialOperator,
    TaylorPolynomial,
    read_blocks,
    write_taylor,
)
from .synthesis import (
    augment,
    enumerate_targets,
    joint_family,
    perturb,
    synthesize,
    write_residual_csv,
    write_trace_jsonl,
)

# -- value parsers ----------------------------------------------------------------


def _p_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _p_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _p_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _p_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected a rational p/q, got {text!r}") from exc


def _p_point(token: str):
    token = token.strip()
    try:
        return QComplex(Fraction(token))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        z = complex(token.replace("i", "j"))
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return to_qcomplex(z)
    except ValueError:
        pass
    raise ConfigError(f"cannot parse sample point {token!r} as a finite number")


def _p_list(parse: Callable[[str], object], sep: str = ",") -> Callable[[str], tuple]:
    """A parser of ``sep``-separated items, each read by ``parse``; blank items are skipped."""
    return lambda text: tuple(parse(tok) for tok in text.split(sep) if tok.strip())


_p_points = _p_list(_p_point)
_p_fractions = _p_list(_p_rational)
_p_ints = _p_list(_p_int)
_p_combos = _p_list(_p_fractions, ";")


def _p_poly(text: str) -> TaylorPolynomial:
    """A polynomial literal: comma-separated rational coefficients a0,a1,..."""
    coeffs = [QComplex(_p_rational(tok)) for tok in text.split(",")]
    return TaylorPolynomial(coeffs)


def _p_polys(text: str) -> tuple:
    """Polynomial literals separated by ';', with an optional "polys:" prefix."""
    return _p_list(_p_poly, ";")(text.removeprefix("polys:"))


def _p_targets(text: str):
    return "diagonal" if text == "diagonal" else _p_polys(text)


# -- key tables ---------------------------------------------------------------------


class Key(NamedTuple):
    name: str
    parse: Callable[[str], object]
    default: object
    help: str


FAMILY_KEYS = [
    Key("family", str, None, "family tag F1..F5"),
    Key("c", str, None, "F4 constant coefficient (rational)"),
    Key("decay", str, None, "F4 decay regime: pow2cubic"),
    Key("c_mode", str, None, "F2 coefficients: paper or unit"),
    Key("log_base", str, None, "F2 exponent log base (default natural)"),
    Key("table", str, None, "F5 operator table file"),
]

OUT_KEY = Key("out", str, "out", "output directory")
SEED_KEY = Key("seed", _p_int, 0, "seed for randomized batteries")
N_CAP_KEY = Key("n_cap", _p_int, 10**6, "candidate cap per step")
N_RANGE_KEYS = [Key("n_min", _p_int, 1, "first index"), Key("n_max", _p_int, 40, "last index")]

# the single-trace construction shared by synthesize and perturb
TRACE_KEYS = [
    Key("targets", _p_targets, "diagonal", "diagonal | [polys:]<a0,a1;...>"),
    Key("count", _p_int, 8, "number of steps K"),
    Key("zero_recurrent", _p_bool, False, "interleave zero targets"),
    N_CAP_KEY,
]


# -- config assembly ----------------------------------------------------------------


def load_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve(command: str, flag_values: Dict[str, Optional[str]], file_values: Dict[str, str]) -> Dict:
    keys = {k.name: k for k in COMMANDS[command].keys}
    unknown = set(file_values) - set(keys) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    resolved: Dict = {}
    for name, key in keys.items():
        raw = flag_values.get(name)
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            resolved[name] = key.default
        else:
            resolved[name] = key.parse(raw)
    return resolved


def _family_from(cfg: Dict) -> OperatorSequence:
    tag = cfg.get("family")
    if not tag:
        raise ConfigError("a family tag is required (family=F1..F5)")
    params: Dict = {
        key.name: cfg[key.name]
        for key in FAMILY_KEYS
        if key.name != "family" and cfg.get(key.name) is not None
    }
    if tag.upper() == "F5":
        table = params.pop("table", None)
        if not table:
            raise ConfigError("family F5 needs table=<path>")
        params["ops"] = read_operator_table(table)
    return make_family(tag, params)


def read_operator_table(path: str) -> List[PolynomialOperator]:
    """A table file holds one or more #operator blocks, in sequence order."""
    try:
        ops = read_blocks(Path(path).read_text())
    except (OSError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not ops or not all(isinstance(op, PolynomialOperator) for op in ops):
        raise ConfigError(f"{path}: an operator table holds one or more #operator blocks and no other block")
    return ops


def _targets_from(cfg: Dict) -> List[TaylorPolynomial]:
    if cfg["count"] < 0:
        raise PreconditionError("count must be >= 0")
    spec = cfg["targets"]
    if spec == "diagonal":
        return enumerate_targets(cfg["count"], zero_recurrent=cfg.get("zero_recurrent", False))
    if len(spec) < cfg["count"]:
        raise ConfigError("fewer target literals than count")
    return list(spec[: cfg["count"]])


def _outdir(cfg: Dict) -> Path:
    path = Path(cfg["out"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path below one, no permission, ...
        raise ConfigError(f"cannot create output directory {str(path)!r}: {exc.strerror or exc}") from None
    return path


def _write(path: Path, writer) -> None:
    with open(path, "w", newline="") as handle:
        writer(handle)


# -- command implementations -----------------------------------------------------------


def _cmd_check_properties(cfg: Dict) -> int:
    seq = _family_from(cfg)
    props = cfg["props"].upper()
    if not props or set(props) - set("PQR"):
        raise ConfigError(f"props must be letters from P, Q and R, got {cfg['props']!r}")
    n_range = (cfg["n_min"], cfg["n_max"])
    if n_range[0] > n_range[1]:
        raise PreconditionError(f"empty index range: n_min={n_range[0]} exceeds n_max={n_range[1]}")
    out = _outdir(cfg)
    rule = GrowthRule(threshold_log=cfg["threshold_log"])
    q_rule = GrowthRule(threshold_log=cfg["q_threshold_log"], vanish_hits=None)
    checks = {  # in run order; each file is written before the next check runs
        "P": lambda: check_property_P(seq, list(cfg["u_samples"]), n_range, rule),
        "Q": lambda: check_property_Q(seq, cfg["k_max"], (max(2, n_range[0]), n_range[1]), q_rule),
        "R": lambda: check_property_R(seq, cfg["r"], n_range, cfg["samples"], rule),
    }
    verdicts = []
    for prop, check in checks.items():
        if prop in props:
            rep = check()
            _write(out / f"property_{prop}.csv", lambda h: write_evidence_csv(rep, h))
            verdicts.append(f"property ({prop}): {rep.verdict}")
    print("\n".join(verdicts))
    return 0


_POINT_GENERATORS = {
    "sqrt": lambda n: n**0.5,
    "linear": lambda n: float(n),
    "pow2": lambda n: 2.0**n if n < 1024 else math.inf,
}


def _cmd_unicity(cfg: Dict) -> int:
    spec = cfg["points"]
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        try:
            source = [float(tok) for tok in Path(path).read_text().split()]
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read point file: {exc}") from exc
        if not all(0 <= x < math.inf for x in source):
            raise ConfigError("point file moduli must be finite and nonnegative")
    elif spec in _POINT_GENERATORS:
        source = _POINT_GENERATORS[spec]
    else:
        raise ConfigError(f"unknown point source {spec!r}")
    est = unicity_exponent(source, cfg["r_max"], margin=cfg["margin"])
    out = _outdir(cfg)
    rows = zip(est.radii, est.counts, est.slopes)
    _write(out / "unicity.csv", lambda h: write_csv(h, "radius,count,slope", rows))
    print(f"chi estimate: {est.chi!r} (unicity supported: {est.unicity_supported})")
    return 0


def _cmd_build_m0(cfg: Dict) -> int:
    if cfg["decay_base"] < 1:
        raise ConfigError(f"decay_base must be a positive integer, got {cfg['decay_base']}")
    seq = _family_from(cfg)
    out = _outdir(cfg)
    basis = select_indices(seq, cfg["count"], n_start=cfg["n_start"], n_cap=cfg["n_cap"])
    _write(out / "basis.csv", lambda h: write_basis_csv(basis, h))
    base = cfg["decay_base"]
    member = m0_member(
        basis, [QComplex(Fraction(1, base**e.valence)) for e in basis.entries]
    )
    report = decay_report(basis, member, cfg["r"])
    _write(out / "decay.csv", lambda h: write_decay_csv(report, h))
    print(f"basis indices: {basis.indices}")
    print(f"decay: measured nonincreasing = {report.measured_nonincreasing}")
    return 0


def _cmd_build_inverse(cfg: Dict) -> int:
    seq = _family_from(cfg)
    if cfg["n"] is None or cfg["k"] is None:
        raise ConfigError("build-inverse needs n=<index> and k=<degree>")
    out = _outdir(cfg)
    inv = build_f_nk(seq.op(cfg["n"]), cfg["k"])
    path = out / f"inverse_n{cfg['n']}_k{cfg['k']}.coeffs"
    _write(path, lambda h: write_right_inverse(inv, h, n=cfg["n"]))
    print("identity: exact")
    print(f"wrote {path}")
    return 0


def _cmd_verify_criterion(cfg: Dict) -> int:
    seq = _family_from(cfg)
    out = _outdir(cfg)
    config = CriterionConfig(
        n_lo=cfg["n_min"],
        n_hi=cfg["n_max"],
        k_max=cfg["k_max"],
        test_degrees=tuple(cfg["degrees"]),
        u_samples=tuple(cfg["u_samples"]),
        r=cfg["r"],
        basis_size=cfg["basis_size"],
        trunc=cfg["trunc"],
        seed=cfg["seed"],
    )
    report = verify_hypotheses(seq, cfg["route"], config)
    _write(out / "criterion.jsonl", lambda h: write_criterion_jsonl(report, h))
    for key in ("i", "ii", "iii", "iv"):
        print(f"hypothesis ({key}): {report.items[key].verdict}")
    print(f"overall: {report.overall}")
    return 0


def _synthesized(cfg: Dict):
    """The output directory and the single trace built from the TRACE_KEYS settings."""
    seq = _family_from(cfg)
    out = _outdir(cfg)
    return out, synthesize(seq, _targets_from(cfg), n_cap=cfg["n_cap"])


def _cmd_synthesize(cfg: Dict) -> int:
    out, trace = _synthesized(cfg)
    _write(out / "trace.jsonl", lambda h: write_trace_jsonl(trace, h))
    _write(out / "vector.coeffs", lambda h: write_taylor(trace.vector, h))
    _write(out / "residuals.csv", lambda h: write_residual_csv(trace, h))
    print(f"trace indices: {trace.indices}")
    print(f"vector degree: {trace.vector.degree}")
    print(f"all residuals certified: {all(r.certified for r in trace.residuals)}")
    return 0


def _cmd_perturb(cfg: Dict) -> int:
    out, trace = _synthesized(cfg)
    report = perturb(trace, cfg["g"])
    # a PerturbRow's fields are the file's columns
    header = "i,n_i,annihilated,residual_log,base_residual_log,exactly_equal"
    _write(out / "perturb.csv", lambda h: write_csv(h, header, report.rows))
    if not report.any_annihilation:
        print("no annihilation step: the perturbation reaches every residual")
    unchanged = sum(1 for r in report.rows if r.exactly_equal)
    print(f"residuals literally unchanged: {unchanged}/{len(report.rows)}")
    return 0


def _cmd_augment(cfg: Dict) -> int:
    seq = _family_from(cfg)
    out = _outdir(cfg)
    base_targets = enumerate_targets(cfg["base_count"], zero_recurrent=True)
    base = synthesize(seq, base_targets, n_cap=cfg["n_cap"])
    report = augment(seq, base, list(cfg["extra"]), list(cfg["lambdas"]), n_cap=cfg["n_cap"])
    _write(out / "base_trace.jsonl", lambda h: write_trace_jsonl(base, h))
    _write(out / "second_trace.jsonl", lambda h: write_trace_jsonl(report.second_trace, h))
    # the target and step columns coincide: extra target i rides on step i
    rows = [
        (r.lam, r.step_index, r.step_index, r.n, r.radius, r.direct, r.bound, r.stated_log, r.ok)
        for r in report.rows
    ]
    header = "lambda,target,step,n,radius,direct_log,bound_log,stated_log,ok"
    _write(out / "augment.csv", lambda h: write_csv(h, header, rows))
    print(f"base zero-step indices: {report.base_zero_indices}")
    print(f"all augmentation bounds hold: {all(r.ok for r in report.rows)}")
    return 0


def _cmd_joint(cfg: Dict) -> int:
    seq = _family_from(cfg)
    out = _outdir(cfg)
    report = joint_family(
        seq, cfg["traces"], list(cfg["targets"]), [list(c) for c in cfg["combos"]],
        n_cap=cfg["n_cap"],
    )
    for idx, trace in enumerate(report.traces):
        _write(out / f"trace_{idx}.jsonl", lambda h, t=trace: write_trace_jsonl(t, h))
    # a ComboRow's fields are the file's columns, the combination written space-separated
    rows = [(" ".join(map(str, r.combo)), *r[1:]) for r in report.combo_rows]
    header = "combo,target,global_step,n,radius,direct_log,tolerance_log,ok"
    _write(out / "joint.csv", lambda h: write_csv(h, header, rows))
    print(f"supports disjoint: {report.supports_disjoint}")
    print(f"all combination bounds hold: {all(r.ok for r in report.combo_rows)}")
    return 0


# -- command table ------------------------------------------------------------------


class Command(NamedTuple):
    run: Callable[[Dict], int]
    keys: List[Key]


# each command's handler and keys, in help order
COMMANDS: Dict[str, Command] = {
    "check-properties": Command(_cmd_check_properties, FAMILY_KEYS + [
        Key("props", str, "PQR", "subset of properties to check"),
        *N_RANGE_KEYS,
        Key("r", _p_float, 2.0, "circle radius for (R)"),
        Key("samples", _p_int, 256, "circle sample count"),
        Key("k_max", _p_int, 3, "largest k for (Q)"),
        Key("u_samples", _p_points, _p_points("-2,-3,-5"), "sample points for (P)"),
        Key("threshold_log", _p_float, 20.0, "growth threshold (log) for (P)/(R)"),
        Key("q_threshold_log", _p_float, 1.0, "growth threshold (log) for (Q)"),
        OUT_KEY,
    ]),
    "unicity": Command(_cmd_unicity, [
        Key("points", str, "sqrt", "sqrt | linear | pow2 | file:<path>"),
        Key("r_max", _p_float, 1e6, "largest radius"),
        Key("margin", _p_float, 0.1, "required excess of chi over 1"),
        OUT_KEY,
    ]),
    "build-m0": Command(_cmd_build_m0, FAMILY_KEYS + [
        Key("count", _p_int, 4, "basis size J"),
        Key("n_start", _p_int, 1, "first candidate index"),
        N_CAP_KEY,
        Key("decay_base", _p_int, 4, "member coefficients a_j = decay_base^-m_j"),
        Key("r", _p_float, 1.0, "decay report radius"),
        OUT_KEY,
    ]),
    "build-inverse": Command(_cmd_build_inverse, FAMILY_KEYS + [
        Key("n", _p_int, None, "sequence index"),
        Key("k", _p_int, None, "target degree (z^k)"),
        OUT_KEY,
    ]),
    "verify-criterion": Command(_cmd_verify_criterion, FAMILY_KEYS + [
        Key("route", str, "Q", "P or Q"),
        *N_RANGE_KEYS,
        Key("k_max", _p_int, 3, "largest target degree for the Q route"),
        Key("u_samples", _p_points, _p_points("-2,-3,-5"), "P-route sample points"),
        Key("r", _p_float, 2.0, "radius for norm sweeps"),
        Key("basis_size", _p_int, 4, "lacunary basis size for hypothesis (iv)"),
        Key("trunc", _p_int, 60, "exponential truncation degree"),
        Key("degrees", _p_ints, (0, 1, 2, 3, 4, 5), "test polynomial degrees"),
        SEED_KEY,
        OUT_KEY,
    ]),
    "synthesize": Command(_cmd_synthesize, FAMILY_KEYS + TRACE_KEYS + [OUT_KEY]),
    "perturb": Command(_cmd_perturb, FAMILY_KEYS + TRACE_KEYS + [
        Key("g", _p_poly, _p_poly("0,0,0,1"), "perturbation polynomial (coefficients)"),
        OUT_KEY,
    ]),
    "augment": Command(_cmd_augment, FAMILY_KEYS + [
        Key("base_count", _p_int, 12, "steps in the zero-recurrent base trace"),
        Key("extra", _p_polys, _p_polys("1;0,1"), "extra targets (poly literals)"),
        Key("lambdas", _p_fractions, _p_fractions("-1,1,2"), "scalar multiples"),
        N_CAP_KEY,
        OUT_KEY,
    ]),
    "joint": Command(_cmd_joint, FAMILY_KEYS + [
        Key("traces", _p_int, 2, "number of traces J"),
        Key("targets", _p_polys, _p_polys("1"), "shared targets (poly literals)"),
        Key("combos", _p_combos, _p_combos("1,0;0,1;1,1"), "combination vectors"),
        N_CAP_KEY,
        OUT_KEY,
    ]),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose rejections (an unknown, abbreviated or value-less flag) are ConfigErrors."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser(command: str) -> argparse.ArgumentParser:
    """The flags of one command; each call builds the requested command's parser only."""
    parser = _Parser(prog=f"hyperdiff {command}", allow_abbrev=False)
    parser.add_argument("--config", default=None, help="key=value configuration file")
    for key in COMMANDS[command].keys:
        parser.add_argument(f"--{key.name.replace('_', '-')}", dest=key.name, default=None, help=key.help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    try:
        # a bare `--config <file>` invocation takes its command from the file
        if argv[:1] == ["--config"]:
            if len(argv) < 2:
                raise ConfigError("--config needs a path")
            command = load_config_file(argv[1]).get("command")
            if not command:
                raise ConfigError("config file names no command")
            argv = [command] + argv
        if argv[:1] in (["-h"], ["--help"]):
            print("usage: hyperdiff <command> [--config FILE] [--key VALUE ...]\n\nchecks and constructions "
                  "for differential operator sequences\n\ncommands:\n  " + "\n  ".join(COMMANDS))
            return 0
        if not argv or argv[0].startswith("-"):
            raise ConfigError("no command given")
        command = argv[0]
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; commands: {', '.join(COMMANDS)}")
        ns = _build_parser(command).parse_args(argv[1:])
        file_values = load_config_file(ns.config) if ns.config else {}
        if "command" in file_values and file_values["command"] != command:
            raise ConfigError(
                f"config file commands {file_values['command']!r} but {command!r} requested"
            )
        flag_values = {key.name: getattr(ns, key.name) for key in COMMANDS[command].keys}
        return COMMANDS[command].run(_resolve(command, flag_values, file_values))
    except HyperdiffError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
