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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

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
from .scalars import QComplex, fmt_log
from .series import (
    PolynomialOperator,
    TaylorPolynomial,
    read_coefficients,
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


def _p_str(text: str) -> str:
    return text


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
        return complex(token.replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse sample point {token!r}") from exc


def _p_points(text: str) -> tuple:
    return tuple(_p_point(tok) for tok in text.split(",") if tok.strip())


def _p_fractions(text: str) -> tuple:
    return tuple(_p_rational(tok) for tok in text.split(",") if tok.strip())


def _p_poly(text: str) -> TaylorPolynomial:
    """A polynomial literal: comma-separated rational coefficients a0,a1,..."""
    coeffs = [QComplex(_p_rational(tok)) for tok in text.split(",")]
    return TaylorPolynomial(coeffs)


def _p_polys(text: str) -> tuple:
    return tuple(_p_poly(part) for part in text.split(";") if part.strip())


def _p_combos(text: str) -> tuple:
    return tuple(_p_fractions(part) for part in text.split(";") if part.strip())


def _p_ints(text: str) -> tuple:
    return tuple(_p_int(tok) for tok in text.split(",") if tok.strip())


# -- key tables ---------------------------------------------------------------------


@dataclass(frozen=True)
class Key:
    name: str
    parse: Callable[[str], object]
    default: object
    help: str


FAMILY_KEYS = [
    Key("family", _p_str, None, "family tag F1..F5"),
    Key("c", _p_str, None, "F4 constant coefficient (rational)"),
    Key("decay", _p_str, None, "F4 decay regime: pow2cubic"),
    Key("c_mode", _p_str, None, "F2 coefficients: paper or unit"),
    Key("log_base", _p_str, None, "F2 exponent log base (default natural)"),
    Key("table", _p_str, None, "F5 operator table file"),
]

OUT_KEY = Key("out", _p_str, "out", "output directory")
SEED_KEY = Key("seed", _p_int, 0, "seed for randomized batteries")

# the single-trace construction shared by synthesize and perturb
TRACE_KEYS = [
    Key("targets", _p_str, "diagonal", "diagonal | polys:<a0,a1;...>"),
    Key("count", _p_int, 8, "number of steps K"),
    Key("zero_recurrent", _p_bool, False, "interleave zero targets"),
    Key("n_cap", _p_int, 10**6, "candidate cap per step"),
]

COMMANDS: Dict[str, List[Key]] = {
    "check-properties": FAMILY_KEYS
    + [
        Key("props", _p_str, "PQR", "subset of properties to check"),
        Key("n_min", _p_int, 1, "first index"),
        Key("n_max", _p_int, 40, "last index"),
        Key("r", _p_float, 2.0, "circle radius for (R)"),
        Key("samples", _p_int, 256, "circle sample count"),
        Key("k_max", _p_int, 3, "largest k for (Q)"),
        Key("u_samples", _p_points, _p_points("-2,-3,-5"), "sample points for (P)"),
        Key("threshold_log", _p_float, 20.0, "growth threshold (log) for (P)/(R)"),
        Key("q_threshold_log", _p_float, 1.0, "growth threshold (log) for (Q)"),
        OUT_KEY,
    ],
    "unicity": [
        Key("points", _p_str, "sqrt", "sqrt | linear | pow2 | file:<path>"),
        Key("r_max", _p_float, 1e6, "largest radius"),
        Key("margin", _p_float, 0.1, "required excess of chi over 1"),
        OUT_KEY,
    ],
    "build-m0": FAMILY_KEYS
    + [
        Key("count", _p_int, 4, "basis size J"),
        Key("n_start", _p_int, 1, "first candidate index"),
        Key("n_cap", _p_int, 10**6, "candidate cap per step"),
        Key("decay_base", _p_int, 4, "member coefficients a_j = decay_base^-m_j"),
        Key("r", _p_float, 1.0, "decay report radius"),
        OUT_KEY,
    ],
    "build-inverse": FAMILY_KEYS
    + [
        Key("n", _p_int, None, "sequence index"),
        Key("k", _p_int, None, "target degree (z^k)"),
        Key("mode", _p_str, "auto", "scalar regime: auto | exact | float"),
        OUT_KEY,
    ],
    "verify-criterion": FAMILY_KEYS
    + [
        Key("route", _p_str, "Q", "P or Q"),
        Key("n_min", _p_int, 1, "first index"),
        Key("n_max", _p_int, 40, "last index"),
        Key("k_max", _p_int, 3, "largest target degree for the Q route"),
        Key("u_samples", _p_points, _p_points("-2,-3,-5"), "P-route sample points"),
        Key("r", _p_float, 2.0, "radius for norm sweeps"),
        Key("basis_size", _p_int, 4, "lacunary basis size for hypothesis (iv)"),
        Key("trunc", _p_int, 60, "exponential truncation degree"),
        Key("degrees", _p_ints, (0, 1, 2, 3, 4, 5), "test polynomial degrees"),
        SEED_KEY,
        OUT_KEY,
    ],
    "synthesize": FAMILY_KEYS + TRACE_KEYS + [OUT_KEY],
    "perturb": FAMILY_KEYS
    + TRACE_KEYS
    + [
        Key("g", _p_poly, _p_poly("0,0,0,1"), "perturbation polynomial (coefficients)"),
        OUT_KEY,
    ],
    "augment": FAMILY_KEYS
    + [
        Key("base_count", _p_int, 12, "steps in the zero-recurrent base trace"),
        Key("extra", _p_polys, _p_polys("1;0,1"), "extra targets (poly literals)"),
        Key("lambdas", _p_fractions, _p_fractions("-1,1,2"), "scalar multiples"),
        Key("n_cap", _p_int, 10**6, "candidate cap per step"),
        OUT_KEY,
    ],
    "joint": FAMILY_KEYS
    + [
        Key("traces", _p_int, 2, "number of traces J"),
        Key("targets", _p_polys, _p_polys("1"), "shared targets (poly literals)"),
        Key("combos", _p_combos, _p_combos("1,0;0,1;1,1"), "combination vectors"),
        Key("n_cap", _p_int, 10**6, "candidate cap per step"),
        OUT_KEY,
    ],
}


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
    keys = {k.name: k for k in COMMANDS[command]}
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
        name: cfg[name] for name in ("c", "decay", "c_mode", "log_base") if cfg.get(name) is not None
    }
    if tag.upper() == "F5":
        table = cfg.get("table")
        if not table:
            raise ConfigError("family F5 needs table=<path>")
        params["ops"] = read_operator_table(table)
    return make_family(tag, params)


def read_operator_table(path: str) -> List[PolynomialOperator]:
    """A table file holds several #operator blocks, in sequence order."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read operator table {path}: {exc}") from exc
    blocks: List[List[str]] = []
    for line in text.splitlines():
        if line.strip().startswith("#operator"):
            blocks.append([line])
        elif blocks and line.strip():
            blocks[-1].append(line)
    if not blocks:
        raise ConfigError(f"{path} holds no #operator blocks")
    import io

    ops = []
    for block in blocks:
        ops.append(read_coefficients(io.StringIO("\n".join(block) + "\n")))
    return ops


def _targets_from(cfg: Dict) -> List[TaylorPolynomial]:
    spec = cfg["targets"]
    if isinstance(spec, tuple):
        return list(spec)
    if spec == "diagonal":
        return enumerate_targets(cfg["count"], zero_recurrent=cfg.get("zero_recurrent", False))
    if spec.startswith("polys:"):
        polys = list(_p_polys(spec[len("polys:") :]))
        if len(polys) < cfg["count"]:
            raise ConfigError("fewer target literals than count")
        return polys[: cfg["count"]]
    raise ConfigError(f"unknown targets spec {spec!r}")


def _outdir(cfg: Dict) -> Path:
    path = Path(cfg["out"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, writer) -> None:
    with open(path, "w", newline="") as handle:
        writer(handle)


# -- command implementations -----------------------------------------------------------


def _cmd_check_properties(cfg: Dict) -> int:
    seq = _family_from(cfg)
    out = _outdir(cfg)
    n_range = (cfg["n_min"], cfg["n_max"])
    props = cfg["props"].upper()
    produced = []
    if "P" in props:
        rep = check_property_P(
            seq, list(cfg["u_samples"]), n_range, GrowthRule(threshold_log=cfg["threshold_log"])
        )
        _write(out / "property_P.csv", lambda h: write_evidence_csv(rep, h))
        produced.append(("P", rep.verdict))
    if "Q" in props:
        rep = check_property_Q(
            seq,
            cfg["k_max"],
            (max(2, n_range[0]), n_range[1]),
            GrowthRule(threshold_log=cfg["q_threshold_log"], vanish_hits=None),
        )
        _write(out / "property_Q.csv", lambda h: write_evidence_csv(rep, h))
        produced.append(("Q", rep.verdict))
    if "R" in props:
        rep = check_property_R(
            seq, cfg["r"], n_range, cfg["samples"], GrowthRule(threshold_log=cfg["threshold_log"])
        )
        _write(out / "property_R.csv", lambda h: write_evidence_csv(rep, h))
        produced.append(("R", rep.verdict))
    for prop, verdict in produced:
        print(f"property ({prop}): {verdict}")
    return 0


_POINT_GENERATORS = {
    "sqrt": lambda n: n**0.5,
    "linear": lambda n: float(n),
    "pow2": lambda n: 2.0**n if n < 1060 else float("inf"),
}


def _cmd_unicity(cfg: Dict) -> int:
    spec = cfg["points"]
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        try:
            moduli = [float(tok) for tok in Path(path).read_text().split()]
        except OSError as exc:
            raise ConfigError(f"cannot read point file: {exc}") from exc
        source = moduli
    elif spec in _POINT_GENERATORS:
        source = _POINT_GENERATORS[spec]
    else:
        raise ConfigError(f"unknown point source {spec!r}")
    est = unicity_exponent(source, cfg["r_max"], margin=cfg["margin"])
    out = _outdir(cfg)

    def writer(handle):
        handle.write("radius,count,slope\n")
        for rad, cnt, slope in zip(est.radii, est.counts, est.slopes):
            handle.write(f"{rad!r},{cnt},{slope!r}\n")

    _write(out / "unicity.csv", writer)
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
    mode = cfg["mode"]
    if mode not in ("auto", "exact", "float"):
        raise ConfigError("mode must be auto, exact, or float")
    if mode == "exact" and not seq.exact:
        raise PreconditionError(f"{seq.label} has floating coefficients; exact mode impossible")
    out = _outdir(cfg)
    op = seq.op(cfg["n"])
    if mode == "float":
        op = op.to_float()
    inv = build_f_nk(op, cfg["k"], verify=op.exact)
    path = out / f"inverse_n{cfg['n']}_k{cfg['k']}.coeffs"
    _write(path, lambda h: write_right_inverse(inv, h, n=cfg["n"]))
    if op.exact:
        print("identity: exact")
    else:
        print("identity: floating (verified in the decay sweeps, not exactly)")
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

    def writer(handle):
        handle.write("i,n_i,annihilated,residual_log,base_residual_log,exactly_equal\n")
        for row in report.rows:
            handle.write(
                f"{row.index},{row.n},{row.annihilated},{fmt_log(row.residual)},"
                f"{fmt_log(row.base_residual)},{row.exactly_equal}\n"
            )

    _write(out / "perturb.csv", writer)
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

    def writer(handle):
        handle.write("lambda,target,step,n,radius,direct_log,bound_log,stated_log,ok\n")
        for row in report.rows:
            # the target and step columns coincide: extra target i rides on step i
            handle.write(
                f"{row.lam},{row.step_index},{row.step_index},{row.n},{row.radius},"
                f"{fmt_log(row.direct)},{fmt_log(row.bound)},{repr(row.stated_log)},{row.ok}\n"
            )

    _write(out / "augment.csv", writer)
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

    def writer(handle):
        handle.write("combo,target,global_step,n,radius,direct_log,tolerance_log,ok\n")
        for row in report.combo_rows:
            combo = " ".join(str(c) for c in row.combo)
            handle.write(
                f"{combo},{row.target_index},{row.global_step},{row.n},{row.radius},"
                f"{fmt_log(row.direct)},{repr(row.tolerance_log)},{row.ok}\n"
            )

    _write(out / "joint.csv", writer)
    print(f"supports disjoint: {report.supports_disjoint}")
    print(f"all combination bounds hold: {all(r.ok for r in report.combo_rows)}")
    return 0


_DISPATCH = {
    "check-properties": _cmd_check_properties,
    "unicity": _cmd_unicity,
    "build-m0": _cmd_build_m0,
    "build-inverse": _cmd_build_inverse,
    "verify-criterion": _cmd_verify_criterion,
    "synthesize": _cmd_synthesize,
    "perturb": _cmd_perturb,
    "augment": _cmd_augment,
    "joint": _cmd_joint,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdiff",
        description="checks and constructions for differential operator sequences",
    )
    sub = parser.add_subparsers(dest="command")
    for command, keys in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key=value configuration file")
        for key in keys:
            p.add_argument(f"--{key.name.replace('_', '-')}", dest=key.name, default=None, help=key.help)
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
        parser = _build_parser()
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise ConfigError("no command given")
        file_values = load_config_file(ns.config) if ns.config else {}
        if "command" in file_values and file_values["command"] != ns.command:
            raise ConfigError(
                f"config file commands {file_values['command']!r} but {ns.command!r} requested"
            )
        flag_values = {key.name: getattr(ns, key.name) for key in COMMANDS[ns.command]}
        cfg = _resolve(ns.command, flag_values, file_values)
        return _DISPATCH[ns.command](cfg)
    except HyperdiffError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
