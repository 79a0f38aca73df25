"""hyperdiff benchmark: run one workload of CLI jobs and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One client runs the workload's jobs one at a time, in process,
through ``hyperdiff.cli.main(argv)``, in rounds until ``--seconds`` have
passed (at least two rounds, so every job's output bytes can be compared
between repetitions). Each job's exit code, summary lines and output files
are checked against its expected outcome (see ``jobs.py``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from rounds run under the wrappers
of ``tracing.py``, alternating with untraced rounds to measure the overhead.
Other lines on stdout describe the run; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from jobs import WORKLOADS, Job, WrongOutput, build_workload
from reference import REF_S, reference_s
from tracing import Tracer, TraceSetupError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 2
HARD_STOP_S = 120.0  # past this, one run of each job is enough, so a slow commit still exits in time
SETUP_PROBES = 15

END_TO_END = {
    "work_per_s": "units/s",
    "jobs_per_min": "jobs/min",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metrics: "<key>.calls" | "<key>.s" | "<key>.self_s" for a traced key,
# "<layer>.self_s" for a whole layer, or a name computed in layer_metrics()
PER_LAYER = [
    "scalars.qcomplex_mul.calls", "scalars.qcomplex_mul.self_s", "scalars.qcomplex_add.calls",
    "scalars.qcomplex_div.calls", "scalars.qcomplex_div.self_s", "scalars.self_s",
    "series.apply_operator.calls", "series.apply_operator.s", "series.differentiate.calls",
    "series.value_at.calls", "series.value_at.s", "series.majorant_norm.calls", "series.self_s",
    "families.classify.calls", "families.classify.s", "families.log_abs_at.calls",
    "families.log_abs_at.s", "families.op.calls", "families.check_R.self_s", "families.self_s",
    "inverses.build_f_nk.calls", "inverses.build_f_nk.s", "inverses.solve_monic_system.s",
    "inverses.self_s",
    "lacunary.select_indices.s", "lacunary.candidates", "lacunary.decay_report.s", "lacunary.self_s",
    "criterion.verify_hypotheses.s", "criterion.self_s",
    "synthesis.candidates", "synthesis.admit_ratio", "synthesis.synthesize.s", "synthesis.self_s",
    "cli.main.s", "cli.write.s", "cli.bytes_out", "cli.self_s",
    "trace.overhead_frac",
]
MODULES = ("__init__", "cli", "criterion", "errors", "families", "inverses", "lacunary",
           "scalars", "series", "synthesis")
UNITS = {"calls": "count", "s": "s", "self_s": "s", "candidates": "count",
         "admit_ratio": "ratio", "bytes_out": "bytes", "overhead_frac": "ratio", "lines": "lines"}


@dataclass
class Result:
    """One execution of one job."""

    seconds: float
    ref: float  # duration of the reference loop run right before the job
    status: str  # "ok", or why the job failed
    work: int = 0
    wrong: bool = False  # a contradicted verdict, bad output file or changed bytes
    digests: Dict[str, str] = field(default_factory=dict)
    bytes_out: int = 0


def probe_setup() -> float:
    """Median time to import hyperdiff and hyperdiff.cli in fresh interpreters, at the reference pace."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "start = time.perf_counter()\n"
        "import hyperdiff, hyperdiff.cli\n"
        "elapsed = time.perf_counter() - start\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from reference import reference_s\n"
        "reference_s()\n"
        "print(elapsed, reference_s(), hyperdiff.__file__)\n"
    )
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC), str(HERE)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, ref, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported hyperdiff from {path}")
        times.append(float(elapsed) * REF_S / float(ref))
    return statistics.median(times)


def digest_tree(out: Path) -> Dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def run_job(cli, job: Job, out: Path) -> Result:
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # the previous job's garbage is not this job's cost
    stdout, stderr = io.StringIO(), io.StringIO()
    ref = reference_s()
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main([*job.argv, "--out", str(out)])
    except Exception as exc:  # a raw exception escaping the CLI is a measured failure
        return Result(time.perf_counter() - start, ref, f"raised {type(exc).__name__}")
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
    digests = digest_tree(out) if out.is_dir() else {}
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0
    if code != job.exit_code:
        return Result(elapsed, ref, f"exit {code}, expected {job.exit_code}", digests=digests,
                      bytes_out=size)
    lines = dict(
        line.split(": ", 1) for line in stdout.getvalue().splitlines() if ": " in line
    )
    for key, allowed in job.verdicts.items():
        if lines.get(key) not in allowed:
            return Result(elapsed, ref, f"{key}: {lines.get(key)!r}, expected one of {sorted(allowed)}",
                          wrong=True, digests=digests, bytes_out=size)
    try:
        work = job.check(out, lines)
    except (WrongOutput, ValueError, KeyError, IndexError) as exc:
        return Result(elapsed, ref, f"bad output: {exc}", wrong=True, digests=digests, bytes_out=size)
    return Result(elapsed, ref, "ok", work, digests=digests, bytes_out=size)


class Runner:
    """Runs rounds of a workload's jobs and keeps every result."""

    def __init__(self, cli, jobs: List[Job], out: Path):
        self.cli = cli
        self.jobs = jobs
        self.out = out
        self.results: Dict[str, List[Result]] = {job.name: [] for job in jobs}
        self.first_digests: Dict[str, Dict[str, str]] = {}

    def run(self, job: Job) -> float:
        res = run_job(self.cli, job, self.out / job.name)
        if res.status == "ok":
            first = self.first_digests.setdefault(job.name, res.digests)
            if res.digests != first:
                res.status, res.wrong, res.work = "output bytes differ between repetitions", True, 0
        self.results[job.name].append(res)
        return res.seconds

    def round(self) -> float:
        """Runs every job once; returns the summed job wall time."""
        return sum(self.run(job) for job in self.jobs)

    def run_for(self, seconds: float) -> None:
        """Cycles through the jobs until the time is up and each has run MIN_ROUNDS times."""
        start = time.perf_counter()
        while True:
            for job in self.jobs:
                elapsed = time.perf_counter() - start
                wanted = 1 if elapsed >= HARD_STOP_S else MIN_ROUNDS
                if len(self.results[job.name]) >= wanted and elapsed >= seconds:
                    return
                self.run(job)

    def all_results(self) -> List[Result]:
        return [r for rs in self.results.values() for r in rs]


def rates(runner: Runner, paced: bool) -> Dict[str, float]:
    """Rates over a round whose job times are each job's median over the rounds.

    With ``paced`` each job time is first rescaled to the reference pace.
    """

    def seconds(r: Result) -> float:
        return r.seconds * REF_S / r.ref if paced else r.seconds

    round_s = sum(statistics.median(seconds(r) for r in rs) for rs in runner.results.values())
    work = sum(sum(r.work for r in rs) / len(rs) for rs in runner.results.values())
    ok = sum(sum(r.status == "ok" for r in rs) / len(rs) for rs in runner.results.values())
    return {"work_per_s": work / round_s, "jobs_per_min": 60.0 * ok / round_s}


def layer_metrics(tracer: Tracer, bytes_out: int) -> Dict[str, float]:
    """One traced round's per-layer values, by name."""
    layers = tracer.layer_self_s()
    steps = tracer.counts["synthesis.steps"]
    built = tracer.counts["synthesis.candidates"]
    computed = {
        "lacunary.candidates": tracer.counts["lacunary.candidates"],
        "synthesis.candidates": built,
        "synthesis.admit_ratio": steps / built if built else 0.0,
        "cli.bytes_out": bytes_out,
    }
    out = {}
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if name in computed:
            out[name] = computed[name]
        elif "." not in head and stat == "self_s":
            out[name] = layers.get(head, 0.0)
        elif stat == "calls":
            out[name] = tracer.calls[head]
        elif stat == "s":
            out[name] = tracer.total_s.get(head, 0.0)
        elif stat == "self_s":
            out[name] = tracer.self_s.get(head, 0.0)
    return out


def line_counts() -> Dict[str, int]:
    pkg = SRC / "hyperdiff"
    counts = {"src.lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))}
    for mod in MODULES:
        path = pkg / f"{mod}.py"
        counts[f"{mod.strip('_')}.lines"] = len(path.read_text().splitlines()) if path.is_file() else 0
    return counts


def run_traced(runner: Runner, workload, seconds: float) -> Dict[str, float]:
    """Alternates untraced and traced rounds; per-layer values are medians over traced rounds."""
    tracer = Tracer()
    plain, traced, samples, calls = [], [], [], None
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        plain.append(runner.round())
        tracer.install()
        tracer.reset()
        try:
            traced.append(runner.round())
        finally:
            tracer.uninstall()
        last = [rs[-1] for rs in runner.results.values()]
        samples.append(layer_metrics(tracer, sum(r.bytes_out for r in last)))
        if calls is None:
            calls = dict(tracer.calls)
        elif calls != dict(tracer.calls):
            print("warning: call counts differ between traced rounds", file=sys.stderr)
    unreached = [key for key in workload.must_reach if not calls.get(key)]
    if unreached:
        raise TraceSetupError(
            f"wrapped functions the {workload.name} workload must reach recorded no calls: "
            f"{', '.join(unreached)} (a binding was missed)"
        )
    # counts repeat exactly from round to round; times are medians
    metrics = {
        name: statistics.median(s[name] for s in samples) if unit_of(name) == "s" else value
        for name, value in samples[0].items()
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics.update(line_counts())
    return metrics


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or UNITS[name.rpartition(".")[2]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperdiff" / "cli.py").is_file():
        print(f"no hyperdiff sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    setup_s = probe_setup() if not args.trace else None
    sys.path.insert(0, str(SRC))
    import hyperdiff.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported hyperdiff from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = build_workload(args.workload, args.seed)
    unpaced: Dict[str, float] = {}
    out = OUT / f"{args.workload}-{args.seed}"
    runner = Runner(cli, workload.jobs, out)
    try:
        if args.trace:
            try:
                metrics = run_traced(runner, workload, args.seconds)
            except TraceSetupError as exc:
                print(f"trace self-check failed: {exc}", file=sys.stderr)
                return 3
        else:
            runner.run_for(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = dict(rates(runner, paced=True), peak_rss_mb=peak_rss_mb, setup_s=setup_s)
            unpaced = rates(runner, paced=False)
        # untimed and outside attempted/failed; a fix shows here first
        known = [(job, run_job(cli, job, out / job.name)) for job in workload.known_failures]
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    results = runner.all_results()
    failed = sum(r.status != "ok" for r in results)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} jobs run {len(results)}")
    print(f"work unit: {workload.work_unit}")
    for job in workload.jobs:
        rs = runner.results[job.name]
        statuses = sorted({r.status for r in rs})
        print(
            f"job {job.name}: {sum(r.status == 'ok' for r in rs)}/{len(rs)} ok, "
            f"median {statistics.median(r.seconds for r in rs):.4f} s, {'; '.join(statuses)}"
        )
        print(f"  argv: {' '.join(job.argv)}")
    for job, res in known:
        state = "still fails" if res.status != "ok" else "now passes; move it into the timed jobs"
        print(f"known failure {job.name}: {state}: {res.status} (known: {job.known_failure})")
        print(f"  argv: {' '.join(job.argv)}")
    print(f"fail_frac {failed / len(results):.4f} ratio")
    for name, value in unpaced.items():
        print(f"unpaced {name} {value} {unit_of(name)}")
    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
