"""agentlog benchmark: time to verdict, set-up time and peak RSS of CLI
commands, and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload ring-run --seed 1 --seconds 30 --trace 0

Every command runs in a fresh process, one process at a time, with its
stdout written to a file.  ``--trace 0`` repeats the command until
``--seconds`` have passed and reports medians of the end-to-end metrics;
``--trace 1`` makes one traced run (see ``layertrace.py``) plus untraced
repetitions for the tracing overhead, and reports the per-layer metrics.
Every repetition's output is checked.  The last stdout line is the
result; the line before it is the full record, which is also saved under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layertrace import ROOT_SPAN, nesting_errors, summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_DIR = WORK / f"run-{os.getpid()}"  # inputs and outputs of this run, removed at exit
# Children run with a fixed hash seed, so set iteration order, and with it
# the work done, is the same in every repetition; output must not depend
# on it either way.
CHILD_HASHSEED = "0"
# End-to-end times are reported at a reference machine speed.  On a
# shared VM the speed of one vCPU drifts by a quarter for tens of seconds
# at a time, and the two vCPUs drift independently; medians within one
# run cannot remove that.  So the run is pinned to one vCPU, each timed
# sample is bracketed by ``calibrate`` on that vCPU, and the sample is
# scaled by CAL_REF_S over the mean of the two calibrations.
CAL_ROUNDS = 300_000
CAL_REF_S = 0.05
MIN_WALL_SAMPLES = 3
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0  # a run must end within 180 s


@dataclass
class Sample:
    code: object  # exit code, or None when killed after the timeout
    wall_s: float
    stdout: Path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = CHILD_HASHSEED
    return env


def spawn(argv, stdout: Path, timeout: float) -> Sample:
    """Run one process to completion; wall time from start to reaping."""
    err = stdout.with_suffix(".stderr")
    with open(stdout, "wb") as out, open(err, "wb") as errfh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=errfh, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
            if not exited:
                proc.kill()
            _, status = os.waitpid(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err.read_bytes()[-2000:].decode(errors="replace")
        print(f"{' '.join(map(str, argv))}: exit {proc.returncode}\n{tail}", file=sys.stderr)
    return Sample(proc.returncode if exited else None, wall, stdout)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of integer arithmetic and dict
    stores.  It does not use agentlog, so only machine speed moves it."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CAL_ROUNDS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


class Run:
    """One benchmark run: repetitions of one case, judged as they come."""

    def __init__(self, case, seconds: float):
        self.case = case
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_digest = None
        self.wall = []
        self.setup = []
        self.rss = []
        self.speed = {"wall_s": [], "setup_s": []}  # calibration around each sample

    def timeout(self) -> float:
        return max(1.0, min(PROCESS_TIMEOUT_S, RUN_BUDGET_S - self.elapsed()))

    def judge(self, sample: Sample, what: str) -> list:
        """Failures of one CLI repetition: timeout, crash, a failed
        check, or stdout bytes differing from the first repetition."""
        if sample.code is None:
            return [f"{what}: timed out"]
        out = sample.stdout.read_bytes()
        failures = [f"{what}: {f}" for f in self.case.check(sample.code, out)]
        digest = hashlib.sha256(out).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            failures.append(f"{what}: stdout differs from the first repetition")
        return failures

    def record(self, failures):
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)

    def cli(self, spans=False):
        """One repetition of the command through ``layertrace.py``; returns
        the sample and the child's report (None when it wrote none)."""
        report = RUN_DIR / "report.json"
        report.unlink(missing_ok=True)
        flags = ["--spans"] if spans else []
        sample = spawn([sys.executable, str(BENCH / "layertrace.py"), str(report), *flags, "--",
                        *self.case.argv], RUN_DIR / "stdout.ndjson", self.timeout())
        what = "traced" if spans else "untraced"
        failures = self.judge(sample, what)
        data = json.loads(report.read_text(encoding="utf-8")) if report.exists() else None
        if data is None:
            failures.append(f"{what}: no report from the child")
        self.record(failures)
        return sample, data

    def calibrated(self, metric, take):
        before = calibrate()
        result = take()
        self.speed[metric].append((before + calibrate()) / 2)
        return result

    def timed_cli(self):
        sample, data = self.calibrated("wall_s", self.cli)
        self.wall.append(sample.wall_s)
        if data is not None:
            self.rss.append(data["peak_rss_kb"] / 1024)

    def timed_setup(self):
        sample = self.calibrated("setup_s", lambda: spawn(
            [sys.executable, str(BENCH / "setup_probe.py"), *self.case.setup_refs],
            RUN_DIR / "setup.out", self.timeout()))
        self.record([] if sample.code == 0 else [f"setup: exit {sample.code}"])
        self.setup.append(sample.wall_s)

    def at_reference_speed(self, metric) -> float:
        """Median of the samples, each scaled to the reference speed."""
        samples = self.wall if metric == "wall_s" else self.setup
        return statistics.median(s * CAL_REF_S / c for s, c in zip(samples, self.speed[metric]))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def measuring(self) -> bool:
        """Another repetition is due: fewer than the minimum so far, or one
        more is expected to end within ``seconds``."""
        if len(self.wall) < MIN_WALL_SAMPLES:
            return self.elapsed() < RUN_BUDGET_S - 2 * max(self.wall, default=0)
        return self.elapsed() + statistics.median(self.wall) <= self.seconds

    def untraced(self, setup_samples: int):
        """Repeat the command until ``seconds`` have passed, taking a
        set-up sample after each repetition until there are enough."""
        while self.measuring():
            self.timed_cli()
            if len(self.setup) < setup_samples:
                self.timed_setup()
        while len(self.setup) < setup_samples:
            self.timed_setup()


def end_to_end_metrics(run: Run) -> dict:
    return {
        "wall_s": (run.at_reference_speed("wall_s"), "s"),
        "setup_s": (run.at_reference_speed("setup_s"), "s"),
        "peak_rss_mb": (statistics.median(run.rss), "MB"),
    }


def layer_metrics(spans, output_bytes: int, overhead_s: float, error_rate: float) -> dict:
    """Per-layer metrics; every ``*_s`` but ``cli.total_s`` is self time,
    so those add up to ``cli.total_s``."""
    s = summarize(spans)

    def self_s(*names):
        return sum(s[n]["self_s"] for n in names)

    def rss_mb(*names):
        return sum(s[n]["counts"]["rss_growth_kb"] for n in names) / 1024

    ground_s = self_s("grounding.ground")
    clauses = s["grounding.ground"]["counts"]["clauses"]
    sim = s["runtime.sim"]["counts"]
    return {
        "scenarios.parse_s": (self_s("scenarios.parse"), "s"),
        "scenarios.build_s": (self_s("scenarios.build"), "s"),
        "grounding.ground_s": (self_s("grounding.ground", "grounding.expand"), "s"),
        "grounding.calls": (s["grounding.ground"]["calls"], "count"),
        "grounding.clauses": (clauses, "count"),
        "grounding.clauses_per_s": (clauses / ground_s if ground_s else 0.0, "1/s"),
        "grounding.rss_growth_mb": (rss_mb("grounding.ground", "grounding.expand"), "MB"),
        "system.assemble_s": (self_s("system.assemble"), "s"),
        "system.superagent_s": (self_s("system.superagent"), "s"),
        "system.superagent_calls": (s["system.superagent"]["calls"], "count"),
        "system.io_graph_s": (self_s("system.io_graph"), "s"),
        "system.io_graph_calls": (s["system.io_graph"]["calls"], "count"),
        "system.io_nodes": (s["system.io_graph"]["max"]["nodes"], "count"),
        "system.classify_s": (self_s("system.classify"), "s"),
        "system.reference_model_s": (self_s("system.reference_model"), "s"),
        "agents.model_s": (self_s("agents.model"), "s"),
        "agents.model_evals": (s["agents.model"]["calls"], "count"),
        "agents.clause_visits": (s["agents.model"]["counts"]["clause_visits"], "count"),
        "runtime.sim_s": (self_s("runtime.sim"), "s"),
        "runtime.points": (sim["points"], "count"),
        "runtime.rounds": (sim["rounds"], "count"),
        "runtime.sends": (sim["sends"], "count"),
        "runtime.useful_send_ratio": (sim["useful_sends"] / sim["sends"] if sim["sends"] else 0.0,
                                      "ratio"),
        "runtime.verdict_s": (self_s("runtime.verdict"), "s"),
        "runtime.export_s": (self_s("runtime.export"), "s"),
        "runtime.export_bytes": (s["runtime.export"]["counts"]["bytes"], "bytes"),
        "runtime.export_rss_growth_mb": (rss_mb("runtime.export"), "MB"),
        "cli.total_s": (s[ROOT_SPAN]["total_s"], "s"),
        "cli.self_s": (self_s(ROOT_SPAN), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
        "error_rate": (error_rate, "ratio"),
    }


SELF_TIMES = (
    "scenarios.parse_s", "scenarios.build_s", "grounding.ground_s", "system.assemble_s",
    "system.superagent_s", "system.io_graph_s", "system.classify_s", "system.reference_model_s",
    "agents.model_s", "runtime.sim_s", "runtime.verdict_s", "runtime.export_s", "cli.self_s",
)


def self_time_gap(metrics) -> float:
    """|sum of the per-layer self times - cli.total_s|; zero up to rounding
    when every span maps to exactly one metric."""
    return abs(sum(metrics[k][0] for k in SELF_TIMES) - metrics["cli.total_s"][0])


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "child_PYTHONHASHSEED": CHILD_HASHSEED,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def prepare(workload: str, seed: int):
    """Fail fast, before any result, when the program is not there."""
    if not (SRC / "agentlog" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no agentlog sources under {SRC}")
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    if not compileall.compile_dir(SRC, quiet=1):
        raise SystemExit("perfbench: agentlog sources do not compile")
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    return WORKLOADS[workload](seed, RUN_DIR)


def measure(case, seconds: float, trace: bool, env: dict) -> dict:
    """One run of ``case``; returns the full record."""
    run = Run(case, seconds)
    warm = spawn([sys.executable, "-c", "import agentlog.cli"], RUN_DIR / "warm.out", run.timeout())
    if warm.code != 0:
        raise SystemExit("perfbench: agentlog does not import")
    detail = {}
    if trace:
        traced, trace_data = run.cli(spans=True)
        output_bytes = traced.stdout.stat().st_size
        run.untraced(setup_samples=0)
        if trace_data is None:
            raise SystemExit("perfbench: the traced run wrote no spans")
        spans = trace_data["spans"]
        metrics = layer_metrics(spans, output_bytes, traced.wall_s - statistics.median(run.wall),
                                run.failed / run.attempted)
        detail = {"spans": len(spans), "unpatched": trace_data["unpatched"],
                  "nesting_errors": nesting_errors(spans)[:5],
                  "self_time_gap_s": self_time_gap(metrics),
                  "traced_wall_s": traced.wall_s,
                  "traced_peak_rss_mb": trace_data["peak_rss_kb"] / 1024}
    else:
        run.untraced(SETUP_SAMPLES)
        metrics = end_to_end_metrics(run)
    env = dict(env, loadavg_after=os.getloadavg())
    return {
        "workload": case.workload, "seed": env["seed"], "seed_used": case.seed_used,
        "params": case.params, "trace": int(trace), "seconds": seconds,
        "elapsed_s": run.elapsed(), "env": env,
        "samples": {"wall_s": run.wall, "setup_s": run.setup, "peak_rss_mb": run.rss,
                    "calibration_s": run.speed},
        "checks": {"attempted": run.attempted, "failed": run.failed,
                   "failures": run.failures[:20]},
        "trace_detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        env = environment(args.seed)
        case = prepare(args.workload, args.seed)
        env["pinned_cpu"] = min(os.sched_getaffinity(0))
        record = measure(case, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    checks = record["checks"]
    print(json.dumps(record))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
