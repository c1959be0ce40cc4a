"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

For ``example3``, ``routing5``, ``chain(5)`` and a 4-node ring it runs
every workload check and the traced run, then confirms that

* the metric names of both kinds of run match ``BENCHMARK.json``;
* the per-layer self times add up to the traced total;
* each check fails on output the self-check corrupts, and a repetition
  fails on a wrong exit code, a timeout or bytes that differ.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads
from workloads import Case

SEED = 7


def _edit(out: bytes, fn) -> bytes:
    """Apply ``fn`` to the parsed records and serialize them as the CLI does."""
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    fn(records)
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    return ("\n".join(lines) + "\n").encode()


def _last(kind):
    def pick(records):
        return [r for r in records if r.get("record") == kind][-1]
    return pick


def _set(pick, key, value):
    return lambda records: pick(records).__setitem__(key, value)


def _bump_route(records):
    point = _last("point")(records)
    agent, state = next(iter(point["agents"].items()))
    route = next(a for a in state["model"] if a.startswith(f"sp({agent},") and a.endswith(",0)"))
    state["model"] = [a for a in state["model"] if a != route] + [route[:-2] + "1)"]


def _add_q(records):
    _last("verdict")(records)["convergence_model"].append("q")


def _drop_reference_atom(records):
    _last("verdict")(records)["reference_model"].pop()


def _drop_last_row(records):
    records.remove(_last("sweep-row")(records))


def _inflate_rounds(records):
    row = _last("sweep-row")(records)
    row["rounds_to_fixpoint"] = row["io_nodes"] + 2


def _equal_probe(records):
    first, second = [r for r in records if r.get("record") == "sweep"]
    second["io_nodes"] = first["io_nodes"]


VERDICT_CORRUPTIONS = {
    "no fixpoint": _set(_last("verdict"), "fixpoint_point", None),
    "q in the convergence model": _add_q,
    "reference model short of an atom": _drop_reference_atom,
}
CORRUPTIONS = {
    "ring-run": {
        "no fixpoint": _set(_last("verdict"), "fixpoint_point", None),
        "divergence reported": _set(_last("verdict"), "divergence", [{"family": "sp(R0,R1,*)"}]),
        "a route one hop longer": _bump_route,
    },
    "chain-sweep": {
        "row without fixpoint": _set(_last("sweep-row"), "fixpoint", False),
        "row with divergence": _set(_last("sweep-row"), "divergence", ["r(*)"]),
        "io_nodes off by one": lambda rs: _last("sweep-row")(rs).__setitem__(
            "io_nodes", _last("sweep-row")(rs)["io_nodes"] + 1),
        "rounds above io_nodes + 1": _inflate_rounds,
        "a row missing": _drop_last_row,
    },
    "ctinf-analyze": {
        "io_finite": _set(_last("classification"), "io_finite", True),
        "idb cyclic": _set(_last("classification"), "idb_acyclic", False),
        "probe did not grow": _equal_probe,
        "probe at another bound": _set(_last("sweep"), "dmax", 0),
    },
    "chain-trace": VERDICT_CORRUPTIONS,
    "example3": VERDICT_CORRUPTIONS,
}


def tiny_cases() -> list:
    work = run.RUN_DIR
    example3 = Case(
        "example3", ("run", "example3"), ("example3",),
        lambda code, out: workloads.check_run_models({"a", "b", "c", "d", "f"}, {"c", "d"},
                                                     code, out),
        False, {},
    )
    return [
        example3,
        workloads.ctinf_case(SEED, work, scenario="routing5"),
        workloads.trace_case(SEED, work, n=5),
        workloads.sweep_case(SEED, work, k=5),
        workloads.ring_case(SEED, work, n=4),
    ]


def check_case(case, names) -> list:
    problems = []
    env = run.environment(SEED)
    for trace in (False, True):
        record = run.measure(case, 0, trace, env)
        label = f"{case.workload} {' '.join(case.argv)} trace={int(trace)}"
        problems += [f"{label}: {f}" for f in record["checks"]["failures"]]
        if set(record["metrics"]) != names[trace]:
            problems.append(f"{label}: metric names differ from BENCHMARK.json: "
                            f"{sorted(set(record['metrics']) ^ names[trace])}")
        detail = record["trace_detail"]
        if trace:
            if detail["nesting_errors"] or detail["unpatched"]:
                problems.append(f"{label}: span errors {detail['nesting_errors']} "
                                f"unpatched {detail['unpatched']}")
            if detail["self_time_gap_s"] > 1e-6:
                problems.append(f"{label}: self times miss the total by "
                                f"{detail['self_time_gap_s']:.3g} s")

    out = (run.RUN_DIR / "stdout.ndjson").read_bytes()
    for what, corrupt in CORRUPTIONS[case.workload].items():
        if not case.check(0, _edit(out, corrupt)):
            problems.append(f"{case.workload}: check passed output with {what}")
    if not case.check(3, out):
        problems.append(f"{case.workload}: check passed exit code 3")

    judged = run.Run(case, 0)
    judged.first_digest = "0" * 64
    stdout = run.RUN_DIR / "stdout.ndjson"
    if not judged.judge(run.Sample(0, 0.0, stdout), "repeat"):
        problems.append(f"{case.workload}: differing stdout bytes passed")
    if not judged.judge(run.Sample(None, 0.0, stdout), "repeat"):
        problems.append(f"{case.workload}: a timed-out repetition passed")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {False: {m["name"] for m in bench["end_to_end"]},
             True: {m["name"] for m in bench["per_layer"]}}
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    try:
        run.prepare("chain-trace", SEED)  # checks the sources and puts them on sys.path
        for case in tiny_cases():
            found = check_case(case, names)
            print(f"{case.workload:14} {' '.join(case.argv):40} {'ok' if not found else 'FAILED'}")
            problems += found
    finally:
        shutil.rmtree(run.RUN_DIR, ignore_errors=True)
    for p in problems:
        print("  " + p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
