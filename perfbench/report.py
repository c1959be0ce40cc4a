"""Run every workload with tracing off and on, and print every metric.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each table has one row per workload: the end-to-end metrics with their
sample counts and check outcomes, then the per-layer metrics grouped by
layer.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".perfbench_work" / "results"


def _cell(metric) -> str:
    if metric is None:
        return "-"
    value = metric["value"]
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _table(title, columns, rows) -> str:
    widths = [max(len(str(r[i])) for r in [columns, *rows]) for i in range(len(columns))]
    lines = [title]
    for r in [columns, *rows]:
        lines.append("  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                               for i, (c, w) in enumerate(zip(r, widths))))
    return "\n".join(lines)


def render(bench, results) -> str:
    workloads = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    def record(name, trace):
        return results.get((name, trace), {})

    out = []
    e2e = [m["name"] for m in bench["end_to_end"]]
    rows = []
    for name in workloads:
        r0, r1 = record(name, 0), record(name, 1)
        samples = r0.get("samples", {})
        checks = [r.get("checks") for r in (r0, r1) if r]
        failed = sum(c["failed"] for c in checks)
        attempted = sum(c["attempted"] for c in checks)
        rows.append([name, *(_cell(r0.get("metrics", {}).get(m)) for m in e2e),
                     len(samples.get("wall_s", ())), len(samples.get("setup_s", ())),
                     f"{failed}/{attempted}" + (" FAILED" if failed else " ok"),
                     r0.get("seed", "-"), "yes" if r0.get("seed_used") else "no"])
    out.append(_table("end to end (tracing off)",
                      ["workload", *(f"{m} [{units[m]}]" for m in e2e),
                       "wall n", "setup n", "checks failed/attempted", "seed", "seed used"],
                      rows))

    groups = {}
    for m in bench["per_layer"]:
        groups.setdefault(m["name"].split(".")[0] if "." in m["name"] else "checks", []).append(
            m["name"])
    for layer, names in groups.items():
        rows = [[name, *(_cell(record(name, 1).get("metrics", {}).get(m)) for m in names)]
                for name in workloads]
        out.append(_table(f"layer {layer} (traced run)",
                          ["workload", *(f"{m} [{units[m]}]" for m in names)], rows))
    for name in workloads:
        failures = [f for t in (0, 1) for f in record(name, t).get("checks", {}).get("failures", [])]
        for f in failures:
            out.append(f"{name}: {f}")
    return "\n\n".join(out)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    shutil.rmtree(RESULTS, ignore_errors=True)  # show only this invocation's runs
    code = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            done = subprocess.run(
                [*bench["command"], "--workload", w["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.DEVNULL,
            )
            code = code or done.returncode
    results = {}
    for path in RESULTS.glob("*.trace[01].json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        results[(record["workload"], record["trace"])] = record
    print(render(bench, results))
    return code


if __name__ == "__main__":
    sys.exit(main())
