"""Runs one ``agentlog`` command and reports its peak RSS and, when
asked, its per-layer spans, measured from outside the program.

    python3 layertrace.py REPORT.json [--spans] -- <agentlog arguments>

It calls ``agentlog.cli.main`` and, when the command ends, writes the
process's own peak RSS to ``REPORT.json``.  ``ru_maxrss`` from ``wait4``
would not do: it also counts the parent's memory the child had before
exec.  With ``--spans`` it first wraps each layer's public functions at
the module attributes their callers look up, runs ``main`` under a root
span, and adds the spans kept in memory to the report.  The program
itself is not changed.  ``summarize`` turns spans into the per-layer
metrics; a span's self time is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# Span name, then every (module, attribute) through which callers reach
# the function.  A name imported with ``from .x import f`` is looked up
# in the importing module, so each importer is patched.
SITES = (
    ("scenarios.parse", ("agentlog.scenarios", "parse_scenario")),
    ("scenarios.build", ("agentlog.scenarios.Scenario", "build_system")),
    ("grounding.ground", ("agentlog.scenarios", "ground_program")),
    ("grounding.expand", ("agentlog.scenarios", "expand_pattern")),
    ("system.assemble", ("agentlog.scenarios", "build_system")),
    ("system.superagent", ("agentlog.system", "superagent"), ("agentlog.runtime", "superagent")),
    ("system.io_graph", ("agentlog.system", "io_graph"), ("agentlog.cli", "io_graph")),
    ("system.classify", ("agentlog.cli", "classify")),
    ("system.reference_model", ("agentlog.runtime", "superagent_model")),
    ("agents.model", ("agentlog.runtime", "agent_model")),
    ("runtime.sim", ("agentlog.cli", "run_fair")),
    ("runtime.verdict", ("agentlog.cli", "verdict")),
    ("runtime.export", ("agentlog.cli", "export_trace")),
)
ROOT_SPAN = "cli.main"
# Spans whose rise in peak RSS is recorded; each reading parses /proc/self/status.
RSS_SPANS = {"grounding.ground", "grounding.expand", "runtime.export"}


def peak_rss_kb() -> int:
    """Peak RSS of this process image (VmHWM), in KiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _counts(name, args, result) -> dict:
    """Work counts read off a span's arguments and result."""
    if name == "grounding.ground":
        return {"clauses": len(result.clauses)}
    if name == "system.io_graph":
        return {"nodes": len(result.nodes)}
    if name == "agents.model":
        return {"clause_visits": len(args[0].idb.clauses)}
    if name == "runtime.export":
        return {"bytes": len(result)}  # json.dumps escapes non-ASCII: one byte per character
    if name == "runtime.sim":
        from agentlog.runtime import CommEvent

        states = result.states
        sends = useful = 0
        for k, event in enumerate(result.events):
            if isinstance(event, CommEvent):
                sends += 1
                useful += states[k + 1] != states[k]
        return {"points": len(states), "rounds": len(result.rounds),
                "sends": sends, "useful_sends": useful}
    return {}


class Tracer:
    """Spans as ``[name, start, end, parent index, counts]`` in call order."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.unpatched = []

    def wrap(self, name, fn):
        rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss0 = peak_rss_kb() if rss else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            span[4] = _counts(name, args, result)
            if rss:
                span[4]["rss_growth_kb"] = peak_rss_kb() - rss0
            return result

        return traced

    def install(self):
        """Patch every site; a site the program no longer has is listed
        in ``unpatched`` and its metrics read zero."""
        for name, *sites in SITES:
            for module_name, attr in sites:
                owner = _resolve(module_name)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.unpatched.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, attr, self.wrap(name, fn))


def _resolve(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
        return obj
    return None


def summarize(spans) -> dict:
    """Self time, calls and summed counts per span name."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "counts": defaultdict(int),
                               "max": defaultdict(int)})
    for i, (name, start, end, _, counts) in enumerate(spans):
        entry = out[name]
        entry["self_s"] += end - start - child[i]
        entry["total_s"] += end - start
        entry["calls"] += 1
        for key, value in counts.items():
            entry["counts"][key] += value
            entry["max"][key] = max(entry["max"][key], value)
    return out


def nesting_errors(spans) -> list:
    """Spans that leave their parent's interval or overlap a sibling;
    self times only add up to the root's duration when there are none."""
    errors = []
    last_end = {}
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1:
        errors.append(f"{len(roots)} root spans")
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                errors.append(f"span {i} {name} outside its parent {p[0]}")
            if start < last_end.get(parent, start):
                errors.append(f"span {i} {name} overlaps a sibling")
            last_end[parent] = end
    return errors


def main(argv) -> int:
    report, *rest = argv or [""]
    spans = rest[:1] == ["--spans"]
    rest = rest[spans:]
    if not report or rest[:1] != ["--"]:
        print("usage: layertrace.py REPORT.json [--spans] -- <agentlog arguments>", file=sys.stderr)
        return 2
    import agentlog.cli

    tracer = Tracer()
    cli_main = agentlog.cli.main
    if spans:
        tracer.install()
        cli_main = tracer.wrap(ROOT_SPAN, cli_main)
    try:
        return cli_main(rest[1:])
    finally:
        sys.stdout.flush()
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_kb": peak_rss_kb(), "spans": tracer.spans,
                       "unpatched": tracer.unpatched}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
