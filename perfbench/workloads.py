"""Benchmark workloads: inputs generated from a seed, and output checks.

Each workload turns a seed into a ``Case``: the ``agentlog`` command line,
the scenarios its set-up builds, and a check of the command's output.
The checks use references computed here, never by the logic engine: a
breadth-first search for routes, closed-form sizes for the chain, and
the paper's stated answers.
"""

from __future__ import annotations

import json
import random
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RING_NODES = 7
SWEEP_K = 100
TRACE_N = 300
CTINF_SCENARIO = "routing5-example6-script"


@dataclass(frozen=True)
class Case:
    """One generated input: the CLI arguments, the scenarios set-up
    builds, and ``check(exit_code, stdout) -> list of failures``."""

    workload: str
    argv: tuple
    setup_refs: tuple
    check: Callable
    seed_used: bool
    params: dict


def _records(out: bytes) -> list:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _last_records(out: bytes, count: int) -> list:
    """The final ``count`` records, without parsing a multi-megabyte trace."""
    return [json.loads(line) for line in out.rstrip(b"\n").rsplit(b"\n", count)[-count:]]


def _exit(code, want=0) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


# ---------------------------------------------------------------------------
# ring-run: shortest-path routers on a ring with one chord and one failure


def bfs_routes(nodes, edges) -> set:
    """All (source, target, hops) triples of the undirected graph."""
    adj = {n: [] for n in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    routes = set()
    for src in nodes:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        routes.update((src, dst, d) for dst, d in dist.items())
    return routes


def _connected(nodes, edges) -> bool:
    return len({(s, t) for s, t, _ in bfs_routes(nodes, edges)}) == len(nodes) ** 2


def ring_topology(n: int, seed: int):
    """Ring ``R0..R{n-1}`` plus one seeded chord, and one seeded link to
    fail such that the surviving graph stays connected."""
    rng = random.Random(seed)
    nodes = tuple(f"R{i}" for i in range(n))
    edges = [(nodes[i], nodes[i + 1]) for i in range(n - 1)] + [(nodes[0], nodes[-1])]
    chords = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 2, n)
              if (i, j) != (0, n - 1)]
    edges.append(rng.choice(chords))
    candidates = [e for e in edges if _connected(nodes, [x for x in edges if x != e])]
    failed = rng.choice(candidates)
    return nodes, tuple(edges), failed


def ring_scenario_text(nodes, edges, failed) -> str:
    """The shortest-path routers of ``routing_scenario_text`` on this
    topology, plus the seeded failure after the second fair round."""
    from agentlog.scenarios import Topology, routing_scenario_text

    text = routing_scenario_text(Topology(nodes, frozenset(edges)))
    return text + f"\n[events]\n@round 2: fail link({failed[0]},{failed[1]})\n"


_SP = re.compile(r"sp\((\w+),(\w+),(\d+)\)$")


def check_ring(nodes, surviving, code, out) -> list:
    failures = _exit(code)
    if failures:
        return failures
    last_point, verdict = _last_records(out, 2)
    if verdict.get("record") != "verdict" or last_point.get("record") != "point":
        return ["output does not end with a point and a verdict record"]
    if verdict["fixpoint_point"] is None or verdict["divergence"]:
        failures.append("no fixpoint, or divergence reported")
    routes = set()
    for agent, state in last_point["agents"].items():
        for text in state["model"]:
            m = _SP.match(text)
            if m and m.group(1) == agent:
                routes.add((m.group(1), m.group(2), int(m.group(3))))
    if routes != bfs_routes(nodes, surviving):
        failures.append("final sp routes differ from breadth-first search")
    return failures


def ring_case(seed: int, workdir: Path, n: int = RING_NODES) -> Case:
    nodes, edges, failed = ring_topology(n, seed)
    path = workdir / f"ring{n}.scenario"
    path.write_text(ring_scenario_text(nodes, edges, failed), encoding="utf-8")
    surviving = tuple(e for e in edges if e != failed)
    return Case(
        "ring-run", ("run", str(path)), (str(path),),
        lambda code, out: check_ring(nodes, surviving, code, out), True,
        {"nodes": n, "chord": list(edges[-1]), "failed": list(failed)},
    )


# ---------------------------------------------------------------------------
# chain-sweep: rounds-to-fixpoint over chain(1..K) under a seeded schedule


def check_sweep(k, code, out) -> list:
    failures = _exit(code)
    if failures:
        return failures
    rows = [r for r in _records(out) if r.get("record") == "sweep-row"]
    if [r["value"] for r in rows] != list(range(1, k + 1)):
        failures.append(f"sweep rows do not cover 1..{k}")
    for r in rows:
        n, io_nodes, rounds = r["value"], r["io_nodes"], r["rounds_to_fixpoint"]
        if not r["fixpoint"] or r["divergence"]:
            failures.append(f"n={n}: no fixpoint, or divergence reported")
        if io_nodes != 2 * n + 2:
            failures.append(f"n={n}: io_nodes {io_nodes} != {2 * n + 2}")
        if rounds is None or rounds > io_nodes + 1:
            failures.append(f"n={n}: rounds_to_fixpoint {rounds} > io_nodes + 1")
    return failures


def sweep_case(seed: int, workdir: Path, k: int = SWEEP_K) -> Case:
    argv = ("sweep", "chain(1)", "--param", "n", "--range", f"1:{k}",
            "--policy", "shuffled", "--seed", str(seed))
    return Case(
        "chain-sweep", argv, tuple(f"chain({n})" for n in range(1, k + 1)),
        lambda code, out: check_sweep(k, code, out), True, {"k": k},
    )


# ---------------------------------------------------------------------------
# ctinf-analyze: classification of the count-to-infinity script


def check_analyze(code, out) -> list:
    failures = _exit(code)
    if failures:
        return failures
    records = _records(out)
    cls = [r for r in records if r.get("record") == "classification"]
    sweeps = [r for r in records if r.get("record") == "sweep"]
    if len(cls) != 1 or len(sweeps) != 2:
        return ["expected one classification and two sweep records"]
    cls = cls[0]
    if [r["dmax"] for r in sweeps] != [cls["dmax"], cls["dmax"] + 2]:
        failures.append("probe is not at dmax and dmax + 2")
    sizes = [r["io_nodes"] for r in sweeps]
    if not (cls["io_acyclic"] and cls["idb_acyclic"]) or cls["io_finite"]:
        failures.append("expected io_acyclic, idb_acyclic and not io_finite")
    if not sizes[0] < sizes[1]:
        failures.append(f"probe io_nodes did not grow: {sizes}")
    return failures


def ctinf_case(seed: int, workdir: Path, scenario: str = CTINF_SCENARIO) -> Case:
    return Case("ctinf-analyze", ("analyze", scenario), (scenario,), check_analyze,
                False, {"scenario": scenario})


# ---------------------------------------------------------------------------
# chain-trace: the full trace of chain(N)


def chain_model(n: int) -> set:
    return {f"r({i})" for i in range(n + 1)} | {f"s({i})" for i in range(n + 1)}


def check_run_models(convergence, reference, code, out) -> list:
    """Exit 0, a fixpoint, and the verdict's models equal the given ones."""
    failures = _exit(code)
    if failures:
        return failures
    (verdict,) = _last_records(out, 1)
    if verdict.get("record") != "verdict" or verdict["fixpoint_point"] is None:
        return ["no verdict with a fixpoint"]
    if set(verdict["convergence_model"] or ()) != convergence:
        failures.append("convergence model differs from the expected one")
    if set(verdict["reference_model"] or ()) != reference:
        failures.append("reference model differs from the expected one")
    return failures


def trace_case(seed: int, workdir: Path, n: int = TRACE_N) -> Case:
    model = chain_model(n)
    return Case(
        "chain-trace", ("run", f"chain({n})"), (f"chain({n})",),
        lambda code, out: check_run_models(model, model, code, out), False, {"n": n},
    )


WORKLOADS = {
    "ring-run": ring_case,
    "chain-sweep": sweep_case,
    "ctinf-analyze": ctinf_case,
    "chain-trace": trace_case,
}
