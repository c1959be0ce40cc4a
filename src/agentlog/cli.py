"""Command-line entry point: analyze, run, replay, sweep, oracle-check.

Output is line-delimited JSON records by default (``--format table`` for
a human view).  Identical command lines on identical inputs produce
byte-identical output; the only randomness is the seeded shuffled
schedule, and the seed is echoed in the header record.  A command
computes every result before it writes anything, and then writes a trace
one record at a time: an input error leaves no output, and the output
takes the memory of one record.

A command pauses the cyclic garbage collector once its arguments are
parsed and restores the caller's setting when it ends, however it ends.
Its object graph (interned atoms, clause tuples, ``deps`` sets, plans,
the trace) holds no reference cycle, so the collector's re-scans of it
as it grows free nothing; only ``main`` touches ``gc``.

Exit codes: 0 success/fixpoint, 1 internal error, 2 input error,
3 inconclusive horizon, divergence, or oracle mismatch.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .logic import CyclicProgramError, stable_models_bruteforce
from .runtime import (
    _atoms_list,
    _dump,
    event_to_record,
    events_from_export,
    rounds_to_fixpoint,
    run_fair,
    run_scripted,
    verdict,
    write_trace,
)
from .runtime import export_trace  # noqa: F401  perfbench/layertrace.py traces it here
from .scenarios import _CHAIN_RE, ScenarioError, load_scenario
from .system import ValidationError, classify
from .system import io_graph  # noqa: F401  perfbench/layertrace.py traces it here

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class _Output:
    """Holds a command's output until ``close`` writes it, so a command
    whose input is at fault writes nothing.

    A chunk is a line or a deferred writer: a function of the output's
    ``write`` that ``close`` calls once every result has been computed,
    so a long trace goes out one record at a time."""

    def __init__(self, path):
        self.path = path
        self.chunks = []

    def emit(self, line: str):
        self.chunks.append(line + "\n")

    def defer(self, writer):
        self.chunks.append(writer)

    def close(self):
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                self._write(fh.write)
        else:
            self._write(sys.stdout.write)

    def _write(self, write):
        for chunk in self.chunks:
            if isinstance(chunk, str):
                write(chunk)
            else:
                chunk(write)


def _load(args):
    scenario = load_scenario(args.scenario)
    return scenario, scenario.build_system(args.dmax)


def _header(args, command, dmax, extra=None):
    record = {
        "record": "header",
        "command": command,
        "scenario": args.scenario,
        "dmax": dmax,
    }
    if extra:
        record.update(extra)
    return record


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _Output(args.out)
    dmax = scenario.domain.distance_max if args.dmax is None else args.dmax
    cls = classify(*scenario.shapes([dmax, dmax + args.probe_delta]))
    record = {
        "record": "classification",
        "scenario": args.scenario,
        "dmax": cls.dmax,
        "io_acyclic": cls.io_acyclic,
        "bounded": cls.bounded,
        "io_finite": cls.io_finite,
        "io_finite_probe": "dmax-sweep",
        "idb_acyclic": cls.idb_acyclic,
        "io_nodes": cls.io_nodes,
    }
    if args.format == "table":
        for key in ("scenario", "dmax", "io_acyclic", "bounded", "io_finite",
                    "io_finite_probe", "idb_acyclic", "io_nodes"):
            out.emit(f"{key:16} {record[key]}")
        out.emit(f"{'sweep':16} dmax={cls.dmax}:{cls.probe_sizes[0]} "
                 f"dmax={cls.dmax + cls.probe_delta}:{cls.probe_sizes[1]}")
    else:
        out.emit(_dump(record))
        out.emit(_dump({"record": "sweep", "dmax": cls.dmax, "io_nodes": cls.probe_sizes[0]}))
        out.emit(_dump({
            "record": "sweep",
            "dmax": cls.dmax + cls.probe_delta,
            "io_nodes": cls.probe_sizes[1],
        }))
    out.close()
    return EXIT_OK


def _run_trace(scenario, system, args):
    max_rounds = args.max_rounds if args.max_rounds is not None else scenario.max_rounds
    return run_fair(
        system,
        env_schedule=scenario.schedule,
        max_rounds=max_rounds,
        policy=args.policy,
        seed=args.seed,
        prefix_events=scenario.script,
    )


def cmd_run(args) -> int:
    scenario, system = _load(args)
    out = _Output(args.out)
    trace = _run_trace(scenario, system, args)
    v = verdict(system, trace, families=scenario.families())
    if args.format == "table":
        out.emit(f"points            {len(trace.events) + 1}")
        out.emit(f"fixpoint_point    {v.fixpoint_point}")
        out.emit(f"rounds_to_fixpoint {rounds_to_fixpoint(trace)}")
        out.emit(f"horizon_exceeded  {v.horizon_exceeded}")
        out.emit(f"weakly_stabilizing_witnessed {v.weakly_stabilizing_witnessed}")
        out.emit(f"divergence        {[r.family for r in v.divergence]}")
    else:
        out.emit(_dump(_header(args, "run", system.dmax, {
            "seed": args.seed,
            "policy": args.policy,
            "max_rounds": args.max_rounds if args.max_rounds is not None else scenario.max_rounds,
        })))
        out.defer(lambda write: write_trace(write, trace, v))
    out.close()
    if v.fixpoint_point is not None and not v.divergence:
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def cmd_replay(args) -> int:
    scenario, system = _load(args)
    out = _Output(args.out)
    if args.events:
        with open(args.events, encoding="utf-8") as fh:
            events = events_from_export(fh)
    else:
        events = scenario.script
    trace = run_scripted(system, events)
    if args.format == "table":
        def table(write):
            for point, (_, models) in enumerate(trace.points()):
                ev = event_to_record(trace.events[point]) if point < len(trace.events) else None
                write(f"point {point}  event={ev}\n")
                for agent_id, model in zip(trace.agent_ids, models):
                    write(f"  {agent_id}: {', '.join(str(x) for x in sorted(model))}\n")

        out.defer(table)
    else:
        out.emit(_dump(_header(args, "replay", system.dmax, {"events": len(events)})))
        out.defer(lambda write: write_trace(write, trace))
    out.close()
    return EXIT_OK


def _parse_range(spec: str):
    try:
        lo, hi = spec.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ScenarioError(f"range must look like A:B, got {spec!r}") from None
    if hi < lo:
        raise ScenarioError(f"empty range: {spec!r}")
    return range(lo, hi + 1)


def cmd_sweep(args) -> int:
    if args.param == "n" and not _CHAIN_RE.match(args.scenario.strip()):
        raise ScenarioError(f"--param n sweeps a chain(N) scenario, got {args.scenario!r}")
    values = _parse_range(args.range)
    scenario = load_scenario(args.scenario)
    families = scenario.families()
    out = _Output(args.out)
    rows = []
    # A chain(N) scenario's bound is its length, so both parameters build
    # the same systems, each row's grounded on top of the last row's.
    for value, system in zip(values, scenario.systems(values)):
        trace = _run_trace(scenario, system, args)
        v = verdict(system, trace, families=families)
        rows.append({
            "record": "sweep-row",
            "param": args.param,
            "value": value,
            "io_nodes": len(system.io_atoms),
            "rounds_to_fixpoint": rounds_to_fixpoint(trace),
            "fixpoint": v.fixpoint_point is not None,
            "horizon_exceeded": v.horizon_exceeded,
            "divergence": [r.family for r in v.divergence],
        })
    if args.format == "table":
        out.emit(f"{'value':>6} {'io_nodes':>9} {'rounds':>7} {'fixpoint':>9} {'divergence'}")
        for r in rows:
            out.emit(
                f"{r['value']:>6} {r['io_nodes']:>9} {str(r['rounds_to_fixpoint']):>7} "
                f"{str(r['fixpoint']):>9} {','.join(r['divergence']) or '-'}"
            )
    else:
        out.emit(_dump(_header(args, "sweep", scenario.domain.distance_max, {
            "param": args.param,
            "range": args.range,
            "seed": args.seed,
            "policy": args.policy,
        })))
        for r in rows:
            out.emit(_dump(r))
    out.close()
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    scenario, system = _load(args)
    out = _Output(args.out)
    trace = run_fair(
        system,
        env_schedule=scenario.schedule,
        max_rounds=args.rounds,
        prefix_events=scenario.script,
    )
    # EDB and IN lie in HBE and HIN, which lie in the agent's universe, so
    # each agent is above the cap (None here) at every point or at none.
    idbs = [a.idb if len(a.universe) <= args.cap else None for a in system.agents]
    mismatches = 0
    skipped = 0
    checked = 0
    for point, (gs, computed_models) in enumerate(trace.points()):
        for agent, idb, s, computed in zip(system.agents, idbs, gs, computed_models):
            if idb is None:
                skipped += 1
                continue
            models = stable_models_bruteforce(idb.with_facts(s.edb | s.indb), cap=args.cap)
            checked += 1
            if len(models) != 1 or models[0] != computed:
                mismatches += 1
                out.emit(_dump({
                    "record": "mismatch",
                    "point": point,
                    "agent": agent.id,
                    "bruteforce_models": len(models),
                    "computed": _atoms_list(computed),
                    "expected": _atoms_list(models[0]) if len(models) == 1 else None,
                }))
    out.emit(_dump({
        "record": "oracle-check",
        "scenario": args.scenario,
        "points": len(trace.events) + 1,
        "checked": checked,
        "skipped_above_cap": skipped,
        "mismatches": mismatches,
    }))
    out.close()
    return EXIT_OK if mismatches == 0 else EXIT_INCONCLUSIVE


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentlog",
        description="Simulate and analyze push-based deductive-database agent systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, runnable=False, formatted=True, bounded=True):
        p.add_argument("scenario", help="builtin name (example3, routing5, "
                       "routing5-example6-script, chain(N)) or scenario file path")
        if bounded:
            p.add_argument("--dmax", type=int, default=None, help="ground at this integer bound")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        if formatted:
            p.add_argument("--format", choices=("ndrecords", "table"), default="ndrecords")
        if runnable:
            p.add_argument("--max-rounds", type=_int_at_least(0), default=None, dest="max_rounds")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--policy", choices=("round-robin", "shuffled"), default="round-robin")

    p = sub.add_parser("analyze", help="classification and IO-finiteness probe")
    common(p)
    p.add_argument("--probe-delta", type=_int_at_least(1), default=2, dest="probe_delta")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="scripted prefix plus fair rounds, trace and verdict")
    common(p, runnable=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="replay the explicit event script only")
    common(p)
    p.add_argument("--events", default=None, help="replay events from an exported trace file")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("sweep", help="rerun across a parameter range")
    common(p, runnable=True, bounded=False)  # --range sets each row's bound
    p.add_argument("--param", choices=("dmax", "n"), required=True)
    p.add_argument("--range", required=True, help="inclusive range A:B")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", help="cross-check agent models against brute force")
    common(p, formatted=False)  # its output is always records
    p.add_argument("--cap", type=_int_at_least(0), default=20)
    p.add_argument("--rounds", type=_int_at_least(0), default=2)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Free argparse's cycles, then pause the collector for the command.
    gc.collect(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    # A cycle met where validation proved none, or a broken invariant
    # (a RuntimeError), is a fault of the program, not of its input.
    except (CyclicProgramError, RuntimeError) as exc:
        print(f"agentlog: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ScenarioError, ValidationError, ValueError, OSError) as exc:
        print(f"agentlog: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
