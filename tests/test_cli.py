"""End-to-end tests of the command-line interface."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agentlog
from agentlog import scenarios
from agentlog.cli import main
from agentlog.logic import AcyclicPlan, Atom, CyclicProgramError
from agentlog.scenarios import Topology, load_scenario, routing_scenario_text

from .reference import parse_atom


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_analyze_example3(capsys):
    code, out, _ = run_cli(capsys, "analyze", "example3")
    assert code == 0
    cls = next(r for r in records(out) if r["record"] == "classification")
    assert cls["io_acyclic"] is False
    assert cls["bounded"] is True
    assert cls["idb_acyclic"] is False


def test_analyze_routing5(capsys):
    code, out, _ = run_cli(capsys, "analyze", "routing5")
    assert code == 0
    cls = next(r for r in records(out) if r["record"] == "classification")
    assert cls["io_acyclic"] is True
    assert cls["io_finite"] is False
    rows = [r for r in records(out) if r["record"] == "sweep"]
    assert len(rows) == 2 and rows[1]["io_nodes"] > rows[0]["io_nodes"]


def test_analyze_reports_a_union_cycle_outside_the_io_graph(capsys):
    # A clause may read an atom outside its agent's atom base, so a cycle
    # of the union IDB can miss every I/O atom: both flags as measured.
    path = str(Path(__file__).parent / "data" / "cycle-outside-io.scenario")
    code, out, err = run_cli(capsys, "analyze", path)
    assert (code, err) == (0, "")
    cls = next(r for r in records(out) if r["record"] == "classification")
    assert (cls["io_acyclic"], cls["idb_acyclic"], cls["io_nodes"]) == (True, False, 0)
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    assert records(out)[-1]["reference_model"] == []


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("[agent A1]\nidb:\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("old, new, where", [
    ("sp(X,Y,D2), D2 < D.", "sp(X,Y,D2), D2 < X.", "line 15: agent A1: "),
    ("hin: sp(A2,Y,D) where Y != A1;", "hin: sp(A2,Y,D) where Y < D;", "line 17: "),
], ids=("clause", "where"))
def test_less_than_between_integer_and_node_rejected(tmp_path, capsys, old, new, where):
    text = (Path(agentlog.__file__).parent / "data" / "routing5.scenario").read_text()
    assert old in text
    bad = tmp_path / "mixed.scenario"
    bad.write_text(text.replace(old, new, 1))
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"agentlog: error: {where}'<' between an integer and a node")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("old, new, line", [
    ("sp(A1,A1,0).", "sp(A1,A1,Z).", 11),
    ("not spl(A1,Y,D+1).", "not spl(A1,Z,D+1).", 13),
    ("sp(A1,Y,D) :- spt(A1,Y,X,D).", "sp(A1,Y,D) :-\n    spt(A1,Z,X,D).", 12),
], ids=("first", "middle", "two-line"))
def test_a_clause_error_names_the_line_the_clause_starts_on(tmp_path, capsys, old, new, line):
    text = (Path(agentlog.__file__).parent / "data" / "routing5.scenario").read_text()
    assert old in text
    bad = tmp_path / "undeclared.scenario"
    bad.write_text(text.replace(old, new, 1))
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert (code, out, err) == (2, "", f"agentlog: error: line {line}: agent A1: undeclared symbol: 'Z'\n")


_PROBE_INVALID = {
    "cyclic": ("""\
[domain]
nodes:
dmax: 4

[agent A1]
idb:
  p(5) :- p(5).
""", "agent A1: IDB is not acyclic"),
    "producer": ("""\
[domain]
nodes:
dmax: 4
var int: X

[agent A1]
idb:
  q :- r(X).
hin: r(X); t(5)

[agent A2]
idb:
  r(X) :- s(X).
hbe: s(X)
""", "agent A1: no producer for input atoms: t(5)"),
    "definitions": ("""\
[domain]
nodes:
dmax: 4
var int: X

[agent A1]
idb:
  p(X) :- q(X).
hbe: q(X)

[agent A2]
idb:
  p(X) :- q(X).
  p(5) :- r(5).
hbe: q(X); r(X)
""", "atom p(5) has different definitions in A1 and A2"),
}


@pytest.mark.parametrize("case", sorted(_PROBE_INVALID))
def test_analyze_refuses_a_probe_bound_that_breaks_validation(tmp_path, capsys, case):
    # Each scenario is valid at dmax 4 and breaks one check once the
    # constant 5 is in range, so only the probe at dmax + delta sees it.
    text, violation = _PROBE_INVALID[case]
    path = tmp_path / f"{case}.scenario"
    path.write_text(text)
    assert run_cli(capsys, "analyze", str(path), "--dmax", "3", "--probe-delta", "1")[0] == 0
    for argv in ([], ["--probe-delta", "1"], ["--format", "table"]):
        code, out, err = run_cli(capsys, "analyze", str(path), *argv)
        assert (code, out, err) == (2, "", f"agentlog: error: {violation}\n")


def test_ambiguous_track_family_is_an_input_error(tmp_path, capsys):
    # The family comes from the scenario's ``track:`` line, and here it
    # matches p(0) and p(1) in A1's model at the first point.
    path = tmp_path / "ambiguous.scenario"
    path.write_text("""\
[domain]
nodes:
dmax: 2
var int: D

[agent A1]
idb:
  p(0).
  p(1).

[events]
track: p(D)
""")
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "agentlog: error: ambiguous family p(*): [0, 1] at one point\n")


# S senses which of B1..B4 holds q and passes it on as r; W derives p
# from r.  The schedule moves q from B1 to B4 one node per round.
_MOVING_TARGET = """\
[domain]
nodes: B1 B2 B3 B4
dmax: 2
var node: X
var int: D

[agent S]
idb:
  r(X) :- q(X).
hbe: q(X)
edb: q(B1)

[agent W]
idb:
  p(X) :- r(X).
hin: r(X)

[events]
@round 1: fail q(B1)
@round 1: restore q(B2)
@round 2: fail q(B2)
@round 2: restore q(B3)
@round 3: fail q(B3)
@round 3: restore q(B4)
"""


def test_moving_target_run_reaches_the_reference_model(tmp_path, capsys):
    path = tmp_path / "moving.scenario"
    path.write_text(_MOVING_TARGET)
    code, out, _ = run_cli(capsys, "run", str(path))
    v = records(out)[-1]
    assert code == 0 and v["divergence"] == []
    assert v["convergence_model"] == v["reference_model"] == ["p(B4)", "q(B4)", "r(B4)"]


@pytest.mark.parametrize("track, message", [
    ("p(X)", "track pattern's variable X is not an integer variable: p(X)"),
    ("p(X) where X != B1", "track pattern may not carry constraints: p(X) where X != B1"),
    ("p(B1)", "track pattern needs exactly one variable slot: p(B1)"),
], ids=("node-slot", "constraints", "no-slot"))
@pytest.mark.parametrize("argv", [
    ("analyze",), ("run",), ("replay",), ("oracle-check",), ("sweep", "--param", "dmax", "--range", "1:2"),
], ids=lambda argv: argv[0])
def test_bad_track_line_is_refused_by_every_command(tmp_path, capsys, track, message, argv):
    # Over a node variable the probe would rank node names as strings
    # and report the moving target as a divergence.
    path = tmp_path / "track.scenario"
    path.write_text(_MOVING_TARGET + f"track: {track}\n")
    line = _MOVING_TARGET.count("\n") + 1
    assert run_cli(capsys, argv[0], str(path), *argv[1:]) == (
        2, "", f"agentlog: error: line {line}: {message}\n")


def test_name_declared_as_node_and_variable_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "overlap.scenario"
    path.write_text("""\
[domain]
nodes: A D
dmax: 2
var int: D

[agent A]
idb:
  p(D) :- q(D).
hbe: q(D)
""")
    for command in ("analyze", "run", "replay", "oracle-check"):
        assert run_cli(capsys, command, str(path)) == (
            2, "", "agentlog: error: line 4: names declared both as nodes and as variables: D\n")


@pytest.mark.parametrize("domain, message", [
    ("nodes: A B\nvar node: X\nvar int: D\n  B\n",
     "line 5: names declared both as nodes and as variables: B"),
    ("nodes: A\n\ndmax: x\n", "line 4: dmax must be an integer, got 'x'"),
    ("nodes: A\nvar node: X, D\nvar int:\n  D\n", "line 5: variables declared with two types: D"),
    ("nodes: A\ndmax: -1\n", "line 3: distance_max must be >= 0"),
])
def test_domain_errors_name_the_line_of_the_key_at_fault(tmp_path, capsys, domain, message):
    # A file is parsed at its own dmax, so another bound does not save it.
    path = tmp_path / "domain.scenario"
    path.write_text(f"[domain]\n{domain}\n[agent A]\nhbe: q\n")
    for bound in ([], ["--dmax", "3"]):
        assert main(["analyze", str(path), *bound]) == 2
        assert capsys.readouterr() == ("", f"agentlog: error: {message}\n")


@pytest.mark.parametrize("command, label", [("replay", "event"), ("run", "prefix event")])
def test_send_to_an_agent_that_does_not_depend_on_the_sender_is_refused(
    tmp_path, capsys, command, label
):
    # A1 depends on A2, so the first send is valid; A2 depends on no one.
    path = tmp_path / "bad-send.scenario"
    path.write_text("""\
[domain]
nodes:

[agent A1]
idb:
  a :- b.
hin: b

[agent A2]
idb:
  b.

[events]
send A2 -> A1.
send A1 -> A2.
""")
    assert run_cli(capsys, command, str(path)) == (
        2, "", f"agentlog: error: {label} 1: A2 does not depend on A1\n")


def test_run_example3_not_weakly_stabilizing(capsys):
    code, out, _ = run_cli(capsys, "run", "example3")
    assert code == 0  # fixpoint reached, no divergence tracked
    v = next(r for r in records(out) if r["record"] == "verdict")
    assert v["weakly_stabilizing_witnessed"] is False
    assert v["stabilized_edb"] == ["c", "d"]
    assert v["reference_model"] == ["c", "d"]


def test_run_routing5_reaches_fixpoint(capsys):
    code, out, _ = run_cli(capsys, "run", "routing5", "--max-rounds", "10")
    assert code == 0
    v = next(r for r in records(out) if r["record"] == "verdict")
    assert v["fixpoint_point"] is not None
    assert v["divergence"] == []


def test_run_example6_divergence_exit_code(capsys):
    code, out, _ = run_cli(capsys, "run", "routing5-example6-script")
    assert code == 3
    v = next(r for r in records(out) if r["record"] == "verdict")
    assert v["horizon_exceeded"] is True
    assert any(hit["agent"] == "A1" for d in v["divergence"] for hit in d["hits"])


def test_replay_example3_table(capsys):
    code, out, _ = run_cli(capsys, "replay", "example3")
    assert code == 0
    points = [r for r in records(out) if r["record"] == "point"]
    assert len(points) == 6
    assert points[1]["agents"]["A1"]["model"] == ["a", "b", "c", "f"]
    assert points[3]["agents"]["A2"]["model"] == ["a", "b", "d"]


def test_replay_empty_script(tmp_path, capsys):
    from agentlog.scenarios import builtin_scenario, serialize_scenario, Scenario

    sc = builtin_scenario("example3")
    bare = Scenario(
        domain=sc.domain, agents=sc.agents,
        script=(), schedule=(), max_rounds=None, track=(), output=sc.output,
    )
    path = tmp_path / "bare.scenario"
    path.write_text(serialize_scenario(bare))
    code, out, _ = run_cli(capsys, "replay", str(path))
    assert code == 0
    points = [r for r in records(out) if r["record"] == "point"]
    assert len(points) == 1


def test_replay_from_exported_trace(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", "example3", "--out", str(tmp_path / "trace.ndjson"))
    assert code == 0
    text = (tmp_path / "trace.ndjson").read_text()
    code, out2, _ = run_cli(capsys, "replay", "example3", "--events", str(tmp_path / "trace.ndjson"))
    assert code == 0
    original_points = [l for l in text.splitlines() if '"record":"point"' in l]
    replayed_points = [l for l in out2.splitlines() if '"record":"point"' in l]
    assert replayed_points == original_points


@pytest.mark.parametrize("event", [
    {"from": "A2", "to": "A1"},
    {"type": "send", "from": "A2"},
    {"type": "env", "true": [5], "false": []},
    None,
])
def test_replay_rejects_malformed_events(tmp_path, capsys, event):
    # The second line holds an event without a type, a send without a
    # receiver, an env event whose atom is a number, or no object at all.
    good = {"record": "point", "point": 0, "event": {"type": "send", "from": "A2", "to": "A1"}}
    bad = [1] if event is None else dict(good, point=1, event=event)
    path = tmp_path / "events.ndjson"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code, out, err = run_cli(capsys, "replay", "example3", "--events", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("agentlog: error: line 2: ")


@pytest.mark.parametrize("argv", [
    ["run", "chain(300)"],
    ["replay", "routing5-example6-script"],
    ["replay", "routing5-example6-script", "--format", "table"],
    ["replay", str(Path(__file__).parent / "data" / "unicode-order.scenario"), "--format", "table"],
], ids=["run-chain300", "replay-ex6", "replay-ex6-table", "replay-unicode-table"])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    path = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert (code, err) == (0, "") and out
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("event", [{"type": "send", "from": "ZZ", "to": "A1"}, {"type": "send"}])
def test_a_failing_command_leaves_its_out_file_untouched(tmp_path, capsys, event):
    # An unknown agent is found while replaying, a malformed event while
    # reading: both after the events file is open, before any output.
    events = tmp_path / "events.ndjson"
    events.write_text(json.dumps({"record": "point", "point": 0, "event": event}) + "\n")
    path = tmp_path / "out.ndjson"
    path.write_bytes(b"earlier output\r\n")
    for fmt in ("ndrecords", "table"):
        code, out, err = run_cli(capsys, "replay", "example3", "--events", str(events),
                                 "--format", fmt, "--out", str(path))
        assert (code, out) == (2, "") and err.startswith("agentlog: error: ")
        assert path.read_bytes() == b"earlier output\r\n"


@pytest.mark.parametrize("sender, receiver", [("ZZ", "A1"), ("A2", "ZZ")])
def test_replay_rejects_a_send_naming_an_unknown_agent(tmp_path, capsys, sender, receiver):
    good = {"type": "send", "from": "A2", "to": "A1"}
    lines = [{"record": "point", "point": k, "event": event}
             for k, event in enumerate([good, dict(good, **{"from": sender, "to": receiver})])]
    path = tmp_path / "events.ndjson"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, err = run_cli(capsys, "replay", "routing5", "--events", str(path))
    assert (code, out) == (2, "")
    assert err == "agentlog: error: event 1: unknown agent ZZ\n"


def _failing(tmp_path, *atoms) -> str:
    """An events file of one point, whose event fails ``atoms``."""
    event = {"type": "env", "true": [], "false": list(atoms)}
    path = tmp_path / f"fail-{len(list(tmp_path.iterdir()))}.ndjson"
    path.write_text(json.dumps({"record": "point", "point": 0, "event": event}) + "\n")
    return str(path)


def test_replay_reads_a_reversed_link_in_an_events_file_as_the_canonical_one(tmp_path, capsys):
    # Events-file atoms are read against the domain, as script atoms are:
    # link is symmetric, so link(A2,A1) is link(A1,A2).
    reversed_, canonical = (
        run_cli(capsys, "replay", "routing5", "--events", _failing(tmp_path, x))
        for x in ("link(A2,A1)", "link(A1,A2)"))
    assert reversed_ == canonical and canonical[0] == 0 and canonical[2] == ""
    from agentlog.scenarios import builtin_scenario, serialize_scenario

    script = tmp_path / "script.scenario"
    script.write_text(serialize_scenario(builtin_scenario("routing5")) + "\n[events]\nfail link(A2,A1).\n")
    code, out, err = run_cli(capsys, "replay", str(script))
    assert (code, err) == (0, "")
    points = [r for r in records(out) if r["record"] == "point"]
    assert points == [r for r in records(canonical[1]) if r["record"] == "point"]
    assert points[0]["event"] == {"type": "env", "true": [], "false": ["link(A1,A2)"]}


@pytest.mark.parametrize("text, error", [
    ("link(A1,A9)", "line 1: undeclared symbol: 'A9'"),
    ("link(A1,X)", "line 1: atom must be ground: 'link(A1,X)'"),
    ("sp(A1,A2,99)", "line 1: integer argument out of range in 'sp(A1,A2,99)'"),
    ("sp(A1,A2,1)", "event 0: environment change touches non-environment atoms: sp(A1,A2,1)"),
], ids=("undeclared", "variable", "out-of-range", "not-environment"))
def test_replay_refuses_an_events_file_atom_outside_the_domain_while_reading(tmp_path, capsys,
                                                                             text, error):
    # What the domain does not declare is refused with the line, before
    # any atom is made; a declared atom that is not sensed, at replay.
    assert run_cli(capsys, "replay", "routing5", "--events", _failing(tmp_path, text)) == (
        2, "", f"agentlog: error: {error}\n")
    assert ("A1", "A9") not in Atom._table["link"]


def test_replay_reads_an_events_file_at_the_commands_bound(tmp_path, capsys):
    # An export is written at the command's bound: d(6) is an atom at
    # --dmax 7 and not at the file's own dmax 5.
    path = str(DATA / "event-at-dmax.scenario")
    events = _failing(tmp_path, "d(6)")
    code, out, err = run_cli(capsys, "replay", path, "--events", events, "--dmax", "7")
    assert (code, err) == (0, "")
    assert records(out)[1]["event"] == {"type": "env", "true": [], "false": ["d(6)"]}
    assert run_cli(capsys, "replay", path, "--events", events) == (
        2, "", "agentlog: error: line 1: integer argument out of range in 'd(6)'\n")


def test_run_and_sweep_never_build_the_trace_snapshots(monkeypatch, capsys):
    from agentlog.runtime import Trace

    def refuse(trace):
        raise AssertionError("a snapshot of every point was built")

    monkeypatch.setattr(Trace, "points", refuse)
    for argv in (
        ["run", "routing5-example6-script"],
        ["run", "routing5", "--format", "table"],
        ["run", "chain(6)", "--policy", "shuffled", "--seed", "2"],
        ["sweep", "chain(1)", "--param", "n", "--range", "1:6"],
        ["sweep", "routing5", "--param", "dmax", "--range", "3:4"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 3) and out and err == "", argv


def test_negative_max_rounds_in_a_file_rejected(tmp_path, capsys):
    from agentlog.scenarios import builtin_scenario, serialize_scenario

    text = serialize_scenario(builtin_scenario("routing5-example6-script"))
    line = text.splitlines().index("max_rounds: 8") + 1
    path = tmp_path / "negative.scenario"
    path.write_text(text.replace("max_rounds: 8", "max_rounds: -4"))
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err == f"agentlog: error: line {line}: max_rounds must be at least 0, got -4\n"
    path.write_text(text.replace("max_rounds: 8", "max_rounds: 0"))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 3 and records(out)[0]["max_rounds"] == 0


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "run", "routing5", "--max-rounds", "8", "--policy", "shuffled", "--seed", "3")
    _, out2, _ = run_cli(capsys, "run", "routing5", "--max-rounds", "8", "--policy", "shuffled", "--seed", "3")
    assert out1 == out2


def test_sweep_chain_rounds_increase(capsys):
    code, out, _ = run_cli(capsys, "sweep", "chain(1)", "--param", "n", "--range", "1:5")
    assert code == 0
    rows = [r for r in records(out) if r["record"] == "sweep-row"]
    rounds = [r["rounds_to_fixpoint"] for r in rows]
    assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)


def test_sweep_chain_same_rows_under_either_param(capsys):
    # A chain(N) scenario's bound is its length, so --param n and --param
    # dmax build the same systems.
    rows = {}
    for param in ("n", "dmax"):
        code, out, _ = run_cli(capsys, "sweep", "chain(1)", "--param", param, "--range", "1:6")
        assert code == 0
        rows[param] = [{k: v for k, v in r.items() if k != "param"} for r in records(out)]
    assert len(rows["n"]) == 7
    assert rows["n"] == rows["dmax"]


@pytest.mark.parametrize("name", ["routing5", "example3"])
def test_sweep_param_n_needs_a_chain(capsys, name):
    # --param n builds chain(N) systems, so any other scenario is refused
    # rather than named in a header above chain rows.
    code, out, err = run_cli(capsys, "sweep", name, "--param", "n", "--range", "1:2")
    assert (code, out) == (2, "")
    assert err == f"agentlog: error: --param n sweeps a chain(N) scenario, got {name!r}\n"


def test_sweep_routing_dmax_constant_outputs(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "routing5", "--param", "dmax", "--range", "4:6", "--max-rounds", "10"
    )
    assert code == 0
    rows = [r for r in records(out) if r["record"] == "sweep-row"]
    assert len(rows) == 3
    assert all(r["fixpoint"] for r in rows)
    # I/O graph keeps growing with dmax even though outputs are stable.
    sizes = [r["io_nodes"] for r in rows]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


def test_sweep_refuses_dmax(capsys):
    # --range sets each row's bound, so a --dmax would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "routing5", "--param", "dmax", "--range", "3:3", "--dmax", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dmax 9" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv", [
    ("sweep", str(DATA / "oracle-facts.scenario"), "--param", "dmax", "--range", "0:3"),
    ("sweep", "chain(1)", "--param", "n", "--range", "1:20"),
], ids=("file", "chain"))
def test_sweep_parses_its_scenario_once(monkeypatch, capsys, argv):
    parsed = []
    parse = scenarios.parse_scenario
    monkeypatch.setattr(scenarios, "parse_scenario",
                        lambda *args, **kwargs: parsed.append(args) or parse(*args, **kwargs))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and len(parsed) == 1


def test_analyze_probes_the_scenario_it_shaped(monkeypatch, capsys):
    # One parsed scenario gives both bounds, and each agent is grounded at
    # the probe's bound on top of its tables at the first.
    shaped, grounded = [], []
    shapes, spec = scenarios.Scenario.shapes, scenarios._agent_spec

    def recording(self, bounds):
        bounds = list(bounds)
        shaped.append((self, bounds))
        return shapes(self, bounds)

    def grounding(ad, dom, clauses, floor=None, last=None):
        grounded.append((dom.distance_max, floor, last is not None))
        return spec(ad, dom, clauses, floor, last)

    monkeypatch.setattr(scenarios.Scenario, "shapes", recording)
    monkeypatch.setattr(scenarios, "_agent_spec", grounding)
    code, out, _ = run_cli(capsys, "analyze", "routing5", "--dmax", "4", "--probe-delta", "3")
    assert code == 0 and [bounds for _, bounds in shaped] == [[4, 7]]
    assert grounded == [(4, None, False)] * 5 + [(7, 4, True)] * 5


@pytest.mark.parametrize("argv, dmax, values", [
    (("sweep", "routing5", "--param", "dmax", "--range", "3:5"), 6, [3, 4, 5]),
    (("sweep", "chain(7)", "--param", "n", "--range", "1:2"), 7, [1, 2]),
], ids=("dmax", "n"))
def test_sweep_header_describes_the_parsed_scenario(capsys, argv, dmax, values):
    # The header names the scenario as parsed, at its own bound, beside
    # the parameter and the range that give each row's bound.
    code, out, _ = run_cli(capsys, *argv)
    header, *rows = records(out)
    assert code == 0 and header["record"] == "header"
    assert (header["scenario"], header["dmax"], header["param"], header["range"]) == (
        argv[1], dmax, argv[3], argv[5])
    assert [r["value"] for r in rows] == values


def test_dmax_grounds_chain_n_as_the_chain_of_that_length(capsys):
    # Only the header, which echoes the scenario's name, differs.
    _, three, _ = run_cli(capsys, "run", "chain(3)", "--dmax", "5")
    _, five, _ = run_cli(capsys, "run", "chain(5)")
    assert three.split("\n", 1)[1] == five.split("\n", 1)[1]


@pytest.mark.parametrize("name", ["chain(3)", "example3"])
def test_a_negative_dmax_is_refused_by_the_domain(capsys, name):
    assert run_cli(capsys, "run", name, "--dmax", "-1") == (
        2, "", "agentlog: error: distance_max must be >= 0\n")


def test_an_event_atom_is_read_at_the_files_own_dmax(capsys):
    # d(4) lies above the file's dmax 3, so no --dmax brings it in range.
    path = str(DATA / "event-above-dmax.scenario")
    assert run_cli(capsys, "run", path, "--dmax", "5") == (
        2, "", "agentlog: error: line 15: integer argument out of range in 'd(4)'\n")


@pytest.mark.parametrize("argv, label", [
    (("run", "--dmax", "2"), "prefix event"),
    (("replay", "--dmax", "2"), "event"),
    (("oracle-check", "--dmax", "2"), "prefix event"),
    (("sweep", "--param", "dmax", "--range", "2:3"), "prefix event"),
], ids=("run", "replay", "oracle-check", "sweep"))
def test_an_event_above_a_lower_dmax_is_refused_where_it_is_run(capsys, argv, label):
    path = str(DATA / "event-at-dmax.scenario")
    assert run_cli(capsys, argv[0], path, *argv[1:]) == (
        2, "", f"agentlog: error: {label} 0: environment change touches non-environment atoms: d(4)\n")


def test_analyze_reads_no_event_at_a_lower_dmax(capsys):
    code, out, err = run_cli(capsys, "analyze", str(DATA / "event-at-dmax.scenario"), "--dmax", "2")
    assert (code, err) == (0, "") and records(out)[0]["dmax"] == 2


def test_sweep_single_value(capsys):
    code, out, _ = run_cli(capsys, "sweep", "chain(1)", "--param", "n", "--range", "3:3")
    assert code == 0
    rows = [r for r in records(out) if r["record"] == "sweep-row"]
    assert len(rows) == 1


def test_oracle_check_example3(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "example3")
    assert code == 0
    summary = next(r for r in records(out) if r["record"] == "oracle-check")
    assert summary["mismatches"] == 0
    assert summary["checked"] > 0


def test_oracle_check_skips_large_universes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "routing5", "--rounds", "1")
    assert code == 0
    summary = next(r for r in records(out) if r["record"] == "oracle-check")
    assert summary["skipped_above_cap"] > 0
    assert summary["checked"] == 0


def test_oracle_check_builds_no_program_for_an_agent_above_the_cap(monkeypatch, capsys):
    # chain(2)'s A1 has 7 atoms and A2 has 6, so --cap 6 checks A2 alone.
    from agentlog.agents import AgentSpec

    built = []
    idb = AgentSpec.idb
    monkeypatch.setattr(AgentSpec, "idb", property(lambda a: built.append(a.id) or idb.fget(a)))
    code, out, _ = run_cli(capsys, "oracle-check", "chain(2)", "--cap", "6")
    summary = records(out)[-1]
    assert (code, summary["mismatches"]) == (0, 0)
    assert summary["skipped_above_cap"] > 0 and summary["checked"] > 0
    assert set(built) == {"A2"}


def test_oracle_check_detects_injected_fault(monkeypatch, capsys):
    # A brute force that drops the least atom of each model disagrees with
    # every nonempty computed model.
    bruteforce = agentlog.cli.stable_models_bruteforce

    def wrong(program, cap):
        return [m - {min(m)} if m else m for m in bruteforce(program, cap=cap)]

    monkeypatch.setattr(agentlog.cli, "stable_models_bruteforce", wrong)
    code, out, _ = run_cli(capsys, "oracle-check", "example3")
    assert code == 3
    summary = next(r for r in records(out) if r["record"] == "oracle-check")
    assert summary["mismatches"] > 0
    assert any(r["record"] == "mismatch" for r in records(out))


def test_oracle_check_lists_mismatched_models_in_atom_order(monkeypatch, capsys):
    # A brute force that answers with the whole universe disagrees with
    # every model; r(10) must come after r(2) in both lists.
    def whole_universe(program, cap):
        return [program.universe]

    monkeypatch.setattr(agentlog.cli, "stable_models_bruteforce", whole_universe)
    code, out, _ = run_cli(capsys, "oracle-check", "chain(12)", "--cap", "30")
    assert code == 3
    mismatches = [r for r in records(out) if r["record"] == "mismatch"]
    assert mismatches
    for r in mismatches:
        for listed in (r["computed"], r["expected"]):
            atoms = [parse_atom(x) for x in listed]
            assert atoms == sorted(atoms, key=Atom.sort_key)
    assert any("r(10)" in r["expected"] for r in mismatches)


def test_oracle_check_enumerates_no_fact_atom(capsys):
    # 18 of the agent's 20 atoms are sensed facts; only the two derived
    # heads are enumerated.
    path = str(Path(__file__).parent / "data" / "oracle-facts.scenario")
    code, out, err = run_cli(capsys, "oracle-check", path)
    assert (code, err) == (0, "")
    summary = records(out)[-1]
    assert (summary["checked"], summary["skipped_above_cap"], summary["mismatches"]) == (1, 0, 0)


def test_oracle_check_refuses_inject_fault(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "example3", "--inject-fault"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "example3", "--bogus"])


def test_oracle_check_takes_no_format(capsys):
    # Its output is records whatever --format says, so the flag is refused.
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "example3", "--format", "table"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format table" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "example3", "--max-rounds", "-1"],
    ["sweep", "chain(1)", "--param", "n", "--range", "1:2", "--max-rounds", "-3"],
    ["run", "example3", "--max-rounds", "two"],
    ["analyze", "example3", "--probe-delta", "0"],
    ["analyze", "example3", "--probe-delta", "-2"],
    ["oracle-check", "example3", "--cap", "-1"],
    ["oracle-check", "example3", "--rounds", "-3"],
])
def test_out_of_range_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert any(flag in err for flag in ("--max-rounds", "--probe-delta", "--cap", "--rounds"))


def test_smallest_flag_values_accepted(capsys):
    code, out, _ = run_cli(capsys, "run", "example3", "--max-rounds", "0")
    assert code == 3
    assert records(out)[-1]["horizon_exceeded"] is True
    code, out, _ = run_cli(capsys, "analyze", "example3", "--probe-delta", "1")
    assert code == 0
    assert [r["dmax"] for r in records(out) if r["record"] == "sweep"] == [0, 1]


@pytest.mark.parametrize("argv", [
    ["run", "routing5", "--policy", "shuffled", "--seed", "3"],
    ["run", "chain(20)"],
    ["analyze", "routing5-example6-script"],
    ["replay", "routing5-example6-script"],
    ["run", "routing5-example6-script"],
    ["sweep", "chain(1)", "--param", "n", "--range", "1:20", "--policy", "shuffled"],
    ["oracle-check", "routing5"],
])
def test_stdout_identical_across_hash_seeds(argv):
    # Atoms hash by address, so set order can differ between processes
    # even at one PYTHONHASHSEED; every listing must still be sorted.
    src = str(Path(agentlog.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = []
    try:
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            procs.append(subprocess.Popen([sys.executable, "-m", "agentlog.cli", *argv],
                                          stdout=subprocess.PIPE, env=env))
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert all(proc.returncode in (0, 3) for proc in procs)
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


# Exit code and sha256 of stdout of each command.  A refactor must leave
# this table as it is; only a deliberate change of the output edits it.
_PINNED_OUTPUT = [
    ("analyze example3 --format ndrecords", 0, "7cbcc9b35b534758a706c23510578a9f455fbeba8d6053267fe99b50cd27d74d"),
    ("analyze example3 --format table", 0, "e4576a61ceb3f1cc213801959d58712c3529087ddf67f7ebbc945baf93eb9102"),
    ("run example3 --format ndrecords", 0, "d1a38f080ac1ff1d902c82de1f7be82040b75f9472fbf99efaf24248643674d7"),
    ("run example3 --format table", 0, "59f72ad1d7820b3e93957139cffcd8a3fe9b77464dacaebf358ace4680eca3ec"),
    ("replay example3 --format ndrecords", 0, "040a7012d0c5d61d0efcb00a6d37f97808d943c1fbc6893f6249c407d39dde34"),
    ("replay example3 --format table", 0, "1f42c6004a395bea22332f84b23000eaf4597934da998469c5bd440878df3b38"),
    ("analyze routing5 --format ndrecords", 0, "63ecc9424d10b1246326080d6cf5cbbc0128e1d9cb6047003bfa8fbed1377b0b"),
    ("analyze routing5 --format table", 0, "bafe140f4f94fd3adcb00d9eaf5f9018e8917178dbf5f1902a52f8c0e5ac7f85"),
    ("run routing5 --format ndrecords", 0, "3ac44551331ffcff5b8960a1c1fef579605293ceb386641cfa666b5d8d986fdc"),
    ("run routing5 --format table", 0, "8db1873dc6d7ee79a26a97cbd25276cacbb83df3bbe0dff685dbd71cfa1dc113"),
    ("replay routing5 --format ndrecords", 0, "a3e8decdd925bd98276b6c69141e07bfcbd759f0a9aaf2f93bdb1e5dc8c25276"),
    ("replay routing5 --format table", 0, "94931a5f97d2ddcb3c99b96693bf56e8c12403608c07b01a156c7ce12899f46f"),
    ("analyze routing5-example6-script --format ndrecords", 0, "85bfc7fc5e51cc34ce2e9ed2097c4b9f57972344cf5936ad53cc61d5d30ba609"),
    ("analyze routing5-example6-script --format table", 0, "ba550feb6fb568d5a5cde4c025743275ff4aab38b05286e724f663eb75741399"),
    # The slowest pair; its table forms are left out to keep the test short.
    ("run routing5-example6-script --format ndrecords", 3, "f5162a34705dac2a624f9f2ceed3dcbc8b57acddee5a4bd086b9c609cd1a0d43"),
    ("replay routing5-example6-script --format ndrecords", 0, "56458302b102648585482e974f95dabe6caa3aae83ca74caf0d2ad07107963be"),
    ("analyze chain(4) --format ndrecords", 0, "000e361c29b869225dba10dc481320469ae855ff0116e611f0de76896ff17f2f"),
    ("analyze chain(4) --format table", 0, "0b8efc5e4807f640d1c15ae42940ed7a45a0ecdd4b62e93dc3248e07b159abc4"),
    ("run chain(4) --format ndrecords", 0, "e8770171079c2947ea8e24a937c8cb7532dfa7ead2fc75e471dc8dad4cd2517a"),
    ("run chain(4) --format table", 0, "5c696f2ad4edd3ba33002743f3aba081e96d8221ece612c4424633af915f07d9"),
    ("replay chain(4) --format ndrecords", 0, "6b935b79fc28922a6324780f4cd36565db74d250a7a49795f5c2ba2f390e88ca"),
    ("replay chain(4) --format table", 0, "df9263b618561450d782ebfb1fe18877686ca47d10ee573a8109ad4b05c0233a"),
    ("run routing5 --policy shuffled --seed 3", 0, "fc6b7a6949f647b6f9fe827700efb2cb05f3cc018f1012d27830086dea8a8760"),
    ("oracle-check example3", 0, "300d664bf7cf75c17780e75d56c32d0f76050f14b39fd7f9f0530a0557d222ed"),
    ("sweep chain(1) --param n --range 1:8", 0, "47518a36f7af38307aa3262ecbbf9fd1edfcf513b9724bcc51b63845c8cff76e"),
    ("sweep routing5 --param dmax --range 3:5", 0, "fe31a21f3c5b6a9ce0fe0d9a43b109b97b1406b0e91843908506e7c8dd2e364b"),
    # Bounds below the node count: integer ranges narrower than the node domain.
    ("sweep routing5 --param dmax --range 0:8", 0, "95c0ec1086573b2cab86477492b218faef8c6b99a743a2ae41a417fc3d6d2cab"),
    ("analyze routing5 --dmax 2", 0, "788fc3ae482fcca90a231196e902454c70dffe3a77b91d42f66ec9216d0e635e"),
    ("run chain(300)", 0, "dabd5ba71ea220dcd60e8aa53b227313cbe1fea0c245b4ab55fe2ff2f7a3fc52"),
    ("run chain(40) --policy shuffled --seed 5", 0, "89f332fc727c9e86a062a0b9fdfcd78c4ea4912342b4c1481e5ad7345331002d"),
    # Named relative to tests/data, the test's working directory: the header echoes the path.
    ("run unicode-order.scenario", 0, "48bcda6ddcd88609c925bf3326835e283ae37ba9050408207a0f66ab4b82a97a"),
    ("replay unicode-order.scenario", 0, "05de67ebe74204aea6e84cc9e54713f25243550d93e39799b0fef8e388b91eba"),
    # Runs without a fixpoint certificate: a schedule still pending at the
    # horizon (no stabilized EDB), a quiet environment with no unchanged
    # round yet, and sweep rows with no rounds to a fixpoint.
    ("run example3 --max-rounds 0", 3, "7ec8eaba6fa8561e92e48818a21c88449248484a1388d5f301cab955302e32d7"),
    ("run example3 --max-rounds 1", 3, "af76d7577f03df410a59ac8b58bf704ad159f318da7e919e7a97844217cbbd7e"),
    ("run example3 --max-rounds 1 --format table", 3, "92ff3d21d4514b5edf58c2e9b635339574dd3d3852d3d99af53e0fc82065bb50"),
    ("sweep chain(1) --param n --range 1:6 --max-rounds 3 --format table", 0,
     "4daf94529742e0fe61c2cccdfff2078270bff4d0de1b298e8422814c9284bff0"),
]


def test_stdout_bytes_pinned(capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent / "data")
    changed = []
    for command, code, digest in _PINNED_OUTPUT:
        got, out, _ = run_cli(capsys, *command.split())
        if (got, hashlib.sha256(out.encode()).hexdigest()) != (code, digest):
            changed.append(command)
    assert changed == []


_DIFFERENT_DEFINITIONS = """\
[domain]
nodes:
dmax: 0

[agent A1]
idb:
  p1 :- c.
  p2 :- c.
  p3 :- c.
  p4 :- c.
  p5 :- c.
hbe: c
edb: c

[agent A2]
idb:
  p1 :- d.
  p2 :- d.
  p3 :- d.
  p4 :- d.
  p5 :- d.
hbe: d
edb: d
"""


def test_validation_errors_identical_across_hash_seeds(tmp_path):
    # Five atoms defined differently by two agents: the violations must be
    # listed in one order, whatever the set order of the process.
    path = tmp_path / "defs.scenario"
    path.write_text(_DIFFERENT_DEFINITIONS)
    src = str(Path(agentlog.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    results = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-m", "agentlog.cli", "analyze", str(path)],
                              capture_output=True, env=env, timeout=120)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    expected = "; ".join(f"atom p{i} has different definitions in A1 and A2" for i in range(1, 6))
    assert results == [(2, b"", f"agentlog: error: {expected}\n".encode())] * 3


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", "example3", "--format", "table")
    assert code == 0
    assert "io_acyclic" in out


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


def test_runtime_error_exits_as_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(agentlog.cli, "classify", _raise(RuntimeError("broken invariant")))
    code, out, err = run_cli(capsys, "analyze", "example3")
    assert (code, out, err) == (1, "", "agentlog: internal error: broken invariant\n")


def test_cyclic_program_error_exits_as_internal_error(monkeypatch, capsys):
    # A ValueError subclass, yet a cycle past validation is the program's fault.
    monkeypatch.setattr(agentlog.cli, "run_fair", _raise(CyclicProgramError("cycle through a")))
    code, out, err = run_cli(capsys, "run", "example3")
    assert (code, out, err) == (1, "", "agentlog: internal error: cycle through a\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("ref, fault, code", [
    ("chain(3)", None, 0),
    ("no-such-scenario", None, 2),
    ("chain(3)", RuntimeError("broken invariant"), 1),
    ("chain(3)", BrokenPipeError(), 0),
    ("chain(3)", KeyError("escapes"), None),
], ids=["ok", "input-error", "internal-error", "broken-pipe", "propagates"])
def test_a_command_pauses_the_collector_and_restores_the_callers_setting(
        monkeypatch, capsys, enabled, ref, fault, code):
    paused = []

    def load(name):
        paused.append(not gc.isenabled())
        if fault is not None:
            raise fault
        return load_scenario(name)

    monkeypatch.setattr(agentlog.cli, "load_scenario", load)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(KeyError):
                main(["run", ref])
        else:
            assert main(["run", ref]) == code
        assert (paused, gc.isenabled()) == ([True], enabled)
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def _cycles_left_by(capsys, *argv):
    gc.collect()
    code = main(list(argv))
    left = gc.collect()
    capsys.readouterr()
    assert code == 0
    return left


@pytest.mark.parametrize("small, large", [
    (("run", "chain(10)"), ("run", "chain(300)")),
    (("sweep", "chain(1)", "--param", "n", "--range", "1:5"),
     ("sweep", "chain(1)", "--param", "n", "--range", "1:60")),
], ids=["run", "sweep"])
def test_a_command_leaves_no_cycles_that_grow_with_its_input(capsys, small, large):
    # The collector is paused while a command runs, so a reference cycle
    # made per atom, clause or event would pile up unseen.  Argparse's
    # cycles are freed before the pause; none are left by these commands.
    assert _cycles_left_by(capsys, *small) == _cycles_left_by(capsys, *large)


def _ring_file(tmp_path, n):
    nodes = tuple(f"R{i}" for i in range(n))
    path = tmp_path / f"ring{n}.scenario"
    path.write_text(routing_scenario_text(
        Topology(nodes, frozenset((nodes[i], nodes[(i + 1) % n]) for i in range(n)))))
    return str(path)


@pytest.mark.parametrize("name", ["routing5", "chain(20)", "ring5"])
def test_run_compiles_one_plan_per_agent(monkeypatch, capsys, tmp_path, name):
    # Each agent's plan holds the clauses of its IDB that can fire; the
    # union of the rule bases gets no plan of its own.  No clause of a
    # chain is dead, and on routing systems a route through a link that
    # is not there is.
    if name == "ring5":
        name = _ring_file(tmp_path, 5)
    compiled = []
    init = AcyclicPlan.__init__

    def counting(self, clauses, heads=None):
        compiled.append(frozenset(clauses))
        init(self, clauses, heads)

    monkeypatch.setattr(AcyclicPlan, "__init__", counting)
    code, out, _ = run_cli(capsys, "run", name)
    assert code == 0 and records(out)[-1]["weakly_stabilizing_witnessed"] is True
    monkeypatch.undo()
    agents = load_scenario(name).build_system().agents
    assert len(compiled) == len(agents)
    assert all(plan <= a.idb.clauses for plan, a in zip(compiled, agents))
    if name == "chain(20)":
        assert compiled == [a.idb.clauses for a in agents]
    else:
        assert any(len(plan) < len(a.idb.clauses) for plan, a in zip(compiled, agents))


def test_analyze_compiles_no_plan(monkeypatch, capsys):
    _, expected, _ = run_cli(capsys, "analyze", "routing5-example6-script")

    def refuse(*args):
        raise AssertionError("an AcyclicPlan was compiled")

    monkeypatch.setattr(AcyclicPlan, "__init__", refuse)
    with pytest.raises(AssertionError):
        main(["run", "example3"])  # the patch does reach model evaluation
    capsys.readouterr()
    assert run_cli(capsys, "analyze", "routing5-example6-script") == (0, expected, "")


def test_analyze_grounds_no_clause(monkeypatch, capsys):
    # No two agents of these scenarios define one head, so neither bound
    # grounds a clause or builds a plan: the system that ``analyze``
    # assembles holds each agent's streamed head -> body-atoms map alone.
    names = ("example3", "routing5-example6-script", "chain(3)")
    expected = {name: run_cli(capsys, "analyze", name) for name in names}

    def refuse(*args, **kwargs):
        raise AssertionError("a clause or plan was built")

    assembled = []
    build = scenarios.build_system

    def recording(agents, dmax=None):
        assembled.extend(agents)
        return build(agents, dmax=dmax)

    monkeypatch.setattr(scenarios, "ground_program", refuse)
    monkeypatch.setattr(AcyclicPlan, "__init__", refuse)
    with pytest.raises(AssertionError):
        main(["run", "example3"])  # the patch does reach plan compilation
    capsys.readouterr()
    monkeypatch.setattr(scenarios, "build_system", recording)
    for name in names:
        assert run_cli(capsys, "analyze", name) == expected[name]
    assert assembled and all(a.clauses is None for a in assembled)
