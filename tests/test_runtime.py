"""Tests for transitions, runs, fixpoints, verdicts, and trace export."""

import json
import random

import pytest

from agentlog.agents import AgentState, CommEvent, EnvChange
from agentlog.logic import AcyclicPlan, atom
from agentlog.runtime import (
    AgentChange,
    InvalidEventError,
    Trace,
    comm_transition,
    convergence_model,
    detect_fixpoint,
    divergence_probe,
    env_transition,
    events_from_export,
    export_trace,
    initial_state,
    non_convergent_atoms,
    rounds_after_quiescence_to_fixpoint,
    rounds_to_fixpoint,
    run_fair,
    run_scripted,
    stabilized_environment,
    verdict,
)
from agentlog.scenarios import builtin_scenario, output_projection
from agentlog.system import io_graph

from .generators import random_system

a, b, c, d, e, f = (atom(x) for x in "abcdef")


EX3_SCRIPT = (
    CommEvent("A2", "A1"),
    CommEvent("A1", "A2"),
    EnvChange(frozenset(), frozenset([e])),
    CommEvent("A1", "A2"),
    CommEvent("A2", "A1"),
)

# The demo run's printed table: per point, per agent, (EDB, IN, model).
EX3_TABLE = {
    0: ((
        {c}, set(), {c}),
        ({d, e}, set(), {b, d, e})),
    1: ((
        {c}, {b}, {a, b, c, f}),
        ({d, e}, set(), {b, d, e})),
    2: ((
        {c}, {b}, {a, b, c, f}),
        ({d, e}, {a}, {a, b, d, e})),
    3: ((
        {c}, {b}, {a, b, c, f}),
        ({d}, {a}, {a, b, d})),
    4: ((
        {c}, {b}, {a, b, c, f}),
        ({d}, {a}, {a, b, d})),
}


def test_env_transition_only_touches_sensors(example3_system):
    system = example3_system
    gs = initial_state(system)
    change = EnvChange(frozenset(), frozenset([e]))
    nxt = env_transition(system, gs, change)
    assert nxt[0] is gs[0]  # A1 senses nothing here
    assert nxt[1].edb == {d}
    assert nxt[1].indb == gs[1].indb


def test_env_transition_empty_change_is_identity(example3_system):
    gs = initial_state(example3_system)
    assert env_transition(example3_system, gs, EnvChange()) == gs


def test_env_transition_rejects_foreign_atoms(example3_system):
    with pytest.raises(InvalidEventError):
        env_transition(example3_system, initial_state(example3_system), EnvChange(frozenset([atom("zzz")]), frozenset()))
    foreign = frozenset(atom("zzz", k) for k in range(5))
    with pytest.raises(InvalidEventError, match=r": zzz\(0\), zzz\(1\), zzz\(2\), zzz\(3\), \.\.\.$"):
        env_transition(example3_system, initial_state(example3_system), EnvChange(foreign, frozenset()))


def test_env_transition_shared_link_sensed_by_both(routing5_system):
    system = routing5_system
    gs = initial_state(system)
    change = EnvChange(frozenset(), frozenset([atom("link", "A1", "A2")]))
    nxt = env_transition(system, gs, change)
    i1, i2, i3 = system.index("A1"), system.index("A2"), system.index("A3")
    assert atom("link", "A1", "A2") not in nxt[i1].edb
    assert atom("link", "A1", "A2") not in nxt[i2].edb
    assert nxt[i3] is gs[i3]


def test_comm_transition_example3_first_step(example3_system):
    system = example3_system
    nxt = comm_transition(system, initial_state(system), "A2", "A1")
    assert nxt[system.index("A1")].indb == {b}


def test_comm_transition_idempotent_resend(example3_system):
    system = example3_system
    once = comm_transition(system, initial_state(system), "A2", "A1")
    again = comm_transition(system, once, "A2", "A1")
    assert again == once


def test_comm_transition_requires_dependency(routing5_system):
    with pytest.raises(InvalidEventError):
        comm_transition(routing5_system, initial_state(routing5_system), "A3", "A1")


def test_frame_property_comm_only_receiver_input(example3_system):
    system = example3_system
    gs = initial_state(system)
    nxt = comm_transition(system, gs, "A2", "A1")
    i1, i2 = system.index("A1"), system.index("A2")
    assert nxt[i2] is gs[i2]
    assert nxt[i1].edb == gs[i1].edb


def test_run_scripted_example3_table(example3_system):
    trace = run_scripted(example3_system, EX3_SCRIPT)
    assert len(trace.states) == 6
    for point, (row1, row2) in EX3_TABLE.items():
        for idx, row in ((0, row1), (1, row2)):
            state = trace.states[point][idx]
            assert state.edb == frozenset(row[0])
            assert state.indb == frozenset(row[1])
            assert trace.models[point][idx] == frozenset(row[2])
    assert trace.quiescence_point == 3


def test_run_scripted_empty(example3_system):
    trace = run_scripted(example3_system, ())
    assert len(trace.states) == 1
    assert trace.quiescence_point == 0


def test_run_scripted_reports_bad_event_position(example3_system):
    with pytest.raises(InvalidEventError, match="event 1"):
        run_scripted(example3_system, (CommEvent("A2", "A1"), CommEvent("A2", "A2")))


def test_run_scripted_routing_link_failure_table(routing5_system):
    # The two-event routing run: A2 reports to A1, then their link fails.
    system = routing5_system
    sp = lambda *args: atom("sp", *args)
    lk = lambda u, v: atom("link", u, v)
    script = (
        CommEvent("A2", "A1"),
        EnvChange(frozenset(), frozenset([lk("A1", "A2")])),
    )
    trace = run_scripted(system, script)
    i1, i2 = system.index("A1"), system.index("A2")
    expected_a1 = {
        0: ({lk("A1", "A2"), lk("A1", "A4")}, set(), {sp("A1", "A1", 0)}),
        1: (
            {lk("A1", "A2"), lk("A1", "A4")},
            {sp("A2", "A2", 0)},
            {sp("A1", "A1", 0), sp("A1", "A2", 1)},
        ),
        2: ({lk("A1", "A4")}, {sp("A2", "A2", 0)}, {sp("A1", "A1", 0)}),
    }
    expected_a2 = {
        0: ({lk("A1", "A2"), lk("A2", "A3"), lk("A2", "A5")}, set(), {sp("A2", "A2", 0)}),
        1: ({lk("A1", "A2"), lk("A2", "A3"), lk("A2", "A5")}, set(), {sp("A2", "A2", 0)}),
        2: ({lk("A2", "A3"), lk("A2", "A5")}, set(), {sp("A2", "A2", 0)}),
    }
    for point in range(3):
        for idx, table in ((i1, expected_a1), (i2, expected_a2)):
            edb, indb, out = table[point]
            state = trace.states[point][idx]
            assert state.edb == frozenset(edb)
            assert state.indb == frozenset(indb)
            agent_id = system.ids[idx]
            assert output_projection(agent_id, trace.models[point][idx], "sp") == frozenset(out)


def test_run_fair_routing_intact_is_a_positive_witness(routing5_system):
    trace = run_fair(routing5_system, max_rounds=10)
    v = verdict(routing5_system, trace)
    assert v.weakly_stabilizing_witnessed
    assert v.non_convergent == frozenset()


def test_run_fair_example8(example3_system):
    system = example3_system
    trace = run_fair(
        system,
        env_schedule=[(1, EnvChange(frozenset(), frozenset([e])))],
        max_rounds=10,
    )
    fix = detect_fixpoint(trace)
    assert fix is not None
    assert trace.models[fix][0] == {a, b, c, f}
    assert trace.models[fix][1] == {a, b, d}
    v = verdict(system, trace)
    assert v.convergence_model == {a, b, c, d, f}
    assert v.stabilized_edb == {c, d}
    assert v.reference_model == {c, d}
    assert not v.weakly_stabilizing_witnessed
    assert v.strongly_convergent
    assert not v.horizon_exceeded


def test_run_fair_no_dependencies_fixpoint_immediately():
    from agentlog.agents import AgentSpec
    from agentlog.logic import Clause, GroundProgram
    from agentlog.system import build_system

    spec = AgentSpec(
        "A1",
        GroundProgram.of([Clause(a, (c,))], [c]),
        frozenset([c]),
        frozenset(),
        AgentState(frozenset([c])),
    )
    system = build_system([spec])
    trace = run_fair(system, max_rounds=5)
    assert detect_fixpoint(trace) == 0
    assert rounds_to_fixpoint(trace) == 0


def test_run_fair_horizon(example3_system):
    # Zero rounds allowed: certificate impossible.
    trace = run_fair(example3_system, max_rounds=0)
    assert trace.horizon_exceeded
    assert detect_fixpoint(trace) is None


def test_quiescence_none_when_schedule_pending(example3_system):
    trace = run_fair(
        example3_system,
        env_schedule=[(50, EnvChange(frozenset(), frozenset([e])))],
        max_rounds=3,
    )
    assert trace.quiescence_point is None
    assert trace.horizon_exceeded
    with pytest.raises(ValueError):
        stabilized_environment(trace)


def test_convergence_model_single_agent():
    from agentlog.agents import AgentSpec
    from agentlog.logic import Clause, GroundProgram
    from agentlog.system import build_system

    spec = AgentSpec(
        "A1",
        GroundProgram.of([Clause(a, (c,))], [c]),
        frozenset([c]),
        frozenset(),
        AgentState(frozenset([c])),
    )
    system = build_system([spec])
    trace = run_fair(system, max_rounds=4)
    fix = detect_fixpoint(trace)
    assert convergence_model(system, trace, fix) == {a, c}
    assert non_convergent_atoms(system, trace, fix) == frozenset()


def test_stabilized_environment_no_changes(example3_system):
    trace = run_fair(example3_system, max_rounds=6)
    assert stabilized_environment(trace) == {c, d, e}


def test_divergence_probe_fires_on_ramp(routing5_system):
    # Synthetic check through the real pipeline happens in acceptance;
    # here: a converging run must not trip the probe.
    trace = run_fair(routing5_system, max_rounds=10)
    report = divergence_probe(trace, ("sp", ("A1", "A5", None)))
    assert report is None


def test_divergence_probe_absent_family(example3_system):
    trace = run_fair(example3_system, max_rounds=6)
    assert divergence_probe(trace, ("sp", ("A1", "A5", None))) is None


def test_divergence_probe_rejects_bad_family(example3_system):
    trace = run_fair(example3_system, max_rounds=6)
    with pytest.raises(ValueError):
        divergence_probe(trace, ("sp", ("A1", None, None)))


def _naive_probe(trace, family):
    """Reference ``divergence_probe``: every agent's model at every point."""
    predicate, args = family
    slot = args.index(None)
    hits = []
    for idx, agent_id in enumerate(trace.agent_ids):
        last, streak, ramp, best = None, 0, [], ()
        for row in trace.models:
            found = sorted(
                x.args[slot] for x in row[idx]
                if x.predicate == predicate and len(x.args) == len(args)
                and all(v is None or x.args[i] == v for i, v in enumerate(args))
            )
            if len(found) > 1:
                return f"ambiguous {found}"
            value = found[0] if found else None
            if value is None:
                last, streak, ramp = None, 0, []
            elif last is None:
                last, streak, ramp = value, 0, [value]
            elif value != last:
                streak, ramp = (streak + 1, ramp + [value]) if value > last else (0, [value])
                last = value
                if streak >= 3 and len(ramp) > len(best):
                    best = tuple(ramp)
        if best:
            hits.append((agent_id, best))
    return tuple(hits) or None


def _probe(trace, family):
    try:
        report = divergence_probe(trace, family)
    except ValueError as exc:
        return "ambiguous " + str(exc).split(": ")[1].removesuffix(" at one point")
    return None if report is None else report.hits


@pytest.mark.parametrize("policy", ["round-robin", "shuffled"])
def test_divergence_probe_matches_a_per_point_reading_of_a_diverging_run(policy):
    trace, v = _scenario_run("routing5-example6-script", policy=policy, seed=2)
    assert v.divergence
    ids = trace.agent_ids
    families = [("sp", (x, y, None)) for x in ids for y in ids] + [("sp", (None, "A5", 2))]
    for family in families:
        assert _probe(trace, family) == _naive_probe(trace, family), family


def test_divergence_probe_matches_a_per_point_reading_of_hand_built_values():
    def p(*values):
        return frozenset(atom("p", x) for x in values)

    # Per agent, its model at each point: ramps, a drop, a gap, repeats.
    rows = [
        (p(1), p(), p(0)),
        (p(2), p(5), p(0)),
        (p(2), p(6), p(1)),
        (p(3), p(), p(2)),
        (p(4), p(1), p(3)),
        (p(4), p(2), p(4)),
        (p(0), p(3), p(4)),
        (p(9), p(4), p(5)),
    ]
    states = tuple((AgentState(),) * 3 for _ in rows)
    events = tuple(CommEvent("A1", "A2") for _ in rows[1:])
    trace = _delta_trace(("A1", "A2", "A3"), states, events, tuple(rows))
    assert _probe(trace, ("p", (None,))) == _naive_probe(trace, ("p", (None,))) == (
        ("A1", (1, 2, 3, 4)), ("A2", (1, 2, 3, 4)), ("A3", (0, 1, 2, 3, 4, 5)))
    # Several values at one point: the lowest agent is named, at its first.
    rows[5] = (p(4), p(2, 7), p(4, 8))
    rows[2] = (p(2), p(6), p(1, 3, 5))
    trace = _delta_trace(("A1", "A2", "A3"), states, events, tuple(rows))
    assert _probe(trace, ("p", (None,))) == _naive_probe(trace, ("p", (None,))) == "ambiguous [2, 7]"


def test_replay_determinism_byte_identical(example3_system):
    trace = run_fair(
        example3_system,
        env_schedule=[(1, EnvChange(frozenset(), frozenset([e])))],
        max_rounds=10,
    )
    text = export_trace(trace)
    events = events_from_export(text)
    again = run_scripted(example3_system, events)
    assert export_trace(again) == text


def test_replay_determinism_shuffled_policy(example3_system):
    one = run_fair(example3_system, max_rounds=8, policy="shuffled", seed=42)
    two = run_fair(example3_system, max_rounds=8, policy="shuffled", seed=42)
    assert export_trace(one) == export_trace(two)


def _naive_export(trace, v=None) -> str:
    """Reference renderer: every list sorted and formatted afresh at every point."""

    def listed(atoms):
        return None if atoms is None else [str(x) for x in sorted(atoms)]

    def dump(record):
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    lines = []
    for point, gs in enumerate(trace.states):
        agents = {
            agent_id: {
                "edb": listed(gs[idx].edb),
                "in": listed(gs[idx].indb),
                "model": listed(trace.models[point][idx]),
            }
            for idx, agent_id in enumerate(trace.agent_ids)
        }
        event = None
        if point < len(trace.events):
            ev = trace.events[point]
            if isinstance(ev, EnvChange):
                event = {"type": "env", "true": listed(ev.became_true),
                         "false": listed(ev.became_false)}
            else:
                event = {"type": "send", "from": ev.sender, "to": ev.receiver}
        lines.append(dump({"record": "point", "point": point, "event": event, "agents": agents}))
    if v is not None:
        lines.append(dump({
            "record": "verdict",
            "fixpoint_point": v.fixpoint_point,
            "strongly_convergent": v.strongly_convergent,
            "horizon_exceeded": v.horizon_exceeded,
            "convergence_model": listed(v.convergence_model),
            "non_convergent": listed(v.non_convergent),
            "stabilized_edb": listed(v.stabilized_edb),
            "reference_model": listed(v.reference_model),
            "reference_note": v.reference_note,
            "weakly_stabilizing_witnessed": v.weakly_stabilizing_witnessed,
            "divergence": [
                {"family": r.family, "hits": [{"agent": a, "values": list(vs)} for a, vs in r.hits]}
                for r in v.divergence
            ],
        }))
    return "\n".join(lines) + "\n"


def _first_difference(got: str, want: str):
    """None when equal, else the first differing line; pytest's diff of
    whole traces is too slow to be useful."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return k, g, w
    return len(got_lines), len(want_lines)


def _scenario_run(name, policy="round-robin", seed=0):
    scenario = builtin_scenario(name)
    system = scenario.build_system()
    trace = run_fair(system, env_schedule=scenario.schedule, max_rounds=scenario.max_rounds,
                     policy=policy, seed=seed, prefix_events=scenario.script)
    return trace, verdict(system, trace, families=scenario.families())


@pytest.mark.parametrize("name", ["example3", "routing5", "routing5-example6-script"])
def test_export_matches_naive_renderer_on_builtin_runs(name):
    trace, v = _scenario_run(name)
    assert _first_difference(export_trace(trace, v), _naive_export(trace, v)) is None


def test_export_matches_naive_renderer_on_shuffled_chain():
    trace, v = _scenario_run("chain(12)", policy="shuffled", seed=5)
    assert _first_difference(export_trace(trace, v), _naive_export(trace, v)) is None
    assert _first_difference(export_trace(trace), _naive_export(trace)) is None


def test_export_matches_naive_renderer_on_scripted_replay():
    scenario = builtin_scenario("routing5-example6-script")
    trace = run_scripted(scenario.build_system(), scenario.script)
    assert len(trace.events) > 0
    assert _first_difference(export_trace(trace), _naive_export(trace)) is None


def _delta_trace(agent_ids, states, events, models) -> Trace:
    """The delta ``Trace`` of the given snapshots: each event's changes
    are the set differences of the points before and after it."""

    def delta(before, after):
        return after - before, before - after

    changes = []
    for k in range(1, len(states)):
        row = []
        for idx, (before, after) in enumerate(zip(states[k - 1], states[k])):
            change = AgentChange(idx, delta(before.edb, after.edb), delta(before.indb, after.indb),
                                 delta(models[k - 1][idx], models[k][idx]))
            if any(x or y for x, y in change[1:]):
                row.append(change)
        changes.append(tuple(row))
    trace = Trace(agent_ids=agent_ids, start=states[0], start_models=models[0],
                  events=tuple(events), changes=tuple(changes))
    assert (trace.states, trace.models) == (tuple(states), tuple(models))
    return trace


def test_export_matches_naive_renderer_without_shared_sets(example3_system):
    def fresh(atoms):
        # frozenset(x) hands back x itself; a list forces a new object.
        return frozenset(list(atoms))

    shared = run_scripted(example3_system, EX3_SCRIPT)
    states = tuple(
        tuple(AgentState(fresh(s.edb), fresh(s.indb)) for s in gs) for gs in shared.states
    )
    models = tuple(tuple(fresh(m) for m in row) for row in shared.models)
    for k in range(1, len(states)):
        for idx, (before, after) in enumerate(zip(states[k - 1], states[k])):
            pairs = ((before.edb, after.edb), (before.indb, after.indb),
                     (models[k - 1][idx], models[k][idx]))
            assert all(x is not y for x, y in pairs if x)
    copied = _delta_trace(shared.agent_ids, states, shared.events, models)
    assert _first_difference(export_trace(copied), _naive_export(copied)) is None
    assert _first_difference(export_trace(copied), export_trace(shared)) is None


def test_export_matches_naive_renderer_when_a_set_gains_and_loses_atoms():
    # Each point both adds atoms to and removes atoms from every set of
    # the previous point, at its ends and in its middle.
    p = [atom("p", x) for x in (0, 1, 2, 10, "A", "B")]
    q = [atom("q", "A", x) for x in range(4)]
    sets = [
        {p[1], p[3], q[0], q[2], c},
        {p[0], p[2], p[3], q[1], c, d},
        {p[3], p[4], q[0], q[3], a},
        {p[5], q[2]},
        set(),
        {p[0], p[5], q[1], b},
    ]
    points = [frozenset(x) for x in sets]
    trace = _delta_trace(
        ("A1", "A2"),
        tuple(
            (AgentState(s, points[k - 1]), AgentState(points[k - 2], s))
            for k, s in enumerate(points)
        ),
        tuple(CommEvent("A1", "A2") for _ in points[1:]),
        tuple((s, points[k - 3]) for k, s in enumerate(points)),
    )
    assert _first_difference(export_trace(trace), _naive_export(trace)) is None


@pytest.mark.parametrize("name, policy", [
    ("chain(40)", "shuffled"),
    ("routing5-example6-script", "round-robin"),
])
def test_trace_stores_only_what_each_event_changed(name, policy):
    trace, _ = _scenario_run(name, policy=policy, seed=4)
    stored = sum(
        len(part) for changes in trace.changes for c in changes for pair in c[1:] for part in pair
    )
    moved = 0
    for k in range(1, len(trace.states)):
        for idx, (before, after) in enumerate(zip(trace.states[k - 1], trace.states[k])):
            moved += len(before.edb ^ after.edb) + len(before.indb ^ after.indb)
            moved += len(trace.models[k - 1][idx] ^ trace.models[k][idx])
    assert stored == moved > 0
    # A send changes the receiver's IN and model only.
    for event, changes in zip(trace.events, trace.changes):
        if isinstance(event, CommEvent):
            assert [c.agent for c in changes] in ([], [trace.agent_ids.index(event.receiver)])
            assert all(not any(c.edb) for c in changes)


def test_run_verdict_and_export_build_no_snapshots():
    for name in ("routing5-example6-script", "chain(8)"):
        trace, v = _scenario_run(name, policy="shuffled", seed=1)
        export_trace(trace, v)
        assert "_snapshots" not in vars(trace)
        assert len(trace.states) == len(trace.events) + 1
        assert "_snapshots" in vars(trace)


def test_recorded_points_match_a_fold_of_the_transitions_on_random_systems():
    # Each point against ``env_transition``/``comm_transition`` applied to
    # the point before and a full evaluation of every agent's whole IDB.
    rng = random.Random(2024)
    for io_acyclic in (True, False):
        for policy in ("round-robin", "shuffled"):
            for k in range(250):
                system, schedule = random_system(rng, io_acyclic=io_acyclic)
                trace = run_fair(system, env_schedule=schedule, max_rounds=10, policy=policy, seed=k)
                plans = [AcyclicPlan(agent.idb) for agent in system.agents]
                gs = initial_state(system)
                for point, event in enumerate((None,) + trace.events):
                    if isinstance(event, EnvChange):
                        gs = env_transition(system, gs, event)
                    elif event is not None:
                        gs = comm_transition(system, gs, event.sender, event.receiver)
                    assert trace.states[point] == gs
                    assert trace.models[point] == tuple(
                        plan.model(s.edb | s.indb) for plan, s in zip(plans, gs)
                    )
                    assert trace.at(point) == (trace.states[point], trace.models[point])


def test_fair_runs_converge_to_reference_on_random_acyclic_systems():
    rng = random.Random(777)
    for _ in range(40):
        system, schedule = random_system(rng, io_acyclic=True)
        io_nodes = len(io_graph(system).nodes)
        for policy, seed in (("round-robin", 0), ("shuffled", 1)):
            trace = run_fair(
                system, env_schedule=schedule, max_rounds=4 * io_nodes + 16,
                policy=policy, seed=seed,
            )
            fix = detect_fixpoint(trace)
            assert fix is not None
            assert rounds_after_quiescence_to_fixpoint(trace) <= io_nodes + 1
            v = verdict(system, trace)
            assert v.weakly_stabilizing_witnessed
            assert v.non_convergent == frozenset()
            # Models constant from the fixpoint on.
            for k in range(fix, len(trace.states)):
                assert trace.models[k] == trace.models[fix]
