"""Tests for the scenario format, builtins, topology, and the BFS oracle."""

import pytest

from agentlog.agents import CommEvent, EnvChange
from agentlog.logic import atom
from agentlog.runtime import detect_fixpoint, run_fair, rounds_to_fixpoint
from agentlog.scenarios import (
    FIG1_TOPOLOGY,
    ScenarioError,
    Topology,
    builtin_scenario,
    chain_scenario,
    load_scenario,
    parse_scenario,
    routing_scenario_text,
    serialize_scenario,
)
from agentlog.system import classify, superagent_model

from .generators import spec_fields
from .reference import bfs_oracle, output_projection, parse_clause


def routing(t, dmax=None):
    """The shortest-path system on ``t``, grounded at ``dmax``."""
    return parse_scenario(routing_scenario_text(t, dmax)).build_system()


def test_builtin_example3_matches_paper_shape(example3_system):
    system = example3_system
    a1 = system.agents[system.index("A1")]
    assert a1.hbe == {atom("c")}
    assert a1.hin == {atom("b")}
    assert a1.initial.edb == {atom("c")}
    assert a1.initial.indb == frozenset()
    a2 = system.agents[system.index("A2")]
    assert a2.hbe == {atom("d"), atom("e")}
    assert a2.hin == {atom("a")}


def test_example3_script(example3_scenario):
    script = example3_scenario.script
    assert script == (
        CommEvent("A2", "A1"),
        CommEvent("A1", "A2"),
        script[2],
        CommEvent("A1", "A2"),
        CommEvent("A2", "A1"),
    )
    assert isinstance(script[2], EnvChange)
    assert script[2].became_false == {atom("e")}
    assert example3_scenario.schedule[0][0] == 1


def test_empty_scenario_is_an_error():
    with pytest.raises(ScenarioError, match="no agents|missing"):
        parse_scenario("")


def test_parse_error_carries_line_number():
    text = "[domain]\nnodes:\ndmax: 0\n\n[agent A1]\nidb:\n  w :- ???.\nhbe:\nhin:\nedb:\nin:\n"
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario(text)


def test_scenario_roundtrip_example3(example3_scenario):
    text = serialize_scenario(example3_scenario)
    again = parse_scenario(text)
    assert again == example3_scenario
    assert serialize_scenario(again) == text
    assert again._replace(max_rounds=7) != example3_scenario
    for name in again._fields:
        with pytest.raises(AttributeError):
            setattr(again, name, None)


def test_scenario_roundtrip_routing5(routing5_scenario):
    text = serialize_scenario(routing5_scenario)
    assert parse_scenario(text) == routing5_scenario


def test_scenario_roundtrip_negated_atom_written_first():
    # The text form lists a clause's positive atoms before its negated ones.
    sc = parse_scenario("""\
[domain]
nodes: a b
dmax: 1
var node: X

[agent A1]
idb:
  p(X) :- not q(X), r(X), X != b.
hbe: q(X); r(X)
""")
    text = serialize_scenario(sc)
    assert "  p(X) :- r(X), not q(X), X != b." in text.splitlines()
    assert parse_scenario(text) == sc


def test_routing5_file_equals_generated(routing5_scenario):
    generated = parse_scenario(routing_scenario_text(FIG1_TOPOLOGY, 6))
    assert generated == routing5_scenario


def test_routing_system_agent_interfaces(routing5_system):
    a1 = routing5_system.agents[routing5_system.index("A1")]
    assert a1.hbe == {atom("link", "A1", "A2"), atom("link", "A1", "A4")}
    assert a1.initial.edb == a1.hbe
    assert a1.initial.indb == frozenset()
    # Inputs: neighbours' distances to every destination but A1 itself.
    expected = {
        atom("sp", n, y, k)
        for n in ("A2", "A4")
        for y in ("A2", "A3", "A4", "A5")
        for k in range(7)
    }
    assert a1.hin == expected


def test_routing_system_single_node():
    t = Topology(("A",), frozenset())
    system = routing(t, 1)
    trace = run_fair(system, max_rounds=3)
    fix = detect_fixpoint(trace)
    assert output_projection("A", trace.models[fix][0], "sp") == {atom("sp", "A", "A", 0)}


def test_routing_two_nodes_converge():
    t = Topology(("A", "B"), frozenset([("A", "B")]))
    system = routing(t, 2)
    trace = run_fair(system, max_rounds=6)
    fix = detect_fixpoint(trace)
    assert fix is not None
    assert output_projection("A", trace.models[fix][0], "sp") == {
        atom("sp", "A", "A", 0),
        atom("sp", "A", "B", 1),
    }
    assert output_projection("B", trace.models[fix][1], "sp") == {
        atom("sp", "B", "B", 0),
        atom("sp", "B", "A", 1),
    }


def test_routing_rejects_dmax_zero():
    with pytest.raises(ScenarioError):
        routing(FIG1_TOPOLOGY, 0)


def test_routing_default_dmax_is_node_count_plus_one(routing5_system):
    system = routing(FIG1_TOPOLOGY)
    assert system.dmax == routing5_system.dmax == 6
    assert list(map(spec_fields, system.agents)) == list(map(spec_fields, routing5_system.agents))


def test_topology_canonicalizes_edges():
    t = Topology(("A", "B", "C"), frozenset([("B", "A"), ("C", "B")]))
    assert t.edges == {("A", "B"), ("B", "C")}
    assert t.neighbors("B") == ("A", "C")
    with pytest.raises(ScenarioError, match="^self-loop on A$"):
        Topology(("A",), frozenset([("A", "A")]))
    with pytest.raises(ScenarioError, match=r"^edge endpoint outside nodes: \('A', 'Z'\)$"):
        Topology(("A",), frozenset([("A", "Z")]))
    assert t._replace(edges=frozenset([("C", "A")])).edges == {("A", "C")}
    with pytest.raises(AttributeError):
        t.edges = frozenset()


def test_bfs_oracle_fig1():
    dist = bfs_oracle(FIG1_TOPOLOGY)
    assert dist[("A1", "A3")] == 2
    assert dist[("A1", "A5")] == 2
    assert dist[("A1", "A1")] == 0
    assert dist[("A4", "A3")] == 2


def test_bfs_oracle_single_node():
    t = Topology(("A",), frozenset())
    assert bfs_oracle(t) == {("A", "A"): 0}


def test_bfs_oracle_disconnection():
    dist = bfs_oracle(FIG1_TOPOLOGY, failed=[("A1", "A2"), ("A4", "A5")])
    assert ("A1", "A5") not in dist
    assert ("A1", "A2") not in dist
    assert dist[("A1", "A4")] == 1
    assert dist[("A2", "A5")] == 1


def test_chain_idb_expansion():
    system = chain_scenario(3).build_system()

    a2 = system.agents[system.index("A2")]
    assert a2.idb.clauses == {
        parse_clause("r(0)."),
        parse_clause("r(1) :- s(0)."),
        parse_clause("r(2) :- s(1)."),
        parse_clause("r(3) :- s(2)."),
    }


def test_chain_bound_zero():
    system = chain_scenario(0).build_system()

    assert system.agents[system.index("A2")].idb.clauses == {parse_clause("r(0).")}


def test_chain_superagent_model():
    system = chain_scenario(3).build_system()
    model = superagent_model(system, frozenset())
    assert model == frozenset(
        {atom("r", k) for k in range(4)} | {atom("s", k) for k in range(4)}
    )
    assert atom("q") not in model


def test_chain_rounds_strictly_increase():
    last = -1
    for n in (1, 2, 3, 5):
        trace = run_fair(chain_scenario(n).build_system(), max_rounds=40)
        rounds = rounds_to_fixpoint(trace)
        assert rounds is not None and rounds > last
        last = rounds


def test_routing_classify_io_acyclic_for_random_topologies():
    import itertools
    import random

    rng = random.Random(1234)
    for _ in range(4):
        n = rng.randint(2, 5)
        nodes = tuple(f"N{i}" for i in range(n))
        pairs = list(itertools.combinations(nodes, 2))
        edges = frozenset(p for p in pairs if rng.random() < 0.6) or frozenset([pairs[0]])
        system = routing(Topology(nodes, edges), n + 1)
        assert classify(system).io_acyclic


def test_output_projection():
    model = frozenset([atom("sp", "A1", "A5", 2), atom("sp", "A2", "A2", 0), atom("q")])
    assert output_projection("A1", model, "sp") == {atom("sp", "A1", "A5", 2)}
    assert output_projection("A9", frozenset(), "sp") == frozenset()


def test_load_scenario_from_file(tmp_path, example3_scenario):
    path = tmp_path / "demo.scenario"
    path.write_text(serialize_scenario(example3_scenario))
    sc = load_scenario(str(path))
    assert sc == example3_scenario
    with pytest.raises(ScenarioError):
        load_scenario("no-such-thing")


def test_chain_builtin_name():
    sc = builtin_scenario("chain(4)")
    assert sc.domain.distance_max == 4
    system, expected = sc.build_system(), chain_scenario(4).build_system()
    assert list(map(spec_fields, system.agents)) == list(map(spec_fields, expected.agents))
    assert system.dmax == expected.dmax


def test_gl_reduct_of_routing_slice_two_nodes_bruteforce():
    # Small enough to enumerate: the brute-force oracle must find exactly
    # the model the fast path computes, and the reduct at that model must
    # be a negation-free program whose least model is the model itself.
    from agentlog.logic import AcyclicPlan, gl_reduct, least_model, stable_models_bruteforce

    t = Topology(("A", "B"), frozenset([("A", "B")]))
    system = routing(t, 1)
    agent = system.agents[system.index("A")]
    program = agent.idb.with_facts(agent.initial.edb)
    models = stable_models_bruteforce(program)
    assert len(models) == 1
    model = models[0]
    assert model == AcyclicPlan(program.clauses).model()
    reduct = gl_reduct(program, model)
    assert not any(neg for _, _, neg in reduct.clauses)
    assert least_model(reduct) == model


def test_gl_reduct_of_routing_slice_initial_state():
    # A1's grounding at dmax=2 with both links intact and no inputs: only
    # the self-route and the self spl facts are derivable.
    from agentlog.logic import AcyclicPlan, gl_reduct, is_stable_model, least_model

    system = routing(FIG1_TOPOLOGY, 2)
    agent = system.agents[system.index("A1")]
    program = agent.idb.with_facts(agent.initial.edb)
    model = AcyclicPlan(program.clauses).model()
    assert model == {
        atom("link", "A1", "A2"),
        atom("link", "A1", "A4"),
        atom("sp", "A1", "A1", 0),
        atom("spl", "A1", "A1", 1),
        atom("spl", "A1", "A1", 2),
    }
    assert is_stable_model(program, model)
    reduct = gl_reduct(program, model)
    assert not any(neg for _, _, neg in reduct.clauses)
    assert least_model(reduct) == model


def test_random_topologies_converge_to_bfs_after_one_failure():
    # Any single failure, disconnections included: at the domain bound the
    # count-to-infinity ramp self-truncates, so the run still reaches a
    # fixpoint whose outputs equal the pruned-graph BFS distances.
    import itertools
    import random

    from agentlog.agents import EnvChange

    rng = random.Random(31415)
    for _ in range(3):
        n = rng.randint(3, 5)
        nodes = tuple(f"N{i}" for i in range(n))
        pairs = list(itertools.combinations(nodes, 2))
        edges = frozenset(p for p in pairs if rng.random() < 0.5) or frozenset([pairs[0]])
        t = Topology(nodes, edges)
        dmax = n + 1
        system = routing(t, dmax)
        dead = rng.choice(sorted(edges))
        schedule = [(2, EnvChange(frozenset(), frozenset([atom("link", *dead)])))]
        trace = run_fair(system, env_schedule=schedule, max_rounds=6 * dmax + 20)
        fix = detect_fixpoint(trace)
        assert fix is not None
        dist = bfs_oracle(t, failed=[dead])
        for idx, agent_id in enumerate(system.ids):
            got = output_projection(agent_id, trace.models[fix][idx], "sp")
            want = frozenset(
                atom("sp", agent_id, y, k) for (x, y), k in dist.items() if x == agent_id
            )
            assert got == want


def test_restore_event_reconnects():
    from agentlog.agents import EnvChange

    t = Topology(("A", "B"), frozenset([("A", "B")]))
    system = routing(t, 2)
    link = atom("link", "A", "B")
    schedule = [
        (1, EnvChange(frozenset(), frozenset([link]))),
        (3, EnvChange(frozenset([link]), frozenset())),
    ]
    trace = run_fair(system, env_schedule=schedule, max_rounds=12)
    fix = detect_fixpoint(trace)
    assert fix is not None
    assert output_projection("A", trace.models[fix][0], "sp") == {
        atom("sp", "A", "A", 0),
        atom("sp", "A", "B", 1),
    }


def test_restore_directive_parses():
    text = serialize_scenario(builtin_scenario("example3")).replace(
        "@round 1: fail e", "@round 1: restore e"
    )
    sc = parse_scenario(text)
    assert sc.schedule[0][1].became_true == {atom("e")}
