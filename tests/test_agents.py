"""Tests for agent validation, models, dependencies, and event deltas."""

import random

import pytest

from agentlog.agents import (
    AgentSpec,
    AgentState,
    CommEvent,
    EnvChange,
    agent_model,
    dependency,
    env_delta,
    validate_agent,
)
from agentlog.logic import AcyclicPlan, GroundProgram, atom, stable_models_bruteforce
from agentlog.runtime import _applied, run_fair

from .generators import agent_spec
from .reference import clause as make_clause
from .reference import input_delta

a, b, c, d, e, f = (atom(x) for x in "abcdef")


def clause(head, *body):
    return make_clause(head, body)


def sent(indb, dep, sender_model):
    """The receiver's IN after a send: its ``input_delta`` applied."""
    return _applied(indb, input_delta(indb, dep, sender_model))


def model(spec, state):
    """The agent's model at ``state``, through a plan of its whole IDB."""
    return agent_model(spec, state, AcyclicPlan(spec.idb.clauses))


def sensed(edb, change, hbe):
    """The EDB after an environment change: its ``env_delta`` applied."""
    return _applied(edb, env_delta(edb, change, hbe))


def agent1():
    idb = GroundProgram.of([clause(a, b, c), clause(f, a)], [c, b])
    return agent_spec("A1", idb, frozenset([c]), frozenset([b]), AgentState(frozenset([c])))


def agent2():
    idb = GroundProgram.of([clause(b, a, d), clause(b, e)], [d, e, a])
    return agent_spec("A2", idb, frozenset([d, e]), frozenset([a]), AgentState(frozenset([d, e])))


def test_validate_wellformed_agents():
    assert validate_agent(agent1()) == []
    assert validate_agent(agent2()) == []


def test_validate_hin_hbe_overlap():
    spec = agent_spec("X", GroundProgram.of([], [a]), frozenset([a]), frozenset([a]))
    assert any("overlap" in v for v in validate_agent(spec))


def test_validate_input_atom_as_head():
    spec = agent_spec("X", GroundProgram.of([make_clause(b)]), frozenset(), frozenset([b]))
    assert any("heads" in v for v in validate_agent(spec))


def test_validate_cyclic_idb():
    spec = agent_spec("X", GroundProgram.of([clause(a, b), clause(b, a)]))
    assert any("acyclic" in v for v in validate_agent(spec))


def test_agent_model_demo_states():
    assert model(agent2(), AgentState(frozenset([d, e]))) == {b, d, e}
    assert model(agent1(), AgentState(frozenset([c]), frozenset([b]))) == {a, b, c, f}


def test_agent_model_empty_state():
    idb = GroundProgram.of([clause(a, b)], [b])
    spec = agent_spec("X", idb, frozenset(), frozenset([b]))
    assert model(spec, AgentState()) == frozenset()


def test_dependency_both_directions():
    a1, a2 = agent1(), agent2()
    assert dependency(a1, a2) == {b}
    assert dependency(a2, a1) == {a}


def test_dependency_unrelated_agents():
    x = agent_spec("X", GroundProgram.of([make_clause(a)]))
    y = agent_spec("Y", GroundProgram.of([make_clause(b)]))
    assert dependency(x, y) == frozenset()


def test_message_payload():
    # The sender pushes its model restricted to the dependency.
    assert input_delta(frozenset(), frozenset([b]), frozenset([b, d, e])) == ({b}, frozenset())
    assert input_delta(frozenset(), frozenset([b]), frozenset()) == (frozenset(), frozenset())


def test_update_input_basic():
    sp = atom("sp", "A2", "A2", 0)
    dep = frozenset(atom("sp", "A2", y, dd) for y in ("A2", "A5") for dd in range(3))
    assert sent(frozenset(), dep, frozenset([sp])) == {sp}


def test_update_input_noop():
    assert sent(frozenset([a]), frozenset(), frozenset()) == {a}


def test_update_input_retracts_stale_claims():
    # A4 right before point 7 of the divergence run: the fresh claim set
    # from A1 replaces the whole sp(A1,_,_) slice.
    sp = lambda *args: atom("sp", *args)
    indb = frozenset([sp("A5", "A5", 0)])
    dep = frozenset(sp("A1", y, dd) for y in ("A1", "A2", "A3", "A5") for dd in range(21))
    payload = frozenset([sp("A1", "A1", 0), sp("A1", "A5", 2)])
    assert sent(indb, dep, payload) == {
        sp("A5", "A5", 0),
        sp("A1", "A1", 0),
        sp("A1", "A5", 2),
    }


def test_update_input_idempotent():
    rng = random.Random(7)
    pool = [atom(f"x{i}") for i in range(8)]
    for _ in range(50):
        indb = frozenset(x for x in pool if rng.random() < 0.5)
        dep = frozenset(x for x in pool if rng.random() < 0.5)
        payload = frozenset(x for x in dep if rng.random() < 0.5)
        once = sent(indb, dep, payload)
        assert sent(once, dep, payload) == once


def test_update_env_demo():
    assert sensed(frozenset([d, e]), EnvChange(frozenset(), frozenset([e])), frozenset([d, e])) == {d}


def test_update_env_ignores_unsensed_change():
    change = EnvChange(frozenset([a]), frozenset([b]))
    assert sensed(frozenset([c]), change, frozenset([c])) == {c}


def test_update_env_link_failure():
    l12, l14 = atom("link", "A1", "A2"), atom("link", "A1", "A4")
    change = EnvChange(frozenset(), frozenset([l12]))
    assert sensed(frozenset([l12, l14]), change, frozenset([l12, l14])) == {l14}


def test_update_env_senses_exactly_the_change():
    rng = random.Random(11)
    pool = [atom(f"x{i}") for i in range(8)]
    for _ in range(50):
        hbe = frozenset(x for x in pool if rng.random() < 0.6)
        edb = frozenset(x for x in hbe if rng.random() < 0.5)
        t = frozenset(x for x in pool if rng.random() < 0.3)
        fset = frozenset(x for x in pool if x not in t and rng.random() < 0.3)
        change = EnvChange(t, fset)
        new = sensed(edb, change, hbe)
        assert new <= hbe
        assert new & change.touched & hbe == t & hbe


def test_env_change_rejects_overlap():
    with pytest.raises(ValueError, match="^change has atoms in both directions: a$"):
        EnvChange(frozenset([a]), frozenset([a]))
    with pytest.raises(ValueError, match="^change has atoms in both directions: a$"):
        EnvChange(frozenset([a]))._replace(became_false=frozenset([a, b]))


def test_agent_specs_compare_by_identity():
    spec, twin = AgentSpec("A1", {}), AgentSpec("A1", {})
    assert spec == spec and spec != twin and not spec == twin
    assert spec != tuple(spec) and not tuple(spec) == spec
    assert len({spec, twin}) == 2
    assert repr(spec) == (
        "AgentSpec(id='A1', deps={}, hbe=frozenset(), hin=frozenset(), "
        "initial=AgentState(edb=frozenset(), indb=frozenset()), clauses=None)"
    )


def test_agent_records_are_immutable():
    for record in (AgentState(), AgentSpec("A1", {}), EnvChange(), CommEvent("A1", "A2")):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_routing5_records_hold_no_instance_dict(routing5_scenario, routing5_system):
    trace = run_fair(routing5_system, max_rounds=2)
    for record in (routing5_system.agents[0], trace, routing5_scenario):
        with pytest.raises(TypeError):
            vars(record)
    assert "name" not in routing5_scenario._fields
    for r in routing5_system.agents:
        assert r.heads == frozenset(r.deps)
        assert type(r.universe) is frozenset and type(r.hb) is frozenset
        assert r.universe == frozenset(r.deps).union(*r.deps.values(), r.hbe, r.hin)
        for s in routing5_system.agents:
            dep = dependency(r, s)
            assert type(dep) is frozenset and dep == r.hin & (frozenset(s.deps) | s.hbe)


def test_agent_model_matches_bruteforce():
    for spec, state in (
        (agent1(), AgentState(frozenset([c]), frozenset([b]))),
        (agent2(), AgentState(frozenset([d]), frozenset([a]))),
    ):
        program = spec.idb.with_facts(state.edb | state.indb)
        models = stable_models_bruteforce(program)
        assert models == [model(spec, state)]
