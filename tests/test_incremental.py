"""Incremental model maintenance against full evaluation and brute force.

``AcyclicPlan.changes`` must give, for every change of facts, the atoms
``AcyclicPlan.model`` on the new facts gains and loses against the model
on the old ones.  The run tests check every point of seeded fair runs,
whose per-event models all come from that incremental route; a mutant
that re-derives only the direct users of the changed facts must fail
them.
"""

import random

import pytest

from agentlog.logic import (
    BRUTEFORCE_CAP,
    AcyclicPlan,
    GroundProgram,
    atom,
    head_set,
    stable_models_bruteforce,
)
from agentlog.runtime import run_fair
from agentlog.scenarios import Topology, builtin_scenario, parse_scenario, routing_scenario_text

from .generators import random_acyclic_program, random_system
from .reference import clause as make_clause

a, b, c, d, e, x = (atom(n) for n in "abcdex")


def clause(head, *body):
    return make_clause(head, body)


def _updated(plan, model, facts, new_facts):
    """The model on ``new_facts``, from ``model`` on ``facts`` and the
    plan's ``changes``, each checked against the difference of the two
    full models."""
    gained, lost = plan.changes(model, new_facts - facts, facts - new_facts)
    want = plan.model(new_facts)
    assert sorted(gained) == sorted(want - model)
    assert sorted(lost) == sorted(model - want)
    return model.difference(lost).union(gained)


def _check_update(p, facts, new_facts):
    plan = AcyclicPlan(p.clauses)
    got = _updated(plan, plan.model(facts), facts, new_facts)
    assert got == plan.model(new_facts)
    return got


# ---------------------------------------------------------------------------
# Unit cases


def test_empty_delta_returns_the_model_itself():
    p = GroundProgram.of([clause(b, a), make_clause(c, (), (b,))], [a])
    plan = AcyclicPlan(p.clauses)
    model = plan.model(frozenset([a]))
    assert plan.changes(model, frozenset(), frozenset()) == ([], [])
    # An added fact that already holds changes nothing either.
    assert plan.changes(model, frozenset([a]), frozenset()) == ([], [])


def test_removing_a_fact_makes_a_negative_literal_true():
    p = GroundProgram.of([make_clause(b, (), (a,)), clause(c, b)], [a])
    assert _check_update(p, frozenset([a]), frozenset()) == {b, c}
    assert _check_update(p, frozenset(), frozenset([a])) == {a}


def test_flip_propagates_more_than_one_level():
    p = GroundProgram.of(
        [clause(b, a), clause(c, b), make_clause(d, (c,), (e,)), make_clause(x, (), (d,))], [a, e]
    )
    assert _check_update(p, frozenset(), frozenset([a])) == {a, b, c, d}
    assert _check_update(p, frozenset([a]), frozenset()) == {x}
    assert _check_update(p, frozenset([a]), frozenset([a, e])) == {a, b, c, e, x}


def test_propagation_stops_where_a_head_keeps_its_truth():
    p = GroundProgram.of([clause(b, a), clause(b, e), clause(c, b)], [a, e])
    assert _check_update(p, frozenset([a, e]), frozenset([e])) == {b, c, e}


def test_added_fact_heading_a_clause_is_rejected():
    p = GroundProgram.of([clause(b, a)], [a])
    plan = AcyclicPlan(p.clauses)
    model = plan.model(frozenset())
    with pytest.raises(ValueError):
        plan.changes(model, frozenset([b]), frozenset())


def test_facts_outside_the_universe_enter_and_leave_the_model():
    p = GroundProgram.of([clause(b, a)], [a])
    assert _check_update(p, frozenset([a]), frozenset([a, x])) == {a, b, x}
    assert _check_update(p, frozenset([a, x]), frozenset()) == frozenset()


def test_updates_match_full_evaluation_and_bruteforce_on_random_programs():
    rng = random.Random(4242)
    for _ in range(300):
        p = random_acyclic_program(rng)
        inputs = sorted(p.universe - head_set(p))
        plan = AcyclicPlan(p.clauses)
        facts = frozenset()
        model = plan.model(facts)
        for _ in range(6):
            new_facts = frozenset(t for t in inputs if rng.random() < 0.5)
            model = _updated(plan, model, facts, new_facts)
            assert model == plan.model(new_facts)
            assert [model] == stable_models_bruteforce(p.with_facts(new_facts))
            facts = new_facts


# ---------------------------------------------------------------------------
# Every point of seeded fair runs


def _wrong_models(system, check_bruteforce=True, **run_args):
    """How many points of a fair run recorded a model other than the full
    evaluation, plus how many states have a full evaluation that is not
    the unique brute-force stable model (checked where the universe fits
    the cap); and how many states were brute-forced."""
    trace = run_fair(system, **run_args)
    # Each agent's whole IDB, compiled once, not once per state.
    whole = [AcyclicPlan(agent.idb.clauses) for agent in system.agents]
    full = {}
    wrong = bruteforced = 0
    for point, gs in enumerate(trace.states):
        for idx, state in enumerate(gs):
            if (idx, state) not in full:
                agent = system.agents[idx]
                facts = state.edb | state.indb
                full[idx, state] = whole[idx].model(facts)
                program = agent.idb.with_facts(facts)
                if check_bruteforce and len(program.universe) <= BRUTEFORCE_CAP:
                    bruteforced += 1
                    wrong += [full[idx, state]] != stable_models_bruteforce(program)
            wrong += trace.models[point][idx] != full[idx, state]
    return wrong, bruteforced


def _random_runs(seed, count):
    rng = random.Random(seed)
    for io_acyclic in (True, False):
        for policy in ("round-robin", "shuffled"):
            for k in range(count):
                system, schedule = random_system(rng, io_acyclic=io_acyclic)
                yield system, {"env_schedule": schedule, "policy": policy, "seed": k,
                               "max_rounds": 12}


def test_incremental_models_on_random_system_runs():
    bruteforced = scheduled = 0
    for system, run_args in _random_runs(99, 40):
        wrong, checked = _wrong_models(system, **run_args)
        assert wrong == 0
        bruteforced += checked
        scheduled += bool(run_args["env_schedule"])
    assert bruteforced > 0 and scheduled > 0


def _ring(ref):
    """``ringN``: a routing ring of N nodes whose link R0-R1 fails after
    round 2 and comes back after round 5; ``ringN-steady``: no failure."""
    n = int(ref[4:].removesuffix("-steady"))
    nodes = tuple(f"R{i}" for i in range(n))
    ring = Topology(nodes, frozenset((nodes[i], nodes[(i + 1) % n]) for i in range(n)))
    events = "" if ref.endswith("-steady") else (
        "\n[events]\n@round 2: fail link(R0,R1)\n@round 5: restore link(R0,R1)\n")
    return parse_scenario(routing_scenario_text(ring) + events)


SCENARIOS = ["example3", "routing5", "routing5-example6-script"] + [
    f"chain({n})" for n in range(1, 9)
]
BRUTEFORCED = {"example3"} | {f"chain({n})" for n in range(1, 7)}
# Each agent's plan drops the routes through links that are not there.
RINGS = [f"ring{n}{steady}" for n in range(4, 9) for steady in ("", "-steady")]


@pytest.mark.parametrize("ref", SCENARIOS + RINGS)
@pytest.mark.parametrize("policy", ["round-robin", "shuffled"])
def test_incremental_models_on_scenario_runs(ref, policy):
    sc = _ring(ref) if ref.startswith("ring") else builtin_scenario(ref)
    wrong, _ = _wrong_models(
        sc.build_system(),
        # Brute force is exponential in the facts; chain(7) and chain(8)
        # reach universes of 17-19 atoms and take seconds each.
        check_bruteforce=ref in BRUTEFORCED,
        env_schedule=sc.schedule,
        max_rounds=sc.max_rounds,
        policy=policy,
        seed=3,
        prefix_events=sc.script,
    )
    assert wrong == 0


def _direct_users_only(plan, model, added=frozenset(), removed=frozenset()):
    """A wrong ``AcyclicPlan.changes``, and through it a wrong ``update``:
    re-derives, in plan order, the heads whose clauses mention a changed
    fact, but none of the heads downstream of those."""
    by_head = plan.by_head
    changed = added | removed
    new = (model - removed) | added
    for h in plan.sequence:
        if any(x in changed for _, pos, neg in by_head[h] for x in pos + neg):
            holds = any(
                all(x in new for x in pos) and not any(x in new for x in neg)
                for _, pos, neg in by_head[h]
            )
            new = new | {h} if holds else new - {h}
    return list(new - model), list(model - new)


def test_direct_users_only_mutant_fails_the_run_checks(monkeypatch):
    monkeypatch.setattr(AcyclicPlan, "changes", _direct_users_only)
    sc = builtin_scenario("example3")
    assert _wrong_models(sc.build_system(), env_schedule=sc.schedule)[0]
    assert any(_wrong_models(system, **run_args)[0] for system, run_args in _random_runs(99, 10))
