"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Expected values quoted from the printed run tables are frozen
here verbatim; derived values are recomputed by the stated independent
oracle (brute-force enumeration, BFS, or the naive textbook checker)
inside the test itself.
"""

import itertools
import random
import time

from agentlog.agents import EnvChange
from agentlog.logic import AcyclicPlan, atom, is_stable_model, stable_models_bruteforce
from agentlog.runtime import (
    detect_fixpoint,
    divergence_probe,
    events_from_export,
    export_trace,
    rounds_to_fixpoint,
    run_fair,
    run_scripted,
    verdict,
)
from agentlog.scenarios import FIG1_TOPOLOGY, builtin_scenario, chain_scenario
from agentlog.system import classify, io_graph, superagent, superagent_model

from .generators import random_acyclic_program, random_program, random_system
from .reference import bfs_oracle, output_projection

a, b, c, d, e, f = (atom(x) for x in "abcdef")
q = atom("q")


def sp(*args):
    return atom("sp", *args)


def lk(u, v):
    return atom("link", u, v)


class timed:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.budget}s"
            )
        return False


def report(n, text, t):
    print(f"[PASS] criterion {n}: {text} ({t.elapsed:.2f}s)")


# -- 1 ----------------------------------------------------------------------

EX3_TABLE = {
    0: (({c}, set(), {c}), ({d, e}, set(), {b, d, e})),
    1: (({c}, {b}, {a, b, c, f}), ({d, e}, set(), {b, d, e})),
    2: (({c}, {b}, {a, b, c, f}), ({d, e}, {a}, {a, b, d, e})),
    3: (({c}, {b}, {a, b, c, f}), ({d}, {a}, {a, b, d})),
    4: (({c}, {b}, {a, b, c, f}), ({d}, {a}, {a, b, d})),
}


def test_criterion_1_example3_table_replay():
    with timed(1.0) as t:
        scenario = builtin_scenario("example3")
        system = scenario.build_system()
        trace = run_scripted(system, scenario.script)
        for point, rows in EX3_TABLE.items():
            for idx, (edb, indb, model) in enumerate(rows):
                state = trace.states[point][idx]
                assert state.edb == frozenset(edb)
                assert state.indb == frozenset(indb)
                assert trace.models[point][idx] == frozenset(model)
    report(1, "five-event replay reproduces the printed table at points 0-4", t)


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_weak_stabilization_refutation():
    with timed(1.0) as t:
        system = builtin_scenario("example3").build_system()
        trace = run_fair(
            system,
            env_schedule=[(1, EnvChange(frozenset(), frozenset([e])))],
            max_rounds=10,
        )
        v = verdict(system, trace)
        assert v.convergence_model == {a, b, c, d, f}
        assert v.stabilized_edb == {c, d}
        assert v.reference_model == {c, d}
        assert v.weakly_stabilizing_witnessed is False
    report(2, "fair run converges to {a,b,c,d,f} != reference {c,d}", t)


# -- 3 ----------------------------------------------------------------------

EX6_A1 = {
    0: ({lk("A1", "A2"), lk("A1", "A4")}, set(), {sp("A1", "A1", 0)}),
    1: ({lk("A1", "A2"), lk("A1", "A4")}, set(), {sp("A1", "A1", 0)}),
    2: ({lk("A1", "A2"), lk("A1", "A4")}, set(), {sp("A1", "A1", 0)}),
    3: (
        {lk("A1", "A2"), lk("A1", "A4")},
        {sp("A2", "A2", 0), sp("A2", "A5", 1)},
        {sp("A1", "A1", 0), sp("A1", "A2", 1), sp("A1", "A5", 2)},
    ),
    4: (
        {lk("A1", "A4")},
        {sp("A2", "A2", 0), sp("A2", "A5", 1)},
        {sp("A1", "A1", 0)},
    ),
    5: (
        {lk("A1", "A4")},
        {sp("A2", "A2", 0), sp("A2", "A5", 1), sp("A4", "A4", 0), sp("A4", "A5", 1)},
        {sp("A1", "A1", 0), sp("A1", "A4", 1), sp("A1", "A5", 2)},
    ),
    6: (
        {lk("A1", "A4")},
        {sp("A2", "A2", 0), sp("A2", "A5", 1), sp("A4", "A4", 0), sp("A4", "A5", 1)},
        {sp("A1", "A1", 0), sp("A1", "A4", 1), sp("A1", "A5", 2)},
    ),
    7: (
        {lk("A1", "A4")},
        {sp("A2", "A2", 0), sp("A2", "A5", 1), sp("A4", "A4", 0), sp("A4", "A5", 1)},
        {sp("A1", "A1", 0), sp("A1", "A4", 1), sp("A1", "A5", 2)},
    ),
    8: (
        {lk("A1", "A4")},
        {sp("A2", "A2", 0), sp("A2", "A5", 1), sp("A4", "A4", 0), sp("A4", "A5", 3)},
        {sp("A1", "A1", 0), sp("A1", "A4", 1), sp("A1", "A5", 4)},
    ),
}

EX6_A4 = {
    0: ({lk("A1", "A4"), lk("A4", "A5")}, set(), {sp("A4", "A4", 0)}),
    1: ({lk("A1", "A4"), lk("A4", "A5")}, set(), {sp("A4", "A4", 0)}),
    2: (
        {lk("A1", "A4"), lk("A4", "A5")},
        {sp("A5", "A5", 0)},
        {sp("A4", "A4", 0), sp("A4", "A5", 1)},
    ),
    3: (
        {lk("A1", "A4"), lk("A4", "A5")},
        {sp("A5", "A5", 0)},
        {sp("A4", "A4", 0), sp("A4", "A5", 1)},
    ),
    4: (
        {lk("A1", "A4"), lk("A4", "A5")},
        {sp("A5", "A5", 0)},
        {sp("A4", "A4", 0), sp("A4", "A5", 1)},
    ),
    5: (
        {lk("A1", "A4"), lk("A4", "A5")},
        {sp("A5", "A5", 0)},
        {sp("A4", "A4", 0), sp("A4", "A5", 1)},
    ),
    6: ({lk("A1", "A4")}, {sp("A5", "A5", 0)}, {sp("A4", "A4", 0)}),
    7: (
        {lk("A1", "A4")},
        {sp("A5", "A5", 0), sp("A1", "A1", 0), sp("A1", "A5", 2)},
        {sp("A4", "A4", 0), sp("A4", "A1", 1), sp("A4", "A5", 3)},
    ),
    8: (
        {lk("A1", "A4")},
        {sp("A5", "A5", 0), sp("A1", "A1", 0), sp("A1", "A5", 2)},
        {sp("A4", "A4", 0), sp("A4", "A1", 1), sp("A4", "A5", 3)},
    ),
}


def test_criterion_3_example6_divergence():
    with timed(2.0) as t:
        scenario = builtin_scenario("routing5-example6-script")
        system = scenario.build_system()
        assert system.dmax == 20

        trace = run_scripted(system, scenario.script)
        i1, i4 = system.index("A1"), system.index("A4")
        for point, (edb, indb, out) in EX6_A1.items():
            state = trace.states[point][i1]
            assert state.edb == frozenset(edb), f"A1 EDB at {point}"
            assert state.indb == frozenset(indb), f"A1 IN at {point}"
            assert output_projection("A1", trace.models[point][i1], "sp") == frozenset(out)
        for point, (edb, indb, out) in EX6_A4.items():
            state = trace.states[point][i4]
            assert state.edb == frozenset(edb), f"A4 EDB at {point}"
            assert state.indb == frozenset(indb), f"A4 IN at {point}"
            assert output_projection("A4", trace.models[point][i4], "sp") == frozenset(out)
        assert sp("A4", "A5", 3) in trace.models[7][i4]
        assert sp("A1", "A5", 4) in trace.models[8][i1]

        # Continue with fair rounds: the stale route ramps by exactly 2
        # per exchange round until the domain cap strips it.
        cont = run_fair(system, max_rounds=14, prefix_events=scenario.script)

        def a1_value(point):
            vals = [x.args[2] for x in cont.models[point][i1]
                    if x.predicate == "sp" and x.args[0] == "A1" and x.args[1] == "A5"]
            assert len(vals) <= 1
            return vals[0] if vals else None

        values = [a1_value(r.end) for r in cont.rounds]
        present = [v for v in values if v is not None]
        assert present[0] == 4 and present[-1] == 20
        assert all(y - x == 2 for x, y in zip(present, present[1:]))
        assert values[len(present):].count(None) == len(values) - len(present)

        report_div = divergence_probe(cont, ("sp", ("A1", "A5", None)))
        assert report_div is not None
        assert any(agent == "A1" for agent, _ in report_div.hits)

        # Within an eight-round horizon there is no fixpoint certificate.
        short = run_fair(system, max_rounds=8, prefix_events=scenario.script)
        assert short.horizon_exceeded and detect_fixpoint(short) is None
    report(3, "Figs. 4-5 rows 0-8 exact; +2 ramp to the cap; probe fires", t)


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_routing_correct_at_quiescence():
    with timed(2.0) as t:
        system = builtin_scenario("routing5").build_system()

        def check(schedule, failed):
            trace = run_fair(system, env_schedule=schedule, max_rounds=12)
            fix = detect_fixpoint(trace)
            assert fix is not None
            dist = bfs_oracle(FIG1_TOPOLOGY, failed)
            for idx, agent_id in enumerate(system.ids):
                got = output_projection(agent_id, trace.models[fix][idx], "sp")
                want = frozenset(
                    sp(agent_id, y, k) for (x, y), k in dist.items() if x == agent_id
                )
                assert got == want, f"agent {agent_id}"

        check((), ())
        initial = frozenset().union(*(a.initial.edb for a in system.agents))
        assert sp("A1", "A3", 2) in superagent_model(system, initial)
        failure = [(2, EnvChange(frozenset(), frozenset([lk("A1", "A2")])))]
        check(failure, [("A1", "A2")])
    report(4, "fixpoint outputs equal BFS distances, intact and after one failure", t)


# -- 5 ----------------------------------------------------------------------


def naive_is_stable(rows, s):
    s = set(s)
    reduct = []
    for head, body in rows:
        if any(not positive and x in s for x, positive in body):
            continue
        reduct.append((head, [x for x, positive in body if positive]))
    closure = set()
    changed = True
    while changed:
        changed = False
        for head, body in reduct:
            if head not in closure and all(x in closure for x in body):
                closure.add(head)
                changed = True
    return closure == s


def test_criterion_5_stable_model_oracle_equivalence():
    with timed(60.0) as t:
        rng = random.Random(50001)
        for _ in range(1000):
            p = random_acyclic_program(rng, max_atoms=12)
            models = stable_models_bruteforce(p)
            assert len(models) == 1
            assert models[0] == AcyclicPlan(p.clauses).model()

        rng = random.Random(50002)
        for _ in range(300):
            p = random_program(rng, max_atoms=9)
            rows = [(head, [(x, True) for x in pos] + [(x, False) for x in neg]) for head, pos, neg in p.clauses]
            atoms = sorted(p.universe)
            for k in range(len(atoms) + 1):
                for combo in itertools.combinations(atoms, k):
                    s = frozenset(combo)
                    assert is_stable_model(p, s) == naive_is_stable(rows, s)
    report(5, "1000 acyclic programs + exhaustive subset checks, zero mismatches", t)


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_theorem_1_and_3_property_suite():
    with timed(120.0) as t:
        rng = random.Random(60001)
        systems = 0
        while systems < 200:
            system, schedule = random_system(rng, io_acyclic=True)
            systems += 1
            io_nodes = len(io_graph(system).nodes)
            union = superagent(system)
            for policy, seed in (("round-robin", 0), ("shuffled", 1), ("shuffled", 2)):
                trace = run_fair(
                    system,
                    env_schedule=schedule,
                    max_rounds=4 * io_nodes + 16,
                    policy=policy,
                    seed=seed,
                )
                fix = detect_fixpoint(trace)
                assert fix is not None, "no fixpoint on an IO-acyclic finite system"
                quiet = trace.quiescence_point
                assert sum(r.changed and r.start >= quiet for r in trace.rounds) <= io_nodes + 1
                v = verdict(system, trace)
                assert is_stable_model(union.with_facts(v.stabilized_edb), v.reference_model)
                assert v.convergence_model == v.reference_model
                assert v.non_convergent == frozenset()
                assert v.weakly_stabilizing_witnessed
    report(6, "200 systems x 3 schedules: fixpoint within |IO|+1 rounds, model = reference", t)


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_io_acyclic_implies_idb_acyclic():
    with timed(60.0) as t:
        rng = random.Random(70001)
        io_acyclic_seen = 0
        for _ in range(200):
            system, _ = random_system(rng, io_acyclic=False)
            cls = classify(system)
            if cls.io_acyclic:
                io_acyclic_seen += 1
                assert cls.idb_acyclic
        assert io_acyclic_seen > 0
    report(7, f"200 generated systems, implication holds ({io_acyclic_seen} io-acyclic)", t)


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_chain_non_stabilization_trend():
    with timed(10.0) as t:
        previous = -1
        for n in (2, 4, 8, 16):
            system = chain_scenario(n).build_system()
            trace = run_fair(system, max_rounds=4 * n + 16)
            fix = detect_fixpoint(trace)
            assert fix is not None
            rounds = rounds_to_fixpoint(trace)
            assert rounds > previous, f"rounds not increasing at n={n}"
            previous = rounds

            i1 = system.index("A1")
            # q is believed right up to the fixpoint: at the start and at
            # the end of every round strictly before it.
            assert q in trace.models[0][i1]
            for r in trace.rounds:
                if r.end < fix:
                    assert q in trace.models[r.end][i1], f"q lost early at n={n}"
            assert q not in trace.models[fix][i1]

            reference = superagent_model(system, frozenset())
            assert q not in reference
            assert reference == frozenset(
                {atom("r", k) for k in range(n + 1)}
                | {atom("s", k) for k in range(n + 1)}
            )
    report(8, "rounds-to-fixpoint strictly increases with n; q wrong until fixpoint", t)


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_replay_determinism():
    with timed(10.0) as t:
        scenario = builtin_scenario("routing5")
        system = scenario.build_system()
        failure = [(2, EnvChange(frozenset(), frozenset([lk("A1", "A2")])))]
        for policy, seed in (("round-robin", 0), ("shuffled", 9)):
            trace = run_fair(
                system, env_schedule=failure, max_rounds=10, policy=policy, seed=seed
            )
            text = export_trace(trace)
            replayed = run_scripted(system, events_from_export(text.splitlines()))
            assert export_trace(replayed) == text

        ex6 = builtin_scenario("routing5-example6-script")
        system6 = ex6.build_system()
        trace6 = run_fair(system6, max_rounds=8, prefix_events=ex6.script)
        text6 = export_trace(trace6)
        assert export_trace(run_scripted(system6, events_from_export(text6.splitlines()))) == text6
    report(9, "exported traces replay byte-identically from their event lists", t)
