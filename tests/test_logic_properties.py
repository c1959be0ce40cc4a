"""Randomized cross-checks of the stable-model machinery.

Each suite fixes its seed; a failure is reproducible by rerunning the
test.  The naive checker below re-implements the reduct/least-model
definition over plain tuples, independently of the library code paths.
"""

import itertools
import random

from agentlog.logic import (
    AcyclicPlan,
    GroundProgram,
    atom,
    head_set,
    is_stable_model,
    least_model,
    stable_models_bruteforce,
)

from .generators import random_acyclic_program, random_program
from .reference import clause as make_clause
from .reference import dependency_graph


def naive_is_stable(program_rows, universe, s):
    """Textbook check over plain data: delete blocked rules, strip
    negatives, take the closure by repeated scanning, compare."""
    s = set(s)
    reduct = []
    for head, body in program_rows:
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


def rows_of(p):
    return [
        (head, [(x, True) for x in pos] + [(x, False) for x in neg])
        for head, pos, neg in p.clauses
    ]


def all_subsets(universe):
    atoms = sorted(universe)
    for k in range(len(atoms) + 1):
        yield from (frozenset(combo) for combo in itertools.combinations(atoms, k))


def test_is_stable_model_matches_textbook_definition():
    rng = random.Random(101)
    for _ in range(80):
        p = random_program(rng, max_atoms=12)
        rows = rows_of(p)
        for s in all_subsets(p.universe):
            assert is_stable_model(p, s) == naive_is_stable(rows, p.universe, s)


def test_acyclic_programs_have_exactly_one_stable_model():
    rng = random.Random(202)
    for _ in range(150):
        p = random_acyclic_program(rng, max_atoms=10)
        models = stable_models_bruteforce(p)
        assert len(models) == 1
        assert models[0] == AcyclicPlan(p.clauses).model()


def test_clause_support_property():
    # In every stable model, an atom is true iff some clause for it has a
    # satisfied body.
    rng = random.Random(303)
    for _ in range(80):
        p = random_program(rng, max_atoms=7)
        for m in stable_models_bruteforce(p):
            for x in p.universe:
                supported = any(
                    head == x
                    and all(x in m for x in pos)
                    and not any(x in m for x in neg)
                    for head, pos, neg in p.clauses
                )
                assert (x in m) == supported


def test_least_model_monotone_in_facts():
    rng = random.Random(404)
    for _ in range(100):
        p = random_acyclic_program(rng, max_atoms=8)
        positive = GroundProgram.of(
            [(head, pos, ()) for head, pos, _ in p.clauses],
            p.universe,
        )
        base = least_model(positive)
        extra = rng.choice(sorted(p.universe))
        assert base <= least_model(positive.with_facts([extra]))


def test_dependency_graph_is_exactly_head_body_incidence():
    rng = random.Random(505)
    for _ in range(60):
        p = random_program(rng, max_atoms=8)
        g = dependency_graph(p)
        expected = {
            (head, x) for head, pos, neg in p.clauses for x in pos + neg
        }
        assert g.edges == frozenset(expected)
        assert g.nodes == p.universe


def test_bruteforce_agrees_with_definition_on_cyclic_programs():
    rng = random.Random(606)
    for _ in range(60):
        p = random_program(rng, max_atoms=6)
        models = set(stable_models_bruteforce(p))
        expected = {s for s in all_subsets(p.universe) if is_stable_model(p, s)}
        assert models == expected


def test_bruteforce_agrees_with_definition_on_programs_with_facts():
    # Fact heads are set in every candidate and only the other heads are
    # enumerated; the definition tries every subset of the heads.  The
    # models must come in the same order as well.  Some programs get an
    # even loop over u and v, which has two models unless a fact is u or v.
    rng = random.Random(707)
    u, v = atom("u"), atom("v")
    counts = set()
    for _ in range(300):
        p = random_program(rng, max_atoms=6)
        if rng.random() < 0.3:
            p = GroundProgram.of(p.clauses | {make_clause(u, [], [v]), make_clause(v, [], [u])}, p.universe)
        fresh = [atom("g", k) for k in range(rng.randint(0, 3))]
        facts = [x for x in sorted(p.universe) if rng.random() < 0.15] + fresh
        p = p.with_facts(facts)
        expected = [s for s in all_subsets(head_set(p)) if is_stable_model(p, s)]
        expected.sort(key=lambda s: tuple(sorted(x.sort_key() for x in s)))
        assert stable_models_bruteforce(p) == expected
        counts.add(min(len(expected), 2))
    assert counts == {0, 1, 2}
