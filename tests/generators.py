"""Seeded random generators for programs and agent systems.

Everything is driven by an explicit ``random.Random`` so failures are
reproducible from the seed printed by the calling test.
"""

from __future__ import annotations

import random

from agentlog.agents import AgentSpec, AgentState, EnvChange
from agentlog.grounding import (
    Constraint,
    DomainSpec,
    Pattern,
    SchematicAtom,
    SchematicClause,
    Shift,
    Var,
)
from agentlog.logic import GroundProgram, atom
from agentlog.system import build_system

from .reference import clause


def signed_clause(head, body) -> tuple:
    """The clause ``head`` over ``(atom, positive)`` pairs."""
    return clause(head, [b for b, positive in body if positive], [b for b, positive in body if not positive])


def agent_spec(agent_id, program: GroundProgram, hbe=frozenset(), hin=frozenset(),
               initial=AgentState()) -> AgentSpec:
    """An ``AgentSpec`` of ``program``'s clauses, with ``deps`` by the
    definition of the atom dependency graph: each head -> every atom in
    the body of some clause for it."""
    deps = {}
    for head, pos, neg in program.clauses:
        deps.setdefault(head, set()).update(pos, neg)
    return AgentSpec(agent_id, deps, hbe, hin, initial, tuple(program.clauses))


def spec_fields(spec: AgentSpec) -> tuple:
    """An ``AgentSpec``'s fields, its clauses as a set: two groundings of
    one agent may list their clauses in different orders."""
    clauses = None if spec.clauses is None else frozenset(spec.clauses)
    return spec.id, spec.deps, spec.hbe, spec.hin, spec.initial, clauses


def with_clauses(spec: AgentSpec, extra) -> AgentSpec:
    """``spec`` with the clauses ``extra`` added to its IDB."""
    program = GroundProgram.of([*spec.clauses, *extra])
    return agent_spec(spec.id, program, spec.hbe, spec.hin, spec.initial)


def random_acyclic_program(rng: random.Random, max_atoms: int = 12) -> GroundProgram:
    """A random ground program whose dependency graph is a DAG by
    construction (bodies only mention atoms earlier in a fixed order)."""
    n = rng.randint(2, max_atoms)
    atoms = [atom(f"a{i}") for i in range(n)]
    clauses = []
    for i, head in enumerate(atoms):
        for _ in range(rng.choice((0, 1, 1, 2))):
            k = rng.randint(0, min(3, i))
            picks = rng.sample(atoms[:i], k) if k else []
            clauses.append(signed_clause(head, [(b, rng.random() > 0.3) for b in picks]))
    return GroundProgram.of(clauses, atoms)


def random_program(rng: random.Random, max_atoms: int = 10) -> GroundProgram:
    """A random ground program, cycles and negative loops allowed."""
    n = rng.randint(2, max_atoms)
    atoms = [atom(f"a{i}") for i in range(n)]
    clauses = []
    for head in atoms:
        for _ in range(rng.choice((0, 1, 1, 2))):
            k = rng.randint(0, 3)
            picks = rng.sample(atoms, min(k, n))
            clauses.append(signed_clause(head, [(b, rng.random() > 0.3) for b in picks]))
    return GroundProgram.of(clauses, atoms)


def random_system(rng: random.Random, io_acyclic: bool = True):
    """A valid multiagent system plus a finite environment schedule.

    With ``io_acyclic=True`` clause bodies only reference atoms lower in
    one global order, so the union rule base is a DAG.  Otherwise foreign
    references may point anywhere, which can close cross-agent cycles
    while each agent's own rule base stays acyclic.
    """
    n_agents = rng.randint(2, 4)
    ids = [f"A{i + 1}" for i in range(n_agents)]
    n_env = rng.randint(0, 4)
    env = [atom(f"e{i}") for i in range(n_env)]

    n_derived = rng.randint(3, 10)
    owners = [rng.randrange(n_agents) for _ in range(n_derived)]
    derived = [atom(f"p{i}") for i in range(n_derived)]

    # Every environment atom gets at least one sensor.
    sensors = {}
    for e in env:
        who = {i for i in range(n_agents) if rng.random() < 0.5}
        if not who:
            who = {rng.randrange(n_agents)}
        sensors[e] = who

    clauses = [[] for _ in range(n_agents)]
    used = [set() for _ in range(n_agents)]
    for k, head in enumerate(derived):
        owner = owners[k]
        own_below = [derived[j] for j in range(k) if owners[j] == owner]
        if io_acyclic:
            foreign = [derived[j] for j in range(k) if owners[j] != owner]
        else:
            foreign = [derived[j] for j in range(n_derived) if owners[j] != owner]
        for _ in range(rng.choice((1, 1, 2))):
            body = []
            for _ in range(rng.randint(0, 3)):
                pool = own_below + foreign + env
                if not pool:
                    break
                b = rng.choice(pool)
                body.append((b, rng.random() > 0.3))
                used[owner].add(b)
            clauses[owner].append(signed_clause(head, body))

    true_env = frozenset(e for e in env if rng.random() < 0.5)
    specs = []
    for i, agent_id in enumerate(ids):
        hbe = frozenset(e for e in env if i in sensors[e])
        own_heads = {derived[j] for j in range(n_derived) if owners[j] == i}
        hin = frozenset(
            b for b in used[i] if b not in own_heads and b not in hbe
        )
        edb = true_env & hbe
        indb = frozenset(b for b in hin if rng.random() < 0.3)
        idb = GroundProgram.of(clauses[i], hbe | hin)
        specs.append(agent_spec(agent_id, idb, hbe, hin, AgentState(edb, indb)))

    schedule = []
    for _ in range(rng.randint(0, 2)):
        if not env:
            break
        t = frozenset(e for e in env if rng.random() < 0.3)
        f = frozenset(e for e in env if e not in t and rng.random() < 0.3)
        if t or f:
            schedule.append((rng.randint(1, 3), EnvChange(t, f)))
    return build_system(specs), tuple(schedule)


# Schematic scenarios: a typed domain plus clauses and patterns over it.
_NODE_VARS = ("X", "Y", "Z")
_INT_VARS = ("D", "E", "F")
# predicate -> argument types ("n" node, "i" integer); "link" is symmetric.
_SIGNATURES = {"t": "", "p": "n", "s": "i", "link": "nn", "q": "ni", "r": "nni", "u": "nii"}


def random_schematic_scenario(rng: random.Random):
    """A random ``(DomainSpec, clauses, patterns)``.

    Terms mix node and integer variables, constants (some integers outside
    ``0..dmax``) and ``VAR+k`` shifts.  Constraints use ``<``, ``=`` and
    ``!=`` with either side a variable, and may mention variables that no
    atom has.  ``<`` only compares terms of one type, as the full-product
    grounder would raise on mixed ones.
    """
    dmax = rng.randint(0, 6)
    nodes = tuple(f"N{i}" for i in range(rng.choice((0, 1, 2, 3, 3, 4))))
    dom = DomainSpec(nodes, dmax, frozenset(_NODE_VARS), frozenset(_INT_VARS), frozenset(["link"]))

    def term(kind):
        roll = rng.random()
        if kind == "n":
            if roll < 0.75 or not nodes:
                return Var(rng.choice(_NODE_VARS))
            return rng.choice(nodes)
        if roll < 0.5:
            return Var(rng.choice(_INT_VARS))
        if roll < 0.8:
            # Parsed shifts are never negative; built ones may be.
            return Shift(rng.choice(_INT_VARS), rng.choice((1, 1, 2, 3, -1)))
        return rng.randint(0, dmax + 2)

    def schematic_atom():
        predicate = rng.choice(sorted(_SIGNATURES))
        return SchematicAtom(predicate, tuple(term(k) for k in _SIGNATURES[predicate]))

    def constraint():
        kind = rng.choice("nii")
        left, right = term(kind), term(kind)
        op = rng.choice(("<", "=", "!="))
        if op != "<" and rng.random() < 0.15:
            right = term("i" if kind == "n" else "n")
        if rng.random() < 0.5:
            left, right = right, left
        return Constraint(op, left, right)

    def constraints():
        return tuple(constraint() for _ in range(rng.choice((0, 1, 1, 2, 3))))

    def clause():
        head = schematic_atom()
        body = [(schematic_atom(), rng.random() > 0.3) for _ in range(rng.randint(0, 3))]
        pos = tuple(a for a, positive in body if positive)
        neg = tuple(a for a, positive in body if not positive)
        return SchematicClause(head, pos, neg, constraints())

    clauses = tuple(clause() for _ in range(rng.randint(1, 4)))
    patterns = tuple(Pattern(schematic_atom(), constraints()) for _ in range(rng.randint(0, 2)))
    return dom, clauses, patterns
