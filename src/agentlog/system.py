"""Multiagent system assembly, the superagent reference, and classification.

The superagent is the idealized single agent holding every rule base and
sensing everything; its stable model in a given environment is the
correctness reference against which runs are judged.  The I/O graph is
the superagent's atom dependency graph restricted to atoms relevant to
some input atom; its acyclicity and (empirical) finiteness are the
hypotheses of the stabilization guarantees.  A system is assembled from
``AgentSpec``s and reads that graph once, off the union of the agents'
head -> body-atoms maps (``deps``).  It keeps its I/O atoms, the atoms
that reach a cycle, and the order in which its heads peel off.  On first
use it builds the union rule base as one table, each head -> every
agent's clauses for it; the live atoms, the reference model and, on the
first model evaluation, one plan per agent of the clauses that can fire
in some state of a run all come from it.  A plan groups its clauses by
head the same way, and the reference model of an acyclic union and a
plan's model are the one pass ``logic._derive`` over such a table, in
peel order.  The superagent program itself is built only for the
brute-force fallback.  All of these need agents grounded into clauses.

Validation reads the assembled system: its cyclic atoms, its environment
atoms and each agent's ``deps``.  The union rule base is well defined only
when agents that define the same atom define it the same way, so the
clauses of exactly those heads are compared: only their definers need
clauses, and that check walks no clause when no head is shared.  Each
kind of violation comes in agent order, and within an agent by sorted
atom.

Classification reads only three things of a system: its I/O atoms, its
cyclic atoms and its bound, so it takes a system whose agents carry no
clauses as well as one whose agents do.  Which agent takes which atoms
from which is not kept: only a run reads it, and derives it once (see
``runtime.dependent_pairs``).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .agents import _few, validate_agent
from .logic import (
    BRUTEFORCE_CAP,
    AcyclicPlan,
    DependencyGraph,
    GroundProgram,
    _derive,
    _peel,
    stable_models_bruteforce,
)

__all__ = [
    "MultiAgentSystem",
    "Classification",
    "ValidationError",
    "NoUniqueModelError",
    "build_system",
    "system_violations",
    "defined_heads",
    "superagent",
    "superagent_model",
    "io_graph",
    "classify",
]


class ValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NoUniqueModelError(ValueError):
    """The combined program gives no unique-model guarantee."""


class MultiAgentSystem:
    """``AgentSpec``s, with or without clauses, plus derived lookup tables.

    ``io_atoms`` are the nodes of the I/O graph, ``cyclic`` the atoms
    from which a cycle of the union rule base can be reached, and
    ``order`` the other heads of the union, each after the heads in its
    clauses' bodies; all three come from the union of the agents'
    ``deps``, which is not kept.  Of an agent, only ``id``, ``deps``,
    ``heads``, ``hbe`` and ``hin`` are read, until ``rules`` is.
    """

    def __init__(self, agents, dmax=None):
        self.agents = tuple(agents)
        self.dmax = dmax
        self.ids = tuple(a.id for a in self.agents)
        self._index = {a.id: i for i, a in enumerate(self.agents)}
        self.env_atoms = frozenset().union(*(a.hbe for a in self.agents))
        deps = _union_dependencies(self.agents)
        self.order, self.cyclic = _peel(deps)
        self.io_atoms = _io_atoms(self.agents, deps)

    def index(self, agent_id: str) -> int:
        return self._index[agent_id]

    @cached_property
    def rules(self) -> dict:
        """The union rule table: each head of the union rule base -> every
        agent's clauses for it, built on first use.  Needs agents' clauses."""
        rules = {}
        for a in self.agents:
            for c in a.clauses:
                rules.setdefault(c[0], []).append(c)
        return rules

    @cached_property
    def plans(self) -> tuple:
        """Each agent's compiled IDB, in agent order, built on first use,
        of its clauses whose positive body atoms are all live (see
        ``_live_atoms``); facts may not be any head of its whole IDB."""
        agents = self.agents
        base = self.env_atoms.union(*(a.hin for a in agents))
        live = _live_atoms(self.rules, base, self.order + tuple(self.cyclic))
        return tuple(
            AcyclicPlan([c for c in a.clauses if live.issuperset(c[1])], a.heads)
            for a in agents
        )


def defined_heads(agents) -> tuple:
    """``(defined, shared)``: the heads of the agents' ``deps`` maps, and
    those that more than one agent defines."""
    defined, shared = set(), set()
    for a in agents:
        shared |= defined.intersection(a.deps)
        defined.update(a.deps)
    return defined, shared


def system_violations(system: MultiAgentSystem) -> list:
    """Every agent-level and system-level invariant breach, exhaustively,
    read off the assembled system's tables, in a fixed order; only agents
    that define a head another agent defines too are read for clauses."""
    agents = system.agents
    violations = []
    seen = set()
    for a in agents:
        if a.id in seen:
            violations.append(f"duplicate agent id: {a.id}")
        seen.add(a.id)
        violations.extend(validate_agent(a, system.cyclic))
    defined, shared = defined_heads(agents)

    # Only heads that several agents define can be defined differently;
    # each later definer's clauses for one are compared with the first's.
    first = {}
    for a in agents:
        mine = shared & a.heads
        if not mine:
            continue
        by_head = {}
        for c in a.clauses:
            if c[0] in mine:
                by_head.setdefault(c[0], set()).add(c)
        for h in sorted(mine):
            if h not in first:
                first[h] = (a.id, by_head[h])
            elif first[h][1] != by_head[h]:
                violations.append(f"atom {h} has different definitions in {first[h][0]} and {a.id}")

    producible = system.env_atoms | defined
    for a in agents:
        uncovered = a.hin - producible
        if uncovered:
            violations.append(f"agent {a.id}: no producer for input atoms: {_few(uncovered)}")

    for a in agents:
        headed_env = system.env_atoms.intersection(a.heads)
        if headed_env:
            violations.append(f"agent {a.id}: environment atoms appear as heads: {_few(headed_env)}")
    return violations


def build_system(specs, dmax=None) -> MultiAgentSystem:
    """Assemble and validate; raises ValidationError listing all breaches."""
    system = MultiAgentSystem(specs, dmax=dmax)
    violations = system_violations(system)
    if violations:
        raise ValidationError(violations)
    return system


def superagent(sys: MultiAgentSystem) -> GroundProgram:
    """The union rule base: every agent's clauses over the union of the
    agents' universes."""
    agents = sys.agents
    clauses = frozenset().union(*(a.clauses for a in agents))
    universe = frozenset().union(*(a.universe for a in agents))
    return GroundProgram(clauses, universe)


def superagent_model(sys: MultiAgentSystem, stabilized_edb: frozenset) -> frozenset:
    """The reference model: stable model of ``IDB_all + EDB``.

    A fact may not head a clause, and a fact outside the environment
    atoms is refused, whichever route is taken.  An acyclic union is
    evaluated by ``_derive``, the one pass a plan's ``model`` makes, over
    ``sys.order`` and ``sys.rules``: a head is true when some clause for
    it fires, whichever agent's it is, as the agents of an unvalidated
    system may define a shared head differently.  A negation-free cyclic
    union has a unique stable model, its least model, which is the
    positive closure ``_live_atoms`` computes over the same table.  Only
    for the rest is the superagent program built, and tried by brute
    force, when the agents' universes, which hold the EDB, come to at most
    ``BRUTEFORCE_CAP`` atoms; several or zero models raise
    NoUniqueModelError.
    """
    rules = sys.rules
    clash = [f for f in stabilized_edb if f in rules]
    if clash:
        raise ValueError(f"fact atoms may not head clauses: {sorted(clash)[:3]}")
    outside = stabilized_edb - sys.env_atoms
    if outside:
        raise ValueError(f"stabilized EDB outside the environment atoms: {_few(outside)}")
    if not sys.cyclic:
        return frozenset(_derive(set(stabilized_edb), sys.order, rules))
    if not any(c[2] for clauses in rules.values() for c in clauses):
        return _live_atoms(rules, stabilized_edb, sys.order + tuple(sys.cyclic))
    if len(frozenset().union(*(a.universe for a in sys.agents))) > BRUTEFORCE_CAP:
        raise NoUniqueModelError(
            "cyclic program with negation is too large for the brute-force fallback"
        )
    models = stable_models_bruteforce(superagent(sys).with_facts(stabilized_edb))
    if len(models) == 1:
        return models[0]
    raise NoUniqueModelError(
        f"cyclic program has {len(models)} stable models in this environment"
    )


def _live_atoms(rules: dict, base: frozenset, heads) -> frozenset:
    """The least model of the union rule table ``rules`` with every
    negated body atom dropped and every atom of ``base`` a fact: its
    positive closure.  In a state whose facts are all in ``base``, every
    agent's model and the union's lie inside it, so a clause with a
    positive body atom outside it fires in none of them.  When no clause
    has a negated body atom, it is the union's stable model with the
    facts ``base``.  ``heads`` lists the union's heads, as far as it can
    each after the heads in its clauses' bodies: then one pass over them
    finds every head that holds, and one more finds none."""
    true = set(base)
    size = None
    while size != len(true):
        size = len(true)
        for h in heads:
            if h not in true and any(true.issuperset(c[1]) for c in rules[h]):
                true.add(h)
    return frozenset(true)


def _union_dependencies(agents) -> dict:
    """Each head of the agents' union rule base -> the atoms in the bodies
    of its clauses, united from each agent's ``deps``; a head that several
    agents define gets a new set, so no agent's map changes."""
    deps = {}
    for a in agents:
        for h, body in a.deps.items():
            mine = deps.get(h)
            deps[h] = body if mine is None else mine | body
    return deps


def _io_atoms(agents, deps: dict) -> frozenset:
    """The input atoms and every atom reachable from one in ``deps``: the
    I/O graph's nodes.  The set is closed under ``deps``."""
    keep = set().union(*(a.hin for a in agents))
    frontier = list(keep)
    while frontier:
        for b in deps.get(frontier.pop(), ()):
            if b not in keep:
                keep.add(b)
                frontier.append(b)
    return frozenset(keep)


def io_graph(sys: MultiAgentSystem) -> DependencyGraph:
    """Dependency graph of the union rule base, restricted to atoms
    relevant to some input atom.  Input atoms themselves stay in."""
    deps = _union_dependencies(sys.agents)
    edges = frozenset((a, b) for a in sys.io_atoms for b in deps.get(a, ()))
    return DependencyGraph(sys.io_atoms, edges)


class Classification(NamedTuple):
    """IO-acyclicity and friends, as measured on one grounding of a
    system.

    ``bounded`` is per-atom definition finiteness, vacuously true on a
    ground slice.  ``io_finite`` is empirical: when a probe is available,
    the I/O atoms are counted again at ``dmax + probe_delta`` and growth
    counts as not IO-finite.  ``probe_sizes`` holds the two counts, and
    is empty when there was no probe.
    """

    io_acyclic: bool
    bounded: bool
    io_finite: bool
    idb_acyclic: bool
    io_nodes: int
    dmax: object = None
    probe_sizes: tuple = ()
    probe_delta: int = 0


def classify(sys: MultiAgentSystem, probe: MultiAgentSystem = None) -> Classification:
    """Classify a ``MultiAgentSystem``; only its ``io_atoms``, ``cyclic``
    and ``dmax`` are read, so its agents need no clauses.  ``probe`` is
    the system at a larger bound, such as the second that
    ``Scenario.shapes`` yields; its I/O atoms are counted.

    Both acyclicity flags are reported as measured.  A system can be
    IO-acyclic with a cyclic union IDB: a clause body may read an atom
    outside its agent's atom base, so a cycle of the union need not pass
    through any I/O atom.
    """
    idb_acyclic = not sys.cyclic
    io_acyclic = sys.cyclic.isdisjoint(sys.io_atoms)

    probe_sizes = ()
    probe_delta = 0
    io_finite = True
    if probe is not None:
        if sys.dmax is None or probe.dmax is None or probe.dmax <= sys.dmax:
            raise ValueError("io-finiteness probe needs the system's dmax and a larger one")
        probe_sizes = (len(sys.io_atoms), len(probe.io_atoms))
        probe_delta = probe.dmax - sys.dmax
        io_finite = probe_sizes[0] == probe_sizes[1]

    return Classification(
        io_acyclic=io_acyclic,
        bounded=True,
        io_finite=io_finite,
        idb_acyclic=idb_acyclic,
        io_nodes=len(sys.io_atoms),
        dmax=sys.dmax,
        probe_sizes=probe_sizes,
        probe_delta=probe_delta,
    )
