"""Multiagent system assembly, the superagent reference, and classification.

The superagent is the idealized single agent holding every rule base and
sensing everything; its stable model in a given environment is the
correctness reference against which runs are judged.  The I/O graph is
the superagent's atom dependency graph restricted to atoms relevant to
some input atom; its acyclicity and (empirical) finiteness are the
hypotheses of the stabilization guarantees.  A system reads that graph
straight off the agents' clauses once, when it is assembled, and keeps
its I/O atoms and the atoms that reach a cycle; the superagent program
itself is built only for the reference model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .agents import AgentSpec, dependency, validate_agent
from .logic import (
    CyclicProgramError,
    DependencyGraph,
    GroundProgram,
    _dependencies,
    _peel,
    least_model,
    stable_model_acyclic,
    stable_models_bruteforce,
)

__all__ = [
    "MultiAgentSystem",
    "SuperAgent",
    "Classification",
    "ValidationError",
    "NoUniqueModelError",
    "build_system",
    "system_violations",
    "superagent",
    "superagent_model",
    "io_graph",
    "io_atom_count",
    "classify",
]


class ValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NoUniqueModelError(ValueError):
    """The combined program gives no unique-model guarantee."""


class MultiAgentSystem:
    """A collection of agents plus derived lookup tables.

    ``io_atoms`` are the nodes of the I/O graph, and ``cyclic`` the atoms
    from which a cycle of the union rule base can be reached; both come
    from one head -> body-atoms map of every agent's clauses, which is
    not kept.
    """

    def __init__(self, agents, dmax=None):
        self.agents = tuple(agents)
        self.dmax = dmax
        self.ids = tuple(a.id for a in self.agents)
        self._index = {a.id: i for i, a in enumerate(self.agents)}
        self.env_atoms = frozenset().union(*(a.hbe for a in self.agents)) if self.agents else frozenset()
        self._hb = {a.id: a.hb for a in self.agents}
        deps = _dependencies(a.idb for a in self.agents)
        self.io_atoms = _io_atoms(self.agents, deps)
        self.cyclic = _peel(deps)[1]
        self._deps = {}
        for recv in self.agents:
            for sender in self.agents:
                if recv.id == sender.id:
                    continue
                d = dependency(recv, sender)
                if d:
                    self._deps[(recv.id, sender.id)] = d
        # Canonical fair order: by receiver id, then sender id.
        self.dependent_pairs = tuple(sorted(self._deps))

    def index(self, agent_id: str) -> int:
        return self._index[agent_id]

    def agent(self, agent_id: str) -> AgentSpec:
        return self.agents[self._index[agent_id]]

    def hb(self, agent_id: str) -> frozenset:
        return self._hb[agent_id]

    def dependency(self, receiver_id: str, sender_id: str) -> frozenset:
        return self._deps.get((receiver_id, sender_id), frozenset())

    def __eq__(self, other):
        return (
            isinstance(other, MultiAgentSystem)
            and self.agents == other.agents
            and self.dmax == other.dmax
        )

    def __hash__(self):
        return hash((self.agents, self.dmax))


def system_violations(specs, cyclic=None) -> list:
    """Every agent-level and system-level invariant breach, exhaustively.

    ``cyclic`` is the set of atoms that reach a cycle of the specs' union
    rule base, as ``MultiAgentSystem.cyclic`` holds it; it is worked out
    here when not given.
    """
    specs = tuple(specs)
    if cyclic is None:
        cyclic = _peel(_dependencies(a.idb for a in specs))[1]
    violations = []
    seen = set()
    for a in specs:
        if a.id in seen:
            violations.append(f"duplicate agent id: {a.id}")
        seen.add(a.id)
        violations.extend(validate_agent(a, cyclic))

    definitions = {}
    for a in specs:
        by_head = {}
        for c in a.idb.clauses:
            by_head.setdefault(c.head, set()).add(c)
        for h, cs in by_head.items():
            if h in definitions and definitions[h][1] != cs:
                violations.append(
                    f"atom {h} has different definitions in {definitions[h][0]} and {a.id}"
                )
            else:
                definitions.setdefault(h, (a.id, cs))

    producible = frozenset().union(
        *(a.heads | a.hbe for a in specs)
    ) if specs else frozenset()
    for a in specs:
        uncovered = a.hin - producible
        if uncovered:
            listed = ", ".join(str(x) for x in sorted(uncovered)[:4])
            violations.append(f"agent {a.id}: no producer for input atoms: {listed}")

    env = frozenset().union(*(a.hbe for a in specs)) if specs else frozenset()
    for a in specs:
        headed_env = env & a.heads
        if headed_env:
            listed = ", ".join(str(x) for x in sorted(headed_env)[:4])
            violations.append(f"agent {a.id}: environment atoms appear as heads: {listed}")
    return violations


def build_system(specs, dmax=None) -> MultiAgentSystem:
    """Assemble and validate; raises ValidationError listing all breaches."""
    system = MultiAgentSystem(specs, dmax=dmax)
    violations = system_violations(system.agents, system.cyclic)
    if violations:
        raise ValidationError(violations)
    return system


@dataclass(frozen=True)
class SuperAgent:
    """Union rule base plus the union of the initial sensed facts."""

    idb_all: GroundProgram
    initial_edb: frozenset


def superagent(sys: MultiAgentSystem) -> SuperAgent:
    """Every agent's rule base, atoms and initial EDB, united in one pass.
    Each rule base is a checked program, so the union needs no universe
    scan."""
    agents = sys.agents
    clauses = frozenset().union(*(a.idb.clauses for a in agents))
    universe = frozenset().union(
        *(a.idb.universe for a in agents), sys.env_atoms, *(a.hin for a in agents)
    )
    initial = frozenset().union(*(a.initial.edb for a in agents))
    return SuperAgent(GroundProgram._unchecked(clauses, universe), initial)


def superagent_model(sa: SuperAgent, stabilized_edb: frozenset, cap: int = 20) -> frozenset:
    """The reference model: stable model of ``IDB_all + EDB``.

    Acyclic programs are evaluated directly.  A cyclic but negation-free
    program still has a unique stable model (its least model).  Otherwise
    brute force is attempted below ``cap`` atoms; several or zero models
    raise NoUniqueModelError.
    """
    try:
        return stable_model_acyclic(sa.idb_all, facts=stabilized_edb)
    except CyclicProgramError:
        pass
    combined = sa.idb_all.with_facts(stabilized_edb)
    if all(l.positive for c in combined.clauses for l in c.body):
        return least_model(combined)
    if len(combined.universe) <= cap:
        models = stable_models_bruteforce(combined, cap=cap)
        if len(models) == 1:
            return models[0]
        raise NoUniqueModelError(
            f"cyclic program has {len(models)} stable models in this environment"
        )
    raise NoUniqueModelError(
        "cyclic program with negation is too large for the brute-force fallback"
    )


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
    deps = _dependencies(a.idb for a in sys.agents)
    edges = frozenset((a, b) for a in sys.io_atoms for b in deps.get(a, ()))
    return DependencyGraph(sys.io_atoms, edges)


def io_atom_count(sys: MultiAgentSystem) -> int:
    """Number of nodes of ``io_graph(sys)``."""
    return len(sys.io_atoms)


@dataclass(frozen=True)
class Classification:
    """IO-acyclicity and friends, as measured on this grounding.

    ``bounded`` is per-atom definition finiteness, vacuously true on a
    ground slice.  ``io_finite`` is empirical: when a regrounding probe is
    available, the I/O graph is grounded again at ``dmax + probe_delta``
    and growth counts as not IO-finite.
    """

    io_acyclic: bool
    bounded: bool
    io_finite: bool
    idb_acyclic: bool
    io_nodes: int
    dmax: object = None
    probed: bool = False
    probe_sizes: tuple = ()
    probe_delta: int = 0


def classify(sys: MultiAgentSystem, reground=None, probe_delta: int = 2) -> Classification:
    """Classify a system; ``reground(dmax)`` rebuilds it at another bound.

    Raises RuntimeError if the measurement ever contradicts the
    io-acyclic => idb-acyclic implication, which would be a bug.
    """
    idb_acyclic = not sys.cyclic
    io_acyclic = sys.cyclic.isdisjoint(sys.io_atoms)
    if io_acyclic and not idb_acyclic:
        raise RuntimeError("IO-acyclic system with cyclic union IDB")

    probed = False
    probe_sizes = ()
    io_finite = True
    if reground is not None:
        if sys.dmax is None:
            raise ValueError("io-finiteness probe needs the system's dmax")
        probe_sizes = (len(sys.io_atoms), io_atom_count(reground(sys.dmax + probe_delta)))
        io_finite = probe_sizes[0] == probe_sizes[1]
        probed = True

    return Classification(
        io_acyclic=io_acyclic,
        bounded=True,
        io_finite=io_finite,
        idb_acyclic=idb_acyclic,
        io_nodes=len(sys.io_atoms),
        dmax=sys.dmax,
        probed=probed,
        probe_sizes=probe_sizes,
        probe_delta=probe_delta if probed else 0,
    )
