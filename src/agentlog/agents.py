"""Agents as deductive databases: rule base, sensed facts, received facts.

An agent owns an acyclic rule base (its IDB), a set of environment atoms
it can sense (HBE) and a set of input atoms it must be told about (HIN).
Its state is the pair of currently sensed facts (EDB) and currently
received facts (IN); the agent's beliefs are the stable model of
``IDB + EDB + IN``.  A run moves by two kinds of event: an ``EnvChange``
that agents sense, and a ``CommEvent`` that pushes facts from a sender
to a receiver.

States are values: the two update operators return new sets instead of
mutating.  Each has a delta form, ``env_delta`` and ``input_delta``,
that returns the atoms an event adds to and removes from the set, which
is all a recorded run keeps of the event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .logic import AcyclicPlan, GroundProgram, _dependency_sink, _peel, head_set

__all__ = [
    "AgentState",
    "AgentSpec",
    "AgentTables",
    "EnvChange",
    "CommEvent",
    "validate_agent",
    "agent_model",
    "dependency",
    "message_payload",
    "input_delta",
    "update_input",
    "env_delta",
    "update_env",
]


@dataclass(frozen=True)
class AgentState:
    """What the agent currently holds: sensed facts and received facts."""

    edb: frozenset = frozenset()
    indb: frozenset = frozenset()


@dataclass(frozen=True)
class AgentSpec:
    """An agent: id, rule base, sensable atoms, input atoms, initial state.

    Construction is permissive so that malformed specs can be inspected;
    ``validate_agent`` reports every invariant breach, and system assembly
    refuses specs with violations.  The IDB's head set is built on first
    use and kept with the spec; its compiled plan belongs to the system
    (``MultiAgentSystem.plans``), which alone knows which clauses can fire.
    """

    id: str
    idb: GroundProgram
    hbe: frozenset = frozenset()
    hin: frozenset = frozenset()
    initial: AgentState = field(default_factory=AgentState)

    @cached_property
    def heads(self) -> frozenset:
        """The atoms the IDB's clauses define."""
        return head_set(self.idb)

    @property
    def deps(self) -> dict:
        """Each head of the IDB -> the atoms in the bodies of its clauses."""
        deps, sink = _dependency_sink()
        for c in self.idb.clauses:
            sink(*c)
        return deps

    @property
    def hb(self) -> frozenset:
        """The atoms this agent has an opinion about."""
        return self.heads | self.hbe | self.hin


@dataclass(frozen=True, eq=False)
class AgentTables:
    """An agent as system assembly and validation read it, without its
    clauses: each head's body atoms, the sensable and input atoms, and
    the initial state.  A system of these can be validated and
    classified, but not run."""

    id: str
    deps: dict
    hbe: frozenset
    hin: frozenset
    initial: AgentState

    @cached_property
    def heads(self) -> frozenset:
        """The atoms the agent's clauses define."""
        return frozenset(self.deps)


def validate_agent(a: AgentSpec, cyclic: frozenset = None) -> list:
    """All invariant violations of the spec or of its ``AgentTables``, as
    human-readable strings; only the tables are read, never the clauses.

    ``cyclic``, when given, holds the atoms that can reach a cycle of a
    rule base containing this agent's clauses, such as the union of every
    agent's.  A cycle of the agent's own IDB runs through its heads and
    is a cycle of that rule base too, so an agent none of whose heads is
    in ``cyclic`` is acyclic without a check of its own.
    """
    violations = []
    if cyclic is None or not a.heads.isdisjoint(cyclic):
        if _peel(a.deps)[1]:
            violations.append(f"agent {a.id}: IDB is not acyclic")
    overlap = a.hin & a.hbe
    if overlap:
        violations.append(
            f"agent {a.id}: HIN and HBE overlap on {_few(overlap)}"
        )
    headed_inputs = (a.hin | a.hbe) & a.heads
    if headed_inputs:
        violations.append(
            f"agent {a.id}: input/environment atoms appear as clause heads: {_few(headed_inputs)}"
        )
    if not a.initial.edb <= a.hbe:
        violations.append(
            f"agent {a.id}: initial EDB outside HBE: {_few(a.initial.edb - a.hbe)}"
        )
    if not a.initial.indb <= a.hin:
        violations.append(
            f"agent {a.id}: initial IN outside HIN: {_few(a.initial.indb - a.hin)}"
        )
    return violations


def _few(atoms) -> str:
    listed = ", ".join(str(a) for a in sorted(atoms)[:4])
    return listed + (", ..." if len(atoms) > 4 else "")


def agent_model(a: AgentSpec, s: AgentState, plan: AcyclicPlan = None) -> frozenset:
    """Stable model of ``IDB + EDB + IN`` at state ``s``.

    Sensed and received atoms head no IDB clause, so adding them as facts
    preserves acyclicity and the model is unique.  ``plan`` is the
    agent's compiled IDB, such as its system's, which holds only the
    clauses that can fire in a state the system reaches; without one the
    whole IDB is compiled.
    """
    if plan is None:
        plan = AcyclicPlan(a.idb)
    return plan.model(s.edb | s.indb)


def dependency(receiver: AgentSpec, sender: AgentSpec) -> frozenset:
    """Atoms the receiver needs that the sender can produce or sense."""
    return receiver.hin & (sender.heads | sender.hbe)


def message_payload(sender_model: frozenset, dep: frozenset) -> frozenset:
    """What the sender pushes: its model restricted to the dependency."""
    return dep & sender_model


def input_delta(indb, dep: frozenset, sender_model) -> tuple:
    """``(added, removed)``: what a send from a sender whose model is
    ``sender_model`` changes of the receiver's input database ``indb``,
    read off the dependency slice ``dep`` alone."""
    payload = message_payload(sender_model, dep)
    held = dep & indb
    return payload - held, held - payload


def update_input(indb: frozenset, dep: frozenset, payload: frozenset) -> frozenset:
    """Replace the dependency slice of the input database with the payload.

    Atoms of ``dep`` missing from ``payload`` are thereby retracted: the
    sender has just vouched they are false.
    """
    if not payload <= dep:
        raise ValueError(f"payload outside dependency: {_few(payload - dep)}")
    return (indb - dep) | payload


@dataclass(frozen=True)
class EnvChange:
    """Atoms that just became true, and atoms that just became false."""

    became_true: frozenset = frozenset()
    became_false: frozenset = frozenset()

    def __post_init__(self):
        overlap = self.became_true & self.became_false
        if overlap:
            raise ValueError(f"change has atoms in both directions: {_few(overlap)}")

    @property
    def touched(self) -> frozenset:
        return self.became_true | self.became_false


@dataclass(frozen=True)
class CommEvent:
    """The sender pushes its dependency slice to the receiver."""

    sender: str
    receiver: str


def env_delta(edb, change: EnvChange, hbe: frozenset) -> tuple:
    """``(added, removed)``: what the sensable part of an environment
    change adds to and removes from the EDB ``edb``."""
    return (change.became_true & hbe) - edb, change.became_false & hbe & edb


def update_env(edb: frozenset, change: EnvChange, hbe: frozenset) -> frozenset:
    """Apply the sensable part of an environment change to the EDB."""
    added, removed = env_delta(edb, change, hbe)
    return (edb - removed) | added
