"""Agents as deductive databases: rule base, sensed facts, received facts.

An agent owns an acyclic rule base (its IDB), a set of environment atoms
it can sense (HBE) and a set of input atoms it must be told about (HIN).
An ``AgentSpec`` holds the IDB as a head -> body-atoms map and, when it
was grounded into them, as its clauses; its ``GroundProgram`` is built
only on request.  Its state is the pair of currently sensed facts (EDB)
and currently received facts (IN); the agent's beliefs are the stable
model of ``IDB + EDB + IN``.  A run moves by two kinds of event: an
``EnvChange`` that agents sense, and a ``CommEvent`` that pushes facts
from a sender to a receiver.

An environment change is read as a delta: ``env_delta`` returns the
atoms it adds to and removes from an agent's EDB, which is all a
recorded run keeps of the event.  A send replaces the receiver's slice
of IN with the sender's model restricted to that slice, so atoms of the
slice the sender no longer holds are retracted.
"""

from __future__ import annotations

from typing import NamedTuple

from .logic import AcyclicPlan, GroundProgram, _peel

__all__ = [
    "AgentState",
    "AgentSpec",
    "EnvChange",
    "CommEvent",
    "validate_agent",
    "agent_model",
    "dependency",
    "env_delta",
]


class AgentState(NamedTuple):
    """What the agent currently holds: sensed facts and received facts."""

    edb: frozenset = frozenset()
    indb: frozenset = frozenset()


class AgentSpec(NamedTuple):
    """An agent: id, rule base, sensable atoms, input atoms, initial state.

    ``deps`` maps each head of the IDB to the atoms in the bodies of its
    clauses.  ``clauses`` is the tuple of the IDB's ground clauses, each
    once and each a ``(head, pos, neg)`` tuple, or None for an agent
    grounded into ``deps`` alone, which can be assembled, validated and
    classified but not run.  Specs compare by identity, as two groundings
    may list the clauses in different orders.  Every derived set is read
    off ``deps`` when asked for, so it follows the map when a grounding
    at a higher bound extends it in place.

    Construction is permissive so that malformed specs can be inspected;
    ``validate_agent`` reports every invariant breach, and system assembly
    refuses specs with violations.  The compiled plan belongs to the
    system (``MultiAgentSystem.plans``), which alone knows which clauses
    can fire.
    """

    id: str
    deps: dict
    hbe: frozenset = frozenset()
    hin: frozenset = frozenset()
    initial: AgentState = AgentState()
    clauses: tuple = None

    def __eq__(self, other):
        return self is other

    __ne__, __hash__ = object.__ne__, object.__hash__

    @property
    def heads(self):
        """The atoms the IDB's clauses define: a view of ``deps``' keys."""
        return self.deps.keys()

    @property
    def universe(self) -> frozenset:
        """The heads, the body atoms, HBE and HIN: the IDB's universe."""
        return frozenset().union(self.deps, *self.deps.values(), self.hbe, self.hin)

    @property
    def idb(self) -> GroundProgram:
        """The IDB as a program over ``universe``, built on each read."""
        return GroundProgram(frozenset(self.clauses), self.universe)

    @property
    def hb(self) -> frozenset:
        """The atoms this agent has an opinion about."""
        return frozenset().union(self.deps, self.hbe, self.hin)


def validate_agent(a: AgentSpec, cyclic: frozenset = None) -> list:
    """All invariant violations of the spec, as human-readable strings;
    only ``deps`` and the atom sets are read, never the clauses.

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


def agent_model(a: AgentSpec, s: AgentState, plan: AcyclicPlan) -> frozenset:
    """Stable model of ``IDB + EDB + IN`` at state ``s``.

    Sensed and received atoms head no IDB clause, so adding them as facts
    preserves acyclicity and the model is unique.  ``plan`` is agent
    ``a``'s compiled IDB, such as its system's, which holds only the
    clauses that can fire in a state the system reaches.
    """
    return plan.model(s.edb | s.indb)


def dependency(receiver: AgentSpec, sender: AgentSpec) -> frozenset:
    """Atoms the receiver needs that the sender can produce or sense."""
    deps, hbe = sender.deps, sender.hbe
    return frozenset(x for x in receiver.hin if x in deps or x in hbe)


class _ChangeFields(NamedTuple):
    became_true: frozenset = frozenset()
    became_false: frozenset = frozenset()


class EnvChange(_ChangeFields):
    """Atoms that just became true, and atoms that just became false; an
    atom in both is refused."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        overlap = self.became_true & self.became_false
        if overlap:
            raise ValueError(f"change has atoms in both directions: {_few(overlap)}")
        return self

    @classmethod
    def _make(cls, fields) -> "EnvChange":
        """By the constructor, so that ``_replace`` checks too."""
        return cls(*fields)

    @property
    def touched(self) -> frozenset:
        return self.became_true | self.became_false


class CommEvent(NamedTuple):
    """The sender pushes its dependency slice to the receiver."""

    sender: str
    receiver: str


def env_delta(edb, change: EnvChange, hbe: frozenset) -> tuple:
    """``(added, removed)``: what the sensable part of an environment
    change adds to and removes from the EDB ``edb``."""
    return (change.became_true & hbe) - edb, change.became_false & hbe & edb
