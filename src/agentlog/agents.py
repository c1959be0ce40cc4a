"""Agents as deductive databases: rule base, sensed facts, received facts.

An agent owns an acyclic rule base (its IDB), a set of environment atoms
it can sense (HBE) and a set of input atoms it must be told about (HIN).
Its state is the pair of currently sensed facts (EDB) and currently
received facts (IN); the agent's beliefs are the stable model of
``IDB + EDB + IN``.

States are values: the two update operators return new sets instead of
mutating, so traces can retain every intermediate state cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logic import GroundProgram, head_set, stable_model_acyclic, update_model_acyclic

__all__ = [
    "AgentState",
    "AgentSpec",
    "EnvChange",
    "validate_agent",
    "agent_model",
    "dependency",
    "message_payload",
    "update_input",
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
    refuses specs with violations.
    """

    id: str
    idb: GroundProgram
    hbe: frozenset = frozenset()
    hin: frozenset = frozenset()
    initial: AgentState = field(default_factory=AgentState)

    @property
    def hb(self) -> frozenset:
        """The atoms this agent has an opinion about."""
        return head_set(self.idb) | self.hbe | self.hin


def validate_agent(a: AgentSpec) -> list:
    """All invariant violations of the spec, as human-readable strings."""
    from .logic import CyclicProgramError, _evaluation_plan

    violations = []
    try:
        _evaluation_plan(a.idb)  # proves acyclicity; cached for later evaluation
    except CyclicProgramError:
        violations.append(f"agent {a.id}: IDB is not acyclic")
    overlap = a.hin & a.hbe
    if overlap:
        violations.append(
            f"agent {a.id}: HIN and HBE overlap on {_few(overlap)}"
        )
    headed = head_set(a.idb)
    bad_heads = (a.hin | a.hbe) & headed
    if bad_heads:
        violations.append(
            f"agent {a.id}: input/environment atoms appear as clause heads: {_few(bad_heads)}"
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


def agent_model(
    a: AgentSpec, s: AgentState, prev: AgentState = None, prev_model: frozenset = None
) -> frozenset:
    """Stable model of ``IDB + EDB + IN`` at state ``s``.

    Sensed and received atoms head no IDB clause, so adding them as facts
    preserves acyclicity and the model is unique.  Given the model
    ``prev_model`` at an earlier state ``prev``, only the heads downstream
    of the facts that differ between the two states are re-derived.
    """
    facts = s.edb | s.indb
    if prev is None:
        return stable_model_acyclic(a.idb, facts=facts)
    old = prev.edb | prev.indb
    return update_model_acyclic(a.idb, prev_model, facts - old, old - facts)


def dependency(receiver: AgentSpec, sender: AgentSpec) -> frozenset:
    """Atoms the receiver needs that the sender can produce or sense."""
    return receiver.hin & (head_set(sender.idb) | sender.hbe)


def message_payload(sender_model: frozenset, dep: frozenset) -> frozenset:
    """What the sender pushes: its model restricted to the dependency."""
    return dep & sender_model


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


def update_env(edb: frozenset, change: EnvChange, hbe: frozenset) -> frozenset:
    """Apply the sensable part of an environment change to the EDB."""
    t = change.became_true & hbe
    f = change.became_false & hbe
    return (edb - f) | t
