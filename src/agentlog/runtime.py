"""Run execution: transitions, schedules, fixpoints, verdicts, traces.

A global state is the tuple of the agents' ``AgentState``s in system
order, and an event is an ``EnvChange`` or a ``CommEvent``.

A run of the underlying model is an infinite sequence of transitions
with fair communication and an eventually quiescent environment.  Here a
run is represented by a finite prefix plus a fixpoint certificate: once a
full communication round under a quiescent environment changes no state
at any step, determinism guarantees every continuation repeats the state,
which makes the point-h-onwards definitions decidable.

A run is recorded as per-event deltas.  The recorder keeps one current
state and every agent's current model as mutable sets, and an event
touches only the agents it changes: a send reads the dependency slice of
the sender's model and of the receiver's IN, and re-derives only the
receiver's heads downstream of the atoms that moved.  What the event
added and removed is all the ``Trace`` keeps of it; verdicts and the
export read those changes, and a snapshot of every point is built only
on request.

A single run executes sequentially and deterministically; distinct runs
share no mutable state and may execute concurrently.
"""

from __future__ import annotations

import io
import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .agents import AgentState, CommEvent, EnvChange, _few, agent_model, env_delta, input_delta
from .logic import Atom, parse_atom
from .system import MultiAgentSystem, NoUniqueModelError, superagent_model
from .system import superagent  # noqa: F401  perfbench/layertrace.py traces it here

__all__ = [
    "RoundRecord",
    "AgentChange",
    "Trace",
    "Verdict",
    "DivergenceReport",
    "InvalidEventError",
    "initial_state",
    "env_transition",
    "comm_transition",
    "run_scripted",
    "run_fair",
    "detect_fixpoint",
    "rounds_to_fixpoint",
    "rounds_after_quiescence_to_fixpoint",
    "convergence_model",
    "non_convergent_atoms",
    "stabilized_environment",
    "verdict",
    "divergence_probe",
    "export_trace",
    "events_from_export",
    "default_max_rounds",
]


class InvalidEventError(ValueError):
    pass


@dataclass(frozen=True)
class RoundRecord:
    """One fair communication round: which trace slice it spans and
    whether any single event in it changed some agent state."""

    number: int
    start: int
    end: int
    changed: bool


_UNCHANGED = (frozenset(), frozenset())


class AgentChange(NamedTuple):
    """What one event changed of one agent: the agent's index, then an
    ``(added, removed)`` pair of disjoint sets for its EDB and for its IN,
    and a ``(gained, lost)`` pair for its model."""

    agent: int
    edb: tuple = _UNCHANGED
    indb: tuple = _UNCHANGED
    model: tuple = _UNCHANGED


def _applied(atoms: frozenset, delta: tuple) -> frozenset:
    """``atoms`` after an ``(added, removed)`` delta; ``atoms`` itself
    when the delta is empty."""
    added, removed = delta
    return (atoms - removed) | added if added or removed else atoms


@dataclass(frozen=True)
class Trace:
    """A recorded run prefix, as its start and the changes of each event.

    ``start`` is the global state at point 0, a tuple of agent states in
    system order, and ``start_models`` every agent's stable model there.
    ``events[k]``, an ``EnvChange`` or a ``CommEvent``, leads from point
    ``k`` to point ``k+1``, and ``changes[k]`` holds an ``AgentChange``
    for each agent it changed (none for a send that changed nothing).
    ``quiescence_point`` is the first point from which the environment
    never changes again (None when scheduled changes were still pending
    at the horizon).

    ``points()`` walks the points one at a time and ``at(k)`` builds one;
    ``states`` and ``models`` are every point's, built on first read.
    """

    agent_ids: tuple
    start: tuple
    start_models: tuple
    events: tuple
    changes: tuple
    quiescence_point: object = 0
    rounds: tuple = ()
    horizon_exceeded: bool = False

    def points(self):
        """``(global state, models)`` at each point in order; an agent an
        event did not change keeps its set objects of the point before."""
        state, models = list(self.start), list(self.start_models)
        yield tuple(state), tuple(models)
        for changes in self.changes:
            for c in changes:
                s = state[c.agent]
                state[c.agent] = AgentState(_applied(s.edb, c.edb), _applied(s.indb, c.indb))
                models[c.agent] = _applied(models[c.agent], c.model)
            yield tuple(state), tuple(models)

    def at(self, point: int) -> tuple:
        """``(global state, models)`` at one point, folded from the start
        through the changes of the events before it."""
        if not 0 <= point <= len(self.events):
            raise IndexError(f"no point {point} in a trace of {len(self.events) + 1} points")
        sets = [(set(s.edb), set(s.indb), set(m)) for s, m in zip(self.start, self.start_models)]
        for changes in self.changes[:point]:
            for c in changes:
                for held, (added, removed) in zip(sets[c.agent], c[1:]):
                    held -= removed
                    held |= added
        return (
            tuple(AgentState(frozenset(e), frozenset(i)) for e, i, _ in sets),
            tuple(frozenset(m) for _, _, m in sets),
        )

    @cached_property
    def _snapshots(self) -> tuple:
        return tuple(zip(*self.points()))

    @property
    def states(self) -> tuple:
        """The global state at every point: ``states[k+1]`` is
        ``events[k]`` applied to ``states[k]``."""
        return self._snapshots[0]

    @property
    def models(self) -> tuple:
        """Every agent's stable model at every point."""
        return self._snapshots[1]


def initial_state(sys: MultiAgentSystem) -> tuple:
    return tuple(a.initial for a in sys.agents)


def _env_deltas(sys: MultiAgentSystem, change: EnvChange, edbs):
    """``(agent index, (added, removed))`` for each agent whose EDB, of
    ``edbs``, the change alters."""
    outside = change.touched - sys.env_atoms
    if outside:
        raise InvalidEventError(f"environment change touches non-environment atoms: {_few(outside)}")
    for i, (a, edb) in enumerate(zip(sys.agents, edbs)):
        delta = env_delta(edb, change, a.hbe)
        if delta[0] or delta[1]:
            yield i, delta


def env_transition(sys: MultiAgentSystem, gs: tuple, change: EnvChange) -> tuple:
    """Every agent sensing part of the change updates its EDB; the rest
    keep their state untouched (inputs never move here)."""
    nxt = list(gs)
    for i, delta in _env_deltas(sys, change, [s.edb for s in gs]):
        nxt[i] = AgentState(_applied(gs[i].edb, delta), gs[i].indb)
    return tuple(nxt)


def _send_dependency(sys: MultiAgentSystem, sender: str, receiver: str) -> frozenset:
    """The atoms the receiver takes from the sender; InvalidEventError for
    an unknown agent or a receiver that takes none."""
    dep = sys.dependency(receiver, sender)
    if not dep:
        unknown = [x for x in (sender, receiver) if x not in sys.ids]
        if unknown:
            raise InvalidEventError(f"unknown agent {unknown[0]}")
        raise InvalidEventError(f"{receiver} does not depend on {sender}")
    return dep


def comm_transition(sys: MultiAgentSystem, gs: tuple, sender: str, receiver: str) -> tuple:
    """The sender pushes its dependency slice, computed from its current
    state, and the receiver replaces that slice of its input database."""
    dep = _send_dependency(sys, sender, receiver)
    s_idx, r_idx = sys.index(sender), sys.index(receiver)
    sender_model = agent_model(sys.agents[s_idx], gs[s_idx], sys.plans[s_idx])
    old = gs[r_idx]
    delta = input_delta(old.indb, dep, sender_model)
    if not delta[0] and not delta[1]:
        return gs
    return gs[:r_idx] + (AgentState(old.edb, _applied(old.indb, delta)),) + gs[r_idx + 1:]


class _Recorder:
    """Keeps the current state and models as mutable sets and records,
    for each event, what it changed; only an agent whose facts an event
    changes has its model updated, in place, through the system's plans."""

    def __init__(self, sys: MultiAgentSystem):
        self.sys = sys
        self.plans = sys.plans
        self.start = initial_state(sys)
        self.start_models = tuple(
            agent_model(a, s, p) for a, s, p in zip(sys.agents, self.start, self.plans)
        )
        self.edbs = [set(s.edb) for s in self.start]
        self.ins = [set(s.indb) for s in self.start]
        self.models = [set(m) for m in self.start_models]
        self.events = []
        self.changes = []
        self.quiet_from = 0  # the point after the last environment change

    @property
    def point(self) -> int:
        return len(self.events)

    def _apply(self, i: int, facts: set, delta: tuple) -> tuple:
        """Apply ``delta`` to agent ``i``'s EDB or IN ``facts`` and the
        consequences to its model, in place; the model's ``(gained, lost)``."""
        added, removed = delta
        model = self.models[i]
        gained, lost = self.plans[i].changes(model, added, removed)
        facts -= removed
        facts |= added
        model.difference_update(lost)
        model.update(gained)
        return frozenset(gained), frozenset(lost)

    def apply_env(self, change: EnvChange):
        changes = tuple(
            AgentChange(i, edb=delta, model=self._apply(i, self.edbs[i], delta))
            for i, delta in _env_deltas(self.sys, change, self.edbs)
        )
        self.events.append(change)
        self.changes.append(changes)
        self.quiet_from = len(self.events)

    def apply_comm(self, sender: str, receiver: str) -> bool:
        sys = self.sys
        dep = _send_dependency(sys, sender, receiver)
        r = sys.index(receiver)
        delta = input_delta(self.ins[r], dep, self.models[sys.index(sender)])
        changes = ()
        if delta[0] or delta[1]:
            changes = (AgentChange(r, indb=delta, model=self._apply(r, self.ins[r], delta)),)
        self.events.append(CommEvent(sender, receiver))
        self.changes.append(changes)
        return bool(changes)

    def replay(self, events, label: str):
        """Apply ``events`` in order; an invalid one raises
        InvalidEventError naming it ``{label} {index}``."""
        for i, event in enumerate(events):
            try:
                if isinstance(event, EnvChange):
                    self.apply_env(event)
                elif isinstance(event, CommEvent):
                    self.apply_comm(event.sender, event.receiver)
                else:
                    raise InvalidEventError(f"unknown event: {event!r}")
            except ValueError as exc:
                raise InvalidEventError(f"{label} {i}: {exc}") from None

    def freeze(self, rounds=(), horizon_exceeded=False, pending_env=False) -> Trace:
        return Trace(
            agent_ids=self.sys.ids,
            start=self.start,
            start_models=self.start_models,
            events=tuple(self.events),
            changes=tuple(self.changes),
            quiescence_point=None if pending_env else self.quiet_from,
            rounds=tuple(rounds),
            horizon_exceeded=horizon_exceeded,
        )


def run_scripted(sys: MultiAgentSystem, script) -> Trace:
    """Fold an explicit event sequence over the initial state."""
    rec = _Recorder(sys)
    rec.replay(script, "event")
    return rec.freeze()


def default_max_rounds(sys: MultiAgentSystem) -> int:
    return 4 * len(sys.io_atoms) + 16


def _round_order(sys: MultiAgentSystem, policy: str, rng):
    pairs = [(s, r) for (r, s) in sys.dependent_pairs]  # stored as (receiver, sender)
    if policy == "shuffled":
        rng.shuffle(pairs)
    elif policy != "round-robin":
        raise ValueError(f"unknown policy: {policy}")
    return pairs


def run_fair(
    sys: MultiAgentSystem,
    env_schedule=(),
    max_rounds: int = None,
    policy: str = "round-robin",
    seed: int = 0,
    prefix_events=(),
) -> Trace:
    """Interleave timed environment changes with communication rounds.

    Each round fires every dependent pair exactly once (canonical order:
    receiver id, then sender id; the shuffled policy reorders per round
    under ``seed``), which satisfies fairness for any finite prefix.
    ``env_schedule`` is a finite set of ``(after_round, change)`` entries;
    ``after_round=0`` fires before the first round.  The run stops early
    at the first round in which no event changed any state while the
    environment is quiescent, or at ``max_rounds``.
    """
    if max_rounds is None:
        max_rounds = default_max_rounds(sys)
    rng = random.Random(seed)
    rec = _Recorder(sys)
    rec.replay(prefix_events, "prefix event")

    schedule = sorted(env_schedule, key=lambda e: e[0])
    pending = list(schedule)

    def fire_due(round_no: int):
        while pending and pending[0][0] <= round_no:
            _, change = pending.pop(0)
            rec.apply_env(change)

    fire_due(0)
    rounds = []
    certified = False
    for number in range(1, max_rounds + 1):
        start = rec.point
        changed = False
        for sender, receiver in _round_order(sys, policy, rng):
            if rec.apply_comm(sender, receiver):
                changed = True
        rounds.append(RoundRecord(number, start, rec.point, changed))
        if not changed and not pending:
            certified = True
            break
        fire_due(number)
    return rec.freeze(
        rounds=rounds,
        horizon_exceeded=not certified,
        pending_env=bool(pending),
    )


def detect_fixpoint(trace: Trace):
    """First point from which the run provably repeats forever.

    That is the start of the first round that (a) begins at or after the
    quiescence point and (b) changed no agent state at any of its events;
    determinism then pins every continuation.  None when the trace holds
    no such certificate.
    """
    cert = _certifying_round(trace)
    return None if cert is None else cert.start


def _certifying_round(trace: Trace):
    if trace.quiescence_point is None:
        return None
    for r in trace.rounds:
        if not r.changed and r.start >= trace.quiescence_point:
            return r
    return None


def rounds_to_fixpoint(trace: Trace):
    """Number of state-changing rounds before the fixpoint certificate."""
    cert = _certifying_round(trace)
    if cert is None:
        return None
    return sum(1 for r in trace.rounds if r.number < cert.number and r.changed)


def rounds_after_quiescence_to_fixpoint(trace: Trace):
    """State-changing rounds between environment quiescence and fixpoint."""
    cert = _certifying_round(trace)
    if cert is None:
        return None
    return sum(
        1
        for r in trace.rounds
        if r.number < cert.number and r.changed and r.start >= trace.quiescence_point
    )


def _holders(sys: MultiAgentSystem) -> dict:
    """Each atom of some agent's atom base -> indices of the agents whose
    atom base holds it."""
    table = {}
    for idx, agent in enumerate(sys.agents):
        for a in agent.hb:
            table.setdefault(a, []).append(idx)
    return table


def convergence_model(sys: MultiAgentSystem, trace: Trace, fixpoint: int) -> frozenset:
    """Atoms true, at the fixpoint, in the model of every agent whose
    atom base contains them."""
    if fixpoint is None:
        raise ValueError("no fixpoint: convergence model undefined")
    return _agreement(sys, trace.at(fixpoint)[1])[0]


def non_convergent_atoms(sys: MultiAgentSystem, trace: Trace, fixpoint: int) -> frozenset:
    """Atoms on which agents still disagree at the fixpoint; the run is
    convergent for neither truth value on these."""
    return _agreement(sys, trace.at(fixpoint)[1])[1]


def _agreement(sys: MultiAgentSystem, models: tuple) -> tuple:
    """``(atoms true in every holder's model, atoms true in some holders'
    models only)``, of the agents' ``models`` at one point."""
    agreed, split = [], []
    for a, holders in _holders(sys).items():
        true_in = sum(a in models[idx] for idx in holders)
        if true_in == len(holders):
            agreed.append(a)
        elif true_in:
            split.append(a)
    return frozenset(agreed), frozenset(split)


def stabilized_environment(trace: Trace) -> frozenset:
    """Union of all agents' EDBs at the quiescence point."""
    if trace.quiescence_point is None:
        raise ValueError("environment never quiesced within the trace")
    return frozenset().union(*(s.edb for s in trace.at(trace.quiescence_point)[0]))


@dataclass(frozen=True)
class DivergenceReport:
    """Evidence of a monotone ramp in one tracked integer family."""

    family: str
    hits: tuple  # (agent_id, observed strictly increasing values)


MIN_STREAK = 3


def divergence_probe(trace: Trace, family):
    """Watch the integer slot of a one-slot atom family across the run.

    ``family`` is ``(predicate, args)`` with exactly one ``None`` marking
    the integer slot.  For each agent the per-point values are collapsed
    to their changes; ``MIN_STREAK`` consecutive strict increases count
    as divergence.  A point where several family atoms occur in one model
    is ambiguous and rejected.  An agent's values can move only where an
    event changed its model, so only those points are read.
    """
    predicate, args = family
    slots = [i for i, v in enumerate(args) if v is None]
    if len(slots) != 1:
        raise ValueError("family must have exactly one open integer slot")
    slot = slots[0]

    def match(atoms):
        return {
            a.args[slot]
            for a in atoms
            if a.predicate == predicate
            and len(a.args) == len(args)
            and all(v is None or a.args[i] == v for i, v in enumerate(args))
        }

    held = [match(m) for m in trace.start_models]
    # Per agent, its values at point 0 and after each change of its model.
    seen = [[sorted(values)] for values in held]
    for changes in trace.changes:
        for c in changes:
            gained, lost = c.model
            held[c.agent] -= match(lost)
            held[c.agent] |= match(gained)
            seen[c.agent].append(sorted(held[c.agent]))

    hits = []
    for agent_id, points in zip(trace.agent_ids, seen):
        last = None
        streak = 0
        ramp = []
        best = ()
        for found in points:
            if len(found) > 1:
                raise ValueError(
                    f"ambiguous family {_family_text(family)}: {found} at one point"
                )
            value = found[0] if found else None
            if value is None:
                last, streak, ramp = None, 0, []
                continue
            if last is None:
                last, streak, ramp = value, 0, [value]
                continue
            if value == last:
                continue
            if value > last:
                streak += 1
                ramp.append(value)
            else:
                streak, ramp = 0, [value]
            last = value
            if streak >= MIN_STREAK and len(ramp) > len(best):
                best = tuple(ramp)
        if best:
            hits.append((agent_id, best))
    if not hits:
        return None
    return DivergenceReport(_family_text(family), tuple(hits))


def _family_text(family) -> str:
    predicate, args = family
    rendered = ",".join("*" if v is None else str(v) for v in args)
    return f"{predicate}({rendered})" if args else predicate


@dataclass(frozen=True)
class Verdict:
    """What one recorded run witnesses about stabilization.

    A single run can refute weak stabilization (models differ) or support
    it (they match); it never proves it over all runs.
    """

    fixpoint_point: object
    strongly_convergent: bool
    horizon_exceeded: bool
    convergence_model: object
    non_convergent: frozenset
    stabilized_edb: object
    reference_model: object
    reference_note: str
    weakly_stabilizing_witnessed: bool
    divergence: tuple


def verdict(sys: MultiAgentSystem, trace: Trace, families=()) -> Verdict:
    fix = detect_fixpoint(trace)
    conv, disagree = None, frozenset()
    if fix is not None:
        conv, disagree = _agreement(sys, trace.at(fix)[1])

    stab = None
    reference = None
    note = ""
    if trace.quiescence_point is not None:
        stab = stabilized_environment(trace)
        try:
            reference = superagent_model(sys, stab)
        except NoUniqueModelError as exc:
            note = str(exc)

    reports = []
    for family in families:
        report = divergence_probe(trace, family)
        if report is not None:
            reports.append(report)

    witnessed = fix is not None and reference is not None and conv == reference
    return Verdict(
        fixpoint_point=fix,
        strongly_convergent=fix is not None,
        horizon_exceeded=trace.horizon_exceeded,
        convergence_model=conv,
        non_convergent=disagree,
        stabilized_edb=stab,
        reference_model=reference,
        reference_note=note,
        weakly_stabilizing_witnessed=witnessed,
        divergence=tuple(reports),
    )


# ---------------------------------------------------------------------------
# Trace export: one JSON record per line; schema in docs/trace-schema.md.


def _strings(atoms, text: dict) -> list:
    """The string of each atom, in order; ``text`` caches each atom's string."""
    out = []
    for a in atoms:
        s = text.get(a)
        if s is None:
            s = text[a] = str(a)
        out.append(s)
    return out


def _atoms_list(atoms, text: dict = None) -> list:
    """``atoms`` as strings in atom order."""
    return _strings(sorted(atoms, key=Atom.sort_key), {} if text is None else text)


def _edit(listing: tuple, delta: tuple, text: dict):
    """Edit the listing ``(atoms in order, their strings)`` of a set in
    place by the set's ``(added, removed)``: each atom is found by
    bisection and deleted or inserted there."""
    ordered, strings = listing
    added, removed = delta
    for a in removed:
        i = bisect_left(ordered, a.sort_key(), key=Atom.sort_key)
        del ordered[i], strings[i]
    added = list(added)
    for a, s in zip(added, _strings(added, text)):
        i = bisect_left(ordered, a.sort_key(), key=Atom.sort_key)
        ordered.insert(i, a)
        strings.insert(i, s)


def event_to_record(event, text: dict = None):
    if isinstance(event, EnvChange):
        return {
            "type": "env",
            "true": _atoms_list(event.became_true, text),
            "false": _atoms_list(event.became_false, text),
        }
    return {"type": "send", "from": event.sender, "to": event.receiver}


def event_from_record(record):
    """The event an exported record describes; ValueError for a record of
    any other shape."""
    kind = record.get("type") if isinstance(record, dict) else None
    if kind == "env":
        lists = (record.get("true"), record.get("false"))
        if not all(isinstance(xs, list) and all(isinstance(x, str) for x in xs) for xs in lists):
            raise ValueError(f"env event needs 'true' and 'false' lists of atoms: {record!r}")
        return EnvChange(*(frozenset(map(parse_atom, xs)) for xs in lists))
    if kind == "send":
        ends = (record.get("from"), record.get("to"))
        if not all(isinstance(end, str) for end in ends):
            raise ValueError(f"send event needs 'from' and 'to' agent ids: {record!r}")
        return CommEvent(*ends)
    raise ValueError(f"unknown event record: {record!r}")


def _dump(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def verdict_to_record(v: Verdict, text: dict = None) -> dict:
    def listed(atoms):
        return None if atoms is None else _atoms_list(atoms, text)

    return {
        "record": "verdict",
        "fixpoint_point": v.fixpoint_point,
        "strongly_convergent": v.strongly_convergent,
        "horizon_exceeded": v.horizon_exceeded,
        "convergence_model": listed(v.convergence_model),
        "non_convergent": listed(v.non_convergent),
        "stabilized_edb": listed(v.stabilized_edb),
        "reference_model": listed(v.reference_model),
        "reference_note": v.reference_note,
        "weakly_stabilizing_witnessed": v.weakly_stabilizing_witnessed,
        "divergence": [
            {"family": r.family, "hits": [{"agent": a, "values": list(vs)} for a, vs in r.hits]}
            for r in v.divergence
        ],
    }


def export_trace(trace: Trace, verdict_value: Verdict = None) -> str:
    """Line-delimited records, one per point; verdict appended last.

    Each agent's ``edb``, ``in`` and ``model`` list is sorted once, at the
    start, and after each point's record is written the event's changes
    edit the lists of the agents it changed in place, so one record
    object serves every point.
    """
    text = {}
    listings = []  # per agent: (atoms in order, their strings) of edb, in, model
    agents = {}
    for agent_id, s, model in zip(trace.agent_ids, trace.start, trace.start_models):
        row = []
        for atoms in (s.edb, s.indb, model):
            ordered = sorted(atoms, key=Atom.sort_key)
            row.append((ordered, _strings(ordered, text)))
        listings.append(row)
        agents[agent_id] = {"edb": row[0][1], "in": row[1][1], "model": row[2][1]}
    record = {"record": "point", "point": 0, "event": None, "agents": agents}

    # One growing buffer: a list of lines plus their join would hold the
    # whole text twice.
    buf = io.StringIO()
    for point, (event, changes) in enumerate(zip(trace.events, trace.changes)):
        record["point"] = point
        record["event"] = event_to_record(event, text)
        buf.write(_dump(record))
        buf.write("\n")
        for c in changes:
            for listing, delta in zip(listings[c.agent], c[1:]):
                _edit(listing, delta, text)
    record["point"] = len(trace.events)
    record["event"] = None
    buf.write(_dump(record))
    buf.write("\n")
    if verdict_value is not None:
        buf.write(_dump(verdict_to_record(verdict_value, text)))
        buf.write("\n")
    return buf.getvalue()


def events_from_export(text: str) -> list:
    """Recover the event list from an exported trace.

    Raises ValueError, naming the line, for a line that is not a JSON
    object or a point whose event is malformed.
    """
    events = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {line.strip()!r}")
            if record.get("record") == "point" and record.get("event") is not None:
                events.append(event_from_record(record["event"]))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return events
