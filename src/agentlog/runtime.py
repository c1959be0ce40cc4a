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
touches only the agents it changes: a send reads only the slice atoms
whose truth changed since the pair's last send, and re-derives only the
receiver's heads downstream of the atoms that moved.  What the event
added and removed is all the ``Trace`` keeps of it, plus the last point.
Verdicts read the last point: a fair run stops at its certificate, and
only environment changes move an EDB, so the models at the fixpoint and
the stabilized environment are both there.  The export
and the divergence probe read the changes, and a snapshot of every
point is built only on request.  The export re-encodes an agent's part
of a point record only after an event changed that agent, and hands
each record on as soon as it is complete, so it holds one record, not
the whole trace.

A single run executes sequentially and deterministically; distinct runs
share no mutable state and may execute concurrently.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .agents import AgentState, CommEvent, EnvChange, _few, agent_model, env_delta
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
    "run_scripted",
    "run_fair",
    "detect_fixpoint",
    "rounds_to_fixpoint",
    "stabilized_environment",
    "verdict",
    "divergence_probe",
    "export_trace",
    "write_trace",
    "events_from_export",
    "default_max_rounds",
]


class InvalidEventError(ValueError):
    pass


class RoundRecord(NamedTuple):
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


class Trace(NamedTuple):
    """A recorded run prefix, as its start, the changes of each event and
    its last point.

    ``start`` is the global state at point 0, a tuple of agent states in
    system order, and ``start_models`` every agent's stable model there.
    ``events[k]``, an ``EnvChange`` or a ``CommEvent``, leads from point
    ``k`` to point ``k+1``, and ``changes[k]`` holds an ``AgentChange``
    for each agent it changed (none for a send that changed nothing).
    ``end`` and ``end_models`` are the state and models at the last
    point.  ``quiescence_point`` is the first point from which the
    environment never changes again (None when scheduled changes were
    still pending at the horizon).

    The last point is where the verdicts read.  Only an environment
    change moves an EDB, so the EDBs at the quiescence point are
    ``end``'s.  A fair run stops at the first round that changes nothing
    once no change is pending, so when the trace holds a fixpoint
    certificate it is the last round: the state and models at the
    fixpoint are ``end`` and ``end_models``.

    ``points()`` walks the points one at a time, and ``states`` and
    ``models`` walk them again on each read to list every point's.
    """

    agent_ids: tuple
    start: tuple
    start_models: tuple
    events: tuple
    changes: tuple
    end: tuple
    end_models: tuple
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

    @property
    def states(self) -> tuple:
        """The global state at every point: ``states[k+1]`` is
        ``events[k]`` applied to ``states[k]``."""
        return tuple(state for state, _ in self.points())

    @property
    def models(self) -> tuple:
        """Every agent's stable model at every point."""
        return tuple(models for _, models in self.points())


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


class _Recorder:
    """Keeps the current state and models as mutable sets and records,
    for each event, what it changed; only an agent whose facts an event
    changes has its model updated, in place, through the system's plans.

    Each dependent pair keeps its stale set: the slice atoms on which the
    receiver's IN may differ from the sender's model, at first the whole
    slice.  A change of an agent's model marks the changed atoms stale on
    every pair that reads from it, and a send that changes the receiver's
    IN marks them stale on the receiver's other pairs whose slice holds
    them (two senders may define one head).  A send compares the stale
    atoms only, then clears them.
    """

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
        self.readers = [[] for _ in sys.agents]  # per sender: (slice, stale atoms) of each pair
        self.inputs = [{} for _ in sys.agents]  # per receiver: sender index -> the same
        for receiver, sender in sys.dependent_pairs:
            r, s, dep = sys.index(receiver), sys.index(sender), sys.dependency(receiver, sender)
            self.inputs[r][s] = pair = (dep, set(dep))
            self.readers[s].append(pair)
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
        gained, lost = frozenset(gained), frozenset(lost)
        for dep, stale in self.readers[i]:
            stale |= dep & (gained | lost)
        return gained, lost

    def apply_env(self, change: EnvChange):
        changes = tuple(
            AgentChange(i, edb=delta, model=self._apply(i, self.edbs[i], delta))
            for i, delta in _env_deltas(self.sys, change, self.edbs)
        )
        self.events.append(change)
        self.changes.append(changes)
        self.quiet_from = len(self.events)

    def send(self, event: CommEvent, r: int, s: int) -> bool:
        """Record ``event``, a send from agent ``s`` to agent ``r`` of a
        dependent pair; whether it changed the receiver."""
        stale = self.inputs[r][s][1]
        changes = ()
        if stale:
            model, held = self.models[s], self.ins[r]
            added = frozenset((stale & model) - held)
            removed = frozenset((stale & held) - model)
            stale.clear()
            if added or removed:
                moved = added | removed
                for dep, other in self.inputs[r].values():
                    if other is not stale:
                        other |= dep & moved
                delta = (added, removed)
                changes = (AgentChange(r, indb=delta, model=self._apply(r, held, delta)),)
        self.events.append(event)
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
                    _send_dependency(self.sys, event.sender, event.receiver)
                    self.send(event, self.sys.index(event.receiver), self.sys.index(event.sender))
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
            end=tuple(AgentState(frozenset(e), frozenset(i)) for e, i in zip(self.edbs, self.ins)),
            end_models=tuple(map(frozenset, self.models)),
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
    environment is quiescent, or at ``max_rounds``.  A ``policy`` other
    than ``"round-robin"`` and ``"shuffled"`` raises ValueError before
    anything is replayed or recorded.
    """
    if policy not in ("round-robin", "shuffled"):
        raise ValueError(f"unknown policy: {policy}")
    if max_rounds is None:
        max_rounds = default_max_rounds(sys)
    rng = random.Random(seed)
    rec = _Recorder(sys)
    rec.replay(prefix_events, "prefix event")
    # Each dependent pair's send, built once, in canonical order.
    sends = [(CommEvent(s, r), sys.index(r), sys.index(s)) for r, s in sys.dependent_pairs]

    pending = sorted(env_schedule, key=lambda e: e[0])

    def fire_due(round_no: int):
        while pending and pending[0][0] <= round_no:
            _, change = pending.pop(0)
            rec.apply_env(change)

    fire_due(0)
    rounds = []
    certified = False
    for number in range(1, max_rounds + 1):
        if policy == "shuffled":
            order = sends.copy()
            rng.shuffle(order)
        else:
            order = sends
        start = rec.point
        changed = False
        for event, r, s in order:
            changed |= rec.send(event, r, s)
        rounds.append(RoundRecord(number, start, rec.point, changed))
        if not changed and not pending:
            certified = True
            break
        fire_due(number)
    return rec.freeze(rounds=rounds, horizon_exceeded=not certified, pending_env=bool(pending))


def detect_fixpoint(trace: Trace):
    """First point from which the run provably repeats forever.

    The certificate is a round that begins at or after the quiescence
    point and changed no agent state at any of its events; determinism
    then pins every continuation.  ``run_fair`` stops at the first such
    round, so only the last round can be one, and its start is the
    fixpoint.  None when the trace holds no certificate.
    """
    if not trace.rounds:
        return None
    last = trace.rounds[-1]
    quiet = trace.quiescence_point
    certified = not last.changed and quiet is not None and last.start >= quiet
    return last.start if certified else None


def rounds_to_fixpoint(trace: Trace):
    """Number of state-changing rounds before the fixpoint certificate,
    which is the last round and changed nothing; None without one."""
    if detect_fixpoint(trace) is None:
        return None
    return sum(r.changed for r in trace.rounds)


def _agreement(sys: MultiAgentSystem, models: tuple) -> tuple:
    """``(atoms true in every holder's model, atoms true in some holders'
    models only)``, of the agents' ``models`` at one point, where an
    agent holds the atoms of its atom base ``hb``.  With ``T`` the atoms
    some holder believes and ``F`` those some holder does not, these are
    ``T - F`` and ``T & F``."""
    true, false = set(), set()
    for agent, model in zip(sys.agents, models):
        hb = agent.hb
        true |= model & hb
        false |= hb - model
    return frozenset(true - false), frozenset(true & false)


def stabilized_environment(trace: Trace) -> frozenset:
    """Union of all agents' EDBs at the quiescence point, which are
    their EDBs at the last point."""
    if trace.quiescence_point is None:
        raise ValueError("environment never quiesced within the trace")
    return frozenset().union(*(s.edb for s in trace.end))


class DivergenceReport(NamedTuple):
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
        ramp = []  # the values of the current run of strict increases
        best = ()
        for found in points:
            if len(found) > 1:
                raise ValueError(
                    f"ambiguous family {_family_text(family)}: {found} at one point"
                )
            if not found:
                ramp = []
            elif not ramp or found[0] < ramp[-1]:
                ramp = [found[0]]
            elif found[0] > ramp[-1]:
                ramp.append(found[0])
                if len(ramp) > max(MIN_STREAK, len(best)):
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


class Verdict(NamedTuple):
    """What one recorded run witnesses about stabilization.

    A single run can refute weak stabilization (models differ) or support
    it (they match); it never proves it over all runs.
    ``convergence_model`` holds the atoms true, at the fixpoint, in the
    model of every agent whose atom base contains them (None without a
    fixpoint), and ``non_convergent`` those on which such agents still
    disagree there.
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
        conv, disagree = _agreement(sys, trace.end_models)

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


def _atoms_list(atoms) -> list:
    """``atoms`` as strings in atom order."""
    return [str(a) for a in sorted(atoms, key=Atom.sort_key)]


def event_to_record(event):
    if isinstance(event, EnvChange):
        return {
            "type": "env",
            "true": _atoms_list(event.became_true),
            "false": _atoms_list(event.became_false),
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


def verdict_to_record(v: Verdict) -> dict:
    def listed(atoms):
        return None if atoms is None else _atoms_list(atoms)

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


def write_trace(write, trace: Trace, verdict_value: Verdict = None) -> None:
    """Pass the export to ``write`` one line at a time: a record per
    point, then the verdict when one is given.

    A point record is its agents' fragments, ``"id":{"edb":[…],"in":[…],
    "model":[…]}`` in id order, then its event and number: the bytes
    ``_dump`` writes of the whole record.  Each atom's JSON literal is
    encoded once.  An agent's fragment is encoded at the start and again
    only after an event changed the agent, whose lists are then edited in
    place by the event's changes.  Only the current fragments are kept,
    so the memory held is that of one record, not of the whole trace.
    """
    literal = cache(lambda a: encode_basestring_ascii(str(a)))
    ids = trace.agent_ids
    slot = {i: k for k, i in enumerate(sorted(range(len(ids)), key=ids.__getitem__))}
    listings = []  # per agent: (atoms in order, their literals) of edb, in, model
    for s, model in zip(trace.start, trace.start_models):
        ordered = [sorted(atoms, key=Atom.sort_key) for atoms in (s.edb, s.indb, model)]
        listings.append([(atoms, list(map(literal, atoms))) for atoms in ordered])
    fragments = [None] * len(ids)  # in id order

    def encode(i):
        k = slot[i]
        edb, indb, model = (",".join(lits) for _, lits in listings[i])
        agent = ("," if k else "") + encode_basestring_ascii(ids[i])
        fragments[k] = f'{agent}:{{"edb":[{edb}],"in":[{indb}],"model":[{model}]}}'

    for i in range(len(ids)):
        encode(i)

    events = {None: "null"}
    for point, (event, changes) in enumerate(zip(trace.events + (None,), trace.changes + ((),))):
        text = events.get(event)
        if text is None:
            text = events[event] = _dump(event_to_record(event))
        tail = f'}},"event":{text},"point":{point},"record":"point"}}\n'
        write("".join(['{"agents":{', *fragments, tail]))
        for c in changes:
            for (atoms, lits), (added, removed) in zip(listings[c.agent], c[1:]):
                for a in removed:
                    k = bisect_left(atoms, a.sort_key(), key=Atom.sort_key)
                    del atoms[k], lits[k]
                for a in added:
                    k = bisect_left(atoms, a.sort_key(), key=Atom.sort_key)
                    atoms.insert(k, a)
                    lits.insert(k, literal(a))
            encode(c.agent)
    if verdict_value is not None:
        write(_dump(verdict_to_record(verdict_value)) + "\n")


def export_trace(trace: Trace, verdict_value: Verdict = None) -> str:
    """The lines ``write_trace`` writes, as one string.  It holds them
    all and then their join; write to a file with ``write_trace``."""
    lines = []
    write_trace(lines.append, trace, verdict_value)
    return "".join(lines)


def events_from_export(lines) -> list:
    """Recover the event list from an exported trace, given as an
    iterable of its lines: an open file, or ``text.splitlines()``.

    Each item is split again by ``str.splitlines``, so lines are numbered
    as in the whole text's ``splitlines()`` even where a file, which
    breaks only at newlines, yields a form feed or a U+2028 inside a
    line.  Raises ValueError, naming the line, for a line that is not a
    JSON object or a point whose event is malformed.
    """
    events = []
    split = (part for chunk in lines for part in chunk.splitlines() or ("",))
    for line_no, line in enumerate(split, 1):
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
