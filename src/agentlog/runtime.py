"""Run execution: transitions, schedules, fixpoints, verdicts, traces.

A global state is the tuple of the agents' ``AgentState``s in system
order, and an event is an ``EnvChange`` or a ``CommEvent``.

A run of the underlying model is an infinite sequence of transitions
with fair communication and an eventually quiescent environment.  Here a
run is represented by a finite prefix plus a fixpoint certificate: once a
full communication round under a quiescent environment changes no state
at any step, determinism guarantees every continuation repeats the state,
which makes the point-h-onwards definitions decidable.

A single run executes sequentially and deterministically; distinct runs
share no mutable state and may execute concurrently.
"""

from __future__ import annotations

import io
import json
import random
from bisect import bisect_left
from dataclasses import dataclass

from .agents import AgentState, CommEvent, EnvChange, _few, agent_model, message_payload, update_env, update_input
from .logic import Atom, parse_atom
from .system import MultiAgentSystem, NoUniqueModelError, superagent_model
from .system import superagent  # noqa: F401  perfbench/layertrace.py traces it here

__all__ = [
    "RoundRecord",
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


@dataclass(frozen=True)
class Trace:
    """A recorded run prefix.

    ``states`` holds one global state per point, a tuple of agent states
    in system order, and ``models`` beside it every agent's stable model
    at every point.  ``states[k+1]`` is ``events[k]``, an ``EnvChange``
    or a ``CommEvent``, applied to ``states[k]``.  ``quiescence_point``
    is the first point from which the environment never changes again
    (None when scheduled changes were still pending at the horizon).
    """

    agent_ids: tuple
    states: tuple
    events: tuple
    models: tuple
    quiescence_point: object = 0
    rounds: tuple = ()
    horizon_exceeded: bool = False


def initial_state(sys: MultiAgentSystem) -> tuple:
    return tuple(a.initial for a in sys.agents)


def env_transition(sys: MultiAgentSystem, gs: tuple, change: EnvChange) -> tuple:
    """Every agent sensing part of the change updates its EDB; the rest
    keep their state untouched (inputs never move here)."""
    outside = change.touched - sys.env_atoms
    if outside:
        raise InvalidEventError(f"environment change touches non-environment atoms: {_few(outside)}")
    return tuple(
        AgentState(update_env(s.edb, change, a.hbe), s.indb) if a.hbe & change.touched else s
        for a, s in zip(sys.agents, gs)
    )


def comm_transition(
    sys: MultiAgentSystem,
    gs: tuple,
    sender: str,
    receiver: str,
    sender_model: frozenset = None,
) -> tuple:
    """The sender pushes its dependency slice, computed from its current
    state, and the receiver replaces that slice of its input database."""
    dep = sys.dependency(receiver, sender)
    if not dep:
        raise InvalidEventError(f"{receiver} does not depend on {sender}")
    if sender_model is None:
        s_idx = sys.index(sender)
        sender_model = agent_model(sys.agents[s_idx], gs[s_idx], plan=sys.plans[s_idx])
    payload = message_payload(sender_model, dep)
    r_idx = sys.index(receiver)
    old = gs[r_idx]
    new_in = update_input(old.indb, dep, payload)
    if new_in == old.indb:
        return gs
    return gs[:r_idx] + (AgentState(old.edb, new_in),) + gs[r_idx + 1:]


class _Recorder:
    """Accumulates states, events and per-point models incrementally;
    only agents touched by an event get their model updated, from their
    model at the point before, through the system's plans."""

    def __init__(self, sys: MultiAgentSystem):
        self.sys = sys
        self.plans = sys.plans
        start = initial_state(sys)
        self.states = [start]
        self.events = []
        self.models = [
            tuple(agent_model(a, s, plan=p) for a, s, p in zip(sys.agents, start, self.plans))
        ]
        self.quiet_from = 0  # the point after the last environment change

    @property
    def point(self) -> int:
        return len(self.states) - 1

    def apply_env(self, change: EnvChange):
        gs = self.states[-1]
        nxt = env_transition(self.sys, gs, change)
        row = list(self.models[-1])
        for i, (a, before, after) in enumerate(zip(self.sys.agents, gs, nxt)):
            if before != after:
                row[i] = agent_model(a, after, before, row[i], self.plans[i])
        self.events.append(change)
        self.quiet_from = len(self.events)
        self.states.append(nxt)
        self.models.append(tuple(row))

    def apply_comm(self, sender: str, receiver: str) -> bool:
        gs = self.states[-1]
        s_idx = self.sys.index(sender)
        nxt = comm_transition(self.sys, gs, sender, receiver, sender_model=self.models[-1][s_idx])
        changed = nxt != gs
        row = self.models[-1]
        if changed:
            r_idx = self.sys.index(receiver)
            row = list(row)
            row[r_idx] = agent_model(
                self.sys.agents[r_idx], nxt[r_idx], gs[r_idx], row[r_idx], self.plans[r_idx]
            )
            row = tuple(row)
        self.events.append(CommEvent(sender, receiver))
        self.states.append(nxt)
        self.models.append(row)
        return changed

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
            states=tuple(self.states),
            events=tuple(self.events),
            models=tuple(self.models),
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
    row = trace.models[fixpoint]
    return frozenset(
        a for a, holders in _holders(sys).items() if all(a in row[idx] for idx in holders)
    )


def non_convergent_atoms(sys: MultiAgentSystem, trace: Trace, fixpoint: int) -> frozenset:
    """Atoms on which agents still disagree at the fixpoint; the run is
    convergent for neither truth value on these."""
    row = trace.models[fixpoint]
    return frozenset(
        a for a, holders in _holders(sys).items() if len({a in row[idx] for idx in holders}) == 2
    )


def stabilized_environment(trace: Trace) -> frozenset:
    """Union of all agents' EDBs at the quiescence point."""
    if trace.quiescence_point is None:
        raise ValueError("environment never quiesced within the trace")
    return frozenset().union(*(s.edb for s in trace.states[trace.quiescence_point]))


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
    is ambiguous and rejected.
    """
    predicate, args = family
    slots = [i for i, v in enumerate(args) if v is None]
    if len(slots) != 1:
        raise ValueError("family must have exactly one open integer slot")
    slot = slots[0]

    def match(m):
        found = [
            a.args[slot]
            for a in m
            if a.predicate == predicate
            and len(a.args) == len(args)
            and all(v is None or a.args[i] == v for i, v in enumerate(args))
        ]
        if len(found) > 1:
            raise ValueError(
                f"ambiguous family {_family_text(family)}: {sorted(found)} at one point"
            )
        return found[0] if found else None

    hits = []
    for idx, agent_id in enumerate(trace.agent_ids):
        last = None
        streak = 0
        ramp = []
        best = ()
        for point in range(len(trace.states)):
            value = match(trace.models[point][idx])
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
    conv = convergence_model(sys, trace, fix) if fix is not None else None
    disagree = non_convergent_atoms(sys, trace, fix) if fix is not None else frozenset()

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


def _relisted(listing: tuple, atoms, text: dict) -> tuple:
    """The listing ``(atoms, atoms in order, their strings)`` of ``atoms``,
    made by editing the lists of an earlier set's listing in place: each
    atom removed or added since is found by bisection and deleted or
    inserted there."""
    before, ordered, strings = listing
    for a in before - atoms:
        i = bisect_left(ordered, a.sort_key(), key=Atom.sort_key)
        del ordered[i], strings[i]
    added = list(atoms - before)
    for a, s in zip(added, _strings(added, text)):
        i = bisect_left(ordered, a.sort_key(), key=Atom.sort_key)
        ordered.insert(i, a)
        strings.insert(i, s)
    return atoms, ordered, strings


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

    An event changes at most the agents it touches, and the trace shares
    every other agent's set objects with the previous point.  So each
    agent's ``edb``, ``in`` and ``model`` list is rendered again only when
    its set object differs from the one rendered last, and then by editing
    that rendering with the atoms added and removed, not by a new sort.
    """
    text = {}
    # (agent index, field) -> (set object, its atoms in order, their
    # strings).  Each record is written before the next point edits a list.
    last = {}

    def listed(idx, field, atoms):
        seen = last.get((idx, field))
        if seen is None:
            ordered = sorted(atoms, key=Atom.sort_key)
            seen = last[(idx, field)] = (atoms, ordered, _strings(ordered, text))
        elif seen[0] is not atoms:
            seen = last[(idx, field)] = _relisted(seen, atoms, text)
        return seen[2]

    # One growing buffer: a list of lines plus their join would hold the
    # whole text twice.
    buf = io.StringIO()
    for point, gs in enumerate(trace.states):
        row = trace.models[point]
        agents = {}
        for idx, (agent_id, s) in enumerate(zip(trace.agent_ids, gs)):
            agents[agent_id] = {
                "edb": listed(idx, "edb", s.edb),
                "in": listed(idx, "in", s.indb),
                "model": listed(idx, "model", row[idx]),
            }
        event = event_to_record(trace.events[point], text) if point < len(trace.events) else None
        buf.write(_dump({"record": "point", "point": point, "event": event, "agents": agents}))
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
