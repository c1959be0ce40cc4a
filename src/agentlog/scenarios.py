"""Scenario definition format and built-in scenarios.

A scenario file has three section kinds::

    % comment
    [domain]
    nodes: A1 A2 A3
    dmax: 6
    var node: X Y
    var int: D D2
    symmetric: link
    output: sp

    [agent A1]
    idb:
      sp(A1,A1,0).
      spt(A1,Y,X,D+1) :- link(A1,X), sp(X,Y,D), not spl(A1,Y,D+1).
    hbe: link(A1,A2)
    hin: sp(A2,Y,D) where Y != A1
    edb: link(A1,A2)
    in:

    [events]
    max_rounds: 8
    track: sp(A1,A5,D)
    send A2 -> A1.
    fail link(A1,A2).
    @round 1: fail link(A1,A2)

Keys start at column zero; indented lines continue the current key.
``hbe``/``hin``/``edb``/``in`` take ``;``-separated patterns (ground
atoms are patterns without variables).  Plain ``send``/``fail``/
``restore`` lines form the explicit replay script; ``@round N:``
directives schedule environment changes between fair rounds.  The
``output:`` key is informational: it names the predicate of the agents'
outgoing claims, and is parsed and serialized but read by no command.

A file is parsed at the ``dmax`` it declares, which also bounds the
integer arguments of its event atoms.  The bound is a build argument
only: ``Scenario.systems`` and ``Scenario.shapes`` ground one parsed
scenario at each bound of a sequence, each on top of the last, and
``build_system`` at one.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .agents import AgentSpec, AgentState, CommEvent, EnvChange
from .grounding import (
    DomainSpec,
    GroundingError,
    Pattern,
    Var,
    expand_pattern,
    ground_stream,
    parse_ground_atom,
    parse_pattern,
    parse_schematic_clause,
    split_top_level,
)
from .grounding import ground_program  # noqa: F401  perfbench/layertrace.py traces it here
from .system import MultiAgentSystem, build_system, defined_heads

__all__ = [
    "ScenarioError",
    "AgentDef",
    "Scenario",
    "Topology",
    "parse_scenario",
    "serialize_scenario",
    "builtin_scenario",
    "builtin_names",
    "load_scenario",
    "routing_scenario_text",
    "chain_scenario",
    "FIG1_TOPOLOGY",
    "family_of",
]


class ScenarioError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class AgentDef(NamedTuple):
    """One agent block, still schematic (pre-grounding)."""

    id: str
    idb: tuple = ()
    hbe: tuple = ()
    hin: tuple = ()
    edb0: tuple = ()
    in0: tuple = ()


class Scenario(NamedTuple):
    """A parsed scenario: its domain, its agent blocks and its events.

    It carries no name; a command names a scenario by the reference it
    was loaded from.  Two scenarios are equal when all their fields are.
    """

    domain: DomainSpec = DomainSpec()
    agents: tuple = ()
    script: tuple = ()
    schedule: tuple = ()
    max_rounds: object = None
    track: tuple = ()
    output: object = None

    def build_system(self, dmax=None) -> MultiAgentSystem:
        """The system grounded at the bound ``dmax``, or at the scenario's
        own when None: the one-bound case of ``systems``.  Parsing takes
        no bound; only these routes from bounds do."""
        return next(self.systems([dmax]))

    def systems(self, bounds):
        """The system at each of ``bounds`` in turn (None for the
        scenario's own), each assembled and validated in full.

        Each bound is grounded on top of the last one when it is no
        lower, through a floor (see ``grounding``): the agents' ``deps``
        maps are extended in place, so a system shares them with the next
        one and holds only until the next is drawn."""
        for dom, agents in self._grounded(bounds, clauses=True):
            yield build_system(agents, dmax=dom.distance_max)

    def shapes(self, bounds):
        """The system at each of ``bounds`` that ``systems(bounds)``
        yields, from the same grounding by floors, but with clauses only
        where validation needs them: what ``classify`` reads.

        Each agent is grounded into its head -> body-atoms map alone; only
        agents that define a head another agent defines too are grounded
        with their clauses, so their definitions can be compared.  An
        agent that first needs them at a later bound is grounded there in
        full.  Raises ValidationError where ``systems`` would, with the
        same breaches.  A system whose agents lack clauses can be
        classified but not run.  Drawing the next system extends the
        agents' maps in place, as with ``systems``; the I/O atoms, cyclic
        atoms and bound that ``classify`` reads stay as they were."""
        for dom, agents in self._grounded(bounds, clauses=False):
            yield build_system(agents, dmax=dom.distance_max)

    def _grounded(self, bounds, clauses: bool):
        """Each bound's domain and agents, each agent extended from its
        spec at the bound before when that bound is no higher.  With
        ``clauses`` false, only the agents that define a shared head get
        clauses."""
        floor, agents = None, [None] * len(self.agents)
        for bound in bounds:
            dom = self._domain(bound)
            if floor is not None and dom.distance_max < floor:
                floor, agents = None, [None] * len(self.agents)
            agents = [_agent_spec(ad, dom, clauses, floor, a) for ad, a in zip(self.agents, agents)]
            if not clauses:
                # Only the shared heads are kept through assembly, where memory peaks.
                shared = defined_heads(agents)[1]
                agents = [
                    a if a.clauses is not None or shared.isdisjoint(a.deps)
                    else _agent_spec(ad, dom, True)
                    for ad, a in zip(self.agents, agents)
                ]
            yield dom, agents
            floor = dom.distance_max

    def _domain(self, dmax) -> DomainSpec:
        """The domain with its bound replaced by ``dmax`` when one is
        given, through the checks of ``DomainSpec``'s constructor."""
        return self.domain if dmax is None else self.domain._replace(distance_max=dmax)

    def families(self) -> tuple:
        return tuple(family_of(p, self.domain) for p in self.track)


def _atom_sets(ad: AgentDef, dom: DomainSpec, floor=None) -> tuple:
    """An agent block's HBE, HIN, initial EDB and initial IN over ``dom``,
    or with a ``floor``, the atoms of the bindings above it."""
    return tuple(
        expand_pattern(patterns, dom, floor) for patterns in (ad.hbe, ad.hin, ad.edb0, ad.in0)
    )


def _agent_spec(ad: AgentDef, dom: DomainSpec, clauses: bool, floor=None, last=None) -> AgentSpec:
    """An agent block grounded over ``dom`` in one pass into its
    head -> body-atoms map and, when ``clauses`` is true, its clauses.

    With ``last``, its spec at the lower bound ``floor``, only the
    bindings above the floor are grounded: into ``last``'s map, which is
    extended in place, onto its atom sets and, when it has them, onto its
    clauses."""
    sets = _atom_sets(ad, dom, floor)
    deps, ground = {}, set() if clauses else None
    if last is not None:
        deps, ground = last.deps, None if last.clauses is None else set(last.clauses)
        old = (last.hbe, last.hin, last.initial.edb, last.initial.indb)
        sets = tuple(x | y for x, y in zip(old, sets))
    hbe, hin, edb, indb = sets
    add = None if ground is None else ground.add

    def sink(head, pos, neg):
        body = deps.get(head)
        if body is None:
            body = deps[head] = set()
        body.update(pos)
        body.update(neg)
        if add is not None:
            add((head, pos, neg))

    ground_stream(ad.idb, dom, sink, floor)
    ground = None if ground is None else tuple(ground)
    return AgentSpec(ad.id, deps, hbe, hin, AgentState(edb, indb), ground)


def family_of(p: Pattern, dom: DomainSpec) -> tuple:
    """Turn a pattern whose one variable slot holds an integer variable
    into a probe family."""
    if p.constraints:
        raise ScenarioError(f"track pattern may not carry constraints: {p}")
    slots = [t for t in p.atom.args if isinstance(t, Var)]
    if len(slots) != 1:
        raise ScenarioError(f"track pattern needs exactly one variable slot: {p}")
    if slots[0].name not in dom.int_vars:
        raise ScenarioError(f"track pattern's variable {slots[0]} is not an integer variable: {p}")
    return (p.atom.predicate, tuple(None if isinstance(t, Var) else t for t in p.atom.args))


# ---------------------------------------------------------------------------
# Parsing

_SECTION_RE = re.compile(r"\[\s*(domain|agent\s+(\w+)|events)\s*\]$")
_KEY_RE = re.compile(r"([a-z_][a-z_ ]*):(.*)$")
_SEND_RE = re.compile(r"send\s+(\w+)\s*->\s*(\w+)\s*\.?$")
_ENV_RE = re.compile(r"(fail|restore)\s+(.+?)\s*\.?$")
_AT_ROUND_RE = re.compile(r"@round\s+(\d+)\s*:\s*(.+)$")

_AGENT_KEYS = ("idb", "hbe", "hin", "edb", "in")
_DOMAIN_KEYS = ("nodes", "dmax", "var node", "var int", "symmetric", "output")


def _split_statements(lines):
    """Each ``.``-ended statement of the ``(line_no, text)`` lines, which
    may span lines, with the line it starts on; a last statement without
    its ``.`` gets one."""
    text = " ".join(v for _, v in lines)
    ends = list(accumulate(len(v) + 1 for _, v in lines))
    for m in re.finditer(r"[^.\s][^.]*", text):
        yield lines[bisect_right(ends, m.start())][0], m.group().rstrip() + "."


def _split_items(text: str):
    for part in text.split(";"):
        part = part.strip()
        if part:
            yield part


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a ``Scenario``, which has no name; raises
    ScenarioError with the offending line."""
    sections = []  # (kind, agent_id, [(line_no, content)])
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        m = _SECTION_RE.match(stripped)
        if m and not line[0].isspace():
            kind = "agent" if m.group(2) else m.group(1)
            current = (kind, m.group(2), [])
            sections.append(current)
            continue
        if current is None:
            raise ScenarioError(f"content before first section: {stripped!r}", line_no)
        current[2].append((line_no, line))

    if not any(kind == "domain" for kind, _, _ in sections):
        raise ScenarioError("missing [domain] section")
    if sections[0][0] != "domain":
        raise ScenarioError("[domain] must be the first section")
    if not any(kind == "agent" for kind, _, _ in sections):
        raise ScenarioError("no agents")

    dom, output = _parse_domain(sections[0][2])

    agents = []
    script = []
    schedule = []
    max_rounds = None
    track = []
    agent_ids = []
    for kind, agent_id, lines in sections[1:]:
        if kind == "domain":
            raise ScenarioError("duplicate [domain] section", lines[0][0] if lines else None)
        if kind == "agent":
            agents.append(_parse_agent(agent_id, lines, dom))
            agent_ids.append(agent_id)
        else:
            max_rounds, extra_track = _parse_events(lines, dom, agent_ids, script, schedule)
            track.extend(extra_track)

    return Scenario(
        domain=dom,
        agents=tuple(agents),
        script=tuple(script),
        schedule=tuple(schedule),
        max_rounds=max_rounds,
        track=tuple(track),
        output=output,
    )


def _collect_keys(lines, allowed):
    """Fold `key: value` lines plus indented continuations into a dict."""
    values = {}
    key = None
    for line_no, line in lines:
        if line[0].isspace():
            if key is None:
                raise ScenarioError("continuation line without a key", line_no)
            values[key].append((line_no, line.strip()))
            continue
        m = _KEY_RE.match(line.strip())
        if not m or m.group(1).strip() not in allowed:
            raise ScenarioError(f"expected one of {allowed}, got {line.strip()!r}", line_no)
        key = m.group(1).strip()
        values.setdefault(key, [])
        rest = m.group(2).strip()
        if rest:
            values[key].append((line_no, rest))
    return values


def _parse_domain(lines):
    """The domain section's ``DomainSpec`` and its ``output:`` predicate
    (None when absent)."""
    values = _collect_keys(lines, _DOMAIN_KEYS)

    def joined(key):
        return " ".join(v for _, v in values.get(key, []))

    def names(key):
        """Each name listed under ``key`` -> the line it is listed on."""
        return {t: line_no for line_no, v in values.get(key, []) for t in re.split(r"[,\s]+", v) if t}

    nodes = tuple(t for t in re.split(r"[,\s]+", joined("nodes")) if t)
    raw_dmax = joined("dmax").strip()
    dmax_line = values["dmax"][0][0] if raw_dmax else None
    try:
        dmax = int(raw_dmax) if raw_dmax else 0
    except ValueError:
        raise ScenarioError(f"dmax must be an integer, got {raw_dmax!r}", dmax_line) from None
    node_vars, int_vars = names("var node"), names("var int")
    symmetric = frozenset(t for t in re.split(r"[,\s]+", joined("symmetric")) if t)
    try:
        dom = DomainSpec(nodes, dmax, frozenset(node_vars), frozenset(int_vars), symmetric)
    except GroundingError as exc:
        # DomainSpec checks the bound, then the variables' types, then
        # their names; each message lists its names sorted.
        both = sorted(node_vars.keys() & int_vars.keys())
        named = sorted((node_vars.keys() | int_vars.keys()) & set(nodes))
        if dmax < 0:
            line = dmax_line
        elif both:
            line = max(node_vars[both[0]], int_vars[both[0]])
        else:
            line = node_vars.get(named[0]) or int_vars[named[0]]
        raise ScenarioError(str(exc), line) from None
    return dom, joined("output").strip() or None


def _parse_agent(agent_id, lines, dom):
    values = _collect_keys(lines, _AGENT_KEYS)

    def patterns(key):
        out = []
        for line_no, chunk in values.get(key, []):
            for item in _split_items(chunk):
                try:
                    out.append(parse_pattern(item, dom))
                except GroundingError as exc:
                    raise ScenarioError(str(exc), line_no) from None
        return tuple(out)

    clauses = []
    for line_no, stmt in _split_statements(values.get("idb", [])):
        try:
            clauses.append(parse_schematic_clause(stmt, dom))
        except GroundingError as exc:
            raise ScenarioError(f"agent {agent_id}: {exc}", line_no) from None

    return AgentDef(
        id=agent_id,
        idb=tuple(clauses),
        hbe=patterns("hbe"),
        hin=patterns("hin"),
        edb0=patterns("edb"),
        in0=patterns("in"),
    )


def _parse_env_atoms(text, dom, line_no):
    atoms = []
    for chunk in split_top_level(text):
        chunk = chunk.strip().rstrip(".")
        if not chunk:
            continue
        try:
            atoms.append(parse_ground_atom(chunk, dom))
        except GroundingError as exc:
            raise ScenarioError(str(exc), line_no) from None
    return frozenset(atoms)


def _parse_env_directive(text, dom, line_no) -> EnvChange:
    m = _ENV_RE.match(text.strip())
    if not m:
        raise ScenarioError(f"malformed environment directive: {text!r}", line_no)
    atoms = _parse_env_atoms(m.group(2), dom, line_no)
    if m.group(1) == "fail":
        return EnvChange(frozenset(), atoms)
    return EnvChange(atoms, frozenset())


def _parse_events(lines, dom, agent_ids, script, schedule):
    max_rounds = None
    track = []
    for line_no, line in lines:
        stripped = line.strip()
        m = _KEY_RE.match(stripped)
        if m and m.group(1).strip() in ("max_rounds", "track"):
            key, rest = m.group(1).strip(), m.group(2).strip()
            if key == "max_rounds":
                try:
                    max_rounds = int(rest)
                except ValueError:
                    raise ScenarioError(f"max_rounds must be an integer: {rest!r}", line_no) from None
                if max_rounds < 0:
                    raise ScenarioError(f"max_rounds must be at least 0, got {max_rounds}", line_no)
            else:
                try:
                    pattern = parse_pattern(rest, dom)
                    family_of(pattern, dom)
                except (GroundingError, ScenarioError) as exc:
                    raise ScenarioError(str(exc), line_no) from None
                track.append(pattern)
            continue
        m = _AT_ROUND_RE.match(stripped)
        if m:
            schedule.append((int(m.group(1)), _parse_env_directive(m.group(2), dom, line_no)))
            continue
        m = _SEND_RE.match(stripped)
        if m:
            sender, receiver = m.group(1), m.group(2)
            for who in (sender, receiver):
                if who not in agent_ids:
                    raise ScenarioError(f"unknown agent in send: {who}", line_no)
            script.append(CommEvent(sender, receiver))
            continue
        if stripped.startswith(("fail", "restore")):
            script.append(_parse_env_directive(stripped, dom, line_no))
            continue
        raise ScenarioError(f"malformed event line: {stripped!r}", line_no)
    return max_rounds, track


# ---------------------------------------------------------------------------
# Serialization (canonical form; parse(serialize(s)) == s)


def serialize_scenario(sc: Scenario) -> str:
    dom = sc.domain
    out = ["[domain]"]
    out.append("nodes: " + " ".join(dom.node_constants))
    out.append(f"dmax: {dom.distance_max}")
    if dom.node_vars:
        out.append("var node: " + " ".join(sorted(dom.node_vars)))
    if dom.int_vars:
        out.append("var int: " + " ".join(sorted(dom.int_vars)))
    if dom.symmetric:
        out.append("symmetric: " + " ".join(sorted(dom.symmetric)))
    if sc.output:
        out.append(f"output: {sc.output}")
    for ad in sc.agents:
        out.append("")
        out.append(f"[agent {ad.id}]")
        out.append("idb:")
        for c in ad.idb:
            out.append(f"  {c}")
        for key, pats in (("hbe", ad.hbe), ("hin", ad.hin), ("edb", ad.edb0), ("in", ad.in0)):
            out.append(f"{key}: " + "; ".join(str(p) for p in pats))
    if sc.script or sc.schedule or sc.max_rounds is not None or sc.track:
        out.append("")
        out.append("[events]")
        if sc.max_rounds is not None:
            out.append(f"max_rounds: {sc.max_rounds}")
        for p in sc.track:
            out.append(f"track: {p}")
        for ev in sc.script:
            if isinstance(ev, CommEvent):
                out.append(f"send {ev.sender} -> {ev.receiver}.")
            else:
                out.append(_env_line(ev) + ".")
        for round_no, change in sc.schedule:
            out.append(f"@round {round_no}: " + _env_line(change))
    return "\n".join(out) + "\n"


def _env_line(change: EnvChange) -> str:
    if change.became_false and not change.became_true:
        return "fail " + ", ".join(str(a) for a in sorted(change.became_false))
    if change.became_true and not change.became_false:
        return "restore " + ", ".join(str(a) for a in sorted(change.became_true))
    raise ScenarioError("mixed environment changes cannot be serialized on one line")


# ---------------------------------------------------------------------------
# Built-in scenarios


class _TopologyFields(NamedTuple):
    nodes: tuple
    edges: frozenset


class Topology(_TopologyFields):
    """Undirected network; edges are stored with endpoints in node order."""

    __slots__ = ()

    def __new__(cls, nodes: tuple, edges: frozenset):
        order = {n: i for i, n in enumerate(nodes)}
        canon = set()
        for u, v in edges:
            if u == v:
                raise ScenarioError(f"self-loop on {u}")
            if u not in order or v not in order:
                raise ScenarioError(f"edge endpoint outside nodes: {(u, v)}")
            canon.add((u, v) if order[u] < order[v] else (v, u))
        return super().__new__(cls, nodes, frozenset(canon))

    @classmethod
    def _make(cls, fields) -> "Topology":
        """By the constructor, so that ``_replace`` canonicalises too."""
        return cls(*fields)

    def neighbors(self, node: str) -> tuple:
        order = {n: i for i, n in enumerate(self.nodes)}
        out = set()
        for u, v in self.edges:
            if u == node:
                out.add(v)
            elif v == node:
                out.add(u)
        return tuple(sorted(out, key=order.get))


FIG1_TOPOLOGY = Topology(
    nodes=("A1", "A2", "A3", "A4", "A5"),
    edges=frozenset(
        [("A1", "A2"), ("A1", "A4"), ("A2", "A3"), ("A2", "A5"), ("A3", "A5"), ("A4", "A5")]
    ),
)


def routing_scenario_text(t: Topology, dmax: int = None) -> str:
    """Scenario text for the shortest-path agents on topology ``t``.

    Each node runs the same five clause schemas specialized to itself; it
    senses its incident links and hears neighbours' distance claims for
    every destination but itself.  The default bound, node count + 1,
    suffices for any convergent run; divergence studies pass a larger one
    so the count-to-infinity ramp is observable before the cap truncates
    it.
    """
    if dmax is None:
        dmax = len(t.nodes) + 1
    if dmax < 1:
        raise ScenarioError("routing needs dmax >= 1")
    lines = ["[domain]"]
    lines.append("nodes: " + " ".join(t.nodes))
    lines.append(f"dmax: {dmax}")
    lines.append("var node: X Y")
    lines.append("var int: D D2")
    lines.append("symmetric: link")
    lines.append("output: sp")
    for node in t.nodes:
        incident = "; ".join(f"link({min(node, nb, key=t.nodes.index)},{max(node, nb, key=t.nodes.index)})" for nb in t.neighbors(node))
        lines.append("")
        lines.append(f"[agent {node}]")
        lines.append("idb:")
        lines.append(f"  sp({node},{node},0).")
        lines.append(f"  sp({node},Y,D) :- spt({node},Y,X,D).")
        lines.append(f"  spt({node},Y,X,D+1) :- link({node},X), sp(X,Y,D), not spl({node},Y,D+1).")
        lines.append(f"  spl({node},{node},D+1).")
        lines.append(f"  spl({node},Y,D+1) :- link({node},X), sp(X,Y,D2), D2 < D.")
        lines.append("hbe: " + incident)
        lines.append(
            "hin: " + "; ".join(f"sp({nb},Y,D) where Y != {node}" for nb in t.neighbors(node))
        )
        lines.append("edb: " + incident)
        lines.append("in:")
    return "\n".join(lines) + "\n"


def chain_scenario(n: int) -> Scenario:
    """The two-agent chain whose fixpoint distance grows with ``n``:
    one agent derives ``q`` from any missing ``r(x)``, the other feeds it
    ``r`` values one exchange at a time."""
    if n < 0:
        raise ScenarioError("chain bound must be >= 0")
    text = f"""\
[domain]
nodes:
dmax: {n}
var int: X

[agent A1]
idb:
  q :- not r(X).
  s(X) :- r(X).
hbe:
hin: r(X)
edb:
in:

[agent A2]
idb:
  r(X+1) :- s(X).
  r(0).
hbe:
hin: s(X)
edb:
in:
"""
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# Built-in lookup

_CHAIN_RE = re.compile(r"chain\((\d+)\)$")
_FILE_BUILTINS = ("example3", "routing5", "routing5-example6-script")


def builtin_names() -> tuple:
    return _FILE_BUILTINS + ("chain(N)",)


def builtin_scenario(name: str) -> Scenario:
    m = _CHAIN_RE.match(name.strip())
    if m:
        return chain_scenario(int(m.group(1)))
    if name in _FILE_BUILTINS:
        # Read next to this module, where the package installs them, and
        # not through ``importlib.resources``: importing it costs a
        # command that has not loaded it 10-14 ms (Python 3.11, ``-S``).
        path = os.path.join(os.path.dirname(__file__), "data", f"{name}.scenario")
        with open(path, encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    raise ScenarioError(f"unknown builtin scenario: {name!r} (have {', '.join(builtin_names())})")


def load_scenario(ref: str) -> Scenario:
    """Load a scenario by builtin name or by file path."""
    if _CHAIN_RE.match(ref.strip()) or ref in _FILE_BUILTINS:
        return builtin_scenario(ref)
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    raise ScenarioError(f"no such scenario or file: {ref!r}")
