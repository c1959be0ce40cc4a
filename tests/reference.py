"""Definition-route references the tests compare the library against.

Each follows the paper's definition over plain values: the atom
dependency graph of a program, its acyclicity, the atoms relevant to
an atom, the peel of a head -> body-atoms map from its sinks,
breadth-first shortest paths on a topology, an agent's outgoing claims,
the transitions of a global state, one event at a time, the agents'
agreement at one point, one atom at a time, a clause built from its
atoms or read back from its text form, and the order of atoms by a
nested key per argument.  The library reads the same facts off head -> body-atoms
maps and compiled plans, records a run as per-event deltas, and finds
the agreement by set algebra, instead.
"""

from collections import deque

from agentlog.agents import AgentState, EnvChange, agent_model
from agentlog.logic import Atom, DependencyGraph, GroundProgram, parse_atom, split_top_level
from agentlog.runtime import _applied, _env_deltas, _send_dependency
from agentlog.scenarios import Topology
from agentlog.system import MultiAgentSystem


def dependency_graph(p: GroundProgram) -> DependencyGraph:
    """An edge (a, b) for each clause for ``a`` that mentions ``b``
    (positively or negatively) in its body; the nodes are the universe."""
    edges = frozenset((head, b) for head, pos, neg in p.clauses for b in pos + neg)
    return DependencyGraph(p.universe, edges)


def successors(g: DependencyGraph) -> dict:
    """Each node -> the nodes its edges lead to."""
    adj = {a: [] for a in g.nodes}
    for a, b in g.edges:
        adj[a].append(b)
    return adj


def is_acyclic(g: DependencyGraph) -> bool:
    """No directed cycle; on a finite graph this is "no infinite path"."""
    indegree = {a: 0 for a in g.nodes}
    adj = successors(g)
    for a, b in g.edges:
        indegree[b] += 1
    queue = deque(a for a, d in indegree.items() if d == 0)
    seen = 0
    while queue:
        a = queue.popleft()
        seen += 1
        for b in adj[a]:
            indegree[b] -= 1
            if indegree[b] == 0:
                queue.append(b)
    return seen == len(g.nodes)


def relevant_atoms(g: DependencyGraph, a: Atom) -> frozenset:
    """Atoms reachable from ``a`` by a nonempty path.

    ``a`` itself is included only when it lies on a cycle through ``a``.
    """
    if a not in g.nodes:
        raise ValueError(f"unknown atom: {a}")
    adj = successors(g)
    reached: set = set()
    frontier = deque(adj[a])
    while frontier:
        b = frontier.popleft()
        if b in reached:
            continue
        reached.add(b)
        frontier.extend(adj[b])
    return frozenset(reached)


def kahn_peel(deps: dict) -> tuple:
    """Peel ``deps`` (head -> body atoms) from its sinks, repeatedly
    removing the atoms whose every body atom is removed (Kahn 1962).

    Returns the removed heads in removal order, which puts every head
    after the heads in its body, and the set of heads left: the atoms
    from which a cycle can be reached.
    """
    waiting = {h: len(body) for h, body in deps.items()}
    parents = {}
    for h, body in deps.items():
        for b in body:
            parents.setdefault(b, []).append(h)
    order = []
    sinks = [a for a in parents if a not in deps]
    sinks.extend(h for h, n in waiting.items() if not n)
    while sinks:
        a = sinks.pop()
        if a in waiting:
            order.append(a)
        for h in parents.get(a, ()):
            waiting[h] -= 1
            if not waiting[h]:
                sinks.append(h)
    return tuple(order), frozenset(h for h, n in waiting.items() if n)


def bfs_oracle(t: Topology, failed=()) -> dict:
    """All-pairs shortest hop counts on the surviving graph.

    ``failed`` lists edges (either orientation) to remove.  Unreachable
    pairs are absent from the result.
    """
    order = {n: i for i, n in enumerate(t.nodes)}
    down = {(u, v) if order[u] < order[v] else (v, u) for u, v in failed}
    adj = {n: [] for n in t.nodes}
    for u, v in t.edges - down:
        adj[u].append(v)
        adj[v].append(u)
    dist = {}
    for source in t.nodes:
        dist[(source, source)] = 0
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v in adj[u]:
                if (source, v) not in dist:
                    dist[(source, v)] = dist[(source, u)] + 1
                    frontier.append(v)
    return dist


def output_projection(agent_id: str, model, predicate: str) -> frozenset:
    """The agent's outgoing claims: atoms of the output predicate whose
    first argument is the agent itself."""
    return frozenset(
        a for a in model if a.predicate == predicate and a.args and a.args[0] == agent_id
    )


def env_transition(sys: MultiAgentSystem, gs: tuple, change: EnvChange) -> tuple:
    """Every agent sensing part of the change updates its EDB; the rest
    keep their state untouched (inputs never move here)."""
    nxt = list(gs)
    for i, delta in _env_deltas(sys, change, [s.edb for s in gs]):
        nxt[i] = AgentState(_applied(gs[i].edb, delta), gs[i].indb)
    return tuple(nxt)


def input_delta(indb, dep: frozenset, sender_model) -> tuple:
    """``(added, removed)``: what a send from a sender whose model is
    ``sender_model`` changes of the receiver's input database ``indb``,
    read off the dependency slice ``dep`` alone."""
    payload = dep & sender_model
    held = dep & indb
    return payload - held, held - payload


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


def holders(sys: MultiAgentSystem) -> dict:
    """Each atom of some agent's atom base -> indices of the agents whose
    atom base holds it."""
    table = {}
    for idx, agent in enumerate(sys.agents):
        for a in agent.hb:
            table.setdefault(a, []).append(idx)
    return table


def agreement(sys: MultiAgentSystem, models: tuple) -> tuple:
    """``(atoms true in every holder's model, atoms true in some holders'
    models only)``, of the agents' ``models`` at one point, counted atom
    by atom over its holders."""
    agreed, split = [], []
    for a, idxs in holders(sys).items():
        true_in = sum(a in models[idx] for idx in idxs)
        if true_in == len(idxs):
            agreed.append(a)
        elif true_in:
            split.append(a)
    return frozenset(agreed), frozenset(split)


def arg_key(value) -> tuple:
    """The order of one atom argument: integers sort before symbols, so
    mixed argument tuples stay comparable."""
    if isinstance(value, int):
        return (0, "", value)
    return (1, value, 0)


def atom_key(a: Atom) -> tuple:
    """The order of atoms: by predicate, then arity, then the arguments'
    ``arg_key``s in turn."""
    return (a.predicate, len(a.args), tuple(arg_key(v) for v in a.args))


def clause(head: Atom, pos=(), neg=()) -> tuple:
    """The ground clause ``(head, pos, neg)`` with each body deduplicated
    and in ``Atom.sort_key`` order, the form the grounder streams, so
    that structurally equal clauses are equal tuples."""
    return (head, *(tuple(sorted(set(body), key=Atom.sort_key)) for body in (pos, neg)))


def parse_clause(text: str) -> tuple:
    """A ground clause from the text ``format_clause`` writes."""
    text = text.strip()
    if not text.endswith("."):
        raise ValueError(f"clause must end with '.': {text!r}")
    text = text[:-1]
    if ":-" in text:
        head_text, body_text = text.split(":-", 1)
        pos, neg = [], []
        for item in split_top_level(body_text):
            item = item.strip()
            if item.startswith("not ") or item.startswith("not("):
                neg.append(parse_atom(item[3:].strip()))
            else:
                pos.append(parse_atom(item))
        return clause(parse_atom(head_text), pos, neg)
    return clause(parse_atom(text))
