"""Ground logic programs with negation and their stable-model semantics.

Atoms, clauses and programs are immutable values, totally ordered so that
every listing (trace exports, model dumps, error messages) is
byte-stable across runs.  A clause is the tuple of a head and two tuples
of body atoms, ``pos`` and ``neg``: the positive atoms and the negated
ones.  All operations are pure functions.  The only shared mutable state
is the process-wide intern table of ``Atom``: each atom is made once and
reused, so equality and hashing of atoms are by identity.  The table
never shrinks, and it grows only through ``dict.setdefault``, which
under the GIL gives every caller the same object for a value.

Three evaluation routes are provided on purpose and are cross-checked by
the test suite:

* the definition-following route: ``gl_reduct`` + ``least_model`` give
  ``is_stable_model``, and ``stable_models_bruteforce`` enumerates every
  candidate interpretation;
* the fast route for acyclic programs: ``AcyclicPlan(p)`` compiles the
  program once (atom table, clauses as index tuples, heads in topological
  order of the atom dependency graph), and its ``model`` evaluates each
  head once, in that order;
* the incremental route for acyclic programs: the plan's ``update`` turns
  the model for one set of facts into the model for another by
  re-deriving, in the same order, only the heads downstream of the facts
  that changed.  Tests check it against ``model`` on the full facts and
  against ``stable_models_bruteforce``.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from dataclasses import FrozenInstanceError, dataclass
from functools import total_ordering
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

__all__ = [
    "Atom",
    "Clause",
    "GroundProgram",
    "DependencyGraph",
    "Interpretation",
    "CyclicProgramError",
    "AcyclicPlan",
    "atom",
    "head_set",
    "gl_reduct",
    "least_model",
    "is_stable_model",
    "stable_models_bruteforce",
    "stable_model_acyclic",
    "dependency_graph",
    "is_acyclic",
    "relevant_atoms",
    "format_atom",
    "parse_atom",
    "format_clause",
    "parse_clause",
]

BRUTEFORCE_CAP = 20


class CyclicProgramError(ValueError):
    """Raised when an operation that requires acyclicity meets a cycle."""


def _arg_key(value) -> tuple:
    # Integers sort before symbols; mixed argument tuples stay comparable.
    if isinstance(value, int):
        return (0, "", value)
    return (1, value, 0)


@total_ordering
class Atom:
    """A fully ground atom: predicate symbol plus constant arguments.

    Interned: ``Atom(p, args)`` returns the one object with that predicate
    and ``tuple(args)``, so equal atoms are the same object, and ``==``
    and ``hash`` are the inherited identity versions, which run in C.
    """

    __slots__ = ("predicate", "args", "_key")
    _table: dict = {}

    def __new__(cls, predicate: str, args=()):
        value = (predicate, tuple(args))
        self = cls._table.get(value)
        if self is None:
            predicate, args = value
            self = object.__new__(cls)
            object.__setattr__(self, "predicate", predicate)
            object.__setattr__(self, "args", args)
            key = (predicate, len(args), tuple(_arg_key(a) for a in args))
            object.__setattr__(self, "_key", key)
            self = cls._table.setdefault(value, self)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Atom, (self.predicate, self.args))

    def sort_key(self) -> tuple:
        return self._key

    def __lt__(self, other: "Atom") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return f"Atom(predicate={self.predicate!r}, args={self.args!r})"

    def __str__(self) -> str:
        return format_atom(self)


def atom(predicate: str, *args) -> Atom:
    """Convenience constructor: ``atom("sp", "A1", 2)``."""
    return Atom(predicate, args)


class Clause(tuple):
    """``head :- pos, not neg``; an empty body makes the clause a fact.

    ``pos`` holds the positive body atoms and ``neg`` the negated ones.
    Each is deduplicated and put in ``Atom.sort_key`` order on
    construction, so structurally equal clauses compare equal.  A clause
    is the tuple ``(head, pos, neg)``, so it is built, compared and
    hashed in C and unpacks as ``head, pos, neg = c``.
    """

    __slots__ = ()

    def __new__(cls, head: Atom, pos=(), neg=()):
        return tuple.__new__(cls, (head, _canonical(pos), _canonical(neg)))

    # ``Clause._sorted(Clause, (head, pos, neg))`` builds without the
    # sort, for ``pos`` and ``neg`` tuples that are already deduplicated
    # and in ``Atom.sort_key`` order.
    _sorted = tuple.__new__

    head = property(itemgetter(0))
    pos = property(itemgetter(1))
    neg = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def is_fact(self) -> bool:
        return not (self[1] or self[2])

    def atoms(self) -> Iterator[Atom]:
        yield self[0]
        yield from self[1]
        yield from self[2]

    def __repr__(self) -> str:
        return f"Clause(head={self[0]!r}, pos={self[1]!r}, neg={self[2]!r})"

    def __str__(self) -> str:
        return format_clause(self)


def _canonical(atoms) -> tuple:
    return tuple(sorted(set(atoms), key=Atom.sort_key))


@dataclass(frozen=True)
class GroundProgram:
    """A finite set of ground clauses over an explicit atom universe.

    The universe may be larger than the set of atoms mentioned in clauses:
    declared input/environment atoms belong to it even when no clause
    touches them.
    """

    clauses: frozenset = frozenset()
    universe: frozenset = frozenset()

    def __post_init__(self):
        mentioned = {a for c in self.clauses for a in c.atoms()}
        if not mentioned <= self.universe:
            missing = ", ".join(str(a) for a in sorted(mentioned - self.universe)[:5])
            raise ValueError(f"clause atoms outside universe: {missing}")

    @classmethod
    def _unchecked(cls, clauses: frozenset, universe: frozenset) -> "GroundProgram":
        """Build without the universe scan of ``__post_init__``.  Only for
        callers whose universe covers every clause atom by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "clauses", clauses)
        object.__setattr__(p, "universe", universe)
        return p

    @classmethod
    def of(cls, clauses: Iterable[Clause], extra_atoms: Iterable[Atom] = ()) -> "GroundProgram":
        clauses = frozenset(clauses)
        universe = set(extra_atoms)
        if clauses:
            heads, pos, neg = zip(*clauses)
            universe.update(heads, chain.from_iterable(pos), chain.from_iterable(neg))
        return cls._unchecked(clauses, frozenset(universe))

    def union(self, other: "GroundProgram") -> "GroundProgram":
        return GroundProgram._unchecked(self.clauses | other.clauses, self.universe | other.universe)

    def with_facts(self, atoms: Iterable[Atom]) -> "GroundProgram":
        atoms = frozenset(atoms)
        facts = {Clause(a) for a in atoms}
        return GroundProgram._unchecked(self.clauses | facts, self.universe | atoms)


# An interpretation is just a set of true atoms.
Interpretation = frozenset


def head_set(p: GroundProgram) -> frozenset:
    """The set of clause heads of ``p``."""
    return frozenset(c.head for c in p.clauses)


def gl_reduct(p: GroundProgram, s: Interpretation) -> GroundProgram:
    """The reduct of ``p`` relative to ``s``.

    Clauses with a negated body atom in ``s`` are dropped; the surviving
    clauses keep only their positive body atoms, so the result is
    negation-free.  The universe is unchanged.
    """
    kept = frozenset(
        Clause._sorted(Clause, (head, pos, ())) for head, pos, neg in p.clauses if s.isdisjoint(neg)
    )
    return GroundProgram._unchecked(kept, p.universe)


def least_model(p: GroundProgram) -> Interpretation:
    """Least model of a negation-free program (iterated consequences)."""
    clauses = []
    for c in p.clauses:
        if c.neg:
            raise ValueError(f"least_model requires a negation-free program, got: {c}")
        clauses.append(c)

    remaining = {}
    watchers = defaultdict(list)
    queue = deque()
    for i, c in enumerate(clauses):
        remaining[i] = len(c.pos)
        if not c.pos:
            queue.append(i)
        for b in c.pos:
            watchers[b].append(i)

    true: set = set()
    while queue:
        i = queue.popleft()
        head = clauses[i].head
        if head in true:
            continue
        true.add(head)
        for j in watchers[head]:
            remaining[j] -= 1
            if remaining[j] == 0:
                queue.append(j)
    return frozenset(true)


def is_stable_model(p: GroundProgram, s: Interpretation) -> bool:
    """True iff ``s`` equals the least model of the reduct of ``p`` by ``s``."""
    return least_model(gl_reduct(p, s)) == frozenset(s)


def stable_models_bruteforce(p: GroundProgram, cap: int = BRUTEFORCE_CAP):
    """All stable models of ``p`` by exhaustive enumeration.

    Serves as the slow, independent oracle for the acyclic fast path.
    Only subsets of the head set need checking: an atom no clause derives
    can never be in a stable model.  Refuses universes above ``cap``.
    """
    n = len(p.universe)
    if n > cap:
        raise ValueError(f"universe has {n} atoms, above the brute-force cap {cap}")

    heads = sorted(head_set(p))
    bit = {a: i for i, a in enumerate(heads)}

    compiled = []
    for c in p.clauses:
        # A positive body atom nobody derives makes the clause dead; the
        # negation of an underivable atom always holds.
        if all(b in bit for b in c.pos):
            pos_mask = sum(1 << bit[b] for b in c.pos)
            neg_mask = sum(1 << bit[b] for b in c.neg if b in bit)
            compiled.append((1 << bit[c.head], pos_mask, neg_mask))

    models = []
    for mask in range(1 << len(heads)):
        m = 0
        changed = True
        while changed:
            changed = False
            for head_bit, pos_mask, neg_mask in compiled:
                if not m & head_bit and not neg_mask & mask and m & pos_mask == pos_mask:
                    m |= head_bit
                    changed = True
        if m == mask:
            models.append(frozenset(a for a in heads if mask >> bit[a] & 1))
    models.sort(key=lambda s: tuple(sorted(a.sort_key() for a in s)))
    return models


# ---------------------------------------------------------------------------
# Atom dependency graph


@dataclass(frozen=True)
class DependencyGraph:
    """Directed graph over atoms; an edge (a, b) means a clause for ``a``
    mentions ``b`` (positively or negatively) in its body."""

    nodes: frozenset = frozenset()
    edges: frozenset = frozenset()

    def successors(self) -> dict:
        adj = {a: [] for a in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
        return adj


def dependency_graph(p: GroundProgram) -> DependencyGraph:
    edges = frozenset((c.head, b) for c in p.clauses for b in c.pos + c.neg)
    return DependencyGraph(p.universe, edges)


def is_acyclic(g: DependencyGraph) -> bool:
    """No directed cycle; on a finite graph this is "no infinite path"."""
    indegree = {a: 0 for a in g.nodes}
    adj = g.successors()
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
    adj = g.successors()
    reached: set = set()
    frontier = deque(adj[a])
    while frontier:
        b = frontier.popleft()
        if b in reached:
            continue
        reached.add(b)
        frontier.extend(adj[b])
    return frozenset(reached)


def _dependency_sink() -> tuple:
    """An empty head -> body-atoms map, and the ``sink(head, pos, neg)``
    that adds one clause's body atoms under its head: the dependency graph
    of the clauses passed to it, read straight off them."""
    deps = {}

    def sink(head, pos, neg):
        body = deps.get(head)
        if body is None:
            body = deps[head] = set()
        body.update(pos)
        body.update(neg)

    return deps, sink


def _peel(deps: dict) -> tuple:
    """Peel ``deps`` (head -> body atoms) from its sinks, repeatedly
    removing the atoms whose every body atom is removed.

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


# ---------------------------------------------------------------------------
# Compiled form of an acyclic program


class AcyclicPlan:
    """An acyclic ground program compiled for evaluation.

    ``atoms`` is the universe in sort order and ``index`` maps each atom
    to its position there.  ``by_head`` maps a head's index to its
    clauses, each a ``(positive, negative)`` pair of body index tuples.
    ``sequence`` lists the head indices in topological order, every head
    after the heads it depends on.  ``heads`` is the set of atoms that
    facts may not be: the program's heads, or the ``heads`` passed in,
    which for a program that keeps only the live clauses of a larger one
    are the larger one's.  ``users[i]`` holds the positions in
    ``sequence`` of the heads whose clauses mention atom ``i``.

    Raises CyclicProgramError when the atom dependency graph has a cycle.
    """

    __slots__ = ("atoms", "index", "by_head", "sequence", "heads", "users")

    def __init__(self, p: GroundProgram, heads: frozenset = None):
        atoms = tuple(sorted(p.universe, key=Atom.sort_key))
        index = dict(zip(atoms, range(len(atoms))))
        at = index.__getitem__
        by_head: dict = defaultdict(list)
        for head, pos, neg in p.clauses:
            by_head[at(head)].append((tuple(map(at, pos)), tuple(map(at, neg))))

        flat = chain.from_iterable
        bodies = {h: set(flat(flat(cs))) for h, cs in by_head.items()}
        sequence, cyclic = _peel(bodies)
        if cyclic:
            listed = sorted(atoms[h] for h in cyclic)[:3]
            raise CyclicProgramError("cycle through " + ", ".join(map(str, listed)))

        users = [[] for _ in atoms]
        for k, h in enumerate(sequence):
            for i in bodies[h]:
                users[i].append(k)
        self.atoms = atoms
        self.index = index
        self.by_head = {h: tuple(cs) for h, cs in by_head.items()}
        self.sequence = sequence
        self.heads = frozenset(atoms[h] for h in sequence) if heads is None else heads
        self.users = tuple(map(tuple, users))

    def model(self, facts: Interpretation = frozenset()) -> Interpretation:
        """The unique stable model of the program extended with ``facts``,
        in one pass.

        ``facts`` are extra atoms taken as unconditionally true (sensed or
        received inputs); none of them may head a clause.
        """
        clash = facts & self.heads
        if clash:
            raise ValueError(f"fact atoms may not head clauses: {sorted(clash)[:3]}")
        atoms, index, by_head = self.atoms, self.index, self.by_head
        truth = bytearray(len(atoms))
        for f in facts:
            i = index.get(f)
            if i is not None:
                truth[i] = 1
        for h in self.sequence:
            for pos, neg in by_head[h]:
                if all(truth[i] for i in pos) and not any(truth[i] for i in neg):
                    truth[h] = 1
                    break
        model = set(facts)
        model.update(a for a, t in zip(atoms, truth) if t)
        return frozenset(model)

    def update(
        self,
        model: Interpretation,
        added: frozenset = frozenset(),
        removed: frozenset = frozenset(),
    ) -> Interpretation:
        """``self.model(facts - removed | added)``, given
        ``model == self.model(facts)``; ``model`` itself when no truth
        changes (see ``changes``)."""
        gained, lost = self.changes(model, added, removed)
        if lost:
            model = model.difference(lost)
        if gained:
            model = model.union(gained)
        return model

    def changes(
        self,
        model,
        added: frozenset = frozenset(),
        removed: frozenset = frozenset(),
    ) -> tuple:
        """``(gained, lost)``: the atoms, facts included, that are in
        ``self.model(facts - removed | added)`` and not in ``model``, and
        the other way round, given ``model == self.model(facts)``.
        ``model`` may be a mutable set; it is only read.

        Only heads with a clause that mentions an atom whose truth changed
        are re-derived, each once, in plan order: a head is popped only
        after every head it depends on has its final truth, so the update
        is exact without over-deletion.  A head's users are queued only
        when its truth flips.
        """
        clash = added & self.heads
        if clash:
            raise ValueError(f"fact atoms may not head clauses: {sorted(clash)[:3]}")
        gained = [a for a in added if a not in model]
        lost = [a for a in removed if a in model and a not in added]
        if not gained and not lost:
            return gained, lost

        atoms, index, by_head = self.atoms, self.index, self.by_head
        sequence, users = self.sequence, self.users
        flipped = {}  # atom index -> truth after the update, for atoms that changed
        queued = set()  # plan positions of the heads to re-derive
        for changed, value in ((gained, True), (lost, False)):
            for a in changed:
                i = index.get(a)
                if i is not None:
                    flipped[i] = value
                    queued.update(users[i])
        queue = sorted(queued)  # a sorted list is a heap

        while queue:
            h = sequence[heappop(queue)]
            now = False
            for pos, neg in by_head[h]:
                for i in pos:
                    t = flipped.get(i)
                    if not (atoms[i] in model if t is None else t):
                        break
                else:
                    for i in neg:
                        t = flipped.get(i)
                        if atoms[i] in model if t is None else t:
                            break
                    else:
                        now = True
                        break
            if now != (atoms[h] in model):
                flipped[h] = now
                (gained if now else lost).append(atoms[h])
                for k in users[h]:
                    if k not in queued:
                        queued.add(k)
                        heappush(queue, k)
        return gained, lost


def stable_model_acyclic(p: GroundProgram, facts: Interpretation = frozenset()) -> Interpretation:
    """The unique stable model of an acyclic program extended with
    ``facts``; see ``AcyclicPlan.model``."""
    return AcyclicPlan(p).model(facts)


# ---------------------------------------------------------------------------
# Text form: one clause per line, `head :- lit1, not lit2.`

_NAME = r"[A-Za-z_]\w*"
_ATOM_RE = re.compile(rf"({_NAME})\s*(?:\(\s*([^()]*?)\s*\))?$")
_INT_RE = re.compile(r"-?\d+$")


def split_top_level(text: str, sep: str = ",") -> list:
    """Split on ``sep`` occurrences outside parentheses."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def format_atom(a: Atom) -> str:
    if not a.args:
        return a.predicate
    return f"{a.predicate}({','.join(str(v) for v in a.args)})"


def parse_atom(text: str) -> Atom:
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed atom: {text!r}")
    name, arglist = m.groups()
    if arglist is None:
        return Atom(name)
    args = []
    for raw in arglist.split(","):
        raw = raw.strip()
        if _INT_RE.match(raw):
            args.append(int(raw))
        elif re.fullmatch(_NAME, raw):
            args.append(raw)
        else:
            raise ValueError(f"malformed atom argument {raw!r} in {text!r}")
    return Atom(name, tuple(args))


def format_clause(c: Clause) -> str:
    """``head :- b1, not b2.``: body items in atom order, a positive atom
    before its own negation."""
    if c.is_fact:
        return f"{format_atom(c.head)}."
    items = [(b.sort_key(), 0, format_atom(b)) for b in c.pos]
    items += [(b.sort_key(), 1, f"not {format_atom(b)}") for b in c.neg]
    body = ", ".join(text for _, _, text in sorted(items))
    return f"{format_atom(c.head)} :- {body}."


def parse_clause(text: str) -> Clause:
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
        return Clause(parse_atom(head_text), tuple(pos), tuple(neg))
    return Clause(parse_atom(text))
