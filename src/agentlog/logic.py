"""Ground logic programs with negation and their stable-model semantics.

Atoms, clauses and programs are immutable values, totally ordered so that
every listing (trace exports, model dumps, error messages) is
byte-stable across runs.  A clause is the plain tuple ``(head, pos,
neg)`` of a head and two tuples of body atoms: the positive atoms and
the negated ones, each deduplicated and in ``Atom.sort_key`` order, so
that equal clauses are equal tuples.  Nothing here sorts them: the
grounder hands its bodies over in that order, and the functions here
only unpack clauses.  All operations are pure functions.  The only
shared mutable state is the process-wide intern table of ``Atom``: each
atom is made once and reused, so equality and hashing of atoms are by
identity.  It has two levels, a table per predicate keyed by argument
tuples.  Neither level ever shrinks, and each grows only through
``dict.setdefault``, which under the GIL gives every caller the same
object for a value.

Three evaluation routes are provided on purpose and are cross-checked by
the test suite:

* the definition-following route: ``gl_reduct`` + ``least_model`` give
  ``is_stable_model``, and ``stable_models_bruteforce`` enumerates every
  candidate interpretation;
* the fast route for acyclic programs: ``AcyclicPlan(clauses)`` groups
  the clauses by head and puts the heads in topological order of the atom
  dependency graph, once, and its ``model`` evaluates each head once, in
  that order, by ``_derive``: a head holds when some clause for it fires.
  The superagent reference model of an acyclic union is the same pass
  over the system's union rule table;
* the incremental route for acyclic programs: the plan's ``changes``
  reads, off the model for one set of facts, the atoms the model for
  another gains and loses, by re-deriving, in the same order, only the
  heads downstream of the facts that changed.  Tests check it against
  the difference of two ``model`` evaluations on the full facts and
  against ``stable_models_bruteforce``.

Acyclicity is read off a head -> body-atoms map by ``_peel``, one
iterative depth-first pass along its edges: the heads that reach no
cycle come out in post-order, each after the heads in its body, which is
the order ``AcyclicPlan`` and a system evaluate in, and the others are
the heads that reach a cycle.  ``DependencyGraph`` is the value form of
such a graph, and the I/O graph is the one built as one.

Text is only written here (``format_atom``, ``format_clause``); atom
text is read over a scenario's domain, by ``grounding.parse_ground_atom``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import total_ordering
from heapq import heappop, heappush
from itertools import chain
from typing import Iterable, NamedTuple

__all__ = [
    "Atom",
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
    "format_atom",
    "format_clause",
]

BRUTEFORCE_CAP = 20


class CyclicProgramError(ValueError):
    """Raised when an operation that requires acyclicity meets a cycle."""


@total_ordering
class Atom:
    """A fully ground atom: predicate symbol plus constant arguments.

    Interned: ``Atom(p, args)`` returns the one object with that predicate
    and ``tuple(args)``, so equal atoms are the same object, and ``==``
    and ``hash`` are the inherited identity versions, which run in C.
    ``_table`` maps each predicate to its own table, from argument tuples
    to atoms, which the grounder probes directly.

    ``sort_key`` is one flat tuple ``(predicate, len(args), k0, v0, k1,
    v1, ...)``, with each ``k`` 0 for an integer and 1 for a symbol:
    integers sort before symbols, so mixed argument tuples stay
    comparable, and two values are compared only when their kinds match.
    """

    __slots__ = ("predicate", "args", "_key")
    _table: dict = {}

    def __new__(cls, predicate: str, args=()):
        args = tuple(args)
        table = cls._table.get(predicate)
        if table is None:
            table = cls._table.setdefault(predicate, {})
        self = table.get(args)
        if self is None:
            key = [predicate, len(args)]
            for a in args:
                key.append(0 if isinstance(a, int) else 1)
                key.append(a)
            self = object.__new__(cls)
            _set_predicate(self, predicate)
            _set_args(self, args)
            _set_key(self, tuple(key))
            self = table.setdefault(args, self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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


# The slots' own setters, as ``Atom`` refuses ``setattr``.
_set_predicate, _set_args, _set_key = (s.__set__ for s in (Atom.predicate, Atom.args, Atom._key))


def atom(predicate: str, *args) -> Atom:
    """Convenience constructor: ``atom("sp", "A1", 2)``."""
    return Atom(predicate, args)


class _ProgramFields(NamedTuple):
    clauses: frozenset = frozenset()
    universe: frozenset = frozenset()


class GroundProgram(_ProgramFields):
    """A finite set of ground clauses over an explicit atom universe.

    The universe may be larger than the set of atoms mentioned in clauses:
    declared input/environment atoms belong to it even when no clause
    touches them.  Construction checks that it covers every clause atom;
    every program is built through that check, ``of``, ``with_facts``,
    ``gl_reduct`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        mentioned = {a for head, pos, neg in self.clauses for a in (head, *pos, *neg)}
        if not mentioned <= self.universe:
            missing = ", ".join(str(a) for a in sorted(mentioned - self.universe)[:5])
            raise ValueError(f"clause atoms outside universe: {missing}")
        return self

    @classmethod
    def _make(cls, fields) -> "GroundProgram":
        """By the constructor, so that ``_replace`` checks too."""
        return cls(*fields)

    @classmethod
    def of(cls, clauses: Iterable[tuple], extra_atoms: Iterable[Atom] = ()) -> "GroundProgram":
        clauses = frozenset(clauses)
        universe = set(extra_atoms)
        if clauses:
            heads, pos, neg = zip(*clauses)
            universe.update(heads, chain.from_iterable(pos), chain.from_iterable(neg))
        return cls(clauses, frozenset(universe))

    def with_facts(self, atoms: Iterable[Atom]) -> "GroundProgram":
        atoms = frozenset(atoms)
        facts = {(a, (), ()) for a in atoms}
        return GroundProgram(self.clauses | facts, self.universe | atoms)


# An interpretation is just a set of true atoms.
Interpretation = frozenset


def head_set(p: GroundProgram) -> frozenset:
    """The set of clause heads of ``p``."""
    return frozenset(head for head, _, _ in p.clauses)


def gl_reduct(p: GroundProgram, s: Interpretation) -> GroundProgram:
    """The reduct of ``p`` relative to ``s``.

    Clauses with a negated body atom in ``s`` are dropped; the surviving
    clauses keep only their positive body atoms, so the result is
    negation-free.  The universe is unchanged.
    """
    kept = frozenset((head, pos, ()) for head, pos, neg in p.clauses if s.isdisjoint(neg))
    return GroundProgram(kept, p.universe)


def least_model(p: GroundProgram) -> Interpretation:
    """Least model of a negation-free program (iterated consequences)."""
    clauses = tuple(p.clauses)
    remaining = {}
    watchers = defaultdict(list)
    queue = deque()
    for i, c in enumerate(clauses):
        _, pos, neg = c
        if neg:
            raise ValueError(
                f"least_model requires a negation-free program, got: {format_clause(c)}"
            )
        remaining[i] = len(pos)
        if not pos:
            queue.append(i)
        for b in pos:
            watchers[b].append(i)

    true: set = set()
    while queue:
        i = queue.popleft()
        head = clauses[i][0]
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
    can never be in a stable model, and one a fact derives is in every one,
    so only the other heads are enumerated.  Refuses universes above ``cap``.
    """
    n = len(p.universe)
    if n > cap:
        raise ValueError(f"universe has {n} atoms, above the brute-force cap {cap}")

    facts = {head for head, pos, neg in p.clauses if not (pos or neg)}
    # The heads to enumerate take the low bits, the fact heads the rest.
    free = sorted(head_set(p) - facts)
    heads = free + sorted(facts)
    bit = {a: i for i, a in enumerate(heads)}
    fact_mask = (1 << len(heads)) - (1 << len(free))

    compiled = []
    for head, pos, neg in p.clauses:
        # A positive body atom nobody derives makes the clause dead; the
        # negation of an underivable atom always holds.
        if head not in facts and all(b in bit for b in pos):
            pos_mask = sum(1 << bit[b] for b in pos)
            neg_mask = sum(1 << bit[b] for b in neg if b in bit)
            compiled.append((1 << bit[head], pos_mask, neg_mask))

    models = []
    for mask in range(fact_mask, fact_mask + (1 << len(free))):
        m = fact_mask
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


class DependencyGraph(NamedTuple):
    """Directed graph over atoms; an edge (a, b) means a clause for ``a``
    mentions ``b`` (positively or negatively) in its body."""

    nodes: frozenset = frozenset()
    edges: frozenset = frozenset()


_OPEN, _CYCLIC, _CLEAR = 0, 1, 2


def _peel(deps: dict) -> tuple:
    """Split the heads of ``deps`` (head -> body atoms) by one iterative
    depth-first pass along its edges (Tarjan 1972).

    Each head is open while it is on the stack, then clear (it reaches no
    cycle) or cyclic (it reaches one).  A head is cyclic when an atom of
    its body is open, which closes a cycle, or cyclic; it then leaves the
    stack at once, and the head below it is cyclic too.  A head whose
    body is exhausted is clear: every head in its body finished clear
    before it, and an atom that heads no clause reaches nothing.

    Returns the clear heads in post-order, which puts every head after
    the heads in its body, and the frozenset of cyclic heads: the atoms
    from which a cycle can be reached.
    """
    order, cyclic, mark = [], [], {}
    for root, body in deps.items():
        if root in mark:
            continue
        mark[root] = _OPEN
        stack = [(root, iter(body))]
        while stack:
            a, body = stack[-1]
            if mark[a] == _OPEN:
                for b in body:
                    m = mark.get(b)
                    if m is None:
                        sub = deps.get(b)
                        if sub is not None:
                            mark[b] = _OPEN
                            stack.append((b, iter(sub)))
                            break
                    elif m != _CLEAR:
                        mark[a] = _CYCLIC
                        break
                else:
                    stack.pop()
                    mark[a] = _CLEAR
                    order.append(a)
                continue
            stack.pop()
            cyclic.append(a)
            if stack:
                mark[stack[-1][0]] = _CYCLIC
    return tuple(order), frozenset(cyclic)


# ---------------------------------------------------------------------------
# Compiled form of an acyclic program


class AcyclicPlan:
    """An acyclic ground program compiled for evaluation, from its clauses.

    ``by_head`` maps each head to its clauses, as
    ``MultiAgentSystem.rules`` does.  ``sequence`` lists the heads in
    ``_peel`` order, every head after the heads it depends on.  ``heads``
    is the set of atoms that facts may not be: the program's heads, or
    the ``heads`` passed in, which for a program that keeps only the live
    clauses of a larger one are the larger one's.  ``users[a]`` holds the
    positions in ``sequence`` of the heads whose clauses mention atom
    ``a``; an atom no clause mentions has no entry.

    Raises CyclicProgramError when the atom dependency graph has a cycle.
    """

    __slots__ = ("by_head", "sequence", "heads", "users")

    def __init__(self, clauses: Iterable[tuple], heads: frozenset = None):
        by_head, deps = {}, {}
        for c in clauses:
            head, pos, neg = c
            body = deps.get(head)
            if body is None:
                body = deps[head] = set()
                by_head[head] = [c]
            else:
                by_head[head].append(c)
            body.update(pos)
            body.update(neg)
        sequence, cyclic = _peel(deps)
        if cyclic:
            raise CyclicProgramError("cycle through " + ", ".join(map(str, sorted(cyclic)[:3])))

        users = {}
        for k, h in enumerate(sequence):
            for b in deps[h]:
                users.setdefault(b, []).append(k)
        self.by_head = by_head
        self.sequence = sequence
        self.heads = frozenset(sequence) if heads is None else heads
        self.users = users

    def model(self, facts: Interpretation = frozenset()) -> Interpretation:
        """The unique stable model of the program extended with ``facts``,
        in one pass.

        ``facts`` are extra atoms taken as unconditionally true (sensed or
        received inputs); none of them may head a clause.
        """
        clash = facts & self.heads
        if clash:
            raise ValueError(f"fact atoms may not head clauses: {sorted(clash)[:3]}")
        return frozenset(_derive(set(facts), self.sequence, self.by_head))

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

        by_head, sequence, users = self.by_head, self.sequence, self.users
        flipped = {}  # atom -> truth after the update, for atoms that changed
        queued = set()  # plan positions of the heads to re-derive
        for changed, value in ((gained, True), (lost, False)):
            for a in changed:
                flipped[a] = value
                queued.update(users.get(a, ()))
        queue = sorted(queued)  # a sorted list is a heap

        while queue:
            h = sequence[heappop(queue)]
            now = False
            for _, pos, neg in by_head[h]:
                for b in pos:
                    t = flipped.get(b)
                    if not (b in model if t is None else t):
                        break
                else:
                    for b in neg:
                        t = flipped.get(b)
                        if b in model if t is None else t:
                            break
                    else:
                        now = True
                        break
            if now != (h in model):
                flipped[h] = now
                (gained if now else lost).append(h)
                for k in users.get(h, ()):
                    if k not in queued:
                        queued.add(k)
                        heappush(queue, k)
        return gained, lost


def _derive(true: set, order, rules: dict) -> set:
    """Add to ``true`` each head of ``order`` for which some clause in
    ``rules[head]`` fires, in that order, and return it.  When every head
    comes after the heads in its clauses' bodies and no atom of ``true``
    heads a clause, ``true`` ends as the unique stable model of the
    clauses with its atoms as facts."""
    for h in order:
        for _, pos, neg in rules[h]:
            if true.issuperset(pos) and true.isdisjoint(neg):
                true.add(h)
                break
    return true


# ---------------------------------------------------------------------------
# Text form, written only: one clause per line, `head :- lit1, not lit2.`


def format_atom(a: Atom) -> str:
    if not a.args:
        return a.predicate
    return f"{a.predicate}({','.join(str(v) for v in a.args)})"


def format_clause(c: tuple) -> str:
    """``head :- b1, not b2.``: body items in atom order, a positive atom
    before its own negation."""
    head, pos, neg = c
    if not (pos or neg):
        return f"{format_atom(head)}."
    items = [(b.sort_key(), 0, format_atom(b)) for b in pos]
    items += [(b.sort_key(), 1, f"not {format_atom(b)}") for b in neg]
    body = ", ".join(text for _, _, text in sorted(items))
    return f"{format_atom(head)} :- {body}."
