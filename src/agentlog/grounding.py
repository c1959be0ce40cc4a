"""Instantiation of schematic clauses into ground programs.

A schematic clause has the shape of a ground clause, a head and its
positive (``pos``) and negated (``neg``) body atoms, plus ``Constraint``s
``left op right`` with ``op`` one of ``<``, ``=`` and ``!=``.  Its atoms
may mention typed variables (node constants, or naturals bounded by
``distance_max``) and ``VAR+k`` arithmetic in terms.  Constraints are
resolved entirely at grounding time: ground clauses never carry them.
Instantiations producing an integer outside ``0..distance_max`` are
silently dropped; on a bounded universe such ground atoms simply do not
exist.

Each clause compiles once per shape into a nested loop with one level per
variable; a pattern is a clause with a head only.

* Shapes.  A clause's shape is the clause with its ``i``-th distinct node
  constant (head, then ``pos``, ``neg`` and constraints, left to right)
  replaced by a slot, ``_Constant(i)``, so clauses that differ only in
  the nodes they name, as a ring's routers do, have one shape, and the
  ground atoms read from a scenario or an events file leave one form per
  predicate and pattern of repeated nodes, not one per atom.  The
  compiled form of a shape depends on it and on the domain's node
  constants, variable types and symmetric predicates, never on the
  bound.  ``_Enumeration._table`` interns the compiled forms, one
  process-wide table as ``Atom._table`` is: per domain, its node-rank
  map (each node constant's declared position) and its compiled forms by
  shape.  ``ground_stream``, and through it ``expand_pattern``,
  ``parse_ground_atom`` and every agent and bound of
  ``Scenario.systems`` and ``shapes``, compiles only a shape the table
  lacks.
* Per stream.  The bound enters only here.  Each stream copies the
  compiled value array and puts the clause's node constants in their
  slots, computes each integer variable's range and its floor cuts, and
  passes nothing when an integer constant of the clause lies outside
  ``0..dmax``: at that bound alone, the clause has no instance.  A
  compiled form keeps no mutable state of its own, so streams of one
  form, at any bounds and in any interleaving, write nothing another
  reads but the atom tables, which only grow.
* No lock.  Both levels of the table grow only through ``dict.setdefault``
  on keys built of tuples, strings, integers and frozensets, whose hashes
  and comparisons run no Python code, so each insertion is atomic.  Two
  threads that miss on one shape both compile it, and the first form
  stored is kept; the two are equal and never written, so either serves.

The loop binds, narrows, checks and instantiates as early as it can:

* Order.  A variable bounded by ``V = t`` or ``V < t`` is bound after the
  variables of ``t``.  Otherwise the next variable is the one that
  completes the most atoms and constraints, then a node variable before
  an integer one, then the integer one with the larger ``shift + lo``,
  then the smaller name.  ``spl(A1,Y,D+1) :- link(A1,X), sp(X,Y,D2),
  D2 < D`` binds X, Y, D, D2.  The rule reads no bound.  Where every
  integer range is wider than the node domain, as on the builtins at
  their own bounds, it is the order of the smaller range first; at
  smaller bounds it changes the work, not the output.
* Narrowing.  The largest ``V+k`` anywhere in the clause, ``shift``,
  caps an integer variable at ``dmax - shift``, and the most negative
  one, ``V+(-lo)``, raises its least value to ``lo``, so no term can
  leave ``0..dmax``; a constant outside that range leaves the clause
  without instances.  ``V < t`` gives ``V`` the range below the value of
  ``t``, and ``V = t`` that one value.
* Checks.  Every other constraint is checked, and every atom
  instantiated, at the first level where all its variables are bound.  A
  failed check skips the whole subtree.
* Atoms.  Each compiled atom holds its predicate's intern table,
  ``Atom._table[predicate]``, and finds each instance by its argument
  tuple with one ``dict.get``, calling ``Atom`` only on a miss.  So an
  atom below a level whose variable it does not mention, as
  ``sp(X,Y,D2)`` below ``D``, costs one lookup each time it meets the
  same arguments again.

The order changes the work, not the output: the ground clauses, and so
the program universes, are those of enumerating the full product of the
variable domains and filtering it.  The tests keep that grounder as the
reference.  A compiled clause hands each instance's head and body atoms
to a callback (``ground_stream``); ``ground_program`` collects them
into ``(head, pos, neg)`` tuples.

A floor grounds one bound on top of a lower one.  With ``floor`` ``f``
below ``dmax``, only the bindings that ``f`` does not have are passed:
those in which some integer variable ``V`` is above ``f - m_V``, where
``m_V`` is the largest ``k`` of a ``V+k`` in the clause, or 0.  They are
enumerated as a disjoint partition on the first such variable in binding
order: the integer variables bound before it range up to their cut, it
ranges above its own, and the later ones range in full.  A clause with an
integer constant above ``f`` has no instance at ``f`` and passes all of
its bindings.  This is sound because a binding's terms are the same
values at both bounds, and every op of ``_OPS`` is decided by those
values alone, so each binding at ``f`` passes the constraints at ``dmax``
too and the bindings at ``f`` are exactly those at ``dmax`` with every
``V`` at most ``f - m_V``.  A variable that only a constraint mentions
can make a binding above the floor yield a clause the floor has, so what
a floor passes, united with the grounding at ``f``, is the grounding at
``dmax``; it is not their difference.  Every sink deduplicates.

Predicates listed in ``DomainSpec.symmetric`` have their two node
arguments put in canonical (declared) order before the table lookup, so
both orientations of an undirected edge denote the same atom.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, NamedTuple

from .logic import Atom, GroundProgram

__all__ = [
    "GroundingError",
    "DomainSpec",
    "Var",
    "Shift",
    "SchematicAtom",
    "Constraint",
    "SchematicClause",
    "Pattern",
    "ground_program",
    "ground_stream",
    "expand_pattern",
]


class GroundingError(ValueError):
    pass


class _DomainFields(NamedTuple):
    node_constants: tuple = ()
    distance_max: int = 0
    node_vars: frozenset = frozenset()
    int_vars: frozenset = frozenset()
    symmetric: frozenset = frozenset()


class DomainSpec(_DomainFields):
    """Typed ground domains for a scenario.

    ``node_constants`` keeps declaration order; canonical order of
    symmetric-predicate arguments follows it.  Construction checks the
    bound, then the variables' types, then their names.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.distance_max < 0:
            raise GroundingError("distance_max must be >= 0")
        if self.node_vars & self.int_vars:
            both = ", ".join(sorted(self.node_vars & self.int_vars))
            raise GroundingError(f"variables declared with two types: {both}")
        named = (self.node_vars | self.int_vars).intersection(self.node_constants)
        if named:
            both = ", ".join(sorted(named))
            raise GroundingError(f"names declared both as nodes and as variables: {both}")
        return self

    @classmethod
    def _make(cls, fields) -> "DomainSpec":
        """By the constructor, so that ``_replace`` checks too:
        ``dom._replace(distance_max=d)`` refuses a negative ``d``."""
        return cls(*fields)

    def var_domain(self, name: str):
        if name in self.node_vars:
            return self.node_constants
        if name in self.int_vars:
            return range(self.distance_max + 1)
        raise GroundingError(f"variable {name} has no declared type")


class Var(NamedTuple):
    name: str

    def __str__(self):
        return self.name


class Shift(NamedTuple):
    """``name + offset`` over the bounded integer domain."""

    name: str
    offset: int

    def __str__(self):
        return f"{self.name}+{self.offset}"


def _term_vars(term):
    if isinstance(term, (Var, Shift)):
        yield term.name


def _integer_typed(term, dom: DomainSpec) -> bool:
    """Whether a parsed term ranges over integers rather than nodes."""
    return isinstance(term, (int, Shift)) or (isinstance(term, Var) and term.name in dom.int_vars)


class SchematicAtom(NamedTuple):
    predicate: str
    args: tuple = ()

    def variables(self):
        for t in self.args:
            yield from _term_vars(t)

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.args)})"


class Constraint(NamedTuple):
    """``left op right``, where ``op`` is ``<``, ``=`` or ``!=``."""

    op: str
    left: object
    right: object

    def variables(self):
        yield from _term_vars(self.left)
        yield from _term_vars(self.right)

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


class SchematicClause(NamedTuple):
    """``head :- pos, not neg, constraints``, as a ground clause plus
    the constraints that select its instances."""

    head: SchematicAtom
    pos: tuple = ()
    neg: tuple = ()
    constraints: tuple = ()

    def variables(self) -> frozenset:
        parts = (self.head, *self.pos, *self.neg, *self.constraints)
        return frozenset(n for part in parts for n in part.variables())

    def __str__(self):
        items = [*map(str, self.pos), *(f"not {a}" for a in self.neg), *map(str, self.constraints)]
        if not items:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(items)}."


class Pattern(NamedTuple):
    """A schematic atom plus constraints; expands to a set of ground atoms."""

    atom: SchematicAtom
    constraints: tuple = ()

    def __str__(self):
        if not self.constraints:
            return str(self.atom)
        return f"{self.atom} where {', '.join(str(c) for c in self.constraints)}"


_OPS = {"<": operator.lt, "=": operator.eq, "!=": operator.ne}


def _narrowed(k: Constraint, dom: DomainSpec):
    """``(variable, operator, term)`` when constraint ``k`` can cut the
    range of a plain variable: ``V = t`` or ``t = V`` to the value of
    ``t``, and ``V < t`` over integers to the values below it.  ``t`` must
    not mention ``V``.  Otherwise None."""
    sides = {"=": ((k.left, k.right), (k.right, k.left)), "<": ((k.left, k.right),)}
    for mine, other in sides.get(k.op, ()):
        if not isinstance(mine, Var) or mine.name in _term_vars(other):
            continue
        if k.op == "=" or (mine.name in dom.int_vars and _integer_typed(other, dom)):
            return mine.name, _OPS[k.op], other
    return None


def _tuple_getter(slots):
    """The function that reads the values at ``slots`` as one tuple."""
    if len(slots) == 1:
        (s,) = slots
        return lambda values: (values[s],)
    if not slots:
        return lambda values: ()
    return operator.itemgetter(*slots)


class _Constant(NamedTuple):
    """The slot of a shape that holds its ``index``-th distinct node constant."""

    index: int


def _shape(c: SchematicClause) -> tuple:
    """``(shape, constants)``: ``c`` with its ``i``-th distinct node
    constant, in the order of its atoms' arguments and then its
    constraints' sides, replaced by ``_Constant(i)``, and those constants.
    A clause that names no node constant is its own shape."""
    seen = {}
    for a in (c.head, *c.pos, *c.neg):
        for t in a.args:
            if type(t) is str:
                seen.setdefault(t, len(seen))
    for k in c.constraints:
        for t in (k.left, k.right):
            if type(t) is str:
                seen.setdefault(t, len(seen))
    if not seen:
        return c, ()
    term = {t: _Constant(i) for t, i in seen.items()}.get

    def atom(a: SchematicAtom) -> SchematicAtom:
        return SchematicAtom(a.predicate, tuple(map(term, a.args, a.args)))

    head, pos, neg = atom(c.head), tuple(map(atom, c.pos)), tuple(map(atom, c.neg))
    constraints = tuple(Constraint(k.op, term(k.left, k.left), term(k.right, k.right))
                        for k in c.constraints)
    return SchematicClause(head, pos, neg, constraints), tuple(seen)


class _Enumeration:
    """One clause shape compiled to one nested loop per variable, for
    every bound of one domain.

    Every term reads a slot of one value array: a slot per variable, per
    ``VAR+k`` shift and per constant, and one per ground atom.  Level 0
    binds nothing and holds what mentions no variable; level ``i`` binds
    the ``i``-th variable of the order, fills its shift slots, checks the
    constraints whose variables are then all bound and instantiates the
    atoms whose variables are then all bound.  The innermost level passes
    the instance to a sink.  A node variable ranges over the domain's
    node constants.  An integer variable's level holds no values:
    ``spans`` lists its level, ``lo`` and largest shift, from which each
    stream computes its range and its floor cut.  ``env`` is the value
    array with the integer constants filled in, which each stream copies
    and completes with the node constants at ``fill``.  ``rank`` is the
    domain's node-rank map, made once with its table entry.
    """

    # (node constants, node variables, integer variables, symmetric
    # predicates) -> (node rank, {shape: compiled form})
    _table: dict = {}

    def __init__(self, shape: SchematicClause, dom: DomainSpec, rank: dict):
        names = sorted(shape.variables())
        atoms = [shape.head, *shape.pos, *shape.neg]
        terms = [t for a in atoms for t in a.args]
        terms += [t for k in shape.constraints for t in (k.left, k.right)]
        integers = [t for t in terms if type(t) is int]
        self.low, self.top = min(integers, default=0), max(integers, default=-1)
        span = {}
        for n in names:
            if n not in dom.int_vars:
                dom.var_domain(n)  # a node variable, or GroundingError
                continue
            # A ``V+k`` outside 0..dmax fails the assignment: the range of
            # ``V`` starts at ``lo`` and ends ``shift`` below the bound.
            offsets = [t.offset for t in terms if isinstance(t, Shift) and t.name == n]
            span[n] = (max([0] + [-k for k in offsets]), max([0] + offsets))
        order = _binding_order(names, span, atoms, shape.constraints, dom)

        # Variable ``order[i]`` is bound at level ``i + 1`` into slot ``i + 1``.
        position = {n: i + 1 for i, n in enumerate(order)}
        slot = {None: 0}
        slot.update((Var(n), i) for n, i in position.items())
        for t in terms:
            slot.setdefault(t, len(slot))
        atom_slot = len(slot)
        env = [None] * (atom_slot + len(atoms))
        for t, s in slot.items():
            if type(t) is int:
                env[s] = t

        def level_of(variables) -> int:
            return max((position[n] for n in variables), default=0)

        # slot, values, narrowing, shifts, checks, atoms
        levels = [[0, (None,), None, [], [], []]]
        levels += [[position[n], None if n in span else dom.node_constants, None, [], [], []]
                   for n in order]
        for t, s in slot.items():
            if isinstance(t, Shift):
                levels[level_of([t.name])][3].append((s, t.offset))
        for k in shape.constraints:
            i = level_of(k.variables())
            narrowed = _narrowed(k, dom)
            if narrowed is not None and narrowed[0] == order[i - 1] and levels[i][2] is None:
                levels[i][2] = (narrowed[1], slot[narrowed[2]])
            else:
                levels[i][4].append((_OPS[k.op], slot[k.left], slot[k.right]))
        for j, sa in enumerate(atoms):
            args = _tuple_getter([slot[t] for t in sa.args])
            if sa.predicate in dom.symmetric and len(sa.args) == 2:
                args = _in_node_order(args, rank)
            table = Atom._table.setdefault(sa.predicate, {})
            levels[level_of(sa.variables())][5].append((atom_slot + j, sa.predicate, table, args))
        self.levels = tuple(map(tuple, levels))
        self.spans = tuple((i, *span[n]) for i, n in enumerate(order, 1) if n in span)
        self.env = tuple(env)
        # ``_shape`` numbers the node constants in the order of ``terms``,
        # so their slots come in that order.
        self.fill = tuple(s for t, s in slot.items() if type(t) is _Constant)
        self.head = atom_slot

        def body_getter(js):
            # Atoms of distinct predicates or arities sort by those alone, so
            # such a sign's atoms can be read off in a fixed order; the
            # others are deduplicated and sorted per instance.
            js = sorted(js, key=lambda j: (atoms[j].predicate, len(atoms[j].args)))
            get = _tuple_getter([atom_slot + j for j in js])
            if len({(atoms[j].predicate, len(atoms[j].args)) for j in js}) == len(js):
                return get
            return lambda env: tuple(sorted(set(get(env)), key=Atom.sort_key))

        split = 1 + len(shape.pos)
        self.pos = body_getter(range(1, split))
        self.neg = body_getter(range(split, len(atoms)))

    def stream(self, constants: tuple, dmax: int, sink, floor=None):
        """Pass every ground instance of the clause with node constants
        ``constants`` at the bound ``dmax`` to ``sink``, or with a
        ``floor`` the instances of the bindings above it, as
        ``ground_stream``."""
        # An integer constant outside 0..dmax fails every assignment.
        if self.low < 0 or self.top > dmax:
            return
        levels = list(self.levels)
        for i, lo, shift in self.spans:
            levels[i] = (levels[i][0], range(lo, max(lo, dmax - shift + 1)), *levels[i][2:])
        env = list(self.env)
        for s, v in zip(self.fill, constants):
            env[s] = v
        # Below its largest integer constant the clause has no instance,
        # so a floor there passes every binding.
        if floor is None or self.top > floor:
            self._descend(levels, 0, env, sink)
            return
        for j, (i, _, shift) in enumerate(self.spans):
            cut = list(levels)
            for h, _, m in self.spans[:j]:
                cut[h] = _ranged(cut[h], stop=floor - m + 1)
            cut[i] = _ranged(cut[i], start=floor - shift + 1)
            self._descend(cut, 0, env, sink)

    def _descend(self, levels, i: int, env: list, sink):
        var_slot, values, narrowing, shifts, checks, atoms = levels[i]
        if narrowing is not None:
            op, s = narrowing
            if op is operator.eq:
                values = (env[s],) if env[s] in values else ()
            else:
                values = range(values.start, min(values.stop, env[s]))
        # The innermost level runs its own copy of the loop, so that no
        # value pays for the test or the sink's lookups: most values are
        # bound there.
        if i + 1 < len(levels):
            for v in values:
                env[var_slot] = v
                if shifts:
                    for s, k in shifts:
                        env[s] = v + k
                if checks and not _passes(checks, env):
                    continue
                for s, predicate, table, args in atoms:
                    ga = args(env)
                    env[s] = table.get(ga) or Atom(predicate, ga)
                self._descend(levels, i + 1, env, sink)
            return
        h, pos, neg = self.head, self.pos, self.neg
        for v in values:
            env[var_slot] = v
            if shifts:
                for s, k in shifts:
                    env[s] = v + k
            if checks and not _passes(checks, env):
                continue
            for s, predicate, table, args in atoms:
                ga = args(env)
                env[s] = table.get(ga) or Atom(predicate, ga)
            sink(env[h], pos(env), neg(env))


def _passes(checks, env) -> bool:
    """Whether every ``(op, a, b)`` of ``checks`` holds on ``env``."""
    for op, a, b in checks:
        if not op(env[a], env[b]):
            return False
    return True


def _in_node_order(get, rank: dict):
    """``get`` with the two arguments it reads put in declared node
    order, for a symmetric predicate."""

    def canonical(env) -> tuple:
        pair = get(env)
        x, y = pair
        ix = rank.get(x)
        iy = rank.get(y)
        if ix is not None and iy is not None and iy < ix:
            return (y, x)
        return pair

    return canonical


def _ranged(level: tuple, start=None, stop=None) -> tuple:
    """An integer level with its values cut to those from ``start`` and
    below ``stop``."""
    values = level[1]
    start = values.start if start is None else max(values.start, start)
    stop = values.stop if stop is None else min(values.stop, stop)
    return (level[0], range(start, stop), *level[2:])


def _binding_order(names, span, atoms, constraints, dom) -> list:
    """The variables in the order the enumeration binds them, whatever
    the bound; ``span`` maps each integer variable to its ``lo`` and its
    largest shift.

    A variable that a constraint can narrow (``V = t``, ``V < t``) follows
    the variables of ``t``.  Among the rest, the next one completes the
    most atoms and constraints, then is a node variable rather than an
    integer one, then has the larger ``shift + lo``, then the smaller
    name.
    """
    groups = [set(sa.variables()) for sa in atoms]
    groups += [set(k.variables()) for k in constraints]
    after = {n: set() for n in names}
    for k in constraints:
        narrowed = _narrowed(k, dom)
        if narrowed is not None:
            after[narrowed[0]].update(_term_vars(narrowed[2]))
    order, bound = [], set()

    def rank(n):
        completes = sum(1 for g in groups if n in g and g - bound == {n})
        return (-completes, n in span, -sum(span.get(n, ())), n)

    while len(order) < len(names):
        free = [n for n in names if n not in bound]
        pick = min([n for n in free if after[n] <= bound] or free, key=rank)
        order.append(pick)
        bound.add(pick)
    return order


def _ground(clauses: Iterable[SchematicClause], dom: DomainSpec) -> set:
    out = set()
    add = out.add
    ground_stream(clauses, dom, lambda head, pos, neg: add((head, pos, neg)))
    return out


def ground_program(
    clauses: Iterable[SchematicClause],
    dom: DomainSpec,
    extra_atoms: Iterable[Atom] = (),
) -> GroundProgram:
    """Union of all instantiations, with declared extra atoms in the universe."""
    return GroundProgram.of(_ground(clauses, dom), extra_atoms)


def ground_stream(clauses: Iterable[SchematicClause], dom: DomainSpec, sink, floor=None) -> None:
    """Call ``sink(head, pos, neg)`` for each ground instance of
    ``clauses`` over ``dom``: ``pos`` and ``neg`` are the tuples of the
    positive and negated body atoms, each deduplicated and in
    ``Atom.sort_key`` order, as in a ground clause.  An instance that
    several clauses or bindings yield is passed once for each.  With a
    ``floor`` below ``dom``'s bound, only the bindings above it are
    passed: with the instances at ``floor``, they make up the instances
    over ``dom``.  Each clause's shape is compiled only when
    ``_Enumeration._table`` lacks it."""
    key = (dom.node_constants, dom.node_vars, dom.int_vars, dom.symmetric)
    entry = _Enumeration._table.get(key)
    if entry is None:
        rank = {n: i for i, n in enumerate(dom.node_constants)}
        entry = _Enumeration._table.setdefault(key, (rank, {}))
    rank, compiled = entry
    dmax = dom.distance_max
    for c in clauses:
        shape, constants = _shape(c)
        form = compiled.get(shape)
        if form is None:
            form = compiled.setdefault(shape, _Enumeration(shape, dom, rank))
        form.stream(constants, dmax, sink, floor)


def expand_pattern(patterns: Iterable[Pattern], dom: DomainSpec, floor=None) -> frozenset:
    """The ground atoms that ``patterns`` match, by one ``ground_stream``
    call, as for an agent's HBE, HIN, EDB or IN listing; or with a
    ``floor``, those of the bindings above it, as ``ground_stream``."""
    atoms = set()
    add = atoms.add
    clauses = (SchematicClause(p.atom, constraints=p.constraints) for p in patterns)
    ground_stream(clauses, dom, lambda h, pos, neg: add(h), floor)
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# Text form for schematic clauses and patterns

_NAME_RE = re.compile(r"[A-Za-z_]\w*$")
_SHIFT_RE = re.compile(r"([A-Za-z_]\w*)\s*\+\s*(\d+)$")
_INT_RE = re.compile(r"-?\d+$")
_SATOM_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\(\s*([^()]*?)\s*\))?$")
_CONSTRAINT_RE = re.compile(r"(.+?)(!=|<|=)(.+)$")


def parse_term(text: str, dom: DomainSpec):
    text = text.strip()
    if _INT_RE.match(text):
        return int(text)
    m = _SHIFT_RE.match(text)
    if m:
        name, off = m.group(1), int(m.group(2))
        dom.var_domain(name)  # must be declared (and integer-typed)
        if name not in dom.int_vars:
            raise GroundingError(f"arithmetic on non-integer variable {name}")
        return Shift(name, off)
    if not _NAME_RE.match(text):
        raise GroundingError(f"malformed term: {text!r}")
    if text in dom.node_constants:
        return text
    if text in dom.node_vars or text in dom.int_vars:
        return Var(text)
    raise GroundingError(f"undeclared symbol: {text!r}")


def parse_schematic_atom(text: str, dom: DomainSpec) -> SchematicAtom:
    m = _SATOM_RE.match(text.strip())
    if not m:
        raise GroundingError(f"malformed atom: {text!r}")
    name, arglist = m.groups()
    if arglist is None:
        return SchematicAtom(name)
    args = tuple(parse_term(t, dom) for t in arglist.split(","))
    return SchematicAtom(name, args)


def parse_constraint(text: str, dom: DomainSpec):
    m = _CONSTRAINT_RE.match(text.strip())
    if not m:
        raise GroundingError(f"malformed constraint: {text!r}")
    left, op, right = m.groups()
    lt, rt = parse_term(left, dom), parse_term(right, dom)
    if op == "<" and _integer_typed(lt, dom) != _integer_typed(rt, dom):
        raise GroundingError(f"'<' between an integer and a node: {text.strip()!r}")
    return Constraint(op, lt, rt)


def _is_constraint(item: str) -> bool:
    return bool(re.search(r"!=|<|=", item))


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


def parse_schematic_clause(text: str, dom: DomainSpec) -> SchematicClause:
    text = text.strip()
    if not text.endswith("."):
        raise GroundingError(f"clause must end with '.': {text!r}")
    text = text[:-1]
    if ":-" not in text:
        return SchematicClause(parse_schematic_atom(text, dom))
    head_text, body_text = text.split(":-", 1)
    pos, neg, constraints = [], [], []
    for item in split_top_level(body_text):
        item = item.strip()
        if _is_constraint(item):
            constraints.append(parse_constraint(item, dom))
        elif item.startswith("not ") or item.startswith("not("):
            neg.append(parse_schematic_atom(item[3:].strip(), dom))
        else:
            pos.append(parse_schematic_atom(item, dom))
    head = parse_schematic_atom(head_text, dom)
    return SchematicClause(head, tuple(pos), tuple(neg), tuple(constraints))


def parse_pattern(text: str, dom: DomainSpec) -> Pattern:
    text = text.strip()
    if " where " in text:
        atom_text, cons_text = text.split(" where ", 1)
        constraints = tuple(parse_constraint(c, dom) for c in cons_text.split(","))
        return Pattern(parse_schematic_atom(atom_text, dom), constraints)
    return Pattern(parse_schematic_atom(text, dom))


def parse_ground_atom(text: str, dom: DomainSpec) -> Atom:
    """The atom ``text`` names over ``dom``, symmetric arguments in
    declared order, for script, ``@round`` and events-file atoms; before
    any atom is made, GroundingError for an undeclared symbol, a variable
    or an integer outside ``0..distance_max``."""
    sa = parse_schematic_atom(text, dom)
    if set(sa.variables()):
        raise GroundingError(f"atom must be ground: {text!r}")
    atoms = expand_pattern([Pattern(sa)], dom)
    if not atoms:
        raise GroundingError(f"integer argument out of range in {text!r}")
    (a,) = atoms
    return a
