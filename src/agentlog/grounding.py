"""Instantiation of schematic clauses into ground programs.

A schematic clause may mention typed variables (node constants, or
naturals bounded by ``distance_max``), ``VAR+k`` arithmetic in terms, and
comparison constraints that are resolved entirely at grounding time:
ground clauses never carry constraints.  Instantiations producing an
integer outside ``0..distance_max`` are silently dropped; on a bounded
universe such ground atoms simply do not exist.

Predicates listed in ``DomainSpec.symmetric`` have their two node
arguments put in canonical (declared) order, so both orientations of an
undirected edge denote the same atom.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable

from .logic import Atom, Clause, GroundProgram, Literal, split_top_level

__all__ = [
    "GroundingError",
    "DomainSpec",
    "Var",
    "Shift",
    "SchematicAtom",
    "SchematicLiteral",
    "Less",
    "Equal",
    "NotEqual",
    "SchematicClause",
    "Pattern",
    "ground_clause",
    "ground_program",
    "expand_pattern",
]


class GroundingError(ValueError):
    pass


@dataclass(frozen=True)
class DomainSpec:
    """Typed ground domains for a scenario.

    ``node_constants`` keeps declaration order; canonical order of
    symmetric-predicate arguments follows it.
    """

    node_constants: tuple = ()
    distance_max: int = 0
    node_vars: frozenset = frozenset()
    int_vars: frozenset = frozenset()
    symmetric: frozenset = frozenset()

    def __post_init__(self):
        if self.distance_max < 0:
            raise GroundingError("distance_max must be >= 0")
        if self.node_vars & self.int_vars:
            both = ", ".join(sorted(self.node_vars & self.int_vars))
            raise GroundingError(f"variables declared with two types: {both}")

    def var_domain(self, name: str):
        if name in self.node_vars:
            return self.node_constants
        if name in self.int_vars:
            return range(self.distance_max + 1)
        raise GroundingError(f"variable {name} has no declared type")



@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Shift:
    """``name + offset`` over the bounded integer domain."""

    name: str
    offset: int

    def __str__(self):
        return f"{self.name}+{self.offset}"


def _term_vars(term):
    if isinstance(term, (Var, Shift)):
        yield term.name


@dataclass(frozen=True)
class SchematicAtom:
    predicate: str
    args: tuple = ()

    def variables(self):
        for t in self.args:
            yield from _term_vars(t)

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.args)})"


@dataclass(frozen=True)
class SchematicLiteral:
    atom: SchematicAtom
    positive: bool = True

    def __str__(self):
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True)
class Less:
    left: object
    right: object

    def __str__(self):
        return f"{self.left} < {self.right}"


@dataclass(frozen=True)
class Equal:
    left: object
    right: object

    def __str__(self):
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class NotEqual:
    left: object
    right: object

    def __str__(self):
        return f"{self.left} != {self.right}"


def _constraint_vars(c):
    yield from _term_vars(c.left)
    yield from _term_vars(c.right)


@dataclass(frozen=True)
class SchematicClause:
    head: SchematicAtom
    body: tuple = ()
    constraints: tuple = ()

    def variables(self) -> frozenset:
        names = set(self.head.variables())
        for lit in self.body:
            names.update(lit.atom.variables())
        for c in self.constraints:
            names.update(_constraint_vars(c))
        return frozenset(names)

    def __str__(self):
        items = [str(l) for l in self.body] + [str(c) for c in self.constraints]
        if not items:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(items)}."


@dataclass(frozen=True)
class Pattern:
    """A schematic atom plus constraints; expands to a set of ground atoms."""

    atom: SchematicAtom
    constraints: tuple = ()

    def __str__(self):
        if not self.constraints:
            return str(self.atom)
        return f"{self.atom} where {', '.join(str(c) for c in self.constraints)}"


class _Instantiator:
    """Precompiled enumeration of one schematic clause or pattern.

    Terms compile to ``(kind, payload, offset)`` triples: a constant, an
    index into the variable-assignment tuple, or an indexed variable plus
    offset.  The assignment loop then avoids per-term dispatch and reuses
    ground atoms across instantiations.
    """

    CONST, VAR, SHIFT = 0, 1, 2

    def __init__(self, names, constraints, dom: DomainSpec):
        self.names = sorted(names)
        self.domains = [dom.var_domain(n) for n in self.names]
        self.pos = {n: i for i, n in enumerate(self.names)}
        self.dmax = dom.distance_max
        self.node_order = {n: i for i, n in enumerate(dom.node_constants)}
        self.symmetric = dom.symmetric
        self.constraints = [self._compile_constraint(c) for c in constraints]
        self.atom_cache: dict = {}

    def _compile_term(self, t):
        if isinstance(t, Var):
            return (self.VAR, self.pos[t.name], 0)
        if isinstance(t, Shift):
            return (self.SHIFT, self.pos[t.name], t.offset)
        return (self.CONST, t, 0)

    def compile_atom(self, sa: SchematicAtom):
        symmetric = sa.predicate in self.symmetric and len(sa.args) == 2
        return (sa.predicate, tuple(self._compile_term(t) for t in sa.args), symmetric)

    def _compile_constraint(self, c):
        if isinstance(c, Less):
            op = lambda a, b: a < b
        elif isinstance(c, Equal):
            op = lambda a, b: a == b
        else:
            op = lambda a, b: a != b
        return (op, self._compile_term(c.left), self._compile_term(c.right))

    def _value(self, term, combo):
        kind, payload, offset = term
        if kind == self.CONST:
            return payload
        v = combo[payload]
        if kind == self.SHIFT:
            v += offset
        return v

    def admissible(self, combo) -> bool:
        """Constraints hold and no constraint term leaves the int domain."""
        for op, left, right in self.constraints:
            a = self._value(left, combo)
            b = self._value(right, combo)
            if type(a) is int and not 0 <= a <= self.dmax:
                return False
            if type(b) is int and not 0 <= b <= self.dmax:
                return False
            if not op(a, b):
                return False
        return True

    def instantiate(self, compiled_atom, combo):
        """Ground atom, or None when an integer argument leaves the domain."""
        predicate, terms, symmetric = compiled_atom
        values = []
        for kind, payload, offset in terms:
            if kind == self.CONST:
                v = payload
            else:
                v = combo[payload]
                if kind == self.SHIFT:
                    v += offset
            if type(v) is int and not 0 <= v <= self.dmax:
                return None
            values.append(v)
        if symmetric:
            x, y = values
            ix = self.node_order.get(x)
            iy = self.node_order.get(y)
            if ix is not None and iy is not None and iy < ix:
                values = [y, x]
        key = (predicate, tuple(values))
        cached = self.atom_cache.get(key)
        if cached is None:
            cached = Atom(predicate, key[1])
            self.atom_cache[key] = cached
        return cached

    def assignments(self):
        return itertools.product(*self.domains)


def ground_clause(c: SchematicClause, dom: DomainSpec) -> frozenset:
    """All ground instances of ``c`` over ``dom``.

    Every variable ranges over its full declared domain; constraints
    filter assignments and never survive into ground clauses.
    """
    inst = _Instantiator(c.variables(), c.constraints, dom)
    chead = inst.compile_atom(c.head)
    cbody = [(inst.compile_atom(l.atom), l.positive) for l in c.body]
    literal_cache: dict = {}
    out = set()
    for combo in inst.assignments():
        if inst.constraints and not inst.admissible(combo):
            continue
        head = inst.instantiate(chead, combo)
        if head is None:
            continue
        body = []
        for compiled_atom, positive in cbody:
            ga = inst.instantiate(compiled_atom, combo)
            if ga is None:
                break
            lit = literal_cache.get((ga, positive))
            if lit is None:
                lit = Literal(ga, positive)
                literal_cache[(ga, positive)] = lit
            body.append(lit)
        else:
            out.add(Clause(head, tuple(body)))
    return frozenset(out)


def ground_program(
    clauses: Iterable[SchematicClause],
    dom: DomainSpec,
    extra_atoms: Iterable[Atom] = (),
) -> GroundProgram:
    """Union of all instantiations, with declared extra atoms in the universe."""
    ground = set()
    for c in clauses:
        ground |= ground_clause(c, dom)
    return GroundProgram.of(ground, extra_atoms)


def expand_pattern(p: Pattern, dom: DomainSpec) -> frozenset:
    """The ground atoms matched by a pattern (used for HBE/HIN/EDB sets)."""
    names = set(p.atom.variables())
    for c in p.constraints:
        names.update(_constraint_vars(c))
    inst = _Instantiator(names, p.constraints, dom)
    compiled = inst.compile_atom(p.atom)
    out = set()
    for combo in inst.assignments():
        if inst.constraints and not inst.admissible(combo):
            continue
        ga = inst.instantiate(compiled, combo)
        if ga is not None:
            out.add(ga)
    return frozenset(out)


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
    if op == "<":
        return Less(lt, rt)
    if op == "=":
        return Equal(lt, rt)
    return NotEqual(lt, rt)


def _is_constraint(item: str) -> bool:
    return bool(re.search(r"!=|<|=", item))


def parse_schematic_clause(text: str, dom: DomainSpec) -> SchematicClause:
    text = text.strip()
    if not text.endswith("."):
        raise GroundingError(f"clause must end with '.': {text!r}")
    text = text[:-1]
    if ":-" not in text:
        return SchematicClause(parse_schematic_atom(text, dom))
    head_text, body_text = text.split(":-", 1)
    body = []
    constraints = []
    for item in split_top_level(body_text):
        item = item.strip()
        if _is_constraint(item):
            constraints.append(parse_constraint(item, dom))
        elif item.startswith("not ") or item.startswith("not("):
            body.append(SchematicLiteral(parse_schematic_atom(item[3:].strip(), dom), False))
        else:
            body.append(SchematicLiteral(parse_schematic_atom(item, dom)))
    return SchematicClause(parse_schematic_atom(head_text, dom), tuple(body), tuple(constraints))


def parse_pattern(text: str, dom: DomainSpec) -> Pattern:
    text = text.strip()
    if " where " in text:
        atom_text, cons_text = text.split(" where ", 1)
        constraints = tuple(parse_constraint(c, dom) for c in cons_text.split(","))
        return Pattern(parse_schematic_atom(atom_text, dom), constraints)
    return Pattern(parse_schematic_atom(text, dom))


def parse_ground_atom(text: str, dom: DomainSpec) -> Atom:
    """Parse an atom that must be variable-free (event atoms, EDB listings)."""
    sa = parse_schematic_atom(text, dom)
    if set(sa.variables()):
        raise GroundingError(f"atom must be ground: {text!r}")
    inst = _Instantiator((), (), dom)
    ga = inst.instantiate(inst.compile_atom(sa), ())
    if ga is None:
        raise GroundingError(f"integer argument out of range in {text!r}")
    return ga
