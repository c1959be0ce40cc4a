"""Tests for schematic-clause instantiation."""

import hashlib
import itertools
import random
from contextlib import contextmanager
from typing import Iterable

import pytest

from agentlog import grounding
from agentlog.grounding import (
    Constraint,
    DomainSpec,
    GroundingError,
    Pattern,
    SchematicAtom,
    SchematicClause,
    Shift,
    Var,
    expand_pattern,
    ground_program,
    ground_stream,
    parse_ground_atom,
    parse_pattern,
    parse_schematic_clause,
)
from agentlog.logic import Atom, GroundProgram, atom, format_clause
from agentlog.runtime import dependent_pairs
from agentlog.scenarios import Topology, builtin_scenario, load_scenario, parse_scenario, routing_scenario_text

from .generators import random_schematic_scenario
from .reference import clause, dependency_graph, is_acyclic, parse_clause

DOM2 = DomainSpec(
    node_constants=("A1", "A2"),
    distance_max=2,
    node_vars=frozenset(["X", "Y"]),
    int_vars=frozenset(["D", "D2"]),
    symmetric=frozenset(["link"]),
)


def dom_at(dmax, nodes=("A1", "A2")):
    return DomainSpec(nodes, dmax, DOM2.node_vars, DOM2.int_vars, DOM2.symmetric)


def instances(c: SchematicClause, dom: DomainSpec) -> frozenset:
    """All ground instances of ``c`` over ``dom``."""
    return ground_program([c], dom).clauses


def test_fact_schema_expansion():
    c = parse_schematic_clause("sp(X,X,0).", DOM2)
    assert instances(c, DOM2) == {
        parse_clause("sp(A1,A1,0)."),
        parse_clause("sp(A2,A2,0)."),
    }


def test_range_filter_forces_d_zero():
    c = parse_schematic_clause(
        "spt(A1,Y,X,D+1) :- link(A1,X), sp(X,Y,D), not spl(A1,Y,D+1).", dom_at(1)
    )
    ground = instances(c, dom_at(1))
    assert ground  # some instances survive
    for head, pos, _ in ground:
        assert head.args[3] == 1  # head always D+1 = 1
        sp_args = [x.args for x in pos if x.predicate == "sp"]
        assert sp_args and all(args[2] == 0 for args in sp_args)


def test_constraint_enumeration_dmax2():
    c = parse_schematic_clause(
        "spl(A1,Y,D+1) :- link(A1,X), sp(X,Y,D2), D2 < D.", DOM2
    )
    ground = instances(c, DOM2)
    # D+1 <= 2 and D2 < D leave exactly (D=1, D2=0).
    assert ground
    for head, pos, _ in ground:
        assert head.args[2] == 2
        sp_args = [x.args for x in pos if x.predicate == "sp"]
        assert all(args[2] == 0 for args in sp_args)
    assert len(ground) == 4  # X, Y over two nodes


def test_no_constraints_survive_grounding():
    c = parse_schematic_clause("spl(A1,Y,D+1) :- sp(X,Y,D2), D2 < D.", DOM2)
    grounded = instances(c, DOM2)
    assert grounded
    for _, pos, neg in grounded:
        assert all(isinstance(x, Atom) for x in pos + neg)


def test_symmetric_canonicalization():
    c = parse_schematic_clause("spt(A2,Y,X,D+1) :- link(A2,X), sp(X,Y,D).", DOM2)
    links = {
        x
        for _, pos, _ in instances(c, DOM2)
        for x in pos
        if x.predicate == "link"
    }
    # link(A2,A1) is written in the schema but the ground atom is link(A1,A2).
    assert atom("link", "A1", "A2") in links
    assert atom("link", "A2", "A1") not in links


def test_chain_expansion_bound3():
    dom = DomainSpec((), 3, frozenset(), frozenset(["X"]))
    clauses = [
        parse_schematic_clause("r(X+1) :- s(X).", dom),
        parse_schematic_clause("r(0).", dom),
    ]
    p = ground_program(clauses, dom)
    expected = {parse_clause("r(0).")} | {
        parse_clause(f"r({x + 1}) :- s({x}).") for x in range(3)
    }
    assert p.clauses == expected


def test_empty_program():
    assert ground_program([], DOM2).clauses == frozenset()


def test_grounding_monotone_in_dmax():
    text = "spl(A1,Y,D+1) :- link(A1,X), sp(X,Y,D2), D2 < D."
    for k in range(1, 4):
        small = instances(parse_schematic_clause(text, dom_at(k)), dom_at(k))
        big = instances(parse_schematic_clause(text, dom_at(k + 1)), dom_at(k + 1))
        assert small <= big


def test_routing_grounding_is_acyclic_at_dmax5():
    from agentlog.scenarios import FIG1_TOPOLOGY
    from agentlog.system import superagent

    system = parse_scenario(routing_scenario_text(FIG1_TOPOLOGY, 5)).build_system()
    assert is_acyclic(dependency_graph(superagent(system)))


def test_undeclared_variable_is_an_error():
    with pytest.raises(GroundingError, match="undeclared"):
        parse_schematic_clause("p(Q) :- q(Q).", DOM2)


@pytest.mark.parametrize("node_vars, int_vars", [({"D"}, set()), (set(), {"D", "E"})],
                         ids=("node-var", "int-var"))
def test_name_declared_as_node_and_variable_is_an_error(node_vars, int_vars):
    # Otherwise a clause over D would ground once, over the node D.
    with pytest.raises(GroundingError, match="^names declared both as nodes and as variables: D$"):
        DomainSpec(("A", "D"), 2, frozenset(node_vars), frozenset(int_vars))


def test_domain_checks_its_bound_and_types_also_on_replace():
    with pytest.raises(GroundingError, match="^distance_max must be >= 0$"):
        DomainSpec((), -1)
    with pytest.raises(GroundingError, match="^variables declared with two types: D$"):
        DomainSpec((), 2, frozenset({"D"}), frozenset({"D"}))
    dom = DomainSpec(("A",), 2, frozenset({"X"}), frozenset({"D"}))
    assert dom._replace(distance_max=5) == DomainSpec(("A",), 5, frozenset({"X"}), frozenset({"D"}))
    with pytest.raises(GroundingError, match="^distance_max must be >= 0$"):
        dom._replace(distance_max=-1)
    with pytest.raises(GroundingError, match="^names declared both as nodes and as variables: X$"):
        dom._replace(node_constants=("X",))


def test_schematic_records_are_immutable_and_keep_their_repr():
    x, d = Var("X"), Shift("D", 1)
    sa = SchematicAtom("p", (x, d))
    assert repr(x) == "Var(name='X')" and repr(d) == "Shift(name='D', offset=1)"
    assert repr(sa) == "SchematicAtom(predicate='p', args=(Var(name='X'), Shift(name='D', offset=1)))"
    assert repr(DomainSpec()) == (
        "DomainSpec(node_constants=(), distance_max=0, node_vars=frozenset(), "
        "int_vars=frozenset(), symmetric=frozenset())"
    )
    records = (x, d, sa, Constraint("<", x, 3), SchematicClause(sa), Pattern(sa), DomainSpec())
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_arithmetic_needs_integer_variable():
    with pytest.raises(GroundingError):
        parse_schematic_clause("p(X+1) :- q(X).", DOM2)  # X is a node variable


def test_pattern_expansion_with_disequality():
    p = parse_pattern("sp(A2,Y,D) where Y != A1", DOM2)
    atoms = expand_pattern([p], DOM2)
    assert atoms == {atom("sp", "A2", "A2", d) for d in range(3)}


def test_pattern_ground_atom():
    p = parse_pattern("link(A2,A1)", DOM2)
    assert expand_pattern([p], DOM2) == {atom("link", "A1", "A2")}


# ---------------------------------------------------------------------------
# Differential tests against the full-product grounder.
#
# The reference below enumerates the whole product of the variable domains
# and only then filters.  It is the grounder as it was before the nested
# enumeration, kept verbatim apart from its names.

class _FullProductInstantiator:
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
        if c.op == "<":
            op = lambda a, b: a < b
        elif c.op == "=":
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


def full_product_ground_clause(c: SchematicClause, dom: DomainSpec) -> frozenset:
    """All ground instances of ``c`` over ``dom``.

    Every variable ranges over its full declared domain; constraints
    filter assignments and never survive into ground clauses.
    """
    inst = _FullProductInstantiator(c.variables(), c.constraints, dom)
    chead = inst.compile_atom(c.head)
    cbody = [(inst.compile_atom(a), True) for a in c.pos]
    cbody += [(inst.compile_atom(a), False) for a in c.neg]
    out = set()
    for combo in inst.assignments():
        if inst.constraints and not inst.admissible(combo):
            continue
        head = inst.instantiate(chead, combo)
        if head is None:
            continue
        pos, neg = [], []
        for compiled_atom, positive in cbody:
            ga = inst.instantiate(compiled_atom, combo)
            if ga is None:
                break
            (pos if positive else neg).append(ga)
        else:
            out.add(clause(head, pos, neg))
    return frozenset(out)


def full_product_ground_program(
    clauses: Iterable[SchematicClause],
    dom: DomainSpec,
    extra_atoms: Iterable[Atom] = (),
) -> GroundProgram:
    """Union of all instantiations, with declared extra atoms in the universe."""
    ground = set()
    for c in clauses:
        ground |= full_product_ground_clause(c, dom)
    return GroundProgram.of(ground, extra_atoms)


def full_product_expand_pattern(p: Pattern, dom: DomainSpec) -> frozenset:
    """The ground atoms matched by a pattern (used for HBE/HIN/EDB sets)."""
    names = set(p.atom.variables())
    for c in p.constraints:
        names.update(c.variables())
    inst = _FullProductInstantiator(names, p.constraints, dom)
    compiled = inst.compile_atom(p.atom)
    out = set()
    for combo in inst.assignments():
        if inst.constraints and not inst.admissible(combo):
            continue
        ga = inst.instantiate(compiled, combo)
        if ga is not None:
            out.add(ga)
    return frozenset(out)


def _agree(clauses, patterns, dom):
    for c in clauses:
        assert instances(c, dom) == full_product_ground_clause(c, dom), str(c)
    extra = set()
    for p in patterns:
        atoms = expand_pattern([p], dom)
        assert atoms == full_product_expand_pattern(p, dom), str(p)
        extra |= atoms
    assert expand_pattern(patterns, dom) == extra
    got = ground_program(clauses, dom, extra)
    want = full_product_ground_program(clauses, dom, extra)
    assert got.clauses == want.clauses
    assert got.universe == want.universe
    streamed = set()
    ground_stream(clauses, dom, lambda head, pos, neg: streamed.add((head, pos, neg)))
    assert streamed == want.clauses


def test_grounder_matches_full_product_on_random_schematic_scenarios():
    rng = random.Random(2024)
    clauses = patterns = 0
    while clauses + patterns < 300:
        dom, cs, ps = random_schematic_scenario(rng)
        _agree(cs, ps, dom)
        clauses += len(cs)
        patterns += len(ps)


def test_schematic_clause_text_round_trips():
    rng = random.Random(2024)
    checked = 0
    while checked < 300:
        dom, cs, _ = random_schematic_scenario(rng)
        # A built negative shift prints as ``D+-1``, which does not parse.
        for c in (c for c in cs if "+-" not in str(c)):
            assert parse_schematic_clause(str(c), dom) == c, str(c)
            checked += 1
    # The text form writes positive atoms, then negated ones, then
    # constraints, whatever order the clause was written in.
    c = parse_schematic_clause("q(X,D) :- not p(X), link(X,Y), D < 2, not s(D), X != Y.", DOM2)
    assert c.pos == (SchematicAtom("link", (Var("X"), Var("Y"))),)
    assert c.neg == (SchematicAtom("p", (Var("X"),)), SchematicAtom("s", (Var("D"),)))
    assert [str(k) for k in c.constraints] == ["D < 2", "X != Y"]
    assert str(c) == "q(X,D) :- link(X,Y), not p(X), not s(D), D < 2, X != Y."
    assert parse_schematic_clause(str(c), DOM2) == c


def _scenario_cases(scenario, dmax):
    d = scenario.domain
    dom = DomainSpec(d.node_constants, dmax, d.node_vars, d.int_vars, d.symmetric)
    for ad in scenario.agents:
        yield ad.idb, ad.hbe + ad.hin + ad.edb0 + ad.in0, dom


@pytest.mark.parametrize("name", ["example3", "routing5", "routing5-example6-script", "chain(6)"])
def test_grounder_matches_full_product_on_builtins(name):
    scenario = builtin_scenario(name)
    for dmax in (scenario.domain.distance_max, scenario.domain.distance_max + 2):
        for clauses, patterns, dom in _scenario_cases(scenario, dmax):
            _agree(clauses, patterns, dom)


def _ring(n):
    nodes = tuple(f"R{i}" for i in range(n))
    return Topology(nodes, frozenset((nodes[i], nodes[(i + 1) % n]) for i in range(n)))


def _grid(k):
    nodes = tuple(f"G{r}{c}" for r in range(k) for c in range(k))
    edges = {(f"G{r}{c}", f"G{r}{c + 1}") for r in range(k) for c in range(k - 1)}
    edges |= {(f"G{r}{c}", f"G{r + 1}{c}") for r in range(k - 1) for c in range(k)}
    return Topology(nodes, frozenset(edges))


@pytest.mark.parametrize("topology", [_ring(n) for n in range(4, 9)] + [_grid(3)], ids=lambda t: f"{len(t.nodes)}-nodes-{len(t.edges)}-edges")
def test_grounder_matches_full_product_on_routing_topologies(topology):
    scenario = parse_scenario(routing_scenario_text(topology))
    for clauses, patterns, dom in _scenario_cases(scenario, scenario.domain.distance_max):
        _agree(clauses, patterns, dom)


def test_atom_below_a_variable_it_does_not_mention():
    # sp(X,Y,D2+1) is bound at D2's level, below D, which it does not
    # mention, so it meets the same arguments once for each D.
    dom = dom_at(4, nodes=("A1", "A2", "A3"))
    c = parse_schematic_clause("spl(A1,Y,D+1) :- link(A1,X), sp(X,Y,D2+1), D2 < D.", dom)
    _agree([c], [], dom)
    assert atom("sp", "A2", "A3", 3) in {x for _, pos, _ in instances(c, dom) for x in pos}


def test_symmetric_atom_below_a_variable_it_does_not_mention():
    # link(X,Y) is bound at Y's level, below D and D2; both orientations
    # of an edge are one atom.
    dom = dom_at(2, nodes=("A1", "A2", "A3"))
    c = parse_schematic_clause("far(X,D+1) :- near(X,D2), D2 < D, link(X,Y).", dom)
    _agree([c], [], dom)
    links = {}
    for _, pos, _ in instances(c, dom):
        (near,) = [x for x in pos if x.predicate == "near"]
        (link,) = [x for x in pos if x.predicate == "link"]
        links.setdefault(link, set()).add(near.args[0])
    assert links[atom("link", "A1", "A2")] == {"A1", "A2"}
    assert atom("link", "A2", "A1") not in links
    assert len(links) == 6  # three self-links and three edges


def test_shift_only_in_a_constraint_is_range_checked():
    # D+3 lies outside 0..2 for every D, so no D qualifies, although 3 < 5.
    assert expand_pattern([parse_pattern("s(D) where D+3 < 5", DOM2)], DOM2) == frozenset()
    # D2+1 <= 2 caps D2 at 1, so D < D2+1 leaves D at 0 or 1.
    assert expand_pattern([parse_pattern("s(D) where D < D2+1", DOM2)], DOM2) == {atom("s", 0), atom("s", 1)}


@pytest.mark.parametrize("name, count, digest", [
    ("example3", 4, "20a88eab144ab9d6a0fb02d2c5d30f81d13dbf75594952d647c26361e57bb000"),
    ("routing5", 3535, "97f2e273b62410d8f7c9ec09b6ddeb62970cedc584a52d72c9999ec7fa329230"),
    ("routing5-example6-script", 28980,
     "c2c9ff3a062094a55d9da7ac5ada1f7ec7746dc687d8551bbf8d3e06d5dfd811"),
    ("chain(6)", 21, "756dbb82483981eecd6e939fe34cbbbdc8a97d8f061832d8eb5b8b670e3c2c19"),
])
def test_builtin_ground_clause_sets_are_pinned(name, count, digest):
    # Every agent's clauses in text form, sorted; each one a plain tuple
    # whose bodies are already deduplicated and sorted.
    agents = builtin_scenario(name).build_system().agents
    assert all(type(x) is tuple and clause(*x) == x for s in agents for x in s.idb.clauses)
    lines = [f"{s.id} {x}" for s in agents for x in sorted(map(format_clause, s.idb.clauses))]
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == (count, digest)


def _passed(clauses, dom, floor=None) -> list:
    """Each instance ``ground_stream`` passes, once per binding."""
    out = []
    ground_stream(clauses, dom, lambda head, pos, neg: out.append((head, pos, neg)), floor)
    return out


def _check_floors(clauses, patterns, dom) -> int:
    """Check every floor below ``dom``'s bound ``d`` against the full
    groundings: what a floor passes lies in the grounding at ``d`` and,
    with the grounding at the floor, makes it up, for the clauses and for
    each pattern's atoms; the bindings at the floor and those above it
    are the bindings at ``d``, each once.  Return how many instances the
    floors passed that their grounding already had."""
    d = dom.distance_max
    at = [dom._replace(distance_max=f) for f in range(d + 1)]
    full = [_passed(clauses, x) for x in at]
    atoms = [[expand_pattern([p], x) for p in patterns] for x in at]
    top = set(full[d])
    repeated = 0
    for f in range(d):
        above = _passed(clauses, dom, f)
        assert len(full[f]) + len(above) == len(full[d])
        below, above = set(full[f]), set(above)
        assert above <= top and below | above == top
        repeated += len(below & above)
        for p, below, want in zip(patterns, atoms[f], atoms[d]):
            above = expand_pattern([p], dom, f)
            assert above <= want and below | above == want, str(p)
        assert expand_pattern(patterns, dom, f).union(*atoms[f]) == frozenset().union(*atoms[d])
    assert _passed(clauses, dom, d) == []
    return repeated


def test_a_floor_passes_what_its_bound_adds_on_random_schematic_scenarios():
    rng = random.Random(4242)
    repeated = floors = 0
    for _ in range(150):
        dom, cs, ps = random_schematic_scenario(rng)
        repeated += _check_floors(cs, ps, dom)
        floors += dom.distance_max
    assert floors > 300 and repeated > 0


@pytest.mark.parametrize("name", ["example3", "routing5"] + [f"chain({n})" for n in range(1, 9)])
def test_a_floor_passes_what_its_bound_adds_on_builtins(name):
    scenario = builtin_scenario(name)
    for clauses, patterns, dom in _scenario_cases(scenario, scenario.domain.distance_max):
        _check_floors(clauses, patterns, dom)


@pytest.mark.parametrize("name", ["routing5-example6-script"] + [f"ring{n}" for n in range(4, 9)])
def test_a_floor_passes_what_its_bound_adds_on_routing_agents(name):
    # Each agent runs the same clause schemas over its own neighbours, and
    # routing5-example6-script's agents are routing5's at dmax 20, so the
    # first agent stands for the others.
    if name.startswith("ring"):
        scenario = parse_scenario(routing_scenario_text(_ring(int(name[4:]))))
    else:
        scenario = builtin_scenario(name)
    clauses, patterns, dom = next(_scenario_cases(scenario, scenario.domain.distance_max))
    _check_floors(clauses, patterns, dom)


def test_a_constraint_only_variable_repeats_instances_the_floor_has():
    # D appears only in D != 1: each D above the floor 1 yields again the
    # instances that D = 0 yields at the floor.
    dom = dom_at(4)
    c = parse_schematic_clause("p(X) :- q(X), D != 1.", dom)
    above = _passed([c], dom, 1)
    assert len(above) == 6  # D = 2, 3 and 4, over two nodes
    assert set(above) == set(_passed([c], dom_at(1))) == set(_passed([c], dom))
    assert _check_floors([c], [], dom) > 0


def test_an_integer_constant_above_the_floor_passes_every_binding():
    # 3 is out of range at the floor 2, so the clause and the pattern have
    # no instance there, and every binding at 4 is above the floor.
    dom = dom_at(4)
    c = parse_schematic_clause("r(3) :- s(D).", dom)
    p = parse_pattern("u(3,D)", dom)
    assert _passed([c], dom_at(2)) == [] and expand_pattern([p], dom_at(2)) == frozenset()
    assert _passed([c], dom, 2) == _passed([c], dom)
    assert len(_passed([c], dom, 2)) == 5
    assert expand_pattern([p], dom, 2) == expand_pattern([p], dom)
    _check_floors([c], [p], dom)


def test_symmetric_atoms_follow_declared_node_order_when_it_is_not_sorted():
    # Nodes declared C, A, B: the declared order, not the sorted one, puts
    # link(C,A) first.  The first clause of the call has no symmetric atom.
    dom = DomainSpec(("C", "A", "B"), 2, DOM2.node_vars, DOM2.int_vars, DOM2.symmetric)
    # Interned before grounding, so a lookup of the written order would find them.
    reversed_links = {atom("link", "A", "C"), atom("link", "B", "A"), atom("link", "B", "C")}
    clauses = [
        parse_schematic_clause("q(X,D) :- p(X), D < 2.", dom),
        parse_schematic_clause("far(X,D+1) :- near(Y,D), link(X,Y).", dom),
        parse_schematic_clause("hop(A) :- link(A,C), not link(B,A).", dom),
    ]
    patterns = [parse_pattern("link(X,Y) where X != Y", dom), parse_pattern("link(B,C)", dom)]
    _agree(clauses, patterns, dom)
    ground = ground_program(clauses, dom).clauses
    links = {x for _, pos, neg in ground for x in pos + neg if x.predicate == "link"}
    assert {atom("link", "C", "A"), atom("link", "A", "B")} <= links
    assert links.isdisjoint(reversed_links)
    assert expand_pattern(patterns[:1], dom) == {
        atom("link", "C", "A"), atom("link", "C", "B"), atom("link", "A", "B")
    }
    assert expand_pattern(patterns[1:2], dom) == {atom("link", "C", "B")}


def _agent_atoms(clauses, patterns, dom) -> list:
    """Every atom of an agent's ground clauses and of its patterns."""
    atoms = [x for c in ground_program(clauses, dom).clauses for x in (c[0], *c[1], *c[2])]
    return atoms + list(expand_pattern(patterns, dom))


@pytest.mark.parametrize(
    "name", ["example3", "routing5", "routing5-example6-script", "chain(6)", "ring-7"]
)
def test_grounded_atoms_are_the_interned_ones(name):
    if name == "ring-7":
        scenario = parse_scenario(routing_scenario_text(_ring(7)))
    else:
        scenario = builtin_scenario(name)
    for clauses, patterns, dom in _scenario_cases(scenario, scenario.domain.distance_max):
        atoms = _agent_atoms(clauses, patterns, dom)
        assert atoms
        for x in atoms:
            assert Atom(x.predicate, x.args) is x
            assert Atom._table[x.predicate][x.args] is x
        # Grounding the agent again yields the same objects.
        assert {id(x) for x in _agent_atoms(clauses, patterns, dom)} == {id(x) for x in atoms}


# Compiled shapes: one compilation per shape, for every bound, constant and stream.


@contextmanager
def _fresh_table():
    """An empty table of compiled shapes inside the block, so that each
    shape grounded there compiles anew; the shared table after it."""
    shared, grounding._Enumeration._table = grounding._Enumeration._table, {}
    try:
        yield
    finally:
        grounding._Enumeration._table = shared


def _from_scratch(clauses, dom, floor=None) -> list:
    """``_passed`` with every shape compiled at this bound."""
    with _fresh_table():
        return _passed(clauses, dom, floor)


def _compiled_shapes(dom) -> int:
    """How many compiled forms the table holds over ``dom``'s domain."""
    key = (dom.node_constants, dom.node_vars, dom.int_vars, dom.symmetric)
    return len(grounding._Enumeration._table[key][1])


def test_shared_compiled_shapes_match_fresh_compiles_on_random_schematic_scenarios(monkeypatch):
    # Each clause and pattern is grounded at rising and then falling
    # bounds, in full and above floors, through one table: each stream
    # passes what a compilation at its own bound passes, in the same order.
    monkeypatch.setattr(grounding._Enumeration, "_table", {})
    rng = random.Random(3303)
    checked = 0
    for _ in range(40):
        dom, cs, ps = random_schematic_scenario(rng)
        clauses = list(cs) + [SchematicClause(p.atom, constraints=p.constraints) for p in ps]
        top = dom.distance_max + 2
        bounds = [*range(top + 1), *range(top - 1, -1, -1)]
        for c in clauses:
            for d in bounds:
                at = dom._replace(distance_max=d)
                for floor in (None, *sorted({0, d // 2, d - 1} & set(range(d)))):
                    assert _passed([c], at, floor) == _from_scratch([c], at, floor), (str(c), d, floor)
                    checked += 1
    assert checked > 4000


def test_an_integer_constant_above_the_first_bound_is_instance_free_at_that_bound_only(monkeypatch):
    monkeypatch.setattr(grounding._Enumeration, "_table", {})
    c = parse_schematic_clause("p(5).", dom_at(6))
    p5 = [(atom("p", 5), (), ())]
    assert _passed([c], dom_at(3)) == []
    assert _passed([c], dom_at(6)) == p5
    assert _passed([c], dom_at(6), 3) == p5  # above the floor's bound: every binding
    assert _passed([c], dom_at(6), 5) == []
    assert _passed([c], dom_at(3)) == []
    assert expand_pattern([parse_pattern("p(5)", dom_at(6))], dom_at(4)) == frozenset()
    assert expand_pattern([parse_pattern("p(5)", dom_at(6))], dom_at(5)) == {atom("p", 5)}
    assert _compiled_shapes(dom_at(3)) == 1


def test_ring_agents_share_their_compiled_shapes(monkeypatch):
    monkeypatch.setattr(grounding._Enumeration, "_table", {})
    scenario = parse_scenario(routing_scenario_text(_ring(5)))
    shapes = set()
    for clauses, patterns, dom in _scenario_cases(scenario, 3):
        clauses = list(clauses) + [SchematicClause(p.atom, constraints=p.constraints) for p in patterns]
        assert _passed(clauses, dom) == _from_scratch(clauses, dom)
        shapes |= {grounding._shape(c)[0] for c in clauses}
    assert _compiled_shapes(dom) == len(shapes) < len(clauses)


def test_clauses_that_differ_only_in_node_constants_ground_their_own_constants(monkeypatch):
    monkeypatch.setattr(grounding._Enumeration, "_table", {})
    # A symmetric atom under a declared node order that is not sorted:
    # each clause puts its own constant in canonical order.
    dom = DomainSpec(("C", "A", "B"), 2, DOM2.node_vars, DOM2.int_vars, DOM2.symmetric)
    hops = [parse_schematic_clause(f"hop({n},X) :- link({n},X).", dom) for n in dom.node_constants]
    links = {n: {x for _, pos, _ in _passed([c], dom) for x in pos}
             for n, c in zip(dom.node_constants, hops)}
    assert links["A"] == {atom("link", "C", "A"), atom("link", "A", "A"), atom("link", "A", "B")}
    assert links["B"] == {atom("link", "C", "B"), atom("link", "A", "B"), atom("link", "B", "B")}
    assert _passed(hops, dom) == _from_scratch(hops, dom)
    assert _compiled_shapes(dom) == 1
    # A disequality with a constant: each clause leaves its own node out.
    nodes = ("R0", "R1", "R2")
    dom = DomainSpec(nodes, 1, DOM2.node_vars, DOM2.int_vars, DOM2.symmetric)
    others = [parse_schematic_clause(f"q(Y) :- p(Y), Y != {n}.", dom) for n in nodes]
    for n, c in zip(nodes, others):
        assert {head for head, _, _ in _passed([c], dom)} == {atom("q", m) for m in nodes if m != n}
    assert _passed(others, dom) == _from_scratch(others, dom)
    assert _compiled_shapes(dom) == 1


def test_reading_ground_atoms_adds_a_shape_per_pattern_of_repeats_not_per_atom(monkeypatch):
    # The table outlives every stream, so the atoms read from a scenario or
    # an events file must not each leave a compiled form in it.
    monkeypatch.setattr(grounding._Enumeration, "_table", {})
    nodes = tuple(f"R{i}" for i in range(7))
    dom = DomainSpec(nodes[::-1], 2, DOM2.node_vars, DOM2.int_vars, DOM2.symmetric)
    read = [parse_ground_atom(f"link({x},{y})", dom) for x in nodes for y in nodes]
    assert read == [atom("link", *sorted((x, y), reverse=True)) for x in nodes for y in nodes]
    assert _compiled_shapes(dom) == 2  # link(x,y) and link(x,x)
    read = [parse_ground_atom(f"sp({x},{y},{d})", dom) for x in nodes for y in nodes for d in (1, 2)]
    assert read == [atom("sp", x, y, d) for x in nodes for y in nodes for d in (1, 2)]
    assert _compiled_shapes(dom) == 2 + 4


def _snapshot(system) -> tuple:
    """What a system holds, read before the next one of its generator is
    drawn, which extends the agents' maps in place."""
    agents = tuple(
        (a.id, frozenset(a.clauses), {h: frozenset(b) for h, b in a.deps.items()}, a.hbe, a.hin, a.initial)
        for a in system.agents
    )
    return agents, dependent_pairs(system), system.io_atoms, system.cyclic


def test_alternating_systems_generators_each_match_their_own_from_scratch_build(monkeypatch):
    # Two generators over one scenario share the compiled shapes but no
    # stream's values: one rising, one that falls and rises again.
    monkeypatch.setattr(grounding._Enumeration, "_table", {})
    sc = builtin_scenario("routing5")
    bounds = ([1, 2, 4, 5], [5, 3, 6, 2])
    generators = [sc.systems(b) for b in bounds]
    got = [[], []]
    for _ in bounds[0]:
        for g, out in zip(generators, got):
            out.append(_snapshot(next(g)))
    for b, out in zip(bounds, got):
        with _fresh_table():
            assert out == [_snapshot(sc.build_system(dmax=d)) for d in b]


def _ring_run_text() -> str:
    """A 7-node routing ring with a chord and a link that fails at round 2."""
    nodes = tuple(f"R{i}" for i in range(7))
    links = {(nodes[i], nodes[(i + 1) % 7]) for i in range(7)} | {("R0", "R3")}
    return routing_scenario_text(Topology(nodes, frozenset(links))) + "\n[events]\n@round 2: fail link(R1,R2)\n"


@pytest.mark.parametrize("name, build, count", [
    ("chain-sweep", lambda: list(load_scenario("chain(1)").systems(range(1, 101))), 6),
    ("ring-run", lambda: parse_scenario(_ring_run_text()).build_system(), 7),
    ("ctinf-analyze", lambda: list(load_scenario("routing5-example6-script").shapes([20, 22])), 7),
    ("chain-trace", lambda: load_scenario("chain(300)").build_system(), 6),
])
def test_each_shape_compiles_once(monkeypatch, name, build, count):
    # Loading and grounding a workload's scenario, from an empty table,
    # compiles each clause shape once, whatever the agents and bounds.
    monkeypatch.setattr(grounding._Enumeration, "_table", {})
    compiled = []
    init = grounding._Enumeration.__init__

    def counted(self, *args):
        compiled.append(args[0])
        init(self, *args)

    monkeypatch.setattr(grounding._Enumeration, "__init__", counted)
    build()
    assert len(compiled) == len(set(compiled)) == count
