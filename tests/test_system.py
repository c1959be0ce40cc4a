"""Tests for system assembly, superagent, I/O graph, and classification."""

import random
import re
from collections import Counter
import pytest

from agentlog.agents import AgentSpec, AgentState
from agentlog.logic import (
    BRUTEFORCE_CAP,
    AcyclicPlan,
    DependencyGraph,
    GroundProgram,
    atom,
    format_clause,
    gl_reduct,
    head_set,
    is_stable_model,
    least_model,
    stable_models_bruteforce,
)
from agentlog.runtime import run_fair, verdict
from agentlog import scenarios as scenarios_module
from agentlog.grounding import ground_program
from agentlog.scenarios import (
    FIG1_TOPOLOGY,
    AgentDef,
    Scenario,
    Topology,
    _agent_spec,
    builtin_names,
    builtin_scenario,
    chain_scenario,
    parse_scenario,
    routing_scenario_text,
)
from agentlog.system import (
    MultiAgentSystem,
    NoUniqueModelError,
    ValidationError,
    build_system,
    classify,
    io_graph,
    superagent,
    superagent_model,
    system_violations,
)

from .generators import (
    agent_spec,
    random_schematic_scenario,
    random_system,
    signed_clause,
    spec_fields,
    with_clauses,
)
from .reference import clause as make_clause
from .reference import bfs_oracle, dependency_graph, is_acyclic, relevant_atoms, successors
from .test_cli import _PROBE_INVALID

a, b, c, d, e, f = (atom(x) for x in "abcdef")


def initial_edb(system):
    """The union of the agents' initial sensed facts."""
    return frozenset().union(*(a.initial.edb for a in system.agents))


def clause(head, *body):
    return make_clause(head, body)


def test_build_example3_system(example3_system):
    assert example3_system.ids == ("A1", "A2")
    assert example3_system.env_atoms == {c, d, e}
    assert example3_system.dependency("A1", "A2") == {b}
    assert example3_system.dependency("A2", "A1") == {a}
    assert example3_system.dependent_pairs == (("A1", "A2"), ("A2", "A1"))


def test_shared_definition_violation():
    x = atom("x")
    one = agent_spec("A1", GroundProgram.of([clause(x, a)], [a]), frozenset([a]))
    two = agent_spec("A2", GroundProgram.of([clause(x, b)], [b]), frozenset([b]))
    assert any("different definitions" in v for v in system_violations(MultiAgentSystem([one, two])))


def test_shared_definition_identical_is_fine():
    x = atom("x")
    one = agent_spec("A1", GroundProgram.of([clause(x, a)], [a]), frozenset([a]))
    two = agent_spec("A2", GroundProgram.of([clause(x, a), make_clause(b)], [a]), frozenset([a]))
    system = build_system([one, two])
    # Duplicate clauses collapse in the union rule base.
    assert clause(x, a) in superagent(system).clauses


def test_uncovered_input_violation():
    one = agent_spec("A1", GroundProgram.of([], [b]), frozenset(), frozenset([b]))
    with pytest.raises(ValidationError) as err:
        build_system([one])
    assert any("no producer" in v for v in err.value.violations)


def test_duplicate_ids_rejected():
    one = agent_spec("A1", GroundProgram.of([make_clause(a)]))
    with pytest.raises(ValidationError) as err:
        build_system([one, one])
    assert any("duplicate" in v for v in err.value.violations)


def test_environment_atom_as_head_rejected():
    one = agent_spec("A1", GroundProgram.of([make_clause(a)]))
    two = agent_spec("A2", GroundProgram.of([], [a]), frozenset([a]), frozenset(), AgentState())
    violations = system_violations(MultiAgentSystem([one, two]))
    assert any("environment atoms appear as heads" in v for v in violations)


def test_long_violation_listings_are_cut_after_four_atoms():
    ins = [atom("i", k) for k in range(5)]
    env = [atom("e", k) for k in range(5)]
    one = agent_spec("A1", GroundProgram.of([make_clause(x) for x in env]), hin=frozenset(ins))
    two = agent_spec("A2", GroundProgram.of([], env), frozenset(env))
    assert system_violations(MultiAgentSystem([one, two])) == [
        "agent A1: no producer for input atoms: i(0), i(1), i(2), i(3), ...",
        "agent A1: environment atoms appear as heads: e(0), e(1), e(2), e(3), ...",
    ]


def test_superagent_example3(example3_system):
    assert superagent(example3_system).clauses == {
        clause(a, b, c),
        clause(f, a),
        clause(b, a, d),
        clause(b, e),
    }
    assert initial_edb(example3_system) == {c, d, e}


def test_superagent_single_agent():
    spec = agent_spec(
        "A1", GroundProgram.of([clause(a, c)], [c]), frozenset([c]), frozenset(),
        AgentState(frozenset([c])),
    )
    system = build_system([spec])
    assert superagent(system).clauses == {clause(a, c)}
    assert initial_edb(system) == {c}


def test_superagent_routing_initial_edb(routing5_system):
    links = {atom("link", u, v) for u, v in FIG1_TOPOLOGY.edges}
    assert initial_edb(routing5_system) == links
    assert len(links) == 6
    # superagent skips the universe scan; the checked constructor must agree.
    p = superagent(routing5_system)
    assert GroundProgram(p.clauses, p.universe) == p


def test_superagent_head_union(example3_system):
    union = frozenset()
    for spec in example3_system.agents:
        union |= head_set(spec.idb)
    assert head_set(superagent(example3_system)) == union


def test_superagent_model_example3(example3_system):
    assert superagent_model(example3_system, frozenset([c, d])) == {c, d}


def test_superagent_model_empty():
    spec = agent_spec("A1", GroundProgram.of([clause(a, c)], [c]), frozenset([c]))
    assert superagent_model(build_system([spec]), frozenset()) == frozenset()


def test_superagent_model_routing_matches_bfs(routing5_system):
    model = superagent_model(routing5_system, initial_edb(routing5_system))
    dist = bfs_oracle(FIG1_TOPOLOGY)
    assert frozenset(x for x in model if x.predicate == "sp") == {
        atom("sp", u, v, k) for (u, v), k in dist.items()
    }
    assert atom("sp", "A1", "A3", 2) in model
    assert atom("sp", "A1", "A5", 2) in model


def test_superagent_model_of_a_cyclic_union_refuses_bad_facts(example3_system):
    # The preconditions hold on every route, the cyclic ones included.
    assert example3_system.cyclic
    with pytest.raises(ValueError, match="fact atoms may not head clauses"):
        superagent_model(example3_system, frozenset([c, a]))
    with pytest.raises(ValueError, match="stabilized EDB outside the environment atoms"):
        superagent_model(example3_system, frozenset([c, atom("g")]))


def test_superagent_program_is_not_built_for_a_negation_free_cyclic_union(
        monkeypatch, example3_scenario, example3_system):
    # example3's union is cyclic and negation-free: its reference model is
    # the positive closure of the union rule table.
    trace = run_fair(example3_system, env_schedule=example3_scenario.schedule,
                     max_rounds=example3_scenario.max_rounds)
    want = verdict(example3_system, trace)

    def refuse(*args):
        raise AssertionError("superagent program built")

    with monkeypatch.context() as m:
        m.setattr("agentlog.system.superagent", refuse)
        got = verdict(example3_system, trace)
        for edb in (frozenset(), frozenset([c, d]), frozenset([c, d, e])):
            assert _is_union_model(example3_system, edb, superagent_model(example3_system, edb))
    assert got == want
    assert got.reference_model == {c, d}


_EXAMPLE3_WITH_NEGATION = """\
[domain]
nodes:
dmax: 0

[agent A1]
idb:
  a :- b, c.
  f :- a.
  f :- a, not g.
hbe: c; g
hin: b
edb: c

[agent A2]
idb:
  b :- a, d.
  b :- e.
hbe: d; e
hin: a
edb: d; e
"""


def test_superagent_model_of_a_cyclic_union_with_negation_uses_brute_force(monkeypatch):
    system = parse_scenario(_EXAMPLE3_WITH_NEGATION).build_system()
    g = atom("g")
    assert system.cyclic and len(superagent(system).universe) == 7 <= BRUTEFORCE_CAP
    calls = []

    def counted(program, cap=BRUTEFORCE_CAP):
        calls.append(program)
        return stable_models_bruteforce(program, cap)

    monkeypatch.setattr("agentlog.system.stable_models_bruteforce", counted)
    for edb in (frozenset([c, d, e]), frozenset([c, d, e, g]), frozenset([c, d])):
        model = superagent_model(system, edb)
        assert _is_union_model(system, edb, model)
    assert model == {c, d}
    assert len(calls) == 3


def test_superagent_model_of_a_cyclic_union_above_the_cap_builds_no_program(monkeypatch):
    # example3 over X in 0..5 with f(X) :- a(X), not g(X): seven predicates
    # of six atoms each, 42 atoms, above the cap.
    text = _EXAMPLE3_WITH_NEGATION.replace("dmax: 0", "dmax: 5\nvar int: X")
    for name in "abcdefg":
        text = re.sub(rf"\b{name}\b(?!\()", f"{name}(X)", text)
    system = parse_scenario(text).build_system()
    assert system.cyclic and len(frozenset().union(*(s.universe for s in system.agents))) == 42

    def refuse(*args):
        raise AssertionError("a program was built")

    monkeypatch.setattr("agentlog.system.superagent", refuse)
    monkeypatch.setattr(AgentSpec, "idb", property(refuse))
    with pytest.raises(NoUniqueModelError, match="too large for the brute-force fallback"):
        superagent_model(system, initial_edb(system))


def test_superagent_model_no_unique_for_negative_loop():
    # a :- not b in one agent and b :- not a in the other: each rule base
    # is acyclic, the union has two stable models.
    one = agent_spec("A1", GroundProgram.of([make_clause(a, (), (b,))]), hin=frozenset([b]))
    two = agent_spec("A2", GroundProgram.of([make_clause(b, (), (a,))]), hin=frozenset([a]))
    system = build_system([one, two])
    assert system.cyclic == {a, b}
    with pytest.raises(NoUniqueModelError):
        superagent_model(system, frozenset())


def test_io_graph_example3(example3_system):
    g = io_graph(example3_system)
    assert g.nodes == {a, b, c, d, e}  # f is irrelevant to the inputs
    assert (f, a) not in g.edges
    assert (a, b) in g.edges and (b, a) in g.edges


def test_io_graph_no_inputs():
    spec = agent_spec("A1", GroundProgram.of([clause(a, c)], [c]), frozenset([c]))
    assert io_graph(build_system([spec])).nodes == frozenset()


def test_io_graph_chain_grows_linearly():
    sizes = {}
    for n in (3, 6):
        system = chain_scenario(n).build_system()
        sizes[n] = len(io_graph(system).nodes)
        # r(0..n) and s(0..n); the output atom q is not relevant to inputs.
        assert sizes[n] == 2 * (n + 1)
    assert sizes[6] > sizes[3]


def test_classify_example3(example3_scenario, example3_system):
    cls = classify(example3_system, next(example3_scenario.shapes([example3_system.dmax + 2])))
    assert not cls.io_acyclic
    assert cls.bounded
    assert cls.io_finite  # no integer domain: regrounding changes nothing
    assert not cls.idb_acyclic


def test_classify_routing(routing5_scenario, routing5_system):
    cls = classify(routing5_system, next(routing5_scenario.shapes([routing5_system.dmax + 2])))
    assert cls.io_acyclic
    assert cls.bounded
    assert not cls.io_finite  # I/O graph grows with the domain bound
    assert cls.idb_acyclic
    assert cls.probe_sizes[1] > cls.probe_sizes[0]


def test_classify_chain():
    sc = chain_scenario(4)
    cls = classify(*sc.shapes([4, 6]))
    assert cls.io_acyclic
    assert not cls.io_finite
    for record in (cls, next(sc.shapes([4]))):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def _with_own_cycle(rng, spec):
    """``spec`` unchanged, or with a self-loop or a two-cycle through one of
    its heads added to its IDB."""
    kind = rng.choice(("none", "none", "self", "pair"))
    h = rng.choice(sorted(spec.heads)) if spec.heads else atom(f"own_{spec.id}")
    if kind == "self":
        extra = [make_clause(h, (), (h,))]
    elif kind == "pair":
        y = atom(f"loop_{spec.id}")
        extra = [clause(h, y), clause(y, h)]
    else:
        return spec
    return with_clauses(spec, extra)


def test_acyclicity_violations_match_definition_route():
    # Validation reads agent acyclicity off the union rule base's cyclic
    # atoms and checks only the agents whose heads reach one; cross-agent
    # cycles (io_acyclic=False) put acyclic agents among those.
    rng = random.Random(1618)
    flagged = shared = 0
    for k in range(300):
        system, _ = random_system(rng, io_acyclic=k % 2 == 0)
        specs = [_with_own_cycle(rng, spec) for spec in system.agents]
        expected = [f"agent {s.id}: IDB is not acyclic" for s in specs
                    if not is_acyclic(dependency_graph(s.idb))]
        violations = system_violations(MultiAgentSystem(specs))
        assert [v for v in violations if v.endswith("IDB is not acyclic")] == expected
        if violations:
            with pytest.raises(ValidationError) as info:
                build_system(specs)
            assert info.value.violations == violations
        cyclic = MultiAgentSystem(specs).cyclic
        flagged += len(expected)
        shared += sum(not s.heads.isdisjoint(cyclic) for s in specs) - len(expected)
    assert flagged > 20 and shared > 20


def _perturbed(rng, clauses, k):
    """``clauses`` unchanged, or with one clause added, one dropped, or one
    body literal negated."""
    clauses = sorted(clauses, key=format_clause)
    kind = rng.choice(("same", "same", "add", "drop", "negate"))
    negatable = [c for c in clauses if c[1] or c[2]]
    if kind == "drop" and len(clauses) > 1:
        clauses.pop(rng.randrange(len(clauses)))
    elif kind == "negate" and negatable:
        c = rng.choice(negatable)
        head, pos, neg = c
        # The body items in text order: by atom, a positive one first.
        body = [(x, True) for x in pos] + [(x, False) for x in neg]
        body.sort(key=lambda item: (item[0].sort_key(), not item[1]))
        i = rng.randrange(len(body))
        body[i] = (body[i][0], not body[i][1])
        clauses[clauses.index(c)] = signed_clause(head, body)
    elif kind != "same":
        clauses.append(clause(clauses[0][0], atom(f"extra{k}")))
    return clauses


def _definition_route(specs):
    """(agent index, atom, message) for every definition breach: every
    agent's clauses grouped by head, each later definer compared with the
    first."""
    first, found = {}, []
    for i, s in enumerate(specs):
        by_head = {}
        for c in s.idb.clauses:
            by_head.setdefault(c[0], set()).add(c)
        for h, cs in by_head.items():
            if h not in first:
                first[h] = (s.id, cs)
            elif first[h][1] != cs:
                found.append((i, h, f"atom {h} has different definitions in {first[h][0]} and {s.id}"))
    return found


def test_definition_violations_match_definition_route():
    # random_system gives each head one agent; here some heads get two or
    # three, with the same clauses or with one clause added, dropped or
    # negated in a copy.
    rng = random.Random(2718)
    differing = alike = 0
    for k in range(300):
        system, _ = random_system(rng)
        specs = list(system.agents)
        extra = [[] for _ in specs]
        for owner, spec in enumerate(specs):
            for h in sorted(spec.heads):
                if rng.random() < 0.6:
                    continue
                own = [c for c in spec.idb.clauses if c[0] == h]
                others = [i for i in range(len(specs)) if i != owner]
                for i in rng.sample(others, min(len(others), rng.choice((1, 1, 2)))):
                    extra[i] += _perturbed(rng, own, k)
        specs = [with_clauses(s, more) for s, more in zip(specs, extra)]
        expected = _definition_route(specs)
        violations = [v for v in system_violations(MultiAgentSystem(specs))
                      if "different definitions" in v]
        assert set(violations) == {m for _, _, m in expected}
        assert violations == [m for _, _, m in sorted(expected)]
        differing += len(expected)
        alike += bool(any(extra)) and not expected
    assert differing > 100 and alike > 20


def test_proposition_io_acyclic_implies_idb_acyclic():
    rng = random.Random(909)
    checked = 0
    for _ in range(120):
        system, _ = random_system(rng, io_acyclic=False)
        cls = classify(system)
        if cls.io_acyclic:
            assert cls.idb_acyclic
            checked += 1
    assert checked > 10  # the generator does produce io-acyclic instances


def test_io_graph_nodes_are_relevant(example3_system):
    rng = random.Random(808)
    systems = [example3_system] + [random_system(rng)[0] for _ in range(10)]
    for system in systems:
        g_full = dependency_graph(superagent(system))
        inputs = frozenset().union(*(s.hin for s in system.agents))
        g_io = io_graph(system)
        assert g_io.nodes <= g_full.nodes
        for node in g_io.nodes:
            assert node in inputs or any(
                node in relevant_atoms(g_full, i) for i in inputs if i in g_full.nodes
            )


def test_superagent_projection_consistent_with_agents():
    # At the superagent's model, feeding each agent the projected inputs
    # reproduces the projected model (fixpoint self-consistency).
    from agentlog.agents import agent_model

    rng = random.Random(111)
    for _ in range(60):
        system, _ = random_system(rng, io_acyclic=True)
        env = initial_edb(system)
        reference = AcyclicPlan(superagent(system).clauses).model(env)
        for spec in system.agents:
            state = AgentState(env & spec.hbe, reference & spec.hin)
            assert agent_model(spec, state, AcyclicPlan(spec.idb.clauses)) == reference & (spec.hb)


def _definition_io(system):
    """The I/O graph and the union IDB's acyclicity by the definitions:
    superagent program, its full dependency graph, restriction to the
    atoms reachable from an input atom."""
    g = dependency_graph(superagent(system))
    adj = successors(g)
    keep = set().union(*(s.hin for s in system.agents)) & g.nodes
    frontier = list(keep)
    while frontier:
        for y in adj[frontier.pop()]:
            if y not in keep:
                keep.add(y)
                frontier.append(y)
    edges = frozenset((x, y) for x, y in g.edges if x in keep and y in keep)
    return DependencyGraph(frozenset(keep), edges), is_acyclic(g)


def _check_against_definition(system, bigger=None):
    """Compare with the definition route and return whether the system is
    IO-acyclic; ``bigger`` stands for the system at a larger bound, the
    probe."""
    g_io, idb_acyclic = _definition_io(system)
    io_acyclic = is_acyclic(g_io)
    assert io_graph(system) == g_io
    assert len(system.io_atoms) == len(g_io.nodes)
    cls = classify(system, bigger)
    assert (cls.io_nodes, cls.io_acyclic, cls.idb_acyclic) == (
        len(g_io.nodes), io_acyclic, idb_acyclic)
    if bigger is not None:
        assert cls.probe_delta == bigger.dmax - system.dmax
        assert cls.probe_sizes == (len(g_io.nodes), len(_definition_io(bigger)[0].nodes))
        assert cls.io_finite == (cls.probe_sizes[0] == cls.probe_sizes[1])
    return io_acyclic


def test_classify_and_io_graph_match_definition_route_on_random_systems():
    rng = random.Random(2718)
    seen = set()
    for io_acyclic in (False, True):
        for _ in range(200):
            system, _ = random_system(rng, io_acyclic=io_acyclic)
            seen.add(_check_against_definition(system))
            # Another random system stands in for the regrounding probe.
            other, _ = random_system(rng, io_acyclic=io_acyclic)
            _check_against_definition(MultiAgentSystem(system.agents, dmax=0),
                                      MultiAgentSystem(other.agents, dmax=2))
    assert seen == {True, False}


def test_classify_and_io_graph_match_definition_route_on_unvalidated_systems():
    # Assembled without validation, so a rule base may be cyclic: once
    # outside the I/O graph (IO-acyclic with a cyclic union IDB) and once
    # as a self-loop inside it.
    i, x, y = atom("i"), atom("x"), atom("y")
    reader = agent_spec("A1", GroundProgram.of([clause(y, i)]), hin=frozenset([i]))
    outside = MultiAgentSystem([agent_spec(
        "A1", GroundProgram.of([clause(y, i), clause(a, b), clause(b, a)]), hin=frozenset([i]))])
    inside = MultiAgentSystem([reader, agent_spec("A2", GroundProgram.of([clause(i, x), clause(x, x)]))])
    for system in (outside, inside):
        _check_against_definition(system)
    cls = classify(outside)
    assert (cls.io_acyclic, cls.idb_acyclic) == (True, False)
    assert io_graph(inside).edges == {(i, x), (x, x)}


def _scenario(ref):
    """A builtin or chain(N) by name, ``ringN``: a routing ring of N nodes,
    or ``ringN+chord``: that ring with a link from R0 to R2."""
    if not ref.startswith("ring"):
        return builtin_scenario(ref)
    n = int(ref[4:].removesuffix("+chord"))
    nodes = tuple(f"R{i}" for i in range(n))
    links = {(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    if ref.endswith("+chord"):
        links.add((nodes[0], nodes[2]))
    return parse_scenario(routing_scenario_text(Topology(nodes, frozenset(links))))


@pytest.mark.parametrize(
    "ref",
    [name for name in builtin_names() if name != "chain(N)"]
    + [f"chain({n})" for n in range(1, 9)]
    + [f"ring{n}" for n in (4, 5, 6)],
)
def test_classify_and_io_graph_match_definition_route_on_scenarios(ref):
    sc = _scenario(ref)
    system = sc.build_system()
    _check_against_definition(system, sc.build_system(dmax=system.dmax + 2))


@pytest.fixture(
    scope="module",
    params=[name for name in builtin_names() if name != "chain(N)"]
    + [f"chain({n})" for n in range(1, 9)]
    + [f"ring{n}{chord}" for n in range(4, 9) for chord in ("", "+chord")],
)
def built(request):
    """A scenario and its built systems at its own bound plus 0..3; the
    tests that take it run one scenario at a time, so each is built once."""
    sc = _scenario(request.param)
    dmax = sc.domain.distance_max
    return sc, {d: sc.build_system(dmax=d) for d in range(dmax, dmax + 4)}


def test_streamed_io_atoms_equal_the_built_systems(built):
    sc, systems = built
    for dmax, system in systems.items():
        assert _shape(next(sc.shapes([dmax]))) == _shape(system)


def test_classify_reads_a_shape_as_the_built_system(built):
    sc, systems = built
    shape, dmax = next(sc.shapes([None])), sc.domain.distance_max
    for delta in (1, 2, 3):
        assert classify(shape, next(sc.shapes([dmax + delta]))) == classify(*sc.shapes([dmax, dmax + delta]))
        assert classify(shape, next(sc.shapes([dmax + delta]))) == classify(systems[dmax], systems[dmax + delta])


def _tables(system) -> tuple:
    """What a system holds after assembly, agent by agent; a copy, as a
    system drawn from a sequence of bounds shares its maps with the next."""
    agents = [(a.id, {h: frozenset(body) for h, body in a.deps.items()}, set(a.clauses),
               a.hbe, a.hin, a.initial) for a in system.agents]
    return (system.io_atoms, system.cyclic, system.dmax, system.dependent_pairs,
            system.env_atoms, agents)


def _by_route(route, bounds, read) -> list:
    """``read`` of each value ``route(bounds)`` yields, up to the breaches
    of the first bound it refuses, which ends it."""
    got = []
    try:
        for x in route(bounds):
            got.append(read(x))
    except ValidationError as exc:
        got.append(exc.violations)
    return got


def _from_scratch(build, bounds, read) -> list:
    """``read`` of ``build(d)`` at each bound, up to the first refused."""
    want = []
    for d in bounds:
        want.append(_outcome(lambda: read(build(d))))
        if not isinstance(want[-1], tuple):
            break
    return want


def _check_routes(sc, bounds):
    """Both routes from a sequence of bounds give, at each bound, what a
    build from scratch gives there: its tables, its shape or its breaches."""
    assert _by_route(sc.systems, bounds, _tables) == _from_scratch(sc.build_system, bounds, _tables)
    assert _by_route(sc.shapes, bounds, _shape) == _from_scratch(lambda d: next(sc.shapes([d])), bounds, _shape)


def test_a_sequence_of_bounds_builds_what_each_bound_builds_alone(built):
    sc, systems = built
    dmax = sc.domain.distance_max
    bounds = sorted(systems)
    assert [_tables(s) for s in sc.systems(bounds)] == [_tables(systems[d]) for d in bounds]
    # A bound below the last one, or equal to it, is built as well.
    for bounds in ([dmax, dmax + 2], [dmax + 3, dmax, dmax, dmax + 1]):
        assert list(map(_shape, sc.shapes(bounds))) == [_shape(systems[d]) for d in bounds]


def test_a_sequence_of_bounds_refuses_what_each_bound_refuses():
    # Valid at dmax 4, refused once the constant 5 is in range.
    for text, violation in _PROBE_INVALID.values():
        sc = parse_scenario(text)
        for bounds in ([4, 5], [3, 4, 6], [4, 6, 7]):
            _check_routes(sc, bounds)
        assert _by_route(sc.shapes, [4, 5], _shape)[-1] == [violation]
    rng = random.Random(1618)
    seen = set()
    for _ in range(300):
        sc = _random_scenario(rng)
        dmax = sc.domain.distance_max
        _check_routes(sc, [dmax, dmax + 2])
        for v in _by_route(sc.shapes, [dmax, dmax + 2], _shape):
            seen.update(kind for kind in _BREACHES if kind in str(v))
    assert seen == set(_BREACHES)


def _check_agent_specs(sc, dmax, monkeypatch) -> tuple:
    """Check each agent ``_agent_spec`` grounds at ``dmax`` against
    ``ground_program`` with ``deps`` by the definition, and that the
    shape ``sc.shapes([dmax])`` yields gives clauses to exactly the
    agents that define a head another agent defines too; return how many
    agents it gave clauses and how many it did not."""
    dom = sc._domain(dmax)
    for ad in sc.agents:
        spec, bare = _agent_spec(ad, dom, clauses=True), _agent_spec(ad, dom, clauses=False)
        program = ground_program(ad.idb, dom, extra_atoms=spec.hbe | spec.hin)
        # ground_stream passes an instance once for each binding.
        assert len(spec.clauses) == len(set(spec.clauses))
        assert set(spec.clauses) == program.clauses
        assert spec_fields(spec) == spec_fields(
            agent_spec(ad.id, program, spec.hbe, spec.hin, spec.initial))
        assert spec.idb.universe == program.universe
        assert spec_fields(bare) == spec_fields(spec)[:-1] + (None,)
    assembled = []
    build = scenarios_module.build_system

    def recording(agents, dmax=None):
        assembled.extend(agents)
        return build(agents, dmax=dmax)

    with monkeypatch.context() as m:
        m.setattr(scenarios_module, "build_system", recording)
        _outcome(lambda: next(sc.shapes([dmax])))
    definers = Counter(h for a in assembled for h in a.heads)
    shared = {h for h, n in definers.items() if n > 1}
    for ad, a in zip(sc.agents, assembled):
        assert (a.clauses is not None) == (not shared.isdisjoint(a.heads))
        if a.clauses is not None:
            assert spec_fields(a) == spec_fields(_agent_spec(ad, dom, clauses=True))
    given = sum(a.clauses is not None for a in assembled)
    return given, len(assembled) - given


@pytest.mark.parametrize(
    "ref",
    [name for name in builtin_names() if name != "chain(N)"]
    + [f"chain({n})" for n in range(1, 9)]
    + [f"ring{n}{chord}" for n in range(4, 9) for chord in ("", "+chord")],
)
def test_agent_spec_grounds_as_ground_program_on_scenarios(ref, monkeypatch):
    # No two agents of these define one head, so shape gives none clauses.
    sc = _scenario(ref)
    assert _check_agent_specs(sc, sc.domain.distance_max, monkeypatch) == (0, len(sc.agents))


def test_agent_spec_grounds_as_ground_program_on_random_scenarios(monkeypatch):
    rng = random.Random(1729)
    given = bare = 0
    for _ in range(300):
        sc = _random_scenario(rng)
        counts = _check_agent_specs(sc, sc.domain.distance_max, monkeypatch)
        given += counts[0]
        bare += counts[1]
    assert given > 50 and bare > 50


_BREACHES = (
    "duplicate agent id",
    "IDB is not acyclic",
    "HIN and HBE overlap",
    "appear as clause heads",
    "initial EDB outside HBE",
    "initial IN outside HIN",
    "different definitions",
    "no producer",
    "environment atoms appear as heads",
)


def _shape(system) -> tuple:
    """What ``classify`` reads of a system or a shape."""
    return system.io_atoms, system.cyclic, system.dmax


def _outcome(build):
    """The value ``build()`` returns, or the breaches it raises."""
    try:
        return build()
    except ValidationError as exc:
        return exc.violations


def _random_scenario(rng) -> Scenario:
    """Random agents over shared random clauses and patterns: ids repeat,
    heads are shared and defined differently, inputs go unproduced."""
    dom, clauses, patterns = random_schematic_scenario(rng)

    def some(items):
        return tuple(x for x in items if rng.random() < 0.5)

    agents = []
    for _ in range(rng.randint(1, 3)):
        hbe = some(patterns)
        hin = some(p for p in patterns if p not in hbe)
        agents.append(AgentDef(f"A{rng.randint(1, 3)}", some(clauses), hbe, hin,
                               some(hbe + hin), some(hin + hbe)))
    return Scenario(domain=dom, agents=tuple(agents))


def test_streamed_io_atoms_validate_as_build_system_on_random_scenarios():
    rng = random.Random(1618)
    seen = set()
    for _ in range(300):
        sc = _random_scenario(rng)
        dom = sc.domain
        for dmax in (dom.distance_max, dom.distance_max + 2):
            want = _outcome(lambda: _shape(sc.build_system(dmax)))
            assert _outcome(lambda: _shape(next(sc.shapes([dmax])))) == want
            if isinstance(want, tuple):
                seen.add("I/O atoms" if want[0] else "no I/O atoms")
            else:
                seen.update(kind for v in want for kind in _BREACHES if kind in v)
    assert seen == {"I/O atoms", "no I/O atoms", *_BREACHES}


def _with_copied_heads(rng, specs):
    """``specs`` with some heads' clauses copied unchanged into one other
    agent, which then defines each such head as its first definer does."""
    extra = [[] for _ in specs]
    for owner, spec in enumerate(specs):
        for h in sorted(spec.heads):
            if rng.random() < 0.5:
                continue
            target = rng.choice([i for i in range(len(specs)) if i != owner])
            extra[target] += [c for c in spec.idb.clauses if c[0] == h]
    return [with_clauses(s, more) for s, more in zip(specs, extra)]


def test_mixed_systems_derive_the_tables_of_their_spec_systems():
    # Every agent that shares no head loses its clauses, as ``analyze``
    # builds it; the system of the mix must read the same union off the
    # agents' maps and report the same breaches, in the same order.
    rng = random.Random(1442)
    seen = set()
    for k in range(300):
        system, _ = random_system(rng, io_acyclic=k % 2 == 0)
        specs = [_with_own_cycle(rng, spec) for spec in system.agents]
        if k % 3 == 1:
            specs = _with_copied_heads(rng, specs)
        elif k % 3 == 2:
            target = rng.randrange(len(specs))
            h = rng.choice(sorted(set().union(*(s.heads for s in specs))))
            body = rng.sample(sorted(system.env_atoms), min(1, len(system.env_atoms)))
            specs[target] = with_clauses(specs[target], [clause(h, *body)])
        heads = [h for s in specs for h in s.heads]
        shared = {h for h in heads if heads.count(h) > 1}
        mixed = [
            s if not shared.isdisjoint(s.heads) else AgentSpec(s.id, s.deps, s.hbe, s.hin, s.initial)
            for s in specs
        ]
        want, got = MultiAgentSystem(specs), MultiAgentSystem(mixed)
        for name in ("env_atoms", "io_atoms", "cyclic", "dependent_pairs"):
            assert getattr(got, name) == getattr(want, name)
        assert set(got.order) == set(want.order)
        position = {h: i for i, h in enumerate(got.order)}
        for s in specs:
            for head, pos, neg in s.idb.clauses:
                if head in position:
                    assert all(position[b] < position[head] for b in pos + neg if b in position)
        violations = system_violations(got)
        assert violations == system_violations(want)
        seen.update(kind for v in violations for kind in _BREACHES if kind in v)
        seen.add("tables" if any(a.clauses is None for a in mixed) else "no tables")
        seen.add("specs" if any(a.clauses is not None for a in mixed) else "no specs")
        seen.add("cyclic" if got.cyclic else "acyclic")
    assert {"tables", "specs", "no specs", "cyclic", "acyclic", "different definitions",
            "IDB is not acyclic"} <= seen


def _is_union_model(system, edb, model):
    """Whether ``model`` is the reference model by the definition, from
    the superagent program with ``edb`` as facts: a stable model of it
    (GL reduct and least model) when acyclic, as an acyclic program has
    no other, else its unique stable model by brute force;
    NoUniqueModelError when it has none or several."""
    program = superagent(system).with_facts(edb)
    if is_acyclic(dependency_graph(program)):
        return is_stable_model(program, model)
    models = stable_models_bruteforce(program)
    if len(models) != 1:
        raise NoUniqueModelError(f"{len(models)} stable models")
    return model == models[0]


def test_superagent_model_matches_union_program_on_random_systems():
    # The acyclic route reads the union rule table in the union order; the
    # union program, checked against the definition and enumerated by
    # brute force, is the oracle.  A third of the systems have heads that
    # two agents define.
    rng = random.Random(3141)
    acyclic = brute = shared = 0
    for k in range(300):
        system, _ = random_system(rng, io_acyclic=k % 2 == 0)
        if k % 3 == 0:
            system = MultiAgentSystem(_with_copied_heads(rng, system.agents))
        edb = frozenset(x for x in sorted(system.env_atoms) if rng.random() < 0.5)
        program = superagent(system)
        combined = program.with_facts(edb)
        if is_acyclic(dependency_graph(program)):
            assert is_stable_model(combined, superagent_model(system, edb))
            acyclic += 1
            heads = [h for s in system.agents for h in s.heads]
            shared += len(heads) > len(set(heads))
        if len(combined.universe) <= BRUTEFORCE_CAP:
            models = stable_models_bruteforce(combined)
            if len(models) == 1:
                assert superagent_model(system, edb) == models[0]
            else:
                with pytest.raises(NoUniqueModelError):
                    superagent_model(system, edb)
            brute += 1
    assert acyclic > 150 and brute > 250 and shared > 40


def test_superagent_model_reads_every_definer_on_unvalidated_systems():
    # Some heads get a second definer with a different clause whose body
    # only mentions lower derived atoms and environment atoms, so the union
    # stays acyclic but the system would fail validation.  A head is true
    # when any definer's clause fires.
    rng = random.Random(2236)
    differing = 0
    for _ in range(200):
        system, _ = random_system(rng, io_acyclic=True)
        specs = list(system.agents)
        derived = sorted(set().union(*(s.heads for s in specs)))
        extra = [[] for _ in specs]
        for owner, spec in enumerate(specs):
            for h in sorted(spec.heads):
                if rng.random() < 0.5:
                    continue
                rank = int(h.predicate[1:])
                pool = sorted(system.env_atoms) + [x for x in derived if int(x.predicate[1:]) < rank]
                body = rng.sample(pool, rng.randint(0, min(2, len(pool))))
                target = rng.choice([i for i in range(len(specs)) if i != owner])
                extra[target].append(signed_clause(h, [(x, rng.random() > 0.3) for x in body]))
        specs = [with_clauses(s, more) for s, more in zip(specs, extra)]
        system = MultiAgentSystem(specs)
        assert not system.cyclic
        differing += sum("different definitions" in v for v in system_violations(system))
        for _ in range(3):
            edb = frozenset(x for x in sorted(system.env_atoms) if rng.random() < 0.5)
            assert _is_union_model(system, edb, superagent_model(system, edb))
    assert differing > 100


@pytest.mark.parametrize(
    "ref",
    [name for name in builtin_names() if name != "chain(N)"]
    + ["chain(4)", "chain(12)"]
    + [f"ring{n}" for n in range(4, 9)],
)
def test_superagent_model_matches_union_program_on_scenarios(ref):
    # In the initial environment and, on routing systems, with one link failed.
    system = _scenario(ref).build_system()
    initial = initial_edb(system)
    links = sorted(x for x in initial if x.predicate == "link")
    for edb in [initial] + [initial - {x} for x in links[len(links) // 2:][:1]]:
        assert _is_union_model(system, edb, superagent_model(system, edb))


def test_superagent_model_rejects_a_fact_that_heads_a_clause(routing5_system):
    head = min(routing5_system.order)
    with pytest.raises(ValueError, match="fact atoms may not head clauses"):
        superagent_model(routing5_system, frozenset([head]))


def test_reference_model_compiles_nothing_new(monkeypatch):
    # After a run of an acyclic union, the verdict compiles no further
    # plan and does not build the superagent program.
    scenario = builtin_scenario("routing5")
    system = scenario.build_system()
    trace = run_fair(system, env_schedule=scenario.schedule, max_rounds=scenario.max_rounds)
    initial = initial_edb(system)

    def refuse(*args):
        raise AssertionError("built beyond the agents' plans and the union rule table")

    with monkeypatch.context() as m:
        m.setattr(AcyclicPlan, "__init__", refuse)
        m.setattr("agentlog.system.superagent", refuse)
        model = superagent_model(system, initial)
        v = verdict(system, trace)
    assert _is_union_model(system, initial, model)
    assert _is_union_model(system, v.stabilized_edb, v.reference_model)
    assert v.reference_model == v.convergence_model


@pytest.mark.parametrize("ref", ["routing5", "ring6", "chain(12)"])
def test_reference_model_of_a_fresh_system_compiles_no_plan(monkeypatch, ref):
    # The acyclic reference model reads the union rule table alone: on a
    # system that has evaluated no model yet, no plan is compiled for it
    # and the superagent program is not built.
    system = _scenario(ref).build_system()
    initial = initial_edb(system)

    def refuse(*args):
        raise AssertionError("built beyond the union rule table")

    with monkeypatch.context() as m:
        m.setattr(AcyclicPlan, "__init__", refuse)
        m.setattr("agentlog.system.superagent", refuse)
        assert not system.cyclic
        model = superagent_model(system, initial)
    assert _is_union_model(system, initial, model)


def _plan_clauses(plan):
    """The ground clauses a plan was compiled from, read off its layout."""
    return {c for cs in plan.by_head.values() for c in cs}


@pytest.mark.parametrize(
    "ref",
    [name for name in builtin_names() if name != "chain(N)"]
    + [f"chain({n})" for n in range(1, 13)]
    + [f"ring{n}" for n in range(4, 9)],
)
def test_plans_hold_the_clauses_live_in_the_positive_relaxation(ref):
    # The live atoms are, by the definition, the least model of the
    # superagent program with negation dropped (its reduct by the empty
    # set) and every environment and input atom a fact.
    system = _scenario(ref).build_system()
    base = system.env_atoms.union(*(a.hin for a in system.agents))
    live = least_model(gl_reduct(superagent(system).with_facts(base), frozenset()))
    for a, plan in zip(system.agents, system.plans):
        kept = {c for c in a.idb.clauses if live.issuperset(c[1])}
        assert _plan_clauses(plan) == kept
        assert plan.heads == a.heads
        if ref.startswith("chain") or ref == "example3":
            assert kept == a.idb.clauses


def test_plans_keep_clauses_that_read_a_head_of_another_agent():
    # A reads p, which B derives from what it senses but which is not an
    # input of A: p never holds for A, yet it holds in the union, so A's
    # clause is live.
    p, h = atom("p"), atom("h")
    one = agent_spec("A", GroundProgram.of([clause(h, p)]))
    two = agent_spec("B", GroundProgram.of([clause(p, e)], [e]), hbe=frozenset([e]))
    system = build_system([one, two])
    assert _plan_clauses(system.plans[0]) == one.idb.clauses
    for edb in (frozenset(), system.env_atoms):
        assert _is_union_model(system, edb, superagent_model(system, edb))
    assert superagent_model(system, frozenset([e])) == {e, p, h}


def _dead_heads(system):
    """Per agent, its heads that no clause of its plan defines."""
    return [a.heads - set(p.by_head) for a, p in zip(system.agents, system.plans)]


def test_a_head_whose_clauses_are_all_dead_reads_false_and_is_no_fact(routing5_system):
    # q's one clause reads d, which no agent senses, receives or heads.
    q, r = atom("q"), atom("r")
    system = build_system([agent_spec("A", GroundProgram.of([clause(q, d), make_clause(r, (), (q,))]))])
    assert _dead_heads(system) == [{q}]
    model = superagent_model(system, frozenset())
    assert _is_union_model(system, frozenset(), model) and model == {r}
    with pytest.raises(ValueError, match="^stabilized EDB outside the environment atoms: d$"):
        superagent_model(system, frozenset([d]))
    assert all(_dead_heads(routing5_system))
    for s, dead in ((system, q), (routing5_system, min(_dead_heads(routing5_system)[0]))):
        plan = s.plans[0]
        for call in (
            lambda: superagent_model(s, frozenset([dead])),
            lambda: plan.model(frozenset([dead])),
            lambda: plan.changes(plan.model(), frozenset([dead])),
        ):
            with pytest.raises(ValueError, match="fact atoms may not head clauses"):
                call()
