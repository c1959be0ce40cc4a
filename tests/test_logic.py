"""Unit tests for ground programs, reducts, stable models, and graphs."""

import copy
import itertools
import pickle
import random

import pytest

from agentlog.logic import (
    AcyclicPlan,
    Atom,
    CyclicProgramError,
    DependencyGraph,
    GroundProgram,
    atom,
    gl_reduct,
    head_set,
    is_stable_model,
    least_model,
    _peel,
    format_clause,
    parse_atom,
    stable_models_bruteforce,
)
from agentlog.system import _union_dependencies

from .generators import random_system
from .reference import clause as make_clause
from .reference import atom_key, dependency_graph, is_acyclic, kahn_peel, parse_clause, relevant_atoms

a, b, c, d, e, f = (atom(x) for x in "abcdef")


def clause(head, *body):
    return make_clause(head, body)


# The two rule bases of the cyclic two-agent demo system.
IDB1 = GroundProgram.of([clause(a, b, c), clause(f, a)])
IDB2 = GroundProgram.of([clause(b, a, d), clause(b, e)])
# Their union: the superagent's rule base.
UNION = GroundProgram.of(IDB1.clauses | IDB2.clauses)


def test_head_set():
    assert head_set(IDB1) == {a, f}
    assert head_set(GroundProgram.of([])) == frozenset()
    assert head_set(IDB2) == {b}


def test_clause_normalizes_body():
    c1 = make_clause(a, (c, b, c), (d, d))
    c2 = make_clause(a, [b, c], [d])
    assert c1 == c2
    assert c1[1:] == ((b, c), (d,))


def test_clause_is_a_sorted_head_pos_neg_value():
    sp = [atom("sp", "A1", k) for k in (3, 0, 12, 2)]
    x = make_clause(a, [sp[0], sp[1], sp[0], b], (sp[2], sp[3], sp[2], a))
    assert type(x) is tuple and x == (a, (b, sp[1], sp[0]), (a, sp[3], sp[2]))
    head, pos, neg = x
    assert make_clause(head, pos, neg) == x and hash(make_clause(head, neg=neg, pos=pos)) == hash(x)
    assert make_clause(a) == (a, (), ())


def test_clauses_survive_pickle_copy_and_text():
    rng = random.Random(61)
    pool = [a, b, c, atom("sp", "A1", "A5", 2), atom("r", 0), atom("r", 10)]
    for _ in range(200):
        x = make_clause(rng.choice(pool), rng.sample(pool, rng.randint(0, 3)), rng.sample(pool, rng.randint(0, 3)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(x, protocol)) == x
        for y in (copy.copy(x), copy.deepcopy(x)):
            assert type(y) is tuple and y == x
        assert parse_clause(format_clause(x)) == x


def test_universe_must_cover_clause_atoms():
    with pytest.raises(ValueError, match="clause atoms outside universe: b"):
        GroundProgram(frozenset([clause(a, b)]), frozenset([a]))
    p = GroundProgram.of([clause(a, b)])
    with pytest.raises(ValueError, match="^clause atoms outside universe: a, b$"):
        p._replace(universe=frozenset())


def test_programs_and_graphs_are_immutable_values():
    p = GroundProgram.of([clause(a, b)])
    g = DependencyGraph(frozenset([a, b]), frozenset([(a, b)]))
    assert p == GroundProgram(p.clauses, p.universe) and hash(p) == hash(GroundProgram(*p))
    assert repr(GroundProgram()) == "GroundProgram(clauses=frozenset(), universe=frozenset())"
    assert repr(DependencyGraph()) == "DependencyGraph(nodes=frozenset(), edges=frozenset())"
    for record in (p, g):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, frozenset())


def test_derived_programs_pass_the_universe_check():
    # of/with_facts/gl_reduct skip the scan; what they build must
    # still pass it when rebuilt through the checked constructor.
    p = GroundProgram.of([make_clause(a, [b], [c]), clause(d, e)], extra_atoms=[f])
    derived = [
        p,
        p.with_facts([atom("x", 1), a]),
        gl_reduct(p, frozenset([c])),
        gl_reduct(p, frozenset()),
    ]
    for q in derived:
        assert GroundProgram(q.clauses, q.universe) == q


def test_gl_reduct_unblocked():
    p = GroundProgram.of([make_clause(a, [], [b]), clause(b, c)])
    r = gl_reduct(p, frozenset())
    assert r.clauses == {make_clause(a), clause(b, c)}
    assert r.universe == p.universe


def test_gl_reduct_deletes_blocked_rule():
    p = GroundProgram.of([make_clause(a, [], [b]), clause(b, c)])
    r = gl_reduct(p, frozenset([b]))
    assert r.clauses == {clause(b, c)}


def test_least_model_chain():
    p = GroundProgram.of([make_clause(a), clause(b, a)])
    assert least_model(p) == {a, b}


def test_least_model_positive_loop_unsupported():
    p = GroundProgram.of([clause(a, b), clause(b, a)])
    assert least_model(p) == frozenset()


def test_least_model_demo_agent2():
    # A2's beliefs at the initial state of the demo run: {b, d, e}.
    p = IDB2.with_facts([d, e])
    assert least_model(p) == {b, d, e}


def test_least_model_rejects_negation():
    with pytest.raises(ValueError, match=r"^least_model requires a negation-free program, got: a :- not b\.$"):
        least_model(GroundProgram.of([make_clause(a, [], [b])]))


def test_is_stable_model_definite_cyclic():
    # Union rule base of the demo system plus facts {c, d}.
    p = UNION.with_facts([c, d])
    assert is_stable_model(p, frozenset([c, d]))
    assert not is_stable_model(p, frozenset([a, b, c, d, f]))


def test_is_stable_model_negative_selfloop():
    p = GroundProgram.of([make_clause(a, [], [a])])
    assert not is_stable_model(p, frozenset())
    assert not is_stable_model(p, frozenset([a]))


def test_is_stable_model_simple_negation():
    p = GroundProgram.of([make_clause(a, [], [b])])
    assert is_stable_model(p, frozenset([a]))


def test_bruteforce_even_odd():
    p = GroundProgram.of([make_clause(a, [], [b]), make_clause(b, [], [a])])
    assert stable_models_bruteforce(p) == [frozenset([a]), frozenset([b])]


def test_bruteforce_matches_acyclic_demo():
    p = IDB1.with_facts([c, b])
    models = stable_models_bruteforce(p)
    assert models == [frozenset([a, b, c, f])]
    assert AcyclicPlan(p.clauses).model() == models[0]


def test_bruteforce_no_model():
    p = GroundProgram.of([make_clause(a, [], [a])])
    assert stable_models_bruteforce(p) == []


def test_bruteforce_enumerates_only_the_heads_no_fact_derives():
    # 24 facts and two derived heads, 26 heads in all: the facts hold in
    # every candidate, so four candidates are tried, not 2**26.  One fact
    # also heads a clause of its own.
    facts = [atom("x", i) for i in range(24)]
    p = GroundProgram.of([clause(a, facts[0]), make_clause(b, [], [a]), clause(facts[1], b)])
    p = p.with_facts(facts)
    assert len(p.universe) == 26
    assert stable_models_bruteforce(p, cap=30) == [frozenset(facts) | {a}]


def test_bruteforce_cap():
    atoms = [atom(f"x{i}") for i in range(21)]
    p = GroundProgram.of([make_clause(x) for x in atoms])
    with pytest.raises(ValueError):
        stable_models_bruteforce(p)
    assert len(stable_models_bruteforce(p, cap=21)) == 1


def test_dependency_graph_demo():
    g = dependency_graph(UNION)
    assert g.edges == {(a, b), (a, c), (f, a), (b, a), (b, d), (b, e)}


def test_dependency_graph_empty_and_negative():
    assert dependency_graph(GroundProgram.of([])).edges == frozenset()
    g = dependency_graph(GroundProgram.of([make_clause(a, [], [b])]))
    assert g.edges == {(a, b)}


def test_is_acyclic():
    assert not is_acyclic(dependency_graph(UNION))  # a <-> b
    single = GroundProgram.of([], [a])
    assert is_acyclic(dependency_graph(single))


def test_relevant_atoms_demo():
    g = dependency_graph(UNION)
    assert relevant_atoms(g, a) == {a, b, c, d, e}
    assert relevant_atoms(g, f) == {a, b, c, d, e}


def test_relevant_atoms_isolated():
    g = dependency_graph(GroundProgram.of([], [a]))
    assert relevant_atoms(g, a) == frozenset()


def _check_peel(deps):
    """``_peel`` splits the heads as the sink peel does, and puts every
    head after the heads in its body."""
    order, cyclic = _peel(deps)
    want_order, want_cyclic = kahn_peel(deps)
    assert cyclic == want_cyclic
    assert len(order) == len(set(order)) and set(order) == set(want_order)
    position = {h: k for k, h in enumerate(order)}
    assert all(position[b] < k for k, h in enumerate(order) for b in deps[h] if b in deps)
    return order, cyclic


@pytest.mark.parametrize("io_acyclic", [True, False])
def test_peel_matches_the_sink_peel_on_random_systems(io_acyclic):
    rng = random.Random(20051)
    kinds = set()
    for _ in range(150):
        system, _ = random_system(rng, io_acyclic=io_acyclic)
        for deps in [_union_dependencies(system.agents)] + [a.deps for a in system.agents]:
            kinds.add(bool(_check_peel(deps)[1]))
    assert kinds == ({False} if io_acyclic else {False, True})


def test_peel_matches_the_sink_peel_on_random_graphs():
    rng = random.Random(7)
    atoms = [atom("p", i) for i in range(30)]
    kinds = set()
    for _ in range(300):
        heads = rng.sample(atoms, rng.randint(0, len(atoms)))
        deps = {h: set(rng.sample(atoms, rng.randint(0, 3))) for h in heads}
        kinds.add(bool(_check_peel(deps)[1]))
    assert kinds == {False, True}


def test_peel_hand_cases():
    x = atom("x")
    # A self-loop.
    assert _check_peel({a: {a}}) == ((), {a})
    # A two-cycle with a tail into it, beside a clear head.
    assert _check_peel({a: {b}, b: {a}, c: {a}, d: {x}}) == ((d,), {a, b, c})
    # Non-heads beside the way into a cycle do not end the search.
    assert _check_peel({c: {x}, f: {x, e}, e: {x, a}, a: {b, x}, b: {a}}) == ((c,), {a, b, e, f})


@pytest.mark.parametrize("cycle", [False, True])
def test_peel_walks_a_chain_deeper_than_the_recursion_limit(cycle):
    chain = [atom("p", i) for i in range(5001)]
    deps = {chain[i]: {chain[i - 1]} for i in range(1, 5001)}
    if cycle:
        deps[chain[0]] = {chain[0]}
        assert _check_peel(deps) == ((), frozenset(chain))
    else:
        assert _check_peel(deps) == (tuple(chain[1:]), frozenset())

def test_stable_model_acyclic_demo_states():
    assert AcyclicPlan(IDB1.with_facts([c]).clauses).model() == {c}
    assert AcyclicPlan(IDB2.with_facts([d, a]).clauses).model() == {a, b, d}
    assert AcyclicPlan(GroundProgram.of([]).clauses).model() == frozenset()


def test_stable_model_acyclic_facts_parameter():
    assert AcyclicPlan(IDB1.clauses).model(frozenset([c, b])) == {a, b, c, f}


def test_stable_model_acyclic_rejects_cycles():
    with pytest.raises(CyclicProgramError):
        AcyclicPlan(UNION.clauses)
    with pytest.raises(CyclicProgramError):
        AcyclicPlan(GroundProgram.of([make_clause(a, [], [a])]).clauses)


def test_stable_model_acyclic_rejects_headed_facts():
    with pytest.raises(ValueError):
        AcyclicPlan(IDB2.clauses).model(frozenset([b]))


def test_atom_ordering_mixed_args():
    atoms = [atom("sp", "A1", 2), atom("sp", "A1", 0), atom("link", "A1", "A2"), atom("a")]
    assert sorted(atoms) == [
        atom("a"),
        atom("link", "A1", "A2"),
        atom("sp", "A1", 0),
        atom("sp", "A1", 2),
    ]


def test_atom_text_roundtrip():
    for x in (atom("a"), atom("sp", "A1", "A5", 2), atom("r", 0)):
        assert parse_atom(str(x)) == x
    with pytest.raises(ValueError):
        parse_atom("bad atom(")


def test_clause_text_roundtrip():
    c1 = make_clause(atom("spt", "A1", "A5", "A4", 3), [atom("link", "A1", "A4")], [atom("spl", "A1", "A5", 3)])
    assert parse_clause(format_clause(c1)) == c1
    assert parse_clause("a.") == make_clause(a)
    x = parse_clause("x :- not b, a, not a.")
    assert x == (atom("x"), (a,), (a, b))
    assert format_clause(x) == "x :- a, not a, not b."
    assert parse_clause(format_clause(x)) == x


def test_atoms_are_interned():
    x = Atom("sp", ("A1", 2))
    assert Atom("sp", ["A1", 2]) is x
    assert Atom("sp", iter(("A1", 2))) is x
    assert atom("sp", "A1", 2) is x
    assert parse_atom("sp(A1,2)") is x
    assert Atom("sp", ("A1", 3)) is not x
    assert Atom("a") is a and Atom("a", []) is a


@pytest.mark.parametrize("value", [
    atom("sp", "A1", "A5", 2),
    atom("a"),
])
def test_interned_values_survive_pickle_and_copy(value):
    assert pickle.loads(pickle.dumps(value)) is value
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value])[0] is value


def test_interned_values_are_immutable():
    x = atom("r", 0)
    for name, value in (("predicate", "s"), ("args", (1,)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        del x.args
    assert x.predicate == "r" and x.args == (0,)


def test_interned_repr():
    x = atom("sp", "A1", 2)
    assert repr(x) == "Atom(predicate='sp', args=('A1', 2))"


def test_atom_order_matches_definitional_key():
    rng = random.Random(7)
    symbols = ["A1", "A2", "B", "a", "z9", "_x", "", "-1"]
    atoms = []
    for _ in range(500):
        args = tuple(
            rng.randrange(-30, 30) if rng.random() < 0.5 else rng.choice(symbols)
            for _ in range(rng.randrange(4))
        )
        atoms.append(Atom(rng.choice(["p", "q", "sp", "link"]), args))
    # One predicate and arity, with every mix of kinds at each position.
    for kinds in itertools.product("is", repeat=3):
        for _ in range(20):
            args = tuple(rng.randrange(-5, 5) if k == "i" else rng.choice(symbols) for k in kinds)
            atoms.append(Atom("r", args))
    expected = sorted(atoms, key=atom_key)
    assert sorted(atoms) == expected
    assert sorted(atoms, key=Atom.sort_key) == expected
    # Half of the pairs share a predicate and an arity, so their keys
    # differ only in the arguments.
    groups = {}
    for x in atoms:
        groups.setdefault((x.predicate, len(x.args)), []).append(x)
    for _ in range(5000):
        x = rng.choice(atoms)
        y = rng.choice(groups[x.predicate, len(x.args)] if rng.random() < 0.5 else atoms)
        assert (x.sort_key() < y.sort_key()) == (atom_key(x) < atom_key(y)) == (x < y)
        assert (x.sort_key() == y.sort_key()) == (atom_key(x) == atom_key(y)) == (x is y)
