"""Triple store indexes and the basic-graph-pattern query engine."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb.kg.schema import XSD_NS
from plankb.kg.store import (
    Graph,
    Iri,
    Triple,
    TypedLiteral,
    Variable,
    VariableInData,
    term_key,
)
from plankb.kg.turtle import export_turtle, import_turtle

from oracles import triple_key

EX = "http://example.org/"


def iri(local):
    return Iri(EX + local)


def lit(value):
    return TypedLiteral(str(value), Iri(XSD_NS + "integer"))


def t(s, p, o):
    return Triple(iri(s), iri(p), o if not isinstance(o, str) else iri(o))


def match(g, s=None, p=None, o=None):
    """The triples of g that hold the given terms (None = wildcard), read
    through a one-pattern query."""
    pattern = (Variable("s") if s is None else s, Variable("p") if p is None else p,
               Variable("o") if o is None else o)
    return {Triple(row.get("s", s), row.get("p", p), row.get("o", o))
            for row in g.query([pattern])}


# --- independent oracle -----------------------------------------------------


def oracle_query(triples, patterns, select=None, distinct=False):
    """Nested-loop BGP evaluation over the raw triple list."""
    solutions = [{}]
    for pattern in patterns:
        new = []
        for binding in solutions:
            for triple in triples:
                candidate = dict(binding)
                ok = True
                for term, value in zip(
                    pattern, (triple.subject, triple.predicate, triple.object)
                ):
                    if isinstance(term, Variable):
                        if term.name in candidate and candidate[term.name] != value:
                            ok = False
                            break
                        candidate[term.name] = value
                    elif term != value:
                        ok = False
                        break
                if ok:
                    new.append(candidate)
        solutions = new
    if select is not None:
        solutions = [{v: b[v] for v in select if v in b} for b in solutions]
    if distinct:
        unique = {}
        for b in solutions:
            key = tuple(sorted((k, term_key(v)) for k, v in b.items()))
            unique.setdefault(key, b)
        solutions = list(unique.values())
    solutions.sort(key=lambda b: tuple(sorted((k, term_key(v)) for k, v in b.items())))
    return solutions


FAMILY = [
    t("alice", "parent", "bob"),
    t("alice", "parent", "carol"),
    t("bob", "parent", "dave"),
    t("carol", "parent", "erin"),
    t("dave", "age", lit(12)),
    t("erin", "age", lit(9)),
]


def test_add_len():
    g = Graph(FAMILY)
    assert len(g) == 6
    g.update([FAMILY[0]])
    assert len(g) == 6


def test_match_by_each_position():
    g = Graph(FAMILY)
    assert match(g, s=iri("alice")) == set(FAMILY[:2])
    assert match(g, p=iri("age")) == set(FAMILY[4:])
    assert match(g, o=iri("dave")) == {FAMILY[2]}
    assert match(g, s=iri("alice"), o=iri("bob")) == {FAMILY[0]}
    assert match(g) == set(FAMILY)


def test_variables_rejected_in_data():
    with pytest.raises(VariableInData):
        Triple(iri("a"), iri("b"), Variable("x"))


def test_plain_tuples_of_terms_are_members():
    g = Graph(FAMILY)
    for t in FAMILY:
        assert tuple(t) in g and type(tuple(t)) is tuple
    assert (iri("bob"), iri("parent"), iri("alice")) not in g
    s, p, o = FAMILY[0]
    # Iri("x") == Variable("x"), but a variable is not a term.
    for other in [(Variable(s.value), p, o), (s, p), (s, p, o, o), [s, p, o], (s, p, o.value),
                  ([], [], []), ({}, p, o), (s, p, TypedLiteral("1", [])), "abc", None, 5,
                  {s: p}]:
        assert other not in g


@pytest.mark.parametrize("bad,error", [
    (Variable("x"), VariableInData),
    (EX + "x", TypeError),
    (None, TypeError),
    (5, TypeError),
    (TypedLiteral("1", []), TypeError),
])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_refused_triple_leaves_the_graph_unchanged(bad, error, position):
    """A triple with a bad term is refused before any of its new terms is
    interned; the triples before it in the same update are stored."""
    g = Graph(FAMILY)
    before = (len(g), list(g._terms), export_turtle(g))
    refused = [iri("new-s"), iri("new-p"), iri("new-o")]
    refused[position] = bad
    with pytest.raises(error):
        g.update([tuple(refused)])
    assert (len(g), list(g._terms), export_turtle(g)) == before
    good = (iri("good"), iri("parent"), lit(3))
    with pytest.raises(error):
        g.update(iter([good, tuple(refused), FAMILY[0]]))
    expected = Graph(FAMILY + [good])
    assert (len(g), g._terms, export_turtle(g)) == (
        len(expected), expected._terms, export_turtle(expected))


@pytest.mark.parametrize("item", [(iri("a"), iri("b")), None, iri("a"), "abc"])
def test_update_refuses_what_is_not_a_triple(item):
    g = Graph(FAMILY)
    with pytest.raises(TypeError):
        g.update([item])
    assert g.triples() == frozenset(FAMILY)


def test_grandparent_join_matches_oracle():
    g = Graph(FAMILY)
    patterns = [
        (Variable("g"), iri("parent"), Variable("p")),
        (Variable("p"), iri("parent"), Variable("c")),
    ]
    assert g.query(patterns) == oracle_query(FAMILY, patterns)
    rows = g.query(patterns, select=["g", "c"])
    assert {(r["g"].value, r["c"].value) for r in rows} == {
        (EX + "alice", EX + "dave"),
        (EX + "alice", EX + "erin"),
    }


def test_shared_variable_constrains():
    g = Graph([t("a", "p", "a"), t("a", "p", "b")])
    rows = g.query([(Variable("x"), iri("p"), Variable("x"))])
    assert rows == [{"x": iri("a")}]


def test_distinct_deduplicates_projection():
    g = Graph(FAMILY)
    patterns = [(Variable("s"), iri("parent"), Variable("o"))]
    rows = g.query(patterns, select=["s"], distinct=True)
    assert [r["s"] for r in rows] == [iri("alice"), iri("bob"), iri("carol")]


def test_empty_pattern_list_rejected():
    with pytest.raises(ValueError):
        Graph(FAMILY).query([])


def test_query_result_order_deterministic():
    g = Graph(FAMILY)
    patterns = [(Variable("s"), Variable("p"), Variable("o"))]
    assert g.query(patterns) == g.query(patterns)
    assert g.query(patterns) == oracle_query(FAMILY, patterns)


# --- randomized cross-checks -----------------------------------------------

_subjects = st.sampled_from(["a", "b", "c", "d"])
_preds = st.sampled_from(["p", "q"])
_triples = st.builds(t, _subjects, _preds, _subjects)


@settings(max_examples=60, deadline=None)
@given(st.lists(_triples, max_size=25))
def test_two_pattern_join_matches_oracle(triples):
    g = Graph(triples)
    data = sorted(set(triples), key=triple_key)
    patterns = [
        (Variable("x"), iri("p"), Variable("y")),
        (Variable("y"), Variable("r"), Variable("z")),
    ]
    assert g.query(patterns) == oracle_query(data, patterns)


def test_malformed_pattern_rejected_before_any_join():
    # The first pattern matches nothing; the second is still checked.
    with pytest.raises(ValueError, match="pattern must be a"):
        Graph(FAMILY).query([(iri("nobody"), iri("parent"), Variable("c")),
                             (Variable("c"), iri("age"))])


# Terms for random BGPs: a position takes a variable, a term that can occur
# there, or now and then one that cannot (a literal subject or predicate).
_variables = [Variable(v) for v in "xyzw"]
_subjects_or_vars = st.sampled_from([iri(x) for x in "abcd"] + _variables * 2 + [lit(1)])
_predicates_or_vars = st.sampled_from([iri("p"), iri("q")] + _variables + [iri("a")])
_objects_or_vars = st.sampled_from(
    [iri(x) for x in "abcd"] + [lit(1), lit(2)] + _variables * 2
)
_bgp_triples = st.builds(
    Triple,
    st.sampled_from([iri(x) for x in "abcd"]),
    st.sampled_from([iri("p"), iri("q")]),
    st.sampled_from([iri(x) for x in "abcd"] + [lit(1), lit(2)]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_bgp_triples, min_size=10, max_size=30),
    st.lists(st.tuples(_subjects_or_vars, _predicates_or_vars, _objects_or_vars),
             min_size=1, max_size=4),
    st.one_of(st.none(), st.lists(st.sampled_from("xyzwv"), max_size=4)),
    st.booleans(),
)
def test_query_matches_nested_loop_oracle(triples, patterns, select, distinct):
    """Whatever order the engine joins in, the rows are those of a nested
    loop in the written order: shared variables, a variable repeated in one
    pattern, constant-only patterns, projection onto bound and unbound
    names, and DISTINCT."""
    g = Graph(triples)
    data = sorted(g.triples(), key=triple_key)
    assert g.query(patterns, select=select, distinct=distinct) == oracle_query(
        data, patterns, select=select, distinct=distinct
    )


# --- the encoded store against a plain set of triples ------------------------

# Each draw builds new term objects, so equal terms reach the store as
# distinct objects.  A name gives an IRI and a literal with the same text,
# and one IRI can be subject, predicate and object; "z" is never stored, so
# every probe position can hold a term the graph lacks.


def _node(kind, name):
    if kind == "iri":
        return iri(name)
    return TypedLiteral(EX + name, Iri(XSD_NS + "string"))


_model_iris = st.builds(iri, st.sampled_from("abcd"))
_model_nodes = st.builds(_node, st.sampled_from(["iri", "literal"]), st.sampled_from("abcde"))
_model_triples = st.builds(Triple, _model_iris, _model_iris, _model_nodes)
_model_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _model_triples),
        st.tuples(st.just("update"), st.lists(_model_triples, max_size=6)),
    ),
    max_size=12,
)
_ABSENT_IRI = iri("z")
_ABSENT_LITERAL = _node("literal", "z")


def _probes(model):
    """Each stored triple, and each with one position replaced by a term the
    graph lacks, all rebuilt from new term objects."""
    out = [Triple(_ABSENT_IRI, _ABSENT_IRI, _ABSENT_LITERAL)]
    for t in model:
        s, p, o = (Iri(t.subject.value), Iri(t.predicate.value),
                   Iri(t.object.value) if isinstance(t.object, Iri)
                   else TypedLiteral(t.object.lexical, t.object.datatype))
        out += [Triple(s, p, o), Triple(_ABSENT_IRI, p, o), Triple(s, _ABSENT_IRI, o),
                Triple(s, p, _ABSENT_IRI), Triple(s, p, _ABSENT_LITERAL)]
    return out


@settings(max_examples=200, deadline=None)
@given(_model_ops)
def test_encoded_graph_matches_a_set_of_triples(ops):
    g = Graph()
    model: set[Triple] = set()
    for op, arg in ops:
        if op == "add":
            assert g.update([arg]) is g
            model.add(arg)
        else:
            assert g.update(iter(arg)) is g
            model.update(arg)
        assert len(g) == len(model)
    assert g.triples() == frozenset(model)
    for probe in _probes(model):
        assert (probe in g) == (probe in model)
        values = (probe.subject, probe.predicate, probe.object)
        for mask in range(8):
            given_ = [v if mask >> i & 1 else None for i, v in enumerate(values)]
            expect = {t for t in model
                      if all(v is None or v == w for v, w in
                             zip(given_, (t.subject, t.predicate, t.object)))}
            assert match(g, *given_) == expect
        s, p, o = values
        assert g.subjects_of_type(o, p) == sorted(
            {t.subject for t in model if t.predicate == p and t.object == o}, key=term_key)
        assert g.objects(s, p) == sorted(
            [t.object for t in model if t.subject == s and t.predicate == p], key=term_key)
    # A plain tuple of terms is in the graph as its Triple is; a tuple of
    # ids, a term's text or anything else that is not three terms never is.
    t = next(iter(model), FAMILY[0])
    assert ((t.subject, t.predicate, t.object) in g) == (t in model)
    for other in [(0, 0, 0), (0, 1, 2), None, EX + "a"]:
        assert other not in g


# Triples from a generator that builds fresh term objects at each step and
# drops them after it: (subject, predicate, object) numbers, where an object
# number below 0 is an integer literal.  Equal numbers repeat a value with
# new objects.
_fresh_steps = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(-3, 4)), max_size=40)


def _fresh_triples(steps):
    for s, p, o in steps:
        obj = TypedLiteral(str(-o), Iri(XSD_NS + "integer")) if o < 0 \
            else Iri(EX + "n" + str(o))
        yield Triple(Iri(EX + "n" + str(s)), Iri(EX + "p" + str(p)), obj)


@settings(max_examples=200, deadline=None)
@given(_fresh_steps)
def test_update_from_a_generator_of_fresh_terms(steps):
    """`update` of fresh term objects, each dropped as the next is built,
    stores what adding the triples one at a time stores."""
    one_by_one = Graph()
    for t in _fresh_triples(steps):
        one_by_one.update([t])
    g = Graph().update(_fresh_triples(steps))
    assert g.triples() == one_by_one.triples()
    assert len(g) == len(one_by_one)


# --- a hub term and the memory each stored triple costs ------------------------


def test_lookups_through_a_hub_match_a_triple_scan():
    """One subject with 3,000 triples over three predicates, and one object
    shared by 3,000 subjects, half of which the hub points at."""
    hub, shared = iri("hub"), iri("shared")
    triples = [Triple(hub, iri("p" + str(i % 3)), iri("n" + str(i))) for i in range(3000)]
    triples += [Triple(iri("n" + str(i)), iri("q" + str(i % 3)), shared)
                for i in range(1500, 4500)]
    g = Graph(triples)
    probes = [Triple(hub, iri("p0"), iri("n6")), Triple(iri("n2000"), iri("q2"), shared),
              Triple(hub, iri("q0"), shared), Triple(iri("absent"), iri("p1"), shared)]
    for probe in probes:
        for mask in range(8):
            given_ = [v if mask >> i & 1 else None for i, v in enumerate(probe)]
            assert match(g, *given_) == {t for t in triples if all(
                v is None or v == w for v, w in zip(given_, t))}, given_
    for p in [iri(name + str(k)) for name in "pq" for k in range(3)]:
        assert g.objects(hub, p) == sorted(
            [t.object for t in triples if t.subject == hub and t.predicate == p], key=term_key)
        assert g.subjects_of_type(shared, p) == sorted(
            [t.subject for t in triples if t.predicate == p and t.object == shared],
            key=term_key)
    # Two joins through the hub, each row a hub triple and a triple into
    # `shared` that meet at ?x: one from the hub's side, one from the other.
    into_shared = {}
    for t in triples:
        if t.object == shared:
            into_shared.setdefault(t.subject, []).append(t)
    meets = [(t, u) for t in triples if t.subject == hub for u in into_shared.get(t.object, ())]
    x, p, q = Variable("x"), Variable("p"), Variable("q")
    assert g.query([(hub, iri("p0"), x), (x, q, shared)]) == sorted(
        ({"x": t.object, "q": u.predicate} for t, u in meets if t.predicate == iri("p0")),
        key=lambda r: (term_key(r["q"]), term_key(r["x"])))
    assert g.query([(x, q, shared), (hub, p, x)]) == sorted(
        ({"x": t.object, "q": u.predicate, "p": t.predicate} for t, u in meets),
        key=lambda r: (term_key(r["p"]), term_key(r["q"]), term_key(r["x"])))


def test_stored_triples_cost_at_most_400_bytes_each(ipc_graph):
    """The memory an imported graph holds per triple, terms and indexes
    included, on the bundled corpus with the IPC results."""
    text = export_turtle(ipc_graph)
    # Empties the free lists, whose objects tracemalloc would not count.
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = import_turtle(text)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(g) == len(ipc_graph) > 1000
    assert grown / len(g) <= 400
