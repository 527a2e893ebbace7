"""Triple store indexes and the basic-graph-pattern query engine."""

import itertools

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

EX = "http://example.org/"


def iri(local):
    return Iri(EX + local)


def lit(value):
    return TypedLiteral(str(value), Iri(XSD_NS + "integer"))


def t(s, p, o):
    return Triple(iri(s), iri(p), o if not isinstance(o, str) else iri(o))


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


def test_add_discard_len():
    g = Graph(FAMILY)
    assert len(g) == 6
    g.add(FAMILY[0])
    assert len(g) == 6
    g.discard(FAMILY[0])
    assert len(g) == 5
    assert FAMILY[0] not in g


def test_match_by_each_position():
    g = Graph(FAMILY)
    assert g.match(s=iri("alice")) == set(FAMILY[:2])
    assert g.match(p=iri("age")) == set(FAMILY[4:])
    assert g.match(o=iri("dave")) == {FAMILY[2]}
    assert g.match(s=iri("alice"), o=iri("bob")) == {FAMILY[0]}
    assert g.match() == set(FAMILY)


def test_variables_rejected_in_data():
    with pytest.raises(VariableInData):
        Triple(iri("a"), iri("b"), Variable("x"))


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


def test_count():
    g = Graph(FAMILY)
    assert g.count([(Variable("s"), iri("parent"), Variable("o"))], var="s") == 3
    assert g.count([(Variable("s"), iri("parent"), Variable("o"))]) == 4


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
    data = sorted(set(triples), key=lambda x: x.key())
    patterns = [
        (Variable("x"), iri("p"), Variable("y")),
        (Variable("y"), Variable("r"), Variable("z")),
    ]
    assert g.query(patterns) == oracle_query(data, patterns)


@settings(max_examples=60, deadline=None)
@given(st.lists(_triples, max_size=25), st.lists(_triples, max_size=5))
def test_indexes_survive_discards(triples, removals):
    g = Graph(triples)
    for r in removals:
        g.discard(r)
    remaining = set(triples) - set(removals)
    assert g.triples() == frozenset(remaining)
    for s, p in itertools.product(["a", "b", "c", "d"], ["p", "q"]):
        expect = {x for x in remaining if x.subject == iri(s) and x.predicate == iri(p)}
        assert g.match(s=iri(s), p=iri(p)) == expect


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
    data = sorted(g.triples(), key=Triple.key)
    assert g.query(patterns, select=select, distinct=distinct) == oracle_query(
        data, patterns, select=select, distinct=distinct
    )
