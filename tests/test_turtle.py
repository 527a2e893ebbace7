"""Turtle subset serialization and parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb.kg.schema import (
    PLAN_NS,
    RDF_TYPE,
    XSD_NS,
    XSD_STRING,
    integer_literal,
    plan_iri,
    string_literal,
)
from plankb.kg.store import Graph, Iri, Triple, TypedLiteral
from plankb.kg.turtle import (
    TurtleSyntaxError,
    _import_lines,
    _import_tokens,
    export_turtle,
    import_turtle,
)

EX = "http://example.org/"


def test_roundtrip_simple():
    g = Graph([
        Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o")),
        Triple(Iri(EX + "s"), Iri(EX + "count"), integer_literal(3)),
        Triple(Iri(EX + "s"), Iri(EX + "label"), string_literal("hello world")),
    ])
    assert import_turtle(export_turtle(g)).triples() == g.triples()


def test_roundtrip_bundled_graph(bw_graph):
    text = export_turtle(bw_graph)
    assert import_turtle(text).triples() == bw_graph.triples()


def test_export_deterministic(bw_graph):
    assert export_turtle(bw_graph) == export_turtle(bw_graph)


def test_export_uses_prefixed_names(bw_graph):
    text = export_turtle(bw_graph)
    assert "@prefix plan:" in text
    assert "plan:domain-blocksworld" in text


def test_rdf_type_keyword():
    g = import_turtle(
        "@prefix ex: <{0}> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "ex:s a ex:Klass .\n".format(EX)
    )
    assert (
        Triple(
            Iri(EX + "s"),
            Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            Iri(EX + "Klass"),
        )
        in g
    )


def test_typed_literal_parses():
    g = import_turtle(
        '@prefix xsd: <{0}> .\n<{1}s> <{1}p> "42"^^xsd:integer .\n'.format(
            XSD_NS, EX
        )
    )
    [triple] = list(g)
    assert triple.object == TypedLiteral("42", Iri(XSD_NS + "integer"))


def test_plain_literal_is_xsd_string():
    g = import_turtle('<{0}s> <{0}p> "plain" .\n'.format(EX))
    [triple] = list(g)
    assert triple.object == TypedLiteral("plain", XSD_STRING)


def test_escape_roundtrip():
    tricky = 'line1\nline2\t"quoted" back\\slash'
    g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), string_literal(tricky))])
    out = import_turtle(export_turtle(g))
    [triple] = list(out)
    assert triple.object.lexical == tricky


def test_comments_skipped():
    g = import_turtle(
        "# full line comment\n<{0}s> <{0}p> <{0}o> . # trailing\n".format(EX)
    )
    assert len(g) == 1


def test_undeclared_prefix_reports_position():
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle("\nex:s ex:p ex:o .\n")
    assert err.value.line == 2
    assert err.value.column == 1


def test_missing_dot_reports_position():
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle("<{0}s> <{0}p> <{0}o>\n<{0}x> <{0}y> <{0}z> .".format(EX))
    assert err.value.line == 2


def test_unexpected_character():
    with pytest.raises(TurtleSyntaxError):
        import_turtle("[] <{0}p> <{0}o> .".format(EX))


def test_literal_subject_rejected():
    with pytest.raises(TurtleSyntaxError):
        import_turtle('"lit" <{0}p> <{0}o> .'.format(EX))


def test_prefix_declared_again_rebinds_later_names():
    other = "http://example.com/v2#"
    g = import_turtle(
        "@prefix p: <{0}> .\n"
        "p:s p:p p:o .\n"
        'p:s p:n "1"^^p:int .\n'
        "@prefix p: <{1}> .\n"
        "p:s p:p p:o .\n"
        'p:s p:n "1"^^p:int .\n'.format(EX, other)
    )
    assert g.triples() == {
        Triple(Iri(ns + "s"), Iri(ns + "p"), Iri(ns + "o")) for ns in (EX, other)
    } | {
        Triple(Iri(ns + "s"), Iri(ns + "n"), TypedLiteral("1", Iri(ns + "int")))
        for ns in (EX, other)
    }


def test_repeated_names_share_one_iri():
    g = import_turtle("@prefix ex: <{0}> .\nex:s ex:p ex:o .\nex:s ex:q ex:o .\n".format(EX))
    assert len({id(t.subject) for t in g}) == len({id(t.object) for t in g}) == 1


# --- the line-per-statement reader against the tokenizer --------------------


def _parsed(parse, text):
    try:
        return "graph", parse(text).triples()
    except (TurtleSyntaxError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_LINE_EDITS = [
    lambda line: line[:-2] if line.endswith(" .") else line,      # dropped dot
    lambda line: line.replace(" ", "  ", 1),                      # extra space
    lambda line: line.replace(" ", "\t"),
    lambda line: "  " + line,
    lambda line: line + "  ",
    lambda line: line.replace(" .", "."),
    lambda line: line + " # comment",
    lambda line: "# " + line,
    lambda line: line.replace("plan:", "ex:", 1),                 # undeclared prefix
    lambda line: line.replace("plan:", "", 1),
    lambda line: line.replace("xsd:", "plan:", 1),
    lambda line: line.replace('"', '"\\"', 1),                    # escaped literals
    lambda line: line.replace('" .', '\\t\\\\" .'),
    lambda line: line.replace('"', "'"),
    lambda line: line.replace("> ", ">", 1),
    lambda line: line.replace("<", "<>", 1),
    lambda line: line.replace(" ", " a ", 1),
    lambda line: line + "\r",
    lambda line: line + "\n",
    lambda line: "",
]
_EXTRA_LINES = [
    "@prefix plan: <http://example.com/other#> .",                 # redeclared prefix
    "@prefix ex: <{}> .".format(EX),
    "@prefix plan:<{}> .".format(EX),
    "ex:s ex:p ex:o .",
    '<{0}s> <{0}p> "x"^^<{0}dt> .'.format(EX),
    '<{0}s> <{0}p> "x" ^^ <{0}dt> .'.format(EX),
    "plan:s. plan:p plan:o. .",
    "plan:s plan:p plan:o.",
]


@pytest.fixture(scope="module")
def small_export():
    g = Graph([
        Triple(plan_iri("s"), plan_iri("p"), plan_iri("o")),
        Triple(plan_iri("s"), plan_iri("n"), integer_literal(3)),
        Triple(plan_iri("s"), plan_iri("label"), string_literal('say "hi"\n')),
        Triple(plan_iri("t"), RDF_TYPE, plan_iri("Plan")),
        Triple(Iri(EX + "x"), plan_iri("p"), TypedLiteral("1", Iri(EX + "dt"))),
    ])
    return export_turtle(g).split("\n")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_line_reader_agrees_with_tokenizer(small_export, data):
    lines = list(small_export)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):
            lines[i] = data.draw(st.sampled_from(_LINE_EDITS))(lines[i])
        else:
            lines.insert(i, data.draw(st.sampled_from(_EXTRA_LINES)))
    text = "\n".join(lines)
    expected = _parsed(_import_tokens, text)
    fast = _import_lines(text)
    if fast is not None:
        assert expected == ("graph", fast.triples())
    assert _parsed(import_turtle, text) == expected


def test_line_reader_takes_exporter_output(bw_graph):
    g = _import_lines(export_turtle(bw_graph))
    assert g is not None and g.triples() == bw_graph.triples()


# --- names that need escaping ------------------------------------------------


def test_plan_iri_escapes_outside_iunreserved():
    assert plan_iri("fast downward").value == PLAN_NS + "fast%20downward"
    assert plan_iri("lama>x").value == PLAN_NS + "lama%3Ex"
    assert plan_iri("a-b_c.d~é").value == PLAN_NS + "a-b_c.d~é"
    assert plan_iri("100% #").value == PLAN_NS + "100%25%C2%A0%23"


def test_export_refuses_an_iri_turtle_cannot_hold():
    g = Graph([Triple(Iri(EX + "a b"), Iri(EX + "p"), Iri(EX + "o"))])
    with pytest.raises(ValueError, match="cannot write"):
        export_turtle(g)


_UNSAFE_NAMES = st.text(
    st.sampled_from(list(' <>"{|^`\\%#.:é 　\U0001f600-_~aZ0\t\n')) | st.characters(),
    min_size=1, max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_UNSAFE_NAMES, _UNSAFE_NAMES, _UNSAFE_NAMES), min_size=1, max_size=5))
def test_roundtrip_any_names(names):
    """Spaces, <, >, ", {, |, ^, a backtick, non-ASCII text and a trailing
    '.' in names and literals survive export and import, through the
    line-per-statement reader."""
    g = Graph()
    for s, p, o in names:
        g.add(Triple(plan_iri(s), plan_iri(p), plan_iri(o)))
        g.add(Triple(plan_iri(s), plan_iri(p), string_literal(o)))
    text = export_turtle(g)
    fast = _import_lines(text)
    assert fast is not None and fast.triples() == g.triples()
    assert import_turtle(text).triples() == g.triples()
