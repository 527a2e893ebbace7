"""Turtle subset serialization and parsing."""

import pytest

from plankb.kg.schema import XSD_NS, XSD_STRING, integer_literal, string_literal
from plankb.kg.store import Graph, Iri, Triple, TypedLiteral
from plankb.kg.turtle import TurtleSyntaxError, export_turtle, import_turtle

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
