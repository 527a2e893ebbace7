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
from plankb.kg.store import Graph, Iri, Triple, TypedLiteral, UnwritableTerm
from plankb.kg.turtle import TurtleSyntaxError, export_turtle, import_turtle
from oracles import reference_export, reference_import_turtle

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
    [triple] = g.triples()
    assert triple.object == TypedLiteral("42", Iri(XSD_NS + "integer"))


def test_plain_literal_is_xsd_string():
    g = import_turtle('<{0}s> <{0}p> "plain" .\n'.format(EX))
    [triple] = g.triples()
    assert triple.object == TypedLiteral("plain", XSD_STRING)


def test_escape_roundtrip():
    tricky = 'line1\nline2\t"quoted" back\\slash'
    g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), string_literal(tricky))])
    out = import_turtle(export_turtle(g))
    [triple] = out.triples()
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


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_crlf_and_cr_end_lines_as_lf_does(small_export, eol):
    laid_out = "\n".join(small_export)
    free = "# comment\n<{0}s> <{0}p> <{0}o> . <{0}s> <{0}p> \"x\" .\n\n".format(EX)
    for text in (laid_out, free):
        assert import_turtle(text.replace("\n", eol)).triples() == import_turtle(text).triples()


def test_crlf_is_one_line_break_in_error_positions():
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle("<{0}s> <{0}p> <{0}o> .\r\n\r\n[] <{0}p> <{0}o> .".format(EX))
    assert (err.value.line, err.value.column) == (3, 1)


@pytest.mark.parametrize("lexical", ["a\rb", "a\\\rb"])
def test_raw_cr_in_a_literal_is_refused(lexical):
    with pytest.raises(TurtleSyntaxError, match="unexpected character '\"'"):
        import_turtle('<{0}s> <{0}p> "{1}" .\n'.format(EX, lexical))


def test_unexpected_character():
    with pytest.raises(TurtleSyntaxError, match=r"^1:1: unexpected character '\['$"):
        import_turtle("[] <{0}p> <{0}o> .".format(EX))
    with pytest.raises(TurtleSyntaxError, match=r"^1:1: unexpected character '\\x07'$"):
        import_turtle("\x07<{0}s> <{0}p> <{0}o> .".format(EX))


@pytest.mark.parametrize("bad", ["\x01", " "])
def test_refused_iri_character_reported_at_its_column(bad):
    text = "<{0}s> <{0}a{1}b> <{0}o> .\n".format(EX, bad)
    column = text.index("a" + bad) + 2
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle(text)
    assert str(err.value) == "1:{}: character {!r} not allowed in an IRI".format(column, bad)


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
    triples = g.triples()
    assert len({id(t.subject) for t in triples}) == len({id(t.object) for t in triples}) == 1


# Turtle that needs no blank after '.' or `a`, and a prefixed name whose
# local part would end in '.', which ends the statement instead.
_S, _P, _O, _T = (Iri("http://" + c) for c in "spot")
_TIGHT = [
    ("<http://s> <http://p> <http://o>.<http://t> <http://p> <http://o> .",
     {Triple(_S, _P, _O), Triple(_T, _P, _O)}),
    ('<http://s> <http://p> "x".#c', {Triple(_S, _P, string_literal("x"))}),
    ("<http://s> a<http://o> .", {Triple(_S, RDF_TYPE, _O)}),
    ("<http://s> a#c\n<http://o> .", {Triple(_S, RDF_TYPE, _O)}),
    ("@prefix ex: <http://x/> .\nex:s ex:p ex:o.",
     {Triple(Iri("http://x/s"), Iri("http://x/p"), Iri("http://x/o"))}),
    # `a` followed by name characters, or a ':', starts a prefixed name.
    ("@prefix a: <http://a/> . @prefix ab: <http://ab/> . @prefix a.b: <http://a.b/> .\n"
     "a:b ab:c a.b:c.\na:x.y a:b ab:.",
     {Triple(Iri("http://a/b"), Iri("http://ab/c"), Iri("http://a.b/c")),
      Triple(Iri("http://a/x.y"), Iri("http://a/b"), Iri("http://ab/"))}),
]


@pytest.mark.parametrize("text,triples", _TIGHT)
def test_no_blank_needed_after_a_dot_or_a(text, triples):
    assert _parsed(import_turtle, text) == ("graph", triples)
    assert _parsed(reference_import_turtle, text) == ("graph", triples)


# --- the reader against the tokenizer ----------------------------------------

# Texts outside the subset that the exporter never writes, each with the
# error the reader gives.  The first six are Turtle's grammar: `a` is
# rdf:type only as the verb, @prefix declares a name that ends in ':' and
# stands apart from it, and a prefix does not end in '.' (PN_PREFIX).
_REFUSED = [
    ("a a a .", "1:1: subject must be an IRI"),
    ("<s> <p> a .", "1:9: expected an IRI or literal"),
    ("@prefix ex:foo <http://x/> .", "1:1: malformed @prefix declaration"),
    ("@prefixex: <http://x/> .", "1:1: malformed @prefix declaration"),
    ("@prefix a.: <http://x/> .\na.:s a.:p a.:o .", "1:11: unexpected character ':'"),
    ("@prefix a: <http://x/> .\na.:s a:p a:o .", "2:3: unexpected character ':'"),
    ("@prefix p: <> .\np: <x> <y> .", "2:1: empty IRI"),
    ('@prefix p: <> .\n<s> <p> "v"^^p: .', "2:14: empty IRI"),
    ("<> <x> <y> .", "1:1: empty IRI"),
    ("@prefix p: <x> .\n<s> <p> q:o .", "2:9: undeclared prefix 'q'"),
    ('<s> <p> "v"^^"w" .', "1:14: expected datatype IRI"),
    ("<s> <p> <o> . <s> .", "1:19: expected an IRI or literal"),
    ('<s> "p" <o> .', "1:5: predicate must be an IRI"),
    ("<s> <p> <o> <q> .", "1:13: expected '.' after triple"),
    ("@prefix p: <x>", "1:1: expected '.' after @prefix"),
]


@pytest.mark.parametrize("text,message", _REFUSED)
def test_refused_text_reports_the_reference_error(text, message):
    assert _parsed(import_turtle, text) == ("TurtleSyntaxError", message)
    assert _parsed(reference_import_turtle, text) == ("TurtleSyntaxError", message)


def _parsed(parse, text):
    try:
        return "graph", parse(text).triples()
    except TurtleSyntaxError as exc:
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
    lambda line: line.replace(" ", " a", 1),                      # `a` with no blank after
    lambda line: line + "plan:s a plan:o.",                        # no blank after '.'
    lambda line: line.replace(" ", "\n# c\n", 1),
    lambda line: "# " + line.replace(" ", "\n", 2),             # comment on part of it
    lambda line: line + "\r",
    lambda line: line + "\n",
    lambda line: "",
]
_EXTRA_LINES = [
    "@prefix plan: <http://example.com/other#> .",                 # redeclared prefix
    "@prefix ex: <{}> .".format(EX),
    "@prefix plan:<{}> .".format(EX),
    "@prefix e: <> .",
    "@prefix e.x: <{}> .".format(EX),
    "@prefix e.: <{}> .".format(EX),
    "e.x:s e.x:p e.:o .",
    "e:s e:p e: .",
    "ex:s ex:p ex:o .",
    "ex:s a ex:o .",
    '<{0}s> <{0}p> "x"^^<{0}dt> .'.format(EX),
    '<{0}s> <{0}p> "x" ^^ <{0}dt> .'.format(EX),
    '<{0}s> <{0}p> "x".'.format(EX),
    "plan:s. plan:p plan:o. .",
    "plan:s plan:p plan:o.",
    "plan:s a<{0}o>.<{0}s> a#c\nplan:o.".format(EX),
    "# @prefix ex: <{}> .".format(EX),
]
# Statements are joined by one of these; the characters edited in are
# mostly ones that start, end or separate a token.
_JOINS = ["\n", " ", "", "\r", "\n#c\n"]
_EDIT_CHARACTERS = st.sampled_from(list('#.^:a<>"\\ \n')) | st.characters()


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


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_reader_agrees_with_the_reference(small_export, data):
    """`import_turtle` reads the graph the token-by-token reference reads,
    or raises its error, in any layout and after any edit."""
    lines = list(small_export)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):
            lines[i] = data.draw(st.sampled_from(_LINE_EDITS))(lines[i])
        else:
            lines.insert(i, data.draw(st.sampled_from(_EXTRA_LINES)))
    text = data.draw(st.sampled_from(_JOINS)).join(lines)
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 1))
        text = text[:i] + data.draw(st.text(_EDIT_CHARACTERS, max_size=2)) + text[i + cut:]
    assert _parsed(import_turtle, text) == _parsed(reference_import_turtle, text)


# --- names that need escaping ------------------------------------------------


def test_plan_iri_escapes_outside_iunreserved():
    assert plan_iri("fast downward").value == PLAN_NS + "fast%20downward"
    assert plan_iri("lama>x").value == PLAN_NS + "lama%3Ex"
    assert plan_iri("a-b_c.d~é").value == PLAN_NS + "a-b_c.d~é"
    assert plan_iri("100% #").value == PLAN_NS + "100%25%C2%A0%23"


def test_export_refuses_an_iri_turtle_cannot_hold():
    """The graph refuses it when it is stored, so no export meets it."""
    with pytest.raises(UnwritableTerm, match="cannot write"):
        Graph([Triple(Iri(EX + "a b"), Iri(EX + "p"), Iri(EX + "o"))])


_UNSAFE_NAMES = st.text(
    st.sampled_from(list(' <>"{|^`\\%#.:é 　\U0001f600-_~aZ0\t\n')) | st.characters(),
    min_size=1, max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_UNSAFE_NAMES, _UNSAFE_NAMES, _UNSAFE_NAMES), min_size=1, max_size=5))
def test_roundtrip_any_names(names):
    """Spaces, <, >, ", {, |, ^, a backtick, non-ASCII text and a trailing
    '.' in names and literals survive export and import."""
    g = Graph()
    for s, p, o in names:
        g.update([Triple(plan_iri(s), plan_iri(p), plan_iri(o)),
                  Triple(plan_iri(s), plan_iri(p), string_literal(o))])
    assert import_turtle(export_turtle(g)).triples() == g.triples()


_NAMED_TERMS = st.one_of(
    st.builds(plan_iri, _UNSAFE_NAMES),
    st.builds(lambda name: Iri(EX + plan_iri(name).value[len(PLAN_NS):]), _UNSAFE_NAMES),
    st.builds(string_literal, _UNSAFE_NAMES),
    st.builds(TypedLiteral, _UNSAFE_NAMES, st.sampled_from(
        [Iri(XSD_NS + "integer"), Iri(EX + "dt"), plan_iri("a b")])),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.builds(plan_iri, _UNSAFE_NAMES), st.builds(plan_iri, _UNSAFE_NAMES),
                          _NAMED_TERMS), max_size=12))
def test_export_matches_triple_by_triple_writer(triples):
    """Ranking term ids gives the bytes of writing each triple in
    `triple_key` order, for names that need escaping, IRIs written in full
    and literals of several datatypes."""
    g = Graph(Triple(s, p, o) for s, p, o in triples)
    assert export_turtle(g) == reference_export(g)


def test_export_matches_triple_by_triple_writer_on_bundled_graph(bw_graph):
    assert export_turtle(bw_graph) == reference_export(bw_graph)


# --- whatever the reader takes, the writer can write -------------------------

# IRI bodies, local names and literal text, some with one character from
# the full range added: a control character, white space, a quote or a
# backslash is more likely than the rest.  Any of them may be empty.
_ODD_CHARACTERS = st.sampled_from(list('\x00\x01\x1f\x7f\x85\xa0 \t\r\n"\\<>')) | st.characters()


def _with_any_character(plain):
    """Three plain texts to one with an odd character."""
    odd = st.builds("{}{}{}".format, plain, _ODD_CHARACTERS, plain)
    return st.one_of(plain, plain, plain, odd)


_ANY_TEXT = _with_any_character(st.text(st.sampled_from(list("abZ09_-.é/:#")), max_size=5))
_ANY_LOCAL = _with_any_character(st.from_regex(r"([A-Za-z_][A-Za-z0-9_.-]{0,3})?", fullmatch=True))
_PREFIX_NAMES = st.sampled_from(["p", "plan", "xsd"])
_NAMES = st.one_of(
    _ANY_TEXT.map("<{}>".format),
    st.builds("{}:{}".format, _PREFIX_NAMES, _ANY_LOCAL),
)
_OBJECTS = st.one_of(
    _NAMES,
    _ANY_TEXT.map('"{}"'.format),
    st.builds('"{}"^^{}'.format, _ANY_TEXT, _NAMES),
)
_PREFIXES = st.builds("@prefix {}: <{}> .".format, _PREFIX_NAMES, _ANY_TEXT)
_TRIPLES = st.builds("{} {} {} .".format, _NAMES, _NAMES | st.just("a"), _OBJECTS)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PREFIXES, min_size=1, max_size=3),
       st.lists(_TRIPLES | _PREFIXES, min_size=1, max_size=3))
def test_any_graph_the_reader_takes_the_writer_writes_back(prefixes, statements):
    """Text that `import_turtle` accepts gives a graph that `export_turtle`
    can write and that reads back the same; any other text is a
    TurtleSyntaxError."""
    try:
        g = import_turtle("\n".join(prefixes + statements) + "\n")
    except TurtleSyntaxError:
        return
    assert import_turtle(export_turtle(g)).triples() == g.triples()


# IRIs and literals as a caller may build them: IRI bodies with odd
# characters, in a namespace the writer abbreviates or not, and literals
# whose lexical form is not text or whose datatype is not an IRI.
_ANY_IRIS = st.builds(str.__add__, st.sampled_from(["", EX, PLAN_NS, XSD_NS]),
                      _ANY_TEXT).filter(bool).map(Iri)
_ANY_TERMS = _ANY_IRIS | st.builds(TypedLiteral, _ANY_TEXT | st.integers(), _ANY_IRIS | _ANY_TEXT)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ANY_TERMS, _ANY_TERMS, _ANY_TERMS), min_size=1, max_size=6))
def test_any_graph_update_takes_the_writer_writes_back(triples):
    """A graph that `Graph.update` builds exports and reads back the same;
    a triple it refuses, for a term Turtle cannot write or a literal where
    only an IRI can stand, leaves the size, the interned terms and the
    export as they were."""
    g = Graph()
    for triple in triples:
        before = (len(g), list(g._terms), export_turtle(g))
        try:
            g.update([triple])
        except (UnwritableTerm, TypeError):
            assert (len(g), g._terms, export_turtle(g)) == before
    assert import_turtle(export_turtle(g)).triples() == g.triples()
