"""Turtle subset: @prefix declarations, prefixed names, plain and typed
literals, one triple per statement.  No blank nodes or collections.

`import_turtle` reads the exporter's layout, one statement per line, with
one regex match per line; any other text goes through the tokenizer, which
also gives every syntax error its line and column."""

from __future__ import annotations

import re
from typing import Optional

from .schema import PLAN_NS, RDF_NS, XSD_NS, XSD_STRING
from .store import Graph, Iri, Node, Triple, TypedLiteral, term_key

PREFIXES = {
    "plan": PLAN_NS,
    "rdf": RDF_NS,
    "xsd": XSD_NS,
}

# A local name that ends in '.' is not a Turtle PN_LOCAL; such IRIs are
# written in full.
_SAFE_LOCAL = re.compile(r"^[A-Za-z_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")
# What the tokenizer reads between '<' and '>', less the control characters
# Turtle's IRIREF excludes.
_IRIREF_BODY = re.compile(r'[^\x00-\x20<>"{}|^`\\\s]+')


class TurtleSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("{}:{}: {}".format(line, column, message))
        self.line = line
        self.column = column


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _format_iri(iri: Iri) -> str:
    for prefix, ns in PREFIXES.items():
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if _SAFE_LOCAL.match(local):
                return "{}:{}".format(prefix, local)
    if not _IRIREF_BODY.fullmatch(iri.value):
        raise ValueError("cannot write {!r} as a Turtle IRI".format(iri.value))
    return "<{}>".format(iri.value)


def _format_term(term: Node) -> str:
    if isinstance(term, Iri):
        return _format_iri(term)
    if term.datatype == XSD_STRING:
        return '"{}"'.format(_escape(term.lexical))
    return '"{}"^^{}'.format(_escape(term.lexical), _format_iri(term.datatype))


def export_turtle(g: Graph) -> str:
    """One `@prefix` line per namespace, a blank line, then one `S P O .`
    line per triple in `Triple.key` order.  Raises ValueError on an IRI that
    Turtle cannot hold (see `plan_iri` for names that always fit)."""
    lines = [
        "@prefix {}: <{}> .".format(p, ns) for p, ns in sorted(PREFIXES.items())
    ]
    lines.append("")
    triples = g.triples()
    # Each distinct term is formatted once.  `term_key` is one total order
    # over all terms, so sorting by term ranks is sorting by `Triple.key`.
    terms = sorted({x for t in triples for x in (t.subject, t.predicate, t.object)},
                   key=term_key)
    rank = {x: i for i, x in enumerate(terms)}
    text = [_format_term(x) for x in terms]
    for s, p, o in sorted([(rank[t.subject], rank[t.predicate], rank[t.object])
                           for t in triples]):
        lines.append("{} {} {} .".format(text[s], text[p], text[o]))
    return "\n".join(lines) + "\n"


# --- parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<iriref><[^<>"{}|^`\\\s]*>)
  | (?P<literal>"(?:[^"\\\n]|\\.)*")
  | (?P<dcaret>\^\^)
  | (?P<dot>\.(?=\s|$))
  | (?P<prefixdecl>@prefix)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*?:[A-Za-z_][A-Za-z0-9_.-]*|[A-Za-z_][A-Za-z0-9_.-]*:)
  | (?P<kw_a>a(?=\s))
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise TurtleSyntaxError(
                "unexpected character '{}'".format(text[pos]), line, col
            )
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                yield kind, value, line, col
            col += len(value)
        pos = m.end()
    yield "eof", "", line, col


def _resolve_pname(pname: str, prefixes: dict[str, str], line: int, col: int) -> Iri:
    prefix, _, local = pname.partition(":")
    if prefix not in prefixes:
        raise TurtleSyntaxError("undeclared prefix '{}'".format(prefix), line, col)
    return Iri(prefixes[prefix] + local)


# One line of the exporter's layout: a blank line, an @prefix declaration,
# or a triple whose terms are separated by blanks.  Each name must be
# followed by a blank, so the regex cannot end a name earlier than the
# tokenizer does.
_IRI = r'<[^<>"{}|^`\\\s]+>|[A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z_][A-Za-z0-9_.-]*'
_STATEMENT = (
    r'(?:@prefix[ \t]+([A-Za-z_][A-Za-z0-9_.-]*):[ \t]+<([^<>"{}|^`\\\s]*)>'
    r'|(' + _IRI + r')[ \t]+(' + _IRI + r')[ \t]+'
    r'(?:(' + _IRI + r')|("(?:[^"\\\n]|\\.)*")(?:\^\^(' + _IRI + r'))?))'
    r'[ \t]+\.[ \t]*(?:\n|\Z)'
    r'|[ \t]*(?:\n|\Z)'
)


def import_turtle(text: str) -> Graph:
    """Parse the Turtle subset into a new graph.

    Raises TurtleSyntaxError, with the line and column, on text outside the
    subset or a prefixed name whose prefix is not declared before it.
    """
    g = _import_lines(text)
    return _import_tokens(text) if g is None else g


def _import_lines(text: str) -> Optional[Graph]:
    """The graph of text in the exporter's layout, or None for any other
    text, which `_import_tokens` then parses.  Accepts only text that
    `_import_tokens` reads to the same graph."""
    g = Graph()
    prefixes: dict[str, str] = {}
    # Terms by their text; a prefix declared again clears both tables.
    iris: dict[str, Iri] = {}
    literals: dict[tuple, TypedLiteral] = {}

    def iri(name: str) -> Optional[Iri]:
        if name[0] == "<":
            found = Iri(name[1:-1])
        else:
            prefix, _, local = name.partition(":")
            ns = prefixes.get(prefix)
            if ns is None:
                return None
            found = Iri(ns + local)
        iris[name] = found
        return found

    # Compiled on first use and then taken from re's cache, so that a CLI
    # command that reads no Turtle does not pay for it.
    match = re.compile(_STATEMENT).match
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if m is None:
            return None
        pos = m.end()
        prefix, ns, s, p, o, lexical, dt = m.groups()
        if s is None:
            if prefix is not None:
                if prefix in prefixes:
                    iris.clear()
                    literals.clear()
                prefixes[prefix] = ns
            continue
        subject = iris.get(s) or iri(s)
        predicate = iris.get(p) or iri(p)
        if o is not None:
            obj = iris.get(o) or iri(o)
        else:
            obj = literals.get((lexical, dt))
            if obj is None:
                datatype = XSD_STRING if dt is None else iris.get(dt) or iri(dt)
                if datatype is None:
                    return None
                obj = literals[lexical, dt] = TypedLiteral(_unescape(lexical[1:-1]), datatype)
        if subject is None or predicate is None or obj is None:
            return None
        g.add(Triple(subject, predicate, obj))
    return g


def _import_tokens(text: str) -> Graph:
    g = Graph()
    prefixes: dict[str, str] = {}
    # Each IRI or prefixed-name token is resolved once per call; a prefix
    # declared again clears the table, since its names now mean other IRIs.
    iris: dict[str, Iri] = {}
    rdf_type = Iri(RDF_NS + "type")
    tokens = list(_tokenize(text))
    i = 0

    def iri(kind: str, value: str, line: int, col: int) -> Iri:
        found = iris.get(value)
        if found is None:
            if kind == "iriref":
                found = Iri(value[1:-1])
            else:
                found = _resolve_pname(value, prefixes, line, col)
            iris[value] = found
        return found

    def term_at(j: int) -> tuple[Node, int]:
        kind, value, line, col = tokens[j]
        if kind == "iriref" or kind == "pname":
            return iri(kind, value, line, col), j + 1
        if kind == "kw_a":
            return rdf_type, j + 1
        if kind == "literal":
            lexical = _unescape(value[1:-1])
            if j + 1 < len(tokens) and tokens[j + 1][0] == "dcaret":
                dt_kind, dt_value, dt_line, dt_col = tokens[j + 2]
                if dt_kind != "iriref" and dt_kind != "pname":
                    raise TurtleSyntaxError("expected datatype IRI", dt_line, dt_col)
                return TypedLiteral(lexical, iri(*tokens[j + 2])), j + 3
            return TypedLiteral(lexical, XSD_STRING), j + 1
        raise TurtleSyntaxError("expected an IRI or literal", line, col)

    while tokens[i][0] != "eof":
        kind, value, line, col = tokens[i]
        if kind == "prefixdecl":
            if tokens[i + 1][0] != "pname" or tokens[i + 2][0] != "iriref":
                raise TurtleSyntaxError("malformed @prefix declaration", line, col)
            prefix = tokens[i + 1][1].rstrip(":")
            if prefix in prefixes:
                iris.clear()
            prefixes[prefix] = tokens[i + 2][1][1:-1]
            if tokens[i + 3][0] != "dot":
                raise TurtleSyntaxError("expected '.' after @prefix", line, col)
            i += 4
            continue
        subject, i = term_at(i)
        if not isinstance(subject, Iri):
            raise TurtleSyntaxError("subject must be an IRI", line, col)
        predicate, i = term_at(i)
        if not isinstance(predicate, Iri):
            raise TurtleSyntaxError("predicate must be an IRI", line, col)
        obj, i = term_at(i)
        kind, _, line, col = tokens[i]
        if kind != "dot":
            raise TurtleSyntaxError("expected '.' after triple", line, col)
        i += 1
        g.add(Triple(subject, predicate, obj))
    return g
