"""Turtle subset: @prefix declarations, prefixed names, plain and typed
literals, one triple per statement.  No blank nodes or collections.

`import_turtle` reads the exporter's layout, one statement per line, with
one regex match per line; any other text goes through the tokenizer, which
also gives every syntax error its line and column."""

from __future__ import annotations

import re
from typing import Optional

from .. import PlankbError
from .schema import PLAN_NS, RDF_NS, XSD_NS, XSD_STRING
from .store import Graph, Iri, Node, TypedLiteral, term_key

PREFIXES = {
    "plan": PLAN_NS,
    "rdf": RDF_NS,
    "xsd": XSD_NS,
}

# A local name that ends in '.' is not a Turtle PN_LOCAL; such IRIs are
# written in full.
_SAFE_LOCAL = re.compile(r"^[A-Za-z_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")
# One character of an IRI between '<' and '>': what Turtle's IRIREF allows
# there (no control character or space), less any other white space.  The
# tokenizer, the line reader and the writer all use it, so every IRI the
# reader takes, the writer can write.
_IRI_CHAR = r'[^\x00-\x20<>"{}|^`\\\s]'
_IRIREF_BODY = re.compile(_IRI_CHAR + "+")


class TurtleSyntaxError(PlankbError):
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


_UNESCAPES = {"n": "\n", "r": "\r", "t": "\t"}


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return re.sub(r"\\(.)", lambda m: _UNESCAPES.get(m[1], m[1]), text, flags=re.DOTALL)


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
    line per triple, ordered by the `term_key`s of its subject, predicate
    and object.  Raises ValueError on an IRI that Turtle cannot hold (see
    `plan_iri` for names that always fit)."""
    lines = [
        "@prefix {}: <{}> .".format(p, ns) for p, ns in sorted(PREFIXES.items())
    ]
    lines.append("")
    # The graph's term ids are ranked through a list indexed by id, and each
    # term is formatted once.  `term_key` is one total order over all terms,
    # so sorting by term ranks is sorting by those keys.
    terms = g._terms
    order = sorted(range(len(terms)), key=lambda i: term_key(terms[i]))
    rank = [0] * len(terms)
    for r, i in enumerate(order):
        rank[i] = r
    text = [_format_term(terms[i]) for i in order]
    for s, p, o in sorted([(rank[s], rank[p], rank[o]) for s, p, o in g._triples]):
        lines.append("{} {} {} .".format(text[s], text[p], text[o]))
    return "\n".join(lines) + "\n"


# --- parsing ---------------------------------------------------------------

# Turtle's line end is one or more CR or LF characters; CRLF, CR and LF
# each end one line.  A string literal holds neither raw.
_TOKEN = r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\r\n]*)
  | (?P<newline>\r\n?|\n)
  | (?P<iriref><""" + _IRI_CHAR + r"""*>)
  | (?P<literal>"(?:[^"\\\r\n]|\\[^\r\n])*")
  | (?P<dcaret>\^\^)
  | (?P<dot>\.(?=\s|$))
  | (?P<prefixdecl>@prefix)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*?:[A-Za-z_][A-Za-z0-9_.-]*|[A-Za-z_][A-Za-z0-9_.-]*:)
  | (?P<kw_a>a(?=\s))
    """


def _tokenize(text: str):
    # Compiled on first use, as `_STATEMENT` is: most imports never get here.
    match = re.compile(_TOKEN, re.VERBOSE).match
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            if text[pos] == "<":
                # An IRI with a character it cannot hold: point at that one.
                body = _IRIREF_BODY.match(text, pos + 1)
                bad = pos + 1 if body is None else body.end()
                if bad == len(text):
                    raise TurtleSyntaxError("unterminated IRI", line, col)
                raise TurtleSyntaxError(
                    "character {!r} not allowed in an IRI".format(text[bad]),
                    line, col + bad - pos,
                )
            raise TurtleSyntaxError(
                "unexpected character {!r}".format(text[pos]), line, col
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


# One line of the exporter's layout: a blank line, an @prefix declaration,
# or a triple whose terms are separated by blanks.  Each name must be
# followed by a blank, so the regex cannot end a name earlier than the
# tokenizer does.
_IRI = '<' + _IRI_CHAR + r'+>|[A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z_][A-Za-z0-9_.-]*'
_STATEMENT = (
    r'(?:@prefix[ \t]+([A-Za-z_][A-Za-z0-9_.-]*):[ \t]+<(' + _IRI_CHAR + r'*)>'
    r'|(' + _IRI + r')[ \t]+(' + _IRI + r')[ \t]+'
    r'(?:(' + _IRI + r')|("(?:[^"\\\r\n]|\\[^\r\n])*")(?:\^\^(' + _IRI + r'))?))'
    r'[ \t]+\.[ \t]*(?:\r\n?|\n|\Z)'
    r'|[ \t]*(?:\r\n?|\n|\Z)'
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
    intern = g._intern
    prefixes: dict[str, str] = {}
    # Term ids by the term's text; a prefix declared again clears both
    # tables, since its names now mean other IRIs.
    iris: dict[str, int] = {}
    literals: dict[tuple, int] = {}
    keys = []

    def resolve(name: str) -> Optional[Iri]:
        if name[0] == "<":
            return Iri(name[1:-1])
        prefix, _, local = name.partition(":")
        ns = prefixes.get(prefix)
        return None if ns is None else Iri(ns + local)

    def iri(name: str) -> Optional[int]:
        found = resolve(name)
        if found is not None:
            found = iris[name] = intern(found)
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
        subject = iris.get(s)
        if subject is None:
            subject = iri(s)
        predicate = iris.get(p)
        if predicate is None:
            predicate = iri(p)
        if o is not None:
            obj = iris.get(o)
            if obj is None:
                obj = iri(o)
        else:
            obj = literals.get((lexical, dt))
            if obj is None:
                datatype = XSD_STRING if dt is None else resolve(dt)
                if datatype is None:
                    return None
                obj = literals[lexical, dt] = intern(
                    TypedLiteral(_unescape(lexical[1:-1]), datatype))
        if subject is None or predicate is None or obj is None:
            return None
        keys.append((subject, predicate, obj))
    g._add_keys(keys)
    return g


def _import_tokens(text: str) -> Graph:
    triples: list[tuple] = []
    prefixes: dict[str, str] = {}
    rdf_type = Iri(RDF_NS + "type")
    tokens = list(_tokenize(text))
    i = 0

    def iri(kind: str, value: str, line: int, col: int) -> Iri:
        if kind == "iriref":
            full = value[1:-1]
        else:
            prefix, _, local = value.partition(":")
            if prefix not in prefixes:
                raise TurtleSyntaxError("undeclared prefix '{}'".format(prefix), line, col)
            full = prefixes[prefix] + local
        if not full:
            raise TurtleSyntaxError("empty IRI", line, col)
        return Iri(full)

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
        triples.append((subject, predicate, obj))
    return Graph(triples)
