"""Turtle subset: @prefix declarations, prefixed names, plain and typed
literals, one triple per statement.  No blank nodes or collections.

`import_turtle` reads any layout with one regex match per statement and no
positions; only text it refuses goes through the tokenizer, which gives the
syntax error its line and column."""

from __future__ import annotations

import re
from typing import NoReturn

from .. import PlankbError
from .schema import PLAN_NS, RDF_NS, RDF_TYPE, XSD_NS, XSD_STRING
from .store import _IRI_CHAR, _IRIREF_BODY, Graph, Iri, Node, TypedLiteral, term_key

PREFIXES = {
    "plan": PLAN_NS,
    "rdf": RDF_NS,
    "xsd": XSD_NS,
}

# A local name that ends in '.' is not a Turtle PN_LOCAL; such IRIs are
# written in full.
_SAFE_LOCAL = re.compile(r"^[A-Za-z_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")


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
    and object.  It cannot fail: the graph holds only terms Turtle can write."""
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
  | (?P<dot>\.)
  | (?P<prefixdecl>@prefix)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*(?<!\.):(?:[A-Za-z_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?)
  | (?P<kw_a>a(?![A-Za-z0-9_-]))
    """


def _tokenize(text: str):
    # Compiled on first use: only text that `import_turtle` refuses gets here.
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


# The tokens of `_TOKEN`, cut where the tokenizer cuts them.  A comment
# ends only at the line end, so that a failed match cannot read on inside it.
_COMMENT = r'\#[^\r\n]*(?![^\r\n])'
# Blanks, then blanks and comments only where a '#' follows: a branch that
# starts with '#' fails faster than a repeat.
_GAP = r'[ \t\r\n]*(?:' + _COMMENT + r'(?:[ \t\r\n]|' + _COMMENT + ')*|)'
# An IRI in full or a prefixed name.  A local part ends where the tokenizer
# ends it, at the last character of its run of [A-Za-z0-9_.-] that is not
# '.', so that dots after it end the statement; the first branch, the same
# for a local part with no '.', is the exporter's common case and the
# fastest.  With no local part, the name ends where no local part can start.
# A prefix, here, in @prefix and in the tokenizer's `pname`, does not end in
# '.' (Turtle's PN_PREFIX).
_NAME = (r'<' + _IRI_CHAR + r'+>|[A-Za-z_][A-Za-z0-9_.-]*(?<!\.):(?:[A-Za-z_][A-Za-z0-9_-]*'
         r'(?![A-Za-z0-9_.-])|[A-Za-z_][A-Za-z0-9_.-]*(?<!\.)(?!\.*[A-Za-z0-9_-])|(?![A-Za-z_]))')
# Blanks and comments, then an @prefix declaration set apart from its name,
# a triple with `a` only as its verb, or the end.
_STATEMENT = (
    _GAP + r'(?:(?:@prefix(?=[ \t\r\n#])' + _GAP + r'([A-Za-z_][A-Za-z0-9_.-]*(?<!\.)):'
    + _GAP + '<(' + _IRI_CHAR + r'*)>|(' + _NAME + ')'
    + _GAP + '(' + _NAME + r'|a(?![A-Za-z0-9_-]))'
    + _GAP + '(?:(' + _NAME + r')|"([^"\\\r\n]*(?:\\[^\r\n][^"\\\r\n]*)*)"'
    r'(?:' + _GAP + r'\^\^' + _GAP + '(' + _NAME + '))?))' + _GAP + r'\.|\Z)'
)


def import_turtle(text: str) -> Graph:
    """Parse the Turtle subset into a new graph.

    Raises TurtleSyntaxError, with the line and column, on text outside the
    subset, a prefixed name whose prefix is not declared before it, or a
    name for an empty IRI.
    """
    g = Graph()
    intern = g._intern
    prefixes: dict[str, str] = {}
    # Term ids by the term's text; a prefix declared again clears both
    # tables, since its names now mean other IRIs.
    iris: dict[str, int] = {}
    literals: dict[tuple, int] = {}
    keys = []

    def resolve(name: str) -> Iri:
        if name[0] == "<":
            return Iri(name[1:-1])
        if name == "a":
            return RDF_TYPE
        prefix, _, local = name.partition(":")
        ns = prefixes.get(prefix)
        if ns is None or not ns + local:
            _locate_error(text)
        return Iri(ns + local)

    # Compiled on first use and then taken from re's cache, so that a CLI
    # command that reads no Turtle does not pay for it.
    match = re.compile(_STATEMENT).match
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if m is None:
            _locate_error(text)
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
            subject = iris[s] = intern(resolve(s))
        predicate = iris.get(p)
        if predicate is None:
            predicate = iris[p] = intern(resolve(p))
        if o is not None:
            obj = iris.get(o)
            if obj is None:
                obj = iris[o] = intern(resolve(o))
        else:
            obj = literals.get((lexical, dt))
            if obj is None:
                datatype = XSD_STRING if dt is None else resolve(dt)
                obj = literals[lexical, dt] = intern(TypedLiteral(_unescape(lexical), datatype))
        keys.append((subject, predicate, obj))
    g._add_keys(keys)
    return g


def _locate_error(text: str) -> NoReturn:
    """Raise the TurtleSyntaxError of text that `import_turtle` refused, at
    the first token that breaks the subset or holds a name that does not
    resolve.  It reads no term; a tokenizer error comes first."""
    tokens = list(_tokenize(text))
    prefixes: dict[str, str] = {}
    i = 0

    def term_at(j: int) -> tuple[str, int]:
        """The kind of the term at token `j` ("iri", "a" or "literal") and
        the index after it; raises on a name that does not resolve."""
        kind, value, line, col = tokens[j]
        if kind == "iriref" or kind == "pname":
            full = value[1:-1]
            if kind == "pname":
                prefix, _, local = value.partition(":")
                if prefix not in prefixes:
                    raise TurtleSyntaxError("undeclared prefix '{}'".format(prefix), line, col)
                full = prefixes[prefix] + local
            if not full:
                raise TurtleSyntaxError("empty IRI", line, col)
            return "iri", j + 1
        if kind == "kw_a":
            return "a", j + 1
        if kind == "literal":
            if tokens[j + 1][0] != "dcaret":
                return "literal", j + 1
            if tokens[j + 2][0] != "iriref" and tokens[j + 2][0] != "pname":
                raise TurtleSyntaxError("expected datatype IRI", *tokens[j + 2][2:])
            return "literal", term_at(j + 2)[1]
        raise TurtleSyntaxError("expected an IRI or literal", line, col)

    while tokens[i][0] != "eof":
        kind, _, line, col = tokens[i]
        if kind == "prefixdecl":
            # The name must be apart from "@prefix" and end in ':'.
            name_kind, name, name_line, name_col = tokens[i + 1]
            if (name_kind != "pname" or name[-1] != ":" or (name_line, name_col) == (line, col + 7)
                    or tokens[i + 2][0] != "iriref"):
                raise TurtleSyntaxError("malformed @prefix declaration", line, col)
            prefixes[name[:-1]] = tokens[i + 2][1][1:-1]
            if tokens[i + 3][0] != "dot":
                raise TurtleSyntaxError("expected '.' after @prefix", line, col)
            i += 4
            continue
        subject, i = term_at(i)
        if subject != "iri":
            raise TurtleSyntaxError("subject must be an IRI", line, col)
        at = tokens[i][2:]
        predicate, i = term_at(i)
        if predicate == "literal":
            raise TurtleSyntaxError("predicate must be an IRI", *at)
        obj, j = term_at(i)
        if obj == "a":
            raise TurtleSyntaxError("expected an IRI or literal", *tokens[i][2:])
        if tokens[j][0] != "dot":
            raise TurtleSyntaxError("expected '.' after triple", *tokens[j][2:])
        i = j + 1
    raise AssertionError("import_turtle refused Turtle that its tokenizer reads")
