"""Minimal s-expression reader for PDDL text.

`read_plain` reads the nested lists of lowercased strings that the parser
walks.  `read` reads the same tree with the line and column of each symbol
and list; the parser reads the text again with it only to place an error.
`;` starts a comment that runs to end of line.
"""

from __future__ import annotations

import re

from .ast import PddlSyntaxError


class Sym(str):
    """A symbol token; behaves as a plain string but remembers where it was."""

    line = column = 0


class SList(list):
    """A parenthesized list; remembers the position of its opening paren."""

    line = column = 0


# A paren, a symbol or a comment; the blanks " \t\r\n" between them are
# skipped.  Compiled on first use (re caches it), as in `kg.turtle`:
# compiling at import would slow every CLI start.
_TOKEN = r"[()]|[^ \t\r\n();]+|;[^\n]*"


def tokenize(text: str):
    """Yield (token, line, column); token is '(' , ')' or a symbol."""
    # No token holds a line break, so each line is read on its own.
    for line, row in enumerate(text.split("\n"), 1):
        for m in re.finditer(_TOKEN, row):
            tok = m.group()
            if tok[0] != ";":
                yield tok, line, m.start() + 1


def read_plain(text: str) -> list:
    """`read` without positions: the same tree, of plain lists and strings.
    Malformed text raises `read`'s error."""
    top: list = []
    cur, stack = top, []
    for tok in re.findall(_TOKEN, text):
        if tok == "(":
            lst: list = []
            cur.append(lst)
            stack.append(cur)
            cur = lst
        elif tok == ")":
            if not stack:
                return read(text)  # raises the error, with its position
            cur = stack.pop()
        elif tok[0] != ";":
            cur.append(tok.lower())
    if stack or len(top) != 1 or not isinstance(top[0], list):
        return read(text)
    return top[0]


def read(text: str) -> SList:
    """Parse one top-level s-expression; anything after it is an error."""
    stack: list[SList] = []
    top: list[SList] = []
    for tok, ln, col in tokenize(text):
        if tok == "(":
            lst = SList()
            lst.line, lst.column = ln, col
            if stack:
                stack[-1].append(lst)
            stack.append(lst)
        elif tok == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", ln, col)
            done = stack.pop()
            if not stack:
                top.append(done)
        elif not stack:
            raise PddlSyntaxError("expected '(' but found '{}'".format(tok), ln, col)
        else:
            sym = Sym(tok.lower())
            sym.line, sym.column = ln, col
            stack[-1].append(sym)
    if stack:
        raise PddlSyntaxError(
            "unbalanced '(': expected ')'", stack[-1].line, stack[-1].column
        )
    if not top:
        # The end of input: the last line, one past its last character.
        raise PddlSyntaxError("expected '(' but found end of input",
                              text.count("\n") + 1, len(text) - text.rfind("\n"))
    if len(top) > 1:
        raise PddlSyntaxError("unexpected trailing expression", top[1].line, top[1].column)
    return top[0]
