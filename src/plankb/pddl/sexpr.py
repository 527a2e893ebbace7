"""Minimal s-expression reader for PDDL text.

Symbols carry their source position so later passes can report useful
errors.  `;` starts a comment that runs to end of line.
"""

from __future__ import annotations

import re

from .ast import PddlSyntaxError


class Sym(str):
    """A symbol token; behaves as a plain string but remembers where it was."""

    line: int
    column: int

    def __new__(cls, text: str, line: int = 0, column: int = 0):
        obj = super().__new__(cls, text)
        obj.line = line
        obj.column = column
        return obj


class SList(list):
    """A parenthesized list; remembers the position of its opening paren."""

    line: int
    column: int

    def __init__(self, items=(), line: int = 0, column: int = 0):
        super().__init__(items)
        self.line = line
        self.column = column


# A line break, a paren, a symbol or a comment; the blanks " \t\r" between
# them are skipped.
_TOKEN = r"\n|[()]|[^ \t\r\n();]+|;[^\n]*"


def tokenize(text: str):
    """Yield (token, line, column); token is '(' , ')' or a symbol."""
    line, line_start = 1, 0
    # Compiled on first use (re caches it), as in `kg.turtle`: compiling
    # at import would slow every CLI start.
    for m in re.finditer(_TOKEN, text):
        tok = m.group()
        if tok == "\n":
            line += 1
            line_start = m.end()
        elif tok[0] != ";":
            yield tok, line, m.start() - line_start + 1


def read(text: str) -> SList:
    """Parse one top-level s-expression; anything after it is an error."""
    forms = read_all(text)
    if not forms:
        raise PddlSyntaxError("expected '(' but found end of input")
    if len(forms) > 1:
        extra = forms[1]
        raise PddlSyntaxError(
            "unexpected trailing expression", extra.line, extra.column
        )
    return forms[0]


def read_all(text: str) -> list[SList]:
    stack: list[SList] = []
    top: list[SList] = []
    for tok, ln, col in tokenize(text):
        if tok == "(":
            lst = SList((), ln, col)
            if stack:
                stack[-1].append(lst)
            stack.append(lst)
        elif tok == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", ln, col)
            done = stack.pop()
            if not stack:
                top.append(done)
        else:
            sym = Sym(tok.lower(), ln, col)
            if not stack:
                raise PddlSyntaxError(
                    "expected '(' but found '{}'".format(tok), ln, col
                )
            stack[-1].append(sym)
    if stack:
        raise PddlSyntaxError(
            "unbalanced '(': expected ')'", stack[-1].line, stack[-1].column
        )
    return top


def position(node) -> tuple[int, int]:
    return getattr(node, "line", 0), getattr(node, "column", 0)
