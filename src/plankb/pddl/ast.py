"""Typed abstract syntax for the STRIPS subset of PDDL.

All values are immutable; identifiers are stored lowercased (PDDL names are
case-insensitive).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .. import PlankbError

OBJECT_TYPE = "object"

#: Requirement keywords the toolkit fully supports.  Anything else parses
#: into the requirements set but is flagged as unsupported.
SUPPORTED_REQUIREMENTS = frozenset(
    {":strips", ":typing", ":negative-preconditions", ":equality"}
)

EQUALITY_PREDICATE = "="


class TypeName(NamedTuple):
    """A declared object type; parent defaults to the universal type."""

    name: str
    parent: str = OBJECT_TYPE


class PredicateSchema(NamedTuple):
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type) pairs

    @property
    def arity(self) -> int:
        return len(self.params)


class Atom(NamedTuple):
    """Predicate applied to terms; variables start with '?'.  Atoms sort by
    predicate, then by arguments: the canonical order."""

    predicate: str
    args: tuple[str, ...]

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(a, a) for a in self.args))

    def is_ground(self) -> bool:
        return not any(a.startswith("?") for a in self.args)

    def __str__(self) -> str:
        if self.args:
            return "({} {})".format(self.predicate, " ".join(self.args))
        return "({})".format(self.predicate)


class Literal(NamedTuple):
    atom: Atom
    negated: bool = False

    def substitute(self, binding: dict[str, str]) -> "Literal":
        return Literal(self.atom.substitute(binding), self.negated)

    def __str__(self) -> str:
        return "(not {})".format(self.atom) if self.negated else str(self.atom)


def literal_key(lit: Literal):
    """The canonical order of literals: positive ones first, then by atom.
    The printer writes sets of literals in it, and messages that name one
    member of a set name the least."""
    return (lit.negated, lit.atom)


class ActionSchema(NamedTuple):
    """STRIPS action: flat conjunctive precondition plus add/delete lists.

    Delete effects shadowed by an add of the same atom are dropped at
    construction time (PDDL applies deletes before adds), so add and delete
    are always disjoint.
    """

    name: str
    params: tuple[tuple[str, str], ...]
    precondition: frozenset[Literal]
    add: frozenset[Atom]
    delete: frozenset[Atom]

    @staticmethod
    def make(
        name: str,
        params: Iterable[tuple[str, str]],
        precondition: Iterable[Literal],
        add: Iterable[Atom],
        delete: Iterable[Atom],
    ) -> "ActionSchema":
        add_set = frozenset(add)
        return ActionSchema(
            name,
            tuple(params),
            frozenset(precondition),
            add_set,
            frozenset(delete) - add_set,
        )

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.params)


class DomainDef(NamedTuple):
    name: str
    requirements: frozenset[str]
    types: tuple[TypeName, ...]
    constants: tuple[tuple[str, str], ...]
    predicates: tuple[PredicateSchema, ...]
    actions: tuple[ActionSchema, ...]

    def predicate_map(self) -> dict[str, PredicateSchema]:
        return {p.name: p for p in self.predicates}

    def action_map(self) -> dict[str, ActionSchema]:
        return {a.name: a for a in self.actions}

    def type_parents(self) -> dict[str, str]:
        return {t.name: t.parent for t in self.types}

    def declared_types(self) -> set[str]:
        declared = {OBJECT_TYPE}
        for t in self.types:
            declared.add(t.name)
        return declared

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True if sub is sup or a descendant of it in the type forest."""
        return self.subtype_test()(sub, sup)

    def subtype_test(self) -> Callable[[str, str], bool]:
        """`is_subtype` with the type closure looked up once, for a caller
        that tests many pairs."""
        ancestors = _type_ancestors(self.types)

        def is_subtype(sub: str, sup: str) -> bool:
            return sup == OBJECT_TYPE or sub == sup or sup in ancestors.get(sub, ())
        return is_subtype


_ANCESTORS: dict[tuple[TypeName, ...], dict[str, frozenset[str]]] = {}


def _type_ancestors(types: tuple[TypeName, ...]) -> dict[str, frozenset[str]]:
    """Each declared type with itself and its ancestors, computed once per
    `types` value; a cycle in the parent links stops the walk instead of
    looping."""
    closure = _ANCESTORS.get(types)
    if closure is None:
        parents = {t.name: t.parent for t in types}
        closure = {}
        for name in parents:
            seen: set[str] = set()
            cur: Optional[str] = name
            while cur is not None and cur not in seen:
                seen.add(cur)
                cur = parents.get(cur)
            closure[name] = frozenset(seen)
        _ANCESTORS[types] = closure
    return closure


class ProblemDef(NamedTuple):
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init: frozenset[Atom]
    goal: frozenset[Literal]


class WellFormednessIssue(NamedTuple):
    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return "{} at {}: {}".format(self.code, self.location, self.message)


class PddlError(PlankbError):
    """Base class for PDDL parsing and validation failures."""


class PddlSyntaxError(PddlError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__("{}:{}: {}".format(line, column, message))
        self.line = line
        self.column = column


class UnsupportedConstruct(PddlError):
    def __init__(self, construct: str, detail: str = ""):
        super().__init__(
            "unsupported construct: {}{}".format(construct, " " + detail if detail else "")
        )
        self.construct = construct


class ArityMismatch(PddlError):
    pass


class UnknownPredicate(PddlError):
    pass


class UnknownType(PddlError):
    pass
