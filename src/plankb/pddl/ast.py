"""Typed abstract syntax for the STRIPS subset of PDDL.

All values are immutable; identifiers are stored lowercased (PDDL names are
case-insensitive).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from ..frozen import Frozen

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


class Atom(Frozen):
    """Predicate applied to terms; variables start with '?'."""

    __slots__ = ("predicate", "args")
    _fields = __slots__
    predicate: str
    args: tuple[str, ...]

    def __init__(self, predicate: str, args: tuple[str, ...]):
        _set_predicate(self, predicate)
        _set_args(self, args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.predicate, self.args) == (other.predicate, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.predicate, self.args))

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(a, a) for a in self.args))

    def is_ground(self) -> bool:
        return not any(a.startswith("?") for a in self.args)

    def __str__(self) -> str:
        if self.args:
            return "({} {})".format(self.predicate, " ".join(self.args))
        return "({})".format(self.predicate)


_set_predicate, _set_args = Atom.predicate.__set__, Atom.args.__set__


class Literal(NamedTuple):
    atom: Atom
    negated: bool = False

    def substitute(self, binding: dict[str, str]) -> "Literal":
        return Literal(self.atom.substitute(binding), self.negated)

    def __str__(self) -> str:
        return "(not {})".format(self.atom) if self.negated else str(self.atom)


class ActionSchema(Frozen):
    """STRIPS action: flat conjunctive precondition plus add/delete lists.

    Delete effects shadowed by an add of the same atom are dropped at
    construction time (PDDL applies deletes before adds), so add and delete
    are always disjoint.
    """

    __slots__ = ("name", "params", "precondition", "add", "delete")
    _fields = __slots__
    name: str
    params: tuple[tuple[str, str], ...]
    precondition: frozenset[Literal]
    add: frozenset[Atom]
    delete: frozenset[Atom]

    def __init__(
        self,
        name: str,
        params: tuple[tuple[str, str], ...],
        precondition: frozenset[Literal],
        add: frozenset[Atom],
        delete: frozenset[Atom],
    ):
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "precondition", precondition)
        _set(self, "add", add)
        _set(self, "delete", delete)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.params, self.precondition, self.add, self.delete) == (
                other.name, other.params, other.precondition, other.add, other.delete)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.params, self.precondition, self.add, self.delete))

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


class DomainDef(Frozen):
    __slots__ = ("name", "requirements", "types", "constants", "predicates", "actions",
                 "_ancestors")
    _fields = __slots__[:-1]
    name: str
    requirements: frozenset[str]
    types: tuple[TypeName, ...]
    constants: tuple[tuple[str, str], ...]
    predicates: tuple[PredicateSchema, ...]
    actions: tuple[ActionSchema, ...]

    def __init__(
        self,
        name: str,
        requirements: frozenset[str],
        types: tuple[TypeName, ...],
        constants: tuple[tuple[str, str], ...],
        predicates: tuple[PredicateSchema, ...],
        actions: tuple[ActionSchema, ...],
    ):
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "requirements", requirements)
        _set(self, "types", types)
        _set(self, "constants", constants)
        _set(self, "predicates", predicates)
        _set(self, "actions", actions)
        _set(self, "_ancestors", _type_ancestors(self.type_parents()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.requirements, self.types, self.constants,
                    self.predicates, self.actions) == (
                other.name, other.requirements, other.types, other.constants,
                other.predicates, other.actions)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.requirements, self.types, self.constants,
                     self.predicates, self.actions))

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
        if sup == OBJECT_TYPE or sub == sup:
            return True
        return sup in self._ancestors.get(sub, ())


def _type_ancestors(parents: dict[str, str]) -> dict[str, frozenset[str]]:
    """Each declared type with itself and its ancestors; a cycle in the
    parent links stops the walk instead of looping."""
    closure = {}
    for name in parents:
        seen: set[str] = set()
        cur: Optional[str] = name
        while cur is not None and cur not in seen:
            seen.add(cur)
            cur = parents.get(cur)
        closure[name] = frozenset(seen)
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


class PddlError(Exception):
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
