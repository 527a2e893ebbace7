"""Typed abstract syntax for the STRIPS subset of PDDL.

All values are immutable; identifiers are stored lowercased (PDDL names are
case-insensitive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

OBJECT_TYPE = "object"

#: Requirement keywords the toolkit fully supports.  Anything else parses
#: into the requirements set but is flagged as unsupported.
SUPPORTED_REQUIREMENTS = frozenset(
    {":strips", ":typing", ":negative-preconditions", ":equality"}
)

EQUALITY_PREDICATE = "="


@dataclass(frozen=True)
class TypeName:
    """A declared object type; parent defaults to the universal type."""

    name: str
    parent: str = OBJECT_TYPE


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type) pairs

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True, slots=True)
class Atom:
    """Predicate applied to terms; variables start with '?'.

    The hash is computed once, equal to the generated ``hash((predicate,
    args))``, so sets of atoms iterate in the same order as without the cache.
    """

    predicate: str
    args: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a pickled hash is stale in another process.
        return Atom, (self.predicate, self.args)

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(a, a) for a in self.args))

    def is_ground(self) -> bool:
        return not any(a.startswith("?") for a in self.args)

    def __str__(self) -> str:
        if self.args:
            return "({} {})".format(self.predicate, " ".join(self.args))
        return "({})".format(self.predicate)


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def substitute(self, binding: dict[str, str]) -> "Literal":
        return Literal(self.atom.substitute(binding), self.negated)

    def __str__(self) -> str:
        return "(not {})".format(self.atom) if self.negated else str(self.atom)


@dataclass(frozen=True)
class ActionSchema:
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


@dataclass(frozen=True)
class DomainDef:
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

    @cached_property
    def _ancestors(self) -> dict[str, frozenset[str]]:
        """Each declared type with itself and its ancestors; a cycle in the
        parent links stops the walk instead of looping."""
        parents = self.type_parents()
        closure = {}
        for name in parents:
            seen: set[str] = set()
            cur: Optional[str] = name
            while cur is not None and cur not in seen:
                seen.add(cur)
                cur = parents.get(cur)
            closure[name] = frozenset(seen)
        return closure

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True if sub is sup or a descendant of it in the type forest."""
        if sup == OBJECT_TYPE or sub == sup:
            return True
        return sup in self._ancestors.get(sub, ())


@dataclass(frozen=True)
class ProblemDef:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init: frozenset[Atom]
    goal: frozenset[Literal]


@dataclass(frozen=True)
class WellFormednessIssue:
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
