"""Grounding, state transitions, and plan validation for STRIPS tasks."""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .frozen import Frozen
from .pddl.ast import (
    ActionSchema,
    Atom,
    DomainDef,
    EQUALITY_PREDICATE,
    PddlError,
    ProblemDef,
)

# Ground atoms are plain Atoms with no variables; a state is a set of them
# under the closed-world assumption.
GroundAtom = Atom
State = frozenset


class DomainProblemMismatch(Exception):
    pass


class RepeatedParameter(PddlError):
    """An action schema lists one parameter name twice, as in `(?p ?p)`."""


class NotApplicable(Exception):
    def __init__(self, action: "GroundAction", literal: str):
        super().__init__("{} is not applicable: {} fails".format(action.name, literal))
        self.action = action
        self.literal = literal


_ATOM_SETS = ("pre_pos", "pre_neg", "add", "delete")


class GroundAction(Frozen):
    """A fully instantiated action; delete effects never overlap adds.

    Frozen and slotted (see `Frozen`).  Equality, hash and repr cover the
    seven constructor fields, and a copy or pickle is an eager action.  An
    action that `ground`, `resolve_plan` or `Template.action` makes is lazy:
    it holds its objects and its compiled template, and builds `binding` on
    its first read and the four atom sets on the first read of any of them.
    Reading `schema`, `binding`, `objects`, `name` or `cost` builds no atom.
    """

    __slots__ = ("schema", "binding", *_ATOM_SETS, "cost", "_objects", "_source")
    _fields = __slots__[:-2]
    schema: str
    binding: tuple[tuple[str, str], ...]  # (variable, object) in parameter order
    pre_pos: frozenset[GroundAtom]
    pre_neg: frozenset[GroundAtom]
    add: frozenset[GroundAtom]
    delete: frozenset[GroundAtom]
    cost: int
    _objects: tuple[str, ...]
    _source: Optional[Template]  # a lazy action's template; None otherwise

    def __init__(
        self,
        schema: str,
        binding: tuple[tuple[str, str], ...],
        pre_pos: frozenset[GroundAtom],
        pre_neg: frozenset[GroundAtom],
        add: frozenset[GroundAtom],
        delete: frozenset[GroundAtom],
        cost: int = 1,
    ):
        _set(self, "schema", schema)
        _set(self, "binding", binding)
        _set(self, "pre_pos", pre_pos)
        _set(self, "pre_neg", pre_neg)
        _set(self, "add", add)
        _set(self, "delete", delete)
        _set(self, "cost", cost)
        _set(self, "_objects", tuple([o for _, o in binding]))
        _set(self, "_source", None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.schema, self.binding, self.pre_pos, self.pre_neg,
                    self.add, self.delete, self.cost) == (
                other.schema, other.binding, other.pre_pos, other.pre_neg,
                other.add, other.delete, other.cost)
        return NotImplemented

    def __hash__(self):
        return hash((self.schema, self.binding, self.pre_pos, self.pre_neg,
                     self.add, self.delete, self.cost))

    def __getattr__(self, name: str):
        # Python calls this only for an unset attribute: on a lazy action,
        # `binding` and the four atom sets until their first read.
        source = self._source
        if source is None or (name != "binding" and name not in _ATOM_SETS):
            raise AttributeError(
                "'GroundAction' object has no attribute '{}'".format(name))
        if name == "binding":
            _set(self, name, tuple(zip(source.variables, self._objects)))
        else:
            for field_name, atoms in zip(_ATOM_SETS, _atom_sets(source, self._objects)):
                _set(self, field_name, atoms)
        return object.__getattribute__(self, name)

    @property
    def objects(self) -> tuple[str, ...]:
        return self._objects

    @property
    def name(self) -> str:
        if self.binding:
            return "({} {})".format(self.schema, " ".join(self.objects))
        return "({})".format(self.schema)


class Plan(NamedTuple):
    steps: tuple[GroundAction, ...]

    @property
    def cost(self) -> int:
        return sum(s.cost for s in self.steps)

    def __len__(self) -> int:
        # The step count, while iterating a plan gives its one field: read
        # `steps`, never unpack the plan.
        return len(self.steps)


class ValidationReport(NamedTuple):
    valid: bool
    failed_step: Optional[int] = None  # index of first failing step, or None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


# --- grounding through compiled schema templates ---------------------------
#
# A schema is compiled into a Template once per schema object: each literal
# argument becomes the position of its parameter in a binding combo (an int)
# or stays a constant (a str).  A template atom is (predicate, spec, key):
# when the atom's arguments are two or more parameters and no constant, spec
# is None and key maps a combo straight to the args tuple; otherwise spec
# holds the arguments and key is None.  `groundings` enumerates each
# template's combos, equality already filtered; `bench.compile_task` reads
# the templates straight into bitmasks, and `ground`, `resolve_plan` and
# `Template.action` make lazy GroundActions (`_lazy_action`) that hold their
# template and combo.  Only the actions whose sets are read, such as plan
# steps, build atoms: all four sets on the first read of any (`_atom_sets`),
# one Atom per template atom, so the sets iterate as an eager
# construction's do.

_TemplateAtom = tuple  # (predicate, spec, key)


class Template(NamedTuple):
    name: str
    variables: tuple[str, ...]
    equalities: tuple[tuple[object, object, bool], ...]  # (spec, spec, negated)
    atoms: tuple[_TemplateAtom, ...]  # pre_pos, then pre_neg, then add, then delete
    ends: tuple[int, int, int]  # where pre_pos, pre_neg and add end in atoms

    def admits(self, combo: tuple) -> bool:
        """Whether a combo satisfies the schema's equality literals."""
        for a, b, negated in self.equalities:
            x = combo[a] if type(a) is int else a
            y = combo[b] if type(b) is int else b
            if (x == y) == negated:
                return False
        return True

    def action(self, combo: tuple) -> GroundAction:
        """The ground action of one admitted combo, equal to the one `ground`
        builds for it."""
        return _lazy_action(self, combo)


def _compile(schema: ActionSchema) -> Template:
    position = {v: i for i, v in enumerate(schema.variables)}
    if len(position) != len(schema.variables):
        repeated = next(v for i, v in enumerate(schema.variables) if position[v] != i)
        raise RepeatedParameter(
            "action '{}' declares parameter '{}' twice".format(schema.name, repeated)
        )

    def spec(atom: Atom) -> tuple:
        return tuple(position.get(a, a) for a in atom.args)

    def template(atom: Atom) -> _TemplateAtom:
        sp = spec(atom)
        if len(sp) > 1 and all(type(x) is int for x in sp):
            return atom.predicate, None, itemgetter(*sp)
        return atom.predicate, sp, None

    equalities, pos, neg = [], [], []
    for lit in schema.precondition:
        if lit.atom.predicate == EQUALITY_PREDICATE:
            a, b = spec(lit.atom)
            equalities.append((a, b, lit.negated))
        else:
            (neg if lit.negated else pos).append(template(lit.atom))
    add = [template(a) for a in schema.add]
    delete = [template(a) for a in schema.delete]
    return Template(
        schema.name,
        schema.variables,
        tuple(equalities),
        tuple(pos + neg + add + delete),
        (len(pos), len(pos) + len(neg), len(pos) + len(neg) + len(add)),
    )


# schema -> (schema, template): one entry per distinct schema value, holding
# the object last compiled.  Equal schemas can iterate their literal sets in
# different orders and a template keeps that order (it decides how the atom
# sets iterate), so a template is reused only for the object it was compiled
# from.
_TEMPLATES: dict[ActionSchema, tuple[ActionSchema, Template]] = {}


def _template(schema: ActionSchema) -> Template:
    """The compiled template of a schema, compiled once per schema object.

    Raises RepeatedParameter, on every call, for a schema that declares a
    parameter twice.
    """
    hit = _TEMPLATES.get(schema)
    if hit is not None and hit[0] is schema:
        return hit[1]
    t = _compile(schema)
    _TEMPLATES[schema] = schema, t
    return t


def _atom_sets(t: Template, combo: tuple) -> tuple:
    """The (pre_pos, pre_neg, add, delete) sets of one combo of a template."""
    atoms = [
        Atom(predicate, key(combo) if spec is None
             else tuple([combo[x] if type(x) is int else x for x in spec]))
        for predicate, spec, key in t.atoms
    ]
    i, j, n = t.ends
    add = frozenset(atoms[j:n])
    # frozenset(set(x)) can lay out its table unlike frozenset(x); the
    # preconditions take the first form so they iterate like sets built
    # literal by literal (validate_plan names the first failing one).
    return frozenset(set(atoms[:i])), frozenset(set(atoms[i:j])), add, frozenset(atoms[n:]) - add


_new = object.__new__
_set = object.__setattr__


def _lazy_action(t: Template, combo: tuple) -> GroundAction:
    """The ground action of an admitted combo of a template, its binding and
    atom sets left unbuilt."""
    a = _new(GroundAction)
    _set(a, "schema", t.name)
    _set(a, "_objects", combo)
    _set(a, "cost", 1)
    _set(a, "_source", t)
    return a


def _check_match(d: DomainDef, p: ProblemDef) -> None:
    if p.domain_name != d.name:
        raise DomainProblemMismatch(
            "problem '{}' references domain '{}', not '{}'".format(
                p.name, p.domain_name, d.name
            )
        )


def groundings(d: DomainDef, p: ProblemDef) -> list[tuple[Template, Iterator[tuple]]]:
    """Every type-consistent binding of every schema that its equality
    literals admit, without instantiating any: one (template, combos) pair
    per schema in declaration order, the combos (one object per parameter)
    a lazy iterator in lexicographic order.

    Raises RepeatedParameter for a schema that declares a parameter twice.
    """
    _check_match(d, p)
    pool = list(d.constants) + list(p.objects)
    candidates: dict[str, list[str]] = {}  # parameter type -> sorted objects
    out = []
    for schema in d.actions:
        t = _template(schema)
        for _, ptype in schema.params:
            if ptype not in candidates:
                candidates[ptype] = sorted(o for o, otype in pool if d.is_subtype(otype, ptype))
        combos = itertools.product(*(candidates[ptype] for _, ptype in schema.params))
        out.append((t, filter(t.admits, combos) if t.equalities else combos))
    return out


def ground(d: DomainDef, p: ProblemDef) -> list[GroundAction]:
    """Every type-consistent instantiation of every schema, in deterministic
    order: schema declaration order, then lexicographic bindings.  The
    actions are lazy (see GroundAction).

    Raises RepeatedParameter for a schema that declares a parameter twice.
    """
    actions: list[GroundAction] = []
    for t, combos in groundings(d, p):
        actions.extend([_lazy_action(t, combo) for combo in combos])
    return actions


def applicable(s: State, a: GroundAction) -> bool:
    return a.pre_pos <= s and not (a.pre_neg & s)


def apply_action(s: State, a: GroundAction) -> State:
    for atom in a.pre_pos:
        if atom not in s:
            raise NotApplicable(a, str(atom))
    for atom in a.pre_neg:
        if atom in s:
            raise NotApplicable(a, "(not {})".format(atom))
    return (s - a.delete) | a.add


def validate_plan(d: DomainDef, p: ProblemDef, plan: Plan) -> ValidationReport:
    state: State = frozenset(p.init)
    for i, step in enumerate(plan.steps):
        if not applicable(state, step):
            missing = next(
                (str(a) for a in step.pre_pos if a not in state),
                next(("(not {})".format(a) for a in step.pre_neg if a in state), "?"),
            )
            return ValidationReport(
                False, i, "step {} {}: precondition {} fails".format(i, step.name, missing)
            )
        state = apply_action(state, step)
    for lit in p.goal:
        if lit.negated == (lit.atom in state):
            return ValidationReport(
                False, None, "goal literal {} does not hold in final state".format(lit)
            )
    return ValidationReport(True)


# --- plan text format: one "(name obj...)" step per line -------------------


class PlanParseError(Exception):
    pass


def _plan_steps(text: str):
    """Yield (line number, step text, (name, objects)) for each step line of
    an IPC-style solution file, lowercased as PDDL names are."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if not (line.startswith("(") and line.endswith(")")):
            raise PlanParseError("line {}: expected '(name obj...)'".format(lineno))
        parts = line[1:-1].split()
        if not parts:
            raise PlanParseError("line {}: empty step".format(lineno))
        yield lineno, line, (parts[0].lower(), tuple(x.lower() for x in parts[1:]))


def _no_match(lineno: int, line: str) -> PlanParseError:
    return PlanParseError("line {}: no ground action matches {}".format(lineno, line))


def parse_plan_text(text: str, actions: Iterable[GroundAction]) -> Plan:
    """Resolve an IPC-style solution file against a grounded action list."""
    index = {(a.schema, a.objects): a for a in actions}
    steps: list[GroundAction] = []
    for lineno, line, key in _plan_steps(text):
        action = index.get(key)
        if action is None:
            raise _no_match(lineno, line)
        steps.append(action)
    return Plan(tuple(steps))


def resolve_plan(d: DomainDef, p: ProblemDef, text: str) -> Plan:
    """Resolve an IPC-style solution file without grounding the problem.

    Each step is type-checked against its schema and instantiated alone, so
    the plan and the errors are those of ``parse_plan_text(text, ground(d,
    p))``.  Where schemas share a name, the last one that grounds the step
    wins, as in that function's index.
    """
    _check_match(d, p)
    types: dict[str, list[str]] = {}
    for o, otype in list(d.constants) + list(p.objects):
        types.setdefault(o, []).append(otype)
    by_name: dict[str, list] = {}
    for schema in d.actions:
        by_name.setdefault(schema.name, []).insert(0, (schema, _template(schema)))

    def step(name: str, objects: tuple[str, ...]) -> Optional[GroundAction]:
        for schema, t in by_name.get(name, ()):
            if len(objects) != len(schema.params) or not all(
                any(d.is_subtype(otype, ptype) for otype in types.get(o, ()))
                for o, (_, ptype) in zip(objects, schema.params)
            ):
                continue
            if t.admits(objects):
                return _lazy_action(t, objects)
        return None

    steps: list[GroundAction] = []
    for lineno, line, key in _plan_steps(text):
        action = step(*key)
        if action is None:
            raise _no_match(lineno, line)
        steps.append(action)
    return Plan(tuple(steps))

