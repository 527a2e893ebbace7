"""Grounding, state transitions, and plan validation for STRIPS tasks."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional

from . import PlankbError
from .pddl.ast import (
    ActionSchema,
    Atom,
    DomainDef,
    EQUALITY_PREDICATE,
    Literal,
    PddlError,
    ProblemDef,
    literal_key,
)

# Ground atoms are plain Atoms with no variables; a state is a set of them
# under the closed-world assumption.
GroundAtom = Atom
State = frozenset


class DomainProblemMismatch(PlankbError):
    pass


class RepeatedParameter(PddlError):
    """An action schema lists one parameter name twice, as in `(?p ?p)`."""


class GroundAction(NamedTuple):
    """A fully instantiated action: one admitted combo of a compiled schema
    template.  Everything else is computed from the two fields when read,
    each atom set building only its own atoms; delete effects never overlap
    adds.  Reading `schema`, `binding` or `name` builds no atom."""

    template: Template
    objects: tuple[str, ...]

    @property
    def schema(self) -> str:
        return self.template.name

    @property
    def binding(self) -> tuple[tuple[str, str], ...]:
        """(variable, object) in parameter order."""
        return tuple(zip(self.template.variables, self.objects))

    @property
    def name(self) -> str:
        if self.objects:
            return "({} {})".format(self.schema, " ".join(self.objects))
        return "({})".format(self.schema)

    def _atoms(self, start: int, end: Optional[int]) -> frozenset[GroundAtom]:
        combo = self.objects
        return frozenset([
            Atom(predicate, tuple([combo[x] if type(x) is int else x for x in spec]))
            for predicate, spec in self.template.atoms[start:end]
        ])

    @property
    def pre_pos(self) -> frozenset[GroundAtom]:
        return self._atoms(0, self.template.ends[0])

    @property
    def pre_neg(self) -> frozenset[GroundAtom]:
        i, j, _ = self.template.ends
        return self._atoms(i, j)

    @property
    def add(self) -> frozenset[GroundAtom]:
        _, j, n = self.template.ends
        return self._atoms(j, n)

    @property
    def delete(self) -> frozenset[GroundAtom]:
        return self._atoms(self.template.ends[2], None) - self.add


class Plan(NamedTuple):
    steps: tuple[GroundAction, ...]

    @property
    def cost(self) -> int:
        return len(self.steps)

    def __len__(self) -> int:
        # The step count, while iterating a plan gives its one field: read
        # `steps`, never unpack the plan.
        return len(self.steps)


class ValidationReport(NamedTuple):
    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


# --- grounding through compiled schema templates ---------------------------
#
# A schema is compiled into a Template once per schema value: each literal
# argument becomes the position of its parameter in a binding combo (an int)
# or stays a constant (a str).  A template atom is (predicate, spec), spec
# holding the arguments.  `groundings` enumerates each template's combos,
# equality already filtered; `bench.compile_task` reads them straight into
# bitmasks, and a GroundAction is one (template, combo) pair.

_TemplateAtom = tuple  # (predicate, spec)


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
        return atom.predicate, spec(atom)

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


_TEMPLATES: dict[ActionSchema, Template] = {}


def _template(schema: ActionSchema) -> Template:
    """The compiled template of a schema, compiled once per schema value.

    Raises RepeatedParameter, on every call, for a schema that declares a
    parameter twice.
    """
    t = _TEMPLATES.get(schema)
    if t is None:
        t = _TEMPLATES[schema] = _compile(schema)
    return t


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
    is_subtype = d.subtype_test()
    candidates: dict[str, list[str]] = {}  # parameter type -> sorted objects
    out = []
    for schema in d.actions:
        t = _template(schema)
        for _, ptype in schema.params:
            if ptype not in candidates:
                candidates[ptype] = sorted(o for o, otype in pool if is_subtype(otype, ptype))
        combos = itertools.product(*(candidates[ptype] for _, ptype in schema.params))
        out.append((t, filter(t.admits, combos) if t.equalities else combos))
    return out


def ground(d: DomainDef, p: ProblemDef) -> list[GroundAction]:
    """Every type-consistent instantiation of every schema, in deterministic
    order: schema declaration order, then lexicographic bindings.  The
    actions build no atom (see GroundAction).

    Raises RepeatedParameter for a schema that declares a parameter twice.
    """
    actions: list[GroundAction] = []
    for t, combos in groundings(d, p):
        actions.extend([GroundAction(t, combo) for combo in combos])
    return actions


def applicable(s: State, a: GroundAction) -> bool:
    return a.pre_pos <= s and not (a.pre_neg & s)


def validate_plan(d: DomainDef, p: ProblemDef, plan: Plan) -> ValidationReport:
    """Run the plan from the initial state.  A failure names the first step
    that does not apply and its least failing precondition under
    `literal_key`, or else the least goal literal the final state misses."""
    state: State = frozenset(p.init)
    for i, step in enumerate(plan.steps):
        if not applicable(state, step):
            failing = [Literal(a) for a in step.pre_pos if a not in state]
            failing += [Literal(a, True) for a in step.pre_neg if a in state]
            return ValidationReport(False, "step {} {}: precondition {} fails".format(
                i, step.name, min(failing, key=literal_key)))
        state = (state - step.delete) | step.add
    unmet = [lit for lit in p.goal if lit.negated == (lit.atom in state)]
    if unmet:
        return ValidationReport(False, "goal literal {} does not hold in final state".format(
            min(unmet, key=literal_key)))
    return ValidationReport(True)


# --- plan text format: one "(name obj...)" step per line -------------------


class PlanParseError(PlankbError):
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
    is_subtype = d.subtype_test()

    def step(name: str, objects: tuple[str, ...]) -> Optional[GroundAction]:
        for schema, t in by_name.get(name, ()):
            if len(objects) != len(schema.params) or not all(
                any(is_subtype(otype, ptype) for otype in types.get(o, ()))
                for o, (_, ptype) in zip(objects, schema.params)
            ):
                continue
            if t.admits(objects):
                return GroundAction(t, objects)
        return None

    steps: list[GroundAction] = []
    for lineno, line, key in _plan_steps(text):
        action = step(*key)
        if action is None:
            raise _no_match(lineno, line)
        steps.append(action)
    return Plan(tuple(steps))

