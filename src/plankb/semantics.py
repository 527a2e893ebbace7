"""Grounding, state transitions, and plan validation for STRIPS tasks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional

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


@dataclass(frozen=True)
class GroundAction:
    """A fully instantiated action; delete effects never overlap adds."""

    schema: str
    binding: tuple[tuple[str, str], ...]  # (variable, object) in parameter order
    pre_pos: frozenset[GroundAtom]
    pre_neg: frozenset[GroundAtom]
    add: frozenset[GroundAtom]
    delete: frozenset[GroundAtom]
    cost: int = 1

    @property
    def objects(self) -> tuple[str, ...]:
        return tuple(o for _, o in self.binding)

    @property
    def name(self) -> str:
        if self.binding:
            return "({} {})".format(self.schema, " ".join(self.objects))
        return "({})".format(self.schema)


@dataclass(frozen=True)
class Plan:
    steps: tuple[GroundAction, ...]

    @property
    def cost(self) -> int:
        return sum(s.cost for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failed_step: Optional[int] = None  # index of first failing step, or None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


# --- grounding through compiled schema templates ---------------------------
#
# A schema is compiled once into a Template: each literal argument becomes the
# position of its parameter in a binding combo (an int) or stays a constant
# (a str).  A template atom is (predicate, spec, key), where key maps a combo
# to the values of the parameters the atom uses; spec is None when that key is
# already the args tuple (two or more parameters, no constant).  `groundings`
# enumerates each template's combos, equality already filtered; `ground`
# instantiates every one of them, and `bench.compile_task` reads the
# templates straight into bitmasks.  Instantiating looks each atom up in a
# per-template cache under key(combo), and on a miss in a table keyed by
# (predicate, args) shared by the whole call, so every distinct ground atom is
# built and hashed once per call.

_TemplateAtom = tuple  # (predicate, spec, key)


def _no_parameters(combo: tuple) -> tuple:
    return ()


@dataclass(frozen=True)
class Template:
    name: str
    variables: tuple[str, ...]
    positions: tuple[int, ...]  # combo position bound to each variable
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
        return _instantiate(self, combo, [{} for _ in self.atoms], {})


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
        used = [x for x in sp if type(x) is int]
        if not used:
            return atom.predicate, sp, _no_parameters
        return atom.predicate, None if len(used) == len(sp) > 1 else sp, itemgetter(*used)

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
        tuple(position[v] for v in schema.variables),
        tuple(equalities),
        tuple(pos + neg + add + delete),
        (len(pos), len(pos) + len(neg), len(pos) + len(neg) + len(add)),
    )


def _instantiate(t: Template, combo: tuple, caches: list[dict], table: dict) -> GroundAction:
    atoms = []
    for (predicate, spec, key), cache in zip(t.atoms, caches):
        k = key(combo)
        atom = cache.get(k)
        if atom is None:
            if spec is None:
                args = k
            else:
                args = tuple(combo[x] if type(x) is int else x for x in spec)
            atom = table.get((predicate, args))
            if atom is None:
                atom = table[predicate, args] = Atom(predicate, args)
            cache[k] = atom
        atoms.append(atom)
    i, j, n = t.ends
    add = frozenset(atoms[j:n])
    # frozenset(set(x)) can lay out its table unlike frozenset(x); the
    # preconditions take the first form so they iterate like sets built
    # literal by literal (validate_plan names the first failing one).
    return GroundAction(
        t.name,
        tuple(zip(t.variables, [combo[x] for x in t.positions])),
        frozenset(set(atoms[:i])),
        frozenset(set(atoms[i:j])),
        add,
        frozenset(atoms[n:]) - add,
    )


def instantiate(schema: ActionSchema, binding: dict[str, str]) -> Optional[GroundAction]:
    """Ground a schema under a complete binding.

    Equality literals are resolved statically; returns None when one fails.
    """
    t = _compile(schema)
    combo = tuple(binding[v] for v in schema.variables)
    return t.action(combo) if t.admits(combo) else None


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
    out = []
    for schema in d.actions:
        t = _compile(schema)
        combos = itertools.product(*(
            sorted(o for o, otype in pool if d.is_subtype(otype, ptype))
            for _, ptype in schema.params
        ))
        out.append((t, filter(t.admits, combos) if t.equalities else combos))
    return out


def ground(d: DomainDef, p: ProblemDef) -> list[GroundAction]:
    """Every type-consistent instantiation of every schema, in deterministic
    order: schema declaration order, then lexicographic bindings.

    Raises RepeatedParameter for a schema that declares a parameter twice.
    """
    table: dict = {}
    actions: list[GroundAction] = []
    for t, combos in groundings(d, p):
        caches = [{} for _ in t.atoms]
        actions.extend([_instantiate(t, combo, caches, table) for combo in combos])
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


def goal_satisfied(s: State, p: ProblemDef) -> bool:
    for lit in p.goal:
        if lit.negated == (lit.atom in s):
            return False
    return True


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


def reachable_states(init: State, actions: Iterable[GroundAction], limit: int = 10**6):
    """Breadth-first enumeration of all states reachable from init."""
    actions = list(actions)
    seen = {init}
    frontier = [init]
    while frontier:
        nxt = []
        for s in frontier:
            for a in actions:
                if applicable(s, a):
                    t = apply_action(s, a)
                    if t not in seen:
                        if len(seen) >= limit:
                            raise RuntimeError("reachable state limit exceeded")
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return seen


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
        t = _compile(schema)
        by_name.setdefault(schema.name, []).insert(0, (schema, t, [{} for _ in t.atoms]))
    table: dict = {}

    def step(name: str, objects: tuple[str, ...]) -> Optional[GroundAction]:
        for schema, t, caches in by_name.get(name, ()):
            if len(objects) != len(schema.params) or not all(
                any(d.is_subtype(otype, ptype) for otype in types.get(o, ()))
                for o, (_, ptype) in zip(objects, schema.params)
            ):
                continue
            if t.admits(objects):
                return _instantiate(t, objects, caches, table)
        return None

    steps: list[GroundAction] = []
    for lineno, line, key in _plan_steps(text):
        action = step(*key)
        if action is None:
            raise _no_match(lineno, line)
        steps.append(action)
    return Plan(tuple(steps))


def format_plan(plan: Plan) -> str:
    return "".join(step.name + "\n" for step in plan.steps)
