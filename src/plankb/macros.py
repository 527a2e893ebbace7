"""Macro-operator mining: adjacent pair extraction from stored plans,
precondition chaining checks, pairwise composition, and domain injection."""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, NamedTuple, Optional
from urllib.parse import unquote

from . import PlankbError
from .kg.schema import (
    RDF_TYPE, SCHEMA, integer_literal, is_integer_text, plan_iri, string_literal,
)
from .kg.store import Graph, Iri, TypedLiteral
from .mapper import MappingError, UnknownDomain, action_iri
from .pddl.ast import ActionSchema, Atom, DomainDef, Literal, EQUALITY_PREDICATE
from .semantics import GroundAction, Plan, _template


class UnknownSchema(PlankbError):
    pass


class TypeConflict(PlankbError):
    pass


class NoPlansForDomain(PlankbError):
    pass


class MacroReportError(PlankbError):
    """A mine-macros JSON report that is not a list of lifted pairs."""


class LiftedPair(NamedTuple):
    """An adjacent action pair lifted by shared-object argument positions.

    `pattern` assigns one variable id per combined argument slot (the first
    action's `first_arity` slots, then the second's); slots that held the
    same object share an id.  `frequency` counts identical lifted patterns
    across the corpus.
    """

    first: str
    second: str
    pattern: tuple[int, ...]
    first_arity: int
    frequency: int = 1

    def with_frequency(self, n: int) -> "LiftedPair":
        return LiftedPair(self.first, self.second, self.pattern, self.first_arity, n)


def lift_pair(
    first: str,
    first_args: Iterable[str],
    second: str,
    second_args: Iterable[str],
) -> LiftedPair:
    """Canonically rename the combined argument list by first occurrence."""
    first_args = tuple(first_args)
    combined = first_args + tuple(second_args)
    ids: dict[str, int] = {}
    pattern = []
    for obj in combined:
        if obj not in ids:
            ids[obj] = len(ids)
        pattern.append(ids[obj])
    return LiftedPair(first, second, tuple(pattern), len(first_args))


class MacroSchema(NamedTuple):
    name: str
    params: tuple[tuple[str, str], ...]
    precondition: frozenset[Literal]
    add: frozenset[Atom]
    delete: frozenset[Atom]
    first: str
    second: str
    first_args: tuple[str, ...]  # macro variables feeding the first action
    second_args: tuple[str, ...]
    frequency: int

    def to_action_schema(self, name: str) -> ActionSchema:
        return ActionSchema.make(
            name, self.params, self.precondition, self.add, self.delete
        )


# --- mining ----------------------------------------------------------------


Step = tuple[str, tuple[str, ...]]  # (action name, argument objects)


def plan_step_sequences(g: Graph, domain: Iri) -> dict[Iri, list[Step]]:
    """Ordered steps per stored plan of a domain, read from each step's
    index and `(name arg ...)` text in one walk down the subject index, on
    ids: domain, `hasProblem`, `hasPlan`, `hasActionStep`, then each step's
    `hasStepIndex` and `hasActionName`.  A step gives one entry per (index,
    text) pair, and a plan two problems have lists its steps twice, as the
    rows of the five-pattern query do.  Raises MappingError, naming the step
    node and the value, on an index that is not an integer literal (ASCII
    digits, as `integer_literal` writes it) or a text that is not a literal
    naming an action; of several, on the first the walk meets, which follows
    each node's triples in the order they were stored."""
    ids, terms, find = g._ids, g._terms, g._find
    start = ids.get(domain)
    props = [ids.get(SCHEMA.prop(name)) for name in
             ("hasProblem", "hasPlan", "hasActionStep", "hasStepIndex", "hasActionName")]
    if start is None or None in props:
        return {}
    has_problem, has_plan, has_step, has_index, has_name = props
    rows: dict[int, list[tuple[int, int, int]]] = {}  # plan -> (index, text, step)
    for _, _, problem in find(start, has_problem, None):
        for _, _, plan in find(problem, has_plan, None):
            found = rows.setdefault(plan, [])
            for _, _, step in find(plan, has_step, None):
                texts = find(step, has_name, None)
                found += [(i, k[2], step) for _, _, i in find(step, has_index, None)
                          for k in texts]
    plans: dict[Iri, list[Step]] = {}
    for plan, found in rows.items():
        steps = []
        for i, n, step in found:
            index, text = terms[i], terms[n]
            if not (isinstance(index, TypedLiteral) and is_integer_text(index.lexical)):
                raise MappingError("step {}: hasStepIndex {} is not an integer".format(
                    terms[step], index))
            parts = (text.lexical.strip().lstrip("(").rstrip(")").split()
                     if isinstance(text, TypedLiteral) else None)
            if not parts:
                raise MappingError("step {}: hasActionName {} names no action".format(
                    terms[step], text))
            steps.append((int(index.lexical), text.lexical, (parts[0], tuple(parts[1:]))))
        if steps:
            plans[terms[plan]] = [step for _, _, step in sorted(steps)]
    return plans


def mine_pairs(g: Graph, domain: Iri) -> list[LiftedPair]:
    """All adjacent action pairs across stored plans, lifted and ranked by
    corpus-global frequency, then names, pattern and first arity."""
    plans = plan_step_sequences(g, domain)
    if not plans:
        raise NoPlansForDomain("no plans stored for {}".format(domain.value))
    counts: dict[LiftedPair, int] = {}
    for steps in plans.values():
        for (n1, a1), (n2, a2) in zip(steps, steps[1:]):
            pair = lift_pair(n1, a1, n2, a2)
            counts[pair] = counts.get(pair, 0) + 1
    ranked = [pair.with_frequency(n) for pair, n in counts.items()]
    ranked.sort(key=lambda p: (-p.frequency, p.first, p.second, p.pattern, p.first_arity))
    return ranked


# --- unification and composition -------------------------------------------


def _fresh_name(base: str, used: set[str]) -> str:
    candidate = base
    n = 2
    while candidate in used:
        candidate = "{}{}".format(base, n)
        n += 1
    return candidate


def _unify(d: DomainDef, p: LiftedPair):
    """Macro parameter list plus per-action substitutions for a lifted pair."""
    actions = d.action_map()
    if p.first not in actions or p.second not in actions:
        missing = p.first if p.first not in actions else p.second
        raise UnknownSchema("action '{}' not in domain '{}'".format(missing, d.name))
    a1, a2 = actions[p.first], actions[p.second]
    arity1, arity2 = len(a1.params), len(a2.params)
    if len(p.pattern) != arity1 + arity2 or p.first_arity != arity1:
        raise UnknownSchema(
            "pattern length {} does not match arities of {} and {}".format(
                len(p.pattern), p.first, p.second
            )
        )

    var_of: dict[int, str] = {}
    type_of: dict[int, str] = {}
    order: list[int] = []
    used: set[str] = set()
    slots = [(a1.params[i], p.pattern[i]) for i in range(arity1)]
    slots += [(a2.params[j], p.pattern[arity1 + j]) for j in range(arity2)]
    for (var, vtype), vid in slots:
        if vid not in var_of:
            name = _fresh_name(var, used)
            used.add(name)
            var_of[vid] = name
            type_of[vid] = vtype
            order.append(vid)
        else:
            # Unified slots take the more specific of the two types.
            held = type_of[vid]
            if d.is_subtype(vtype, held):
                type_of[vid] = vtype
            elif not d.is_subtype(held, vtype):
                raise TypeConflict(
                    "cannot unify types '{}' and '{}' in pair {}*{}".format(
                        held, vtype, p.first, p.second
                    )
                )

    sub1 = {a1.params[i][0]: var_of[p.pattern[i]] for i in range(arity1)}
    sub2 = {a2.params[j][0]: var_of[p.pattern[arity1 + j]] for j in range(arity2)}
    params = tuple((var_of[vid], type_of[vid]) for vid in order)
    return a1, a2, params, sub1, sub2


def _split_precondition(literals, sub):
    pos: set[Atom] = set()
    neg: set[Atom] = set()
    equalities: set[Literal] = set()
    for lit in literals:
        renamed = lit.substitute(sub)
        if renamed.atom.predicate == EQUALITY_PREDICATE:
            equalities.add(renamed)
        elif renamed.negated:
            neg.add(renamed.atom)
        else:
            pos.add(renamed.atom)
    return pos, neg, equalities


def compose(d: DomainDef, p: LiftedPair) -> Optional[MacroSchema]:
    """The macro of a pair, unified and substituted once; None when the pair
    does not chain: the first action establishes none of the second's
    precondition or destroys some of the rest.

    pre = pre1 ∪ (pre2 \\ add1) ∪ neq; add = add2 ∪ (add1 \\ del2);
    del = (del1 ∪ del2) \\ add.

    neq is `(not (= ?u ?v))` for each two parameters, or a parameter and a
    constant either action names, whose types can share an object: the
    pattern's distinct ids were distinct objects.  Distinct lifted atoms are
    then distinct ground atoms, so the macro applies only where its steps do.
    """
    a1, a2, params, sub1, sub2 = _unify(d, p)
    add1 = {a.substitute(sub1) for a in a1.add}
    del1 = {a.substitute(sub1) for a in a1.delete}
    pre2_pos, pre2_neg, pre2_eq = _split_precondition(a2.precondition, sub2)
    if not (add1 & pre2_pos) or (pre2_pos - add1) & del1 or pre2_neg & add1:
        return None
    add2 = {a.substitute(sub2) for a in a2.add}
    del2 = {a.substitute(sub2) for a in a2.delete}
    pre1 = {l.substitute(sub1) for l in a1.precondition}

    pre = set(pre1)
    pre |= {Literal(a) for a in pre2_pos - add1}
    pre |= {Literal(a, negated=True) for a in pre2_neg}
    pre |= pre2_eq
    ctypes = dict(d.constants)
    named = {x for a in chain([l.atom for l in pre], add1, add2, del1, del2) for x in a.args}
    typed = params + tuple((c, ctypes[c]) for c in sorted(named & ctypes.keys()))
    is_subtype = d.subtype_test()
    pre |= {Literal(Atom(EQUALITY_PREDICATE, (u, v)), negated=True)
            for i, (u, tu) in enumerate(params) for v, tv in typed[i + 1:]
            if is_subtype(tu, tv) or is_subtype(tv, tu)}

    add = add2 | (add1 - del2)
    delete = (del1 | del2) - add
    return MacroSchema(
        "{}_{}".format(p.first, p.second),
        params,
        frozenset(pre),
        frozenset(add),
        frozenset(delete),
        p.first,
        p.second,
        tuple(sub1[v] for v in a1.variables),
        tuple(sub2[v] for v in a2.variables),
        p.frequency,
    )


def chain_filter(d: DomainDef, p: LiftedPair) -> bool:
    """True when, under the pair's unifier, the first action establishes part
    of the second's precondition and destroys none of the rest."""
    return compose(d, p) is not None


def compose_chained(
    d: DomainDef, pairs: Iterable[LiftedPair]
) -> list[tuple[LiftedPair, MacroSchema]]:
    """Each pair that chains in `d`, with its macro, in the order given; each
    pair is unified once.  Raises UnknownSchema on a pair that names an
    action `d` lacks or whose pattern does not fit the arities, and
    TypeConflict on one whose shared slots have unrelated types: such a pair
    shows that `d` is not the domain the pairs were mined in."""
    return [(p, m) for p in pairs if (m := compose(d, p)) is not None]


def mine_macros(g: Graph, d: DomainDef, domain: Iri) -> list[MacroSchema]:
    """The macros of the mined pairs that chain in `d`, in the mined
    ranking.  A pair that `d` cannot compose raises UnknownSchema or
    TypeConflict (see `compose_chained`), the error that `mine-macros
    --domain-file` reports."""
    return [m for _, m in compose_chained(d, mine_pairs(g, domain))]


def augment_domain(d: DomainDef, macros: Iterable[MacroSchema], k: int) -> DomainDef:
    """Append the top-k macros as ordinary actions; originals are retained so
    every plan valid in d stays valid.  Declares `:equality` when a macro's
    precondition holds an equality literal."""
    chosen = list(macros)[: max(k, 0)]
    requirements = d.requirements
    if any(l.atom.predicate == EQUALITY_PREDICATE for m in chosen for l in m.precondition):
        requirements |= {":equality"}
    used = {a.name for a in d.actions}
    new_actions = list(d.actions)
    for m in chosen:
        name = _fresh_name(m.name, used)
        used.add(name)
        new_actions.append(m.to_action_schema(name))
    return DomainDef(
        d.name, requirements, d.types, d.constants, d.predicates,
        tuple(new_actions),
    )


def expand_plan(d: DomainDef, augmented: DomainDef, macros: Iterable[MacroSchema],
                plan: Plan) -> Plan:
    """A plan over `augmented`, which is `augment_domain(d, macros, k)`, in
    the steps of d: each macro step becomes its two actions, bound through
    the macro's `first_args` and `second_args`."""
    by_name = dict(zip([a.name for a in augmented.actions[len(d.actions):]], macros))
    actions = d.action_map()
    steps = []
    for step in plan.steps:
        m = by_name.get(step.schema)
        if m is None:
            steps.append(step)
            continue
        binding = dict(step.binding)
        steps += [GroundAction(_template(actions[name]), tuple(binding[v] for v in args))
                  for name, args in ((m.first, m.first_args), (m.second, m.second_args))]
    return Plan(tuple(steps))


def store_macros(g: Graph, domain: Iri, macros: Iterable[MacroSchema]) -> Graph:
    t = SCHEMA.prop
    c = SCHEMA.cls
    if (domain, RDF_TYPE, c("PlanningDomain")) not in g:
        raise UnknownDomain("domain {} is not mapped".format(domain.value))
    # The IRI holds the domain name percent-encoded; plan_iri encodes it again.
    domain_name = unquote(domain.value.rsplit("#", 1)[-1].removeprefix("domain-"))
    out: list[tuple] = []
    for m in macros:
        M = plan_iri("macro-{}-{}".format(domain_name, m.name))
        out += (
            (M, RDF_TYPE, c("MacroAction")),
            (domain, t("hasMacro"), M),
            (M, t("hasFirstAction"), action_iri(domain_name, m.first)),
            (M, t("hasSecondAction"), action_iri(domain_name, m.second)),
            (M, t("hasFrequency"), integer_literal(m.frequency)),
            (M, t("hasActionName"), string_literal(m.name)),
        )
    return g.update(out)


# --- reports ---------------------------------------------------------------


def report_lines(pairs: Iterable[LiftedPair]) -> list[str]:
    """Ranked `first * second -- frequency` listing."""
    return [
        "{} * {} -- {}".format(p.first, p.second, p.frequency) for p in pairs
    ]


def dump_report(pairs: Iterable[LiftedPair]) -> str:
    """The JSON macro report: a list with one object per lifted pair."""
    return json.dumps(
        [
            {
                "first": p.first,
                "second": p.second,
                "pattern": list(p.pattern),
                "first_arity": p.first_arity,
                "frequency": p.frequency,
            }
            for p in pairs
        ],
        indent=2,
    )


def load_report(text: str, source: str) -> list[LiftedPair]:
    """The lifted pairs of a JSON macro report; `source` names it in errors."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MacroReportError("{}: not a JSON macro report: {}".format(source, exc)) from exc
    if not isinstance(report, list):
        raise MacroReportError("{}: a macro report is a JSON list".format(source))
    pairs = []
    for obj in report:
        try:
            pair = LiftedPair(
                obj["first"], obj["second"], tuple(obj["pattern"]),
                obj["first_arity"], obj["frequency"],
            )
        except (KeyError, TypeError) as exc:
            raise MacroReportError("bad macro report entry: {}".format(obj)) from exc
        if not (isinstance(pair.first, str) and isinstance(pair.second, str)
                and all(_is_int(x) for x in pair.pattern)
                and _is_int(pair.first_arity) and _is_int(pair.frequency)):
            raise MacroReportError("bad macro report entry: {}".format(obj))
        problem = _pair_problem(pair)
        if problem:
            raise MacroReportError("bad macro report entry: {}: {}".format(obj, problem))
        pairs.append(pair)
    return pairs


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def _pair_problem(pair: LiftedPair) -> str:
    """Why a well-typed pair is not one `lift_pair` can give, or ""."""
    top = -1
    for x in pair.pattern:
        if not 0 <= x <= top + 1:
            return "pattern ids must count up from 0 in order of first appearance"
        top = max(top, x)
    if not 0 <= pair.first_arity <= len(pair.pattern):
        return "first_arity must be between 0 and the pattern length"
    if pair.frequency < 0:
        return "frequency must not be negative"
    return ""
