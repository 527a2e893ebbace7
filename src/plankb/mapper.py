"""Mapping between PDDL artifacts, the JSON interchange format, and the
planning knowledge graph, plus the ten named competency queries."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

import jsonschema

from .kg.schema import (
    RDF_TYPE,
    SCHEMA,
    decimal_literal,
    integer_literal,
    plan_iri,
    string_literal,
)
from .kg.store import Graph, Iri, Triple, TypedLiteral, Variable
from .pddl.ast import Atom, DomainDef, Literal, ProblemDef
from .pddl.validate import validate_domain
from .semantics import GroundAction, Plan, resolve_plan


class MappingError(Exception):
    pass


class UnknownDomain(Exception):
    pass


class UnknownQueryId(Exception):
    pass


class JsonSchemaError(Exception):
    pass


class InvalidRecord(Exception):
    pass


# --- IRI minting (deterministic, lowercase, domain-scoped) -----------------


def domain_iri(name: str) -> Iri:
    return plan_iri("domain-" + name)


def requirement_iri(req: str) -> Iri:
    return plan_iri("requirement-" + req.lstrip(":"))


def type_iri(domain: str, type_name: str) -> Iri:
    return plan_iri("type-{}-{}".format(domain, type_name))


def predicate_iri(domain: str, predicate: str) -> Iri:
    return plan_iri("predicate-{}-{}".format(domain, predicate))


def constant_iri(domain: str, constant: str) -> Iri:
    return plan_iri("constant-{}-{}".format(domain, constant))


def action_iri(domain: str, action: str) -> Iri:
    return plan_iri("action-{}-{}".format(domain, action))


def problem_iri(domain: str, problem: str) -> Iri:
    return plan_iri("problem-{}-{}".format(domain, problem))


def planner_iri(name: str) -> Iri:
    return plan_iri("planner-" + name)


def planner_type_iri(name: str) -> Iri:
    return plan_iri("plannertype-" + name)


def _local(iri: Iri) -> str:
    return iri.value.rsplit("#", 1)[-1]


# --- PDDL → triples --------------------------------------------------------


def map_domain(d: DomainDef) -> set[Triple]:
    issues = validate_domain(d)
    if issues:
        raise MappingError(
            "domain '{}' is not well-formed: {}".format(d.name, issues[0])
        )
    t = SCHEMA.prop
    c = SCHEMA.cls
    D = domain_iri(d.name)
    out: set[Triple] = {Triple(D, RDF_TYPE, c("PlanningDomain"))}

    for req in sorted(d.requirements):
        R = requirement_iri(req)
        out.add(Triple(R, RDF_TYPE, c("DomainRequirement")))
        out.add(Triple(D, t("hasRequirement"), R))

    used_types = {typ for p in d.predicates for _, typ in p.params}
    used_types |= {typ for a in d.actions for _, typ in a.params}
    used_types |= {t.name for t in d.types}
    used_types |= {typ for _, typ in d.constants}
    for typ in sorted(used_types):
        T = type_iri(d.name, typ)
        out.add(Triple(T, RDF_TYPE, c("ParameterType")))
        out.add(Triple(D, t("hasParameterType"), T))

    for pred in d.predicates:
        P = predicate_iri(d.name, pred.name)
        out.add(Triple(P, RDF_TYPE, c("DomainPredicate")))
        out.add(Triple(D, t("hasPredicate"), P))

    for cname, ctype in d.constants:
        C = constant_iri(d.name, cname)
        out.add(Triple(C, RDF_TYPE, c("DomainConstant")))
        out.add(Triple(D, t("hasConstant"), C))
        out.add(Triple(C, t("hasParameterType"), type_iri(d.name, ctype)))

    for a in d.actions:
        A = action_iri(d.name, a.name)
        out.add(Triple(A, RDF_TYPE, c("Action")))
        out.add(Triple(D, t("hasAction"), A))
        out.add(Triple(A, t("hasActionName"), string_literal(a.name)))

        for i, (var, vtype) in enumerate(a.params):
            PM = plan_iri(
                "parameter-{}-{}-{}-{}".format(d.name, a.name, i, var.lstrip("?"))
            )
            out.add(Triple(PM, RDF_TYPE, c("Parameter")))
            out.add(Triple(A, t("hasParameter"), PM))
            out.add(Triple(PM, t("hasParameterType"), type_iri(d.name, vtype)))

        if a.precondition:
            PC = plan_iri("precondition-{}-{}".format(d.name, a.name))
            out.add(Triple(PC, RDF_TYPE, c("ActionPrecondition")))
            out.add(Triple(A, t("hasPrecondition"), PC))
            for lit in a.precondition:
                out.add(Triple(PC, t("hasStateFact"), string_literal(str(lit))))
                if lit.atom.predicate != "=":
                    out.add(
                        Triple(PC, t("hasPredicate"),
                               predicate_iri(d.name, lit.atom.predicate))
                    )

        if a.add:
            E = plan_iri("effect-{}-{}-add".format(d.name, a.name))
            out.add(Triple(E, RDF_TYPE, c("ActionEffect")))
            out.add(Triple(A, t("hasEffect"), E))
            for atom in a.add:
                out.add(Triple(E, t("addsPredicate"),
                               predicate_iri(d.name, atom.predicate)))
                out.add(Triple(E, t("hasStateFact"), string_literal(str(atom))))
        if a.delete:
            E = plan_iri("effect-{}-{}-del".format(d.name, a.name))
            out.add(Triple(E, RDF_TYPE, c("ActionEffect")))
            out.add(Triple(A, t("hasEffect"), E))
            for atom in a.delete:
                out.add(Triple(E, t("deletesPredicate"),
                               predicate_iri(d.name, atom.predicate)))
                out.add(Triple(E, t("hasStateFact"), string_literal(str(atom))))
    return out


def map_problem(p: ProblemDef, g: Optional[Graph] = None) -> set[Triple]:
    t = SCHEMA.prop
    c = SCHEMA.cls
    D = domain_iri(p.domain_name)
    if g is not None and not g.match(s=D, p=RDF_TYPE, o=c("PlanningDomain")):
        raise UnknownDomain("domain '{}' is not mapped".format(p.domain_name))
    PR = problem_iri(p.domain_name, p.name)
    out: set[Triple] = {
        Triple(PR, RDF_TYPE, c("PlanningProblem")),
        Triple(PR, t("hasDomain"), D),
        Triple(D, t("hasProblem"), PR),
    }
    for oname, otype in p.objects:
        O = plan_iri("object-{}-{}-{}".format(p.domain_name, p.name, oname))
        out.add(Triple(O, RDF_TYPE, c("ProblemObject")))
        out.add(Triple(PR, t("hasObject"), O))
        out.add(Triple(O, t("hasParameterType"), type_iri(p.domain_name, otype)))

    IS = plan_iri("init-{}-{}".format(p.domain_name, p.name))
    out.add(Triple(IS, RDF_TYPE, c("InitialState")))
    out.add(Triple(IS, RDF_TYPE, c("State")))
    out.add(Triple(PR, t("hasInitialState"), IS))
    for atom in p.init:
        out.add(Triple(IS, t("hasStateFact"), string_literal(str(atom))))

    GS = plan_iri("goal-{}-{}".format(p.domain_name, p.name))
    out.add(Triple(GS, RDF_TYPE, c("GoalState")))
    out.add(Triple(GS, RDF_TYPE, c("State")))
    out.add(Triple(PR, t("hasGoalState"), GS))
    for lit in p.goal:
        out.add(Triple(GS, t("hasStateFact"), string_literal(str(lit))))
    return out


def map_plan(plan: Plan, problem: Iri, planner: Iri) -> set[Triple]:
    t = SCHEMA.prop
    c = SCHEMA.cls
    digest = hashlib.sha1(
        "".join(s.name for s in plan.steps).encode()
    ).hexdigest()[:8]
    PL = plan_iri("plan-{}-{}-{}".format(_local(problem), _local(planner), digest))
    out: set[Triple] = {
        Triple(PL, RDF_TYPE, c("Plan")),
        Triple(problem, t("hasPlan"), PL),
        Triple(PL, t("hasPlanCost"), integer_literal(plan.cost)),
        Triple(PL, t("isGeneratedBy"), planner),
        Triple(planner, RDF_TYPE, c("Planner")),
    }
    for i, step in enumerate(plan.steps):
        ST = plan_iri("{}-step-{}".format(_local(PL), i))
        out.add(Triple(PL, t("hasActionStep"), ST))
        out.add(Triple(ST, t("hasStepIndex"), integer_literal(i)))
        out.add(Triple(ST, t("hasActionName"), string_literal(step.name)))
    return out


def describe_planner(
    name: str,
    planner_type: str = "satisficing",
    requirements: tuple[str, ...] = (":strips",),
) -> set[Triple]:
    """Type a planner node and record what it is and what it can solve.

    Plans reference planners via isGeneratedBy; a typed planner additionally
    needs at least one ofPlannerType and one solvesRequirement to pass
    validation, so every planner that generates stored plans should be
    described once with this helper.
    """
    t = SCHEMA.prop
    c = SCHEMA.cls
    PN = planner_iri(name)
    PT = planner_type_iri(planner_type)
    out: set[Triple] = {
        Triple(PN, RDF_TYPE, c("Planner")),
        Triple(PT, RDF_TYPE, c("PlannerType")),
        Triple(PN, t("ofPlannerType"), PT),
    }
    for req in requirements:
        R = requirement_iri(req)
        out.add(Triple(R, RDF_TYPE, c("DomainRequirement")))
        out.add(Triple(PN, t("solvesRequirement"), R))
    return out


# --- IPC results -----------------------------------------------------------


@dataclass(frozen=True)
class PlannerRecord:
    planner: str
    domain: str
    solved: int
    total: int

    def __post_init__(self):
        if self.total <= 0 or not 0 <= self.solved <= self.total:
            raise InvalidRecord(
                "bad record for ({}, {}): solved={} total={}".format(
                    self.planner, self.domain, self.solved, self.total
                )
            )


def map_ipc_results(
    rows: Iterable[PlannerRecord],
    planner_type: str = "optimal",
    solves_requirements: tuple[str, ...] = (":strips", ":typing"),
) -> set[Triple]:
    # Domain nodes referenced here are deliberately left untyped: IPC result
    # tables name domains whose PDDL may never be ingested, and typing them
    # as PlanningDomain would trip the domain axioms.
    from .select import relevance  # local import; select depends on kg only

    t = SCHEMA.prop
    c = SCHEMA.cls
    out: set[Triple] = set()
    PT = planner_type_iri(planner_type)
    out.add(Triple(PT, RDF_TYPE, c("PlannerType")))
    for row in rows:
        PN = planner_iri(row.planner)
        out.add(Triple(PN, RDF_TYPE, c("Planner")))
        out.add(Triple(PN, t("ofPlannerType"), PT))
        for req in solves_requirements:
            R = requirement_iri(req)
            out.add(Triple(R, RDF_TYPE, c("DomainRequirement")))
            out.add(Triple(PN, t("solvesRequirement"), R))
        REL = plan_iri("relevance-{}-{}".format(row.planner, row.domain))
        out.add(Triple(PN, t("hasRelevance"), REL))
        out.add(Triple(REL, t("hasDomain"), domain_iri(row.domain)))
        out.add(
            Triple(REL, t("hasSolvedPercentage"),
                   decimal_literal(100.0 * row.solved / row.total))
        )
        out.add(
            Triple(REL, t("hasRelevanceTier"),
                   string_literal(relevance(row.solved, row.total).tier))
        )
    return out


# --- competency questions --------------------------------------------------


@dataclass(frozen=True)
class CompetencyQuery:
    id: str
    parameters: tuple[str, ...]
    description: str
    count: bool = False


COMPETENCY_QUERIES: dict[str, CompetencyQuery] = {
    q.id: q
    for q in (
        CompetencyQuery("C1", (), "distinct planner types in use"),
        CompetencyQuery("C2", ("planner", "domain"),
                        "relevance tier of a planner for a domain"),
        CompetencyQuery("C3", ("domain",), "actions of a domain"),
        CompetencyQuery("C4", ("domain", "fact"),
                        "problems whose initial state contains a fact"),
        CompetencyQuery("C5", ("domain",), "requirements of a domain"),
        CompetencyQuery("C6", ("domain", "problem"),
                        "plan costs recorded for a problem"),
        CompetencyQuery("C7", ("domain", "action"),
                        "number of parameters of an action", count=True),
        CompetencyQuery("C8", ("planner",), "type of a planner"),
        CompetencyQuery("C9", ("planner",), "requirements a planner supports"),
        CompetencyQuery("C10", ("domain",), "distinct parameter types of a domain"),
    )
}


def competency_patterns(qid: str, args: dict[str, str]) -> tuple[list, list[str], bool]:
    """Build (patterns, selected variables, distinct) for a query id."""
    t = SCHEMA.prop
    c = SCHEMA.cls
    v = Variable
    spec = COMPETENCY_QUERIES.get(qid)
    if spec is None:
        raise UnknownQueryId("no competency query '{}'".format(qid))
    missing = [p for p in spec.parameters if p not in args]
    if missing:
        raise UnknownQueryId(
            "query {} needs arguments: {}".format(qid, ", ".join(missing))
        )

    if qid == "C1":
        return [(v("t"), RDF_TYPE, c("PlannerType"))], ["t"], True
    if qid == "C2":
        return (
            [
                (planner_iri(args["planner"]), t("hasRelevance"), v("r")),
                (v("r"), t("hasDomain"), domain_iri(args["domain"])),
                (v("r"), t("hasRelevanceTier"), v("tier")),
            ],
            ["tier"],
            True,
        )
    if qid == "C3":
        return [(domain_iri(args["domain"]), t("hasAction"), v("a"))], ["a"], False
    if qid == "C4":
        return (
            [
                (domain_iri(args["domain"]), t("hasProblem"), v("p")),
                (v("p"), t("hasInitialState"), v("s")),
                (v("s"), t("hasStateFact"), string_literal(args["fact"])),
            ],
            ["p"],
            True,
        )
    if qid == "C5":
        return [(domain_iri(args["domain"]), t("hasRequirement"), v("r"))], ["r"], False
    if qid == "C6":
        return (
            [
                (problem_iri(args["domain"], args["problem"]), t("hasPlan"), v("pl")),
                (v("pl"), t("hasPlanCost"), v("cost")),
            ],
            ["pl", "cost"],
            False,
        )
    if qid == "C7":
        return (
            [(action_iri(args["domain"], args["action"]), t("hasParameter"), v("p"))],
            ["p"],
            True,
        )
    if qid == "C8":
        return [(planner_iri(args["planner"]), t("ofPlannerType"), v("t"))], ["t"], False
    if qid == "C9":
        return [(planner_iri(args["planner"]), t("solvesRequirement"), v("r"))], ["r"], False
    if qid == "C10":
        return (
            [(domain_iri(args["domain"]), t("hasParameterType"), v("t"))],
            ["t"],
            True,
        )
    raise UnknownQueryId(qid)


def run_competency(g: Graph, qid: str, args: Optional[dict[str, str]] = None):
    """Run a named competency query.

    Count queries return an int; the rest return binding rows in the query
    engine's deterministic order.
    """
    patterns, select, distinct = competency_patterns(qid, args or {})
    if COMPETENCY_QUERIES[qid].count:
        return len(g.query(patterns, select=select, distinct=distinct))
    return g.query(patterns, select=select, distinct=distinct)


# --- JSON interchange ------------------------------------------------------

_param_schema = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {"name": {"type": "string"}, "type": {"type": "string"}},
        "required": ["name", "type"],
        "additionalProperties": False,
    },
}

_atom_schema = {
    "type": "object",
    "properties": {
        "predicate": {"type": "string"},
        "args": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["predicate", "args"],
    "additionalProperties": False,
}

_literal_schema = {
    "type": "object",
    "properties": {
        "predicate": {"type": "string"},
        "args": {"type": "array", "items": {"type": "string"}},
        "negated": {"type": "boolean"},
    },
    "required": ["predicate", "args"],
    "additionalProperties": False,
}

INTERCHANGE_SCHEMA = {
    "type": "object",
    "properties": {
        "domain": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "requirements": {"type": "array", "items": {"type": "string"}},
                "types": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "name": {"type": "string"},
                            "parent": {"type": "string"},
                        },
                        "required": ["name", "parent"],
                        "additionalProperties": False,
                    },
                },
                "constants": _param_schema,
                "predicates": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "name": {"type": "string"},
                            "parameters": _param_schema,
                        },
                        "required": ["name", "parameters"],
                        "additionalProperties": False,
                    },
                },
                "actions": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "name": {"type": "string"},
                            "parameters": _param_schema,
                            "precondition": {"type": "array", "items": _literal_schema},
                            "add": {"type": "array", "items": _atom_schema},
                            "del": {"type": "array", "items": _atom_schema},
                        },
                        "required": ["name", "parameters", "precondition", "add", "del"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["name", "requirements", "types", "constants",
                         "predicates", "actions"],
            "additionalProperties": False,
        },
        "problems": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "objects": _param_schema,
                    "init": {"type": "array", "items": _atom_schema},
                    "goal": {"type": "array", "items": _literal_schema},
                },
                "required": ["name", "objects", "init", "goal"],
                "additionalProperties": False,
            },
        },
        "plans": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "problem": {"type": "string"},
                    "planner": {"type": "string"},
                    "steps": {"type": "array", "items": {"type": "string"}},
                    "cost": {"type": "integer", "minimum": 0},
                },
                "required": ["problem", "planner", "steps", "cost"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["domain", "problems", "plans"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class PlanEntry:
    problem: str
    planner: str
    plan: Plan


def _atom_to_json(a: Atom) -> dict:
    return {"predicate": a.predicate, "args": list(a.args)}


def _literal_to_json(lit: Literal) -> dict:
    out = _atom_to_json(lit.atom)
    if lit.negated:
        out["negated"] = True
    return out


def _atom_key(a: Atom):
    return (a.predicate, a.args)


def to_json(
    d: DomainDef,
    problems: Iterable[ProblemDef] = (),
    plans: Iterable[PlanEntry] = (),
) -> dict:
    doc = {
        "domain": {
            "name": d.name,
            "requirements": sorted(d.requirements),
            "types": [{"name": t.name, "parent": t.parent} for t in d.types],
            "constants": [{"name": n, "type": t} for n, t in d.constants],
            "predicates": [
                {
                    "name": p.name,
                    "parameters": [{"name": n, "type": t} for n, t in p.params],
                }
                for p in d.predicates
            ],
            "actions": [
                {
                    "name": a.name,
                    "parameters": [{"name": n, "type": t} for n, t in a.params],
                    "precondition": [
                        _literal_to_json(l)
                        for l in sorted(a.precondition,
                                        key=lambda l: (l.negated, _atom_key(l.atom)))
                    ],
                    "add": [_atom_to_json(x) for x in sorted(a.add, key=_atom_key)],
                    "del": [_atom_to_json(x) for x in sorted(a.delete, key=_atom_key)],
                }
                for a in d.actions
            ],
        },
        "problems": [
            {
                "name": p.name,
                "objects": [{"name": n, "type": t} for n, t in p.objects],
                "init": [_atom_to_json(a) for a in sorted(p.init, key=_atom_key)],
                "goal": [
                    _literal_to_json(l)
                    for l in sorted(p.goal,
                                    key=lambda l: (l.negated, _atom_key(l.atom)))
                ],
            }
            for p in problems
        ],
        "plans": [
            {
                "problem": e.problem,
                "planner": e.planner,
                "steps": [s.name for s in e.plan.steps],
                "cost": e.plan.cost,
            }
            for e in plans
        ],
    }
    jsonschema.validate(doc, INTERCHANGE_SCHEMA)
    return doc


def _json_atom(obj: dict) -> Atom:
    return Atom(obj["predicate"], tuple(obj["args"]))


def _json_literal(obj: dict) -> Literal:
    return Literal(_json_atom(obj), obj.get("negated", False))


def from_json(doc: dict) -> tuple[DomainDef, list[ProblemDef], list[PlanEntry]]:
    from .pddl.ast import ActionSchema, PredicateSchema, TypeName

    try:
        jsonschema.validate(doc, INTERCHANGE_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise JsonSchemaError(exc.message) from exc

    dd = doc["domain"]
    domain = DomainDef(
        dd["name"],
        frozenset(dd["requirements"]),
        tuple(TypeName(t["name"], t["parent"]) for t in dd["types"]),
        tuple((c["name"], c["type"]) for c in dd["constants"]),
        tuple(
            PredicateSchema(
                p["name"], tuple((x["name"], x["type"]) for x in p["parameters"])
            )
            for p in dd["predicates"]
        ),
        tuple(
            ActionSchema.make(
                a["name"],
                [(x["name"], x["type"]) for x in a["parameters"]],
                [_json_literal(l) for l in a["precondition"]],
                [_json_atom(x) for x in a["add"]],
                [_json_atom(x) for x in a["del"]],
            )
            for a in dd["actions"]
        ),
    )
    problems = [
        ProblemDef(
            p["name"],
            domain.name,
            tuple((o["name"], o["type"]) for o in p["objects"]),
            frozenset(_json_atom(a) for a in p["init"]),
            frozenset(_json_literal(l) for l in p["goal"]),
        )
        for p in doc["problems"]
    ]
    by_name = {p.name: p for p in problems}
    plans: list[PlanEntry] = []
    for e in doc["plans"]:
        prob = by_name.get(e["problem"])
        if prob is None:
            raise JsonSchemaError(
                "plan references unknown problem '{}'".format(e["problem"])
            )
        plan = resolve_plan(domain, prob, "\n".join(e["steps"]))
        plans.append(PlanEntry(e["problem"], e["planner"], plan))
    return domain, problems, plans


def build_graph(
    d: DomainDef,
    problems: Iterable[ProblemDef] = (),
    plans: Iterable[PlanEntry] = (),
    planner_prefix: str = "",
) -> Graph:
    """Map a whole bundle (domain, problems, plans) into a fresh graph."""
    g = Graph()
    g.update(map_domain(d))
    probs = list(problems)
    for p in probs:
        g.update(map_problem(p, g))
    for entry in plans:
        g.update(describe_planner(planner_prefix + entry.planner))
        g.update(
            map_plan(
                entry.plan,
                problem_iri(d.name, entry.problem),
                planner_iri(planner_prefix + entry.planner),
            )
        )
    return g
