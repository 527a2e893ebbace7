"""Mapping between PDDL artifacts and the planning knowledge graph, plus the
ten named competency queries."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .kg.schema import (
    PLAN_NS,
    RDF_TYPE,
    SCHEMA,
    decimal_literal,
    integer_literal,
    plan_iri,
    string_literal,
)
from .kg.store import Graph, Iri, Triple, Variable
from .pddl.ast import DomainDef, ProblemDef
from .pddl.validate import validate_domain
from .select import PlannerRecord, relevance
from .semantics import Plan, resolve_plan, validate_plan


class MappingError(Exception):
    pass


class UnknownDomain(Exception):
    pass


class UnknownQueryId(Exception):
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
    # The locals of `problem` and `planner` are escaped already.
    PL = Iri(PLAN_NS + "plan-{}-{}-{}".format(_local(problem), _local(planner), digest))
    out: set[Triple] = {
        Triple(PL, RDF_TYPE, c("Plan")),
        Triple(problem, t("hasPlan"), PL),
        Triple(PL, t("hasPlanCost"), integer_literal(plan.cost)),
        Triple(PL, t("isGeneratedBy"), planner),
        Triple(planner, RDF_TYPE, c("Planner")),
    }
    for i, step in enumerate(plan.steps):
        ST = Iri("{}-step-{}".format(PL.value, i))
        out.add(Triple(PL, t("hasActionStep"), ST))
        out.add(Triple(ST, t("hasStepIndex"), integer_literal(i)))
        out.add(Triple(ST, t("hasActionName"), string_literal(step.name)))
    return out


def describe_planner(name: str) -> set[Triple]:
    """Type a planner node as a satisficing STRIPS planner.

    Plans reference planners via isGeneratedBy; a typed planner additionally
    needs at least one ofPlannerType and one solvesRequirement to pass
    validation, so every planner that generates stored plans should be
    described once with this helper.
    """
    t = SCHEMA.prop
    c = SCHEMA.cls
    PN = planner_iri(name)
    PT = planner_type_iri("satisficing")
    out: set[Triple] = {
        Triple(PN, RDF_TYPE, c("Planner")),
        Triple(PT, RDF_TYPE, c("PlannerType")),
        Triple(PN, t("ofPlannerType"), PT),
    }
    R = requirement_iri(":strips")
    out.add(Triple(R, RDF_TYPE, c("DomainRequirement")))
    out.add(Triple(PN, t("solvesRequirement"), R))
    return out


# --- IPC results -----------------------------------------------------------


def map_ipc_results(
    rows: Iterable[PlannerRecord], planner_type: str = "optimal"
) -> set[Triple]:
    # Domain nodes referenced here are deliberately left untyped: IPC result
    # tables name domains whose PDDL may never be ingested, and typing them
    # as PlanningDomain would trip the domain axioms.
    t = SCHEMA.prop
    c = SCHEMA.cls
    out: set[Triple] = set()
    PT = planner_type_iri(planner_type)
    out.add(Triple(PT, RDF_TYPE, c("PlannerType")))
    for row in rows:
        PN = planner_iri(row.planner)
        out.add(Triple(PN, RDF_TYPE, c("Planner")))
        out.add(Triple(PN, t("ofPlannerType"), PT))
        for req in (":strips", ":typing"):
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


# --- bundles ---------------------------------------------------------------


@dataclass(frozen=True)
class PlanEntry:
    problem: str
    planner: str
    plan: Plan


def load_plans(
    d: DomainDef, problems: Iterable[ProblemDef], paths: Iterable[Path]
) -> tuple[list[PlanEntry], list[str]]:
    """Resolve `<problem>.<planner>.plan` files against a bundle's problems.

    Returns the plan entries and one message per file that is skipped because
    its name has no planner part or names a problem outside the bundle.
    Raises MappingError, naming the file, for a plan that does not solve its
    problem.
    """
    by_name = {p.name: p for p in problems}
    entries: list[PlanEntry] = []
    skipped: list[str] = []
    for path in paths:
        stem_parts = path.stem.rsplit(".", 1)
        if len(stem_parts) != 2:
            skipped.append("skipping {}: expected <problem>.<planner>.plan".format(path))
            continue
        problem_name, planner = stem_parts
        problem = by_name.get(problem_name)
        if problem is None:
            skipped.append(
                "skipping {}: problem '{}' not in this bundle".format(path, problem_name)
            )
            continue
        plan = resolve_plan(d, problem, path.read_text())
        report = validate_plan(d, problem, plan)
        if not report:
            raise MappingError("{}: invalid plan: {}".format(path, report.reason))
        entries.append(PlanEntry(problem_name, planner, plan))
    return entries, skipped


def build_graph(
    d: DomainDef,
    problems: Iterable[ProblemDef] = (),
    plans: Iterable[PlanEntry] = (),
) -> Graph:
    """Map a whole bundle (domain, problems, plans) into a fresh graph."""
    g = Graph()
    g.update(map_domain(d))
    for p in problems:
        g.update(map_problem(p, g))
    for entry in plans:
        g.update(describe_planner(entry.planner))
        g.update(
            map_plan(
                entry.plan,
                problem_iri(d.name, entry.problem),
                planner_iri(entry.planner),
            )
        )
    return g
