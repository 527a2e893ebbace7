"""Mapping between PDDL artifacts and the planning knowledge graph, plus the
ten named competency queries."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from . import PlankbError
from .kg.schema import (
    PLAN_NS,
    RDF_TYPE,
    SCHEMA,
    decimal_literal,
    integer_literal,
    plan_iri,
    string_literal,
)
from .kg.store import Graph, Iri, Variable
from .pddl.ast import DomainDef, ProblemDef
from .pddl.validate import validate_domain
from .select import PlannerRecord, relevance
from .semantics import Plan, PlanParseError, resolve_plan, validate_plan


class MappingError(PlankbError):
    pass


class NotUtf8(PlankbError):
    """An input file whose bytes are not UTF-8 text."""


class FileAccessError(PlankbError):
    """A file that cannot be read or written; the message names it."""


class UnknownDomain(PlankbError):
    pass


class UnknownQueryId(PlankbError):
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
#
# Each mapper returns a list of plain `(s, p, o)` tuples that may hold a triple
# more than once; `Graph.update` checks each term as it stores them and keeps
# one copy, so no triple is hashed or checked before the graph sees it.


def map_domain(d: DomainDef) -> list[tuple]:
    """The triples of a well-formed domain, possibly with repeats.  Raises
    MappingError on a domain that `validate_domain` finds fault with."""
    issues = validate_domain(d)
    if issues:
        raise MappingError(
            "domain '{}' is not well-formed: {}".format(d.name, issues[0])
        )
    t = SCHEMA.prop
    c = SCHEMA.cls
    D = domain_iri(d.name)
    out: list[tuple] = [(D, RDF_TYPE, c("PlanningDomain"))]

    for req in sorted(d.requirements):
        R = requirement_iri(req)
        out += [(R, RDF_TYPE, c("DomainRequirement")), (D, t("hasRequirement"), R)]

    used_types = {typ for p in d.predicates for _, typ in p.params}
    used_types |= {typ for a in d.actions for _, typ in a.params}
    used_types |= {t.name for t in d.types}
    used_types |= {typ for _, typ in d.constants}
    for typ in sorted(used_types):
        T = type_iri(d.name, typ)
        out += [(T, RDF_TYPE, c("ParameterType")), (D, t("hasParameterType"), T)]

    for pred in d.predicates:
        P = predicate_iri(d.name, pred.name)
        out += [(P, RDF_TYPE, c("DomainPredicate")), (D, t("hasPredicate"), P)]

    for cname, ctype in d.constants:
        C = constant_iri(d.name, cname)
        out += [(C, RDF_TYPE, c("DomainConstant")), (D, t("hasConstant"), C),
                (C, t("hasParameterType"), type_iri(d.name, ctype))]

    for a in d.actions:
        A = action_iri(d.name, a.name)
        out += [(A, RDF_TYPE, c("Action")), (D, t("hasAction"), A),
                (A, t("hasActionName"), string_literal(a.name))]

        for i, (var, vtype) in enumerate(a.params):
            PM = plan_iri(
                "parameter-{}-{}-{}-{}".format(d.name, a.name, i, var.lstrip("?"))
            )
            out += [(PM, RDF_TYPE, c("Parameter")), (A, t("hasParameter"), PM),
                    (PM, t("hasParameterType"), type_iri(d.name, vtype))]

        if a.precondition:
            PC = plan_iri("precondition-{}-{}".format(d.name, a.name))
            out += [(PC, RDF_TYPE, c("ActionPrecondition")), (A, t("hasPrecondition"), PC)]
            for lit in a.precondition:
                out.append((PC, t("hasStateFact"), string_literal(str(lit))))
                if lit.atom.predicate != "=":
                    out.append((PC, t("hasPredicate"),
                                predicate_iri(d.name, lit.atom.predicate)))

        if a.add:
            E = plan_iri("effect-{}-{}-add".format(d.name, a.name))
            out += [(E, RDF_TYPE, c("ActionEffect")), (A, t("hasEffect"), E)]
            for atom in a.add:
                out += [(E, t("addsPredicate"), predicate_iri(d.name, atom.predicate)),
                        (E, t("hasStateFact"), string_literal(str(atom)))]
        if a.delete:
            E = plan_iri("effect-{}-{}-del".format(d.name, a.name))
            out += [(E, RDF_TYPE, c("ActionEffect")), (A, t("hasEffect"), E)]
            for atom in a.delete:
                out += [(E, t("deletesPredicate"), predicate_iri(d.name, atom.predicate)),
                        (E, t("hasStateFact"), string_literal(str(atom)))]
    return out


def map_problem(p: ProblemDef, g: Graph) -> list[tuple]:
    """The triples of a problem, possibly with repeats.  Raises
    UnknownDomain unless the problem's domain is mapped in `g`."""
    t = SCHEMA.prop
    c = SCHEMA.cls
    D = domain_iri(p.domain_name)
    if (D, RDF_TYPE, c("PlanningDomain")) not in g:
        raise UnknownDomain("domain '{}' is not mapped".format(p.domain_name))
    PR = problem_iri(p.domain_name, p.name)
    out: list[tuple] = [
        (PR, RDF_TYPE, c("PlanningProblem")),
        (PR, t("hasDomain"), D),
        (D, t("hasProblem"), PR),
    ]
    # The terms that the steps of a loop share are made once.
    problem_object, has_object = c("ProblemObject"), t("hasObject")
    has_type, has_fact = t("hasParameterType"), t("hasStateFact")
    types = {typ: type_iri(p.domain_name, typ) for typ in {typ for _, typ in p.objects}}
    for oname, otype in p.objects:
        O = plan_iri("object-{}-{}-{}".format(p.domain_name, p.name, oname))
        out += [(O, RDF_TYPE, problem_object), (PR, has_object, O),
                (O, has_type, types[otype])]

    IS = plan_iri("init-{}-{}".format(p.domain_name, p.name))
    out += [(IS, RDF_TYPE, c("InitialState")), (IS, RDF_TYPE, c("State")),
            (PR, t("hasInitialState"), IS)]
    out += [(IS, has_fact, string_literal(str(atom))) for atom in p.init]

    GS = plan_iri("goal-{}-{}".format(p.domain_name, p.name))
    out += [(GS, RDF_TYPE, c("GoalState")), (GS, RDF_TYPE, c("State")),
            (PR, t("hasGoalState"), GS)]
    out += [(GS, has_fact, string_literal(str(lit))) for lit in p.goal]
    return out


def map_plan(plan: Plan, problem: Iri, planner: Iri) -> list[tuple]:
    """The triples of a plan of `problem` made by `planner`, possibly with
    repeats."""
    import hashlib  # here, not at the top: it loads OpenSSL, which only build-kg needs

    t = SCHEMA.prop
    c = SCHEMA.cls
    names = [step.name for step in plan.steps]
    digest = hashlib.sha1("".join(names).encode()).hexdigest()[:8]
    # The locals of `problem` and `planner` are escaped already.
    PL = Iri(PLAN_NS + "plan-{}-{}-{}".format(_local(problem), _local(planner), digest))
    out: list[tuple] = [
        (PL, RDF_TYPE, c("Plan")),
        (problem, t("hasPlan"), PL),
        (PL, t("hasPlanCost"), integer_literal(plan.cost)),
        (PL, t("isGeneratedBy"), planner),
        (planner, RDF_TYPE, c("Planner")),
    ]
    has_step, has_index, has_name = t("hasActionStep"), t("hasStepIndex"), t("hasActionName")
    for i, name in enumerate(names):
        ST = Iri("{}-step-{}".format(PL.value, i))
        out += [(PL, has_step, ST), (ST, has_index, integer_literal(i)),
                (ST, has_name, string_literal(name))]
    return out


def describe_planner(name: str) -> list[tuple]:
    """Type a planner node as a satisficing STRIPS planner.

    Plans reference planners via isGeneratedBy; a typed planner additionally
    needs at least one ofPlannerType and one solvesRequirement to pass
    validation, so every planner that generates stored plans should be
    described once with this helper.  Returns a list of triples that may
    hold repeats.
    """
    t = SCHEMA.prop
    c = SCHEMA.cls
    PN = planner_iri(name)
    PT = planner_type_iri("satisficing")
    out: list[tuple] = [
        (PN, RDF_TYPE, c("Planner")),
        (PT, RDF_TYPE, c("PlannerType")),
        (PN, t("ofPlannerType"), PT),
    ]
    R = requirement_iri(":strips")
    out += [(R, RDF_TYPE, c("DomainRequirement")), (PN, t("solvesRequirement"), R)]
    return out


# --- IPC results -----------------------------------------------------------


def map_ipc_results(
    rows: Iterable[PlannerRecord], planner_type: str = "optimal"
) -> list[tuple]:
    """The triples of IPC result rows: the planner type, each planner at its
    first row, the requirements if there is any row, and each row's
    relevance node, so only rows that repeat a node repeat a triple."""
    # Domain nodes referenced here are deliberately left untyped: IPC result
    # tables name domains whose PDDL may never be ingested, and typing them
    # as PlanningDomain would trip the domain axioms.
    t = SCHEMA.prop
    c = SCHEMA.cls
    PT = planner_type_iri(planner_type)
    requirements = [requirement_iri(req) for req in (":strips", ":typing")]
    out: list[tuple] = [(PT, RDF_TYPE, c("PlannerType"))]
    planners: dict[str, Iri] = {}
    for row in rows:
        PN = planners.get(row.planner)
        if PN is None:
            PN = planners[row.planner] = planner_iri(row.planner)
            out += [(PN, RDF_TYPE, c("Planner")), (PN, t("ofPlannerType"), PT)]
            out += [(PN, t("solvesRequirement"), R) for R in requirements]
        REL = plan_iri("relevance-{}-{}".format(row.planner, row.domain))
        pct, tier = 100.0 * row.solved / row.total, relevance(row.solved, row.total)
        out += [(PN, t("hasRelevance"), REL), (REL, t("hasDomain"), domain_iri(row.domain)),
                (REL, t("hasSolvedPercentage"), decimal_literal(pct)),
                (REL, t("hasRelevanceTier"), string_literal(tier))]
    if planners:
        out += [(R, RDF_TYPE, c("DomainRequirement")) for R in requirements]
    return out


# --- competency questions --------------------------------------------------


class CompetencyQuery(NamedTuple):
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


@contextmanager
def _file_access(path: Path):
    """Turn any OSError in the block into a FileAccessError naming `path`,
    and the file the error is about when that is another one."""
    try:
        yield
    except OSError as exc:
        reason = exc.strerror or str(exc)
        if exc.filename is not None and str(exc.filename) != str(path):
            reason += ": {}".format(exc.filename)
        raise FileAccessError("{}: {}".format(path, reason)) from exc


def read_input(path: Path) -> str:
    """The text of an input file, decoded as UTF-8.  Raises NotUtf8, naming
    the file, on bytes that are not UTF-8, and FileAccessError on a file
    that cannot be read (missing, a directory, unreadable)."""
    with _file_access(path):
        try:
            return path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise NotUtf8("{}: not UTF-8 text ({})".format(path, exc)) from exc


def write_output(path: Path, text: str) -> None:
    """Write text to a file as UTF-8, creating any missing parent
    directory.  Raises FileAccessError on a path that cannot be written."""
    with _file_access(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


class PlanEntry(NamedTuple):
    problem: str
    planner: str
    plan: Plan


def load_plans(
    d: DomainDef, problems: Iterable[ProblemDef], paths: Iterable[Path]
) -> tuple[list[PlanEntry], list[str]]:
    """Resolve `<problem>.<planner>.plan` files against a bundle's problems.

    Returns the plan entries and one message per file that is skipped because
    its name has no planner part or names a problem outside the bundle.
    Raises MappingError, naming the file, for a step that no ground action
    matches and for a plan that does not solve its problem.
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
        try:
            plan = resolve_plan(d, problem, read_input(path))
        except PlanParseError as exc:
            raise MappingError("{}: {}".format(path, exc)) from exc
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
