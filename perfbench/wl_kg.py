"""`kg` workload: build a planning knowledge graph, then query it.

The corpus is several hundred seeded blocksworld and gripper problems whose
plans the generator writes itself, plus a seeded IPC table larger than the
bundled one.  Phase 1 (build, write-heavy): PDDL text -> `parse_domain` /
`parse_problem` -> `parse_plan_text` (with the `ground` it needs) -> `map_*`
and `Graph.update` -> `validate_axioms` -> `export_turtle` ->
`import_turtle`.  Phase 2 (query, read-heavy) on the re-imported graph: IPC
ingest, the competency-query mix, `select_ontology` and `select_random`,
`mine_pairs` / `chain_filter` / `compose`, `store_macros`.  An index change
that trades writes for reads shows in one phase or the other.  No search
runs here.
"""

from __future__ import annotations

import random
from collections import Counter

import gen
import strips
from core import Context, Ops, PassResult, self_peak_rss_kb
from plankb import macros, mapper, select, semantics
from plankb.kg import axioms, turtle
from plankb.kg.schema import RDF_TYPE, SCHEMA, string_literal
from plankb.kg.store import Graph
from plankb.pddl import parser

DOMAINS = ("blocksworld", "gripper")
PLANNER = "constructive"
# Operations are timed in chunks of this many problems (and five times as
# many queries), small enough that each chunk's fastest pass is likely to
# fall in a quiet moment of the machine.
CHUNK = 20
IPC_OTHER_DOMAINS = ("barman", "elevators", "floortile", "nomystery", "parking",
                     "pegsol", "scanalyzer", "sokoban", "transport", "visitall")


def setup(ctx: Context) -> dict:
    rng = random.Random(ctx.seed)
    n_bw, n_gr = (24, 12) if ctx.small else (120, 60)
    tasks = [gen.blocksworld_random(rng, "bw-{:03d}".format(i), 4 + i % 5)
             for i in range(n_bw)]
    tasks += [gen.gripper(rng, "gr-{:03d}".format(i), 2 + i % 4, 2 + i % 3, True)
              for i in range(n_gr)]
    ipc_domains = list(DOMAINS + IPC_OTHER_DOMAINS)
    ipc_text = gen.ipc_table(rng, 8 if ctx.small else 24, ipc_domains)
    # C4 asks which problems start with a fact: sample one fact per problem.
    facts = [(t.domain, "(" + " ".join(rng.choice(sorted(t.init))) + ")")
             for t in tasks]

    data = ctx.root / "src" / "plankb" / "data" / "domains"
    for d in DOMAINS:
        (ctx.work / (d + ".pddl")).write_text((data / (d + ".pddl")).read_text())
    gen.write_bundle(ctx.work / "problems.pddl", {t.name: gen.problem_pddl(t) for t in tasks})
    gen.write_bundle(ctx.work / "plans.txt", {t.name: gen.plan_text(t.plan) for t in tasks})
    (ctx.work / "ipc.csv").write_text(ipc_text)
    problems = gen.read_bundle(ctx.work / "problems.pddl")
    plans = gen.read_bundle(ctx.work / "plans.txt")

    return {
        "tasks": tasks,
        "domain_text": {d: (ctx.work / (d + ".pddl")).read_text() for d in DOMAINS},
        "problem_text": [problems[t.name] for t in tasks],
        "plan_text": [plans[t.name] for t in tasks],
        "ipc_text": (ctx.work / "ipc.csv").read_text(),
        "ipc_domains": ipc_domains,
        "facts": facts,
        "seed": ctx.seed,
        "failures": [
            "{}: constructive plan invalid: {}".format(t.name, r)
            for t in tasks if (r := strips.check_plan(t, t.plan))
        ],
    }


def _competency_mix(state: dict, domains: dict, planners: list[str]) -> list:
    """(query id, arguments) in the order the query phase runs them."""
    mix = []
    for t in state["tasks"]:
        mix.append(("C6", {"domain": t.domain, "problem": t.name}))
    for dom, fact in state["facts"]:
        mix.append(("C4", {"domain": dom, "fact": fact}))
    for dname, d in domains.items():
        for a in d.actions:
            mix.append(("C7", {"domain": dname, "action": a.name}))
    for p in planners:
        for dom in state["ipc_domains"]:
            mix.append(("C2", {"planner": p, "domain": dom}))
        mix.append(("C8", {"planner": p}))
        mix.append(("C9", {"planner": p}))
    for dom in state["ipc_domains"]:
        for qid in ("C1", "C3", "C5", "C10"):
            mix.append((qid, {"domain": dom}))
    return mix


def run_pass(state: dict, tracer, verify: bool) -> PassResult:
    tasks = state["tasks"]
    ops = Ops()
    with tracer.span("phase1"):
        with ops.op(1, "domains"):
            g = Graph()
            domains = {}
            for dname, text in state["domain_text"].items():
                domains[dname] = parser.parse_domain(text)
                g.update(mapper.map_domain(domains[dname]))
        plans = []
        ground_actions = 0
        items = list(zip(tasks, state["problem_text"], state["plan_text"]))
        for start in range(0, len(items), CHUNK):
            with ops.op(1, "problems {}".format(start)):
                for t, ptext, plan_text in items[start:start + CHUNK]:
                    d = domains[t.domain]
                    p = parser.parse_problem(ptext, d)
                    g.update(mapper.map_problem(p, g))
                    actions = semantics.ground(d, p)
                    ground_actions += len(actions)
                    plan = semantics.parse_plan_text(plan_text, actions)
                    plans.append(plan)
                    g.update(mapper.describe_planner(PLANNER))
                    g.update(mapper.map_plan(plan, mapper.problem_iri(t.domain, t.name),
                                             mapper.planner_iri(PLANNER)))
        with ops.op(1, "axioms"):
            violations = axioms.validate_axioms(g, post_solve=True)
        with ops.op(1, "export"):
            ttl = turtle.export_turtle(g)
        with ops.op(1, "import"):
            g2 = turtle.import_turtle(ttl)
    imported = g2.triples() if verify else None
    with tracer.span("phase2"):
        with ops.op(2, "ipc ingest"):
            rows = select.read_ipc_csv(state["ipc_text"])
            g2.update(mapper.map_ipc_results(rows))
        snapshot = g2.triples() if verify else None
        mix = _competency_mix(state, domains, sorted({r.planner for r in rows}))
        answers = []
        for start in range(0, len(mix), 5 * CHUNK):
            with ops.op(2, "competency {}".format(start)):
                answers += [mapper.run_competency(g2, qid, args)
                            for qid, args in mix[start:start + 5 * CHUNK]]
        with ops.op(2, "select"):
            candidates = g2.subjects_of_type(SCHEMA.cls("Planner"), RDF_TYPE)
            chosen = []
            for i, dom in enumerate(state["ipc_domains"]):
                chosen.append(
                    select.select_ontology(g2, mapper.domain_iri(dom), candidates).chosen)
                chosen.append(select.select_random(candidates, state["seed"] + i).chosen)
        with ops.op(2, "mine, store"):
            mined = {}
            for dname, d in domains.items():
                D = mapper.domain_iri(dname)
                pairs = macros.mine_pairs(g2, D)
                chained = [p for p in pairs if macros.chain_filter(d, p)]
                macros.store_macros(g2, D, [macros.compose(d, p) for p in chained])
                mined[dname] = pairs

    failures = [str(v) for v in violations]
    for t, plan in zip(tasks, plans):
        if [(s.schema,) + s.objects for s in plan.steps] != t.plan:
            failures.append("{}: resolved plan differs from the file".format(t.name))
    if verify:
        if imported != g.triples():
            failures.append("import_turtle(export_turtle(g)) differs from g")
        failures += state["failures"]
        failures += _check_answers(snapshot, mix, answers)
        failures += _check_selection(rows, state["ipc_domains"], chosen[::2])
        failures += _check_mining(tasks, mined)
    attempted = len(tasks) + len(mix) + len(chosen) + len(domains) + 1
    outputs = (len(g), len(g2), ttl, answers, chosen,
               {d: [(p.first, p.second, p.pattern, p.frequency) for p in ps]
                for d, ps in mined.items()})
    counts = {
        "triples": len(g), "turtle_bytes": len(ttl.encode()),
        "ground_actions": ground_actions,
        "plan_steps": sum(len(p.steps) for p in plans),
        "mined_pairs": sum(len(ps) for ps in mined.values()),
        "competency_calls": len(mix),
        "competency_rows": sum(1 if isinstance(a, int) else len(a) for a in answers),
    }
    return PassResult(ops, len(g), (1,), attempted, failures, outputs, counts)


# --- oracles -----------------------------------------------------------------------


class _Scan:
    """Competency queries evaluated from one pass over the triples, without
    the store's indexes or query engine.  Rows are sets of (variable, value)."""

    def __init__(self, triples):
        self.objs: dict = {}
        self.planner_types = set()
        for tr in triples:
            self.objs.setdefault((tr.subject, tr.predicate), set()).add(tr.object)
            if tr.predicate == RDF_TYPE and tr.object == SCHEMA.cls("PlannerType"):
                self.planner_types.add(tr.subject)

    def o(self, s, prop: str) -> set:
        return self.objs.get((s, SCHEMA.prop(prop)), set())

    def answer(self, qid: str, args: dict):
        o = self.o

        def rows(var, values):
            return Counter(frozenset({(var, v)}) for v in values)

        if qid == "C1":
            return rows("t", self.planner_types)
        if qid == "C2":
            D = mapper.domain_iri(args["domain"])
            return rows("tier", {tier for r in o(mapper.planner_iri(args["planner"]),
                                                 "hasRelevance")
                                 if D in o(r, "hasDomain")
                                 for tier in o(r, "hasRelevanceTier")})
        if qid == "C3":
            return rows("a", o(mapper.domain_iri(args["domain"]), "hasAction"))
        if qid == "C4":
            fact = string_literal(args["fact"])
            return rows("p", {p for p in o(mapper.domain_iri(args["domain"]), "hasProblem")
                              if any(fact in o(s, "hasStateFact")
                                     for s in o(p, "hasInitialState"))})
        if qid == "C5":
            return rows("r", o(mapper.domain_iri(args["domain"]), "hasRequirement"))
        if qid == "C6":
            PR = mapper.problem_iri(args["domain"], args["problem"])
            return Counter(frozenset({("pl", pl), ("cost", c)})
                           for pl in o(PR, "hasPlan") for c in o(pl, "hasPlanCost"))
        if qid == "C7":
            return len(o(mapper.action_iri(args["domain"], args["action"]), "hasParameter"))
        if qid == "C8":
            return rows("t", o(mapper.planner_iri(args["planner"]), "ofPlannerType"))
        if qid == "C9":
            return rows("r", o(mapper.planner_iri(args["planner"]), "solvesRequirement"))
        if qid == "C10":
            return rows("t", o(mapper.domain_iri(args["domain"]), "hasParameterType"))
        raise KeyError(qid)


def _check_answers(triples, mix, answers) -> list[str]:
    scan = _Scan(triples)
    out = []
    for (qid, args), got in zip(mix, answers):
        if not isinstance(got, int):
            got = Counter(frozenset(row.items()) for row in got)
        if got != scan.answer(qid, args):
            out.append("{} {}: answer differs from a triple scan".format(qid, args))
    return out


def _check_selection(rows, domains, chosen) -> list[str]:
    """The ontology policy must pick the best solved share, ties to the
    lexicographically smallest planner IRI."""
    out = []
    for dom, got in zip(domains, chosen):
        recs = [r for r in rows if r.domain == dom]
        best = min(recs, key=lambda r: (-r.solved / r.total,
                                        mapper.planner_iri(r.planner).value))
        if got != mapper.planner_iri(best.planner):
            out.append("select_ontology({}) chose {}".format(dom, got.value))
    return out


def _lift(a: tuple, b: tuple) -> tuple:
    ids: dict = {}
    pattern = tuple(ids.setdefault(x, len(ids)) for x in a[1:] + b[1:])
    return (a[0], b[0], pattern)


def _check_mining(tasks, mined) -> list[str]:
    """Mined pair frequencies must equal a direct count over the plans."""
    out = []
    for dname, pairs in mined.items():
        want = Counter(_lift(a, b) for t in tasks if t.domain == dname
                       for a, b in zip(t.plan, t.plan[1:]))
        got = {(p.first, p.second, p.pattern): p.frequency for p in pairs}
        if got != dict(want):
            out.append("{}: mined pair counts differ from the plans".format(dname))
    return out


def peak_rss_kb() -> int:
    return self_peak_rss_kb()


def extra_layer_metrics(state) -> dict:
    return {}
