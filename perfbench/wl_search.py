"""`search` workload: seeded tasks solved in-process with `bench.solve`.

Phase 1 (the blind set) runs breadth-first search with the `zero` heuristic:
FIFO frontier, no heuristic calls.  Phase 2 (the informed set) runs A* and
greedy best-first with `goal-count`, each task in the original domain and in
the domain augmented with the top-2 macros mined from constructive plans, as
`bench_compare` does: a heap frontier, heuristic calls, and more ground
actions per state.  Search is nearly all of the time; the graph layers run
only during set-up, to mine the macros.

The task families are built so that each seed gives the same search spaces
up to renaming (see `gen.blocksworld_reversal`): the seed changes names and
so the order in which ties are broken, which moves the counters by a few per
cent, not the size of the work.
"""

from __future__ import annotations

import random

import gen
import strips
from core import Context, Ops, PassResult, self_peak_rss_kb
from plankb import bench, macros, mapper, semantics
from plankb.kg.store import Graph
from plankb.pddl import parser

# Each task needs under 3,000 expansions; hitting a limit counts as a failure.
LIMITS = dict(max_expansions=50_000, max_seconds=30.0)
BLIND = bench.SearchConfig(algorithm="breadth-first", heuristic="zero", **LIMITS)
INFORMED = (
    bench.SearchConfig(algorithm="a-star", heuristic="goal-count", **LIMITS),
    bench.SearchConfig(algorithm="greedy-best-first", heuristic="goal-count", **LIMITS),
)
MACRO_K = 2


def _tasks(rng: random.Random, small: bool):
    reps = 1 if small else 2
    blind = [gen.blocksworld_reversal(rng, "blind-bw{}".format(i), [3, 3])
             for i in range(3 * reps)]
    blind += [gen.gripper(rng, "blind-gr{}".format(i), 5 if small else 6, 2, False)
              for i in range(reps)]
    blind += [gen.driverlog_ring(rng, "blind-dl{}".format(i), 4, 3) for i in range(reps)]
    informed = [gen.blocksworld_reversal(rng, "inf-bw{}".format(i), [4, 4])
                for i in range(reps)]
    informed += [gen.driverlog_ring(rng, "inf-dl{}".format(i), 6, 3) for i in range(reps)]
    # Macro training corpora: constructive plans, no search needed.
    training = [gen.blocksworld_random(rng, "train-bw{}".format(i), 4 + i % 4)
                for i in range(16)]
    training += [gen.driverlog_ring(rng, "train-dl{}".format(i), 4 + i % 4, 1 + i % 3)
                 for i in range(8)]
    return blind, informed, training


def setup(ctx: Context) -> dict:
    rng = random.Random(ctx.seed)
    blind, informed, training = _tasks(rng, ctx.small)
    data = ctx.root / "src" / "plankb" / "data" / "domains"
    texts = {}
    for name in ("blocksworld", "gripper", "driverlog"):
        path = ctx.work / (name + ".pddl")
        path.write_text((data / (name + ".pddl")).read_text())
        texts[name] = path.read_text()
    gen.write_bundle(ctx.work / "problems.pddl",
                     {t.name: gen.problem_pddl(t) for t in blind + informed + training})
    gen.write_bundle(ctx.work / "plans.txt", {t.name: gen.plan_text(t.plan) for t in training})
    problem_text = gen.read_bundle(ctx.work / "problems.pddl")
    plan_text = gen.read_bundle(ctx.work / "plans.txt")

    domains = {n: parser.parse_domain(text) for n, text in texts.items()}

    def load(t):
        return parser.parse_problem(problem_text[t.name], domains[t.domain])

    # Mine the macros of each informed domain from the training plans.
    mined = {}
    for dname in ("blocksworld", "driverlog"):
        d = domains[dname]
        g = Graph()
        g.update(mapper.map_domain(d))
        for t in training:
            if t.domain != dname:
                continue
            p = load(t)
            g.update(mapper.map_problem(p, g))
            plan = semantics.parse_plan_text(plan_text[t.name], semantics.ground(d, p))
            g.update(mapper.describe_planner("constructive"))
            g.update(mapper.map_plan(plan, mapper.problem_iri(dname, t.name),
                                     mapper.planner_iri("constructive")))
        mined[dname] = macros.mine_macros(g, d, mapper.domain_iri(dname))

    return {
        "domains": domains,
        "blind": [(t, load(t)) for t in blind],
        "informed": [(t, load(t)) for t in informed],
        "macros": mined,
    }


def _steps(plan, macro_defs) -> list[gen.Step]:
    """Primitive steps of a returned plan, expanding each macro step into its
    two actions by the macro's own parameter mapping."""
    out = []
    for s in plan.steps:
        m = macro_defs.get(s.schema)
        if m is None:
            out.append((s.schema,) + s.objects)
            continue
        binding = dict(s.binding)
        out.append((m.first,) + tuple(binding[v] for v in m.first_args))
        out.append((m.second,) + tuple(binding[v] for v in m.second_args))
    return out


def run_pass(state: dict, tracer, verify: bool) -> PassResult:
    solved = []  # (task, variant, cfg, plan, stats)
    ops = Ops()
    with tracer.span("phase1"):
        for t, p in state["blind"]:
            with ops.op(1, t.name):
                plan, stats = bench.solve(state["domains"][t.domain], p, BLIND)
            solved.append((t, "original", BLIND, plan, stats))
    with tracer.span("phase2"):
        with ops.op(2, "augment"):
            augmented = {
                n: macros.augment_domain(state["domains"][n], ms, MACRO_K)
                for n, ms in state["macros"].items()
            }
        for t, p in state["informed"]:
            for cfg in INFORMED:
                for variant, d in (("original", state["domains"][t.domain]),
                                   ("macro", augmented[t.domain])):
                    with ops.op(2, "{} {} {}".format(t.name, variant, cfg.algorithm)):
                        plan, stats = bench.solve(d, p, cfg)
                    solved.append((t, variant, cfg, plan, stats))

    failures = []
    outputs = []
    counts = dict.fromkeys(("expanded", "evaluated", "generated", "plan_cost", "solved"), 0)
    # The macro actions of each augmented domain, by the name they got there.
    macro_defs = {
        n: dict(zip((a.name for a in augmented[n].actions[len(state["domains"][n].actions):]),
                    state["macros"][n][:MACRO_K]))
        for n in augmented
    }
    for t, variant, cfg, plan, stats in solved:
        label = "{} {} {}".format(t.name, variant, cfg.algorithm)
        row = {"expanded": stats.expanded, "evaluated": stats.evaluated,
               "generated": stats.generated, "plan_cost": stats.plan_cost or 0,
               "solved": int(stats.status == "solved")}
        for k, v in row.items():
            counts[k] += v
            counts["{}[{}]".format(k, label)] = v
        if plan is None or stats.status != "solved":
            failures.append("{}: {}".format(label, stats.status))
            continue
        steps = _steps(plan, macro_defs[t.domain] if variant == "macro" else {})
        reason = strips.check_plan(t, steps)
        if reason:
            failures.append("{}: invalid plan: {}".format(label, reason))
        outputs.append((label, stats.expanded, stats.evaluated, stats.generated,
                        stats.plan_cost, tuple(s.name for s in plan.steps)))
    return PassResult(ops, counts["expanded"], (1, 2), len(solved), failures, outputs,
                      counts)


def peak_rss_kb() -> int:
    return self_peak_rss_kb()


def extra_layer_metrics(state) -> dict:
    return {}
