"""Instrumented forward search: optimality, counters, determinism, limits."""

import collections
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb import bundles
from plankb.bench import (
    PLANNER_CONFIGS,
    BenchReport,
    SearchConfig,
    bench_compare,
    compile_task,
    policy_experiment,
    search,
    solve,
)
from plankb.mapper import domain_iri, map_ipc_results
from plankb.kg.store import Graph
from plankb.pddl import parse_domain, parse_problem
from plankb.pddl.ast import (
    ActionSchema,
    Atom,
    DomainDef,
    Literal,
    PredicateSchema,
    ProblemDef,
    TypeName,
)
from plankb.select import PlannerRecord
from plankb.semantics import (
    Plan,
    applicable,
    apply_action,
    goal_satisfied,
    ground,
    validate_plan,
)


def oracle_optimal_cost(d, p):
    """Independent breadth-first distance search over the state graph."""
    actions = ground(d, p)
    init = frozenset(p.init)
    dist = {init: 0}
    queue = collections.deque([init])
    best = None
    while queue:
        s = queue.popleft()
        satisfied = all(lit.negated != (lit.atom in s) for lit in p.goal)
        if satisfied:
            best = dist[s] if best is None else min(best, dist[s])
            continue
        for a in actions:
            if applicable(s, a):
                t = apply_action(s, a)
                if t not in dist:
                    dist[t] = dist[s] + 1
                    queue.append(t)
    return best


def all_tasks():
    tasks = []
    for name in bundles.DOMAIN_NAMES:
        d = bundles.load_domain(name)
        for p in bundles.load_problems(name):
            tasks.append(pytest.param(d, p, id="{}-{}".format(name, p.name)))
    return tasks


@pytest.mark.parametrize("d,p", all_tasks())
def test_bfs_cost_matches_exhaustive_oracle(d, p):
    cfg = SearchConfig(algorithm="breadth-first", heuristic="zero",
                       max_expansions=2_000_000)
    plan, stats = solve(d, p, cfg)
    assert plan is not None
    assert stats.status == "solved"
    assert plan.cost == oracle_optimal_cost(d, p)
    assert validate_plan(d, p, plan).valid


@pytest.mark.parametrize("algo", ["breadth-first", "greedy-best-first", "a-star"])
@pytest.mark.parametrize("heuristic", ["goal-count", "zero"])
def test_all_configs_solve_and_validate(algo, heuristic):
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    cfg = SearchConfig(algorithm=algo, heuristic=heuristic)
    plan, stats = solve(d, p, cfg)
    assert plan is not None
    assert validate_plan(d, p, plan).valid
    assert stats.plan_cost == plan.cost


def test_astar_goalcount_is_optimal_here():
    # Goal count never overestimates for these unit-cost goals, so A* stays
    # optimal on the bundled instances.
    d = bundles.load_domain("blocksworld")
    for p in bundles.load_problems("blocksworld")[:5]:
        cfg = SearchConfig(algorithm="a-star", heuristic="goal-count")
        plan, _ = solve(d, p, cfg)
        assert plan.cost == oracle_optimal_cost(d, p)


def test_counter_ordering_invariant():
    for name in bundles.DOMAIN_NAMES:
        d = bundles.load_domain(name)
        for p in bundles.load_problems(name):
            for cfg in PLANNER_CONFIGS.values():
                _, stats = solve(d, p, cfg)
                assert stats.generated >= stats.evaluated >= stats.expanded


def test_trivial_goal_counts_root_only():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    trivial = ProblemDef(p.name, p.domain_name, p.objects, p.init, frozenset())
    plan, stats = solve(d, trivial)
    assert plan is not None and len(plan) == 0
    assert stats.expanded == 0
    assert stats.generated == stats.evaluated == 1


def test_determinism_across_runs():
    d = bundles.load_domain("gripper")
    p = bundles.load_problems("gripper")[2]
    for cfg in PLANNER_CONFIGS.values():
        p1, s1 = solve(d, p, cfg)
        p2, s2 = solve(d, p, cfg)
        assert [a.name for a in p1.steps] == [a.name for a in p2.steps]
        assert (s1.expanded, s1.evaluated, s1.generated) == (
            s2.expanded, s2.evaluated, s2.generated
        )


def test_expansion_limit_reported():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[7]
    cfg = SearchConfig(algorithm="breadth-first", heuristic="zero",
                       max_expansions=5)
    plan, stats = solve(d, p, cfg)
    assert plan is None
    assert stats.status == "limit"
    assert stats.expanded <= 5


def test_unsolvable_reports_exhausted():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    impossible = ProblemDef(
        p.name, p.domain_name, p.objects, p.init,
        frozenset({Literal(Atom("on", ("a", "a")))}),
    )
    plan, stats = solve(d, impossible)
    assert plan is None
    assert stats.status == "exhausted"


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        SearchConfig(algorithm="dfs")
    with pytest.raises(ValueError):
        SearchConfig(heuristic="landmarks")
    with pytest.raises(ValueError):
        SearchConfig(max_expansions=0)
    for seconds in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            SearchConfig(max_seconds=seconds)


# --- benchmark report -------------------------------------------------------


def test_bench_compare_aggregates(bw_bundle, bw_graph):
    from plankb.macros import mine_macros

    d, problems, _ = bw_bundle
    macros = mine_macros(bw_graph, d, domain_iri("blocksworld"))
    cfg = SearchConfig(algorithm="greedy-best-first", heuristic="goal-count")
    report = bench_compare(d, macros, problems, cfg, k=2)
    assert len(report.rows) == 2 * len(problems)
    for variant in ("original", "macro"):
        rows = report.solved_rows(variant)
        assert rows
        expect = sum(r.stats.expanded for r in rows) / len(rows)
        assert report.mean(variant, "expanded") == expect
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "problem,variant,expanded,evaluated,generated,cost,time"
    assert len(lines) == 1 + len(report.rows)
    table = report.format_table()
    assert "mean" in table


def test_bench_report_empty_mean():
    assert BenchReport().mean("original", "expanded") is None


# --- selection-policy experiment -------------------------------------------


def test_policy_experiment_runs():
    d = bundles.load_domain("blocksworld")
    problems = bundles.load_problems("blocksworld")[:3]
    g = Graph()
    g.update(map_ipc_results(
        [PlannerRecord(name, "blocksworld", 10 + i, 20)
         for i, name in enumerate(sorted(PLANNER_CONFIGS))]
    ))
    report = policy_experiment(
        g, [(d, domain_iri("blocksworld"), p) for p in problems], seed=1
    )
    ontology_rows = [r for r in report.rows if r.variant == "ontology"]
    random_rows = [r for r in report.rows if r.variant == "random"]
    assert len(ontology_rows) == len(random_rows) == 3
    # The ontology policy always picks the top-rated configuration.
    best = sorted(PLANNER_CONFIGS)[-1]
    assert {r.planner for r in ontology_rows} == {best}
    assert report.failures == []
    assert "mean" in report.format_table()


def test_policy_experiment_reports_missing_data():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    report = policy_experiment(Graph(), [(d, domain_iri("blocksworld"), p)])
    assert len(report.failures) == 1
    assert [r.variant for r in report.rows] == ["random"]


# --- compiled core against the frozenset reference -------------------------


def reference_solve(d, p, cfg):
    """The search over frozenset states that the compiled core replaced: it
    scans every ground action in grounding order at every expansion and
    applies it through `semantics`.  Returns (plan, status, expanded,
    evaluated, generated)."""
    actions = ground(d, p)

    def h(s):
        if cfg.heuristic == "zero":
            return 0
        return sum(1 for lit in p.goal if lit.negated == (lit.atom in s))

    def priority(hval, depth):
        if cfg.algorithm == "breadth-first":
            return (depth,)
        if cfg.algorithm == "greedy-best-first":
            return (hval,)
        return (depth + hval, hval)

    init = frozenset(p.init)
    root = (init, None, None, 0)  # (state, parent node, action, depth)
    expanded, evaluated, generated = 0, 1, 1
    counter = 0
    frontier = [(priority(h(init), 0), counter, root)]
    seen = {init}
    while frontier:
        _, _, node = heapq.heappop(frontier)
        state, _, _, depth = node
        if goal_satisfied(state, p):
            steps = []
            while node[1] is not None:
                steps.append(node[2])
                node = node[1]
            return Plan(tuple(reversed(steps))), "solved", expanded, evaluated, generated
        if expanded >= cfg.max_expansions:
            return None, "limit", expanded, evaluated, generated
        expanded += 1
        for a in actions:
            if applicable(state, a):
                succ = apply_action(state, a)
                generated += 1
                if succ in seen:
                    continue
                seen.add(succ)
                evaluated += 1
                counter += 1
                heapq.heappush(
                    frontier,
                    (priority(h(succ), depth + 1), counter, (succ, node, a, depth + 1)),
                )
    return None, "exhausted", expanded, evaluated, generated


def assert_matches_reference(d, p, cfg):
    plan, stats = solve(d, p, cfg)
    ref_plan, status, expanded, evaluated, generated = reference_solve(d, p, cfg)
    assert (stats.status, stats.expanded, stats.evaluated, stats.generated) == (
        status, expanded, evaluated, generated
    )
    if ref_plan is None:
        assert plan is None and stats.plan_cost is None
    else:
        assert [a.name for a in plan.steps] == [a.name for a in ref_plan.steps]
        assert stats.plan_cost == ref_plan.cost
    return plan, stats


ALL_CONFIGS = [
    SearchConfig(algorithm=algo, heuristic=heuristic, max_expansions=200_000)
    for algo in ("breadth-first", "greedy-best-first", "a-star")
    for heuristic in ("goal-count", "zero")
]


@pytest.mark.parametrize("d,p", all_tasks())
def test_compiled_search_matches_reference(d, p):
    for cfg in ALL_CONFIGS:
        assert_matches_reference(d, p, cfg)


LIGHTS_DOMAIN = """
(define (domain lights)
  (:requirements :strips :typing :negative-preconditions)
  (:types lamp)
  (:predicates (lit ?x - lamp) (broken ?x - lamp) (powered))
  (:action switch-on
    :parameters (?x - lamp)
    :precondition (and (powered) (not (lit ?x)) (not (broken ?x)))
    :effect (lit ?x))
  (:action switch-off
    :parameters (?x - lamp)
    :precondition (lit ?x)
    :effect (not (lit ?x)))
  (:action cut-power
    :parameters ()
    :precondition (powered)
    :effect (not (powered)))
  (:action restore-power
    :parameters ()
    :precondition (not (powered))
    :effect (powered)))
"""

LIGHTS_PROBLEM = """
(define (problem lights-{name})
  (:domain lights)
  (:objects a b c - lamp)
  (:init (powered) (broken c) (lit b))
  (:goal (and {goal})))
"""


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.algorithm + "/" + c.heuristic)
def test_compiled_search_negative_literals(cfg):
    d = parse_domain(LIGHTS_DOMAIN)
    # A negated goal literal, and negative preconditions that keep lamp c
    # dark; restore-power has no positive precondition.
    p = parse_problem(LIGHTS_PROBLEM.format(
        name="off", goal="(lit a) (not (lit b)) (not (powered))"), d)
    plan, stats = assert_matches_reference(d, p, cfg)
    assert stats.status == "solved"
    assert validate_plan(d, p, plan).valid
    # No action adds (broken a), so the goal is unreachable.
    p = parse_problem(LIGHTS_PROBLEM.format(name="stuck", goal="(lit a) (broken a)"), d)
    plan, stats = assert_matches_reference(d, p, cfg)
    assert plan is None and stats.status == "exhausted"


def test_compiled_task_masks():
    d = parse_domain(LIGHTS_DOMAIN)
    p = parse_problem(LIGHTS_PROBLEM.format(name="off", goal="(not (lit b))"), d)
    task = compile_task(d, p)
    actions = [task.action(i) for i in range(len(task.groundings))]
    assert [a.name for a in actions] == [a.name for a in ground(d, p)]
    assert task.init.bit_count() == len(p.init)
    assert task.goal_pos == 0 and task.goal_neg.bit_count() == 1
    # restore-power is the only action with no positive precondition.
    assert [task.action(op[0]).name for op in task.unkeyed] == ["(restore-power)"]
    keyed = sorted(op[0] for bucket in task.buckets for op in bucket)
    assert keyed == sorted(set(range(len(actions))) - {op[0] for op in task.unkeyed})


# --- compiled tasks on random STRIPS tasks ----------------------------------

_TYPES = ("object", "t1", "t2", "t3")  # t1 - object, t2 - t1, t3 - object
_PREDICATES = (
    PredicateSchema("p0", ()),
    PredicateSchema("p1", (("?a", "object"),)),
    PredicateSchema("p2", (("?a", "object"), ("?b", "object"))),
)


@st.composite
def strips_tasks(draw):
    """A small typed STRIPS task with constants, `=` and `not =`, negative
    preconditions, an initial state and a goal that it does not satisfy.
    The last action adds (p1 ?x0) and deletes (p1 ?x1): one atom wherever
    ?x0 and ?x1 are bound alike."""

    def atom(terms):
        pred = draw(st.sampled_from(_PREDICATES))
        return Atom(pred.name, tuple(draw(st.sampled_from(terms)) for _ in pred.params))

    def action(name, params, add=(), delete=()):
        terms = [v for v, _ in params] + ["c1"]
        n = draw(st.integers(0, 2))
        pre = [Literal(atom(terms), draw(st.booleans())) for _ in range(n)]
        if draw(st.booleans()):
            equal = Atom("=", (draw(st.sampled_from(terms)), draw(st.sampled_from(terms))))
            pre.append(Literal(equal, draw(st.booleans())))
        add = list(add) + [atom(terms) for _ in range(draw(st.integers(1, 2)))]
        delete = list(delete) + [atom(terms) for _ in range(draw(st.integers(0, 2)))]
        return ActionSchema.make(name, params, pre, add, delete)

    actions = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 2))
        params = tuple(("?x{}".format(i), draw(st.sampled_from(_TYPES))) for i in range(n))
        actions.append(action("a{}".format(k), params))
    actions.append(action("swap", (("?x0", "object"), ("?x1", "t1")),
                          [Atom("p1", ("?x0",))], [Atom("p1", ("?x1",))]))
    d = DomainDef(
        "rand",
        frozenset({":strips", ":typing", ":negative-preconditions", ":equality"}),
        (TypeName("t1"), TypeName("t2", "t1"), TypeName("t3")),
        (("c1", draw(st.sampled_from(_TYPES))),),
        _PREDICATES,
        tuple(actions),
    )
    objects = tuple(
        (name, draw(st.sampled_from(_TYPES)))
        for name in ("o1", "o2", "o3")[:draw(st.integers(1, 3))]
    )
    names = ["c1"] + [o for o, _ in objects]
    universe = [Atom("p0", ())] + [Atom("p1", (x,)) for x in names] + [
        Atom("p2", (x, y)) for x in names for y in names]
    init = frozenset(a for a in universe if draw(st.booleans()))
    # The first goal literal is false initially, so the root is no goal.
    goal = frozenset(
        Literal(a, a in init if k == 0 else draw(st.booleans()))
        for k, a in enumerate(draw(st.lists(st.sampled_from(universe), min_size=1, max_size=3)))
    )
    return d, ProblemDef("rand-1", "rand", objects, init, goal)


@settings(max_examples=150, deadline=None)
@given(strips_tasks())
def test_compiled_masks_equal_the_ground_actions(task):
    d, p = task
    actions = ground(d, p)
    compiled = compile_task(d, p)
    assert len(set(compiled.atoms)) == len(compiled.atoms)
    bit = {Atom(pred, args): 1 << b for b, (pred, args) in enumerate(compiled.atoms)}

    def mask(atoms):
        return sum(bit[a] for a in set(atoms))

    assert compiled.init == mask(p.init)
    assert compiled.goal_pos == mask(lit.atom for lit in p.goal if not lit.negated)
    assert compiled.goal_neg == mask(lit.atom for lit in p.goal if lit.negated)
    ops = sorted([op for bucket in compiled.buckets for op in bucket] + list(compiled.unkeyed))
    assert [op[0] for op in ops] == list(range(len(actions)))
    for (i, pre, neg, keep, add), a in zip(ops, actions):
        assert compiled.action(i) == a
        assert (pre, neg, keep, add) == (
            mask(a.pre_pos), mask(a.pre_neg), ~mask(a.delete), mask(a.add))
    # The key of each action: its precondition atom that is never true, else
    # one that changes, else one that stays true; then the one the fewest
    # actions need, then the least (predicate, args).
    added = mask(x for a in actions for x in a.add)
    deleted = mask(x for a in actions for x in a.delete)
    needed = collections.Counter(x for a in actions for x in a.pre_pos)

    def rank(x):
        b = bit[x]
        kind = 0 if not b & (compiled.init | added) else 2 if b & compiled.init & ~deleted else 1
        return kind, needed[x], (x.predicate, x.args)

    for b, bucket in enumerate(compiled.buckets):
        assert bool(bucket) == bool(compiled.keys >> b & 1)
        assert all(bit[min(actions[op[0]].pre_pos, key=rank)] == 1 << b for op in bucket)
    assert all(not actions[op[0]].pre_pos for op in compiled.unkeyed)


@settings(max_examples=100, deadline=None)
@given(strips_tasks())
def test_compiled_search_matches_reference_on_random_tasks(task):
    d, p = task
    for cfg in ALL_CONFIGS:
        assert_matches_reference(d, p, SearchConfig(
            algorithm=cfg.algorithm, heuristic=cfg.heuristic, max_expansions=300))


def test_search_reuses_a_compiled_task():
    d = bundles.load_domain("gripper")
    p = bundles.load_problems("gripper")[0]
    task = compile_task(d, p)
    for cfg in PLANNER_CONFIGS.values():
        plan, stats = search(task, cfg)
        expect_plan, expect = solve(d, p, cfg)
        assert plan == expect_plan
        assert (stats.expanded, stats.evaluated, stats.generated) == (
            expect.expanded, expect.evaluated, expect.generated
        )
