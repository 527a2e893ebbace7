"""Instrumented forward state-space search and macro/selection benchmarks."""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .kg.store import Graph, Iri
from .macros import MacroSchema, augment_domain
from .mapper import planner_iri
from .pddl.ast import Atom, DomainDef, ProblemDef
from .select import (
    NoDataForDomain,
    select_ontology,
    select_random,
)
from .semantics import GroundAction, Plan, ground

ALGORITHMS = ("breadth-first", "greedy-best-first", "a-star")
HEURISTICS = ("goal-count", "zero")


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str = "breadth-first"
    heuristic: str = "goal-count"
    max_expansions: int = 1_000_000
    max_seconds: float = 60.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm '{}'".format(self.algorithm))
        if self.heuristic not in HEURISTICS:
            raise ValueError("unknown heuristic '{}'".format(self.heuristic))
        # `not x > 0` also rejects NaN, which would switch a limit off.
        if not (self.max_expansions > 0 and self.max_seconds > 0):
            raise ValueError("limits must be positive")


@dataclass
class SearchStats:
    expanded: int = 0
    evaluated: int = 0
    generated: int = 0
    plan_cost: Optional[int] = None
    wall_time: float = 0.0
    status: str = "solved"  # "solved" | "exhausted" | "limit"


#: One compiled action: (grounding index, pre, neg, keep, add) masks.
Op = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class CompiledTask:
    """A grounded task over bitmask states, built once by `compile_task`.

    Every ground atom that occurs in the initial state, the goal, or an
    action's preconditions or effects owns one bit, and a state is the int
    whose set bits are the atoms true in it (closed world).  Action i
    applies in state s when ``s & pre == pre and not s & neg`` and leads to
    ``(s & keep) | add``, where ``keep`` is the complement of its delete
    mask.  The goal holds when ``s & goal_pos == goal_pos and not s &
    goal_neg``, and goal-count is ``(goal_pos & ~s).bit_count() + (goal_neg
    & s).bit_count()``.

    Successor generator: each action with a positive precondition sits in the
    bucket of exactly one of its precondition bits, so a state's candidates
    are the buckets of its true bits plus `unkeyed`, the actions with no
    positive precondition.  The key is the precondition atom least likely to
    be true: first one that init lacks and no action adds (the action can
    never apply), else one some action adds or deletes, else one that stays
    true; among equals, the atom the fewest actions need, then the least
    (predicate, args).
    """

    actions: tuple[GroundAction, ...]  # in grounding order
    init: int
    goal_pos: int
    goal_neg: int
    buckets: tuple[tuple[Op, ...], ...]  # indexed by key bit position
    keys: int  # the bits whose bucket is not empty
    unkeyed: tuple[Op, ...]


def compile_task(d: DomainDef, p: ProblemDef) -> CompiledTask:
    """Ground d and p once and compile the result into bitmasks."""
    actions = tuple(ground(d, p))
    # Atoms are numbered through plain (predicate, args) tuples, whose
    # hashing and comparison run in C; the Atom dataclass's run in Python.
    index: dict[tuple[str, tuple[str, ...]], int] = {}

    def bits(atoms: Iterable[Atom]) -> list[int]:
        return [index.setdefault((x.predicate, x.args), len(index)) for x in atoms]

    def mask_of(bs: Iterable[int]) -> int:
        m = 0
        for b in bs:
            m |= 1 << b
        return m

    def mask(atoms: Iterable[Atom]) -> int:
        return mask_of(bits(atoms))

    init = mask(p.init)
    goal_pos = mask(lit.atom for lit in p.goal if not lit.negated)
    goal_neg = mask(lit.atom for lit in p.goal if lit.negated)
    pre_bits = [bits(a.pre_pos) for a in actions]
    ops = [
        (i, mask_of(pre_bits[i]), mask(a.pre_neg), ~mask(a.delete), mask(a.add))
        for i, a in enumerate(actions)
    ]
    added = deleted = 0
    for _, _, _, keep, add in ops:
        added |= add
        deleted |= ~keep
    never, always = ~(init | added), init & ~deleted
    needed_by = Counter(b for bs in pre_bits for b in bs)
    rank = [
        (0 if never >> b & 1 else 2 if always >> b & 1 else 1, needed_by[b], atom)
        for b, atom in enumerate(index)
    ]
    buckets: list[list[Op]] = [[] for _ in index]
    keys = 0
    unkeyed = []
    for op, bs in zip(ops, pre_bits):
        if bs:
            key = min(bs, key=rank.__getitem__)
            buckets[key].append(op)
            keys |= 1 << key
        else:
            unkeyed.append(op)
    return CompiledTask(
        actions, init, goal_pos, goal_neg,
        tuple(map(tuple, buckets)), keys, tuple(unkeyed),
    )


def search(
    task: CompiledTask, cfg: SearchConfig = SearchConfig(), start: Optional[float] = None
) -> tuple[Optional[Plan], SearchStats]:
    """Forward search from the initial state of a compiled task.

    Counters: generated = nodes constructed (the root included), evaluated =
    heuristic calls, expanded = nodes popped and expanded.  Duplicates are
    detected on generation, before evaluation, so generated >= evaluated >=
    expanded always holds.  The successors of a state are generated in
    grounding order, and ties in the frontier are broken FIFO by generation
    index, so runs are deterministic and match the plain scan over every
    ground action in order.  `start` is the `time.monotonic()` reading that
    `wall_time` and `max_seconds` count from; it defaults to the call.
    """
    if start is None:
        start = time.monotonic()
    clock = time.monotonic
    heappush, heappop = heapq.heappush, heapq.heappop
    breadth_first = cfg.algorithm == "breadth-first"
    greedy = cfg.algorithm == "greedy-best-first"
    count_goals = cfg.heuristic == "goal-count"
    goal_pos, goal_neg = task.goal_pos, task.goal_neg
    buckets, keys, unkeyed = task.buckets, task.keys, task.unkeyed
    max_expansions, deadline = cfg.max_expansions, start + cfg.max_seconds
    # A* orders by (f, h); h < hbound, so f * hbound + h gives the same
    # order as one int.
    hbound = goal_pos.bit_count() + goal_neg.bit_count() + 1

    s = task.init
    h = (goal_pos & ~s).bit_count() + (goal_neg & s).bit_count() if count_goals else 0
    key = 0 if breadth_first else h if greedy else h * hbound + h
    # state -> (predecessor, action index); also the set of seen states.
    parent: dict[int, Optional[tuple[int, int]]] = {s: None}
    frontier = [(key, 0, s, 0)]  # (priority, generation index, state, depth)
    # evaluated, the root aside, doubles as the generation index.
    expanded = generated = evaluated = 0
    status = "exhausted"
    while frontier:
        if clock() > deadline:
            status = "limit"
            break
        _, _, s, depth = heappop(frontier)
        if s & goal_pos == goal_pos and not s & goal_neg:
            status = "solved"
            break
        if expanded >= max_expansions:
            status = "limit"
            break
        expanded += 1
        applicable = [op for op in unkeyed if not s & op[2]]
        rest = s & keys
        while rest:
            low = rest & -rest
            for op in buckets[low.bit_length() - 1]:
                if s & op[1] == op[1] and not s & op[2]:
                    applicable.append(op)
            rest ^= low
        applicable.sort()
        depth += 1
        for i, _, _, keep, add in applicable:
            succ = s & keep | add
            generated += 1
            if succ in parent:
                continue
            parent[succ] = (s, i)
            evaluated += 1
            if breadth_first:
                key = depth
            else:
                h = (
                    (goal_pos & ~succ).bit_count() + (goal_neg & succ).bit_count()
                    if count_goals else 0
                )
                key = h if greedy else (depth + h) * hbound + h
            heappush(frontier, (key, evaluated, succ, depth))

    stats = SearchStats(expanded, evaluated + 1, generated + 1, status=status)
    plan = None
    if status == "solved":
        steps = []
        link = parent[s]
        while link is not None:
            s, i = link
            steps.append(task.actions[i])
            link = parent[s]
        steps.reverse()
        plan = Plan(tuple(steps))
        stats.plan_cost = plan.cost
    stats.wall_time = clock() - start
    return plan, stats


def solve(
    d: DomainDef, p: ProblemDef, cfg: SearchConfig = SearchConfig()
) -> tuple[Optional[Plan], SearchStats]:
    """Ground and compile the task, then `search` it; `wall_time` and the
    time limit include the compilation."""
    start = time.monotonic()
    return search(compile_task(d, p), cfg, start)


# --- macro benchmark -------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    problem: str
    variant: str  # "original" | "macro", or a selection policy
    stats: SearchStats
    planner: str = ""  # the configuration a selection policy picked


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def solved_rows(self, variant: str) -> list[BenchRow]:
        return [
            r for r in self.rows if r.variant == variant and r.stats.status == "solved"
        ]

    def mean(self, variant: str, attr: str) -> Optional[float]:
        rows = self.solved_rows(variant)
        if not rows:
            return None
        return sum(getattr(r.stats, attr) for r in rows) / len(rows)

    def regressions(self) -> list[str]:
        """Problems where the macro variant expanded more nodes."""
        original = {r.problem: r.stats for r in self.rows if r.variant == "original"}
        out = []
        for r in self.rows:
            if r.variant != "macro" or r.stats.status != "solved":
                continue
            base = original.get(r.problem)
            if base and base.status == "solved" and r.stats.expanded > base.expanded:
                out.append(r.problem)
        return out

    def to_csv(self) -> str:
        lines = ["problem,variant,expanded,evaluated,generated,cost,time"]
        for r in self.rows:
            cost = "" if r.stats.plan_cost is None else r.stats.plan_cost
            lines.append(
                "{},{},{},{},{},{},{:.4f}".format(
                    r.problem, r.variant, r.stats.expanded, r.stats.evaluated,
                    r.stats.generated, cost, r.stats.wall_time,
                )
            )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = "{:<16} {:<9} {:>9} {:>9} {:>9} {:>6}".format(
            "problem", "variant", "expanded", "evaluated", "generated", "cost"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            cost = "-" if r.stats.plan_cost is None else str(r.stats.plan_cost)
            lines.append(
                "{:<16} {:<9} {:>9} {:>9} {:>9} {:>6}".format(
                    r.problem, r.variant, r.stats.expanded, r.stats.evaluated,
                    r.stats.generated, cost,
                )
            )
        for variant in dict.fromkeys(r.variant for r in self.rows):
            means = [self.mean(variant, a) for a in ("expanded", "evaluated", "generated")]
            if means[0] is not None:
                lines.append(
                    "{:<16} {:<9} {:>9.1f} {:>9.1f} {:>9.1f}".format(
                        "mean", variant, *means
                    )
                )
        regressed = self.regressions()
        if regressed:
            lines.append("macro regressions: " + ", ".join(regressed))
        for f in self.failures:
            lines.append("no data: " + f)
        return "\n".join(lines)


def bench_compare(
    d: DomainDef,
    macros: Iterable[MacroSchema],
    problems: Iterable[ProblemDef],
    cfg: SearchConfig = SearchConfig(),
    k: int = 2,
) -> BenchReport:
    """Solve each problem in the original and macro-augmented domain."""
    macros = list(macros)
    augmented = augment_domain(d, macros, k)
    report = BenchReport()
    for p in problems:
        for variant, dom in (("original", d), ("macro", augmented)):
            _, stats = solve(dom, p, cfg)
            report.rows.append(BenchRow(p.name, variant, stats))
    return report


# --- selection-policy experiment ------------------------------------------

#: Built-in planner configurations that stand in for external planners.
PLANNER_CONFIGS: dict[str, SearchConfig] = {
    "bfs": SearchConfig(algorithm="breadth-first", heuristic="zero"),
    "gbfs-goalcount": SearchConfig(algorithm="greedy-best-first", heuristic="goal-count"),
    "astar-goalcount": SearchConfig(algorithm="a-star", heuristic="goal-count"),
    "gbfs-zero": SearchConfig(algorithm="greedy-best-first", heuristic="zero"),
}


def policy_experiment(
    g: Graph,
    tasks: Iterable[tuple[DomainDef, Iri, ProblemDef]],
    seed: int = 0,
) -> BenchReport:
    """Run the ontology and random selection policies over (domain, problem)
    tasks, picking among the built-in planner configurations.  Each row's
    variant is the policy that picked its planner."""
    candidates = [planner_iri(name) for name in sorted(PLANNER_CONFIGS)]
    local = {planner_iri(name): name for name in PLANNER_CONFIGS}

    report = BenchReport()
    for i, (d, domain, p) in enumerate(tasks):
        task = compile_task(d, p)
        try:
            picked = select_ontology(g, domain, candidates)
        except NoDataForDomain as exc:
            report.failures.append("{}: {}".format(p.name, exc))
            picked = None
        if picked is not None:
            name = local[picked.chosen]
            _, stats = search(task, PLANNER_CONFIGS[name])
            report.rows.append(BenchRow(p.name, "ontology", stats, name))
        outcome = select_random(candidates, seed + i)
        name = local[outcome.chosen]
        _, stats = search(task, PLANNER_CONFIGS[name])
        report.rows.append(BenchRow(p.name, "random", stats, name))
    return report
