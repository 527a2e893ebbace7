"""Instrumented forward state-space search and the macro benchmark."""

from __future__ import annotations

import heapq
import time
from collections import Counter, deque
from functools import reduce
from itertools import chain, count, filterfalse, repeat
from operator import and_, invert, or_
from typing import Iterable, NamedTuple, Optional

from .macros import MacroSchema, augment_domain
from .pddl.ast import Atom, DomainDef, ProblemDef
from .semantics import GroundAction, Plan, Template, groundings

ALGORITHMS = ("breadth-first", "greedy-best-first", "a-star")
HEURISTICS = ("goal-count", "zero")


class _SearchConfig(NamedTuple):
    algorithm: str = "breadth-first"
    heuristic: str = "goal-count"
    max_expansions: int = 1_000_000
    max_seconds: float = 60.0


class SearchConfig(_SearchConfig):
    # A subclass, as typing.NamedTuple does not allow __new__ in its body.
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm '{}'".format(self.algorithm))
        if self.heuristic not in HEURISTICS:
            raise ValueError("unknown heuristic '{}'".format(self.heuristic))
        # `not x > 0` also rejects NaN, which would switch a limit off.
        if not (self.max_expansions > 0 and self.max_seconds > 0):
            raise ValueError("limits must be positive")
        return self


class SearchStats(NamedTuple):
    expanded: int = 0
    evaluated: int = 0
    generated: int = 0
    plan_cost: Optional[int] = None
    wall_time: float = 0.0
    status: str = "solved"  # "solved" | "exhausted" | "limit"


#: One compiled action: (grounding index, pre, neg, keep, add) masks.
Op = tuple[int, int, int, int, int]


class CompiledTask(NamedTuple):
    """A task over bitmask states, built once by `compile_task`.

    Every ground atom that occurs in the initial state, the goal, or an
    action's preconditions or effects owns one bit, `atoms[b]` being the
    (predicate, args) of bit b, and a state is the int whose set bits are
    the atoms true in it (closed world).  Action i applies in state s when
    ``s & pre == pre and not s & neg`` and leads to ``(s & keep) | add``,
    where ``keep`` is the complement of its delete mask.  The goal holds
    when ``s & goal_pos == goal_pos and not s & goal_neg``, and goal-count
    is ``(goal_pos & ~s).bit_count() + (goal_neg & s).bit_count()``.  No
    action makes more than `goal_gain` goal literals true, so no step
    lowers goal-count by more.

    Action i is `groundings[i]`, a (template, combo) pair from
    `semantics.groundings` in `ground`'s order; `action(i)` instantiates
    it, equal by value to ``ground(d, p)[i]``, for plan steps and tests.

    Successor generator: each action with a positive precondition sits in the
    bucket of exactly one of its precondition bits, so a state's candidates
    are the buckets of its true bits plus `unkeyed`, the actions with no
    positive precondition.  The key is the precondition atom least likely to
    be true: first one that init lacks and no action adds (the action can
    never apply), else one some action adds or deletes, else one that stays
    true; among equals, the atom the fewest actions need, then the least
    (predicate, args).
    """

    groundings: tuple[tuple[Template, tuple[str, ...]], ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]  # (predicate, args) per bit
    init: int
    goal_pos: int
    goal_neg: int
    goal_gain: int  # the most goal literals one action makes true; at least 1
    buckets: tuple[tuple[Op, ...], ...]  # indexed by key bit position
    keys: int  # the bits whose bucket is not empty
    unkeyed: tuple[Op, ...]

    def action(self, i: int) -> GroundAction:
        return GroundAction(*self.groundings[i])


def _or_columns(columns: list[list[int]], n: int) -> list[int]:
    """The elementwise OR of equal-length columns; n zeros if there is none."""
    if not columns:
        return [0] * n
    out = columns[0]
    for column in columns[1:]:
        out = list(map(or_, out, column))
    return out


def compile_task(d: DomainDef, p: ProblemDef) -> CompiledTask:
    """Compile d and p into bitmasks straight from the schema templates.

    The bindings come from `semantics.groundings`, so the actions are
    `ground`'s, in its order, but no Atom or GroundAction is built for
    them.  A schema is compiled a column at a time: per template atom, the
    ground atom of every binding and its bit (each distinct atom numbered
    once), then per role the OR of those bits across the role's atoms.
    """
    index: dict[tuple[str, tuple[str, ...]], int] = {}

    def mask(atoms: Iterable[Atom]) -> int:
        m = 0
        for x in atoms:
            m |= 1 << index.setdefault(x, len(index))
        return m

    init = mask(p.init)
    goal_pos = mask(lit.atom for lit in p.goal if not lit.negated)
    goal_neg = mask(lit.atom for lit in p.goal if lit.negated)
    refs: list[tuple[Template, tuple[str, ...]]] = []
    ops: list[Op] = []
    pre_bits: list[tuple[int, ...]] = []  # the distinct positive-precondition bits
    added, kept = 0, -1
    for t, combos in groundings(d, p):
        combos = list(combos)
        n = len(combos)
        if not n:
            continue
        params = list(zip(*combos))  # the objects bound to each parameter
        bit_columns, mask_columns = [], []
        for predicate, spec in t.atoms:
            if spec:
                args = zip(*[params[x] if type(x) is int else repeat(x, n) for x in spec])
            else:
                args = repeat((), n)
            atoms = list(zip(repeat(predicate, n), args))
            new = filterfalse(index.__contains__, dict.fromkeys(atoms))
            index.update(zip(new, count(len(index))))
            bits = list(map(index.__getitem__, atoms))
            bit_columns.append(bits)
            mask_columns.append(list(map((1).__lshift__, bits)))
        i, j, m = t.ends
        add = _or_columns(mask_columns[j:m], n)
        # keep = ~(delete & ~add): an atom both added and deleted stays.
        keep = list(map(or_, map(invert, _or_columns(mask_columns[m:], n)), add))
        added, kept = reduce(or_, add, added), reduce(and_, keep, kept)
        ops.extend(zip(
            range(len(refs), len(refs) + n),
            _or_columns(mask_columns[:i], n),
            _or_columns(mask_columns[i:j], n),
            keep,
            add,
        ))
        refs.extend(zip(repeat(t, n), combos))
        rows = list(zip(*bit_columns[:i])) if i else [()] * n
        if len({predicate for predicate, _ in t.atoms[:i]}) < i:
            # Two precondition literals of one predicate can ground alike.
            rows = [tuple(set(r)) for r in rows]
        pre_bits.extend(rows)
    never, always = ~(init | added), init & kept
    goal_gain = max([1] + [(goal_pos & add).bit_count() + (goal_neg & ~keep).bit_count()
                           for _, _, _, keep, add in ops])
    needed_by = Counter(chain.from_iterable(pre_bits))
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
        tuple(refs), tuple(index), init, goal_pos, goal_neg, goal_gain,
        tuple(map(tuple, buckets)), keys, tuple(unkeyed),
    )


def search(
    task: CompiledTask, cfg: SearchConfig, start: float
) -> tuple[Optional[Plan], SearchStats]:
    """Forward search from the initial state of a compiled task.

    Counters: generated = nodes constructed (the root included), evaluated =
    heuristic calls, expanded = nodes popped and expanded.  Duplicates are
    detected on generation, before evaluation, so generated >= evaluated >=
    expanded always holds.  Breadth-first and greedy drop a state seen
    before.  A* keeps the best g of each state: a state that a cheaper path
    reaches is evaluated and pushed again, so it counts once more in
    evaluated, and its stale entry is skipped, not expanded, when popped.
    A* orders by f = g + ceil(goal-count / goal_gain), a heuristic that no
    step lowers by more than its cost, so its plans are optimal.  The
    successors of a state are generated in grounding order, and ties in the
    frontier are broken FIFO by generation index, so runs are deterministic
    and match the plain scan over every ground action in order.  `start` is
    the `time.monotonic()` reading that `wall_time` and `max_seconds` count
    from.
    """
    clock = time.monotonic
    breadth_first = cfg.algorithm == "breadth-first"
    greedy = cfg.algorithm == "greedy-best-first"
    a_star = not (breadth_first or greedy)
    count_goals = cfg.heuristic == "goal-count"
    gain = task.goal_gain if a_star else 1
    goal_pos, goal_neg = task.goal_pos, task.goal_neg
    buckets, keys, unkeyed = task.buckets, task.keys, task.unkeyed
    max_expansions, deadline = cfg.max_expansions, start + cfg.max_seconds
    # A* orders by (f, h); h < hbound, so f * hbound + h gives the same
    # order as one int.
    hbound = goal_pos.bit_count() + goal_neg.bit_count() + 1

    s = task.init
    # state -> (predecessor, action index); also the set of seen states.
    parent: dict[int, Optional[tuple[int, int]]] = {s: None}
    depth = 0
    best = {s: 0}  # A* only: state -> the least g it was pushed with
    # The heap holds (priority, generation index, state, depth) entries.
    # Breadth-first would push them in (depth, generation index) order, as
    # depth never decreases, so a FIFO queue of bare states pops what the
    # heap would; it keeps no depth.
    if breadth_first:
        frontier = deque([s])
        popleft, append = frontier.popleft, frontier.append
    else:
        # The root is popped first, so its priority is never compared.
        frontier = [(0, 0, s, depth)]
        heappush, heappop = heapq.heappush, heapq.heappop
    # evaluated, the root aside, doubles as the generation index.
    expanded = generated = evaluated = 0
    status = "exhausted"
    while frontier:
        if clock() > deadline:
            status = "limit"
            break
        if breadth_first:
            s = popleft()
        else:
            _, _, s, depth = heappop(frontier)
            if a_star and depth > best[s]:
                continue
        if s & goal_pos == goal_pos and not s & goal_neg:
            status = "solved"
            break
        if expanded >= max_expansions:
            status = "limit"
            break
        expanded += 1
        # Most tasks have no unkeyed action: skip the comprehension's call.
        applicable = [op for op in unkeyed if not s & op[2]] if unkeyed else []
        rest = s & keys
        while rest:
            low = rest & -rest
            for op in buckets[low.bit_length() - 1]:
                pre = op[1]
                if s & pre == pre and not s & op[2]:
                    applicable.append(op)
            rest ^= low
        applicable.sort()
        depth += 1
        for i, _, _, keep, add in applicable:
            succ = s & keep | add
            generated += 1
            if succ in parent and (not a_star or best[succ] <= depth):
                continue
            parent[succ] = (s, i)
            evaluated += 1
            if breadth_first:
                append(succ)
            else:
                h = (
                    ((goal_pos & ~succ).bit_count() + (goal_neg & succ).bit_count()
                     + gain - 1) // gain
                    if count_goals else 0
                )
                if greedy:
                    key = h
                else:
                    best[succ] = depth
                    key = (depth + h) * hbound + h
                heappush(frontier, (key, evaluated, succ, depth))

    plan = None
    if status == "solved":
        steps = []
        link = parent[s]
        while link is not None:
            s, i = link
            steps.append(task.action(i))
            link = parent[s]
        steps.reverse()
        plan = Plan(tuple(steps))
    return plan, SearchStats(
        expanded, evaluated + 1, generated + 1, None if plan is None else plan.cost,
        clock() - start, status,
    )


def solve(
    d: DomainDef, p: ProblemDef, cfg: SearchConfig = SearchConfig()
) -> tuple[Optional[Plan], SearchStats]:
    """Ground and compile the task, then `search` it; `wall_time` and the
    time limit include the compilation."""
    start = time.monotonic()
    return search(compile_task(d, p), cfg, start)


# --- macro benchmark -------------------------------------------------------


class BenchRow(NamedTuple):
    problem: str
    variant: str  # "original" | "macro"
    stats: SearchStats


class BenchReport:
    """Rows appended in place."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[BenchRow] = []

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

