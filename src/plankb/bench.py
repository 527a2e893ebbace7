"""Instrumented forward state-space search and the macro benchmark."""

from __future__ import annotations

import time
from collections import Counter, deque
from functools import reduce
from itertools import chain, repeat
from operator import and_, invert, itemgetter, or_
from typing import Iterable, NamedTuple, Optional

from . import PlankbError
from .macros import MacroSchema, augment_domain, expand_plan
from .pddl.ast import Atom, DomainDef, ProblemDef
from .semantics import GroundAction, Plan, Template, groundings, validate_plan

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


#: One compiled action: (grounding index, pre | neg, pre, keep, add) masks.
Op = tuple[int, int, int, int, int]


class CompiledTask(NamedTuple):
    """A task over bitmask states, built once by `compile_task`.

    Every ground atom that occurs in the initial state, the goal, or an
    action's preconditions or effects owns one bit, `atoms[b]` being the
    (predicate, args) of bit b, and a state is the int whose set bits are
    the atoms true in it (closed world).  An op ``(i, test, pre, keep,
    add)`` is action i: ``pre`` and ``neg`` are its positive and negative
    precondition masks and ``test`` is ``pre | neg``, so it applies in state
    s when ``s & test == pre``, and leads to ``(s & keep) | add``, where
    ``keep`` is the complement of its delete mask.  The goal holds when
    ``s & goal_pos == goal_pos and not s & goal_neg``, and goal-count is
    ``(goal_pos & ~s).bit_count() + (goal_neg & s).bit_count()``.  No action
    makes more than `goal_gain` goal literals true, so no step lowers
    goal-count by more.

    Action i is `groundings[i]`, a (template, combo) pair from
    `semantics.groundings` in `ground`'s order; `action(i)` instantiates
    it, equal by value to ``ground(d, p)[i]``, for plan steps and tests.

    Successor generator: each action with a positive precondition sits in the
    bucket of exactly one of its precondition bits, so a state's candidates
    are the buckets of its true bits plus `unkeyed`, the actions with no
    positive precondition.  A bucket is (need, ops), `need` the AND of its
    ops' positive preconditions, so a state that lacks an atom of `need`
    skips the whole bucket with one test.  The key is the precondition atom
    least likely to be true: first one that init lacks and no action adds
    (the action can never apply), else one some action adds or deletes, else
    one that stays true; among equals, the atom the fewest actions need,
    then the least (predicate, args).  An action that needs an atom both
    true and false can never apply and is in no bucket.
    """

    groundings: tuple[tuple[Template, tuple[str, ...]], ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]  # (predicate, args) per bit
    init: int
    goal_pos: int
    goal_neg: int
    goal_gain: int  # the most goal literals one action makes true; at least 1
    buckets: tuple[tuple[int, tuple[Op, ...]], ...]  # (need, ops) by key bit position
    keys: int  # the bits whose bucket is not empty
    unkeyed: tuple[Op, ...]

    def action(self, i: int) -> GroundAction:
        return GroundAction(*self.groundings[i])


class _Bits(dict):
    """Atom -> bit position, numbering an atom on its first lookup;
    ``masks[b]`` is ``1 << b``."""

    def __init__(self):
        super().__init__()
        self.masks: list[int] = []

    def __missing__(self, atom) -> int:
        b = self[atom] = len(self.masks)
        self.masks.append(1 << b)
        return b


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
    index = _Bits()
    masks = index.masks

    def mask(atoms: Iterable[Atom]) -> int:
        m = 0
        for x in atoms:
            m |= masks[index[x]]
        return m

    init = mask(p.init)
    goal_pos = mask(lit.atom for lit in p.goal if not lit.negated)
    goal_neg = mask(lit.atom for lit in p.goal if lit.negated)
    refs: list[tuple[Template, tuple[str, ...]]] = []
    ops: list[Op] = []
    pre_bits: list[tuple[int, ...]] = []  # the distinct positive-precondition bits
    clashes: list[int] = []  # non-zero where an action needs an atom true and false
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
            bits = list(map(index.__getitem__, zip(repeat(predicate, n), args)))
            bit_columns.append(bits)
            mask_columns.append(list(map(masks.__getitem__, bits)))
        i, j, m = t.ends
        pre = _or_columns(mask_columns[:i], n)
        add = _or_columns(mask_columns[j:m], n)
        # keep = ~(delete & ~add): an atom both added and deleted stays.
        keep = list(map(or_, map(invert, _or_columns(mask_columns[m:], n)), add))
        added, kept = reduce(or_, add, added), reduce(and_, keep, kept)
        neg = _or_columns(mask_columns[i:j], n)
        ops.extend(zip(range(len(refs), len(refs) + n), map(or_, pre, neg), pre, keep, add))
        clashes.extend(map(and_, pre, neg))
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
    atoms = tuple(index)
    # Each bit's place in the key order, so that keys compare as ints.
    rank = [0] * len(atoms)
    for r, b in enumerate(sorted(range(len(atoms)), key=lambda b: (
            0 if never & masks[b] else 2 if always & masks[b] else 1, needed_by[b], atoms[b]))):
        rank[b] = r
    buckets: list[list[Op]] = [[] for _ in masks]
    keys = 0
    unkeyed = []
    for op, bs, clash in zip(ops, pre_bits, clashes):
        if clash:
            continue
        if bs:
            key = min(bs, key=rank.__getitem__)
            buckets[key].append(op)
            keys |= masks[key]
        else:
            unkeyed.append(op)
    return CompiledTask(
        tuple(refs), atoms, init, goal_pos, goal_neg, goal_gain,
        tuple((reduce(and_, map(itemgetter(2), b), -1), tuple(b)) for b in buckets),
        keys, tuple(unkeyed),
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

    The frontier holds one FIFO of bare states per int priority: h for
    greedy, 0 for breadth-first, and for A* ``f * hbound + h`` (h < hbound),
    so that A* reads h and g back from the priority of the state it pops.
    """
    clock = time.monotonic
    breadth_first = cfg.algorithm == "breadth-first"
    greedy = cfg.algorithm == "greedy-best-first"
    a_star = not (breadth_first or greedy)
    count_goals = cfg.heuristic == "goal-count" and not breadth_first
    gain = task.goal_gain if a_star else 1
    goal_pos, goal_neg = task.goal_pos, task.goal_neg
    buckets, keys, unkeyed = task.buckets, task.keys, task.unkeyed
    nops = len(task.groundings)
    max_expansions, deadline = cfg.max_expansions, start + cfg.max_seconds
    hbound = goal_pos.bit_count() + goal_neg.bit_count() + 1

    s = task.init
    # state -> its predecessor's expansion index * nops + the action index;
    # also the set of seen states.
    parent: dict[int, Optional[int]] = {s: None}
    closed: list[int] = []  # the expanded states, in expansion order
    best = {s: 0}  # A* only: state -> the least g it was pushed with
    # priority -> its FIFO, dropped when it empties, so that memory does not
    # grow with the priority range; no priority held is below `low`.  The
    # root's priority 0 reads back as g = h = 0.
    frontier = {0: deque([s])}
    low = 0
    g = 0  # A*'s successor g; it stays 0 for the others, whose zero-h priority is 0
    expanded = generated = evaluated = 0
    status = "exhausted"
    while frontier:
        if clock() > deadline:
            status = "limit"
            break
        fifo = frontier.get(low)
        while fifo is None:
            low += 1
            fifo = frontier.get(low)
        s = fifo.popleft()
        if not fifo:
            del frontier[low]
        if a_star:
            h = low % hbound
            g = low // hbound - h
            if g > best[s]:
                continue
            g += 1
            unseen = g + 1  # what best.get gives a state never pushed: more than g
        if s & goal_pos == goal_pos and not s & goal_neg:
            status = "solved"
            break
        if expanded >= max_expansions:
            status = "limit"
            break
        link = expanded * nops
        closed.append(s)
        expanded += 1
        # Most tasks have no unkeyed action: skip the comprehension's call.
        # An unkeyed op's pre is 0, so it applies where no bit of neg is true.
        applicable = [op for op in unkeyed if not s & op[1]] if unkeyed else []
        rest = s & keys
        while rest:
            bit = rest & -rest
            need, ops = buckets[bit.bit_length() - 1]
            if s & need == need:
                for op in ops:
                    if s & op[1] == op[2]:
                        applicable.append(op)
            rest ^= bit
        applicable.sort()
        for i, _, _, keep, add in applicable:
            succ = s & keep | add
            generated += 1
            if a_star:
                if best.get(succ, unseen) <= g:
                    continue
                best[succ] = g
            elif succ in parent:
                continue
            parent[succ] = link + i
            evaluated += 1
            if count_goals:
                h = ((goal_pos & ~succ).bit_count() + (goal_neg & succ).bit_count()
                     + gain - 1) // gain
                key = (g + h) * hbound + h if a_star else h
            else:
                key = g * hbound
            fifo = frontier.get(key)
            if fifo is None:
                frontier[key] = deque((succ,))
                if key < low:
                    low = key
            else:
                fifo.append(succ)

    plan = None
    if status == "solved":
        steps = []
        link = parent[s]
        while link is not None:
            k, i = divmod(link, nops)
            steps.append(task.action(i))
            link = parent[closed[k]]
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


class InvalidMacroPlan(PlankbError):
    """An expanded macro plan that fails in the original domain."""


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
    """Solve each problem in the original and macro-augmented domain.  A
    macro plan is expanded into the steps of d (`macros.expand_plan`), so
    that its cost counts them, and validated there; one that fails, a
    defect in `compose` or `augment_domain`, raises InvalidMacroPlan."""
    macros = list(macros)
    augmented = augment_domain(d, macros, k)
    report = BenchReport()
    for p in problems:
        for variant, dom in (("original", d), ("macro", augmented)):
            plan, stats = solve(dom, p, cfg)
            if variant == "macro" and plan is not None:
                plan = expand_plan(d, augmented, macros, plan)
                if not (check := validate_plan(d, p, plan)):
                    raise InvalidMacroPlan("{}: the expanded macro plan fails in domain '{}': {}"
                                           .format(p.name, d.name, check.reason))
                stats = stats._replace(plan_cost=plan.cost)
            report.rows.append(BenchRow(p.name, variant, stats))
    return report

