"""Seeded generators for the benchmark's inputs.

Every generator takes a `random.Random` so that one `--seed` fixes every
input.  A task carries its own model of the problem (objects, initial atoms,
goal atoms and, where the generator can build one without search, a plan), so
the checks in `strips.py` never have to trust the program under test.

Atoms and plan steps are plain tuples: `("on", "b3", "b1")`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

Atom = tuple  # (predicate, arg, ...)
Step = tuple  # (action, arg, ...)


@dataclass
class Task:
    domain: str
    name: str
    objects: list[tuple[str, str]]  # (name, type); type "" means untyped
    init: set[Atom]
    goal: set[Atom]
    plan: Optional[list[Step]] = None


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct object names in a random order, so the lexicographic order
    the grounder uses differs from the order of the generator's slots."""
    picks = rng.sample(range(10, 100), n)
    return ["{}{}".format(prefix, k) for k in picks]


# --- blocksworld -------------------------------------------------------------


def _tower_atoms(towers: list[list[str]]) -> set[Atom]:
    atoms: set[Atom] = {("handempty",)}
    for t in towers:
        atoms.add(("ontable", t[0]))
        atoms.add(("clear", t[-1]))
        for lo, hi in zip(t, t[1:]):
            atoms.add(("on", hi, lo))
    return atoms


def _goal_on(towers: list[list[str]]) -> set[Atom]:
    return {("on", hi, lo) for t in towers for lo, hi in zip(t, t[1:])}


def _random_towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    order = list(blocks)
    rng.shuffle(order)
    towers: list[list[str]] = []
    for b in order:
        if towers and rng.random() < 0.6:
            rng.choice(towers).append(b)
        else:
            towers.append([b])
    return towers


def unstack_then_build(init: list[list[str]], goal: list[list[str]]) -> list[Step]:
    """Put every block on the table, then build each goal tower bottom-up."""
    plan: list[Step] = []
    for t in init:
        for i in range(len(t) - 1, 0, -1):
            plan.append(("unstack", t[i], t[i - 1]))
            plan.append(("put-down", t[i]))
    for t in goal:
        for lo, hi in zip(t, t[1:]):
            plan.append(("pick-up", hi))
            plan.append(("stack", hi, lo))
    return plan


def blocksworld_random(rng: random.Random, name: str, n: int) -> Task:
    """Random initial and goal towers over n blocks, with a constructive plan."""
    blocks = _names(rng, "b", n)
    init = _random_towers(rng, blocks)
    goal = [t for t in _random_towers(rng, blocks) if len(t) > 1]
    if not goal:  # a goal needs at least one `on`
        goal = [list(blocks[:2])]
    return Task(
        "blocksworld", name, [(b, "") for b in sorted(blocks)],
        _tower_atoms(init), _goal_on(goal), unstack_then_build(init, goal),
    )


def blocksworld_reversal(rng: random.Random, name: str, profile: list[int]) -> Task:
    """Towers of the given heights, each to be rebuilt upside down.

    The blocks are assigned to the tower slots at random, so every seed gives
    the same search space up to renaming: the search effort changes only
    through the order in which ties are broken.
    """
    blocks = _names(rng, "b", sum(profile))
    towers, i = [], 0
    for h in profile:
        towers.append(blocks[i:i + h])
        i += h
    goal = [list(reversed(t)) for t in towers]
    return Task(
        "blocksworld", name, [(b, "") for b in sorted(blocks)],
        _tower_atoms(towers), _goal_on(goal), unstack_then_build(towers, goal),
    )


# --- gripper -------------------------------------------------------------------


def gripper(rng: random.Random, name: str, n_balls: int, n_rooms: int,
            spread: bool) -> Task:
    """n balls over rooms; `spread` places balls and goals at random rooms,
    otherwise every ball starts in the first room and must reach the second.
    The constructive plan carries one ball at a time in the left gripper."""
    rooms = _names(rng, "room", n_rooms)
    balls = _names(rng, "ball", n_balls)
    robby = rng.choice(rooms) if spread else rooms[0]
    start = {b: (rng.choice(rooms) if spread else rooms[0]) for b in balls}
    target = {b: (rng.choice(rooms) if spread else rooms[1]) for b in balls}
    init: set[Atom] = {("at-robby", robby), ("free", "left"), ("free", "right")}
    init |= {("at", b, start[b]) for b in balls}
    plan: list[Step] = []
    here = robby
    for b in balls:
        if start[b] == target[b]:
            continue
        if here != start[b]:
            plan.append(("move", here, start[b]))
            here = start[b]
        plan.append(("pick", b, here, "left"))
        plan.append(("move", here, target[b]))
        here = target[b]
        plan.append(("drop", b, here, "left"))
    objects = [(r, "room") for r in rooms] + [(b, "ball") for b in balls]
    objects += [("left", "gripper"), ("right", "gripper")]
    return Task(
        "gripper", name, objects, init, {("at", b, target[b]) for b in balls}, plan,
    )


# --- driverlog -------------------------------------------------------------------


def _ring_route(ring: list[str], src: str, dst: str) -> list[str]:
    """Locations visited after src on the shorter way round the ring."""
    k = len(ring)
    i, j = ring.index(src), ring.index(dst)
    fwd = (j - i) % k
    step = 1 if fwd <= k - fwd else -1
    route = []
    while i != j:
        i = (i + step) % k
        route.append(ring[i])
    return route


def driverlog_ring(rng: random.Random, name: str, k: int, n_packages: int) -> Task:
    """A ring of k locations joined by roads and footpaths, one truck and one
    driver at a random location, and packages that must cross to the
    opposite side of the ring.  The constructive plan boards the truck and
    serves the packages one at a time."""
    ring = _names(rng, "l", k)
    off = rng.randrange(k)
    truck, driver = "t1", "d1"
    packages = _names(rng, "p", n_packages)
    init: set[Atom] = {("at", truck, ring[off]), ("at", driver, ring[off]),
                       ("empty", truck)}
    for i in range(k):
        a, b = ring[i], ring[(i + 1) % k]
        init |= {("link", a, b), ("link", b, a), ("path", a, b), ("path", b, a)}
    goal: set[Atom] = set()
    where = {}
    for i, p in enumerate(packages):
        s = (off + i) % k
        where[p] = (ring[s], ring[(s + k // 2) % k])
        init.add(("at", p, ring[s]))
        goal.add(("at", p, where[p][1]))
    plan: list[Step] = [("board-truck", driver, truck, ring[off])]
    here = ring[off]

    def drive(dst: str) -> None:
        nonlocal here
        for nxt in _ring_route(ring, here, dst):
            plan.append(("drive-truck", truck, here, nxt, driver))
            here = nxt

    for p in packages:
        src, dst = where[p]
        drive(src)
        plan.append(("load-truck", p, truck, here))
        drive(dst)
        plan.append(("unload-truck", p, truck, here))
    objects = [(l, "location") for l in ring] + [(p, "package") for p in packages]
    objects += [(truck, "truck"), (driver, "driver")]
    return Task("driverlog", name, objects, init, goal, plan)


# --- text forms --------------------------------------------------------------------


def _atom_text(a: Atom) -> str:
    return "(" + " ".join(a) + ")"


def problem_pddl(t: Task) -> str:
    if all(typ == "" for _, typ in t.objects):
        objects = " ".join(o for o, _ in t.objects)
    else:
        objects = " ".join("{} - {}".format(o, typ) for o, typ in t.objects)
    init = "\n         ".join(_atom_text(a) for a in sorted(t.init))
    goal = " ".join(_atom_text(a) for a in sorted(t.goal))
    return (
        "(define (problem {})\n  (:domain {})\n  (:objects {})\n"
        "  (:init {})\n  (:goal (and {})))\n"
    ).format(t.name, t.domain, objects, init, goal)


def plan_text(plan: list[Step]) -> str:
    return "".join(_atom_text(s) + "\n" for s in plan) + \
        "; cost = {} (unit cost)\n".format(len(plan))


# --- files ------------------------------------------------------------------------

_MARK = ";; --- "


def write_bundle(path, texts: dict[str, str]) -> None:
    """Write many texts to one file, each after a `;; --- name` comment line.

    One file per set of problems or plans keeps set-up from timing the file
    system's per-file costs, which on a shared host swing far more than the
    work itself."""
    with open(path, "w") as f:
        for name, text in texts.items():
            f.write("{}{}\n{}".format(_MARK, name, text))


def read_bundle(path) -> dict[str, str]:
    with open(path) as f:
        parts = f.read().split(_MARK)[1:]
    return dict(part.split("\n", 1) for part in parts)


# --- IPC results table -------------------------------------------------------------


def ipc_table(rng: random.Random, n_planners: int, domains: list[str]) -> str:
    """`planner,domain,solved,total` rows for every planner on every domain."""
    planners = ["planner-{:02d}".format(i) for i in range(n_planners)]
    lines = ["planner,domain,solved,total"]
    for p in planners:
        for d in domains:
            total = rng.choice((20, 30, 35))
            lines.append("{},{},{},{}".format(p, d, rng.randint(0, total), total))
    return "\n".join(lines) + "\n"
