"""A small STRIPS checker with its own statement of the three domains.

It validates plans against the generator's model (`gen.Task`) and shares no
code with `plankb.semantics`, so a defect there cannot hide itself.
"""

from __future__ import annotations

from typing import Callable, Optional

from gen import Atom, Step, Task

Effect = tuple[set[Atom], set[Atom], set[Atom]]  # (pre, add, delete)


def _blocksworld(name: str, a: tuple) -> Effect:
    if name == "pick-up":
        (x,) = a
        return ({("clear", x), ("ontable", x), ("handempty",)}, {("holding", x)},
                {("ontable", x), ("clear", x), ("handempty",)})
    if name == "put-down":
        (x,) = a
        return ({("holding", x)}, {("ontable", x), ("clear", x), ("handempty",)},
                {("holding", x)})
    if name == "stack":
        x, y = a
        return ({("holding", x), ("clear", y)},
                {("on", x, y), ("clear", x), ("handempty",)},
                {("holding", x), ("clear", y)})
    if name == "unstack":
        x, y = a
        return ({("on", x, y), ("clear", x), ("handempty",)},
                {("holding", x), ("clear", y)},
                {("on", x, y), ("clear", x), ("handempty",)})
    raise KeyError(name)


def _gripper(name: str, a: tuple) -> Effect:
    if name == "move":
        f, t = a
        return ({("at-robby", f)}, {("at-robby", t)}, {("at-robby", f)})
    if name == "pick":
        b, r, g = a
        return ({("at", b, r), ("at-robby", r), ("free", g)},
                {("carry", b, g), ("at-robby", r)}, {("at", b, r), ("free", g)})
    if name == "drop":
        b, r, g = a
        return ({("carry", b, g), ("at-robby", r)},
                {("at", b, r), ("free", g), ("at-robby", r)}, {("carry", b, g)})
    raise KeyError(name)


def _driverlog(name: str, a: tuple) -> Effect:
    if name == "load-truck":
        p, t, l = a
        return ({("at", t, l), ("at", p, l)}, {("in", p, t)}, {("at", p, l)})
    if name == "unload-truck":
        p, t, l = a
        return ({("at", t, l), ("in", p, t)}, {("at", p, l)}, {("in", p, t)})
    if name == "board-truck":
        d, t, l = a
        return ({("at", t, l), ("at", d, l), ("empty", t)}, {("driving", d, t)},
                {("at", d, l), ("empty", t)})
    if name == "disembark-truck":
        d, t, l = a
        return ({("at", t, l), ("driving", d, t)}, {("at", d, l), ("empty", t)},
                {("driving", d, t)})
    if name == "drive-truck":
        t, f, to, d = a
        return ({("at", t, f), ("driving", d, t), ("link", f, to)}, {("at", t, to)},
                {("at", t, f)})
    if name == "walk":
        d, f, to = a
        return ({("at", d, f), ("path", f, to)}, {("at", d, to)}, {("at", d, f)})
    raise KeyError(name)


MODELS: dict[str, Callable[[str, tuple], Effect]] = {
    "blocksworld": _blocksworld,
    "gripper": _gripper,
    "driverlog": _driverlog,
}


def check_plan(task: Task, steps: list[Step]) -> Optional[str]:
    """None when `steps` leads from the task's initial state to its goal,
    else the reason it does not.  Adds are applied after deletes, as in
    STRIPS; arguments must be objects of the task."""
    model = MODELS[task.domain]
    objects = {o for o, _ in task.objects}
    state = set(task.init)
    for i, step in enumerate(steps):
        name, args = step[0], tuple(step[1:])
        if not set(args) <= objects:
            return "step {} {}: unknown object".format(i, step)
        try:
            pre, add, delete = model(name, args)
        except (KeyError, ValueError):
            return "step {} {}: no such action or wrong arity".format(i, step)
        if not pre <= state:
            return "step {} {}: precondition {} fails".format(
                i, step, sorted(pre - state))
        state = (state - delete) | add
    if not task.goal <= state:
        return "goal {} not reached".format(sorted(task.goal - state))
    return None
