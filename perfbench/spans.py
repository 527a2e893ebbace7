"""Spans recorded around calls into plankb's public functions.

`Tracer.install()` replaces each function listed in `TARGETS` with a
wrapper, in every loaded `plankb` module that binds it, so calls the program
makes internally (`solve` calling `ground`, `compose` calling
`chain_filter`) are recorded as child spans.  Nothing under `src/` changes,
and `uninstall()` puts the originals back.  Spans stay in memory until
`write()`; a layer's self time is its span minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    attrs: dict = field(default_factory=dict)
    self_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


def _len(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _text_bytes(tracer, args, result) -> dict:
    return {"bytes": len(args[0].encode())}


def _count_result(tracer, args, result) -> dict:
    return {"n": _len(result)}


def _bool_result(tracer, args, result) -> dict:
    return {"ok": bool(result)}


def _solve_attrs(tracer: "Tracer", args, result) -> dict:
    d = args[0]
    cfg = args[2] if len(args) > 2 else None  # None: SearchConfig's defaults
    _, stats = result
    return {
        "algorithm": getattr(cfg, "algorithm", "breadth-first"),
        "heuristic": getattr(cfg, "heuristic", "goal-count"),
        "variant": "macro" if any(d is x for x in tracer.augmented) else "original",
        "expanded": stats.expanded, "evaluated": stats.evaluated,
        "generated": stats.generated, "status": stats.status,
        "plan_cost": stats.plan_cost or 0,
    }


def _augment_attrs(tracer: "Tracer", args, result) -> dict:
    tracer.augmented.append(result)
    return {"n": len(result.actions)}


def _update_attrs(tracer, args, result) -> dict:
    return {"n": _len(args[1])}


def _competency_attrs(tracer, args, result) -> dict:
    # A count query returns one number: one row.
    return {"qid": args[1], "rows": 1 if isinstance(result, int) else len(result)}


def _export_attrs(tracer, args, result) -> dict:
    return {"bytes": len(result.encode())}


# (module, attribute, span name, attributes from the arguments and result).
# Only coarse calls are wrapped: a wrapper on `applicable` would cost more
# than the search it measures.
TARGETS: list[tuple] = [
    ("plankb.pddl.parser", "parse_domain", "pddl.parse", _text_bytes),
    ("plankb.pddl.parser", "parse_problem", "pddl.parse", _text_bytes),
    ("plankb.semantics", "ground", "semantics.ground", _count_result),
    ("plankb.semantics", "parse_plan_text", "semantics.parse_plan_text", None),
    ("plankb.bench", "solve", "bench.solve", _solve_attrs),
    ("plankb.macros", "mine_pairs", "macros.mine", _count_result),
    ("plankb.macros", "chain_filter", "macros.chain_filter", _bool_result),
    ("plankb.macros", "compose", "macros.compose", None),
    ("plankb.macros", "augment_domain", "macros.augment", _augment_attrs),
    ("plankb.macros", "store_macros", "macros.store", None),
    ("plankb.mapper", "map_domain", "mapper.map", _count_result),
    ("plankb.mapper", "map_problem", "mapper.map", _count_result),
    ("plankb.mapper", "map_plan", "mapper.map", _count_result),
    ("plankb.mapper", "describe_planner", "mapper.map", _count_result),
    ("plankb.mapper", "map_ipc_results", "mapper.ipc_map", _count_result),
    ("plankb.mapper", "run_competency", "mapper.competency", _competency_attrs),
    ("plankb.kg.store", "Graph.update", "kg.store.update", _update_attrs),
    ("plankb.kg.turtle", "export_turtle", "kg.turtle.export", _export_attrs),
    ("plankb.kg.turtle", "import_turtle", "kg.turtle.import", _count_result),
    ("plankb.kg.axioms", "validate_axioms", "kg.axioms.validate", _count_result),
    ("plankb.select", "read_ipc_csv", "select.read_ipc", _count_result),
    ("plankb.select", "select_ontology", "select.ontology", None),
    ("plankb.select", "select_random", "select.random", None),
]


class Tracer:
    """Records spans while enabled; a disabled tracer's `span()` costs one
    attribute test, so workload code can mark spans unconditionally.  The
    wrappers of `install()` always record: install them only while enabled."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.augmented: list = []  # domains returned by augment_domain
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, 0.0, 0.0, parent, self.run, attrs)
        self.spans.append(s)
        self._stack.append(s.id)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        s = self._open(name, {})
        try:
            yield s
        finally:
            self._close(s)

    def adopt(self, spans: list[dict], parent: Optional[Span]) -> None:
        """Add spans recorded by a child process under `parent`."""
        base = len(self.spans)
        for d in spans:
            s = Span(base + d["id"], d["name"], d["start"], d["end"],
                     base + d["parent"] if d["parent"] is not None
                     else (parent.id if parent else None),
                     self.run, d["attrs"])
            self.spans.append(s)

    # --- wrapping ---------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, attrs) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if attrs:
                s.attrs.update(attrs(tracer, args, result))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, attrs))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name, attrs)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("plankb"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # --- results ------------------------------------------------------------------

    def compute_self_times(self) -> None:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
        for s in self.spans:
            s.self_s = s.dur - child_time.get(s.id, 0.0)

    def subtree(self, root: Span) -> list[Span]:
        """root and every span below it, in recording order."""
        inside = {root.id}
        out = [root]
        for s in self.spans[root.id + 1:]:
            if s.parent in inside:
                inside.add(s.id)
                out.append(s)
        return out

    def to_json(self) -> list[dict]:
        return [dict(asdict(s), dur=s.dur) for s in self.spans]

    def write(self, path, extra: Optional[dict] = None) -> None:
        self.compute_self_times()
        doc = {"run": self.run, "spans": self.to_json()}
        doc.update(extra or {})
        with open(path, "w") as f:
            json.dump(doc, f)
