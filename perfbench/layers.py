"""Per-layer metrics computed from the spans of traced passes.

Totals (seconds, counts) are taken per pass and reported as the median over
the traced passes; per-call figures (competency queries, selection policies)
pool the calls of every traced pass.  A layer that a workload never calls
reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span

CLI_COMMANDS = ("build-kg", "ingest-ipc", "select-planner", "mine-macros",
                "augment", "bench")
QUERY_IDS = tuple("C{}".format(i) for i in range(1, 11))

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.import_ms": ("ms", "lower"),
    "cli.import_jsonschema_ms": ("ms", "lower"),
    **{"cli.{}_s".format(c): ("s", "lower") for c in CLI_COMMANDS},
    "pddl.parse_s": ("s", "lower"),
    "pddl.parse_bytes_per_s": ("B/s", "higher"),
    "semantics.ground_s": ("s", "lower"),
    "semantics.ground_actions": ("count", "lower"),
    "semantics.plan_resolve_s": ("s", "lower"),
    "bench.blind.us_per_expansion": ("us", "lower"),
    "bench.informed.us_per_expansion": ("us", "lower"),
    "bench.macro.us_per_expansion": ("us", "lower"),
    "bench.search_s": ("s", "lower"),
    "bench.expanded": ("count", "lower"),
    "bench.evaluated": ("count", "lower"),
    "bench.generated": ("count", "lower"),
    "bench.plan_cost": ("count", "lower"),
    "bench.solved": ("count", "higher"),
    "macros.mine_ms": ("ms", "lower"),
    "macros.pairs": ("count", "lower"),
    "macros.chainable": ("count", "higher"),
    "macros.compose_ms": ("ms", "lower"),
    "macros.augment_ms": ("ms", "lower"),
    "macros.store_ms": ("ms", "lower"),
    "mapper.map_s": ("s", "lower"),
    "mapper.triples": ("count", "lower"),
    "mapper.ipc_map_ms": ("ms", "lower"),
    **{"mapper.competency.{}_us".format(q): ("us", "lower") for q in QUERY_IDS},
    "mapper.competency.p50_us": ("us", "lower"),
    "mapper.competency.p99_us": ("us", "lower"),
    "mapper.competency.calls": ("count", "higher"),
    "mapper.competency.rows": ("count", "lower"),
    "kg.store.update_s": ("s", "lower"),
    "kg.store.update_triples_per_s": ("1/s", "higher"),
    "kg.turtle.export_s": ("s", "lower"),
    "kg.turtle.import_s": ("s", "lower"),
    "kg.turtle.import_triples_per_s": ("1/s", "higher"),
    "kg.turtle.bytes": ("B", "lower"),
    "kg.axioms.validate_ms": ("ms", "lower"),
    "select.read_ipc_ms": ("ms", "lower"),
    "select.ontology_us": ("us", "lower"),
    "select.random_us": ("us", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest of p99, p95, p90, p75 and p50 with at least ten samples
    beyond it, and its value."""
    xs = sorted(samples)
    n = len(xs)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q, xs[min(n - 1, int(n * q / 100))]
    return 50, _median(xs)


def _pass_totals(spans: list[Span]) -> dict[str, float]:
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    name_of = {s.id: s.name for s in spans}

    def dur(name: str) -> float:
        return sum(s.dur for s in by[name])

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by[name])

    m: dict[str, float] = {}
    for c in CLI_COMMANDS:
        m["cli.{}_s".format(c)] = dur("cli." + c)
    m["pddl.parse_s"] = dur("pddl.parse")
    m["pddl.parse_bytes_per_s"] = _ratio(attr("pddl.parse", "bytes"), dur("pddl.parse"))
    m["semantics.ground_s"] = dur("semantics.ground")
    m["semantics.ground_actions"] = attr("semantics.ground", "n")
    # Plan resolution is parse_plan_text plus the ground calls made outside
    # search, which exist only to resolve plan steps.
    m["semantics.plan_resolve_s"] = dur("semantics.parse_plan_text") + sum(
        s.dur for s in by["semantics.ground"]
        if name_of.get(s.parent) != "bench.solve")

    solves = by["bench.solve"]
    for cat in ("blind", "informed", "macro"):
        picked = [s for s in solves if _category(s) == cat]
        m["bench.{}.us_per_expansion".format(cat)] = 1e6 * _ratio(
            sum(s.self_s for s in picked), sum(s.attrs.get("expanded", 0) for s in picked))
    m["bench.search_s"] = sum(s.self_s for s in solves)
    for key in ("expanded", "evaluated", "generated", "plan_cost"):
        m["bench." + key] = attr("bench.solve", key)
    m["bench.solved"] = sum(1 for s in solves if s.attrs.get("status") == "solved")

    m["macros.mine_ms"] = 1e3 * dur("macros.mine")
    m["macros.pairs"] = attr("macros.mine", "n")
    m["macros.chainable"] = sum(
        1 for s in by["macros.chain_filter"]
        if s.attrs.get("ok") and name_of.get(s.parent) != "macros.compose")
    m["macros.compose_ms"] = 1e3 * dur("macros.compose")
    m["macros.augment_ms"] = 1e3 * dur("macros.augment")
    m["macros.store_ms"] = 1e3 * dur("macros.store")

    m["mapper.map_s"] = dur("mapper.map")
    m["mapper.triples"] = attr("mapper.map", "n")
    m["mapper.ipc_map_ms"] = 1e3 * dur("mapper.ipc_map")
    m["mapper.competency.calls"] = len(by["mapper.competency"])
    m["mapper.competency.rows"] = attr("mapper.competency", "rows")

    m["kg.store.update_s"] = dur("kg.store.update")
    m["kg.store.update_triples_per_s"] = _ratio(
        attr("kg.store.update", "n"), dur("kg.store.update"))
    m["kg.turtle.export_s"] = dur("kg.turtle.export")
    m["kg.turtle.import_s"] = dur("kg.turtle.import")
    m["kg.turtle.import_triples_per_s"] = _ratio(
        attr("kg.turtle.import", "n"), dur("kg.turtle.import"))
    m["kg.turtle.bytes"] = attr("kg.turtle.export", "bytes")
    m["kg.axioms.validate_ms"] = 1e3 * dur("kg.axioms.validate")
    m["select.read_ipc_ms"] = 1e3 * dur("select.read_ipc")
    return m


def _category(solve: Span) -> str:
    if solve.attrs.get("variant") == "macro":
        return "macro"
    return "blind" if solve.attrs.get("heuristic") == "zero" else "informed"


def layer_metrics(passes: list[list[Span]]) -> tuple[dict[str, float], dict]:
    """Metrics over the spans of each traced pass, plus notes for the report
    (sample counts and the percentile reported as p99)."""
    if not passes:
        return {}, {"traced_passes": 0}
    totals = [_pass_totals(p) for p in passes]
    out = {k: _median([t[k] for t in totals]) for k in totals[0]}

    calls = [s for p in passes for s in p if s.name == "mapper.competency"]
    for q in QUERY_IDS:
        out["mapper.competency.{}_us".format(q)] = 1e6 * _median(
            [s.dur for s in calls if s.attrs.get("qid") == q])
    out["mapper.competency.p50_us"] = 1e6 * _median([s.dur for s in calls])
    q, value = tail_percentile([s.dur for s in calls]) if calls else (99, 0.0)
    out["mapper.competency.p99_us"] = 1e6 * value
    for name in ("ontology", "random"):
        out["select.{}_us".format(name)] = 1e6 * _median(
            [s.dur for p in passes for s in p if s.name == "select." + name])
    notes = {"traced_passes": len(passes), "competency_calls": len(calls),
             "competency_tail_percentile": q}
    return out, notes
