"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n>: PASS` or `... FAIL` so the suite output
documents the gate at a glance.  Tolerances are stated inline; runtime
budgets are enforced with wall-clock assertions.
"""

import collections
import contextlib
import math
import time

import pytest

from plankb import bundles
from plankb.bench import SearchConfig, bench_compare, solve
from plankb.cli import main
from plankb.kg.axioms import validate_axioms
from plankb.kg.schema import RDF_TYPE, SCHEMA, plan_iri
from plankb.kg.store import Graph, Triple
from plankb.macros import LiftedPair, chain_filter, mine_macros, mine_pairs
from plankb.mapper import (
    COMPETENCY_QUERIES,
    domain_iri,
    map_ipc_results,
    planner_iri,
    run_competency,
)
from plankb.pddl import parse_domain, parse_problem, print_domain, print_problem, validate_domain
from plankb.select import relevance, select_ontology, select_random
from plankb.semantics import ground

from oracles import reachable_states
from test_kg_store import oracle_query
from test_macros import (
    BW_CHAINING,
    DL_CHAINING,
    GR_CHAINING,
    NON_CHAINING,
    len_first,
    oracle_pair_counts,
    sweep_equivalence,
)
from test_mapper import GOLDEN_ARGS, run_oracle
from test_search import oracle_optimal_cost


@pytest.fixture()
def criterion(capsys):
    def announce(line):
        # Suspend capture so the gate summary is visible in the run output.
        with capsys.disabled():
            print(line)

    @contextlib.contextmanager
    def report(n, description):
        try:
            yield
        except BaseException:
            announce("ACCEPTANCE {} ({}): FAIL".format(n, description))
            raise
        announce("ACCEPTANCE {} ({}): PASS".format(n, description))

    return report


def test_acceptance_01_pddl_roundtrip(criterion):
    with criterion(1, "PDDL round-trip, zero issues, < 1 s"):
        start = time.monotonic()
        problem_count = 0
        for name in bundles.DOMAIN_NAMES:
            d = bundles.load_domain(name)
            assert validate_domain(d) == []
            assert parse_domain(print_domain(d)) == d
            for p in bundles.load_problems(name):
                assert parse_problem(print_problem(p), d) == p
                problem_count += 1
        assert problem_count >= 9
        assert time.monotonic() - start < 1.0


def test_acceptance_02_axiom_suite(
    criterion, bw_graph, gripper_graph, driverlog_graph
):
    with criterion(2, "axiom suite: 13 seeded negatives + clean fixtures, < 1 s"):
        start = time.monotonic()

        def node(local):
            return plan_iri(local)

        def typed(local, cls):
            return Triple(node(local), RDF_TYPE, SCHEMA.cls(cls))

        def link(s, p, o):
            return Triple(node(s), SCHEMA.prop(p), node(o))

        from plankb.kg.schema import decimal_literal

        full_domain = [
            typed("domain-x", "PlanningDomain"),
            link("domain-x", "hasAction", "action-x-a"),
            link("domain-x", "hasPredicate", "predicate-x-p"),
            link("domain-x", "hasRequirement", "requirement-strips"),
        ]
        full_problem = [
            typed("problem-x-p", "PlanningProblem"),
            link("problem-x-p", "hasGoalState", "goal-1"),
            link("problem-x-p", "hasInitialState", "init-1"),
            link("problem-x-p", "hasObject", "object-1"),
        ]
        negatives = {
            1: Graph(t for t in full_domain if "hasAction" not in t.predicate.value),
            2: Graph(t for t in full_domain if "hasPredicate" not in t.predicate.value),
            3: Graph(t for t in full_domain if "hasRequirement" not in t.predicate.value),
            4: Graph([typed("action-x-a", "Action")]),
            5: Graph([typed("effect-x-e", "ActionEffect")]),
            6: Graph([typed("effect-x-e", "ActionEffect")]),
            7: Graph(full_problem + [link("problem-x-p", "hasGoalState", "goal-2")]),
            8: Graph(t for t in full_problem if "hasInitialState" not in t.predicate.value),
            9: Graph(t for t in full_problem if "hasObject" not in t.predicate.value),
            10: Graph(full_problem),
            11: Graph([
                typed("plan-1", "Plan"),
                link("plan-1", "isGeneratedBy", "planner-x"),
                Triple(node("plan-1"), SCHEMA.prop("hasPlanCost"), decimal_literal(-3)),
            ]),
            12: Graph([typed("plan-1", "Plan"),
                       Triple(node("plan-1"), SCHEMA.prop("hasPlanCost"),
                              decimal_literal(3))]),
            13: Graph([typed("planner-x", "Planner")]),
        }
        for axiom_id, g in negatives.items():
            post = axiom_id == 10
            seen = {v.axiom_id for v in validate_axioms(g, post_solve=post)}
            assert axiom_id in seen, "axiom {} not reported".format(axiom_id)
            if axiom_id == 5:
                assert seen == {5, 6}
        for g in (bw_graph, gripper_graph, driverlog_graph):
            assert validate_axioms(g, post_solve=False) == []
            assert validate_axioms(g, post_solve=True) == []
        assert time.monotonic() - start < 1.0


def test_acceptance_03_competency_coverage(criterion, ipc_graph):
    with criterion(3, "C1-C10 golden answers match the nested-loop oracle"):
        for qid in sorted(COMPETENCY_QUERIES):
            actual = run_competency(ipc_graph, qid, GOLDEN_ARGS[qid])
            golden = run_oracle(ipc_graph, qid, GOLDEN_ARGS[qid])
            assert actual == golden, qid
        # Spot values fixed by the fixtures, exact match required.
        assert run_competency(
            ipc_graph, "C7", {"domain": "blocksworld", "action": "unstack"}
        ) == 2
        assert len(run_competency(ipc_graph, "C3", {"domain": "blocksworld"})) == 4


def test_acceptance_04_relevance_boundaries(criterion):
    with criterion(4, "tier boundaries exact at 35% and 70%"):
        assert relevance(7, 20).tier == "medium"
        assert relevance(14, 20).tier == "high"
        assert relevance(34, 100).tier == "low"
        assert relevance(6, 20).tier == "low"


def test_acceptance_05_selection_policies(criterion, ipc_rows):
    with criterion(5, "ontology argmax on 56 cells; random uniform within 4 sigma"):
        g = Graph()
        g.update(map_ipc_results(ipc_rows))
        cells = collections.defaultdict(dict)
        for r in ipc_rows:
            cells[r.domain][r.planner] = (r.solved, r.total)
        assert sum(len(v) for v in cells.values()) == 56
        candidates = sorted(
            {planner_iri(r.planner) for r in ipc_rows}, key=lambda i: i.value
        )
        for domain, scores in cells.items():
            best = min(
                scores.items(),
                key=lambda kv: (-kv[1][0] / kv[1][1], planner_iri(kv[0]).value),
            )[0]
            assert select_ontology(
                g, domain_iri(domain), candidates
            ).chosen == planner_iri(best)
        n = 10_000
        counts = collections.Counter(
            select_random(candidates, seed).chosen for seed in range(n)
        )
        assert all(
            select_random(candidates, s).chosen == select_random(candidates, s).chosen
            for s in range(100)
        )
        sigma = math.sqrt(n * 0.25 * 0.75)
        for cand in candidates:
            assert abs(counts[cand] - n / 4) <= 4 * sigma


def test_acceptance_06_macro_mining_oracle(
    criterion, bw_graph, gripper_graph, driverlog_graph
):
    with criterion(6, "mining matches sliding-window oracle; chain table holds"):
        for name, g in (
            ("blocksworld", bw_graph),
            ("gripper", gripper_graph),
            ("driverlog", driverlog_graph),
        ):
            mined = {p.with_frequency(1): p.frequency
                     for p in mine_pairs(g, domain_iri(name))}
            assert mined == oracle_pair_counts(name)
        bw = bundles.load_domain("blocksworld")
        dl = bundles.load_domain("driverlog")
        gr = bundles.load_domain("gripper")
        assert len(BW_CHAINING) == 7 and len(DL_CHAINING) == 4 and len(GR_CHAINING) == 2
        for d, rows in ((bw, BW_CHAINING), (dl, DL_CHAINING), (gr, GR_CHAINING)):
            for first, second, pattern in rows:
                assert chain_filter(
                    d, LiftedPair(first, second, pattern, len_first(d, first))
                ), (first, second)
        assert len(NON_CHAINING) >= 3
        for domain_name, first, second, pattern in NON_CHAINING:
            d = bundles.load_domain(domain_name)
            assert not chain_filter(
                d, LiftedPair(first, second, pattern, len_first(d, first))
            ), (first, second)


def test_acceptance_07_macro_semantics(
    criterion, bw_bundle, bw_graph, gripper_bundle, gripper_graph
):
    with criterion(7, "macro = action sequence on exhaustive state sweeps, < 30 s"):
        start = time.monotonic()
        d, problems, _ = bw_bundle
        macros = mine_macros(bw_graph, d, domain_iri("blocksworld"))
        assert macros
        three = next(p for p in problems if p.name == "bw-p01")
        four = next(p for p in problems if p.name == "bw-p04")
        assert sweep_equivalence(d, three, macros) > 0
        assert sweep_equivalence(d, four, macros) > 0
        gd, gproblems, _ = gripper_bundle
        gmacros = mine_macros(gripper_graph, gd, domain_iri("gripper"))
        assert gmacros
        two_ball = next(p for p in gproblems if p.name == "gr-p01")
        assert sweep_equivalence(gd, two_ball, gmacros) > 0
        assert time.monotonic() - start < 30.0


def test_acceptance_08_directional_reduction(
    criterion, bw_bundle, bw_graph, gripper_bundle, gripper_graph,
    driverlog_bundle, driverlog_graph,
):
    with criterion(
        8, "macro variant lowers mean expansions on blocksworld and gripper, < 2 min"
    ):
        start = time.monotonic()
        cfg = SearchConfig(
            algorithm="greedy-best-first", heuristic="goal-count",
            max_expansions=500_000,
        )
        reductions = {}
        for name, bundle, g in (
            ("blocksworld", bw_bundle, bw_graph),
            ("gripper", gripper_bundle, gripper_graph),
            ("driverlog", driverlog_bundle, driverlog_graph),
        ):
            d, problems, _ = bundle
            if name == "blocksworld":
                assert len(problems) >= 10
                assert all(len(p.objects) <= 6 for p in problems)
            macros = mine_macros(g, d, domain_iri(name))
            report = bench_compare(d, macros, problems, cfg, k=2)
            assert len(report.solved_rows("original")) == len(problems)
            assert len(report.solved_rows("macro")) == len(problems)
            reductions[name] = (
                report.mean("original", "expanded"),
                report.mean("macro", "expanded"),
            )
        # Strict mean reduction, no magnitude tolerance.
        assert reductions["blocksworld"][1] < reductions["blocksworld"][0]
        assert reductions["gripper"][1] < reductions["gripper"][0]
        # Driverlog is reported but exempt from the reduction requirement.
        print("driverlog mean expanded: original {:.1f}, macro {:.1f}".format(
            *reductions["driverlog"]))
        assert time.monotonic() - start < 120.0


def test_acceptance_09_bfs_optimality(criterion):
    with criterion(9, "breadth-first costs equal the exhaustive-oracle optimum"):
        cfg = SearchConfig(algorithm="breadth-first", heuristic="zero",
                           max_expansions=2_000_000)
        for name in bundles.DOMAIN_NAMES:
            d = bundles.load_domain(name)
            for p in bundles.load_problems(name):
                n_states = len(reachable_states(frozenset(p.init), ground(d, p),
                                                limit=10**5 + 1))
                if n_states > 10**5:
                    continue
                plan, stats = solve(d, p, cfg)
                assert plan is not None and stats.status == "solved"
                assert plan.cost == oracle_optimal_cost(d, p), p.name


def test_acceptance_10_end_to_end(criterion, tmp_path, monkeypatch, capsys):
    with criterion(10, "CLI pipeline exits 0; report aggregates recompute"):
        monkeypatch.setenv("PLANKB_WORKSPACE", str(tmp_path))

        def data(name):
            return str(bundles.data_dir() / name)

        assert main(
            ["build-kg", data("domains/blocksworld.pddl")]
            + [str(p) for p in bundles.problem_paths("blocksworld")]
            + ["--plans", data("plans/blocksworld"), "-o", "bw.ttl"]
        ) == 0
        assert main(["ingest-ipc", data("ipc2011.csv"), "-o", "bw.ttl"]) == 0
        assert main(["select-planner", "bw.ttl", "--domain", "scanalyzer",
                     "--policy", "ontology"]) == 0
        capsys.readouterr()
        assert main(["mine-macros", "bw.ttl", "--domain", "blocksworld",
                     "--domain-file", data("domains/blocksworld.pddl"),
                     "--format", "json"]) == 0
        (tmp_path / "macros.json").write_text(capsys.readouterr().out)
        assert main(["augment", "--domain", data("domains/blocksworld.pddl"),
                     "--macros", "macros.json", "-k", "2",
                     "-o", "bw-aug.pddl"]) == 0
        assert main(["bench", "--domain", data("domains/blocksworld.pddl"),
                     "--problems", data("problems"), "--macros", "macros.json",
                     "-k", "2", "--format", "csv"]) == 0
        csv_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("bw-")
        ]
        assert csv_lines
        # Recompute the per-variant means from the emitted rows and compare
        # against a fresh BenchReport over the same inputs (exact equality).
        rows = [line.split(",") for line in csv_lines]
        by_variant = collections.defaultdict(list)
        for r in rows:
            by_variant[r[1]].append(int(r[2]))
        from plankb.mapper import build_graph
        from conftest import load_bundle

        bd, bproblems, bentries = load_bundle("blocksworld")
        g = build_graph(bd, bproblems, bentries)
        macros = mine_macros(g, bd, domain_iri("blocksworld"))
        report = bench_compare(bd, macros, bproblems, SearchConfig(
            algorithm="greedy-best-first", heuristic="goal-count"), k=2)
        for variant in ("original", "macro"):
            mean_from_csv = sum(by_variant[variant]) / len(by_variant[variant])
            assert mean_from_csv == report.mean(variant, "expanded")
