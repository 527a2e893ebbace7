"""Relevance tiers and the two planner-selection policies."""

import collections
import csv
import io
import math

import pytest

from plankb import bundles
from plankb.kg.store import Graph
from plankb.mapper import (
    domain_iri,
    map_ipc_results,
    planner_iri,
)
from plankb.select import (
    InvalidRecord,
    NoCandidates,
    NoDataForDomain,
    read_ipc_csv,
    relevance,
    select_ontology,
    select_random,
    solved_percentage,
)


def test_tier_boundaries_inclusive():
    assert relevance(7, 20).tier == "medium"   # exactly 35%
    assert relevance(14, 20).tier == "high"    # exactly 70%
    assert relevance(6, 20).tier == "low"      # 30%
    assert relevance(34, 100).tier == "low"    # just under 35%
    assert relevance(35, 100).tier == "medium"
    assert relevance(69, 100).tier == "medium"
    assert relevance(70, 100).tier == "high"
    assert relevance(0, 20).tier == "low"
    assert relevance(20, 20).tier == "high"


def test_tier_boundaries_avoid_float_rounding():
    # 7/20 in binary floating point is 0.35000000000000003; exact
    # cross-multiplication must still land on the boundary tier.
    for scale in (1, 3, 7, 1000):
        assert relevance(7 * scale, 20 * scale).tier == "medium"
        assert relevance(14 * scale, 20 * scale).tier == "high"


def test_relevance_rejects_bad_counts():
    with pytest.raises(InvalidRecord):
        relevance(5, 0)
    with pytest.raises(InvalidRecord):
        relevance(-1, 10)
    with pytest.raises(InvalidRecord):
        relevance(11, 10)


# --- ontology policy against the spreadsheet oracle -------------------------


@pytest.fixture(scope="module")
def table():
    """Raw CSV cells read independently of the package's ingestion code."""
    reader = csv.DictReader(io.StringIO(bundles.ipc_csv_path().read_text()))
    cells = collections.defaultdict(dict)
    for row in reader:
        cells[row["domain"]][row["planner"]] = (
            int(row["solved"]), int(row["total"])
        )
    return cells


@pytest.fixture(scope="module")
def results_graph():
    g = Graph()
    g.update(map_ipc_results(read_ipc_csv(bundles.ipc_csv_path().read_text())))
    return g


def test_fixture_has_56_cells(table):
    assert sum(len(v) for v in table.values()) == 56


def test_ontology_policy_matches_argmax_oracle(table, results_graph):
    candidates = sorted(
        {planner_iri(p) for cells in table.values() for p in cells},
        key=lambda i: i.value,
    )
    for domain, cells in table.items():
        # Spreadsheet oracle: highest solved ratio, ties on IRI order.
        best = min(
            cells.items(),
            key=lambda kv: (-kv[1][0] / kv[1][1], planner_iri(kv[0]).value),
        )[0]
        outcome = select_ontology(results_graph, domain_iri(domain), candidates)
        assert outcome.chosen == planner_iri(best), domain
        assert outcome.policy == "ontology"


def test_solved_percentage_lookup(results_graph):
    pct = solved_percentage(
        results_graph, domain_iri("scanalyzer"), planner_iri("fdss-1")
    )
    assert pct == 100.0
    assert (
        solved_percentage(
            results_graph, domain_iri("nowhere"), planner_iri("fdss-1")
        )
        is None
    )


def test_unrecorded_candidates_rank_last(results_graph):
    candidates = [planner_iri("unknown-planner"), planner_iri("fdss-1")]
    outcome = select_ontology(
        results_graph, domain_iri("scanalyzer"), candidates
    )
    assert outcome.chosen == planner_iri("fdss-1")


def test_ontology_policy_errors():
    g = Graph()
    with pytest.raises(NoCandidates):
        select_ontology(g, domain_iri("x"), [])
    with pytest.raises(NoDataForDomain):
        select_ontology(g, domain_iri("x"), [planner_iri("a")])


# --- random policy ----------------------------------------------------------


def test_random_policy_seed_deterministic():
    candidates = [planner_iri(n) for n in ("a", "b", "c", "d")]
    for seed in range(20):
        first = select_random(candidates, seed)
        again = select_random(candidates, seed)
        assert first.chosen == again.chosen
        assert first.policy == "random"


def test_random_policy_empty_candidates():
    with pytest.raises(NoCandidates):
        select_random([], 0)


def test_random_policy_uniform_within_4_sigma():
    candidates = [planner_iri(n) for n in ("a", "b", "c", "d")]
    n = 10_000
    counts = collections.Counter(
        select_random(candidates, seed).chosen for seed in range(n)
    )
    expected = n / len(candidates)
    sigma = math.sqrt(n * (1 / 4) * (3 / 4))
    for cand in candidates:
        assert abs(counts[cand] - expected) <= 4 * sigma, counts


# --- CSV ingestion ----------------------------------------------------------


def test_csv_header_validated():
    with pytest.raises(InvalidRecord):
        read_ipc_csv("a,b,c\n1,2,3\n")


def test_csv_bad_cell_rejected():
    with pytest.raises(InvalidRecord):
        read_ipc_csv("planner,domain,solved,total\nx,y,many,20\n")


def test_csv_row_count():
    rows = read_ipc_csv(bundles.ipc_csv_path().read_text())
    assert len(rows) == 56
    assert all(r.total == 20 for r in rows)
