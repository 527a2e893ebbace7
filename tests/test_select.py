"""Relevance tiers and the two planner-selection policies."""

import collections
import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb import PlankbError, bundles
from plankb.kg.schema import SCHEMA, XSD_DECIMAL, XSD_STRING, plan_iri
from plankb.kg.store import Graph, Iri, Triple, TypedLiteral
from plankb.mapper import (
    domain_iri,
    map_ipc_results,
    planner_iri,
)
from plankb.select import (
    InvalidRecord,
    NoCandidates,
    NoDataForDomain,
    PlannerRecord,
    read_ipc_csv,
    relevance,
    select_ontology,
    select_random,
)

from oracles import reference_select, solved_percentage

IPC_CSV = bundles.data_dir() / "ipc2011.csv"


def test_tier_boundaries_inclusive():
    assert relevance(7, 20) == "medium"   # exactly 35%
    assert relevance(14, 20) == "high"    # exactly 70%
    assert relevance(6, 20) == "low"      # 30%
    assert relevance(34, 100) == "low"    # just under 35%
    assert relevance(35, 100) == "medium"
    assert relevance(69, 100) == "medium"
    assert relevance(70, 100) == "high"
    assert relevance(0, 20) == "low"
    assert relevance(20, 20) == "high"


def test_tier_boundaries_avoid_float_rounding():
    # 7/20 in binary floating point is 0.35000000000000003; exact
    # cross-multiplication must still land on the boundary tier.
    for scale in (1, 3, 7, 1000):
        assert relevance(7 * scale, 20 * scale) == "medium"
        assert relevance(14 * scale, 20 * scale) == "high"


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
    reader = csv.DictReader(io.StringIO(IPC_CSV.read_text()))
    cells = collections.defaultdict(dict)
    for row in reader:
        cells[row["domain"]][row["planner"]] = (
            int(row["solved"]), int(row["total"])
        )
    return cells


@pytest.fixture(scope="module")
def results_graph():
    g = Graph()
    g.update(map_ipc_results(read_ipc_csv(IPC_CSV.read_text())))
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


_PLANNERS = ("p0", "p1", "p2", "p3")
_DOMAINS = ("d0", "d1")
_BAD_VALUES = (
    TypedLiteral("many", XSD_DECIMAL),
    TypedLiteral("nan", XSD_DECIMAL),
    TypedLiteral("-1e400", XSD_DECIMAL),
    TypedLiteral("", XSD_STRING),
    Iri("http://example.org/not-a-literal"),
)


@st.composite
def _ipc_records(draw):
    """A results graph with repeated records and, for some (planner,
    domain) pairs, an extra solved percentage that is not a number."""
    g = Graph()
    rows = draw(st.lists(st.tuples(
        st.sampled_from(_PLANNERS), st.sampled_from(_DOMAINS),
        st.integers(1, 4).flatmap(lambda total: st.tuples(st.integers(0, total),
                                                          st.just(total)))),
        max_size=10))
    g.update(map_ipc_results([PlannerRecord(p, d, solved, total)
                              for p, d, (solved, total) in rows]))
    t = SCHEMA.prop
    for p, d, value in draw(st.lists(st.tuples(
            st.sampled_from(_PLANNERS), st.sampled_from(_DOMAINS),
            st.sampled_from(_BAD_VALUES)), max_size=3)):
        rel = plan_iri("relevance-{}-{}".format(p, d))
        g.update([Triple(planner_iri(p), t("hasRelevance"), rel),
                  Triple(rel, t("hasDomain"), domain_iri(d)),
                  Triple(rel, t("hasSolvedPercentage"), value)])
    return g


def _outcome(select, g, domain, candidates):
    try:
        return select(g, domain, candidates)
    except PlankbError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_ipc_records(),
       st.sampled_from(_DOMAINS + ("nowhere",)),
       st.lists(st.sampled_from(_PLANNERS + ("unrecorded",)), max_size=5))
def test_ontology_policy_matches_one_query_per_candidate(g, domain, names):
    """The choice, the rationale and each error are those of one
    `solved_percentage` query per candidate: a bad value on a candidate
    raises, one on any other planner does not."""
    candidates = [planner_iri(n) for n in names]
    assert _outcome(select_ontology, g, domain_iri(domain), candidates) == \
        _outcome(reference_select, g, domain_iri(domain), candidates)


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


HEADER = "planner,domain,solved,total\n"


@pytest.mark.parametrize("text", [
    HEADER + "lama\n",                      # a short row: AttributeError before
    HEADER + "lama,elevators\n",
    HEADER + "la\rma,elevators,3,20\n",     # a lone CR: csv.Error before
    HEADER + '"lama,elevators,3,20\n',      # an unclosed quote
])
def test_csv_malformed_row_is_an_invalid_record(text):
    with pytest.raises(InvalidRecord, match="^bad CSV row "):
        read_ipc_csv(text)


@pytest.mark.parametrize("column", [0, 1], ids=["planner", "domain"])
@pytest.mark.parametrize("name", ["", "  ", "la\x00ma"], ids=["empty", "blank", "nul"])
def test_csv_blank_or_nul_name_is_an_invalid_record(column, name):
    # Python 3.10's csv refuses a NUL byte and later versions read it as
    # text; either way the row is refused.
    cells = ["lama", "elevators", "3", "20"]
    cells[column] = name
    with pytest.raises(InvalidRecord):
        read_ipc_csv(HEADER + ",".join(cells) + "\n")


def test_csv_line_ends_and_padded_header_names():
    # A padded header name was accepted and its rows then failed with a
    # KeyError.
    expected = [PlannerRecord("lama", "elevators", 3, 20), PlannerRecord("lmcut", "barman", 4, 20)]
    for text in ("planner, domain ,solved,total\nlama,elevators,3,20\nlmcut,barman,4,20\n",
                 "planner,domain,solved,total\r\nlama,elevators,3,20\r\nlmcut,barman,4,20",
                 "planner,domain,solved,total\rlama,elevators,3,20\rlmcut,barman,4,20\r"):
        assert read_ipc_csv(text) == expected


def test_csv_row_count():
    rows = read_ipc_csv(IPC_CSV.read_text())
    assert len(rows) == 56
    assert all(r.total == 20 for r in rows)
