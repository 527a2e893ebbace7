"""PDDL-to-graph mapping and the competency queries."""

import pytest

from plankb import bundles
from plankb.kg.schema import RDF_TYPE, SCHEMA, string_literal
from plankb.kg.store import Graph, Iri, Variable
from plankb.mapper import (
    COMPETENCY_QUERIES,
    MappingError,
    UnknownDomain,
    UnknownQueryId,
    action_iri,
    build_graph,
    competency_patterns,
    domain_iri,
    map_domain,
    map_ipc_results,
    map_problem,
    planner_iri,
    planner_type_iri,
    problem_iri,
    requirement_iri,
    run_competency,
)
from plankb.pddl.ast import DomainDef, PredicateSchema
from plankb.select import InvalidRecord, PlannerRecord
from test_kg_store import oracle_query


def test_schema_roster_sizes():
    from plankb.kg.schema import (
        CLASS_NAMES,
        DATA_PROPERTY_NAMES,
        EXTENSION_PROPERTY_NAMES,
        OBJECT_PROPERTY_NAMES,
    )

    assert len(CLASS_NAMES) == 19
    assert len(OBJECT_PROPERTY_NAMES) + len(DATA_PROPERTY_NAMES) == 25
    named = set(OBJECT_PROPERTY_NAMES) | set(DATA_PROPERTY_NAMES)
    assert not named & set(EXTENSION_PROPERTY_NAMES)


def test_iri_minting_is_deterministic_and_lowercase():
    assert domain_iri("blocksworld").value.endswith("#domain-blocksworld")
    assert action_iri("blocksworld", "pick-up").value.endswith(
        "#action-blocksworld-pick-up"
    )
    assert requirement_iri(":strips") == requirement_iri(":strips")
    assert requirement_iri(":strips").value.endswith("#requirement-strips")
    assert planner_iri("fdss-1").value.endswith("#planner-fdss-1")


def test_map_domain_core_triples(bw_graph):
    t = SCHEMA.prop
    D = domain_iri("blocksworld")
    actions = bw_graph.objects(D, t("hasAction"))
    assert len(actions) == 4
    assert action_iri("blocksworld", "unstack") in actions
    requirements = bw_graph.objects(D, t("hasRequirement"))
    assert requirements == [requirement_iri(":strips")]
    predicates = bw_graph.objects(D, t("hasPredicate"))
    assert len(predicates) == 5


def test_map_domain_rejects_ill_formed():
    bad = DomainDef(
        "dup",
        frozenset({":strips"}),
        (),
        (),
        (PredicateSchema("p", ()), PredicateSchema("p", ())),
        (),
    )
    with pytest.raises(MappingError):
        map_domain(bad)


def test_map_problem_requires_mapped_domain():
    p = bundles.load_problems("gripper")[0]
    with pytest.raises(UnknownDomain):
        map_problem(p, Graph())


def test_map_problem_states(bw_graph):
    t = SCHEMA.prop
    P = problem_iri("blocksworld", "bw-p01")
    [init] = bw_graph.objects(P, t("hasInitialState"))
    facts = {o.lexical for o in bw_graph.objects(init, t("hasStateFact"))}
    assert "(handempty)" in facts
    assert "(on c a)" in facts
    [goal] = bw_graph.objects(P, t("hasGoalState"))
    goal_facts = {o.lexical for o in bw_graph.objects(goal, t("hasStateFact"))}
    assert goal_facts == {"(on a b)", "(on b c)"}


def test_mapped_repeats_are_stored_once():
    rows = [PlannerRecord("lama", "d1", 3, 4), PlannerRecord("lama", "d2", 1, 4)]
    mapped = map_ipc_results(rows)
    # Two rows of one planner type it once, with the triples of each row.
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == set(map_ipc_results(rows[:1])) | set(map_ipc_results(rows[1:]))
    # The graph keeps one copy of a triple given twice.
    g = Graph(mapped + mapped)
    assert g.triples() == set(mapped)
    assert len(g) == len(mapped)


def test_plan_iris_content_addressed(bw_bundle):
    d, problems, entries = bw_bundle
    g1 = build_graph(d, problems, entries)
    g2 = build_graph(d, problems, entries)
    assert g1.triples() == g2.triples()


# --- competency queries -----------------------------------------------------


def test_registry_covers_c1_to_c10():
    assert sorted(COMPETENCY_QUERIES) == [
        "C1", "C10", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9",
    ]


def test_missing_argument_rejected():
    with pytest.raises(UnknownQueryId):
        competency_patterns("C3", {})
    with pytest.raises(UnknownQueryId):
        competency_patterns("C99", {})


def run_oracle(g, qid, args):
    patterns, select, distinct = competency_patterns(qid, args)
    rows = oracle_query(list(g.triples()), patterns, select, distinct)
    if COMPETENCY_QUERIES[qid].count:
        return len(rows)
    return rows


GOLDEN_ARGS = {
    "C1": {},
    "C2": {"planner": "fdss-1", "domain": "scanalyzer"},
    "C3": {"domain": "blocksworld"},
    "C4": {"domain": "blocksworld", "fact": "(handempty)"},
    "C5": {"domain": "blocksworld"},
    "C6": {"domain": "blocksworld", "problem": "bw-p01"},
    "C7": {"domain": "blocksworld", "action": "unstack"},
    "C8": {"planner": "bfs"},
    "C9": {"planner": "bfs"},
    "C10": {"domain": "blocksworld"},
}


@pytest.mark.parametrize("qid", sorted(GOLDEN_ARGS))
def test_competency_matches_oracle(qid, ipc_graph):
    assert run_competency(ipc_graph, qid, GOLDEN_ARGS[qid]) == run_oracle(
        ipc_graph, qid, GOLDEN_ARGS[qid]
    )


def test_c1_planner_types(ipc_graph):
    rows = run_competency(ipc_graph, "C1", {})
    assert {r["t"] for r in rows} == {
        planner_type_iri("optimal"),
        planner_type_iri("satisficing"),
    }


def test_c2_relevance_tier(ipc_graph):
    rows = run_competency(
        ipc_graph, "C2", {"planner": "fdss-1", "domain": "scanalyzer"}
    )
    assert [r["tier"].lexical for r in rows] == ["high"]
    rows = run_competency(
        ipc_graph, "C2", {"planner": "lmcut", "domain": "parking"}
    )
    assert [r["tier"].lexical for r in rows] == ["low"]


def test_c3_action_cardinality_matches_domain(ipc_graph):
    rows = run_competency(ipc_graph, "C3", {"domain": "blocksworld"})
    assert len(rows) == 4


def test_c4_initial_state_fact(ipc_graph):
    rows = run_competency(
        ipc_graph, "C4", {"domain": "blocksworld", "fact": "(handempty)"}
    )
    assert len(rows) == 10  # every bundled blocksworld problem starts hand-free
    rows = run_competency(
        ipc_graph, "C4", {"domain": "blocksworld", "fact": "(on c a)"}
    )
    assert {r["p"] for r in rows} == {problem_iri("blocksworld", "bw-p01")}


def test_c5_requirements(ipc_graph):
    rows = run_competency(ipc_graph, "C5", {"domain": "blocksworld"})
    assert [r["r"] for r in rows] == [requirement_iri(":strips")]


def test_c6_plan_cost(ipc_graph):
    rows = run_competency(
        ipc_graph, "C6", {"domain": "blocksworld", "problem": "bw-p01"}
    )
    assert [r["cost"].lexical for r in rows] == ["6"]


def test_c7_parameter_counts(ipc_graph):
    assert run_competency(
        ipc_graph, "C7", {"domain": "blocksworld", "action": "unstack"}
    ) == 2
    assert run_competency(
        ipc_graph, "C7", {"domain": "blocksworld", "action": "pick-up"}
    ) == 1


def test_c8_c9_planner_description(ipc_graph):
    rows = run_competency(ipc_graph, "C8", {"planner": "bfs"})
    assert [r["t"] for r in rows] == [planner_type_iri("satisficing")]
    rows = run_competency(ipc_graph, "C9", {"planner": "bfs"})
    assert [r["r"] for r in rows] == [requirement_iri(":strips")]


def test_c10_parameter_types(gripper_graph):
    rows = run_competency(gripper_graph, "C10", {"domain": "gripper"})
    names = {r["t"].value.rsplit("-", 1)[-1] for r in rows}
    assert names == {"room", "ball", "gripper"}


def test_planner_record_validation():
    with pytest.raises(InvalidRecord):
        PlannerRecord("x", "d", 21, 20)
    with pytest.raises(InvalidRecord):
        PlannerRecord("x", "d", -1, 20)
    with pytest.raises(InvalidRecord):
        PlannerRecord("x", "d", 0, 0)
