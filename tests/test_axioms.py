"""Ontology axiom validation: one seeded negative fixture per axiom plus
clean fully mapped graphs."""

import pytest

from plankb.kg.axioms import validate_axioms
from plankb.kg.schema import (
    RDF_TYPE,
    SCHEMA,
    XSD_NON_NEGATIVE_INTEGER,
    decimal_literal,
    integer_literal,
    plan_iri,
)
from plankb.kg.store import Graph, Iri, Triple, TypedLiteral


def cls(name):
    return SCHEMA.cls(name)


def prop(name):
    return SCHEMA.prop(name)


def node(local):
    return plan_iri(local)


def typed(local, class_name):
    return Triple(node(local), RDF_TYPE, cls(class_name))


def violated(g, post_solve=False):
    return sorted({v.axiom_id for v in validate_axioms(g, post_solve)})


def valid_planner(suffix=""):
    p = node("planner-x" + suffix)
    return [
        Triple(p, RDF_TYPE, cls("Planner")),
        Triple(p, prop("ofPlannerType"), node("plannertype-t")),
        Triple(p, prop("solvesRequirement"), node("requirement-strips")),
    ]


def test_axiom_1_domain_without_action():
    g = Graph([
        typed("domain-x", "PlanningDomain"),
        Triple(node("domain-x"), prop("hasPredicate"), node("predicate-x-p")),
        Triple(node("domain-x"), prop("hasRequirement"), node("requirement-strips")),
    ])
    assert violated(g) == [1]


def test_axiom_2_domain_without_predicate():
    g = Graph([
        typed("domain-x", "PlanningDomain"),
        Triple(node("domain-x"), prop("hasAction"), node("action-x-a")),
        Triple(node("domain-x"), prop("hasRequirement"), node("requirement-strips")),
    ])
    assert violated(g) == [2]


def test_axiom_3_domain_without_requirement():
    g = Graph([
        typed("domain-x", "PlanningDomain"),
        Triple(node("domain-x"), prop("hasAction"), node("action-x-a")),
        Triple(node("domain-x"), prop("hasPredicate"), node("predicate-x-p")),
    ])
    assert violated(g) == [3]


def test_axiom_4_action_without_effect():
    g = Graph([typed("action-x-a", "Action")])
    assert violated(g) == [4]


def test_axioms_5_and_6_bare_effect_node():
    """An effect that neither adds nor deletes breaks both effect axioms."""
    g = Graph([typed("effect-x-a", "ActionEffect")])
    assert violated(g) == [5, 6]


def test_effect_with_only_add_is_fine():
    g = Graph([
        typed("effect-x-a", "ActionEffect"),
        Triple(node("effect-x-a"), prop("addsPredicate"), node("predicate-x-p")),
    ])
    assert violated(g) == []


def test_axiom_7_problem_with_two_goals():
    g = Graph([
        typed("problem-x-p", "PlanningProblem"),
        Triple(node("problem-x-p"), prop("hasGoalState"), node("goal-1")),
        Triple(node("problem-x-p"), prop("hasGoalState"), node("goal-2")),
        Triple(node("problem-x-p"), prop("hasInitialState"), node("init-1")),
        Triple(node("problem-x-p"), prop("hasObject"), node("object-1")),
    ])
    assert violated(g) == [7]


def test_axiom_8_problem_without_init():
    g = Graph([
        typed("problem-x-p", "PlanningProblem"),
        Triple(node("problem-x-p"), prop("hasGoalState"), node("goal-1")),
        Triple(node("problem-x-p"), prop("hasObject"), node("object-1")),
    ])
    assert violated(g) == [8]


def test_axiom_9_problem_without_objects():
    g = Graph([
        typed("problem-x-p", "PlanningProblem"),
        Triple(node("problem-x-p"), prop("hasGoalState"), node("goal-1")),
        Triple(node("problem-x-p"), prop("hasInitialState"), node("init-1")),
    ])
    assert violated(g) == [9]


def test_axiom_10_only_in_post_solve_mode():
    g = Graph([
        typed("problem-x-p", "PlanningProblem"),
        Triple(node("problem-x-p"), prop("hasGoalState"), node("goal-1")),
        Triple(node("problem-x-p"), prop("hasInitialState"), node("init-1")),
        Triple(node("problem-x-p"), prop("hasObject"), node("object-1")),
    ])
    assert violated(g, post_solve=False) == []
    assert violated(g, post_solve=True) == [10]


def test_axiom_11_negative_cost():
    g = Graph(
        [
            typed("plan-1", "Plan"),
            Triple(node("plan-1"), prop("hasPlanCost"), decimal_literal(-3)),
            Triple(node("plan-1"), prop("isGeneratedBy"), node("planner-x")),
        ]
        + valid_planner()
    )
    assert violated(g) == [11]


def test_axiom_11_missing_cost():
    g = Graph(
        [
            typed("plan-1", "Plan"),
            Triple(node("plan-1"), prop("isGeneratedBy"), node("planner-x")),
        ]
        + valid_planner()
    )
    assert violated(g) == [11]


def test_axiom_11_two_costs():
    g = Graph(
        [
            typed("plan-1", "Plan"),
            Triple(node("plan-1"), prop("hasPlanCost"), integer_literal(3)),
            Triple(node("plan-1"), prop("hasPlanCost"), integer_literal(4)),
            Triple(node("plan-1"), prop("isGeneratedBy"), node("planner-x")),
        ]
        + valid_planner()
    )
    assert violated(g) == [11]


# Each passes `str.isdigit` or `int`, but `integer_literal` writes none of them.
NOT_ASCII_DIGITS = ["\u00b2", " 7", "+7", "1_0", "\u0663"]


@pytest.mark.parametrize("lexical", NOT_ASCII_DIGITS)
def test_axiom_11_cost_of_ascii_digits_only(lexical):
    cost = TypedLiteral(lexical, XSD_NON_NEGATIVE_INTEGER)
    g = Graph(
        [
            typed("plan-1", "Plan"),
            Triple(node("plan-1"), prop("hasPlanCost"), cost),
            Triple(node("plan-1"), prop("isGeneratedBy"), node("planner-x")),
        ]
        + valid_planner()
    )
    assert [str(v) for v in validate_axioms(g)] == [
        "axiom 11: {} -- hasPlanCost must be a non-negative integer, found {}".format(
            node("plan-1").value, cost)]


def test_axiom_12_plan_without_generator():
    g = Graph([
        typed("plan-1", "Plan"),
        Triple(node("plan-1"), prop("hasPlanCost"), integer_literal(3)),
    ])
    assert violated(g) == [12]


def test_axiom_13_planner_without_type():
    g = Graph([
        typed("planner-x", "Planner"),
        Triple(node("planner-x"), prop("solvesRequirement"), node("requirement-strips")),
    ])
    assert violated(g) == [13]


def test_axiom_13_planner_without_requirement():
    g = Graph([
        typed("planner-x", "Planner"),
        Triple(node("planner-x"), prop("ofPlannerType"), node("plannertype-t")),
    ])
    assert violated(g) == [13]


def test_violations_sorted_and_printable():
    g = Graph([
        typed("action-x-a", "Action"),
        typed("plan-1", "Plan"),
    ])
    out = validate_axioms(g)
    assert [v.axiom_id for v in out] == sorted(v.axiom_id for v in out)
    for v in out:
        assert str(v).startswith("axiom ")


@pytest.mark.parametrize(
    "fixture", ["bw_graph", "gripper_graph", "driverlog_graph"]
)
def test_mapped_bundles_are_clean(fixture, request):
    g = request.getfixturevalue(fixture)
    assert validate_axioms(g, post_solve=False) == []
    assert validate_axioms(g, post_solve=True) == []


def test_ipc_graph_is_clean(ipc_graph):
    assert validate_axioms(ipc_graph, post_solve=True) == []
