"""Cardinality-style axiom validation over the planning ontology.

Thirteen numbered constraints are checked per instance of the constrained
class.  Axiom 10 (every problem has a plan) only makes sense once solving
has happened, so it is gated behind post-solve mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import RDF_TYPE, SCHEMA, XSD_NON_NEGATIVE_INTEGER
from .store import Graph, Iri, TypedLiteral


@dataclass(frozen=True)
class AxiomViolation:
    axiom_id: int
    subject: Iri
    message: str

    def __str__(self) -> str:
        return "axiom {}: {} -- {}".format(self.axiom_id, self.subject.value, self.message)


def _instances(g: Graph, class_name: str) -> list[Iri]:
    return g.subjects_of_type(SCHEMA.cls(class_name), RDF_TYPE)


def _count(g: Graph, s: Iri, prop: str) -> int:
    return len(g._lookup(s, SCHEMA.prop(prop)))


def validate_axioms(g: Graph, post_solve: bool = False) -> list[AxiomViolation]:
    out: list[AxiomViolation] = []

    def require_some(class_name: str, prop: str, axiom_id: int) -> None:
        for inst in _instances(g, class_name):
            if _count(g, inst, prop) < 1:
                out.append(
                    AxiomViolation(
                        axiom_id, inst,
                        "{} must have at least one {}".format(class_name, prop),
                    )
                )

    def require_exactly_one(class_name: str, prop: str, axiom_id: int) -> None:
        for inst in _instances(g, class_name):
            n = _count(g, inst, prop)
            if n != 1:
                out.append(
                    AxiomViolation(
                        axiom_id, inst,
                        "{} must have exactly one {}, found {}".format(
                            class_name, prop, n
                        ),
                    )
                )

    require_some("PlanningDomain", "hasAction", 1)
    require_some("PlanningDomain", "hasPredicate", 2)
    require_some("PlanningDomain", "hasRequirement", 3)
    require_some("Action", "hasEffect", 4)

    # Axioms 5/6: every effect node must add or delete at least one
    # predicate.  A bare effect node claims neither side, so it violates
    # both constraints.
    for inst in _instances(g, "ActionEffect"):
        adds = _count(g, inst, "addsPredicate")
        dels = _count(g, inst, "deletesPredicate")
        if adds == 0 and dels == 0:
            out.append(
                AxiomViolation(5, inst, "ActionEffect adds no predicate")
            )
            out.append(
                AxiomViolation(6, inst, "ActionEffect deletes no predicate")
            )

    require_exactly_one("PlanningProblem", "hasGoalState", 7)
    require_exactly_one("PlanningProblem", "hasInitialState", 8)
    require_some("PlanningProblem", "hasObject", 9)
    if post_solve:
        require_some("PlanningProblem", "hasPlan", 10)

    for inst in _instances(g, "Plan"):
        costs = g.objects(inst, SCHEMA.prop("hasPlanCost"))
        if len(costs) != 1:
            out.append(
                AxiomViolation(
                    11, inst,
                    "Plan must have exactly one hasPlanCost, found {}".format(len(costs)),
                )
            )
        for cost in costs:
            ok = (
                isinstance(cost, TypedLiteral)
                and cost.datatype == XSD_NON_NEGATIVE_INTEGER
                and cost.lexical.isdigit()
            )
            if not ok:
                out.append(
                    AxiomViolation(
                        11, inst,
                        "hasPlanCost must be a non-negative integer, found {}".format(cost),
                    )
                )

    require_some("Plan", "isGeneratedBy", 12)
    require_some("Planner", "ofPlannerType", 13)
    require_some("Planner", "solvesRequirement", 13)

    out.sort(key=lambda v: (v.axiom_id, v.subject.value, v.message))
    return out
