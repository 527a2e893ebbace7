"""Planning ontology vocabulary.

The class/property roster is a faithful reconstruction of the published
planning ontology (19 classes, 25 properties); a handful of plumbing data
properties (step index, state facts, relevance tier, macro frequency) and
the ordered macro-constituent links are additions needed to keep the graph
queryable with plain basic graph patterns.
"""

from __future__ import annotations

from typing import NamedTuple

from .store import Iri, TypedLiteral

PLAN_NS = "https://purl.org/ai4s/ontology/planning#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = Iri(RDF_NS + "type")

XSD_STRING = Iri(XSD_NS + "string")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_NON_NEGATIVE_INTEGER = Iri(XSD_NS + "nonNegativeInteger")

CLASS_NAMES = (
    "PlanningDomain",
    "DomainRequirement",
    "ParameterType",
    "DomainPredicate",
    "DomainConstant",
    "Action",
    "ActionPrecondition",
    "ActionEffect",
    "Parameter",
    "PlanningProblem",
    "ProblemObject",
    "State",
    "InitialState",
    "GoalState",
    "Plan",
    "Planner",
    "PlannerType",
    "MacroAction",
    "PlanningTask",
)

OBJECT_PROPERTY_NAMES = (
    "hasAction",
    "hasPredicate",
    "hasRequirement",
    "hasEffect",
    "hasPrecondition",
    "addsPredicate",
    "deletesPredicate",
    "hasParameter",
    "hasParameterType",
    "hasGoalState",
    "hasInitialState",
    "hasObject",
    "hasPlan",
    "isGeneratedBy",
    "ofPlannerType",
    "solvesRequirement",
    "hasRelevance",
    "hasDomain",
    "hasProblem",
    "hasActionStep",
    "hasMacro",
)

DATA_PROPERTY_NAMES = (
    "hasPlanCost",
    "hasSolvedPercentage",
    "hasActionName",
    "hasExplanation",
)

# Reconstruction extensions, kept separate from the published roster.
EXTENSION_PROPERTY_NAMES = (
    "hasConstant",
    "hasFirstAction",
    "hasSecondAction",
    "hasStepIndex",
    "hasStateFact",
    "hasRelevanceTier",
    "hasFrequency",
)


class OntologySchema(NamedTuple):
    classes: dict[str, Iri]
    properties: dict[str, Iri]

    def cls(self, name: str) -> Iri:
        return self.classes[name]

    def prop(self, name: str) -> Iri:
        return self.properties[name]


def _build_schema() -> OntologySchema:
    classes = {name: Iri(PLAN_NS + name) for name in CLASS_NAMES}
    properties = {
        name: Iri(PLAN_NS + name)
        for name in OBJECT_PROPERTY_NAMES + DATA_PROPERTY_NAMES + EXTENSION_PROPERTY_NAMES
    }
    return OntologySchema(classes, properties)


#: The single schema instance for this process.
SCHEMA = _build_schema()


# RFC 3987 iunreserved is ALPHA / DIGIT / "-" / "." / "_" / "~" / ucschar.
_UNRESERVED_ASCII = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_UCSCHAR = (
    [(0xA0, 0xD7FF), (0xF900, 0xFDCF), (0xFDF0, 0xFFEF)]
    + [(plane << 16, (plane << 16) + 0xFFFD) for plane in range(1, 14)]
    + [(0xE1000, 0xEFFFD)]
)


def _iri_char(c: str) -> str:
    # White space is escaped too: a Turtle IRIREF may not hold it.
    if c in _UNRESERVED_ASCII or (
        not c.isspace() and any(a <= ord(c) <= b for a, b in _UCSCHAR)
    ):
        return c
    # surrogatepass: a command-line argument may hold a lone surrogate.
    return "".join("%{:02X}".format(b) for b in c.encode("utf-8", "surrogatepass"))


def plan_iri(local: str) -> Iri:
    """The IRI of a name in the planning namespace.

    Every character outside RFC 3987's iunreserved set, and every white
    space character, becomes %XX of its UTF-8 bytes, so any name gives an
    IRI that Turtle can hold, and distinct names give distinct IRIs.
    """
    if not _UNRESERVED_ASCII.issuperset(local):
        local = "".join(map(_iri_char, local))
    return Iri(PLAN_NS + local)


def string_literal(text: str) -> TypedLiteral:
    return TypedLiteral(text, XSD_STRING)


def integer_literal(value: int) -> TypedLiteral:
    return TypedLiteral(str(value), XSD_NON_NEGATIVE_INTEGER)


def is_integer_text(lexical: str) -> bool:
    """Whether a literal's text is an integer as `integer_literal` writes it:
    ASCII digits only, with no sign, space or digit separator."""
    return lexical.isascii() and lexical.isdigit()


def decimal_literal(value: float) -> TypedLiteral:
    return TypedLiteral(repr(float(value)), XSD_DECIMAL)
