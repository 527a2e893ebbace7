"""Parser, printer, and well-formedness checks for the PDDL subset."""

import pytest

from plankb import bundles
from plankb.pddl.ast import (
    OBJECT_TYPE,
    ArityMismatch,
    Atom,
    DomainDef,
    Literal,
    PddlSyntaxError,
    TypeName,
    UnknownPredicate,
    UnknownType,
    UnsupportedConstruct,
)
from plankb.pddl.parser import parse_domain, parse_problem
from plankb.pddl.printer import print_domain, print_problem
from plankb.pddl.validate import validate_domain

from oracles import DOMAIN_NAMES

DOMAINS = list(DOMAIN_NAMES)


@pytest.mark.parametrize("name", DOMAINS)
def test_bundled_domains_parse(name):
    d = bundles.load_domain(name)
    assert d.name == name
    assert d.actions
    assert d.predicates
    assert ":strips" in d.requirements


def test_blocksworld_shape():
    d = bundles.load_domain("blocksworld")
    assert sorted(d.action_map()) == ["pick-up", "put-down", "stack", "unstack"]
    assert sorted(p.name for p in d.predicates) == [
        "clear", "handempty", "holding", "on", "ontable",
    ]
    unstack = d.action_map()["unstack"]
    assert unstack.variables == ("?x", "?y")
    assert Atom("on", ("?x", "?y")) in {l.atom for l in unstack.precondition}


def test_gripper_types():
    d = bundles.load_domain("gripper")
    assert d.declared_types() == {"object", "room", "ball", "gripper"}
    assert d.is_subtype("room", "object")
    assert not d.is_subtype("room", "ball")


def test_driverlog_type_hierarchy():
    d = bundles.load_domain("driverlog")
    assert d.is_subtype("truck", "locatable")
    assert d.is_subtype("truck", "object")
    assert not d.is_subtype("locatable", "truck")


def test_is_subtype_matches_parent_walk():
    # a <- b <- c is a chain; x and y name each other as parent (a cycle,
    # which must not loop); z is undeclared.
    types = (TypeName("a"), TypeName("b", "a"), TypeName("c", "b"),
             TypeName("x", "y"), TypeName("y", "x"))
    d = DomainDef("t", frozenset(), types, (), (), ())
    parents = d.type_parents()

    def walk(sub, sup):
        seen, cur = set(), sub
        while cur is not None and cur not in seen:
            if cur == sup:
                return True
            seen.add(cur)
            cur = parents.get(cur)
        return False

    names = ["a", "b", "c", "x", "y", "z"]
    for sub in names + [OBJECT_TYPE]:
        for sup in names:
            assert d.is_subtype(sub, sup) == walk(sub, sup), (sub, sup)
        assert d.is_subtype(sub, OBJECT_TYPE)


@pytest.mark.parametrize("name", DOMAINS)
def test_domain_roundtrip(name):
    d = bundles.load_domain(name)
    printed = print_domain(d)
    assert parse_domain(printed) == d
    # Printing is a fixed point: print(parse(print(d))) == print(d).
    assert print_domain(parse_domain(printed)) == printed


def test_problem_roundtrip_all_bundles():
    count = 0
    for name in DOMAINS:
        d = bundles.load_domain(name)
        for p in bundles.load_problems(name):
            printed = print_problem(p)
            assert parse_problem(printed, d) == p
            count += 1
    assert count >= 9


@pytest.mark.parametrize("name", DOMAINS)
def test_bundled_domains_well_formed(name):
    assert validate_domain(bundles.load_domain(name)) == []


def test_case_insensitive_names():
    d = parse_domain(
        "(define (domain Mixed) (:predicates (P ?X)) "
        "(:action Go :parameters (?X) :precondition (P ?X) "
        ":effect (not (P ?X))))"
    )
    assert d.name == "mixed"
    assert [a.name for a in d.actions] == ["go"]
    assert d.predicates[0].name == "p"


def test_syntax_error_position():
    with pytest.raises(PddlSyntaxError) as err:
        parse_domain("(define (domain broken)\n  (:predicates (p")
    assert err.value.line == 2


def test_unsupported_construct():
    with pytest.raises(UnsupportedConstruct):
        parse_domain(
            "(define (domain f) (:functions (total-cost)) "
            "(:predicates (p)))"
        )


def test_disjunctive_precondition_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_domain(
            "(define (domain f) (:predicates (p) (q)) "
            "(:action a :parameters () "
            ":precondition (or (p) (q)) :effect (p)))"
        )


def test_conditional_effect_rejected():
    with pytest.raises(UnsupportedConstruct):
        parse_domain(
            "(define (domain f) (:predicates (p) (q)) "
            "(:action a :parameters () :precondition (p) "
            ":effect (when (p) (q))))"
        )


def test_problem_arity_mismatch():
    d = bundles.load_domain("blocksworld")
    with pytest.raises(ArityMismatch):
        parse_problem(
            "(define (problem p) (:domain blocksworld) (:objects a) "
            "(:init (on a)) (:goal (ontable a)))",
            d,
        )


def test_problem_unknown_predicate():
    d = bundles.load_domain("blocksworld")
    with pytest.raises(UnknownPredicate):
        parse_problem(
            "(define (problem p) (:domain blocksworld) (:objects a) "
            "(:init (flying a)) (:goal (ontable a)))",
            d,
        )


def test_problem_unknown_object_type():
    d = bundles.load_domain("gripper")
    with pytest.raises(UnknownType):
        parse_problem(
            "(define (problem p) (:domain gripper) "
            "(:objects b1 - banana) (:init ) (:goal (at-robby b1)))",
            d,
        )


def test_negated_goal_parses():
    d = bundles.load_domain("blocksworld")
    p = parse_problem(
        "(define (problem p) (:domain blocksworld) (:objects a b) "
        "(:init (ontable a) (ontable b) (clear a) (clear b) (handempty)) "
        "(:goal (and (ontable a) (not (on a b)))))",
        d,
    )
    assert Literal(Atom("on", ("a", "b")), True) in p.goal


def test_default_requirements():
    d = parse_domain("(define (domain bare) (:predicates (p)))")
    assert d.requirements == frozenset({":strips"})


def test_comments_ignored():
    d = parse_domain(
        ";; leading comment\n"
        "(define (domain c) ; trailing\n (:predicates (p)))"
    )
    assert d.name == "c"


# --- validate_domain issue classes -----------------------------------------


def _issues(text):
    return {i.code for i in validate_domain(parse_domain(text))}


def test_duplicate_action_flagged():
    codes = _issues(
        "(define (domain d) (:predicates (p)) "
        "(:action a :parameters () :precondition (p) :effect (p)) "
        "(:action a :parameters () :precondition (p) :effect (p)))"
    )
    assert "DuplicateAction" in codes


def test_duplicate_predicate_flagged():
    codes = _issues("(define (domain d) (:predicates (p ?x) (p ?x)))")
    assert "DuplicatePredicate" in codes


def test_undeclared_type_flagged():
    codes = _issues("(define (domain d) (:predicates (p ?x - widget)))")
    assert "UndeclaredType" in codes


def test_type_cycle_flagged():
    codes = _issues(
        "(define (domain d) (:requirements :strips :typing) "
        "(:types a - b b - a) (:predicates (p ?x - a)))"
    )
    assert "TypeCycle" in codes


def test_unknown_precondition_predicate_flagged():
    codes = _issues(
        "(define (domain d) (:predicates (p)) "
        "(:action a :parameters () :precondition (q) :effect (p)))"
    )
    assert "UnknownPredicate" in codes


def test_unbound_effect_variable_flagged():
    codes = _issues(
        "(define (domain d) (:predicates (p ?x)) "
        "(:action a :parameters () :precondition () :effect (p ?y)))"
    )
    assert "UnboundVariable" in codes


def test_unsupported_requirement_flagged():
    codes = _issues(
        "(define (domain d) (:requirements :strips :adl) (:predicates (p)))"
    )
    assert "UnsupportedRequirement" in codes
