"""Parser, printer, and well-formedness checks for the PDDL subset."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb import bundles
from plankb.pddl import parser, sexpr
from plankb.pddl.ast import (
    OBJECT_TYPE,
    ArityMismatch,
    Atom,
    DomainDef,
    Literal,
    PddlError,
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


# Every reader error and every `_err` call site in the parser, with the
# position the message gives.
SMALL_DOMAIN = "(define (domain d) (:predicates (p ?x) (q)))"
ACTION = "(define (domain d) (:predicates (p ?x) (q))\n  (:action a :parameters (?x)\n    {}))"
PROBLEM = "(define (problem p) (:domain d)\n  (:objects a b)\n  {})"
SYNTAX_ERRORS = [
    # the reader
    ("domain", "", "1:1: expected '(' but found end of input"),
    ("domain", "; only a comment\n", "2:1: expected '(' but found end of input"),
    ("domain", "(define (domain d))\n)", "2:1: unbalanced ')'"),
    ("domain", "(define (domain d)\n  (:predicates (p)", "2:3: unbalanced '(': expected ')'"),
    ("domain", "\n  Define (domain d)", "2:3: expected '(' but found 'Define'"),
    ("domain", "(define (domain d))\n(extra)", "2:1: unexpected trailing expression"),
    ("problem", "(define (problem p)\n  (:init (p a)) ; (\n", "1:1: unbalanced '(': expected ')'"),
    # parse_domain
    ("domain", "(define)", "1:1: expected '(define (domain ...) ...)'"),
    ("domain", "(defin (domain d))", "1:1: expected '(define (domain ...) ...)'"),
    ("domain", "(define\n domain)", "2:2: expected '(domain NAME)' (a list), found 'domain'"),
    ("domain", "(define (domain))", "1:9: expected '(domain NAME)'"),
    ("domain", "(define (domain (d)))", "1:17: expected a domain name (a symbol)"),
    ("domain", "(define (domain d)\n  :requirements)",
     "2:3: expected a domain section (a list), found ':requirements'"),
    ("domain", "(define (domain d)\n  ())", "2:3: empty domain section"),
    ("domain", "(define (domain d) ((:types)))", "1:21: expected a section keyword (a symbol)"),
    ("domain", "(define (domain d) (:requirements :strips (:typing)))",
     "1:43: expected a requirement (a symbol)"),
    ("domain", "(define (domain d)\n  (:types a -))", "2:13: expected a type name after '-'"),
    ("domain", "(define (domain d) (:types a - (b)))", "1:32: expected a type name (a symbol)"),
    ("domain", "(define (domain d) (:constants (c)))", "1:32: expected a name (a symbol)"),
    ("domain", "(define (domain d) (:predicates P))",
     "1:33: expected a predicate declaration (a list), found 'p'"),
    ("domain", "(define (domain d) (:predicates (q) ()))", "1:37: empty predicate declaration"),
    ("domain", "(define (domain d) (:predicates ((p))))",
     "1:34: expected a predicate name (a symbol)"),
    ("domain", "(define (domain d)\n  (:widgets))", "2:4: unknown domain section ':widgets'"),
    # _parse_action
    ("domain", "(define (domain d)\n  (:action))", "2:3: ':action' needs a name"),
    ("domain", "(define (domain d) (:action (a)))", "1:29: expected an action name (a symbol)"),
    ("domain", "(define (domain d) (:action a (:parameters)))",
     "1:31: expected an action keyword (a symbol)"),
    ("domain", "(define (domain d) (:action a\n  :parameters))",
     "2:3: ':parameters' needs a value"),
    ("domain", "(define (domain d) (:action a :parameters x))",
     "1:43: expected a parameter list (a list), found 'x'"),
    ("domain", "(define (domain d) (:action a :parameters (?x - (t))))",
     "1:49: expected a type name (a symbol)"),
    ("domain", "(define (domain d) (:action a\n  :parameters (?x y)))",
     "2:15: parameter 'y' must start with '?'"),
    ("domain", ACTION.format(":precondition p"), "3:19: expected a condition (a list), found 'p'"),
    ("domain", ACTION.format(":precondition (and (q) p)"),
     "3:28: expected a condition (a list), found 'p'"),
    ("domain", ACTION.format(":precondition (not (q) (p ?x))"),
     "3:19: 'not' takes exactly one argument"),
    ("domain", ACTION.format(":precondition (not q)"),
     "3:24: expected an atom (a list), found 'q'"),
    ("domain", ACTION.format(":precondition (not ())"), "3:24: empty atom"),
    ("domain", ACTION.format(":precondition (and ((p) ?x))"),
     "3:25: expected a predicate name (a symbol)"),
    ("domain", ACTION.format(":precondition (p (?x))"), "3:22: expected a term (a symbol)"),
    ("domain", ACTION.format(":effect p"), "3:13: expected an effect (a list), found 'p'"),
    ("domain", ACTION.format(":effect (and (q)\n      (not (p ?x) (q)))"),
     "4:7: 'not' takes exactly one argument"),
    ("domain", ACTION.format(":effect (and (q) q)"),
     "3:22: expected an effect (a list), found 'q'"),
    ("domain", ACTION.format(":effect (not q)"), "3:18: expected an atom (a list), found 'q'"),
    ("domain", ACTION.format(":effect (not ())"), "3:18: empty atom"),
    ("domain", ACTION.format(":effect (and ((p)))"), "3:19: expected a predicate name (a symbol)"),
    # parse_problem
    ("problem", "(define)", "1:1: expected '(define (problem ...) ...)'"),
    ("problem", "(define (domain d))", "1:9: expected '(problem NAME)'"),
    ("problem", "(define\n  problem)", "2:3: expected '(problem NAME)' (a list), found 'problem'"),
    ("problem", "(define (problem p q))", "1:9: expected '(problem NAME)'"),
    ("problem", "(define (problem (p)))", "1:18: expected a problem name (a symbol)"),
    ("problem", "(define (problem p)\n  :domain)",
     "2:3: expected a problem section (a list), found ':domain'"),
    ("problem", "(define (problem p) ())", "1:21: empty problem section"),
    ("problem", "(define (problem p) ((:domain)))", "1:22: expected a section keyword (a symbol)"),
    ("problem", "(define (problem p)\n  (:domain))", "2:3: ':domain' takes one name"),
    ("problem", "(define (problem p) (:domain (d)))", "1:30: expected a domain name (a symbol)"),
    ("problem", PROBLEM.format("(:objects c -)"), "3:15: expected a type name after '-'"),
    ("problem", PROBLEM.format("(:init (q) p)"), "3:14: expected an atom (a list), found 'p'"),
    ("problem", PROBLEM.format("(:init (p ?x))"), "3:10: atom (p ?x) in init is not ground"),
    ("problem", PROBLEM.format("(:goal)"), "3:3: ':goal' takes one formula"),
    ("problem", PROBLEM.format("(:goal (and (q)\n    (p ?x)))"),
     "4:5: atom (p ?x) in goal is not ground"),
    ("problem", PROBLEM.format("(:goal (not (p ?x)))"), "3:15: atom (p ?x) in goal is not ground"),
    ("problem", PROBLEM.format("(:goal (not (p a) (p b)))"),
     "3:10: 'not' takes exactly one argument"),
    ("problem", PROBLEM.format("(:goal (and (q) (not)))"),
     "3:19: 'not' takes exactly one argument"),
    ("problem", PROBLEM.format("(:Facts)"), "3:4: unknown problem section ':facts'"),
]


@pytest.mark.parametrize("kind,text,message", SYNTAX_ERRORS)
def test_syntax_error_message(kind, text, message):
    with pytest.raises(PddlSyntaxError) as err:
        if kind == "domain":
            parse_domain(text)
        else:
            parse_problem(text, parse_domain(SMALL_DOMAIN))
    assert str(err.value) == message


# Text near the PDDL grammar: its words, and characters at the edges of the
# token rules, with ";" and "\n" twice to draw them more often.  \f, \v,
# \x85 and \xa0 are symbol text, not blanks; "İ" lowercases to two
# characters and the Kelvin sign to "k".
WORDS = ("define", "Domain", "problem", ":domain", ":requirements", ":types", ":constants",
         ":predicates", ":action", ":parameters", ":precondition", ":effect", ":objects",
         ":init", ":goal", "and", "not", "or", "d", "P", "q", "?x", "a", "-", "object")
CHARS = "();; \t\r\n\n\f\v\x85\xa0İ\u212aaAxX?-:"
TEXTS = st.lists(st.sampled_from(WORDS + tuple(CHARS)), max_size=40).map("".join)
# A valid domain or problem with a few words or characters put in or taken out.
VALID = (SMALL_DOMAIN, ACTION.format(":precondition (and (p ?x) (not (q))) :effect (q)"),
         "(define (problem p) (:domain d) (:objects a - object b)\n"
         "  (:init (p a) (q)) (:goal (and (p b) (not (q)))))")


@st.composite
def near_valid(draw):
    text = draw(st.sampled_from(VALID))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:i] + draw(st.sampled_from(("",) + WORDS + tuple(CHARS))) + text[i + cut:]
    return text


def _plain(tree):
    """Whether `tree` holds only plain lists and strings."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if type(node) is list:
            todo.extend(node)
        elif type(node) is not str:
            return False
    return True


def _outcome(parse, *args):
    try:
        return parse(*args)
    except PddlError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(st.one_of(TEXTS, near_valid()))
def test_both_readers_give_the_same_tree(text):
    try:
        expected = sexpr.read(text)
    except PddlSyntaxError as exc:
        with pytest.raises(PddlSyntaxError) as err:
            sexpr.read_plain(text)
        assert str(err.value) == str(exc)
    else:
        tree = sexpr.read_plain(text)
        assert tree == expected and _plain(tree)


@settings(max_examples=300)
@given(st.one_of(TEXTS, near_valid()))
def test_parsing_matches_parsing_the_positioned_tree(text):
    domain = parse_domain(SMALL_DOMAIN)
    try:
        tree = sexpr.read(text)
    except PddlSyntaxError as exc:
        expected = (PddlSyntaxError, str(exc))
        assert _outcome(parse_domain, text) == expected
        assert _outcome(parse_problem, text, domain) == expected
    else:
        assert _outcome(parse_domain, text) == _outcome(parser._parse_domain, tree)
        assert (_outcome(parse_problem, text, domain)
                == _outcome(parser._parse_problem, tree, domain))


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
