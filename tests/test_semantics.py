"""Grounding, state transition, and plan validation semantics."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb import bundles, semantics
from plankb.bench import compile_task
from plankb.pddl.ast import (
    ActionSchema,
    Atom,
    DomainDef,
    Literal,
    PredicateSchema,
    ProblemDef,
    TypeName,
)
from plankb.pddl.parser import parse_domain, parse_problem
from plankb.semantics import (
    DomainProblemMismatch,
    NotApplicable,
    Plan,
    PlanParseError,
    RepeatedParameter,
    applicable,
    apply_action,
    ground,
    parse_plan_text,
    resolve_plan,
    validate_plan,
)

from oracles import (
    assert_same_grounding,
    format_plan,
    goal_satisfied,
    reachable_states,
    reference_ground,
)


def oracle_ground(d, p):
    """Brute-force grounding oracle: substitute every object tuple and keep
    the type-consistent, equality-satisfying ones."""
    pool = list(d.constants) + list(p.objects)
    result = []
    for schema in d.actions:
        for combo in itertools.product([o for o, _ in pool], repeat=len(schema.params)):
            ok = True
            for (var, ptype), obj in zip(schema.params, combo):
                otype = dict(pool)[obj]
                if not d.is_subtype(otype, ptype):
                    ok = False
                    break
            if not ok:
                continue
            binding = dict(zip(schema.variables, combo))
            for lit in schema.precondition:
                if lit.atom.predicate == "=":
                    a = lit.atom.substitute(binding)
                    if (a.args[0] == a.args[1]) == lit.negated:
                        ok = False
                        break
            if ok:
                result.append((schema.name, combo))
    return sorted(result)


@pytest.mark.parametrize("domain_name,problem_idx", [
    ("blocksworld", 0), ("blocksworld", 7), ("gripper", 0), ("driverlog", 0),
])
def test_ground_matches_oracle(domain_name, problem_idx):
    d = bundles.load_domain(domain_name)
    p = bundles.load_problems(domain_name)[problem_idx]
    actual = sorted((a.schema, a.objects) for a in ground(d, p))
    assert actual == oracle_ground(d, p)


def test_bw_p01_ground_count():
    # 3 blocks: pick-up 3, put-down 3, stack 9, unstack 9.
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    actions = ground(d, p)
    assert len(actions) == 24
    by_schema = {}
    for a in actions:
        by_schema[a.schema] = by_schema.get(a.schema, 0) + 1
    assert by_schema == {"pick-up": 3, "put-down": 3, "stack": 9, "unstack": 9}


def test_ground_is_deterministic():
    d = bundles.load_domain("gripper")
    p = bundles.load_problems("gripper")[0]
    assert [a.name for a in ground(d, p)] == [a.name for a in ground(d, p)]


def test_ground_rejects_foreign_problem():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("gripper")[0]
    with pytest.raises(DomainProblemMismatch):
        ground(d, p)


def test_typed_grounding_respects_types():
    d = bundles.load_domain("gripper")
    p = bundles.load_problems("gripper")[0]
    for a in ground(d, p):
        if a.schema == "move":
            rooms = {o for o, t in p.objects if t == "room"}
            assert set(a.objects) <= rooms


def test_apply_follows_strips_rule():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    state = frozenset(p.init)
    for a in ground(d, p):
        if applicable(state, a):
            nxt = apply_action(state, a)
            assert nxt == (state - a.delete) | a.add


def test_apply_raises_when_not_applicable():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    state = frozenset(p.init)
    blocked = next(a for a in ground(d, p) if not applicable(state, a))
    with pytest.raises(NotApplicable):
        apply_action(state, blocked)


def test_random_walks_stay_consistent():
    """Closure property: every state along random walks keeps exactly one
    block in the hand or a free hand, matching blocksworld physics."""
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[2]
    actions = ground(d, p)
    rng = random.Random(42)
    for _ in range(50):
        state = frozenset(p.init)
        for _ in range(20):
            options = [a for a in actions if applicable(state, a)]
            if not options:
                break
            state = apply_action(state, rng.choice(options))
            holding = [a for a in state if a.predicate == "holding"]
            hand_free = Atom("handempty", ()) in state
            assert hand_free == (len(holding) == 0)
            assert len(holding) <= 1


def test_goal_satisfied_negative_literal():
    p_goal = frozenset({Literal(Atom("p", ("a",)), negated=True)})
    from plankb.pddl.ast import ProblemDef

    prob = ProblemDef("t", "d", (("a", "object"),), frozenset(), p_goal)
    assert goal_satisfied(frozenset(), prob)
    assert not goal_satisfied(frozenset({Atom("p", ("a",))}), prob)


def test_validate_plan_accepts_bundled_corpus():
    for name in bundles.DOMAIN_NAMES:
        d = bundles.load_domain(name)
        problems = {p.name: p for p in bundles.load_problems(name)}
        for path in bundles.plan_paths(name):
            problem_name, _ = path.stem.rsplit(".", 1)
            p = problems[problem_name]
            plan = parse_plan_text(path.read_text(), ground(d, p))
            report = validate_plan(d, p, plan)
            assert report.valid, report.reason


def test_validate_plan_flags_bad_step():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    actions = {a.name: a for a in ground(d, p)}
    bad = Plan((actions["(pick-up a)"],))  # a is under c in bw-p01
    report = validate_plan(d, p, bad)
    assert not report.valid
    assert report.failed_step == 0


def test_validate_plan_flags_unmet_goal():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    report = validate_plan(d, p, Plan(()))
    assert not report.valid
    assert report.failed_step is None


def test_plan_text_roundtrip():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    actions = ground(d, p)
    text = bundles.plan_paths("blocksworld")[0].read_text()
    plan = parse_plan_text(text, actions)
    assert parse_plan_text(format_plan(plan), actions) == plan


def test_plan_text_unknown_action():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    with pytest.raises(PlanParseError):
        parse_plan_text("(fly a b)", ground(d, p))


def test_plan_cost_is_step_count():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    text = bundles.plan_paths("blocksworld")[0].read_text()
    plan = parse_plan_text(text, ground(d, p))
    assert plan.cost == len(plan.steps) == 6


def test_reachable_states_three_blocks():
    """3-block blocksworld has 22 configurations plus holding states.

    Tower layouts: 13 (1 three-tower ordering x 6, 3 two-plus-one x 6 / ...)
    counted exactly by the oracle below; the enumeration must agree with a
    direct closed-form count of 22 hand-free states plus 9 holding states
    for n = 3 blocks.
    """
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    states = reachable_states(frozenset(p.init), ground(d, p))
    hand_free = [s for s in states if Atom("handempty", ()) in s]
    holding = [s for s in states if Atom("handempty", ()) not in s]
    assert len(hand_free) == 13
    assert len(holding) == 9
    assert len(states) == 22


# --- the template grounder against the substitution grounder ---------------


BUNDLED_PROBLEMS = [
    (name, i)
    for name in bundles.DOMAIN_NAMES
    for i in range(len(bundles.load_problems(name)))
]


@pytest.mark.parametrize("domain_name,problem_idx", BUNDLED_PROBLEMS)
def test_ground_equals_reference_on_bundled_problems(domain_name, problem_idx):
    d = bundles.load_domain(domain_name)
    p = bundles.load_problems(domain_name)[problem_idx]
    assert_same_grounding(ground(d, p), reference_ground(d, p))


HAND_DOMAIN = """
(define (domain hand)
  (:requirements :strips :typing :negative-preconditions :equality)
  (:types vehicle - object car - vehicle sports - car place)
  (:constants home - place red - sports)
  (:predicates (at ?v - vehicle ?p - place) (link ?a ?b - place)
               (same ?a ?b - place) (painted ?c - car) (ready))
  (:action drive
    :parameters (?v - vehicle ?from ?to - place)
    :precondition (and (at ?v ?from) (link ?from ?to) (not (= ?from ?to)) (ready))
    :effect (and (at ?v ?to) (not (at ?v ?from))))
  (:action stay
    :parameters (?a ?b - place)
    :precondition (and (= ?a ?b) (same ?a ?a))
    :effect (and (same ?b ?a) (not (ready))))
  (:action go-home
    :parameters (?c - car ?p - place)
    :precondition (and (at ?c ?p) (not (at red home)))
    :effect (and (at ?c home) (not (at ?c ?p)) (ready)))
  (:action reset
    :parameters ()
    :precondition (not (ready))
    :effect (ready))
  (:action paint
    :parameters (?c - sports)
    :precondition (painted red)
    :effect (painted ?c))
  (:action twice
    :parameters (?p ?q - place)
    :precondition (and (= ?p ?q) (link ?p ?q))
    :effect (same ?p ?q)))
"""

HAND_PROBLEM = """
(define (problem hand-1) (:domain hand)
  (:objects v1 - vehicle c1 - car s1 - sports a b - place)
  (:init (at c1 a) (link a b) (link b home) (painted red) (ready))
  (:goal (at c1 home)))
"""


@pytest.fixture(scope="module")
def hand_task():
    d = parse_domain(HAND_DOMAIN)
    return d, parse_problem(HAND_PROBLEM, d)


def test_ground_equals_reference_on_hand_built_domain(hand_task):
    """Constants in schemas, = and not =, a repeated variable in an atom,
    zero-arity predicates, a subtype chain, and an add that shadows a delete
    only after substitution (go-home with ?p = home)."""
    d, p = hand_task
    actions = ground(d, p)
    assert_same_grounding(actions, reference_ground(d, p))
    by_name = {a.name: a for a in actions}
    assert "(drive v1 a a)" not in by_name and "(drive v1 a b)" in by_name
    assert "(stay a a)" in by_name and "(stay a b)" not in by_name
    shadowed = by_name["(go-home red home)"]
    assert Atom("at", ("red", "home")) in shadowed.add and not shadowed.delete
    assert {a.objects for a in actions if a.schema == "paint"} == {("red",), ("s1",)}
    assert by_name["(reset)"].pre_neg == {Atom("ready", ())}


def test_repeated_parameter_is_a_domain_error(hand_task):
    """A schema that declares ?p twice grounded to duplicate actions."""
    d, p = hand_task
    loop = ActionSchema.make("loop", (("?p", "place"), ("?p", "place")), (),
                             (Atom("same", ("?p", "?p")),), ())
    d = DomainDef(d.name, d.requirements, d.types, d.constants, d.predicates,
                  d.actions + (loop,))
    message = r"action 'loop' declares parameter '\?p' twice"
    for _ in range(2):  # every call, not only the first
        with pytest.raises(RepeatedParameter, match=message):
            ground(d, p)
        with pytest.raises(RepeatedParameter, match=message):
            resolve_plan(d, p, "(reset)")


def test_ground_builds_no_atom_until_a_set_is_read(monkeypatch):
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    built = []

    def counting_atom(predicate, args):
        built.append((predicate, args))
        return Atom(predicate, args)

    monkeypatch.setattr(semantics, "Atom", counting_atom)
    actions = ground(d, p)
    text = bundles.plan_paths("blocksworld")[0].read_text()
    plan = parse_plan_text(text, actions)
    assert [(a.name, a.binding, a.cost) for a in plan.steps] and len(actions) == 24
    assert built == []
    stack = next(a for a in actions if a.name == "(stack c b)")
    stack.pre_pos
    # Only this action's atoms, one per literal: holding c and clear b as
    # preconditions and again as deletes, then on c b, clear c and handempty.
    assert len(built) == 7
    assert set(built) == {
        (x.predicate, x.args) for x in stack.pre_pos | stack.pre_neg | stack.add | stack.delete}


def test_each_schema_object_compiles_once(monkeypatch):
    compiled = []
    compile_schema = semantics._compile
    monkeypatch.setattr(semantics, "_compile",
                        lambda schema: compiled.append(schema) or compile_schema(schema))
    d = bundles.load_domain("blocksworld")
    text = bundles.plan_paths("blocksworld")[0].read_text()
    for p in bundles.load_problems("blocksworld"):
        ground(d, p)
        resolve_plan(d, p, text if p.name == "bw-p01" else "")
        compile_task(d, p)
    assert [id(s) for s in compiled] == [id(s) for s in d.actions]
    # An equal schema object gets its own template: its literal sets may
    # iterate in another order, and the template keeps that order.
    twin = DomainDef(d.name, d.requirements, d.types, d.constants, d.predicates, tuple(
        ActionSchema(a.name, a.params, a.precondition, a.add, a.delete) for a in d.actions))
    assert twin == d and all(x == y and x is not y for x, y in zip(twin.actions, d.actions))
    ground(twin, bundles.load_problems("blocksworld")[0])
    assert [id(s) for s in compiled[len(d.actions):]] == [id(s) for s in twin.actions]


_TYPES = ("object", "t1", "t2", "t3")  # t1 - object, t2 - t1, t3 - object
_NAMES = ("o1", "o2", "o3", "c1")


@st.composite
def small_tasks(draw):
    """A small typed STRIPS domain and problem with constants, equality and
    negative preconditions."""
    types = (TypeName("t1"), TypeName("t2", "t1"), TypeName("t3"))
    predicates = tuple(
        PredicateSchema("p{}".format(i), tuple(
            ("?a{}".format(j), "object") for j in range(draw(st.integers(0, 2)))
        ))
        for i in range(3)
    )
    constants = (("c1", draw(st.sampled_from(_TYPES))),)
    actions = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 3))
        params = tuple(
            ("?x{}".format(i), draw(st.sampled_from(_TYPES))) for i in range(n)
        )
        terms = st.sampled_from([v for v, _ in params] + ["c1"])

        def atom(pred):
            return Atom(pred.name, tuple(draw(terms) for _ in pred.params))

        atoms = st.sampled_from(predicates).map(atom)
        pre = [Literal(draw(atoms), draw(st.booleans())) for _ in range(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            pre.append(Literal(Atom("=", (draw(terms), draw(terms))), draw(st.booleans())))
        add = [draw(atoms) for _ in range(draw(st.integers(0, 3)))]
        delete = [draw(atoms) for _ in range(draw(st.integers(0, 3)))]
        actions.append(ActionSchema.make("a{}".format(k), params, pre, add, delete))
    d = DomainDef("rand", frozenset({":strips", ":typing"}), types, constants,
                  predicates, tuple(actions))
    objects = tuple(
        (name, draw(st.sampled_from(_TYPES))) for name in _NAMES[:draw(st.integers(1, 3))]
    )
    return d, ProblemDef("rand-1", "rand", objects, frozenset(), frozenset())


@settings(max_examples=150, deadline=None)
@given(small_tasks())
def test_ground_equals_reference_on_random_schemas(task):
    d, p = task
    assert_same_grounding(ground(d, p), reference_ground(d, p))


# --- plan resolution without grounding -------------------------------------


def _outcome(resolve):
    try:
        return resolve()
    except (PlanParseError, DomainProblemMismatch) as exc:
        return type(exc), str(exc)


def test_resolve_plan_matches_parse_plan_text_on_bundled_plans():
    count = 0
    for name in bundles.DOMAIN_NAMES:
        d = bundles.load_domain(name)
        problems = {p.name: p for p in bundles.load_problems(name)}
        for path in bundles.plan_paths(name):
            p = problems[path.stem.rsplit(".", 1)[0]]
            text = path.read_text()
            assert resolve_plan(d, p, text) == parse_plan_text(text, ground(d, p))
            count += 1
    assert count == 17


@pytest.mark.parametrize("text", [
    "(DRIVE V1 A B)\n; comment\n\n(go-home c1 b) ; trailing\n(drive v1 a b)",
    "(reset)\n(paint s1)\n(paint red)\n(stay home home)",
    "(fly v1 a b)",             # unknown action
    "(drive v1 a)",             # too few objects
    "(drive v1 a b home)",      # too many objects
    "(paint c1)",               # c1 is a car, paint needs a sports car
    "(drive a v1 b)",           # objects in the wrong slots
    "(drive v9 a b)",           # unknown object
    "(drive v1 a a)",           # (not (= ?from ?to)) fails
    "(stay a b)",               # (= ?a ?b) fails
    "(twice a b)",              # (= ?p ?q) fails
    "(twice b b)",
    "(reset x)",
    "drive v1 a b",
    "()",
    "(drive v1 a b)\n(fly)",
])
def test_resolve_plan_matches_parse_plan_text_on_hostile_lines(hand_task, text):
    d, p = hand_task
    expected = _outcome(lambda: parse_plan_text(text, ground(d, p)))
    assert _outcome(lambda: resolve_plan(d, p, text)) == expected


def test_resolve_plan_rejects_foreign_problem():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("gripper")[0]
    with pytest.raises(DomainProblemMismatch):
        resolve_plan(d, p, "(move rooma roomb)")
