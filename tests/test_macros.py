"""Macro mining, chaining checks, composition, and domain injection."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb import bundles
from plankb.kg.schema import (
    RDF_TYPE, SCHEMA, XSD_NON_NEGATIVE_INTEGER, plan_iri, string_literal,
)
from plankb.kg.store import Graph, TypedLiteral, Variable
from plankb.macros import (
    LiftedPair,
    NoPlansForDomain,
    TypeConflict,
    UnknownSchema,
    augment_domain,
    chain_filter,
    compose,
    dump_report,
    lift_pair,
    load_report,
    mine_macros,
    mine_pairs,
    plan_step_sequences,
    report_lines,
    store_macros,
)
from plankb.mapper import MappingError, action_iri, domain_iri
from plankb.pddl.ast import Atom, Literal
from plankb.pddl.parser import parse_domain
from plankb.semantics import applicable, ground

from oracles import apply_action, instantiate, reachable_states, reference_plan_steps
from test_search import strips_tasks


# --- lifting ----------------------------------------------------------------


def test_lift_pair_canonical_first_occurrence():
    p = lift_pair("unstack", ("c", "a"), "put-down", ("c",))
    assert p.pattern == (0, 1, 0)
    assert p.first_arity == 2
    # Different objects, same shape: identical lifted pair.
    assert lift_pair("unstack", ("x", "y"), "put-down", ("x",)) == p


def test_lift_pair_shares_ids_across_the_pair():
    p = lift_pair("pick-up", ("b",), "stack", ("b", "c"))
    assert p.pattern == (0, 0, 1)  # stack's first slot holds pick-up's object


# --- mining against the sliding-window oracle -------------------------------


def oracle_pair_counts(domain_name):
    """Count adjacent lifted pairs straight from the raw plan files."""
    counts = {}
    for path in bundles.plan_paths(domain_name):
        steps = []
        for line in path.read_text().splitlines():
            line = line.split(";", 1)[0].strip()
            if line:
                parts = line[1:-1].split()
                steps.append((parts[0], tuple(parts[1:])))
        for (n1, a1), (n2, a2) in zip(steps, steps[1:]):
            key = lift_pair(n1, a1, n2, a2)
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize(
    "fixture", ["bw_graph", "gripper_graph", "driverlog_graph"]
)
def test_mine_pairs_matches_oracle(fixture, request):
    name = {"bw_graph": "blocksworld", "gripper_graph": "gripper",
            "driverlog_graph": "driverlog"}[fixture]
    g = request.getfixturevalue(fixture)
    mined = mine_pairs(g, domain_iri(name))
    oracle = oracle_pair_counts(name)
    assert {p.with_frequency(1): p.frequency for p in mined} == {
        k: v for k, v in oracle.items()
    }


def test_mine_pairs_ranked_by_frequency(bw_graph):
    mined = mine_pairs(bw_graph, domain_iri("blocksworld"))
    freqs = [p.frequency for p in mined]
    assert freqs == sorted(freqs, reverse=True)
    top = mined[0]
    assert (top.first, top.second) == ("pick-up", "stack")


def test_mine_pairs_requires_plans():
    with pytest.raises(NoPlansForDomain):
        mine_pairs(Graph(), domain_iri("blocksworld"))


# --- the step walk against the five-pattern query ---------------------------

PROP = SCHEMA.prop
D, OTHER = domain_iri("d"), domain_iri("other")


def index(lexical):
    return TypedLiteral(lexical, XSD_NON_NEGATIVE_INTEGER)


# Each passes `str.isdigit` or `int`, but `integer_literal` writes none of them.
NOT_ASCII_DIGITS = ["\u00b2", " 7", "+7", "1_0", "\u0663"]
BAD_INDEXES = [index(x) for x in NOT_ASCII_DIGITS + ["x", "-1", ""]] + [
    string_literal("x"), plan_iri("x")]
BAD_NAMES = [string_literal(x) for x in ["", "()", " ( ) "]] + [plan_iri("x")]


def one_step_graph(step_index, name=string_literal("(a x)")):
    plan, step = plan_iri("plan"), plan_iri("step")
    return Graph([
        (D, PROP("hasProblem"), plan_iri("p")),
        (plan_iri("p"), PROP("hasPlan"), plan),
        (plan, PROP("hasActionStep"), step),
        (step, PROP("hasStepIndex"), step_index),
        (step, PROP("hasActionName"), name),
    ])


@pytest.mark.parametrize("lexical", NOT_ASCII_DIGITS)
def test_step_index_of_ascii_digits_only(lexical):
    g = one_step_graph(index(lexical))
    with pytest.raises(MappingError) as exc:
        plan_step_sequences(g, D)
    assert str(exc.value) == "step {}: hasStepIndex {} is not an integer".format(
        plan_iri("step"), index(lexical))


def test_step_index_of_ascii_digits_reads():
    for lexical in ("0", "12", "007"):
        assert plan_step_sequences(one_step_graph(index(lexical)), D) == {
            plan_iri("plan"): [("a", ("x",))]}


@st.composite
def step_graphs(draw):
    """The triples of plans under two domains: a problem may hang under
    either domain or both, a plan under one problem or several, and a step
    under several plans, with zero, one or two of each of its indexes and
    names; at most one value is bad.  Small pools make values repeat."""
    triples = []
    problems = [plan_iri("problem-{}".format(i)) for i in range(draw(st.integers(1, 3)))]
    for problem in problems:
        for domain in draw(st.lists(st.sampled_from([D, OTHER]), min_size=1, unique=True)):
            triples.append((domain, PROP("hasProblem"), problem))
    steps = [plan_iri("step-{}".format(i)) for i in range(5)]
    for i in range(draw(st.integers(1, 4))):
        plan = plan_iri("plan-{}".format(i))
        for problem in draw(st.lists(st.sampled_from(problems), min_size=1, unique=True)):
            triples.append((problem, PROP("hasPlan"), plan))
        for step in draw(st.lists(st.sampled_from(steps), max_size=4, unique=True)):
            triples.append((plan, PROP("hasActionStep"), step))
    for step in steps:
        for lexical in draw(st.lists(st.sampled_from("01239"), max_size=2, unique=True)):
            triples.append((step, PROP("hasStepIndex"), index(lexical)))
        names = ["(a x)", "(a y)", "(b x y)", " b ", "(a x"]
        for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
            triples.append((step, PROP("hasActionName"), string_literal(name)))
    bad = draw(st.none() | st.tuples(st.sampled_from(steps), st.sampled_from(
        [("hasStepIndex", v) for v in BAD_INDEXES] + [("hasActionName", v) for v in BAD_NAMES])))
    if bad:
        step, (name, value) = bad
        triples.append((step, PROP(name), value))
    return Graph(draw(st.permutations(triples)))


def outcome(read, g):
    try:
        return read(g, D)
    except MappingError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(step_graphs())
def test_step_walk_matches_the_query_oracle(g):
    expected = outcome(reference_plan_steps, g)
    assert outcome(plan_step_sequences, g) == expected
    if isinstance(expected, str) or not expected:
        return
    # mine_pairs ranks by a total order, so its list does not depend on the
    # order in which the plans are read.
    counts = Counter(lift_pair(n1, a1, n2, a2) for steps in expected.values()
                     for (n1, a1), (n2, a2) in zip(steps, steps[1:]))
    assert mine_pairs(g, D) == sorted(
        (pair.with_frequency(n) for pair, n in counts.items()),
        key=lambda p: (-p.frequency, p.first, p.second, p.pattern, p.first_arity))


# --- chaining filter on the canonical pair tables ---------------------------

BW_CHAINING = [
    ("unstack", "put-down", (0, 1, 0)),
    ("pick-up", "stack", (0, 0, 1)),
    ("put-down", "unstack", (0, 1, 2)),
    ("stack", "pick-up", (0, 1, 2)),
    ("unstack", "stack", (0, 1, 0, 2)),
    ("put-down", "pick-up", (0, 1)),
    ("stack", "unstack", (0, 1, 0, 1)),
]

DL_CHAINING = [
    ("drive-truck", "unload-truck", (0, 1, 2, 3, 4, 0, 2)),
    ("drive-truck", "load-truck", (0, 1, 2, 3, 4, 0, 2)),
    ("board-truck", "drive-truck", (0, 1, 2, 1, 2, 3, 0)),
    ("walk", "board-truck", (0, 1, 2, 0, 3, 2)),
]

GR_CHAINING = [
    ("pick", "move", (0, 1, 2, 1, 3)),
    ("move", "drop", (0, 1, 2, 1, 3)),
]


@pytest.mark.parametrize("first,second,pattern", BW_CHAINING)
def test_blocksworld_pairs_chain(first, second, pattern):
    d = bundles.load_domain("blocksworld")
    assert chain_filter(d, LiftedPair(first, second, pattern, len_first(d, first)))


@pytest.mark.parametrize("first,second,pattern", DL_CHAINING)
def test_driverlog_pairs_chain(first, second, pattern):
    d = bundles.load_domain("driverlog")
    assert chain_filter(d, LiftedPair(first, second, pattern, len_first(d, first)))


@pytest.mark.parametrize("first,second,pattern", GR_CHAINING)
def test_gripper_pairs_chain(first, second, pattern):
    d = bundles.load_domain("gripper")
    assert chain_filter(d, LiftedPair(first, second, pattern, len_first(d, first)))


def len_first(d, name):
    return len(d.action_map()[name].params)


NON_CHAINING = [
    # pick-up establishes nothing pick-up needs.
    ("blocksworld", "pick-up", "pick-up", (0, 1)),
    # stack's additions feed nothing of a second independent stack.
    ("blocksworld", "stack", "stack", (0, 1, 2, 3)),
    # moving away destroys the room fact pick needs.
    ("gripper", "move", "pick", (0, 1, 2, 0, 3)),
    # picking twice with the same gripper: free(g) was just deleted.
    ("gripper", "pick", "pick", (0, 1, 2, 3, 1, 2)),
]


@pytest.mark.parametrize("domain_name,first,second,pattern", NON_CHAINING)
def test_non_chaining_pairs_rejected(domain_name, first, second, pattern):
    d = bundles.load_domain(domain_name)
    assert not chain_filter(d, LiftedPair(first, second, pattern, len_first(d, first)))


def test_unknown_schema_rejected():
    d = bundles.load_domain("blocksworld")
    with pytest.raises(UnknownSchema):
        chain_filter(d, LiftedPair("fly", "stack", (0, 0, 1), 1))
    with pytest.raises(UnknownSchema):
        chain_filter(d, LiftedPair("pick-up", "stack", (0, 0), 1))


# --- composition ------------------------------------------------------------


def test_compose_pickup_stack_algebra():
    d = bundles.load_domain("blocksworld")
    m = compose(d, LiftedPair("pick-up", "stack", (0, 0, 1), 1))
    x, y = m.params[0][0], m.params[1][0]
    assert m.precondition == frozenset({
        Literal(Atom("clear", (x,))),
        Literal(Atom("ontable", (x,))),
        Literal(Atom("handempty", ())),
        Literal(Atom("clear", (y,))),
        Literal(Atom("=", (x, y)), negated=True),
    })
    assert m.add == frozenset({
        Atom("on", (x, y)), Atom("clear", (x,)), Atom("handempty", ()),
    })
    assert m.delete == frozenset({
        Atom("ontable", (x,)), Atom("holding", (x,)), Atom("clear", (y,)),
    })
    assert m.name == "pick-up_stack"
    assert m.first_args == (x,)
    assert m.second_args == (x, y)


def test_compose_rejects_non_chaining():
    d = bundles.load_domain("blocksworld")
    pair = LiftedPair("pick-up", "pick-up", (0, 1), 1)
    assert compose(d, pair) is None and not chain_filter(d, pair)


def test_compose_unifies_types_to_more_specific():
    d = bundles.load_domain("driverlog")
    m = compose(
        d, LiftedPair("board-truck", "drive-truck", (0, 1, 2, 1, 2, 3, 0), 3)
    )
    types = dict(m.params)
    assert set(types.values()) == {"driver", "truck", "location"}
    assert len(m.params) == 4


# --- ground equivalence sweeps ---------------------------------------------


def grounded_pair(d, m, binding):
    """Ground the macro's two constituent actions under a macro binding."""
    a1 = d.action_map()[m.first]
    a2 = d.action_map()[m.second]
    sub = dict(binding)
    b1 = {v: sub[mv] for v, mv in zip(a1.variables, m.first_args)}
    b2 = {v: sub[mv] for v, mv in zip(a2.variables, m.second_args)}
    return instantiate(a1, b1), instantiate(a2, b2)


def assert_steps_compose(s, gm, g1, g2):
    """In state s, where gm applies, g1 then g2 apply and reach gm's state."""
    assert applicable(s, g1)
    mid = apply_action(s, g1)
    assert applicable(mid, g2)
    assert apply_action(mid, g2) == apply_action(s, gm)


def sweep_equivalence(d, p, macros):
    """Wherever a ground macro applies, for every binding of its parameters
    and every reachable state, its two steps apply in sequence and reach
    the state it reaches."""
    states = reachable_states(frozenset(p.init), ground(d, p))
    pool = list(d.constants) + list(p.objects)
    checked = 0
    for m in macros:
        schema = m.to_action_schema(m.name)
        names = [
            sorted(o for o, t in pool if d.is_subtype(t, ptype))
            for _, ptype in schema.params
        ]
        for combo in itertools.product(*names):
            binding = dict(zip(schema.variables, combo))
            gm = instantiate(schema, binding)
            if gm is None:
                continue
            g1, g2 = grounded_pair(d, m, binding)
            # The macro's equality literals include those of its steps.
            assert g1 is not None and g2 is not None
            for s in states:
                if applicable(s, gm):
                    assert_steps_compose(s, gm, g1, g2)
                    checked += 1
    return checked


def test_blocksworld_macro_equivalence(bw_bundle, bw_graph):
    d, problems, _ = bw_bundle
    macros = mine_macros(bw_graph, d, domain_iri("blocksworld"))
    assert macros
    # bw-p01 has 3 blocks, bw-p04 has 4.
    three = next(p for p in problems if p.name == "bw-p01")
    four = next(p for p in problems if p.name == "bw-p04")
    assert sweep_equivalence(d, three, macros) > 0
    assert sweep_equivalence(d, four, macros) > 0


def test_gripper_macro_equivalence(gripper_bundle, gripper_graph):
    d, problems, _ = gripper_bundle
    macros = mine_macros(gripper_graph, d, domain_iri("gripper"))
    assert macros
    two_ball = next(p for p in problems if p.name == "gr-p01")
    assert sweep_equivalence(d, two_ball, macros) > 0


def patterns(n):
    """Every pattern of n slots: ids in order of first appearance."""
    out = [()]
    for _ in range(n):
        out = [q + (i,) for q in out for i in range(len(set(q)) + 1)]
    return out


@settings(max_examples=200, deadline=None)
@given(strips_tasks())
def test_each_ground_macro_is_the_composition_of_its_steps(task):
    """For every pair of a task's actions under every pattern, on every
    state where a ground action of its macro applies, the two steps apply
    in sequence and reach the state it reaches.  The atoms that neither the
    macro nor its steps name play no part, so the states are the macro's
    positive precondition plus each subset of the other atoms named."""
    d, p = task
    for first, second in itertools.product(d.actions, repeat=2):
        for pattern in patterns(len(first.params) + len(second.params)):
            try:
                m = compose(d, LiftedPair(first.name, second.name, pattern, len(first.params)))
            except TypeConflict:
                continue
            if m is None:
                continue
            augmented = augment_domain(d, [m], 1)
            name = augmented.actions[-1].name
            for gm in ground(augmented, p):
                if gm.schema != name or gm.pre_pos & gm.pre_neg:
                    continue
                g1, g2 = grounded_pair(d, m, gm.binding)
                assert g1 is not None and g2 is not None
                named = set().union(*(getattr(a, f) for a in (gm, g1, g2)
                                      for f in ("pre_pos", "pre_neg", "add", "delete")))
                free = sorted(named - gm.pre_pos - gm.pre_neg)
                for k in range(len(free) + 1):
                    for extra in itertools.combinations(free, k):
                        assert_steps_compose(gm.pre_pos | frozenset(extra), gm, g1, g2)


def test_a_macro_grounds_only_where_its_steps_apply(bw_bundle, bw_graph):
    """The bw-p10 witness: `stack b a` deletes (clear a), so `pick-up a`
    cannot follow it, and no ground stack_pick-up names one block twice."""
    d, problems, _ = bw_bundle
    augmented = augment_domain(d, mine_macros(bw_graph, d, domain_iri("blocksworld")), 2)
    assert [a.name for a in augmented.actions[len(d.actions):]] == [
        "pick-up_stack", "stack_pick-up"]
    assert ":equality" in augmented.requirements
    names = {a.name for a in ground(augmented, next(p for p in problems if p.name == "bw-p10"))}
    assert "(stack_pick-up b a c)" in names
    assert "(stack_pick-up b a a)" not in names


def test_mine_macros_unifies_each_pair_once(bw_graph, monkeypatch):
    from plankb import macros

    unified = []
    unify = macros._unify
    monkeypatch.setattr(macros, "_unify", lambda d, p: unified.append(p) or unify(d, p))
    d = bundles.load_domain("blocksworld")
    mined = mine_macros(bw_graph, d, domain_iri("blocksworld"))
    pairs = mine_pairs(bw_graph, domain_iri("blocksworld"))
    assert unified == pairs
    assert [(m.first, m.second) for m in mined] == [
        (p.first, p.second) for p in pairs if chain_filter(d, p)]


# Blocksworld with typed parameters, where stack takes a ball on a block.
CLASHING_TYPES_DOMAIN = """(define (domain blocksworld)
  (:requirements :strips :typing)
  (:types block ball)
  (:predicates (on ?x ?y) (ontable ?x) (clear ?x) (handempty) (holding ?x))
  (:action pick-up :parameters (?x - block) :precondition (clear ?x) :effect (holding ?x))
  (:action put-down :parameters (?x - block) :precondition (holding ?x) :effect (ontable ?x))
  (:action stack :parameters (?x - ball ?y - block) :precondition (holding ?x)
    :effect (on ?x ?y))
  (:action unstack :parameters (?x - block ?y - block) :precondition (on ?x ?y)
    :effect (holding ?x)))
"""


def test_mine_macros_refuses_pairs_the_domain_cannot_compose(bw_graph):
    # A blocksworld graph read against another domain is an error, not an
    # empty list, as it is for `mine-macros --domain-file`.
    with pytest.raises(UnknownSchema) as err:
        mine_macros(bw_graph, bundles.load_domain("gripper"), domain_iri("blocksworld"))
    assert str(err.value) == "action 'pick-up' not in domain 'gripper'"
    with pytest.raises(TypeConflict) as err:
        mine_macros(bw_graph, parse_domain(CLASHING_TYPES_DOMAIN), domain_iri("blocksworld"))
    assert str(err.value) == "cannot unify types 'block' and 'ball' in pair pick-up*stack"


# --- injection and storage --------------------------------------------------


def test_augment_keeps_originals(bw_graph):
    d = bundles.load_domain("blocksworld")
    macros = mine_macros(bw_graph, d, domain_iri("blocksworld"))
    aug = augment_domain(d, macros, 2)
    assert {a.name for a in d.actions} <= {a.name for a in aug.actions}
    assert len(aug.actions) == len(d.actions) + 2


def test_augment_k_bounds(bw_graph):
    d = bundles.load_domain("blocksworld")
    macros = mine_macros(bw_graph, d, domain_iri("blocksworld"))
    assert len(augment_domain(d, macros, 0).actions) == len(d.actions)
    assert len(augment_domain(d, macros, 999).actions) == len(d.actions) + len(macros)


def test_augment_renames_on_collision(bw_graph):
    d = bundles.load_domain("blocksworld")
    macros = mine_macros(bw_graph, d, domain_iri("blocksworld"))
    once = augment_domain(d, macros[:1], 1)
    twice = augment_domain(once, macros[:1], 1)
    names = [a.name for a in twice.actions]
    assert len(names) == len(set(names))
    assert "pick-up_stack" in names and "pick-up_stack2" in names


def test_augmented_domain_plans_validate(bw_bundle, bw_graph):
    """Original plans stay valid after injection."""
    from plankb.semantics import validate_plan

    d, problems, entries = bw_bundle
    macros = mine_macros(bw_graph, d, domain_iri("blocksworld"))
    aug = augment_domain(d, macros, 2)
    by_name = {p.name: p for p in problems}
    for e in entries:
        assert validate_plan(aug, by_name[e.problem], e.plan).valid


def test_store_macros_requires_mapped_domain():
    from plankb.mapper import UnknownDomain

    d = bundles.load_domain("blocksworld")
    with pytest.raises(UnknownDomain):
        store_macros(Graph(), domain_iri("blocksworld"), [])


def test_store_macros_queryable(bw_graph, bw_bundle):
    d, _, _ = bw_bundle
    g = Graph(bw_graph.triples())
    macros = mine_macros(g, d, domain_iri("blocksworld"))
    store_macros(g, domain_iri("blocksworld"), macros)
    t = SCHEMA.prop
    rows = g.query(
        [
            (domain_iri("blocksworld"), t("hasMacro"), Variable("m")),
            (Variable("m"), t("hasFirstAction"), Variable("a")),
        ],
        select=["m", "a"],
    )
    assert len(rows) == len(macros)
    firsts = {r["a"] for r in rows}
    assert action_iri("blocksworld", "pick-up") in firsts


def test_report_lines_format(bw_graph):
    mined = mine_pairs(bw_graph, domain_iri("blocksworld"))
    lines = report_lines(mined)
    assert lines[0] == "pick-up * stack -- {}".format(mined[0].frequency)


@pytest.mark.parametrize("graph,name", [("bw_graph", "blocksworld"),
                                        ("gripper_graph", "gripper"),
                                        ("driverlog_graph", "driverlog")])
def test_report_json_round_trip(graph, name, request):
    pairs = mine_pairs(request.getfixturevalue(graph), domain_iri(name))
    assert pairs
    assert load_report(dump_report(pairs), "report.json") == pairs
