"""Macro mining, chaining checks, composition, and domain injection."""

import itertools

import pytest

from plankb import bundles
from plankb.kg.schema import RDF_TYPE, SCHEMA
from plankb.kg.store import Graph, Variable
from plankb.macros import (
    ChainingViolation,
    LiftedPair,
    NoPlansForDomain,
    UnknownSchema,
    augment_domain,
    chain_filter,
    compose,
    dump_report,
    lift_pair,
    load_report,
    mine_macros,
    mine_pairs,
    report_lines,
    store_macros,
)
from plankb.mapper import action_iri, domain_iri
from plankb.pddl.ast import Atom, Literal
from plankb.semantics import (
    applicable,
    apply_action,
    ground,
    instantiate,
    reachable_states,
)


# --- lifting ----------------------------------------------------------------


def test_lift_pair_canonical_first_occurrence():
    p = lift_pair("unstack", ("c", "a"), "put-down", ("c",))
    assert p.pattern == (0, 1, 0)
    assert p.first_arity == 2
    # Different objects, same shape: identical lifted pair.
    assert lift_pair("unstack", ("x", "y"), "put-down", ("x",)) == p


def test_lift_pair_unifier():
    p = lift_pair("pick-up", ("b",), "stack", ("b", "c"))
    assert p.pattern == (0, 0, 1)
    assert p.unifier == {0: 0}  # stack's first slot bound to pick-up's slot 0


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
    with pytest.raises(ChainingViolation):
        compose(d, LiftedPair("pick-up", "pick-up", (0, 1), 1))


def test_compose_unifies_types_to_more_specific():
    d = bundles.load_domain("driverlog")
    m = compose(
        d, LiftedPair("board-truck", "drive-truck", (0, 1, 2, 1, 2, 3, 0), 3)
    )
    types = dict(m.params)
    assert set(types.values()) == {"driver", "truck", "location"}
    assert len(m.params) == 4


# --- ground equivalence sweeps ---------------------------------------------


def grounded_pair(d, m, objects, binding):
    """Ground the macro's two constituent actions under a macro binding."""
    a1 = d.action_map()[m.first]
    a2 = d.action_map()[m.second]
    sub = dict(binding)
    b1 = {v: sub[mv] for v, mv in zip(a1.variables, m.first_args)}
    b2 = {v: sub[mv] for v, mv in zip(a2.variables, m.second_args)}
    return instantiate(a1, b1), instantiate(a2, b2)


def consistent(g1, g2):
    """Ground-level chaining: g1 feeds g2 and destroys nothing it needs."""
    if not (g1.add & g2.pre_pos):
        return False
    if (g2.pre_pos - g1.add) & g1.delete:
        return False
    if g2.pre_neg & g1.add:
        return False
    return True


def sweep_equivalence(d, p, macros):
    """apply(s, macro) must equal applying the two actions in sequence, for
    every reachable state and every consistent grounding."""
    states = reachable_states(frozenset(p.init), ground(d, p))
    pool = list(d.constants) + list(p.objects)
    checked = 0
    for m in macros:
        schema = m.to_action_schema()
        names = [
            sorted(o for o, t in pool if d.is_subtype(t, ptype))
            for _, ptype in schema.params
        ]
        for combo in itertools.product(*names):
            binding = dict(zip(schema.variables, combo))
            gm = instantiate(schema, binding)
            g1, g2 = grounded_pair(d, m, combo, binding)
            if gm is None or g1 is None or g2 is None:
                continue
            if not consistent(g1, g2):
                continue
            for s in states:
                if applicable(s, gm):
                    assert applicable(s, g1)
                    mid = apply_action(s, g1)
                    assert applicable(mid, g2)
                    assert apply_action(mid, g2) == apply_action(s, gm)
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
