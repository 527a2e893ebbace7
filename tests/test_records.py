"""The package's records and value types are NamedTuples, not dataclasses
(see `test_package.test_no_class_is_a_dataclass`).  Each must print as the
dataclass it replaced did, compare and hash by value as its field tuple,
and refuse attribute assignment and deletion.  `test_value_types.py`
checks what only the value types promise."""

import pytest

from plankb.bench import BenchReport, BenchRow, CompiledTask, SearchConfig, SearchStats
from plankb.kg.axioms import AxiomViolation
from plankb.kg.schema import OntologySchema
from plankb.kg.store import Iri, Triple, TypedLiteral, Variable
from plankb.macros import LiftedPair, MacroSchema
from plankb.mapper import CompetencyQuery, PlanEntry
from plankb.pddl.ast import (
    ActionSchema,
    Atom,
    DomainDef,
    Literal,
    PredicateSchema,
    ProblemDef,
    TypeName,
    WellFormednessIssue,
)
from plankb.select import PlannerRecord, SelectionOutcome
from plankb.semantics import GroundAction, Plan, Template, ValidationReport

EX = "http://example.org/"

# Each set holds at most one element, so the repr does not depend on the
# string hash seed.
CLEAR = Atom("clear", ("a",))
NOOP = GroundAction(Template("noop", (), (), (), (0, 0, 0)), ())
TEMPLATE = Template("noop", ("?x",), ((0, "a", True),), (("clear", (0,)),), (1, 1, 1))
STATS = SearchStats(5, 7, 9, 2, 0.5, "solved")
X = Atom("clear", ("?x",))
PICK = ActionSchema("pick", (("?x", "block"),), frozenset({Literal(X)}),
                    frozenset({Atom("holding", ("?x",))}), frozenset({X}))
PICK_TEXT = (
    "ActionSchema(name='pick', params=(('?x', 'block'),), "
    "precondition=frozenset({Literal(atom=Atom(predicate='clear', args=('?x',)), "
    "negated=False)}), add=frozenset({Atom(predicate='holding', args=('?x',))}), "
    "delete=frozenset({Atom(predicate='clear', args=('?x',))}))"
)

# name -> (record, its repr text when it was a dataclass)
RECORDS = {
    "Atom": (Atom("on", ("a", "b")), "Atom(predicate='on', args=('a', 'b'))"),
    "ActionSchema": (PICK, PICK_TEXT),
    "DomainDef": (
        DomainDef("d", frozenset({":typing"}), (TypeName("block"),), (("t", "block"),),
                  (PredicateSchema("clear", (("?x", "block"),)),), (PICK,)),
        "DomainDef(name='d', requirements=frozenset({':typing'}), "
        "types=(TypeName(name='block', parent='object'),), constants=(('t', 'block'),), "
        "predicates=(PredicateSchema(name='clear', params=(('?x', 'block'),)),), "
        "actions=(" + PICK_TEXT + ",))",
    ),
    "Iri": (Iri(EX + "s"), "Iri(value='http://example.org/s')"),
    "TypedLiteral": (
        TypedLiteral("3", Iri(EX + "int")),
        "TypedLiteral(lexical='3', datatype=Iri(value='http://example.org/int'))",
    ),
    "Triple": (
        Triple(Iri(EX + "s"), Iri(EX + "p"), TypedLiteral("x", Iri(EX + "str"))),
        "Triple(subject=Iri(value='http://example.org/s'), "
        "predicate=Iri(value='http://example.org/p'), "
        "object=TypedLiteral(lexical='x', datatype=Iri(value='http://example.org/str')))",
    ),
    "TypeName": (TypeName("block"), "TypeName(name='block', parent='object')"),
    "PredicateSchema": (
        PredicateSchema("clear", (("?x", "block"),)),
        "PredicateSchema(name='clear', params=(('?x', 'block'),))",
    ),
    "Literal": (
        Literal(CLEAR, True),
        "Literal(atom=Atom(predicate='clear', args=('a',)), negated=True)",
    ),
    "ProblemDef": (
        ProblemDef("p01", "bw", (("a", "block"),), frozenset({CLEAR}),
                   frozenset({Literal(CLEAR)})),
        "ProblemDef(name='p01', domain_name='bw', objects=(('a', 'block'),), "
        "init=frozenset({Atom(predicate='clear', args=('a',))}), "
        "goal=frozenset({Literal(atom=Atom(predicate='clear', args=('a',)), negated=False)}))",
    ),
    "WellFormednessIssue": (
        WellFormednessIssue("UnknownType", "action stack", "type 'x' is not declared"),
        "WellFormednessIssue(code='UnknownType', location='action stack', "
        "message=\"type 'x' is not declared\")",
    ),
    "Variable": (Variable("x"), "Variable(name='x')"),
    "OntologySchema": (
        OntologySchema({"Plan": Iri(EX + "Plan")}, {"hasPlan": Iri(EX + "hasPlan")}),
        "OntologySchema(classes={'Plan': Iri(value='http://example.org/Plan')}, "
        "properties={'hasPlan': Iri(value='http://example.org/hasPlan')})",
    ),
    "AxiomViolation": (
        AxiomViolation(1, Iri(EX + "d"), "PlanningDomain must have at least one hasAction"),
        "AxiomViolation(axiom_id=1, subject=Iri(value='http://example.org/d'), "
        "message='PlanningDomain must have at least one hasAction')",
    ),
    "PlannerRecord": (
        PlannerRecord("lama", "bw", 3, 4),
        "PlannerRecord(planner='lama', domain='bw', solved=3, total=4)",
    ),
    "SelectionOutcome": (
        SelectionOutcome(Iri(EX + "lama"), "random", "seed 0"),
        "SelectionOutcome(chosen=Iri(value='http://example.org/lama'), "
        "policy='random', rationale='seed 0')",
    ),
    "Plan": (
        Plan((NOOP,)),
        "Plan(steps=(GroundAction(template=Template(name='noop', variables=(), "
        "equalities=(), atoms=(), ends=(0, 0, 0)), objects=()),))",
    ),
    "ValidationReport": (
        ValidationReport(False, "step 2 (noop): precondition (clear a) fails"),
        "ValidationReport(valid=False, "
        "reason='step 2 (noop): precondition (clear a) fails')",
    ),
    "Template": (
        TEMPLATE,
        "Template(name='noop', variables=('?x',), equalities=((0, 'a', True),), "
        "atoms=(('clear', (0,)),), ends=(1, 1, 1))",
    ),
    "CompetencyQuery": (
        # A lambda's repr holds its address; a class's does not.
        CompetencyQuery("C7", ("domain", "action"), "number of parameters of an action",
                        tuple, ("p",), distinct=True, count=True),
        "CompetencyQuery(id='C7', parameters=('domain', 'action'), "
        "description='number of parameters of an action', patterns=<class 'tuple'>, "
        "select=('p',), distinct=True, count=True)",
    ),
    "PlanEntry": (
        PlanEntry("p01", "bfs", Plan(())),
        "PlanEntry(problem='p01', planner='bfs', plan=Plan(steps=()))",
    ),
    "LiftedPair": (
        LiftedPair("pick-up", "stack", (0, 0, 1), 1, 3),
        "LiftedPair(first='pick-up', second='stack', pattern=(0, 0, 1), "
        "first_arity=1, frequency=3)",
    ),
    "MacroSchema": (
        MacroSchema("noop+noop", (("?x", "block"),), frozenset({Literal(CLEAR)}),
                    frozenset({CLEAR}), frozenset(), "noop", "noop", ("?x",), ("?x",), 2),
        "MacroSchema(name='noop+noop', params=(('?x', 'block'),), "
        "precondition=frozenset({Literal(atom=Atom(predicate='clear', args=('a',)), "
        "negated=False)}), add=frozenset({Atom(predicate='clear', args=('a',))}), "
        "delete=frozenset(), first='noop', second='noop', first_args=('?x',), "
        "second_args=('?x',), frequency=2)",
    ),
    "SearchConfig": (
        SearchConfig(),
        "SearchConfig(algorithm='breadth-first', heuristic='goal-count', "
        "max_expansions=1000000, max_seconds=60.0)",
    ),
    "SearchStats": (
        STATS,
        "SearchStats(expanded=5, evaluated=7, generated=9, plan_cost=2, "
        "wall_time=0.5, status='solved')",
    ),
    "CompiledTask": (
        CompiledTask(((TEMPLATE, ("b",)),), (("clear", ("b",)),), 0, 1, 0, 1, ((-1, ()),), 0, ()),
        "CompiledTask(groundings=((Template(name='noop', variables=('?x',), "
        "equalities=((0, 'a', True),), atoms=(('clear', (0,)),), "
        "ends=(1, 1, 1)), ('b',)),), atoms=(('clear', ('b',)),), init=0, "
        "goal_pos=1, goal_neg=0, goal_gain=1, buckets=((-1, ()),), keys=0, unkeyed=())",
    ),
    "BenchRow": (
        BenchRow("p01", "macro", STATS),
        "BenchRow(problem='p01', variant='macro', stats=SearchStats(expanded=5, "
        "evaluated=7, generated=9, plan_cost=2, wall_time=0.5, status='solved'))",
    ),
}

CASES = pytest.mark.parametrize("name", sorted(RECORDS))
# OntologySchema holds dicts, so it has never been hashable.
HASHABLE = pytest.mark.parametrize("name", sorted(set(RECORDS) - {"OntologySchema"}))


def fields_of(record):
    return tuple(getattr(record, f) for f in record._fields)


@CASES
def test_repr_is_the_dataclass_repr(name):
    record, text = RECORDS[name]
    assert repr(record) == text


@CASES
def test_equals_a_rebuilt_copy(name):
    record, _ = RECORDS[name]
    copy = type(record)(*fields_of(record))
    assert copy == record and copy is not record


@HASHABLE
def test_hash_is_the_hash_of_the_field_tuple(name):
    record, _ = RECORDS[name]
    assert hash(record) == hash(type(record)(*fields_of(record))) == hash(fields_of(record))


@CASES
def test_assignment_raises(name):
    # Deleting a field or another name raises too, and every field keeps its value.
    record, _ = RECORDS[name]
    before = fields_of(record)
    for f in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert all(a is b for a, b in zip(fields_of(record), before))


def test_bench_reports_do_not_share_their_lists():
    # BenchReport is appended to in place, so it is a slotted class and no
    # record: each report gets a list of its own.
    a, b = BenchReport(), BenchReport()
    a.rows.append(BenchRow("p01", "macro", STATS))
    assert b.rows == []
    with pytest.raises(AttributeError):
        a.extra = None
