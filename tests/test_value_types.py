"""The value types Atom, ActionSchema, DomainDef, Iri, TypedLiteral and
Triple are NamedTuples, and `test_records.py` checks their repr, their
equality with a rebuilt copy, their hash and their refusal of assignment.
This module checks what it does not: their fields, that they equal their
field tuples, carry no `__dict__` and survive pickle and copy, that a copied
domain answers `is_subtype` as the original does, and that sets of them
iterate as sets of their field tuples.  A GroundAction, a (template,
objects) record, must read as the seven fields of the action grounded by
substitution."""

import copy
import inspect
import itertools
import pickle

import pytest

from plankb import bundles
from plankb.kg.store import Graph, Iri, Triple, TypedLiteral, Variable, VariableInData
from plankb.pddl.ast import ActionSchema, Atom, DomainDef, Literal, PredicateSchema, TypeName
from plankb.semantics import GroundAction, ground

from oracles import ATOM_SETS, reference_ground, snapshot

EX = "http://example.org/"

# Each class's fields in constructor order: the fields that equality, hash,
# repr and copies cover.
FIELDS = {
    Atom: ("predicate", "args"),
    ActionSchema: ("name", "params", "precondition", "add", "delete"),
    DomainDef: ("name", "requirements", "types", "constants", "predicates", "actions"),
    Iri: ("value",),
    TypedLiteral: ("lexical", "datatype"),
    Triple: ("subject", "predicate", "object"),
    GroundAction: ("template", "objects"),
}


def schema(name):
    return ActionSchema(
        name, (("?x", "block"),), frozenset({Literal(Atom("clear", ("?x",)))}),
        frozenset({Atom("holding", ("?x",))}), frozenset({Atom("clear", ("?x",))}))


def domain(*types):
    return DomainDef(
        "d", frozenset({":typing"}), types, (("t", "block"),),
        (PredicateSchema("clear", (("?x", "block"),)),), (schema("pick"),))


# name -> (a value, another value of the same type)
VALUES = {
    "Atom": (Atom("on", ("a", "b")), Atom("on", ("b", "a"))),
    "ActionSchema": (schema("pick"), schema("put")),
    "DomainDef": (domain(TypeName("block")), domain(TypeName("block", "thing"))),
    "Iri": (Iri(EX + "s"), Iri(EX + "o")),
    "TypedLiteral": (TypedLiteral("3", Iri(EX + "int")), TypedLiteral("3", Iri(EX + "dec"))),
    "Triple": (
        Triple(Iri(EX + "s"), Iri(EX + "p"), TypedLiteral("x", Iri(EX + "str"))),
        Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o")),
    ),
}

CASES = pytest.mark.parametrize("name", sorted(VALUES))


def compared(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def rebuilt(value):
    cls = type(value)
    return cls(*compared(value))


def assert_frozen(value):
    """Assigning or deleting a field or a new name raises AttributeError
    and leaves the value as it was."""
    before = compared(value)
    for name in FIELDS[type(value)] + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    after = compared(value)
    assert after == before and all(a is b for a, b in zip(after, before))


@CASES
def test_fields_are_the_constructor_parameters(name):
    value, _ = VALUES[name]
    assert type(value)._fields == FIELDS[type(value)]
    assert tuple(inspect.signature(type(value)).parameters) == FIELDS[type(value)]


@CASES
def test_a_value_equals_its_field_tuple(name):
    # Equality is that of tuples: a value equals the plain tuple of its
    # fields, and so a value of another type with the same fields.
    value, other = VALUES[name]
    assert value == compared(value) and compared(value) == value
    assert value != other and value != compared(other)


def test_graph_tells_variables_from_equal_terms():
    # Iri("s") == Variable("s"), so the graph tells them apart by type.
    assert Iri("s") == Variable("s")
    g = Graph([Triple(Iri("s"), Iri("p"), Iri("o"))])
    assert g.query([(Variable("s"), Iri("p"), Variable("o"))]) == [
        {"s": Iri("s"), "o": Iri("o")}]
    assert g.query([(Iri("s"), Variable("p"), Iri("o"))]) == [{"p": Iri("p")}]
    with pytest.raises(VariableInData):
        Triple(Iri("s"), Variable("p"), Iri("o"))


@CASES
def test_instances_have_no_dict(name):
    value, _ = VALUES[name]
    assert not hasattr(value, "__dict__")


@CASES
def test_copies_and_pickles_are_equal_values(name):
    value, _ = VALUES[name]
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)


def test_domain_copies_answer_is_subtype():
    # a <- b <- c, and x and y name each other as parent (a cycle).
    d = domain(TypeName("a"), TypeName("b", "a"), TypeName("c", "b"),
               TypeName("x", "y"), TypeName("y", "x"))
    names = ["a", "b", "c", "x", "y", "z", "object"]
    answers = [d.is_subtype(sub, sup) for sub, sup in itertools.product(names, repeat=2)]
    assert answers.count(True) == 18
    for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert [clone.is_subtype(sub, sup)
                for sub, sup in itertools.product(names, repeat=2)] == answers


def test_sets_iterate_as_the_tuples_do():
    # Equal hashes mean equal table slots, so a set of values iterates in the
    # same order as a set of their field tuples built the same way.
    atoms = [Atom("p{}".format(i % 7), ("a{}".format(i), "b")) for i in range(50)]
    assert [compared(a) for a in set(atoms)] == list({compared(a) for a in atoms})


# --- ground actions ---------------------------------------------------------
#
# `ground` makes each GroundAction from its template and objects, and every
# other value of it is computed, lazily, when read.  Every check below
# starts from actions fresh from `ground` and compares each with the action
# grounded by substitution (`oracles.Instance`), whose seven fields hold
# those values.


def lazy_and_eager():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    return list(zip(ground(d, p), reference_ground(d, p)))


def sets_of(action):
    return [getattr(action, name) for name in ATOM_SETS]


def round_trip(clone, lazy, eager):
    return type(clone) is GroundAction and clone == lazy and snapshot(clone) == eager


LAZY_CHECKS = {
    "equal": lambda lazy, eager: lazy == rebuilt(lazy) and snapshot(lazy) == eager,
    "hash": lambda lazy, eager: hash(lazy) == hash(rebuilt(lazy)) == hash(compared(lazy)),
    "repr": lambda lazy, eager: repr(lazy) == "GroundAction(template={!r}, objects={!r})".format(
        lazy.template, eager.objects),
    "sets": lambda lazy, eager: sets_of(lazy) == sets_of(eager),
    "reduce": lambda lazy, eager: (
        lazy.__getnewargs__() == compared(lazy)
        and round_trip(GroundAction(*lazy.__getnewargs__()), lazy, eager)),
    "pickle": lambda lazy, eager: round_trip(pickle.loads(pickle.dumps(lazy)), lazy, eager),
    "copy": lambda lazy, eager: round_trip(copy.copy(lazy), lazy, eager),
    "deepcopy": lambda lazy, eager: round_trip(copy.deepcopy(lazy), lazy, eager),
    "atom-free fields": lambda lazy, eager: (
        (lazy.schema, lazy.binding, lazy.objects, lazy.name)
        == (eager.schema, eager.binding, eager.objects, eager.name)),
}


@pytest.mark.parametrize("check", sorted(LAZY_CHECKS))
def test_lazy_action_reads_as_its_seven_fields(check):
    pairs = lazy_and_eager()
    assert len(pairs) == 24
    for lazy, eager in pairs:
        assert LAZY_CHECKS[check](lazy, eager), lazy.name


def test_lazy_action_is_frozen_and_slotted():
    for lazy, eager in lazy_and_eager():
        assert not hasattr(lazy, "__dict__")
        for name in ("schema", "binding", "name", *ATOM_SETS):
            with pytest.raises(AttributeError):
                setattr(lazy, name, None)
            with pytest.raises(AttributeError):
                delattr(lazy, name)
        assert_frozen(lazy)
        assert snapshot(lazy) == eager
        with pytest.raises(AttributeError, match="no attribute 'pre'"):
            lazy.pre


def test_ground_action_fields_are_its_template_and_objects():
    lazy, eager = lazy_and_eager()[0]
    assert GroundAction._fields == FIELDS[GroundAction] == ("template", "objects")
    assert tuple(inspect.signature(GroundAction).parameters) == FIELDS[GroundAction]
    assert lazy.template.name == eager.schema and lazy.objects == eager.objects
