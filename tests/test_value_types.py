"""Frozen slotted value types: Atom, ActionSchema, DomainDef, Iri,
TypedLiteral and Triple must hash, compare, print and copy as the plain
frozen records of their fields that the dataclasses they replaced were, and
a lazily grounded GroundAction exactly like one built from its seven
fields."""

import copy
import inspect
import itertools
import pickle

import pytest

from plankb import bundles
from plankb.kg.store import Iri, Triple, TypedLiteral
from plankb.pddl.ast import ActionSchema, Atom, DomainDef, Literal, PredicateSchema, TypeName
from plankb.semantics import GroundAction, ground

from oracles import ATOM_SETS, reference_ground

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
    GroundAction: ("schema", "binding", *ATOM_SETS, "cost"),
}


def schema(name):
    return ActionSchema(
        name, (("?x", "block"),), frozenset({Literal(Atom("clear", ("?x",)))}),
        frozenset({Atom("holding", ("?x",))}), frozenset({Atom("clear", ("?x",))}))


def schema_text(name):
    return (
        "ActionSchema(name='{}', params=(('?x', 'block'),), "
        "precondition=frozenset({{Literal(atom=Atom(predicate='clear', args=('?x',)), "
        "negated=False)}}), add=frozenset({{Atom(predicate='holding', args=('?x',))}}), "
        "delete=frozenset({{Atom(predicate='clear', args=('?x',))}}))".format(name))


def domain(*types):
    return DomainDef(
        "d", frozenset({":typing"}), types, (("t", "block"),),
        (PredicateSchema("clear", (("?x", "block"),)),), (schema("pick"),))


VALUES = {
    "Atom": (
        Atom("on", ("a", "b")),
        "Atom(predicate='on', args=('a', 'b'))",
        Atom("on", ("b", "a")),
    ),
    "ActionSchema": (schema("pick"), schema_text("pick"), schema("put")),
    "DomainDef": (
        domain(TypeName("block")),
        "DomainDef(name='d', requirements=frozenset({':typing'}), "
        "types=(TypeName(name='block', parent='object'),), constants=(('t', 'block'),), "
        "predicates=(PredicateSchema(name='clear', params=(('?x', 'block'),)),), "
        "actions=(" + schema_text("pick") + ",))",
        domain(TypeName("block", "thing")),
    ),
    "Iri": (Iri(EX + "s"), "Iri(value='http://example.org/s')", Iri(EX + "o")),
    "TypedLiteral": (
        TypedLiteral("3", Iri(EX + "int")),
        "TypedLiteral(lexical='3', datatype=Iri(value='http://example.org/int'))",
        TypedLiteral("3", Iri(EX + "dec")),
    ),
    "Triple": (
        Triple(Iri(EX + "s"), Iri(EX + "p"), TypedLiteral("x", Iri(EX + "str"))),
        "Triple(subject=Iri(value='http://example.org/s'), "
        "predicate=Iri(value='http://example.org/p'), "
        "object=TypedLiteral(lexical='x', datatype=Iri(value='http://example.org/str')))",
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
    """Assigning or deleting any attribute, a hidden slot or a new name
    among them, raises AttributeError and leaves the value as it was."""
    before = compared(value)
    names = FIELDS[type(value)] + tuple(type(value).__slots__) + ("other",)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    after = compared(value)
    assert after == before and all(a is b for a, b in zip(after, before))


@CASES
def test_hash_is_the_hash_of_the_compared_fields(name):
    value, _, other = VALUES[name]
    assert hash(value) == hash(compared(value))
    assert hash(other) == hash(compared(other))


@CASES
def test_repr_and_equality_leave_the_cache_out(name):
    value, text, other = VALUES[name]
    assert repr(value) == text
    assert value == rebuilt(value) and value is not rebuilt(value)
    assert value != other
    assert value.__eq__(compared(value)) is NotImplemented and value != compared(value)
    assert tuple(inspect.signature(type(value)).parameters) == FIELDS[type(value)]


@CASES
def test_fields_are_frozen(name):
    value, _, _ = VALUES[name]
    assert_frozen(value)


@CASES
def test_instances_have_no_dict(name):
    value, _, _ = VALUES[name]
    assert not hasattr(value, "__dict__")


@CASES
def test_copies_rebuild_through_init(name):
    value, text, _ = VALUES[name]
    # Copy and pickle go through __init__: the default state restore sets
    # each slot, which a frozen value refuses.
    cls, args = value.__reduce__()
    assert cls is type(value) and args == compared(value)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value) and repr(clone) == text


def test_domain_copies_answer_is_subtype():
    # a <- b <- c, and x and y name each other as parent (a cycle).
    d = domain(TypeName("a"), TypeName("b", "a"), TypeName("c", "b"),
               TypeName("x", "y"), TypeName("y", "x"))
    names = ["a", "b", "c", "x", "y", "z", "object"]
    answers = [d.is_subtype(sub, sup) for sub, sup in itertools.product(names, repeat=2)]
    assert answers.count(True) == 18
    for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert clone._ancestors == d._ancestors
        assert [clone.is_subtype(sub, sup)
                for sub, sup in itertools.product(names, repeat=2)] == answers


def test_sets_iterate_as_the_tuples_do():
    # Equal hashes mean equal table slots, so a set of values iterates in the
    # same order as a set of their field tuples built the same way.
    atoms = [Atom("p{}".format(i % 7), ("a{}".format(i), "b")) for i in range(50)]
    assert [compared(a) for a in set(atoms)] == list({compared(a) for a in atoms})


# --- lazy ground actions ----------------------------------------------------
#
# `ground` makes each GroundAction from its template and objects and builds
# its binding and atom sets on first read.  Every check below starts from
# actions fresh from `ground`, none of them read yet, and compares each with
# the action grounded by substitution and built from its seven fields.


def lazy_and_eager():
    d = bundles.load_domain("blocksworld")
    p = bundles.load_problems("blocksworld")[0]
    return list(zip(ground(d, p), reference_ground(d, p)))


def sets_of(action):
    return [list(getattr(action, name)) for name in ATOM_SETS]


LAZY_CHECKS = {
    "equal": lambda lazy, eager: lazy == eager and eager == lazy,
    "hash": lambda lazy, eager: hash(lazy) == hash(eager) == hash(compared(eager)),
    "repr": lambda lazy, eager: repr(lazy) == repr(eager),
    "sets": lambda lazy, eager: sets_of(lazy) == sets_of(eager),
    "reduce": lambda lazy, eager: lazy.__reduce__() == (GroundAction, compared(eager)),
    "pickle": lambda lazy, eager: pickle.loads(pickle.dumps(lazy)) == eager,
    "copy": lambda lazy, eager: copy.copy(lazy) == eager,
    "deepcopy": lambda lazy, eager: copy.deepcopy(lazy) == eager,
    "atom-free fields": lambda lazy, eager: (
        (lazy.schema, lazy.binding, lazy.objects, lazy.name, lazy.cost)
        == (eager.schema, eager.binding, eager.objects, eager.name, eager.cost)),
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
        for name in FIELDS[GroundAction] + ("_objects", "_source", "other"):
            with pytest.raises(AttributeError):
                setattr(lazy, name, None)
            with pytest.raises(AttributeError):
                delattr(lazy, name)
        assert lazy == eager and sets_of(lazy) == sets_of(eager)
        assert_frozen(eager)
        with pytest.raises(AttributeError, match="no attribute 'pre'"):
            lazy.pre


def test_ground_action_fields_are_the_seven_constructor_arguments():
    _, eager = lazy_and_eager()[0]
    assert list(inspect.signature(GroundAction).parameters) == list(
        FIELDS[GroundAction]) == ["schema", "binding", *ATOM_SETS, "cost"]
    assert repr(eager) == "GroundAction({})".format(", ".join(
        "{}={!r}".format(name, value) for name, value in zip(FIELDS[GroundAction],
                                                            compared(eager))))
    assert eager == rebuilt(eager) and hash(eager) == hash(compared(eager))
    assert inspect.signature(GroundAction).parameters["cost"].default == 1
