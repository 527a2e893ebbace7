"""Frozen slotted value types: Atom, Iri, TypedLiteral and Triple must
hash, compare, print and copy as plain frozen dataclasses of their fields,
and a lazily grounded GroundAction exactly like one built from its seven
fields."""

import copy
import dataclasses
import pickle

import pytest

from plankb import bundles
from plankb.kg.store import Iri, Triple, TypedLiteral
from plankb.pddl.ast import Atom
from plankb.semantics import GroundAction, ground

from oracles import ATOM_SETS, reference_ground

EX = "http://example.org/"

VALUES = {
    "Atom": (
        Atom("on", ("a", "b")),
        "Atom(predicate='on', args=('a', 'b'))",
        Atom("on", ("b", "a")),
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
    return tuple(
        getattr(value, f.name) for f in dataclasses.fields(value) if f.compare
    )


def rebuilt(value):
    cls = type(value)
    return cls(*compared(value))


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
    assert [f.name for f in dataclasses.fields(value) if f.compare or f.repr] == [
        f.name for f in dataclasses.fields(value) if f.init
    ]


@CASES
def test_fields_are_frozen(name):
    value, _, _ = VALUES[name]
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, None)


@CASES
def test_instances_have_no_dict(name):
    value, _, _ = VALUES[name]
    assert not hasattr(value, "__dict__")


@CASES
def test_copies_rebuild_through_init(name):
    value, _, _ = VALUES[name]
    # Copy and pickle go through __init__: on Python 3.10 the default state
    # restore sets each slot, which a frozen dataclass refuses.
    cls, args = value.__reduce__()
    assert cls is type(value) and args == compared(value)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value)


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
        for f in dataclasses.fields(lazy):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(lazy, f.name, None)
        assert lazy == eager and sets_of(lazy) == sets_of(eager)
        with pytest.raises(AttributeError, match="no attribute 'pre'"):
            lazy.pre


def test_ground_action_fields_are_the_seven_constructor_arguments():
    _, eager = lazy_and_eager()[0]
    assert [f.name for f in dataclasses.fields(eager) if f.compare or f.repr] == [
        f.name for f in dataclasses.fields(eager) if f.init
    ] == ["schema", "binding", *ATOM_SETS, "cost"]
