"""Slotted value types with a hash computed once: Atom, Iri, TypedLiteral
and Triple must hash, compare and print exactly like plain frozen
dataclasses."""

import copy
import dataclasses
import pickle

import pytest

from plankb.kg.store import Iri, Triple, TypedLiteral
from plankb.pddl.ast import Atom

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
def test_copies_rebuild_the_hash(name):
    value, _, _ = VALUES[name]
    # The cached hash is not part of the pickled state: another process
    # hashes strings differently.
    cls, args = value.__reduce__()
    assert cls is type(value) and args == compared(value)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value)


def test_sets_iterate_as_the_tuples_do():
    # Equal hashes mean equal table slots, so a set of values iterates in the
    # same order as a set of their field tuples built the same way.
    atoms = [Atom("p{}".format(i % 7), ("a{}".format(i), "b")) for i in range(50)]
    assert [compared(a) for a in set(atoms)] == list({compared(a) for a in atoms})
