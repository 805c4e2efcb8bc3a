"""The immutable records of the package: every subclass of `kripke.Value`
behaves as the frozen dataclass with the same name and fields would."""

import dataclasses

import pytest

import hypersim.cli  # noqa: F401  (loads every module that defines a Value)
from hypersim.hyperspec import (
    And,
    FalseConst,
    HyperProperty,
    Iff,
    Implies,
    LeftAtom,
    MatchAll,
    Not,
    Or,
    RightAtom,
    TrueConst,
)
from hypersim.kripke import KripkeStructure, LassoPath, Value
from hypersim.oracle import Counterexample
from hypersim.prophecy import ProphecyAutomaton

X, Y = LeftAtom("a"), RightAtom("b")
K = KripkeStructure(
    states=("s", "t"),
    init=0b01,
    ap=("a",),
    labels=(frozenset({"a"}), frozenset()),
    succ=((1,), (0, 1)),
)

# the field values each value type is built from below
SAMPLES = {
    TrueConst: (),
    FalseConst: (),
    LeftAtom: ("a",),
    RightAtom: ("a",),
    Not: (X,),
    And: (X, Y),
    Or: (X, Y),
    Implies: (X, Y),
    Iff: (X, Y),
    MatchAll: (frozenset({"a"}),),
    HyperProperty: ("forall-exists", And(X, Not(Y))),
    KripkeStructure: (K.states, K.init, K.ap, K.labels, K.succ),
    LassoPath: ((0,), (1, 0)),
    Counterexample: ("forall-exists", (0, 1), 2, "a note"),
    ProphecyAutomaton: (K, (frozenset(), frozenset({"X1_a"}))),
}


def leaf_classes(cls: type) -> list[type]:
    subs = cls.__subclasses__()
    return [leaf for sub in subs for leaf in leaf_classes(sub)] if subs else [cls]


VALUE_TYPES = leaf_classes(Value)


def test_the_samples_cover_every_value_type():
    assert set(VALUE_TYPES) == set(SAMPLES)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_a_value_behaves_as_the_frozen_dataclass_it_replaces(cls):
    values, fields = SAMPLES[cls], cls._fields
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)

    assert a == b and hash(a) == hash(b) == hash(reference)
    assert {a, b} == {b} and a in {b}
    assert repr(a) == repr(b) == repr(reference)

    assert not hasattr(a, "__dict__")  # every attribute is a slot

    twin = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
    assert a != twin and twin != a  # equality needs the exact type

    for name in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_equal_fields_of_different_types_are_different_values():
    assert LeftAtom("a") != RightAtom("a")
    assert And(X, Y) != Or(X, Y)
    assert len({TrueConst(), FalseConst(), And(X, Y), Or(X, Y), Implies(X, Y), Iff(X, Y)}) == 6
    assert MatchAll() == MatchAll(props=None) != MatchAll(frozenset())
    assert Iff(left=X, right=Y) == Iff(X, Y)
