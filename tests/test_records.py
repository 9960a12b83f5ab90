"""Value semantics of the slotted records: equality, hashing, order, immutability, repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from flagkin.exterior import Multivector
from flagkin.grassmann_oracle import generator
from flagkin.invariant_algebras import FlagContext, PresentedElement
from flagkin.kinematics import KinematicTable
from flagkin.measures import MeasureLabel, phi_label, s_label
from flagkin.rotation_algebra import AlgebraElement
from flagkin.records import Record, _set
from flagkin.scalars import Scalar

CTX = FlagContext(5, 2)


# A builder of one instance per record type, and the repr that the earlier
# dataclass version of the type printed for it.
RECORDS = [
    (
        lambda: Scalar(Fraction(-3, 4), (("omega(5)", -1),)),
        "Scalar(value=Fraction(-3, 4), units=(('omega(5)', -1),))",
    ),
    (lambda: FlagContext(5, 2), "FlagContext(n=5, p=2)"),
    (
        lambda: PresentedElement(CTX, {(1, 0): 1}, 6, 2),
        "PresentedElement(ctx=FlagContext(n=5, p=2), xy={(1, 0): 1}, u=6, den=2)",
    ),
    (lambda: s_label(2, 1), "MeasureLabel(kind='S', k=2, idx=1)"),
    (
        lambda: KinematicTable(
            CTX, s_label(0, 0), "S", ((s_label(0, 0), s_label(0, 0), (1, 1)),)
        ),
        "KinematicTable(ctx=FlagContext(n=5, p=2), input=MeasureLabel(kind='S', k=0, idx=0),"
        " family='S', terms=((MeasureLabel(kind='S', k=0, idx=0),"
        " MeasureLabel(kind='S', k=0, idx=0), (1, 1)),))",
    ),
    (
        lambda: AlgebraElement(3, generator(3, 2, 2).body),
        "AlgebraElement(n=3, body=[1/1] s2^w21)",
    ),
]

IDS = [build().__class__.__name__ for build, _ in RECORDS]


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_equal_records_are_equal_and_hash_equal(build, text):
    a, b = build(), build()
    assert a == b and not a != b
    fields = tuple(getattr(a, name) for name in a.__slots__)
    if a.__class__ is not PresentedElement:  # its xy is a dict, so it has no hash
        assert hash(a) == hash(b) == hash(fields)


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(build, text):
    record = build()
    for name in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_records_copy_and_pickle(build, text):
    record = build()
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


class _OrderedTriple(Record, order=True):
    """An ordered record with the fields of a MeasureLabel."""

    __slots__ = ("kind", "k", "idx")

    def __init__(self, kind, k, idx) -> None:
        _set(self, "kind", kind)
        _set(self, "k", k)
        _set(self, "idx", idx)


def test_records_of_different_types_never_compare_equal():
    assert MeasureLabel("S", 1, 2) != _OrderedTriple("S", 1, 2)
    assert FlagContext(5, 2) != AlgebraElement(5, 2)
    assert Scalar.of(2) != 2 and Scalar() != Fraction(0)
    assert FlagContext(5, 2) != (5, 2)
    with pytest.raises(TypeError):
        MeasureLabel("S", 1, 2) < _OrderedTriple("S", 1, 2)


def test_only_labels_are_ordered():
    with pytest.raises(TypeError):
        FlagContext(3, 1) < FlagContext(4, 1)
    with pytest.raises(TypeError):
        Scalar.of(1) < Scalar.of(2)
    assert s_label(1, 2) > phi_label(3, 0)


def test_label_order_is_the_field_order():
    labels = [
        MeasureLabel("S", 2, 1),
        MeasureLabel("Phi", 3, 0),
        MeasureLabel("PhiEx"),
        MeasureLabel("Sp", 1),
        MeasureLabel("S", 1, 2),
        MeasureLabel("Phi", 1, 1),
    ]
    assert [label.to_text() for label in sorted(labels)] == [
        "Phi[1,1]", "Phi[3,0]", "PhiEx", "S[1,2]", "S[2,1]", "Sp[1]",
    ]


def test_constructors_still_normalize_and_validate():
    units = (("omega(3)", 1), ("omega(2)", -1))
    assert Scalar(3, units).units == (("omega(2)", -1), ("omega(3)", 1))
    assert Scalar(0, (("omega(3)", 1),)) == Scalar() and Scalar(2).value == Fraction(2)
    with pytest.raises(ValueError):
        FlagContext(3, 3)
    # a presented element is kept in lowest terms over a positive denominator
    assert PresentedElement(CTX, {(1, 0): 4, (0, 1): -2}, 6, 8) == PresentedElement(
        CTX, {(1, 0): 2, (0, 1): -1}, 3, 4
    )
    assert PresentedElement(CTX, {}, 0, 5) == PresentedElement(CTX, {})
    with pytest.raises(ValueError):
        PresentedElement(CTX, {(1, 0): 1}, den=0)
    with pytest.raises(TypeError):
        PresentedElement(CTX, {(1, 0): Fraction(1, 2)})
    assert Multivector({4 << 32: 2}).terms() == [(4 << 32, Fraction(2))]
