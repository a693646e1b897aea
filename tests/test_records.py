"""The record contract of the package's fourteen frozen value types.

Each type is a record of named fields: equal fields give equal values and
equal hashes, values of different types never compare equal, fields cannot be
assigned or deleted, ``repr`` spells the fields out (``Partition`` and
``ExactMatrix`` keep their own short forms), keyword construction works, and
``pickle`` and ``copy`` rebuild an equal value.  The eight plain records
take their constructor from the base and bind arguments as a Python
signature would; the six that validate keep their own.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from lefdet.formulas import (
    CellRecord,
    ComplementIdentityResult,
    Expansion,
    ExpansionTerm,
    LiteralCase,
    SlpEntry,
    SlpReport,
    SplitForms,
    discrepancy_report,
)
from lefdet.linalg import CauchyBinetResult, ExactMatrix
from lefdet.partitions import Partition
from lefdet.ring import LinearForm, RingParams
from lefdet.symfunc import HomogPair

FORM = LinearForm(Fraction(1, 2), -3)
TERM = ExpansionTerm(delta=(0, 2), lam=Partition((1,)), nu=Partition(), value=Fraction(-6))
ENTRY = SlpEntry(k=0, det=1, nonzero=True)
SPLIT = SplitForms.split([LinearForm(1, 2), LinearForm(3, -1)], 1)

# type -> (field names in order, keyword arguments of one value, its repr)
RECORDS = {
    RingParams: (("d", "q"), dict(d=3, q=1), "RingParams(d=3, q=1)"),
    LinearForm: (("a", "b"), dict(a=Fraction(1, 2), b=-3), "LinearForm(a=Fraction(1, 2), b=-3)"),
    Partition: (("parts",), dict(parts=(3, 1)), "Partition([3, 1])"),
    HomogPair: (("a", "b"), dict(a=(1, 2), b=(3, 4)), "HomogPair(a=(1, 2), b=(3, 4))"),
    ExactMatrix: (
        ("rows", "cols", "entries"),
        dict(rows=2, cols=2, entries=(1, 0, 0, Fraction(1, 2))),
        "ExactMatrix(2x2: 1 0; 0 1/2)",
    ),
    CauchyBinetResult: (
        ("lhs", "rhs", "equal"),
        dict(lhs=1, rhs=2, equal=False),
        "CauchyBinetResult(lhs=1, rhs=2, equal=False)",
    ),
    SplitForms: (
        ("check", "hat"),
        dict(check=(FORM,), hat=()),
        "SplitForms(check=(LinearForm(a=Fraction(1, 2), b=-3),), hat=())",
    ),
    ExpansionTerm: (
        ("delta", "lam", "nu", "value"),
        dict(delta=(0, 2), lam=Partition((1,)), nu=Partition(), value=Fraction(-6)),
        "ExpansionTerm(delta=(0, 2), lam=Partition([1]), nu=Partition([]), value=Fraction(-6, 1))",
    ),
    Expansion: (
        ("terms",),
        dict(terms=(TERM,)),
        "Expansion(terms=(ExpansionTerm(delta=(0, 2), "
        "lam=Partition([1]), nu=Partition([]), value=Fraction(-6, 1)),))",
    ),
    SlpEntry: (
        ("k", "det", "nonzero"),
        dict(k=0, det=1, nonzero=True),
        "SlpEntry(k=0, det=1, nonzero=True)",
    ),
    SlpReport: (
        ("entries", "holds"),
        dict(entries=(ENTRY,), holds=True),
        "SlpReport(entries=(SlpEntry(k=0, det=1, nonzero=True),), holds=True)",
    ),
    LiteralCase: (
        ("case_id", "condition", "value", "skipped_terms"),
        dict(case_id=2, condition="0 <= k", value=Fraction(1), skipped_terms=0),
        "LiteralCase(case_id=2, condition='0 <= k', value=Fraction(1, 1), skipped_terms=0)",
    ),
    ComplementIdentityResult: (
        ("mu", "lhs", "rhs", "equal"),
        dict(mu=Partition(), lhs=Fraction(2), rhs=2, equal=True),
        "ComplementIdentityResult(mu=Partition([]), lhs=Fraction(2, 1), rhs=2, equal=True)",
    ),
    CellRecord: (
        ("direct", "expansion", "closed", "literal"),
        dict(
            direct=Fraction(-6),
            expansion=Expansion(terms=(TERM,)),
            closed=Fraction(-6),
            literal=None,
        ),
        "CellRecord(direct=Fraction(-6, 1), expansion=Expansion(terms=(ExpansionTerm("
        "delta=(0, 2), lam=Partition([1]), nu=Partition([]), value=Fraction(-6, 1)),)), "
        "closed=Fraction(-6, 1), literal=None)",
    ),
}

CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def build(cls):
    fields, kwargs, _ = RECORDS[cls]
    return cls(**kwargs), fields


def field_tuple(value, fields):
    return tuple(getattr(value, name) for name in fields)


def test_all_fourteen_types_are_covered():
    assert len(RECORDS) == 14


@CASES
def test_keyword_and_positional_construction_agree(cls):
    value, fields = build(cls)
    kwargs = RECORDS[cls][1]
    assert field_tuple(value, fields) == tuple(kwargs.values())
    again = cls(*kwargs.values())
    assert again == value and not (again != value)
    assert hash(again) == hash(value) == hash(field_tuple(value, fields))


# one value of each type that differs from RECORDS' value in one field
OTHERS = {
    RingParams: RingParams(3, 2),
    LinearForm: LinearForm(1, -3),
    Partition: Partition((3,)),
    HomogPair: HomogPair((1, 2), (3, 5)),
    ExactMatrix: ExactMatrix(2, 2, (1, 0, 0, 1)),
    CauchyBinetResult: CauchyBinetResult(lhs=1, rhs=1, equal=False),
    SplitForms: SplitForms(check=(), hat=(FORM,)),
    ExpansionTerm: ExpansionTerm((0, 2), Partition((1,)), Partition(), Fraction(6)),
    Expansion: Expansion(terms=()),
    SlpEntry: SlpEntry(k=1, det=1, nonzero=True),
    SlpReport: SlpReport(entries=(ENTRY,), holds=False),
    LiteralCase: LiteralCase(3, "0 <= k", Fraction(1), 0),
    ComplementIdentityResult: ComplementIdentityResult(Partition(), 3, 2, True),
    CellRecord: CellRecord(*(RECORDS[CellRecord][1] | {"literal": ()}).values()),
}


@CASES
def test_a_different_field_gives_a_different_value(cls):
    value, _ = build(cls)
    assert OTHERS[cls] != value and not (OTHERS[cls] == value)


def test_types_with_the_same_fields_never_compare_equal():
    # equal field tuples, (2, 2), in two record types
    assert RingParams(2, 2) != LinearForm(2, 2)
    assert not (RingParams(2, 2) == LinearForm(2, 2))
    assert RingParams(2, 2).__eq__(LinearForm(2, 2)) is NotImplemented
    assert LinearForm(1, 2) != (1, 2) and HomogPair((1,), (2,)) != ((1,), (2,))
    assert Partition((3, 1)) != (3, 1)


@CASES
def test_fields_cannot_be_assigned_or_deleted(cls):
    value, fields = build(cls)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert field_tuple(value, fields) == tuple(RECORDS[cls][1].values())


@CASES
def test_repr_text(cls):
    value, _ = build(cls)
    assert repr(value) == RECORDS[cls][2]


@CASES
def test_pickle_and_copy_round_trip(cls):
    value, fields = build(cls)
    for again in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(again) is cls and again == value
        assert field_tuple(again, fields) == field_tuple(value, fields)


@CASES
def test_the_fields_are_the_slots(cls):
    assert cls.__slots__ == RECORDS[cls][0]


def test_an_expansion_holds_only_its_terms_and_its_value_is_their_sum():
    assert Expansion(terms=(TERM, TERM)).value == Fraction(-12)
    assert Expansion(terms=()).value == 0
    with pytest.raises(AttributeError):
        Expansion(terms=()).value = 1


def test_a_computed_cell_record_round_trips():
    undefined = SplitForms.split([LinearForm(1, 0), LinearForm(3, -1)], 1)
    for split in (SPLIT, undefined):
        record = discrepancy_report(RingParams(2, 2), 1, split)
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        assert hash(record) == hash(copy.deepcopy(record))
    assert record.literal is None


def test_the_hot_types_carry_no_instance_dict():
    for value in (ExactMatrix.identity(2), Partition((2, 1))):
        assert not hasattr(value, "__dict__")


def test_construction_normalises_sequences():
    assert Partition([3, 1, 0, 0]).parts == (3, 1) and Partition().parts == ()
    assert Partition(parts=iter([2, 2])) == Partition((2, 2))
    assert ExactMatrix(1, 2, [5, 6]).entries == (5, 6)
    assert HomogPair([1], [2]).a == (1,) and HomogPair([1], [2]).b == (2,)
    split = SplitForms(check=[FORM], hat=iter([FORM]))
    assert split.check == (FORM,) and split.hat == (FORM,)


def test_construction_still_validates():
    for bad in (
        lambda: RingParams(1, 2),
        lambda: RingParams(2, True),
        lambda: LinearForm(0, 0),
        lambda: LinearForm(0.5, 1),
        lambda: Partition((1, 2)),
        lambda: Partition((2, -1)),
        lambda: HomogPair((1, 2), (3,)),
        lambda: HomogPair((1.5,), (1,)),
        lambda: ExactMatrix(2, 2, (1, 2, 3)),
        lambda: ExactMatrix(-1, 0, ()),
    ):
        with pytest.raises(ValueError):
            bad()


PLAIN = [
    ExpansionTerm,
    Expansion,
    SlpEntry,
    SlpReport,
    LiteralCase,
    ComplementIdentityResult,
    CellRecord,
    CauchyBinetResult,
]
VALIDATING = [RingParams, LinearForm, Partition, HomogPair, ExactMatrix, SplitForms]


def test_every_type_is_plain_or_validating():
    assert sorted(t.__name__ for t in PLAIN + VALIDATING) == sorted(t.__name__ for t in RECORDS)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_plain_records_bind_their_arguments_like_a_signature(cls):
    assert "__init__" not in vars(cls)
    fields, kwargs, _ = RECORDS[cls]
    values = tuple(kwargs.values())
    rest = {name: kwargs[name] for name in fields[1:]}
    assert cls(*values[:1], **rest) == cls(**kwargs)
    for bad in (
        lambda: cls(*values, 0),  # one positional argument too many
        lambda: cls(**kwargs, unknown=0),  # an unknown keyword
        lambda: cls(*values[:1], **kwargs),  # the first field by position and keyword
        lambda: cls(*values[:-1]),  # the last field missing
        lambda: cls(**rest),  # the first field missing
    ):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("cls", VALIDATING, ids=lambda cls: cls.__name__)
def test_validating_records_keep_their_own_constructor(cls):
    assert "__init__" in vars(cls)
