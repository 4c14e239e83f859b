"""The package's records: immutable, checked when built, with the field
names, field order, reprs, equality and hashes they have always had. The
value records are NamedTuples, so each also equals the plain tuple of its
fields, and `_replace` builds a changed copy through the same checks. The
records print as JSON through `json_text`, which writes what `json.dumps`
writes."""

import json

import pytest
from hypothesis import given, strategies as st

from antipow import (
    AntipowerCertificate,
    BlockSplit,
    ComplexityTable,
    FiniteWord,
    InstructionSequence,
    Morphism,
    REGULAR,
    additivity_precheck,
    classify_block,
    complexity_table,
    construct_antipower,
    delta_vector,
    e_vector,
    find_first,
    order_decompose,
    toeplitz_paperfolding_prefix,
)
from antipow.instructions import _unlimited_int_digits, json_text

WORD = toeplitz_paperfolding_prefix(REGULAR, 40)

# one record of each kind, built as the library builds it, and its fields in order
RECORDS = {
    "InstructionSequence": (InstructionSequence.parse("+-(-+)"), ("preperiod", "period")),
    "OrderDecomposition": (order_decompose(12), ("order", "odd_index")),
    "EVector": (e_vector(REGULAR, 0, 1, 0, 2, 2), ("order", "bit", "components")),
    "DeltaVector": (delta_vector(REGULAR, 0, 2, 2), ("components",)),
    "PrecheckReport": (additivity_precheck(REGULAR, 0, 2, 1, 2, 2, 4), ("ok", "violations")),
    "AntipowerCertificate": (
        construct_antipower(REGULAR, 2),
        ("instructions", "m", "k", "u", "start", "cell_width", "cell_one_counts", "alpha",
         "verified"),
    ),
    "BlockSplit": (BlockSplit(1, 2, 3), ("start", "cell_width", "order")),
    "ClassifyResult": (
        classify_block(WORD, BlockSplit(1, 2, 2)),
        ("is_power", "is_abelian_power", "is_antipower", "is_abelian_antipower"),
    ),
    "ScanHit": (find_first(WORD, 4, "abelian_antipower"), ("start", "cell_width", "order", "kind")),
    "ComplexityTable": (complexity_table(WORD, "abelian", 2), ("kind", "rows")),
    "FiniteWord": (WORD[:3], ("alphabet", "data")),
    "Morphism": (Morphism({"a": "aba", "b": "bbb"}), ("rules",)),
}
FIELDS = [(name, field) for name, (_, fields) in RECORDS.items() for field in fields]


@pytest.mark.parametrize("name, field", FIELDS, ids=[f"{n}.{f}" for n, f in FIELDS])
def test_record_fields_cannot_be_assigned_or_deleted(name, field):
    record = RECORDS[name][0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_lists_its_fields_in_order(name):
    record, fields = RECORDS[name]
    assert type(record).__name__ == name
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"
    # built again from its fields by keyword, it is equal, with the same hash
    again = type(record)(**{field: getattr(record, field) for field in fields})
    assert repr(again) == repr(record)
    if name != "Morphism":  # a morphism is equal only to itself
        assert again == record and hash(again) == hash(record)


VALUE_RECORDS = [name for name in RECORDS if name not in ("FiniteWord", "Morphism")]


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_are_tuples_of_their_fields(name):
    record, fields = RECORDS[name]
    assert record._fields == fields
    as_tuple = tuple(getattr(record, field) for field in fields)
    assert tuple(record) == as_tuple
    assert record == as_tuple and hash(record) == hash(as_tuple)


@pytest.mark.parametrize(
    "record, field, value",
    [(InstructionSequence.parse("(+)"), "period", ()), (BlockSplit(1, 2, 3), "start", 0),
     (ComplexityTable("abelian", ((1, 2),)), "kind", "other")],
    ids=["InstructionSequence", "BlockSplit", "ComplexityTable"],
)
def test_replace_checks_the_fields_it_sets(record, field, value):
    with pytest.raises(ValueError):
        record._replace(**{field: value})
    assert record._replace(**{field: getattr(record, field)}) == record


def test_record_reprs_are_pinned():
    assert repr(delta_vector(REGULAR, 0, 2, 2)) == "DeltaVector(components=(0, 1))"
    assert repr(find_first(WORD, 4, "abelian_antipower")) == (
        "ScanHit(start=1, cell_width=10, order=4, kind='abelian_antipower')"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: InstructionSequence((), ()),
        lambda: InstructionSequence((2,), (1,)),
        lambda: InstructionSequence((1,), (1, 0)),
        lambda: BlockSplit(0, 1, 1),
        lambda: BlockSplit(1, 0, 1),
        lambda: BlockSplit(1, 1, 0),
        lambda: ComplexityTable("other", ((1, 1),)),
        lambda: ComplexityTable("abelian", ((2, 1), (1, 1))),
        lambda: ComplexityTable("factor", ((1, 2), (1, 2))),
        lambda: ComplexityTable("abelian", ((1, 0),)),
        lambda: FiniteWord((), b""),
        lambda: FiniteWord(("a", "b"), b"\x02"),
        lambda: Morphism({}),
        lambda: Morphism({"a": ""}),
        lambda: Morphism({"a": "ab"}),
    ],
)
def test_records_built_from_invalid_fields_are_refused(build):
    with pytest.raises(ValueError):
        build()


signs = st.lists(st.sampled_from((1, -1)), max_size=6).map(tuple)


@given(preperiod=signs, period=signs.filter(bool))
def test_instruction_sequence_text_round_trip(preperiod, period):
    b = InstructionSequence(preperiod, period)
    again = InstructionSequence.parse(str(b))
    assert again == b and hash(again) == hash(b)
    assert (again.preperiod, again.period) == (preperiod, period)


def test_finite_words_are_equal_exactly_when_alphabet_and_letters_are():
    w = FiniteWord(("a", "b"), b"\x00\x01\x01")
    same = FiniteWord.from_text("abb", ("a", "b"))
    # a cached view does not take part in equality
    assert w.letter_bits == (1, 6)
    assert w == same and hash(w) == hash(same)
    assert {w: 1}[same] == 1
    assert w != FiniteWord(("0", "1"), b"\x00\x01\x01")
    assert w != FiniteWord(("a", "b"), b"\x00\x01\x00")
    assert w != (("a", "b"), b"\x00\x01\x01")
    assert w[:2] == same.prefix(2)


def test_morphisms_compare_by_identity():
    rules = {"0": "01", "1": "10"}
    m = Morphism(rules)
    assert m == m and m != Morphism(rules)


@pytest.mark.parametrize("text, m", [("(+)", 2), ("(-+)", 3), ("+-(-)", 4)])
def test_certificate_json_round_trip_keeps_equality_and_hash(text, m):
    cert = construct_antipower(InstructionSequence.parse(text), m)
    again = AntipowerCertificate.from_json(cert.to_json())
    assert again == cert and hash(again) == hash(cert)


# what the commands print: ints (big ones past the interpreter's 4,300-digit
# conversion limit), bools and printable ASCII strings with no quote or
# backslash, in lists and one-level dicts
_printable = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                   exclude_characters='"\\'))
_big_ints = st.tuples(st.integers(4301, 6000), st.integers(), st.sampled_from((1, -1))).map(
    lambda t: t[2] * (10 ** t[0] + t[1]))
_scalars = st.one_of(st.integers(), _big_ints, st.booleans(), _printable)
_values = st.one_of(_scalars, st.lists(_scalars))
_json_records = st.one_of(_values, st.lists(_values), st.dictionaries(_printable, _values))


@given(_json_records)
def test_json_text_writes_what_json_dumps_writes(record):
    with _unlimited_int_digits():
        assert json_text(record) == json.dumps(record)


@given(st.tuples(_printable, st.sampled_from(['"', "\\", "\n", "\x7f", "é", "−"]), _printable)
       .map("".join))
def test_json_text_refuses_a_string_json_would_escape(text):
    for record in (text, [1, text], {"kind": text}, {text: 1}):
        with pytest.raises(ValueError):
            json_text(record)
