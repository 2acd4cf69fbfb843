"""Avro-style serialization and schema resolution."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import (
    SchemaCompatibilityError,
    SchemaError,
    SerializationError,
)
from repro.common.serialization import (
    Field,
    RecordSchema,
    SchemaRegistry,
    check_compatible,
    decode_record,
    decode_with_resolution,
    encode_record,
)

PROFILE_V1 = RecordSchema("Profile", [
    Field("member_id", "long"),
    Field("name", "string"),
    Field("headline", ["null", "string"]),
    Field("skills", {"array": "string"}, default=[], has_default=True),
])


def test_roundtrip_simple_record():
    record = {"member_id": 7, "name": "Reid", "headline": None, "skills": ["ceo"]}
    data = encode_record(PROFILE_V1, record)
    assert decode_record(PROFILE_V1, data) == record


def test_defaults_applied_on_encode():
    data = encode_record(PROFILE_V1, {"member_id": 1, "name": "x"})
    decoded = decode_record(PROFILE_V1, data)
    assert decoded["skills"] == []
    assert decoded["headline"] is None


def test_missing_required_field_rejected():
    with pytest.raises(SerializationError):
        encode_record(PROFILE_V1, {"name": "no id"})


def test_parse_and_to_json_roundtrip():
    spec = PROFILE_V1.to_json()
    parsed = RecordSchema.parse(spec)
    assert [f.name for f in parsed.fields] == [f.name for f in PROFILE_V1.fields]


def test_parse_rejects_non_record():
    with pytest.raises(SchemaError):
        RecordSchema.parse({"type": "enum", "name": "X"})


def test_unknown_primitive_rejected():
    with pytest.raises(SchemaError):
        RecordSchema("Bad", [Field("x", "decimal")])


def test_duplicate_field_rejected():
    with pytest.raises(SchemaError):
        RecordSchema("Bad", [Field("x", "int"), Field("x", "int")])


def test_map_and_nested_types_roundtrip():
    schema = RecordSchema("Counts", [
        Field("by_page", {"map": "long"}),
        Field("tags", {"array": ["null", "string"]}),
    ])
    record = {"by_page": {"feed": 10, "jobs": 2}, "tags": ["a", None]}
    assert decode_record(schema, encode_record(schema, record)) == record


# -- schema evolution --------------------------------------------------------

def test_added_field_with_default_is_compatible():
    v2 = RecordSchema("Profile", PROFILE_V1.fields + [
        Field("industry", "string", default="unknown", has_default=True)])
    check_compatible(PROFILE_V1, v2)
    data = encode_record(PROFILE_V1, {"member_id": 1, "name": "a"})
    decoded = decode_with_resolution(PROFILE_V1, v2, data)
    assert decoded["industry"] == "unknown"


def test_added_field_without_default_is_incompatible():
    v2 = RecordSchema("Profile", PROFILE_V1.fields + [Field("industry", "string")])
    with pytest.raises(SchemaCompatibilityError):
        check_compatible(PROFILE_V1, v2)


def test_removed_field_is_skipped_on_read():
    v2 = RecordSchema("Profile", [f for f in PROFILE_V1.fields if f.name != "headline"])
    data = encode_record(PROFILE_V1,
                         {"member_id": 1, "name": "a", "headline": "boss"})
    decoded = decode_with_resolution(PROFILE_V1, v2, data)
    assert "headline" not in decoded


def test_numeric_promotion_int_to_double():
    v1 = RecordSchema("Score", [Field("value", "int")])
    v2 = RecordSchema("Score", [Field("value", "double")])
    data = encode_record(v1, {"value": 42})
    assert decode_with_resolution(v1, v2, data) == {"value": 42.0}


def test_narrowing_promotion_rejected():
    v1 = RecordSchema("Score", [Field("value", "double")])
    v2 = RecordSchema("Score", [Field("value", "int")])
    with pytest.raises(SchemaCompatibilityError):
        check_compatible(v1, v2)


def test_field_made_nullable_is_compatible():
    v1 = RecordSchema("Doc", [Field("body", "string")])
    v2 = RecordSchema("Doc", [Field("body", ["null", "string"])])
    data = encode_record(v1, {"body": "hello"})
    assert decode_with_resolution(v1, v2, data) == {"body": "hello"}


def test_registry_assigns_monotonic_versions():
    registry = SchemaRegistry()
    v1 = registry.register(PROFILE_V1)
    v2 = registry.register(RecordSchema("Profile", PROFILE_V1.fields + [
        Field("industry", "string", default="", has_default=True)]))
    assert (v1, v2) == (1, 2)
    assert registry.latest("Profile").version == 2
    assert registry.get("Profile", 1).version == 1


def test_registry_rejects_incompatible_evolution():
    registry = SchemaRegistry()
    registry.register(PROFILE_V1)
    bad = RecordSchema("Profile", [Field("member_id", "string"), Field("name", "string")])
    with pytest.raises(SchemaCompatibilityError):
        registry.register(bad)


# -- property-based roundtrips -----------------------------------------------

_field_values = st.fixed_dictionaries({
    "member_id": st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    "name": st.text(max_size=50),
    "headline": st.one_of(st.none(), st.text(max_size=20)),
    "skills": st.lists(st.text(max_size=10), max_size=5),
})


@given(_field_values)
def test_roundtrip_property(record):
    assert decode_record(PROFILE_V1, encode_record(PROFILE_V1, record)) == record


@given(st.integers(min_value=-(2 ** 62), max_value=2 ** 62))
def test_varint_roundtrip(value):
    from repro.common.serialization import read_varint, write_varint
    out = bytearray()
    write_varint(out, value)
    assert read_varint(bytes(out), 0) == (value, len(out))
