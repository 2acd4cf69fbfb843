"""The compiled codec against the reference interpreter it replaced.

``reference_codec`` is the old schema-walking implementation.  Every
test here is exact: same bytes out, same values back, an error exactly
where the reference has one.  Nothing is timed.
"""

import ast
import gc
import pathlib
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.common.errors import SchemaCompatibilityError, SerializationError
from repro.common.serialization import (
    Field,
    RecordSchema,
    check_compatible,
    decode_record,
    decode_with_resolution,
    encode_record,
    read_varint,
    write_varint,
)

from tests.common import reference_codec as reference

# -- strategies --------------------------------------------------------------

_NUMERIC = ["int", "long", "float", "double"]
_LEAVES = st.sampled_from(["boolean", "bytes", "string"] + _NUMERIC)
# containers of bare "null" are left out: a zero-width item lets one
# flipped count bit turn into 2**60 iterations, in either codec
_TYPES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        inner.map(lambda t: ["null", t]),
        inner.map(lambda t: {"array": t}),
        inner.map(lambda t: {"map": t})),
    max_leaves=4)
_FIELD_TYPES = st.one_of(st.just("null"), _TYPES)
_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


def values_of(ftype):
    if isinstance(ftype, list):
        return st.one_of(st.none(), values_of(ftype[1]))
    if isinstance(ftype, dict):
        if "array" in ftype:
            return st.lists(values_of(ftype["array"]), max_size=3)
        return st.dictionaries(st.text(max_size=4), values_of(ftype["map"]),
                               max_size=3)
    return {
        "null": st.none(),
        "boolean": st.booleans(),
        "int": _INT64,
        "long": _INT64,
        "float": st.floats(width=32, allow_nan=False),
        "double": st.floats(allow_nan=False),
        "bytes": st.binary(max_size=6),
        "string": st.text(max_size=6),
    }[ftype]


@st.composite
def fields(draw, name):
    ftype = draw(_FIELD_TYPES)
    if draw(st.booleans()):
        return Field(name, ftype, default=draw(values_of(ftype)),
                     has_default=True)
    return Field(name, ftype)


@st.composite
def schemas(draw, max_fields=5):
    count = draw(st.integers(min_value=0, max_value=max_fields))
    return RecordSchema(
        "Gen", [draw(fields(f"f{i}")) for i in range(count)])


@st.composite
def records_of(draw, schema):
    record = {}
    for field in schema.fields:
        optional = field.has_default or isinstance(field.type, list)
        if optional and draw(st.booleans()):
            continue        # left to the default / the null branch
        record[field.name] = draw(values_of(field.type))
    return record


@st.composite
def schema_and_record(draw):
    schema = draw(schemas())
    return schema, draw(records_of(schema))


def _promoted(draw, ftype):
    """A type ``ftype`` resolves into: numerics widened, anything made
    nullable, at any depth."""
    if isinstance(ftype, list):
        return ["null", _promoted(draw, ftype[1])]
    if isinstance(ftype, dict):
        kind = "array" if "array" in ftype else "map"
        out = {kind: _promoted(draw, ftype[kind])}
    elif ftype in _NUMERIC:
        out = draw(st.sampled_from(_NUMERIC[_NUMERIC.index(ftype):]))
    else:
        out = ftype
    if out != "null" and draw(st.booleans()):
        return ["null", out]
    return out


@st.composite
def evolutions(draw):
    """(writer, reader, record): the reader drops, widens, makes
    nullable, reorders and adds (defaulted or nullable) fields."""
    writer = draw(schemas())
    kept = [Field(f.name, _promoted(draw, f.type), f.default, f.has_default)
            for f in writer.fields if draw(st.booleans())]
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        added = draw(fields(f"new{i}"))
        if not added.has_default and not isinstance(added.type, list):
            added = Field(added.name, ["null", added.type])
        kept.append(added)
    reader = RecordSchema("Gen", draw(st.permutations(kept)))
    return writer, reader, draw(records_of(writer))


def same(left, right) -> bool:
    """Equality that lets a NaN produced by a flipped bit equal itself."""
    return left == right or repr(left) == repr(right)


def damaged(data: bytes):
    """Every proper prefix and every single-bit flip of ``data``."""
    for cut in range(len(data)):
        yield data[:cut]
    for position in range(len(data) * 8):
        flipped = bytearray(data)
        flipped[position // 8] ^= 1 << (position % 8)
        yield bytes(flipped)


# -- differential: same-schema encode / decode ------------------------------------

@given(schema_and_record())
def test_encode_and_decode_match_the_reference(pair):
    schema, record = pair
    data = encode_record(schema, record)
    assert data == reference.encode_record(schema, record)
    decoded = decode_record(schema, data)
    assert decoded == reference.decode_record(schema, data)
    assert list(decoded) == [f.name for f in schema.fields]


@settings(max_examples=60)
@given(schema_and_record())
def test_damaged_input_fails_exactly_where_the_reference_fails(pair):
    schema, record = pair
    data = encode_record(schema, record)
    assume(len(data) <= 48)
    for bad in damaged(data):
        try:
            expected = reference.decode_record(schema, bad)
        except reference.DECODE_FAILURES:
            with pytest.raises(SerializationError):
                decode_record(schema, bad)
        else:
            assert same(decode_record(schema, bad), expected)


# -- differential: resolution -----------------------------------------------------

@given(evolutions())
def test_resolution_matches_the_reference(case):
    writer, reader, record = case
    data = encode_record(writer, record)
    resolved = decode_with_resolution(writer, reader, data)
    assert resolved == reference.decode_with_resolution(writer, reader, data)
    assert list(resolved) == [f.name for f in reader.fields]
    # a second call runs the cached resolver
    assert decode_with_resolution(writer, reader, data) == resolved


@settings(max_examples=60)
@given(evolutions())
def test_resolution_of_damaged_input_still_raises_on_the_skipped_path(case):
    writer, reader, record = case
    data = encode_record(writer, record)
    assume(len(data) <= 48)
    for bad in damaged(data):
        try:
            expected = reference.decode_with_resolution(writer, reader, bad)
        except UnicodeDecodeError:
            # the reference decoded a dropped string to throw it away; a
            # skipper walks its length only, so either outcome is right
            try:
                decode_with_resolution(writer, reader, bad)
            except SerializationError:
                pass
        except reference.STRUCTURAL_FAILURES:
            with pytest.raises(SerializationError):
                decode_with_resolution(writer, reader, bad)
        else:
            assert same(decode_with_resolution(writer, reader, bad), expected)


@given(schemas(max_fields=3), schemas(max_fields=3))
def test_compatibility_verdict_matches_the_reference(writer, reader):
    try:
        reference.check_compatible(writer, reader)
    except SchemaCompatibilityError:
        for _ in range(2):      # nothing is cached for a pair that fails
            with pytest.raises(SchemaCompatibilityError):
                check_compatible(writer, reader)
            with pytest.raises(SchemaCompatibilityError):
                decode_with_resolution(writer, reader, b"")
    else:
        check_compatible(writer, reader)


# -- the resolution matrix, spelled out -------------------------------------------

V1 = RecordSchema("Doc", [Field("id", "int"), Field("body", "string"),
                          Field("tags", {"array": "int"})])
V1_DATA = encode_record(V1, {"id": 7, "body": "hello", "tags": [1, 2]})


def test_added_field_takes_its_default_and_removed_field_is_skipped():
    reader = RecordSchema("Doc", [
        Field("lang", "string", default="en", has_default=True),
        Field("id", "int"),
        Field("note", ["null", "string"])])
    assert decode_with_resolution(V1, reader, V1_DATA) == {
        "lang": "en", "id": 7, "note": None}


@pytest.mark.parametrize("target, expected", [
    ("int", int), ("long", int), ("float", float), ("double", float)])
def test_numeric_promotion_chain(target, expected):
    reader = RecordSchema("Doc", [Field("id", target),
                                  Field("tags", {"array": target})])
    resolved = decode_with_resolution(V1, reader, V1_DATA)
    assert resolved == {"id": 7, "tags": [1, 2]}
    assert type(resolved["id"]) is expected
    assert {type(tag) for tag in resolved["tags"]} == {expected}


def test_float_widens_to_double_but_long_does_not_narrow():
    writer = RecordSchema("M", [Field("x", "float"), Field("n", "long")])
    data = encode_record(writer, {"x": 1.5, "n": 9})
    wider = RecordSchema("M", [Field("x", "double"), Field("n", "double")])
    assert decode_with_resolution(writer, wider, data) == {"x": 1.5, "n": 9.0}
    with pytest.raises(SchemaCompatibilityError):
        check_compatible(writer, RecordSchema("M", [Field("n", "int")]))


def test_field_made_nullable_keeps_its_value_at_any_depth():
    reader = RecordSchema("Doc", [
        Field("body", ["null", "string"]),
        Field("tags", ["null", {"array": ["null", "double"]}])])
    assert decode_with_resolution(V1, reader, V1_DATA) == {
        "body": "hello", "tags": [1.0, 2.0]}


@pytest.mark.parametrize("reader_fields", [
    [Field("extra", "string")],                         # new, no default
    [Field("id", "string")],                            # int -> string
    [Field("body", {"array": "string"})],               # string -> array
    [Field("tags", {"map": "int"})],                    # array -> map
    [Field("tags", {"array": "boolean"})],              # item type
], ids=["no-default", "retyped", "reshaped", "array-to-map", "item"])
def test_incompatible_pair_raises_on_first_and_later_calls(reader_fields):
    reader = RecordSchema("Doc", reader_fields)
    for _ in range(3):
        with pytest.raises(SchemaCompatibilityError):
            decode_with_resolution(V1, reader, V1_DATA)
    assert reader not in V1._resolvers


def test_nullable_writer_cannot_lose_its_null():
    writer = RecordSchema("N", [Field("x", ["null", "int"])])
    with pytest.raises(SchemaCompatibilityError):
        check_compatible(writer, RecordSchema("N", [Field("x", "int")]))


def test_resolver_is_compiled_once_per_pair_and_dies_with_its_reader():
    reader = RecordSchema("Doc", [Field("id", "long")])
    decode_with_resolution(V1, reader, V1_DATA)
    compiled = V1._resolvers[reader]
    decode_with_resolution(V1, reader, V1_DATA)
    assert V1._resolvers[reader] is compiled
    before = len(V1._resolvers)
    del reader
    gc.collect()
    assert len(V1._resolvers) == before - 1


def test_skipping_walks_the_dropped_fields_to_the_end():
    """A reader that keeps only the first field still walks — and bounds-
    checks — everything behind it."""
    reader = RecordSchema("Doc", [Field("id", "int")])
    assert decode_with_resolution(V1, reader, V1_DATA) == {"id": 7}
    for cut in range(1, len(V1_DATA)):
        with pytest.raises(SerializationError):
            decode_with_resolution(V1, reader, V1_DATA[:cut])
    nothing = RecordSchema("Doc", [])
    assert decode_with_resolution(V1, nothing, V1_DATA) == {}
    with pytest.raises(SerializationError):
        decode_with_resolution(V1, nothing, V1_DATA[:-1])


# -- the wire format, pinned ------------------------------------------------------

PINNED = RecordSchema("Pinned", [
    Field("id", "long"),
    Field("name", "string"),
    Field("nick", ["null", "string"]),
    Field("ratio", "double"),
    Field("weight", "float"),
    Field("ok", "boolean"),
    Field("blob", "bytes"),
    Field("tags", {"array": "string"}, default=[], has_default=True),
    Field("counts", {"map": "int"}),
    Field("nothing", "null"),
])


@pytest.mark.parametrize("record, expected_hex", [
    ({"id": 1, "name": "a", "nick": None, "ratio": 0.0, "weight": 0.0,
      "ok": False, "blob": b"", "counts": {}, "nothing": None},
     "0202610000000000000000000000000000000000"),
    ({"id": -1, "name": "Reid", "nick": "rh", "ratio": 1.5, "weight": -2.0,
      "ok": True, "blob": b"\x00\xff", "tags": ["ceo", "vc"],
      "counts": {"feed": 10, "jobs": -2}, "nothing": None},
     "01085265696402047268000000000000f83f000000c0010400ff0406"
     "63656f04766304086665656414086a6f627303"),
    ({"id": 2 ** 63 - 1, "name": "é" * 40, "nick": None, "ratio": -0.0,
      "weight": 3.4028234663852886e38, "ok": 1, "blob": b"x" * 70,
      "counts": {"k": -(2 ** 63)}, "nothing": None},
     "feffffffffffffffff01" + "a001" + "c3a9" * 40 + "00"
     + "0000000000000080" + "ffff7f7f" + "01" + "8c01" + "78" * 70
     + "00" + "02026bffffffffffffffffff01"),
])
def test_pinned_encode_vectors(record, expected_hex):
    data = encode_record(PINNED, record)
    assert data.hex() == expected_hex
    assert data == reference.encode_record(PINNED, record)
    assert encode_record(PINNED, decode_record(PINNED, data)) == data


def test_varint_primitives_pinned():
    for value, expected_hex in [(0, "00"), (-1, "01"), (1, "02"), (63, "7e"),
                                (-64, "7f"), (64, "8001"), (-65, "8101"),
                                (2 ** 31, "8080808010"),
                                (-(2 ** 63), "ffffffffffffffffff01")]:
        out = bytearray(b"\xaa")
        write_varint(out, value)
        assert out[1:].hex() == expected_hex
        assert read_varint(bytes(out), 1) == (value, len(out))


# -- regressions: the codec accepted what it cannot represent ---------------------

@pytest.mark.parametrize("ftype", ["int", "long"])
@pytest.mark.parametrize("value", [2 ** 63, 2 ** 64 + 5, -(2 ** 63) - 1])
def test_out_of_range_long_is_rejected_not_masked(ftype, value):
    """Was: ``2**63`` decoded back as ``-1`` and ``2**64 + 5`` as ``4``."""
    schema = RecordSchema("T", [Field("n", ftype)])
    with pytest.raises(SerializationError, match=r"T\.n"):
        encode_record(schema, {"n": value})
    nested = RecordSchema("T", [Field("ns", {"array": ["null", ftype]})])
    with pytest.raises(SerializationError, match=r"T\.ns"):
        encode_record(nested, {"ns": [1, None, value]})
    for edge in (2 ** 63 - 1, -(2 ** 63)):
        data = encode_record(schema, {"n": edge})
        assert decode_record(schema, data) == {"n": edge}


@pytest.mark.parametrize("ftype, width", [("float", 4), ("double", 8)])
def test_truncated_float_raises_serialization_error(ftype, width):
    """Was: ``struct.error``, which no caller catches."""
    schema = RecordSchema("F", [Field("s", "string"), Field("x", ftype)])
    data = encode_record(schema, {"s": "ab", "x": 1.25})
    for missing in range(1, width + 1):
        with pytest.raises(SerializationError, match=f"truncated {ftype}"):
            decode_record(schema, data[:-missing])
        with pytest.raises(struct.error):
            reference.decode_record(schema, data[:-missing])


@pytest.mark.parametrize("kind", ["array", "map"])
def test_negative_container_count_is_rejected(kind):
    """Was: ``bytes([5, 14])`` decoded as an empty container and then read
    the next field from inside it."""
    schema = RecordSchema("U", [Field("items", {kind: "int"}),
                                Field("n", "int")])
    with pytest.raises(SerializationError, match=f"negative {kind} count"):
        decode_record(schema, bytes([5, 14]))
    # the skipped path rejects it too
    with pytest.raises(SerializationError, match=f"negative {kind} count"):
        decode_with_resolution(
            schema, RecordSchema("U", [Field("n", "int")]), bytes([5, 14]))


def test_invalid_utf8_raises_serialization_error():
    """Was: ``UnicodeDecodeError`` out of ``decode_record``."""
    schema = RecordSchema("S", [Field("s", "string")])
    with pytest.raises(SerializationError, match="invalid string"):
        decode_record(schema, bytes([4, 0xC3, 0x28]))


def test_encode_errors_name_the_field_and_keep_the_cause():
    schema = RecordSchema("E", [Field("n", "int"), Field("tags", {"array": "int"}),
                                Field("x", "float"), Field("z", "null")])
    good = {"n": 1, "tags": [], "x": 0.0, "z": None}
    for name, bad in [("n", "seven"), ("n", float("inf")), ("tags", 5),
                      ("tags", ["x"]), ("x", 1e300), ("x", None), ("z", 0)]:
        with pytest.raises(SerializationError, match=rf"^E\.{name}: ") as info:
            encode_record(schema, {**good, name: bad})
        assert isinstance(info.value.__cause__,
                          (TypeError, ValueError, OverflowError))
    with pytest.raises(SerializationError, match=r"missing required field E\.n"):
        encode_record(schema, {})


# -- tooling: the three functions are the only way in -----------------------------

SCHEMA_NAMES = {"Field", "RecordSchema", "SchemaRegistry", "check_compatible"}
CODEC_FUNCTIONS = {"encode_record", "decode_record", "decode_with_resolution"}
COMPILED_ATTRIBUTES = {"_encoder", "_decoder", "_resolvers"}


def test_src_reaches_the_codec_only_through_its_three_functions():
    """``perfbench`` traces the codec by patching those three names in
    every module that imported them; a caller that bound anything else —
    a primitive, the module itself, a compiled closure off a schema —
    would drop out of the layer's spans and counts without a sound."""
    root = pathlib.Path(repro.__file__).parent
    offences = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "common" / "serialization.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(root)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "repro.common.serialization":
                    for alias in node.names:
                        if alias.name not in SCHEMA_NAMES | CODEC_FUNCTIONS:
                            offences.append(f"{where}: imports {alias.name}")
                        elif alias.asname not in (None, alias.name):
                            offences.append(f"{where}: renames {alias.name}")
                elif node.module == "repro.common" and any(
                        alias.name == "serialization" for alias in node.names):
                    offences.append(f"{where}: imports the module")
            elif isinstance(node, ast.Import):
                if any(alias.name == "repro.common.serialization"
                       for alias in node.names):
                    offences.append(f"{where}: imports the module")
            elif isinstance(node, ast.Attribute) and \
                    node.attr in COMPILED_ATTRIBUTES:
                offences.append(f"{where}:{node.lineno}: reads .{node.attr}")
    assert offences == []
