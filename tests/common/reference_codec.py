"""The schema-walking Avro interpreter, kept as the test-side reference.

This is ``repro.common.serialization`` as it was before the compiled
codec replaced it: it walks the schema tree per datum through an
``io.BytesIO``.  It is slow and obviously right, which is what a
reference model is for; `test_serialization_compiled.py` holds the
compiled codec to it byte for byte.

It keeps the interpreter's known defects so that the differential tests
can say exactly where the two are *meant* to differ:

* out-of-range longs are masked on encode, not rejected;
* a truncated float/double raises ``struct.error``, a length beyond
  ``sys.maxsize`` ``OverflowError`` and an invalid UTF-8 string
  ``UnicodeDecodeError`` instead of ``SerializationError``;
* a negative array/map count decodes as an empty container.  The
  interpreter went on reading from the wrong place; the reference
  raises :class:`NegativeCount` at that point instead, so a test can
  tell "the reference accepted garbage here" from "both decoded it".
"""

from __future__ import annotations

import io
import struct

from repro.common.errors import SchemaCompatibilityError, SerializationError
from repro.common.serialization import RecordSchema

class NegativeCount(Exception):
    """Marks the point where the interpreter accepted a negative count."""


#: what the reference raises where the bytes are structurally damaged —
#: the compiled codec raises ``SerializationError`` for all of them,
#: reading or skipping
STRUCTURAL_FAILURES = (SerializationError, struct.error, OverflowError,
                       NegativeCount)
#: ... and where a string is not UTF-8, which only a *read* string checks
DECODE_FAILURES = STRUCTURAL_FAILURES + (UnicodeDecodeError,)


def _zigzag_encode(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def write_varint(buf: io.BytesIO, value: int) -> None:
    encoded = _zigzag_encode(value) & 0xFFFFFFFFFFFFFFFF
    while True:
        byte = encoded & 0x7F
        encoded >>= 7
        if encoded:
            buf.write(bytes([byte | 0x80]))
        else:
            buf.write(bytes([byte]))
            return


def read_varint(buf: io.BytesIO) -> int:
    shift = 0
    accum = 0
    while True:
        raw = buf.read(1)
        if not raw:
            raise SerializationError("truncated varint")
        byte = raw[0]
        accum |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return _zigzag_decode(accum)
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def _encode_value(buf: io.BytesIO, ftype: object, value: object, path: str) -> None:
    if isinstance(ftype, list):  # nullable union
        if value is None:
            write_varint(buf, 0)
            return
        write_varint(buf, 1)
        _encode_value(buf, ftype[1], value, path)
        return
    if isinstance(ftype, dict):
        if "array" in ftype:
            if not isinstance(value, (list, tuple)):
                raise SerializationError(f"{path}: expected list, got {type(value).__name__}")
            write_varint(buf, len(value))
            for i, item in enumerate(value):
                _encode_value(buf, ftype["array"], item, f"{path}[{i}]")
            return
        if "map" in ftype:
            if not isinstance(value, dict):
                raise SerializationError(f"{path}: expected dict, got {type(value).__name__}")
            write_varint(buf, len(value))
            for key, item in value.items():
                _encode_primitive(buf, "string", key, path)
                _encode_value(buf, ftype["map"], item, f"{path}[{key!r}]")
            return
    _encode_primitive(buf, ftype, value, path)


def _encode_primitive(buf: io.BytesIO, ftype: object, value: object, path: str) -> None:
    try:
        if ftype == "null":
            if value is not None:
                raise SerializationError(f"{path}: null field got {value!r}")
        elif ftype == "boolean":
            buf.write(b"\x01" if value else b"\x00")
        elif ftype in ("int", "long"):
            write_varint(buf, int(value))  # type: ignore[arg-type]
        elif ftype == "float":
            buf.write(struct.pack("<f", float(value)))  # type: ignore[arg-type]
        elif ftype == "double":
            buf.write(struct.pack("<d", float(value)))  # type: ignore[arg-type]
        elif ftype == "bytes":
            data = bytes(value)  # type: ignore[arg-type]
            write_varint(buf, len(data))
            buf.write(data)
        elif ftype == "string":
            data = str(value).encode("utf-8")
            write_varint(buf, len(data))
            buf.write(data)
        else:
            raise SerializationError(f"{path}: cannot encode type {ftype!r}")
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{path}: {exc}") from exc


def _read_count(buf: io.BytesIO) -> int:
    count = read_varint(buf)
    if count < 0:
        raise NegativeCount(count)
    return count


def _decode_value(buf: io.BytesIO, ftype: object) -> object:
    if isinstance(ftype, list):
        branch = read_varint(buf)
        if branch == 0:
            return None
        if branch != 1:
            raise SerializationError(f"invalid union branch {branch}")
        return _decode_value(buf, ftype[1])
    if isinstance(ftype, dict):
        if "array" in ftype:
            count = _read_count(buf)
            return [_decode_value(buf, ftype["array"]) for _ in range(count)]
        if "map" in ftype:
            count = _read_count(buf)
            out = {}
            for _ in range(count):
                key = _decode_primitive(buf, "string")
                out[key] = _decode_value(buf, ftype["map"])
            return out
    return _decode_primitive(buf, ftype)


def _decode_primitive(buf: io.BytesIO, ftype: object) -> object:
    if ftype == "null":
        return None
    if ftype == "boolean":
        raw = buf.read(1)
        if not raw:
            raise SerializationError("truncated boolean")
        return raw[0] != 0
    if ftype in ("int", "long"):
        return read_varint(buf)
    if ftype == "float":
        return struct.unpack("<f", buf.read(4))[0]
    if ftype == "double":
        return struct.unpack("<d", buf.read(8))[0]
    if ftype == "bytes":
        length = read_varint(buf)
        data = buf.read(length)
        if len(data) != length:
            raise SerializationError("truncated bytes")
        return data
    if ftype == "string":
        length = read_varint(buf)
        data = buf.read(length)
        if len(data) != length:
            raise SerializationError("truncated string")
        return data.decode("utf-8")
    raise SerializationError(f"cannot decode type {ftype!r}")


def encode_record(schema: RecordSchema, record: dict) -> bytes:
    buf = io.BytesIO()
    for field in schema.fields:
        if field.name in record:
            value = record[field.name]
        elif field.has_default:
            value = field.default
        elif isinstance(field.type, list):
            value = None
        else:
            raise SerializationError(
                f"record missing required field {schema.name}.{field.name}")
        _encode_value(buf, field.type, value, f"{schema.name}.{field.name}")
    return buf.getvalue()


def decode_record(schema: RecordSchema, data: bytes) -> dict:
    buf = io.BytesIO(data)
    return {f.name: _decode_value(buf, f.type) for f in schema.fields}


_NUMERIC_PROMOTIONS = {
    "int": {"int", "long", "float", "double"},
    "long": {"long", "float", "double"},
    "float": {"float", "double"},
    "double": {"double"},
}


def _types_resolvable(writer: object, reader: object) -> bool:
    if isinstance(writer, str) and isinstance(reader, str):
        if writer == reader:
            return True
        return reader in _NUMERIC_PROMOTIONS.get(writer, set())
    if isinstance(writer, list) and isinstance(reader, list):
        return _types_resolvable(writer[1], reader[1])
    if isinstance(writer, dict) and isinstance(reader, dict):
        if "array" in writer and "array" in reader:
            return _types_resolvable(writer["array"], reader["array"])
        if "map" in writer and "map" in reader:
            return _types_resolvable(writer["map"], reader["map"])
    # promotion of a concrete type into a nullable union of a compatible type
    if isinstance(reader, list) and not isinstance(writer, list):
        return _types_resolvable(writer, reader[1])
    return False


def check_compatible(writer: RecordSchema, reader: RecordSchema) -> None:
    written = {f.name: f.type for f in writer.fields}
    for rfield in reader.fields:
        if rfield.name not in written:
            if not rfield.has_default and not isinstance(rfield.type, list):
                raise SchemaCompatibilityError(
                    f"reader field {reader.name}.{rfield.name} is new but has no default")
            continue
        if not _types_resolvable(written[rfield.name], rfield.type):
            raise SchemaCompatibilityError(
                f"field {reader.name}.{rfield.name}: cannot promote "
                f"{written[rfield.name]!r} to {rfield.type!r}")


def _promote(value: object, writer_type: object, reader_type: object) -> object:
    if isinstance(reader_type, list) and not isinstance(writer_type, list):
        return _promote(value, writer_type, reader_type[1])
    if isinstance(writer_type, str) and isinstance(reader_type, str):
        if writer_type in ("int", "long") and reader_type in ("float", "double"):
            return float(value)  # type: ignore[arg-type]
    if isinstance(writer_type, list) and isinstance(reader_type, list):
        if value is None:
            return None
        return _promote(value, writer_type[1], reader_type[1])
    if isinstance(writer_type, dict) and isinstance(reader_type, dict):
        if "array" in writer_type:
            return [_promote(v, writer_type["array"], reader_type["array"])
                    for v in value]  # type: ignore[union-attr]
        if "map" in writer_type:
            return {k: _promote(v, writer_type["map"], reader_type["map"])
                    for k, v in value.items()}  # type: ignore[union-attr]
    return value


def decode_with_resolution(writer: RecordSchema, reader: RecordSchema,
                           data: bytes) -> dict:
    check_compatible(writer, reader)
    buf = io.BytesIO(data)
    raw: dict[str, object] = {}
    for wfield in writer.fields:
        raw[wfield.name] = _decode_value(buf, wfield.type)
    written = {f.name: f.type for f in writer.fields}
    out: dict[str, object] = {}
    for rfield in reader.fields:
        if rfield.name in raw:
            out[rfield.name] = _promote(raw[rfield.name],
                                        written[rfield.name], rfield.type)
        elif rfield.has_default:
            out[rfield.name] = rfield.default
        else:
            out[rfield.name] = None
    return out
