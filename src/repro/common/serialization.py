"""Avro-style schemas and binary serialization.

Databus serializes change events with Avro because it is "an open
format" that "allows serialization in the relay without generation of
source-schema specific code" (§III.C); Espresso document schemas "are
represented in JSON in the format specified by Avro" and are "freely
evolvable" under Avro's schema-resolution rules (§IV.A).

This module implements the subset of Avro needed by both systems:

* record schemas declared as JSON-like dicts with primitive, nullable
  (union-with-null), array and map field types;
* a compact binary encoding (zig-zag varints, length-prefixed bytes);
* writer->reader schema resolution: added fields take defaults, removed
  fields are skipped, and numeric promotions (int->long->float->double)
  are applied — mirroring the rules Espresso relies on for promotion of
  stored documents to new schema versions.

The codec is *compiled*, still without schema-specific source: the first
``encode_record`` / ``decode_record`` on a schema composes one closure
per field type into an encoder (appends to one ``bytearray``) and a
decoder (reads ``bytes`` by position), cached on the
:class:`RecordSchema`; the first ``decode_with_resolution`` on a
(writer, reader) pair compiles a resolver, cached on the writer under a
weak reference to the reader.  What depends only on the schemas is
decided then — compatibility, defaults, nullable fallbacks, promotions,
the field path an encode error names, which writer fields to skip — so
nothing walks a schema per datum, and a codec lives as long as its
schemas.  A *skipped* field is still walked length by length and raises
``SerializationError`` on truncation, an over-long varint, an invalid
union branch or a negative count exactly as a read one does, but no
string or bytes is sliced (nor checked to be UTF-8) and no container is
built.  The three module-level functions are the only way in.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable
from weakref import WeakKeyDictionary

from repro.common.errors import (
    SchemaCompatibilityError,
    SchemaError,
    SerializationError,
)

_PRIMITIVES = {"null", "boolean", "int", "long", "float", "double", "bytes", "string"}
_NUMERIC_PROMOTIONS = {
    "int": {"int", "long", "float", "double"},
    "long": {"long", "float", "double"},
    "float": {"float", "double"},
    "double": {"double"},
}


@dataclass(frozen=True)
class Field:
    """One field of a record schema."""

    name: str
    type: object  # primitive name, {"array": t}, {"map": t}, or ["null", t]
    default: object = None
    has_default: bool = False
    indexed: bool = False       # Espresso index constraint (§IV.A)
    free_text: bool = False     # free-text index constraint


class RecordSchema:
    """A named record schema with ordered fields."""

    def __init__(self, name: str, fields: list[Field], version: int = 1):
        if not name:
            raise SchemaError("record schema needs a name")
        seen: set[str] = set()
        for field in fields:
            if field.name in seen:
                raise SchemaError(f"duplicate field {field.name!r} in schema {name!r}")
            seen.add(field.name)
            _validate_type(field.type, name, field.name)
        self.name = name
        self.fields = list(fields)
        self.version = version
        # {reader schema: compiled resolver}; an entry goes with its reader
        self._resolvers: WeakKeyDictionary = WeakKeyDictionary()

    @classmethod
    def parse(cls, document: str | dict) -> "RecordSchema":
        """Parse an Avro-style JSON record declaration."""
        spec = json.loads(document) if isinstance(document, str) else document
        if spec.get("type") != "record":
            raise SchemaError(f"expected a record schema, got {spec.get('type')!r}")
        fields = []
        for fspec in spec.get("fields", []):
            has_default = "default" in fspec
            fields.append(Field(
                name=fspec["name"],
                type=fspec["type"],
                default=fspec.get("default"),
                has_default=has_default,
                indexed=bool(fspec.get("indexed", False)),
                free_text=bool(fspec.get("free_text", False)),
            ))
        return cls(spec["name"], fields, version=int(spec.get("version", 1)))

    def to_json(self) -> dict:
        fields = []
        for field in self.fields:
            fspec: dict = {"name": field.name, "type": field.type}
            if field.has_default:
                fspec["default"] = field.default
            if field.indexed:
                fspec["indexed"] = True
            if field.free_text:
                fspec["free_text"] = True
            fields.append(fspec)
        return {"type": "record", "name": self.name,
                "version": self.version, "fields": fields}

    @property
    def indexed_fields(self) -> list[Field]:
        return [f for f in self.fields if f.indexed or f.free_text]

    @cached_property
    def _encoder(self) -> Callable[[dict], bytes]:
        return _compile_encoder(self)

    @cached_property
    def _decoder(self) -> Callable[[bytes], dict]:
        return _compile_resolver(self, self)

    def __repr__(self) -> str:
        return f"RecordSchema({self.name!r}, v{self.version}, {len(self.fields)} fields)"


def _validate_type(ftype: object, schema: str, field: str) -> None:
    if isinstance(ftype, str):
        if ftype not in _PRIMITIVES:
            raise SchemaError(f"{schema}.{field}: unknown type {ftype!r}")
        return
    if isinstance(ftype, list):  # union: only ["null", X] supported
        if len(ftype) != 2 or ftype[0] != "null":
            raise SchemaError(f"{schema}.{field}: only ['null', T] unions are supported")
        _validate_type(ftype[1], schema, field)
        return
    if isinstance(ftype, dict):
        if "array" in ftype:
            _validate_type(ftype["array"], schema, field)
            return
        if "map" in ftype:
            _validate_type(ftype["map"], schema, field)
            return
    raise SchemaError(f"{schema}.{field}: unsupported type declaration {ftype!r}")


# ---------------------------------------------------------------------------
# encoding: one ``write(out, value)`` per type, composed once per schema
# ---------------------------------------------------------------------------

_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")
_REQUIRED = object()     # fallback of a field with neither default nor null
_DROPPED = object()      # "reader type" of a field the reader does not have


def write_varint(out: bytearray, value: object) -> None:
    """Append the zig-zag varint of ``int(value)``, a signed 64-bit long."""
    number = int(value)  # type: ignore[call-overload]
    if not -(1 << 63) <= number < 1 << 63:
        raise ValueError(f"{number} does not fit a signed 64-bit long")
    encoded = (number << 1) ^ (number >> 63)
    while encoded > 0x7F:
        out.append(encoded & 0x7F | 0x80)
        encoded >>= 7
    out.append(encoded)


def _write_null(out: bytearray, value: object) -> None:
    if value is not None:
        raise ValueError(f"null field got {value!r}")


def _write_boolean(out: bytearray, value: object) -> None:
    out.append(1 if value else 0)


def _fixed_writer(codec: struct.Struct) -> Callable:
    def write(out: bytearray, value: object) -> None:
        out += codec.pack(float(value))  # type: ignore[arg-type]
    return write


def _write_bytes(out: bytearray, value: object) -> None:
    data = bytes(value)  # type: ignore[call-overload]
    write_varint(out, len(data))
    out += data


def _write_string(out: bytearray, value: object) -> None:
    data = str(value).encode("utf-8")
    if len(data) < 64:          # one length byte, inlined: the hottest path
        out.append(len(data) << 1)
    else:
        write_varint(out, len(data))
    out += data


_WRITERS = {"null": _write_null, "boolean": _write_boolean,
            "int": write_varint, "long": write_varint,
            "float": _fixed_writer(_FLOAT), "double": _fixed_writer(_DOUBLE),
            "bytes": _write_bytes, "string": _write_string}


def _writer(ftype: object) -> Callable[[bytearray, object], None]:
    """Compile the writer of one value of ``ftype``."""
    if isinstance(ftype, str):
        return _WRITERS[ftype]
    if isinstance(ftype, list):  # nullable union
        write_inner = _writer(ftype[1])

        def write_nullable(out: bytearray, value: object) -> None:
            if value is None:
                out.append(0)
            else:
                out.append(2)
                write_inner(out, value)
        return write_nullable
    is_array = "array" in ftype
    write_item = _writer(ftype["array" if is_array else "map"])

    def write_array(out: bytearray, value: object) -> None:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected list, got {type(value).__name__}")
        write_varint(out, len(value))
        for item in value:
            write_item(out, item)

    def write_map(out: bytearray, value: object) -> None:
        if not isinstance(value, dict):
            raise TypeError(f"expected dict, got {type(value).__name__}")
        write_varint(out, len(value))
        for key, item in value.items():
            _write_string(out, key)
            write_item(out, item)
    return write_array if is_array else write_map


def _compile_encoder(schema: RecordSchema) -> Callable[[dict], bytes]:
    plan = tuple(
        (field.name, _writer(field.type),
         field.default if field.has_default
         else None if isinstance(field.type, list) else _REQUIRED,
         f"{schema.name}.{field.name}")
        for field in schema.fields)

    def encode(record: dict) -> bytes:
        out = bytearray()
        for name, write, fallback, path in plan:
            try:
                value = record[name]
            except KeyError:
                if fallback is _REQUIRED:
                    raise SerializationError(
                        f"record missing required field {path}") from None
                value = fallback
            try:
                write(out, value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SerializationError(f"{path}: {exc}") from exc
        return bytes(out)
    return encode


def encode_record(schema: RecordSchema, record: dict) -> bytes:
    """Serialize ``record`` (a plain dict) against ``schema``."""
    return schema._encoder(record)


# ---------------------------------------------------------------------------
# decoding and schema resolution (reader vs writer): one
# ``read(data, pos) -> (value, pos)`` per type, composed once per pair
# ---------------------------------------------------------------------------

def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """The zig-zag varint at ``data[pos]`` and the position behind it."""
    shift = accum = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise SerializationError("truncated varint") from None
        pos += 1
        accum |= (byte & 0x7F) << shift
        if byte < 0x80:
            return (accum >> 1) ^ -(accum & 1), pos
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def _read_null(data: bytes, pos: int) -> tuple[None, int]:
    return None, pos


def _read_boolean(data: bytes, pos: int) -> tuple[bool, int]:
    try:
        return data[pos] != 0, pos + 1
    except IndexError:
        raise SerializationError("truncated boolean") from None


def _read_long(data: bytes, pos: int) -> tuple[int, int]:
    try:
        byte = data[pos]
    except IndexError:
        raise SerializationError("truncated varint") from None
    if byte < 0x80:             # one byte, the common case
        return (byte >> 1) ^ -(byte & 1), pos + 1
    return read_varint(data, pos)


def _fixed_reader(codec: struct.Struct, kind: str) -> Callable:
    def read(data: bytes, pos: int) -> tuple[float, int]:
        try:
            return codec.unpack_from(data, pos)[0], pos + codec.size
        except struct.error:
            raise SerializationError(f"truncated {kind}") from None
    return read


def _sized_reader(kind: str, keep: bool) -> Callable:
    """Reader (or skipper) of a length-prefixed ``bytes`` / ``string``."""
    def read(data: bytes, pos: int) -> tuple[object, int]:
        try:
            length = data[pos]
        except IndexError:
            raise SerializationError("truncated varint") from None
        if length < 0x80:       # _read_long's fast path, inlined: hottest
            length = (length >> 1) ^ -(length & 1)
            pos += 1
        else:
            length, pos = read_varint(data, pos)
        end = pos + length
        if length < 0 or end > len(data):
            raise SerializationError(f"truncated {kind}")
        if not keep:
            return None, end
        if kind == "bytes":
            return data[pos:end], end
        try:
            return data[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid string: {exc}") from None
    return read


_READERS = {"null": _read_null, "boolean": _read_boolean,
            "int": _read_long, "long": _read_long,
            "float": _fixed_reader(_FLOAT, "float"),
            "double": _fixed_reader(_DOUBLE, "double"),
            "bytes": _sized_reader("bytes", True),
            "string": _sized_reader("string", True)}
_SKIPPERS = {**_READERS, "bytes": _sized_reader("bytes", False),
             "string": _sized_reader("string", False)}


def _reader(wtype: object, rtype: object, path: str) -> Callable:
    """Compile the reader of a value written as ``wtype`` into the shape
    of ``rtype``, or raise: whether the pair resolves and what is
    promoted are decided here, once.  ``rtype=_DROPPED`` compiles the
    skipper."""
    keep = rtype is not _DROPPED
    while keep and isinstance(rtype, list) and not isinstance(wtype, list):
        rtype = rtype[1]        # made nullable: the value is unchanged
    kind = (None if not isinstance(wtype, dict)
            else "array" if "array" in wtype else "map")
    resolvable = type(wtype) is type(rtype) and (       # same shape, and
        rtype == wtype or rtype in _NUMERIC_PROMOTIONS.get(wtype, ())
        if isinstance(wtype, str)                       # the same or a wider
        else kind is None or kind in rtype)             # leaf / same container
    if keep and not resolvable:
        raise SchemaCompatibilityError(
            f"field {path}: cannot promote {wtype!r} to {rtype!r}")
    if isinstance(wtype, str):
        read = (_READERS if keep else _SKIPPERS)[wtype]
        if keep and wtype in ("int", "long") and rtype in ("float", "double"):
            def read_promoted(data: bytes, pos: int) -> tuple[float, int]:
                value, pos = read(data, pos)
                return float(value), pos
            return read_promoted
        return read
    if isinstance(wtype, list):  # nullable union
        read_inner = _reader(wtype[1], rtype[1] if keep else _DROPPED, path)

        def read_nullable(data: bytes, pos: int) -> tuple[object, int]:
            branch, pos = _read_long(data, pos)
            if branch == 1:
                return read_inner(data, pos)
            if branch != 0:
                raise SerializationError(f"invalid union branch {branch}")
            return None, pos
        return read_nullable
    read_key = (_READERS if keep else _SKIPPERS)["string"]
    read_item = _reader(wtype[kind], rtype[kind] if keep else _DROPPED, path)

    def read_count(data: bytes, pos: int) -> tuple[int, int]:
        count, pos = _read_long(data, pos)
        if count < 0:
            raise SerializationError(f"negative {kind} count {count}")
        return count, pos

    def read_array(data: bytes, pos: int) -> tuple[list | None, int]:
        count, pos = read_count(data, pos)
        items = [] if keep else None
        for _ in range(count):
            item, pos = read_item(data, pos)
            if keep:
                items.append(item)
        return items, pos

    def read_map(data: bytes, pos: int) -> tuple[dict | None, int]:
        count, pos = read_count(data, pos)
        items = {} if keep else None
        for _ in range(count):
            key, pos = read_key(data, pos)
            item, pos = read_item(data, pos)
            if keep:
                items[key] = item
        return items, pos
    return read_array if kind == "array" else read_map


def _compile_resolver(writer: RecordSchema,
                      reader: RecordSchema) -> Callable[[bytes], dict]:
    """Compile ``bytes -> dict`` for data written under ``writer`` and
    read as ``reader``, or raise :class:`SchemaCompatibilityError`.
    Compatibility, defaults, promotions and which fields to skip are
    settled here; the closure keeps no reference to either schema."""
    written = {f.name for f in writer.fields}
    for f in reader.fields:
        if not (f.name in written or f.has_default
                or isinstance(f.type, list)):
            raise SchemaCompatibilityError(
                f"reader field {reader.name}.{f.name} is new but has no default")
    wanted = {f.name: f.type for f in reader.fields}
    plan = tuple((f.name if f.name in wanted else None,
                  _reader(f.type, wanted.get(f.name, _DROPPED),
                          f"{reader.name}.{f.name}"))
                 for f in writer.fields)
    # reader order; what the writer wrote overwrites its slot below
    template = {f.name: f.default if f.has_default else None
                for f in reader.fields}

    def resolve(data: bytes) -> dict:
        if type(data) is not bytes:
            data = bytes(data)
        pos = 0
        record = template.copy()
        for name, read in plan:
            value, pos = read(data, pos)
            if name is not None:
                record[name] = value
        return record
    return resolve


def check_compatible(writer: RecordSchema, reader: RecordSchema) -> None:
    """Raise unless data written with ``writer`` is readable with ``reader``.

    This is the check Espresso applies when a new document-schema
    version is posted: "new document schemas must be compatible
    according to the Avro schema resolution rules" (§IV.A).
    """
    _compile_resolver(writer, reader)


def decode_record(schema: RecordSchema, data: bytes) -> dict:
    """Deserialize bytes written with the same schema."""
    return schema._decoder(data)


def decode_with_resolution(writer: RecordSchema, reader: RecordSchema,
                           data: bytes) -> dict:
    """Decode bytes written under ``writer`` into ``reader``'s shape.

    Fields the reader dropped are skipped; fields the reader added are
    filled from defaults; numeric promotions are applied.
    """
    resolvers = writer._resolvers
    resolve = resolvers.get(reader)
    if resolve is None:     # an incompatible pair raises here, every time
        resolve = resolvers[reader] = _compile_resolver(writer, reader)
    return resolve(data)


class SchemaRegistry:
    """Versioned schema storage, keyed by (name, version).

    Espresso stores "the schema version needed to deserialize the stored
    document" next to each row (§IV.A / Table IV.1); Databus relays
    stamp events with the schema version of their payload.
    """

    def __init__(self):
        self._schemas: dict[tuple[str, int], RecordSchema] = {}
        self._latest: dict[str, int] = {}

    def register(self, schema: RecordSchema) -> int:
        """Register a schema; new versions must be backward compatible."""
        latest = self.latest(schema.name)
        if latest is not None:
            check_compatible(latest, schema)
            version = latest.version + 1
        else:
            version = 1
        registered = RecordSchema(schema.name, schema.fields, version=version)
        self._schemas[(schema.name, version)] = registered
        self._latest[schema.name] = version
        return version

    def register_exact(self, schema: RecordSchema) -> None:
        """Store a schema under its declared version (replication path:
        a downstream registry mirroring an upstream one verbatim)."""
        key = (schema.name, schema.version)
        if key in self._schemas:
            return
        self._schemas[key] = schema
        if schema.version > self._latest.get(schema.name, 0):
            self._latest[schema.name] = schema.version

    def get(self, name: str, version: int) -> RecordSchema:
        try:
            return self._schemas[(name, version)]
        except KeyError:
            raise SchemaError(f"no schema {name!r} version {version}") from None

    def latest(self, name: str) -> RecordSchema | None:
        version = self._latest.get(name)
        return self._schemas[(name, version)] if version else None

    def names(self) -> list[str]:
        return sorted(self._latest)
