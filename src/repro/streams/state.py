"""Task-local keyed state: a dict image, the changelog record of every
live key, and all-or-nothing snapshot images on the container's disk.

Samza's state story (SNIPPETS.md §8) is reproduced structurally:

* the *store* is task-local and in-memory — reads and writes never
  leave the process, which is what makes stateful stream compute fast;
* ``put``/``delete`` only mark the key dirty.  At commit the owning task
  calls :meth:`KeyedStateStore.drain` — **one record per dirty key**,
  its absolute value now or a tombstone — and publishes the records to
  its **changelog topic** partition; the store itself never talks to
  Kafka (layering: state below, transport above);
* the store keeps the record bytes of every live key (``drain`` files
  what it encoded, ``restore`` what it decoded), so a record is encoded
  once and then only copied: the snapshot barrier and the snapshot
  image are both :meth:`KeyedStateStore.records`, as they are;
* durability of the local image is a **snapshot**: those records plus
  the changelog offset they cover, written as one framed image
  (:func:`repro.common.wal.write_image`: temp file, fsync, atomic
  rename).  Recovery loads the snapshot and replays the changelog
  *suffix* from the snapshot's offset — the log+snapshot bootstrap
  shape Databus already uses (DESIGN.md §9).  A snapshot that is not a
  complete image is rejected on every load, never half-applied.

Values are JSON-serializable objects; keys are strings.  A value
belongs to the store once ``put`` — it is encoded at the next drain,
not at the call.  Records are **idempotent upserts**: the absolute new
value (or a tombstone), never a delta, so replaying a record twice is
harmless — the property the at-least-once recovery contract leans on.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from json.scanner import make_scanner

from repro.common.errors import ChecksumError, ConfigurationError
from repro.common.storage import Disk
from repro.common.wal import read_image, write_image

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The encoder ``_ENCODER.encode`` would build on every call, built once
# with the same nine arguments; it shares one circular-reference
# markers dict across calls, which an encode that raises must clear.
_MARKERS: dict[int, object] = {}
_C_ENCODE = None if c_make_encoder is None else c_make_encoder(
    _MARKERS, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)
_SCAN = make_scanner(json.JSONDecoder())


def encode_json(obj: object) -> bytes:
    """The stream tier's one canonical JSON form: sorted keys, no
    whitespace — records, wire envelopes and fingerprints alike.
    Byte-equal to ``json.dumps(obj, sort_keys=True,
    separators=(",", ":")).encode()``."""
    if _C_ENCODE is None or isinstance(obj, str):
        return _ENCODER.encode(obj).encode()
    try:
        return "".join(_C_ENCODE(obj, 0)).encode()
    except BaseException:
        _MARKERS.clear()    # an aborted encode leaves its open containers
        raise


def decode_json(payload: bytes) -> object:
    """``json.loads(payload)``, minus its encoding sniff and whitespace
    regexes on the common input: UTF-8 text that is exactly one JSON
    value.  Anything else — a BOM, UTF-16/32, padding, trailing data,
    a lone surrogate, malformed input — goes to ``json.loads`` on the
    original bytes, so the result or exception is always its own."""
    try:
        text = payload.decode()
        obj, end = _SCAN(text, 0)
    except (ValueError, StopIteration):
        return json.loads(payload)
    if end != len(text):
        return json.loads(payload)
    return obj


def encode_record(key: str, value: object | None) -> bytes:
    """One state record — a changelog message and a snapshot image
    entry are both exactly this; ``value=None`` is a tombstone."""
    return encode_json({"k": key, "v": value})


def decode_record(payload: bytes) -> tuple[str, object | None]:
    record = decode_json(payload)
    return record["k"], record["v"]


class KeyedStateStore:
    """One named key/value store owned by exactly one task."""

    def __init__(self, name: str):
        if not name:
            raise ConfigurationError("store needs a name")
        self.name = name
        self._data: dict[str, object] = {}
        self._records: dict[str, bytes] = {}    # live key -> its record
        self._dirty: dict[str, None] = {}       # first-dirtied order
        self.puts = 0
        self.deletes = 0
        self.gets = 0

    # -- read path --------------------------------------------------------

    def get(self, key: str) -> object | None:
        self.gets += 1
        return self._data.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> list[str]:
        """Keys in sorted order — iteration never leaks dict history."""
        return sorted(self._data)

    def items(self) -> list[tuple[str, object]]:
        return sorted(self._data.items())

    def range(self, prefix: str) -> list[tuple[str, object]]:
        """Sorted (key, value) pairs whose key starts with ``prefix`` —
        the windowed-counter scans the serving API runs."""
        return sorted(item for item in self._data.items()
                      if item[0].startswith(prefix))

    # -- write path -------------------------------------------------------

    def put(self, key: str, value: object) -> None:
        """Upsert; the store owns ``value`` from here on."""
        if value is None:
            raise ConfigurationError(
                "None is the tombstone; use delete() to remove a key")
        self._data[key] = value
        self._dirty[key] = None
        self.puts += 1

    def delete(self, key: str) -> None:
        self._data.pop(key, None)
        self._dirty[key] = None
        self.deletes += 1

    def drain(self) -> list[bytes]:
        """The changelog records of every key mutated since the last
        drain, in first-dirtied order: one per key, carrying the value
        it has *now* (a tombstone if it is gone)."""
        records = []
        for key in self._dirty:
            value = self._data.get(key)
            record = encode_record(key, value)
            if value is None:
                self._records.pop(key, None)
            else:
                self._records[key] = record
            records.append(record)
        self._dirty.clear()
        return records

    def records(self) -> list[bytes]:
        """The record of every live key, in key order — the snapshot
        barrier and the snapshot image, without encoding anything."""
        if self._dirty:
            raise ConfigurationError(
                f"store {self.name!r} has un-drained mutations; its "
                "records would be a stale image")
        return [self._records[key] for key in sorted(self._records)]

    # -- replay path ------------------------------------------------------

    def restore(self, records: list[bytes]) -> int:
        """Apply changelog/snapshot records without re-logging them,
        keeping each as its key's record; returns how many."""
        for record in records:
            key, value = decode_record(record)
            if value is None:
                self._data.pop(key, None)
                self._records.pop(key, None)
            else:
                self._data[key] = value
                self._records[key] = record
        return len(records)

    def clear(self) -> None:
        self._data.clear()
        self._records.clear()
        self._dirty.clear()

    # -- fingerprinting ---------------------------------------------------

    def fingerprint(self, exclude_prefix: str | None = None) -> bytes:
        """Canonical bytes of the image — what the chaos suite
        byte-compares between a failure run and its clean twin.

        ``exclude_prefix`` filters out bookkeeping keys (the dedupe
        watermarks) whose values track physical log offsets: those
        legitimately differ between a failure run and a clean run even
        when the application state is byte-identical.
        """
        entries = self.items()
        if exclude_prefix is not None:
            entries = [(key, value) for key, value in entries
                       if not key.startswith(exclude_prefix)]
        return encode_json(entries)


# -- snapshots -------------------------------------------------------------

_SNAPSHOT_VERSION = 2       # v2: an image entry *is* a changelog record


def write_snapshot(disk: Disk, path: str, store_name: str,
                   records: list[bytes], changelog_offset: int) -> None:
    """Write a store's :meth:`~KeyedStateStore.records` + the changelog
    offset they cover, atomically.

    One image: a header payload, then the records as they are.  A crash
    at any point leaves either the old snapshot or the new one, never a
    torn mix.
    """
    header = {"version": _SNAPSHOT_VERSION, "store": store_name,
              "changelog_offset": changelog_offset}
    write_image(disk, path, [encode_json(header), *records])


def load_snapshot(disk: Disk, path: str,
                  store: KeyedStateStore) -> int | None:
    """Load a snapshot into ``store`` (replacing its contents).

    Returns the changelog offset the snapshot covers, or ``None`` when
    no usable snapshot exists (missing file, damaged image, wrong
    store, another format version) — the caller then falls back to a
    full changelog replay.  A torn or corrupt snapshot is rejected
    entirely rather than half-loaded: the header's offset would skip
    the changelog records of whatever entries were lost.
    """
    try:
        payloads = read_image(disk, path)
    except ChecksumError:
        return None
    if not payloads:
        return None
    header = decode_json(payloads[0])
    if (header.get("version") != _SNAPSHOT_VERSION
            or header.get("store") != store.name):
        return None
    store.clear()
    store.restore(payloads[1:])
    return int(header["changelog_offset"])
