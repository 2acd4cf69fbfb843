"""Log-structured on-disk engine — the BerkeleyDB JE stand-in.

The paper uses BDB-JE (itself a log-structured B-tree) for read-write
traffic (§II.B).  We reproduce the properties that matter to Voldemort:
durable writes via an append-only log, fast point reads via an
in-memory key index, crash recovery by log replay, CRC detection of
torn writes, and compaction that drops superseded versions.

``data.log`` is a :class:`~repro.common.wal.WriteAheadLog`: the kernel
owns the checksummed frame, the torn-tail rule, the checked read of a
frame and the atomic compaction swap.  This module owns what goes
inside a frame (little-endian):

    body = [key_len : 4B][key]
           [clock_count : 2B][(node_id : 8B, counter : 8B) * count]
           [flags : 1B]                # bit 0: tombstone
           [value_len : 4B][value]

A ``put`` appends the body in two parts: the *head* (everything before
the value) and the value itself, so the frame on disk is byte for byte
the one ``encode_body`` frames, but the log holds the caller's value
object instead of a copy of it (the kernel fuses its header onto the
head and hands the value to the disk as a gather write).  A compaction
reads each live record back in the same two parts and rewrites them
as one gather write, so the value it stored is kept, not copied.

The in-memory index maps key -> list of (clock, offset, length,
tombstone) so the multi-version merge never touches disk; only value
reads do.  ``length`` is the whole frame, so a ``get`` makes one
positioned read per live version: the kernel checks the frame's length
and CRC, and the engine checks the key and slices out the value,
stepping over the clock without decoding it (the index holds it).
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.common.errors import ChecksumError, KeyNotFoundError
from repro.common.vectorclock import VectorClock, merge_frontier
from repro.common.wal import FRAME_OVERHEAD, WriteAheadLog
from repro.simnet.disk import Disk
from repro.voldemort.engines.base import StorageEngine
from repro.voldemort.versioned import Versioned

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_CLOCK_ENTRY = struct.Struct("<QQ")
_FLAG_TOMBSTONE = 0x01
_TOMBSTONE, _LIVE = bytes([_FLAG_TOMBSTONE]), bytes([0])


def _encode_clock(clock: VectorClock) -> list[bytes]:
    """The clock's packed parts: its count, then each pair in node
    order, straight from the clock's sorted tuple."""
    pairs = clock.pairs
    return [_U16.pack(len(pairs)), *[_CLOCK_ENTRY.pack(*p) for p in pairs]]


def _decode_clock(data: bytes, offset: int) -> tuple[VectorClock, int]:
    (count,) = _U16.unpack_from(data, offset)
    offset += _U16.size
    entries = {}
    for _ in range(count):
        node, counter = _CLOCK_ENTRY.unpack_from(data, offset)
        offset += _CLOCK_ENTRY.size
        entries[node] = counter
    return VectorClock(entries), offset


def _encode_parts(key: bytes, versioned: Versioned) -> tuple[bytes, bytes]:
    """The body as ``(head, value)``: the head is every field before the
    value, and the value is ``versioned.value`` itself (``b""`` for a
    tombstone)."""
    value = versioned.value
    if value is None:
        value, flags = b"", _TOMBSTONE
    else:
        flags = _LIVE
    head = b"".join((_U32.pack(len(key)), key,
                     *_encode_clock(versioned.clock),
                     flags, _U32.pack(len(value))))
    return head, value


def _value_at(key_len: int, clock_count: int) -> int:
    """Where a body's value starts: past the key, the clock, the flags
    byte and the value's length."""
    return (_U32.size + key_len + _U16.size + _CLOCK_ENTRY.size * clock_count
            + 1 + _U32.size)


def encode_body(key: bytes, versioned: Versioned) -> bytes:
    head, value = _encode_parts(key, versioned)
    return head + value


def decode_body(body: bytes) -> tuple[bytes, Versioned]:
    (key_len,) = _U32.unpack_from(body, 0)
    offset = _U32.size
    key = body[offset:offset + key_len]
    offset += key_len
    clock, offset = _decode_clock(body, offset)
    flags = body[offset]
    offset += 1
    (value_len,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    value = body[offset:offset + value_len]
    if flags & _FLAG_TOMBSTONE:
        return key, Versioned(None, clock)
    return key, Versioned(bytes(value), clock)


class _IndexEntry:
    __slots__ = ("clock", "offset", "length", "tombstone")

    def __init__(self, clock: VectorClock, offset: int, length: int,
                 tombstone: bool):
        self.clock = clock
        self.offset = offset
        self.length = length
        self.tombstone = tombstone


class LogStructuredEngine(StorageEngine):
    """Append-only log + in-memory index, with recovery and compaction."""

    name = "log-structured"
    LOG_NAME = "data.log"

    def __init__(self, directory: str, disk: Disk):
        self.directory = directory
        self.disk = disk
        self._index: dict[bytes, list[_IndexEntry]] = {}
        self._log = WriteAheadLog(f"{directory}/{self.LOG_NAME}", disk)
        self.torn_bytes_truncated = self._log.truncated_bytes
        for offset, body in self._log.frames():
            key, versioned = decode_body(body)
            self._index_put(key, versioned, offset,
                            FRAME_OVERHEAD + len(body))

    def _index_put(self, key: bytes, versioned: Versioned, offset: int,
                   length: int) -> None:
        """Index update: apply merge rules.  During recovery a stale
        replayed record is skipped rather than raising (the log already
        accepted it once); ``put`` has raised for those beforehand."""
        survivors = merge_frontier(
            self._index.get(key, ()),
            _IndexEntry(versioned.clock, offset, length,
                        versioned.is_tombstone))
        if survivors is None:
            return  # record superseded later in the log
        self._index[key] = survivors

    # -- StorageEngine interface ------------------------------------------

    def get(self, key: bytes) -> list[Versioned]:
        entries = [e for e in self._index.get(key, ()) if not e.tombstone]
        if not entries:
            raise KeyNotFoundError(repr(key))
        return [Versioned(self._read_value(key, entry), entry.clock)
                for entry in entries]

    def _read_value(self, key: bytes, entry: _IndexEntry) -> bytes:
        """The value of the record ``entry`` names: one positioned read
        of the whole frame, then a slice.  The clock is stepped over,
        not decoded: the index already holds it."""
        body = self._log.read(entry.offset, entry.length)
        (key_len,) = _U32.unpack_from(body, 0)
        if key_len != len(key) or not body.startswith(key, _U32.size):
            stored = body[_U32.size:_U32.size + key_len]
            raise ChecksumError(f"index pointed {key!r} at record for {stored!r}")
        (count,) = _U16.unpack_from(body, _U32.size + key_len)
        # the value runs to the end of the body
        return body[_value_at(key_len, count):]

    def put(self, key: bytes, versioned: Versioned) -> None:
        # enforce the version contract against the in-memory clocks first
        self.merge_version(self._index.get(key, ()), versioned)
        head, value = _encode_parts(key, versioned)
        # the value goes to the log by reference: no replica copies it
        # (a tombstone's empty value adds nothing to the write)
        offset = self._log.append(head, value)
        self._log.fsync()   # ack ⇒ fsync ⇒ recoverable (DESIGN.md §9)
        # merged again, not stored from the first merge: another put may
        # have landed while the fsync yielded
        self._index_put(key, versioned, offset,
                        FRAME_OVERHEAD + len(head) + len(value))

    def record_span(self, key: bytes) -> tuple[int, int]:
        """(offset, length) of the newest live on-disk record for
        ``key`` — the targeting information a fault injector needs to
        corrupt one specific key's bytes (the CRC on the read path is
        what must catch the damage).  A tombstone is never named: no
        read touches it, so damage planted there would go unseen."""
        for entry in reversed(self._index.get(key, ())):
            if not entry.tombstone:
                return entry.offset, entry.length
        raise KeyNotFoundError(repr(key))

    def keys(self) -> Iterator[bytes]:
        for key, entries in self._index.items():
            if any(not e.tombstone for e in entries):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- maintenance ---------------------------------------------------------

    def log_size_bytes(self) -> int:
        return self._log.size_bytes

    def _live(self) -> Iterator[tuple[bytes, _IndexEntry]]:
        """Every non-tombstone version, in index order."""
        for key, entries in self._index.items():
            for entry in entries:
                if not entry.tombstone:
                    yield key, entry

    def compact(self) -> int:
        """Rewrite only live versions (tombstones are dropped); returns
        bytes reclaimed, or 0 if a put raced the swap and the kernel
        aborted it — the next compaction picks the garbage up."""
        # each record goes back as (head, value), the value read on its
        # own: the extent a put stored is rewritten by reference, so
        # replicas that shared a value still share it
        records = [self._log.read_parts(
                       entry.offset, entry.length,
                       _value_at(len(key), len(entry.clock.pairs)))
                   for key, entry in self._live()]
        reclaimed = self._log.rewrite(records)
        if reclaimed is None:
            return 0
        # the swap happened, so no put landed since ``records`` was
        # collected: the index still lists exactly those records
        fresh: dict[bytes, list[_IndexEntry]] = {}
        offset = 0
        for key, entry in self._live():
            fresh.setdefault(key, []).append(
                _IndexEntry(entry.clock, offset, entry.length, False))
            offset += entry.length
        self._index = fresh
        return reclaimed

    def close(self) -> None:
        self._log.close()
