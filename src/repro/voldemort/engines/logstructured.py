"""Log-structured on-disk engine — the BerkeleyDB JE stand-in.

The paper uses BDB-JE (itself a log-structured B-tree) for read-write
traffic (§II.B).  We reproduce the properties that matter to Voldemort:
durable writes via an append-only log, fast point reads via an
in-memory key index, crash recovery by log replay, CRC detection of
torn writes, and compaction that drops superseded versions.

``data.log`` is a :class:`~repro.common.wal.WriteAheadLog`: the kernel
owns the checksummed frame, the torn-tail rule, the checked read by
offset and the atomic compaction swap.  This module owns what goes
inside a frame (little-endian):

    body = [key_len : 4B][key]
           [clock_count : 2B][(node_id : 8B, counter : 8B) * count]
           [flags : 1B]                # bit 0: tombstone
           [value_len : 4B][value]

and the in-memory index, which maps key -> list of (clock, offset,
length, tombstone) so the multi-version merge never touches disk; only
value reads do.
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


def _encode_clock(clock: VectorClock) -> bytes:
    entries = clock.entries
    out = bytearray(_U16.pack(len(entries)))
    for node, counter in sorted(entries.items()):
        out.extend(_CLOCK_ENTRY.pack(node, counter))
    return bytes(out)


def _decode_clock(data: bytes, offset: int) -> tuple[VectorClock, int]:
    (count,) = _U16.unpack_from(data, offset)
    offset += _U16.size
    entries = {}
    for _ in range(count):
        node, counter = _CLOCK_ENTRY.unpack_from(data, offset)
        offset += _CLOCK_ENTRY.size
        entries[node] = counter
    return VectorClock(entries), offset


def encode_body(key: bytes, versioned: Versioned) -> bytes:
    value = versioned.value if versioned.value is not None else b""
    flags = _FLAG_TOMBSTONE if versioned.is_tombstone else 0
    body = bytearray()
    body.extend(_U32.pack(len(key)))
    body.extend(key)
    body.extend(_encode_clock(versioned.clock))
    body.append(flags)
    body.extend(_U32.pack(len(value)))
    body.extend(value)
    return bytes(body)


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
        self.live_bytes = 0
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
        self.live_bytes += length

    # -- StorageEngine interface ------------------------------------------

    def get(self, key: bytes) -> list[Versioned]:
        entries = [e for e in self._index.get(key, []) if not e.tombstone]
        if not entries:
            raise KeyNotFoundError(repr(key))
        out = []
        for entry in entries:
            out.append(Versioned(self._read_value(key, entry), entry.clock))
        return out

    def _read_value(self, key: bytes, entry: _IndexEntry) -> bytes:
        stored_key, versioned = decode_body(self._log.read(entry.offset))
        if stored_key != key:
            raise ChecksumError(f"index pointed {key!r} at record for {stored_key!r}")
        return versioned.value or b""

    def put(self, key: bytes, versioned: Versioned) -> None:
        # enforce the version contract against the in-memory clocks first
        self.merge_version(self._index.get(key, ()), versioned)
        body = encode_body(key, versioned)
        offset = self._log.append(body)
        self._log.fsync()   # ack ⇒ fsync ⇒ recoverable (DESIGN.md §9)
        self._index_put(key, versioned, offset, FRAME_OVERHEAD + len(body))

    def record_span(self, key: bytes) -> tuple[int, int]:
        """(offset, length) of the newest live on-disk record for
        ``key`` — the targeting information a fault injector needs to
        corrupt one specific key's bytes (the CRC on the read path is
        what must catch the damage)."""
        entries = self._index.get(key)
        if not entries:
            raise KeyNotFoundError(repr(key))
        entry = entries[-1]
        return entry.offset, entry.length

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
        bodies = [self._log.read(entry.offset) for _, entry in self._live()]
        reclaimed = self._log.rewrite(bodies)
        if reclaimed is None:
            return 0
        # the swap happened, so no put landed since ``bodies`` was
        # collected: the index still lists exactly those records
        fresh: dict[bytes, list[_IndexEntry]] = {}
        offset = 0
        for (key, entry), body in zip(self._live(), bodies):
            length = FRAME_OVERHEAD + len(body)
            fresh.setdefault(key, []).append(
                _IndexEntry(entry.clock, offset, length, False))
            offset += length
        self._index = fresh
        return reclaimed

    def close(self) -> None:
        self._log.close()
