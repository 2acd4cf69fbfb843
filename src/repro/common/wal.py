"""The framed-file kernel: a CRC32-framed, length-prefixed record log
on a :class:`Disk`, its compaction swap, and all-or-nothing images.

Every durable component outside Kafka shares one frame format, so
crash recovery has one set of semantics to reason about:

    [crc32 : 4B][length : 4B][payload]

``crc32`` covers the payload only.  An append may hand the payload in
parts; the frame on disk is the same, and every part after the first
goes to the device as a gather write, by reference, so a caller's value
is stored as its own object rather than copied into the frame.  A
rewrite's temp file is one gather write under the same rule.  Appends
buffer in the (simulated or real) page cache; :meth:`WriteAheadLog.fsync`
moves the durability line.  The contract (DESIGN.md §9,
``durability-unsynced-ack`` lint rule) is *ack ⇒ fsync ⇒ recoverable*:
acknowledge a write only after the frame holding it has been fsynced.

Opening a log replays frames from the start and **stops at the first
bad frame** — a short header, a length that overruns the file, or a CRC
mismatch — then truncates the torn tail and fsyncs the truncation, so a
second crash cannot resurrect the garbage.  Everything before the bad
frame is intact by construction; everything after it is unreachable
(frames are not self-synchronizing).  Replacing a file's contents
(:meth:`WriteAheadLog.rewrite`, :func:`write_image`) goes through a
fsynced temp file and an atomic rename: old or new, never a mix.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Iterator

from repro.common.errors import ChecksumError, ConfigurationError
from repro.common.storage import Disk

__all__ = ["FRAME_OVERHEAD", "WriteAheadLog", "read_image", "write_image"]

_FRAME = struct.Struct("<II")   # crc32(payload), payload length
_COUNT = struct.Struct("<I")    # an image's trailer: how many payloads
FRAME_OVERHEAD = _FRAME.size


def frame(payload: bytes) -> bytes:
    """One encoded frame: header + payload."""
    return _FRAME.pack(zlib.crc32(payload), len(payload)) + payload


def _chain(first: bytes, rest) -> tuple[int, int]:
    """The CRC and length of the payload ``first`` followed by the
    parts in ``rest``: its frame header's two fields."""
    crc, length = zlib.crc32(first), len(first)
    for part in rest:
        crc = zlib.crc32(part, crc)
        length += len(part)
    return crc, length


def scan_frames(data: bytes) -> tuple[list[tuple[int, bytes]], int]:
    """Parse ``data`` into ``(offset, payload)`` frames.

    Returns the valid frames and the byte offset where the first bad
    frame (or clean EOF) begins — the recovery truncation point.
    """
    frames: list[tuple[int, bytes]] = []
    position = 0
    total = len(data)
    while position + _FRAME.size <= total:
        crc, length = _FRAME.unpack_from(data, position)
        end = position + _FRAME.size + length
        if end > total:
            break  # torn tail: length overruns the file
        payload = data[position + _FRAME.size:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt frame: stop, everything after is unreachable
        frames.append((position, payload))
        position = end
    return frames, position


def _make_parent(disk: Disk, path: str) -> None:
    parent = path.rpartition("/")[0]
    if parent:
        disk.makedirs(parent)


def _gather(records: Iterable[bytes | tuple[bytes, ...]]) -> tuple:
    """The parts of one gather write that frames ``records`` back to
    back.  A record is a payload or a tuple of its parts, framed as
    :meth:`WriteAheadLog.append` frames them: each header is joined
    with its record's first part and with every small piece up to the
    next later part, which goes to the disk by reference."""
    out: list[bytes] = []
    small: list[bytes] = []
    for record in records:
        if type(record) is not tuple:
            small.append(frame(record))
            continue
        first, *rest = record
        small += (_FRAME.pack(*_chain(first, rest)), first)
        for part in rest:
            if part:
                out += (b"".join(small), part)
                small = []
    if small:
        out.append(b"".join(small))
    return tuple(out)


def _write_temp(disk: Disk, path: str,
                records: Iterable[bytes | tuple[bytes, ...]]
                ) -> tuple[str, int]:
    """Frame ``records`` into a fsynced ``path + ".tmp"`` (``"wb"``
    discards a dead attempt's leftovers) with one sequential gather
    write; returns its path and size."""
    tmp = path + ".tmp"
    with disk.open(tmp, "wb") as out:
        size = out.write(_gather(records))
        out.fsync()
    return tmp, size


class WriteAheadLog:
    """Append / fsync / replay / read / rewrite over one framed file."""

    def __init__(self, path: str, disk: Disk):
        if not path:
            raise ConfigurationError("WAL needs a path")
        self.path = path
        self.disk = disk
        _make_parent(disk, path)
        self.appends = 0
        self.fsyncs = 0
        self.recovered_frames = 0
        self.truncated_bytes = 0
        self._synced_end = 0
        self._end = 0
        self._file = self.disk.open(self.path, "ab+")
        self._recover()

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        """Find the good end, truncate the torn tail, fsync the cut."""
        self._file.seek(0)
        data = self._file.read()
        frames, good_end = scan_frames(data)
        # open-then-replay is how every user recovers: hand this scan to
        # the first frames() call so the file is parsed once, not twice
        self._recovered = frames
        self.recovered_frames = len(frames)
        self.truncated_bytes = len(data) - good_end
        if self.truncated_bytes:
            self._file.truncate(good_end)
            self._file.fsync()
        self._end = good_end
        self._synced_end = good_end

    def frames(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(offset, payload)`` for every frame in append order
        (re-read from disk once the log has been written to, so a
        reopened log and a live one replay identically)."""
        frames, self._recovered = self._recovered, None
        if frames is None:
            with self.disk.open(self.path, "rb") as reader:
                frames, _ = scan_frames(reader.read())
        yield from frames

    def replay(self) -> Iterator[bytes]:
        """Yield every payload in append order."""
        for _, payload in self.frames():
            yield payload

    def read(self, offset: int, length: int) -> bytes:
        """The payload of the ``length``-byte frame at byte ``offset``,
        in one positioned read.  ``length`` counts the header, so it is
        ``FRAME_OVERHEAD + len(payload)``: the span :meth:`append` moved
        the end by, which a caller's index holds.  Raises
        :class:`ChecksumError` unless the read is full, the header's
        length field agrees with ``length`` and the CRC matches."""
        self._file.seek(offset)
        data = self._file.read(length)
        if len(data) == length >= FRAME_OVERHEAD:
            crc, size = _FRAME.unpack_from(data)
            payload = data[FRAME_OVERHEAD:]
            if size == length - FRAME_OVERHEAD and zlib.crc32(payload) == crc:
                return payload
        raise ChecksumError(f"corrupt frame at {self.path}@{offset}")

    def read_parts(self, offset: int, length: int,
                   cut: int) -> tuple[bytes, bytes]:
        """The payload :meth:`read` returns, as its first ``cut`` bytes
        and the rest, each in its own positioned read: a rest that one
        part of an append stored comes back as the object the disk
        holds, so a :meth:`rewrite` handed these parts shares it.
        Checked as :meth:`read` checks, whatever ``cut`` is."""
        self._file.seek(offset)
        head = self._file.read(min(FRAME_OVERHEAD + cut, length))
        rest = self._file.read(length - len(head))
        if len(head) + len(rest) == length >= FRAME_OVERHEAD:
            crc, size = _FRAME.unpack_from(head)
            head = head[FRAME_OVERHEAD:]
            if (size == length - FRAME_OVERHEAD
                    and zlib.crc32(rest, zlib.crc32(head)) == crc):
                return head, rest
        raise ChecksumError(f"corrupt frame at {self.path}@{offset}")

    # -- append path ------------------------------------------------------

    def append(self, payload: bytes, *rest: bytes) -> int:
        """Stage one record, whose payload is ``payload`` followed by
        any ``rest``; returns its byte offset.  NOT yet durable —
        callers must :meth:`fsync` before acknowledging.

        The frame is the one ``append(b"".join(parts))`` writes: the
        CRC is chained over the parts, the header is fused onto the
        first, and the others are handed to the disk as they are."""
        offset = self._end
        crc, length = _chain(payload, rest)
        self._file.write((_FRAME.pack(crc, length) + payload, *rest))
        self._end += FRAME_OVERHEAD + length
        self._recovered = None
        self.appends += 1
        return offset

    def fsync(self) -> None:
        """Make every staged record crash-durable."""
        self._file.fsync()
        self._synced_end = self._end
        self.fsyncs += 1

    # -- compaction -------------------------------------------------------

    def rewrite(self, records: Iterable[bytes | tuple[bytes, ...]]
                ) -> int | None:
        """Compaction: atomically replace the log's contents with
        ``records`` (each a payload, or a tuple of its parts as
        :meth:`append` takes them), framed back to back from offset 0;
        returns the bytes reclaimed.  Returns ``None`` and leaves the
        log untouched if an append landed during the temp file's fsync
        — the caller chose ``records`` before that record existed, so
        the swap would drop it."""
        before = self._end
        tmp, size = _write_temp(self.disk, self.path, records)
        if self._end != before:
            self.disk.remove(tmp)
            return None
        self._file.close()
        self.disk.replace(tmp, self.path)
        self._file = self.disk.open(self.path, "ab+")
        self._end = self._synced_end = size
        self._recovered = None
        return before - size

    # -- introspection ----------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self._end

    @property
    def unsynced_bytes(self) -> int:
        return self._end - self._synced_end

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


# -- images ------------------------------------------------------------------


def write_image(disk: Disk, path: str, payloads: list[bytes]) -> None:
    """Atomically replace ``path`` with an image of ``payloads``: their
    frames plus a trailer frame recording how many there are."""
    _make_parent(disk, path)
    tmp, _ = _write_temp(disk, path,
                         [*payloads, _COUNT.pack(len(payloads))])
    disk.replace(tmp, path)


def read_image(disk: Disk, path: str) -> list[bytes] | None:
    """The payloads of the image at ``path``, or ``None`` if the file
    is missing.  Raises :class:`ChecksumError` unless every byte parses
    and the trailer's count matches, so each caller picks its own
    fallback.  Never mutates the file: damage stays rejected."""
    if not disk.exists(path):
        return None
    with disk.open(path, "rb") as reader:
        data = reader.read()
    frames, good_end = scan_frames(data)
    payloads = [payload for _, payload in frames]
    if good_end == len(data) and payloads:
        trailer = payloads.pop()
        if trailer == _COUNT.pack(len(payloads)):
            return payloads
    raise ChecksumError(f"damaged image {path}")
