"""The partition log: segment files addressed by byte offsets (§V.B).

"Each partition of a topic corresponds to a logical log.  Physically, a
log is implemented as a set of segment files of approximately the same
size. ... a message stored in Kafka doesn't have an explicit message
id.  Instead, each message is addressed by its logical offset in the
log.  This avoids the overhead of maintaining auxiliary index
structures. ... To compute the id of the next message, we have to add
the length of the current message to its id."

Semantics reproduced here:

* segment files named by their base offset; "the broker keeps in memory
  the initial offset of each segment file" and locates a fetch target
  with binary search over that list (kept beside the segments and
  updated at roll and delete, not rebuilt per fetch);
* **appended verbatim**: a message set arrives as the byte span its
  producer framed (:mod:`repro.kafka.message`).  ``append`` stages that
  object, ``flush`` writes it — a lone span as it is, several joined
  into the flush's one write — and ``read`` returns the raw range for
  :func:`~repro.kafka.message.decode_span` to walk.  The log never
  looks inside a frame except to find the torn tail after a crash;
* **flush-before-visible**: appends buffer in memory and become
  consumable only after a flush, triggered by message count or elapsed
  time ("a message is only exposed to the consumers after it is
  flushed");
* **time-based retention**: whole segments are deleted once older than
  the retention period;
* no in-process message cache — reads hit the files and rely on the OS
  page cache, per the paper's double-buffering argument;
* **crash recovery**: every message frame already carries a CRC32
  (:mod:`repro.kafka.message`), so reopening a log walks the active
  segment with the decoder's own frame walk (:func:`scan_valid_bytes`),
  truncates the torn tail at the first bad frame, and rebuilds the high
  watermark from what actually survived.
  Combined with fsync-on-flush this gives the durability contract of
  DESIGN.md §9: a produce is acknowledged only after its bytes are
  flushed *and fsynced*, so acked data survives a kill; unsynced data
  may be lost but never yields a half-visible record.

All file I/O goes through the :class:`~repro.simnet.disk.Disk` the
caller passes — a broker's scope of a
:class:`~repro.simnet.disk.SimDisk`, which chaos tests crash and
corrupt deterministically.

:class:`MessageIdIndexedLog` is the ablation baseline: the same log
plus the explicit id->position index the paper's design avoids.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass

from repro.common.clock import Clock, SimClock
from repro.common.errors import (
    ChecksumError,
    ConfigurationError,
    OffsetOutOfRangeError,
    SerializationError,
)
from repro.kafka.message import (
    FRAME_OVERHEAD,
    MessageSet,
    decode_span,
    frame_size,
)
from repro.simnet.disk import Disk


def scan_valid_bytes(data: bytes) -> int:
    """Length of the valid CRC-framed prefix of a segment's bytes.

    The decoder's own frame walk, kept shallow (a stored wrapper is one
    frame; recovery does not inflate it), followed to the first
    incomplete or damaged frame — the recovery truncation point.
    Everything past a bad frame is unreachable (frames are not
    self-synchronizing), exactly the WAL torn-tail rule.
    """
    valid_end = 0
    try:
        for _, valid_end in decode_span(data, shallow=True):
            pass
    except (ChecksumError, SerializationError):
        pass
    return valid_end


@dataclass
class _Segment:
    base_offset: int
    path: str
    size: int
    created_at: float
    last_append_at: float


class PartitionLog:
    """One topic-partition's on-disk log."""

    def __init__(self, directory: str, disk: Disk,
                 segment_bytes: int = 1 << 20,
                 flush_interval_messages: int = 1,
                 flush_interval_seconds: float = 0.0,
                 clock: Clock | None = None):
        if segment_bytes <= 0:
            raise ConfigurationError("segment_bytes must be positive")
        if flush_interval_messages < 1:
            raise ConfigurationError("flush_interval_messages must be >= 1")
        self.directory = directory
        self.disk = disk
        disk.makedirs(directory)
        self.segment_bytes = segment_bytes
        self.flush_interval_messages = flush_interval_messages
        self.flush_interval_seconds = flush_interval_seconds
        self.fsync_on_flush = True   # False models an OS-buffered broker
        self.clock = clock if clock is not None else SimClock()
        self._segments: list[_Segment] = []
        self._base_offsets: list[int] = []   # parallel to _segments
        self._active_file = None
        # appended but not flushed: the appended spans themselves, in
        # order, so a flush writes them without re-framing
        self._pending: list[bytes] = []
        self._pending_messages = 0
        self._last_flush_at = self.clock.now()
        self.log_end_offset = 0          # next offset to assign
        self.high_watermark = 0          # flushed, consumer-visible end
        self.messages_appended = 0
        self.torn_bytes_truncated = 0    # dropped by the last recovery scan
        self._recover()
        if not self._segments:
            self._roll(base_offset=0)

    # -- recovery / segment management ----------------------------------------

    @staticmethod
    def _segment_name(base_offset: int) -> str:
        return f"{base_offset:020d}.kafka"

    def _recover(self) -> None:
        """Rebuild segment state from disk, CRC-scanning the active
        (last) segment: a crash can only tear the segment being
        appended to, so older segments are taken at face value and
        validated lazily at read time (:func:`decode_span` raises
        :class:`ChecksumError` on a flipped bit)."""
        found = []
        for name in self.disk.listdir(self.directory):
            if name.endswith(".kafka"):
                base = int(name.split(".")[0])
                path = os.path.join(self.directory, name)
                size = self.disk.getsize(path)
                found.append(_Segment(base, path, size,
                                      created_at=self.clock.now(),
                                      last_append_at=self.clock.now()))
        found.sort(key=lambda s: s.base_offset)
        self._segments = found
        self._base_offsets = [s.base_offset for s in found]
        if found:
            last = found[-1]
            last.size = self._truncate_torn_tail(last)
            self.log_end_offset = last.base_offset + last.size
            self.high_watermark = self.log_end_offset
            self._active_file = self.disk.open(last.path, "ab")

    def _truncate_torn_tail(self, segment: _Segment) -> int:
        """CRC-scan one segment; cut it back to its valid prefix.
        Returns the surviving size."""
        with self.disk.open(segment.path, "rb") as f:
            data = f.read()
        good_end = scan_valid_bytes(data)
        if good_end < len(data):
            self.torn_bytes_truncated += len(data) - good_end
            with self.disk.open(segment.path, "rb+") as f:
                f.truncate(good_end)
                f.fsync()  # a re-crash must not resurrect the torn tail
        return good_end

    def _roll(self, base_offset: int) -> None:
        if self._active_file is not None:
            self._active_file.close()
        path = os.path.join(self.directory, self._segment_name(base_offset))
        self._active_file = self.disk.open(path, "ab")
        now = self.clock.now()
        self._segments.append(_Segment(base_offset, path, 0, now, now))
        self._base_offsets.append(base_offset)

    @property
    def _active(self) -> _Segment:
        return self._segments[-1]

    def segment_base_offsets(self) -> list[int]:
        """The in-memory offset list used to locate fetch targets."""
        return list(self._base_offsets)

    # -- append path ----------------------------------------------------------------

    def append(self, message_set: MessageSet) -> int:
        """Append a message set; returns the first assigned offset.

        The bytes are staged and only made consumer-visible by a flush
        (automatic when the configured thresholds trip).
        """
        count = len(message_set)
        if not count:
            raise ConfigurationError("empty message set")
        first_offset = self.log_end_offset
        data = message_set.encode()
        self._pending.append(data)
        self._pending_messages += count
        self.log_end_offset += len(data)
        self.messages_appended += count
        self.maybe_flush()
        return first_offset

    def maybe_flush(self) -> bool:
        """Flush if a threshold (message count or elapsed time) has
        tripped; returns whether a flush happened.

        Called from :meth:`append`, but also clock-driven from
        :meth:`Broker.tick` — without the tick, a quiet partition's
        staged tail would stay consumer-invisible until the *next*
        append, which for a low-traffic topic may never come.
        """
        if self._pending_messages == 0:
            return False
        if self._pending_messages >= self.flush_interval_messages:
            self.flush()
            return True
        if (self.flush_interval_seconds > 0
                and self.clock.now() - self._last_flush_at
                >= self.flush_interval_seconds):
            self.flush()
            return True
        return False

    def append_raw(self, data: bytes) -> int:
        """Append already-framed bytes (the replication path: followers
        copy the leader's log verbatim).  Returns the first offset."""
        if not data:
            raise ConfigurationError("empty raw append")
        first_offset = self.log_end_offset
        self._pending.append(data)
        self.log_end_offset += len(data)
        return first_offset

    def flush(self) -> None:
        """Write pending bytes to the active segment and expose them.

        The high watermark — the acked, consumer-visible end — only
        advances after :meth:`DiskFile.fsync`, so everything a producer
        has been acked for survives a broker kill (acked ⇒ fsynced ⇒
        recoverable).
        """
        if self._pending:
            # snapshot before the fsync yield: a concurrent append may
            # stage more spans while the disk write is in flight, and
            # those bytes are neither written nor durable yet
            flushed_spans = len(self._pending)
            flushed_messages = self._pending_messages
            # one write per flush; a lone span goes down as it arrived
            flushed = self._pending[0] if flushed_spans == 1 \
                else b"".join(self._pending)
            if self._active.size + len(flushed) > self.segment_bytes \
                    and self._active.size > 0:
                self._roll(base_offset=self.high_watermark)
            self._active_file.write(flushed)
            if self.fsync_on_flush:
                self._active_file.fsync()
            else:
                self._active_file.flush()
            self._active.size += len(flushed)
            self._active.last_append_at = self.clock.now()
            del self._pending[:flushed_spans]
            self._pending_messages -= flushed_messages
        # advance only over bytes actually flushed; anything still in
        # _pending was appended mid-flush and is not recoverable yet
        self.high_watermark = self.log_end_offset - self._pending_bytes()
        self._last_flush_at = self.clock.now()

    # -- fetch path ----------------------------------------------------------------------

    @property
    def oldest_offset(self) -> int:
        return self._segments[0].base_offset if self._segments else 0

    def read(self, offset: int, max_bytes: int = 300 * 1024) -> bytes:
        """Raw bytes starting at ``offset``: ``max_bytes``, or the whole
        frame at ``offset`` when that frame is larger.

        Serves only flushed data; a fetch at the high watermark returns
        empty (the consumer's blocking iterator polls again).  The
        segment is located by binary search over base offsets.  Every
        segment begins and ends on a frame boundary, so the frame at
        ``offset`` lies in one segment and comes back whole unless the
        visible end cuts it: a reader whose window is smaller than a
        frame still gets past it.
        """
        if max_bytes <= 0:
            raise ConfigurationError("max_bytes must be positive")
        if offset == self.high_watermark:
            return b""
        if offset < self.oldest_offset or offset > self.high_watermark:
            raise OffsetOutOfRangeError(
                f"offset {offset} outside [{self.oldest_offset}, "
                f"{self.high_watermark}]")
        segment = self._segments[bisect_right(self._base_offsets, offset) - 1]
        position = offset - segment.base_offset
        available = min(segment.size,
                        self.high_watermark - segment.base_offset) - position
        if available <= 0:
            return b""
        with self.disk.open(segment.path, "rb") as f:
            f.seek(position)
            data = f.read(min(max(max_bytes, FRAME_OVERHEAD), available))
            wanted = min(frame_size(data), available)
            if wanted > len(data):
                data += f.read(wanted - len(data))
            return data

    # -- retention ----------------------------------------------------------------------------

    def delete_old_segments(self, retention_seconds: float) -> int:
        """Time-based retention (§V.B): drop whole segments whose last
        append is older than the SLA; never the active segment."""
        now = self.clock.now()
        deleted = 0
        while len(self._segments) > 1:
            segment = self._segments[0]
            if now - segment.last_append_at <= retention_seconds:
                break
            self.disk.remove(segment.path)
            del self._segments[0], self._base_offsets[0]
            deleted += 1
        return deleted

    def delete_segments_below(self, offset: int) -> int:
        """Offset-based compaction support: drop leading whole segments
        that end at or below ``offset``; never the active segment.

        The streams changelog uses this once a durable snapshot covers
        the prefix — the snapshot *is* the last-value fold of every
        dropped record, so reads from ``offset`` onward are unaffected
        and ``oldest_offset`` advances to the first surviving segment.
        """
        deleted = 0
        while len(self._segments) > 1:
            segment = self._segments[0]
            segment_end = self._segments[1].base_offset
            if segment_end > offset:
                break
            self.disk.remove(segment.path)
            del self._segments[0], self._base_offsets[0]
            deleted += 1
        return deleted

    def size_bytes(self) -> int:
        return sum(s.size for s in self._segments) + self._pending_bytes()

    def _pending_bytes(self) -> int:
        return sum(map(len, self._pending))

    def close(self) -> None:
        if self._active_file is not None and not self._active_file.closed:
            self._active_file.close()


class MessageIdIndexedLog:
    """Ablation baseline: a log *with* the auxiliary message-id index
    Kafka deliberately avoids.

    Every message gets a sequential id; an in-memory dict maps id ->
    byte offset.  The benchmark compares its memory footprint and
    maintenance cost against offset addressing.
    """

    def __init__(self, directory: str, **log_kwargs):
        self.log = PartitionLog(directory, **log_kwargs)
        self.id_index: dict[int, int] = {}
        self.next_id = 0

    def append(self, message_set: MessageSet) -> list[int]:
        ids = []
        offset = self.log.append(message_set)
        for _, next_offset in decode_span(message_set.encode(), offset,
                                          shallow=True):
            self.id_index[self.next_id] = offset
            ids.append(self.next_id)
            self.next_id += 1
            offset = next_offset
        return ids

    def read_by_id(self, message_id: int, max_bytes: int = 300 * 1024) -> bytes:
        try:
            offset = self.id_index[message_id]
        except KeyError:
            raise OffsetOutOfRangeError(f"no message id {message_id}") from None
        return self.log.read(offset, max_bytes)

    def index_entries(self) -> int:
        return len(self.id_index)

    def close(self) -> None:
        self.log.close()
