"""The Bootstrap server (§III.C, Figure III.3).

"The main task of the bootstrap server is to listen to the stream of
Databus events and provide long-term storage for them."  Two storages:

* **Log storage** — append-only; the *Log writer* adds every event the
  relay delivers.
* **Snapshot storage** — keyed by (source, key); the *Log applier*
  folds log rows so "only the last event for a given row/key is stored".

Two query types:

* **Consolidated delta since T** — only the last of multiple updates to
  the same row since T ("fast playback" of time);
* **Consistent snapshot at U** — a full state dump plus the SCN ``U``
  to resume from.  Because snapshot serving can take a long time while
  writes keep arriving, the server replays all changes committed since
  the snapshot phase started, restoring consistency exactly as the
  paper describes.

Given a :class:`~repro.simnet.disk.Disk`, both storages are durable on
the framed-file kernel (:mod:`repro.common.wal`, DESIGN.md §9): every
delivered event is appended to a log WAL and fsynced before the
delivery counts, and :meth:`BootstrapServer.checkpoint` writes the
snapshot plus its applied-SCN watermark as one all-or-nothing image and
compacts the log down to the rows beyond the watermark.  Recovery loads
the image, then replays only log rows with SCN strictly above the
watermark — never double-applying a window, never skipping one.  A
damaged image raises :class:`ChecksumError` at open: the log below the
watermark is gone, so a partial snapshot would drop rows silently.
"""

from __future__ import annotations

import ast
import struct
from typing import Iterator

from repro.common.errors import ConfigurationError
from repro.common.wal import WriteAheadLog, read_image, write_image
from repro.databus.events import DatabusEvent, EventFilter
from repro.simnet.disk import Disk
from repro.sqlstore.binlog import ChangeKind

_EVENT_META = struct.Struct("<QIBBd")  # scn, schema ver, kind, eow, timestamp
_U32 = struct.Struct("<I")
_WATERMARK = struct.Struct("<Q")
# order is the wire format: only append, never reorder
_KIND_LIST = (ChangeKind.INSERT, ChangeKind.UPDATE, ChangeKind.DELETE,
              ChangeKind.WATERMARK)
_KIND_CODES = {kind: code for code, kind in enumerate(_KIND_LIST)}


def _encode_event(event: DatabusEvent) -> bytes:
    source = event.source.encode()
    key = repr(event.key).encode()
    out = bytearray(_EVENT_META.pack(
        event.scn, event.schema_version, _KIND_CODES[event.kind],
        1 if event.end_of_window else 0, event.timestamp))
    for blob in (source, key, event.payload):
        out.extend(_U32.pack(len(blob)))
        out.extend(blob)
    return bytes(out)


def _decode_event(payload: bytes) -> DatabusEvent:
    scn, version, code, eow, timestamp = _EVENT_META.unpack_from(payload, 0)
    offset = _EVENT_META.size
    blobs = []
    for _ in range(3):
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        blobs.append(bytes(payload[offset:offset + length]))
        offset += length
    source, key_repr, body = blobs
    return DatabusEvent(scn, source.decode(), _KIND_LIST[code],
                        ast.literal_eval(key_repr.decode()), body,
                        schema_version=version, end_of_window=bool(eow),
                        timestamp=timestamp)


class BootstrapServer:
    """Log + snapshot storage with consolidated-delta and snapshot queries."""

    LOG_NAME = "bootstrap.wal"
    SNAPSHOT_NAME = "bootstrap.snapshot"

    def __init__(self, name: str = "bootstrap-1", disk: Disk | None = None):
        self.name = name
        self._log: list[DatabusEvent] = []          # Log storage
        self._snapshot: dict[tuple[str, tuple], DatabusEvent] = {}
        self._applied_through = 0                   # Log applier position
        self._log_index = 0                         # next log row to apply
        self.applied_events = 0
        self.recovered_events = 0
        self._disk = disk
        self._log_wal: WriteAheadLog | None = None
        if disk is not None:
            self._log_wal = WriteAheadLog(self.LOG_NAME, disk=disk)
            self._recover()

    # -- durability / recovery ---------------------------------------------------

    def _recover(self) -> None:
        """Checkpoint + log replay.  Rows at or below the checkpoint
        watermark are already folded into the snapshot, so the replay
        skips them (never double-applies); everything above is re-read
        from the log (never skips)."""
        payloads = read_image(self._disk, self.SNAPSHOT_NAME)
        if payloads is not None:
            (self._applied_through,) = _WATERMARK.unpack(payloads[0])
            for payload in payloads[1:]:
                event = _decode_event(payload)
                self._snapshot[(event.source, event.key)] = event
        watermark = self._applied_through
        for payload in self._log_wal.replay():
            event = _decode_event(payload)
            if event.scn <= watermark:
                continue  # folded into the checkpoint before the crash
            self._log.append(event)
        self.recovered_events = len(self._log)
        self.apply_log()

    def checkpoint(self) -> int:
        """Fold the snapshot + watermark into durable snapshot storage
        and compact the log to the rows beyond it; returns the log
        bytes reclaimed.  No-op without a disk."""
        if self._log_wal is None:
            return 0
        watermark = self._applied_through
        write_image(self._disk, self.SNAPSHOT_NAME, [
            _WATERMARK.pack(watermark),
            *(_encode_event(self._snapshot[key])
              for key in sorted(self._snapshot, key=repr))])
        # cut at the watermark the image recorded, not the live one:
        # rows the log writer applied during the image's fsync are in
        # the log only.  An append racing the rewrite's own fsync aborts
        # it, and the uncompacted log is still correct — recovery skips
        # by watermark.
        return self._log_wal.rewrite(
            _encode_event(e) for e in self._log if e.scn > watermark) or 0

    # -- log writer ------------------------------------------------------------

    def on_events(self, events: list[DatabusEvent]) -> None:
        """Log writer: append relay events (whole windows, SCN order).

        With durable storage the whole batch is framed and fsynced
        before it lands in the in-memory log — the delivery is only
        acked against bytes that will survive a crash.
        """
        last = self._log[-1].scn if self._log else None
        for event in events:
            if last is not None and event.scn < last:
                raise ConfigurationError(
                    f"bootstrap received out-of-order SCN {event.scn}")
            last = event.scn
        if self._log_wal is not None:
            for event in events:
                self._log_wal.append(_encode_event(event))
            self._log_wal.fsync()
        self._log.extend(events)
        self.apply_log()

    # -- log applier --------------------------------------------------------------

    def apply_log(self) -> int:
        """Fold new log rows into snapshot storage; returns rows applied.

        Only complete windows are applied so the snapshot never holds a
        half-transaction.  Watermark/control events fold like rows but
        each under its own key — the watermark's (label, SCN) pair is
        globally unique — so compaction never merges two watermarks and
        both delta and replay queries pass them through unchanged: a
        lagging migration consumer served by the bootstrap still sees
        every chunk bracket.
        """
        last_closed = None
        for i in range(len(self._log) - 1, self._log_index - 1, -1):
            if self._log[i].end_of_window:
                last_closed = i
                break
        if last_closed is None:
            return 0
        applied = 0
        while self._log_index <= last_closed:
            event = self._log[self._log_index]
            self._snapshot[(event.source, event.key)] = event
            self._applied_through = max(self._applied_through, event.scn)
            self._log_index += 1
            applied += 1
            self.applied_events += 1
        return applied

    # -- queries -------------------------------------------------------------------

    @property
    def high_watermark(self) -> int:
        return self._applied_through

    @property
    def log_length(self) -> int:
        return len(self._log)

    @property
    def snapshot_rows(self) -> int:
        return len(self._snapshot)

    def consolidated_delta(self, since_scn: int,
                           event_filter: EventFilter | None = None
                           ) -> tuple[list[DatabusEvent], int]:
        """Last-update-per-row for every row changed after ``since_scn``.

        Returns (events sorted by SCN, high watermark to resume from).
        The caller replays far fewer events than a full log replay when
        updates are skewed toward hot rows.
        """
        out = [event for event in self._snapshot.values()
               if event.scn > since_scn
               and (event_filter is None or event_filter(event))]
        out.sort(key=lambda e: (e.scn, e.source, repr(e.key)))
        return out, self._applied_through

    def full_replay(self, since_scn: int,
                    event_filter: EventFilter | None = None
                    ) -> tuple[list[DatabusEvent], int]:
        """Every logged event after ``since_scn`` — the ablation baseline
        for the consolidated delta."""
        out = [event for event in self._log
               if event.scn > since_scn
               and (event_filter is None or event_filter(event))]
        return out, self._applied_through

    def consistent_snapshot(self, event_filter: EventFilter | None = None
                            ) -> Iterator[tuple[str, object]]:
        """Serve a consistent snapshot as a two-phase stream.

        Yields ``("row", event)`` items for the state at snapshot start,
        then ``("replay", event)`` items for changes committed while the
        snapshot was being served, and finally ``("scn", U)`` — the
        sequence number from which the client resumes relay consumption.

        The generator cooperates with concurrent appends: rows stream
        one at a time, and writes landing mid-stream are replayed at the
        end, reproducing Figure III.3's protocol.
        """
        snapshot_start_scn = self._applied_through
        keys = sorted(self._snapshot, key=repr)
        for key in keys:
            event = self._snapshot.get(key)
            if event is None:
                continue  # row vanished mid-snapshot; replay will cover it
            if event_filter is None or event_filter(event):
                yield "row", event
        # replay phase: everything applied since the snapshot started
        self.apply_log()
        replayed = [event for event in self._log
                    if event.scn > snapshot_start_scn
                    and (event_filter is None or event_filter(event))]
        for event in replayed:
            yield "replay", event
        yield "scn", self._applied_through
