"""Durable migration checkpoints.

The coordinator journals a :class:`MigrationCheckpoint` at every phase
transition and after every completed backfill chunk.  The journal is a
CRC-framed write-ahead log on the coordinator's disk — append, fsync,
*then* act — so a coordinator that crashes mid-chunk restarts from the
last checkpoint: the stream resumes from ``stream_scn`` (window-
boundary at-least-once, like any Databus consumer) and the backfill
resumes from ``backfill_progress`` without re-reading a completed
chunk.  The chunk that was in flight at the crash is simply re-run
with fresh watermarks; its upserts are idempotent.

Frames are ``repr``-encoded and read back with
:func:`ast.literal_eval` — the same trick the bootstrap server uses
for keys: deterministic, human-inspectable, and no serializer
dependency.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.common.storage import Disk
from repro.common.wal import WriteAheadLog


@dataclass(frozen=True)
class MigrationCheckpoint:
    """Everything needed to resume the migration after a crash."""

    phase: str                    # MigrationPhase value
    stream_scn: int               # Databus client checkpoint
    ramp_index: int = 0           # position in the ramp schedule
    backfill_progress: dict = field(default_factory=dict)
    entered_at: float = 0.0       # clock time the phase was entered

    def encode(self) -> bytes:
        return repr((self.phase, self.stream_scn, self.ramp_index,
                     self.backfill_progress, self.entered_at)).encode()

    @classmethod
    def decode(cls, payload: bytes) -> "MigrationCheckpoint":
        phase, scn, ramp, progress, entered = \
            ast.literal_eval(payload.decode())
        return cls(phase=phase, stream_scn=scn, ramp_index=ramp,
                   backfill_progress=progress, entered_at=entered)


class MigrationJournal:
    """Append-only checkpoint log; the last frame wins on recovery."""

    LOG_NAME = "migration.ckpt"

    def __init__(self, disk: Disk):
        self._wal = WriteAheadLog(self.LOG_NAME, disk=disk)
        self.records_written = 0

    def record(self, checkpoint: MigrationCheckpoint) -> None:
        """Persist one checkpoint: framed, appended, fsynced before the
        coordinator takes the action the checkpoint describes."""
        self._wal.append(checkpoint.encode())
        self._wal.fsync()
        self.records_written += 1

    def load_latest(self) -> MigrationCheckpoint | None:
        """The most recent intact checkpoint, or None on first boot.
        A torn tail frame (crash mid-append) is dropped by the WAL's
        CRC scan, falling back to the previous record."""
        payload = None
        for payload in self._wal.replay():
            pass    # the last frame wins; history() decodes them all
        return (MigrationCheckpoint.decode(payload)
                if payload is not None else None)

    def history(self) -> list[MigrationCheckpoint]:
        """Every surviving checkpoint, oldest first (for audits/tests)."""
        return [MigrationCheckpoint.decode(p) for p in self._wal.replay()]

    def close(self) -> None:
        self._wal.close()
