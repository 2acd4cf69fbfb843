"""DBLog-style chunked backfill interleaved with the live change stream.

The problem (PAPER.md §III): bootstrap a target with a *consistent*
copy of a source database "while the online data change stream
continues" — without locking the source or stopping writes.  The
DBLog algorithm (Andreakis et al., 2020) does it with watermarks
instead of locks:

1. write a **low watermark** into the source's commit stream;
2. read one keyed chunk of rows (no lock — writers keep committing);
3. write a **high watermark**;
4. process the change stream in order: every live change applies to
   the target as usual, and when the high watermark arrives, the chunk
   is applied **minus any key that changed between the watermarks** —
   those chunk rows are stale by construction and the live events for
   them are newer or equal.

Because the chunk is applied *at the stream position of its high
watermark*, every target write lands in a single serial order
consistent with source commit order: live events before the low
watermark precede the chunk, the chunk excludes in-flight keys, and
events after the high watermark follow it.  Chunks are re-runnable —
upserts are idempotent — so a crash mid-chunk just repeats that chunk
from its recorded start key with fresh watermarks.

:class:`LiveReplicator` is the Databus consumer that plays both roles
(live applier + chunk applier); :class:`ChunkedBackfill` drives the
chunk loop and pages the source with ``SqlDatabase.scan_chunk``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsRegistry
from repro.common.serialization import SchemaRegistry, decode_record
from repro.databus.client import DatabusClient, DatabusConsumer
from repro.databus.events import DatabusEvent, watermark_label
from repro.migration.target import EspressoTarget
from repro.sqlstore.binlog import ChangeKind
from repro.sqlstore.database import SqlDatabase
from repro.sqlstore.table import Row

#: Watermark label prefixes; the low label encodes only the table (the
#: watermark's own SCN identifies the chunk), the high label repeats the
#: low SCN so the replicator can match the bracket pair exactly.
LOW_PREFIX = "chunk-low"
HIGH_PREFIX = "chunk-high"


def low_label(table: str) -> str:
    return f"{LOW_PREFIX}:{table}"


def high_label(table: str, low_scn: int) -> str:
    return f"{HIGH_PREFIX}:{table}:{low_scn}"


@dataclass
class ArmedChunk:
    """One in-flight chunk waiting for its high watermark."""

    table: str
    low_scn: int
    rows_by_key: dict[tuple, Row]
    on_applied: Callable[["ChunkResult"], None] | None
    touched: set = field(default_factory=set)
    opened: bool = False    # saw our low watermark in the stream


@dataclass(frozen=True)
class ChunkResult:
    """What one completed chunk did."""

    table: str
    low_scn: int
    high_scn: int
    rows_read: int
    rows_applied: int
    rows_discarded: int
    last_key: tuple | None   # highest source key read (resume point)


class LiveReplicator(DatabusConsumer):
    """The migration's Databus consumer: applies live changes to the
    target and lands armed chunks at their high-watermark position.

    Replay-safe: re-delivered data events are idempotent upserts, and
    watermark events for chunks that are not armed (a pre-crash run's
    brackets, or another table's) are ignored.
    """

    def __init__(self, source: SqlDatabase, target: EspressoTarget,
                 schemas: SchemaRegistry,
                 metrics: MetricsRegistry | None = None):
        self.source = source
        self.target = target
        self.schemas = schemas
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._armed: dict[tuple[str, int], ArmedChunk] = {}
        self.events_applied = 0
        self.chunks_applied = 0
        self.completed: list[ChunkResult] = []

    # -- chunk arming --------------------------------------------------------

    def arm_chunk(self, table: str, low_scn: int, rows: list[Row],
                  on_applied: Callable[[ChunkResult], None] | None = None
                  ) -> None:
        """Hand the replicator a freshly read chunk, keyed by the SCN of
        the low watermark that preceded the read."""
        schema = self.target.transform.schema(table)
        key = (table, low_scn)
        if key in self._armed:
            raise ConfigurationError(f"chunk {key} already armed")
        self._armed[key] = ArmedChunk(
            table, low_scn,
            {schema.key_of(row): row for row in rows}, on_applied)

    @property
    def armed_chunks(self) -> int:
        return len(self._armed)

    # -- consumer callbacks --------------------------------------------------

    def on_data_event(self, event: DatabusEvent) -> None:
        if event.is_control:
            self._on_control(event)
            return
        schema = self.schemas.get(event.source, event.schema_version)
        row = decode_record(schema, event.payload)
        source_key = self.target.transform.schema(event.source).key_of(row)
        # record in-flight keys for every open chunk bracket on this table
        for chunk in self._armed.values():
            if chunk.table == event.source and chunk.opened:
                chunk.touched.add(source_key)
        if event.kind is ChangeKind.DELETE:
            self.target.delete_row(event.source, source_key)
        else:
            self.target.put_row(event.source, row)
        self.events_applied += 1
        self.metrics.counter("migration.live_events").increment()

    def _on_control(self, event: DatabusEvent) -> None:
        label = watermark_label(event)
        parts = label.split(":")
        if parts[0] == LOW_PREFIX and len(parts) == 2:
            chunk = self._armed.get((parts[1], event.scn))
            if chunk is not None:
                chunk.opened = True
        elif parts[0] == HIGH_PREFIX and len(parts) == 3:
            chunk = self._armed.pop((parts[1], int(parts[2])), None)
            if chunk is not None:
                self._apply_chunk(chunk, high_scn=event.scn)
        # anything else: a stale bracket from a previous run, or some
        # other subsystem's watermark — not ours, pass over it

    def _apply_chunk(self, chunk: ArmedChunk, high_scn: int) -> None:
        """Land a chunk at its high watermark: drop superseded rows,
        bulk-apply the rest."""
        survivors = [row for key, row in chunk.rows_by_key.items()
                     if key not in chunk.touched]
        if survivors:
            self.target.bulk_apply_rows(chunk.table, survivors)
        keys = list(chunk.rows_by_key)
        result = ChunkResult(
            table=chunk.table, low_scn=chunk.low_scn, high_scn=high_scn,
            rows_read=len(chunk.rows_by_key), rows_applied=len(survivors),
            rows_discarded=len(chunk.rows_by_key) - len(survivors),
            last_key=max(keys) if keys else None)
        self.chunks_applied += 1
        self.completed.append(result)
        self.metrics.counter(f"backfill.{chunk.table}.rows_applied") \
            .increment(result.rows_applied)
        self.metrics.counter(f"backfill.{chunk.table}.rows_discarded") \
            .increment(result.rows_discarded)
        if chunk.on_applied is not None:
            chunk.on_applied(result)


#: per-table backfill progress: a resume key, or DONE
DONE = "done"


class ChunkedBackfill:
    """Drives the chunk loop over every source table, in table-name
    order, pumping the Databus client so each chunk's high watermark is
    consumed (and the chunk therefore applied) before the next begins.

    ``progress`` maps table → last completed chunk's highest key (the
    next ``scan_chunk`` resume point) or :data:`DONE`; restoring that
    dict from a checkpoint resumes the backfill without re-reading any
    completed chunk.
    """

    def __init__(self, source: SqlDatabase, replicator: LiveReplicator,
                 client: DatabusClient, capture=None, chunk_size: int = 64):
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self.source = source
        self.replicator = replicator
        self.client = client
        self.capture = capture   # binlog→relay pump (capture_from_binlog)
        self.chunk_size = chunk_size
        self.tables = source.table_names()   # sorted
        self.progress: dict[str, object] = {t: None for t in self.tables}
        self.chunks_run = 0

    # -- state -------------------------------------------------------------

    @property
    def complete(self) -> bool:
        return all(self.progress[t] == DONE for t in self.tables)

    def _next_table(self) -> str | None:
        for table in self.tables:
            if self.progress[table] != DONE:
                return table
        return None

    def restore_progress(self, progress: dict[str, object]) -> None:
        """Resume from a checkpointed progress map (crash recovery)."""
        for table, position in progress.items():
            if table in self.progress:
                self.progress[table] = position

    # -- the chunk loop ----------------------------------------------------

    def run_one_chunk(self) -> ChunkResult | None:
        """One full DBLog bracket: low watermark, chunk read, high
        watermark, then pump the stream past the high watermark so the
        chunk lands.  Returns the result, or None when backfill is
        already complete."""
        table = self._next_table()
        if table is None:
            return None
        after_key = self.progress[table]
        low_scn = self.source.write_watermark(low_label(table))
        rows = self.source.scan_chunk(table, after_key, self.chunk_size)
        landed: list[ChunkResult] = []
        self.replicator.arm_chunk(table, low_scn, rows, landed.append)
        high_scn = self.source.write_watermark(high_label(table, low_scn))
        self._pump_to(high_scn)
        if not landed:
            raise ConfigurationError(
                f"chunk ({table}, {low_scn}) did not land by SCN {high_scn}; "
                "is the relay filtering control events?")
        result = landed[0]
        self.chunks_run += 1
        if result.rows_read < self.chunk_size:
            # everything present at scan time is copied; rows committed
            # later reach the target through the live stream
            advanced: object = DONE
        else:
            advanced = result.last_key
        if self.progress[table] == after_key:
            # only advance if nobody reset the cursor while the pump
            # yielded; the copied chunk is idempotent, so a racing
            # restore_progress() owner simply re-scans it
            self.progress[table] = advanced
        return result

    def _pump_to(self, scn: int) -> None:
        while self.client.checkpoint < scn:
            if self.capture is not None:
                self.capture.poll()
            delivered = self.client.poll()
            if delivered == 0 and self.client.checkpoint < scn:
                raise ConfigurationError(
                    f"stream stalled at SCN {self.client.checkpoint} "
                    f"before reaching {scn}")
