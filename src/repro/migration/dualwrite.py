"""Dual-write proxy and shadow-read comparator.

The middle phases of the migration playbook: once the backfill has
converged, the application's write path goes through this proxy, which
applies every write to **both** stores synchronously; the read path
still serves from the source but *shadow-reads* the target and records
whether the two agree.  Only after the mismatch rate stays under the
SLO does the coordinator start ramping real reads to the target, a few
percent of keys at a time — the ramp bucket is a deterministic hash of
the key, so one key's reads move together and a rollback is exact.

While dual-writes are on, the CDC replicator must be paused (the
coordinator owns that): applying the same write twice is harmless —
upserts are idempotent — but applying it *late*, after a newer
dual-write landed, would roll the target row backwards.  One writer
per row at a time; the stream and the proxy never interleave.
"""

from __future__ import annotations

from repro.common.metrics import MetricsRegistry
from repro.common.ring import partition32
from repro.migration.target import EspressoTarget
from repro.sqlstore.binlog import ChangeKind
from repro.sqlstore.database import SqlDatabase
from repro.sqlstore.table import Row


def ramp_bucket(table: str, source_key: tuple) -> int:
    """Deterministic 0–99 bucket for ramped read routing; a key's
    bucket never changes, so its reads cut over exactly once."""
    return partition32(repr((table, source_key)).encode(), 100)


class ShadowReadStats:
    """Per-table agreement bookkeeping for shadow reads."""

    def __init__(self):
        self._matches: dict[str, int] = {}
        self._mismatches: dict[str, int] = {}

    def record(self, table: str, matched: bool) -> None:
        bucket = self._matches if matched else self._mismatches
        bucket[table] = bucket.get(table, 0) + 1

    def reset(self) -> None:
        """Start a fresh observation window (e.g. entering SHADOW)."""
        self._matches.clear()
        self._mismatches.clear()

    @property
    def total_reads(self) -> int:
        return sum(self._matches.values()) + sum(self._mismatches.values())

    @property
    def total_mismatches(self) -> int:
        return sum(self._mismatches.values())

    def mismatch_rate(self, table: str | None = None) -> float:
        if table is None:
            matches = sum(self._matches.values())
            mismatches = sum(self._mismatches.values())
        else:
            matches = self._matches.get(table, 0)
            mismatches = self._mismatches.get(table, 0)
        reads = matches + mismatches
        return mismatches / reads if reads else 0.0

    def by_table(self) -> dict[str, dict[str, int]]:
        tables = sorted(set(self._matches) | set(self._mismatches))
        return {t: {"matches": self._matches.get(t, 0),
                    "mismatches": self._mismatches.get(t, 0)}
                for t in tables}


class DualWriteProxy:
    """The application-facing store API during a migration.

    Writes: source always; target too when ``dual_writes_enabled``.
    The source commit happens first — it is still the system of record —
    and the target apply follows immediately; if the target write path
    raises, the exception propagates *after* the source committed, and
    the row heals on the next CDC catch-up or shadow-read repair pass.

    Reads: compare source and target whenever dual-writes are on, then
    serve from whichever side the ramp assigns this key (always source
    at 0%, always target at 100% or after cutover).
    """

    def __init__(self, source: SqlDatabase, target: EspressoTarget,
                 metrics: MetricsRegistry):
        self.source = source
        self.target = target
        self.metrics = metrics
        self.shadow = ShadowReadStats()
        self.dual_writes_enabled = False
        self.ramp_percent = 0
        self.serve_target_only = False   # post-cutover: source is retired
        self.writes = 0
        self.reads = 0
        self.target_serves = 0
        self.mismatch_log: list[tuple[str, tuple, dict | None, dict | None]] = []

    # -- write path ---------------------------------------------------------

    def upsert(self, table: str, row: Row) -> int:
        """Write one row; returns the source commit SCN (0 post-cutover)."""
        scn = 0
        if not self.serve_target_only:
            txn = self.source.begin()
            txn.upsert(table, row)
            scn = txn.commit()
        if self.dual_writes_enabled or self.serve_target_only:
            self.target.put_row(table, row)
            self.metrics.counter(f"dualwrite.{table}.puts").increment()
        self.writes += 1
        return scn

    def delete(self, table: str, source_key: tuple) -> int:
        scn = 0
        if not self.serve_target_only:
            txn = self.source.begin()
            txn.delete(table, source_key)
            scn = txn.commit()
        if self.dual_writes_enabled or self.serve_target_only:
            self.target.delete_row(table, source_key)
            self.metrics.counter(f"dualwrite.{table}.deletes").increment()
        self.writes += 1
        return scn

    # -- read path ----------------------------------------------------------

    def _source_row(self, table: str, source_key: tuple) -> Row | None:
        """The source's row, in the shape the target serves it."""
        t = self.source.table(table)
        if not t.contains(source_key):
            return None
        return self.target.transform.complete_row(table, t.get(source_key))

    def read(self, table: str, source_key: tuple) -> Row | None:
        """Serve a row, shadow-comparing both stores while dual-writes
        are on.  Missing-on-both-sides counts as agreement."""
        self.reads += 1
        if self.serve_target_only:
            self.target_serves += 1
            return self.target.get_row(table, source_key)
        source_row = self._source_row(table, source_key)
        if not self.dual_writes_enabled:
            return source_row
        expected = (None if source_row is None
                    else self.target.transform.document_of(table, source_row))
        actual = self.target.get_document(table, source_key)
        matched = expected == actual
        self.shadow.record(table, matched)
        name = "match" if matched else "mismatch"
        self.metrics.counter(f"shadow.{table}.{name}").increment()
        if not matched:
            self.mismatch_log.append((table, source_key, expected, actual))
        if ramp_bucket(table, source_key) < self.ramp_percent:
            self.target_serves += 1
            return self.target.get_row(table, source_key)
        return source_row

    # -- verification --------------------------------------------------------

    def full_comparison(self, tables: list[str] | None = None
                        ) -> list[tuple[str, tuple, dict | None, dict | None]]:
        """Row-by-row source↔target comparison; returns every
        disagreement as (table, key, source document, target document).
        Empty list == stores are identical.  This is the oracle the
        cutover gate is tested against, not a gate: it decodes every
        row of both stores, and no production path calls it."""
        differences = []
        transform = self.target.transform
        for table in sorted(tables if tables is not None
                            else self.source.table_names()):
            schema = self.source.table(table).schema
            source_docs = {schema.key_of(row):
                           transform.document_of(table, row)
                           for row in self.source.table(table).scan()}
            target_docs = self.target.dump(table)
            for key in sorted(set(source_docs) | set(target_docs), key=repr):
                expected = source_docs.get(key)
                actual = target_docs.get(key)
                if expected != actual:
                    differences.append((table, key, expected, actual))
        return differences
