"""The database: tables + atomic transactions + semi-sync commit.

Commit protocol (Espresso §IV.B "Robustness"): changes made by a
transaction are written to two places before being acknowledged — the
local binlog and the replication listener (Databus relay).  If the
listener cannot acknowledge, the commit fails and the transaction's
effects are rolled back, so no acknowledged commit can be lost by a
single node failure.
"""

from __future__ import annotations

from typing import Callable

from repro.common.clock import Clock, SimClock
from repro.common.errors import (
    ConfigurationError,
    DuplicateKeyError,
    KeyNotFoundError,
    ReplicationOrderError,
    ReproError,
    TransactionAbortedError,
)
from repro.sqlstore.binlog import (
    WATERMARK_TABLE,
    Binlog,
    BinlogTransaction,
    ChangeEvent,
    ChangeKind,
)
from repro.sqlstore.table import Row, Table, TableSchema


class SemiSyncTimeoutError(ReproError):
    """The semi-sync listener failed to acknowledge a commit."""


SemiSyncListener = Callable[[BinlogTransaction], bool]


class Transaction:
    """A buffered multi-table write batch with read-your-writes.

    Statements validate eagerly against the current committed state plus
    this transaction's own buffered effects; commit applies everything
    atomically and appends a single binlog transaction.
    """

    def __init__(self, database: "SqlDatabase"):
        self._db = database
        self._changes: list[ChangeEvent] = []
        # overlay of buffered effects: (table, key) -> row or None (deleted)
        self._overlay: dict[tuple[str, tuple], Row | None] = {}
        self._done = False

    def _check_open(self) -> None:
        if self._done:
            raise TransactionAbortedError("transaction already finished")

    def _current(self, table_name: str, key: tuple) -> Row | None:
        """Row as this transaction sees it (overlay over committed)."""
        if (table_name, key) in self._overlay:
            return self._overlay[(table_name, key)]
        table = self._db.table(table_name)
        return table.get(key) if table.contains(key) else None

    def insert(self, table_name: str, row: Row) -> None:
        self._check_open()
        table = self._db.table(table_name)
        table.schema.validate_row(row)
        key = table.schema.key_of(row)
        if self._current(table_name, key) is not None:
            raise DuplicateKeyError(f"{table_name}: duplicate key {key!r}")
        self._buffer(ChangeEvent(table_name, ChangeKind.INSERT, key, dict(row)))

    def update(self, table_name: str, row: Row) -> None:
        self._check_open()
        table = self._db.table(table_name)
        table.schema.validate_row(row)
        key = table.schema.key_of(row)
        if self._current(table_name, key) is None:
            raise KeyNotFoundError(f"{table_name}: no row {key!r}")
        self._buffer(ChangeEvent(table_name, ChangeKind.UPDATE, key, dict(row)))

    def upsert(self, table_name: str, row: Row) -> None:
        self._check_open()
        table = self._db.table(table_name)
        key = table.schema.key_of(row)
        if self._current(table_name, key) is None:
            self.insert(table_name, row)
        else:
            self.update(table_name, row)

    def delete(self, table_name: str, key: tuple) -> None:
        self._check_open()
        existing = self._current(table_name, key)
        if existing is None:
            raise KeyNotFoundError(f"{table_name}: no row {key!r}")
        self._buffer(ChangeEvent(table_name, ChangeKind.DELETE, key, existing))

    def get(self, table_name: str, key: tuple) -> Row:
        self._check_open()
        row = self._current(table_name, key)
        if row is None:
            raise KeyNotFoundError(f"{table_name}: no row {key!r}")
        return dict(row)

    def _buffer(self, change: ChangeEvent) -> None:
        self._changes.append(change)
        effect = None if change.kind is ChangeKind.DELETE else dict(change.row)
        self._overlay[(change.table, change.key)] = effect

    def commit(self) -> int:
        """Apply atomically; returns the assigned SCN (0 for empty txns)."""
        self._check_open()
        self._done = True
        if not self._changes:
            return 0
        return self._db._commit(self._changes)

    def rollback(self) -> None:
        self._check_open()
        self._done = True
        self._changes.clear()
        self._overlay.clear()


class SqlDatabase:
    """A named database: tables, one binlog, monotonic SCN assignment."""

    def __init__(self, name: str, clock: Clock | None = None):
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self.binlog = Binlog()
        self._tables: dict[str, Table] = {}
        self._next_scn = 1
        self._semisync: SemiSyncListener | None = None
        self.commits = 0
        self.aborts = 0

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise ConfigurationError(f"table {schema.name} exists")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ConfigurationError(f"no table {name!r} in {self.name}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- transactions ----------------------------------------------------------

    def begin(self) -> Transaction:
        return Transaction(self)

    def autocommit(self, table_name: str, row: Row,
                   kind: ChangeKind = ChangeKind.INSERT) -> int:
        """Single-statement transaction convenience."""
        txn = self.begin()
        if kind is ChangeKind.INSERT:
            txn.insert(table_name, row)
        elif kind is ChangeKind.UPDATE:
            txn.update(table_name, row)
        else:
            txn.delete(table_name, self.table(table_name).schema.key_of(row))
        return txn.commit()

    def set_semisync_listener(self, listener: SemiSyncListener | None) -> None:
        """Register the replication acknowledger (at most one).

        The listener receives the binlog transaction *before* the commit
        is finalized and must return True to acknowledge.  Returning
        False or raising aborts the commit — the "written to two places"
        guarantee.
        """
        self._semisync = listener

    def _ack_semisync(self, txn: BinlogTransaction) -> None:
        """Run the semi-sync listener; raise (and count an abort) when
        it cannot acknowledge — the "written to two places" rule."""
        if self._semisync is None:
            return
        try:
            acked = self._semisync(txn)
        except Exception as exc:
            self.aborts += 1
            raise SemiSyncTimeoutError(
                f"semi-sync listener raised: {exc}") from exc
        if not acked:
            self.aborts += 1
            raise SemiSyncTimeoutError("semi-sync listener refused ack")

    def _commit(self, changes: list[ChangeEvent]) -> int:
        scn = self._next_scn
        txn = BinlogTransaction(scn, tuple(changes), timestamp=self.clock.now())
        self._ack_semisync(txn)
        # apply to tables; validation already happened statement by statement
        for change in changes:
            table = self._tables[change.table]
            if change.kind is ChangeKind.INSERT:
                table.upsert(change.row)
            elif change.kind is ChangeKind.UPDATE:
                table.upsert(change.row)
            else:
                if table.contains(change.key):
                    table.delete(change.key)
        self._next_scn += 1
        self.binlog.append(txn)
        self.commits += 1
        return scn

    # -- migration support ----------------------------------------------------

    def write_watermark(self, label: str) -> int:
        """Append a watermark/control transaction to the binlog and
        return its SCN.  No table is touched: the watermark's only job
        is to occupy a definite position in the commit order, which is
        what lets a DBLog-style backfill bracket a lock-free chunk read
        between a low and a high watermark and identify exactly the
        live changes that interleaved with it.

        The watermark still goes through the semi-sync listener: it is
        part of the replication stream, so it must be written to two
        places like every other commit.
        """
        if not label:
            raise ConfigurationError("watermark label must be non-empty")
        scn = self._next_scn
        # the SCN in the key makes every watermark globally unique, so
        # log-compacting stores (bootstrap snapshots) never fold two
        # watermarks into one even when their labels repeat
        change = ChangeEvent(WATERMARK_TABLE, ChangeKind.WATERMARK,
                             (label, scn), {"label": label})
        txn = BinlogTransaction(scn, (change,), timestamp=self.clock.now())
        self._ack_semisync(txn)
        self._next_scn += 1
        self.binlog.append(txn)
        self.commits += 1
        return scn

    def scan_chunk(self, table_name: str, after_key: tuple | None,
                   limit: int) -> list[Row]:
        """Keyed chunk pagination over one table (row copies; every
        column value is immutable), in deterministic primary-key order —
        the migration backfill's read path.  A chunk costs O(log N +
        limit); see :meth:`Table.scan_chunk`."""
        return self.table(table_name).scan_chunk(after_key, limit)

    # -- bootstrap support ----------------------------------------------------

    @property
    def last_committed_scn(self) -> int:
        return self._next_scn - 1

    def snapshot(self) -> tuple[int, dict[str, list[Row]]]:
        """A consistent snapshot of every table plus its SCN high-water
        mark — the seed for new replicas (Espresso expansion §IV.B)."""
        return (self.last_committed_scn,
                {name: table.snapshot() for name, table in self._tables.items()})

    def restore(self, tables: dict[str, list[Row]], scn: int) -> None:
        """Load a snapshot into an empty database and fast-forward SCN.

        The binlog is fast-forwarded too: a restored replica never held
        the pre-snapshot transactions, so its log continues from ``scn``.

        All or nothing: every table's rows are validated into a staging
        table, and the binlog refuses a reset once it holds commits,
        before any table or the SCN changes.
        """
        staged = []
        for name, rows in tables.items():
            table = self.table(name)
            replacement = Table(table.schema)
            replacement.restore(rows)
            staged.append((table, replacement))
        self.binlog.reset_to(scn)
        for table, replacement in staged:
            table.adopt(replacement)
        self._next_scn = scn + 1

    def apply_replicated(self, txn: BinlogTransaction) -> None:
        """Apply a transaction replicated from a master, in SCN order.

        Used by slave replicas; enforces timeline consistency by
        refusing out-of-order application.
        """
        expected = self._next_scn
        if txn.scn < expected:
            return  # already applied (at-least-once delivery upstream)
        if txn.scn > expected:
            raise ReplicationOrderError(
                f"{self.name}: out-of-order replication: expected {expected}, "
                f"got {txn.scn}")
        for change in txn.changes:
            if change.kind is ChangeKind.WATERMARK:
                continue  # control event: position only, no table effect
            table = self._tables[change.table]
            if change.kind is ChangeKind.DELETE:
                if table.contains(change.key):
                    table.delete(change.key)
            else:
                table.upsert(change.row)
        self._next_scn = txn.scn + 1
        self.binlog.append(BinlogTransaction(txn.scn, txn.changes, txn.timestamp))
        self.commits += 1
