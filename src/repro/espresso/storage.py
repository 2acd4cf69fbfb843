"""Espresso storage nodes (§IV.B "Storage Node").

Each node runs one MySQL-style local store (:class:`SqlDatabase`) whose
tables follow Table IV.1 exactly — key columns from the table's URI
schema plus ``timestamp``, ``etag``, ``val`` (the Avro-serialized
document) and ``schema_version`` — and a Lucene-style local secondary
index per table.

Replica roles are per partition: a node is MASTER for some partitions
and SLAVE for a disjoint set.  Master writes assign dense *per-
partition* commit SCNs and are pushed to the partition's Databus relay
buffer before the local commit is acknowledged (the semi-synchronous
"written to two places" rule).  Slaves consume those buffers in SCN
order, which is what makes replication timeline consistent.

When constructed with a :class:`~repro.simnet.disk.Disk`, every
committed window — master commit or slave apply — is framed into a
per-node commit :class:`~repro.common.wal.WriteAheadLog` and fsynced
*before* the in-memory apply (DESIGN.md §9).  A restarted node replays
that log, rebuilding documents, local secondary indexes, and the
last-applied SCN in one pass, so the three can never diverge.  A
window captured by the relay but lost to a crash before the WAL fsync
is re-fetched from the relay by the normal catch-up path: the dense
SCN sequence makes replay idempotent (duplicates skip, gaps raise).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.common.atomic import atomic_section
from repro.common.clock import Clock, SimClock
from repro.common.errors import (
    ConfigurationError,
    KeyNotFoundError,
    NotMasterError,
    ReplicationOrderError,
    TransactionAbortedError,
)
from repro.common.serialization import decode_record, decode_with_resolution, encode_record
from repro.common.wal import WriteAheadLog
from repro.databus.events import DatabusEvent
from repro.databus.relay import Relay
from repro.espresso.index import LocalSecondaryIndex
from repro.espresso.schema import DatabaseSchema, DocumentSchemaRegistry
from repro.simnet.disk import Disk
from repro.sqlstore import Column, SqlDatabase, TableSchema
from repro.sqlstore.binlog import BinlogTransaction, ChangeEvent, ChangeKind

# commit-WAL framing: one frame per committed window
_WAL_WINDOW = struct.Struct("<IQI")   # partition, scn, change count
_WAL_CHANGE = struct.Struct("<III")   # schema version, table len, payload len
_KIND_LIST = (ChangeKind.INSERT, ChangeKind.UPDATE, ChangeKind.DELETE)
_KIND_CODES = {kind: code for code, kind in enumerate(_KIND_LIST)}


def row_table_schema(database: DatabaseSchema, table_name: str) -> TableSchema:
    """The MySQL layout for one Espresso table (Table IV.1)."""
    espresso_table = database.table(table_name)
    columns = [Column(keypart, str) for keypart in espresso_table.key_fields]
    columns += [
        Column("timestamp", int),
        Column("etag", str),
        Column("val", bytes, nullable=True),
        Column("schema_version", int),
    ]
    return TableSchema(table_name, tuple(columns), espresso_table.key_fields)


def _wal_items(events: list[DatabusEvent]) -> list[tuple[int, str, int, bytes]]:
    """Commit-WAL items of one window's data events."""
    return [(_KIND_CODES[e.kind], e.source, e.schema_version, e.payload)
            for e in events]


def partition_buffer_name(database: str, partition: int) -> str:
    """Relay buffer naming: one event buffer per partition (§IV.B)."""
    return f"{database}-p{partition}"


@dataclass
class DocumentRecord:
    """A decoded read result."""

    key: tuple[str, ...]
    document: dict
    etag: str
    timestamp: int
    schema_version: int


class EspressoStorageNode:
    """One storage node's state: local store, indexes, replica roles."""

    def __init__(self, instance_name: str, database: DatabaseSchema,
                 schemas: DocumentSchemaRegistry, relay: Relay,
                 clock: Clock | None = None,
                 disk: Disk | None = None):
        self.instance_name = instance_name
        self.database = database
        self.schemas = schemas
        self.relay = relay
        self.clock = clock if clock is not None else SimClock()
        self.local = SqlDatabase(f"{database.name}@{instance_name}",
                                 clock=self.clock)
        self._indexes: dict[str, LocalSecondaryIndex] = {}
        for table_name in database.table_names():
            self.local.create_table(row_table_schema(database, table_name))
            if relay.schemas.latest(table_name) is None:
                from repro.databus.events import row_schema_for
                relay.register_schema(
                    row_schema_for(self.local.table(table_name).schema))
        # partition -> "MASTER" | "SLAVE"
        self.roles: dict[int, str] = {}
        # per-partition commit SCN (masters produce, slaves track applied)
        self.partition_scn: dict[int, int] = {}
        self.writes_accepted = 0
        self.windows_applied = 0
        self.recovered_windows = 0
        self._commit_wal: WriteAheadLog | None = None
        if disk is not None:
            self._commit_wal = WriteAheadLog("commit.wal", disk=disk)
            self._recover_from_wal()

    # -- commit log / recovery --------------------------------------------------

    def _wal_append_window(self, partition: int, scn: int,
                           items: list[tuple[int, str, int, bytes]]) -> None:
        """Frame one committed window and make it durable *before* the
        in-memory apply; items are (kind code, table, version, payload)."""
        if self._commit_wal is None:
            return
        out = bytearray(_WAL_WINDOW.pack(partition, scn, len(items)))
        for code, table, version, payload in items:
            name = table.encode()
            out.append(code)
            out.extend(_WAL_CHANGE.pack(version, len(name), len(payload)))
            out.extend(name)
            out.extend(payload)
        self._commit_wal.append(bytes(out))
        self._commit_wal.fsync()  # the commit is acked against this frame

    def _recover_from_wal(self) -> None:
        """Replay the commit log: rows, secondary indexes, and the
        last-applied SCN are rebuilt from the same frames, so a crash
        can never leave the index diverged from the data store."""
        for frame in self._commit_wal.replay():
            partition, scn, count = _WAL_WINDOW.unpack_from(frame, 0)
            offset = _WAL_WINDOW.size
            changes: list[ChangeEvent] = []
            for _ in range(count):
                code = frame[offset]
                offset += 1
                version, name_len, payload_len = _WAL_CHANGE.unpack_from(
                    frame, offset)
                offset += _WAL_CHANGE.size
                table = frame[offset:offset + name_len].decode()
                offset += name_len
                payload = bytes(frame[offset:offset + payload_len])
                offset += payload_len
                schema = self.relay.schemas.get(table, version)
                row = decode_record(schema, payload)
                key = tuple(row[k]
                            for k in self.database.table(table).key_fields)
                changes.append(ChangeEvent(table, _KIND_LIST[code], key, row))
            self._apply_changes(changes)
            self.partition_scn[partition] = scn
            self.recovered_windows += 1

    # -- roles ----------------------------------------------------------------

    def role_of(self, partition: int) -> str | None:
        return self.roles.get(partition)

    def is_master(self, partition: int) -> bool:
        return self.roles.get(partition) == "MASTER"

    def become_slave(self, partition: int) -> None:
        self.roles[partition] = "SLAVE"
        self.partition_scn.setdefault(partition, 0)

    def become_master(self, partition: int) -> None:
        """Promote after draining the partition's relay buffer (§IV.B):
        'The slave partition first consumes all outstanding changes to
        the partition from the Databus relay, and then becomes a master
        partition.'"""
        self.catch_up(partition)
        self.roles[partition] = "MASTER"

    def go_offline(self, partition: int) -> None:
        self.roles.pop(partition, None)

    def mastered_partitions(self) -> list[int]:
        return sorted(p for p, r in self.roles.items() if r == "MASTER")

    def slaved_partitions(self) -> list[int]:
        return sorted(p for p, r in self.roles.items() if r == "SLAVE")

    # -- document encoding -------------------------------------------------------

    def _index_for(self, table: str) -> LocalSecondaryIndex:
        latest = self.schemas.latest(self.database.name, table)
        index = self._indexes.get(table)
        if index is None or index.schema.version != latest.version:
            stale, index = index, LocalSecondaryIndex(latest)
            self._indexes[table] = index
            if stale is not None and not stale.is_empty:
                for row in self.local.table(table).scan():
                    self._index_row(table, row)
        return index

    def _index_row(self, table: str, row: dict) -> None:
        """Index a stored row through the index's *projection*: ``val``
        resolved against the latest schema restricted to its indexed
        fields — the terms a full decode would give, every other field
        skipped, and nothing read at all for an un-indexed table."""
        index = self._index_for(table)
        if index.projection.fields:
            key = tuple(row[k] for k in self.database.table(table).key_fields)
            writer = self.schemas.get(self.database.name, table,
                                      row["schema_version"])
            index.add(key, decode_with_resolution(writer, index.projection,
                                                  row["val"]))

    def _decode_row(self, table: str, row: dict) -> DocumentRecord:
        espresso_table = self.database.table(table)
        key = tuple(row[k] for k in espresso_table.key_fields)
        writer = self.schemas.get(self.database.name, table,
                                  row["schema_version"])
        reader = self.schemas.latest(self.database.name, table)
        if writer.version == reader.version:
            document = decode_record(writer, row["val"])
        else:
            document = decode_with_resolution(writer, reader, row["val"])
        return DocumentRecord(key, document, row["etag"], row["timestamp"],
                              row["schema_version"])

    def _build_row(self, table: str, key: tuple[str, ...],
                   document: dict) -> dict:
        espresso_table = self.database.table(table)
        if len(key) != espresso_table.key_depth:
            raise ConfigurationError(
                f"table {table} keys have {espresso_table.key_depth} "
                f"elements, got {len(key)}")
        schema = self.schemas.latest(self.database.name, table)
        val = encode_record(schema, document)
        row = dict(zip(espresso_table.key_fields, key))
        row.update({
            "timestamp": int(self.clock.now() * 1000),
            "etag": hashlib.md5(val).hexdigest()[:10],
            "val": val,
            "schema_version": schema.version,
        })
        return row

    # -- master write path -----------------------------------------------------------

    def _check_master(self, partition: int) -> None:
        if not self.is_master(partition):
            raise NotMasterError(
                f"{self.instance_name} is {self.roles.get(partition)} "
                f"for partition {partition}", partition_id=partition)

    def put_document(self, table: str, key: tuple[str, ...],
                     document: dict, expected_etag: str | None = None) -> str:
        """Insert or replace one document; returns its new etag.

        ``expected_etag`` implements conditional HTTP requests: the
        write fails unless the stored etag matches.
        """
        partition = self.database.partition_for(key[0])
        self._check_master(partition)
        row = self._build_row(table, key, document)
        sql_table = self.local.table(table)
        exists = sql_table.contains(key)
        if expected_etag is not None:
            if not exists or sql_table.get(key)["etag"] != expected_etag:
                raise TransactionAbortedError(
                    f"etag precondition failed for {key!r}")
        kind = ChangeKind.UPDATE if exists else ChangeKind.INSERT
        self._commit_as_master(partition,
                               [ChangeEvent(table, kind, key, row)])
        return row["etag"]

    def delete_document(self, table: str, key: tuple[str, ...]) -> None:
        partition = self.database.partition_for(key[0])
        self._check_master(partition)
        sql_table = self.local.table(table)
        if not sql_table.contains(key):
            raise KeyNotFoundError(f"{table}: {key!r}")
        old = sql_table.get(key)
        self._commit_as_master(partition,
                               [ChangeEvent(table, ChangeKind.DELETE, key, old)])

    def transact(self, resource_id: str,
                 operations: list[tuple[str, str, tuple, dict | None]]) -> int:
        """Multi-table transaction within one resource group (§IV.A).

        ``operations`` are ``(op, table, key, document)`` with op in
        {"put", "delete"}; every key must lead with ``resource_id`` so
        all changes land in one partition.  All-or-nothing.
        """
        if not operations:
            raise TransactionAbortedError("empty transaction")
        partition = self.database.partition_for(resource_id)
        self._check_master(partition)
        changes: list[ChangeEvent] = []
        for op, table, key, document in operations:
            if key[0] != resource_id:
                raise TransactionAbortedError(
                    f"cross-resource transaction: {key[0]!r} != {resource_id!r}")
            sql_table = self.local.table(table)
            if op == "put":
                row = self._build_row(table, key, document)
                kind = (ChangeKind.UPDATE if sql_table.contains(key)
                        else ChangeKind.INSERT)
                changes.append(ChangeEvent(table, kind, key, row))
            elif op == "delete":
                if not sql_table.contains(key):
                    raise TransactionAbortedError(f"{table}: no row {key!r}")
                changes.append(ChangeEvent(table, ChangeKind.DELETE, key,
                                           sql_table.get(key)))
            else:
                raise TransactionAbortedError(f"unknown op {op!r}")
        return self._commit_as_master(partition, changes)

    def bulk_apply(self, table: str,
                   documents: list[tuple[tuple[str, ...], dict]]
                   ) -> dict[int, int]:
        """Bulk load path: commit a batch of ``(key, document)`` upserts
        as **one window per partition** instead of one per document.

        This is what a migration backfill uses to land a whole chunk:
        one relay window, one WAL frame, and one fsync per touched
        partition, so the per-document commit overhead disappears while
        replication and durability semantics stay identical to the
        normal write path.  Returns ``{partition: committed SCN}``.
        """
        by_partition: dict[int, list[ChangeEvent]] = {}
        for key, document in documents:
            partition = self.database.partition_for(key[0])
            self._check_master(partition)
            row = self._build_row(table, key, document)
            kind = (ChangeKind.UPDATE if self.local.table(table).contains(key)
                    else ChangeKind.INSERT)
            by_partition.setdefault(partition, []).append(
                ChangeEvent(table, kind, key, row))
        scns: dict[int, int] = {}
        for partition in sorted(by_partition):
            scns[partition] = self._commit_as_master(
                partition, by_partition[partition])
        return scns

    def _commit_as_master(self, partition: int,
                          changes: list[ChangeEvent]) -> int:
        """The semi-sync commit: relay first, then local apply."""
        scn = self.partition_scn.get(partition, 0) + 1
        txn = BinlogTransaction(scn, tuple(changes),
                                timestamp=self.clock.now())
        # write to the relay *before* acknowledging locally; a relay
        # failure aborts the commit (nothing applied locally yet)
        events = self.relay.capture_transaction(
            txn, buffer_name=partition_buffer_name(self.database.name,
                                                   partition))
        # a crash after the relay capture but before this fsync is
        # healed by catch-up: the relay holds the window, the dense SCN
        # check makes re-application exact.  The frame carries the
        # payloads the relay just encoded — a change is encoded once.
        self._wal_append_window(partition, scn, _wal_items(events))
        self._apply_committed(partition, scn, changes)
        self.writes_accepted += 1
        return scn

    @atomic_section
    def _apply_committed(self, partition: int, scn: int,
                         changes: list[ChangeEvent]) -> None:
        """Make a WAL-durable window visible: doc + index + SCN as one
        unit.

        The WAL fsync above is a yield point — another commit or a
        replayed window may have advanced the partition SCN while this
        window was being made durable, so the pre-fsync read of the SCN
        must be revalidated before applying on top of it.  The
        ``@atomic_section`` decorator has repro-lint prove the
        revalidate-then-apply sequence itself contains no further yield
        point, which is what makes the check-then-act here race-free.
        """
        current = self.partition_scn.get(partition, 0)
        if current != scn - 1:
            raise ReplicationOrderError(
                f"partition {partition}: SCN advanced to {current} while "
                f"the window for SCN {scn} was being made durable; a "
                "concurrent commit or replay raced the WAL fsync")
        self._apply_changes(changes)
        self.partition_scn[partition] = scn

    def _apply_changes(self, changes: list[ChangeEvent]) -> None:
        for change in changes:
            sql_table = self.local.table(change.table)
            if change.kind is ChangeKind.DELETE:
                if sql_table.contains(change.key):
                    sql_table.delete(change.key)
                self._index_for(change.table).remove(change.key)
            else:
                sql_table.upsert(change.row)
                self._index_row(change.table, change.row)

    # -- slave replication path ----------------------------------------------------------

    def catch_up(self, partition: int) -> int:
        """Consume the partition's relay buffer up to its head; returns
        the number of windows applied."""
        buffer_name = partition_buffer_name(self.database.name, partition)
        applied = 0
        while True:
            events = self.relay.stream_from(
                self.partition_scn.get(partition, 0), buffer_name)
            if not events:
                return applied
            applied += self._apply_event_windows(partition, events)

    def _apply_event_windows(self, partition: int,
                             events: list[DatabusEvent]) -> int:
        windows = 0
        window: list[DatabusEvent] = []
        for event in events:
            window.append(event)
            if event.end_of_window:
                self._apply_one_window(partition, window)
                windows += 1
                window = []
        return windows

    def _apply_one_window(self, partition: int,
                          events: list[DatabusEvent]) -> None:
        scn = events[0].scn
        expected = self.partition_scn.get(partition, 0) + 1
        if scn < expected:
            return  # duplicate delivery
        if scn > expected:
            raise ConfigurationError(
                f"{self.instance_name}: partition {partition} SCN gap: "
                f"expected {expected}, got {scn}")
        # watermark/control events occupy an SCN but carry no row image;
        # the SCN bookkeeping below still advances past them
        data_events = [e for e in events if not e.is_control]
        changes = []
        for event in data_events:
            schema = self.relay.schemas.get(event.source, event.schema_version)
            row = decode_record(schema, event.payload)
            changes.append(ChangeEvent(event.source, event.kind, event.key, row))
        self._wal_append_window(partition, scn, _wal_items(data_events))
        self._apply_committed(partition, scn, changes)
        self.windows_applied += 1

    # -- reads ------------------------------------------------------------------------------

    def get_document(self, table: str, key: tuple[str, ...]) -> DocumentRecord:
        sql_table = self.local.table(table)
        if not sql_table.contains(key):
            raise KeyNotFoundError(f"{table}: {key!r}")
        return self._decode_row(table, sql_table.get(key))

    def get_collection(self, table: str,
                       resource_id: str) -> list[DocumentRecord]:
        """Every document of a collection resource, key order."""
        sql_table = self.local.table(table)
        return [self._decode_row(table, row)
                for row in sql_table.scan((resource_id,))]

    def query_index(self, table: str, fieldname: str, value: str,
                    resource_id: str | None = None) -> list[DocumentRecord]:
        """Index lookup then fetch from the local data store (§IV.B)."""
        index = self._index_for(table)
        keys = index.query(fieldname, value, resource_id)
        return [self.get_document(table, key) for key in keys]

    def query_full_scan(self, table: str, fieldname: str, value: str,
                        resource_id: str | None = None) -> list[DocumentRecord]:
        """The no-index baseline: decode and test every document."""
        prefix = (resource_id,) if resource_id is not None else ()
        out = []
        needle = value.lower()
        for row in self.local.table(table).scan(prefix):
            record = self._decode_row(table, row)
            stored = record.document.get(fieldname)
            if stored is None:
                continue
            if needle in str(stored).lower():
                out.append(record)
        return out

    # -- snapshots for expansion (§IV.B) ---------------------------------------------------

    def partition_snapshot(self, partition: int) -> tuple[int, dict[str, list[dict]]]:
        """Rows of one partition plus its SCN, for bootstrapping a new
        replica."""
        rows: dict[str, list[dict]] = {}
        for table_name in self.database.table_names():
            espresso_table = self.database.table(table_name)
            rows[table_name] = [
                row for row in self.local.table(table_name).scan()
                if self.database.partition_for(
                    row[espresso_table.resource_field]) == partition
            ]
        return self.partition_scn.get(partition, 0), rows

    def load_partition_snapshot(self, partition: int, scn: int,
                                rows: dict[str, list[dict]]) -> None:
        # persist the snapshot as one synthetic insert window: without
        # it, a WAL replay would rebuild post-snapshot windows on top of
        # a missing base and silently diverge from the donor
        items = []
        for table_name in sorted(rows):
            schema = self.relay.schemas.latest(table_name)
            for row in rows[table_name]:
                items.append((_KIND_CODES[ChangeKind.INSERT], table_name,
                              schema.version, encode_record(schema, row)))
        self._wal_append_window(partition, scn, items)
        for table_name, table_rows in rows.items():
            sql_table = self.local.table(table_name)
            for row in table_rows:
                sql_table.upsert(row)
                self._index_row(table_name, row)
        self.partition_scn[partition] = scn
