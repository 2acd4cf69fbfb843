"""The migration target: an Espresso cluster fronted by an adapter.

The paper's arc is moving source-of-truth data off legacy SQL stores
onto Espresso (PAPER.md §IV), so the migration subsystem's target is a
running :class:`~repro.espresso.cluster.EspressoCluster`.  The adapter
owns the *shape translation* between the two worlds:

* a source primary key ``(member_id,)`` (ints or strings) becomes an
  Espresso resource key ``("123",)`` — Espresso URIs are strings;
* a source row becomes a document holding the non-key columns, encoded
  against a document schema derived from the source table schema;
* writes route to the master of the key's partition via the cluster's
  external view, so Helix failover is transparent to the migration;
* chunk loads use the storage node's :meth:`bulk_apply` path — one
  commit window per partition per chunk instead of one per row.

Everything the comparator needs — the row→document transform and the
key stringification — lives here too, so the dual-write proxy and the
backfill agree byte-for-byte on what "equal" means.
"""

from __future__ import annotations

from repro.common.errors import (
    ConfigurationError,
    KeyNotFoundError,
    SCNGoneError,
)
from repro.common.serialization import Field, RecordSchema, encode_record
from repro.espresso.cluster import EspressoCluster
from repro.espresso.schema import DatabaseSchema, EspressoTableSchema
from repro.espresso.storage import (
    EspressoStorageNode,
    document_fingerprint,
    partition_buffer_name,
)
from repro.sqlstore.database import SqlDatabase
from repro.sqlstore.table import Row, TableSchema

_TYPE_MAP = {str: "string", int: "long", float: "double",
             bytes: "bytes", bool: "boolean"}
_KEY_TYPES = (str, int)   # key columns we can round-trip through strings


def document_schema_for(table_schema: TableSchema,
                        version: int = 1) -> RecordSchema:
    """The Espresso document schema for one source table: its non-key
    columns as an Avro-style record named after the table."""
    fields = []
    key_columns = set(table_schema.primary_key)
    for column in table_schema.columns:
        if column.name in key_columns:
            continue
        avro_type = _TYPE_MAP.get(column.type, "bytes")
        if column.nullable:
            fields.append(Field(column.name, ["null", avro_type]))
        else:
            fields.append(Field(column.name, avro_type))
    if not fields:
        raise ConfigurationError(
            f"table {table_schema.name}: no non-key columns to migrate")
    return RecordSchema(table_schema.name, fields, version=version)


def espresso_schema_for(source: SqlDatabase, num_partitions: int = 8,
                        replication_factor: int = 2) -> DatabaseSchema:
    """An Espresso database schema mirroring every source table: same
    table names, key fields named after the source primary-key columns."""
    tables = []
    for table_name in source.table_names():
        schema = source.table(table_name).schema
        for pk in schema.primary_key:
            if schema.column(pk).type not in _KEY_TYPES:
                raise ConfigurationError(
                    f"table {table_name}: key column {pk!r} has type "
                    f"{schema.column(pk).type.__name__}; migration keys "
                    "must be str or int to round-trip through Espresso "
                    "resource paths")
        tables.append(EspressoTableSchema(table_name, schema.primary_key))
    return DatabaseSchema(f"{source.name}-espresso",
                          num_partitions=num_partitions,
                          replication_factor=replication_factor,
                          tables=tuple(tables))


class RowTransform:
    """Deterministic source-row ↔ target-document translation for one
    source database.  Both the backfill and the shadow-read comparator
    use this one object, so "source == target" has a single meaning.

    A document holds every non-key column, ``None`` for a nullable one
    the row omits: the target decodes an omitted nullable field as
    ``None``, so that is the value the two sides agree on."""

    def __init__(self, source: SqlDatabase):
        # per table: its schema, its key column types and its non-key
        # column names, in schema order
        self._tables: dict[str, tuple[TableSchema, tuple[type, ...],
                                      tuple[str, ...]]] = {}
        for name in source.table_names():
            schema = source.table(name).schema
            self._tables[name] = (
                schema,
                tuple(schema.column(pk).type for pk in schema.primary_key),
                tuple(c.name for c in schema.columns
                      if c.name not in schema.primary_key))

    def _table(self, table: str) -> tuple[TableSchema, tuple[type, ...],
                                          tuple[str, ...]]:
        try:
            return self._tables[table]
        except KeyError:
            raise ConfigurationError(f"unknown table {table!r}") from None

    def schema(self, table: str) -> TableSchema:
        return self._table(table)[0]

    def target_key(self, table: str, source_key: tuple) -> tuple[str, ...]:
        """Source primary key → Espresso resource key (stringified)."""
        del table  # every table stringifies the same way
        return tuple(str(part) for part in source_key)

    def source_key(self, table: str, target_key: tuple[str, ...]) -> tuple:
        """Espresso resource key → typed source primary key."""
        _, key_types, _ = self._table(table)
        return tuple(kind(part) for kind, part in zip(key_types, target_key))

    def document_of(self, table: str, row: Row) -> dict:
        """The non-key columns of a source row, in schema column order,
        ``None`` for an omitted nullable one."""
        _, _, value_columns = self._table(table)
        return {name: row.get(name) for name in value_columns}

    def row_of(self, table: str, target_key: tuple[str, ...],
               document: dict) -> Row:
        """Rebuild a source-shaped row from a target document."""
        schema = self.schema(table)
        row = dict(zip(schema.primary_key,
                       self.source_key(table, target_key)))
        row.update(document)
        return row

    def complete_row(self, table: str, row: Row) -> Row:
        """Fill ``row`` in place with ``None`` for every omitted nullable
        column, and return it: the shape :meth:`row_of` rebuilds."""
        _, _, value_columns = self._table(table)
        for name in value_columns:
            row.setdefault(name, None)
        return row


class EspressoTarget:
    """Routes migration reads/writes to the cluster's partition masters.

    Deletes are idempotent: the live stream may replay a delete for a
    row the backfill never copied (or replay one it already applied),
    and neither case is an error — convergence, not strictness, is the
    contract on the target side of a migration.
    """

    def __init__(self, cluster: EspressoCluster, transform: RowTransform):
        self.cluster = cluster
        self.transform = transform
        self.puts = 0
        self.deletes = 0
        self.bulk_rows = 0
        for table_name in cluster.database.table_names():
            if not cluster.schemas.has_schema(cluster.database.name,
                                              table_name):
                cluster.post_document_schema(
                    table_name,
                    document_schema_for(self.transform.schema(table_name)))

    # -- write path ---------------------------------------------------------

    def _master_for(self, resource_id: str) -> EspressoStorageNode:
        return self.cluster.node_for_resource(resource_id)

    def put_row(self, table: str, row: Row) -> None:
        """Upsert one source-shaped row (live replication / dual write)."""
        schema = self.transform.schema(table)
        key = self.transform.target_key(table, schema.key_of(row))
        document = self.transform.document_of(table, row)
        self._master_for(key[0]).put_document(table, key, document)
        self.puts += 1

    def delete_row(self, table: str, source_key: tuple) -> None:
        key = self.transform.target_key(table, source_key)
        try:
            self._master_for(key[0]).delete_document(table, key)
        except KeyNotFoundError:
            return  # already absent: replayed or never-backfilled delete
        self.deletes += 1

    def bulk_apply_rows(self, table: str, rows: list[Row]) -> int:
        """Land one backfill chunk through the bulk path: rows grouped
        by partition master, one commit window per partition each."""
        schema = self.transform.schema(table)
        by_node: dict[str, list[tuple[tuple[str, ...], dict]]] = {}
        node_of: dict[str, EspressoStorageNode] = {}
        for row in rows:
            key = self.transform.target_key(table, schema.key_of(row))
            node = self._master_for(key[0])
            node_of[node.instance_name] = node
            by_node.setdefault(node.instance_name, []).append(
                (key, self.transform.document_of(table, row)))
        for instance_name in sorted(by_node):
            node_of[instance_name].bulk_apply(table, by_node[instance_name])
        self.bulk_rows += len(rows)
        return len(rows)

    # -- read path ----------------------------------------------------------

    def get_document(self, table: str, source_key: tuple) -> dict | None:
        """The stored document for a source key, or None when absent."""
        key = self.transform.target_key(table, source_key)
        try:
            node = self._master_for(key[0])
            return node.get_document(table, key).document
        except KeyNotFoundError:
            return None

    def get_row(self, table: str, source_key: tuple) -> Row | None:
        """A source-shaped row served from the target, or None."""
        document = self.get_document(table, source_key)
        if document is None:
            return None
        key = self.transform.target_key(table, source_key)
        return self.transform.row_of(table, key, document)

    # -- verification --------------------------------------------------------

    def contains(self, table: str, source_key: tuple) -> bool:
        """Whether a document is stored for a source key; reads no ``val``."""
        key = self.transform.target_key(table, source_key)
        return self._master_for(key[0]).local.table(table).contains(key)

    def written_since(self, table: str, cursor: dict | None
                      ) -> tuple[set[tuple] | None, dict | None]:
        """The *source* keys of ``table`` written or deleted through the
        storage nodes since ``cursor``, and the cursor to pass next time
        (``{partition: (master, its applied SCN)}``, taken before any
        key is read).  Every master commit goes to its partition's relay
        buffer first, so the keys are read off those buffers — two
        bisects and a slice per partition, nothing stored is touched.

        The keys are None when the delta cannot be bounded: no cursor,
        the buffer evicted past it, the partition's head below it, or a
        partition whose master is not the one the cursor was taken
        from — that is another copy of the data, and nobody has looked
        at it yet."""
        database = self.cluster.database
        position: dict[int, tuple[str, int]] = {}
        keys: set[tuple] | None = set() if cursor is not None else None
        for partition in range(database.num_partitions):
            master = self.cluster.master_node(partition)
            if master is None:
                return None, None   # mid-failover: nothing to read from
            head = master.partition_scn.get(partition, 0)
            position[partition] = (master.instance_name, head)
            if keys is None:
                continue
            name, since = cursor[partition]
            if name != master.instance_name or head < since:
                keys = None
                continue
            buffer = self.cluster.relay.buffer(
                partition_buffer_name(database.name, partition))
            try:
                events = buffer.events_since(since)
                while events:
                    keys.update(self.transform.source_key(table, event.key)
                                for event in events if event.source == table)
                    events = buffer.events_since(events[-1].scn)
            except SCNGoneError:
                keys = None
        return keys, position

    def _masters(self) -> list[EspressoStorageNode]:
        """Every partition's master node, in partition order."""
        masters = []
        for partition in range(self.cluster.database.num_partitions):
            node = self.cluster.master_node(partition)
            if node is None:
                raise ConfigurationError(
                    f"partition {partition} has no master; converge the "
                    "cluster before verifying")
            masters.append(node)
        return masters

    def _master_keys(self, table: str, partitions: set[int] | None = None):
        """``(master node, target key)`` of every stored document (of
        just ``partitions`` when given): each node's table is scanned
        once, keeping the rows of the partitions that node masters (it
        stores the ones it slaves too)."""
        database = self.cluster.database
        masters: dict[str, tuple[EspressoStorageNode, set[int]]] = {}
        for partition, node in enumerate(self._masters()):
            if partitions is None or partition in partitions:
                masters.setdefault(node.instance_name,
                                   (node, set()))[1].add(partition)
        key_fields = database.table(table).key_fields
        for node, mastered in masters.values():
            for row in node.local.table(table).scan():
                if database.partition_for(row[key_fields[0]]) in mastered:
                    yield node, tuple(row[k] for k in key_fields)

    def keys(self, table: str, partitions: set[int] | None = None
             ) -> list[tuple]:
        """The *source* key of every stored document, or of those in
        ``partitions``; reads no ``val``."""
        return [self.transform.source_key(table, key)
                for _, key in self._master_keys(table, partitions)]

    def dump(self, table: str) -> dict[tuple, dict]:
        """Every stored document keyed by *source* key, for full
        comparison against the source table."""
        return {self.transform.source_key(table, key):
                node.get_document(table, key).document
                for node, key in self._master_keys(table)}

    # -- content digests -------------------------------------------------------

    def partition_of(self, table: str, source_key: tuple) -> int:
        """The Espresso partition a source key's document lives in."""
        return self.cluster.database.partition_for(
            self.transform.target_key(table, source_key)[0])

    def source_digests(self, source: SqlDatabase, table: str
                       ) -> dict[int, int]:
        """``{partition: digest}`` of ``source``'s rows of ``table`` as
        this target would store them: each row's
        :func:`~repro.espresso.storage.document_fingerprint` over its
        target key, the latest document schema's version and its
        document encoded under that schema, in its target key's
        partition.  The source table keeps the sums from the first ask,
        under a definition named by what it computes — Espresso
        database, partition count, table, schema version — so every
        verifier of this migration shares one."""
        database = self.cluster.database
        latest = self.cluster.schemas.latest(database.name, table)
        transform, partition_for = self.transform, database.partition_for
        key_of = source.table(table).schema.key_of

        def fingerprint(row: Row) -> tuple[int, int]:
            key = transform.target_key(table, key_of(row))
            return partition_for(key[0]), document_fingerprint(
                key, latest.version,
                encode_record(latest, transform.document_of(table, row)))
        definition = ("espresso-document", database.name,
                      database.num_partitions, table, latest.version)
        return source.table(table).digest(definition, fingerprint)

    def unsettled_partitions(self, source: SqlDatabase, table: str
                             ) -> list[int]:
        """The partitions of ``table`` whose master's digest differs
        from the source's: equal digests mean equal multisets of (key,
        schema version, ``val`` bytes), up to a 2**-64 collision, so
        only these partitions can hold a difference.  A row the target
        holds under an older document schema differs here, and decodes
        equal in a row-by-row comparison."""
        masters = self._masters()
        expected = self.source_digests(source, table)
        held: dict[str, dict[int, int]] = {}
        unsettled = []
        for partition, node in enumerate(masters):
            digests = held.get(node.instance_name)
            if digests is None:
                digests = held[node.instance_name] = \
                    node.partition_digests(table)
            if digests.get(partition, 0) != expected.get(partition, 0):
                unsettled.append(partition)
        return unsettled
