"""Ready-made probes and lineages for the repo's derived-data paths.

The constraint DSL is store-agnostic — it sees closures.  This module
builds those closures for the pipelines that actually exist here:

* sqlstore → Databus → Espresso (the migration target path);
* sqlstore → Databus → search index;
* Voldemort replicas behind a routed store;
* Kafka's §V.D audit trail (blame only: its reconciler's two reads
  feed ``CountConservation`` directly);
* the migration cutover gate, re-expressed as declared constraints.

Probes take their stores duck-typed wherever the layering contract has
no edge (the migration ``EspressoTarget``, a search index, a reconciler)
and read public positions only: binlog transactions, relay buffer
contents, consumer checkpoints, replica engines via the routing ring.
Everything is sorted at the point of iteration so probe output — and
therefore violation order — is deterministic.

The Espresso-target constraints also get a change feed
(:func:`espresso_changes`): the source half follows the binlog, the
target half reads the cluster relay's partition buffers through the
target's ``written_since`` — duck-typed like ``contains`` and
``get_document``.  Their probes take an optional key set and answer for
just those keys, so an evaluation costs what moved.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.common.errors import ChecksumError, KeyNotFoundError
from repro.audit.blame import (
    STAGE_BROKER,
    STAGE_CAPTURE,
    STAGE_COMMIT,
    STAGE_CONSUMER,
    STAGE_PRODUCER,
    STAGE_RELAY,
    STAGE_REPLICATION,
    STAGE_STORAGE_MEDIA,
    STAGE_STORE_WRITER,
    Lineage,
)
from repro.audit.constraints import (
    ABSENT_VALUE,
    UNREADABLE,
    KeySetContainment,
    ValueEquality,
    Violation,
    check_all,
)
from repro.databus.relay import DEFAULT_BUFFER, Relay
from repro.sqlstore.binlog import ChangeKind
from repro.sqlstore.database import SqlDatabase


# -- sqlstore-side probes ---------------------------------------------------

class binlog_key_scns:
    """``{live key: last commit SCN}`` for one table — the authoritative
    "what should downstream stores hold" — kept by *following* the
    append-only binlog: each call replays only the transactions
    committed since the previous one.  ``probe()`` is the whole map (a
    view to read, not to keep: the next call updates it in place),
    ``probe(keys)`` the entries of just those keys.  A binlog shorter
    than the followed position is not the log that was followed, and
    the follower starts over from zero."""

    def __init__(self, database: SqlDatabase, table: str):
        self.database = database
        self.table = table
        self._live: dict[tuple, int] = {}
        self._through = 0
        # per changes() feed: the keys touched since that feed was last
        # drained, or None while it cannot bound them
        self._touched: list[set | None] = []

    def __call__(self, keys: Iterable[tuple] | None = None
                 ) -> dict[tuple, int]:
        binlog = self.database.binlog
        if binlog.last_scn < self._through:
            self._live.clear()
            self._through = 0
            self._touched = [None] * len(self._touched)
        live = self._live
        for txn in binlog.read_from(self._through):
            for change in txn.changes:
                if change.table != self.table:
                    continue
                if change.kind is ChangeKind.DELETE:
                    live.pop(change.key, None)
                else:
                    live[change.key] = txn.scn
                for touched in self._touched:
                    if touched is not None:
                        touched.add(change.key)
            self._through = txn.scn
        if keys is None:
            return live
        return {key: live[key] for key in keys if key in live}

    def changes(self) -> Callable[[], set[tuple] | None]:
        """A change feed over this table: each call returns the keys
        committed (upserted or deleted) since the feed's previous call —
        None on its first call, and after the follower started over."""
        mine = len(self._touched)
        self._touched.append(None)

        def feed() -> set[tuple] | None:
            self()
            touched, self._touched[mine] = self._touched[mine], set()
            return touched
        return feed


def source_documents(database: SqlDatabase, table: str, transform
                     ) -> Callable[..., dict[tuple, dict]]:
    """``{source key: expected target document}`` under a row transform
    (the migration's :class:`RowTransform`, duck-typed): of every row,
    or of just the ``keys`` asked for."""
    def probe(keys: Iterable[tuple] | None = None) -> dict[tuple, dict]:
        sql_table = database.table(table)
        if keys is None:
            rows = sql_table.scan()
        else:
            rows = [sql_table.get(key) for key in keys
                    if sql_table.contains(key)]
        key_of = sql_table.schema.key_of
        return {key_of(row): transform.document_of(table, row)
                for row in rows}
    return probe


def espresso_changes(scns: binlog_key_scns, target, table: str
                     ) -> Callable[[], set[tuple] | None]:
    """One constraint's change feed between a source table and its
    Espresso copy: the keys committed on the source (``scns``'s binlog)
    or written through the target's storage nodes since the previous
    call; None when either side cannot bound its half.  Both halves are
    drained on every call, so neither cursor falls behind the other."""
    committed_since = scns.changes()
    cursor = None

    def feed() -> set[tuple] | None:
        nonlocal cursor
        committed = committed_since()
        written, cursor = target.written_since(table, cursor)
        if committed is None or written is None:
            return None
        return committed | written
    return feed


# -- Espresso-target constraints --------------------------------------------

def espresso_containment(name: str, database: SqlDatabase, table: str,
                         target, horizon: Callable[[], int]
                         ) -> KeySetContainment:
    """Every committed source row reaches the Espresso target by the
    certified horizon (``target`` is a migration ``EspressoTarget``)."""
    scns = binlog_key_scns(database, table)
    return KeySetContainment(
        name, subject=f"espresso:{table}",
        source_items=scns,
        contains=lambda key: target.contains(table, key),
        horizon=horizon,
        changed=espresso_changes(scns, target, table))


def _document_or_absent(target, table: str) -> Callable[[tuple], object]:
    def actual_of(key: tuple) -> object:
        document = target.get_document(table, key)
        return ABSENT_VALUE if document is None else document
    return actual_of


def espresso_value_equality(name: str, database: SqlDatabase, table: str,
                            target, horizon: Callable[[], int] | None = None
                            ) -> ValueEquality:
    """Espresso documents equal the transform of their source rows."""
    scns = binlog_key_scns(database, table)
    return ValueEquality(
        name, subject=f"espresso:{table}",
        expected_items=source_documents(database, table, target.transform),
        actual_of=_document_or_absent(target, table),
        scn_of=lambda key: scns().get(key, 0),
        horizon=horizon,
        changed=espresso_changes(scns, target, table))


# -- search-index constraints ------------------------------------------------

def search_containment(name: str, database: SqlDatabase, table: str,
                       index, horizon: Callable[[], int],
                       doc_id_of: Callable[[tuple], object] | None = None
                       ) -> KeySetContainment:
    """Every committed source row is present in the search index by the
    horizon.  ``doc_id_of`` maps a source key to the index's document
    id (default: the key's first column)."""
    ids = doc_id_of if doc_id_of is not None else (lambda key: key[0])
    return KeySetContainment(
        name, subject=f"search:{table}",
        source_items=binlog_key_scns(database, table),
        contains=lambda key: ids(key) in index,
        horizon=horizon)


# -- Voldemort replica probes ------------------------------------------------

def voldemort_replica_values(cluster, routed, store: str,
                             keys: Callable[[], Iterable[bytes]]
                             ) -> Callable[[], dict]:
    """``{key: {replica: value}}`` read directly off each responsible
    replica's engine.  Unserved keys map to the sentinels the
    :class:`~repro.audit.constraints.ReplicaAgreement` constraint (and
    the storage-media lineage check) understand."""
    def probe() -> dict:
        out: dict[bytes, dict[str, object]] = {}
        for key in sorted(keys()):
            by_replica: dict[str, object] = {}
            for node_id in routed.replica_nodes(key):
                name = cluster.node_name(node_id)
                try:
                    versions = cluster.server_for(node_id).engine(store).get(key)
                except KeyNotFoundError:
                    by_replica[name] = ABSENT_VALUE
                except ChecksumError:
                    by_replica[name] = UNREADABLE
                else:
                    by_replica[name] = tuple(
                        sorted(v.value or b"" for v in versions))
            out[key] = by_replica
        return out
    return probe


def voldemort_replica_lineage(replica_values: Callable[[], dict]) -> Lineage:
    """replication (every replica holds the key) → storage media (every
    held copy is readable)."""
    def held(violation: Violation) -> dict | None:
        return replica_values().get(violation.raw_key)

    def replication_check(violation: Violation) -> bool | None:
        by_replica = held(violation)
        if by_replica is None:
            return None
        return all(value != ABSENT_VALUE for value in by_replica.values())

    def media_check(violation: Violation) -> bool | None:
        by_replica = held(violation)
        if by_replica is None:
            return None
        return all(value != UNREADABLE for value in by_replica.values())

    return Lineage([(STAGE_REPLICATION, replication_check),
                    (STAGE_STORAGE_MEDIA, media_check)])


# -- the Databus pipeline lineage -------------------------------------------

def sqlstore_pipeline_lineage(database: SqlDatabase, table: str, capture,
                              relay: Relay, client,
                              store_check: Callable[[tuple], bool],
                              store_stage: str = STAGE_STORE_WRITER,
                              buffer_name: str = DEFAULT_BUFFER) -> Lineage:
    """commit → capture → relay → consumer → store writer, interrogated
    through the positions each stage already exposes: the binlog, the
    capture adapter's ``captured_through``, the relay buffer's window
    contents, and the client checkpoint.  ``store_check`` answers
    whether the final store holds the key correctly (containment: "is
    it there"; equality: "does it match")."""
    scns = binlog_key_scns(database, table)

    def scn_of(violation: Violation) -> int | None:
        return scns().get(violation.raw_key)

    def commit_check(violation: Violation) -> bool | None:
        # the violated key must trace back to a real commit; if not,
        # the violation is about a row the source itself lost
        return scn_of(violation) is not None

    def capture_check(violation: Violation) -> bool | None:
        scn = scn_of(violation)
        if scn is None:
            return None
        return capture.captured_through >= scn

    def relay_check(violation: Violation) -> bool | None:
        scn = scn_of(violation)
        if scn is None:
            return None
        buffer = relay.buffer(buffer_name)
        # intact if the window is still being served, or left the buffer
        # through honest eviction (a lagging consumer bootstraps; the
        # data was never silently lost)
        return buffer.contains_scn(scn) or scn <= buffer.evicted_through

    def consumer_check(violation: Violation) -> bool | None:
        scn = scn_of(violation)
        if scn is None:
            return None
        return client.checkpoint >= scn

    def writer_check(violation: Violation) -> bool | None:
        if violation.raw_key is None:
            return None
        return store_check(violation.raw_key)

    return Lineage([(STAGE_COMMIT, commit_check),
                    (STAGE_CAPTURE, capture_check),
                    (STAGE_RELAY, relay_check),
                    (STAGE_CONSUMER, consumer_check),
                    (store_stage, writer_check)])


# -- Kafka audit-trail wiring ------------------------------------------------

def kafka_audit_lineage(reconciler) -> Lineage:
    """producer (claimed a count for the bucket) → broker (holds exactly
    the claimed count), read through an ``AuditReconciler``'s
    ``produced``/``consumed`` (duck-typed)."""
    def producer_check(violation: Violation) -> bool | None:
        if violation.raw_key is None:
            return None
        return violation.raw_key in reconciler.produced()

    def broker_check(violation: Violation) -> bool | None:
        if violation.raw_key is None:
            return None
        return (reconciler.produced().get(violation.raw_key, 0)
                == reconciler.consumed().get(violation.raw_key, 0))

    return Lineage([(STAGE_PRODUCER, producer_check),
                    (STAGE_BROKER, broker_check)])


# -- the migration cutover gate ---------------------------------------------

def cutover_constraints(proxy) -> list:
    """The migration cutover gate as declared constraints: for every
    table, target values equal transformed source rows, every source
    key is on the target, and the target holds no extra keys.  ``proxy``
    is a migration ``DualWriteProxy`` (duck-typed: ``source``,
    ``target``).  Freshly built constraints have never looked, so their
    first evaluation reads both stores row for row — which is what the
    gate, building its own, always gets."""
    source, target = proxy.source, proxy.target
    constraints = []
    for table in source.table_names():
        scns = binlog_key_scns(source, table)

        def target_keys(keys: Iterable[tuple] | None = None,
                        table: str = table) -> dict[tuple, int]:
            if keys is None:
                return dict.fromkeys(target.keys(table), 0)
            return {key: 0 for key in keys if target.contains(table, key)}

        constraints.append(KeySetContainment(
            f"cutover-containment-{table}", subject=f"espresso:{table}",
            source_items=scns,
            contains=lambda key, table=table: target.contains(table, key),
            horizon=source_head(source),
            changed=espresso_changes(scns, target, table)))
        constraints.append(ValueEquality(
            f"cutover-equality-{table}", subject=f"espresso:{table}",
            expected_items=source_documents(source, table, target.transform),
            actual_of=_document_or_absent(target, table),
            changed=espresso_changes(scns, target, table)))
        constraints.append(KeySetContainment(
            f"cutover-no-extras-{table}", subject=f"source:{table}",
            source_items=target_keys,
            contains=lambda key, table=table:
                source.table(table).contains(key),
            horizon=lambda: 0,
            changed=espresso_changes(scns, target, table)))
    return constraints


def cutover_check(proxy) -> Callable[[], list[Violation]]:
    """A drop-in for ``MigrationCoordinator(cutover_check=...)``: at the
    cutover gate, evaluate the declared constraints and return their
    violations (empty == safe to cut over)."""
    constraints = cutover_constraints(proxy)
    return lambda: check_all(constraints)


def source_head(database: SqlDatabase) -> Callable[[], int]:
    """A horizon pinned to the source's committed head — correct once
    the pipeline is quiesced (the cutover gate runs with dual writes on
    and the stream drained, so there is no in-flight window)."""
    return lambda: database.last_committed_scn
