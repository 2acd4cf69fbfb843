"""Databus CDC events and server-side filters.

"Each change is represented by a Databus CDC event which contains a
sequence number in the commit order of the source database, metadata,
and payload with the serialized change" (§III.C).  Payloads are
serialized with the Avro-style encoder so relays never need source-
schema-specific code; the schema version travels with the event.

Transaction boundaries are preserved with an ``end_of_window`` flag on
the last event of each transaction — consumers checkpoint only at
window boundaries, which is what gives Databus transactional timeline
consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError, InvalidRequestError
from repro.common.ring import hash_key
from repro.common.serialization import Field, RecordSchema
from repro.sqlstore.binlog import BinlogTransaction, ChangeKind
from repro.sqlstore.table import TableSchema

_TYPE_MAP = {str: "string", int: "long", float: "double",
             bytes: "bytes", bool: "boolean"}


def row_schema_for(table_schema: TableSchema, version: int = 1) -> RecordSchema:
    """Derive an Avro-style record schema from a SQL table schema."""
    fields = []
    for column in table_schema.columns:
        avro_type = _TYPE_MAP.get(column.type, "bytes")
        if column.nullable:
            fields.append(Field(column.name, ["null", avro_type]))
        else:
            fields.append(Field(column.name, avro_type))
    return RecordSchema(table_schema.name, fields, version=version)


@dataclass(frozen=True)
class DatabusEvent:
    """One serialized change, addressable by commit SCN."""

    scn: int
    source: str                  # table / data-source name
    kind: ChangeKind
    key: tuple
    payload: bytes               # Avro-encoded row image (control: label)
    schema_version: int = 1
    end_of_window: bool = False  # last event of its transaction
    timestamp: float = 0.0

    @property
    def size_bytes(self) -> int:
        """Approximate wire size, used for buffer capacity accounting."""
        return len(self.payload) + 64

    @property
    def is_control(self) -> bool:
        """True for watermark/control events.  Control events carry no
        row image — their payload is the raw watermark label — and every
        server-side filter passes them through unchanged, because a
        consumer that misses a watermark cannot bracket a migration
        chunk against the live stream."""
        return self.kind is ChangeKind.WATERMARK

    def key_hash(self) -> int:
        return hash_key(repr((self.source, self.key)).encode())


def watermark_label(event: DatabusEvent) -> str:
    """The label carried by a watermark/control event."""
    if not event.is_control:
        raise InvalidRequestError(f"not a control event: {event!r}")
    return event.payload.decode("utf-8")


EventFilter = Callable[[DatabusEvent], bool]


def source_filter(*sources: str) -> EventFilter:
    """Server-side filter: only events from the named sources.
    Control events always pass — they address the stream, not a source."""
    wanted = set(sources)

    def check(event: DatabusEvent) -> bool:
        return event.is_control or event.source in wanted

    return check


def partition_filter(num_partitions: int, partition: int) -> EventFilter:
    """Server-side filter for partitioned consumer groups (§III.B):
    each consumer instance takes the keys hashing to its bucket.
    Control events pass to every partition — a watermark brackets the
    whole stream, not one key's bucket."""
    if not 0 <= partition < num_partitions:
        raise ConfigurationError(f"partition {partition} out of range")

    def check(event: DatabusEvent) -> bool:
        return event.is_control or \
            event.key_hash() % num_partitions == partition

    return check


def and_filters(*filters: EventFilter) -> EventFilter:
    def check(event: DatabusEvent) -> bool:
        return all(f(event) for f in filters)
    return check


def events_from_transaction(txn: BinlogTransaction,
                            encode: Callable[[str, dict], tuple[bytes, int]],
                            ) -> list[DatabusEvent]:
    """Convert one binlog transaction into its event window.

    ``encode`` maps (table, row) to (payload bytes, schema version) —
    the relay supplies the Avro encoding against its registry.
    """
    events = []
    last = len(txn.changes) - 1
    for i, change in enumerate(txn.changes):
        if change.kind is ChangeKind.WATERMARK:
            # control events skip Avro entirely: the payload is the raw
            # label, version 0, and no schema needs registering
            payload, version = str(change.row["label"]).encode("utf-8"), 0
        else:
            payload, version = encode(change.table, change.row)
        events.append(DatabusEvent(
            scn=txn.scn,
            source=change.table,
            kind=change.kind,
            key=change.key,
            payload=payload,
            schema_version=version,
            end_of_window=(i == last),
            timestamp=txn.timestamp,
        ))
    return events
