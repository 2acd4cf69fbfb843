"""Database, table, and document schemas (§IV.A).

* A **database schema** declares the partitioning strategy (hash or
  unpartitioned), partition count, and replication factor.
* A **table schema** declares the URI path elements — which key parts
  identify a document (resource id, subresource ids).  Tables sharing a
  database partition by the leading ``resource_id`` element, which is
  what makes multi-table transactions within one resource group safe.
* **Document schemas** are Avro-style records, registered in a
  versioned registry; evolution must satisfy the resolution rules.
  Fields annotated ``indexed`` or ``free_text`` create local secondary
  index entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.ring import hash_key
from repro.common.serialization import RecordSchema, SchemaRegistry


@dataclass(frozen=True)
class EspressoTableSchema:
    """URI structure for one table: names of the key path elements."""

    name: str
    key_fields: tuple[str, ...]  # first is the resource_id element

    def __post_init__(self):
        if not self.key_fields:
            raise ConfigurationError(f"table {self.name}: needs key fields")
        if len(set(self.key_fields)) != len(self.key_fields):
            raise ConfigurationError(f"table {self.name}: duplicate key fields")

    @property
    def resource_field(self) -> str:
        return self.key_fields[0]

    @property
    def key_depth(self) -> int:
        return len(self.key_fields)


@dataclass(frozen=True)
class DatabaseSchema:
    """Partitioning and replication for one Espresso database."""

    name: str
    num_partitions: int = 8
    replication_factor: int = 2
    partitioning: str = "hash"  # "hash" | "unpartitioned"
    tables: tuple[EspressoTableSchema, ...] = ()

    def __post_init__(self):
        if self.partitioning not in ("hash", "unpartitioned"):
            raise ConfigurationError(
                f"unsupported partitioning {self.partitioning!r} "
                "(hash and unpartitioned only, range is future work)")
        if self.num_partitions <= 0 or self.replication_factor <= 0:
            raise ConfigurationError("partitions and replicas must be positive")
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate table names")

    def table(self, name: str) -> EspressoTableSchema:
        for table in self.tables:
            if table.name == name:
                return table
        raise ConfigurationError(f"database {self.name} has no table {name!r}")

    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]

    def partition_for(self, resource_id: str) -> int:
        """The routing function applied to the resource_id (§IV.B Router).

        Every table keys by resource id first, so "all tables within a
        single database indexed by the same resource_id path element
        will partition identically" — the transactional-update
        guarantee.
        """
        if self.partitioning == "unpartitioned":
            return 0
        return hash_key(resource_id.encode("utf-8")) % self.num_partitions


class DocumentSchemaRegistry:
    """Versioned document schemas per (database, table).

    "To evolve a document schema, one simply posts a new version to the
    schema URI.  New document schemas must be compatible according to
    the Avro schema resolution rules" — enforced by the underlying
    :class:`SchemaRegistry`.
    """

    def __init__(self):
        self._registries: dict[tuple[str, str], SchemaRegistry] = {}

    def post(self, database: str, table: str, schema: RecordSchema) -> int:
        """Register a (new version of a) document schema; returns version."""
        if schema.name != schema_name_for(table):
            raise ConfigurationError(
                f"document schema for table {table!r} must be named "
                f"{schema_name_for(table)!r}, got {schema.name!r}")
        registry = self._registries.setdefault((database, table),
                                               SchemaRegistry())
        return registry.register(schema)

    def get(self, database: str, table: str, version: int) -> RecordSchema:
        registry = self._registries.get((database, table))
        if registry is None:
            raise ConfigurationError(f"no schemas for {database}/{table}")
        return registry.get(schema_name_for(table), version)

    def latest(self, database: str, table: str) -> RecordSchema:
        registry = self._registries.get((database, table))
        if registry is None:
            raise ConfigurationError(f"no schemas for {database}/{table}")
        latest = registry.latest(schema_name_for(table))
        if latest is None:
            raise ConfigurationError(f"no schemas for {database}/{table}")
        return latest

    def has_schema(self, database: str, table: str) -> bool:
        registry = self._registries.get((database, table))
        return registry is not None and bool(registry.names())


def schema_name_for(table: str) -> str:
    """Document schemas are named after their table."""
    return table
