"""The unordered table, kept as the test-side reference.

This is ``sqlstore.Table`` as it was before it kept its keys in
primary-key order: a plain dict of rows that sorts every key on every
ordered read (``scan``, ``scan_chunk``, ``keys``, ``snapshot``) and
deep-copies what a chunk or snapshot returns.  It is slower and
obviously right, which is what a reference model is for;
`test_table_order.py` holds the ordered table to it.

The class is copied verbatim apart from its name.  Its ``restore`` is
the old one, which clears before it inserts: the walk only hands it
restores that succeed.
"""

from __future__ import annotations

import copy
from typing import Iterator

from repro.common.errors import (
    DuplicateKeyError,
    InvalidRequestError,
    KeyNotFoundError,
)
from repro.sqlstore.table import Row, TableSchema


class ReferenceTable:
    """Row storage keyed by primary key, kept in key-sorted order.

    Rows are plain dicts; the table stores copies so callers cannot
    mutate storage behind its back.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[tuple, Row] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, key: tuple) -> Row:
        try:
            return dict(self._rows[key])
        except KeyError:
            raise KeyNotFoundError(
                f"{self.schema.name}: no row with key {key!r}") from None

    def contains(self, key: tuple) -> bool:
        return key in self._rows

    def insert(self, row: Row) -> tuple:
        self.schema.validate_row(row)
        key = self.schema.key_of(row)
        if key in self._rows:
            raise DuplicateKeyError(
                f"{self.schema.name}: duplicate key {key!r}")
        self._rows[key] = dict(row)
        return key

    def update(self, row: Row) -> tuple:
        """Full-row replacement by primary key."""
        self.schema.validate_row(row)
        key = self.schema.key_of(row)
        if key not in self._rows:
            raise KeyNotFoundError(f"{self.schema.name}: no row {key!r}")
        self._rows[key] = dict(row)
        return key

    def upsert(self, row: Row) -> tuple[tuple, bool]:
        """Insert-or-replace; returns (key, was_insert)."""
        self.schema.validate_row(row)
        key = self.schema.key_of(row)
        was_insert = key not in self._rows
        self._rows[key] = dict(row)
        return key, was_insert

    def delete(self, key: tuple) -> Row:
        try:
            return self._rows.pop(key)
        except KeyError:
            raise KeyNotFoundError(f"{self.schema.name}: no row {key!r}") from None

    def scan(self, key_prefix: tuple = ()) -> Iterator[Row]:
        """Rows in primary-key order, optionally filtered by key prefix.

        Prefix scans serve Espresso collection resources: all songs of
        one artist share the leading key component.
        """
        for key in sorted(self._rows):
            if key[:len(key_prefix)] == key_prefix:
                yield dict(self._rows[key])

    def scan_chunk(self, after_key: tuple | None, limit: int) -> list[Row]:
        """Keyed pagination: up to ``limit`` rows with primary key
        strictly greater than ``after_key`` (``None`` starts at the
        beginning), in primary-key order.

        This is the DBLog-style chunk read for live migration: each
        call pages forward without copying the whole table and without
        any lock — concurrent writers keep committing while a backfill
        walks the keyspace.  Rows are deep copies, so a chunk held by a
        migration reader can never alias live storage.
        """
        if limit <= 0:
            raise InvalidRequestError(
                f"chunk limit must be positive, got {limit}")
        out: list[Row] = []
        for key in sorted(self._rows):
            if after_key is not None and key <= after_key:
                continue
            out.append(copy.deepcopy(self._rows[key]))
            if len(out) >= limit:
                break
        return out

    def keys(self) -> list[tuple]:
        return sorted(self._rows)

    def snapshot(self) -> list[Row]:
        """A consistent full copy (bootstrap/backup source).

        Deep copies: snapshot consumers (replica bootstrap, migration
        backfill) hold the rows long after this call returns, so they
        must not alias live storage.
        """
        return [copy.deepcopy(self._rows[k]) for k in sorted(self._rows)]

    def restore(self, rows: list[Row]) -> None:
        """Replace contents wholesale (bootstrap target)."""
        self._rows.clear()
        for row in rows:
            self.insert(row)
