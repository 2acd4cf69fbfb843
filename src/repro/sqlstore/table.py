"""Tables with composite primary keys and ordered scans.

The layout mirrors Table IV.1 of the paper: an Espresso Song table is a
MySQL table whose primary key is (artist, album, song) with payload
columns (timestamp, etag, val blob, schema_version).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator

from repro.common.errors import (
    ConfigurationError,
    DuplicateKeyError,
    InvalidRequestError,
    KeyNotFoundError,
    SchemaValidationError,
)

Row = dict

#: Every column value is one of these immutable types, so ``dict(row)``
#: is a full copy of a row.
_COLUMN_TYPES = (str, int, float, bytes, bool)

#: A content fingerprint: row -> (bucket, 64-bit int).
Fingerprint = Callable[[Row], tuple[Hashable, int]]

_DIGEST_MASK = (1 << 64) - 1


def _fold_digests(fingerprint: Fingerprint, rows: Iterable[Row]
                 ) -> dict[Hashable, int]:
    """Per-bucket sums, mod 2**64, of ``rows``' fingerprints: equal sums
    mean equal multisets of fingerprinted content, up to a 2**-64
    collision, whatever order the rows came in."""
    sums: dict[Hashable, int] = {}
    for row in rows:
        bucket, value = fingerprint(row)
        sums[bucket] = (sums.get(bucket, 0) + value) & _DIGEST_MASK
    return sums


@dataclass(frozen=True)
class Column:
    """One column: a name, a python type tag, nullability."""

    name: str
    type: type = bytes
    nullable: bool = False

    def validate(self, value: object) -> None:
        if value is None:
            if not self.nullable:
                raise SchemaValidationError(
                    f"column {self.name!r} is NOT NULL")
            return
        if self.type is float and isinstance(value, int):
            return  # ints are acceptable floats
        if not isinstance(value, self.type):
            raise SchemaValidationError(
                f"column {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__}")


@dataclass(frozen=True)
class TableSchema:
    """Column definitions plus the ordered primary-key column list."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"table {self.name}: duplicate columns")
        for pk in self.primary_key:
            if pk not in names:
                raise ConfigurationError(
                    f"table {self.name}: primary key column {pk!r} undeclared")
        if not self.primary_key:
            raise ConfigurationError(f"table {self.name}: primary key required")
        for col in self.columns:
            if col.type not in _COLUMN_TYPES:
                raise ConfigurationError(
                    f"table {self.name}: column {col.name!r} has type "
                    f"{col.type.__name__}; values must be immutable "
                    f"({', '.join(t.__name__ for t in _COLUMN_TYPES)})")
            if col.nullable and col.name in self.primary_key:
                # keys are kept in order, and None does not compare
                raise ConfigurationError(
                    f"table {self.name}: primary key column {col.name!r} "
                    "cannot be nullable")

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise ConfigurationError(f"table {self.name}: no column {name!r}")

    def key_of(self, row: Row) -> tuple:
        try:
            return tuple(row[k] for k in self.primary_key)
        except KeyError as exc:
            raise SchemaValidationError(
                f"row missing primary key column {exc}") from exc

    @cached_property
    def _row_plan(self) -> tuple[frozenset[str],
                                 tuple[tuple[str, type, bool, Column], ...]]:
        """The declared names, and ``(name, type, nullable, column)`` per
        column in order: what :meth:`validate_row` checks, built once."""
        return (frozenset(c.name for c in self.columns),
                tuple((c.name, c.type, c.nullable, c) for c in self.columns))

    def validate_row(self, row: Row) -> None:
        """Unknown columns first, then each column in order.  A value of
        exactly the column's type, or a ``None`` where nulls are allowed,
        passes here; any other goes to :meth:`Column.validate`."""
        declared, columns = self._row_plan
        if not row.keys() <= declared:
            raise SchemaValidationError(
                f"table {self.name}: unknown columns "
                f"{sorted(row.keys() - declared)}")
        for name, kind, nullable, col in columns:
            value = row.get(name)
            if type(value) is not kind and (value is not None or not nullable):
                col.validate(value)


class Table:
    """Row storage keyed by primary key, kept in primary-key order.

    Rows are plain dicts; the table stores copies so callers cannot
    mutate storage behind its back.

    The order is a sorted key list beside the row dict, so an ordered
    read seeks by bisection instead of sorting.  A new key above the
    list's last key is appended; any other new key waits in a set until
    the next ordered read merges it in (one sort of two sorted runs).
    So a write costs O(1) for the order, and a table written out of
    order and rarely read in order — an Espresso storage node's local
    store — sorts only when it is read.  A delete removes its key by
    bisection (or from the set), so the list and the set together
    always hold exactly the live keys.

    A caller can have the table keep content digests (:meth:`digest`):
    per-bucket fingerprint sums that every mutation moves, so comparing
    two copies of the data reads no row.  An untracked table pays one
    branch per mutation for them.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[tuple, Row] = {}
        self._keys: list[tuple] = []      # sorted
        self._unordered: set[tuple] = set()   # live keys not yet in _keys
        # definition -> (fingerprint, {bucket: sum of fingerprints})
        self._digests: dict[Hashable, tuple[Fingerprint, dict]] = {}

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
        row = dict(row)
        if self._digests:
            self._move_digests(None, row)
        self._rows[key] = row
        self._add_key(key)
        return key

    def update(self, row: Row) -> tuple:
        """Full-row replacement by primary key."""
        self.schema.validate_row(row)
        key = self.schema.key_of(row)
        if key not in self._rows:
            raise KeyNotFoundError(f"{self.schema.name}: no row {key!r}")
        row = dict(row)
        if self._digests:
            self._move_digests(self._rows[key], row)
        self._rows[key] = row
        return key

    def upsert(self, row: Row) -> tuple[tuple, bool]:
        """Insert-or-replace; returns (key, was_insert)."""
        self.schema.validate_row(row)
        key = self.schema.key_of(row)
        old = self._rows.get(key)
        row = dict(row)
        if self._digests:
            self._move_digests(old, row)
        self._rows[key] = row
        if old is None:
            self._add_key(key)
        return key, old is None

    def delete(self, key: tuple) -> Row:
        try:
            row = self._rows[key]
        except KeyError:
            raise KeyNotFoundError(f"{self.schema.name}: no row {key!r}") from None
        if self._digests:
            self._move_digests(row, None)
        del self._rows[key]
        if key in self._unordered:
            self._unordered.remove(key)
        else:
            del self._keys[bisect_left(self._keys, key)]
        return row

    def _add_key(self, key: tuple) -> None:
        if self._keys and key < self._keys[-1]:
            self._unordered.add(key)
        else:
            self._keys.append(key)

    def _ordered(self) -> list[tuple]:
        """The live keys in primary-key order (the list itself: callers
        slice it, never keep it)."""
        if self._unordered:
            self._keys += sorted(self._unordered)
            self._unordered.clear()
            self._keys.sort()   # Timsort merges the two sorted runs
        return self._keys

    def scan(self, key_prefix: tuple = ()) -> Iterator[Row]:
        """Rows in primary-key order, optionally filtered by key prefix.

        Prefix scans serve Espresso collection resources: all songs of
        one artist share the leading key component.  The prefix's rows
        are one contiguous run of the key order, found by bisection.
        """
        keys = self._ordered()
        width = len(key_prefix)
        lo = bisect_left(keys, key_prefix, key=lambda k: k[:width])
        hi = bisect_right(keys, key_prefix, lo, key=lambda k: k[:width])
        rows = self._rows
        for key in keys[lo:hi]:
            yield dict(rows[key])

    def scan_chunk(self, after_key: tuple | None, limit: int) -> list[Row]:
        """Keyed pagination: up to ``limit`` rows with primary key
        strictly greater than ``after_key`` (``None`` starts at the
        beginning), in primary-key order.

        This is the DBLog-style chunk read for live migration: each
        call pages forward without copying the whole table and without
        any lock — concurrent writers keep committing while a backfill
        walks the keyspace.  It seeks to ``after_key`` by bisection, so
        a chunk costs O(log N + limit) however large the table.  Rows
        are row copies; every column value is immutable, so a chunk held
        by a migration reader can never alias live storage.
        """
        if limit <= 0:
            raise InvalidRequestError(
                f"chunk limit must be positive, got {limit}")
        keys = self._ordered()
        start = 0 if after_key is None else bisect_right(keys, after_key)
        rows = self._rows
        return [dict(rows[key]) for key in keys[start:start + limit]]

    def keys(self) -> list[tuple]:
        return list(self._ordered())

    def snapshot(self) -> list[Row]:
        """A consistent full copy (bootstrap/backup source), in
        primary-key order.

        Row copies; every column value is immutable: snapshot consumers
        (replica bootstrap, migration backfill) hold the rows long after
        this call returns, so they must not alias live storage.
        """
        rows = self._rows
        return [dict(rows[key]) for key in self._ordered()]

    def restore(self, rows: list[Row]) -> None:
        """Replace contents wholesale (bootstrap target).

        All or nothing: the rows go into a staging table first, so a bad
        or duplicate row leaves this table as it was.
        """
        staged = Table(self.schema)
        for row in rows:
            staged.insert(row)
        self.adopt(staged)

    def adopt(self, staged: "Table") -> None:
        """Take over a staging table's rows and key order: the half of a
        restore that cannot fail.  ``staged`` is not used again.  Every
        digest this table keeps is refolded from the adopted rows."""
        self._rows, self._keys, self._unordered = \
            staged._rows, staged._keys, staged._unordered
        for definition, (fingerprint, _) in self._digests.items():
            self._digests[definition] = (
                fingerprint, _fold_digests(fingerprint, self._rows.values()))

    # -- content digests --------------------------------------------------

    def digest(self, definition: Hashable, fingerprint: Fingerprint
               ) -> dict[Hashable, int]:
        """``{bucket: sum of fingerprints mod 2**64}`` of the rows held,
        under the fingerprint registered as ``definition``.

        The first ask registers ``fingerprint`` and folds it over the
        rows held; from then on every mutation — ``insert``, ``update``,
        ``upsert``, ``delete``, ``restore``, ``adopt`` — moves the sums,
        so a later ask reads no row.  ``definition`` names what the
        fingerprint computes: a later ask under the same name gets the
        kept sums, whatever callable it passes.  A bucket holding no row
        may be missing (read it as 0).  Returns a copy.
        """
        tracked = self._digests.get(definition)
        if tracked is None:
            tracked = (fingerprint,
                       _fold_digests(fingerprint, self._rows.values()))
            self._digests[definition] = tracked
        return dict(tracked[1])

    def _move_digests(self, old: Row | None, new: Row | None) -> None:
        """Take ``old``'s fingerprints out of every kept digest and put
        ``new``'s in.  Called before the row store changes, and every
        fingerprint is computed before any sum moves: a fingerprint that
        raises leaves the table and its digests as they were."""
        moves = []
        for fingerprint, sums in self._digests.values():
            if old is not None:
                bucket, value = fingerprint(old)
                moves.append((sums, bucket, -value))
            if new is not None:
                bucket, value = fingerprint(new)
                moves.append((sums, bucket, value))
        for sums, bucket, value in moves:
            sums[bucket] = (sums.get(bucket, 0) + value) & _DIGEST_MASK
