"""Keyed chunk pagination and watermark commits — the sqlstore surface
the migration backfill stands on."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.sqlstore import WATERMARK_TABLE
from repro.sqlstore.binlog import ChangeKind
from repro.sqlstore.database import SqlDatabase
from repro.sqlstore.table import Column, Table, TableSchema

SCHEMA = TableSchema(
    "songs",
    (Column("artist", str), Column("album", str), Column("plays", int)),
    ("artist", "album"))


def make_table(rows=12):
    table = Table(SCHEMA)
    for i in range(rows):
        table.insert({"artist": f"a{i % 3}", "album": f"b{i:02d}",
                      "plays": i})
    return table


def all_keys(table):
    return [SCHEMA.key_of(r) for r in table.scan()]


class Counted(int):
    """An int key column value that counts the comparisons made on it."""

    comparisons = 0
    __hash__ = int.__hash__

    def __eq__(self, other):
        Counted.comparisons += 1
        return int.__eq__(self, other)

    def __lt__(self, other):
        Counted.comparisons += 1
        return int.__lt__(self, other)


COUNTED = TableSchema("counted", (Column("k", int), Column("v", int)), ("k",))


def chunk_comparisons(rows: int, chunk: int = 64) -> int:
    """Key comparisons one mid-table ``scan_chunk`` makes on a table of
    ``rows`` rows written in random order (the first ordered read, which
    merges those writes, is not counted)."""
    table = Table(COUNTED)
    order = list(range(rows))
    random.Random(rows).shuffle(order)
    for k in order:
        table.insert({"k": Counted(k), "v": k})
    middle = (Counted(rows // 2),)
    table.scan_chunk(middle, chunk)
    Counted.comparisons = 0
    got = table.scan_chunk(middle, chunk)
    comparisons = Counted.comparisons
    assert [row["v"] for row in got] == \
        list(range(rows // 2 + 1, rows // 2 + 1 + chunk))
    return comparisons


class TestScanChunk:
    def test_pagination_covers_every_row_exactly_once(self):
        table = make_table(12)
        seen = []
        after = None
        while True:
            chunk = table.scan_chunk(after, 5)
            if not chunk:
                break
            seen.extend(SCHEMA.key_of(r) for r in chunk)
            after = SCHEMA.key_of(chunk[-1])
            if len(chunk) < 5:
                break
        assert seen == all_keys(table)
        assert len(seen) == len(set(seen))

    def test_after_key_is_exclusive(self):
        table = make_table(6)
        first = table.scan_chunk(None, 3)
        boundary = SCHEMA.key_of(first[-1])
        second = table.scan_chunk(boundary, 3)
        assert boundary not in [SCHEMA.key_of(r) for r in second]

    def test_chunks_are_key_ordered(self):
        table = make_table(10)
        chunk = table.scan_chunk(None, 10)
        keys = [SCHEMA.key_of(r) for r in chunk]
        assert keys == sorted(keys)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            make_table(1).scan_chunk(None, 0)

    def test_returned_rows_are_deep_copies(self):
        table = make_table(3)
        chunk = table.scan_chunk(None, 1)
        chunk[0]["plays"] = 999_999
        assert table.scan_chunk(None, 1)[0]["plays"] != 999_999

    def test_snapshot_rows_are_deep_copies(self):
        table = make_table(3)
        snapshot = table.snapshot()
        snapshot[0]["plays"] = 999_999
        assert table.snapshot()[0]["plays"] != 999_999

    def test_a_chunk_costs_comparisons_per_row_returned_not_per_row_held(
            self):
        small = chunk_comparisons(1024)
        large = chunk_comparisons(16384)
        assert large <= 1.5 * small, (small, large)

    def test_database_level_scan_chunk(self):
        db = SqlDatabase("music")
        db.create_table(SCHEMA)
        db.autocommit("songs", {"artist": "x", "album": "y", "plays": 1})
        assert len(db.scan_chunk("songs", None, 10)) == 1
        with pytest.raises(ConfigurationError):
            db.scan_chunk("nope", None, 10)


class TestWatermarks:
    def test_watermark_occupies_a_commit_position(self):
        db = SqlDatabase("music")
        db.create_table(SCHEMA)
        db.autocommit("songs", {"artist": "x", "album": "y", "plays": 1})
        scn = db.write_watermark("chunk-low:songs")
        assert scn == 2
        # the next real commit lands after it, SCNs stay dense
        assert db.autocommit("songs", {"artist": "x", "album": "z",
                                       "plays": 2}) == 3

    def test_watermark_touches_no_table(self):
        db = SqlDatabase("music")
        db.create_table(SCHEMA)
        db.write_watermark("mark")
        assert len(db.table("songs")) == 0

    def test_watermark_keys_are_unique_even_with_equal_labels(self):
        db = SqlDatabase("music")
        db.create_table(SCHEMA)
        db.write_watermark("same-label")
        db.write_watermark("same-label")
        keys = [txn.changes[0].key for txn in db.binlog.read_from(0)]
        assert len(keys) == len(set(keys))

    def test_watermark_label_required(self):
        db = SqlDatabase("music")
        with pytest.raises(ConfigurationError):
            db.write_watermark("")

    def test_replica_apply_skips_watermarks(self):
        primary = SqlDatabase("primary")
        primary.create_table(SCHEMA)
        replica = SqlDatabase("replica")
        replica.create_table(SCHEMA)
        primary.autocommit("songs", {"artist": "x", "album": "y", "plays": 1})
        primary.write_watermark("mark")
        primary.autocommit("songs", {"artist": "x", "album": "z", "plays": 2})
        for txn in primary.binlog.read_from(0):
            replica.apply_replicated(txn)
        assert len(replica.table("songs")) == 2
        assert replica.binlog.last_scn == 3   # the SCN position is kept
        marks = [c for txn in replica.binlog.read_from(0)
                 for c in txn.changes if c.kind is ChangeKind.WATERMARK]
        assert len(marks) == 1
        assert marks[0].table == WATERMARK_TABLE