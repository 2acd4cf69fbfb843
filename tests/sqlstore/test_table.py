"""Table storage: schemas, keys, ordered scans."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    DuplicateKeyError,
    KeyNotFoundError,
    SchemaValidationError,
)
from repro.sqlstore import Column, Table, TableSchema

SONG_SCHEMA = TableSchema(
    name="Song",
    columns=(
        Column("artist", str),
        Column("album", str),
        Column("song", str),
        Column("timestamp", int),
        Column("etag", str),
        Column("val", bytes, nullable=True),
        Column("schema_version", int),
    ),
    primary_key=("artist", "album", "song"),
)


def song_row(artist="Etta_James", album="Gold", song="At_Last", **extra):
    row = {"artist": artist, "album": album, "song": song,
           "timestamp": 1, "etag": "e1", "val": b"doc", "schema_version": 1}
    row.update(extra)
    return row


def test_schema_validation():
    with pytest.raises(ConfigurationError):
        TableSchema("T", (Column("a", str), Column("a", str)), ("a",))
    with pytest.raises(ConfigurationError):
        TableSchema("T", (Column("a", str),), ("missing",))
    with pytest.raises(ConfigurationError):
        TableSchema("T", (Column("a", str),), ())


@pytest.mark.parametrize("columns", [
    (Column("a", str), Column("tags", list)),
    (Column("a", str), Column("attrs", dict)),
    (Column("a", str, nullable=True),),
], ids=["list", "dict", "nullable-key"])
def test_schema_rejects_mutable_column_types_and_nullable_keys(columns):
    """Row copies are ``dict(row)`` only because every value is
    immutable; keys are kept in order, which ``None`` cannot join."""
    with pytest.raises(ConfigurationError):
        TableSchema("T", columns, ("a",))


def test_a_failed_restore_leaves_the_table_as_it_was():
    table = Table(SONG_SCHEMA)
    table.insert(song_row())
    before = table.snapshot()
    with pytest.raises(DuplicateKeyError):
        table.restore([song_row(album="B"), song_row(album="B")])
    with pytest.raises(SchemaValidationError):
        table.restore([song_row(album="B"), song_row(timestamp="late")])
    assert table.snapshot() == before


def test_insert_get_roundtrip():
    table = Table(SONG_SCHEMA)
    key = table.insert(song_row())
    assert key == ("Etta_James", "Gold", "At_Last")
    assert table.get(key)["val"] == b"doc"


def test_insert_duplicate_rejected():
    table = Table(SONG_SCHEMA)
    table.insert(song_row())
    with pytest.raises(ValueError):
        table.insert(song_row())


def test_not_null_enforced():
    table = Table(SONG_SCHEMA)
    with pytest.raises(ValueError):
        table.insert(song_row(etag=None))


def test_nullable_column_accepts_none():
    table = Table(SONG_SCHEMA)
    table.insert(song_row(val=None))


def test_type_checking():
    table = Table(SONG_SCHEMA)
    with pytest.raises(ValueError):
        table.insert(song_row(timestamp="not-an-int"))


def test_unknown_column_rejected():
    table = Table(SONG_SCHEMA)
    with pytest.raises(ValueError):
        table.insert(song_row(bogus=1))


def test_update_requires_existing():
    table = Table(SONG_SCHEMA)
    with pytest.raises(KeyNotFoundError):
        table.update(song_row())
    table.insert(song_row())
    table.update(song_row(etag="e2"))
    assert table.get(("Etta_James", "Gold", "At_Last"))["etag"] == "e2"


def test_upsert_reports_insert_vs_replace():
    table = Table(SONG_SCHEMA)
    _, was_insert = table.upsert(song_row())
    assert was_insert
    _, was_insert = table.upsert(song_row(etag="e2"))
    assert not was_insert


def test_delete_returns_old_row():
    table = Table(SONG_SCHEMA)
    table.insert(song_row())
    old = table.delete(("Etta_James", "Gold", "At_Last"))
    assert old["etag"] == "e1"
    with pytest.raises(KeyNotFoundError):
        table.delete(("Etta_James", "Gold", "At_Last"))


def test_rows_are_copied_in_and_out():
    table = Table(SONG_SCHEMA)
    row = song_row()
    table.insert(row)
    row["etag"] = "mutated"
    fetched = table.get(("Etta_James", "Gold", "At_Last"))
    assert fetched["etag"] == "e1"
    fetched["etag"] = "mutated-again"
    assert table.get(("Etta_James", "Gold", "At_Last"))["etag"] == "e1"


def test_prefix_scan_in_key_order():
    table = Table(SONG_SCHEMA)
    table.insert(song_row("The_Beatles", "Sgt_Pepper", "Lucy"))
    table.insert(song_row("Etta_James", "Her_Best", "At_Last"))
    table.insert(song_row("Etta_James", "Gold", "At_Last"))
    etta = list(table.scan(("Etta_James",)))
    assert [r["album"] for r in etta] == ["Gold", "Her_Best"]
    everything = list(table.scan())
    assert len(everything) == 3
    assert everything[0]["artist"] == "Etta_James"


def test_snapshot_restore_roundtrip():
    table = Table(SONG_SCHEMA)
    table.insert(song_row())
    table.insert(song_row(album="Her_Best"))
    copy = Table(SONG_SCHEMA)
    copy.restore(table.snapshot())
    assert copy.keys() == table.keys()
    assert len(copy) == 2
