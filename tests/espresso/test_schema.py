"""Database/table/document schemas and partitioning."""

import pytest

from repro.common.errors import ConfigurationError, SchemaCompatibilityError
from repro.common.serialization import Field, RecordSchema
from repro.espresso import DatabaseSchema, DocumentSchemaRegistry, EspressoTableSchema

from tests.espresso.conftest import ARTIST_SCHEMA, MUSIC


def test_table_schema_validation():
    with pytest.raises(ConfigurationError):
        EspressoTableSchema("T", ())
    with pytest.raises(ConfigurationError):
        EspressoTableSchema("T", ("a", "a"))


def test_database_schema_validation():
    with pytest.raises(ConfigurationError):
        DatabaseSchema("D", partitioning="range")  # future work per paper
    with pytest.raises(ConfigurationError):
        DatabaseSchema("D", num_partitions=0)


def test_tables_share_resource_partitioning():
    """All tables keyed by the same resource_id partition identically —
    the transactional-update prerequisite (§IV.A)."""
    for artist in ("Akon", "Babyface", "Coolio", "Etta_James"):
        partitions = {MUSIC.partition_for(artist)}
        assert len(partitions) == 1
        assert 0 <= partitions.pop() < MUSIC.num_partitions


def test_unpartitioned_maps_everything_to_zero():
    db = DatabaseSchema("D", partitioning="unpartitioned",
                        tables=(EspressoTableSchema("T", ("k",)),))
    assert db.partition_for("anything") == 0
    assert db.partition_for("else") == 0


def test_partitioning_spreads_resources():
    partitions = {MUSIC.partition_for(f"artist-{i}") for i in range(200)}
    assert len(partitions) == MUSIC.num_partitions
    # FIG-IV.2: and evenly — 12 000 resources over the 8 partitions
    counts = [0] * MUSIC.num_partitions
    for i in range(12_000):
        counts[MUSIC.partition_for(f"artist-{i}")] += 1
    assert (min(counts), max(counts)) == (1470, 1558)   # worst 3.9% off 1 500


def test_table_lookup():
    assert MUSIC.table("Song").key_depth == 3
    assert MUSIC.table("Artist").resource_field == "artist"
    with pytest.raises(ConfigurationError):
        MUSIC.table("Ghost")


def test_registry_versioning_and_evolution():
    registry = DocumentSchemaRegistry()
    assert registry.post("Music", "Artist", ARTIST_SCHEMA) == 1
    evolved = RecordSchema("Artist", ARTIST_SCHEMA.fields + [
        Field("hometown", "string", default="unknown", has_default=True)])
    assert registry.post("Music", "Artist", evolved) == 2
    assert registry.latest("Music", "Artist").version == 2
    assert registry.get("Music", "Artist", 1).version == 1


def test_registry_rejects_incompatible_evolution():
    registry = DocumentSchemaRegistry()
    registry.post("Music", "Artist", ARTIST_SCHEMA)
    bad = RecordSchema("Artist", [Field("name", "long")])
    with pytest.raises(SchemaCompatibilityError):
        registry.post("Music", "Artist", bad)


def test_registry_enforces_schema_name():
    registry = DocumentSchemaRegistry()
    with pytest.raises(ConfigurationError):
        registry.post("Music", "Artist", RecordSchema("Wrong", [Field("x", "int")]))


def test_registry_missing_lookups():
    registry = DocumentSchemaRegistry()
    with pytest.raises(ConfigurationError):
        registry.latest("Music", "Artist")
    assert not registry.has_schema("Music", "Artist")
