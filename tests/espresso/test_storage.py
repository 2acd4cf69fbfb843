"""Storage node: Table IV.1 layout, documents, mastership, transactions."""

import pytest

from repro.common.errors import (
    KeyNotFoundError,
    NotMasterError,
    TransactionAbortedError,
)
from repro.common.serialization import Field, RecordSchema
from repro.databus.relay import Relay
from repro.espresso import DocumentSchemaRegistry, EspressoStorageNode
from repro.espresso.storage import partition_buffer_name, row_table_schema

from tests.common.codec_calls import DECODES, codec_calls
from tests.espresso.conftest import ALBUM_SCHEMA, ARTIST_SCHEMA, MUSIC, SONG_SCHEMA


@pytest.fixture
def schemas():
    registry = DocumentSchemaRegistry()
    registry.post("Music", "Artist", ARTIST_SCHEMA)
    registry.post("Music", "Album", ALBUM_SCHEMA)
    registry.post("Music", "Song", SONG_SCHEMA)
    return registry


@pytest.fixture
def node(schemas):
    built = EspressoStorageNode("storage-0", MUSIC, schemas, Relay())
    for partition in range(MUSIC.num_partitions):
        built.become_slave(partition)
        built.become_master(partition)
    return built


def test_row_layout_matches_table_iv1():
    schema = row_table_schema(MUSIC, "Song")
    names = [c.name for c in schema.columns]
    assert names == ["artist", "album", "song", "timestamp", "etag", "val",
                     "schema_version"]
    assert schema.primary_key == ("artist", "album", "song")


def test_put_and_get_document(node):
    etag = node.put_document("Artist", ("Akon",),
                             {"name": "Akon", "genre": "rnb", "bio": None})
    record = node.get_document("Artist", ("Akon",))
    assert record.document["name"] == "Akon"
    assert record.etag == etag
    assert record.schema_version == 1


def test_document_validation(node):
    from repro.common.errors import SerializationError
    with pytest.raises(SerializationError):
        node.put_document("Artist", ("X",), {"genre": "pop"})  # missing name


def test_key_depth_enforced(node):
    from repro.common.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        node.put_document("Song", ("artist-only",), {"title": "t",
                                                     "duration": 1})


def test_get_missing_document(node):
    with pytest.raises(KeyNotFoundError):
        node.get_document("Artist", ("Ghost",))


def test_collection_read_in_key_order(node):
    node.put_document("Album", ("Babyface", "Lovers"),
                      {"title": "Lovers", "year": 1986})
    node.put_document("Album", ("Babyface", "A_Closer_Look"),
                      {"title": "A Closer Look", "year": 1991})
    node.put_document("Album", ("Akon", "Trouble"),
                      {"title": "Trouble", "year": 2004})
    records = node.get_collection("Album", "Babyface")
    assert [r.key[1] for r in records] == ["A_Closer_Look", "Lovers"]


def test_delete_document(node):
    node.put_document("Artist", ("Akon",),
                      {"name": "Akon", "genre": "rnb", "bio": None})
    node.delete_document("Artist", ("Akon",))
    with pytest.raises(KeyNotFoundError):
        node.get_document("Artist", ("Akon",))
    with pytest.raises(KeyNotFoundError):
        node.delete_document("Artist", ("Akon",))


def test_conditional_put_with_etag(node):
    etag = node.put_document("Artist", ("Akon",),
                             {"name": "Akon", "genre": "rnb", "bio": None})
    node.put_document("Artist", ("Akon",),
                      {"name": "Akon", "genre": "pop", "bio": None},
                      expected_etag=etag)
    with pytest.raises(TransactionAbortedError):
        node.put_document("Artist", ("Akon",),
                          {"name": "Akon", "genre": "soul", "bio": None},
                          expected_etag=etag)  # stale etag


def test_write_requires_mastership(schemas):
    node = EspressoStorageNode("storage-1", MUSIC, schemas, Relay())
    with pytest.raises(NotMasterError):
        node.put_document("Artist", ("Akon",),
                          {"name": "Akon", "genre": "rnb", "bio": None})
    partition = MUSIC.partition_for("Akon")
    node.become_slave(partition)
    with pytest.raises(NotMasterError) as excinfo:
        node.put_document("Artist", ("Akon",),
                          {"name": "Akon", "genre": "rnb", "bio": None})
    assert excinfo.value.partition_id == partition


def test_writes_reach_relay_before_local_ack(schemas):
    relay = Relay()
    node = EspressoStorageNode("storage-0", MUSIC, schemas, relay)
    partition = MUSIC.partition_for("Akon")
    node.become_slave(partition)
    node.become_master(partition)
    node.put_document("Artist", ("Akon",),
                      {"name": "Akon", "genre": "rnb", "bio": None})
    buffer = partition_buffer_name("Music", partition)
    events = relay.stream_from(0, buffer_name=buffer)
    assert len(events) == 1
    assert events[0].key == ("Akon",)


def test_per_partition_scns_are_dense(node):
    artists = [f"artist-{i}" for i in range(30)]
    for artist in artists:
        node.put_document("Artist", (artist,),
                          {"name": artist, "genre": "g", "bio": None})
    for partition, scn in node.partition_scn.items():
        buffer = partition_buffer_name("Music", partition)
        events = node.relay.stream_from(0, buffer_name=buffer)
        scns = [e.scn for e in events]
        assert scns == list(range(1, scn + 1))


def test_transaction_all_or_nothing(node):
    ops = [
        ("put", "Album", ("Akon", "Trouble"), {"title": "Trouble", "year": 2004}),
        ("put", "Song", ("Akon", "Trouble", "Locked_Up"),
         {"title": "Locked Up", "lyrics": None, "duration": 233}),
    ]
    scn = node.transact("Akon", ops)
    assert scn >= 1
    assert node.get_document("Album", ("Akon", "Trouble")).document["year"] == 2004
    assert node.get_document("Song", ("Akon", "Trouble", "Locked_Up")) is not None


def test_transaction_rejects_cross_resource(node):
    ops = [
        ("put", "Album", ("Akon", "Trouble"), {"title": "T", "year": 2004}),
        ("put", "Album", ("Coolio", "Steal_Hear"), {"title": "S", "year": 2008}),
    ]
    with pytest.raises(TransactionAbortedError):
        node.transact("Akon", ops)
    # nothing committed
    with pytest.raises(KeyNotFoundError):
        node.get_document("Album", ("Akon", "Trouble"))


def test_transaction_failure_leaves_no_partial_state(node):
    node.put_document("Album", ("Akon", "Existing"), {"title": "E", "year": 1})
    ops = [
        ("put", "Album", ("Akon", "New"), {"title": "N", "year": 2}),
        ("delete", "Album", ("Akon", "Ghost"), None),  # will fail
    ]
    with pytest.raises(TransactionAbortedError):
        node.transact("Akon", ops)
    with pytest.raises(KeyNotFoundError):
        node.get_document("Album", ("Akon", "New"))


def test_transaction_single_relay_window(node):
    ops = [
        ("put", "Album", ("Akon", "Trouble"), {"title": "T", "year": 2004}),
        ("put", "Song", ("Akon", "Trouble", "Locked_Up"),
         {"title": "L", "lyrics": None, "duration": 233}),
    ]
    node.transact("Akon", ops)
    partition = MUSIC.partition_for("Akon")
    events = node.relay.stream_from(
        0, buffer_name=partition_buffer_name("Music", partition))
    assert len(events) == 2
    assert events[0].scn == events[1].scn
    assert not events[0].end_of_window and events[1].end_of_window


def test_schema_evolution_promotes_stored_documents(node, schemas):
    node.put_document("Artist", ("Akon",),
                      {"name": "Akon", "genre": "rnb", "bio": None})
    evolved = RecordSchema("Artist", ARTIST_SCHEMA.fields + [
        Field("hometown", "string", default="unknown", has_default=True)])
    schemas.post("Music", "Artist", evolved)
    record = node.get_document("Artist", ("Akon",))
    assert record.document["hometown"] == "unknown"
    assert record.schema_version == 1  # stored bytes untouched
    # new writes use the new version
    node.put_document("Artist", ("Cher",),
                      {"name": "Cher", "genre": "pop", "bio": None,
                       "hometown": "El Centro"})
    assert node.get_document("Artist", ("Cher",)).schema_version == 2


def test_index_query_after_writes(node):
    node.put_document("Song", ("Beatles", "SP", "Lucy"),
                      {"title": "Lucy in the Sky",
                       "lyrics": "Lucy in the sky with diamonds",
                       "duration": 208})
    node.put_document("Song", ("Beatles", "MMT", "Walrus"),
                      {"title": "I Am the Walrus",
                       "lyrics": "I am the eggman", "duration": 275})
    hits = node.query_index("Song", "lyrics", "Lucy in the sky",
                            resource_id="Beatles")
    assert [r.key for r in hits] == [("Beatles", "SP", "Lucy")]
    # index agrees with the full-scan baseline
    scan_hits = node.query_full_scan("Song", "lyrics", "lucy in the sky",
                                     resource_id="Beatles")
    assert [r.key for r in scan_hits] == [r.key for r in hits]


def test_exp_e2_index_decodes_the_matches_a_scan_decodes_the_collection(node):
    # at 1% selectivity: N/100 documents decoded where the scan decodes N
    written = 0
    for size in (200, 1000, 4000):
        for i in range(written, size):
            node.put_document("Song", ("Beatles", f"album-{i % 20}", f"s{i}"),
                              {"title": f"song {i}", "duration": 180,
                               "lyrics": f"gold rain dream tag{i % 100:02d}"})
        written = size
        with codec_calls() as calls:
            hits = node.query_index("Song", "lyrics", "tag07",
                                    resource_id="Beatles")
        assert calls.count(*DECODES) == len(hits) == size // 100
        with codec_calls() as calls:
            scanned = node.query_full_scan("Song", "lyrics", "tag07",
                                           resource_id="Beatles")
        assert calls.count(*DECODES) == size
        assert [r.key for r in scanned] == [r.key for r in hits]


def test_commit_rejects_scn_race_during_wal_fsync(node):
    """A window replayed while the WAL fsync is in flight advances the
    partition SCN; the commit must abort instead of applying on top of
    state it never saw."""
    from repro.common.errors import ReplicationOrderError

    orig = node._wal_append_window

    def racing_wal_append(partition, scn, items):
        orig(partition, scn, items)
        # the fsync inside the append is a yield point: a replayed
        # window lands and advances the SCN under this commit
        node.partition_scn[partition] = (
            node.partition_scn.get(partition, 0) + 1)

    node._wal_append_window = racing_wal_append
    with pytest.raises(ReplicationOrderError):
        node.put_document("Artist", ("Akon",),
                          {"name": "Akon", "genre": "rnb", "bio": None})
    node._wal_append_window = orig
    with pytest.raises(KeyNotFoundError):
        node.get_document("Artist", ("Akon",))
