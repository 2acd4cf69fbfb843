"""Property-based Espresso storage invariants."""

from hypothesis import given, settings, strategies as st

from repro.databus.relay import Relay
from repro.espresso import DocumentSchemaRegistry
from repro.espresso.storage import EspressoStorageNode
from repro.simnet import SimDisk

from tests.espresso.conftest import ALBUM_SCHEMA, ARTIST_SCHEMA, MUSIC, SONG_SCHEMA


def make_node(name="n0"):
    schemas = DocumentSchemaRegistry()
    schemas.post("Music", "Artist", ARTIST_SCHEMA)
    schemas.post("Music", "Album", ALBUM_SCHEMA)
    schemas.post("Music", "Song", SONG_SCHEMA)
    relay = Relay(max_events_per_buffer=100_000)
    disk = SimDisk()
    node = EspressoStorageNode(name, MUSIC, schemas, relay, clock=disk.clock,
                               disk=disk.scope(name))
    for partition in range(MUSIC.num_partitions):
        node.become_slave(partition)
        node.become_master(partition)
    return node, relay


artist_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1, max_size=12)
album_ops = st.lists(
    st.tuples(st.sampled_from(["put", "delete"]), artist_names,
              st.integers(0, 3), st.integers(1900, 2030)),
    max_size=40)


@settings(max_examples=40, deadline=None)
@given(album_ops)
def test_storage_matches_model_and_replica_converges(ops):
    """The master's documents match a dict model, and a slave replaying
    the relay converges to the same state — timeline consistency as a
    property."""
    master, relay = make_node("master")
    model: dict[tuple, dict] = {}
    for op, artist, album_number, year in ops:
        key = (artist, f"album-{album_number}")
        if op == "put":
            document = {"title": key[1], "year": year}
            master.put_document("Album", key, document)
            model[key] = document
        elif key in model:
            master.delete_document("Album", key)
            del model[key]

    # master state equals the model
    stored = {}
    for row in master.local.table("Album").scan():
        record = master._decode_row("Album", row)
        stored[record.key] = record.document
    assert stored == model

    # an independent slave consuming the same relay converges
    slave = EspressoStorageNode("slave", MUSIC, master.schemas, relay,
                                clock=master.clock,
                                disk=SimDisk(clock=master.clock).scope("slave"))
    for partition in range(MUSIC.num_partitions):
        slave.become_slave(partition)
        slave.catch_up(partition)
    slave_state = {}
    for row in slave.local.table("Album").scan():
        record = slave._decode_row("Album", row)
        slave_state[record.key] = record.document
    assert slave_state == model
    assert slave.partition_scn == master.partition_scn


@settings(max_examples=30, deadline=None)
@given(album_ops)
def test_index_always_agrees_with_scan(ops):
    node, _ = make_node()
    for op, artist, album_number, year in ops:
        key = (artist, f"album-{album_number}")
        if op == "put":
            node.put_document("Album", key, {"title": key[1], "year": year})
        elif node.local.table("Album").contains(key):
            node.delete_document("Album", key)
    # for every year present, the index and a full scan agree
    years = {row_record.document["year"]
             for row in node.local.table("Album").scan()
             for row_record in [node._decode_row("Album", row)]}
    for year in years:
        indexed = {r.key for r in node.query_index("Album", "year", str(year))}
        scanned = set()
        for row in node.local.table("Album").scan():
            record = node._decode_row("Album", row)
            if record.document["year"] == year:
                scanned.add(record.key)
        assert indexed == scanned
