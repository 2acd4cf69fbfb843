"""The commit log holds each committed window by reference: a window's
frame is one gather write whose bytes are those the joined window
encoder wrote, and each change's payload is the relay event's own
object, on the master and on the slave."""

import struct
import tracemalloc

import pytest

from repro.common.clock import SimClock
from repro.espresso import EspressoCluster
from repro.espresso.storage import EspressoStorageNode, partition_buffer_name
from repro.simnet.disk import SimDisk, _SimFile
from repro.sqlstore.binlog import (
    WATERMARK_TABLE,
    BinlogTransaction,
    ChangeEvent,
    ChangeKind,
)

from tests.espresso.conftest import (
    ALBUM_SCHEMA,
    ARTIST_SCHEMA,
    MUSIC,
    SONG_SCHEMA,
)

_WAL_WINDOW = struct.Struct("<IQI")
_WAL_CHANGE = struct.Struct("<III")


def reference_window_frame(partition: int, scn: int,
                           items: list[tuple[int, str, int, bytes]]) -> bytes:
    """One window's frame payload as the joined encoder built it: every
    header and a copy of every payload in one buffer."""
    out = bytearray(_WAL_WINDOW.pack(partition, scn, len(items)))
    for code, table, version, payload in items:
        name = table.encode()
        out.append(code)
        out.extend(_WAL_CHANGE.pack(version, len(name), len(payload)))
        out.extend(name)
        out.extend(payload)
    return bytes(out)


def _joined_append_window(node, partition, scn, items):
    node._commit_wal.append(reference_window_frame(partition, scn, items))
    node._commit_wal.fsync()


def _cluster(disk):
    built = EspressoCluster(MUSIC, num_nodes=3, disk=disk)
    built.post_document_schema("Artist", ARTIST_SCHEMA)
    built.post_document_schema("Album", ALBUM_SCHEMA)
    built.post_document_schema("Song", SONG_SCHEMA)
    built.start()
    return built


def _artist(i: int) -> dict:
    return {"name": f"artist-{i}", "genre": ("rock", "jazz")[i % 2],
            "bio": None if i % 3 else f"bio {i} " * 30}


def _single(cluster):
    for i in range(12):
        cluster.clock.advance(0.25)
        artist = f"artist-{i % 5}"
        cluster.node_for_resource(artist).put_document(
            "Artist", (artist,), _artist(i))


def _multi(cluster):
    for i in range(4):
        cluster.clock.advance(0.25)
        artist = f"artist-{i}"
        cluster.node_for_resource(artist).transact(artist, [
            ("put", "Artist", (artist,), _artist(i)),
            ("put", "Album", (artist, f"album-{i}"),
             {"title": f"Album {i}", "year": 1990 + i}),
            ("put", "Song", (artist, f"album-{i}", "one"),
             {"title": "One", "lyrics": "la " * i, "duration": 100 + i})])
    artist = "artist-1"
    cluster.node_for_resource(artist).transact(artist, [
        ("delete", "Song", (artist, "album-1", "one"), None),
        ("delete", "Artist", (artist,), None)])


def _bulk(cluster):
    documents = [((f"artist-{i}",), _artist(i)) for i in range(20)]
    cluster.clock.advance(0.25)
    by_node: dict[str, list] = {}
    for key, document in documents:
        node = cluster.node_for_resource(key[0])
        by_node.setdefault(node.instance_name, []).append((key, document))
    for name in sorted(by_node):
        cluster.nodes[name].bulk_apply("Artist", by_node[name])


def _control(cluster):
    """A window of one watermark event: the slaves apply it as a frame
    with no change."""
    _single(cluster)
    cluster.pump_replication()
    for partition in (0, 3):
        master = cluster.master_node(partition)
        scn = master.partition_scn.get(partition, 0) + 1
        cluster.relay.capture_transaction(
            BinlogTransaction(scn, (ChangeEvent(
                WATERMARK_TABLE, ChangeKind.WATERMARK, (),
                {"label": f"mark-{partition}"}),), timestamp=1.0),
            buffer_name=partition_buffer_name(MUSIC.name, partition))


SCENARIOS = {"single": _single, "multi": _multi, "bulk": _bulk,
             "control": _control}


def _run(scenario, monkeypatch, joined: bool):
    """Every node's ``commit.wal`` bytes and the disk trace after the
    scenario and a replication pump, written by the gather encoder or
    by the joined reference."""
    disk = SimDisk(clock=SimClock(), seed=21)
    disk.start_trace()
    with monkeypatch.context() as patch:
        if joined:
            patch.setattr(EspressoStorageNode, "_wal_append_window",
                          _joined_append_window)
        cluster = _cluster(disk)
        SCENARIOS[scenario](cluster)
        cluster.pump_replication()
    files = {}
    for name in sorted(cluster.nodes):
        with disk.scope(name).open("commit.wal") as handle:
            files[name] = handle.read()
    return files, disk.trace_bytes()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_commit_wal_bytes_and_trace_equal_the_joined_encoder(
        scenario, monkeypatch):
    gathered = _run(scenario, monkeypatch, joined=False)
    assert gathered == _run(scenario, monkeypatch, joined=True)
    assert all(gathered[0].values())


def _wal_extents(disk, name):
    return disk._files[f"{name}/commit.wal"].extents


def test_master_and_slave_frames_hold_the_relay_payloads():
    disk = SimDisk(clock=SimClock(), seed=21)
    cluster = _cluster(disk)
    artist = "artist-7"
    master = cluster.node_for_resource(artist)
    partition = MUSIC.partition_for(artist)
    buffer = partition_buffer_name(MUSIC.name, partition)
    master.put_document("Artist", (artist,), _artist(7))
    master.transact(artist, [
        ("put", "Album", (artist, "a"), {"title": "A", "year": 2001}),
        ("put", "Song", (artist, "a", "s"),
         {"title": "S", "lyrics": None, "duration": 3}),
        ("put", "Artist", (artist,), _artist(8))])
    single, *window = cluster.relay.stream_from(0, buffer)
    assert len(window) == 3
    cluster.pump_replication()
    (slave,) = [node for node in cluster.nodes.values()
                if node.role_of(partition) == "SLAVE"]
    for node in (master, slave):
        extents = _wal_extents(disk, node.instance_name)
        assert extents[-7] is single.payload
        for i, event in zip((-5, -3, -1), window):
            assert extents[i] is event.payload


class _PowerCut(Exception):
    pass


def _die(*args, **kwargs):
    raise _PowerCut


def _node_state(node):
    rows = {table: list(node.local.table(table).scan())
            for table in MUSIC.table_names()}
    hits = {genre: [r.key for r in node.query_index("Artist", "genre", genre)]
            for genre in ("rock", "jazz")}
    return rows, hits, {partition: scn for partition, scn
                        in node.partition_scn.items() if scn}


def test_a_write_torn_inside_a_window_loses_that_window_whole(monkeypatch):
    """The tear lands in the third extent of a three-change window (the
    second change's header): on reopen that window is gone whole and
    every earlier window replays to the same rows, index and SCNs."""
    disk = SimDisk(clock=SimClock(), seed=21)
    cluster = _cluster(disk)
    _single(cluster)
    cluster.pump_replication()
    artist = "artist-2"
    node = cluster.node_for_resource(artist)
    name = node.instance_name
    before = _node_state(node)
    state = disk._files[f"{name}/commit.wal"]
    start = state.size
    first_extent = len(state.extents)
    with monkeypatch.context() as patch:
        patch.setattr(_SimFile, "fsync", _die)
        with pytest.raises(_PowerCut):
            node.transact(artist, [
                ("put", "Album", (artist, "torn"),
                 {"title": "Torn", "year": 1999}),
                ("put", "Song", (artist, "torn", "s"),
                 {"title": "S", "lyrics": "x" * 80, "duration": 1}),
                ("put", "Artist", (artist,), _artist(40))])
    assert len(state.extents) - first_extent == 6
    third = state.ends[first_extent + 1]
    keep = third - start + 3
    assert keep < state.ends[first_extent + 2] - start
    disk.arm_torn_write(name, path="commit.wal", keep_bytes=keep)
    cluster.crash_node(name)
    cluster.recover_node(name)
    recovered = cluster.nodes[name]
    assert recovered._commit_wal.truncated_bytes == keep
    assert _node_state(recovered) == before


def test_a_committed_document_retains_no_copy_of_its_payload():
    """300 documents of about 300 B, each committed on its master and
    applied on its slave: the commit logs hold headers and references,
    not a copy of each payload per replica (about 3 410 B per document
    when each frame copied the window, about 2 700 B now)."""
    disk = SimDisk(clock=SimClock(), seed=4)
    cluster = _cluster(disk)
    artists = [f"member-{i:04d}" for i in range(300)]
    documents = [{"name": artist, "genre": "rock",
                  "bio": f"{artist} " * 25} for artist in artists]
    masters = [cluster.node_for_resource(artist) for artist in artists]
    cluster.node_for_resource("warm-up").put_document(
        "Artist", ("warm-up",), documents[0])
    cluster.pump_replication()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for node, artist, document in zip(masters, artists, documents):
            node.put_document("Artist", (artist,), document)
        cluster.pump_replication()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(artists) <= 3_000
