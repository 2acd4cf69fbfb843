"""Storage-node crash + recovery: commit log replays docs, indexes, SCNs."""

import pytest

from repro.common.clock import SimClock
from repro.simnet.disk import SimDisk, _SimFile
from repro.espresso import EspressoCluster
from repro.espresso.storage import EspressoStorageNode

from tests.espresso.conftest import (
    ALBUM_SCHEMA,
    ARTIST_SCHEMA,
    MUSIC,
    SONG_SCHEMA,
    scn_regressions,
)


@pytest.fixture
def disk():
    return SimDisk(clock=SimClock(), seed=21)


@pytest.fixture
def durable_cluster(disk):
    built = EspressoCluster(MUSIC, num_nodes=3, disk=disk)
    built.post_document_schema("Artist", ARTIST_SCHEMA)
    built.post_document_schema("Album", ALBUM_SCHEMA)
    built.post_document_schema("Song", SONG_SCHEMA)
    built.start()
    return built


class _PowerCut(Exception):
    pass


def _die(*args, **kwargs):
    raise _PowerCut


def put_artist(cluster, artist, genre="rock"):
    node = cluster.node_for_resource(artist)
    node.put_document("Artist", (artist,),
                      {"name": artist, "genre": genre, "bio": None})
    return node


class TestCommitLogRecovery:
    def test_documents_survive_crash(self, durable_cluster):
        cluster = durable_cluster
        node = put_artist(cluster, "nirvana", genre="grunge")
        name = node.instance_name

        cluster.crash_node(name)
        cluster.recover_node(name)
        recovered = cluster.nodes[name]
        assert recovered is not node  # rebuilt from the commit log
        assert recovered.recovered_windows >= 1
        record = recovered.get_document("Artist", ("nirvana",))
        assert record.document["genre"] == "grunge"

    def test_indexes_rebuilt_with_documents(self, durable_cluster):
        cluster = durable_cluster
        node = put_artist(cluster, "kraftwerk", genre="electronic")
        name = node.instance_name

        cluster.crash_node(name)
        cluster.recover_node(name)
        recovered = cluster.nodes[name]
        hits = recovered.query_index("Artist", "genre", "electronic")
        assert [r.key for r in hits] == [("kraftwerk",)]
        # index agrees with a full scan — no divergence after replay
        scan = recovered.query_full_scan("Artist", "genre", "electronic")
        assert [r.key for r in scan] == [r.key for r in hits]

    def test_scn_resumes_without_gap_or_duplicate(self, durable_cluster):
        cluster = durable_cluster
        node = put_artist(cluster, "abba", genre="pop")
        name = node.instance_name
        partition = cluster.database.partition_for("abba")
        scn_before = node.partition_scn[partition]
        applied_before = dict(node.partition_scn)

        cluster.crash_node(name)
        cluster.recover_node(name)
        cluster.failover()
        recovered = cluster.nodes[name]
        assert recovered.partition_scn[partition] == scn_before
        assert scn_regressions(applied_before, recovered.partition_scn) == []

        if recovered.is_master(partition):
            recovered.put_document("Artist", ("abba",),
                                   {"name": "abba", "genre": "disco",
                                    "bio": None})
        else:
            master = cluster.master_node(partition)
            master.put_document("Artist", ("abba",),
                                {"name": "abba", "genre": "disco",
                                 "bio": None})
            recovered.catch_up(partition)
        assert recovered.partition_scn[partition] == scn_before + 1

    def test_unsynced_window_refetched_from_relay(self, durable_cluster, disk,
                                                  monkeypatch):
        """A window captured by the relay but lost before the local WAL
        fsync is healed by catch-up — written-to-two-places in action."""
        cluster = durable_cluster
        node = put_artist(cluster, "devo")
        name = node.instance_name
        partition = cluster.database.partition_for("devo")
        scn = node.partition_scn[partition]

        # the power goes between relay capture and the commit-WAL fsync:
        # the frame is written but still above the durability line
        with monkeypatch.context() as patch:
            patch.setattr(_SimFile, "fsync", _die)
            with pytest.raises(_PowerCut):
                node.put_document(
                    "Artist", ("devo",),
                    {"name": "devo", "genre": "new-wave", "bio": None})
        assert disk.unsynced_bytes(name) > 0

        cluster.crash_node(name)
        assert disk.bytes_lost > 0
        cluster.recover_node(name)
        recovered = cluster.nodes[name]
        assert recovered.partition_scn[partition] == scn  # window lost locally

        recovered.become_slave(partition)
        recovered.catch_up(partition)
        assert recovered.partition_scn[partition] == scn + 1
        record = recovered.get_document("Artist", ("devo",))
        assert record.document["genre"] == "new-wave"

    def test_slave_applies_survive_crash(self, durable_cluster):
        cluster = durable_cluster
        put_artist(cluster, "queen", genre="rock")
        cluster.pump_replication()
        partition = cluster.database.partition_for("queen")
        slaves = [n for n in cluster.nodes.values()
                  if n.role_of(partition) == "SLAVE"
                  and n.partition_scn.get(partition)]
        assert slaves
        slave = slaves[0]
        name = slave.instance_name
        applied_before = dict(slave.partition_scn)

        cluster.crash_node(name)
        cluster.recover_node(name)
        recovered = cluster.nodes[name]
        record = recovered.get_document("Artist", ("queen",))
        assert record.document["name"] == "queen"
        assert recovered.partition_scn[partition] == 1
        assert scn_regressions(applied_before, recovered.partition_scn) == []

    def test_a_recovery_that_drops_a_synced_window_fails_the_scn_check(
            self, durable_cluster, monkeypatch):
        """The mutation the check exists for: a recovery that loses the
        last fsynced commit-WAL frame comes back one window behind on
        that frame's partition, and ``scn_regressions`` says which."""
        cluster = durable_cluster
        put_artist(cluster, "abba", genre="pop")
        node = put_artist(cluster, "abba", genre="disco")
        name = node.instance_name
        partition = cluster.database.partition_for("abba")
        applied_before = dict(node.partition_scn)
        recover = EspressoStorageNode._recover_from_wal

        def drop_last_frame(self):
            frames = list(self._commit_wal.replay())
            monkeypatch.setattr(self._commit_wal, "replay",
                                lambda: iter(frames[:-1]))
            recover(self)

        monkeypatch.setattr(EspressoStorageNode, "_recover_from_wal",
                            drop_last_frame)
        cluster.crash_node(name)
        cluster.recover_node(name)
        recovered = cluster.nodes[name]
        assert recovered.partition_scn[partition] == \
            applied_before[partition] - 1
        assert scn_regressions(applied_before,
                               recovered.partition_scn) == [partition]


def test_commit_wal_bytes_are_pinned(durable_cluster, disk):
    """The master frames its window from the events the relay captured,
    the slave from the events it fetched: both must write exactly the
    bytes the pre-change master (which encoded every row a second time
    for the WAL) wrote.  Digest taken at the parent commit."""
    import hashlib
    cluster = durable_cluster
    for i in range(24):
        artist = f"artist-{i % 7}"
        cluster.clock.advance(0.25)
        node = cluster.node_for_resource(artist)
        node.put_document("Artist", (artist,), {
            "name": artist, "genre": ("rock", "jazz")[i % 2],
            "bio": None if i % 3 else f"bio {i}"})
        if i % 4 == 0:
            node.transact(artist, [
                ("put", "Album", (artist, f"album-{i}"),
                 {"title": f"Album {i}", "year": 1990 + i}),
                ("put", "Song", (artist, f"album-{i}", "one"),
                 {"title": "One", "lyrics": "la la", "duration": 100 + i})])
        if i % 9 == 8:
            node.delete_document("Artist", (artist,))
        if i % 5 == 4:
            cluster.pump_replication()
    cluster.pump_replication()
    digest = hashlib.sha256()
    for name in sorted(cluster.nodes):
        with disk.scope(name).open("commit.wal") as handle:
            digest.update(handle.read())
    assert digest.hexdigest() == (
        "5f456b6ffbf411baccf2b18c65ceb5d4ca39588e22747848fa92775734e1961a")
