"""Storage-node crash + recovery: commit log replays docs, indexes, SCNs."""

import pytest

from repro.common.clock import SimClock
from repro.simnet.disk import SimDisk, _SimFile
from repro.espresso import EspressoCluster
from repro.simnet.faultplan import ScnAuditor

from tests.espresso.conftest import ALBUM_SCHEMA, ARTIST_SCHEMA, MUSIC, SONG_SCHEMA


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

        cluster.crash_node(name)
        cluster.recover_node(name)
        cluster.failover()
        recovered = cluster.nodes[name]
        assert recovered.partition_scn[partition] == scn_before

        auditor = ScnAuditor()
        recovered.on_apply = auditor.hook(name)
        auditor.observe_recovery(name, recovered.partition_scn)
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
        assert auditor.violations == []
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

        cluster.crash_node(name)
        cluster.recover_node(name)
        recovered = cluster.nodes[name]
        record = recovered.get_document("Artist", ("queen",))
        assert record.document["name"] == "queen"
        assert recovered.partition_scn[partition] == 1
