"""Admin service: store lifecycle and online rebalancing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.voldemort import RoutedStore, StoreDefinition, Versioned, VoldemortCluster
from repro.voldemort.admin import AdminService


@pytest.fixture
def cluster():
    return VoldemortCluster(num_nodes=3, partitions_per_node=4)


def test_add_and_delete_store(cluster):
    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s1", 2, 1, 1))
    assert "s1" in cluster.stores
    for server in cluster.servers.values():
        assert "s1" in server.stores_open()
    admin.delete_store("s1")
    assert "s1" not in cluster.stores
    for server in cluster.servers.values():
        assert "s1" not in server.stores_open()


def test_duplicate_store_rejected(cluster):
    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s1", 2, 1, 1))
    with pytest.raises(ConfigurationError):
        admin.add_store(StoreDefinition("s1", 2, 1, 1))


def test_expansion_plan_balances_partition_counts(cluster):
    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s1", 2, 1, 1))
    plan = admin.plan_expansion(99)
    # 12 partitions over 4 nodes -> 3 each
    assert plan.partitions_moved() == 3
    donors = {m.from_node for m in plan.moves}
    assert 99 not in donors


def test_rebalance_moves_data_and_ownership(cluster):
    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s1", 1, 1, 1))
    routed = RoutedStore(cluster, "s1")
    keys = [f"key-{i}".encode() for i in range(60)]
    for key in keys:
        routed.put(key, Versioned.initial(b"v:" + key, 0))

    plan = admin.plan_expansion(99)
    migrated = admin.execute_rebalance(plan)
    assert migrated > 0
    counts = cluster.ring.partition_counts()
    assert counts[99] == 3

    # every key still readable after the rebalance, via fresh routing
    routed_after = RoutedStore(cluster, "s1")
    for key in keys:
        frontier, _ = routed_after.get(key)
        assert frontier[0].value == b"v:" + key
    # and the new node actually serves some of them
    newcomer = cluster.server_for(99)
    assert len(list(newcomer.engine("s1").keys())) > 0


def test_reads_during_migration_follow_redirects(cluster):
    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s1", 1, 1, 1))
    plan = admin.plan_expansion(99)
    move = plan.moves[0]
    # mid-migration state: redirect set, ownership not yet flipped
    admin.redirects[move.partition] = move.to_node
    assert admin.effective_owner(move.partition) == move.to_node
    del admin.redirects[move.partition]
    assert admin.effective_owner(move.partition) == move.from_node


def test_move_validates_current_owner(cluster):
    from repro.voldemort.admin import PartitionMove, RebalancePlan
    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s1", 1, 1, 1))
    owner = cluster.ring.node_for_partition(0).node_id
    wrong_donor = (owner + 1) % 3
    plan = RebalancePlan([PartitionMove(0, wrong_donor, owner)])
    with pytest.raises(ConfigurationError):
        admin.execute_rebalance(plan)


def test_a_handoff_during_the_new_servers_construction_skips_the_new_node(
        cluster, monkeypatch):
    """The newcomer's id was used before and left a torn ``slops.wal``,
    so building its server fsyncs the cut.  A write that needs a hinted
    handoff lands inside that fsync.  The new node is not a fallback
    yet: the ring names it only once its server is registered, so the
    handoff finds no live fallback (every old node is a replica), the
    write is acked by W replicas, and no ``KeyError`` escapes."""
    from repro.simnet.disk import _SimFile

    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s1", 3, 2, 2))
    routed = RoutedStore(cluster, "s1")
    stale = cluster.disk.scope("node-99").open("slops.wal", "ab")
    stale.write(b"torn")          # shorter than a frame header
    stale.fsync()
    stale.close()
    cluster.network.failures.crash("node-1")
    landed = []
    fsync = _SimFile.fsync

    def racing_fsync(handle):
        if handle._path == "node-99/slops.wal" and not landed:
            landed.append(routed.put(b"k", Versioned.initial(b"v", 0)))
        fsync(handle)

    monkeypatch.setattr(_SimFile, "fsync", racing_fsync)
    admin.plan_expansion(99)
    assert len(landed) == 1
    assert routed.metrics.counter("hints_stored").value == 0
    # once registered and on the ring, the newcomer holds hints
    routed.put(b"k2", Versioned.initial(b"v", 0))
    assert 99 in cluster.ring.nodes
    assert routed.metrics.counter("hints_stored").value == 1
    assert cluster.server_for(99).hints_for(1)
