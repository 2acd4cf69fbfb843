"""Routers consult the admin redirect table during rebalancing (§II.B:
"We maintain consistency during rebalancing by redirecting requests of
moving partitions to their new destination.")."""

import pytest

from repro.common.errors import KeyNotFoundError
from repro.voldemort import RoutedStore, StoreDefinition, Versioned, VoldemortCluster
from repro.voldemort.admin import AdminService, PartitionMove, RebalancePlan


@pytest.fixture
def setup():
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4)
    admin = AdminService(cluster)
    admin.add_store(StoreDefinition("s", 1, 1, 1))
    routed = RoutedStore(cluster, "s")
    routed.admin = admin
    return cluster, admin, routed


def test_routing_without_redirects_matches_ring(setup):
    cluster, admin, routed = setup
    key = b"stable-key"
    partition = cluster.ring.partition_for_key(key)
    owner = cluster.ring.node_for_partition(partition).node_id
    assert routed.replica_nodes(key) == [owner]


def test_mid_migration_requests_go_to_destination(setup):
    cluster, admin, routed = setup
    key = b"moving-key"
    partition = cluster.ring.partition_for_key(key)
    old_owner = cluster.ring.node_for_partition(partition).node_id
    destination = (old_owner + 1) % 3
    # the migration has started: redirect set, ownership not yet flipped
    admin.redirects[partition] = destination
    assert routed.replica_nodes(key) == [destination]
    # a write during migration lands on the destination
    routed.put(key, Versioned.initial(b"v", 0))
    assert cluster.server_for(destination).engine("s").get(key)[0].value == b"v"
    with pytest.raises(KeyNotFoundError):
        cluster.server_for(old_owner).engine("s").get(key)
    # migration finishes: redirect removed, ring flipped
    del admin.redirects[partition]
    cluster.ring = cluster.ring.with_partition_moved(partition, destination)
    frontier, _ = routed.get(key)
    assert frontier[0].value == b"v"


def test_memoised_preference_list_is_never_stale(setup):
    """The ring memoises preference lists, so the two ways ownership
    changes must both show on the very next lookup: an in-flight
    redirect (same ring object) and a finished move (a new ring)."""
    cluster, admin, routed = setup
    key = b"moving-key"
    partition = cluster.ring.partition_for_key(key)
    old_owner = cluster.ring.node_for_partition(partition).node_id
    destination = (old_owner + 1) % 3
    assert routed.replica_nodes(key) == [old_owner]     # memo is warm
    admin.redirects[partition] = destination
    assert routed.replica_nodes(key) == [destination]
    del admin.redirects[partition]
    assert routed.replica_nodes(key) == [old_owner]
    admin.execute_rebalance(RebalancePlan(
        [PartitionMove(partition, old_owner, destination)]))
    assert routed.replica_nodes(key) == [destination]
    # a router with no admin attached sees the flipped ring too
    assert RoutedStore(cluster, "s").replica_nodes(key) == [destination]


def test_full_expansion_with_attached_router(setup):
    cluster, admin, routed = setup
    keys = [b"key-%d" % i for i in range(40)]
    for key in keys:
        routed.put(key, Versioned.initial(b"v:" + key, 0))
    plan = admin.plan_expansion(99)
    admin.execute_rebalance(plan)
    for key in keys:
        frontier, _ = routed.get(key)
        assert frontier[0].value == b"v:" + key


def test_writes_during_each_move_never_lost(setup):
    """Interleave writes between the moves of a rebalance; all survive."""
    cluster, admin, routed = setup
    plan = admin.plan_expansion(99)
    written = []
    for i, move in enumerate(plan.moves):
        admin.execute_rebalance(type(plan)([move]))
        key = b"between-%d" % i
        routed.put(key, Versioned.initial(b"v", 0))
        written.append(key)
    for key in written:
        frontier, _ = routed.get(key)
        assert frontier[0].value == b"v"
