"""Consistent-hash ring placement properties (Voldemort §II.A-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, UnsupportedTypeError
from repro.common.ring import HashRing, Node, Zone, build_balanced_ring, hash_key


def make_ring(nodes=4, partitions=16, zones=1):
    return build_balanced_ring(nodes, partitions, zones)


def test_hash_key_requires_bytes():
    with pytest.raises(TypeError):
        hash_key("not-bytes")


def test_hash_key_is_stable():
    assert hash_key(b"member:42") == hash_key(b"member:42")


def test_every_partition_has_exactly_one_owner():
    ring = make_ring()
    owners = [ring.node_for_partition(p).node_id for p in range(16)]
    assert len(owners) == 16


def test_duplicate_partition_ownership_rejected():
    with pytest.raises(ConfigurationError):
        HashRing([Node(0, (0, 1)), Node(1, (1,))], num_partitions=2)


def test_unowned_partition_rejected():
    with pytest.raises(ConfigurationError):
        HashRing([Node(0, (0,))], num_partitions=2)


def test_replicas_land_on_distinct_nodes():
    ring = make_ring(nodes=5, partitions=20)
    for partition in range(20):
        replicas = ring.replica_partitions(partition, replication_factor=3)
        owners = {ring.node_for_partition(p).node_id for p in replicas}
        assert len(owners) == 3
        assert replicas[0] == partition


def test_replication_factor_cannot_exceed_nodes():
    ring = make_ring(nodes=2, partitions=8)
    with pytest.raises(ConfigurationError):
        ring.replica_partitions(0, replication_factor=3)


def test_key_routing_is_deterministic():
    ring = make_ring()
    key = b"company:linkedin"
    assert ring.master_for_key(key).node_id == ring.master_for_key(key).node_id
    nodes_a = [n.node_id for n in ring.replica_nodes_for_key(key, 3)]
    nodes_b = [n.node_id for n in ring.replica_nodes_for_key(key, 3)]
    assert nodes_a == nodes_b


def test_zone_aware_placement_spans_zones():
    ring = make_ring(nodes=6, partitions=24, zones=2)
    for partition in range(24):
        replicas = ring.zone_aware_replica_partitions(partition, 3, required_zones=2)
        zones = {ring.node_for_partition(p).zone_id for p in replicas}
        assert len(zones) >= 2


def test_zone_aware_rejects_impossible_requirements():
    ring = make_ring(nodes=4, partitions=8, zones=1)
    with pytest.raises(ConfigurationError):
        ring.zone_aware_replica_partitions(0, 2, required_zones=2)


def test_partition_move_transfers_ownership():
    ring = make_ring(nodes=2, partitions=4)
    victim = ring.node_for_partition(0).node_id
    target = 1 - victim
    moved = ring.with_partition_moved(0, target)
    assert moved.node_for_partition(0).node_id == target
    # original ring untouched
    assert ring.node_for_partition(0).node_id == victim


def test_node_added_starts_empty():
    ring = make_ring(nodes=2, partitions=4)
    grown = ring.with_node_added(9)
    assert grown.partition_counts()[9] == 0


@given(st.binary(min_size=1, max_size=40))
@settings(max_examples=200)
def test_partition_for_key_in_range(key):
    ring = make_ring(nodes=3, partitions=12)
    assert 0 <= ring.partition_for_key(key) < 12


@given(st.integers(2, 8), st.integers(1, 4))
def test_balanced_ring_is_balanced(nodes, per_node):
    partitions = nodes * per_node
    ring = build_balanced_ring(nodes, partitions)
    counts = set(ring.partition_counts().values())
    assert counts == {per_node}


@given(st.binary(min_size=1, max_size=16), st.integers(2, 5))
@settings(max_examples=100)
def test_expansion_moves_minimal_partitions(key, nodes):
    """Adding a node and moving one partition changes routing only for
    keys in the moved partition — the paper's no-downtime expansion."""
    ring = build_balanced_ring(nodes, nodes * 4)
    grown = ring.with_node_added(99)
    moved_partition = 0
    rebalanced = grown.with_partition_moved(moved_partition, 99)
    partition = ring.partition_for_key(key)
    if partition != moved_partition:
        assert (rebalanced.master_for_key(key).node_id
                == ring.master_for_key(key).node_id)
    else:
        assert rebalanced.master_for_key(key).node_id == 99


def test_batch_partitions_match_per_key_partitions():
    ring = build_balanced_ring(6, 48)
    keys = [b"member:%d" % i for i in range(200)] + [b"", b"member:0"]
    assert ring.partitions_for_keys(keys) == \
        [ring.partition_for_key(key) for key in keys]
    assert ring.partitions_for_keys([]) == []
    with pytest.raises(UnsupportedTypeError):
        ring.partitions_for_keys([b"fine", "str-key"])


def test_preference_memo_holds_one_entry_per_partition_and_shape():
    """DESIGN §17: the memo holds one entry per (partition, replication
    factor, required zones) asked of this ring; a repeated lookup adds
    nothing, and a new ownership is a new ring with an empty memo."""
    ring = make_ring(nodes=6, partitions=48, zones=2)
    for _ in range(2):
        for partition in range(48):
            ring.preference_list(partition, 3)
        assert len(ring._preference) == 48
    for partition in range(48):
        ring.preference_list(partition, 3, required_zones=2)
    assert len(ring._preference) == 96
    moved = ring.with_partition_moved(0, 5)
    assert len(moved._preference) == 0
    assert len(ring._preference) == 96
