"""Quorum routing, read repair, hinted handoff, zone-aware placement."""

import pytest

from repro.common.errors import (
    InsufficientOperationalNodesError,
    KeyNotFoundError,
    ObsoleteVersionError,
)
from repro.simnet import SimNetwork, fixed_latency, lognormal_latency
from repro.voldemort import FailureDetector, RoutedStore, StoreDefinition
from repro.voldemort import Versioned, VoldemortCluster
from repro.workloads import KeyValueWorkload, RequestMix, zipf_sizes


def make_cluster(nodes=4, n=3, r=2, w=2, zones=1, required_zones=0, **kwargs):
    cluster = VoldemortCluster(num_nodes=nodes, partitions_per_node=4,
                               num_zones=zones, **kwargs)
    cluster.define_store(StoreDefinition(
        "test", replication_factor=n, required_reads=r, required_writes=w,
        required_zones=required_zones))
    return cluster


def crash(cluster, node_id):
    cluster.network.failures.crash(cluster.node_name(node_id))


def recover(cluster, node_id):
    cluster.network.failures.recover(cluster.node_name(node_id))


def test_store_definition_validation():
    with pytest.raises(Exception):
        StoreDefinition("s", replication_factor=2, required_reads=3)
    with pytest.raises(Exception):
        StoreDefinition("s", replication_factor=2, required_writes=0)
    assert StoreDefinition("s", 3, 2, 2).strongly_consistent
    assert not StoreDefinition("s", 3, 1, 1).strongly_consistent


def test_put_get_roundtrip():
    cluster = make_cluster()
    routed = RoutedStore(cluster, "test")
    versioned = Versioned.initial(b"value", 0)
    routed.put(b"key", versioned)
    frontier, latency = routed.get(b"key")
    assert [v.value for v in frontier] == [b"value"]
    assert latency > 0


def test_get_missing_raises_keynotfound():
    cluster = make_cluster()
    routed = RoutedStore(cluster, "test")
    with pytest.raises(KeyNotFoundError):
        routed.get(b"ghost")


def test_replicas_distinct_and_stable():
    cluster = make_cluster()
    routed = RoutedStore(cluster, "test")
    replicas = routed.replica_nodes(b"key")
    assert len(set(replicas)) == 3
    assert routed.replica_nodes(b"key") == replicas


def test_write_replicates_to_all_n():
    cluster = make_cluster()
    routed = RoutedStore(cluster, "test")
    versioned = Versioned.initial(b"v", 0)
    routed.put(b"key", versioned)
    stored = 0
    for server in cluster.servers.values():
        try:
            server.engine("test").get(b"key")
            stored += 1
        except KeyNotFoundError:
            pass
    assert stored == 3


def test_survives_one_node_down_with_quorum():
    cluster = make_cluster(nodes=4, n=3, r=2, w=2)
    routed = RoutedStore(cluster, "test")
    replicas = routed.replica_nodes(b"key")
    crash(cluster, replicas[0])
    routed.put(b"key", Versioned.initial(b"v", 0))
    frontier, _ = routed.get(b"key")
    assert frontier[0].value == b"v"


def test_insufficient_writes_raises():
    cluster = make_cluster(nodes=3, n=3, r=2, w=3)
    routed = RoutedStore(cluster, "test", enable_hinted_handoff=False)
    replicas = routed.replica_nodes(b"key")
    crash(cluster, replicas[1])
    with pytest.raises(InsufficientOperationalNodesError) as excinfo:
        routed.put(b"key", Versioned.initial(b"v", 0))
    assert excinfo.value.required == 3
    assert excinfo.value.achieved == 2


def test_insufficient_reads_raises():
    cluster = make_cluster(nodes=3, n=3, r=3, w=1)
    routed = RoutedStore(cluster, "test")
    routed.put(b"key", Versioned.initial(b"v", 0))
    replicas = routed.replica_nodes(b"key")
    crash(cluster, replicas[0])
    crash(cluster, replicas[1])
    with pytest.raises(InsufficientOperationalNodesError):
        routed.get(b"key")


def test_obsolete_version_conflict_surfaces():
    cluster = make_cluster()
    routed = RoutedStore(cluster, "test")
    first = Versioned.initial(b"v1", 0)
    routed.put(b"key", first)
    routed.put(b"key", first.next_version(b"v2", 0))
    with pytest.raises(ObsoleteVersionError):
        routed.put(b"key", first.next_version(b"stale", 0))


def test_read_repair_fixes_stale_replica():
    cluster = make_cluster(nodes=3, n=3, r=3, w=3)
    routed = RoutedStore(cluster, "test")
    first = Versioned.initial(b"v1", 0)
    routed.put(b"key", first)
    # one replica misses the second write
    replicas = routed.replica_nodes(b"key")
    crash(cluster, replicas[2])
    second = first.next_version(b"v2", 0)
    relaxed = RoutedStore(cluster, "test", enable_hinted_handoff=False)
    relaxed.definition = StoreDefinition("test", 3, 2, 2)
    relaxed.put(b"key", second)
    recover(cluster, replicas[2])
    # stale replica still has v1
    stale = cluster.server_for(replicas[2]).engine("test").get(b"key")
    assert stale[0].value == b"v1"
    # a quorum read touching all three nodes repairs it
    relaxed.definition = StoreDefinition("test", 3, 3, 2)
    frontier, _ = relaxed.get(b"key")
    assert frontier[0].value == b"v2"
    repaired = cluster.server_for(replicas[2]).engine("test").get(b"key")
    assert [v.value for v in repaired] == [b"v2"]
    assert relaxed.metrics.counters["read_repairs"].value >= 1


def test_read_repair_can_be_disabled():
    cluster = make_cluster(nodes=3, n=3, r=3, w=2)
    routed = RoutedStore(cluster, "test", enable_read_repair=False,
                         enable_hinted_handoff=False)
    first = Versioned.initial(b"v1", 0)
    routed.put(b"key", first)
    replicas = routed.replica_nodes(b"key")
    crash(cluster, replicas[2])
    routed.put(b"key", first.next_version(b"v2", 0))
    recover(cluster, replicas[2])
    routed.get(b"key")
    stale = cluster.server_for(replicas[2]).engine("test").get(b"key")
    assert stale[0].value == b"v1"  # never repaired


def test_hinted_handoff_stores_and_replays():
    cluster = make_cluster(nodes=4, n=3, r=2, w=2)
    routed = RoutedStore(cluster, "test")
    replicas = routed.replica_nodes(b"key")
    dead = replicas[2]
    crash(cluster, dead)
    routed.put(b"key", Versioned.initial(b"v", 0))
    assert routed.metrics.counters["hints_stored"].value == 1
    # find the node holding the hint
    holders = [s for s in cluster.servers.values() if s.hints_for(dead)]
    assert len(holders) == 1
    recover(cluster, dead)
    delivered = holders[0].deliver_hints(dead)
    assert delivered == 1
    assert not holders[0].hints_for(dead)
    value = cluster.server_for(dead).engine("test").get(b"key")
    assert value[0].value == b"v"


def test_hint_delivery_retries_until_destination_up():
    cluster = make_cluster(nodes=4, n=3, r=2, w=2)
    routed = RoutedStore(cluster, "test")
    replicas = routed.replica_nodes(b"key")
    dead = replicas[2]
    crash(cluster, dead)
    routed.put(b"key", Versioned.initial(b"v", 0))
    holder = next(s for s in cluster.servers.values() if s.hints_for(dead))
    assert holder.deliver_hints(dead) == 0  # still down
    assert holder.hints_for(dead)
    recover(cluster, dead)
    assert holder.deliver_hints(dead) == 1


def test_failure_detector_avoids_down_nodes():
    cluster = make_cluster(nodes=4, n=3, r=1, w=1)
    routed = RoutedStore(cluster, "test")
    routed.put(b"key", Versioned.initial(b"v", 0))
    replicas = routed.replica_nodes(b"key")
    crash(cluster, replicas[0])
    # repeated failures mark the node down in the detector
    for _ in range(10):
        routed.get(b"key")
    assert not routed.detector.is_available(replicas[0])
    # subsequent reads skip it entirely
    before = cluster.server_for(replicas[1]).requests_served
    routed.get(b"key")
    assert cluster.server_for(replicas[1]).requests_served > before
    # EXP-V5b: over 100 reads only the ones before detection are wasted
    for _ in range(89):
        routed.get(b"key")
    assert cluster.network.hops_failed == 4


def test_zone_aware_routing_spans_zones():
    cluster = make_cluster(nodes=6, n=3, r=2, w=2, zones=2, required_zones=2)
    routed = RoutedStore(cluster, "test")
    for key in (b"a", b"b", b"c", b"d"):
        replicas = routed.replica_nodes(key)
        zones = {cluster.ring.nodes[n].zone_id for n in replicas}
        assert len(zones) >= 2


def test_delete_tombstones_key():
    cluster = make_cluster()
    routed = RoutedStore(cluster, "test")
    first = Versioned.initial(b"v", 0)
    routed.put(b"key", first)
    routed.delete(b"key", first.next_version(None, 0))
    with pytest.raises(KeyNotFoundError):
        routed.get(b"key")


def _stale_replica_scenario():
    """One replica left holding v1 after the quorum moved to v2."""
    cluster = make_cluster(nodes=3, n=3, r=3, w=3)
    routed = RoutedStore(cluster, "test")
    first = Versioned.initial(b"v1", 0)
    routed.put(b"key", first)
    replicas = routed.replica_nodes(b"key")
    crash(cluster, replicas[2])
    second = first.next_version(b"v2", 0)
    relaxed = RoutedStore(cluster, "test", enable_hinted_handoff=False)
    relaxed.definition = StoreDefinition("test", 3, 2, 2)
    relaxed.put(b"key", second)
    recover(cluster, replicas[2])
    relaxed.definition = StoreDefinition("test", 3, 3, 2)
    return cluster, relaxed, replicas[2], second


def test_read_repair_skipped_when_deadline_exhausted():
    # regression for the unbounded-rpc finding: repair rides on the
    # read's budget, so an exhausted deadline must skip it instead of
    # issuing unbounded RPCs
    from repro.common.resilience import Deadline

    cluster, relaxed, stale_node, second = _stale_replica_scenario()
    deadline = Deadline(cluster.clock, 0.001)
    cluster.clock.advance(1.0)  # budget gone before repair starts
    relaxed._read_repair(
        b"key", [second], {stale_node: [Versioned.initial(b"v1", 0)]},
        [], deadline)
    assert relaxed.metrics.counters[
        "read_repair.deadline_skipped"].value == 1
    still_stale = cluster.server_for(stale_node).engine("test").get(b"key")
    assert still_stale[0].value == b"v1"


def test_read_repair_runs_within_a_live_deadline():
    from repro.common.resilience import Deadline

    cluster, relaxed, stale_node, second = _stale_replica_scenario()
    deadline = Deadline(cluster.clock, 60.0)
    frontier, _ = relaxed.get(b"key", deadline=deadline)
    assert frontier[0].value == b"v2"
    repaired = cluster.server_for(stale_node).engine("test").get(b"key")
    assert [v.value for v in repaired] == [b"v2"]
    assert relaxed.metrics.counters["read_repairs"].value >= 1


# -- EXPERIMENTS.md, Voldemort table: simulated latency over ~1 ms hops ----


def serving_store(seed, median_hop=0.0009, **cluster):
    network = SimNetwork(seed=seed,
                         latency_model=lognormal_latency(median_hop, 0.4))
    return RoutedStore(make_cluster(network=network, seed=seed, **cluster),
                       "test")


def mean_get_ms(routed):
    return round(routed.metrics.histogram("get").summary()["mean"] * 1e3, 2)


def test_exp_v1_flagship_60_40_mix_is_low_single_digit_ms():
    routed = serving_store(seed=0, nodes=6)
    workload = KeyValueWorkload(num_keys=2000, mix=RequestMix(0.6),
                                value_bytes=1024, seed=1)
    for op in workload.preload(500):
        routed.put(op.key, Versioned.initial(op.value, 0))
    for op in workload.operations(400):
        try:
            clock = routed.get(op.key)[0][0].clock.incremented(0)
        except KeyNotFoundError:
            clock = None
        if op.kind == "put":
            routed.put(op.key, Versioned(op.value, clock) if clock
                       else Versioned.initial(op.value, 0))
    gets = routed.metrics.histogram("get").summary()
    puts = routed.metrics.histogram("put").summary()
    assert (round(gets["mean"] * 1e3, 2), round(gets["p99"] * 1e3, 2),
            round(puts["mean"] * 1e3, 2)) == (2.08, 4.75, 1.88)


def test_exp_v1b_larger_quorums_wait_on_more_replicas():
    means = []
    for quorum in (1, 2, 3):
        routed = serving_store(seed=quorum * 11, nodes=6, r=quorum, w=quorum)
        for i in range(150):
            routed.put(b"key-%d" % i, Versioned.initial(b"v" * 64, 0))
        for i in range(150):
            routed.get(b"key-%d" % i)
        means.append(mean_get_ms(routed))
    assert means == sorted(means) == [1.83, 2.28, 2.59]


def test_exp_v3_zipfian_value_sizes_stay_single_digit_ms():
    routed = serving_store(seed=3, median_hop=0.0012)
    sizes = zipf_sizes(800, min_bytes=64, max_bytes=262_144, theta=1.0, seed=4)
    payload = bytes(262_144)
    for i, size in enumerate(sizes):
        routed.put(b"member:%d" % i, Versioned.initial(payload[:size], 0))
    latencies = [routed.get(b"member:%d" % i)[1] for i in range(len(sizes))]
    large = [t for t, size in zip(latencies, sizes) if size > 65_536]
    assert mean_get_ms(routed) == 3.13
    assert (len(large), round(sum(large) / len(large) * 1e3, 2)) == (2, 2.50)


def fully_replicated_after_transient_errors(repair: bool) -> float:
    network = SimNetwork(seed=7, latency_model=fixed_latency(0.0005))
    cluster = make_cluster(nodes=5, network=network, seed=7)
    # a tolerant detector: transient blips should not bench a node
    detector = FailureDetector(cluster.clock, threshold=0.3,
                               minimum_samples=10, ping_interval=0.1)
    routed = RoutedStore(cluster, "test", failure_detector=detector,
                         enable_read_repair=repair,
                         enable_hinted_handoff=repair)
    keys = [b"key-%d" % i for i in range(300)]
    network.failures.transient_error_rate = 0.15
    for key in keys:
        try:
            routed.put(key, Versioned.initial(b"v" * 32, 0))
        except InsufficientOperationalNodesError:
            pass
    network.failures.transient_error_rate = 0.0
    for server in cluster.servers.values():
        for node_id in cluster.servers:
            server.deliver_hints(node_id)
    for key in keys:   # quorum reads: read repair runs in the repair arm
        try:
            routed.get(key)
        except KeyNotFoundError:
            pass
    held = {node: set(server.engine("test").keys())
            for node, server in cluster.servers.items()}
    return round(sum(all(key in held[node]
                         for node in routed.replica_nodes(key))
                     for key in keys) / len(keys), 3)


def test_exp_v5_repair_mechanisms_reconcile_replicas():
    assert fully_replicated_after_transient_errors(repair=True) == 0.983
    assert fully_replicated_after_transient_errors(repair=False) == 0.583


def test_get_all_orders_each_distinct_preference_list_once(monkeypatch):
    """A 100-key batch over 6 nodes × 8 partitions touches ~39
    partitions but only 6 distinct preference lists: replicas are
    ordered once per list, not once per partition."""
    cluster = VoldemortCluster(num_nodes=6, partitions_per_node=8)
    cluster.define_store(StoreDefinition("test", 3, 2, 2))
    routed = RoutedStore(cluster, "test")
    keys = [b"member:%012d" % i for i in range(0, 20_000, 200)]
    for key in keys:
        routed.put(key, Versioned.initial(b"v", 0))
    ring = cluster.ring
    partitions = set(ring.partitions_for_keys(keys))
    lists = {ring.preference_list(p, 3)[1] for p in partitions}
    assert len(lists) == 6 and len(partitions) > 30
    calls = []
    order = RoutedStore._ordered_by_availability

    def counted(self, replicas, ranks=None):
        calls.append(tuple(replicas))
        return order(self, replicas, ranks)

    monkeypatch.setattr(RoutedStore, "_ordered_by_availability", counted)
    found, _ = routed.get_all(keys)
    assert set(found) == set(keys)
    assert sorted(calls) == sorted(lists)
