"""Overload behaviour of quorum routing: front-door admission, shed vs
breaker ordering, replica sheds, least-loaded selection, hedged reads."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ServerOverloadedError
from repro.common.overload import (
    PRIORITY_BULK,
    PRIORITY_LIVE,
    AdmissionController,
    HedgedCall,
)
from repro.simnet import SimNetwork, fixed_latency
from repro.voldemort import RoutedStore, StoreDefinition, Versioned, VoldemortCluster


def make_cluster(nodes=4, n=3, r=2, w=2, **kwargs):
    cluster = VoldemortCluster(num_nodes=nodes, partitions_per_node=4,
                               **kwargs)
    cluster.define_store(StoreDefinition(
        "test", replication_factor=n, required_reads=r, required_writes=w))
    return cluster


def drain_to(admission, tokens):
    """Spend live-class admissions until exactly ``tokens`` remain."""
    while admission.bucket.available > tokens:
        assert admission.try_admit(PRIORITY_LIVE)


# -- front-door admission ------------------------------------------------


def test_shed_read_happens_before_any_replica_work():
    cluster = make_cluster()
    setup = RoutedStore(cluster, "test")
    setup.put(b"key", Versioned.initial(b"v", 0))

    admission = AdmissionController(cluster.clock, rate=0.001, burst=2.0)
    routed = RoutedStore(cluster, "test", admission=admission)
    routed.get(b"key")          # spends the admission budget
    drain_to(admission, 0.0)
    network = cluster.network
    hops_before = network.hops_delivered + network.hops_failed
    with pytest.raises(ServerOverloadedError) as exc_info:
        routed.get(b"key")
    assert exc_info.value.retry_after > 0
    # shed at the front door: zero network traffic, zero breaker or
    # detector outcomes — the cluster is fine, the client is overloaded
    assert network.hops_delivered + network.hops_failed == hops_before
    assert routed.detector.nodes_marked_down == 0
    assert all(b.state == "closed" for b in routed._breakers.values())


def test_shed_write_uses_write_class():
    cluster = make_cluster()
    admission = AdmissionController(cluster.clock, rate=0.001, burst=10.0)
    routed = RoutedStore(cluster, "test", admission=admission)
    # 1 token left: below the write floor (0.15 * 10 = 1.5), above live's
    drain_to(admission, 1.0)
    with pytest.raises(ServerOverloadedError):
        routed.put(b"key", Versioned.initial(b"v", 0))
    routed_reads_still_flow = admission.try_admit(PRIORITY_LIVE)
    assert routed_reads_still_flow


# -- replica-level sheds -------------------------------------------------


def saturate(network, node_name, capacity):
    for _ in range(capacity):
        network.invoke("filler", node_name, lambda: None)


def test_replica_shed_records_success_not_failure():
    network = SimNetwork(latency_model=fixed_latency(0.0002))
    cluster = make_cluster(network=network)
    routed = RoutedStore(cluster, "test")
    routed.put(b"key", Versioned.initial(b"v", 0))
    victim = routed.replica_nodes(b"key")[0]
    network.add_server_queue(cluster.node_name(victim),
                             service_time=0.01, capacity=1)
    saturate(network, cluster.node_name(victim), 1)
    outcome = routed._call_get(victim, b"key", None)
    assert outcome is None                       # shed: no answer
    assert routed.metrics.counters["get.replica_shed"].value == 1
    # the replica is alive — shed is an *answered* request
    assert routed.detector.is_available(victim)
    assert routed.detector.success_ratio(victim) == 1.0
    assert routed.breaker_for(victim).state == "closed"


def test_write_treats_shed_replica_as_failed_and_succeeds_on_quorum():
    network = SimNetwork(latency_model=fixed_latency(0.0002))
    cluster = make_cluster(n=3, w=2, network=network)
    routed = RoutedStore(cluster, "test", enable_hinted_handoff=False)
    victim = routed.replica_nodes(b"key")[0]
    network.add_server_queue(cluster.node_name(victim),
                             service_time=0.01, capacity=1)
    saturate(network, cluster.node_name(victim), 1)
    routed.put(b"key", Versioned.initial(b"v", 0))   # W=2 of the healthy 2
    assert routed.metrics.counters["put.replica_shed"].value == 1
    assert routed.detector.is_available(victim)
    frontier, _ = routed.get(b"key")
    assert frontier[0].value == b"v"


# -- least-loaded replica selection --------------------------------------


def test_reads_prefer_least_loaded_replicas():
    network = SimNetwork(latency_model=fixed_latency(0.0002))
    cluster = make_cluster(network=network)
    routed = RoutedStore(cluster, "test")
    replicas = routed.replica_nodes(b"key")
    for node_id in replicas:
        network.add_server_queue(cluster.node_name(node_id),
                                 service_time=0.01, capacity=50)
    saturate(network, cluster.node_name(replicas[0]), 10)
    ordered = routed._ordered_by_availability(replicas)
    assert ordered[-1] == replicas[0]     # deepest queue sorts last
    assert set(ordered) == set(replicas)


# -- read repair under bulk pressure -------------------------------------


def test_read_repair_sheds_as_bulk_class():
    cluster = make_cluster(nodes=3, n=3, r=2, w=2)
    routed = RoutedStore(cluster, "test")
    first = Versioned.initial(b"v1", 0)
    routed.put(b"key", first)
    replicas = routed.replica_nodes(b"key")
    cluster.network.failures.crash(cluster.node_name(replicas[2]))
    second = first.next_version(b"v2", 0)
    admission = AdmissionController(cluster.clock, rate=0.001, burst=10.0)
    relaxed = RoutedStore(cluster, "test", enable_hinted_handoff=False,
                          admission=admission)
    relaxed.definition = StoreDefinition("test", 3, 2, 2)
    relaxed.put(b"key", second)
    cluster.network.failures.recover(cluster.node_name(replicas[2]))
    # drain to 2 tokens: live reads admit (floor 0), bulk repair (floor
    # 0.4 * 10 = 4) sheds
    drain_to(admission, 2.0)
    relaxed.definition = StoreDefinition("test", 3, 3, 2)
    frontier, _ = relaxed.get(b"key")
    assert frontier[0].value == b"v2"
    assert relaxed.metrics.counters["read_repair.shed"].value >= 1
    stale = cluster.server_for(replicas[2]).engine("test").get(b"key")
    assert stale[0].value == b"v1"        # repair was shed, not done


# -- hedged reads --------------------------------------------------------


def run_reads(hedged, reads=1200):
    network = SimNetwork(seed=3, latency_model=fixed_latency(0.0008))
    cluster = VoldemortCluster(num_nodes=5, partitions_per_node=4,
                               network=network, seed=3)
    cluster.define_store(StoreDefinition(
        "test", replication_factor=3, required_reads=1, required_writes=1))
    hedge = HedgedCall(min_delay=0.001, fallback_delay=0.01,
                       warmup=20) if hedged else None
    routed = RoutedStore(cluster, "test", hedge=hedge)
    keys = [b"k%03d" % i for i in range(40)]
    for key in keys:
        routed.put(key, Versioned.initial(b"v", 0))
    network.failures.limp(cluster.node_name(0), 20.0)
    latencies = sorted(routed.get(keys[i % len(keys)])[1]
                       for i in range(reads))
    p99 = latencies[int(len(latencies) * 0.99)]
    return p99, routed, hedge


def test_hedged_reads_cut_tail_latency_under_limping_replica():
    unhedged_p99, _, _ = run_reads(hedged=False)
    hedged_p99, routed, hedge = run_reads(hedged=True)
    assert hedge.launched > 0
    assert hedge.backup_wins > 0
    assert routed.metrics.counters["get.hedged"].value == hedge.launched
    assert hedged_p99 * 3 <= unhedged_p99    # the ISSUE acceptance bar
    # EXP-O2, as EXPERIMENTS.md quotes it: a 4.9x cut, every hedge a win
    assert (round(unhedged_p99 * 1e3, 1), round(hedged_p99 * 1e3, 1)) == (32.0, 6.6)
    assert hedge.backup_wins == hedge.launched == 330


def test_hedge_returns_correct_values_and_keeps_detector_clean():
    _, routed, _ = run_reads(hedged=True)
    frontier, _ = routed.get(b"k000")
    assert frontier[0].value == b"v"
    assert routed.detector.nodes_marked_down == 0
