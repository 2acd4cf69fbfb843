"""Server-side routing (Figure II.1 pluggability) and batched get_all."""

import pytest

from repro.common.errors import (
    InsufficientOperationalNodesError,
    NodeUnavailableError,
    UnsupportedTypeError,
)
from repro.common.vectorclock import VectorClock
from repro.simnet import SimNetwork, lognormal_latency
from repro.voldemort import (
    FailureDetector,
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
    routing,
)
from repro.voldemort.engines import InMemoryStorageEngine
from repro.voldemort.server_routing import ServerSideRoutedStore


@pytest.fixture
def cluster():
    built = VoldemortCluster(num_nodes=4, partitions_per_node=4)
    built.define_store(StoreDefinition("s", 3, 2, 2))
    return built


class TestServerSideRouting:
    def test_roundtrip_through_coordinator(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        thin.put(b"k", Versioned.initial(b"v", 0))
        frontier, latency = thin.get(b"k")
        assert frontier[0].value == b"v"
        assert latency > 0

    def test_same_data_visible_to_client_side_router(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        fat = RoutedStore(cluster, "s")
        thin.put(b"k", Versioned.initial(b"v", 0))
        assert fat.get(b"k")[0][0].value == b"v"
        fat.put(b"k2", Versioned.initial(b"v2", 0))
        assert thin.get(b"k2")[0][0].value == b"v2"

    def test_coordinators_rotate(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        served_before = {n: s.requests_served
                         for n, s in cluster.servers.items()}
        thin.put(b"k", Versioned.initial(b"v", 0))
        for _ in range(8):
            thin.get(b"k")
        touched = sum(1 for n, s in cluster.servers.items()
                      if s.requests_served > served_before[n])
        assert touched >= 3  # load spread over coordinators

    def test_extra_hop_costs_latency(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        fat = RoutedStore(cluster, "s")
        fat.put(b"k", Versioned.initial(b"v", 0))
        _, fat_latency = fat.get(b"k")
        _, thin_latency = thin.get(b"k")
        assert thin_latency > fat_latency  # client->coordinator hop

    def test_exp_v4b_thin_client_pays_one_coordinator_round_trip(self):
        network = SimNetwork(seed=4,
                             latency_model=lognormal_latency(0.0009, 0.4))
        cluster = VoldemortCluster(num_nodes=5, partitions_per_node=4,
                                   network=network)
        cluster.define_store(StoreDefinition("s", 3, 2, 2))
        fat, thin = RoutedStore(cluster, "s"), ServerSideRoutedStore(cluster, "s")
        keys = [b"k-%04d" % i for i in range(300)]
        for key in keys:
            fat.put(key, Versioned.initial(b"v" * 64, 0))
        for key in keys:
            fat.get(key)
            thin.get(key)
        fat_ms, thin_ms = (store.metrics.histogram("get").summary()["mean"] * 1e3
                           for store in (fat, thin))
        assert (round(fat_ms, 2), round(thin_ms, 2)) == (2.39, 4.36)
        assert round(thin_ms - fat_ms, 2) == 1.97   # two ~1 ms hops

    def test_skips_crashed_coordinator(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        thin.put(b"k", Versioned.initial(b"v", 0))
        cluster.network.failures.crash(cluster.node_name(0))
        for _ in range(6):  # rotation passes node 0 and skips it
            frontier, _ = thin.get(b"k")
            assert frontier

    def test_all_coordinators_down(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        for node_id in cluster.ring.nodes:
            cluster.network.failures.crash(cluster.node_name(node_id))
        with pytest.raises(NodeUnavailableError):
            thin.get(b"k")

    def test_delete_through_coordinator(self, cluster):
        thin = ServerSideRoutedStore(cluster, "s")
        first = Versioned.initial(b"v", 0)
        thin.put(b"k", first)
        thin.delete(b"k", first.next_version(None, 0))
        from repro.common.errors import KeyNotFoundError
        with pytest.raises(KeyNotFoundError):
            thin.get(b"k")


class TestGetAll:
    def test_batch_returns_all_present_keys(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(30)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v:" + key, 0))
        found, latency = routed.get_all(keys + [b"missing-1", b"missing-2"])
        assert set(found) == set(keys)
        for key in keys:
            assert found[key][0].value == b"v:" + key
        assert latency > 0

    def test_batch_uses_fewer_requests_than_loop(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(40)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v", 0))
        hops_before = cluster.network.hops_delivered
        routed.get_all(keys)
        batch_hops = cluster.network.hops_delivered - hops_before
        hops_before = cluster.network.hops_delivered
        for key in keys:
            routed.get(key)
        loop_hops = cluster.network.hops_delivered - hops_before
        assert batch_hops <= len(cluster.ring.nodes)
        assert loop_hops >= len(keys)

    def test_batch_respects_read_quorum(self, cluster):
        routed = RoutedStore(cluster, "s", enable_hinted_handoff=False)
        key = b"quorum-key"
        routed.put(key, Versioned.initial(b"v", 0))
        replicas = routed.replica_nodes(key)
        for node_id in replicas[:2]:
            cluster.network.failures.crash(cluster.node_name(node_id))
        with pytest.raises(InsufficientOperationalNodesError):
            routed.get_all([key])

    def test_duplicate_key_does_not_fake_a_quorum(self, cluster):
        """One live replica answering for both copies of a repeated key
        is still one replica."""
        routed = RoutedStore(cluster, "s", enable_hinted_handoff=False)
        key = b"quorum-key"
        routed.put(key, Versioned.initial(b"v", 0))
        for node_id in routed.replica_nodes(key)[1:]:
            cluster.network.failures.crash(cluster.node_name(node_id))
        with pytest.raises(InsufficientOperationalNodesError):
            routed.get_all([key])
        with pytest.raises(InsufficientOperationalNodesError):
            routed.get_all([key, key])

    def test_batch_survives_one_replica_down(self, cluster):
        """The detector has not noticed the crash yet: the keys the dead
        node leaves short fall over to their next replica, as ``get``
        does, in one more batched round."""
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(10)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v:" + key, 0))
        crashed = routed.replica_nodes(keys[0])[0]
        cluster.network.failures.crash(cluster.node_name(crashed))
        assert routed.detector.is_available(crashed)
        found, latency = routed.get_all(keys)
        assert {k: [v.value for v in vs] for k, vs in found.items()} == \
            {key: [b"v:" + key] for key in keys}
        assert routed.metrics.counter("get_all.fallback_rounds").value == 1
        assert routed.metrics.counter("get_all.node_failures").value == 1
        assert latency > 0

    def test_fallback_round_only_asks_for_the_short_keys(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(30)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v", 0))
        crashed = routed.replica_nodes(keys[0])[0]
        short = {key for key in keys
                 if crashed in routed.replica_nodes(key)[:2]}
        assert short and short != set(keys)
        cluster.network.failures.crash(cluster.node_name(crashed))
        asked: list[bytes] = []
        for server in cluster.servers.values():
            original = server.get_batch
            server.get_batch = lambda store, batch, original=original: (
                asked.extend(batch), original(store, batch))[1]
        found, _ = routed.get_all(keys)
        assert set(found) == set(keys)
        # every key is served by exactly two live replicas: a short key
        # by its surviving first choice and its fallback, the rest by
        # their first two — the fallback round re-asks nobody else
        assert all(asked.count(key) == 2 for key in keys)
        assert len(asked) == 2 * len(keys)

    def test_healthy_batch_takes_no_extra_round(self, cluster):
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(40)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v", 0))
        network = cluster.network
        before = network.hops_delivered + network.hops_failed
        routed.get_all(keys)
        assert network.hops_delivered + network.hops_failed - before \
            <= len(cluster.ring.nodes)
        assert routed.metrics.counter("get_all.fallback_rounds").value == 0

    def test_plan_is_per_partition_not_per_key(self, monkeypatch):
        """Count guard, no timing, flat in the batch width: a healthy
        batch ranks each node once, makes one engine batch read per
        contacted node and no per-key ``get``, and, with replicas in
        agreement, compares no clocks and folds no frontier.  Only keys
        whose replies differ are folded: one ``frontier_of`` each."""
        calls = {"is_available": 0, "compare": 0, "get": 0,
                 "frontier_of": 0}
        batch_reads: list[InMemoryStorageEngine] = []

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        def recording_get_many(engine, keys):
            batch_reads.append(engine)
            return original_get_many(engine, keys)

        original_get_many = InMemoryStorageEngine.get_many
        monkeypatch.setattr(FailureDetector, "is_available", counting(
            "is_available", FailureDetector.is_available))
        monkeypatch.setattr(VectorClock, "compare", counting(
            "compare", VectorClock.compare))
        monkeypatch.setattr(InMemoryStorageEngine, "get", counting(
            "get", InMemoryStorageEngine.get))
        monkeypatch.setattr(routing, "frontier_of", counting(
            "frontier_of", routing.frontier_of))
        monkeypatch.setattr(InMemoryStorageEngine, "get_many",
                            recording_get_many)
        for width, planted in ((50, 0), (100, 0), (200, 0), (100, 3)):
            cluster = VoldemortCluster(num_nodes=6, partitions_per_node=8)
            cluster.define_store(StoreDefinition("s", 3, 2, 2))
            routed = RoutedStore(cluster, "s")
            keys = [b"member:%d" % i for i in range(width)]
            for key in keys:
                routed.put(key, Versioned.initial(b"v", 0))
            for key in keys[:planted]:   # a concurrent sibling everywhere
                routed.put(key, Versioned(b"w", VectorClock({1: 1})))
            for name in calls:
                calls[name] = 0
            batch_reads.clear()
            hops = cluster.network.hops_delivered
            found, _ = routed.get_all(keys)
            assert len(found) == width
            assert sum(len(found[key]) > 1 for key in keys) == planted
            contacted = cluster.network.hops_delivered - hops
            assert len(batch_reads) == len(set(map(id, batch_reads))) \
                == contacted <= len(cluster.ring.nodes), width
            assert calls["get"] == 0, width
            assert calls["is_available"] <= len(cluster.ring.nodes), width
            assert calls["frontier_of"] == planted, width
            if not planted:
                assert calls["compare"] == 0, width

    def test_a_caller_cannot_change_what_the_engine_holds(self, cluster):
        """Aliasing guard: ``get_all`` may hand out a version sequence
        the memory engine stores, so that sequence must be immutable;
        every list a read returns is the caller's own."""
        routed = RoutedStore(cluster, "s")
        keys = [b"key-%d" % i for i in range(20)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v:" + key, 0))
        routed.put(keys[0], Versioned(b"sibling", VectorClock({1: 1})))
        junk = Versioned(b"junk", VectorClock({7: 7}))

        def engine_view():
            return {node: {key: server.engine("s").get_many([key]).get(key)
                           for key in keys}
                    for node, server in cluster.servers.items()}

        before = engine_view()
        found, _ = routed.get_all(keys)
        for versions in found.values():
            if isinstance(versions, list):
                versions.append(junk)
            else:
                assert isinstance(versions, tuple)
        for key in keys[:3]:
            frontier, _ = routed.get(key)
            frontier.append(junk)
            frontier.clear()
        again, _ = routed.get_all(keys)
        assert engine_view() == before
        assert {key: list(versions) for key, versions in again.items()} == \
            {key: [v for v in versions if v is not junk]
             for key, versions in found.items()}
        assert routed.get(keys[0])[0] == \
            [Versioned(b"v:" + keys[0], VectorClock({0: 1})),
             Versioned(b"sibling", VectorClock({1: 1}))]

    def test_non_bytes_key_is_rejected(self, cluster):
        routed = RoutedStore(cluster, "s")
        with pytest.raises(UnsupportedTypeError):
            routed.get_all(["str-key"])
        with pytest.raises(UnsupportedTypeError):
            routed.get_all([b"fine", "str-key"])

    def test_quorum_miss_counts_short_keys_and_the_lowest_count(self, cluster):
        """The error names how many *keys* fell short, even though the
        count is kept per partition, and ``achieved`` is the lowest
        per-key count."""
        routed = RoutedStore(cluster, "s", enable_hinted_handoff=False)
        keys = [b"key-%d" % i for i in range(30)]
        for key in keys:
            routed.put(key, Versioned.initial(b"v", 0))
        down = routed.replica_nodes(keys[0])[:2]
        for node_id in down:
            cluster.network.failures.crash(cluster.node_name(node_id))
        live_replicas = {key: sum(n not in down
                                  for n in routed.replica_nodes(key))
                         for key in keys}
        short = [key for key in keys if live_replicas[key] < 2]
        assert 0 < len(short) < len(keys)
        with pytest.raises(InsufficientOperationalNodesError) as raised:
            routed.get_all(keys + short[:2])     # repeats count once
        assert str(raised.value).startswith(f"{len(short)} keys reached")
        assert raised.value.required == 2
        assert raised.value.achieved == min(live_replicas[k] for k in short)

    def test_empty_batch(self, cluster):
        routed = RoutedStore(cluster, "s")
        found, latency = routed.get_all([])
        assert found == {}
        assert latency == 0.0
