"""Slop pusher scheduling and the read-only update stream."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.hadoop import MiniHDFS
from repro.simnet import SimDisk
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
)
from repro.voldemort.readonly_pipeline import ReadOnlyPipelineController
from repro.voldemort.slop import SlopPusherService


class TestSlopPusher:
    @pytest.fixture
    def cluster(self):
        built = VoldemortCluster(num_nodes=4, partitions_per_node=4)
        built.define_store(StoreDefinition("s", 3, 2, 2))
        return built

    def park_a_hint(self, cluster):
        routed = RoutedStore(cluster, "s")
        dead = routed.replica_nodes(b"key")[2]
        cluster.network.failures.crash(cluster.node_name(dead))
        routed.put(b"key", Versioned.initial(b"v", 0))
        return dead

    def test_interval_validation(self, cluster):
        with pytest.raises(ConfigurationError):
            SlopPusherService(cluster, interval=0)

    def test_sweeps_run_on_schedule(self, cluster):
        pusher = SlopPusherService(cluster, interval=5.0)
        pusher.start()
        cluster.clock.advance(26.0)
        assert pusher.sweeps == 5
        pusher.stop()
        cluster.clock.advance(20.0)
        assert pusher.sweeps == 5

    def test_hints_delivered_after_recovery(self, cluster):
        dead = self.park_a_hint(cluster)
        pusher = SlopPusherService(cluster, interval=5.0)
        pusher.start()
        assert pusher.outstanding_hints() == 1
        cluster.clock.advance(6.0)  # destination still down
        assert pusher.outstanding_hints() == 1
        cluster.network.failures.recover(cluster.node_name(dead))
        cluster.clock.advance(5.0)
        assert pusher.outstanding_hints() == 0
        assert pusher.hints_delivered == 1
        value = cluster.server_for(dead).engine("s").get(b"key")
        assert value[0].value == b"v"

    def test_push_once_is_idempotent(self, cluster):
        dead = self.park_a_hint(cluster)
        pusher = SlopPusherService(cluster)
        cluster.network.failures.recover(cluster.node_name(dead))
        assert pusher.push_once() == 1
        assert pusher.push_once() == 0


class TestUpdateStream:
    @pytest.fixture
    def controller(self):
        cluster = VoldemortCluster(num_nodes=2, partitions_per_node=4,
                                   disk=SimDisk())
        cluster.define_store(StoreDefinition(
            "pymk", 2, 1, 1, engine_type="read-only"))
        return ReadOnlyPipelineController(cluster, MiniHDFS(), "pymk")

    def test_first_swap_reports_all_keys_added(self, controller):
        events = []
        controller.subscribe(events.append)
        controller.run_cycle([(b"a", b"1"), (b"b", b"2")])
        assert len(events) == 1
        event = events[0]
        assert event.version == 1
        assert event.previous_version is None
        assert event.keys_added == {b"a", b"b"}
        assert not event.keys_removed and not event.keys_changed

    def test_incremental_swap_reports_delta(self, controller):
        events = []
        controller.subscribe(events.append)
        controller.run_cycle([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        controller.run_cycle([(b"a", b"1"), (b"b", b"CHANGED"),
                              (b"d", b"4")])
        event = events[-1]
        assert event.previous_version == 1
        assert event.keys_added == {b"d"}
        assert event.keys_removed == {b"c"}
        assert event.keys_changed == {b"b"}
        assert event.total_delta == 3

    def test_rollback_event_inverts_delta(self, controller):
        events = []
        controller.subscribe(events.append)
        controller.run_cycle([(b"a", b"1")])
        controller.run_cycle([(b"a", b"2"), (b"b", b"1")])
        controller.rollback()
        event = events[-1]
        assert event.is_rollback
        assert event.version == 1
        assert event.keys_removed == {b"b"}
        assert event.keys_changed == {b"a"}

    def test_cache_invalidation_consumer(self, controller):
        """The motivating consumer: a cache that invalidates only the
        delta instead of flushing on every deployment."""
        cache = {b"a": "cached-a", b"b": "cached-b", b"c": "cached-c"}

        def invalidate(event):
            for key in event.keys_changed | event.keys_removed:
                cache.pop(key, None)

        controller.subscribe(invalidate)
        controller.run_cycle([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        controller.run_cycle([(b"a", b"1"), (b"b", b"new"), (b"c", b"3")])
        assert cache == {b"a": "cached-a", b"c": "cached-c"}
