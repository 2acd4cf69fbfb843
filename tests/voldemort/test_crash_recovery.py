"""Node kill + restart: acked keys, vector clocks, and hints survive."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import KeyNotFoundError
from repro.simnet.disk import SimDisk
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
)
from repro.voldemort.engines.logstructured import encode_body
from repro.voldemort.server import Hint


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def disk(clock):
    return SimDisk(clock=clock, seed=3)


@pytest.fixture
def cluster(clock, disk):
    built = VoldemortCluster(num_nodes=4, partitions_per_node=4,
                             clock=clock, disk=disk)
    built.define_store(StoreDefinition("s", replication_factor=3,
                                       required_reads=2, required_writes=2,
                                       engine_type="log-structured"))
    return built


class TestEngineRecovery:
    def test_acked_keys_survive_kill_restart(self, cluster, disk):
        routed = RoutedStore(cluster, "s")
        victim = routed.replica_nodes(b"key-0")[0]
        for i in range(10):
            routed.put(b"key-%d" % i, Versioned.initial(b"value-%d" % i, 0))

        lost = cluster.kill_node(victim)
        assert lost == 0  # every acked write was fsynced
        cluster.restart_node(victim)

        server = cluster.server_for(victim)
        for i in range(10):
            key = b"key-%d" % i
            if victim not in routed.replica_nodes(key):
                continue
            versions = server.engine("s").get(key)
            assert versions[0].value == b"value-%d" % i

    def test_vector_clocks_survive_restart(self, cluster):
        routed = RoutedStore(cluster, "s")
        routed.put(b"k", Versioned.initial(b"v1", 0))
        frontier, _ = routed.get(b"k")
        routed.put(b"k", Versioned(b"v2", frontier[0].clock.incremented(0)))
        victim = routed.replica_nodes(b"k")[0]
        expected_clock = cluster.server_for(victim).engine("s").get(b"k")[0].clock

        cluster.kill_node(victim)
        cluster.restart_node(victim)

        recovered = cluster.server_for(victim).engine("s").get(b"k")
        assert len(recovered) == 1
        assert recovered[0].value == b"v2"
        assert recovered[0].clock.entries == expected_clock.entries

    def test_torn_tail_never_yields_partial_record(self, cluster, disk):
        routed = RoutedStore(cluster, "s")
        routed.put(b"stable", Versioned.initial(b"stable-value", 0))
        victim = routed.replica_nodes(b"stable")[0]
        engine = cluster.server_for(victim).engine("s")
        # bypass the quorum and the engine's fsync: an unsynced record
        engine._log.append(encode_body(b"at-risk",
                                       Versioned.initial(b"gone", 0)))
        disk.arm_torn_write(cluster.node_name(victim),
                            path="s/data.log", keep_bytes=9)
        cluster.kill_node(victim)
        cluster.restart_node(victim)

        recovered = cluster.server_for(victim).engine("s")
        assert recovered.torn_bytes_truncated > 0
        assert recovered.get(b"stable")[0].value == b"stable-value"
        with pytest.raises(KeyNotFoundError):
            recovered.get(b"at-risk")  # lost whole, never partial


class TestSlopStoreRecovery:
    def park_a_hint(self, cluster):
        routed = RoutedStore(cluster, "s")
        dead = routed.replica_nodes(b"key")[2]
        cluster.network.failures.crash(cluster.node_name(dead))
        routed.put(b"key", Versioned.initial(b"v", 0))
        holders = [n for n, s in cluster.servers.items() if s.hints]
        assert holders
        return dead, holders[0]

    def test_outstanding_hints_survive_restart(self, cluster):
        dead, holder = self.park_a_hint(cluster)
        hint_before = cluster.server_for(holder).hints[0]

        cluster.kill_node(holder)
        cluster.restart_node(holder)

        server = cluster.server_for(holder)
        assert len(server.hints) == 1
        recovered = server.hints[0]
        assert isinstance(recovered, Hint)
        assert recovered.store == hint_before.store
        assert recovered.key == hint_before.key
        assert recovered.destination_node == dead
        assert recovered.versioned.value == hint_before.versioned.value
        assert recovered.versioned.clock.entries == \
            hint_before.versioned.clock.entries

    def test_delivered_hints_do_not_resurrect(self, cluster):
        dead, holder = self.park_a_hint(cluster)
        cluster.network.failures.recover(cluster.node_name(dead))
        assert cluster.server_for(holder).deliver_hints(dead) == 1

        cluster.kill_node(holder)
        cluster.restart_node(holder)
        assert cluster.server_for(holder).hints == []

    def test_redelivery_after_restart(self, cluster):
        dead, holder = self.park_a_hint(cluster)
        cluster.kill_node(holder)
        cluster.restart_node(holder)
        cluster.network.failures.recover(cluster.node_name(dead))

        assert cluster.server_for(holder).deliver_hints(dead) == 1
        value = cluster.server_for(dead).engine("s").get(b"key")
        assert value[0].value == b"v"


    def test_slop_wal_is_bounded_by_the_backlog(self, cluster, disk):
        """Store/deliver cycles leave two frames per hint behind; a
        restart compacts the log down to the outstanding hints."""
        dead, holder = self.park_a_hint(cluster)
        server = cluster.server_for(holder)
        parked = server.hints[0]
        for cycle in range(5):
            cluster.network.failures.recover(cluster.node_name(dead))
            assert server.deliver_hints(dead) == 1
            cluster.network.failures.crash(cluster.node_name(dead))
            server.store_hint(Hint(parked.store, b"key-%d" % cycle,
                                   parked.versioned, dead))
        path = f"{cluster.node_name(holder)}/slops.wal"
        grown = disk.getsize(path)

        cluster.kill_node(holder)
        cluster.restart_node(holder)
        server = cluster.server_for(holder)
        assert [h.key for h in server.hints] == [b"key-4"]
        assert server._slop_wal.recovered_frames == 11  # 6 stored + 5 marks
        assert disk.getsize(path) < grown

        cluster.kill_node(holder)
        cluster.restart_node(holder)
        server = cluster.server_for(holder)
        assert [h.key for h in server.hints] == [b"key-4"]
        assert server._slop_wal.recovered_frames == 1  # the backlog, only
        cluster.network.failures.recover(cluster.node_name(dead))
        assert server.deliver_hints(dead) == 1


class TestHintDeliveryRaces:
    def test_hint_stored_during_delivery_survives(self, cluster):
        """A hint queued while the delivery fsync is in flight must be
        carried over, not dropped with the delivered batch."""
        routed = RoutedStore(cluster, "s")
        dead = routed.replica_nodes(b"key")[2]
        cluster.network.failures.crash(cluster.node_name(dead))
        routed.put(b"key", Versioned.initial(b"v", 0))
        holder = next(n for n, s in cluster.servers.items() if s.hints)
        server = cluster.server_for(holder)
        parked = server.hints[0]
        late = Hint(parked.store, b"late-key", parked.versioned, dead)
        cluster.network.failures.recover(cluster.node_name(dead))

        orig_fsync = server._slop_wal.fsync

        def racing_fsync():
            server._slop_wal.fsync = orig_fsync  # race only once
            server.store_hint(late)  # arrives mid-delivery
            orig_fsync()

        server._slop_wal.fsync = racing_fsync
        assert server.deliver_hints(dead) == 1
        assert [h.key for h in server.hints] == [b"late-key"]
        assert len(server.hints) == len(server._hint_seqs)
