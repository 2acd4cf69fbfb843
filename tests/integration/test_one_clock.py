"""One clock per simulation.

A top-level object built on a network or a disk runs on that clock, and
so does everything it builds: brokers and partition logs, storage
nodes, stream tasks, the routed store's failure detector.  A clock
keyword that disagrees with the network's or the disk's raises instead
of splitting the simulation in two.  The day-in-the-life world's case
is ``tests/workloads/test_day_in_the_life.py``.
"""

import pytest

from repro.audit.wiring import cutover_check
from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.databus import DatabusClient, Relay
from repro.espresso import EspressoCluster, EspressoStorageNode
from repro.kafka import KafkaCluster
from repro.migration import MigrationStack
from repro.simnet import FaultPlan, SimDisk, SimNetwork
from repro.sqlstore import SqlDatabase
from repro.streams import JobCoordinator, StreamContainer
from repro.streams.apps import who_viewed_your_profile_job
from repro.voldemort import RoutedStore, StoreDefinition, VoldemortCluster
from repro.zookeeper import ZooKeeperServer

from tests.espresso.conftest import MUSIC
from tests.migration.conftest import make_source


def routed_voldemort(cluster):
    cluster.define_store(StoreDefinition("s", 2, 1, 1))
    routed = RoutedStore(cluster, "s")
    return [cluster, cluster.network, routed.detector]


def voldemort_on_a_network(clock):
    return routed_voldemort(VoldemortCluster(
        num_nodes=3, partitions_per_node=2,
        network=SimNetwork(clock=clock)))


def voldemort_on_a_disk(clock):
    return routed_voldemort(VoldemortCluster(
        num_nodes=3, partitions_per_node=2, disk=SimDisk(clock=clock)))


def kafka_on_a_disk(clock):
    cluster = KafkaCluster(2, "/kafka", disk=SimDisk(clock=clock))
    cluster.create_topic("t", partitions=2)
    brokers = list(cluster.brokers.values())
    logs = [broker.log(*tp) for broker in brokers
            for tp in broker.partitions()]
    assert len(logs) == 2
    return [cluster, *brokers, *logs]


def espresso_on_a_disk(clock):
    cluster = EspressoCluster(MUSIC, num_nodes=3, disk=SimDisk(clock=clock))
    return [cluster, *cluster.nodes.values()]


def stream_container_on_a_cluster(clock):
    disk = SimDisk(clock=clock)
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(1, "/kafka", zookeeper=zookeeper, disk=disk,
                           partitions_per_topic=1)
    cluster.create_topic("profile-views", partitions=1)
    spec = who_viewed_your_profile_job(1, window_s=60.0)
    container = StreamContainer("c0", spec, cluster, zookeeper, clock,
                                disk.scope("c0"), "/state")
    JobCoordinator(spec, cluster, zookeeper).deploy([container])
    assert container.tasks
    return [cluster, container, *container.tasks.values()]


def fault_plan_on_a_disk(clock):
    plan = FaultPlan(SimDisk(clock=clock), network=SimNetwork(clock=clock))
    return [plan]


def migration_stack_on_a_source(clock):
    stack = MigrationStack.build(make_source(clock, profiles=4, inmails=1),
                                 SimDisk(clock=clock).scope("c"), clock,
                                 cutover_check=cutover_check)
    return [stack.cluster, *stack.cluster.nodes.values(), stack.client,
            stack.coordinator]


@pytest.mark.parametrize("build", [
    voldemort_on_a_network, voldemort_on_a_disk, kafka_on_a_disk,
    espresso_on_a_disk, stream_container_on_a_cluster,
    fault_plan_on_a_disk, migration_stack_on_a_source,
], ids=lambda build: build.__name__)
def test_everything_a_top_level_object_builds_shares_its_clock(build):
    clock = SimClock()
    for component in build(clock):
        assert component.clock is clock, type(component).__name__


@pytest.mark.parametrize("build", [
    lambda: KafkaCluster(1, "/kafka"),
    lambda: VoldemortCluster(num_nodes=3, partitions_per_node=2),
    lambda: EspressoCluster(MUSIC, num_nodes=3),
], ids=["kafka", "voldemort", "espresso"])
def test_a_cluster_built_on_nothing_owns_a_disk_on_its_clock(build):
    cluster = build()
    assert isinstance(cluster.disk, SimDisk)
    assert cluster.disk.clock is cluster.clock


def on(clock, odd_one, name):
    """``clock``, or a clock of its own for the part named ``odd_one``."""
    return SimClock() if name == odd_one else clock


def stream_container(odd_one):
    clock = SimClock()
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(1, "/kafka", zookeeper=zookeeper,
                           disk=SimDisk(clock=on(clock, odd_one, "cluster")))
    StreamContainer("c0", who_viewed_your_profile_job(1, window_s=60.0),
                    cluster, zookeeper, clock,
                    SimDisk(clock=on(clock, odd_one, "disk")).scope("c0"),
                    "/state")


def migration_stack(odd_one):
    clock = SimClock()
    MigrationStack.build(
        SqlDatabase("members", clock=on(clock, odd_one, "source")),
        SimDisk(clock=on(clock, odd_one, "disk")).scope("c"), clock,
        cutover_check=cutover_check)


@pytest.mark.parametrize("build", [
    lambda: VoldemortCluster(network=SimNetwork(), disk=SimDisk()),
    lambda: VoldemortCluster(clock=SimClock(), network=SimNetwork()),
    lambda: VoldemortCluster(clock=SimClock(), disk=SimDisk()),
    lambda: KafkaCluster(1, "/kafka", clock=SimClock(), disk=SimDisk()),
    lambda: EspressoCluster(MUSIC, clock=SimClock(), disk=SimDisk()),
    lambda: EspressoStorageNode("n0", MUSIC, None, Relay(), clock=SimClock(),
                                disk=SimDisk().scope("n0")),
    lambda: DatabusClient(None, Relay(), clock=SimClock(),
                          network=SimNetwork()),
    lambda: FaultPlan(SimDisk(), network=SimNetwork()),
    lambda: stream_container(odd_one="cluster"),
    lambda: stream_container(odd_one="disk"),
    lambda: migration_stack(odd_one="source"),
    lambda: migration_stack(odd_one="disk"),
], ids=["voldemort-network-disk", "voldemort-clock-network",
        "voldemort-clock-disk", "kafka-clock-disk", "espresso-clock-disk",
        "storage-node-clock-disk", "databus-clock-network",
        "fault-plan-disk-network", "container-clock-cluster",
        "container-clock-disk", "migration-clock-source",
        "migration-clock-disk"])
def test_a_mismatched_pair_of_clocks_raises(build):
    with pytest.raises(ConfigurationError, match="different clock"):
        build()
