"""Brokers and cluster topology."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.kafka import KafkaCluster
from repro.kafka.message import Message, MessageSet


@pytest.fixture
def cluster():
    built = KafkaCluster(num_brokers=3, data_root="kafka",
                         clock=SimClock(), partitions_per_topic=6)
    yield built
    built.shutdown()


def test_topic_partitions_spread_over_brokers(cluster):
    layout = cluster.create_topic("activity")
    assert len(layout) == 6
    brokers_used = {tp.broker_id for tp in layout}
    assert brokers_used == {0, 1, 2}


def test_duplicate_topic_rejected(cluster):
    cluster.create_topic("t")
    with pytest.raises(ConfigurationError):
        cluster.create_topic("t")


@pytest.mark.parametrize("partitions", [0, -2])
def test_a_topic_without_partitions_is_rejected(cluster, partitions):
    """A zero-partition topic used to be created, and its first keyless
    send failed inside the partition draw; 0 also silently meant "the
    default"."""
    with pytest.raises(ConfigurationError):
        cluster.create_topic("empty", partitions=partitions)
    assert "empty" not in cluster.topics()
    assert len(cluster.create_topic("default", partitions=None)) == 6


@pytest.mark.parametrize("partitions_per_topic", [0, -1])
def test_a_cluster_without_default_partitions_is_rejected(
        partitions_per_topic):
    with pytest.raises(ConfigurationError):
        KafkaCluster(num_brokers=1, data_root="kafka", clock=SimClock(),
                     partitions_per_topic=partitions_per_topic)


def test_unknown_topic_rejected(cluster):
    with pytest.raises(ConfigurationError):
        cluster.topic_layout("ghost")


def test_produce_fetch_through_broker(cluster):
    cluster.create_topic("t", partitions=1)
    broker = cluster.broker_for("t", 0)
    broker.produce("t", 0, MessageSet([Message(b"hello")]))
    data = broker.fetch("t", 0, 0)
    assert b"hello" in data
    assert broker.bytes_in > 0
    assert broker.bytes_out > 0


def test_brokers_register_in_zookeeper(cluster):
    session = cluster.zookeeper.connect()
    assert session.get_children("/brokers/ids") == ["0", "1", "2"]
    cluster.create_topic("t", partitions=3)
    assert len(session.get_children("/brokers/topics/t")) == 3


def test_broker_shutdown_removes_registration(cluster):
    session = cluster.zookeeper.connect()
    cluster.brokers[1].shutdown()
    assert session.get_children("/brokers/ids") == ["0", "2"]


def test_broker_does_not_host_other_partitions(cluster):
    cluster.create_topic("t", partitions=3)
    hosting = cluster.broker_for("t", 0)
    other = next(b for b in cluster.brokers.values() if b is not hosting)
    with pytest.raises(ConfigurationError):
        other.fetch("t", 0, 0)


def test_cluster_retention_sweep():
    clock = SimClock()
    cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                           clock=clock, segment_bytes=100)
    cluster.create_topic("t", partitions=1)
    broker = cluster.broker_for("t", 0)
    for _ in range(10):
        broker.produce("t", 0, MessageSet([Message(bytes(40))]))
    clock.advance(100.0)
    assert cluster.run_retention(retention_seconds=10.0) > 0
    cluster.shutdown()


def test_create_partition_detects_concurrent_winner(cluster):
    """A second create landing while the first recovers its log from
    disk must make the loser close its log and fail, not silently
    replace the registered winner."""
    broker = next(iter(cluster.brokers.values()))
    orig_make = broker._make_log
    winner = {}

    def racing_make(directory):
        log = orig_make(directory)
        # a concurrent create_partition wins while this log recovers
        broker._make_log = orig_make
        winner["log"] = orig_make("winner")
        broker._logs[("races", 0)] = winner["log"]
        return log

    broker._make_log = racing_make
    with pytest.raises(ConfigurationError):
        broker.create_partition("races", 0)
    assert broker._logs[("races", 0)] is winner["log"]
