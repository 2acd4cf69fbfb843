"""Broker admission control, producer backpressure, and bulk-class
replication shedding."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    BackpressureError,
    ConfigurationError,
    ServerOverloadedError,
)
from repro.common.overload import PRIORITY_LIVE
from repro.kafka import KafkaCluster, Producer
from repro.kafka.message import Message, MessageSet
from repro.kafka.replication import ReplicatedTopic


@pytest.fixture
def cluster():
    built = KafkaCluster(num_brokers=3, data_root="kafka",
                         clock=SimClock(), partitions_per_topic=2,
                         admission_rate=10.0, admission_burst=10.0)
    yield built
    built.shutdown()


def one_message(payload=b"m"):
    return MessageSet([Message(payload)])


def drain(admission, tokens_left=0.0):
    while admission.bucket.available > tokens_left:
        assert admission.try_admit(PRIORITY_LIVE)


def broker_of(cluster, topic, partition=0):
    return cluster.broker_for(topic, partition)


# -- broker admission -----------------------------------------------------


def test_broker_sheds_produce_when_bucket_drains(cluster):
    cluster.create_topic("activity")
    broker = broker_of(cluster, "activity")
    drain(broker.admission)
    with pytest.raises(ServerOverloadedError) as exc_info:
        broker.produce("activity", 0, one_message())
    assert exc_info.value.retry_after > 0
    cluster.clock.advance(1.0)   # 10 tokens back at rate 10/s
    assert broker.produce("activity", 0, one_message()) >= 0


def test_consumer_fetches_outrank_produces(cluster):
    # 1 token left: below the write floor (0.15 * 10 = 1.5), enough
    # for a live-class fetch
    cluster.create_topic("activity")
    broker = broker_of(cluster, "activity")
    broker.produce("activity", 0, one_message())
    drain(broker.admission, tokens_left=1.0)
    with pytest.raises(ServerOverloadedError):
        broker.produce("activity", 0, one_message())
    assert broker.fetch("activity", 0, 0)   # the read still serves


def test_admission_disabled_by_default():
    cluster = KafkaCluster(num_brokers=1, data_root="plain",
                           clock=SimClock())
    assert cluster.brokers[0].admission is None
    cluster.shutdown()


# -- producer backpressure ------------------------------------------------


def test_producer_max_pending_validation(cluster):
    with pytest.raises(ConfigurationError):
        Producer(cluster, batch_size=10, max_pending=5)


def test_producer_backpressure_when_broker_sheds(cluster):
    cluster.create_topic("activity", partitions=1)
    broker = broker_of(cluster, "activity")
    producer = Producer(cluster, batch_size=4, max_pending=4)
    drain(broker.admission)
    # the flush at batch_size hits the shedding broker: the batch is
    # requeued (nothing dropped) and the shed surfaces
    with pytest.raises(ServerOverloadedError):
        for i in range(4):
            producer.send("activity", b"m%d" % i, key=b"k")
    assert producer.pending == 4
    # the bound now refuses further buffering instead of growing
    with pytest.raises(BackpressureError):
        producer.send("activity", b"overflow", key=b"k")
    assert producer.metrics.counters["produce.backpressure"].value == 1
    # once the broker stops shedding, the parked batch drains
    cluster.clock.advance(1.0)
    producer.flush()
    assert producer.pending == 0
    assert producer.messages_acked == 4


def test_producer_unbounded_without_max_pending(cluster):
    cluster.create_topic("activity", partitions=1)
    broker = broker_of(cluster, "activity")
    producer = Producer(cluster, batch_size=100)
    drain(broker.admission)
    for i in range(50):
        producer.send("activity", b"m%d" % i, key=b"k")
    assert producer.pending == 50    # no bound, no error — by choice


# -- replication under pressure -------------------------------------------


def test_replication_catchup_is_bulk_class(cluster):
    topic = ReplicatedTopic(cluster, "activity", partitions=1,
                            replication_factor=3, min_insync_replicas=1)
    partition = topic.partitions[0]
    leader = cluster.brokers[partition.leader_id]
    topic.produce(0, one_message(b"committed"))
    topic.poll_replication()
    followers = [r for r in partition.replica_ids
                 if r != partition.leader_id]
    synced_end = partition._replicas[followers[0]].log_end_offset

    topic.produce(0, one_message(b"new"))
    # 2 tokens left: below the bulk floor (0.4 * 10 = 4) — catch-up
    # reads shed, the follower stays lagged, and no error surfaces
    drain(leader.admission, tokens_left=2.0)
    topic.poll_replication()
    assert partition._replicas[followers[0]].log_end_offset == synced_end
    # live traffic kept its tokens through the shed
    assert leader.fetch("activity", 0, 0)
    # the next poll after refill completes catch-up
    cluster.clock.advance(1.0)
    topic.poll_replication()
    assert partition._replicas[followers[0]].log_end_offset > synced_end
