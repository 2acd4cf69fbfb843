"""Intra-cluster replication (the paper's §V.D future work):
leader/follower logs, ISR, committed offsets, leader election."""

import json

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    ConfigurationError,
    NodeUnavailableError,
    OffsetOutOfRangeError,
)
from repro.kafka import KafkaCluster
from repro.kafka.message import Message, MessageSet, iter_messages
from repro.kafka.replication import (
    NotEnoughReplicasError,
    ReplicatedTopic,
)


@pytest.fixture
def cluster():
    built = KafkaCluster(num_brokers=3, data_root="kafka",
                         clock=SimClock(), partitions_per_topic=2)
    yield built
    built.shutdown()


@pytest.fixture
def topic(cluster):
    return ReplicatedTopic(cluster, "activity", partitions=2,
                           replication_factor=3, min_insync_replicas=2)


def produce(topic, partition, payloads):
    return topic.produce(partition,
                         MessageSet([Message(p) for p in payloads]))


def fetch_payloads(topic, partition, offset=0):
    out = []
    while True:
        data = topic.fetch(partition, offset)
        if not data:
            return out
        decoded = list(iter_messages(data, offset))
        out.extend(d.message.payload for d in decoded)
        offset = decoded[-1].next_offset


def test_replication_factor_validation(cluster):
    with pytest.raises(ConfigurationError):
        ReplicatedTopic(cluster, "t", 1, replication_factor=4)


def test_messages_invisible_until_replicated(topic):
    produce(topic, 0, [b"m1"])
    # leader has it, but followers have not pulled: committed stays 0
    # only after replication does the consumer see it...
    # (ISR lag is 0-tolerance by default, so followers fell out of ISR
    # at produce time and committed tracks the remaining ISR = leader)
    topic.poll_replication()
    assert fetch_payloads(topic, 0) == [b"m1"]


def test_followers_hold_identical_bytes(topic, cluster):
    produce(topic, 0, [b"a", b"b"])
    produce(topic, 0, [b"c"])
    topic.poll_replication()
    state = topic.partitions[0]
    leader_log = cluster.brokers[state.leader_id].log("activity", 0)
    leader_bytes = leader_log.read(0, 1 << 20)
    for broker_id in state.replica_ids:
        if broker_id == state.leader_id:
            continue
        follower_log = cluster.brokers[broker_id].log("activity", 0)
        assert follower_log.read(0, 1 << 20) == leader_bytes


def test_isr_tracks_lag(topic, cluster):
    state = topic.partitions[0]
    assert state.isr == set(state.replica_ids)
    produce(topic, 0, [b"x"])
    # followers lag until they pull
    state.poll_replication()
    assert state.isr == set(state.replica_ids)
    # kill a follower: it drops out of the ISR on the next poll
    follower = next(b for b in state.replica_ids if b != state.leader_id)
    cluster.brokers[follower].shutdown()
    produce(topic, 0, [b"y"])
    state.poll_replication()
    assert follower not in state.isr


def test_commit_requires_full_isr(topic, cluster):
    state = topic.partitions[0]
    produce(topic, 0, [b"first"])
    topic.poll_replication()
    committed_before = state.committed_offset
    # one follower stops pulling (still alive, so it stays lagging and
    # is dropped from the ISR by the lag rule)
    produce(topic, 0, [b"second"])
    # no replication poll: committed must not advance past ISR coverage
    assert state.committed_offset == committed_before
    with pytest.raises(OffsetOutOfRangeError):
        topic.fetch(0, state.committed_offset + 1)


def test_min_insync_replicas_blocks_writes(topic, cluster):
    state = topic.partitions[0]
    followers = [b for b in state.replica_ids if b != state.leader_id]
    for follower in followers:
        cluster.brokers[follower].shutdown()
    topic.poll_replication()
    assert state.isr == {state.leader_id}
    with pytest.raises(NotEnoughReplicasError):
        produce(topic, 0, [b"unsafe"])


def test_leader_failure_elects_isr_member(topic, cluster):
    produce(topic, 0, [b"durable-1", b"durable-2"])
    topic.poll_replication()
    state = topic.partitions[0]
    old_leader = state.leader_id
    cluster.brokers[old_leader].shutdown()
    with pytest.raises(NodeUnavailableError):
        produce(topic, 0, [b"while-down"])
    moved = topic.handle_failures()
    assert 0 in moved
    assert state.leader_id != old_leader
    assert state.leader_id in state.isr
    # no committed message lost
    assert fetch_payloads(topic, 0) == [b"durable-1", b"durable-2"]
    # and writes continue on the new leader (ISR shrank to 2: ok)
    produce(topic, 0, [b"after-failover"])
    topic.poll_replication()
    assert fetch_payloads(topic, 0)[-1] == b"after-failover"


def test_no_live_isr_member_raises(topic, cluster):
    state = topic.partitions[0]
    for broker_id in state.replica_ids:
        cluster.brokers[broker_id].shutdown()
    with pytest.raises(NotEnoughReplicasError):
        state.handle_failures()


def test_leadership_published_to_zookeeper(topic, cluster):
    session = cluster.zookeeper.connect()
    data, _ = session.get("/replicated-topics/activity/0")
    record = json.loads(data)
    state = topic.partitions[0]
    assert record["leader"] == state.leader_id
    assert set(record["isr"]) == state.isr
    assert record["replicas"] == state.replica_ids
    # failover updates the registry
    cluster.brokers[state.leader_id].shutdown()
    topic.handle_failures()
    data, _ = session.get("/replicated-topics/activity/0")
    assert json.loads(data)["leader"] == state.leader_id


def test_leaders_spread_over_brokers(cluster):
    topic = ReplicatedTopic(cluster, "spread", partitions=6,
                            replication_factor=2)
    leaders = set(topic.leaders().values())
    assert len(leaders) == 3  # round-robin over 3 brokers


def test_recovered_follower_catches_up_and_rejoins_isr(topic, cluster):
    state = topic.partitions[0]
    follower = next(b for b in state.replica_ids if b != state.leader_id)
    cluster.brokers[follower].shutdown()
    produce(topic, 0, [b"while-away-1", b"while-away-2"])
    topic.poll_replication()
    assert follower not in state.isr
    cluster.brokers[follower].register()
    topic.poll_replication()
    assert follower in state.isr
    follower_log = cluster.brokers[follower].log("activity", 0)
    leader_log = cluster.brokers[state.leader_id].log("activity", 0)
    assert follower_log.high_watermark == leader_log.high_watermark


def test_follower_segments_hold_whole_frames_through_failover_and_restart():
    """Regression: a follower copied raw ``max_bytes`` windows, so its
    flush rolled a segment between two halves of a frame.  After
    failover its reads stalled at the split, and after a restart its
    recovery scan (last segment only) truncated committed messages."""
    cluster = KafkaCluster(num_brokers=2, data_root="kafka",
                           clock=SimClock(), partitions_per_topic=1)
    topic = ReplicatedTopic(cluster, "big", partitions=1,
                            replication_factor=2)
    payloads = [bytes([i]) * 600_000 for i in range(3)]
    produce(topic, 0, payloads)
    topic.poll_replication()
    state = topic.partitions[0]
    committed = state.committed_offset
    assert committed == 3 * 600_009
    follower = cluster.brokers[state.replica_ids[1]]
    assert follower.log("big", 0).segment_base_offsets() == \
        [0, 600_009, 1_200_018]

    def served():
        out, offset = [], 0
        while data := topic.fetch(0, offset, max_bytes=1 << 20):
            decoded = list(iter_messages(data, offset))
            assert decoded, f"stalled at {offset}"
            out += [d.message.payload for d in decoded]
            offset = decoded[-1].next_offset
        return out

    cluster.brokers[state.leader_id].shutdown()
    assert topic.handle_failures() == [0]
    assert state.leader_id == follower.broker_id
    assert served() == payloads

    follower.shutdown()
    cluster.disk.crash_node(f"broker-{follower.broker_id}")
    cluster.disk.restart_node(f"broker-{follower.broker_id}")
    follower.restart()
    log = follower.log("big", 0)
    assert log.torn_bytes_truncated == 0
    assert log.high_watermark == committed == state.committed_offset
    assert served() == payloads
