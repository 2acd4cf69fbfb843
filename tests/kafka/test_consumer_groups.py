"""Consumer groups: ZK coordination, rebalancing, delivery models."""

import pytest

from repro.common.clock import SimClock
from repro.kafka import KafkaCluster, Producer
from repro.kafka.consumer import BrokerAckTracker, ConsumerGroupMember


@pytest.fixture
def cluster():
    built = KafkaCluster(num_brokers=2, data_root="kafka",
                         clock=SimClock(), partitions_per_topic=8)
    built.create_topic("activity")
    yield built
    built.shutdown()


def produce(cluster, count, prefix="e"):
    producer = Producer(cluster, batch_size=10, seed=11)
    for i in range(count):
        producer.send("activity", f"{prefix}{i}".encode())
    producer.flush()


def drain(member, rounds=10):
    got = []
    for _ in range(rounds):
        batch = member.poll()
        if not batch:
            break
        got.extend(m.payload for m in batch)
    return got


def test_single_member_gets_all_partitions(cluster):
    member = ConsumerGroupMember(cluster, "g1", "c1", ["activity"])
    assignments = member.rebalance()
    assert len(assignments) == 8
    produce(cluster, 40)
    assert len(drain(member)) == 40
    member.close()


def test_group_divides_partitions_without_overlap(cluster):
    a = ConsumerGroupMember(cluster, "g1", "c-a", ["activity"])
    b = ConsumerGroupMember(cluster, "g1", "c-b", ["activity"])
    a.poll()
    b.poll()
    set_a = set(a.stream.assignments)
    set_b = set(b.stream.assignments)
    assert not set_a & set_b
    assert len(set_a | set_b) == 8
    a.close()
    b.close()


def test_point_to_point_each_message_once(cluster):
    a = ConsumerGroupMember(cluster, "g1", "c-a", ["activity"])
    b = ConsumerGroupMember(cluster, "g1", "c-b", ["activity"])
    a.poll()
    b.poll()
    produce(cluster, 80)
    got_a = drain(a)
    got_b = drain(b)
    assert len(got_a) + len(got_b) == 80
    assert not set(got_a) & set(got_b)
    assert got_a and got_b  # both did work
    a.close()
    b.close()


def test_pub_sub_each_group_gets_full_copy(cluster):
    produce(cluster, 30)
    g1 = ConsumerGroupMember(cluster, "g1", "c1", ["activity"])
    g2 = ConsumerGroupMember(cluster, "g2", "c1", ["activity"])
    assert len(drain(g1)) == 30
    assert len(drain(g2)) == 30
    g1.close()
    g2.close()


def test_member_join_triggers_rebalance(cluster):
    a = ConsumerGroupMember(cluster, "g1", "c-a", ["activity"])
    a.poll()
    assert len(a.stream.assignments) == 8
    b = ConsumerGroupMember(cluster, "g1", "c-b", ["activity"])
    # a's watch fired; next polls shuffle ownership (a releases first)
    a.poll()
    b.poll()
    a.poll()
    assert len(a.stream.assignments) == 4
    assert len(b.stream.assignments) == 4
    a.close()
    b.close()


def test_member_departure_triggers_takeover(cluster):
    a = ConsumerGroupMember(cluster, "g1", "c-a", ["activity"])
    b = ConsumerGroupMember(cluster, "g1", "c-b", ["activity"])
    a.poll()
    b.poll()
    b.close()
    produce(cluster, 40)
    got = drain(a)
    assert len(a.stream.assignments) == 8
    assert len(got) == 40
    a.close()


def test_offsets_survive_member_restart(cluster):
    produce(cluster, 30)
    member = ConsumerGroupMember(cluster, "g1", "c1", ["activity"])
    assert len(drain(member)) == 30
    member.close(commit=True)
    produce(cluster, 10, prefix="late")
    restarted = ConsumerGroupMember(cluster, "g1", "c1", ["activity"])
    got = drain(restarted)
    assert len(got) == 10  # only the new messages
    assert all(p.startswith(b"late") for p in got)
    restarted.close()


def test_no_coordination_across_groups(cluster):
    """Different groups never contend for ownership znodes."""
    a = ConsumerGroupMember(cluster, "g1", "c1", ["activity"])
    b = ConsumerGroupMember(cluster, "g2", "c1", ["activity"])
    a.poll()
    b.poll()
    assert len(a.stream.assignments) == 8
    assert len(b.stream.assignments) == 8
    a.close()
    b.close()


def test_over_partitioning_limits_idle_consumers(cluster):
    """More partitions than consumers => every consumer works; more
    consumers than partitions => some idle (§V.C load balancing)."""
    members = [ConsumerGroupMember(cluster, "g1", f"c{i}", ["activity"])
               for i in range(3)]
    for _ in range(4):
        for member in members:
            member.poll()
    sizes = sorted(len(m.stream.assignments) for m in members)
    assert sizes == [2, 3, 3]
    for member in members:
        member.close()


def test_broker_ack_tracker_ablation():
    """Broker-held state grows with messages; consumer-held offsets
    are one integer per (consumer, partition)."""
    tracker = BrokerAckTracker()
    for offset in range(1000):
        tracker.deliver("c1", "t", 0, offset)
    assert tracker.total_state_entries() == 1000
    for offset in range(0, 1000, 2):
        tracker.acknowledge("c1", "t", 0, offset)
    assert tracker.outstanding("c1", "t", 0) == 500
    # the Kafka equivalent is a single integer — compare entry counts
    kafka_equivalent_entries = 1
    assert tracker.total_state_entries() > 100 * kafka_equivalent_entries


def test_a_frame_larger_than_the_fetch_window_is_delivered(cluster):
    """Regression: a fetch window smaller than the next frame returned
    only a cut of it, so the member stopped there for good."""
    payloads = [b"a" * 10, b"b" * 5_000, b"c" * 10]
    Producer(cluster).send_set("activity", payloads, key=b"one-partition")
    member = ConsumerGroupMember(cluster, "g1", "c1", ["activity"],
                                 fetch_max_bytes=1_000)
    assert drain(member) == payloads
    assert member.stream.lag() == 0
    member.close()
