"""Producer batching/partitioning and SimpleConsumer/MessageStream."""

import random

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError, OffsetOutOfRangeError
from repro.kafka import KafkaCluster, MessageStream, Producer, SimpleConsumer
from repro.kafka.consumer import FetchedMessage


@pytest.fixture
def cluster():
    built = KafkaCluster(num_brokers=2, data_root="kafka",
                         clock=SimClock(), partitions_per_topic=4)
    built.create_topic("activity")
    yield built
    built.shutdown()


def all_payloads(cluster, topic):
    consumer = SimpleConsumer(cluster)
    out = []
    for tp in cluster.topic_layout(topic):
        offset = 0
        while True:
            batch = list(consumer.fetch(topic, tp.partition, offset))
            if not batch:
                break
            out.extend(payload for payload, _ in batch)
            offset = batch[-1][1]
    return out


def test_produce_consume_roundtrip(cluster):
    producer = Producer(cluster, batch_size=10)
    sent = [f"event-{i}".encode() for i in range(100)]
    for payload in sent:
        producer.send("activity", payload)
    producer.flush()
    assert sorted(all_payloads(cluster, "activity")) == sorted(sent)


def test_batching_reduces_publish_requests(cluster):
    small = Producer(cluster, batch_size=1, seed=1)
    for i in range(50):
        small.send("activity", b"x")
    small.flush()
    big = Producer(cluster, batch_size=50, seed=1)
    for i in range(50):
        big.send("activity", b"x")
    big.flush()
    assert big.publish_requests < small.publish_requests


def test_key_hash_partitioning_is_sticky(cluster):
    producer = Producer(cluster)
    partitions = {producer._choose_partition("activity", b"member-42")
                  for _ in range(20)}
    assert len(partitions) == 1


def test_random_partitioning_spreads(cluster):
    producer = Producer(cluster, seed=3)
    partitions = {producer._choose_partition("activity", None)
                  for _ in range(200)}
    assert len(partitions) == 4


@pytest.mark.parametrize("count", [1, 2, 3, 6, 7, 8, 64])
def test_keyless_sends_land_where_randrange_puts_them(count):
    """The producer draws a keyless partition with getrandbits itself,
    skipping randrange's argument checks; every message must still land
    on the partition ``random.Random(seed).randrange(count)`` names, in
    sequence, publishes and all.  An interpreter whose randrange draws
    differently fails here, not in a benchmark's shifted latencies."""
    sends = 10_000
    for seed in range(3):
        cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                               clock=SimClock(), partitions_per_topic=count,
                               flush_interval_messages=1000)
        cluster.create_topic("t")
        producer = Producer(cluster, batch_size=64, seed=seed)
        for seq in range(sends):
            producer.send("t", b"%d" % seq)
        producer.flush()
        cluster.flush_all()
        assert producer.publish_requests > sends // 64
        landed = [None] * sends
        for partition in range(count):
            stream = MessageStream(SimpleConsumer(cluster),
                                   [("t", partition)], {("t", partition): 0})
            for fetched in stream:
                landed[int(fetched.payload)] = partition
        reference = random.Random(seed)
        assert landed == [reference.randrange(count) for _ in range(sends)]
        cluster.shutdown()


def reference_poll(stream, max_messages):
    """``MessageStream.poll`` as it was while it measured ``len(out)``
    per message: the model the countdown loop must match."""
    out = []
    for topic, partition in stream.assignments:
        if len(out) >= max_messages:
            break
        offset = stream.offsets[(topic, partition)]
        try:
            span = stream._consumer.fetch(topic, partition, offset)
        except OffsetOutOfRangeError:
            offset = stream._consumer.earliest_offset(topic, partition)
            stream.offsets[(topic, partition)] = offset
            span = stream._consumer.fetch(topic, partition, offset)
        consumed_to = None
        for payload, next_offset in span:
            if next_offset != consumed_to and len(out) >= max_messages:
                break
            out.append(FetchedMessage(topic, partition, payload,
                                      next_offset))
            consumed_to = next_offset
        if consumed_to is not None \
                and stream.offsets[(topic, partition)] == offset:
            stream.offsets[(topic, partition)] = consumed_to
    return out


def publish_mix(rng, plain, gzip, sets):
    """``sets`` seeded message sets of 1-8 payloads, each plain or one
    gzip wrapper, on a random partition."""
    for _ in range(sets):
        producer = gzip if rng.random() < 0.5 else plain
        size = rng.randint(1, 8)
        producer.send_set("t", [b"m-%06d" % rng.randrange(10**6)
                                for _ in range(size)])


@pytest.mark.parametrize("seed", range(4))
def test_poll_matches_the_reference_loop(seed):
    """Over plain and gzip-wrapped sets on three partitions, every
    bounded poll returns what the reference loop returns and leaves the
    same offsets: with no budget, one message, one partition's whole
    count, a budget that runs out inside a wrapper, and more than
    there is."""
    rng = random.Random(seed)
    cluster = KafkaCluster(num_brokers=2, data_root="kafka",
                           clock=SimClock(), partitions_per_topic=3)
    cluster.create_topic("t")
    plain = Producer(cluster, seed=seed)
    gzip = Producer(cluster, compress=True, seed=seed + 100)
    publish_mix(rng, plain, gzip, 40)
    assignments = [("t", p) for p in range(3)]
    first = list(SimpleConsumer(cluster).fetch("t", 0, 0))
    ends = [next_offset for _, next_offset in first]
    inside = [i + 1 for i in range(len(ends) - 1) if ends[i] == ends[i + 1]]
    assert inside, "the mix must hold a wrapper of two or more messages"
    budgets = [0, 1, len(first), inside[len(inside) // 2], 10_000]
    for max_messages in budgets:
        stream = MessageStream(SimpleConsumer(cluster), assignments,
                               {a: 0 for a in assignments})
        model = MessageStream(SimpleConsumer(cluster), assignments,
                              {a: 0 for a in assignments})
        for round_ in range(200):
            got = stream.poll(max_messages)
            assert got == reference_poll(model, max_messages)
            assert stream.offsets == model.offsets
            if round_ == 1:
                publish_mix(rng, plain, gzip, 5)
            elif not got:
                break
        if max_messages:
            assert stream.lag() == 0


def test_compressed_producer_roundtrip(cluster):
    producer = Producer(cluster, batch_size=20, compress=True)
    sent = [f"page_view member={i % 5} page=feed".encode() for i in range(100)]
    for payload in sent:
        producer.send("activity", payload)
    producer.flush()
    assert sorted(all_payloads(cluster, "activity")) == sorted(sent)


BATCH = 10


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("max_messages", [1, 3, BATCH, BATCH + 1])
def test_bounded_polls_deliver_every_message_exactly_once(
        cluster, compress, max_messages):
    """Messages from one gzip wrapper share a ``next_offset``: a poll
    that stopped inside a wrapper and stored that offset used to skip
    the rest of it for good (10 sent, ``max_messages=3`` → 3 delivered,
    7 lost).  A bounded poll now cuts only where the offset advances."""
    producer = Producer(cluster, batch_size=BATCH, compress=compress, seed=9)
    sent = [b"event-%03d" % i for i in range(7 * BATCH + 4)]
    for payload in sent:
        producer.send("activity", payload)
    producer.flush()
    assignments = [("activity", tp.partition)
                   for tp in cluster.topic_layout("activity")]
    stream = MessageStream(SimpleConsumer(cluster), assignments,
                           {a: 0 for a in assignments})
    got = []
    while batch := stream.poll(max_messages=max_messages):
        if not compress:
            assert len(batch) <= max_messages
        got.extend(m.payload for m in batch)
    assert sorted(got) == sent
    assert stream.lag() == 0


def test_compression_saves_bandwidth(cluster):
    """'In practice, we save about 2/3 of the network bandwidth with
    compression enabled.'"""
    payloads = [(b"page_view member=%d page=feed server=app-01 " % (i % 50)) * 3
                for i in range(600)]
    plain = Producer(cluster, batch_size=100, compress=False, seed=5)
    for p in payloads:
        plain.send("activity", p)
    plain.flush()
    gzip = Producer(cluster, batch_size=100, compress=True, seed=5)
    for p in payloads:
        gzip.send("activity", p)
    gzip.flush()
    saving = 1 - gzip.bytes_on_wire / plain.bytes_on_wire
    assert saving > 0.5  # the paper reports ~2/3


def test_message_stream_iterates_all(cluster):
    producer = Producer(cluster, batch_size=10, seed=7)
    for i in range(60):
        producer.send("activity", f"e{i}".encode())
    producer.flush()
    consumer = SimpleConsumer(cluster)
    assignments = [("activity", tp.partition)
                   for tp in cluster.topic_layout("activity")]
    stream = MessageStream(consumer, assignments,
                           {a: 0 for a in assignments})
    got = [m.payload for m in stream]
    assert sorted(got) == sorted(f"e{i}".encode() for i in range(60))


def test_stream_rewind_reconsumes(cluster):
    producer = Producer(cluster, batch_size=1, seed=7)
    for i in range(10):
        producer.send("activity", f"e{i}".encode(), key=b"fixed")
    partition = Producer(cluster)._choose_partition("activity", b"fixed")
    consumer = SimpleConsumer(cluster)
    stream = MessageStream(consumer, [("activity", partition)],
                           {("activity", partition): 0})
    first_pass = [m.payload for m in stream.poll()]
    assert len(first_pass) == 10
    assert stream.poll() == []
    stream.seek("activity", partition, 0)
    second_pass = [m.payload for m in stream.poll()]
    assert second_pass == first_pass  # deliberate re-consumption


def test_stream_seek_validates_ownership(cluster):
    stream = MessageStream(SimpleConsumer(cluster), [("activity", 0)],
                           {("activity", 0): 0})
    with pytest.raises(ConfigurationError):
        stream.seek("activity", 3, 0)


def test_stream_recovers_from_retention_gap():
    clock = SimClock()
    cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                           clock=clock, partitions_per_topic=1,
                           segment_bytes=100)
    cluster.create_topic("t")
    producer = Producer(cluster, batch_size=1)
    for i in range(10):
        producer.send("t", bytes(40))
    clock.advance(100.0)
    cluster.run_retention(10.0)
    producer.send("t", b"fresh")
    stream = MessageStream(SimpleConsumer(cluster), [("t", 0)], {("t", 0): 0})
    got = [m.payload for m in stream]  # drains to the head
    assert got[-1] == b"fresh"  # jumped to the oldest retained offset
    cluster.shutdown()


def test_stream_lag(cluster):
    producer = Producer(cluster, batch_size=1, seed=7)
    assignments = [("activity", tp.partition)
                   for tp in cluster.topic_layout("activity")]
    stream = MessageStream(SimpleConsumer(cluster), assignments,
                           {a: 0 for a in assignments})
    assert stream.lag() == 0
    producer.send("activity", b"x" * 100)
    producer.flush()
    assert stream.lag() > 100
    stream.poll()
    assert stream.lag() == 0


def test_batch_size_validation(cluster):
    with pytest.raises(ConfigurationError):
        Producer(cluster, batch_size=0)
