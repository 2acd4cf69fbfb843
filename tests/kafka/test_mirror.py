"""Cross-datacenter mirroring and the Hadoop load pipeline (§V.D)."""

import random

import pytest

from repro.common.clock import SimClock
from repro.hadoop import MiniHDFS
from repro.kafka import KafkaCluster, Producer
from repro.kafka.mirror import HadoopLoadJob, MirrorMaker


@pytest.fixture
def clusters():
    clock = SimClock()
    live = KafkaCluster(num_brokers=2, data_root="live",
                        clock=clock, partitions_per_topic=4)
    replica = KafkaCluster(num_brokers=2, data_root="replica",
                           clock=clock, partitions_per_topic=4)
    live.create_topic("activity")
    yield live, replica, clock
    live.shutdown()
    replica.shutdown()


def replica_payloads(replica, topic):
    from repro.kafka import SimpleConsumer
    consumer = SimpleConsumer(replica)
    out = []
    for tp in replica.topic_layout(topic):
        offset = 0
        while True:
            batch = list(consumer.fetch(topic, tp.partition, offset))
            if not batch:
                break
            out.extend(payload for payload, _ in batch)
            offset = batch[-1][1]
    return out


def test_mirror_copies_everything(clusters):
    live, replica, _ = clusters
    producer = Producer(live, batch_size=10)
    sent = [f"event-{i}".encode() for i in range(100)]
    for payload in sent:
        producer.send("activity", payload)
    producer.flush()
    mirror = MirrorMaker(live, replica, ["activity"])
    assert mirror.poll_once() == 100
    assert sorted(replica_payloads(replica, "activity")) == sorted(sent)


def test_mirror_is_incremental(clusters):
    live, replica, _ = clusters
    mirror = MirrorMaker(live, replica, ["activity"])
    producer = Producer(live, batch_size=1)
    producer.send("activity", b"first")
    assert mirror.poll_once() == 1
    assert mirror.poll_once() == 0
    producer.send("activity", b"second")
    assert mirror.poll_once() == 1
    assert mirror.messages_mirrored == 2


def test_load_job_writes_hdfs_files(clusters):
    live, replica, _ = clusters
    producer = Producer(live, batch_size=5)
    for i in range(40):
        producer.send("activity", f"e{i}".encode())
    producer.flush()
    MirrorMaker(live, replica, ["activity"]).poll_once()
    hdfs = MiniHDFS()
    job = HadoopLoadJob(replica, hdfs, ["activity"])
    written = job.run_once()
    assert written
    loaded = b"\n".join(hdfs.read(p) for p in written).split(b"\n")
    assert sorted(loaded) == sorted(f"e{i}".encode() for i in range(40))
    assert job.run_once() == []  # nothing new


def test_end_to_end_pipeline_no_loss(clusters):
    live, replica, _ = clusters
    hdfs = MiniHDFS()
    mirror = MirrorMaker(live, replica, ["activity"])
    job = HadoopLoadJob(replica, hdfs, ["activity"])
    producer = Producer(live, batch_size=7)
    total = 0
    for round_number in range(5):
        for i in range(30):
            producer.send("activity", f"r{round_number}-e{i}".encode())
            total += 1
        producer.flush()
        mirror.poll_once()
        job.run_once()
    assert job.messages_loaded == total


def test_mirror_preserves_cursor_reset_during_fetch(clusters):
    """An operator rewind landing while a fetch is in flight must win;
    the pass may not clobber it with its own stale next_offset."""
    live, replica, _ = clusters
    producer = Producer(live, batch_size=10)
    for i in range(20):
        producer.send("activity", f"event-{i}".encode())
    producer.flush()
    mirror = MirrorMaker(live, replica, ["activity"])
    mirror.poll_once()
    advanced = {tp for tp, off in mirror._offsets.items() if off}
    assert advanced

    orig_fetch = mirror._consumer.fetch

    def racing_fetch(topic, partition, offset):
        batch = orig_fetch(topic, partition, offset)
        if (topic, partition) in advanced:
            mirror._offsets[(topic, partition)] = 0  # rewind mid-fetch
        return batch

    mirror._consumer.fetch = racing_fetch
    for i in range(20):
        producer.send("activity", f"late-{i}".encode())
    producer.flush()
    mirror.poll_once()
    for tp in advanced:
        assert mirror._offsets[tp] == 0


def oversized_set(seed):
    """A small message, one larger than a consumer's default 300 KB
    fetch window, and another small one."""
    big = random.Random(seed).randbytes(200_000).hex().encode()
    return [b"before", big, b"after"]


def test_mirror_copies_a_message_larger_than_its_fetch_window(clusters):
    """Regression: the mirror's fetch returned a cut of the big frame,
    so it mirrored the first message and then nothing, forever.  A pass
    is one fetch per partition: the big frame comes whole, alone."""
    live, replica, _ = clusters
    payloads = oversized_set(1)
    Producer(live).send_set("activity", payloads, key=b"one-partition")
    mirror = MirrorMaker(live, replica, ["activity"])
    assert [mirror.poll_once() for _ in range(4)] == [1, 1, 1, 0]
    assert sorted(replica_payloads(replica, "activity")) == sorted(payloads)


def test_load_job_loads_a_message_larger_than_its_fetch_window(clusters):
    _, replica, _ = clusters
    replica.create_topic("activity")
    payloads = oversized_set(2)
    Producer(replica).send_set("activity", payloads, key=b"one-partition")
    hdfs = MiniHDFS()
    job = HadoopLoadJob(replica, hdfs, ["activity"])
    written = [job.run_once() for _ in range(4)]
    assert [[hdfs.read(path) for path in paths] for paths in written] == \
        [[payload] for payload in payloads] + [[]]
