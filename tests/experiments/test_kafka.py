"""EXPERIMENTS.md, Kafka table (§V): each claim as a count or a sim-clock
value on a SimDisk-backed cluster — no stopwatch, no real files.  The
wall-clock side (msg/s) belongs to the ``kafka-pubsub`` workload of
``perfbench``."""

import json

from repro.common.clock import SimClock
from repro.hadoop import MiniHDFS
from repro.kafka import KafkaCluster, MessageStream, Producer, SimpleConsumer
from repro.kafka.consumer import ConsumerGroupMember
from repro.kafka.log import MessageIdIndexedLog
from repro.kafka.message import Message, MessageSet
from repro.kafka.mirror import HadoopLoadJob, MirrorMaker
from repro.kafka.replication import ReplicatedTopic
from repro.simnet.disk import SimDisk
from repro.workloads import ActivityEventGenerator


def sim_cluster(brokers=2, partitions=4, clock=None, **kwargs):
    clock = clock or SimClock()
    cluster = KafkaCluster(brokers, "/kafka", clock=clock,
                           partitions_per_topic=partitions,
                           disk=SimDisk(clock=clock), **kwargs)
    cluster.create_topic("activity")
    return cluster


def activity_payloads(count, seed):
    generator = ActivityEventGenerator(num_members=20_000, seed=seed)
    return [json.dumps(event).encode() for event in generator.events(count)]


def produce(cluster, payloads, **producer_options):
    producer = Producer(cluster, **producer_options)
    for payload in payloads:
        producer.send("activity", payload)
    producer.flush()
    return producer


def bytes_written(disk, since=0):
    return sum(e[4] for e in disk.trace[since:] if e[0] == "write")


def test_exp_k1_batching_is_the_lever():
    """Per 1 000 messages batching divides the publish requests; the
    bytes on the wire never move (a 9-byte header a message)."""
    payloads = activity_payloads(1000, seed=1)
    cluster = sim_cluster(brokers=3, partitions=6, flush_interval_messages=500)
    requests, framing = {}, set()
    for batch_size in (1, 10, 100, 500):
        producer = produce(cluster, payloads, batch_size=batch_size,
                           seed=batch_size)
        requests[batch_size] = producer.publish_requests
        framing.add(producer.bytes_on_wire - sum(map(len, payloads)))
    assert requests == {1: 1000, 10: 102, 100: 12, 500: 6}
    assert framing == {9000}


def test_exp_k1b_append_cost_is_independent_of_log_size():
    cluster = sim_cluster(partitions=1, flush_interval_messages=100)
    disk = cluster.disk
    disk.start_trace()
    per_phase = []
    for _ in range(3):   # the log holds 0, 1 000, 2 000 messages
        writes, fsyncs, events = disk.writes, disk.fsyncs, len(disk.trace)
        produce(cluster, [b"x" * 200] * 1000, batch_size=100, seed=2)
        per_phase.append((disk.writes - writes, disk.fsyncs - fsyncs,
                          bytes_written(disk, since=events)))
    assert per_phase == [(10, 10, 209_000)] * 3


def test_exp_k2_compression_saves_two_thirds_of_the_bandwidth():
    cluster = sim_cluster(flush_interval_messages=500)
    payloads = activity_payloads(2000, seed=5)
    plain = produce(cluster, payloads, batch_size=200, seed=1)
    gzip = produce(cluster, payloads, batch_size=200, seed=1, compress=True)
    assert (plain.bytes_on_wire, gzip.bytes_on_wire) == (248_760, 41_508)
    assert round(1 - gzip.bytes_on_wire / plain.bytes_on_wire, 3) == 0.833
    events = [Message(p) for p in payloads[:800]]
    plain_size = MessageSet(events).wire_size
    assert [round(1 - MessageSet.compressed(events, level=level).wire_size
                  / plain_size, 3) for level in (1, 6, 9)] \
        == [0.818, 0.849, 0.857]


def test_exp_k3_sequential_pull_and_offsets_not_message_ids():
    cluster = sim_cluster(flush_interval_messages=500,
                          segment_bytes=256 * 1024)
    produce(cluster, [b"event-payload-%06d" % i for i in range(5000)],
            batch_size=200, seed=3)
    cluster.flush_all()
    assignments = [("activity", tp.partition)
                   for tp in cluster.topic_layout("activity")]

    def fetches(fetch_max_bytes):
        consumer = SimpleConsumer(cluster, fetch_max_bytes=fetch_max_bytes)
        stream = MessageStream(consumer, assignments,
                               {a: 0 for a in assignments})
        assert sum(1 for _ in stream) == 5000
        return consumer.fetch_requests

    # a data fetch and an empty fetch per partition; a request per message
    # for a consumer that pulls one 29-byte frame at a time
    assert fetches(128 * 1024) == 8
    assert fetches(29) > 5000
    # ablation: an id index is O(messages) of broker state, offsets O(segments)
    indexed = MessageIdIndexedLog("idx", segment_bytes=8192,
                                  disk=SimDisk().scope("b"))
    for _ in range(3000):
        indexed.append(MessageSet([Message(b"y" * 40)]))
    assert indexed.index_entries() == 3000
    assert len(indexed.log.segment_base_offsets()) == 18


def pipeline_mean_latency(mirror_interval, load_interval, duration=120):
    # one event a second: producer -> live -> mirror -> replica -> HDFS
    clock = SimClock()
    live = sim_cluster(partitions=2, clock=clock)
    replica = KafkaCluster(1, "/replica", clock=clock, partitions_per_topic=2,
                           disk=SimDisk(clock=clock))
    producer = Producer(live, batch_size=1)
    mirror = MirrorMaker(live, replica, ["activity"], batch_size=50)
    hdfs = MiniHDFS()
    job = HadoopLoadJob(replica, hdfs, ["activity"])
    latencies = []
    for second in range(1, duration + 1):
        clock.advance(1.0)
        producer.send("activity", json.dumps({"t": clock.now()}).encode())
        if second % mirror_interval == 0:
            mirror.poll_once()
        if second % load_interval == 0:
            for path in job.run_once():
                latencies += [clock.now() - json.loads(line)["t"]
                              for line in hdfs.read(path).split(b"\n")]
    assert len(latencies) == duration - duration % load_interval  # no loss
    return round(sum(latencies) / len(latencies), 1)


def test_exp_k4_pipeline_latency_is_dominated_by_stage_intervals():
    assert [pipeline_mean_latency(2, 5), pipeline_mean_latency(5, 10),
            pipeline_mean_latency(10, 30)] == [2.5, 4.5, 14.5]


def settle(members):
    for _ in range(6):   # let every member see the current membership
        for member in members:
            member.poll(max_messages=0)
    return members


def test_exp_k5_coordination_only_on_membership_change():
    cluster = sim_cluster(partitions=12, flush_interval_messages=100)
    members = []
    for i in range(4):   # the group grows 1 -> 4
        members.append(ConsumerGroupMember(cluster, "g", f"c{i}", ["activity"]))
        settle(members)
    assert [len(m.stream.assignments) for m in members] == [3, 3, 3, 3]
    assert [m.rebalances for m in members] == [4, 3, 2, 1]
    produce(cluster, [b"x"] * 500, batch_size=50, seed=9)
    cluster.flush_all()
    assert sum(len(batch) for m in members
               for batch in iter(m.poll, [])) == 500
    assert [m.rebalances for m in members] == [4, 3, 2, 1]   # steady state


def test_exp_k5_over_partitioning_evens_out_consumer_load():
    consumed = {}
    for partitions in (2, 4, 24):
        cluster = sim_cluster(partitions=partitions,
                              flush_interval_messages=100)
        produce(cluster, [b"m%05d" % i for i in range(2000)],
                batch_size=50, seed=4)
        cluster.flush_all()
        consumed[partitions] = sorted(
            sum(len(batch) for batch in iter(member.poll, []))
            for member in settle([
                ConsumerGroupMember(cluster, "g", f"c{i}", ["activity"])
                for i in range(3)]))
    assert consumed == {2: [0, 994, 1006], 4: [469, 525, 1006],
                        24: [661, 667, 672]}   # spread 151% / 81% / 1.7%


def test_exp_k7_replication_is_linear_write_amplification_behind_the_isr():
    appended = {}
    for rf in (1, 2, 3):
        cluster = sim_cluster(brokers=3, partitions=1)
        cluster.disk.start_trace()
        topic = ReplicatedTopic(cluster, "events", partitions=1,
                                replication_factor=rf)
        state = topic.partitions[0]
        lags = []
        for i in range(50):
            topic.produce(0, MessageSet([Message(b"m%d" % i)]))
            lags.append(state.leader_log_end - state.committed_offset)
            if i % 5 == 4:
                topic.poll_replication()
        appended[rf] = bytes_written(cluster.disk)
        assert state.committed_offset == state.leader_log_end
        # five 12-byte frames wait on each poll for the ISR to hold them
        assert max(lags) == (60 if rf > 1 else 0)
    assert appended == {1: 590, 2: 1180, 3: 1770}   # RF x leader bytes
