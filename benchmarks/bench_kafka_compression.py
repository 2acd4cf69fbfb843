"""EXP-K2 (§V.B): compression bandwidth saving.

Paper: "In practice, we save about 2/3 of the network bandwidth with
compression enabled."  Activity-event JSON is highly redundant, so the
shape reproduces directly; we also show the CPU cost side of the trade.
"""

import json

import pytest

from benchmarks.conftest import report
from repro.common.clock import SimClock
from repro.kafka import KafkaCluster, Producer
from repro.kafka.consumer import SimpleConsumer
from repro.workloads import ActivityEventGenerator


@pytest.fixture
def cluster(tmp_path):
    built = KafkaCluster(num_brokers=2, data_root=str(tmp_path),
                         clock=SimClock(), partitions_per_topic=4,
                         flush_interval_messages=500)
    built.create_topic("plain")
    built.create_topic("gzip")
    yield built
    built.shutdown()


def payloads(count=2000):
    generator = ActivityEventGenerator(num_members=20_000, seed=5)
    return [json.dumps(e).encode() for e in generator.events(count)]


def test_bandwidth_saving(benchmark, cluster):
    events = payloads()

    def run_both():
        plain = Producer(cluster, batch_size=200, compress=False, seed=1)
        gzip = Producer(cluster, batch_size=200, compress=True, seed=1)
        for payload in events:
            plain.send("plain", payload)
            gzip.send("gzip", payload)
        plain.flush()
        gzip.flush()
        return plain.bytes_on_wire, gzip.bytes_on_wire

    plain_bytes, gzip_bytes = benchmark.pedantic(run_both, rounds=1,
                                                 iterations=1)
    saving = 1 - gzip_bytes / plain_bytes
    report(benchmark, "EXP-K2 compression bandwidth saving", {
        "plain bytes": f"{plain_bytes:,}",
        "compressed bytes": f"{gzip_bytes:,}",
        "bandwidth saved": f"{saving:.1%}",
    }, "about 2/3 of network bandwidth saved")
    assert saving > 0.5  # the paper's ~2/3, with slack for payload mix


def test_end_to_end_compressed_consumption(benchmark, cluster):
    events = payloads(1000)
    producer = Producer(cluster, batch_size=200, compress=True, seed=2)
    for payload in events:
        producer.send("gzip", payload)
    producer.flush()
    cluster.flush_all()
    consumer = SimpleConsumer(cluster)

    def consume_all():
        got = 0
        for tp in cluster.topic_layout("gzip"):
            offset = 0
            while True:
                batch = list(consumer.fetch("gzip", tp.partition, offset))
                if not batch:
                    break
                got += len(batch)
                offset = batch[-1][1]
        return got

    got = benchmark(consume_all)
    report(benchmark, "EXP-K2 decompress-on-consume", {
        "messages consumed": got,
        "wire bytes fetched": consumer.bytes_fetched,
    }, "compressed data is stored compressed and inflated at the consumer")
    assert got >= len(events)


def test_compression_level_tradeoff(benchmark, cluster):
    import time
    import zlib
    from repro.kafka.message import Message, MessageSet
    events = [Message(p) for p in payloads(800)]
    results = {}

    def sweep():
        plain_size = MessageSet(events).wire_size
        for level in (1, 6, 9):
            start = time.perf_counter()
            compressed = MessageSet.compressed(events, level=level)
            elapsed = time.perf_counter() - start
            results[level] = (1 - compressed.wire_size / plain_size, elapsed)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(benchmark, "EXP-K2 gzip level trade-off", {
        f"level {level}": f"saved {saved:.1%} in {sec * 1000:.1f} ms"
        for level, (saved, sec) in results.items()
    }, "(ablation) higher levels buy little extra saving at more CPU")
    assert results[9][0] >= results[1][0]
