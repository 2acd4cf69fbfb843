"""Partition logs: segments, flush visibility, retention, recovery."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError, OffsetOutOfRangeError
from repro.kafka.log import MessageIdIndexedLog, PartitionLog
from repro.kafka.message import Message, MessageSet, iter_messages
from repro.simnet.disk import SimDisk


def make_log(clock=None, **kwargs):
    return PartitionLog("p0", SimDisk(clock=clock).scope("b"), **kwargs)


def payloads_in(log, offset=0, max_bytes=1 << 20):
    data = log.read(offset, max_bytes)
    return [d.message.payload for d in iter_messages(data, offset)]


def test_append_assigns_byte_offsets():
    log = make_log()
    first = log.append(MessageSet([Message(b"aaa")]))
    second = log.append(MessageSet([Message(b"bbbb")]))
    assert first == 0
    assert second == Message(b"aaa").wire_size
    log.close()


def test_read_returns_appended_messages():
    log = make_log()
    log.append(MessageSet([Message(b"one"), Message(b"two")]))
    assert payloads_in(log) == [b"one", b"two"]
    log.close()


def test_flush_gates_visibility():
    log = make_log(flush_interval_messages=10)
    log.append(MessageSet([Message(b"pending")]))
    assert log.read(0) == b""  # not flushed yet
    assert log.high_watermark == 0
    log.flush()
    assert payloads_in(log) == [b"pending"]
    log.close()


def test_flush_by_message_count():
    log = make_log(flush_interval_messages=3)
    for i in range(2):
        log.append(MessageSet([Message(b"x")]))
    assert log.high_watermark == 0
    log.append(MessageSet([Message(b"x")]))
    assert log.high_watermark == log.log_end_offset
    log.close()


def test_flush_by_elapsed_time():
    clock = SimClock()
    log = make_log(clock=clock, flush_interval_messages=1000,
                   flush_interval_seconds=5.0)
    log.append(MessageSet([Message(b"early")]))
    assert log.high_watermark == 0
    clock.advance(6.0)
    log.append(MessageSet([Message(b"later")]))
    assert log.high_watermark == log.log_end_offset
    log.close()


def test_segments_roll_at_size():
    log = make_log(segment_bytes=200)
    for i in range(20):
        log.append(MessageSet([Message(bytes(30))]))
    assert len(log.segment_base_offsets()) > 1
    bases = log.segment_base_offsets()
    assert bases == sorted(bases)
    log.close()


def test_read_across_segments():
    log = make_log(segment_bytes=100)
    sent = []
    for i in range(30):
        payload = f"m{i:02d}".encode()
        sent.append(payload)
        log.append(MessageSet([Message(payload)]))
    # read the whole log by following next_offsets
    got = []
    offset = 0
    while offset < log.high_watermark:
        chunk = log.read(offset, max_bytes=64)
        decoded = list(iter_messages(chunk, offset))
        if not decoded:
            break
        got.extend(d.message.payload for d in decoded)
        offset = decoded[-1].next_offset
    assert got == sent
    log.close()


def test_offset_out_of_range():
    log = make_log()
    log.append(MessageSet([Message(b"x")]))
    with pytest.raises(OffsetOutOfRangeError):
        log.read(9999)
    with pytest.raises(ConfigurationError):
        log.read(0, max_bytes=0)
    log.close()


def test_fetch_at_watermark_is_empty():
    log = make_log()
    log.append(MessageSet([Message(b"x")]))
    assert log.read(log.high_watermark) == b""
    log.close()


def test_retention_deletes_old_segments():
    clock = SimClock()
    log = make_log(clock=clock, segment_bytes=100)
    for i in range(10):
        log.append(MessageSet([Message(bytes(40))]))
    clock.advance(100.0)
    old_oldest = log.oldest_offset
    deleted = log.delete_old_segments(retention_seconds=50.0)
    assert deleted > 0
    assert log.oldest_offset > old_oldest
    with pytest.raises(OffsetOutOfRangeError):
        log.read(0)
    # newest data still readable
    assert log.read(log.oldest_offset) != b""
    log.close()


def test_retention_spares_recent_and_active():
    clock = SimClock()
    log = make_log(clock=clock, segment_bytes=100)
    log.append(MessageSet([Message(bytes(40))]))
    assert log.delete_old_segments(retention_seconds=50.0) == 0
    log.close()


def test_recovery_after_reopen():
    clock = SimClock()
    disk = SimDisk(clock=clock).scope("b")
    log = PartitionLog("p0", disk, segment_bytes=150)
    sent = []
    for i in range(12):
        payload = f"m{i}".encode()
        sent.append(payload)
        log.append(MessageSet([Message(payload)]))
    end = log.high_watermark
    log.close()
    reopened = PartitionLog("p0", disk, segment_bytes=150)
    assert reopened.high_watermark == end
    got = []
    offset = 0
    while offset < reopened.high_watermark:
        decoded = list(iter_messages(reopened.read(offset), offset))
        got.extend(d.message.payload for d in decoded)
        offset = decoded[-1].next_offset
    assert got == sent
    # appends continue at the right offset
    assert reopened.append(MessageSet([Message(b"new")])) == end
    reopened.close()


def test_no_auxiliary_index_files():
    """The design point: offsets are addresses, no id index on disk."""
    log = make_log()
    for i in range(50):
        log.append(MessageSet([Message(b"x" * 20)]))
    files = log.disk.listdir(log.directory)
    assert all(f.endswith(".kafka") for f in files)
    log.close()


def test_message_id_index_ablation():
    indexed = MessageIdIndexedLog("indexed", disk=SimDisk().scope("b"))
    ids = []
    for i in range(100):
        ids.extend(indexed.append(MessageSet([Message(f"m{i}".encode())])))
    assert ids == list(range(100))
    assert indexed.index_entries() == 100  # O(messages) memory
    data = indexed.read_by_id(42)
    first = next(iter_messages(data, 0))
    assert first.message.payload == b"m42"
    with pytest.raises(OffsetOutOfRangeError):
        indexed.read_by_id(9999)
    indexed.close()


def test_empty_message_set_rejected():
    log = make_log()
    with pytest.raises(ConfigurationError):
        log.append(MessageSet([]))
    log.close()


def test_flush_keeps_concurrent_append_pending():
    """Bytes appended while the flush fsync is in flight are neither
    written nor durable; that flush must not expose or ack them."""
    log = make_log(flush_interval_messages=10)
    log.append(MessageSet([Message(b"first")]))
    handle = log._active_file
    orig_fsync = handle.fsync

    def racing_fsync():
        orig_fsync()
        log.append(MessageSet([Message(b"late")]))  # lands mid-fsync

    handle.fsync = racing_fsync
    log.flush()
    handle.fsync = orig_fsync

    assert payloads_in(log) == [b"first"]
    assert log._pending  # the late append is still buffered
    assert log.high_watermark == Message(b"first").wire_size
    assert log.log_end_offset == log.high_watermark + Message(b"late").wire_size

    log.flush()
    assert payloads_in(log) == [b"first", b"late"]
    assert log.high_watermark == log.log_end_offset
    log.close()


def test_flush_reentered_during_fsync_writes_each_span_once():
    """A flush that runs while another flush's fsync is in flight writes
    only what was staged after the first one took its spans, and
    neither flush exposes a byte before an fsync has covered it."""
    log = make_log(flush_interval_messages=10)
    log.append(MessageSet([Message(b"a")]))
    handle = log._active_file
    orig_fsync = handle.fsync

    def reentering_fsync():
        handle.fsync = orig_fsync   # re-enter once
        assert log.high_watermark == 0      # "a" is written, not synced
        log.append(MessageSet([Message(b"b")]))
        log.flush()
        orig_fsync()

    handle.fsync = reentering_fsync
    log.flush()
    log.append(MessageSet([Message(b"c")]))
    log.flush()

    assert payloads_in(log) == [b"a", b"b", b"c"]
    assert log.high_watermark == log.log_end_offset
    assert log.size_bytes() == log.log_end_offset   # no frame twice
    log.close()


# -- the write pattern, pinned ---------------------------------------------

PINNED_TRACE_SHA = \
    "fe8a5a576f706189d1821a5ad0e6b05384d3323e412b4c8e25cc586ff48eee49"
PINNED_SEGMENTS_SHA = \
    "a05496255fed690b513cd09ebdd6d8486dc781253a8c33e53f7d4b51091bd5a2"


def _traced_scenario():
    """A seeded produce / flush / fetch / retention run over a SimDisk.

    Returns ``(sha of SimDisk.trace_bytes(), sha of every surviving
    segment's bytes, payloads sent, payloads consumed)``.
    """
    import hashlib
    import random

    from repro.kafka import KafkaCluster, MessageStream, Producer, SimpleConsumer
    from repro.simnet.disk import SimDisk

    clock = SimClock()
    disk = SimDisk(clock=clock, seed=7)
    disk.start_trace()
    cluster = KafkaCluster(2, "kafka", clock=clock, partitions_per_topic=3,
                           flush_interval_messages=7, segment_bytes=2048,
                           disk=disk)
    cluster.create_topic("plain")
    cluster.create_topic("gzip")
    producers = {"plain": Producer(cluster, batch_size=5, seed=3),
                 "gzip": Producer(cluster, batch_size=4, compress=True,
                                  seed=4)}
    stream = MessageStream(
        SimpleConsumer(cluster, fetch_max_bytes=1500),
        [(t, p) for t in ("plain", "gzip") for p in range(3)],
        {(t, p): 0 for t in ("plain", "gzip") for p in range(3)})
    rng = random.Random(11)
    sent, consumed = [], []
    for round_number in range(40):
        for _ in range(rng.randrange(5, 30)):
            topic = rng.choice(("plain", "gzip"))
            payload = b"%06d|" % len(sent) + bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 90)))
            producers[topic].send(topic, payload)
            sent.append(payload)
        clock.advance(rng.random())
        if round_number % 3 == 0:
            cluster.flush_all()
        consumed.extend(m.payload for m in stream.poll())
        if round_number % 10 == 9:
            cluster.run_retention(retention_seconds=2.0)
    for producer in producers.values():
        producer.flush()
    cluster.flush_all()
    while batch := stream.poll():
        consumed.extend(m.payload for m in batch)
    trace_sha = hashlib.sha256(disk.trace_bytes()).hexdigest()
    segments = hashlib.sha256()
    for broker_id, broker in sorted(cluster.brokers.items()):
        for topic, partition in broker.partitions():
            log = broker.log(topic, partition)
            for name in disk.listdir(f"broker-{broker_id}/{log.directory}"):
                path = f"broker-{broker_id}/{log.directory}/{name}"
                with disk.open(path, "rb") as f:
                    segments.update(name.encode() + f.read())
    cluster.shutdown()
    return trace_sha, segments.hexdigest(), sent, consumed


def test_write_pattern_and_segment_bytes_are_pinned():
    """Same seed ⇒ the same disk events (write sizes, fsync count, roll
    points, reads, deletions) and the same bytes in every segment.

    Both digests were taken at the commit *before* the message set
    became a byte span end to end, so they pin the format and the write
    pattern across that change: an edit that moves either one moves
    ``simnet.disk.bytes_written_per_op`` in the benchmark, and should
    fail here first.
    """
    trace_sha, segments_sha, sent, consumed = _traced_scenario()
    assert sorted(consumed) == sorted(sent)
    assert trace_sha == PINNED_TRACE_SHA
    assert segments_sha == PINNED_SEGMENTS_SHA
    assert _traced_scenario()[:2] == (trace_sha, segments_sha)
