"""Property-based tests of the partition log's core invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.kafka.log import PartitionLog
from repro.kafka.message import (
    Message,
    MessageSet,
    decode_span,
    iter_messages,
)
from repro.simnet.disk import SimDisk


def drain(log, start=0):
    """Read everything flushed, following next_offsets."""
    out = []
    offset = start
    while offset < log.high_watermark:
        decoded = list(iter_messages(log.read(offset), offset))
        if not decoded:
            break
        out.extend(d.message.payload for d in decoded)
        offset = decoded[-1].next_offset
    return out, offset


message_sets = st.lists(
    st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=5),
    min_size=1, max_size=20)


@settings(max_examples=40, deadline=None)
@given(message_sets, st.integers(64, 512))
def test_consume_equals_produce(sets, segment_bytes):
    """Whatever is appended and flushed is consumed, once, in order."""
    log = PartitionLog("p", SimDisk().scope("b"), segment_bytes=segment_bytes,
                       clock=SimClock())
    sent = []
    for payloads in sets:
        log.append(MessageSet([Message(p) for p in payloads]))
        sent.extend(payloads)
    log.flush()
    got, end = drain(log)
    assert got == sent
    assert end == log.high_watermark
    log.close()


@settings(max_examples=25, deadline=None)
@given(message_sets)
def test_reopen_preserves_log(sets):
    disk = SimDisk().scope("b")
    log = PartitionLog("p", disk, segment_bytes=256, clock=SimClock())
    sent = []
    for payloads in sets:
        log.append(MessageSet([Message(p) for p in payloads]))
        sent.extend(payloads)
    log.flush()
    end = log.high_watermark
    log.close()
    reopened = PartitionLog("p", disk, segment_bytes=256, clock=SimClock())
    got, _ = drain(reopened)
    assert got == sent
    assert reopened.high_watermark == end
    reopened.close()


@settings(max_examples=25, deadline=None)
@given(message_sets, st.integers(0, 10))
def test_offsets_are_strictly_increasing_and_dense(sets, _):
    log = PartitionLog("p", SimDisk().scope("b"), clock=SimClock())
    expected_offset = 0
    for payloads in sets:
        message_set = MessageSet([Message(p) for p in payloads])
        first = log.append(message_set)
        assert first == expected_offset
        expected_offset += message_set.wire_size
    assert log.log_end_offset == expected_offset
    log.close()


@settings(max_examples=20, deadline=None)
@given(message_sets)
def test_rewind_replays_identical_prefix(sets):
    log = PartitionLog("p", SimDisk().scope("b"), clock=SimClock())
    for payloads in sets:
        log.append(MessageSet([Message(p) for p in payloads]))
    log.flush()
    first_pass, _ = drain(log)
    second_pass, _ = drain(log)  # "rewind" = read from 0 again
    assert first_pass == second_pass
    log.close()


span_sets = st.lists(
    st.tuples(st.lists(st.binary(min_size=0, max_size=120),
                       min_size=1, max_size=5), st.booleans()),
    min_size=1, max_size=20)


@settings(max_examples=40, deadline=None)
@given(span_sets, st.integers(64, 512), st.integers(1, 400))
def test_span_sets_reach_disk_verbatim_and_decode_in_one_pass(
        sets, segment_bytes, fetch_bytes):
    """A producer-built set is appended as the bytes it already is, and
    any fetch budget — cutting frames and wrappers anywhere — still
    yields every payload once, in order."""
    log = PartitionLog("p", SimDisk().scope("b"), segment_bytes=segment_bytes,
                       flush_interval_messages=3, clock=SimClock())
    sent, stored = [], b""
    for payloads, compress in sets:
        message_set = MessageSet.from_payloads(payloads)
        if compress:
            message_set = message_set.deflated()
        assert log.append(message_set) == len(stored)
        stored += message_set.encode()
        sent.extend(payloads)
    log.flush()
    assert log.high_watermark == len(stored)
    got, offset = [], 0
    while offset < log.high_watermark:
        budget = fetch_bytes
        before = offset
        while offset == before:     # grow until one whole frame fits
            data = log.read(offset, budget)
            assert data == stored[offset:offset + len(data)]
            for payload, offset in decode_span(data, offset):
                got.append(payload)
            budget *= 2
    assert got == sent
    log.close()


@settings(max_examples=25, deadline=None)
@given(message_sets, st.integers(0, 4000))
def test_base_offset_list_tracks_rolls_and_deletions(
        sets, floor):
    clock = SimClock()
    log = PartitionLog("p", SimDisk().scope("b"), segment_bytes=96,
                       clock=clock)

    def on_disk():
        return sorted(int(name.split(".")[0])
                      for name in log.disk.listdir(log.directory))

    for payloads in sets:
        log.append(MessageSet.from_payloads(payloads))
        assert log.segment_base_offsets() == on_disk()
    log.delete_segments_below(floor)
    assert log.segment_base_offsets() == on_disk()
    assert log.oldest_offset == on_disk()[0]
    clock.advance(10.0)
    log.append(MessageSet.from_payloads([b"fresh"]))
    log.delete_old_segments(retention_seconds=5.0)
    assert log.segment_base_offsets() == on_disk()
    offsets = log.segment_base_offsets()
    offsets.clear()                              # a copy, not the index
    assert log.segment_base_offsets() == on_disk()
    for base in on_disk():                       # every segment still found
        if base < log.high_watermark:
            assert log.read(base, 1)
    log.close()
