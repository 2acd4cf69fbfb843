"""Relay: capture, circular buffering, SCN-indexed serving, filters."""

import pytest

from repro.common.errors import ConfigurationError, SCNGoneError
from repro.common.serialization import decode_record
from repro.databus import Relay, partition_filter, source_filter
from repro.databus.relay import EventBuffer
from repro.databus.events import DatabusEvent
from repro.sqlstore.binlog import ChangeKind

from tests.common.codec_calls import DECODES, codec_calls
from tests.databus.conftest import insert_member, update_member


def make_event(scn, source="member", key=(1,), end=True, payload=b"x"):
    return DatabusEvent(scn, source, ChangeKind.INSERT, key, payload,
                        end_of_window=end)


class TestEventBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            EventBuffer(max_events=0)

    def test_windows_must_be_well_formed(self):
        buffer = EventBuffer()
        with pytest.raises(ConfigurationError):
            buffer.append_window([make_event(1, end=False)])
        with pytest.raises(ConfigurationError):
            buffer.append_window([make_event(1, end=False), make_event(2)])

    def test_scn_order_enforced(self):
        buffer = EventBuffer()
        buffer.append_window([make_event(5)])
        with pytest.raises(ConfigurationError):
            buffer.append_window([make_event(5)])
        with pytest.raises(ConfigurationError):
            buffer.append_window([make_event(4)])

    def test_events_since(self):
        buffer = EventBuffer()
        for scn in (1, 2, 3):
            buffer.append_window([make_event(scn)])
        assert [e.scn for e in buffer.events_since(1)] == [2, 3]
        assert buffer.events_since(3) == []

    def test_eviction_by_event_count(self):
        buffer = EventBuffer(max_events=4)
        for scn in range(1, 8):
            buffer.append_window([make_event(scn)])
        assert buffer.oldest_scn == 4
        with pytest.raises(SCNGoneError) as excinfo:
            buffer.events_since(0)
        assert excinfo.value.oldest_retained == 4
        # a reader already past the eviction point is fine
        assert [e.scn for e in buffer.events_since(5)] == [6, 7]

    def test_eviction_by_bytes(self):
        buffer = EventBuffer(max_bytes=400)
        for scn in range(1, 10):
            buffer.append_window([make_event(scn, payload=b"z" * 100)])
        assert buffer.size_bytes <= 400
        assert buffer.oldest_scn > 1

    def test_eviction_is_whole_windows(self):
        buffer = EventBuffer(max_events=3)
        buffer.append_window([make_event(1, end=False), make_event(1)])
        buffer.append_window([make_event(2, end=False), make_event(2)])
        # window 1 fully evicted (never half-retained), window 2 intact
        with pytest.raises(SCNGoneError):
            buffer.events_since(0)
        scns = {e.scn for e in buffer.events_since(1)}
        assert scns == {2}

    def test_max_events_stops_at_window_boundary(self):
        buffer = EventBuffer()
        buffer.append_window([make_event(1, end=False),
                              make_event(1, end=False), make_event(1)])
        buffer.append_window([make_event(2)])
        out = buffer.events_since(0, max_events=2)
        assert [e.scn for e in out] == [1, 1, 1]  # whole window despite cap
        assert out[-1].end_of_window


class TestRelayCapture:
    def test_capture_serializes_with_avro(self, source_db, relay, capture):
        insert_member(source_db, 7, name="Reid", headline="founder")
        assert capture.poll() == 1
        events = relay.stream_from(0)
        assert len(events) == 1
        schema = relay.schemas.get("member", events[0].schema_version)
        row = decode_record(schema, events[0].payload)
        assert row == {"member_id": 7, "name": "Reid", "headline": "founder"}

    def test_exp_d1_capture_costs_one_encode_per_event(self, source_db, relay,
                                                       capture):
        for member in range(200):
            insert_member(source_db, member)
        with codec_calls() as calls:
            assert capture.poll() == 200
        assert calls.count("encode_record") == 200
        assert calls.count(*DECODES) == 0

    def test_transaction_boundaries_preserved(self, source_db, relay, capture):
        txn = source_db.begin()
        txn.insert("member", {"member_id": 1, "name": "a", "headline": "h"})
        txn.insert("position", {"member_id": 1, "company": "li", "title": "ceo"})
        txn.commit()
        capture.poll()
        events = relay.stream_from(0)
        assert len(events) == 2
        assert not events[0].end_of_window
        assert events[1].end_of_window
        assert events[0].scn == events[1].scn

    def test_poll_is_incremental(self, source_db, relay, capture):
        insert_member(source_db, 1)
        assert capture.poll() == 1
        assert capture.poll() == 0
        insert_member(source_db, 2)
        assert capture.poll() == 1
        assert len(relay.stream_from(0)) == 2

    def test_relay_restart_resumes_from_buffer(self, source_db, relay, capture):
        from repro.databus import capture_from_binlog
        insert_member(source_db, 1)
        capture.poll()
        # a new capture adapter (relay restart) does not duplicate
        fresh = capture_from_binlog(source_db, relay)
        assert fresh.poll() == 0
        insert_member(source_db, 2)
        assert fresh.poll() == 1

    def test_unregistered_source_rejected(self, relay):
        from repro.sqlstore.binlog import BinlogTransaction, ChangeEvent
        txn = BinlogTransaction(1, (ChangeEvent("ghost", ChangeKind.INSERT,
                                                (1,), {"a": 1}),))
        with pytest.raises(ConfigurationError):
            relay.capture_transaction(txn)


class TestRelayServing:
    def test_source_filter(self, source_db, relay, capture):
        insert_member(source_db, 1)
        txn = source_db.begin()
        txn.insert("position", {"member_id": 1, "company": "li", "title": "x"})
        txn.commit()
        capture.poll()
        members = relay.stream_from(0, event_filter=source_filter("member"))
        assert {e.source for e in members} == {"member"}

    def test_partition_filter_partitions_completely(self, source_db, relay,
                                                    capture):
        for member_id in range(40):
            insert_member(source_db, member_id)
        capture.poll()
        seen = set()
        for partition in range(4):
            events = relay.stream_from(
                0, event_filter=partition_filter(4, partition))
            for event in events:
                assert event.key not in seen
                seen.add(event.key)
        assert len(seen) == 40

    def test_partition_filter_validation(self):
        with pytest.raises(ValueError):
            partition_filter(4, 4)

    def test_sharded_capture_one_buffer_per_partition(self, source_db):
        relay = Relay("sharded")
        from repro.databus import capture_from_binlog

        def route(event):
            return f"p{event.key[0] % 2}"

        capture = capture_from_binlog(source_db, relay, route=route)
        for member_id in range(6):
            insert_member(source_db, member_id)
        capture.poll()
        assert relay.buffer_names() == ["p0", "p1"]
        p0 = relay.stream_from(0, buffer_name="p0")
        p1 = relay.stream_from(0, buffer_name="p1")
        assert len(p0) == 3 and len(p1) == 3
        assert all(e.end_of_window for e in p0 + p1)

    def test_fanout_does_not_touch_source(self, source_db, relay, capture):
        insert_member(source_db, 1)
        capture.poll()
        commits_before = source_db.commits
        for _ in range(100):
            relay.stream_from(0)
        assert source_db.commits == commits_before
        assert relay.requests_served == 100


def test_updates_capture_new_row_image(source_db, relay, capture):
    insert_member(source_db, 1, name="before")
    update_member(source_db, 1, name="after")
    capture.poll()
    events = relay.stream_from(0)
    assert events[0].kind is ChangeKind.INSERT
    assert events[1].kind is ChangeKind.UPDATE
    schema = relay.schemas.latest("member")
    assert decode_record(schema, events[1].payload)["name"] == "after"
