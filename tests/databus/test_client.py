"""Client library: checkpoints, switchover, retries, delivery guarantees."""

import pytest

from repro.common.errors import SCNGoneError
from repro.databus import (
    BootstrapServer,
    DatabusClient,
    DatabusConsumer,
    Relay,
    capture_from_binlog,
    partition_filter,
)
from repro.databus.relay import EventBuffer

from tests.databus.conftest import insert_member, update_member


class RecordingConsumer(DatabusConsumer):
    def __init__(self, fail_windows=0):
        self.events = []
        self.windows = []
        self.snapshot_rows = []
        self._fail_windows = fail_windows

    def on_start_window(self, scn):
        if self._fail_windows > 0:
            self._fail_windows -= 1
            raise RuntimeError("transient consumer failure")

    def on_data_event(self, event):
        self.events.append(event)

    def on_end_window(self, scn):
        self.windows.append(scn)

    def on_snapshot_row(self, event):
        self.snapshot_rows.append(event)


@pytest.fixture
def pipeline(source_db, relay):
    capture = capture_from_binlog(source_db, relay)
    bootstrap = BootstrapServer()
    return source_db, relay, capture, bootstrap


def wire_bootstrap(relay, bootstrap):
    """Feed the bootstrap server everything the relay currently holds."""
    bootstrap.on_events(relay.stream_from(bootstrap.high_watermark))


def test_basic_delivery_and_checkpointing(pipeline):
    db, relay, capture, _ = pipeline
    consumer = RecordingConsumer()
    client = DatabusClient(consumer, relay)
    insert_member(db, 1)
    insert_member(db, 2)
    capture.poll()
    delivered = client.poll()
    assert delivered == 2
    assert client.checkpoint == 2
    assert [e.key for e in consumer.events] == [(1,), (2,)]
    assert consumer.windows == [1, 2]
    # nothing new: no redelivery
    assert client.poll() == 0


def test_windows_delivered_atomically(pipeline):
    db, relay, capture, _ = pipeline
    txn = db.begin()
    txn.insert("member", {"member_id": 1, "name": "a", "headline": "h"})
    txn.insert("position", {"member_id": 1, "company": "li", "title": "t"})
    txn.commit()
    capture.poll()
    consumer = RecordingConsumer()
    DatabusClient(consumer, relay).poll()
    assert len(consumer.events) == 2
    assert consumer.windows == [1]  # one end-of-window for both events


def test_consumer_failure_retried_then_succeeds(pipeline):
    db, relay, capture, _ = pipeline
    insert_member(db, 1)
    capture.poll()
    consumer = RecordingConsumer(fail_windows=2)
    client = DatabusClient(consumer, relay, max_retries=3)
    assert client.poll() == 1
    assert client.stats.consumer_retries == 2
    assert consumer.windows == [1]


def test_consumer_failure_aborts_and_redelivers(pipeline):
    db, relay, capture, _ = pipeline
    insert_member(db, 1)
    capture.poll()
    consumer = RecordingConsumer(fail_windows=10)
    client = DatabusClient(consumer, relay, max_retries=1)
    assert client.poll() == 0
    assert client.stats.windows_aborted == 1
    assert client.checkpoint == 0
    # consumer recovers; window is redelivered (at-least-once)
    consumer._fail_windows = 0
    assert client.poll() == 1
    assert consumer.windows == [1]


def test_scn_monotonic_and_gap_free(pipeline):
    db, relay, capture, _ = pipeline
    for member_id in range(20):
        insert_member(db, member_id)
    capture.poll()
    consumer = RecordingConsumer()
    DatabusClient(consumer, relay).run_to_head()
    assert consumer.windows == list(range(1, 21))


def test_switchover_to_bootstrap_delta_and_back(pipeline):
    db, relay, capture, bootstrap = pipeline
    relay._buffers["default"] = EventBuffer(max_events=5)
    consumer = RecordingConsumer()
    client = DatabusClient(consumer, relay, bootstrap)
    # client consumes the first event, then falls far behind
    insert_member(db, 0)
    capture.poll()
    wire_bootstrap(relay, bootstrap)
    client.poll()
    assert client.checkpoint == 1
    for member_id in range(1, 15):
        insert_member(db, member_id)
        capture.poll()
        wire_bootstrap(relay, bootstrap)
    # relay evicted SCN 2..9; poll must bootstrap then resume from relay
    delivered = client.run_to_head()
    assert client.stats.bootstraps == 1
    assert client.stats.delta_bootstraps == 1
    assert client.checkpoint == 15
    # every member seen exactly once despite the switchover
    seen = {e.key for e in consumer.events}
    assert seen == {(i,) for i in range(15)}


def test_new_client_bootstraps_with_snapshot(pipeline):
    db, relay, capture, bootstrap = pipeline
    relay._buffers["default"] = EventBuffer(max_events=3)
    for member_id in range(10):
        insert_member(db, member_id)
        capture.poll()
        wire_bootstrap(relay, bootstrap)
    consumer = RecordingConsumer()
    client = DatabusClient(consumer, relay, bootstrap)  # checkpoint 0, evicted
    client.run_to_head()
    assert client.stats.snapshot_bootstraps == 1
    keys = ({e.key for e in consumer.snapshot_rows}
            | {e.key for e in consumer.events})
    assert keys == {(i,) for i in range(10)}
    assert client.checkpoint == 10


def test_no_bootstrap_configured_raises(pipeline):
    db, relay, capture, _ = pipeline
    relay._buffers["default"] = EventBuffer(max_events=2)
    for member_id in range(8):
        insert_member(db, member_id)
    capture.poll()
    client = DatabusClient(RecordingConsumer(), relay)
    with pytest.raises(SCNGoneError):
        client.poll()


def test_partitioned_consumer_group_covers_stream(pipeline):
    db, relay, capture, _ = pipeline
    for member_id in range(30):
        insert_member(db, member_id)
    capture.poll()
    consumers = [RecordingConsumer() for _ in range(3)]
    clients = [DatabusClient(c, relay, event_filter=partition_filter(3, i))
               for i, c in enumerate(consumers)]
    for client in clients:
        client.run_to_head()
    all_keys = [e.key for c in consumers for e in c.events]
    assert sorted(all_keys) == sorted((i,) for i in range(30))
    # partitioning is real: no consumer saw everything
    assert all(0 < len(c.events) < 30 for c in consumers)


def test_partitioned_group_over_multi_row_transactions(pipeline):
    """Each member of a partitioned group gets exactly the rows that
    hash to it, inside the window they were committed in — also when
    the filter rejects the transaction's last row (§III.B): its
    window-mates must not arrive under the next transaction's SCN, or
    not at all."""
    db, relay, capture, _ = pipeline
    for member_id in range(40):
        txn = db.begin()
        txn.insert("member", {"member_id": member_id, "name": "n",
                              "headline": "h"})
        for company in ("li", "ms"):
            txn.insert("position", {"member_id": member_id,
                                    "company": company, "title": "t"})
        txn.commit()
    capture.poll()
    committed = relay.stream_from(0)

    class WindowRecorder(RecordingConsumer):
        def on_start_window(self, scn):
            self.open_scn = scn

        def on_data_event(self, event):
            assert event.scn == self.open_scn
            super().on_data_event(event)

    group = 3
    consumers = [WindowRecorder() for _ in range(group)]
    for i, consumer in enumerate(consumers):
        DatabusClient(consumer, relay,
                      event_filter=partition_filter(group, i)).poll()
    for i, consumer in enumerate(consumers):
        wanted = [e for e in committed if e.key_hash() % group == i]
        assert [(e.scn, e.source, e.key) for e in consumer.events] == [
            (e.scn, e.source, e.key) for e in wanted]
        assert consumer.windows == sorted({e.scn for e in wanted})


def test_consolidated_delta_after_lag_is_fast_playback(pipeline):
    db, relay, capture, bootstrap = pipeline
    relay._buffers["default"] = EventBuffer(max_events=4)
    insert_member(db, 1)
    capture.poll()
    wire_bootstrap(relay, bootstrap)
    consumer = RecordingConsumer()
    client = DatabusClient(consumer, relay, bootstrap)
    client.poll()
    # the same row updated many times while the client lags
    for i in range(20):
        update_member(db, 1, name=f"rev-{i}")
        capture.poll()
        wire_bootstrap(relay, bootstrap)
    client.run_to_head()
    # far fewer than 20 deliveries thanks to consolidation
    assert len(consumer.events) < 10
    assert client.checkpoint == 21


def test_exp_d4_fanout_costs_relay_reads_never_source_commits(pipeline):
    db, relay, capture, _ = pipeline
    for member in range(500):
        insert_member(db, member)
    capture.poll()
    commits = db.commits
    served = []
    for fanout in (1, 10, 100):
        before = relay.requests_served
        consumers = [RecordingConsumer() for _ in range(fanout)]
        for consumer in consumers:
            DatabusClient(consumer, relay).run_to_head()
        assert all(len(c.events) == 500 for c in consumers)
        served.append((relay.requests_served - before) / fanout)
    assert db.commits == commits          # +0 source commits in every arm
    assert served[0] == served[1] == served[2]   # flat per consumer
