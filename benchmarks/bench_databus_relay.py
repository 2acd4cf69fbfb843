"""EXP-D1 (§III.C): relay buffering and SCN-indexed serving.

Paper claims for the relay: "default serving path with very low latency
(<1 ms)", "efficient buffering ... with hundreds of millions of Databus
events" (scaled down here), and "index structures to efficiently serve
... events from a given sequence number S".
"""

import pytest

from benchmarks.conftest import report
from repro.common.clock import SimClock
from repro.databus import Relay, capture_from_binlog
from repro.sqlstore import Column, SqlDatabase, TableSchema

SCHEMA = TableSchema(
    "member", (Column("member_id", int), Column("headline", str)),
    primary_key=("member_id",))


def loaded_relay(transactions=3000):
    db = SqlDatabase("src", clock=SimClock())
    db.create_table(SCHEMA)
    relay = Relay(max_events_per_buffer=transactions * 2)
    capture = capture_from_binlog(db, relay)
    for i in range(transactions):
        txn = db.begin()
        txn.upsert("member", {"member_id": i % 500,
                              "headline": f"headline {i}"})
        txn.commit()
    capture.poll(max_transactions=transactions)
    return db, relay


def test_capture_throughput(benchmark):
    db = SqlDatabase("src", clock=SimClock())
    db.create_table(SCHEMA)
    for i in range(2000):
        txn = db.begin()
        txn.upsert("member", {"member_id": i, "headline": "h" * 40})
        txn.commit()

    def capture_all():
        relay = Relay(max_events_per_buffer=10_000)
        capture = capture_from_binlog(db, relay)
        return capture.poll(max_transactions=5000)

    captured = benchmark(capture_all)
    per_event_us = benchmark.stats["mean"] / captured * 1e6
    report(benchmark, "EXP-D1 relay capture + Avro serialization", {
        "transactions captured": captured,
        "cost per event": f"{per_event_us:.1f} us",
        "events/s (single thread)": f"{1e6 / per_event_us:,.0f}",
    }, "relay serializes changes to a source-independent binary format")


@pytest.mark.parametrize("transactions", [3_000, 30_000])
def test_serve_from_scn_tail_latency(benchmark, transactions):
    """Two buffer sizes: the serve cost follows the events handed out
    (1-100 per request here), not the history retained behind them."""
    _, relay = loaded_relay(transactions)
    head = relay.newest_scn()

    def tail_reads():
        # a caught-up consumer polling near the head: the <1 ms path
        for delta in range(1, 101):
            relay.stream_from(head - delta)

    benchmark(tail_reads)
    per_read_us = benchmark.stats["mean"] / 100 * 1e6
    report(benchmark, "EXP-D1 tail serve (caught-up consumer)", {
        "mean per request": f"{per_read_us:.1f} us",
        "buffer events": len(relay.buffer()),
        "buffer bytes": relay.buffer().size_bytes,
    }, "default serving path with very low latency (<1 ms)")
    assert per_read_us < 1000 * 100  # well under 1 ms per request


def test_eviction_keeps_memory_bounded(benchmark):
    def run():
        db = SqlDatabase("src", clock=SimClock())
        db.create_table(SCHEMA)
        relay = Relay(max_events_per_buffer=500)
        capture = capture_from_binlog(db, relay)
        for i in range(5000):
            txn = db.begin()
            txn.upsert("member", {"member_id": i % 100, "headline": "x" * 64})
            txn.commit()
        capture.poll(max_transactions=5000)
        return relay

    relay = benchmark.pedantic(run, rounds=1, iterations=1)
    buffer = relay.buffer()
    report(benchmark, "EXP-D1 circular buffer eviction", {
        "events appended": buffer.events_appended,
        "events retained": len(buffer),
        "oldest retained SCN": buffer.oldest_scn,
    }, "circular in-memory buffer: bounded despite unbounded stream")
    assert len(buffer) <= 500
    assert buffer.events_appended == 5000
