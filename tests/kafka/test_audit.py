"""EXP-K6: the audit pipeline detects loss (and confirms completeness).

The reconciler reads both sides of the audit; ``CountConservation`` is
the one comparison: a per-window deficit is ``lost-messages``, a surplus
``duplicated-messages``."""

import pytest

from repro.audit import CountConservation
from repro.common.clock import SimClock
from repro.common.errors import OverloadError
from repro.kafka import KafkaCluster
from repro.kafka.audit import AUDIT_TOPIC, AuditingProducer, AuditReconciler


@pytest.fixture
def setup():
    clock = SimClock()
    cluster = KafkaCluster(num_brokers=2, data_root="kafka",
                           clock=clock, partitions_per_topic=4)
    cluster.create_topic("activity")
    cluster.create_topic(AUDIT_TOPIC, partitions=1)
    yield cluster, clock
    cluster.shutdown()


def findings(cluster) -> list[tuple]:
    """``(kind, (topic, window), claimed, observed)`` per violated
    bucket of the ``activity`` audit; empty when the counts agree."""
    reconciler = AuditReconciler(cluster, ["activity"])
    check = CountConservation("kafka-audit", "kafka:activity",
                              reconciler.produced, reconciler.consumed)
    return [(v.kind, v.raw_key, v.expected, v.actual) for v in check.check()]


def test_counts_match_when_nothing_lost(setup):
    cluster, clock = setup
    producers = [AuditingProducer(cluster, f"app-{i:02d}", clock=clock)
                 for i in range(3)]
    for tick in range(50):
        clock.advance(1.0)
        for producer in producers:
            producer.send("activity", {"event": "page_view", "n": tick})
    for producer in producers:
        producer.flush()
        producer.publish_monitoring_events()
    assert findings(cluster) == []
    produced = AuditReconciler(cluster, ["activity"]).produced()
    assert sum(produced.values()) == 150


def test_windows_aggregate_across_producers(setup):
    cluster, clock = setup
    a = AuditingProducer(cluster, "app-a", clock=clock)
    b = AuditingProducer(cluster, "app-b", clock=clock)
    a.send("activity", {"x": 1})
    b.send("activity", {"x": 2})
    clock.advance(15.0)
    a.send("activity", {"x": 3})
    a.flush()
    b.flush()
    a.publish_monitoring_events()
    b.publish_monitoring_events()
    produced = AuditReconciler(cluster, ["activity"]).produced()
    assert produced[("activity", 0)] == 2
    assert produced[("activity", 1)] == 1
    assert findings(cluster) == []


def test_loss_detected(setup):
    """Simulate loss: monitoring says N were produced, but some data
    messages never reached the cluster."""
    cluster, clock = setup
    producer = AuditingProducer(cluster, "app-a", clock=clock)
    for i in range(10):
        producer.send("activity", {"i": i})
    producer.flush()
    # claim 3 more than were actually published
    producer._counts[("activity", 0)] += 3
    producer.publish_monitoring_events()
    assert findings(cluster) == [
        ("lost-messages", ("activity", 0), "13 messages", "10 messages")]


def test_default_clock_is_the_cluster_clock(setup):
    """No hidden wall clock: windows must bucket on the same
    deterministic time source as everything else in a simulation."""
    cluster, clock = setup
    producer = AuditingProducer(cluster, "app-a")
    assert producer.clock is cluster.clock is clock
    clock.advance(25.0)
    producer.send("activity", {"x": 1})
    producer.flush()
    producer.publish_monitoring_events()
    produced = AuditReconciler(cluster, ["activity"]).produced()
    assert produced == {("activity", 2): 1}  # window 25//10


def test_producer_crash_loses_unflushed_batch_and_audit_says_so(setup):
    """The §V.D failure the audit trail exists for: a producer counts
    and claims messages, crashes with the data batch unflushed, and the
    loss surfaces as a per-window deficit — permanently, even after a
    replacement producer comes up and behaves."""
    cluster, clock = setup
    producer = AuditingProducer(cluster, "app-a", batch_size=1000)
    for i in range(7):
        producer.send("activity", {"i": i})
    producer.publish_monitoring_events()   # claims land on the audit topic
    del producer                           # crash: the data batch dies

    lost = ("lost-messages", ("activity", 0), "7 messages", "0 messages")
    assert findings(cluster) == [lost]

    clock.advance(30.0)                    # restart in a fresh window
    replacement = AuditingProducer(cluster, "app-a", batch_size=1000)
    replacement.send("activity", {"i": 99})
    replacement.flush()
    replacement.publish_monitoring_events()
    assert findings(cluster) == [lost]     # old loss persists, nothing else
    produced = AuditReconciler(cluster, ["activity"]).produced()
    assert produced[("activity", 3)] == 1  # new window is clean


def test_lost_monitoring_events_show_as_unaccounted(setup):
    """The dual failure: data arrived but the producer died before
    claiming it — consumed exceeds every claim for the window."""
    cluster, clock = setup
    producer = AuditingProducer(cluster, "app-a")
    for i in range(4):
        producer.send("activity", {"i": i})
    producer.flush()
    del producer  # crash before publish_monitoring_events
    assert findings(cluster) == [
        ("duplicated-messages", ("activity", 0), "0 messages", "4 messages")]


def test_unflushed_messages_show_as_missing_until_flush(setup):
    cluster, clock = setup
    producer = AuditingProducer(cluster, "app-a", clock=clock,
                                batch_size=1000)
    for i in range(5):
        producer.send("activity", {"i": i})
    producer.publish_monitoring_events()  # flushes the audit topic only
    # data messages still sitting in the producer batch
    assert findings(cluster) == [
        ("lost-messages", ("activity", 0), "5 messages", "0 messages")]
    producer.flush()
    assert findings(cluster) == []


def test_a_shed_send_is_still_claimed():
    """A send that fills a batch raises when the broker sheds the
    publish, but the payload was queued first: the failed publish puts
    the batch back and it ships on the next flush.  The producer must
    claim it, or the audit reports the shipped messages as duplicates
    nobody made."""
    cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                           clock=SimClock(), admission_rate=1.0,
                           admission_burst=1.0)
    cluster.create_topic("activity", partitions=1)
    cluster.create_topic(AUDIT_TOPIC, partitions=1)
    producer = AuditingProducer(cluster, "app-a", batch_size=2)
    shed = 0
    for i in range(6):
        try:
            producer.send("activity", {"i": i})
        except OverloadError:
            shed += 1
    assert shed == 5      # a write needs more than a one-token burst holds
    cluster.brokers[0].admission = None   # the broker stops shedding
    producer.flush()
    producer.publish_monitoring_events()
    reconciler = AuditReconciler(cluster, ["activity"])
    assert reconciler.consumed() == {("activity", 0): 6}
    assert findings(cluster) == []
    cluster.shutdown()


def test_a_message_larger_than_the_fetch_window_is_counted(setup):
    """Regression: the reconciler's consumer stopped at a frame larger
    than its fetch window, so the audit reported the messages at and
    after it as lost."""
    cluster, clock = setup
    producer = AuditingProducer(cluster, "app-00", clock=clock)
    for blob in ("small", "x" * 400_000, "small"):
        producer.send("activity", {"blob": blob})
    producer.flush()
    producer.publish_monitoring_events()
    assert findings(cluster) == []
    consumed = AuditReconciler(cluster, ["activity"]).consumed()
    assert sum(consumed.values()) == 3
