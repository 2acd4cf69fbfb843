"""The end-to-end audit pipeline (§V.D).

"Each message carries the timestamp and the server name when they are
generated.  We instrument each producer such that it periodically
generates a monitoring event, which records the number of messages
published by that producer for each topic within a fixed time window.
The producer publishes the monitoring events to Kafka in a separate
topic.  The consumers can then count the number of messages that they
have received from a given topic and validate those counts with the
monitoring events to validate the correctness of data."
"""

from __future__ import annotations

import json

from repro.common.clock import Clock
from repro.common.errors import NodeUnavailableError, OverloadError
from repro.kafka.broker import KafkaCluster
from repro.kafka.consumer import SimpleConsumer
from repro.kafka.producer import Producer

AUDIT_TOPIC = "_audit"
#: the audit window: producers count and the reconciler buckets by it
WINDOW_SECONDS = 10.0


def _window_of(timestamp: float) -> int:
    return int(timestamp // WINDOW_SECONDS)


class AuditingProducer:
    """A producer wrapper that counts what it publishes per window."""

    def __init__(self, cluster: KafkaCluster, server_name: str,
                 clock: Clock | None = None, batch_size: int = 100):
        self.server_name = server_name
        # default to the *cluster's* clock, not a fresh WallClock: under
        # a SimClock the message timestamps — and therefore the audit
        # windows — must come from the same deterministic time source as
        # everything else, or same-seed runs bucket differently
        self.clock = clock if clock is not None else cluster.clock
        self._producer = Producer(cluster, batch_size=batch_size)
        # (topic, window) -> count
        self._counts: dict[tuple[str, int], int] = {}

    def send(self, topic: str, payload: dict) -> None:
        """Publish a JSON event stamped with timestamp + server name.

        The message is counted once it is queued.  A send that fills a
        batch whose publish is shed or fails still raises, but the batch
        went back in the queue and ships on a later flush, so its
        messages remain this window's to claim."""
        stamped = dict(payload)
        stamped["timestamp"] = self.clock.now()
        stamped["server"] = self.server_name
        key = (topic, _window_of(stamped["timestamp"]))
        try:
            self._producer.send(topic, json.dumps(stamped).encode())
        except (NodeUnavailableError, OverloadError):
            # without max_pending only the publish raises these, after
            # the payload was queued
            self._counts[key] = self._counts.get(key, 0) + 1
            raise
        self._counts[key] = self._counts.get(key, 0) + 1

    def publish_monitoring_events(self) -> int:
        """Emit one monitoring event per (topic, window) counted so far.

        Published as one immediate set on the audit topic; pending data
        batches are left alone (they flush on their own schedule, which
        is exactly the gap the audit exists to expose).
        """
        events = []
        for (topic, window), count in sorted(self._counts.items()):
            events.append(json.dumps({
                "producer": self.server_name,
                "topic": topic,
                "window": window,
                "count": count,
            }).encode())
        self._counts.clear()
        if events:
            self._producer.send_set(AUDIT_TOPIC, events)
        return len(events)

    def flush(self) -> None:
        self._producer.flush()


class AuditReconciler:
    """Reads both sides of the audit, per ``(topic, window)``: what the
    producers claimed on the audit topic and what the data topics hold.
    ``CountConservation(name, subject, reconciler.produced,
    reconciler.consumed)`` compares them — a deficit is lost messages, a
    surplus duplicated ones."""

    def __init__(self, cluster: KafkaCluster, topics: list[str]):
        self.cluster = cluster
        self.topics = list(topics)
        self._consumer = SimpleConsumer(cluster)

    def produced(self) -> dict[tuple[str, int], int]:
        """Counts claimed by the monitoring events, summed over
        producers."""
        counts: dict[tuple[str, int], int] = {}
        for decoded in self._fetch_all(AUDIT_TOPIC):
            event = json.loads(decoded)
            key = (event["topic"], event["window"])
            counts[key] = counts.get(key, 0) + event["count"]
        return counts

    def consumed(self) -> dict[tuple[str, int], int]:
        """Data messages on the audited topics, bucketed by the window
        of their producer timestamp."""
        counts: dict[tuple[str, int], int] = {}
        for topic in self.topics:
            for payload in self._fetch_all(topic):
                message = json.loads(payload)
                key = (topic, _window_of(message["timestamp"]))
                counts[key] = counts.get(key, 0) + 1
        return counts

    def _fetch_all(self, topic: str) -> list[bytes]:
        payloads = []
        for tp in self.cluster.topic_layout(topic):
            offset = 0
            while True:
                fetched_from = offset
                for payload, offset in self._consumer.fetch(
                        topic, tp.partition, offset):
                    payloads.append(payload)
                if offset == fetched_from:
                    break
        return payloads
