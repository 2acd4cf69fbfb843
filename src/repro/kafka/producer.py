"""The producer (§V.A, §V.C).

"Each producer can publish a message to either a randomly selected
partition or a partition semantically determined by a partitioning key
and a partitioning function."  Batching ("the producer can send a set
of messages in a single publish request") and optional compression of
each batch (§V.B) are the two levers the throughput benchmarks sweep.

Publishing runs under the shared resilience layer
(:mod:`repro.common.resilience`): a transient broker failure is retried
with backoff, and for replicated topics each retry first runs
``handle_failures()`` so the re-send lands on the newly elected leader.
A batch that still cannot be published is re-queued, so no message is
silently dropped — ``messages_acked`` counts exactly the messages the
cluster accepted.
"""

from __future__ import annotations

import random

from repro.common.errors import (
    BackpressureError,
    ConfigurationError,
    NodeUnavailableError,
    OverloadError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.resilience import RetryPolicy, call_with_retries
from repro.common.ring import partition32
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import MessageSet
from repro.kafka.replication import ReplicatedTopic


class Producer:
    """A batching producer bound to one cluster."""

    def __init__(self, cluster: KafkaCluster, batch_size: int = 50,
                 compress: bool = False, seed: int = 0, retry_policy: RetryPolicy | None = None,
                 max_pending: int | None = None):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if max_pending is not None and max_pending < batch_size:
            raise ConfigurationError("max_pending must be >= batch_size")
        self.cluster = cluster
        self.batch_size = batch_size
        # backpressure bound: with max_pending set, send() refuses to
        # buffer past it (BackpressureError) instead of growing the
        # unacked backlog without limit while the cluster is down or
        # shedding — the caller must drain or slow down
        self.max_pending = max_pending
        self.compress = compress
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(0)
        self.metrics = MetricsRegistry()
        # topic -> ReplicatedTopic for topics under leader/follower
        # replication; their produce path goes through the leader and
        # survives leader crashes via re-election between retries
        self._replicated: dict[str, ReplicatedTopic] = {}
        # (topic, partition) -> pending payloads, framed at publish
        self._batches: dict[tuple[str, int], list[bytes]] = {}
        # topic -> partition count: layouts are fixed at creation, so
        # the per-send lookup is paid once per topic
        self._partition_counts: dict[str, int] = {}
        self.messages_sent = 0
        self.messages_acked = 0
        self.bytes_on_wire = 0
        self.publish_requests = 0

    def attach_replicated(self, replicated: ReplicatedTopic) -> None:
        """Route this topic's publishes through its replication layer."""
        self._replicated[replicated.topic] = replicated
        self._partition_counts.pop(replicated.topic, None)

    def _partition_count(self, topic: str) -> int:
        replicated = self._replicated.get(topic)
        if replicated is not None:
            return len(replicated.partitions)
        return len(self.cluster.topic_layout(topic))

    def _choose_partition(self, topic: str, key: bytes | None) -> int:
        count = self._partition_counts.get(topic)
        if count is None:
            count = self._partition_counts[topic] = \
                self._partition_count(topic)
        if key is None:
            return self._rng.randrange(count)
        return partition32(key, count)

    def send(self, topic: str, payload: bytes,
             key: bytes | None = None) -> None:
        """Queue one message; batches flush automatically at batch_size.

        Raises :class:`BackpressureError` when ``max_pending`` messages
        are already buffered unacked."""
        if self.max_pending is not None:
            self._check_backpressure(1)
        count = self._partition_counts.get(topic)
        if key is None and count is not None:
            # randrange(count), inline and without its argument checks:
            # the getrandbits draws CPython's _randbelow makes, so a
            # seed picks the partitions it always picked, at a fraction
            # of the cost (tests/kafka pins the stream to randrange's)
            getrandbits = self._getrandbits
            bits = count.bit_length()
            partition = getrandbits(bits)
            while partition >= count:
                partition = getrandbits(bits)
        else:
            partition = self._choose_partition(topic, key)
        batch = self._batches.get((topic, partition))
        if batch is None:
            batch = self._batches.setdefault((topic, partition), [])
        batch.append(payload)
        if len(batch) >= self.batch_size:
            self._publish(topic, partition)

    def send_set(self, topic: str, payloads: list[bytes],
                 key: bytes | None = None) -> None:
        """Publish several payloads as one request (the sample code's
        ``producer.send("topic1", set)``)."""
        if self.max_pending is not None:
            self._check_backpressure(len(payloads))
        partition = self._choose_partition(topic, key)
        self._batches.setdefault((topic, partition), []).extend(payloads)
        self._publish(topic, partition)

    def _check_backpressure(self, incoming: int) -> None:
        if self.pending + incoming > self.max_pending:
            self.metrics.counter("produce.backpressure").increment()
            raise BackpressureError(
                f"{self.pending} messages already pending (bound "
                f"{self.max_pending}); drain with flush() or slow down")

    def _produce_once(self, topic: str, partition: int,
                      message_set: MessageSet) -> None:
        replicated = self._replicated.get(topic)
        if replicated is not None:
            replicated.produce(partition, message_set)
        else:
            self.cluster.broker_for(topic, partition).produce(
                topic, partition, message_set)

    def _publish(self, topic: str, partition: int) -> None:
        batch = self._batches.pop((topic, partition), [])
        if not batch:
            return
        message_set = MessageSet.from_payloads(batch)
        if self.compress:
            message_set = message_set.deflated()

        replicated = self._replicated.get(topic)

        def on_retry(_retry_number, _exc):
            # repair before re-sending: elect a new leader from the ISR
            # so the retry targets a live broker
            if replicated is not None:
                replicated.handle_failures()

        try:
            call_with_retries(
                lambda: self._produce_once(topic, partition, message_set),
                clock=self.cluster.clock, policy=self.retry_policy,
                rng=self._retry_rng, retry_on=(NodeUnavailableError,),
                metrics=self.metrics, name="produce", on_retry=on_retry)
        except (NodeUnavailableError, OverloadError):
            # not acked: put the batch back so a later flush (after the
            # cluster heals or stops shedding) can deliver it — nothing
            # silently dropped.  Sheds are deliberately NOT retried
            # in-line here: re-sending into an overloaded broker is the
            # retry-amplification this layer exists to prevent.
            self._batches.setdefault((topic, partition), [])[:0] = batch
            raise
        self.messages_sent += len(batch)
        self.messages_acked += len(batch)
        self.bytes_on_wire += message_set.wire_size
        self.publish_requests += 1

    def flush(self) -> None:
        """Publish every pending batch."""
        for topic, partition in list(self._batches):
            self._publish(topic, partition)

    @property
    def pending(self) -> int:
        """Messages queued but not yet acknowledged by the cluster."""
        return sum(len(b) for b in self._batches.values())
