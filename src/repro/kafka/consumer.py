"""Consumers, consumer groups, and Zookeeper rebalancing (§V.B-C).

Key design points reproduced from the paper:

* consumption is **pull**: each fetch names an offset and a byte
  budget; "the consumer is issuing asynchronous pull requests to the
  broker to have a buffer of data ready";
* a fetch returns a **span**: :meth:`SimpleConsumer.fetch` makes the
  request and hands back :func:`~repro.kafka.message.decode_span` over
  the raw range, so the range is walked once, as the caller iterates,
  and each message costs its payload copy and whatever the caller
  builds from it — :meth:`MessageStream.poll` builds one
  :class:`FetchedMessage`, the streams tier builds an envelope, nobody
  builds a list of intermediate message objects.  A reader that stops
  early stops where ``next_offset`` advances, never inside a
  compressed wrapper;
* **consumer-held state**: "the information about how much each
  consumer has consumed is not maintained by the broker, but by the
  consumer itself" — offsets live with the consumer and are
  checkpointed to Zookeeper;
* **rewind**: "a consumer can deliberately rewind back to an old
  offset and re-consume data";
* **groups**: "each message is delivered to only one of the consumers
  within the group", the unit of parallelism is the partition, and
  rebalancing is coordinated through Zookeeper watches on broker and
  consumer membership (§V.C).

:class:`BrokerAckTracker` is the ablation baseline: broker-side
per-consumer acknowledgement state, to quantify what consumer-held
offsets avoid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import (
    ConfigurationError,
    NodeUnavailableError,
    OffsetOutOfRangeError,
    RebalanceInProgressError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.resilience import RetryPolicy, call_with_retries
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import decode_span
from repro.kafka.replication import ReplicatedTopic
from repro.zookeeper import CreateMode, NodeExistsError, NoNodeError


@dataclass(slots=True)
class FetchedMessage:
    """What the stream hands to application code."""

    topic: str
    partition: int
    payload: bytes
    next_offset: int


class SimpleConsumer:
    """Offset-explicit consumption from one cluster (no group logic).

    Topics attached via :meth:`attach_replicated` are fetched through
    their replication layer: a fetch that lands on a dead leader is
    retried under the configured :class:`RetryPolicy`, triggering a
    leader re-election between attempts so the consumer follows the
    partition to its new leader.
    """

    def __init__(self, cluster: KafkaCluster, fetch_max_bytes: int = 300 * 1024,
                 retry_policy: RetryPolicy | None = None):
        self.cluster = cluster
        self.fetch_max_bytes = fetch_max_bytes
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(0)
        self.metrics = MetricsRegistry()
        self._replicated: dict[str, ReplicatedTopic] = {}
        self.fetch_requests = 0
        self.bytes_fetched = 0

    def attach_replicated(self, replicated: ReplicatedTopic) -> None:
        """Route this topic's fetches through its replication layer."""
        self._replicated[replicated.topic] = replicated

    def _fetch_raw(self, topic: str, partition: int, offset: int) -> bytes:
        replicated = self._replicated.get(topic)
        if replicated is None:
            broker = self.cluster.broker_for(topic, partition)
            return broker.fetch(topic, partition, offset, self.fetch_max_bytes)

        def on_retry(_retry_number, _exc):
            replicated.handle_failures()

        return call_with_retries(
            lambda: replicated.fetch(partition, offset, self.fetch_max_bytes),
            clock=self.cluster.clock, policy=self.retry_policy,
            rng=self._retry_rng, retry_on=(NodeUnavailableError,),
            metrics=self.metrics, name="fetch", on_retry=on_retry)

    def fetch(self, topic: str, partition: int,
              offset: int) -> Iterator[tuple[bytes, int]]:
        """One pull request: ``(payload, next_offset)`` for each message
        from ``offset`` onward.

        The request is made here; the fetched span is decoded as the
        caller iterates (:func:`~repro.kafka.message.decode_span`), so
        nothing is built per message beyond what the caller keeps, and
        an empty fetch is an iterator that yields nothing.
        """
        data = self._fetch_raw(topic, partition, offset)
        self.fetch_requests += 1
        self.bytes_fetched += len(data)
        return decode_span(data, base_offset=offset)

    def earliest_offset(self, topic: str, partition: int) -> int:
        return self.cluster.broker_for(topic, partition).log(
            topic, partition).oldest_offset

    def latest_offset(self, topic: str, partition: int) -> int:
        return self.cluster.broker_for(topic, partition).log(
            topic, partition).high_watermark


class MessageStream:
    """The per-stream iterator of §V.A's sample consumer code.

    Iterates over every available message of the partitions assigned to
    it; when the log is exhausted the iterator stops yielding (a real
    deployment blocks — tests and benches re-iterate after producing
    more).  Offsets advance as messages are consumed and can be
    committed or rewound through the owning consumer.
    """

    def __init__(self, consumer: SimpleConsumer,
                 assignments: list[tuple[str, int]],
                 start_offsets: dict[tuple[str, int], int]):
        self._consumer = consumer
        self.assignments = list(assignments)
        self.offsets = dict(start_offsets)

    def __iter__(self):
        return self.poll_forever()

    def poll_forever(self):
        while True:
            batch = self.poll()
            if not batch:
                return
            for fetched in batch:
                yield fetched

    def poll(self, max_messages: int = 10_000) -> list[FetchedMessage]:
        """Fetch whatever is available, round-robin over partitions.

        ``max_messages`` cuts only where the offset advances: the
        messages of one compressed wrapper share a ``next_offset``, so
        they are delivered together or the rest would be skipped.
        """
        out: list[FetchedMessage] = []
        for topic, partition in self.assignments:
            if len(out) >= max_messages:
                break
            offset = self.offsets[(topic, partition)]
            try:
                span = self._consumer.fetch(topic, partition, offset)
            except OffsetOutOfRangeError:
                # retention deleted our position; restart at the oldest
                offset = self._consumer.earliest_offset(topic, partition)
                self.offsets[(topic, partition)] = offset
                span = self._consumer.fetch(topic, partition, offset)
            consumed_to = None
            for payload, next_offset in span:
                if next_offset != consumed_to and len(out) >= max_messages:
                    break
                out.append(FetchedMessage(topic, partition, payload,
                                          next_offset))
                consumed_to = next_offset
            # one store per fetch; a seek() that landed while the fetch
            # was in flight wins over it
            if consumed_to is not None \
                    and self.offsets[(topic, partition)] == offset:
                self.offsets[(topic, partition)] = consumed_to
        return out

    def seek(self, topic: str, partition: int, offset: int) -> None:
        """Rewind (or fast-forward) one partition."""
        if (topic, partition) not in self.offsets:
            raise ConfigurationError(f"stream does not own {topic}-{partition}")
        self.offsets[(topic, partition)] = offset

    def lag(self) -> int:
        """Total unconsumed bytes across assigned partitions."""
        total = 0
        for topic, partition in self.assignments:
            head = self._consumer.latest_offset(topic, partition)
            total += head - self.offsets[(topic, partition)]
        return total


class ConsumerGroupMember:
    """One consumer process inside a group (§V.C).

    Registration, rebalance triggering, partition ownership and offset
    storage all go through Zookeeper, following the paper's three uses:
    membership detection, rebalance triggering, and offset tracking.
    """

    def __init__(self, cluster: KafkaCluster, group: str, consumer_id: str,
                 topics: list[str], fetch_max_bytes: int = 300 * 1024):
        if not topics:
            raise ConfigurationError("subscribe to at least one topic")
        self.cluster = cluster
        self.group = group
        self.consumer_id = consumer_id
        self.topics = list(topics)
        self._consumer = SimpleConsumer(cluster, fetch_max_bytes)
        self._zk = cluster.zookeeper.connect()
        self._needs_rebalance = True
        self.rebalances = 0
        self.stream: MessageStream | None = None
        self._register()

    # -- registration and watches ----------------------------------------------

    def _ids_path(self) -> str:
        return f"/consumers/{self.group}/ids"

    def _offset_path(self, topic: str, partition: int) -> str:
        return f"/consumers/{self.group}/offsets/{topic}/{partition}"

    def _owner_path(self, topic: str, partition: int) -> str:
        return f"/consumers/{self.group}/owners/{topic}/{partition}"

    def _register(self) -> None:
        self._zk.ensure_path(self._ids_path())
        self._zk.create(f"{self._ids_path()}/{self.consumer_id}",
                        data=",".join(self.topics).encode(),
                        mode=CreateMode.EPHEMERAL)
        self._watch_membership()

    def _watch_membership(self) -> None:
        from repro.zookeeper.server import SessionExpiredError

        def on_change(_event):
            self._needs_rebalance = True
            try:
                self._watch_membership()
            except SessionExpiredError:
                pass  # we are shutting down; no more rebalances
        self._zk.get_children(self._ids_path(), watch=on_change)

    # -- rebalancing ----------------------------------------------------------------

    def _group_members(self) -> list[str]:
        return sorted(self._zk.get_children(self._ids_path()))

    def rebalance(self) -> list[tuple[str, int]]:
        """Deterministic range assignment: every member computes the
        same split, so no extra coordination is needed (§V.C)."""
        self.rebalances += 1
        self._release_ownership()
        members = self._group_members()
        assignments: list[tuple[str, int]] = []
        for topic in self.topics:
            partitions = sorted(tp.partition
                                for tp in self.cluster.topic_layout(topic))
            share = _range_assignment(partitions, members, self.consumer_id)
            assignments.extend((topic, p) for p in share)
        claimed: list[tuple[str, int]] = []
        try:
            for topic, partition in assignments:
                self._claim_ownership(topic, partition)
                claimed.append((topic, partition))
        except RebalanceInProgressError:
            # another member has not released yet; back off and retry on
            # the next poll, exactly like the real consumer's retry loop
            for topic, partition in claimed:
                self._zk.delete(self._owner_path(topic, partition))
            raise
        start_offsets = {
            (topic, partition): self._load_offset(topic, partition)
            for topic, partition in assignments
        }
        self._needs_rebalance = False
        self.stream = MessageStream(self._consumer, assignments, start_offsets)
        return assignments

    def _claim_ownership(self, topic: str, partition: int) -> None:
        self._zk.ensure_path(f"/consumers/{self.group}/owners/{topic}")
        try:
            self._zk.create(self._owner_path(topic, partition),
                            data=self.consumer_id.encode(),
                            mode=CreateMode.EPHEMERAL)
        except NodeExistsError as exc:
            raise RebalanceInProgressError(
                f"partition {topic}-{partition} still owned; "
                "previous owner has not released it") from exc

    def _release_ownership(self) -> None:
        if self.stream is None:
            return
        for topic, partition in self.stream.assignments:
            try:
                self._zk.delete(self._owner_path(topic, partition))
            except NoNodeError:
                pass
        self.stream = None

    # -- offsets ------------------------------------------------------------------------

    def _load_offset(self, topic: str, partition: int) -> int:
        try:
            data, _ = self._zk.get(self._offset_path(topic, partition))
            return int(data)
        except NoNodeError:
            return self._consumer.earliest_offset(topic, partition)

    def commit_offsets(self) -> None:
        if self.stream is None:
            return
        for (topic, partition), offset in self.stream.offsets.items():
            path = self._offset_path(topic, partition)
            self._zk.ensure_path(f"/consumers/{self.group}/offsets/{topic}")
            if self._zk.exists(path):
                self._zk.set(path, str(offset).encode())
            else:
                self._zk.create(path, str(offset).encode())

    # -- consumption ---------------------------------------------------------------------

    def poll(self, max_messages: int = 10_000) -> list[FetchedMessage]:
        if self._needs_rebalance:
            try:
                self.rebalance()
            except RebalanceInProgressError:
                return []  # retry on the next poll
        return self.stream.poll(max_messages)

    def close(self, commit: bool = True) -> None:
        if commit:
            self.commit_offsets()
        self._release_ownership()
        self._zk.close()


def _range_assignment(partitions: list[int], members: list[str],
                      me: str) -> list[int]:
    """Contiguous-range split of partitions over sorted members."""
    if me not in members:
        return []
    index = members.index(me)
    count = len(partitions)
    share = count // len(members)
    extra = count % len(members)
    start = index * share + min(index, extra)
    length = share + (1 if index < extra else 0)
    return partitions[start:start + length]


class BrokerAckTracker:
    """Ablation baseline: the broker tracks per-consumer delivery state.

    Traditional messaging systems acknowledge each message per
    consumer; the tracker materializes that cost (one bookkeeping entry
    per in-flight message per consumer) so the benchmark can compare it
    with Kafka's single integer per (consumer, partition).
    """

    def __init__(self):
        # (consumer, topic, partition) -> set of unacked message offsets
        self._unacked: dict[tuple[str, str, int], set[int]] = {}
        self.entries_tracked = 0

    def deliver(self, consumer: str, topic: str, partition: int,
                offset: int) -> None:
        key = (consumer, topic, partition)
        self._unacked.setdefault(key, set()).add(offset)
        self.entries_tracked += 1

    def acknowledge(self, consumer: str, topic: str, partition: int,
                    offset: int) -> None:
        self._unacked.get((consumer, topic, partition), set()).discard(offset)

    def outstanding(self, consumer: str, topic: str, partition: int) -> int:
        return len(self._unacked.get((consumer, topic, partition), set()))

    def total_state_entries(self) -> int:
        return sum(len(v) for v in self._unacked.values())
