"""Per-task changelog topics: remote durability for task-local state.

At every commit the records a task's store drained — one absolute
upsert or tombstone per key it mutated (:mod:`repro.streams.state`) —
are published to partition ``task_id`` of the store's changelog topic,
a regular Kafka topic named ``__changelog-<job>-<store>``.  This module
is transport only: it moves record bytes and never looks inside one.
The changelog is the authority a task restores from when its container
dies on a node whose local snapshot is gone (SNIPPETS.md §8: "state is
restored by replaying the changelog into the local store").

**Compaction.**  Once a snapshot barrier — the store's full image,
republished into the changelog from offset ``X`` — is checkpointed,
every record below ``X`` is redundant: the barrier *is* the
last-value-wins fold of that prefix.  Compaction therefore drops whole
leading segments that end at or below ``X`` — prefix truncation is
exactly key-based compaction here, because a barrier covers **all**
keys.  A task takes a barrier only once the records published since its
last one (the *tail*) have reached its live key count, so a partition
holds at most the last barrier, the tail and the one segment ``X``
falls in.  The broker's recovery contract is untouched: compaction only
removes bytes a durable barrier already carries.

A commit's records go out as one message set, so the per-commit cost is
one append + one fsync instead of one per mutation — the group-commit
shape ROADMAP item 1 asks for.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError, ReproError
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import MessageSet, decode_span


def changelog_topic(job: str, store: str) -> str:
    """The reserved topic name for one job's one store."""
    return f"__changelog-{job}-{store}"


class ChangelogWriter:
    """Publishes one (topic, partition)'s records, a commit at a time."""

    def __init__(self, cluster: KafkaCluster, topic: str, partition: int):
        self.cluster = cluster
        self.topic = topic
        self.partition = partition
        self.mutations_logged = 0
        self.flushes = 0

    def flush(self, records: list[bytes]) -> int:
        """Publish ``records`` as one message set and fsync; returns the
        durable end offset (high watermark) of the changelog partition.

        The returned offset is what the task checkpoints: everything
        below it is recoverable, and recovery replays exactly up to it.
        """
        broker = self.cluster.broker_for(self.topic, self.partition)
        log = broker.log(self.topic, self.partition)
        if records:
            broker.produce(self.topic, self.partition,
                           MessageSet.from_payloads(records))
            self.mutations_logged += len(records)
            self.flushes += 1
        log.flush()  # make every published byte durable and visible
        return log.high_watermark

    def durable_end(self) -> int:
        """The partition's current durable end, without writing."""
        return self.cluster.broker_for(
            self.topic, self.partition).log(
            self.topic, self.partition).high_watermark


def replay_changelog(cluster: KafkaCluster, topic: str, partition: int,
                     start: int, stop: int,
                     fetch_max_bytes: int = 1 << 20
                     ) -> list[bytes]:
    """The changelog records in ``[start, stop)``, in append order.

    ``stop`` is the checkpointed durable end: records past it are
    *uncommitted* mutations a crashed incarnation published but never
    checkpointed — replaying them would resurrect state the input
    offsets do not cover, so the replay hard-stops at the boundary.

    A record larger than ``fetch_max_bytes`` comes back whole (the log
    never cuts the frame a read starts at).  A log that ends below
    ``stop``, mid-frame or on a frame boundary, raises
    :class:`ReproError` rather than restore a prefix.
    """
    if stop < start:
        raise ConfigurationError(
            f"changelog replay range reversed: [{start}, {stop})")
    broker = cluster.broker_for(topic, partition)
    records: list[bytes] = []
    offset = start
    while offset < stop:
        data = broker.fetch(topic, partition, offset,
                            max_bytes=min(fetch_max_bytes, stop - offset))
        if not data:
            raise ReproError(
                f"{topic}-{partition} ends at {offset}, below the "
                f"checkpointed end {stop}")
        before = offset
        for payload, next_offset in decode_span(data, base_offset=offset):
            if next_offset > stop:
                return records  # the frame straddles ``stop``: uncommitted
            records.append(payload)
            offset = next_offset
        if offset == before:            # the log ends inside this frame
            if offset + len(data) < stop:
                raise ReproError(
                    f"{topic}-{partition} ends mid-frame at "
                    f"{offset + len(data)}, below the checkpointed end {stop}")
            break
    return records


def compact_changelog(cluster: KafkaCluster, topic: str, partition: int,
                      below_offset: int) -> int:
    """Drop leading whole segments durably covered by a barrier.

    Returns the number of segments deleted.  Never touches bytes at or
    above ``below_offset`` — a replay starting there still works.
    """
    log = cluster.broker_for(topic, partition).log(topic, partition)
    return log.delete_segments_below(below_offset)
