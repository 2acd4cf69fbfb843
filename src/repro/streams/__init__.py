"""Samza-style stream processing over Kafka (§V; ROADMAP item 4).

A *job* is a DAG of stages; each stage runs ``partitions`` stateful
tasks; task ``i`` owns partition ``i`` of every input topic.  Local
keyed state is made durable twice over: a **changelog topic** carries
each commit's mutated keys as idempotent upserts, and periodic
**snapshots** on the container's disk bound replay.  A killed container
recovers by snapshot-load + changelog replay to its checkpointed input
offsets — the log+snapshot bootstrap shape Databus already uses
(DESIGN.md §9), applied to stream compute.  Placement is plain Helix:
containers are participants, tasks are ONLINE_OFFLINE partitions.
"""

from repro.streams.state import (
    KeyedStateStore,
    load_snapshot,
    write_snapshot,
)
from repro.streams.changelog import (
    ChangelogWriter,
    changelog_topic,
    compact_changelog,
    replay_changelog,
)
from repro.streams.task import (
    Envelope,
    MessageCollector,
    SEEN_PREFIX,
    StageSpec,
    StreamTask,
    TaskContext,
    TaskInstance,
    encode_stream_message,
    route_key,
)
from repro.streams.job import JobCoordinator, StreamJobSpec
from repro.streams.container import StreamContainer

__all__ = [
    "KeyedStateStore",
    "load_snapshot",
    "write_snapshot",
    "ChangelogWriter",
    "changelog_topic",
    "compact_changelog",
    "replay_changelog",
    "Envelope",
    "MessageCollector",
    "SEEN_PREFIX",
    "StageSpec",
    "StreamTask",
    "TaskContext",
    "TaskInstance",
    "encode_stream_message",
    "route_key",
    "JobCoordinator",
    "StreamJobSpec",
    "StreamContainer",
]
