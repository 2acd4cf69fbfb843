"""Partitioned stateful tasks: the unit of stream compute.

A *task* is the Samza unit of parallelism (SNIPPETS.md §8): task ``i``
of a stage owns partition ``i`` of **every** input topic of that
stage, all of its local state, and partition ``i`` of each store's
changelog topic.  Tasks never share state and never talk to each
other except through Kafka topics, which is what makes the whole job
restartable partition by partition.

The commit protocol (the recovery contract, DESIGN.md §16) is::

    1. flush staged *output* messages (fsync)        — at-least-once
    2. drain the stores into their *changelogs* (fsync) — state durable
    3. at a due commit, the snapshot barrier of every store whose
       changelog tail has grown to its image (fsync + local snapshot)
    4. write the checkpoint znode atomically:
         {input offsets, per-store changelog offsets}
    5. compact each barriered changelog below its barrier start, and
       drop each repartition input's segments below its checkpointed
       offset

A store's *tail* is the number of changelog records published since
its last barrier.  Taking a barrier only once the tail has reached the
live key count makes the records a barrier republishes at most the
records drained and replayed before it — O(1) amortised per change,
never per live key — and an idle store is never republished.

Recovery inverts it: load the local snapshot (if this node still has
one), replay the changelog from the snapshot's offset **up to the
checkpointed offset only** — at most the tail, on top of the image;
mutations past the checkpoint belong to inputs whose offsets were
never committed and will be regenerated by reprocessing — then resume
the inputs at the checkpointed offsets.
Because processing is deterministic and changelog records are
idempotent upserts, a failure run converges to the byte-identical
state of a clean run (asserted by the chaos suite).

Messages across *repartition* topics carry a ``(src, src_stream,
src_offset, src_seq)`` stamp; the consuming task keeps a per-producer
high-water mark in its own store and drops duplicates, which turns
the at-least-once redelivery after a crash into effective
exactly-once for downstream state.

A repartition topic is internal and has exactly one reader, the
downstream task (:meth:`StreamJobSpec.stage` refuses a second), whose
checkpoint says how far back it can ever read again.  Step 5 therefore
frees its whole segments below that offset, as Kafka Streams deletes
consumed repartition records after a commit: the topic holds the
uncommitted tail plus at most one segment per partition.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.common.clock import Clock
from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsRegistry
from repro.common.ring import partition32
from repro.common.storage import Disk
from repro.kafka.broker import KafkaCluster
from repro.kafka.consumer import SimpleConsumer
from repro.kafka.message import MessageSet
from repro.streams.changelog import (
    ChangelogWriter,
    changelog_topic,
    compact_changelog,
    replay_changelog,
)
from repro.streams.state import KeyedStateStore, decode_json, \
    encode_json, load_snapshot, write_snapshot
from repro.zookeeper import NoNodeError, ZooKeeperSession

#: reserved state-store key prefix for repartition dedupe watermarks
SEEN_PREFIX = "__seen/"
#: the full repartition stamp; a record short of it is not deduped
_STAMP = frozenset(("src", "src_stream", "src_offset", "src_seq"))


def encode_stream_message(key: str, value: object,
                          timestamp: float) -> bytes:
    """The streams wire format: every payload is this JSON envelope."""
    return encode_json({"key": key, "value": value, "ts": timestamp})


@dataclass(frozen=True)
class Envelope:
    """One decoded input message as handed to ``StreamTask.process``."""

    topic: str
    partition: int
    offset: int          # this message's byte offset
    next_offset: int     # what gets checkpointed after processing it
    key: str
    value: object
    timestamp: float


class StreamTask:
    """User logic: subclass and implement :meth:`process`.

    ``init`` runs once when the task instance opens (state is already
    recovered); ``window`` runs on the container's window cadence for
    time-driven emission.  Both default to no-ops.
    """

    def init(self, context: "TaskContext") -> None:
        pass

    def process(self, envelope: Envelope,
                collector: "MessageCollector") -> None:
        raise NotImplementedError("stream tasks must implement process()")

    def window(self, collector: "MessageCollector") -> None:
        pass


class TaskContext:
    """What a task sees of its own runtime: stores, identity, clock."""

    def __init__(self, stage: str, partition: int,
                 stores: dict[str, KeyedStateStore], clock: Clock,
                 metrics: MetricsRegistry):
        self.stage = stage
        self.partition = partition
        self._stores = stores
        self.clock = clock
        self.metrics = metrics

    def store(self, name: str) -> KeyedStateStore:
        try:
            return self._stores[name]
        except KeyError:
            raise ConfigurationError(
                f"stage {self.stage!r} declares no store {name!r}") from None


class MessageCollector:
    """Buffers a task's emissions; the instance routes them at drain."""

    def __init__(self):
        self._emitted: list[tuple[str, str, object]] = []

    def send(self, topic: str, key: str, value: object) -> None:
        """Emit one keyed message to an output/repartition topic."""
        self._emitted.append((topic, key, value))

    def drain(self) -> list[tuple[str, str, object]]:
        out = self._emitted
        self._emitted = []
        return out


@dataclass(frozen=True)
class StageSpec:
    """One stage of a job: inputs, stores, and the task class."""

    name: str
    inputs: tuple[str, ...]
    task_factory: object                       # Callable[[], StreamTask]
    stores: tuple[str, ...] = ()
    window_interval_s: float = 0.0             # 0 = no window() calls
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("stage needs a name")
        if not self.inputs:
            raise ConfigurationError(f"stage {self.name!r} needs inputs")


def repartition_topic(job: str, label: str) -> str:
    """The reserved topic name for one job's re-keyed hop ``label``;
    ``repartition_topic(job, "")`` is the prefix every one of the job's
    repartition topics starts with."""
    return f"__repartition-{job}-{label}"


def route_key(key: str, partitions: int) -> int:
    """Key → partition: the ring's :func:`partition32` of the key's
    UTF-8 bytes, which is the Kafka producer's key routing, so upstream
    producers and repartition sends agree on placement."""
    return partition32(key.encode(), partitions)


class TaskInstance:
    """One live task: state, changelog, offsets, and the commit loop."""

    def __init__(self, job_name: str, stage: StageSpec, partition: int,
                 cluster: KafkaCluster, zk: ZooKeeperSession,
                 clock: Clock, disk: Disk, data_dir: str,
                 topic_partitions: int,
                 snapshot_interval_commits: int = 8):
        if snapshot_interval_commits < 1:
            raise ConfigurationError("snapshot_interval_commits must be >= 1")
        self.job_name = job_name
        self.stage = stage
        self.partition = partition
        self.cluster = cluster
        self.clock = clock
        self.disk = disk
        self.data_dir = data_dir
        self.topic_partitions = topic_partitions
        self.snapshot_interval_commits = snapshot_interval_commits
        self._zk = zk
        self._consumer = SimpleConsumer(cluster, fetch_max_bytes=1 << 20)
        self.metrics = MetricsRegistry()
        self.task: StreamTask = stage.task_factory()
        self.stores: dict[str, KeyedStateStore] = {}
        self._changelogs: dict[str, ChangelogWriter] = {}
        # store -> changelog records published since its last barrier
        self.changelog_tails: dict[str, int] = {}
        for store_name in stage.stores:
            topic = changelog_topic(job_name, store_name)
            self._changelogs[store_name] = ChangelogWriter(
                cluster, topic, partition)
            self.stores[store_name] = KeyedStateStore(store_name)
        # inputs whose segments this task frees below its checkpoint
        self._repartition_inputs = tuple(
            topic for topic in stage.inputs
            if topic.startswith(repartition_topic(job_name, "")))
        self._collector = MessageCollector()
        # (topic, partition) -> staged output messages
        self._outputs: dict[tuple[str, int], list[bytes]] = {}
        self.input_offsets: dict[tuple[str, int], int] = {}
        self.commits = 0
        self.messages_processed = 0
        self.duplicates_dropped = 0
        self.recovered_from_snapshot = False
        self.replayed_mutations = 0
        self._emit_seq = 0
        self._last_window_at = clock.now()
        self._recover()
        self.task.init(TaskContext(stage.name, partition, self.stores,
                                   clock, self.metrics))

    # -- identity & paths -------------------------------------------------

    @property
    def task_id(self) -> str:
        return f"{self.stage.name}:{self.partition}"

    def _checkpoint_path(self) -> str:
        return (f"/streams/{self.job_name}/checkpoints/"
                f"{self.stage.name}/{self.partition}")

    def _snapshot_path(self, store: str) -> str:
        return (f"{self.data_dir}/{self.job_name}/{self.stage.name}-"
                f"{self.partition}/{store}.snapshot")

    # -- recovery ---------------------------------------------------------

    def _read_checkpoint(self) -> dict | None:
        try:
            data, _ = self._zk.get(self._checkpoint_path())
        except NoNodeError:
            return None
        return decode_json(data)

    def _recover(self) -> None:
        """Snapshot-load + bounded changelog replay + offset restore."""
        checkpoint = self._read_checkpoint()
        for store_name in self.stage.stores:
            store = self.stores[store_name]
            writer = self._changelogs[store_name]
            stop = 0
            if checkpoint is not None:
                stop = int(checkpoint["changelog"].get(store_name, 0))
            start = load_snapshot(self.disk, self._snapshot_path(store_name),
                                  store)
            log = self.cluster.broker_for(
                writer.topic, self.partition).log(
                writer.topic, self.partition)
            if start is None or start > stop or start < log.oldest_offset:
                # no usable local snapshot: first boot, moved container,
                # one written by a *later* incarnation than this
                # checkpoint, or one so stale the changelog suffix it
                # needs was compacted away while the task ran elsewhere.
                # Full replay from the compaction floor — safe because
                # compaction only drops below a snapshot *barrier*, a
                # republished full image, so the floor carries all keys
                store.clear()
                start = min(log.oldest_offset, stop)
                self.recovered_from_snapshot = False
            else:
                self.recovered_from_snapshot = True
            replayed = store.restore(replay_changelog(
                self.cluster, writer.topic, self.partition, start, stop))
            self.changelog_tails[store_name] = replayed
            self.replayed_mutations += replayed
        for topic in self.stage.inputs:
            if checkpoint is not None:
                offset = int(checkpoint["inputs"][topic])
            else:
                offset = self._consumer.earliest_offset(topic, self.partition)
            self.input_offsets[(topic, self.partition)] = offset

    # -- processing -------------------------------------------------------

    def poll(self, max_messages: int = 10_000) -> int:
        """Fetch and process available input; returns messages handled
        (duplicates count — they were fetched — but are not processed).
        """
        handled = 0
        latency = self.metrics.histogram("e2e_latency_s")
        for topic in self.stage.inputs:
            if handled >= max_messages:
                break
            offset = self.input_offsets[(topic, self.partition)]
            span = self._consumer.fetch(topic, self.partition, offset)
            for payload, next_offset in span:
                # cut only where the offset advances: the messages of
                # one compressed wrapper share a next_offset, so the
                # rest of it would be skipped
                if handled >= max_messages and next_offset != offset:
                    break
                record = decode_json(payload)
                envelope = Envelope(
                    topic, self.partition, offset, next_offset,
                    record.get("key", ""), record.get("value"),
                    float(record.get("ts", 0.0)))
                stamp = self._stamp_of(record)
                if stamp is not None and self._is_duplicate(*stamp):
                    self.duplicates_dropped += 1
                else:
                    self.task.process(envelope, self._collector)
                    if stamp is not None:
                        self._dedupe_store().put(*stamp)
                    # the output buffer is process-local and sent at
                    # commit(), where the offsets become durable too: a
                    # crash loses both, so no journal record pairs them
                    self._route_emissions(envelope)  # repro-lint: disable=non-atomic-multi-write
                    self.messages_processed += 1
                    latency.record(
                        max(self.clock.now() - envelope.timestamp, 1e-7))
                offset = next_offset
                # single-writer: a task exclusively owns its input
                # partitions (the Samza invariant), so nothing advances
                # these offsets while process() yields into send buffers
                self.input_offsets[(topic, self.partition)] = offset  # repro-lint: disable=atomicity-violation
                handled += 1
        # offsets only become durable at commit(); the window cadence
        # marker is process-local and never recovered, so the pair
        # needs no joint journal record
        self._maybe_window()  # repro-lint: disable=non-atomic-multi-write
        return handled

    def _dedupe_store(self) -> KeyedStateStore:
        if not self.stage.stores:
            raise ConfigurationError(
                f"stage {self.stage.name!r} consumes a repartition topic "
                "but declares no store to keep dedupe watermarks in")
        return self.stores[self.stage.stores[0]]

    @staticmethod
    def _stamp_of(record: dict) -> tuple[str, list[int]] | None:
        """A repartition record's dedupe mark key and its position
        ``[src_offset, src_seq]``; ``None`` when it carries no full
        stamp.  A ``window()`` emission has no input position to stamp,
        so it is never a duplicate: time-driven output is delivered
        at-least-once."""
        if not record.keys() >= _STAMP:
            return None
        return (f"{SEEN_PREFIX}{record['src']}/{record['src_stream']}",
                [int(record["src_offset"]), int(record["src_seq"])])

    def _is_duplicate(self, mark_key: str, position: list[int]) -> bool:
        """Repartition-input dedupe: drop already-seen (src, offset, seq).

        Kafka preserves per-producer order within a partition and a
        producer task's (src_offset, src_seq) stamps are strictly
        increasing in emission order, so a single high-water mark per
        (producer task, source stream) suffices.
        """
        mark = self._dedupe_store().get(mark_key)
        if mark is None:
            return False
        return position <= [int(mark[0]), int(mark[1])]

    def _route_emissions(self, envelope: Envelope | None) -> None:
        """Stamp and stage everything the collector gathered."""
        for topic, key, value in self._collector.drain():
            partition = route_key(key, self.topic_partitions)
            record = {"key": key, "value": value,
                      "ts": round(self.clock.now(), 9),
                      "src": self.task_id}
            if envelope is not None:
                record["src_stream"] = f"{envelope.topic}:{envelope.partition}"
                record["src_offset"] = envelope.offset
                record["src_seq"] = self._emit_seq
            self._emit_seq += 1
            self._outputs.setdefault((topic, partition), []).append(
                encode_json(record))

    def _maybe_window(self) -> None:
        if self.stage.window_interval_s <= 0:
            return
        now = self.clock.now()
        if now - self._last_window_at >= self.stage.window_interval_s:
            self._last_window_at = now
            self.task.window(self._collector)
            self._route_emissions(None)

    # -- the commit protocol ----------------------------------------------

    def commit(self) -> int:
        """Outputs → changelog → (snapshot barrier) → checkpoint →
        compaction, in that durability order.  Returns the number of
        staged output records flushed, so callers can tell a commit
        that published new downstream work from a pure no-op — a task
        that polled without committing still owes its outputs.

        Every ``snapshot_interval_commits``-th commit is *due*: each
        store whose changelog tail has reached its live key count gets
        its full image **republished into the changelog** (the barrier)
        before the checkpoint moves past it.  The barrier is the
        last-value-wins fold of everything below it, so compaction can
        then drop the prefix and a task restored on a *different* node —
        no local snapshot — still rebuilds complete state from the
        compacted changelog alone.  A store whose tail is shorter than
        its image checkpoints its plain flush end: its tail is cheaper
        to replay than its image is to republish.  Compaction runs
        only after the checkpoint covers the barrier, so a crash between
        the two steps never strands a replay range.

        The same step frees each repartition input below the offset the
        checkpoint just recorded: this task is its only reader and never
        resumes below its checkpoint.  Whole segments go, never the
        active one, and offsets are logical, so watermarks, ``lag()``
        and the ``__seen/`` marks (upstream positions) are unchanged.
        """
        staged = self._outputs
        self._outputs = {}
        for (topic, partition) in sorted(staged):
            broker = self.cluster.broker_for(topic, partition)
            broker.produce(topic, partition, MessageSet.from_payloads(
                staged[(topic, partition)]))
            broker.log(topic, partition).flush()
        changelog_ends: dict[str, int] = {}
        for store_name in self.stage.stores:
            records = self.stores[store_name].drain()
            changelog_ends[store_name] = \
                self._changelogs[store_name].flush(records)
            self.changelog_tails[store_name] += len(records)
        barrier_starts: dict[str, int] = {}
        if (self.commits + 1) % self.snapshot_interval_commits == 0:
            barrier_starts = {
                store_name: changelog_ends[store_name]
                for store_name in self.stage.stores
                if 0 < self.changelog_tails[store_name]
                >= len(self.stores[store_name])}
            for store_name in barrier_starts:
                self.changelog_tails[store_name] = 0
            changelog_ends.update(self._snapshot_barrier(barrier_starts))
        checkpoint = {
            "inputs": {topic: self.input_offsets[(topic, self.partition)]
                       for topic in self.stage.inputs},
            "changelog": changelog_ends,
        }
        self._write_checkpoint(checkpoint)
        self.commits += 1
        self.metrics.counter("commits").increment()
        for store_name, barrier_start in sorted(barrier_starts.items()):
            compact_changelog(self.cluster,
                              self._changelogs[store_name].topic,
                              self.partition, barrier_start)
        for topic in self._repartition_inputs:
            self.cluster.broker_for(topic, self.partition).log(
                topic, self.partition).delete_segments_below(
                checkpoint["inputs"][topic])
        return sum(len(messages) for messages in staged.values())

    def _write_checkpoint(self, checkpoint: dict) -> None:
        path = self._checkpoint_path()
        data = encode_json(checkpoint)
        self._zk.ensure_path(path.rsplit("/", 1)[0])
        if self._zk.exists(path):
            self._zk.set(path, data)
        else:
            self._zk.create(path, data)

    def _snapshot_barrier(self, store_names: Iterable[str]) -> dict[str, int]:
        """Republish each named store's full image into its changelog
        and write the local snapshot; returns the post-barrier ends.

        The caller names only stores whose tail has reached their live
        key count, so the ``barrier_records`` this publishes never
        exceed the records drained and replayed since the task opened.
        A crash anywhere inside the barrier is safe: the checkpoint has
        not moved yet, so recovery replays to the *old* checkpoint and
        the barrier records past it are ignored junk that the next
        incarnation's reprocessing overwrites.
        """
        ends: dict[str, int] = {}
        for store_name in store_names:
            records = self.stores[store_name].records()
            ends[store_name] = self._changelogs[store_name].flush(records)
            write_snapshot(self.disk, self._snapshot_path(store_name),
                           store_name, records, ends[store_name])
            self.metrics.counter("snapshots").increment()
            self.metrics.counter("barrier_records").increment(len(records))
        return ends

    def lag(self) -> int:
        """Unconsumed input bytes across this task's partitions."""
        total = 0
        for topic in self.stage.inputs:
            head = self._consumer.latest_offset(topic, self.partition)
            total += head - self.input_offsets[(topic, self.partition)]
        return total

    def state_fingerprint(self, include_seen: bool = False) -> bytes:
        """Canonical bytes over every store, for chaos byte-compares.

        By default the ``__seen/`` dedupe watermarks are excluded: they
        record physical repartition-topic offsets, which differ between
        a failure run (whose topic carries re-emitted duplicates) and a
        clean run even when application state matches exactly.
        """
        exclude = None if include_seen else SEEN_PREFIX
        parts = [b"%s=%s" % (name.encode(),
                             self.stores[name].fingerprint(exclude))
                 for name in sorted(self.stores)]
        return b";".join(parts)
