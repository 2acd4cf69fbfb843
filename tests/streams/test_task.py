"""TaskInstance: the commit protocol, recovery, and repartition dedupe."""

import hashlib
import json
import random

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.common.wal import read_image, write_image
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import FRAME_OVERHEAD, Message, MessageSet
from repro.simnet.disk import SimDisk
from repro.streams import state
from repro.streams import task as task_module
from repro.streams.changelog import replay_changelog
from repro.streams.state import decode_json, encode_json, encode_record
from repro.streams.task import (
    SEEN_PREFIX,
    Envelope,
    MessageCollector,
    StageSpec,
    StreamTask,
    TaskInstance,
    encode_stream_message,
    route_key,
)
from repro.zookeeper import ZooKeeperServer


class CountTask(StreamTask):
    """Idempotent-upsert counter keyed by message key."""

    def init(self, context):
        self.counts = context.store("counts")

    def process(self, envelope, collector):
        self.counts.put(envelope.key,
                        (self.counts.get(envelope.key) or 0) + 1)


class ForwardTask(StreamTask):
    """Stateless repartition hop: re-key each message by its value."""

    def __init__(self, output_topic: str):
        self.output_topic = output_topic

    def process(self, envelope, collector):
        collector.send(self.output_topic, envelope.value["to"],
                       {"n": envelope.value["n"]})


class SumTask(StreamTask):
    """Downstream of ForwardTask: sums ``n`` per key (NOT idempotent
    under redelivery — exactly what the dedupe must protect)."""

    def init(self, context):
        self.sums = context.store("sums")

    def process(self, envelope, collector):
        self.sums.put(envelope.key,
                      (self.sums.get(envelope.key) or 0)
                      + envelope.value["n"])


class World:
    def __init__(self, seed: int = 5, segment_bytes: int = 1 << 20):
        self.clock = SimClock()
        self.disk = SimDisk(seed=seed)
        self.zk_server = ZooKeeperServer()
        self.zk = self.zk_server.connect()
        self.cluster = KafkaCluster(1, "/kafka", zookeeper=self.zk_server,
                                    clock=self.clock, partitions_per_topic=1,
                                    segment_bytes=segment_bytes,
                                    disk=self.disk)
        self.cluster.create_topic("in", partitions=1)

    def produce(self, topic: str, records: list[tuple[str, object]]) -> None:
        messages = [Message(encode_stream_message(key, value, 1.0))
                    for key, value in records]
        broker = self.cluster.broker_for(topic, 0)
        broker.produce(topic, 0, MessageSet(messages))
        broker.log(topic, 0).flush()

    def changelog(self, store: str):
        topic = f"__changelog-job-{store}"
        return self.cluster.broker_for(topic, 0).log(topic, 0)

    def changelog_records(self, store: str, start: int = 0) -> list[bytes]:
        return replay_changelog(self.cluster, f"__changelog-job-{store}", 0,
                                start, self.changelog(store).high_watermark)

    def open_task(self, stage: StageSpec, node: str = "n0",
                  snapshot_interval_commits: int = 8) -> TaskInstance:
        return TaskInstance(
            "job", stage, 0, self.cluster, self.zk, self.clock,
            self.disk.scope(node), "/state", topic_partitions=1,
            snapshot_interval_commits=snapshot_interval_commits)


def count_stage() -> StageSpec:
    return StageSpec(name="count", inputs=("in",), task_factory=CountTask,
                     stores=("counts",))


@pytest.mark.parametrize("max_messages", [1, 2, 4, 5])
def test_bounded_poll_never_cuts_inside_a_compressed_wrapper(max_messages):
    """The messages of one gzip wrapper share a ``next_offset``; a poll
    bounded inside one would checkpoint past the rest of it."""
    world = World()
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage())
    broker = world.cluster.broker_for("in", 0)
    for batch in range(3):
        broker.produce("in", 0, MessageSet.from_payloads(
            [encode_stream_message(f"k{batch}-{i}", 1, 1.0)
             for i in range(4)]).deflated())
    broker.log("in", 0).flush()
    handled = 0
    while step := task.poll(max_messages=max_messages):
        assert step % 4 == 0        # whole wrappers only
        handled += step
    assert handled == 12
    assert task.stores["counts"].get("k2-3") == 1
    assert len([k for k, _ in task.stores["counts"].items()
                if k.startswith("k")]) == 12


def test_commit_then_reopen_resumes_offsets_and_state():
    world = World()
    for topic in ("__changelog-job-counts",):
        world.cluster.create_topic(topic, partitions=1)
    task = world.open_task(count_stage())
    world.produce("in", [("a", 1), ("b", 1), ("a", 1)])
    assert task.poll() == 3
    task.commit()
    fingerprint = task.state_fingerprint()

    successor = world.open_task(count_stage())
    assert successor.stores["counts"].get("a") == 2
    assert successor.stores["counts"].get("b") == 1
    assert successor.state_fingerprint() == fingerprint
    # nothing to re-read: the checkpoint advanced past all input
    assert successor.poll() == 0


def test_kill_before_commit_loses_nothing_durable():
    """Work processed but never committed is reprocessed by the next
    incarnation — at-least-once, converging because upserts are
    absolute."""
    world = World()
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage())
    world.produce("in", [("a", 1), ("a", 1)])
    task.poll()
    task.commit()
    changelog = world.changelog("counts")
    committed_end = changelog.high_watermark
    world.produce("in", [("a", 1)])
    task.poll()                      # processed, never committed
    assert task.stores["counts"].get("a") == 3
    del task                         # crash: no commit
    # the dirty key died with the process: nothing of it was published
    changelog.flush()
    assert changelog.high_watermark == committed_end

    successor = world.open_task(count_stage())
    assert successor.stores["counts"].get("a") == 2   # pre-crash durable
    assert successor.poll() == 1                      # redelivery
    assert successor.stores["counts"].get("a") == 3


def test_moved_task_rebuilds_from_compacted_changelog_alone():
    """The snapshot-barrier contract: after compaction, a node with NO
    local snapshot still recovers full state, because the compaction
    floor is a republished full image."""
    world = World(segment_bytes=128)
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage(), node="n0",
                           snapshot_interval_commits=1)
    for batch in range(6):
        world.produce("in", [(f"k{batch}", 1), ("hot", 1)])
        task.poll()
        task.commit()                # barrier + compaction every commit
    log = world.cluster.broker_for("__changelog-job-counts", 0).log(
        "__changelog-job-counts", 0)
    assert log.oldest_offset > 0     # compaction really happened
    fingerprint = task.state_fingerprint()

    moved = world.open_task(count_stage(), node="n1")   # fresh disk scope
    assert not moved.recovered_from_snapshot
    assert moved.replayed_mutations > 0
    assert moved.state_fingerprint() == fingerprint
    assert moved.stores["counts"].get("hot") == 6


def test_stale_snapshot_below_compaction_floor_falls_back_to_full_replay():
    """A task that returns to its original node after running elsewhere
    may find its old local snapshot points below the changelog's
    compaction floor; it must discard it and replay from the floor."""
    world = World(segment_bytes=128)
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage(), node="n0",
                           snapshot_interval_commits=1)
    world.produce("in", [("a", 1)])
    task.poll()
    task.commit()                    # n0's snapshot covers offset X

    # the task runs on n1 for a while; n1's barriers compact past X
    interim = world.open_task(count_stage(), node="n1",
                              snapshot_interval_commits=1)
    for batch in range(6):
        world.produce("in", [(f"k{batch}", 1), ("a", 1)])
        interim.poll()
        interim.commit()
    log = world.cluster.broker_for("__changelog-job-counts", 0).log(
        "__changelog-job-counts", 0)
    fingerprint = interim.state_fingerprint()

    returned = world.open_task(count_stage(), node="n0")
    assert not returned.recovered_from_snapshot   # stale snapshot rejected
    assert returned.state_fingerprint() == fingerprint
    assert returned.stores["counts"].get("a") == 7
    assert log.oldest_offset > 0


def test_snapshot_speeds_up_recovery_on_same_node():
    world = World()
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage(), snapshot_interval_commits=1)
    world.produce("in", [("a", 1), ("b", 1)])
    task.poll()
    task.commit()
    successor = world.open_task(count_stage())
    assert successor.recovered_from_snapshot
    assert successor.replayed_mutations == 0
    assert successor.stores["counts"].get("a") == 1


def test_exp_s2_recovery_replays_live_state_not_history():
    """Same node: the snapshot plus the changelog tail since its barrier.
    Moved: what the last barrier left in the compacted changelog.  Both
    are bounded by live keys, not history.

    Moved when barriers became amortised: a barrier is taken only once
    the tail has grown to the image, so the 16 000-key run's second
    commit (8 000 records, half the image) no longer republishes all
    16 000 keys.  Its same-node restart now replays that tail (8 000,
    was 0), and a moved task replays the first drain, the 8 000-key
    image and the tail (24 000, was 16 000): at most two images."""
    replayed = {}
    for keys in (1_000, 4_000, 16_000):
        world = World(seed=keys)
        world.cluster.create_topic("__changelog-job-counts", partitions=1)
        task = world.open_task(count_stage(), snapshot_interval_commits=1)
        for batch, start in enumerate(range(0, keys, 1000)):
            world.produce("in", [(f"key:{i:09d}", 1)
                                 for i in range(start, start + 1000)])
            task.poll()
            if batch % 8 == 7:
                task.commit()
        task.commit()
        local = world.open_task(count_stage())
        assert local.recovered_from_snapshot
        assert local.replayed_mutations == task.changelog_tails["counts"]
        moved = world.open_task(count_stage(), node="n1")
        assert not moved.recovered_from_snapshot
        assert moved.state_fingerprint() == local.state_fingerprint()
        assert local.replayed_mutations < keys
        assert moved.replayed_mutations <= 2 * keys
        replayed[keys] = (local.replayed_mutations, moved.replayed_mutations)
    # the 16 000-key run wrote 24 000 records (two drains + one image)
    # and rolled no 1 MiB segment, so nothing below the image compacted
    assert replayed == {1_000: (0, 2_000), 4_000: (0, 8_000),
                        16_000: (8_000, 24_000)}


# -- a barrier pays per change, not per live key ------------------------------

@pytest.mark.parametrize("commits, barriers", [(50, 1), (400, 4)])
def test_barrier_records_never_exceed_records_drained_and_replayed(
        commits, barriers):
    """1 000 cold keys and 10 hot ones, a due commit every commit.  The
    first commit drains all 1 010 and republishes them; after that each
    commit drains the 10 hot keys, so the tail reaches the image again
    only every 101 commits (commits 102, 203, 304)."""
    world = World()
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage(), snapshot_interval_commits=1)
    hot = [(f"hot:{i}", 1) for i in range(10)]
    world.produce("in", [(f"cold:{i:04d}", 1) for i in range(1000)] + hot)
    barrier_records = task.metrics.counter("barrier_records")
    drained = 0
    for commit in range(commits):
        task.poll()
        task.commit()
        drained += 1_010 if commit == 0 else 10
        assert barrier_records.value <= drained + task.replayed_mutations
        world.produce("in", hot)
    assert task.metrics.counter("snapshots").value == barriers
    assert barrier_records.value == 1_010 * barriers
    # every published record is a drained one or a barrier one
    assert len(world.changelog_records("counts")) == \
        drained + barrier_records.value


class GraphTask(StreamTask):
    """Two stores, the shape of the feed job: ``{"edge": other}`` builds
    ``graph``, which stops changing once the edges are in; any other
    message counts into ``counts``."""

    def init(self, context):
        self.counts = context.store("counts")
        self.graph = context.store("graph")

    def process(self, envelope, collector):
        if "edge" in envelope.value:
            self.graph.put(envelope.key, envelope.value["edge"])
        else:
            self.counts.put(envelope.key,
                            (self.counts.get(envelope.key) or 0) + 1)


def test_an_idle_store_is_never_republished():
    world = World()
    for store in ("counts", "graph"):
        world.cluster.create_topic(f"__changelog-job-{store}", partitions=1)
    task = world.open_task(StageSpec(
        name="graph", inputs=("in",), task_factory=GraphTask,
        stores=("counts", "graph")), snapshot_interval_commits=2)
    world.produce("in", [(f"m{i:02d}", {"edge": f"m{i + 1:02d}"})
                         for i in range(50)])
    task.poll()
    task.commit()
    task.commit()                        # due: graph's tail is its image
    assert task.metrics.counter("barrier_records").value == 50
    graph_end = world.changelog("graph").high_watermark
    counts_end = world.changelog("counts").high_watermark
    world.disk.start_trace()
    for n in range(40):                  # 20 due commits
        world.produce("in", [(f"v{n % 5}", {"n": n})])
        task.poll()
        task.commit()
    assert world.changelog("graph").high_watermark == graph_end
    snapshot_writes = [event[2] for event in world.disk.trace
                       if event[0] == "write"]
    assert not [path for path in snapshot_writes if "graph.snapshot" in path]
    # the busy store beside it still takes its barriers
    assert [path for path in snapshot_writes if "counts.snapshot" in path]
    assert world.changelog("counts").high_watermark > counts_end


def test_a_moved_task_snapshots_at_its_first_due_commit():
    """Full replay makes the tail at least the image, so the fresh node
    gets its local snapshot at once; after that a restart there replays
    only the tail."""
    world = World()
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage(), snapshot_interval_commits=4)
    world.produce("in", [(f"k{i:03d}", 1) for i in range(100)])
    task.poll()
    task.commit()
    moved = world.open_task(count_stage(), node="n1",
                            snapshot_interval_commits=4)
    assert not moved.recovered_from_snapshot
    assert moved.changelog_tails["counts"] == moved.replayed_mutations == 100
    fresh = world.disk.scope("n1")
    for _ in range(4):
        assert not fresh.exists("/state/job/count-0/counts.snapshot")
        world.produce("in", [("k000", 1)])
        moved.poll()
        moved.commit()
    assert fresh.exists("/state/job/count-0/counts.snapshot")
    assert moved.metrics.counter("barrier_records").value == 100
    for _ in range(3):
        world.produce("in", [("k001", 1), ("k002", 1)])
        moved.poll()
        moved.commit()
    again = world.open_task(count_stage(), node="n1")
    assert again.recovered_from_snapshot
    assert again.replayed_mutations == moved.changelog_tails["counts"] == 6
    assert again.state_fingerprint() == moved.state_fingerprint()


def test_changelog_and_restore_replay_stay_within_their_census_bounds():
    """DESIGN's census rows for the stream tier, after every commit of a
    seeded run whose small segments make compaction run:

    * the changelog partition holds at most the last barrier, the tail
      and one segment;
    * a same-node restore replays exactly the tail on top of the image,
      and the tail stays shorter than the image."""
    segment_bytes = 512
    world = World(seed=11, segment_bytes=segment_bytes)
    world.cluster.create_topic("__changelog-job-ledger", partitions=1)
    task = world.open_task(ledger_stage(), snapshot_interval_commits=1)
    log = world.changelog("ledger")
    rng = random.Random(11)
    for _ in range(120):
        world.produce("in", [
            (f"k{rng.randrange(60):02d}",
             {"del": True} if rng.random() < 0.2
             else {"set": rng.randrange(1000)})
            for _ in range(rng.randrange(1, 12))])
        task.poll()
        task.commit()
        tail = task.changelog_tails["ledger"]
        header, *image = read_image(world.disk.scope("n0"),
                                    "/state/job/ledger-0/ledger.snapshot")
        image_end = json.loads(header)["changelog_offset"]
        barrier_bytes = sum(FRAME_OVERHEAD + len(r) for r in image)
        tail_bytes = log.high_watermark - image_end
        assert log.high_watermark - log.oldest_offset <= \
            barrier_bytes + tail_bytes + segment_bytes
        assert len(world.changelog_records("ledger", image_end)) == tail
        assert tail < max(len(task.stores["ledger"]), 1)
        restored = world.open_task(ledger_stage())
        assert restored.recovered_from_snapshot
        assert restored.replayed_mutations == tail
        assert restored.state_fingerprint() == task.state_fingerprint()
    assert log.oldest_offset > 0         # compaction really ran


def test_crash_inside_commit_window_redelivers_and_downstream_dedupes():
    """The one place duplicates can enter a repartition topic: a crash
    *after* the output flush but *before* the checkpoint write.  The
    restarted producer re-reads the same input and re-publishes its
    emissions; the consumer's ``__seen/`` watermark must drop them or
    SumTask would double-count."""
    world = World()
    world.cluster.create_topic("mid", partitions=1)
    world.cluster.create_topic("__changelog-job-sums", partitions=1)
    forward = StageSpec(name="forward", inputs=("in",),
                        task_factory=lambda: ForwardTask("mid"))
    summing = StageSpec(name="sum", inputs=("mid",), task_factory=SumTask,
                        stores=("sums",))

    producer = world.open_task(forward)
    world.produce("in", [("a", {"to": "x", "n": 5}),
                         ("b", {"to": "x", "n": 2})])
    producer.poll()

    def crash(checkpoint):
        raise RuntimeError("crash between output flush and checkpoint")

    producer._write_checkpoint = crash
    with pytest.raises(RuntimeError):
        producer.commit()
    del producer

    reborn = world.open_task(forward)
    assert reborn.poll() == 2        # checkpoint never moved: re-read all
    reborn.commit()                  # second copy of both emissions lands

    consumer = world.open_task(summing)
    handled = consumer.poll()
    assert handled == 4              # fetched four, processed two
    assert consumer.duplicates_dropped == 2
    assert consumer.stores["sums"].get("x") == 7
    consumer.commit()

    # the watermark itself is durable: a post-commit successor still
    # drops a late redelivery of the same records
    successor = world.open_task(summing)
    assert successor.poll() == 0
    assert successor.stores["sums"].get("x") == 7


def test_a_polled_message_costs_one_decode_and_one_mark_read(monkeypatch):
    """Per fetched payload, duplicates included: one ``decode_json``
    and, when it carries a repartition stamp, one ``__seen/`` read; a
    mark is written only for a message that was processed."""
    world = World()
    world.cluster.create_topic("mid", partitions=1)
    world.cluster.create_topic("__changelog-job-sums", partitions=1)

    def stamped(n: int, src_offset: int, src_seq: int) -> bytes:
        return encode_json({"key": "x", "value": {"n": n}, "ts": 1.0,
                            "src": "forward:0", "src_stream": "in:0",
                            "src_offset": src_offset, "src_seq": src_seq})

    payloads = [stamped(5, 0, 0), stamped(2, 40, 1),
                stamped(5, 0, 0), stamped(2, 40, 1),   # redelivered
                encode_stream_message("x", {"n": 1}, 1.0)]   # unstamped
    broker = world.cluster.broker_for("mid", 0)
    broker.produce("mid", 0, MessageSet.from_payloads(payloads))
    broker.log("mid", 0).flush()
    consumer = world.open_task(StageSpec(
        name="sum", inputs=("mid",), task_factory=SumTask, stores=("sums",)))

    decodes = []
    monkeypatch.setattr(
        task_module, "decode_json",
        lambda payload: decodes.append(payload) or decode_json(payload))
    store = consumer.stores["sums"]
    marks = {"read": 0, "written": 0}
    real_get, real_put = store.get, store.put

    def get(key):
        marks["read"] += key.startswith(SEEN_PREFIX)
        return real_get(key)

    def put(key, value):
        marks["written"] += key.startswith(SEEN_PREFIX)
        real_put(key, value)

    monkeypatch.setattr(store, "get", get)
    monkeypatch.setattr(store, "put", put)
    assert consumer.poll() == 5
    assert decodes == payloads
    assert consumer.duplicates_dropped == 2
    assert marks == {"read": 4, "written": 2}
    assert real_get("x") == 8
    assert real_get(f"{SEEN_PREFIX}forward:0/in:0") == [40, 1]


def test_dedupe_requires_a_store():
    world = World()
    world.cluster.create_topic("mid", partitions=1)
    forward = StageSpec(name="forward", inputs=("in",),
                        task_factory=lambda: ForwardTask("mid"))
    producer = world.open_task(forward)
    world.produce("in", [("a", {"to": "x", "n": 1})])
    producer.poll()
    producer.commit()

    class NullTask(StreamTask):
        def process(self, envelope, collector):
            pass

    storeless = StageSpec(name="sink", inputs=("mid",),
                          task_factory=NullTask)
    task = world.open_task(storeless)
    with pytest.raises(ConfigurationError):
        task.poll()                  # stamped input, nowhere to dedupe


def test_window_fires_on_clock_cadence():
    world = World()

    class Windowed(StreamTask):
        def __init__(self):
            self.windows = 0

        def process(self, envelope, collector):
            pass

        def window(self, collector):
            self.windows += 1

    stage = StageSpec(name="w", inputs=("in",), task_factory=Windowed,
                      window_interval_s=10.0)
    task = world.open_task(stage)
    task.poll()
    assert task.task.windows == 0
    world.clock.advance(11.0)
    task.poll()
    assert task.task.windows == 1
    task.poll()                      # cadence not yet elapsed again
    assert task.task.windows == 1


def test_route_key_is_stable_and_in_range():
    assert route_key("member:00000042", 4) == route_key("member:00000042", 4)
    assert all(0 <= route_key(f"k{i}", 7) < 7 for i in range(100))
    spread = {route_key(f"k{i}", 4) for i in range(64)}
    assert spread == {0, 1, 2, 3}


def test_snapshot_interval_must_be_positive():
    world = World()
    with pytest.raises(ConfigurationError):
        world.open_task(count_stage(), snapshot_interval_commits=0)


def test_window_emission_reaches_a_downstream_stage():
    """Regression: a ``window()`` emission has no input position, so it
    carries ``src`` but no ``(src_stream, src_offset, src_seq)``; the
    consuming stage used to die on ``record['src_stream']``.  It is
    delivered unstamped — at-least-once, no watermark kept for it."""
    world = World()
    world.cluster.create_topic("ticks", partitions=1)
    world.cluster.create_topic("__changelog-job-counts", partitions=1)

    class Ticker(StreamTask):
        def process(self, envelope, collector):
            pass

        def window(self, collector):
            collector.send("ticks", "tick", {"n": 1})

    up = world.open_task(StageSpec(
        name="ticker", inputs=("in",), task_factory=Ticker,
        window_interval_s=10.0))
    down = world.open_task(StageSpec(
        name="count", inputs=("ticks",), task_factory=CountTask,
        stores=("counts",)))
    world.clock.advance(11.0)
    up.poll()
    assert up.commit() == 1
    assert down.poll() == 1
    assert down.duplicates_dropped == 0
    assert down.stores["counts"].get("tick") == 1
    assert down.stores["counts"].keys() == ["tick"]     # no __seen/ mark


# -- one encode per record, ever --------------------------------------------

class LedgerTask(StreamTask):
    """State driven by the message: ``{"set": v}`` upserts the key,
    ``{"del": true}`` deletes it — so a test scripts puts and deletes."""

    def init(self, context):
        self.ledger = context.store("ledger")

    def process(self, envelope, collector):
        if "set" in envelope.value:
            self.ledger.put(envelope.key, envelope.value["set"])
        else:
            self.ledger.delete(envelope.key)


def ledger_stage() -> StageSpec:
    return StageSpec(name="ledger", inputs=("in",), task_factory=LedgerTask,
                     stores=("ledger",))


@pytest.fixture
def record_encodes(monkeypatch):
    """Keys passed to the one record encoder, in call order."""
    encoded = []
    real = state.encode_record

    def counting(key, value):
        encoded.append(key)
        return real(key, value)

    monkeypatch.setattr(state, "encode_record", counting)
    return encoded


def test_hot_key_costs_one_record_per_commit_interval(record_encodes):
    world = World()
    world.cluster.create_topic("__changelog-job-ledger", partitions=1)
    task = world.open_task(ledger_stage())
    world.produce("in", [("hot", {"set": n}) for n in range(1, 8)]
                  + [("gone", {"set": 1}), ("gone", {"del": True})])
    assert task.poll() == 9
    assert record_encodes == []          # a put only marks the key dirty
    task.commit()
    assert record_encodes == ["hot", "gone"]
    assert world.changelog_records("ledger") == [
        encode_record("hot", 7),         # the last value, once
        encode_record("gone", None)]     # put-then-delete: one tombstone
    task.commit()                        # nothing dirty: nothing published
    assert len(world.changelog_records("ledger")) == 2


def test_barrier_and_image_copy_records_without_encoding(record_encodes):
    """The barrier republishes the records the store already holds and
    the image is the same list — for state the task wrote and, in the
    next incarnation, for state restored from image + replay.

    Moved when barriers became amortised: the restored task takes its
    barrier only once its tail has reached the 11-key image, so the
    successor now updates one key over eleven commits and the third
    incarnation replays those 11 records on top of the image (was 1)."""
    world = World()
    world.cluster.create_topic("__changelog-job-ledger", partitions=1)
    task = world.open_task(ledger_stage(), snapshot_interval_commits=2)
    world.produce("in", [(f"k{i:02d}", {"set": [i, {"x": i}]})
                         for i in reversed(range(12))])
    task.poll()
    task.commit()
    assert len(record_encodes) == 12
    world.produce("in", [("k03", {"del": True}), ("k04", {"set": "new"})])
    task.poll()
    task.commit()                        # drains two keys, then the barrier
    assert record_encodes[12:] == ["k03", "k04"]
    published = world.changelog_records("ledger")
    assert published[12:14] == [encode_record("k03", None),
                                encode_record("k04", "new")]
    barrier = published[14:]
    assert [state.decode_record(r)[0] for r in barrier] == \
        task.stores["ledger"].keys()
    assert len(barrier) == 11
    image = read_image(world.disk.scope("n0"),
                       "/state/job/ledger-0/ledger.snapshot")
    assert image[1:] == barrier

    del record_encodes[:]
    successor = world.open_task(ledger_stage(), snapshot_interval_commits=2)
    assert successor.recovered_from_snapshot
    for n in range(11):                  # a tail short of the image
        world.produce("in", [("k05", {"set": n})])
        successor.poll()
        successor.commit()               # replayed below the next barrier
    assert successor.metrics.counter("snapshots").value == 0
    third = world.open_task(ledger_stage(), snapshot_interval_commits=1)
    assert third.recovered_from_snapshot
    assert third.replayed_mutations == 11
    before = world.changelog("ledger").high_watermark
    del record_encodes[:]
    third.commit()                       # a barrier over restored keys
    assert third.metrics.counter("barrier_records").value == 11
    assert record_encodes == []
    assert world.changelog_records("ledger", before) == \
        third.stores["ledger"].records()
    assert third.stores["ledger"].records() == [
        encode_record(key, value)
        for key, value in third.stores["ledger"].items()]


def test_v1_snapshot_is_refused_and_the_task_converges_from_its_changelog():
    world = World()
    world.cluster.create_topic("__changelog-job-counts", partitions=1)
    task = world.open_task(count_stage(), snapshot_interval_commits=1)
    world.produce("in", [("a", 1), ("b", 1), ("a", 1)])
    task.poll()
    task.commit()
    fingerprint = task.state_fingerprint()
    end = world.changelog("counts").high_watermark
    # the image a pre-v2 build would have left: right store, an offset
    # the checkpoint accepts, entries in the old whitespace form
    write_image(world.disk.scope("n0"), "/state/job/count-0/counts.snapshot", [
        json.dumps({"version": 1, "store": "counts",
                    "changelog_offset": end}, sort_keys=True).encode(),
        json.dumps({"k": "a", "v": 999}, sort_keys=True).encode()])
    for _ in range(2):
        successor = world.open_task(count_stage())
        assert not successor.recovered_from_snapshot
        assert successor.replayed_mutations > 0
        assert successor.state_fingerprint() == fingerprint


# -- the formats, pinned ------------------------------------------------------

PINNED_RECORDS_SHA = \
    "f259cf93c42f1ad7176ac0700661c03a4146c1be78d61b99e405caca45547d81"
PINNED_CHANGELOG_SHA = \
    "30fd70276b15ead94927676f22ea0ff7ee4a07da25d0b5f48c7419fba2d0d10b"
PINNED_IMAGE_SHA = \
    "dc1062de0bd35c7a35921158fb8f3e5e54f30cdee544e4d0535e0e8037c069e1"


def _seeded_mutations(seed: int = 17, count: int = 200):
    rng = random.Random(seed)
    for i in range(count):
        key = f"member:{rng.randrange(40):04d}/é{i % 3}"
        roll = rng.random()
        if roll < 0.2:
            yield key, None
        elif roll < 0.5:
            yield key, rng.randrange(10 ** 6)
        else:
            yield key, [{"ts": round(rng.random() * 1e4, 6), "actor": key,
                         "id": i, "kind": rng.choice(("post", "like", "é"))}
                        for _ in range(rng.randrange(1, 4))]


def test_record_changelog_and_image_bytes_are_pinned():
    """Three digests.  The record digest was taken from the *parent's*
    ``encode_mutation`` over the same seeded pairs: the changelog record
    format did not change when the store took over encoding it.  The
    changelog-segment and snapshot-image digests are this encoder's, for
    one seeded task run: a change to coalescing, record order, barrier
    contents or the v2 image layout fails here before it moves
    ``simnet.disk.bytes_written_per_op`` in the benchmark."""
    mutations = list(_seeded_mutations())
    records = hashlib.sha256()
    for key, value in mutations:
        record = encode_record(key, value)
        assert record == json.dumps(
            {"k": key, "v": value}, sort_keys=True,
            separators=(",", ":")).encode()
        records.update(record + b"\n")
    assert records.hexdigest() == PINNED_RECORDS_SHA

    world = World(seed=17)
    world.cluster.create_topic("__changelog-job-ledger", partitions=1)
    task = world.open_task(ledger_stage(), snapshot_interval_commits=3)
    for start in range(0, len(mutations), 25):       # 8 commits, 2 barriers
        world.produce("in", [
            (key, {"del": True} if value is None else {"set": value})
            for key, value in mutations[start:start + 25]])
        task.poll()
        task.commit()
    changelog = hashlib.sha256()
    directory = f"broker-0/{world.changelog('ledger').directory}"
    for name in world.disk.listdir(directory):
        with world.disk.open(f"{directory}/{name}", "rb") as f:
            changelog.update(name.encode() + f.read())
    with world.disk.scope("n0").open(
            "/state/job/ledger-0/ledger.snapshot", "rb") as f:
        image_sha = hashlib.sha256(f.read()).hexdigest()
    assert changelog.hexdigest() == PINNED_CHANGELOG_SHA
    assert image_sha == PINNED_IMAGE_SHA
