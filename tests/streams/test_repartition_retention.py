"""Repartition retention: a task frees its repartition input below its
checkpoint, so the topic holds the uncommitted tail plus at most one
segment per partition (DESIGN.md §17), and recovery never needs what
was freed."""

import random
from bisect import bisect_right

from repro.common.clock import SimClock
from repro.kafka.broker import KafkaCluster
from repro.kafka.log import PartitionLog
from repro.kafka.message import MessageSet
from repro.simnet.disk import SimDisk
from repro.streams import (
    JobCoordinator,
    StreamContainer,
    encode_stream_message,
    route_key,
)
from repro.streams.apps import feed_fanout_job, who_viewed_your_profile_job
from repro.streams.state import decode_json
from repro.streams.task import TaskInstance
from repro.workloads import ProfileViewEventGenerator, run_day_in_the_life
from repro.zookeeper import NoNodeError, ZooKeeperServer

PARTITIONS = 2
MEMBERS = 40
member_id = ProfileViewEventGenerator.member_id


class TwoJobEstate:
    """Both shipped jobs on one small-segment cluster, seeded traffic,
    two containers per job; a tick produces, polls, and every second
    tick commits."""

    def __init__(self, seed: int, segment_bytes: int = 512):
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=seed)
        self.zookeeper = ZooKeeperServer()
        self.session = self.zookeeper.connect()
        self.cluster = KafkaCluster(
            1, "/kafka", zookeeper=self.zookeeper, clock=self.clock,
            partitions_per_topic=PARTITIONS, segment_bytes=segment_bytes,
            disk=self.disk)
        for topic in ("profile-views", "activity", "connections"):
            self.cluster.create_topic(topic, partitions=PARTITIONS)
        self.specs = {"wvyp": who_viewed_your_profile_job(PARTITIONS,
                                                          window_s=60.0),
                      "feed": feed_fanout_job(PARTITIONS)}
        self.containers: dict[str, StreamContainer] = {}
        self.coordinators = {}
        for job, spec in self.specs.items():
            self.coordinators[job] = JobCoordinator(spec, self.cluster,
                                                    self.zookeeper)
            fleet = [StreamContainer(f"{job}-{i}", spec, self.cluster,
                                     self.zookeeper, self.clock,
                                     self.disk.scope(f"{job}-{i}"), "/state",
                                     snapshot_interval_commits=2)
                     for i in range(2)]
            self.containers.update((c.name, c) for c in fleet)
            self.coordinators[job].deploy(fleet)
        self.rng = random.Random(seed)
        self.ticks = 0
        self.activities = 0

    def start(self) -> "TwoJobEstate":
        """Fold a seeded connection graph into fan-out state, so the join
        sees the whole graph before traffic starts."""
        staged: dict = {}
        for member in range(MEMBERS):
            for other in self.rng.sample(range(MEMBERS), 3):
                if other != member:
                    a, b = member_id(member), member_id(other)
                    self._stage(staged, "connections", a, {"other": b})
                    self._stage(staged, "connections", b, {"other": a})
        self._produce(staged)
        self.drain()
        return self

    def _stage(self, staged: dict, topic: str, key: str, value: dict) -> None:
        payload = encode_stream_message(key, value, self.clock.now())
        staged.setdefault((topic, route_key(key, PARTITIONS)), []).append(
            payload)

    def _produce(self, staged: dict) -> None:
        for topic, partition in sorted(staged):
            broker = self.cluster.broker_for(topic, partition)
            broker.produce(topic, partition,
                           MessageSet.from_payloads(staged[(topic, partition)]))
            broker.log(topic, partition).flush()

    def cycle(self, commit: bool) -> None:
        for name in sorted(self.containers):
            container = self.containers[name]
            if container.alive:
                container.poll()
                if commit:
                    container.commit()

    def tick(self) -> None:
        self.clock.advance(10.0)
        staged: dict = {}
        for _ in range(self.rng.randint(4, 12)):
            viewer, viewee = self.rng.sample(range(MEMBERS), 2)
            self._stage(staged, "profile-views", member_id(viewer),
                        {"viewee": member_id(viewee), "ts": self.clock.now()})
        for _ in range(self.rng.randint(1, 4)):
            self.activities += 1
            self._stage(staged, "activity",
                        member_id(self.rng.randrange(MEMBERS)),
                        {"kind": "share", "id": self.activities})
        self._produce(staged)
        self.ticks += 1
        self.cycle(commit=self.ticks % 2 == 0)

    def drain(self) -> None:
        for _ in range(100):
            self.cycle(commit=True)
            if all(not c.alive or c.lag() == 0
                   for c in self.containers.values()):
                return
        raise AssertionError("the jobs failed to drain")

    def repartition_logs(self):
        """``(job, consumer stage, topic, partition, log)`` per
        repartition partition."""
        for job, spec in sorted(self.specs.items()):
            for topic in spec.repartition_topics:
                [stage] = [s.name for s in spec.stages if topic in s.inputs]
                for partition in range(PARTITIONS):
                    yield job, stage, topic, partition, \
                        self.cluster.broker_for(topic, partition).log(
                            topic, partition)

    def checkpointed(self, job: str, stage: str, topic: str,
                     partition: int) -> int | None:
        try:
            data, _ = self.session.get(
                f"/streams/{job}/checkpoints/{stage}/{partition}")
        except NoNodeError:
            return None
        return int(decode_json(data)["inputs"][topic])

    def repartition_bytes(self) -> int:
        return sum(log.size_bytes() for *_, log in self.repartition_logs())

    def fingerprints(self) -> dict[str, bytes]:
        return {f"{name.rsplit('-', 1)[0]}/{task.task_id}":
                task.state_fingerprint()
                for name, container in self.containers.items()
                if container.alive
                for task in container.tasks.values()}

    def kill(self, name: str) -> None:
        self.containers[name].kill()
        self.coordinators[name.rsplit("-", 1)[0]].rebalance()

    def restart(self, name: str) -> None:
        self.containers[name].restart()
        self.coordinators[name.rsplit("-", 1)[0]].rebalance()


def run(world: TwoJobEstate, ticks: int) -> TwoJobEstate:
    world.start()
    for _ in range(ticks):
        world.tick()
    world.drain()
    return world


def test_each_commit_frees_its_repartition_input_below_its_checkpoint(
        monkeypatch):
    """After every task commit, each repartition partition keeps no whole
    segment below its reader's checkpoint if the committing task is that
    reader, and at most one otherwise (the reader has not committed
    since the writer rolled a segment)."""
    world = TwoJobEstate(seed=3)
    checked = []
    commit = TaskInstance.commit

    def checked_commit(task):
        flushed = commit(task)
        for job, stage, topic, partition, log in world.repartition_logs():
            checkpoint = world.checkpointed(job, stage, topic, partition)
            if checkpoint is None:
                assert log.oldest_offset == 0
                continue
            assert log.oldest_offset <= checkpoint
            bases = log.segment_base_offsets()
            # whole segments ending at or below the checkpoint
            released = bisect_right(bases, checkpoint) - 1
            if (task.stage.name, task.partition) == (stage, partition):
                assert released == 0, (topic, partition, bases, checkpoint)
                checked.append(log.oldest_offset)
            else:
                assert released <= 1, (topic, partition, bases, checkpoint)
        return flushed

    monkeypatch.setattr(TaskInstance, "commit", checked_commit)
    run(world, ticks=60)
    assert len(checked) > 100 and checked[-1] > 0
    logs = [log for *_, log in world.repartition_logs()]
    assert all(log.oldest_offset > 0 for log in logs)
    # drained: every partition is down to its active segment
    assert all(log.oldest_offset == log.segment_base_offsets()[-1]
               for log in logs)


def test_a_longer_run_holds_no_more_repartition_bytes():
    """Twice the traffic, the same bound: a drained partition keeps only
    its active segment.  Without the purge the bytes double."""
    segment_bytes = 4096        # larger than any one commit's flush
    short = run(TwoJobEstate(seed=5, segment_bytes=segment_bytes), ticks=60)
    long = run(TwoJobEstate(seed=5, segment_bytes=segment_bytes), ticks=120)
    written = [sum(log.high_watermark for *_, log in world.repartition_logs())
               for world in (short, long)]
    assert written[1] > 1.8 * written[0] > 40 * segment_bytes
    partitions = sum(1 for _ in short.repartition_logs())
    for world in (short, long):
        for *_, log in world.repartition_logs():
            assert log.size_bytes() <= segment_bytes
    assert long.repartition_bytes() <= \
        short.repartition_bytes() + partitions * segment_bytes, \
        (short.repartition_bytes(), long.repartition_bytes())


def test_a_task_moved_away_and_back_after_purges_resumes_above_them(
        monkeypatch):
    """A container killed after purges, mid-way between commits: its
    tasks move to the survivor and later back, each time resuming at a
    checkpoint at or above what the purges kept; no read goes below a
    log's oldest offset, and the state equals the clean twin's."""
    below: list = []
    read = PartitionLog.read

    def checked_read(log, offset, *args, **kwargs):
        if offset < log.oldest_offset:
            below.append((log.directory, offset, log.oldest_offset))
        return read(log, offset, *args, **kwargs)

    monkeypatch.setattr(PartitionLog, "read", checked_read)
    clean = run(TwoJobEstate(seed=9), ticks=90)

    failing = TwoJobEstate(seed=9).start()

    def resumed_above_the_purge() -> int:
        purged = 0
        for job, stage, topic, partition, log in failing.repartition_logs():
            [task] = [container.tasks[(stage, partition)]
                      for container in failing.containers.values()
                      if (stage, partition) in container.tasks]
            assert task.input_offsets[(topic, partition)] >= \
                log.oldest_offset
            purged += log.oldest_offset > 0
        return purged

    for _ in range(31):         # the last tick polls and does not commit
        failing.tick()
    assert any(log.oldest_offset > 0
               for *_, log in failing.repartition_logs())
    victims = ("wvyp-1", "feed-1")
    before = {name: sorted(failing.containers[name].tasks)
              for name in victims}
    for name in victims:
        failing.kill(name)
        survivor = failing.containers[f"{name[:-2]}-0"]
        assert set(before[name]) <= set(survivor.tasks)
    assert resumed_above_the_purge() > 0
    for _ in range(30):
        failing.tick()
    for name in victims:
        failing.restart(name)
        assert sorted(failing.containers[name].tasks) == before[name]
    assert resumed_above_the_purge() > 0
    for _ in range(29):
        failing.tick()
    failing.drain()

    assert below == []
    assert failing.fingerprints().keys() == clean.fingerprints().keys()
    assert failing.fingerprints() == clean.fingerprints()


def test_the_chaos_day_purges_its_repartition_topics():
    day = run_day_in_the_life(seed=7, fail=True)
    assert len(day.repartition_oldest_offsets) == 8
    assert any(offset > 0 for offset in day.repartition_oldest_offsets.values())
