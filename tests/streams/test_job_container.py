"""Job topology validation, Helix placement, handoff, and kill recovery."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError, NodeUnavailableError
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import Message, MessageSet
from repro.simnet.disk import SimDisk
from repro.streams import (
    JobCoordinator,
    StreamContainer,
    StreamJobSpec,
    encode_stream_message,
    route_key,
)
from repro.streams.task import StreamTask
from repro.zookeeper import ZooKeeperServer


class CountTask(StreamTask):
    def init(self, context):
        self.counts = context.store("counts")

    def process(self, envelope, collector):
        self.counts.put(envelope.key,
                        (self.counts.get(envelope.key) or 0) + 1)


class ForwardByValueTask(StreamTask):
    """Stateless repartition hop: re-keys each record by value["to"]."""

    def __init__(self, output_topic: str):
        self.output_topic = output_topic

    def process(self, envelope, collector):
        collector.send(self.output_topic, envelope.value["to"], {})


def count_spec(partitions: int = 2) -> StreamJobSpec:
    spec = StreamJobSpec("job", partitions)
    spec.stage("count", ["in"], CountTask, stores=["counts"])
    return spec


class Estate:
    def __init__(self, partitions: int = 2, containers: int = 2):
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=11)
        self.zookeeper = ZooKeeperServer()
        self.cluster = KafkaCluster(1, "/kafka", zookeeper=self.zookeeper,
                                    clock=self.clock,
                                    partitions_per_topic=partitions,
                                    disk=self.disk)
        self.cluster.create_topic("in", partitions=partitions)
        self.spec = count_spec(partitions)
        self.coordinator = JobCoordinator(self.spec, self.cluster,
                                          self.zookeeper)
        self.containers = [
            StreamContainer(f"c{i}", self.spec, self.cluster, self.zookeeper,
                            self.clock, self.disk.scope(f"c{i}"), "/state",
                            snapshot_interval_commits=2)
            for i in range(containers)]
        self.coordinator.deploy(self.containers)

    def produce(self, partition: int, records: list[tuple[str, object]]):
        messages = [Message(encode_stream_message(key, value, 0.0))
                    for key, value in records]
        broker = self.cluster.broker_for("in", partition)
        broker.produce("in", partition, MessageSet(messages))
        broker.log("in", partition).flush()

    def cycle(self) -> int:
        return sum(c.run_cycle() for c in self.containers if c.alive)


# -- spec validation --------------------------------------------------------

def test_spec_rejects_duplicate_stage_and_store_names():
    spec = StreamJobSpec("j", 1)
    spec.stage("a", ["in"], CountTask, stores=["s"])
    with pytest.raises(ConfigurationError):
        spec.stage("a", ["in"], CountTask)
    with pytest.raises(ConfigurationError):
        spec.stage("b", ["in"], CountTask, stores=["s"])


def test_spec_rejects_empty_topology_parameters():
    with pytest.raises(ConfigurationError):
        StreamJobSpec("", 1)
    with pytest.raises(ConfigurationError):
        StreamJobSpec("j", 0)
    with pytest.raises(ConfigurationError):
        StreamJobSpec("j", 1).repartition("")


def test_repartition_topics_are_namespaced_and_deduplicated():
    spec = StreamJobSpec("feedish", 2)
    topic = spec.repartition("hop")
    assert topic == "__repartition-feedish-hop"
    assert spec.repartition("hop") == topic
    assert spec.repartition_topics == [topic]


def test_a_repartition_topic_has_one_consuming_stage():
    """Its one reader's checkpoint is what frees its segments."""
    spec = StreamJobSpec("feedish", 2)
    topic = spec.repartition("hop")
    spec.stage("fwd", ["in"], lambda: ForwardByValueTask(topic))
    spec.stage("sink", [topic], CountTask, stores=["counts"])
    with pytest.raises(ConfigurationError, match="already consumed"):
        spec.stage("audit", [topic], CountTask, stores=["audit"])
    with pytest.raises(ConfigurationError, match="already consumed"):
        spec.stage("join", ["in", topic], CountTask, stores=["joined"])
    spec.stage("tee", ["in"], CountTask, stores=["tee"])  # plain inputs may
    assert [stage.name for stage in spec.stages] == ["fwd", "sink", "tee"]


def test_coordinator_rejects_mispartitioned_inputs():
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(1, "/kafka", zookeeper=zookeeper,
                           partitions_per_topic=3,
                           disk=SimDisk(seed=1))
    cluster.create_topic("in", partitions=3)   # != the job's 2
    with pytest.raises(ConfigurationError, match="co-partitioned"):
        JobCoordinator(count_spec(partitions=2), cluster, zookeeper)


def test_coordinator_creates_internal_topics():
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(1, "/kafka", zookeeper=zookeeper,
                           partitions_per_topic=2,
                           disk=SimDisk(seed=1))
    cluster.create_topic("in", partitions=2)
    JobCoordinator(count_spec(2), cluster, zookeeper)
    assert "__changelog-job-counts" in cluster.topics()
    assert len(cluster.topic_layout("__changelog-job-counts")) == 2


# -- placement and processing ----------------------------------------------

def test_deploy_places_every_partition_exactly_once():
    estate = Estate()
    owners = estate.coordinator.assignments("count")
    assert set(owners) == {0, 1}
    assert all(owner in {"c0", "c1"} for owner in owners.values())
    hosted = {key for c in estate.containers for key in c.tasks}
    assert hosted == {("count", 0), ("count", 1)}


def test_processing_reaches_the_owning_task():
    estate = Estate()
    estate.produce(0, [("a", 1)])
    estate.produce(1, [("b", 1), ("b", 1)])
    assert estate.cycle() == 3
    owners = estate.coordinator.assignments("count")
    task0 = next(c for c in estate.containers
                 if c.name == owners[0]).task("count", 0)
    task1 = next(c for c in estate.containers
                 if c.name == owners[1]).task("count", 1)
    assert task0.stores["counts"].get("a") == 1
    assert task1.stores["counts"].get("b") == 2


def test_graceful_handoff_preserves_state_without_replay_loss():
    """stop() commits; the rebalanced owner resumes from the committed
    offsets with the committed state — nothing reprocessed."""
    estate = Estate()
    estate.produce(0, [("a", 1)])
    estate.produce(1, [("b", 1)])
    estate.cycle()
    victim = estate.containers[0]
    moved = sorted(victim.tasks)
    victim.stop()
    estate.coordinator.rebalance()
    survivor = estate.containers[1]
    assert set(survivor.tasks) == {("count", 0), ("count", 1)}
    assert survivor.poll() == 0      # handoff committed: no redelivery
    for key in moved:
        task = survivor.tasks[key]
        assert task.stores["counts"].keys()   # state really moved


def test_kill_and_rebalance_recovers_committed_state():
    estate = Estate()
    estate.produce(0, [("a", 1)])
    estate.produce(1, [("b", 1)])
    estate.cycle()
    estate.containers[0].kill()
    assert estate.containers[0].kills == 1
    estate.coordinator.rebalance()
    survivor = estate.containers[1]
    assert set(survivor.tasks) == {("count", 0), ("count", 1)}
    assert survivor.task("count", 0).stores["counts"].get("a") == 1
    assert survivor.task("count", 1).stores["counts"].get("b") == 1

    # the dead container rejoins and takes work back
    estate.containers[0].restart()
    estate.coordinator.rebalance()
    hosted = {key for c in estate.containers for key in c.tasks}
    assert hosted == {("count", 0), ("count", 1)}
    assert all(len(c.tasks) == 1 for c in estate.containers)


def test_kill_between_poll_and_commit_discards_dirty_keys():
    """The crash contract: keys dirtied since the last commit die with
    the container — none reaches the changelog — and the next owner
    converges by reprocessing from the checkpointed offsets."""
    estate = Estate()
    estate.produce(0, [("a", 1)])
    estate.cycle()                           # a=1 committed
    victim = next(c for c in estate.containers if ("count", 0) in c.tasks)
    survivor = next(c for c in estate.containers if c is not victim)
    estate.produce(0, [("a", 1), ("c", 1)])
    assert victim.poll() == 2                # dirty, never committed
    assert victim.task("count", 0).stores["counts"].get("a") == 2
    changelog = estate.cluster.broker_for(
        "__changelog-job-counts", 0).log("__changelog-job-counts", 0)
    committed_end = changelog.high_watermark
    victim.kill()
    changelog.flush()
    assert changelog.high_watermark == committed_end
    estate.coordinator.rebalance()
    counts = survivor.task("count", 0).stores["counts"]
    assert counts.get("a") == 1 and "c" not in counts
    estate.cycle()                           # redelivery
    assert counts.get("a") == 2 and counts.get("c") == 1


def test_rebalance_with_no_live_containers_raises():
    estate = Estate()
    for container in estate.containers:
        container.kill()
    with pytest.raises(NodeUnavailableError):
        estate.coordinator.rebalance()


def test_deploy_guards():
    estate = Estate()
    with pytest.raises(ConfigurationError):
        estate.coordinator.deploy(estate.containers)   # already deployed
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(1, "/kafka", zookeeper=zookeeper,
                           partitions_per_topic=2,
                           disk=SimDisk(seed=2))
    cluster.create_topic("in", partitions=2)
    coordinator = JobCoordinator(count_spec(2), cluster, zookeeper)
    with pytest.raises(ConfigurationError):
        coordinator.deploy([])


def test_container_registers_consumer_group_id():
    estate = Estate()
    session = estate.zookeeper.connect()
    ids = session.get_children("/consumers/streams-job/ids")
    assert sorted(ids) == ["c0", "c1"]
    estate.containers[0].kill()
    assert session.get_children("/consumers/streams-job/ids") == ["c1"]


def test_drain_loop_cannot_strand_uncommitted_repartition_records():
    """A container that polled without committing owes its staged
    repartition records.  When a *different* container is then killed
    and the survivor's next cycle handles zero fresh input, the cycle's
    return value must still be non-zero — the commit published new
    downstream work — or ``while sum(run_cycle())`` drains one cycle
    too early and the sink never sees the records."""
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=23)
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(1, "/kafka", zookeeper=zookeeper, clock=clock,
                           partitions_per_topic=2, disk=disk)
    cluster.create_topic("in", partitions=2)
    spec = StreamJobSpec("hop", 2)
    hop_topic = spec.repartition("hop")
    spec.stage("fwd", ["in"],
               lambda: ForwardByValueTask(hop_topic))
    spec.stage("sink", [hop_topic], CountTask, stores=["counts"])
    coordinator = JobCoordinator(spec, cluster, zookeeper)
    fleet = [StreamContainer(f"c{i}", spec, cluster, zookeeper, clock,
                             disk.scope(f"c{i}"), "/state",
                             snapshot_interval_commits=2)
             for i in range(2)]
    coordinator.deploy(fleet)

    # every record routes to one partition; find its fwd-task's host
    key = "hotkey"
    partition = route_key(key, 2)
    owner = coordinator.owner_of("fwd", partition)
    survivor = next(c for c in fleet if c.name == owner)
    victim = next(c for c in fleet if c.name != owner)

    messages = [Message(encode_stream_message(key, {"to": f"k{i}"}, 0.0))
                for i in range(3)]
    broker = cluster.broker_for("in", partition)
    broker.produce("in", partition, MessageSet(messages))
    broker.log("in", partition).flush()

    survivor.poll()          # processed + staged, NOT committed
    victim.kill()
    coordinator.rebalance()

    while sum(c.run_cycle() for c in fleet if c.alive):
        pass

    counted = sum((c.task("sink", p).stores["counts"].get(f"k{i}") or 0)
                  for c in fleet if c.alive
                  for p in range(2) if ("sink", p) in c.tasks
                  for i in range(3))
    assert counted == 3, counted
