"""Job topology and coordination: stages, repartition topics, Helix.

A *job* (SNIPPETS.md §8) is a DAG of stages connected by Kafka topics.
Every stage runs ``spec.partitions`` tasks; task ``i`` owns partition
``i`` of each of the stage's input topics.  Stages that need a
different keying than their input's — per-member aggregation over
activity partitioned by actor, say — are connected through a
**repartition topic**: the upstream stage's collector sends keyed
messages, the producer-compatible ``route_key`` hash places them, and
the downstream stage consumes its own partition like any other input.

Task-to-container placement is ordinary Helix (§IV.B): the coordinator
registers one ONLINE_OFFLINE resource per stage (``replicas=1`` — a
task runs in exactly one container) in a per-job cluster named
``streams-<job>``, and containers are the participants.  The
controller's demote-before-promote pipeline ordering gives clean
handoff: the old owner's OFFLINE callback (final commit + close) runs
before the new owner's ONLINE callback (recovery) in the same pass.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError, NodeUnavailableError
from repro.helix.controller import HelixController
from repro.helix.idealstate import compute_ideal_state
from repro.helix.statemodel import ONLINE_OFFLINE
from repro.kafka.broker import KafkaCluster
from repro.streams.changelog import changelog_topic
from repro.streams.task import StageSpec
from repro.zookeeper import ZooKeeperServer


class StreamJobSpec:
    """Declarative topology: stages, stores, and internal topics."""

    def __init__(self, name: str, partitions: int):
        if not name:
            raise ConfigurationError("job needs a name")
        if partitions < 1:
            raise ConfigurationError("job needs at least one partition")
        self.name = name
        self.partitions = partitions
        self._stages: dict[str, StageSpec] = {}
        self.repartition_topics: list[str] = []

    @property
    def group(self) -> str:
        """The consumer-group id the job's containers register under."""
        return f"streams-{self.name}"

    @property
    def helix_cluster(self) -> str:
        return f"streams-{self.name}"

    @property
    def stages(self) -> list[StageSpec]:
        return list(self._stages.values())

    def stage_named(self, name: str) -> StageSpec:
        try:
            return self._stages[name]
        except KeyError:
            raise ConfigurationError(
                f"job {self.name!r} has no stage {name!r}") from None

    def repartition(self, label: str) -> str:
        """Declare an intermediate topic; returns its full name.

        The same name is used as an upstream collector's send target
        and a downstream stage's input, which is all the wiring a
        re-keyed hop needs.
        """
        if not label:
            raise ConfigurationError("repartition needs a label")
        topic = f"__repartition-{self.name}-{label}"
        if topic not in self.repartition_topics:
            self.repartition_topics.append(topic)
        return topic

    def stage(self, name: str, inputs: list[str], task_factory,
              stores: list[str] | tuple[str, ...] = (),
              window_interval_s: float = 0.0) -> StageSpec:
        """Add one stage to the topology."""
        if name in self._stages:
            raise ConfigurationError(f"stage {name!r} already declared")
        declared = {store for spec in self._stages.values()
                    for store in spec.stores}
        for store in stores:
            if store in declared:
                # store names key changelog topics per job, so two
                # stages sharing one would interleave their mutations
                raise ConfigurationError(
                    f"store {store!r} already owned by another stage")
        spec = StageSpec(name=name, inputs=tuple(inputs),
                         task_factory=task_factory, stores=tuple(stores),
                         window_interval_s=window_interval_s)
        self._stages[name] = spec
        return spec

    def changelog_topics(self) -> list[str]:
        return [changelog_topic(self.name, store)
                for spec in self._stages.values() for store in spec.stores]

    def internal_topics(self) -> list[str]:
        return list(self.repartition_topics) + self.changelog_topics()


class JobCoordinator:
    """Owns a job's Helix cluster and its internal Kafka topics."""

    def __init__(self, spec: StreamJobSpec, cluster: KafkaCluster,
                 zookeeper: ZooKeeperServer):
        if not spec.stages:
            raise ConfigurationError(f"job {spec.name!r} declares no stages")
        self.spec = spec
        self.cluster = cluster
        self.zookeeper = zookeeper
        self.controller = HelixController(spec.helix_cluster, zookeeper)
        self._deployed = False
        self._ensure_internal_topics()
        self._validate_inputs()

    def _ensure_internal_topics(self) -> None:
        existing = set(self.cluster.topics())
        for topic in self.spec.internal_topics():
            if topic not in existing:
                self.cluster.create_topic(topic,
                                          partitions=self.spec.partitions)

    def _validate_inputs(self) -> None:
        """Every input topic must exist with exactly ``spec.partitions``
        partitions — the co-partitioning invariant the whole task model
        stands on (task ``i`` reads partition ``i`` of every input)."""
        for stage in self.spec.stages:
            for topic in stage.inputs:
                count = len(self.cluster.topic_layout(topic))
                if count != self.spec.partitions:
                    raise ConfigurationError(
                        f"stage {stage.name!r} input {topic!r} has {count} "
                        f"partitions, job runs {self.spec.partitions} tasks "
                        "— inputs must be co-partitioned")

    # -- deployment ---------------------------------------------------------

    def deploy(self, containers: list) -> int:
        """Start the containers, place every task, converge; returns
        the number of controller iterations taken."""
        if self._deployed:
            raise ConfigurationError(f"job {self.spec.name!r} is deployed")
        if not containers:
            raise ConfigurationError("deploy needs at least one container")
        names = sorted(container.name for container in containers)
        if len(set(names)) != len(names):
            raise ConfigurationError("container names must be unique")
        for container in containers:
            container.start()
            self.controller.register_participant(container.participant)
        for stage in self.spec.stages:
            self.controller.add_resource(compute_ideal_state(
                stage.name, names, self.spec.partitions, replicas=1,
                state_model=ONLINE_OFFLINE))
        self._deployed = True
        return self.controller.converge()

    def rebalance(self) -> int:
        """Recompute placement over the currently-live containers and
        converge — the recovery step after a container kill, and the
        handoff step after one rejoins."""
        live = sorted(self.controller.live_instances())
        if not live:
            raise NodeUnavailableError(
                f"job {self.spec.name!r} has no live containers")
        for stage in self.spec.stages:
            self.controller.rebalance_resource(stage.name, live)
        return self.controller.converge()

    # -- routing ------------------------------------------------------------

    def owner_of(self, stage: str, partition: int) -> str | None:
        """Which container currently runs ``stage:partition`` (from the
        external view — what a serving-layer router sees), or ``None``
        while the task is unplaced."""
        view = self.controller.external_view(stage)
        online = view.instances_in_state(partition, "ONLINE")
        return online[0] if online else None

    def assignments(self, stage: str) -> dict[int, str | None]:
        return {partition: self.owner_of(stage, partition)
                for partition in range(self.spec.partitions)}
