"""Containers: the worker processes that host stream tasks.

A container is a Helix participant.  It does no placement of its own:
the controller tells it which ``stage:partition`` tasks to run via
ONLINE/OFFLINE transitions, and the container reacts —

* ``OFFLINE -> ONLINE``: open a :class:`TaskInstance`, which recovers
  its state (snapshot + changelog replay) and input offsets before the
  first poll;
* ``ONLINE -> OFFLINE``: final commit, then close — the clean handoff
  that lets the next owner resume exactly where this one stopped.

A **kill** is the opposite of a handoff: tasks are dropped with no
final commit (uncommitted state and staged outputs are lost, exactly
what the recovery contract must absorb), and the container's ZK
sessions close so its ephemerals — Helix liveness and the consumer
group id — vanish.  A restart reconnects with empty hands; the
controller's next rebalance hands tasks back.
"""

from __future__ import annotations

from repro.common.clock import Clock, one_clock
from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsRegistry
from repro.common.storage import Disk
from repro.helix.participant import Participant
from repro.helix.statemodel import Transition
from repro.kafka.broker import KafkaCluster
from repro.streams.job import StreamJobSpec
from repro.streams.task import TaskInstance
from repro.zookeeper import CreateMode, ZooKeeperServer, ZooKeeperSession


class StreamContainer:
    """One worker process: a Helix participant hosting TaskInstances.

    ``snapshot_interval_commits`` is handed to every task it opens: the
    cadence, in commits, at which a task checks whether a store's
    changelog tail has grown to its image and so is owed a snapshot
    barrier — not a promise that every store is republished that often.
    """

    def __init__(self, name: str, spec: StreamJobSpec,
                 cluster: KafkaCluster, zookeeper: ZooKeeperServer,
                 clock: Clock, disk: Disk, data_dir: str,
                 snapshot_interval_commits: int = 8):
        if not name:
            raise ConfigurationError("container needs a name")
        self.name = name
        self.spec = spec
        self.cluster = cluster
        self.zookeeper = zookeeper
        self.clock = one_clock(clock, cluster, disk)
        self.disk = disk
        self.data_dir = data_dir
        self.snapshot_interval_commits = snapshot_interval_commits
        self.metrics = MetricsRegistry()
        self.participant = Participant(name, spec.helix_cluster, zookeeper,
                                       handler=self._on_transition)
        self._zk: ZooKeeperSession | None = None
        # (stage, partition) -> live task
        self.tasks: dict[tuple[str, int], TaskInstance] = {}
        self.alive = False
        self.kills = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Join the cluster: Helix liveness plus a consumer-group id, so
        group tooling sees stream containers like any other member."""
        if self.alive:
            return
        self._zk = self.zookeeper.connect()
        ids_path = f"/consumers/{self.spec.group}/ids"
        self._zk.ensure_path(ids_path)
        topics = sorted({topic for stage in self.spec.stages
                         for topic in stage.inputs})
        self._zk.create(f"{ids_path}/{self.name}",
                        data=",".join(topics).encode(),
                        mode=CreateMode.EPHEMERAL)
        self.participant.connect()
        self.alive = True

    def stop(self) -> None:
        """Graceful shutdown: commit everything, then leave."""
        if not self.alive:
            return
        for key in sorted(self.tasks):
            self.tasks[key].commit()
        self.tasks.clear()
        self.participant.disconnect()
        self._close_session()
        self.alive = False

    def kill(self) -> None:
        """Crash: no final commit.  In-memory state, staged outputs and
        unflushed changelog mutations are gone; ephemerals vanish with
        the sessions; durable files (snapshots, logs) survive on disk.
        """
        if not self.alive:
            return
        self.tasks.clear()
        self.participant.disconnect()
        self._close_session()
        self.alive = False
        self.kills += 1
        self.metrics.counter("kills").increment()

    def restart(self) -> None:
        """Come back empty; the controller re-places tasks afterwards."""
        if self.alive:
            return
        self.start()

    def _close_session(self) -> None:
        if self._zk is not None:
            self._zk.close()
            self._zk = None

    # -- transition handling ------------------------------------------------

    def _on_transition(self, transition: Transition) -> None:
        key = (transition.resource, transition.partition)
        if transition.to_state == "ONLINE":
            stage = self.spec.stage_named(transition.resource)
            self.tasks[key] = TaskInstance(
                self.spec.name, stage, transition.partition, self.cluster,
                self._zk, self.clock, self.disk, self.data_dir,
                topic_partitions=self.spec.partitions,
                snapshot_interval_commits=self.snapshot_interval_commits)
            self.metrics.counter("tasks_opened").increment()
        elif transition.from_state == "ONLINE":
            task = self.tasks.pop(key, None)
            if task is not None:
                task.commit()
                self.metrics.counter("tasks_closed").increment()

    # -- the processing loop ------------------------------------------------

    def task(self, stage: str, partition: int) -> TaskInstance:
        try:
            return self.tasks[(stage, partition)]
        except KeyError:
            raise ConfigurationError(
                f"container {self.name!r} does not host "
                f"{stage}:{partition}") from None

    def poll(self, max_messages: int = 10_000) -> int:
        handled = 0
        for key in sorted(self.tasks):
            handled += self.tasks[key].poll(max_messages)
        return handled

    def commit(self) -> int:
        """Commit every hosted task; returns output records flushed."""
        flushed = 0
        for key in sorted(self.tasks):
            flushed += self.tasks[key].commit()
        return flushed

    def run_cycle(self, max_messages: int = 10_000) -> int:
        """One poll + commit over every hosted task; returns messages
        handled plus output records flushed by the commit.  A zero
        return therefore means real quiescence: ``while
        sum(c.run_cycle() for c in fleet)`` cannot exit while a task
        that polled under an earlier uncommitted cycle still owes
        staged repartition records to a downstream stage."""
        handled = self.poll(max_messages)
        return handled + self.commit()

    def lag(self) -> int:
        return sum(self.tasks[key].lag() for key in sorted(self.tasks))
