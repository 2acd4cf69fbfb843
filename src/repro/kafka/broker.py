"""Brokers and the cluster view (§V.A, Figure V.1).

"A Kafka cluster typically consists of multiple brokers.  To balance
load, a topic is divided into multiple partitions and each broker
stores one or more of those partitions."

Brokers register ephemeral znodes under ``/brokers/ids`` and advertise
the topic partitions they host under ``/brokers/topics`` — the
Zookeeper layout consumers rebalance against (§V.C task 1: "detecting
the addition and the removal of brokers and consumers").
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.clock import Clock, one_clock
from repro.common.errors import ConfigurationError
from repro.common.overload import (
    PRIORITY_LIVE,
    PRIORITY_WRITE,
    AdmissionController,
)
from repro.kafka.log import PartitionLog
from repro.kafka.message import MessageSet
from repro.simnet.disk import Disk, SimDisk
from repro.zookeeper import CreateMode, ZooKeeperServer


@dataclass(frozen=True)
class TopicPartition:
    topic: str
    partition: int
    broker_id: int

    @property
    def name(self) -> str:
        return f"{self.topic}-{self.partition}"


class Broker:
    """One broker process: a set of partition logs plus ZK registration."""

    def __init__(self, broker_id: int, data_dir: str, disk: Disk,
                 zookeeper: ZooKeeperServer | None = None,
                 flush_interval_messages: int = 1,
                 segment_bytes: int = 1 << 20,
                 admission: AdmissionController | None = None):
        self.broker_id = broker_id
        self.data_dir = data_dir
        self.disk = disk
        self.clock = disk.clock
        # bounded request handling: with an admission controller the
        # broker sheds overflow as fast ServerOverloadedError instead
        # of queueing requests without bound — consumer fetches outrank
        # produces, which outrank replication catch-up (see
        # ReplicatedPartition.poll_replication)
        self.admission = admission
        self.flush_interval_messages = flush_interval_messages
        self.flush_interval_seconds = 0.0   # 0 disables the time trigger
        self.segment_bytes = segment_bytes
        self._logs: dict[tuple[str, int], PartitionLog] = {}
        self._zookeeper = zookeeper
        self._session = None
        self.bytes_in = 0
        self.bytes_out = 0
        if zookeeper is not None:
            self.register()

    def _make_log(self, directory: str) -> PartitionLog:
        return PartitionLog(
            directory, self.disk, segment_bytes=self.segment_bytes,
            flush_interval_messages=self.flush_interval_messages,
            flush_interval_seconds=self.flush_interval_seconds)

    # -- zookeeper liveness -----------------------------------------------------

    def register(self) -> None:
        """Join (or rejoin after a restart): liveness znode plus log
        recovery for any partitions closed by a previous shutdown."""
        if self._session is not None:
            # a rejoin after a kill: the dead process's session (and its
            # ephemerals) must go before the new incarnation registers
            self._session.close()
        self._session = self._zookeeper.connect()
        self._session.ensure_path("/brokers/ids")
        self._session.create(f"/brokers/ids/{self.broker_id}",
                             data=str(self.broker_id).encode(),
                             mode=CreateMode.EPHEMERAL)
        self._reopen_closed_logs()

    def _reopen_closed_logs(self) -> None:
        """Recover every partition whose file handle died (shutdown or
        crash): the PartitionLog constructor runs the CRC recovery scan
        and rebuilds the high watermark from the surviving bytes."""
        for key, log in list(self._logs.items()):
            if log._active_file is None or log._active_file.closed:
                self._logs[key] = self._make_log(log.directory)

    def restart(self) -> None:
        """Boot from on-disk state after a kill: recover all partition
        logs, then rejoin Zookeeper if this broker uses one."""
        if self._zookeeper is not None:
            self.register()  # register() also reopens closed logs
        else:
            self._reopen_closed_logs()

    @property
    def is_alive(self) -> bool:
        return self._session is not None

    def shutdown(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None
        for log in self._logs.values():
            log.close()

    # -- partition hosting -------------------------------------------------------

    def create_partition(self, topic: str, partition: int) -> PartitionLog:
        key = (topic, partition)
        if key in self._logs:
            raise ConfigurationError(f"{topic}-{partition} already hosted")
        directory = os.path.join(self.data_dir, f"{topic}-{partition}")
        log = self._make_log(directory)
        if key in self._logs:
            # a concurrent create_partition won the race while our log
            # recovered from disk; keep theirs so writes don't diverge
            log.close()
            raise ConfigurationError(f"{topic}-{partition} already hosted")
        self._logs[key] = log
        if self._session is not None:
            self._session.ensure_path(f"/brokers/topics/{topic}")
            self._session.create(
                f"/brokers/topics/{topic}/{self.broker_id}-{partition}",
                mode=CreateMode.EPHEMERAL)
        return log

    def log(self, topic: str, partition: int) -> PartitionLog:
        try:
            return self._logs[(topic, partition)]
        except KeyError:
            raise ConfigurationError(
                f"broker {self.broker_id} does not host "
                f"{topic}-{partition}") from None

    def partitions(self) -> list[tuple[str, int]]:
        return sorted(self._logs)

    # -- produce / fetch ------------------------------------------------------------

    def produce(self, topic: str, partition: int,
                message_set: MessageSet,
                priority: int = PRIORITY_WRITE) -> int:
        if self.admission is not None:
            self.admission.admit(priority,
                                 what=f"produce {topic}-{partition}")
        self.bytes_in += message_set.wire_size
        return self.log(topic, partition).append(message_set)

    def fetch(self, topic: str, partition: int, offset: int,
              max_bytes: int = 300 * 1024,
              priority: int = PRIORITY_LIVE) -> bytes:
        if self.admission is not None:
            self.admission.admit(priority,
                                 what=f"fetch {topic}-{partition}")
        data = self.log(topic, partition).read(offset, max_bytes)
        self.bytes_out += len(data)
        return data

    def run_retention(self, retention_seconds: float) -> int:
        return sum(log.delete_old_segments(retention_seconds)
                   for log in self._logs.values())

    def tick(self) -> int:
        """Clock-driven flush sweep over every hosted partition.

        Time-based flushes used to fire only inside ``append``, so a
        quiet partition's staged tail stayed consumer-invisible until
        its next write.  The broker's periodic tick closes that hole;
        returns the number of partitions flushed.
        """
        return sum(1 for log in self._logs.values() if log.maybe_flush())


class KafkaCluster:
    """Wiring: brokers, topic layout, and the shared Zookeeper."""

    def __init__(self, num_brokers: int, data_root: str,
                 zookeeper: ZooKeeperServer | None = None,
                 clock: Clock | None = None,
                 partitions_per_topic: int = 4,
                 flush_interval_messages: int = 1,
                 segment_bytes: int = 1 << 20,
                 disk: SimDisk | None = None,
                 admission_rate: float | None = None,
                 admission_burst: float | None = None):
        if num_brokers <= 0:
            raise ConfigurationError("need at least one broker")
        if partitions_per_topic < 1:
            raise ConfigurationError(
                f"partitions_per_topic must be >= 1, got {partitions_per_topic}")
        self.zookeeper = zookeeper or ZooKeeperServer()
        self.partitions_per_topic = partitions_per_topic
        self.disk = disk if disk is not None else SimDisk(clock=clock)
        self.clock = one_clock(clock, self.disk)
        self.brokers: dict[int, Broker] = {}
        for broker_id in range(num_brokers):
            # each broker's files live in its own crash domain
            # ("broker-N/..."), under data_root inside it
            admission = None
            if admission_rate is not None:
                admission = AdmissionController(
                    self.clock, admission_rate, admission_burst,
                    name=f"broker-{broker_id}.admission")
            self.brokers[broker_id] = Broker(
                broker_id, os.path.join(data_root, f"broker-{broker_id}"),
                self.disk.scope(f"broker-{broker_id}"), self.zookeeper,
                flush_interval_messages=flush_interval_messages,
                segment_bytes=segment_bytes, admission=admission)
        self._topics: dict[str, list[TopicPartition]] = {}
        # topic -> partition -> hosting broker id, built with the layout
        self._hosts: dict[str, dict[int, int]] = {}

    def create_topic(self, topic: str,
                     partitions: int | None = None) -> list[TopicPartition]:
        """Create a topic, spreading partitions round-robin over brokers;
        ``partitions=None`` takes the cluster's ``partitions_per_topic``."""
        if topic in self._topics:
            raise ConfigurationError(f"topic {topic!r} exists")
        count = self.partitions_per_topic if partitions is None \
            else partitions
        if count < 1:
            raise ConfigurationError(
                f"topic {topic!r} needs at least one partition, got {count}")
        layout = []
        broker_ids = sorted(self.brokers)
        for partition in range(count):
            broker_id = broker_ids[partition % len(broker_ids)]
            self.brokers[broker_id].create_partition(topic, partition)
            layout.append(TopicPartition(topic, partition, broker_id))
        self._topics[topic] = layout
        self._hosts[topic] = {tp.partition: tp.broker_id for tp in layout}
        return layout

    def topic_layout(self, topic: str) -> list[TopicPartition]:
        try:
            return self._topics[topic]
        except KeyError:
            raise ConfigurationError(f"unknown topic {topic!r}") from None

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def broker_for(self, topic: str, partition: int) -> Broker:
        try:
            return self.brokers[self._hosts[topic][partition]]
        except KeyError:
            self.topic_layout(topic)    # unknown topic raises its own error
            raise ConfigurationError(
                f"no partition {topic}-{partition}") from None

    def flush_all(self) -> None:
        for broker in self.brokers.values():
            for topic, partition in broker.partitions():
                broker.log(topic, partition).flush()

    def tick(self) -> int:
        """One cluster-wide clock-driven flush sweep (see Broker.tick)."""
        return sum(broker.tick() for broker in self.brokers.values())

    def run_retention(self, retention_seconds: float) -> int:
        return sum(b.run_retention(retention_seconds)
                   for b in self.brokers.values())

    def shutdown(self) -> None:
        for broker in self.brokers.values():
            broker.shutdown()
