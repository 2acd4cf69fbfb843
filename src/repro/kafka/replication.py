"""Intra-cluster replication — the paper's announced future work.

§V.D closes with: "One of the most important features that we plan to
add in the future is intra-cluster replication."  That feature shipped
as Kafka 0.8's leader/follower design; this module implements it in the
shape it took:

* each topic partition has one **leader** broker and N-1 **follower**
  brokers, each holding a full copy of the partition log;
* producers write to the leader only; followers *pull* from the
  leader: each poll reads the leader's partition log directly (not
  through :meth:`Broker.fetch`), admitted as bulk-class traffic, and
  appends whole frames only, so a follower's segments begin and end on
  frame boundaries exactly like the leader's;
* the **in-sync replica set (ISR)** contains the leader plus every
  follower within a bounded lag of the leader's log end;
* a message is **committed** once every ISR member has it; consumers
  only ever see committed messages;
* on leader failure a new leader is elected from the ISR, which is
  exactly why no committed message can be lost while at least one ISR
  member survives.

Election state lives in Zookeeper so the choice is visible to (and
driven by) a single controller, mirroring the real design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.common.errors import (
    ConfigurationError,
    NodeUnavailableError,
    OffsetOutOfRangeError,
)
from repro.common.overload import PRIORITY_BULK
from repro.kafka.broker import Broker, KafkaCluster
from repro.kafka.log import scan_valid_bytes
from repro.kafka.message import MessageSet


class NotEnoughReplicasError(ConfigurationError):
    """The ISR shrank below the configured minimum for writes."""


@dataclass
class ReplicaState:
    broker_id: int
    log_end_offset: int = 0


class ReplicatedPartition:
    """One partition's replication state machine."""

    def __init__(self, cluster: KafkaCluster, topic: str, partition: int,
                 replica_ids: list[int], min_insync_replicas: int = 1):
        if len(set(replica_ids)) != len(replica_ids) or not replica_ids:
            raise ConfigurationError("replicas must be distinct and non-empty")
        if min_insync_replicas > len(replica_ids):
            raise ConfigurationError("min ISR exceeds replica count")
        self.cluster = cluster
        self.topic = topic
        self.partition = partition
        self.replica_ids = list(replica_ids)
        self.min_insync_replicas = min_insync_replicas
        self.leader_id = replica_ids[0]
        self.isr: set[int] = set(replica_ids)
        self.committed_offset = 0
        self._replicas = {broker_id: ReplicaState(broker_id)
                          for broker_id in replica_ids}
        for broker_id in replica_ids:
            self.cluster.brokers[broker_id].create_partition(topic, partition)

    # -- helpers ---------------------------------------------------------

    def _broker(self, broker_id: int) -> Broker:
        return self.cluster.brokers[broker_id]

    def _log(self, broker_id: int):
        return self._broker(broker_id).log(self.topic, self.partition)

    def _alive(self, broker_id: int) -> bool:
        return self._broker(broker_id).is_alive

    @property
    def leader_log_end(self) -> int:
        return self._log(self.leader_id).high_watermark

    # -- produce path -------------------------------------------------------

    def produce(self, message_set: MessageSet) -> int:
        """Append to the leader; returns the first assigned offset.

        Raises :class:`NotEnoughReplicasError` when the ISR is below the
        configured minimum — the durability guard.
        """
        if not self._alive(self.leader_id):
            raise NodeUnavailableError(
                f"leader {self.leader_id} of {self.topic}-{self.partition} "
                "is down; run handle_failures()")
        if len(self.isr) < self.min_insync_replicas:
            raise NotEnoughReplicasError(
                f"ISR {sorted(self.isr)} below minimum "
                f"{self.min_insync_replicas}")
        offset = self._broker(self.leader_id).produce(
            self.topic, self.partition, message_set)
        self._log(self.leader_id).flush()
        self._replicas[self.leader_id].log_end_offset = self.leader_log_end
        self._update_committed()
        return offset

    # -- replication pump ------------------------------------------------------

    def poll_replication(self, max_bytes: int = 1 << 20) -> int:
        """Followers pull from the leader; returns bytes replicated.

        Also recomputes ISR membership: a live follower rejoins the ISR
        once it has caught up with the leader; an unreachable
        follower is dropped.
        """
        replicated = 0
        leader_end = self.leader_log_end
        leader_admission = self._broker(self.leader_id).admission
        for broker_id in self.replica_ids:
            if broker_id == self.leader_id:
                continue
            if not self._alive(broker_id):
                self.isr.discard(broker_id)
                continue
            state = self._replicas[broker_id]
            while state.log_end_offset < leader_end:
                # replication catch-up is bulk-class traffic on the
                # leader: under pressure the follower simply stays
                # lagged until the next poll, so live fetches and
                # produces keep their admission tokens
                if leader_admission is not None and \
                        not leader_admission.try_admit(PRIORITY_BULK):
                    break
                data = self._log(self.leader_id).read(
                    state.log_end_offset, max_bytes)
                # a window that cut the last frame would leave half a
                # frame at the end of a follower segment, which its
                # recovery scan truncates and its readers stall on
                data = data[:scan_valid_bytes(data)]
                if not data:
                    break
                follower_log = self._log(broker_id)
                follower_log.append_raw(data)
                follower_log.flush()
                state.log_end_offset += len(data)
                replicated += len(data)
            lag = leader_end - state.log_end_offset
            if lag <= 0:
                self.isr.add(broker_id)
            else:
                self.isr.discard(broker_id)
        self._update_committed()
        return replicated

    def _update_committed(self) -> None:
        """Committed = replicated to every in-sync replica."""
        isr_ends = [self._replicas[b].log_end_offset for b in self.isr
                    if self._alive(b)]
        if isr_ends:
            self.committed_offset = min(isr_ends)

    # -- fetch path ----------------------------------------------------------------

    def fetch(self, offset: int, max_bytes: int = 300 * 1024) -> bytes:
        """Consumer fetch from the leader, bounded by the committed
        offset — uncommitted tails are invisible."""
        if not self._alive(self.leader_id):
            raise NodeUnavailableError(
                f"leader {self.leader_id} of {self.topic}-{self.partition} "
                "is down; run handle_failures()")
        if offset > self.committed_offset:
            raise OffsetOutOfRangeError(
                f"offset {offset} beyond committed {self.committed_offset}")
        if offset == self.committed_offset:
            return b""
        log = self._log(self.leader_id)
        data = log.read(offset, max_bytes)
        visible = self.committed_offset - offset
        return data[:visible]

    # -- failure handling -------------------------------------------------------------

    def handle_failures(self) -> bool:
        """Re-elect a leader if the current one died; returns True when
        leadership changed.  The new leader must come from the ISR so no
        committed message is lost."""
        self.isr = {b for b in self.isr if self._alive(b)}
        if self._alive(self.leader_id):
            return False
        candidates = [b for b in self.replica_ids
                      if b in self.isr and self._alive(b)]
        if not candidates:
            raise NotEnoughReplicasError(
                f"{self.topic}-{self.partition}: no live in-sync replica "
                "to elect")
        self.leader_id = candidates[0]
        # truncate our view to what the new leader actually has; the
        # committed offset can only be <= the new leader's log end
        self._replicas[self.leader_id].log_end_offset = self.leader_log_end
        self._update_committed()
        return True


class ReplicatedTopic:
    """A topic whose partitions are leader/follower replicated."""

    def __init__(self, cluster: KafkaCluster, topic: str, partitions: int,
                 replication_factor: int, min_insync_replicas: int = 1):
        if replication_factor > len(cluster.brokers):
            raise ConfigurationError(
                "replication factor exceeds broker count")
        self.cluster = cluster
        self.topic = topic
        broker_ids = sorted(cluster.brokers)
        self.partitions: dict[int, ReplicatedPartition] = {}
        for partition in range(partitions):
            replicas = [broker_ids[(partition + i) % len(broker_ids)]
                        for i in range(replication_factor)]
            self.partitions[partition] = ReplicatedPartition(
                cluster, topic, partition, replicas,
                min_insync_replicas=min_insync_replicas)
        self._publish_state()

    def _publish_state(self) -> None:
        """Record leadership + ISR in Zookeeper (the controller's view)."""
        session = self.cluster.zookeeper.connect()
        session.ensure_path(f"/replicated-topics/{self.topic}")
        for partition, state in self.partitions.items():
            path = f"/replicated-topics/{self.topic}/{partition}"
            payload = json.dumps({
                "leader": state.leader_id,
                "isr": sorted(state.isr),
                "replicas": state.replica_ids,
            }).encode()
            if session.exists(path):
                session.set(path, payload)
            else:
                session.create(path, payload)
        session.close()

    def produce(self, partition: int, message_set: MessageSet) -> int:
        return self.partitions[partition].produce(message_set)

    def fetch(self, partition: int, offset: int,
              max_bytes: int = 300 * 1024) -> bytes:
        return self.partitions[partition].fetch(offset, max_bytes)

    def poll_replication(self) -> int:
        total = sum(p.poll_replication() for p in self.partitions.values())
        self._publish_state()
        return total

    def handle_failures(self) -> list[int]:
        """React to broker deaths; returns partitions whose leader moved."""
        moved = [partition for partition, state in self.partitions.items()
                 if state.handle_failures()]
        self._publish_state()
        return moved

    def leaders(self) -> dict[int, int]:
        return {p: s.leader_id for p, s in self.partitions.items()}
