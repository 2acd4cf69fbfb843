"""``kafka-pubsub``: raw log throughput with batching on.

One batching producer publishes activity events to a 6-partition topic
on three brokers; two members of one consumer group poll after every
round of sends.  The partition log, the broker and the consumer do
nearly all the work — routing, Avro serialization and stream state do
none — so this is where span fetch and fsync amortisation would show.

Payloads are generated outside the timed steps and pre-stamped with their scheduled produce
time (the schedule is an open loop on the sim clock, so the stamps are
known before the run; each round's payloads are materialised untimed
just before it).  An operation is one message consumed; a driver
step is one round of sends plus the polls that follow it, because a
single send (~2 µs) is below the timer.
"""

from __future__ import annotations

import json
import random

from repro.common.clock import SimClock
from repro.kafka.broker import KafkaCluster
from repro.kafka.consumer import ConsumerGroupMember
from repro.kafka.producer import Producer
from repro.simnet.disk import SimDisk
from repro.workloads import ActivityEventGenerator
from repro.zookeeper import ZooKeeperServer

from perfbench.workloads.base import Workload, disk_live_bytes, scaled

TOPIC = "activity"
BROKERS = 3
PARTITIONS = 6
SENDS_PER_ROUND = 500
ROUND_S = 0.010             # mean sim time between rounds
RETENTION_EVERY = 100       # rounds
RETENTION_S = 0.5
BODIES = 4096               # distinct event bodies cycled through
FRESHNESS_SAMPLE = 8        # every n-th consumed message is timed
WARM_MESSAGES = 30_000      # published and consumed during set-up


class KafkaPubSub(Workload):
    name = "kafka-pubsub"
    ROUNDS = 2600

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        events = ActivityEventGenerator(num_members=10_000, seed=seed)
        bodies = [json.dumps(events.next_event(), sort_keys=True).encode()
                  for _ in range(BODIES)]
        self.bodies = bodies
        self.steps = scaled(self.ROUNDS, scale, floor=10)
        # round r ends at the sum of the gaps up to r; its sends are
        # stamped evenly across the interval that ends there
        self.round_gaps = [rng.expovariate(1.0 / ROUND_S)
                           for _ in range(self.steps)]
        self.round_starts = [0.0]
        for gap in self.round_gaps:
            self.round_starts.append(self.round_starts[-1] + gap)
        self.produced = self.steps * SENDS_PER_ROUND
        self.round_payloads: list[bytes] = []
        self.warm = [bodies[rng.randrange(BODIES)]
                     for _ in range(WARM_MESSAGES)]
        self.user_bytes = 0
        self.cluster = None

    def setup(self) -> None:
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=self.seed)
        self.cluster = KafkaCluster(
            BROKERS, "kafka", zookeeper=ZooKeeperServer(), clock=self.clock,
            partitions_per_topic=PARTITIONS, flush_interval_messages=500,
            segment_bytes=1 << 20, disk=self.disk)
        self.cluster.create_topic(TOPIC, partitions=PARTITIONS)
        self.producer = Producer(self.cluster, batch_size=200,
                                 seed=self.seed)
        self.members = [
            ConsumerGroupMember(self.cluster, "bench", f"consumer-{m}",
                                [TOPIC]) for m in range(2)]
        # start from a log that already holds (consumed) history, so the
        # measured phase sees rolled segments and committed positions
        for payload in self.warm:
            self.producer.send(TOPIC, payload)
        self.producer.flush()
        self.cluster.flush_all()
        for member in self.members:
            while member.poll():
                pass
        self.consumed = 0
        self.seq_sum = 0
        self.last_seq = [-1] * PARTITIONS
        self.disorder: list[str] = []
        self.lag_msgs_max = 0
        self.segments_deleted = 0
        self.bytes_deleted = 0

    def teardown(self) -> None:
        self.cluster = None

    def _logs(self):
        return [self.cluster.broker_for(TOPIC, p).log(TOPIC, p)
                for p in range(PARTITIONS)]

    def _poll(self) -> int:
        now = self.clock.now()
        got = 0
        for member in self.members:
            for fetched in member.poll():
                seq, stamp, _ = fetched.payload.split(b"|", 2)
                seq = int(seq)
                if seq <= self.last_seq[fetched.partition]:
                    self.disorder.append(
                        f"partition {fetched.partition}: {seq} after "
                        f"{self.last_seq[fetched.partition]}")
                self.last_seq[fetched.partition] = seq
                self.seq_sum += seq
                if seq % FRESHNESS_SAMPLE == 0:
                    self.sim_ms.append((now - float(stamp)) * 1e3)
                got += 1
        self.consumed += got
        return got

    def prepare(self, i: int) -> None:
        """Materialise round ``i``'s payloads (untimed): sequence number,
        scheduled produce time, event body.  Holding all of them up
        front would make the benchmark, not the brokers, the peak RSS."""
        first = i * SENDS_PER_ROUND
        at, gap = self.round_starts[i], self.round_gaps[i]
        bodies = self.bodies
        self.round_payloads = [
            b"%d|%.9f|%s" % (seq, at + gap * j / SENDS_PER_ROUND,
                             bodies[(seq * 2654435761 + self.seed) % BODIES])
            for j, seq in enumerate(range(first, first + SENDS_PER_ROUND))]
        self.user_bytes += sum(map(len, self.round_payloads))

    def step(self, i: int) -> None:
        send = self.producer.send
        start = i * SENDS_PER_ROUND
        for payload in self.round_payloads:
            send(TOPIC, payload)
        self.cluster.tick()
        self.clock.advance(self.round_gaps[i])
        self._poll()
        lag = start + SENDS_PER_ROUND - self.consumed
        if lag > self.lag_msgs_max:
            self.lag_msgs_max = lag
        if (i + 1) % RETENTION_EVERY == 0:
            before = sum(log.size_bytes() for log in self._logs())
            self.segments_deleted += self.cluster.run_retention(RETENTION_S)
            self.bytes_deleted += before - sum(
                log.size_bytes() for log in self._logs())
        if i + 1 == self.steps:
            self.producer.flush()
            self.cluster.flush_all()
            while self._poll():
                pass
        self.attempted = start + SENDS_PER_ROUND
        self.ops = self.consumed
        self.failed = 0 if i + 1 < self.steps else \
            self.attempted - self.consumed

    def recover(self) -> None:
        """Power-cut every broker, then boot each from its surviving
        segments (CRC scan, watermark rebuild, ZK re-registration)."""
        for broker_id in range(BROKERS):
            self.disk.crash_node(f"broker-{broker_id}")
        for broker_id in range(BROKERS):
            self.cluster.brokers[broker_id].restart()
        for member in self.members:
            member.poll()       # the cluster serves fetches again

    def check(self) -> list[str]:
        failures = list(self.disorder)
        produced = self.produced
        if self.consumed != produced:
            failures.append(f"consumed {self.consumed} of {produced}")
        if self.seq_sum != produced * (produced - 1) // 2:
            failures.append("consumed sequence numbers do not add up")
        for member in self.members:
            for (topic, partition), offset in member.stream.offsets.items():
                head = self.cluster.broker_for(topic, partition).log(
                    topic, partition).high_watermark
                if offset != head:
                    failures.append(f"{topic}-{partition}: consumer at "
                                    f"{offset}, durable end {head}")
        return failures

    def counts(self) -> dict[str, float]:
        segments = sum(len(log.segment_base_offsets())
                       for log in self._logs())
        return {
            "user_bytes": self.user_bytes,
            "simnet.disk.live_bytes": disk_live_bytes(
                self.disk, [f"broker-{b}" for b in range(BROKERS)]),
            "kafka.producer.requests_per_kmsg":
                self.producer.publish_requests * 1e3
                / max(1, self.producer.messages_sent),
            "kafka.consumer.lag_msgs_max": self.lag_msgs_max,
            # every partition starts with one segment
            "kafka.log.segments_rolled":
                segments + self.segments_deleted - PARTITIONS,
            "kafka.log.bytes_deleted": self.bytes_deleted,
        }
