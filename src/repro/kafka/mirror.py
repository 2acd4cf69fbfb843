"""Cross-datacenter mirroring and the batch-load pipeline (§V.D).

The paper's deployment: frontends publish to a *live* cluster in each
datacenter; a separate *replica* cluster "runs a set of embedded
consumers to pull data from the Kafka instances in the live
datacenters"; load jobs then "pull data from this replica cluster of
Kafka into Hadoop and our data warehouse".  End-to-end latency of the
whole pipeline was "about 10 seconds on average", dominated by batching
and polling intervals rather than transport — which is exactly what the
pipeline benchmark (EXP-K4) shows.
"""

from __future__ import annotations

from repro.hadoop import MiniHDFS
from repro.kafka.broker import KafkaCluster
from repro.kafka.consumer import SimpleConsumer
from repro.kafka.producer import Producer


class MirrorMaker:
    """Embedded consumers pulling a live cluster into a replica cluster."""

    def __init__(self, live: KafkaCluster, replica: KafkaCluster,
                 topics: list[str], batch_size: int = 200):
        self.live = live
        self.replica = replica
        self.topics = list(topics)
        self._consumer = SimpleConsumer(live)
        self._producer = Producer(replica, batch_size=batch_size,
                                  compress=True)
        # (topic, partition) -> mirrored-through offset
        self._offsets: dict[tuple[str, int], int] = {}
        for topic in self.topics:
            if topic not in replica.topics():
                replica.create_topic(
                    topic, partitions=len(live.topic_layout(topic)))
            for tp in live.topic_layout(topic):
                self._offsets[(topic, tp.partition)] = 0
        self.messages_mirrored = 0

    def poll_once(self) -> int:
        """One mirroring pass over every live partition."""
        mirrored = 0
        for (topic, partition), offset in list(self._offsets.items()):
            for payload, next_offset in self._consumer.fetch(
                    topic, partition, offset):
                self._producer.send(topic, payload)
                if self._offsets[(topic, partition)] != offset:
                    # the cursor moved while the fetch was in flight
                    # (reset or concurrent pass): don't clobber it
                    break
                self._offsets[(topic, partition)] = next_offset
                offset = next_offset
                mirrored += 1
        self._producer.flush()
        self.messages_mirrored += mirrored
        return mirrored


class HadoopLoadJob:
    """The data-load job: replica cluster -> HDFS files per partition."""

    def __init__(self, replica: KafkaCluster, hdfs: MiniHDFS, topics: list[str]):
        self.replica = replica
        self.hdfs = hdfs
        self.topics = list(topics)
        self._consumer = SimpleConsumer(replica)
        self._offsets: dict[tuple[str, int], int] = {}
        self._run_id = 0
        for topic in self.topics:
            for tp in replica.topic_layout(topic):
                self._offsets[(topic, tp.partition)] = 0
        self.messages_loaded = 0

    def run_once(self) -> list[str]:
        """Pull every new message into one dated HDFS directory."""
        self._run_id += 1
        written: list[str] = []
        for (topic, partition), offset in list(self._offsets.items()):
            records = []
            for payload, next_offset in self._consumer.fetch(
                    topic, partition, offset):
                records.append(payload)
                if self._offsets[(topic, partition)] != offset:
                    # cursor reset while fetching: keep what we read but
                    # leave the moved cursor alone
                    break
                self._offsets[(topic, partition)] = next_offset
                offset = next_offset
            if records:
                path = f"/kafka-loads/run-{self._run_id:06d}/{topic}-{partition}"
                self.hdfs.create(path, b"\n".join(records))
                written.append(path)
                self.messages_loaded += len(records)
        return written
