#!/usr/bin/env python3
"""Kafka activity pipeline (§V): producers, groups, mirroring, audit.

Frontend servers publish user-activity events to the live Kafka
cluster; an online consumer group processes them; a mirror cluster
feeds the Hadoop load job; the audit reconciler proves nothing was
lost.

Run:  python examples/activity_events.py
"""

import json

from repro.audit import CountConservation
from repro.common.clock import SimClock
from repro.hadoop import MiniHDFS
from repro.kafka import KafkaCluster
from repro.kafka.audit import AUDIT_TOPIC, AuditingProducer, AuditReconciler
from repro.kafka.consumer import ConsumerGroupMember
from repro.kafka.mirror import HadoopLoadJob, MirrorMaker
from repro.workloads import ActivityEventGenerator


def main() -> None:
    clock = SimClock()
    live = KafkaCluster(3, "live", clock=clock, partitions_per_topic=6)
    replica = KafkaCluster(2, "replica", clock=clock, partitions_per_topic=6)
    live.create_topic("activity")
    live.create_topic(AUDIT_TOPIC, partitions=1)

    # three frontend servers publishing with audit instrumentation
    frontends = []
    for i in range(3):
        generator = ActivityEventGenerator(num_members=10_000, seed=i,
                                           server_name=f"app-{i:02d}")
        producer = AuditingProducer(live, f"app-{i:02d}", clock=clock)
        frontends.append((generator, producer))
    total = 0
    for tick in range(20):
        clock.advance(1.0)
        for generator, producer in frontends:
            for event in generator.events(25, timestamp=clock.now()):
                producer.send("activity", event)
                total += 1
    for _, producer in frontends:
        producer.flush()
        producer.publish_monitoring_events()
    print(f"published {total} activity events from 3 frontends")

    # an online consumer group: two news-relevance workers
    workers = [ConsumerGroupMember(live, "relevance", f"worker-{i}",
                                   ["activity"]) for i in range(2)]
    counts = {}
    for _ in range(4):
        for worker in workers:
            for fetched in worker.poll():
                event = json.loads(fetched.payload)
                counts[event["event_type"]] = \
                    counts.get(event["event_type"], 0) + 1
    print("online consumption by type:", dict(sorted(counts.items())))
    print("partitions per worker:",
          [len(w.stream.assignments) for w in workers])

    # mirror to the offline cluster and load into Hadoop
    mirror = MirrorMaker(live, replica, ["activity"])
    mirrored = mirror.poll_once()
    hdfs = MiniHDFS()
    job = HadoopLoadJob(replica, hdfs, ["activity"])
    job.run_once()
    print(f"mirrored {mirrored} events; "
          f"loaded {job.messages_loaded} into HDFS "
          f"({len(hdfs.glob_files('/kafka-loads'))} files)")

    # the audit proves no loss end to end
    reconciler = AuditReconciler(live, ["activity"])
    audit = CountConservation("kafka-audit", "kafka:activity",
                              reconciler.produced, reconciler.consumed)
    print("audit complete:", audit.check() == [],
          "| windows audited:", len(reconciler.produced()))
    for worker in workers:
        worker.close()
    live.shutdown()
    replica.shutdown()


if __name__ == "__main__":
    main()
