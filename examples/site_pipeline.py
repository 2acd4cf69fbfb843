#!/usr/bin/env python3
"""Figure I.1 in one process: the whole site data pipeline.

Espresso is the primary member store; its Databus update stream feeds
the people-search index and the social graph; the batch scheduler
rescoren People You May Know on "Hadoop" and swaps the result into a
Voldemort read-only store; Kafka carries the activity events the whole
time, audited end to end.

Run:  python examples/site_pipeline.py
"""

import json

from repro.audit import CountConservation
from repro.common.clock import SimClock
from repro.common.serialization import Field, RecordSchema, decode_record
from repro.databus.client import DatabusClient, DatabusConsumer
from repro.espresso import DatabaseSchema, EspressoCluster, EspressoTableSchema, Router
from repro.espresso.storage import partition_buffer_name
from repro.hadoop import MiniHDFS
from repro.hadoop.scheduler import Workflow, WorkflowJob, WorkflowScheduler
from repro.kafka import KafkaCluster
from repro.kafka.audit import AUDIT_TOPIC, AuditingProducer, AuditReconciler
from repro.recommendations import PymkPipeline
from repro.search import PeopleSearchService
from repro.search.index import RankedInvertedIndex
from repro.simnet import SimDisk
from repro.socialgraph import PartitionedSocialGraph
from repro.sqlstore.binlog import ChangeKind
from repro.voldemort import RoutedStore, StoreDefinition, VoldemortCluster

MEMBERS_DB = DatabaseSchema(
    name="Members", num_partitions=8, replication_factor=2,
    tables=(EspressoTableSchema("Profile", ("member",)),
            EspressoTableSchema("Connection", ("member", "other"))))
PROFILE = RecordSchema("Profile", [Field("name", "string"),
                                   Field("headline", "string")])
CONNECTION = RecordSchema("Connection", [Field("since", "long")])

PROFILES = [
    ("member-1", "Jay Kreps", "Kafka and logs"),
    ("member-2", "Jun Rao", "Kafka engineer"),
    ("member-3", "Lin Qiao", "Espresso engineer"),
    ("member-4", "Kishore G", "Helix cluster manager"),
    ("member-5", "Roshan S", "Voldemort engineer"),
]
CONNECTIONS = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]


class StreamFanout(DatabusConsumer):
    """One subscriber feeding search + social graph from Espresso CDC."""

    def __init__(self, cluster, search_index, graph):
        self.cluster = cluster
        self.search_index = search_index
        self.graph = graph

    def on_data_event(self, event):
        schema = self.cluster.relay.schemas.get(event.source,
                                                event.schema_version)
        row = decode_record(schema, event.payload)
        if event.source == "Profile":
            document = decode_record(
                self.cluster.schemas.latest("Members", "Profile"), row["val"])
            member_id = int(event.key[0].split("-")[1])
            self.search_index.add(member_id, document)
        elif event.source == "Connection":
            a = int(event.key[0].split("-")[1])
            b = int(event.key[1].split("-")[1])
            if event.kind is ChangeKind.DELETE:
                self.graph.disconnect(a, b)
            else:
                self.graph.connect(a, b)


def main() -> None:
    clock = SimClock()
    # --- primary storage: Espresso ------------------------------------
    espresso = EspressoCluster(MEMBERS_DB, num_nodes=3, clock=clock)
    espresso.post_document_schema("Profile", PROFILE)
    espresso.post_document_schema("Connection", CONNECTION)
    espresso.start()
    router = Router(espresso)
    for member, name, headline in PROFILES:
        router.put(f"/Members/Profile/{member}",
                   {"name": name, "headline": headline})
    for a, b in CONNECTIONS:
        router.put(f"/Members/Connection/member-{a}/member-{b}", {"since": 0})
    print(f"Espresso: {len(PROFILES)} profiles + {len(CONNECTIONS)} "
          "connections committed")

    # --- the update stream fans out to search + social graph -----------
    search_index = RankedInvertedIndex({"name": 3.0, "headline": 1.0})
    graph = PartitionedSocialGraph(8)
    fanout = StreamFanout(espresso, search_index, graph)
    for partition in range(MEMBERS_DB.num_partitions):
        buffer = partition_buffer_name("Members", partition)
        if buffer in espresso.relay.buffer_names():
            DatabusClient(fanout, espresso.relay,
                          buffer_name=buffer).run_to_head()
    print(f"Databus fanout: search index {len(search_index)} docs, "
          f"graph {graph.edge_count} edges")
    hits = search_index.search(
        "kafka", feature_scorer=lambda m: 1.0 if graph.distance(1, m, 2) == 1
        else 0.0, feature_weight=0.5)
    print("search 'kafka' viewed by member 1:",
          [(h.doc_id, round(h.score, 2)) for h in hits])

    # --- batch: scheduled PYMK refresh into Voldemort ------------------
    voldemort = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                                 clock=clock, disk=SimDisk(clock=clock))
    voldemort.define_store(StoreDefinition(
        "pymk", 2, 1, 1, engine_type="read-only"))
    pymk = PymkPipeline(voldemort, MiniHDFS(), k=3)
    scheduler = WorkflowScheduler(clock)
    scheduler.schedule(Workflow("pymk-refresh", [
        WorkflowJob("score-and-deploy", lambda ctx: pymk.run(graph))]),
        every_seconds=86_400)
    clock.advance(86_400 + 1)
    routed = RoutedStore(voldemort, "pymk")
    for member in (1, 5):
        print(f"PYMK for member {member}:",
              pymk.recommendations_for(routed, member))

    # --- activity events through Kafka, audited --------------------
    kafka = KafkaCluster(2, "kafka", clock=clock, partitions_per_topic=4)
    kafka.create_topic("activity")
    kafka.create_topic(AUDIT_TOPIC, partitions=1)
    producer = AuditingProducer(kafka, "frontend-1", clock=clock)
    for member, name, _ in PROFILES:
        producer.send("activity", {"member": member, "event": "page_view"})
    producer.flush()
    producer.publish_monitoring_events()
    reconciler = AuditReconciler(kafka, ["activity"])
    audit = CountConservation("kafka-audit", "kafka:activity",
                              reconciler.produced, reconciler.consumed)
    print(f"Kafka: {sum(reconciler.consumed().values())} activity "
          f"events, audit complete: {audit.check() == []}")
    kafka.shutdown()
    voldemort.close()


if __name__ == "__main__":
    main()
