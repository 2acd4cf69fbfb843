"""Figure I.1 end to end: activity events through Kafka to online
consumers and the offline warehouse; profile changes through Databus to
a search index; PYMK through Hadoop into a Voldemort read-only store."""

import json

import pytest

from repro.common.clock import SimClock
from repro.common.serialization import decode_record
from repro.databus import DatabusClient, DatabusConsumer, Relay, capture_from_binlog
from repro.hadoop import MiniHDFS
from repro.kafka import KafkaCluster, Producer
from repro.kafka.consumer import ConsumerGroupMember
from repro.kafka.mirror import HadoopLoadJob, MirrorMaker
from repro.simnet import SimDisk
from repro.sqlstore import Column, SqlDatabase, TableSchema
from repro.voldemort import RoutedStore, StoreDefinition, VoldemortCluster
from repro.voldemort.readonly_pipeline import ReadOnlyPipelineController
from repro.workloads import ActivityEventGenerator


class SearchIndexConsumer(DatabusConsumer):
    """The People Search index subscribing to profile changes (§III.A)."""

    def __init__(self, relay):
        self.relay = relay
        self.index: dict[str, set[tuple]] = {}

    def on_data_event(self, event):
        schema = self.relay.schemas.get(event.source, event.schema_version)
        row = decode_record(schema, event.payload)
        for token in row["headline"].lower().split():
            self.index.setdefault(token, set()).add(event.key)

    def search(self, token):
        return sorted(self.index.get(token.lower(), set()))


def test_profile_changes_flow_to_search_index():
    clock = SimClock()
    db = SqlDatabase("profiles", clock=clock)
    db.create_table(TableSchema(
        "member", (Column("member_id", int), Column("headline", str)),
        primary_key=("member_id",)))
    relay = Relay()
    capture = capture_from_binlog(db, relay)
    searcher = SearchIndexConsumer(relay)
    client = DatabusClient(searcher, relay)

    for member_id, headline in ((1, "Staff Engineer Kafka"),
                                (2, "Espresso Engineer"),
                                (3, "Product Manager")):
        txn = db.begin()
        txn.insert("member", {"member_id": member_id, "headline": headline})
        txn.commit()
    capture.poll()
    client.run_to_head()
    assert searcher.search("engineer") == [(1,), (2,)]
    assert searcher.search("kafka") == [(1,)]


def test_activity_events_to_online_and_offline_consumers():
    clock = SimClock()
    live = KafkaCluster(2, "live", clock=clock, partitions_per_topic=4)
    replica = KafkaCluster(1, "replica", clock=clock, partitions_per_topic=4)
    live.create_topic("activity")
    generator = ActivityEventGenerator(num_members=500, seed=3)
    producer = Producer(live, batch_size=20)
    for event in generator.events(200, timestamp=clock.now()):
        producer.send("activity", json.dumps(event).encode())
    producer.flush()

    # online consumer: news-relevance group inside the live datacenter
    online = ConsumerGroupMember(live, "relevance", "c1", ["activity"])
    online_events = []
    while True:
        batch = online.poll()
        if not batch:
            break
        online_events.extend(json.loads(m.payload) for m in batch)
    assert len(online_events) == 200

    # offline path: mirror -> replica cluster -> hadoop load
    hdfs = MiniHDFS()
    mirror = MirrorMaker(live, replica, ["activity"])
    mirror.poll_once()
    job = HadoopLoadJob(replica, hdfs, ["activity"])
    job.run_once()
    assert job.messages_loaded == 200
    online.close()
    live.shutdown()
    replica.shutdown()


def test_pymk_batch_to_readonly_serving():
    """People You May Know: offline link prediction -> build/pull/swap
    -> online serving (§II.C)."""
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", replication_factor=2, required_reads=1, required_writes=1,
        engine_type="read-only"))
    hdfs = MiniHDFS()
    controller = ReadOnlyPipelineController(cluster, hdfs, "pymk")

    def score_run(seed):
        # "most of the scores change between runs"
        return [(b"member-%d" % m,
                 json.dumps([[m + 1, 0.9 - seed / 10], [m + 2, 0.5]]).encode())
                for m in range(50)]

    controller.run_cycle(score_run(0))
    routed = RoutedStore(cluster, "pymk")
    first = json.loads(routed.get(b"member-7")[0][0].value)
    controller.run_cycle(score_run(1))
    second = json.loads(routed.get(b"member-7")[0][0].value)
    assert first != second  # new run replaced the scores
    controller.rollback()
    rolled = json.loads(routed.get(b"member-7")[0][0].value)
    assert rolled == first
