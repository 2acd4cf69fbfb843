"""Cross-system chaos tests for the unified resilience layer.

Each test drives a deterministic failure scenario through the
:class:`SimNetwork` failure injector (or the system's own crash hooks)
and asserts the paper's end-to-end promises hold *through* the failure:

* a Databus client misses no SCN when its relay crashes — it switches
  to the bootstrap server and returns to the relay after recovery;
* a Kafka producer delivers every acknowledged message across a leader
  crash, re-electing from the ISR between retries;
* a Voldemort quorum read keeps answering with one replica partitioned
  away, and the replica's circuit breaker opens/closes around the
  partition;
* an Espresso write lands on the freshly promoted master after the old
  master crashes, with the router driving the Helix failover between
  retries.

Everything runs on seeded RNGs and a SimClock, so every schedule —
backoff delays included — is reproducible.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    DeadlineExceededError,
    InsufficientOperationalNodesError,
    ObsoleteVersionError,
)
from repro.common.resilience import Deadline, RetryPolicy
from repro.databus import (
    BootstrapServer,
    DatabusClient,
    DatabusConsumer,
    Relay,
    capture_from_binlog,
)
from repro.kafka import KafkaCluster
from repro.kafka.consumer import SimpleConsumer
from repro.kafka.message import Message, MessageSet, iter_messages
from repro.kafka.producer import Producer
from repro.kafka.replication import ReplicatedTopic
from repro.voldemort import RoutedStore, StoreDefinition, Versioned, VoldemortCluster

from tests.databus.conftest import MEMBER_SCHEMA, insert_member
from tests.espresso.conftest import (
    ALBUM_SCHEMA,
    ARTIST_SCHEMA,
    MUSIC,
    SONG_SCHEMA,
)
from repro.espresso import EspressoCluster, Router
from repro.simnet import SimNetwork, fixed_latency
from repro.sqlstore import SqlDatabase

pytestmark = pytest.mark.chaos

POLICY = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.5)


# -- Databus: relay crash -> bootstrap switchover ---------------------------

class RecordingConsumer(DatabusConsumer):
    def __init__(self):
        self.windows = []
        self.events = []

    def on_data_event(self, event):
        self.events.append(event)

    def on_end_window(self, scn):
        self.windows.append(scn)


def test_databus_client_survives_relay_crash_via_bootstrap():
    clock = SimClock()
    net = SimNetwork(clock=clock, seed=11, latency_model=fixed_latency(0.0005))
    db = SqlDatabase("profiles", clock=clock)
    db.create_table(MEMBER_SCHEMA)
    relay = Relay("relay-1")
    capture = capture_from_binlog(db, relay)
    bootstrap = BootstrapServer("bootstrap-1")
    consumer = RecordingConsumer()
    client = DatabusClient(consumer, relay, bootstrap, network=net,
                           client_name="client", retry_policy=POLICY)

    def produce(first, last):
        for member_id in range(first, last + 1):
            insert_member(db, member_id)
        capture.poll()
        # the bootstrap server captures in parallel with the relay
        bootstrap.on_events(relay.stream_from(bootstrap.high_watermark))

    produce(1, 5)
    assert client.poll() == 5
    assert client.checkpoint == 5

    # the relay process dies; more commits keep flowing upstream
    net.failures.crash("relay-1")
    produce(6, 10)
    delivered = client.poll()  # retries exhaust, then bootstrap serves it
    assert delivered == 5
    assert client.checkpoint == 10
    assert client.stats.relay_failovers == 1
    assert client.metrics.counter("relay.poll.retries").value >= 1
    assert client.metrics.counter("relay.poll.exhausted").value == 1

    # a second poll while still down: the breaker has opened by now, so
    # the relay is not even attempted — straight to bootstrap (no new
    # windows, so nothing is redelivered)
    assert client.poll() == 0
    assert client.stats.relay_failovers == 2
    assert client.metrics.counter("relay.breaker.opened").value == 1

    # relay recovers; past the reset timeout the half-open probe
    # succeeds and polling returns to the relay
    net.failures.recover("relay-1")
    produce(11, 12)
    clock.advance(client.relay_breaker.reset_timeout)
    assert client.poll() == 2
    assert client.relay_breaker.state == "closed"
    assert client.stats.relay_reconnects == 1

    # the invariant: every SCN delivered exactly once, no gaps
    assert consumer.windows == list(range(1, 13))


# -- Kafka: producer and consumer across a leader crash -------------------------

def test_kafka_producer_delivers_all_acked_across_leader_crash():
    cluster = KafkaCluster(num_brokers=3, data_root="kafka",
                           clock=SimClock())
    topic = ReplicatedTopic(cluster, "activity", partitions=1,
                            replication_factor=3, min_insync_replicas=2)
    producer = Producer(cluster, batch_size=5, retry_policy=POLICY)
    producer.attach_replicated(topic)

    payloads = [b"m-%03d" % i for i in range(20)]
    for payload in payloads[:10]:
        producer.send("activity", payload)
    producer.flush()
    topic.poll_replication()  # acks=all: replicate before the crash

    old_leader = topic.partitions[0].leader_id
    cluster.brokers[old_leader].shutdown()

    # publishing continues: the first publish hits the dead leader, the
    # retry hook elects a new one from the ISR, and the re-send lands
    for payload in payloads[10:]:
        producer.send("activity", payload)
    producer.flush()
    topic.poll_replication()

    assert topic.partitions[0].leader_id != old_leader
    assert producer.messages_acked == 20
    assert producer.pending == 0
    assert producer.metrics.counter("produce.retries").value >= 1

    # the consumer sees every acknowledged message, even when its next
    # fetch lands on a freshly crashed leader
    cluster.brokers[topic.partitions[0].leader_id].shutdown()
    consumer = SimpleConsumer(cluster, retry_policy=POLICY)
    consumer.attach_replicated(topic)
    fetched, offset = [], 0
    while True:
        messages = list(consumer.fetch("activity", 0, offset))
        if not messages:
            break
        fetched.extend(payload for payload, _ in messages)
        offset = messages[-1][1]
    assert fetched == payloads
    assert consumer.metrics.counter("fetch.retries").value >= 1
    cluster.shutdown()


# -- Voldemort: quorum read with a partitioned replica ---------------------------

def test_voldemort_quorum_read_with_replica_partitioned_away():
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4, seed=7)
    cluster.define_store(StoreDefinition(
        "profiles", replication_factor=3, required_reads=2,
        required_writes=2))
    # a small breaker so this test can watch it trip before the failure
    # detector takes the node out of rotation
    routed = RoutedStore(cluster, "profiles", retry_policy=POLICY,
                         breaker_config={"minimum_samples": 2,
                                         "reset_timeout": 1.0})
    key = b"member-42"
    routed.put(key, Versioned.initial(b"v1", 0))

    replicas = routed.replica_nodes(key)
    victim = replicas[-1]
    survivors = {cluster.node_name(n) for n in cluster.ring.nodes
                 if n != victim} | {"client"}
    cluster.network.failures.partition(
        survivors, {cluster.node_name(victim)})

    # R=2 of the remaining replicas answer: reads stay available, and a
    # write retries the partitioned replica before handing off
    for _ in range(3):
        frontier, _ = routed.get(key)
        assert frontier[0].value == b"v1"
    current = routed.get(key)[0][0]
    routed.put(key, Versioned(b"v2", current.clock.incremented(0)))
    assert routed.get(key)[0][0].value == b"v2"

    assert routed.metrics.counter("put.retries").value >= 1
    assert routed.metrics.counter(
        f"node-{victim}.breaker.opened").value == 1
    assert routed.breaker_for(victim).state == "open"

    # an already-exhausted deadline fails fast, and is counted
    stale = Deadline.after(cluster.clock, 0.001)
    cluster.clock.advance(0.01)
    with pytest.raises(DeadlineExceededError):
        routed.get(key, deadline=stale)
    assert routed.metrics.counter("get.deadline_exceeded").value == 1

    # heal: past the reset timeout the half-open probe (the next write
    # that touches the victim) closes the breaker again
    cluster.network.failures.heal_partition()
    cluster.clock.advance(1.0)
    latest = routed.get(key)[0][0]
    routed.put(key, Versioned(b"v3", latest.clock.incremented(0)))
    assert routed.breaker_for(victim).state == "closed"
    assert routed.metrics.counter(
        f"node-{victim}.breaker.closed").value == 1


def goodput_under_transient_errors(retry: bool, error_rate: float) -> float:
    """EXP-R1: share of a 60/40 get/put mix that completes."""
    network = SimNetwork(seed=1, latency_model=fixed_latency(0.0008))
    cluster = VoldemortCluster(num_nodes=5, partitions_per_node=4,
                               network=network, seed=1)
    cluster.define_store(StoreDefinition("profiles", 3, 2, 2))
    routed = RoutedStore(cluster, "profiles",
                         retry_policy=POLICY if retry else None)
    keys = [b"key-%03d" % i for i in range(50)]
    for key in keys:
        routed.put(key, Versioned.initial(b"seed", 0))
    network.failures.transient_error_rate = error_rate
    completed = 0
    for i in range(300):
        key = keys[i % len(keys)]
        try:
            current = routed.get(key)[0][0]
            if i % 5 >= 3:
                routed.put(key, Versioned(b"v-%d" % i,
                                          current.clock.incremented(0)))
            completed += 1
        except (InsufficientOperationalNodesError, ObsoleteVersionError):
            pass   # a half-applied write also fails the retry of its key
    return completed / 300


def test_exp_r1_retries_hold_goodput_through_a_lossy_network():
    assert [goodput_under_transient_errors(True, rate)
            for rate in (0.0, 0.01, 0.05)] == [1.0, 1.0, 1.0]
    assert goodput_under_transient_errors(False, 0.05) == 0.98


# -- Espresso: write retries onto the promoted master ----------------------------

def test_espresso_route_retries_onto_promoted_master():
    cluster = EspressoCluster(MUSIC, num_nodes=3)
    cluster.post_document_schema("Artist", ARTIST_SCHEMA)
    cluster.post_document_schema("Album", ALBUM_SCHEMA)
    cluster.post_document_schema("Song", SONG_SCHEMA)
    cluster.start()
    router = Router(cluster, retry_policy=POLICY, auto_failover=True)

    assert router.put("/Music/Album/Akon/Trouble",
                      {"title": "Trouble", "year": 2004}).status == 200

    partition = cluster.database.partition_for("Akon")
    old_master = cluster.master_node(partition)
    cluster.crash_node(old_master.instance_name)

    # the write retries: between attempts the router drives the Helix
    # failover, a slave is promoted (draining the relay first), and the
    # retry lands on it
    response = router.put("/Music/Album/Akon/Trouble",
                          {"title": "Trouble", "year": 2005})
    assert response.status == 200
    new_master = cluster.master_node(partition)
    assert new_master is not None
    assert new_master.instance_name != old_master.instance_name
    assert router.metrics.counter("put.retries").value >= 1
    assert router.metrics.counter("router.failovers").value >= 1

    # nothing was lost in the promotion: the pre-crash document state
    # was replicated, and the post-crash write is readable
    fetched = router.get("/Music/Album/Akon/Trouble")
    assert fetched.status == 200
    assert fetched.body.document["year"] == 2005
