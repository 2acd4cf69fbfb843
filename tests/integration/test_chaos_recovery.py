"""Seeded chaos across all four systems: kills, tears, and recovery.

One SimClock + one SimDisk back a Kafka cluster, a Voldemort cluster,
an Espresso cluster, and a Databus bootstrap server.  A FaultPlan
kills and restarts a node of each system (with a torn write armed on
the Voldemort victim), and the DESIGN.md §9 invariants are checked:

* zero acked-write loss over all four systems, each system's check a
  declared ``ValueEquality`` over the ``{system: {key: value}}`` map of
  writes acked before the crash;
* no Espresso partition recovers behind the SCN it had applied before
  the crash (applying a window twice or skipping one is refused by the
  apply path itself);
* consumer offsets never beyond recovered high watermarks;
* the same seed produces a byte-identical fault trace.
"""

import hashlib

import pytest

from repro.audit import Auditor, CountConservation, ValueEquality
from repro.common.clock import SimClock
from repro.databus import BootstrapServer
from repro.databus.events import DatabusEvent
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import Message, MessageSet, iter_messages
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan, offsets_within_watermark
from repro.sqlstore.binlog import ChangeKind
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
)
from repro.voldemort.engines.logstructured import encode_body

from tests.espresso.conftest import ARTIST_SCHEMA, MUSIC, scn_regressions
from repro.espresso import EspressoCluster

SYSTEMS = ("kafka", "voldemort", "espresso", "bootstrap")

# "beatles" is the one mastered on storage-0, the Espresso victim: without
# it the crash would hit a node holding no data
ARTISTS = ["nirvana", "abba", "devo", "kraftwerk", "queen", "beatles"]


def build_world(seed):
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=seed)
    disk.start_trace()

    # data_root is a virtual path inside the SimDisk, so a constant
    # string keeps traces byte-identical across runs
    kafka = KafkaCluster(num_brokers=2, data_root="kafka",
                         clock=clock, disk=disk)
    kafka.create_topic("events", partitions=2)

    voldemort = VoldemortCluster(num_nodes=4, partitions_per_node=4,
                                 clock=clock, disk=disk, seed=seed)
    voldemort.define_store(StoreDefinition(
        "chaos", replication_factor=3, required_reads=2, required_writes=2,
        engine_type="log-structured"))

    espresso = EspressoCluster(MUSIC, num_nodes=3, clock=clock, disk=disk)
    espresso.post_document_schema("Artist", ARTIST_SCHEMA)
    espresso.start()

    bootstrap = BootstrapServer("bootstrap-1",
                                disk=disk.scope("bootstrap-1"))
    return clock, disk, kafka, voldemort, espresso, bootstrap


def run_scenario(seed):
    clock, disk, kafka, voldemort, espresso, bootstrap = build_world(seed)
    # {system: {key: value}} of every write the system acked
    acked = {system: {} for system in SYSTEMS}
    # Espresso victim -> partition_scn at its crash, and after recovery
    scn_at_crash, scn_recovered = {}, {}
    routed = RoutedStore(voldemort, "chaos")
    consumer_offsets = {}

    def workload():
        for i, payload in enumerate([b"k0", b"k1", b"k2", b"k3"]):
            offset = kafka.brokers[i % 2].produce(
                "events", i % 2, MessageSet([Message(payload)]))
            acked["kafka"][("events", i % 2, offset)] = payload
        for i in range(8):
            key = b"vk-%d" % i
            routed.put(key, Versioned.initial(b"vv-%d" % i, 0))
            acked["voldemort"][key] = b"vv-%d" % i
        for artist in ARTISTS:
            node = espresso.node_for_resource(artist)
            node.put_document("Artist", (artist,),
                              {"name": artist, "genre": "rock", "bio": None})
            acked["espresso"][artist] = "rock"
        for scn in range(1, 5):
            bootstrap.on_events([DatabusEvent(
                scn, "member", ChangeKind.UPDATE, (scn,), b"b-%d" % scn,
                end_of_window=True)])
            acked["bootstrap"][scn] = b"b-%d" % scn
        for tp in kafka.topic_layout("events"):
            consumer_offsets[(tp.topic, tp.partition)] = \
                kafka.brokers[tp.broker_id].log(tp.topic,
                                                tp.partition).high_watermark

    def stage_unsynced_tail():
        # an in-flight (never acked) record on the Voldemort victim,
        # destined to be torn mid-frame by the armed fault
        engine = voldemort.server_for(1).engine("chaos")
        engine._log.append(encode_body(
            b"in-flight", Versioned.initial(b"never-acked", 0)))

    plan = FaultPlan(clock, disk)

    def kill(node):
        if node.startswith("broker-"):
            disk.crash_node(node)
        elif node.startswith("node-"):
            voldemort.kill_node(int(node.split("-")[1]))
        elif node.startswith("storage-"):
            scn_at_crash[node] = dict(espresso.nodes[node].partition_scn)
            espresso.crash_node(node)
        elif node.startswith("bootstrap"):
            disk.crash_node(node)

    def restart(node):
        if node.startswith("broker-"):
            disk.restart_node(node)
            kafka.brokers[int(node.split("-")[1])].restart()
        elif node.startswith("node-"):
            voldemort.restart_node(int(node.split("-")[1]))
        elif node.startswith("storage-"):
            espresso.recover_node(node)
            scn_recovered[node] = dict(espresso.nodes[node].partition_scn)
            espresso.failover()
        elif node.startswith("bootstrap"):
            disk.restart_node(node)

    plan.on_kill(kill)
    plan.on_restart(restart)
    plan.call(1.0, "workload", workload)
    plan.call(1.5, "stage-unsynced", stage_unsynced_tail)
    plan.torn_write(1.9, "node-1", path="chaos/data.log")
    plan.kill(2.0, "broker-0")
    plan.kill(2.0, "node-1")
    plan.kill(2.0, "storage-0")
    plan.kill(2.0, "bootstrap-1")
    plan.restart(3.0, "broker-0")
    plan.restart(3.0, "node-1")
    plan.restart(3.0, "storage-0")
    plan.restart(3.0, "bootstrap-1")
    plan.run(until=4.0)

    recovered_bootstrap = BootstrapServer(
        "bootstrap-1", disk=disk.scope("bootstrap-1"))
    return {
        "disk": disk,
        "kafka": kafka,
        "voldemort": voldemort,
        "espresso": espresso,
        "bootstrap": recovered_bootstrap,
        "routed": routed,
        "acked": acked,
        "scn_at_crash": scn_at_crash,
        "scn_recovered": scn_recovered,
        "consumer_offsets": consumer_offsets,
        "plan": plan,
    }


def acked_value_constraints(world) -> dict:
    """Per system, the declared check that every acked write reads back
    its acked value after recovery.  The readers raise on a key they
    cannot serve, so a lost write fails the check instead of being
    skipped as absent."""
    kafka = world["kafka"]
    routed = world["routed"]
    espresso = world["espresso"]
    delta, _ = world["bootstrap"].consolidated_delta(since_scn=0)
    bootstrap_by_scn = {e.scn: e.payload for e in delta}

    def read_kafka(key):
        topic, partition, offset = key
        data = kafka.broker_for(topic, partition).fetch(
            topic, partition, offset)
        return next(iter(iter_messages(data, offset))).message.payload

    def read_espresso(artist):
        node = espresso.node_for_resource(artist)
        return node.get_document("Artist", (artist,)).document["genre"]

    readers = {
        "kafka": ("kafka:events", read_kafka),
        "voldemort": ("voldemort:chaos",
                      lambda key: routed.get(key)[0][0].value),
        "espresso": ("espresso:Artist", read_espresso),
        "bootstrap": ("bootstrap:member", bootstrap_by_scn.__getitem__),
    }
    return {system: ValueEquality(
                f"{system}-acked-values", subject,
                expected_items=lambda acked=world["acked"][system]: acked,
                actual_of=reader)
            for system, (subject, reader) in readers.items()}


@pytest.fixture(scope="module")
def world():
    return run_scenario(1234)


@pytest.fixture(scope="module")
def acked_values(world):
    return acked_value_constraints(world)


def test_no_acked_kafka_loss(world, acked_values):
    assert len(world["acked"]["kafka"]) == 4
    assert acked_values["kafka"].check() == []


def test_no_acked_voldemort_loss(world, acked_values):
    assert len(world["acked"]["voldemort"]) == 8
    assert acked_values["voldemort"].check() == []


def test_torn_voldemort_tail_truncated_not_partial(world):
    engine = world["voldemort"].server_for(1).engine("chaos")
    assert engine.torn_bytes_truncated > 0
    from repro.common.errors import KeyNotFoundError
    with pytest.raises(KeyNotFoundError):
        engine.get(b"in-flight")


def test_no_acked_espresso_loss(world, acked_values):
    assert len(world["acked"]["espresso"]) == len(ARTISTS)
    assert acked_values["espresso"].check() == []


def test_no_acked_bootstrap_loss(world, acked_values):
    assert len(world["acked"]["bootstrap"]) == 4
    assert acked_values["bootstrap"].check() == []


def test_no_duplicate_or_skipped_scn(world):
    """The victim comes back at least as far as it had applied; the
    apply path refuses a duplicate or skipped window on its own
    (``ReplicationOrderError``, the slave's gap check)."""
    assert sorted(world["scn_at_crash"]) == ["storage-0"]
    applied = world["scn_at_crash"]["storage-0"]
    assert sum(applied.values()) > 0
    assert scn_regressions(applied, world["scn_recovered"]["storage-0"]) == []


def test_consumer_offsets_within_watermarks(world):
    kafka = world["kafka"]

    def watermark_of(topic, partition):
        return kafka.broker_for(topic, partition).log(topic,
                                                      partition).high_watermark

    assert offsets_within_watermark(world["consumer_offsets"],
                                    watermark_of) == []


def test_fault_plan_executed_fully(world):
    kinds = [entry[1] for entry in world["plan"].executed]
    assert kinds.count("kill") == 4
    assert kinds.count("restart") == 4
    assert kinds.count("torn_write") == 1


def test_declared_constraints_hold_after_recovery(world):
    """The acked-write checks plus Kafka count conservation, declared
    to one continuous auditor: after kills, a torn write, and recovery,
    a correct world keeps it completely quiet — the clean-run control
    that makes every seeded-injection finding meaningful."""
    kafka = world["kafka"]

    def kafka_produced():
        counts = {}
        for topic, partition, _offset in world["acked"]["kafka"]:
            bucket = (topic, partition)
            counts[bucket] = counts.get(bucket, 0) + 1
        return counts

    def kafka_consumed():
        counts = {}
        for tp in kafka.topic_layout("events"):
            broker = kafka.brokers[tp.broker_id]
            offset = n = 0
            while True:
                data = broker.fetch(tp.topic, tp.partition, offset)
                if not data:
                    break
                for decoded in iter_messages(data, offset):
                    n += 1
                    offset = decoded.next_offset
            counts[(tp.topic, tp.partition)] = n
        return counts

    auditor = Auditor(SimClock())
    auditor.declare(CountConservation(
        "kafka-conservation", "kafka:events", kafka_produced, kafka_consumed))
    for constraint in acked_value_constraints(world).values():
        auditor.declare(constraint)
    assert auditor.tick() == []
    assert auditor.violations == []


def test_same_seed_byte_identical_trace():
    first = run_scenario(77)
    second = run_scenario(77)
    assert first["disk"].trace_bytes() == second["disk"].trace_bytes()
    assert first["plan"].executed == second["plan"].executed
    assert len(first["disk"].trace_bytes()) > 0


def test_fault_and_disk_traces_are_pinned():
    """The executed schedule and the disk trace of one seeded run,
    against a digest taken before :class:`FaultPlan` actions became
    ``(at, kind, node, fire)`` closures: a same-seed comparison within
    one commit cannot see a rewrite that changes both runs alike."""
    world = run_scenario(1234)
    digest = hashlib.sha256(repr(world["plan"].executed).encode()
                            + world["disk"].trace_bytes())
    assert digest.hexdigest() == (
        "159dc4941a5773e6b52916666fe8e3daf5dbe420b3eb348084274e7507aa7696")
