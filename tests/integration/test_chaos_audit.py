"""The seeded-injection suite: plant N known corruptions across five
derived-data paths, prove the auditor reports exactly N with correct
blame, and that same-seed reports are byte-identical.

One SimClock drives a sqlstore source feeding two Databus relays (one
into an Espresso target, one into the people-search index), a Voldemort
cluster, and a Kafka cluster with the §V.D audit trail.  A FaultPlan
plants five corruptions — a dropped relay window, a corrupted Espresso
document, a skipped index update, a bit-flipped Voldemort value, and a
duplicated Kafka message — and the continuous auditor, ticking on the
same clock over watermark-certified cuts, must catch all five, catch
*nothing else* (the clean-run control below proves zero false
positives), and blame the true stage for each.
"""

import hashlib
import json

import pytest

from repro.audit import (
    Auditor,
    BlameEngine,
    CountConservation,
    ReplicaAgreement,
    ViolationInjector,
    WatermarkCut,
    reconcile,
)
from repro.audit.blame import (
    STAGE_BROKER,
    STAGE_INDEXER,
    STAGE_RELAY,
    STAGE_STORAGE_MEDIA,
    STAGE_STORE_WRITER,
)
from repro.audit.engine import VIOLATIONS_FAMILY
from repro.audit.wiring import (
    espresso_containment,
    espresso_value_equality,
    kafka_audit_lineage,
    search_containment,
    sqlstore_pipeline_lineage,
    voldemort_replica_lineage,
    voldemort_replica_values,
)
from repro.common.clock import SimClock
from repro.common.metrics import MetricsRegistry
from repro.databus import Relay, capture_from_binlog
from repro.databus.client import DatabusClient
from repro.kafka.audit import AUDIT_TOPIC, AuditingProducer, AuditReconciler
from repro.kafka.broker import KafkaCluster
from repro.migration.target import (
    EspressoTarget,
    RowTransform,
    espresso_schema_for,
)
from repro.search import MEMBER_TABLE, PeopleSearchService
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan
from repro.sqlstore import SqlDatabase
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
)
from repro.espresso import EspressoCluster

MEMBERS = 8
VOLDEMORT_KEYS = [b"vk-%d" % i for i in range(6)]


def build_world(seed, with_injections):
    """One fully wired world; ``with_injections`` distinguishes the
    seeded run from its clean control (identical otherwise)."""
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=seed)
    metrics = MetricsRegistry()

    # sqlstore source of truth
    source = SqlDatabase("members", clock=clock)
    source.create_table(MEMBER_TABLE)

    # path 1: source -> Databus -> Espresso target
    espresso = EspressoCluster(espresso_schema_for(source), num_nodes=3,
                               clock=clock)
    espresso.start()
    target = EspressoTarget(espresso, RowTransform(source))
    relay_es = Relay("es-relay")
    capture_es = capture_from_binlog(source, relay_es)
    from repro.migration.backfill import LiveReplicator
    replicator = LiveReplicator(source, target, relay_es.schemas, metrics)
    client_es = DatabusClient(replicator, relay_es, clock=clock,
                              client_name="es-writer")

    # path 2: source -> Databus -> search index
    relay_search = Relay("search-relay")
    capture_search = capture_from_binlog(source, relay_search)
    search = PeopleSearchService(relay_search)

    # path 3: Voldemort replicas (all-replica writes, so the pre-flip
    # state is deterministic without pumping repair)
    voldemort = VoldemortCluster(num_nodes=4, partitions_per_node=4,
                                 clock=clock, disk=disk, seed=seed)
    voldemort.define_store(StoreDefinition(
        "chaos", replication_factor=3, required_reads=2, required_writes=3,
        engine_type="log-structured"))
    routed = RoutedStore(voldemort, "chaos")

    # path 4: Kafka with the §V.D audit trail
    kafka = KafkaCluster(num_brokers=2, data_root="kafka", clock=clock,
                         disk=disk)
    kafka.create_topic("activity", partitions=2)
    kafka.create_topic(AUDIT_TOPIC, partitions=1)
    producer = AuditingProducer(kafka, "app-00")
    reconciler = AuditReconciler(kafka, ["activity"])

    # the continuous auditor over a certified cut
    def pump():
        capture_es.poll()
        capture_search.poll()
        client_es.poll()
        search.client.poll()

    cut = WatermarkCut(source, pump,
                       positions=[lambda: client_es.checkpoint,
                                  lambda: search.client.checkpoint])

    blame = BlameEngine()
    blame.register("espresso-containment", sqlstore_pipeline_lineage(
        source, MEMBER_TABLE.name, capture_es, relay_es, client_es,
        store_check=lambda key:
            target.get_document(MEMBER_TABLE.name, key) is not None))
    blame.register("espresso-equality", sqlstore_pipeline_lineage(
        source, MEMBER_TABLE.name, capture_es, relay_es, client_es,
        store_check=lambda key:
            target.get_document(MEMBER_TABLE.name, key)
            == target.transform.document_of(
                MEMBER_TABLE.name, source.table(MEMBER_TABLE.name).get(key))))
    blame.register("search-containment", sqlstore_pipeline_lineage(
        source, MEMBER_TABLE.name, capture_search, relay_search,
        search.client, store_check=lambda key: key[0] in search.index,
        store_stage=STAGE_INDEXER))
    replica_probe = voldemort_replica_values(
        voldemort, routed, "chaos", keys=lambda: VOLDEMORT_KEYS)
    blame.register("voldemort-replicas",
                   voldemort_replica_lineage(replica_probe))
    blame.register("kafka-counts", kafka_audit_lineage(reconciler))

    auditor = Auditor(clock, metrics=metrics, blame=blame)
    auditor.add_cut(cut)
    horizon = lambda: cut.last_scn
    auditor.declare(espresso_containment(
        "espresso-containment", source, MEMBER_TABLE.name, target, horizon))
    auditor.declare(espresso_value_equality(
        "espresso-equality", source, MEMBER_TABLE.name, target,
        horizon=horizon))
    auditor.declare(search_containment(
        "search-containment", source, MEMBER_TABLE.name, search.index,
        horizon))
    auditor.declare(ReplicaAgreement(
        "voldemort-replicas", "voldemort:chaos",
        replica_values=replica_probe, min_replicas=3))
    auditor.declare(CountConservation(
        "kafka-counts", "kafka:activity",
        reconciler.produced, reconciler.consumed))

    plan = FaultPlan(clock, disk)
    injector = ViolationInjector()

    def workload():
        for i in range(MEMBERS):
            source.autocommit(MEMBER_TABLE.name,
                              {"member_id": i, "name": f"member-{i}",
                               "headline": f"headline {i}",
                               "industry": "software"})
        for key in VOLDEMORT_KEYS:
            routed.put(key, Versioned.initial(b"value:" + key, 0))
        for i in range(10):
            producer.send("activity", {"event": "page_view", "n": i})
        producer.flush()
        producer.publish_monitoring_events()
        # load both relays now; consumers first pump at the first cut
        capture_es.poll()
        capture_search.poll()

    plan.call(1.0, "workload", workload)

    if with_injections:
        # pre-pump plants: in the pipeline before any consumer polls
        victim_scn = 3  # SCNs are 1-based: member_id 2's commit
        injector.drop_relay_window(
            plan, 2.0, relay_es, victim_scn,
            constraint="espresso-containment",
            subject=f"espresso:{MEMBER_TABLE.name}", key=(2,))
        # a byte-for-byte copy of a message already counted in window 0
        dup = dict({"event": "page_view", "n": 0})
        dup["timestamp"] = 1.0
        dup["server"] = "app-00"
        injector.duplicate_kafka_message(
            plan, 2.0, kafka, "activity", 0, json.dumps(dup).encode(),
            window=0, constraint="kafka-counts", subject="kafka:activity")
        # post-pump plants: corrupt state the pipeline already applied
        injector.skip_index_update(
            plan, 3.0, search.index, 5, key=(5,),
            constraint="search-containment",
            subject=f"search:{MEMBER_TABLE.name}")
        injector.flip_voldemort_bit(
            plan, 3.0, voldemort, "chaos",
            node_id=0, key=VOLDEMORT_KEYS[0],
            constraint="voldemort-replicas", subject="voldemort:chaos")
        injector.corrupt_store_write(
            plan, 3.0,
            lambda: target.put_row(MEMBER_TABLE.name,
                                   {"member_id": 6, "name": "CORRUPT",
                                    "headline": "stale", "industry": "?"}),
            constraint="espresso-equality",
            subject=f"espresso:{MEMBER_TABLE.name}", key=(6,))

    auditor.run_every(1.0, first_at=2.5)
    plan.run(until=6.0)
    auditor.stop()
    return {
        "auditor": auditor,
        "injector": injector,
        "plan": plan,
        "metrics": metrics,
        "voldemort": voldemort,
        "routed": routed,
    }


@pytest.fixture(scope="module")
def seeded():
    return build_world(4242, with_injections=True)


@pytest.fixture(scope="module")
def clean():
    return build_world(4242, with_injections=False)


def test_clean_run_reports_zero_violations(clean):
    """The control: no plants, no findings — every later detection is
    attributable to an injection, not auditor noise."""
    auditor = clean["auditor"]
    assert auditor.violations == []
    assert auditor.ticks >= 3
    assert auditor.metrics.family(VIOLATIONS_FAMILY).total() == 0


def test_auditor_catches_exactly_the_planted_violations(seeded):
    audit = reconcile(seeded["injector"].planted,
                      seeded["auditor"].findings)
    assert len(seeded["injector"].planted) == 5
    assert audit.missed == (), audit.summary()
    assert audit.unexpected == (), audit.summary()
    assert audit.exact


def test_five_distinct_injection_kinds(seeded):
    kinds = {p.kind for p in seeded["injector"].planted}
    assert len(kinds) == 5


def test_blame_names_the_true_stage_for_every_plant(seeded):
    audit = reconcile(seeded["injector"].planted,
                      seeded["auditor"].findings)
    assert audit.blame_total == 5
    assert audit.blame_accuracy >= 0.9, audit.summary()
    tops = {f.violation.constraint: f.blame.top
            for f in seeded["auditor"].findings}
    assert tops == {
        "espresso-containment": STAGE_RELAY,
        "espresso-equality": STAGE_STORE_WRITER,
        "search-containment": STAGE_INDEXER,
        "voldemort-replicas": STAGE_STORAGE_MEDIA,
        "kafka-counts": STAGE_BROKER,
    }


def test_violations_are_metered_per_constraint(seeded):
    family = seeded["metrics"].family(VIOLATIONS_FAMILY)
    assert family.total() == 5
    assert family.value(constraint="kafka-counts",
                        kind="duplicated-messages") == 1
    assert family.value(constraint="voldemort-replicas",
                        kind="replica-divergence") == 1


def test_persistent_corruptions_stay_one_finding_each(seeded):
    """The auditor kept ticking for seconds after detection; dedup by
    identity means the report holds one finding per corruption."""
    auditor = seeded["auditor"]
    assert auditor.ticks >= 3
    assert len(auditor.findings) == 5


def test_plants_appear_in_the_fault_trace(seeded):
    injected = [entry for entry in seeded["plan"].executed
                if entry[1] == "inject"]
    assert len(injected) == 5
    assert all(label for _, _, _, label in injected)


def test_same_seed_runs_are_byte_identical():
    first = build_world(99, with_injections=True)
    second = build_world(99, with_injections=True)
    assert first["auditor"].report_bytes() == second["auditor"].report_bytes()
    assert len(first["auditor"].report()["violations"]) == 5


def test_report_round_trips_through_json(seeded):
    document = json.loads(seeded["auditor"].report_bytes())
    assert document["constraints"] == [
        "espresso-containment", "espresso-equality", "kafka-counts",
        "search-containment", "voldemort-replicas"]
    assert all(entry["blame"]["top"] for entry in document["violations"])


def test_fault_trace_and_report_are_pinned():
    """The executed schedule and the audit report of the seeded run,
    against a digest taken before :class:`FaultPlan` actions became
    ``(at, kind, node, fire)`` closures and the Kafka counts were read
    through ``AuditReconciler.produced``/``consumed``."""
    world = build_world(4242, with_injections=True)
    digest = hashlib.sha256(repr(world["plan"].executed).encode()
                            + world["auditor"].report_bytes())
    assert digest.hexdigest() == (
        "ddb956711137e79c91e770ebb9a8f9078822dc463324008ebbe887b44ec89102")
