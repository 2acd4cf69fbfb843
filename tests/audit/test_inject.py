"""Seeded injection: each plant takes the real damage path, and the
score card matches findings to ground truth."""

import pytest

from repro.audit import (
    AuditFinding,
    BlameVerdict,
    PlantedViolation,
    Violation,
    ViolationInjector,
    reconcile,
)
from repro.audit.blame import (
    STAGE_BROKER,
    STAGE_INDEXER,
    STAGE_RELAY,
    STAGE_STORAGE_MEDIA,
)
from repro.common.clock import SimClock
from repro.common.errors import ChecksumError
from repro.databus import Relay, capture_from_binlog
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


@pytest.fixture
def sim():
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=7)
    return clock, disk, FaultPlan(disk)


def test_inject_fires_at_its_time_and_lands_in_the_trace(sim):
    clock, disk, plan = sim
    fired_at = []
    plan.inject(1.5, "test-plant", lambda: fired_at.append(clock.now()))
    plan.run(until=3.0)
    assert fired_at == [1.5]
    assert (1.5, "inject", "", "test-plant") in plan.executed


def test_drop_relay_window_is_silent_to_the_consumer(sim):
    clock, disk, plan = sim
    db = SqlDatabase("members", clock=clock)
    db.create_table(MEMBER_TABLE)
    relay = Relay()
    capture = capture_from_binlog(db, relay)
    service = PeopleSearchService(relay)
    scns = []
    for i in range(3):
        scns.append(db.autocommit(
            "member_profile", {"member_id": i, "name": f"m{i}",
                               "headline": "x", "industry": "y"}))
    capture.poll()

    injector = ViolationInjector()
    planted = injector.drop_relay_window(
        plan, 1.0, relay, scns[1],
        constraint="search-containment", subject="search:member_profile",
        key=(1,))
    plan.run(until=2.0)

    # no error, no SCNGoneError: the checkpoint sails past the hole
    service.catch_up()
    assert service.client.checkpoint >= scns[2]
    assert service.documents_indexed == 2
    assert 1 not in service.index
    assert planted.stage == STAGE_RELAY
    assert planted.key == repr((1,))


def test_flip_voldemort_bit_surfaces_as_checksum_error(sim):
    clock, disk, plan = sim
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                               clock=clock, disk=disk, seed=7)
    cluster.define_store(StoreDefinition(
        "store", replication_factor=2, required_reads=1, required_writes=2,
        engine_type="log-structured"))
    routed = RoutedStore(cluster, "store")
    routed.put(b"victim", Versioned.initial(b"value", 0))
    victim_node = routed.replica_nodes(b"victim")[0]

    injector = ViolationInjector()
    planted = injector.flip_voldemort_bit(
        plan, 1.0, cluster, "store", victim_node, b"victim",
        constraint="replica-agreement", subject="voldemort:store")
    plan.run(until=2.0)

    with pytest.raises(ChecksumError):
        cluster.server_for(victim_node).engine("store").get(b"victim")
    assert planted.stage == STAGE_STORAGE_MEDIA


def test_skip_index_update_removes_an_applied_document(sim):
    clock, disk, plan = sim
    relay = Relay()
    service = PeopleSearchService(relay)
    service.index.add(7, {"name": "seven", "headline": "h", "industry": "i"})

    injector = ViolationInjector()
    planted = injector.skip_index_update(
        plan, 1.0, service.index, 7,
        constraint="search-containment", subject="search:member_profile")
    assert 7 in service.index
    plan.run(until=2.0)
    assert 7 not in service.index
    assert planted.stage == STAGE_INDEXER


def test_duplicate_kafka_message_bypasses_producer_counting(sim):
    from repro.kafka.broker import KafkaCluster

    clock, disk, plan = sim
    cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                           clock=clock)
    cluster.create_topic("events", partitions=1)

    injector = ViolationInjector()
    planted = injector.duplicate_kafka_message(
        plan, 1.0, cluster, "events", 0, b"payload", window=0,
        constraint="kafka-counts", subject="kafka:events")
    plan.run(until=2.0)

    from repro.kafka.message import iter_messages

    broker = cluster.broker_for("events", 0)
    data = broker.fetch("events", 0, 0)
    payloads = [d.message.payload for d in iter_messages(data, 0)]
    assert payloads == [b"payload"]
    assert planted.stage == STAGE_BROKER
    assert planted.key == repr(("events", 0))


# -- reconcile scoring -------------------------------------------------------

def plant(constraint, key, stage):
    return PlantedViolation("some-kind", constraint, "subject", repr(key),
                            stage, at=1.0)


def finding(constraint, key, top=None):
    violation = Violation(constraint, "some-kind", "subject", repr(key),
                          "e", "a")
    blame = None
    if top is not None:
        blame = BlameVerdict(top=top, ranking=((top, 1.0),), evidence=())
    return AuditFinding(violation, blame)


def test_reconcile_exact_match_with_correct_blame():
    plants = [plant("c1", (1,), "relay"), plant("c2", (2,), "broker")]
    findings = [finding("c1", (1,), top="relay"),
                finding("c2", (2,), top="broker")]
    audit = reconcile(plants, findings)
    assert audit.exact
    assert audit.blame_accuracy == 1.0
    assert audit.summary() == "caught 2/2, 0 unexpected, blame 2/2 top-1"


def test_reconcile_counts_misses_and_false_positives():
    plants = [plant("c1", (1,), "relay"), plant("c2", (2,), "broker")]
    findings = [finding("c1", (1,), top="capture"),   # wrong blame
                finding("c9", (9,), top="broker")]    # nobody planted this
    audit = reconcile(plants, findings)
    assert not audit.exact
    assert [p.constraint for p in audit.missed] == ["c2"]
    assert audit.unexpected == (("c9", "subject", repr((9,))),)
    assert audit.blame_hits == 0 and audit.blame_total == 1


def test_reconcile_without_blame_engine_scores_vacuously():
    plants = [plant("c1", (1,), "relay")]
    audit = reconcile(plants, [finding("c1", (1,))])
    assert audit.exact
    assert audit.blame_total == 0
    assert audit.blame_accuracy == 1.0


def test_reconcile_dedups_repeat_findings():
    plants = [plant("c1", (1,), "relay")]
    findings = [finding("c1", (1,), top="relay"),
                finding("c1", (1,), top="capture")]  # later duplicate
    audit = reconcile(plants, findings)
    assert audit.exact
    assert audit.blame_hits == 1  # first finding wins
