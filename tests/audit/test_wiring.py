"""Ready-made probes and lineages against the real stores they wrap."""

import pytest

from repro.audit import ABSENT_VALUE, UNREADABLE, CountConservation, Violation
from repro.audit.blame import (
    STAGE_BROKER,
    STAGE_CAPTURE,
    STAGE_COMMIT,
    STAGE_CONSUMER,
    STAGE_PRODUCER,
    STAGE_RELAY,
    STAGE_REPLICATION,
    STAGE_STORAGE_MEDIA,
    STAGE_STORE_WRITER,
)
from repro.audit.wiring import (
    binlog_key_scns,
    cutover_check,
    espresso_containment,
    espresso_value_equality,
    kafka_audit_lineage,
    search_containment,
    source_head,
    sqlstore_pipeline_lineage,
    voldemort_replica_lineage,
    voldemort_replica_values,
)
from repro.common.clock import SimClock
from repro.databus import Relay, capture_from_binlog
from repro.migration import MigrationPhase, MigrationStack
from repro.search import MEMBER_TABLE, PeopleSearchService
from repro.simnet.disk import SimDisk
from repro.sqlstore import SqlDatabase
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
)

from tests.migration.conftest import FAST_SLO, drive_to_phase, make_source


@pytest.fixture
def clock():
    return SimClock()


# -- sqlstore probes ---------------------------------------------------------

def test_binlog_key_scns_tracks_upserts_and_deletes(clock):
    db = make_source(clock, profiles=3, inmails=0)
    probe = binlog_key_scns(db, "profiles")
    before = probe()
    assert set(before) == {(0,), (1,), (2,)}
    txn = db.begin()
    txn.delete("profiles", (1,))
    txn.commit()
    txn = db.begin()
    txn.upsert("profiles", {"member_id": 0, "name": "edited", "score": 1})
    scn = txn.commit()
    after = probe()
    assert (1,) not in after
    assert after[(0,)] == scn  # the latest commit wins


def visited_transactions(db):
    """Wrap ``binlog.read_from`` to record every transaction handed out."""
    visited = []
    read_from = db.binlog.read_from
    db.binlog.read_from = lambda after_scn: (
        visited.append(txn.scn) or txn for txn in read_from(after_scn))
    return visited


def test_binlog_key_scns_follows_the_log_instead_of_replaying_it(clock):
    db = make_source(clock, profiles=30, inmails=0)
    probe = binlog_key_scns(db, "profiles")
    visited = visited_transactions(db)
    assert len(probe()) == 30 and len(visited) == 30
    del visited[:]
    assert probe([(3,), (99,)]) == {(3,): 4}     # just the keys asked for
    assert visited == []                         # nothing new: nothing read
    scn = db.autocommit("profiles", {"member_id": 99, "name": "n", "score": 0})
    assert probe()[(99,)] == scn and visited == [scn]
    # the follower returns exactly what a replay from zero returns
    assert probe() == binlog_key_scns(db, "profiles")()


def test_binlog_key_scns_starts_over_on_a_shorter_binlog(clock):
    db = make_source(clock, profiles=5, inmails=0)
    probe = binlog_key_scns(db, "profiles")
    feed = probe.changes()
    assert feed() is None and feed() == set()
    rebuilt = make_source(clock, profiles=2, inmails=0)
    db.binlog = rebuilt.binlog              # not the log it followed
    assert probe() == {(0,): 1, (1,): 2}
    assert feed() is None                   # the delta cannot be bounded
    assert feed() == set()


def test_value_equality_visits_each_binlog_transaction_at_most_once(clock):
    """``scn_of`` used to replay the whole binlog once per key: one
    check over N keys handed out N x N transactions."""
    source, stack = cutover_stack(clock)
    equality = espresso_value_equality(
        "values", source, "profiles", stack.target,
        horizon=source_head(source))
    visited = visited_transactions(source)
    assert equality.check() == []
    assert len(visited) == len(set(visited)) == len(source.binlog)
    del visited[:]
    assert equality.check() == []
    assert visited == []


# -- espresso-target constraints ---------------------------------------------

def cutover_stack(clock):
    source = make_source(clock, profiles=10, inmails=4)
    stack = MigrationStack.build(source, SimDisk(clock=clock).scope("c"),
                                 clock, slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    drive_to_phase(stack, clock, MigrationPhase.CUTOVER)
    return source, stack


def test_espresso_constraints_pass_on_a_converged_target(clock):
    source, stack = cutover_stack(clock)
    containment = espresso_containment(
        "keys", source, "profiles", stack.target, source_head(source))
    equality = espresso_value_equality(
        "values", source, "profiles", stack.target)
    assert containment.check() == []
    assert equality.check() == []


def test_espresso_constraints_catch_a_corrupted_document(clock):
    source, stack = cutover_stack(clock)
    stack.target.put_row("profiles", {"member_id": 3, "name": "BAD",
                                      "score": 0})
    equality = espresso_value_equality(
        "values", source, "profiles", stack.target)
    [violation] = equality.check()
    assert violation.kind == "value-divergence"
    assert violation.raw_key == (3,)


def test_cutover_check_mirrors_the_proxy_comparison(clock):
    source, stack = cutover_stack(clock)
    check = cutover_check(stack.proxy)
    assert check() == []
    stack.target.delete_row("profiles", (5,))
    kinds = {(v.constraint, v.key) for v in check()}
    assert ("cutover-containment-profiles", repr((5,))) in kinds


def test_cutover_check_flags_extra_target_keys(clock):
    source, stack = cutover_stack(clock)
    stack.target.put_row("profiles", {"member_id": 999, "name": "ghost",
                                      "score": 0})
    violations = cutover_check(stack.proxy)()
    assert any(v.constraint == "cutover-no-extras-profiles"
               and v.raw_key == (999,) for v in violations)


# -- search constraints ------------------------------------------------------

def search_world(clock):
    db = SqlDatabase("members", clock=clock)
    db.create_table(MEMBER_TABLE)
    relay = Relay()
    capture = capture_from_binlog(db, relay)
    service = PeopleSearchService(relay)
    for i in range(4):
        db.autocommit("member_profile",
                      {"member_id": i, "name": f"m{i}", "headline": "x",
                       "industry": "y"})
    capture.poll()
    service.catch_up()
    return db, relay, capture, service


def test_search_containment_tracks_the_index(clock):
    db, relay, capture, service = search_world(clock)
    constraint = search_containment(
        "search-keys", db, "member_profile", service.index,
        horizon=source_head(db))
    assert constraint.check() == []
    service.index.remove(2)
    [violation] = constraint.check()
    assert violation.raw_key == (2,)


# -- the Databus pipeline lineage --------------------------------------------

def test_pipeline_lineage_blames_the_relay_for_a_dropped_window(clock):
    db, relay, capture, service = search_world(clock)
    scn = binlog_key_scns(db, "member_profile")()[(2,)]
    relay.drop_window(scn)
    service.index.remove(2)
    lineage = sqlstore_pipeline_lineage(
        db, "member_profile", capture, relay, service.client,
        store_check=lambda key: key[0] in service.index,
        store_stage="indexer")
    assert lineage.stage_names() == [STAGE_COMMIT, STAGE_CAPTURE,
                                     STAGE_RELAY, STAGE_CONSUMER, "indexer"]
    violation = Violation("c", "missing-key", "search:member_profile",
                          repr((2,)), "present", "absent", raw_key=(2,))
    outcomes = {name: check(violation) for name, check in lineage.stages}
    assert outcomes[STAGE_COMMIT] is True
    assert outcomes[STAGE_CAPTURE] is True
    assert outcomes[STAGE_RELAY] is False    # dropped, not evicted
    assert outcomes["indexer"] is False      # downstream fallout


def test_pipeline_lineage_blames_the_indexer_for_a_skipped_update(clock):
    db, relay, capture, service = search_world(clock)
    service.index.remove(1)
    lineage = sqlstore_pipeline_lineage(
        db, "member_profile", capture, relay, service.client,
        store_check=lambda key: key[0] in service.index,
        store_stage="indexer")
    violation = Violation("c", "missing-key", "search:member_profile",
                          repr((1,)), "present", "absent", raw_key=(1,))
    outcomes = {name: check(violation) for name, check in lineage.stages}
    assert outcomes[STAGE_RELAY] is True
    assert outcomes[STAGE_CONSUMER] is True
    assert outcomes["indexer"] is False


# -- Voldemort probes --------------------------------------------------------

def voldemort_world(clock):
    disk = SimDisk(clock=clock, seed=3)
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                               clock=clock, disk=disk, seed=3)
    cluster.define_store(StoreDefinition(
        "store", replication_factor=2, required_reads=1, required_writes=2,
        engine_type="log-structured"))
    routed = RoutedStore(cluster, "store")
    routed.put(b"k1", Versioned.initial(b"v1", 0))
    routed.put(b"k2", Versioned.initial(b"v2", 0))
    return disk, cluster, routed


def test_replica_probe_reads_every_responsible_replica(clock):
    disk, cluster, routed = voldemort_world(clock)
    probe = voldemort_replica_values(cluster, routed, "store",
                                     keys=lambda: [b"k1", b"k2"])
    values = probe()
    assert set(values) == {b"k1", b"k2"}
    for by_replica in values.values():
        assert len(by_replica) == 2  # replication factor
        assert len(set(map(repr, by_replica.values()))) == 1


def test_replica_probe_reports_sentinels_for_unserved_keys(clock):
    disk, cluster, routed = voldemort_world(clock)
    victim = routed.replica_nodes(b"k1")[0]
    engine = cluster.server_for(victim).engine("store")
    offset, length = engine.record_span(b"k1")
    disk.flip_bit(cluster.node_name(victim), f"store/{engine.LOG_NAME}",
                  offset=offset + length - 1)
    probe = voldemort_replica_values(cluster, routed, "store",
                                     keys=lambda: [b"k1"])
    by_replica = probe()[b"k1"]
    assert UNREADABLE in by_replica.values()

    lineage = voldemort_replica_lineage(probe)
    violation = Violation("c", "replica-divergence", "voldemort:store",
                          repr(b"k1"), "agree", "diverge", raw_key=b"k1")
    outcomes = {name: check(violation) for name, check in lineage.stages}
    assert outcomes[STAGE_REPLICATION] is True
    assert outcomes[STAGE_STORAGE_MEDIA] is False


# -- Kafka audit-trail wiring ------------------------------------------------

def test_kafka_counts_and_lineage(clock):
    from repro.kafka.audit import AUDIT_TOPIC, AuditingProducer, AuditReconciler
    from repro.kafka.broker import KafkaCluster
    from repro.kafka.message import Message, MessageSet

    cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                           clock=clock)
    cluster.create_topic("events", partitions=1)
    cluster.create_topic(AUDIT_TOPIC, partitions=1)
    producer = AuditingProducer(cluster, "app")
    producer.send("events", {"n": 1})
    producer.flush()
    producer.publish_monitoring_events()
    reconciler = AuditReconciler(cluster, ["events"])
    assert reconciler.produced() == reconciler.consumed() == {("events", 0): 1}

    # one check is one fetch-to-end pass per partition of each topic:
    # the audit topic's and the data topic's one partition each take a
    # fetch that returns their messages and one that finds the end
    counts = CountConservation("c", "kafka:events",
                               reconciler.produced, reconciler.consumed)
    consumer = reconciler._consumer
    before = consumer.fetch_requests
    assert counts.check() == []
    assert consumer.fetch_requests - before == 4

    # a broker-side duplicate: produced < consumed for the bucket
    payload = cluster.broker_for("events", 0).fetch("events", 0, 0)
    from repro.kafka.message import iter_messages
    dup = next(iter(iter_messages(payload, 0))).message.payload
    cluster.broker_for("events", 0).produce(
        "events", 0, MessageSet([Message(dup)]))
    lineage = kafka_audit_lineage(reconciler)
    violation = Violation("c", "duplicated-messages", "kafka:events",
                          repr(("events", 0)), "1 messages", "2 messages",
                          raw_key=("events", 0))
    before = consumer.fetch_requests
    outcomes = {name: check(violation) for name, check in lineage.stages}
    assert outcomes[STAGE_PRODUCER] is True
    assert outcomes[STAGE_BROKER] is False
    # the producer stage reads the claims, the broker stage both sides
    assert consumer.fetch_requests - before == 2 + 4
