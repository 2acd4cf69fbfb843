"""An audit evaluates what changed since it last looked; never having
looked, everything changed — and "everything" is the partitions whose
source and master content digests differ.  The reference models are
freshly built constraints (they have never looked) and a plain-probe
oracle (the same constraints built straight from the DSL, with no feed
and no digest, reading every row): long-lived constraints must return
exactly what both return, at every step of a seeded walk, and cost what
moved."""

import random
from types import SimpleNamespace

import pytest

from repro.audit import ViolationInjector, WatermarkCut
from repro.audit.constraints import (
    ABSENT_VALUE,
    KeySetContainment,
    ValueEquality,
)
from repro.audit.wiring import (
    binlog_key_scns,
    cutover_constraints,
    espresso_containment,
    espresso_value_equality,
)
from repro.common.clock import SimClock
from repro.common.serialization import Field, RecordSchema, encode_record
from repro.databus import Relay, capture_from_binlog
from repro.databus.client import DatabusClient
from repro.espresso.cluster import EspressoCluster
from repro.migration.backfill import LiveReplicator
from repro.migration.target import (
    EspressoTarget,
    RowTransform,
    espresso_schema_for,
)
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan
from repro.sqlstore.binlog import ChangeKind

from tests.migration.conftest import make_source

NODES = ("storage-0", "storage-1", "storage-2")
TABLE = "profiles"


class World:
    """A source table replicated into an Espresso target over Databus,
    with a watermark cut for the horizon and call counters on the
    target's two audit reads."""

    def __init__(self, seed: int, profiles: int, buffer_events: int = 100_000):
        self.clock = SimClock()
        self.source = make_source(self.clock, profiles=profiles, inmails=0)
        self.cluster = EspressoCluster(
            espresso_schema_for(self.source), num_nodes=3, clock=self.clock,
            relay_buffer_events=buffer_events,
            disk=SimDisk(clock=self.clock, seed=seed))
        self.cluster.start()
        self.target = EspressoTarget(self.cluster, RowTransform(self.source))
        self.relay = relay = Relay("walk-relay")
        self.capture = capture_from_binlog(self.source, relay)
        self.client = DatabusClient(
            LiveReplicator(self.source, self.target, relay.schemas), relay,
            clock=self.clock, client_name="walk")
        self.cut = WatermarkCut(self.source, self.pump,
                                positions=[lambda: self.client.checkpoint])
        self.cut.certify()
        self.calls = {"contains": 0, "get_document": 0}
        self.deltas: list[set | None] = []
        for name in self.calls:
            setattr(self.target, name, self._counted(name))
        written_since = self.target.written_since

        def recorded(table, cursor):
            keys, position = written_since(table, cursor)
            self.deltas.append(keys)
            return keys, position
        self.target.written_since = recorded

    def _counted(self, name):
        real = getattr(self.target, name)

        def call(*args):
            self.calls[name] += 1
            return real(*args)
        return call

    def pump(self):
        """One window through the pipeline, then the slaves: with relay
        buffers this small a slave must never fall a burst behind."""
        self.capture.poll()
        self.client.poll(max_events=1)
        self.cluster.pump_replication()

    def put(self, member: int, name: str) -> None:
        self.target.put_row(TABLE, self.row(member, name))
        self.cluster.pump_replication()

    def delete(self, member: int) -> None:
        self.target.delete_row(TABLE, (member,))
        self.cluster.pump_replication()

    def constraints(self):
        """Every Espresso-target constraint the wiring builds: the two
        horizon-cut ones and the three gate ones."""
        horizon = lambda: self.cut.last_scn
        return [
            espresso_containment("keys", self.source, TABLE, self.target,
                                 horizon),
            espresso_value_equality("values", self.source, TABLE, self.target,
                                    horizon=horizon),
            *cutover_constraints(SimpleNamespace(source=self.source,
                                                 target=self.target)),
        ]

    def row(self, member: int, name: str) -> dict:
        return {"member_id": member, "name": name, "score": member}

    def commit(self, member: int, name: str) -> int:
        txn = self.source.begin()
        txn.upsert(TABLE, self.row(member, name))
        return txn.commit()

    def oracle(self):
        """The plain-probe oracle of :meth:`constraints`: the same
        constraints, names and subjects, built straight from the DSL —
        no feed, no digest — so every evaluation reads every row."""
        source, target = self.source, self.target

        def documents(table):
            return lambda: {
                source.table(table).schema.key_of(row):
                    target.transform.document_of(table, row)
                for row in source.table(table).scan()}

        def actual_of(table):
            def read(key):
                document = target.get_document(table, key)
                return ABSENT_VALUE if document is None else document
            return read

        horizon = lambda: self.cut.last_scn
        scns = binlog_key_scns(source, TABLE)
        oracle = [
            KeySetContainment(
                "keys", f"espresso:{TABLE}", source_items=scns,
                contains=lambda key: target.contains(TABLE, key),
                horizon=horizon),
            ValueEquality(
                "values", f"espresso:{TABLE}",
                expected_items=documents(TABLE),
                actual_of=actual_of(TABLE),
                scn_of=lambda key: scns().get(key, 0), horizon=horizon)]
        for table in source.table_names():
            oracle += [
                KeySetContainment(
                    f"cutover-containment-{table}", f"espresso:{table}",
                    source_items=binlog_key_scns(source, table),
                    contains=lambda key, table=table:
                        target.contains(table, key),
                    horizon=lambda: source.last_committed_scn),
                ValueEquality(
                    f"cutover-equality-{table}", f"espresso:{table}",
                    expected_items=documents(table),
                    actual_of=actual_of(table)),
                KeySetContainment(
                    f"cutover-no-extras-{table}", f"source:{table}",
                    source_items=lambda table=table:
                        dict.fromkeys(target.keys(table), 0),
                    contains=lambda key, table=table:
                        source.table(table).contains(key),
                    horizon=lambda: 0)]
        return oracle

    def unsettled(self) -> set[tuple]:
        """The source keys an unbounded evaluation reads, derived with
        plain reads instead of digests: every key, on either side, of
        each partition whose master holds other (key, schema version,
        ``val``) triples than the source's rows encode to under the
        latest document schema."""
        database = self.cluster.database
        latest = self.cluster.schemas.latest(database.name, TABLE)
        transform = self.target.transform
        copies: dict[int, tuple[dict, dict]] = {
            p: ({}, {}) for p in range(database.num_partitions)}
        for row in self.source.table(TABLE).scan():
            key = (row["member_id"],)
            copies[database.partition_for(str(key[0]))][0][key] = (
                latest.version,
                encode_record(latest, transform.document_of(TABLE, row)))
        for partition, (_, held) in copies.items():
            master = self.cluster.master_node(partition)
            for row in master.local.table(TABLE).scan():
                if database.partition_for(row["member_id"]) == partition:
                    held[transform.source_key(TABLE, (row["member_id"],))] \
                        = (row["schema_version"], row["val"])
        return {key for expected, held in copies.values() if expected != held
                for key in (*expected, *held)}

    def master_of(self, member: int):
        return self.cluster.node_for_resource(str(member))


def verdicts(constraints) -> list[list[tuple]]:
    """Each constraint's violations as comparable records, raw key
    included (``Violation`` equality leaves it out)."""
    return [[(violation, violation.raw_key) for violation in c.check()]
            for c in constraints]


# -- the walk -----------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_long_lived_constraints_agree_with_fresh_ones_at_every_step(seed):
    rng = random.Random(seed)
    world = World(seed, profiles=40, buffer_events=6)
    source, target, cluster = world.source, world.target, world.cluster
    long_lived = world.constraints()
    down: str | None = None
    seen = {"violations": 0, "in_flight": 0}
    for step in range(90):
        move = rng.random()
        member = rng.randrange(48)
        if move < 0.12:        # source commit, left in flight
            world.commit(member, f"s{step}")
        elif move < 0.15:      # ... and lost in the pipeline for good
            scn = world.commit(rng.choice((member, 100 + step)), f"l{step}")
            world.capture.poll()
            world.relay.drop_window(scn)
        elif move < 0.25:      # source delete, left in flight
            if source.table(TABLE).contains((member,)):
                source.autocommit(TABLE, {"member_id": member},
                                  kind=ChangeKind.DELETE)
        elif move < 0.40:      # dual write: both sides now
            world.commit(member, f"d{step}")
            world.put(member, f"d{step}")
        elif move < 0.50:      # the pipeline catches up to a new cut
            world.cut.certify()
        elif move < 0.58:      # plant: stale put, or a ghost key
            world.put(member, "STALE")
        elif move < 0.64:      # plant: a delete the source never made
            world.delete(member)
        elif move < 0.70:      # heal: re-copy every source row
            world.cut.certify()
            for row in list(source.table(TABLE).scan()):
                world.put(row["member_id"], row["name"])
            for key in target.keys(TABLE):
                if not source.table(TABLE).contains(key):
                    world.delete(key[0])
        elif move < 0.80:      # a burst long enough to evict past a cursor
            for wave in range(3):
                for hot in range(24):
                    world.commit(hot, f"b{step}")
                    world.put(hot, f"b{step}")
        elif down is None:     # lose a storage node: slaves take over
            down = rng.choice(NODES)
            cluster.pump_replication()
            cluster.crash_node(down)
            cluster.failover()
        else:                  # ... and get it back
            cluster.recover_node(down)
            cluster.failover()
            down = None
        cluster.pump_replication()
        horizon = world.cut.last_scn
        seen["in_flight"] += any(
            scn > horizon
            for scn in binlog_key_scns(source, TABLE)().values())
        got = verdicts(long_lived)
        assert got == verdicts(world.constraints()), f"step {step}"
        assert got == verdicts(world.oracle()), f"step {step}"
        seen["violations"] += any(got)
    # the walk did what it is here for: violations came and went, keys
    # were in flight at a check, deltas were bounded and were voided
    assert seen["violations"] > 10 and seen["in_flight"] > 5
    assert any(delta for delta in world.deltas)            # bounded, busy
    assert sum(delta is None for delta in world.deltas) > 15   # voided


# -- direct cases -------------------------------------------------------------

def test_a_convicted_key_is_reported_again_untouched():
    world = World(0, profiles=12)
    world.delete(4)
    world.put(7, "STALE")
    constraints = world.constraints()
    first = verdicts(constraints)
    assert [v.raw_key for v in constraints[0].check()] == [(4,)]
    assert [v.raw_key for v in constraints[1].check()] == [(7,)]
    world.calls.update(contains=0, get_document=0)
    assert verdicts(constraints) == first       # nothing moved: same verdict
    # ... at the price of the convicted keys alone: (4,) by the two
    # containments, (7,) by the two equalities, nothing by no-extras
    assert world.calls == {"contains": 2, "get_document": 2}


def test_a_key_in_flight_is_evaluated_at_the_first_horizon_that_covers_it():
    world = World(0, profiles=12)
    horizon = [world.cut.last_scn]
    containment = espresso_containment("keys", world.source, TABLE,
                                       world.target, lambda: horizon[0])
    equality = espresso_value_equality("values", world.source, TABLE,
                                       world.target, lambda: horizon[0])
    assert containment.check() == equality.check() == []
    lost = world.commit(100, "never replicated")
    wrong = world.commit(5, "replicated wrong")
    world.put(5, "WRONG")
    # committed past the cut: skipped, however often anyone asks
    for _ in range(2):
        assert containment.check() == equality.check() == []
    world.calls.update(contains=0, get_document=0)
    horizon[0] = lost           # covers (100,) only; nothing moved since
    [missing] = containment.check()
    assert (missing.raw_key, missing.scn) == ((100,), lost)
    assert equality.check() == []
    horizon[0] = wrong
    [diverged] = equality.check()
    assert (diverged.raw_key, diverged.scn) == ((5,), wrong)
    assert [v.raw_key for v in containment.check()] == [(100,)]


def test_an_evicted_cursor_widens_the_next_evaluation_to_everything():
    world = World(0, profiles=12, buffer_events=6)
    containment = world.constraints()[0]
    assert containment.check() == []
    # a mutation that bypasses the storage node's write path reaches no
    # relay buffer, so a delta cannot see it — the stated limit
    world.master_of(3).local.table(TABLE).delete(("3",))
    world.calls["contains"] = 0
    assert containment.check() == []
    assert world.calls["contains"] == 0
    # ... until a cursor is lost: enough writes to evict past it
    for wave in range(8):
        for member in range(12):
            if member != 3:
                world.put(member, f"m{member}")
    # everything: a contains per source key of the unsettled partitions
    read = len(world.unsettled() & set(world.source.table(TABLE).keys()))
    assert [v.raw_key for v in containment.check()] == [(3,)]
    assert world.deltas[-1] is None
    assert world.calls["contains"] == read


def test_a_changed_master_widens_the_next_evaluation_to_everything():
    world = World(0, profiles=12)
    containment = world.constraints()[0]
    assert containment.check() == []
    world.calls["contains"] = 0
    assert containment.check() == []
    assert world.calls["contains"] == 0 and world.deltas[-1] == set()
    world.cluster.pump_replication()
    world.cluster.crash_node("storage-1")
    world.cluster.failover()      # another copy now answers: nobody looked
    read = len(world.unsettled() & set(world.source.table(TABLE).keys()))
    assert containment.check() == []
    assert world.deltas[-1] is None
    assert world.calls["contains"] == read
    world.calls["contains"] = 0
    assert containment.check() == []     # the new masters have a cursor now
    assert world.calls["contains"] == 0


def test_an_evaluation_that_raised_widens_the_next_one():
    world = World(0, profiles=12)
    containment = world.constraints()[0]
    assert containment.check() == []
    world.delete(2)
    real = containment.contains
    containment.contains = lambda key: 1 / 0
    with pytest.raises(ZeroDivisionError):      # the delta is drained...
        containment.check()
    containment.contains = real
    assert [v.raw_key for v in containment.check()] == [(2,)]   # ...not lost


# -- shape ---------------------------------------------------------------------

@pytest.mark.parametrize("profiles", [40, 160])
def test_later_cycles_cost_what_changed_not_what_is_stored(profiles):
    world = World(0, profiles=profiles)
    gate = [constraint for constraint in cutover_constraints(
                SimpleNamespace(source=world.source, target=world.target))
            if constraint.name.endswith(TABLE)]
    read = len(world.unsettled() & set(world.source.table(TABLE).keys()))
    assert verdicts(gate) == [[], [], []]
    # the first cycle read everything: a contains per source key of the
    # unsettled partitions, a document per such key (no-extras scans
    # keys, not contains)
    assert world.calls == {"contains": read, "get_document": read}
    for member in (1, 2, 3):                                # dual writes
        world.commit(member, "moved")
        world.put(member, "moved")
    world.put(8, "STALE")                                   # convicted
    world.delete(9)                                         # convicted
    world.calls.update(contains=0, get_document=0)
    assert [len(v) for v in verdicts(gate)] == [1, 1, 0]
    # five keys moved: each constraint looks at those five
    assert world.calls == {"contains": 10, "get_document": 5}
    world.calls.update(contains=0, get_document=0)
    assert [len(v) for v in verdicts(gate)] == [1, 1, 0]
    # nothing moved: each constraint looks at what it convicted
    assert world.calls == {"contains": 1, "get_document": 1}


# -- the gate after the first look ----------------------------------------------
#
# The first look fills the digests (source and every master); the gate is
# a fresh set of constraints, so its one evaluation is unbounded and reads
# only the partitions whose digests have moved apart since.

def first_look(world) -> None:
    assert verdicts(world.constraints()) == [[]] * 8


def gate(world) -> list[list[tuple]]:
    """A fresh gate's verdicts, which must be the oracle's."""
    got = verdicts(world.constraints())
    assert got == verdicts(world.oracle())
    return got


def convicted(got) -> set[tuple]:
    return {(violation.constraint, violation.kind, violation.raw_key)
            for verdict in got for violation, _ in verdict}


def test_the_gate_convicts_a_planted_store_write():
    world = World(0, profiles=24)
    first_look(world)
    plan = FaultPlan(world.cluster.disk)
    injector = ViolationInjector()
    planted = injector.corrupt_store_write(
        plan, 1.0, lambda: world.put(6, "CORRUPT"),
        constraint=f"cutover-equality-{TABLE}", subject=f"espresso:{TABLE}",
        key=(6,))
    plan.run(until=2.0)
    assert convicted(gate(world)) >= {
        ("values", "value-divergence", (6,)),
        (planted.constraint, "value-divergence", (6,))}


def test_the_gate_convicts_mutations_made_by_hand_on_a_master():
    """Neither reaches a relay buffer, so no delta sees them; the digests
    move with the rows, so the gate does."""
    world = World(0, profiles=24)
    first_look(world)
    world.master_of(4).local.table(TABLE).delete(("4",))
    local = world.master_of(7).local.table(TABLE)
    row = local.get(("7",))
    latest = world.cluster.schemas.latest(world.cluster.database.name, TABLE)
    row["val"] = encode_record(latest, {"name": "by hand", "score": 7})
    local.upsert(row)
    assert convicted(gate(world)) == {
        ("keys", "missing-key", (4,)),
        ("values", "value-divergence", (7,)),
        (f"cutover-containment-{TABLE}", "missing-key", (4,)),
        (f"cutover-equality-{TABLE}", "value-divergence", (7,))}


def test_the_gate_reads_a_promoted_master_after_a_failover():
    world = World(0, profiles=24)
    first_look(world)
    before = world.cluster.masters_by_partition()
    world.cluster.pump_replication()
    world.cluster.crash_node("storage-1")
    world.cluster.failover()
    assert gate(world) == [[]] * 8
    database = world.cluster.database
    promoted = next(
        member for member in range(24)
        if before[database.partition_for(str(member))] == "storage-1")
    world.master_of(promoted).local.table(TABLE).delete((str(promoted),))
    assert convicted(gate(world)) == {
        ("keys", "missing-key", (promoted,)),
        (f"cutover-containment-{TABLE}", "missing-key", (promoted,))}


def test_rows_stored_under_an_older_document_schema_are_no_violation():
    """The source digest is taken under the latest schema, so a partition
    holding rows written under the older one differs; its rows decode
    equal, and the gate passes."""
    world = World(0, profiles=24)
    first_look(world)
    world.cluster.post_document_schema(TABLE, RecordSchema(
        TABLE, [Field("name", "string", indexed=True), Field("score", "long")],
        version=2))
    for member in (1, 2, 3):                  # dual writes, now under v2
        world.commit(member, "v2")
        world.put(member, "v2")
    world.calls.update(contains=0, get_document=0)
    assert gate(world) == [[]] * 8
    assert world.calls["get_document"] > 0    # the rows were compared


def table_gate(world) -> list:
    """A fresh gate's three constraints over the profiles table."""
    return [constraint for constraint in cutover_constraints(
                SimpleNamespace(source=world.source, target=world.target))
            if constraint.name.endswith(TABLE)]


@pytest.mark.parametrize("profiles", [40, 160])
def test_a_gate_reads_only_the_partitions_whose_digests_differ(profiles):
    world = World(0, profiles=profiles)
    first_look(world)
    world.calls.update(contains=0, get_document=0)
    assert verdicts(table_gate(world)) == [[], [], []]
    assert world.calls == {"contains": 0, "get_document": 0}
    world.put(8, "STALE")                     # one divergent key
    database = world.cluster.database
    in_partition = [key for key in world.source.table(TABLE).keys()
                    if database.partition_for(str(key[0]))
                    == database.partition_for("8")]
    assert [len(v) for v in verdicts(table_gate(world))] == [0, 1, 0]
    # containment asks contains, equality reads a document, of each
    # source key of that one partition; no-extras scans its keys
    assert world.calls == {"contains": len(in_partition),
                           "get_document": len(in_partition)}
    assert len(in_partition) < profiles / 4
