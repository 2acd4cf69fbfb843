"""An audit evaluates what changed since it last looked; never having
looked, everything changed.  The reference model is the old evaluation:
freshly built constraints have never looked, so by the rule they read
everything — long-lived constraints must return exactly what fresh ones
return, at every step of a seeded walk, and cost what moved."""

import random
from types import SimpleNamespace

import pytest

from repro.audit import WatermarkCut
from repro.audit.wiring import (
    cutover_constraints,
    espresso_containment,
    espresso_value_equality,
)
from repro.common.clock import SimClock
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
            for scn in long_lived[0].source_items().values())
        got = verdicts(long_lived)
        assert got == verdicts(world.constraints()), f"step {step}"
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
    assert [v.raw_key for v in containment.check()] == [(3,)]
    assert world.deltas[-1] is None
    assert world.calls["contains"] == 12


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
    assert containment.check() == []
    assert world.deltas[-1] is None
    assert world.calls["contains"] == 12
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
    assert verdicts(gate) == [[], [], []]
    # the first cycle read everything: a contains per source key, a
    # document per source key (no-extras scans keys, not contains)
    assert world.calls == {"contains": profiles, "get_document": profiles}
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
