"""``get_all`` against its per-key reference, step by step.

Two identical worlds run the same seeded script: one reads through
:meth:`RoutedStore.get_all`, the other through
:class:`~tests.voldemort.reference_get_all.ReferenceRoutedStore`, the
read as it was before quorums were counted per partition (they are now
counted per replica set).  The script
mixes concurrent writers (siblings), tombstones planted on some of a
key's replicas, missing and repeated keys in a batch, crashes the
failure detector has not noticed yet (the fallback round), and replicas
whose full server queue sheds.  After every step both worlds must agree
on every frontier (values, clocks and their order), the latency, the
fallback-round count, the error raised and its ``achieved``, and the
network trace byte for byte: RPC order feeds the network RNG, so one
reordered batch would show there.  The walk runs on the plain ring, and
again where preference lists differ from it in order (a zone-aware
store read from one zone) and in length (an admin redirect in place),
and on the durable engine, whose replicas decode their own versions.
Two more walks exercise the memory engine's set of tombstoned keys:
one deletes keys through the router and rewrites them live, the other
also restarts a memory node (truncates its engine) mid-walk.
"""

from __future__ import annotations

import random

import pytest

from repro.common import vectorclock
from repro.common.clock import SimClock
from repro.common.errors import KeyNotFoundError, ReproError
from repro.common.ring import HashRing, Node, Zone
from repro.common.vectorclock import VectorClock
from repro.simnet import SimNetwork, lognormal_latency
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
    routing,
)
from repro.voldemort.admin import AdminService
from tests.voldemort.reference_get_all import ReferenceRoutedStore

SEEDS = range(8)
STEPS = 90
NODES = 5
WRITERS = 3
KEYS = [b"member:%03d" % i for i in range(48)]
HOT = KEYS[:12]
GHOSTS = [b"ghost:%d" % i for i in range(6)]     # never written
TOMBSTONE_WRITER = 9
REVIVER = 10        # the clock entry of routed deletes and revivals


def script(seed: int) -> list[tuple]:
    """The walk, drawn once so both worlds replay the same steps."""
    rng = random.Random(seed)
    counters: dict[tuple[bytes, int], int] = {}
    crashed: set[int] = set()
    steps: list[tuple] = []
    for _ in range(STEPS):
        draw = rng.random()
        if draw < 0.30:
            writer, key = rng.randrange(WRITERS), rng.choice(HOT)
            counters[key, writer] = counters.get((key, writer), 0) + 1
            steps.append(("put", writer, key, counters[key, writer]))
        elif draw < 0.38:
            steps.append(("tombstone", rng.choice(HOT), rng.randrange(1, 3)))
        elif draw < 0.46 and len(crashed) < 2:
            node = rng.randrange(NODES)
            crashed.add(node)
            steps.append(("crash", node))
        elif draw < 0.56:
            crashed.clear()
            steps.append(("heal",))
        else:
            batch = rng.sample(KEYS, rng.randrange(1, 30)) + \
                rng.sample(GHOSTS, rng.randrange(3))
            batch += rng.choices(batch, k=rng.randrange(4))   # repeats
            rng.shuffle(batch)
            # replicas whose queue is full when the batch arrives
            shedding = rng.sample(range(NODES), rng.choice((0, 0, 0, 1, 1, 2)))
            steps.append(("get_all", batch, shedding))
    return steps


def revival_script(seed: int, restarts: bool = False) -> list[tuple]:
    """The walk with routed deletes and revivals mixed in: after a step,
    a hot key may be deleted through the router (a tombstone on every
    replica the delete reaches) or rewritten live over every version
    and tombstone it holds anywhere.  With ``restarts``, a memory node
    is also restarted now and then: its engine is truncated in place."""
    rng = random.Random(seed + len(SEEDS))
    steps: list[tuple] = []
    for step in script(seed):
        steps.append(step)
        draw = rng.random()
        if draw < 0.12:
            steps.append(("delete", rng.choice(HOT)))
        elif draw < 0.30:
            steps.append(("revive", rng.choice(HOT)))
        elif restarts and draw < 0.34:
            steps.append(("truncate", rng.randrange(NODES)))
    return steps


class World:
    """One cluster, its reader and its writers; every node sits behind
    a bounded server queue so that a burst of requests sheds.

    ``setting`` bends the preference lists away from the plain ring:
    ``"zones"`` puts node 4 alone in zone 1 of a store that must span
    both zones (two lists gain node 4) and reads from zone 1 (node 4
    ranks first); ``"redirect"`` moves partition 0 to node 1 mid-
    rebalance (two lists shrink to two nodes, a third changes).
    ``engine_type`` picks the store's engine."""

    QUEUE_DEPTH = 4

    def __init__(self, seed: int, reader_type: type, setting: str = "ring",
                 engine_type: str = "memory"):
        self.clock = SimClock()
        self.network = SimNetwork(clock=self.clock, seed=seed,
                                  latency_model=lognormal_latency(0.0009, 0.4))
        self.cluster = VoldemortCluster(num_nodes=NODES, partitions_per_node=4,
                                        clock=self.clock, network=self.network)
        reader_options, admin = {}, None
        if setting == "zones":
            ring = self.cluster.ring
            self.cluster.ring = HashRing(
                [Node(n, ring.nodes[n].partitions, zone_id=int(n == 4))
                 for n in range(NODES)],
                ring.num_partitions, [Zone(0, (1,)), Zone(1, (0,))])
            self.cluster.define_store(StoreDefinition(
                "s", 3, 2, 2, engine_type, required_zones=2))
            reader_options["client_zone"] = 1
        else:
            self.cluster.define_store(
                StoreDefinition("s", 3, 2, 2, engine_type))
        if setting == "redirect":
            admin = AdminService(self.cluster)
            admin.redirects[0] = 1
        for node in range(NODES):
            self.network.add_server_queue(self.cluster.node_name(node),
                                          service_time=0.005,
                                          capacity=self.QUEUE_DEPTH)
        self.reader = reader_type(self.cluster, "s", **reader_options)
        self.writers = [RoutedStore(self.cluster, "s",
                                    client_name=f"writer-{w}")
                        for w in range(WRITERS)]
        for routed in [self.reader] + self.writers:
            routed.admin = admin
        self.planted: dict[tuple[int, bytes], VectorClock] = {}
        self.network.start_trace()
        for key in KEYS:
            self.writers[0].put(key, Versioned.initial(b"v0:" + key, 0))
            self.clock.advance(0.01)

    def engines(self):
        return [self.cluster.server_for(n).engine("s") for n in range(NODES)]

    def apply(self, step: tuple) -> tuple:
        """Run one step; returns everything the two worlds must agree on."""
        self.clock.advance(0.05)
        kind = step[0]
        if kind == "put":
            _, writer, key, counter = step
            versioned = Versioned(b"w%d:%d" % (writer, counter),
                                  VectorClock({writer + 1: counter}))
            try:
                return ("put", self.writers[writer].put(key, versioned))
            except ReproError as exc:
                return ("put", type(exc))
        if kind == "tombstone":
            _, key, count = step
            for node in self.reader.replica_nodes(key)[:count]:
                self._plant_tombstone(node, key)
            return ("tombstone",)
        if kind == "crash":
            self.network.failures.crash(self.cluster.node_name(step[1]))
            return ("crash",)
        if kind == "heal":
            for node in range(NODES):
                self.network.failures.recover(self.cluster.node_name(node))
            return ("heal",)
        if kind in ("delete", "revive"):
            key = step[1]
            clock = self._clock_past(key).incremented(REVIVER)
            try:
                if kind == "delete":
                    return (kind, self.writers[0].delete(
                        key, Versioned(None, clock)))
                return (kind, self.writers[0].put(
                    key, Versioned(b"revived:" + key, clock)))
            except ReproError as exc:
                return (kind, type(exc))
        if kind == "truncate":
            self.cluster.server_for(step[1]).engine("s").truncate()
            return ("truncate",)
        _, batch, shedding = step
        for node in shedding:
            self._fill_queue(node)
        return self._get_all(batch)

    def _fill_queue(self, node: int) -> None:
        name = self.cluster.node_name(node)
        for _ in range(self.QUEUE_DEPTH):
            try:
                self.network.invoke("filler", name, lambda: None)
            except ReproError:
                return

    def _plant_tombstone(self, node: int, key: bytes) -> None:
        """A delete that reached this replica only: a tombstone whose
        clock dominates everything the replica holds for ``key``.  Only
        plants make tombstones, so the one it can hold is the last one
        planted here, and the live versions are the rest."""
        engine = self.cluster.server_for(node).engine("s")
        clock = self.planted.get((node, key), VectorClock())
        try:
            for versioned in engine.get(key):
                clock = clock.merged(versioned.clock)
        except KeyNotFoundError:
            pass
        clock = self.planted[node, key] = clock.incremented(TOMBSTONE_WRITER)
        engine.put(key, Versioned(None, clock))

    def _clock_past(self, key: bytes) -> VectorClock:
        """Every clock any replica holds for ``key``, tombstones
        included, merged: a write one past it supersedes them all."""
        clock = VectorClock()
        for engine in self.engines():
            try:
                versions = engine.get_including_tombstones(key)
            except KeyNotFoundError:
                continue
            for versioned in versions:
                clock = clock.merged(versioned.clock)
        return clock

    def _get_all(self, batch: list[bytes]) -> tuple:
        fallbacks = self.reader.metrics.counter("get_all.fallback_rounds")
        try:
            found, latency = self.reader.get_all(batch)
        except ReproError as exc:
            outcome = (type(exc), str(exc), getattr(exc, "required", None),
                       getattr(exc, "achieved", None))
        else:
            outcome = ({key: list(versions)
                        for key, versions in found.items()}, latency)
        return ("get_all", outcome, fallbacks.value)


def engine_batch_reads_match_get(engine, keys: list[bytes]) -> bool:
    expected = {}
    for key in keys:
        try:
            expected[key] = engine.get(key)
        except KeyNotFoundError:
            continue
    (found,) = engine.get_many([keys])
    return {key: list(versions) for key, versions in found.items()} == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_get_all_matches_the_per_key_reference(seed):
    world = World(seed, RoutedStore)
    reference = World(seed, ReferenceRoutedStore)
    for number, step in enumerate(script(seed)):
        outcome = world.apply(step)
        assert outcome == reference.apply(step), (number, step[0])
        assert world.network.trace_bytes() == \
            reference.network.trace_bytes(), (number, step[0])
        assert all(engine_batch_reads_match_get(engine, KEYS + GHOSTS)
                   for engine in world.engines()), number


@pytest.mark.parametrize("setting", ["zones", "redirect"])
@pytest.mark.parametrize("seed", SEEDS)
def test_get_all_matches_the_reference_where_preference_lists_differ(
        seed, setting):
    """The same walk where some partitions' replica lists differ from
    the plain ring's, so grouping keys by replica set and ordering each
    set once must still order each partition as the reference does."""
    world = World(seed, RoutedStore, setting)
    reference = World(seed, ReferenceRoutedStore, setting)
    ring = world.cluster.ring
    plain = [ring.preference_list(p, 3)[1]
             for p in range(ring.num_partitions)]
    bent = [world.reader._preference(ring, p)
            for p in range(ring.num_partitions)]
    assert sum(a != b for a, b in zip(plain, bent)) >= 2
    if setting == "redirect":
        assert min(map(len, bent)) == 2
    for number, step in enumerate(script(seed)):
        outcome = world.apply(step)
        assert outcome == reference.apply(step), (number, step[0])
        assert world.network.trace_bytes() == \
            reference.network.trace_bytes(), (number, step[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_get_all_matches_the_reference_on_the_durable_engine(seed):
    """The walk on the log-structured engine: each replica decodes its
    own ``Versioned`` objects, so two replicas in agreement hand back
    equal versions, never the same ones, and the whole-replica-set
    comparison has to go through value equality."""
    world = World(seed, RoutedStore, engine_type="log-structured")
    reference = World(seed, ReferenceRoutedStore,
                      engine_type="log-structured")
    for number, step in enumerate(script(seed)):
        outcome = world.apply(step)
        assert outcome == reference.apply(step), (number, step[0])
        assert world.network.trace_bytes() == \
            reference.network.trace_bytes(), (number, step[0])
        assert all(engine_batch_reads_match_get(engine, KEYS + GHOSTS)
                   for engine in world.engines()), number


def tombstone_set_is_bounded(engine) -> bool:
    """The memory engine remembers only keys it holds."""
    return engine._tombstoned <= engine._data.keys()


def revived_and_beside(engine) -> tuple[bool, bool]:
    """Whether ``engine`` holds a key it once tombstoned that now reads
    live with no tombstone left, and a key whose tombstone sits beside
    a live sibling."""
    revived = beside = False
    for key in HOT:
        try:
            versions = engine.get_including_tombstones(key)
        except KeyNotFoundError:
            continue
        dead = sum(v.is_tombstone for v in versions)
        revived |= key in engine._tombstoned and dead == 0
        beside |= 0 < dead < len(versions)
    return revived, beside


@pytest.mark.parametrize("restarts", [False, True],
                         ids=["revivals", "memory_restart"])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_get_all_matches_the_reference_across_deletes_and_revivals(
        seed, restarts):
    """Deleted keys rewritten live, live siblings beside tombstones and,
    with ``restarts``, a memory node truncated mid-walk: the memory
    engine filters only the keys a tombstone was ever written to, so
    its batch read must still answer as ``get`` after every step, and
    the read as the reference.  Not vacuous: each walk revives a key on
    some replica and leaves a tombstone beside a live sibling, and a
    restart clears a non-empty set of tombstoned keys."""
    world = World(seed, RoutedStore)
    reference = World(seed, ReferenceRoutedStore)
    seen = {"revived": False, "beside": False, "cleared": not restarts}
    for number, step in enumerate(revival_script(seed, restarts)):
        if step[0] == "truncate":
            engine = world.cluster.server_for(step[1]).engine("s")
            seen["cleared"] |= bool(engine._tombstoned)
        outcome = world.apply(step)
        assert outcome == reference.apply(step), (number, step[0])
        assert world.network.trace_bytes() == \
            reference.network.trace_bytes(), (number, step[0])
        for engine in world.engines():
            assert engine_batch_reads_match_get(engine, KEYS + GHOSTS), number
            assert tombstone_set_is_bounded(engine), number
            revived, beside = revived_and_beside(engine)
            seen["revived"] |= revived
            seen["beside"] |= beside
    assert all(seen.values()), seen


def keep_equal_clocks_apart(monkeypatch) -> None:
    """A stand-in for a fix of the anomaly, patched into the seam that
    reconciles replies: two versions with one clock and different values
    are both kept, as siblings.  Engines keep their own merge."""
    merge = vectorclock.merge_frontier

    def merge_keeping_twins(frontier, incoming):
        twins = [kept for kept in frontier if kept.clock == incoming.clock]
        if twins and all(kept.value != incoming.value for kept in twins):
            return list(frontier) + [incoming]
        return merge(frontier, incoming)

    def same_single_version(kept, reply):
        return len(kept) == 1 == len(reply) and kept[0] == reply[0]

    monkeypatch.setattr(vectorclock, "merge_frontier", merge_keeping_twins)
    for module in (vectorclock, routing):
        monkeypatch.setattr(module, "same_single_version",
                            same_single_version)


@pytest.mark.parametrize("seam", ["today", "twins_kept"])
def test_equal_clocks_with_different_values_read_as_get_reads_them(
        seam, monkeypatch):
    """Dotted-version-vector anomaly: two replicas of one partition hold
    one clock with two values (two writers minted the same clock), and
    the other keys of the partition agree.  Equal clocks are not equal
    answers, so the key goes through the per-key merge: ``get_all``
    answers as the per-key reference and as ``get`` do, whatever the
    merge makes of it — today it keeps the first value; with a seam
    that keeps both, a comparison of clocks alone would drop one."""
    if seam == "twins_kept":
        keep_equal_clocks_apart(monkeypatch)
    worlds = [World(0, RoutedStore), World(0, ReferenceRoutedStore)]
    outcomes = []
    for world in worlds:
        ring, reader = world.cluster.ring, world.reader
        key = KEYS[0]
        partition = ring.partition_for_key(key)
        batch = [k for k in KEYS if ring.partition_for_key(k) == partition]
        assert len(batch) > 1
        # one clock past the preloaded version, minted twice
        clock = VectorClock({0: 1, WRITERS + 1: 1})
        for node, value in zip(reader.replica_nodes(key), (b"x", b"y")):
            world.cluster.server_for(node).engine("s").put(
                key, Versioned(value, clock))
        found, _ = reader.get_all(batch)
        world.clock.advance(1.0)    # queues drain: get asks the same two
        frontier, _ = reader.get(key)
        assert list(found[key]) == frontier
        assert {v.clock for v in frontier} == {clock}
        assert len(frontier) == (2 if seam == "twins_kept" else 1)
        outcomes.append({k: list(versions) for k, versions in found.items()})
    assert outcomes[0] == outcomes[1]
    assert worlds[0].network.trace_bytes() == worlds[1].network.trace_bytes()


def holds_tombstone(engine, key: bytes) -> bool:
    try:
        return any(v.is_tombstone
                   for v in engine.get_including_tombstones(key))
    except KeyNotFoundError:
        return False


def test_the_walk_reaches_every_case():
    """Not vacuous: over the seeds the walk reads siblings and keys
    with a tombstone on some replica, and sees fallback rounds, replica
    sheds, node failures and a quorum miss."""
    seen = dict.fromkeys(("siblings", "tombstone", "fallback", "shed",
                          "node_failure", "quorum_miss"), 0)
    for seed in SEEDS:
        world = World(seed, RoutedStore)
        for step in script(seed):
            outcome = world.apply(step)
            if step[0] != "get_all":
                continue
            result = outcome[1][0]
            if isinstance(result, dict):
                seen["siblings"] += any(len(v) > 1 for v in result.values())
            else:
                seen["quorum_miss"] += 1
            seen["tombstone"] += any(holds_tombstone(engine, key)
                                     for engine in world.engines()
                                     for key in step[1])
        counters = world.reader.metrics.counter
        seen["fallback"] += counters("get_all.fallback_rounds").value
        seen["shed"] += counters("get_all.replica_shed").value
        seen["node_failure"] += counters("get_all.node_failures").value
    assert all(seen.values()), seen
