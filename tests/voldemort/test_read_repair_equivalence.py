"""Read repair runs only when replicas disagree, and repairs what the
always-walk repaired.

:meth:`RoutedStore.get` calls :meth:`RoutedStore._read_repair` only when
a replica answered "no such key" or :func:`frontier_of` did not return
the first reply itself.  That first-reply return is its all-agree fast
path: every reply holds one version with one clock, so the walk that
looks for replicas lacking a frontier clock finds none.  The reference
below is the read as it was: every ``get`` walks every reply.

Two identical worlds run the same seeded script, one through each read:
a killed replica that restarts empty, a replica partitioned away while
writes land on the others, and eight writers whose blind writes make
concurrent siblings.  Every step must return the same frontier (values,
clocks, order) or raise the same error, after the same simulated
latency; the network trace must match byte for byte (repair pushes are
RPCs, so one push more, less or reordered shows there); and the
``read_repairs`` and ``read_repair.obsolete`` counts must be equal.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.common import vectorclock
from repro.common.clock import SimClock
from repro.common.errors import InsufficientOperationalNodesError, ReproError
from repro.common.vectorclock import VectorClock
from repro.simnet import SimNetwork, lognormal_latency
from repro.voldemort import (
    RoutedStore,
    StoreClient,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
    routing,
)

SEEDS = range(6)
STEPS = 240
NODES = 5
WRITERS = 8
KEYS = [b"key:%02d" % i for i in range(16)]


@contextmanager
def reference_read_repair():
    """The read as it was: every ``get`` with read repair on walks its
    replies for stale replicas (:meth:`RoutedStore._read_repair`, which
    did not change).  ``frontier_of`` hands back a copy of its result,
    so no frontier is the first reply itself and the walk always runs."""
    def walked(replies):
        return list(vectorclock.frontier_of(replies))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "frontier_of", walked)
        yield


def script(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    steps: list[tuple] = []
    for _ in range(STEPS):
        draw = rng.random()
        if draw < 0.25:
            steps.append(("update", rng.randrange(WRITERS), rng.choice(KEYS)))
        elif draw < 0.40:
            steps.append(("blind", rng.randrange(WRITERS), rng.choice(KEYS)))
        elif draw < 0.45:
            steps.append(("kill", rng.randrange(NODES)))
        elif draw < 0.50:
            steps.append(("partition", rng.randrange(NODES)))
        elif draw < 0.56:
            steps.append(("heal",))
        else:
            steps.append(("get", rng.choice(KEYS)))
    return steps


def _frontier(versions) -> list[tuple]:
    return [(v.value, v.clock) for v in versions]


def run_world(seed: int) -> tuple[list, bytes, dict[str, int], int]:
    """Per-step outcomes, the network trace, the repair counts summed
    over every router, and how many reads walked for stale replicas."""
    clock = SimClock()
    network = SimNetwork(clock=clock, seed=seed,
                         latency_model=lognormal_latency(0.0009, 0.4))
    network.start_trace()
    cluster = VoldemortCluster(num_nodes=NODES, partitions_per_node=4,
                               clock=clock, network=network, seed=seed)
    cluster.define_store(StoreDefinition("s", replication_factor=3,
                                         required_reads=2,
                                         required_writes=2))
    reader = RoutedStore(cluster, "s", client_name="reader")
    writers = [RoutedStore(cluster, "s", client_name=f"writer-{w}")
               for w in range(WRITERS)]
    routers = [reader, *writers]
    blind: dict[tuple[bytes, int], int] = {}
    killed: set[int] = set()
    outcomes: list = []
    walks = 0
    original = RoutedStore._read_repair

    def counted(self, *args, **kwargs):
        nonlocal walks
        walks += 1
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoutedStore, "_read_repair", counted)
        for step in script(seed):
            clock.advance(0.05)     # failure-detector probes come due
            kind = step[0]
            try:
                if kind == "get":
                    frontier, latency = reader.get(step[1])
                    outcomes.append((_frontier(frontier), latency))
                elif kind == "update":
                    # read-modify-write through the client: one merged
                    # context, bumped at the key's master
                    outcomes.append(StoreClient(writers[step[1]]).put(
                        step[2], b"u%d" % len(outcomes)))
                elif kind == "blind":
                    _, writer, key = step
                    counter = blind.get((key, writer), 0) + 1
                    latency = writers[writer].put(key, Versioned(
                        b"b%d" % len(outcomes),
                        VectorClock({100 + writer: counter})))
                    blind[key, writer] = counter
                    outcomes.append(latency)
                elif kind == "kill":
                    # the memory engine restarts empty: every key the
                    # node held now answers "no such key" there
                    node = step[1]
                    cluster.kill_node(node)
                    killed.add(node)
                    outcomes.append(("killed", node))
                elif kind == "partition":
                    name = cluster.node_name(step[1])
                    network.failures.partition(
                        {name}, {cluster.node_name(n) for n in range(NODES)
                                 if n != step[1]}
                        | {r.client_name for r in routers})
                    outcomes.append(("partitioned", step[1]))
                else:
                    network.failures.heal_partition()
                    for node in sorted(killed):
                        cluster.restart_node(node)
                    killed.clear()
                    outcomes.append(("healed",))
            except ReproError as exc:
                outcomes.append((type(exc).__name__,))
    counts = {name: sum(r.metrics.counter(name).value for r in routers)
              for name in ("read_repairs", "read_repair.obsolete")}
    return outcomes, network.trace_bytes(), counts, walks


@pytest.mark.parametrize("seed", SEEDS)
def test_read_repair_pushes_what_the_always_walk_pushed(seed):
    with reference_read_repair():
        reference = run_world(seed)
    change = run_world(seed)
    assert change[0] == reference[0]
    assert change[1] == reference[1]
    assert change[2] == reference[2]
    # the fast path skipped walks, and only walks that found nothing
    assert change[3] < reference[3]


def test_the_script_repairs_stale_missing_and_sibling_replicas():
    """The walks are not vacuous: across the seeds, repairs were pushed
    and some were moot (a sibling the replica already held)."""
    totals = {"read_repairs": 0, "read_repair.obsolete": 0}
    for seed in SEEDS:
        for name, value in run_world(seed)[2].items():
            totals[name] += value
    assert totals["read_repairs"] > 0
    assert totals["read_repair.obsolete"] > 0


def _master_two_key(cluster: VoldemortCluster) -> bytes:
    probe = RoutedStore(cluster, "s", client_name="probe")
    return next(key for key in (b"k%d" % i for i in range(1000))
                if probe.replica_nodes(key)[0] == 2)


def lost_write_repro() -> tuple[list, list, list]:
    """The lost write of two writers sharing a context (3 nodes,
    N=3, R=2, W=2, the key's master is node 2): A's put inside
    ``{A, node-2}`` fails, B's put inside ``{B, node-0, node-1}`` is
    acked, both minted the clock ``{2:2}``.  Returns the two puts'
    outcomes and three reads by each client after the heal."""
    clock = SimClock()
    network = SimNetwork(clock=clock, seed=0)
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                               clock=clock, network=network)
    cluster.define_store(StoreDefinition("s", replication_factor=3,
                                         required_reads=2,
                                         required_writes=2))
    key = _master_two_key(cluster)
    a = StoreClient(RoutedStore(cluster, "s", client_name="A"))
    b = StoreClient(RoutedStore(cluster, "s", client_name="B"))
    a.put(key, b"v0")
    context = a.get(key)[0].clock
    assert b.get(key)[0].clock == context == VectorClock({2: 1})
    network.failures.partition({"A", "node-2"}, {"B", "node-0", "node-1"})
    puts = []
    for client, value in ((a, b"from-A"), (b, b"from-B")):
        try:
            puts.append(client.put(key, value, version=context))
        except InsufficientOperationalNodesError as exc:
            puts.append(type(exc).__name__)
    network.failures.heal_partition()
    clock.advance(60.0)
    reads = [_frontier(client.get(key))
             for client in (a, b) for _ in range(3)]
    return puts, reads, [cluster.server_for(n).engine("s").get(key)[0].value
                         for n in range(3)]


def test_equal_clocks_take_the_same_path_before_and_after():
    """ROADMAP item 1's lost write reproduces unchanged: equal clocks
    with different values are one version to ``frontier_of`` on both
    paths, so neither repairs and B's acked write stays lost.  (The fix
    to item 1 changes the expected values here, on purpose.)"""
    with reference_read_repair():
        reference = lost_write_repro()
    change = lost_write_repro()
    assert change == reference
    puts, reads, replicas = change
    assert puts == ["InsufficientOperationalNodesError",
                    VectorClock({2: 2})]
    assert reads == [[(b"from-A", VectorClock({2: 2}))]] * 6
    assert replicas == [b"from-B", b"from-B", b"from-A"]
