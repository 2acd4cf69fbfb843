"""The two Voldemort workloads: ``voldemort-rw`` and ``voldemort-multiget``.

Both run the same 6-node, N=3/R=2/W=2 topology over lognormal hops.
``voldemort-rw`` is the paper's flagship 60/40 read-write cluster on the
durable log-structured engine, so routing, the network, the engine and
the simulated disk all sit on the blocking path.  ``voldemort-multiget``
drives the same routing layer with batch reads beside concurrent blind
writes on the memory engine: no disk and no WAL, so it isolates routing
and vector-clock cost from the fsync cost that dominates
``voldemort-rw``, and it is the only workload where sibling sets grow.
"""

from __future__ import annotations

import random

from repro.common.clock import SimClock
from repro.common.errors import ReproError
from repro.common.vectorclock import VectorClock
from repro.simnet import SimNetwork, lognormal_latency
from repro.simnet.disk import SimDisk
from repro.voldemort import (
    RoutedStore,
    StoreDefinition,
    Versioned,
    VoldemortCluster,
)
from repro.workloads import KeyValueWorkload, RequestMix

from perfbench.workloads.base import Workload, disk_live_bytes, scaled

STORE = "flagship"
NODES = 6


def _cluster(seed: int, engine_type: str) -> VoldemortCluster:
    clock = SimClock()
    network = SimNetwork(clock=clock, seed=seed,
                         latency_model=lognormal_latency(0.0009, 0.4))
    disk = SimDisk(clock=clock, seed=seed) \
        if engine_type == "log-structured" else None
    cluster = VoldemortCluster(num_nodes=NODES, partitions_per_node=8,
                               clock=clock, network=network, seed=seed,
                               disk=disk)
    cluster.define_store(StoreDefinition(
        STORE, replication_factor=3, required_reads=2, required_writes=2,
        engine_type=engine_type))
    return cluster


class VoldemortReadWrite(Workload):
    """60% ``get`` / 40% read-modify-``put`` over Zipf(0.99) keys."""

    name = "voldemort-rw"
    KEYS = 3000
    VALUE_BYTES = 1024
    REQUESTS = 15_000

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        generator = KeyValueWorkload(
            num_keys=self.KEYS, mix=RequestMix(0.6),
            value_bytes=self.VALUE_BYTES, seed=seed)
        self.preload = list(generator.preload())
        self.requests = list(generator.operations(
            scaled(self.REQUESTS, scale, floor=50)))
        self.steps = len(self.requests)
        self.cluster = None
        self.routed = None
        self.acked: dict[bytes, VectorClock] = {}
        self.user_bytes = 0

    def setup(self) -> None:
        self.cluster = _cluster(self.seed, "log-structured")
        self.routed = RoutedStore(self.cluster, STORE)
        self.acked = {}
        for op in self.preload:
            versioned = Versioned.initial(op.value, 0)
            self.routed.put(op.key, versioned)
            self.acked[op.key] = versioned.clock

    def teardown(self) -> None:
        self.cluster = self.routed = None

    def step(self, i: int) -> None:
        op = self.requests[i]
        self.attempted += 1
        try:
            frontier, latency = self.routed.get(op.key)
            if op.kind == "put":
                versioned = Versioned(op.value,
                                      frontier[0].clock.incremented(0))
                latency += self.routed.put(op.key, versioned)
                self.acked[op.key] = versioned.clock
                self.user_bytes += len(op.value)
        except ReproError:
            self.failed += 1
            return
        self.ops += 1
        self.sim_ms.append(latency * 1e3)

    def recover(self) -> None:
        for node_id in range(NODES):
            self.cluster.kill_node(node_id)
        for node_id in range(NODES):
            self.cluster.restart_node(node_id)
        self.routed.get(self.preload[0].key)    # it serves again

    def check(self) -> list[str]:
        failures = []
        for key, clock in self.acked.items():
            try:
                frontier, _ = self.routed.get(key)
            except ReproError as exc:
                failures.append(f"{key!r} unreadable: {exc}")
                continue
            if not any(v.clock.descends_from(clock) for v in frontier):
                failures.append(f"{key!r} lost its acked version {clock!r}")
        return failures

    def counts(self) -> dict[str, float]:
        return {
            "user_bytes": self.user_bytes,
            "voldemort.routing.read_repairs":
                self.routed.metrics.counter("read_repairs").value,
            "simnet.disk.live_bytes": disk_live_bytes(
                self.cluster.disk,
                [self.cluster.node_name(n) for n in range(NODES)]),
        }


class VoldemortMultiget(Workload):
    """70% ``get_all`` of 100 uniform keys, 20% blind ``put`` from eight
    writers onto 32 hot keys (each writer advances only its own clock
    entry, so sibling sets form), 10% ``get`` of a hot key (which
    resolves the frontier and read-repairs)."""

    name = "voldemort-multiget"
    KEYS = 20_000
    VALUE_BYTES = 128
    REQUESTS = 7_000
    BATCH = 100
    HOT = 32
    WRITERS = 8

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.keys = [b"member:%012d" % rank for rank in range(self.KEYS)]
        self.payload = bytes(rng.randrange(256)
                             for _ in range(self.VALUE_BYTES))
        self.requests: list[tuple] = []
        for _ in range(scaled(self.REQUESTS, scale, floor=50)):
            draw = rng.random()
            if draw < 0.7:
                self.requests.append(
                    ("get_all", rng.sample(self.keys, self.BATCH)))
            elif draw < 0.9:
                self.requests.append(("put", rng.randrange(self.WRITERS),
                                      self.keys[rng.randrange(self.HOT)]))
            else:
                self.requests.append(
                    ("get", self.keys[rng.randrange(self.HOT)]))
        self.steps = len(self.requests)
        self.cluster = None
        self.reader = None
        self.writers: list[RoutedStore] = []
        # (key, writer) -> that writer's counter in its own clock entry
        self.acked: dict[tuple[bytes, int], int] = {}
        self.user_bytes = 0

    def setup(self) -> None:
        self.cluster = _cluster(self.seed, "memory")
        self.reader = RoutedStore(self.cluster, STORE)
        self.writers = [
            RoutedStore(self.cluster, STORE, client_name=f"writer-{w}")
            for w in range(self.WRITERS)]
        self.acked = {}
        for key in self.keys:
            self.reader.put(key, Versioned.initial(self.payload, 0))

    def teardown(self) -> None:
        self.cluster = self.reader = None
        self.writers = []

    def step(self, i: int) -> None:
        request = self.requests[i]
        self.attempted += 1
        try:
            if request[0] == "get_all":
                found, latency = self.reader.get_all(request[1])
                if len(found) != self.BATCH:
                    raise ReproError("get_all dropped a key")
            elif request[0] == "put":
                _, writer, key = request
                counter = self.acked.get((key, writer), 0) + 1
                # clock ids 1..8: id 0 wrote the preloaded version
                clock = VectorClock({writer + 1: counter})
                latency = self.writers[writer].put(
                    key, Versioned(self.payload, clock))
                self.acked[(key, writer)] = counter
                self.user_bytes += len(self.payload)
            else:
                _, latency = self.reader.get(request[1])
        except ReproError:
            self.failed += 1
            return
        self.ops += 1
        self.sim_ms.append(latency * 1e3)

    def recover(self) -> None:
        """The memory engine restarts empty, so only one node is bounced
        (two replicas of every key survive) and the hot keys are read
        back, which read-repairs them onto the restarted node."""
        self.cluster.kill_node(0)
        self.cluster.restart_node(0)
        for key in self.keys[:self.HOT]:
            self.reader.get(key)

    def check(self) -> list[str]:
        failures = []
        for (key, writer), counter in self.acked.items():
            clock = VectorClock({writer + 1: counter})
            frontier, _ = self.reader.get(key)
            if not any(v.clock.descends_from(clock) for v in frontier):
                failures.append(
                    f"{key!r} lost writer {writer}'s version {counter}")
        for start in range(0, self.KEYS, self.BATCH):
            batch = self.keys[start:start + self.BATCH]
            found, _ = self.reader.get_all(batch)
            if len(found) != len(batch):
                failures.append(f"{len(batch) - len(found)} preloaded keys "
                                f"missing from batch at {start}")
        return failures

    def counts(self) -> dict[str, float]:
        return {
            "user_bytes": self.user_bytes,
            "voldemort.routing.read_repairs":
                self.reader.metrics.counter("read_repairs").value,
        }
