"""Cluster and store configuration.

A Voldemort *cluster* is a set of nodes and a partition ring; *stores*
(database tables) map onto a cluster, each with its own replication
factor N, required reads R, required writes W, and engine type (§II.B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import Clock, SimClock
from repro.common.errors import ConfigurationError
from repro.common.ring import HashRing, build_balanced_ring
from repro.simnet import SimNetwork
from repro.simnet.disk import SimDisk
from repro.voldemort.engines import (
    InMemoryStorageEngine,
    LogStructuredEngine,
    ReadOnlyStorageEngine,
    StorageEngine,
)


@dataclass(frozen=True)
class StoreDefinition:
    """Per-store configuration: schema of the quorum and the engine."""

    name: str
    replication_factor: int = 3
    required_reads: int = 2
    required_writes: int = 2
    engine_type: str = "memory"  # "memory" | "log-structured" | "read-only"
    required_zones: int = 0

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("store needs a name")
        if self.replication_factor < 1:
            raise ConfigurationError("replication_factor must be >= 1")
        if not 1 <= self.required_reads <= self.replication_factor:
            raise ConfigurationError("require 1 <= R <= N")
        if not 1 <= self.required_writes <= self.replication_factor:
            raise ConfigurationError("require 1 <= W <= N")
        if self.required_zones < 0:
            raise ConfigurationError("required_zones must be >= 0")

    @property
    def strongly_consistent(self) -> bool:
        """R + W > N guarantees read-your-writes across the quorum."""
        return self.required_reads + self.required_writes > self.replication_factor


class VoldemortCluster:
    """Nodes + ring + store definitions + the shared simulated network.

    The cluster object is the wiring harness: it builds one
    :class:`repro.voldemort.server.VoldemortServer` per ring node and
    creates the configured engine for every store on every node.
    """

    def __init__(self, num_nodes: int = 3, partitions_per_node: int = 8,
                 num_zones: int = 1, clock: Clock | None = None,
                 network: SimNetwork | None = None, seed: int = 0,
                 disk: SimDisk | None = None):
        from repro.voldemort.server import VoldemortServer
        self.clock = clock if clock is not None else SimClock()
        self.network = network or SimNetwork(clock=self.clock, seed=seed)
        self.ring: HashRing = build_balanced_ring(
            num_nodes, num_nodes * partitions_per_node, num_zones)
        self.stores: dict[str, StoreDefinition] = {}
        self.disk = disk
        self.servers: dict[int, VoldemortServer] = {
            node_id: VoldemortServer(node_id, self)
            for node_id in self.ring.nodes
        }

    # -- store management (the Admin Service creates/drops via these) --------

    def define_store(self, definition: StoreDefinition) -> None:
        if definition.name in self.stores:
            raise ConfigurationError(f"store {definition.name!r} already defined")
        if definition.replication_factor > len(self.ring.nodes):
            raise ConfigurationError("replication factor exceeds cluster size")
        self.stores[definition.name] = definition
        for server in self.servers.values():
            server.open_store(definition)

    def drop_store(self, name: str) -> None:
        if name not in self.stores:
            raise ConfigurationError(f"no store {name!r}")
        del self.stores[name]
        for server in self.servers.values():
            server.close_store(name)

    def store_definition(self, name: str) -> StoreDefinition:
        try:
            return self.stores[name]
        except KeyError:
            raise ConfigurationError(f"no store {name!r}") from None

    # -- helpers ---------------------------------------------------------------

    def node_name(self, node_id: int) -> str:
        return f"node-{node_id}"

    def server_for(self, node_id: int):
        return self.servers[node_id]

    def node_disk(self, node_id: int):
        """The node's private crash domain on the simulated disk, or
        None when the cluster has no disk (memory stores only)."""
        if self.disk is None:
            return None
        return self.disk.scope(self.node_name(node_id))

    def make_engine(self, definition: StoreDefinition,
                    node_id: int) -> StorageEngine:
        if definition.engine_type == "memory":
            return InMemoryStorageEngine()
        durable = {"log-structured": LogStructuredEngine,
                   "read-only": ReadOnlyStorageEngine}.get(definition.engine_type)
        if durable is None:
            raise ConfigurationError(
                f"unknown engine type {definition.engine_type!r}")
        if self.disk is None:
            raise ConfigurationError(
                f"store {definition.name!r} is durable; construct the "
                "cluster with disk=SimDisk(...)")
        return durable(definition.name, self.node_disk(node_id))

    # -- crash / restart lifecycle ---------------------------------------------

    def kill_node(self, node_id: int) -> int:
        """Kill a node: its unsynced disk bytes are lost, its open file
        handles die, and the network stops routing to it.  Returns the
        simulated bytes lost.  The server object stays registered so a
        later :meth:`restart_node` can rebuild it from disk."""
        name = self.node_name(node_id)
        self.network.failures.crash(name)
        lost = 0
        if self.disk is not None:
            lost = self.disk.crash_node(name)
        return lost

    def restart_node(self, node_id: int):
        """Boot a replacement server from the node's surviving files.

        Engines re-run their recovery scans (index rebuild, torn-tail
        truncation), the slop WAL is replayed into outstanding hints,
        and the network resumes delivering.  In-memory stores restart
        empty — that is the honest semantics of a non-durable engine.
        """
        from repro.voldemort.server import VoldemortServer
        name = self.node_name(node_id)
        if self.disk is not None:
            self.disk.restart_node(name)
        server = VoldemortServer(node_id, self)
        for definition in self.stores.values():
            server.open_store(definition)
        self.servers[node_id] = server
        self.network.failures.recover(name)
        return server

    def close(self) -> None:
        for server in self.servers.values():
            server.close()
