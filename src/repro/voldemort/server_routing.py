"""Server-side routing (Figure II.1).

"Voldemort supports both server and client side routing by moving the
routing and associated modules."  With client-side routing the client
holds the topology and talks straight to replicas; with server-side
routing the client sends each request to *any* node, which coordinates
the quorum on its behalf — one extra network hop in exchange for thin
clients that need no topology metadata.

Both flavours reuse the exact same :class:`RoutedStore` module, which
is the pluggability point the paper highlights.  The thin client
skips a coordinator it cannot reach and rotates to the next live node;
it does not retry a forward that fails.
"""

from __future__ import annotations

import itertools

from repro.common.errors import NodeUnavailableError
from repro.common.metrics import MetricsRegistry
from repro.common.resilience import Deadline, call_with_retries
from repro.voldemort.cluster import VoldemortCluster
from repro.voldemort.routing import RoutedStore
from repro.voldemort.versioned import Versioned


class ServerSideRoutedStore:
    """Thin client: forwards operations to a coordinator node.

    The coordinator is chosen round-robin over live nodes (a load
    balancer stand-in); it runs the shared routing module server-side,
    so its quorum traffic is node-to-node.  A coordinator the client
    cannot reach is skipped in the rotation, so a crashed coordinator
    costs nothing; a forward that fails after the pick fails the
    request (no retry is configured).
    """

    client_name = "thin-client"

    def __init__(self, cluster: VoldemortCluster, store: str):
        self.cluster = cluster
        self.store = store
        self.metrics = MetricsRegistry()
        # each node runs its own instance of the routing module
        self._coordinators: dict[int, RoutedStore] = {
            node_id: RoutedStore(cluster, store,
                                 client_name=cluster.node_name(node_id))
            for node_id in cluster.ring.nodes
        }
        self._rotation = itertools.cycle(sorted(self._coordinators))

    def _pick_coordinator(self) -> int:
        for _ in range(len(self._coordinators)):
            node_id = next(self._rotation)
            name = self.cluster.node_name(node_id)
            if self.cluster.network.failures.reachable(self.client_name, name):
                return node_id
        raise NodeUnavailableError("no reachable coordinator")

    def _forward(self, name: str, attempt_once,
                 deadline: Deadline | None = None):
        """Run one forwarded operation once, under ``deadline``, counted
        in the store's metrics as ``<name>.attempts``."""
        return call_with_retries(
            attempt_once, clock=self.cluster.clock, deadline=deadline,
            metrics=self.metrics, name=name)

    def _hop_timeout(self, deadline: Deadline | None) -> float | None:
        if deadline is None:
            return None
        return deadline.clamp(self.cluster.network.default_timeout)

    def get(self, key: bytes,
            deadline: Deadline | None = None) -> tuple[list[Versioned], float]:
        """Forwarded quorum read; latency includes the client hop."""
        def attempt():
            node_id = self._pick_coordinator()
            coordinator = self._coordinators[node_id]
            (frontier, internal_latency), hop_latency = \
                self.cluster.network.invoke(
                    self.client_name, self.cluster.node_name(node_id),
                    coordinator.get, key, timeout=self._hop_timeout(deadline))
            return frontier, hop_latency + internal_latency
        frontier, total = self._forward("get", attempt, deadline)
        self.metrics.histogram("get").record(total)
        return frontier, total

    def put(self, key: bytes, versioned: Versioned,
            deadline: Deadline | None = None) -> float:
        def attempt():
            node_id = self._pick_coordinator()
            coordinator = self._coordinators[node_id]
            internal_latency, hop_latency = self.cluster.network.invoke(
                self.client_name, self.cluster.node_name(node_id),
                coordinator.put, key, versioned,
                timeout=self._hop_timeout(deadline))
            return hop_latency + internal_latency
        total = self._forward("put", attempt, deadline)
        self.metrics.histogram("put").record(total)
        return total

    def delete(self, key: bytes, versioned: Versioned,
               deadline: Deadline | None = None) -> float:
        def attempt():
            node_id = self._pick_coordinator()
            coordinator = self._coordinators[node_id]
            internal_latency, hop_latency = self.cluster.network.invoke(
                self.client_name, self.cluster.node_name(node_id),
                coordinator.delete, key, versioned,
                timeout=self._hop_timeout(deadline))
            return hop_latency + internal_latency
        total = self._forward("delete", attempt, deadline)
        self.metrics.histogram("delete").record(total)
        return total
