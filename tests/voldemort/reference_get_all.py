"""The per-key batch read, kept as the test-side reference.

This is ``RoutedStore.get_all`` and ``_read_batches`` as they were
before the read was counted per partition: the plan is per partition,
but every distinct key carries its own quorum count and its own list of
replies, and every key goes through ``frontier_of``.  It is slower and
obviously right, which is what a reference model is for;
`test_get_all_equivalence.py` holds the per-partition read to it.

The two methods are copied verbatim.  They still reach the server
through ``get_batch``, so the reference models the routing layer, not
the engine: the walk checks the engine's batch read against a loop of
``get`` separately.
"""

from __future__ import annotations

from repro.common.errors import (
    InsufficientOperationalNodesError,
    NodeUnavailableError,
    ServerOverloadedError,
)
from repro.common.overload import PRIORITY_LIVE
from repro.common.vectorclock import frontier_of
from repro.voldemort import RoutedStore, Versioned


class ReferenceRoutedStore(RoutedStore):
    """A :class:`RoutedStore` whose ``get_all`` is the per-key one."""

    def get_all(self, keys: list[bytes]
                ) -> tuple[dict[bytes, list[Versioned]], float]:
        """Batched quorum reads: one request per node, not per key.

        Planned per partition: a node is ranked once per request and a
        partition's preference list ordered once.  Each distinct key is
        asked of its first R replicas; keys a failed or shedding node
        leaves short are asked of the rest of their list in one more
        batched round (:meth:`get`'s fall-through).  Returns (key ->
        version frontier, simulated latency); keys absent everywhere are
        omitted.  Keys that cannot reach R replicas raise, as in ``get``.
        """
        if self.admission is not None:
            self.admission.admit(PRIORITY_LIVE, what="get_all")
        required = self.definition.required_reads
        ring = self.cluster.ring
        ranks: dict[int, tuple] = {}
        ordered: dict[int, list[int]] = {}      # partition -> replicas
        replicas_of: dict[bytes, list[int]] = {}    # per distinct key
        for key in keys:
            if key not in replicas_of:
                partition = ring.partition_for_key(key)
                if partition not in ordered:
                    ordered[partition] = self._ordered_by_availability(
                        self._preference(ring, partition), ranks)
                replicas_of[key] = ordered[partition]
        answered = dict.fromkeys(replicas_of, 0)
        replies: dict[bytes, list[list[Versioned]]] = {}
        operation_latency = 0.0
        short = list(replicas_of)
        # first choice, then the rest of the list for whatever is short
        for first, last in ((0, required), (required, None)):
            per_node: dict[int, list[bytes]] = {}
            for key in short:
                for node_id in replicas_of[key][first:last]:
                    per_node.setdefault(node_id, []).append(key)
            if first > 0:
                self.metrics.counter("get_all.fallback_rounds").increment()
            # the rounds are sequential, so their latencies add
            operation_latency += self._read_batches(per_node, answered,
                                                    replies)
            short = [key for key in short if answered[key] < required]
            if not short:
                break
        if short:
            raise InsufficientOperationalNodesError(
                f"{len(short)} keys reached fewer than {required} replicas",
                required=required, achieved=min(answered[k] for k in short))
        self.metrics.histogram("get_all").record(operation_latency)
        return ({key: frontier_of(by_node)
                 for key, by_node in replies.items()},
                operation_latency)

    def _read_batches(self, per_node: dict[int, list[bytes]],
                      answered: dict[bytes, int],
                      replies: dict[bytes, list[list[Versioned]]]) -> float:
        """One ``get_batch`` per node.  Counts each answering node toward
        its keys' quorums, files found versions under ``replies[key]``
        and returns the round's latency: its slowest answer."""
        slowest = 0.0
        for node_id, node_keys in per_node.items():
            server = self.cluster.server_for(node_id)
            try:
                found, latency = self.cluster.network.invoke(
                    self.client_name, self.cluster.node_name(node_id),
                    server.get_batch, self.store, node_keys)
            except ServerOverloadedError:
                self.detector.record_success(node_id)
                self.metrics.counter("get_all.replica_shed").increment()
            except NodeUnavailableError:
                self.detector.record_failure(node_id)
            else:
                self.detector.record_success(node_id)
                slowest = max(slowest, latency)
                for key in node_keys:
                    answered[key] += 1
                for key, versions in found.items():
                    replies.setdefault(key, []).append(versions)
        return slowest
