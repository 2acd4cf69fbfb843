"""Chord-style finger-table lookup — the baseline for EXP-V4.

The paper contrasts Voldemort with "previous DHT work (like Chord)":
storing the complete topology on every node makes lookups O(1) instead
of O(log N) routing hops (§II.A).  This module implements classic Chord
successor lookup with finger tables so the benchmark can measure hop
counts side by side.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.ring import hash_key

M_BITS = 64
RING_SIZE = 1 << M_BITS


@dataclass
class ChordNode:
    node_id: int          # position on the identifier circle
    name: str
    fingers: list[int] = None  # populated by the ring

    def __post_init__(self):
        if not 0 <= self.node_id < RING_SIZE:
            raise ConfigurationError("node id outside the identifier circle")


class ChordRing:
    """A stabilized Chord ring (no churn — we only measure lookups)."""

    def __init__(self, node_names: list[str]):
        if not node_names:
            raise ConfigurationError("need at least one node")
        self.nodes: dict[int, ChordNode] = {}
        for name in node_names:
            node_id = hash_key(name.encode())
            self.nodes[node_id] = ChordNode(node_id, name)
        self._sorted_ids = sorted(self.nodes)
        for node in self.nodes.values():
            node.fingers = self._build_fingers(node.node_id)

    def _successor(self, point: int) -> int:
        """First node id clockwise from ``point`` (inclusive)."""
        idx = bisect_right(self._sorted_ids, point - 1)
        if idx == len(self._sorted_ids):
            return self._sorted_ids[0]
        return self._sorted_ids[idx]

    def _build_fingers(self, node_id: int) -> list[int]:
        return [self._successor((node_id + (1 << i)) % RING_SIZE)
                for i in range(M_BITS)]

    @staticmethod
    def _in_open_interval(x: int, a: int, b: int) -> bool:
        """x in (a, b) on the circle."""
        if a < b:
            return a < x < b
        return x > a or x < b

    def lookup(self, key: bytes, start_name: str | None = None
               ) -> tuple[str, int]:
        """Find the node owning ``key``; returns (owner name, hop count).

        Implements iterative closest-preceding-finger routing.  Hops
        count the inter-node messages a real Chord lookup would make.
        """
        key_id = hash_key(key)
        owner_id = self._successor(key_id)
        if start_name is not None:
            current = hash_key(start_name.encode())
            if current not in self.nodes:
                raise ConfigurationError(f"unknown node {start_name!r}")
        else:
            current = self._sorted_ids[0]
        hops = 0
        while current != owner_id:
            successor = self._successor((current + 1) % RING_SIZE)
            if self._in_open_interval(key_id, current, successor) \
                    or key_id == successor:
                current = successor
                hops += 1
                break
            current = self._closest_preceding(current, key_id)
            hops += 1
            if hops > 4 * M_BITS:
                raise RuntimeError("chord lookup failed to converge")
        return self.nodes[owner_id].name, hops

    def _closest_preceding(self, node_id: int, key_id: int) -> int:
        node = self.nodes[node_id]
        for finger in reversed(node.fingers):
            if self._in_open_interval(finger, node_id, key_id):
                return finger
        return self._successor((node_id + 1) % RING_SIZE)


class FullTopologyRouter:
    """Voldemort's O(1) alternative: every node knows the whole ring."""

    def __init__(self, node_names: list[str]):
        if not node_names:
            raise ConfigurationError("need at least one node")
        placed = sorted((hash_key(n.encode()), n) for n in node_names)
        self._ids = [node_id for node_id, _ in placed]
        self._names = [name for _, name in placed]

    def lookup(self, key: bytes) -> tuple[str, int]:
        """Owner via local binary search; always a single hop."""
        idx = bisect_right(self._ids, hash_key(key) - 1)
        return self._names[idx % len(self._ids)], 1
