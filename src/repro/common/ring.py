"""Consistent-hash ring with fixed logical partitions (Voldemort §II.A-B).

The paper's scheme differs from classic consistent hashing in two ways
that we preserve exactly:

* The key space is split into a *fixed* number of equal-sized logical
  partitions; nodes own sets of partitions.  Rebalancing moves partition
  ownership, never re-splits the space.
* Replica selection "jumps the ring" from the key's primary partition
  until it finds N-1 further partitions *on different nodes* — a
  non-order-preserving placement that prevents hot spots.

A zone-aware variant (multi-datacenter, §II.B "Routing") adds the
constraint that the replica set must cover a required number of zones.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable

# CPython's built-in MD5, the one hashlib falls back to without OpenSSL:
# the same digest, with no per-call context setup, so cheaper on keys
# (short) though not on values of a few KiB (DESIGN §5 "Placement")
from _md5 import md5

from repro.common.errors import ConfigurationError, UnsupportedTypeError

_HIGH64 = struct.Struct(">Q").unpack_from    # first 8 digest bytes
_HIGH32 = struct.Struct(">I").unpack_from    # first 4 digest bytes


def key_digest(key: bytes) -> bytes:
    """The MD5 digest of a key: the one hash every placement decision in
    the repo derives from (DESIGN §5 "Placement")."""
    # the built-in also takes a bytearray or memoryview: only this check
    # keeps a key bytes
    if not isinstance(key, bytes):
        raise UnsupportedTypeError(
            f"keys are bytes, got {type(key).__name__}")
    return md5(key).digest()


# the two widths inline the digest: they run once per routed key, and a
# second call per key is the cost partitions_for_keys exists to avoid
def hash_key(key: bytes) -> int:
    """Stable 64-bit hash of a key: the first 8 bytes of its
    :func:`key_digest`, big-endian (Voldemort's partition hash)."""
    if not isinstance(key, bytes):
        key_digest(key)  # raises its UnsupportedTypeError
    return _HIGH64(md5(key).digest())[0]


def partition32(key: bytes, count: int) -> int:
    """The 32-bit sibling of :func:`hash_key`, modulo ``count``: the
    first 4 bytes of the key's :func:`key_digest`, big-endian (the
    Kafka producer's and Hadoop's partitioner)."""
    if not isinstance(key, bytes):
        key_digest(key)  # raises its UnsupportedTypeError
    return _HIGH32(md5(key).digest())[0] % count


@dataclass(frozen=True)
class Node:
    """A physical cluster member owning a set of logical partitions."""

    node_id: int
    partitions: tuple[int, ...]
    zone_id: int = 0
    host: str = "localhost"

    def __post_init__(self):
        if self.node_id < 0:
            raise ConfigurationError("node_id must be non-negative")
        if len(set(self.partitions)) != len(self.partitions):
            raise ConfigurationError(f"node {self.node_id} lists duplicate partitions")


@dataclass(frozen=True)
class Zone:
    """A datacenter; ``proximity`` orders other zones nearest-first."""

    zone_id: int
    proximity: tuple[int, ...] = ()


class HashRing:
    """Maps keys -> logical partitions -> replica node lists."""

    def __init__(self, nodes: list[Node], num_partitions: int,
                 zones: list[Zone] | None = None):
        if num_partitions <= 0:
            raise ConfigurationError("num_partitions must be positive")
        if not nodes:
            raise ConfigurationError("a ring needs at least one node")
        self.num_partitions = num_partitions
        self.nodes: dict[int, Node] = {}
        self.zones: dict[int, Zone] = {z.zone_id: z for z in (zones or [Zone(0)])}
        owner: dict[int, int] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise ConfigurationError(f"duplicate node id {node.node_id}")
            if node.zone_id not in self.zones:
                raise ConfigurationError(f"node {node.node_id} references unknown zone {node.zone_id}")
            self.nodes[node.node_id] = node
            for partition in node.partitions:
                if not 0 <= partition < num_partitions:
                    raise ConfigurationError(
                        f"partition {partition} out of range [0, {num_partitions})")
                if partition in owner:
                    raise ConfigurationError(
                        f"partition {partition} owned by both node {owner[partition]} "
                        f"and node {node.node_id}")
                owner[partition] = node.node_id
        missing = set(range(num_partitions)) - set(owner)
        if missing:
            raise ConfigurationError(f"partitions with no owner: {sorted(missing)[:8]}...")
        self._owner = owner
        # ownership never changes after construction (rebalancing builds
        # a new ring), so preference lists are computed once per ring
        self._preference: dict[tuple[int, int, int],
                               tuple[tuple[int, ...], tuple[int, ...]]] = {}

    # -- basic lookups ---------------------------------------------------

    def partition_for_key(self, key: bytes) -> int:
        return hash_key(key) % self.num_partitions

    def partitions_for_keys(self, keys: Iterable[bytes]) -> list[int]:
        """:meth:`partition_for_key` of each key, in one loop: the same
        hash and the same :class:`UnsupportedTypeError` for a non-bytes
        key, without two calls per key."""
        high64, count = _HIGH64, self.num_partitions
        partitions = []
        for key in keys:
            if not isinstance(key, bytes):
                key_digest(key)  # raises its UnsupportedTypeError
            partitions.append(high64(md5(key).digest())[0] % count)
        return partitions

    def node_for_partition(self, partition: int) -> Node:
        return self.nodes[self._owner[partition]]

    def master_for_key(self, key: bytes) -> Node:
        return self.node_for_partition(self.partition_for_key(key))

    # -- replica placement -------------------------------------------------

    def replica_partitions(self, partition: int, replication_factor: int) -> list[int]:
        """Primary partition plus the next N-1 partitions on distinct nodes.

        Walks the ring clockwise from ``partition`` (the paper's "jump the
        ring") collecting partitions whose owning node has not yet been
        used.  Raises when the cluster has fewer nodes than replicas.
        """
        if replication_factor <= 0:
            raise ConfigurationError("replication_factor must be positive")
        if replication_factor > len(self.nodes):
            raise ConfigurationError(
                f"replication factor {replication_factor} exceeds node count {len(self.nodes)}")
        chosen = [partition]
        used_nodes = {self._owner[partition]}
        cursor = partition
        for _ in range(self.num_partitions - 1):
            if len(chosen) == replication_factor:
                break
            cursor = (cursor + 1) % self.num_partitions
            owner = self._owner[cursor]
            if owner not in used_nodes:
                chosen.append(cursor)
                used_nodes.add(owner)
        if len(chosen) < replication_factor:
            raise ConfigurationError(
                f"could not place {replication_factor} replicas on distinct nodes")
        return chosen

    def replica_nodes_for_key(self, key: bytes, replication_factor: int) -> list[Node]:
        _, owners = self.preference_list(self.partition_for_key(key),
                                         replication_factor)
        return [self.nodes[node_id] for node_id in owners]

    def preference_list(self, partition: int, replication_factor: int,
                        required_zones: int = 0
                        ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(replica partitions, their owning node ids)`` for a primary
        partition, in preference order — the O(1) routing table of
        §II.B.  Zone-aware when ``required_zones`` > 0.  Memoised for
        the life of the ring."""
        memo_key = (partition, replication_factor, required_zones)
        cached = self._preference.get(memo_key)
        if cached is None:
            if required_zones > 0:
                partitions = self.zone_aware_replica_partitions(
                    partition, replication_factor, required_zones)
            else:
                partitions = self.replica_partitions(
                    partition, replication_factor)
            cached = self._preference[memo_key] = (
                tuple(partitions), tuple(self._owner[p] for p in partitions))
        return cached

    def zone_aware_replica_partitions(self, partition: int, replication_factor: int,
                                      required_zones: int) -> list[int]:
        """Replica placement that must also span ``required_zones`` zones."""
        available_zones = {node.zone_id for node in self.nodes.values()}
        if required_zones > len(available_zones):
            raise ConfigurationError(
                f"required_zones={required_zones} but cluster spans {len(available_zones)}")
        if replication_factor < required_zones:
            raise ConfigurationError("replication_factor must be >= required_zones")
        chosen = [partition]
        used_nodes = {self._owner[partition]}
        used_zones = {self.node_for_partition(partition).zone_id}
        cursor = partition
        for _ in range(self.num_partitions - 1):
            if len(chosen) == replication_factor:
                break
            cursor = (cursor + 1) % self.num_partitions
            node = self.node_for_partition(cursor)
            if node.node_id in used_nodes:
                continue
            remaining_slots = replication_factor - len(chosen)
            zones_still_needed = required_zones - len(used_zones)
            if zones_still_needed >= remaining_slots and node.zone_id in used_zones:
                continue  # every remaining slot must buy a new zone
            chosen.append(cursor)
            used_nodes.add(node.node_id)
            used_zones.add(node.zone_id)
        if len(chosen) < replication_factor or len(used_zones) < required_zones:
            raise ConfigurationError(
                f"cannot satisfy {replication_factor} replicas across {required_zones} zones")
        return chosen

    # -- rebalancing support ----------------------------------------------

    def with_partition_moved(self, partition: int, to_node_id: int) -> "HashRing":
        """Return a new ring with one partition's ownership transferred.

        Rebalancing in Voldemort (§II.B Admin Service) is a sequence of
        such single-partition ownership changes.
        """
        if to_node_id not in self.nodes:
            raise ConfigurationError(f"unknown destination node {to_node_id}")
        new_nodes = []
        for node in self.nodes.values():
            partitions = [p for p in node.partitions if p != partition]
            if node.node_id == to_node_id:
                partitions.append(partition)
            new_nodes.append(Node(node.node_id, tuple(sorted(partitions)),
                                  node.zone_id, node.host))
        return HashRing(new_nodes, self.num_partitions, list(self.zones.values()))

    def with_node_added(self, node_id: int, zone_id: int = 0,
                        host: str = "localhost") -> "HashRing":
        """Add an empty node (no partitions); rebalance moves follow."""
        if node_id in self.nodes:
            raise ConfigurationError(f"node {node_id} already in ring")
        new_nodes = list(self.nodes.values()) + [Node(node_id, (), zone_id, host)]
        return HashRing(new_nodes, self.num_partitions, list(self.zones.values()))

    def partition_counts(self) -> dict[int, int]:
        return {node_id: len(node.partitions) for node_id, node in self.nodes.items()}


def build_balanced_ring(num_nodes: int, num_partitions: int,
                        num_zones: int = 1) -> HashRing:
    """Construct a ring with partitions striped round-robin over nodes.

    Striping (rather than contiguous runs) keeps ring walks short when
    selecting replicas and spreads each node's partitions evenly, which
    is how Voldemort clusters are laid out in practice.
    """
    if num_nodes <= 0 or num_partitions < num_nodes:
        raise ConfigurationError("need at least one partition per node")
    assignment: dict[int, list[int]] = {n: [] for n in range(num_nodes)}
    for partition in range(num_partitions):
        assignment[partition % num_nodes].append(partition)
    zones = [Zone(z, tuple(o for o in range(num_zones) if o != z))
             for z in range(num_zones)]
    nodes = [Node(n, tuple(parts), zone_id=n % num_zones)
             for n, parts in assignment.items()]
    return HashRing(nodes, num_partitions, zones)
