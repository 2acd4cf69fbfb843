"""The admin service: store management and online rebalancing (§II.B).

"Every node also runs an administrative service, which allows the
execution of privileged commands without downtime.  This includes the
ability to add / delete store and rebalance the cluster without
downtime.  Rebalancing (dynamic cluster membership) is done by changing
ownership of partitions to different nodes.  We maintain consistency
during rebalancing by redirecting requests of moving partitions to
their new destination."

Rebalancing here follows that recipe: plan the partition moves, and for
each move (1) mark the partition as redirecting, (2) copy its data to
the destination, (3) flip ring ownership.  Routers consult the redirect
table, so requests for a moving partition land on the destination from
the moment the move starts — no downtime, no stale reads after the
copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, ObsoleteVersionError
from repro.voldemort.cluster import StoreDefinition, VoldemortCluster


@dataclass(frozen=True)
class PartitionMove:
    partition: int
    from_node: int
    to_node: int


@dataclass
class RebalancePlan:
    moves: list[PartitionMove] = field(default_factory=list)

    def partitions_moved(self) -> int:
        return len(self.moves)


class AdminService:
    """Privileged cluster operations."""

    def __init__(self, cluster: VoldemortCluster):
        self.cluster = cluster
        # partition -> destination node while a move is in flight
        self.redirects: dict[int, int] = {}

    # -- store management -----------------------------------------------------

    def add_store(self, definition: StoreDefinition) -> None:
        self.cluster.define_store(definition)

    def delete_store(self, name: str) -> None:
        self.cluster.drop_store(name)

    # -- rebalancing ------------------------------------------------------------

    def plan_expansion(self, new_node_id: int, zone_id: int = 0
                       ) -> RebalancePlan:
        """Add an empty node and plan moves that even out partition counts.

        Takes partitions round-robin from the most-loaded donors until
        the newcomer holds roughly ``total / nodes`` partitions.  The
        server is built, its stores opened and it is registered before
        the ring names it: building it can fsync (a torn slop WAL), and
        a hinted handoff running then picks its fallbacks from the ring.
        """
        from repro.voldemort.server import VoldemortServer
        if new_node_id in self.cluster.ring.nodes:
            raise ConfigurationError(f"node {new_node_id} already in ring")
        server = VoldemortServer(new_node_id, self.cluster)
        for definition in self.cluster.stores.values():
            server.open_store(definition)
        self.cluster.servers[new_node_id] = server
        ring = self.cluster.ring.with_node_added(new_node_id, zone_id)
        self.cluster.ring = ring

        target = ring.num_partitions // len(ring.nodes)
        plan = RebalancePlan()
        counts = ring.partition_counts()
        while counts[new_node_id] + len(plan.moves) < target:
            donor = max((n for n in counts if n != new_node_id),
                        key=lambda n: counts[n])
            if counts[donor] <= target:
                break
            donor_partitions = sorted(self.cluster.ring.nodes[donor].partitions)
            already = {m.partition for m in plan.moves}
            candidates = [p for p in donor_partitions if p not in already]
            if not candidates:
                break
            plan.moves.append(PartitionMove(candidates[0], donor, new_node_id))
            counts[donor] -= 1
        return plan

    def execute_rebalance(self, plan: RebalancePlan) -> int:
        """Run every move; returns the number of keys migrated."""
        migrated = 0
        for move in plan.moves:
            migrated += self._move_partition(move)
        return migrated

    def _move_partition(self, move: PartitionMove) -> int:
        current_owner = self.cluster.ring.node_for_partition(move.partition)
        if current_owner.node_id != move.from_node:
            raise ConfigurationError(
                f"partition {move.partition} is owned by {current_owner.node_id}, "
                f"not {move.from_node}")
        # 1. start redirecting new requests for this partition
        self.redirects[move.partition] = move.to_node
        donor = self.cluster.server_for(move.from_node)
        receiver = self.cluster.server_for(move.to_node)
        moved = 0
        # 2. copy partition data store by store
        for store_name in self.cluster.stores:
            donor_engine = donor.engine(store_name)
            receiver_engine = receiver.engine(store_name)
            if not donor_engine.writable:
                continue  # read-only stores re-fetch from HDFS instead
            for key in list(donor_engine.keys()):
                if self.cluster.ring.partition_for_key(key) != move.partition:
                    continue
                for versioned in donor_engine.get(key):
                    try:
                        receiver_engine.put(key, versioned)
                    except ObsoleteVersionError:
                        pass
                moved += 1
        # 3. flip ownership and stop redirecting
        self.cluster.ring = self.cluster.ring.with_partition_moved(
            move.partition, move.to_node)
        del self.redirects[move.partition]
        return moved

    def effective_owner(self, partition: int) -> int:
        """Owner respecting in-flight redirects (what routers consult)."""
        if partition in self.redirects:
            return self.redirects[partition]
        return self.cluster.ring.node_for_partition(partition).node_id
