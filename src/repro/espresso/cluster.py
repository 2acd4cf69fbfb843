"""Wiring storage nodes, relay, Helix, and Zookeeper into a cluster.

This is Figure IV.1 in executable form.  The cluster:

* runs one Databus relay with a buffer per partition;
* registers every storage node as a Helix participant whose transition
  handler maps controller tasks onto storage-node role changes — a
  SLAVE->MASTER promotion first drains the partition's relay buffer,
  exactly the failover sequence of §IV.B;
* pumps slave replication (each pump is one round of slaves consuming
  their partitions' buffers);
* supports elastic expansion: new partitions bootstrap from a snapshot
  of the current master, catch up from the relay, then take mastership.
"""

from __future__ import annotations

from repro.common.clock import Clock, one_clock
from repro.common.errors import (
    ConfigurationError,
    NotMasterError,
    SCNGoneError,
)
from repro.databus.relay import Relay
from repro.espresso.schema import DatabaseSchema, DocumentSchemaRegistry
from repro.espresso.storage import EspressoStorageNode
from repro.helix import (
    MASTER_SLAVE,
    HelixController,
    Participant,
    compute_ideal_state,
)
from repro.helix.statemodel import Transition
from repro.simnet.disk import SimDisk
from repro.zookeeper import ZooKeeperServer


class EspressoCluster:
    """A running Espresso deployment for one database."""

    def __init__(self, database: DatabaseSchema, num_nodes: int = 3,
                 clock: Clock | None = None,
                 relay_buffer_events: int = 100_000,
                 disk: SimDisk | None = None):
        if num_nodes < database.replication_factor:
            raise ConfigurationError("need at least as many nodes as replicas")
        self.database = database
        self.disk = disk if disk is not None else SimDisk(clock=clock)
        self.clock = one_clock(clock, self.disk)
        self.schemas = DocumentSchemaRegistry()
        self.zookeeper = ZooKeeperServer()
        self.relay = Relay(f"{database.name}-relay",
                           max_events_per_buffer=relay_buffer_events)
        self.controller = HelixController(database.name, self.zookeeper)
        self.nodes: dict[str, EspressoStorageNode] = {}
        self.participants: dict[str, Participant] = {}
        for i in range(num_nodes):
            self._create_node(f"storage-{i}")
        ideal = compute_ideal_state(
            database.name, list(self.nodes), database.num_partitions,
            database.replication_factor, MASTER_SLAVE)
        self.controller.add_resource(ideal)

    # -- node management ------------------------------------------------------

    def _make_node(self, instance_name: str) -> EspressoStorageNode:
        return EspressoStorageNode(instance_name, self.database, self.schemas,
                                   self.relay, clock=self.clock,
                                   disk=self.disk.scope(instance_name))

    def _create_node(self, instance_name: str) -> EspressoStorageNode:
        node = self._make_node(instance_name)
        participant = Participant(
            instance_name, self.database.name, self.zookeeper,
            handler=self._make_transition_handler(instance_name))
        participant.connect()
        self.controller.register_participant(participant)
        self.nodes[instance_name] = node
        self.participants[instance_name] = participant
        return node

    def _make_transition_handler(self, instance_name: str):
        # resolved by name so a restarted (recovered) node object picks
        # up where the dead one left off without re-registering
        def handle(transition: Transition) -> None:
            node = self.nodes[instance_name]
            partition = transition.partition
            if transition.to_state == "SLAVE":
                node.become_slave(partition)
                self._catch_up_or_bootstrap(node, partition)
            elif transition.to_state == "MASTER":
                self._catch_up_or_bootstrap(node, partition)
                node.become_master(partition)
            elif transition.to_state in ("OFFLINE", "DROPPED"):
                node.go_offline(partition)
        return handle

    def _catch_up_or_bootstrap(self, node: EspressoStorageNode,
                               partition: int) -> None:
        """Catch a slave up; fall back to snapshot + catch-up when the
        relay no longer holds the partition's history (§IV.B expansion:
        'we first bootstrap the new partition from a snapshot taken
        from the original master partition, and then apply any changes
        since the snapshot from the Databus Relay')."""
        try:
            node.catch_up(partition)
            return
        except (SCNGoneError, ConfigurationError):
            pass
        donor = self._snapshot_donor(node, partition)
        if donor is None:
            return  # nobody has this partition's history; nothing to copy
        scn, rows = donor.partition_snapshot(partition)
        node.load_partition_snapshot(partition, scn, rows)
        node.catch_up(partition)

    def _snapshot_donor(self, node: EspressoStorageNode,
                        partition: int) -> EspressoStorageNode | None:
        """The current master when one exists, otherwise the most
        caught-up live replica (mid-rebalance the old master may already
        be demoted)."""
        master = self.master_node(partition)
        if master is not None and master is not node:
            return master
        candidates = [
            other for name, other in self.nodes.items()
            if other is not node and self.participants[name].is_connected
            and other.partition_scn.get(partition, 0) > 0
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda n: n.partition_scn[partition])

    # -- cluster operations -------------------------------------------------------

    def start(self) -> None:
        """Converge Helix so every partition has a master and slaves."""
        self.controller.converge()

    def master_node(self, partition: int) -> EspressoStorageNode | None:
        view = self.controller.external_view(self.database.name)
        master = view.master_of(partition)
        return self.nodes.get(master) if master else None

    def node_for_resource(self, resource_id: str) -> EspressoStorageNode:
        partition = self.database.partition_for(resource_id)
        node = self.master_node(partition)
        if node is None:
            # retryable: the controller may be mid-failover; converging
            # (cluster.failover()) promotes a slave and the next lookup
            # succeeds
            raise NotMasterError(
                f"partition {partition} has no master (converge first?)",
                partition_id=partition)
        return node

    def pump_replication(self, rounds: int = 1) -> int:
        """Drive slave consumption; returns windows applied."""
        applied = 0
        for _ in range(rounds):
            for name, node in self.nodes.items():
                if not self.participants[name].is_connected:
                    continue
                for partition in node.slaved_partitions():
                    applied += node.catch_up(partition)
        return applied

    def crash_node(self, instance_name: str) -> None:
        """Hard failure: liveness vanishes, roles are lost, and unsynced
        commit-log bytes are gone."""
        self.participants[instance_name].disconnect()
        self.nodes[instance_name].roles.clear()
        self.disk.crash_node(instance_name)

    def recover_node(self, instance_name: str) -> None:
        """Bring a crashed node back.  The node object is rebuilt from its
        commit log — documents, indexes, and applied SCNs recover
        together — before rejoining the cluster; converge (failover) to
        hand it roles again."""
        self.disk.restart_node(instance_name)
        self.nodes[instance_name] = self._make_node(instance_name)
        self.participants[instance_name].connect()

    def failover(self) -> None:
        """One controller reaction to the current liveness picture."""
        self.controller.converge()

    # -- elastic expansion ------------------------------------------------------------

    def add_node(self, instance_name: str) -> EspressoStorageNode:
        """Add a storage node and rebalance partitions onto it.

        The Helix rebalance recomputes the ideal state; the transition
        handler bootstraps each migrated partition from a snapshot of
        its current master before the newcomer takes any mastership.
        """
        if instance_name in self.nodes:
            raise ConfigurationError(f"node {instance_name} exists")
        node = self._create_node(instance_name)
        self.controller.rebalance_resource(self.database.name,
                                           list(self.nodes))
        self.controller.converge()
        return node

    # -- schema management -------------------------------------------------------------

    def post_document_schema(self, table: str, schema) -> int:
        """Post a (new version of a) document schema to the cluster."""
        return self.schemas.post(self.database.name, table, schema)

    # -- invariant helpers (used by tests and benches) ----------------------------------

    def masters_by_partition(self) -> dict[int, str | None]:
        view = self.controller.external_view(self.database.name)
        return {p: view.master_of(p)
                for p in range(self.database.num_partitions)}

    def assert_single_master(self) -> None:
        view = self.controller.external_view(self.database.name)
        for partition in range(self.database.num_partitions):
            masters = view.instances_in_state(partition, "MASTER")
            if len(masters) > 1:
                raise AssertionError(
                    f"partition {partition} has masters {masters}")
