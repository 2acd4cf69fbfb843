"""One-call wiring for a complete migration stack.

The subsystem spans four layers — sqlstore source, Databus pipeline,
Espresso target, and the coordinator on top — and every test, example,
and benchmark needs the same ten objects wired the same way.
:meth:`MigrationStack.build` does that wiring; ``build`` again with the
same source/cluster/disk (after a simulated coordinator crash) makes a
fresh coordinator that resumes from the journal on the shared disk.

The relay, capture adapter and client are new on every build and start
empty; the coordinator positions client and capture together — at the
source binlog's head on first boot, at the journaled stream SCN on
resume — so the new relay is never refilled with history its one
consumer is already past.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.clock import Clock
from repro.common.metrics import MetricsRegistry
from repro.common.storage import Disk
from repro.databus.client import DatabusClient
from repro.databus.relay import Relay, capture_from_binlog
from repro.espresso.cluster import EspressoCluster
from repro.migration.backfill import ChunkedBackfill, LiveReplicator
from repro.migration.checkpoint import MigrationJournal
from repro.migration.cutover import MigrationCoordinator, MigrationSlo
from repro.migration.dualwrite import DualWriteProxy
from repro.migration.target import (
    EspressoTarget,
    RowTransform,
    espresso_schema_for,
)
from repro.sqlstore.database import SqlDatabase


@dataclass
class MigrationStack:
    """All the moving parts of one live migration, pre-wired."""

    source: SqlDatabase
    cluster: EspressoCluster
    relay: Relay
    capture: capture_from_binlog
    client: DatabusClient
    replicator: LiveReplicator
    target: EspressoTarget
    proxy: DualWriteProxy
    journal: MigrationJournal
    coordinator: MigrationCoordinator
    metrics: MetricsRegistry

    @classmethod
    def build(cls, source: SqlDatabase, disk: Disk, clock: Clock,
              slo: MigrationSlo | None = None, chunk_size: int = 64,
              cluster: EspressoCluster | None = None,
              num_nodes: int = 3, num_partitions: int = 8,
              replication_factor: int = 2,
              cutover_check: Callable[["DualWriteProxy"],
                                      Callable[[], list]] | None = None
              ) -> "MigrationStack":
        """Wire a full stack.

        ``disk`` holds the coordinator's checkpoint journal — reuse the
        same disk (and ``cluster``) across builds to model a coordinator
        process restart that resumes mid-migration.

        ``cutover_check`` is a *factory* taking the built proxy and
        returning the coordinator's verification gate (the proxy does
        not exist until build time) — pass
        ``repro.audit.wiring.cutover_check`` to verify the cutover with
        declared constraints.
        """
        if cluster is None:
            cluster = EspressoCluster(
                espresso_schema_for(source, num_partitions=num_partitions,
                                    replication_factor=replication_factor),
                num_nodes=num_nodes, clock=clock)
            cluster.start()
        metrics = MetricsRegistry()
        transform = RowTransform(source)
        target = EspressoTarget(cluster, transform)
        relay = Relay(f"{source.name}-migration-relay")
        capture = capture_from_binlog(source, relay)
        replicator = LiveReplicator(source, target, relay.schemas, metrics)
        client = DatabusClient(replicator, relay, clock=clock,
                               client_name=f"{source.name}-migration")
        backfill = ChunkedBackfill(source, replicator, client,
                                   capture=capture, chunk_size=chunk_size)
        proxy = DualWriteProxy(source, target, metrics)
        journal = MigrationJournal(disk)
        coordinator = MigrationCoordinator(
            proxy, backfill, journal, clock, slo=slo, metrics=metrics,
            cutover_check=(cutover_check(proxy)
                           if cutover_check is not None else None))
        return cls(source=source, cluster=cluster, relay=relay,
                   capture=capture, client=client, replicator=replicator,
                   target=target, proxy=proxy, journal=journal,
                   coordinator=coordinator, metrics=metrics)
