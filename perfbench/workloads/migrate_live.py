"""``migrate-live``: move a profile table into Espresso while it serves.

A ``SqlDatabase`` of profile rows is migrated by ``MigrationStack``: the
coordinator ticks BACKFILL → CATCHUP → SHADOW → RAMP → CUTOVER while the
driver keeps issuing Zipf-keyed live writes and reads through the
``DualWriteProxy``.  The cutover gate runs on the auditor's declared
constraints, and the same constraints are audited at every SHADOW/RAMP
phase change.  This is the only workload where the sqlstore, the
migration package and the auditor do real work.

An operation is one backfilled row or one proxied request; a driver
step is one coordinator tick with its 8 writes and 32 reads.  Requests
arrive on a seeded open-loop sim schedule inside each tick, so the
freshness of a CDC-replicated write (source commit → applied on the
target) does not depend on how fast the code runs.
"""

from __future__ import annotations

import random
from collections import deque

from repro.audit import Auditor
from repro.audit.wiring import cutover_check, cutover_constraints
from repro.common.clock import SimClock
from repro.espresso import EspressoCluster
from repro.migration import MigrationPhase, MigrationSlo, MigrationStack
from repro.migration.target import espresso_schema_for
from repro.simnet.disk import SimDisk
from repro.sqlstore.database import SqlDatabase
from repro.sqlstore.table import Column, TableSchema
from repro.workloads import ZipfGenerator

from perfbench.workloads.base import Workload, disk_live_bytes, scaled

TABLE = "profiles"
SCHEMA = TableSchema(
    TABLE,
    (Column("member_id", int), Column("name", str), Column("headline", str),
     Column("score", int)),
    ("member_id",))
SLO = MigrationSlo(min_shadow_reads=1, shadow_duration=1.0,
                   ramp_step_duration=1.0)
CHUNK = 64
TICK_S = 0.1
WRITES_PER_TICK = 8
READS_PER_TICK = 32
TAIL_TICKS = 80     # ticks after the backfill: catch-up … cutover, and on
NODES = ("storage-0", "storage-1", "storage-2")
WORDS = ("engineer manager director analyst scientist designer founder "
         "recruiter architect consultant at of and data systems").split()


def _row_bytes(row: dict) -> int:
    """User payload of one profile row: its strings plus two integers."""
    return len(row["name"]) + len(row["headline"]) + 16


class MigrateLive(Workload):
    name = "migrate-live"
    ROWS = 10_000

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.rows = scaled(self.ROWS, scale, floor=4 * CHUNK)
        self.steps = -(-self.rows // CHUNK) + 1 + TAIL_TICKS
        self.initial = [self._row(rng, member, 0)
                        for member in range(self.rows)]
        self.mean_row_bytes = sum(map(_row_bytes, self.initial)) // self.rows
        members = ZipfGenerator(self.rows, theta=0.99, seed=seed + 1)
        requests = WRITES_PER_TICK + READS_PER_TICK
        # per tick: sim gaps between requests, rows to write, keys to read
        self.traffic = []
        for tick in range(self.steps):
            gaps = [rng.expovariate((requests + 1) / TICK_S)
                    for _ in range(requests)]
            writes = [self._row(rng, members.next(), tick + 1)
                      for _ in range(WRITES_PER_TICK)]
            reads = [members.next() for _ in range(READS_PER_TICK)]
            self.traffic.append((gaps, writes, reads))
        self.stack = None
        self.user_bytes = 0

    @staticmethod
    def _row(rng: random.Random, member: int, score: int) -> dict:
        return {"member_id": member, "name": f"member {member}",
                "headline": " ".join(rng.choice(WORDS) for _ in range(8)),
                "score": score}

    # -- world ------------------------------------------------------------

    def _build_stack(self) -> MigrationStack:
        return MigrationStack.build(
            self.source, self.disk.scope("coordinator"), self.clock,
            slo=SLO, chunk_size=CHUNK, cluster=self.cluster,
            cutover_check=cutover_check)

    def setup(self) -> None:
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=self.seed)
        self.source = SqlDatabase("members", clock=self.clock)
        self.source.create_table(SCHEMA)
        for row in self.initial:
            self.source.autocommit(TABLE, row)
        self.cluster = EspressoCluster(
            espresso_schema_for(self.source, num_partitions=8,
                                replication_factor=2),
            num_nodes=len(NODES), clock=self.clock, disk=self.disk)
        self.cluster.start()
        self.stack = self._build_stack()
        self.auditor = Auditor(self.clock)
        for constraint in cutover_constraints(self.stack.proxy):
            self.auditor.declare(constraint)
        self.latest = {row["member_id"]: row for row in self.initial}
        self.in_flight: deque[tuple[int, float]] = deque()  # (scn, at)
        self.metrics = self.stack.metrics   # outlives a coordinator restart
        self.audited = None
        self.chunks_seen = 0
        self.rows_backfilled = 0
        self.wrong_reads: list[str] = []

    def teardown(self) -> None:
        self.stack = self.cluster = self.source = None

    # -- measured phase ---------------------------------------------------

    def step(self, i: int) -> None:
        gaps, writes, reads = self.traffic[i]
        proxy = self.stack.proxy
        coordinator = self.stack.coordinator
        clock = self.clock
        started = clock.now()
        gap = iter(gaps)
        if coordinator.phase is not MigrationPhase.CUTOVER:
            # after the cutover the source is retired; keeping it equal
            # to the target lets the final comparison cover every write
            for row in writes:
                clock.advance(next(gap))
                scn = proxy.upsert(TABLE, row)
                self.latest[row["member_id"]] = row
                self.user_bytes += _row_bytes(row)
                if not proxy.dual_writes_enabled:
                    self.in_flight.append((scn, clock.now()))
            self.attempted += len(writes)
            self.ops += len(writes)
        for member in reads:
            clock.advance(next(gap))
            if proxy.read(TABLE, (member,)) != self.latest[member]:
                self.failed += 1
                self.wrong_reads.append(f"read of member {member} at tick {i}")
        self.attempted += len(reads)
        self.ops += len(reads)
        clock.advance(max(0.0, started + TICK_S - clock.now()))
        coordinator.tick()
        self.cluster.pump_replication()
        for result in self.stack.replicator.completed[self.chunks_seen:]:
            self.rows_backfilled += result.rows_read
            self.user_bytes += result.rows_read * self.mean_row_bytes
            self.attempted += result.rows_read
            self.ops += result.rows_read
        self.chunks_seen = len(self.stack.replicator.completed)
        now = clock.now()
        applied = self.stack.client.checkpoint
        while self.in_flight and self.in_flight[0][0] <= applied:
            self.sim_ms.append((now - self.in_flight.popleft()[1]) * 1e3)
        stage = (coordinator.phase, coordinator.ramp_index)
        if stage != self.audited and coordinator.phase in (
                MigrationPhase.SHADOW, MigrationPhase.RAMP):
            self.audited = stage
            self.auditor.tick()

    def recover(self) -> None:
        """Bounce every storage node in turn, then restart the
        coordinator: a fresh stack on the same disk resumes from the
        journal."""
        for name in NODES:
            self.cluster.crash_node(name)
            self.cluster.failover()
            self.cluster.recover_node(name)
            self.cluster.failover()
        self.cluster.pump_replication()
        self.stack = self._build_stack()
        if self.stack.proxy.read(TABLE, (0,)) is None:
            raise RuntimeError("proxy does not serve after recovery")

    # -- correctness ------------------------------------------------------

    def check(self) -> list[str]:
        failures = list(self.wrong_reads)
        coordinator = self.stack.coordinator
        if coordinator.phase is not MigrationPhase.CUTOVER:
            failures.append(f"run ended in {coordinator.phase.value}: "
                            f"{coordinator.rollback_reason}")
        differences = self.stack.proxy.full_comparison()
        if differences:
            failures.append(f"{len(differences)} rows differ between source "
                            f"and target (first: {differences[0][:2]})")
        mismatches = self.metrics.counter(f"shadow.{TABLE}.mismatch").value
        if mismatches:
            failures.append(f"{mismatches} shadow-read mismatches")
        if self.auditor.findings:
            failures.append(f"{len(self.auditor.findings)} audit findings")
        for member, row in self.latest.items():
            if self.stack.proxy.read(TABLE, (member,)) != row:
                failures.append(f"member {member} reads back wrong")
                break
        return failures

    def counts(self) -> dict[str, float]:
        relay = self.stack.relay
        buffers = [relay.buffer(name) for name in relay.buffer_names()]
        windows = sum(b.windows_appended for b in buffers)
        return {
            "user_bytes": self.user_bytes,
            "rows_backfilled": self.rows_backfilled,
            "simnet.disk.live_bytes": disk_live_bytes(
                self.disk, list(NODES) + ["coordinator"]),
            "espresso.storage.windows_applied": sum(
                node.windows_applied for node in self.cluster.nodes.values()),
            "databus.relay.events_per_window":
                sum(b.events_appended for b in buffers) / max(1, windows),
            "databus.relay.buffer_bytes_max":
                max(b.size_bytes for b in buffers),
            "migration.dualwrite.mismatches":
                self.metrics.counter(f"shadow.{TABLE}.mismatch").value,
        }
