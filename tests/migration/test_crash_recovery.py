"""Crashes mid-migration: the coordinator resumes from its journal
without re-reading completed chunks, storage-node failover is
transparent to the migration, and a torn journal tail falls back to the
previous checkpoint.  Fault schedules run under :class:`FaultPlan` so
every scenario is a deterministic, replayable trace."""

from repro.migration import (
    MigrationCheckpoint,
    MigrationJournal,
    MigrationPhase,
    MigrationStack,
)
from repro.simnet.faultplan import ChunkLedger, FaultPlan

from tests.migration.conftest import FAST_SLO, make_source


def wire_ledger(stack, ledger):
    stack.coordinator.backfill.on_chunk_read = ledger.on_read
    stack.coordinator.backfill.on_chunk_complete = ledger.on_complete


def test_coordinator_crash_mid_backfill_resumes_from_checkpoint(
        clock, disk):
    """Kill the coordinator two chunks into an eight-chunk backfill;
    the restarted one finishes from the journal.  The ChunkLedger
    proves no completed chunk was read twice."""
    source = make_source(clock, profiles=120, inmails=10)
    ledger = ChunkLedger()
    stacks = {}

    def boot():
        stacks["live"] = MigrationStack.build(
            source, disk.scope("coordinator"), clock, slo=FAST_SLO,
            chunk_size=16, cluster=stacks["live"].cluster
            if "live" in stacks else None)
        wire_ledger(stacks["live"], ledger)

    boot()
    plan = FaultPlan(clock, disk, seed=11)
    plan.on_kill(lambda node: disk.crash_node(node))
    plan.on_restart(lambda node: (disk.restart_node(node), boot()))
    for t in (1.0, 2.0):
        plan.call(at=t, label=f"tick@{t}",
                  fn=lambda: stacks["live"].coordinator.tick())
    plan.call(at=2.5, label="live-write",
              fn=lambda: source.autocommit(
                  "profiles", {"member_id": 5000, "name": "mid-crash",
                               "score": 1}))
    plan.kill(at=3.0, node="coordinator")
    plan.restart(at=4.0, node="coordinator")
    plan.run(until=5.0)

    resumed = stacks["live"]
    assert resumed.coordinator.phase is MigrationPhase.BACKFILL
    progress = resumed.coordinator.backfill.progress
    assert progress["inmail"] != None  # noqa: E711 - first chunks covered it
    while not resumed.coordinator.complete:
        resumed.coordinator.tick()
        if not resumed.coordinator.complete:
            resumed.proxy.read("profiles", (3,))
        clock.advance(1.0)
    assert resumed.coordinator.phase is MigrationPhase.CUTOVER
    assert ledger.violations == []
    assert ledger.reads == ledger.completions
    dump = resumed.target.dump("profiles")
    assert len(dump) == 121                     # 120 seeded + mid-crash row
    assert dump[(5000,)] == {"name": "mid-crash", "score": 1}
    assert resumed.proxy.full_comparison() == []


def test_crash_after_every_chunk_still_converges(clock, disk):
    """Worst case: the coordinator dies after each backfill tick.  Each
    incarnation completes at most one chunk, yet the ledger stays clean
    and the stores end identical."""
    source = make_source(clock, profiles=50, inmails=5)
    ledger = ChunkLedger()
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16)
    wire_ledger(stack, ledger)
    for _ in range(20):
        if stack.coordinator.phase is not MigrationPhase.BACKFILL:
            break
        stack.coordinator.tick()
        clock.advance(1.0)
        disk.crash_node("coordinator")
        disk.restart_node("coordinator")
        stack = MigrationStack.build(source, disk.scope("coordinator"),
                                     clock, slo=FAST_SLO, chunk_size=16,
                                     cluster=stack.cluster)
        wire_ledger(stack, ledger)
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        if not stack.coordinator.complete:
            stack.proxy.read("profiles", (1,))
        clock.advance(1.0)
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert ledger.violations == []
    assert stack.proxy.full_comparison() == []


def test_storage_node_crash_fails_over_transparently(clock, disk, source):
    """Losing a target storage node mid-backfill is an Espresso
    failover, not a migration failure: Helix promotes a caught-up
    slave and the chunk loop keeps routing to partition masters."""
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16)
    stack.coordinator.tick()
    stack.cluster.pump_replication(3)     # slaves catch up before the kill
    stack.cluster.crash_node("storage-0")
    stack.cluster.failover()
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        if not stack.coordinator.complete:
            stack.proxy.read("profiles", (2,))
        clock.advance(1.0)
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert stack.proxy.full_comparison() == []


def test_source_crash_loses_nothing_acked(clock, disk):
    """The source is the system of record: a migration survives the
    source pausing (no commits while 'down') and resumes the stream
    exactly where the checkpoint says."""
    source = make_source(clock, profiles=40, inmails=0)
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16)
    stack.coordinator.tick()
    before = stack.client.checkpoint
    # "source outage": nothing commits, the coordinator keeps ticking
    for _ in range(3):
        stack.coordinator.tick()
        clock.advance(1.0)
    assert stack.client.checkpoint >= before
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        if not stack.coordinator.complete:
            stack.proxy.read("profiles", (2,))
        clock.advance(1.0)
    assert stack.proxy.full_comparison() == []


def test_torn_journal_tail_falls_back_one_checkpoint(clock, disk):
    """A crash mid-journal-append must not poison recovery: the CRC
    scan drops the torn frame and the previous checkpoint wins."""
    scope = disk.scope("coordinator")
    journal = MigrationJournal(scope)
    journal.record(MigrationCheckpoint(phase="backfill", stream_scn=10,
                                       backfill_progress={"profiles": (15,)}))
    journal.record(MigrationCheckpoint(phase="backfill", stream_scn=20,
                                       backfill_progress={"profiles": (31,)}))
    # crash in the append→fsync window: the frame is staged but never
    # synced, and the armed torn write cuts it mid-record on the platter
    journal._wal.append(MigrationCheckpoint(
        phase="catchup", stream_scn=30,
        backfill_progress={"profiles": "done"}).encode())
    disk.arm_torn_write("coordinator")
    disk.crash_node("coordinator")
    disk.restart_node("coordinator")
    recovered = MigrationJournal(disk.scope("coordinator"))
    latest = recovered.load_latest()
    assert latest is not None
    assert latest.stream_scn <= 20          # the torn record never counts
    assert latest.backfill_progress["profiles"] in ((15,), (31,))


def test_restart_over_a_long_binlog_resumes_without_replaying_it(clock, disk):
    """A rebuilt stack has a fresh relay.  Resume must position the
    capture with the client: a capture left at zero refills the relay
    with the first 1 000 transactions per poll, none of them above the
    resumed checkpoint, and the pump reports a stalled stream."""
    source = make_source(clock, profiles=3000, inmails=0)

    def build(cluster=None):
        return MigrationStack.build(source, disk.scope("coordinator"), clock,
                                    slo=FAST_SLO, chunk_size=256,
                                    cluster=cluster)

    stack = build()
    for _ in range(5):
        stack.coordinator.tick()
        clock.advance(1.0)
    resumed_scn = stack.journal.load_latest().stream_scn
    assert resumed_scn > 3000
    disk.crash_node("coordinator")
    disk.restart_node("coordinator")
    stack = build(cluster=stack.cluster)
    assert stack.coordinator.phase is MigrationPhase.BACKFILL
    assert stack.client.checkpoint == resumed_scn
    stack.coordinator.tick()     # was: "stream stalled at SCN 3010"
    assert stack.relay.buffer().oldest_scn > resumed_scn
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        if not stack.coordinator.complete:
            stack.proxy.read("profiles", (1,))
        clock.advance(1.0)
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert stack.proxy.full_comparison() == []
