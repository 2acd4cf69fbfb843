"""Crashes mid-migration: the coordinator resumes from its journal
without re-reading completed chunks, storage-node failover is
transparent to the migration, and a torn journal tail falls back to the
previous checkpoint.  Fault schedules run under :class:`FaultPlan` so
every scenario is a deterministic, replayable trace."""

from repro.audit.wiring import cutover_check
from repro.migration import (
    MigrationCheckpoint,
    MigrationJournal,
    MigrationPhase,
    MigrationStack,
)
from repro.simnet.faultplan import FaultPlan

from tests.migration.conftest import FAST_SLO, make_source


def record_chunk_reads(source) -> list:
    """Record every ``(table, after_key)`` position the backfill reads.

    ``scan_chunk`` is the only read a chunk makes: chunks own the rows
    committed before the stream's start, the log owns every change
    after it.  A position read twice by crash-free chunk loops means a
    resume repeated durable work."""
    reads = []
    scan_chunk = source.scan_chunk

    def recording(table, after_key, limit):
        reads.append((table, after_key))
        return scan_chunk(table, after_key, limit)

    source.scan_chunk = recording
    return reads


def read_twice(reads: list) -> list:
    return sorted({position for position in reads
                   if reads.count(position) > 1}, key=repr)


def run_to_cutover(stack, clock, key):
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        if not stack.coordinator.complete:
            stack.proxy.read("profiles", key)
        clock.advance(1.0)


def test_coordinator_crash_mid_backfill_resumes_from_checkpoint(
        clock, disk):
    """Kill the coordinator two chunks into an eight-chunk backfill;
    the restarted one finishes from the journal without reading any
    chunk position twice."""
    source = make_source(clock, profiles=120, inmails=10)
    reads = record_chunk_reads(source)
    stacks = {}

    def boot():
        stacks["live"] = MigrationStack.build(
            source, disk.scope("coordinator"), clock, slo=FAST_SLO,
            chunk_size=16, cluster=stacks["live"].cluster
            if "live" in stacks else None, cutover_check=cutover_check)

    boot()
    plan = FaultPlan(disk)
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
    run_to_cutover(resumed, clock, (3,))
    assert resumed.coordinator.phase is MigrationPhase.CUTOVER
    assert read_twice(reads) == []
    assert len(reads) == 9          # one inmail chunk, eight profiles chunks
    dump = resumed.target.dump("profiles")
    assert len(dump) == 121                     # 120 seeded + mid-crash row
    assert dump[(5000,)] == {"name": "mid-crash", "score": 1}
    assert resumed.proxy.full_comparison() == []


def test_crash_after_every_chunk_still_converges(clock, disk):
    """Worst case: the coordinator dies after each backfill tick.  Each
    incarnation completes at most one chunk, yet no chunk position is
    read twice and the stores end identical."""
    source = make_source(clock, profiles=50, inmails=5)
    reads = record_chunk_reads(source)
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    for _ in range(20):
        if stack.coordinator.phase is not MigrationPhase.BACKFILL:
            break
        stack.coordinator.tick()
        clock.advance(1.0)
        disk.crash_node("coordinator")
        disk.restart_node("coordinator")
        stack = MigrationStack.build(source, disk.scope("coordinator"),
                                     clock, slo=FAST_SLO, chunk_size=16,
                                     cluster=stack.cluster,
                                     cutover_check=cutover_check)
    run_to_cutover(stack, clock, (1,))
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert read_twice(reads) == []
    assert len(reads) == 5          # one inmail chunk, four profiles chunks
    assert stack.proxy.full_comparison() == []


def test_a_resume_that_ignores_the_journal_reads_chunks_twice(clock, disk):
    """The mutation the position check exists for: a restarted
    coordinator whose backfill starts over instead of resuming from the
    journaled cursors still converges — chunks are idempotent — but
    re-reads every chunk the crashed incarnation completed."""
    source = make_source(clock, profiles=50, inmails=5)
    reads = record_chunk_reads(source)
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    for _ in range(3):
        stack.coordinator.tick()
        clock.advance(1.0)
    completed = list(reads)
    disk.crash_node("coordinator")
    disk.restart_node("coordinator")
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cluster=stack.cluster,
                                 cutover_check=cutover_check)
    backfill = stack.coordinator.backfill
    assert backfill.progress != {table: None for table in backfill.tables}
    backfill.restore_progress({table: None for table in backfill.tables})
    run_to_cutover(stack, clock, (1,))
    assert stack.proxy.full_comparison() == []
    assert completed and read_twice(reads) == sorted(completed, key=repr)


def test_storage_node_crash_fails_over_transparently(clock, disk, source):
    """Losing a target storage node mid-backfill is an Espresso
    failover, not a migration failure: Helix promotes a caught-up
    slave and the chunk loop keeps routing to partition masters."""
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    stack.coordinator.tick()
    stack.cluster.pump_replication(3)     # slaves catch up before the kill
    stack.cluster.crash_node("storage-0")
    stack.cluster.failover()
    run_to_cutover(stack, clock, (2,))
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert stack.proxy.full_comparison() == []


def test_source_crash_loses_nothing_acked(clock, disk):
    """The source is the system of record: a migration survives the
    source pausing (no commits while 'down') and resumes the stream
    exactly where the checkpoint says."""
    source = make_source(clock, profiles=40, inmails=0)
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    stack.coordinator.tick()
    before = stack.client.checkpoint
    # "source outage": nothing commits, the coordinator keeps ticking
    for _ in range(3):
        stack.coordinator.tick()
        clock.advance(1.0)
    assert stack.client.checkpoint >= before
    run_to_cutover(stack, clock, (2,))
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
                                    cluster=cluster,
                                    cutover_check=cutover_check)

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
    run_to_cutover(stack, clock, (1,))
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert stack.proxy.full_comparison() == []
