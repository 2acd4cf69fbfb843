#!/usr/bin/env python3
"""Live migration from sqlstore to Espresso (§IV, DESIGN.md §11).

The paper's long-term plan is to move LinkedIn's core data off sharded
MySQL onto Espresso — with the site up.  This walkthrough runs the
whole migration subsystem on a member-profiles table:

1. watermark-bracketed chunked backfill (no source lock) while the
   application keeps writing,
2. catch-up on the live Databus stream until replication lag is zero,
3. dual writes with shadow-read verification,
4. a ramped cutover (5% → 25% → 50% → 100% of reads), and
5. the final gate, the declared digest-scoped constraints of
   ``repro.audit``, before the target becomes the only store — plus a
   coordinator crash mid-backfill to show the journal resuming without
   re-reading completed chunks.

Run:  python examples/live_migration.py
"""

from repro.audit.wiring import cutover_check
from repro.common.clock import SimClock
from repro.migration import MigrationPhase, MigrationSlo, MigrationStack
from repro.simnet.disk import SimDisk
from repro.sqlstore import Column, SqlDatabase, TableSchema

SLO = MigrationSlo(min_shadow_reads=5, shadow_duration=2.0,
                   ramp_step_duration=2.0)


def make_source(clock):
    db = SqlDatabase("members", clock=clock)
    db.create_table(TableSchema(
        "profiles",
        (Column("member_id", int), Column("name", str),
         Column("score", int)),
        primary_key=("member_id",)))
    for i in range(96):
        db.autocommit("profiles",
                      {"member_id": i, "name": f"member-{i}", "score": i})
    return db


def main() -> None:
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=7)
    source = make_source(clock)
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    print(f"source: {len(source.table('profiles'))} profile rows, "
          f"target: {len(stack.cluster.nodes)}-node Espresso cluster")

    # -- a few backfill chunks, then the coordinator dies -----------------
    for _ in range(3):
        stack.coordinator.tick()
        clock.advance(1.0)
    copied = stack.coordinator.backfill.progress["profiles"]
    print(f"3 ticks in: chunk cursor at key {copied}, "
          f"{stack.coordinator.backfill.chunks_run} chunks landed")
    source.autocommit("profiles", {"member_id": 5000,
                                   "name": "hired-mid-crash", "score": 1})
    disk.crash_node("coordinator")
    disk.restart_node("coordinator")
    stack = MigrationStack.build(source, disk.scope("coordinator"), clock,
                                 slo=SLO, chunk_size=16,
                                 cluster=stack.cluster,
                                 cutover_check=cutover_check)
    resumed = stack.coordinator.backfill.progress["profiles"]
    print(f"crash + restart: journal resumes the cursor at {resumed} "
          f"(no completed chunk re-read)")

    # -- drive to cutover with live traffic racing the migration ---------
    seen = set()
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        phase = stack.coordinator.phase
        if phase not in seen:
            seen.add(phase)
            extra = ""
            if phase is MigrationPhase.RAMP:
                extra = f" ({stack.proxy.ramp_percent}% of reads on target)"
            print(f"t={clock.now():5.1f}  phase -> {phase.value}{extra}")
        if not stack.coordinator.complete:
            member = int(clock.now()) % 96
            stack.proxy.upsert("profiles", {"member_id": member,
                                            "name": f"update-{member}",
                                            "score": member * 2})
            stack.proxy.read("profiles", (member,))
        clock.advance(1.0)

    shadow = stack.proxy.shadow
    print(f"shadow verification: {shadow.total_reads} compared reads, "
          f"{shadow.total_mismatches} mismatches")
    print(f"cutover gate: {len(cutover_check(stack.proxy)())} violated "
          f"constraints between source and target")
    row = stack.proxy.read("profiles", (5000,))
    print(f"served from Espresso after cutover: member 5000 = "
          f"{row['name']!r}")
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert stack.proxy.serve_target_only
    print("migration complete: sqlstore retired, Espresso is the "
          "system of record")


if __name__ == "__main__":
    main()
