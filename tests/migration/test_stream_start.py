"""Where the change stream starts: at the binlog head the migration
boots at.  Chunks own every row committed before that SCN, the log owns
every change after it, so preloaded history is never replayed as live
events — under any seeded mix of pre-migration history, racing traffic
and a coordinator crash the target still equals the source at CUTOVER."""

import random

import pytest

from repro.audit.wiring import cutover_check
from repro.common.clock import SimClock
from repro.migration import MigrationPhase, MigrationSlo, MigrationStack
from repro.simnet.disk import SimDisk
from repro.sqlstore.binlog import ChangeKind
from repro.sqlstore.database import SqlDatabase

from tests.migration.conftest import (
    FAST_SLO,
    PROFILES,
    drive_to_phase,
    make_source,
)

SLO = MigrationSlo(min_shadow_reads=5, shadow_duration=2.0,
                   ramp_step_duration=1.0)


def test_first_boot_starts_client_and_capture_at_the_binlog_head(clock, disk):
    source = make_source(clock, profiles=50, inmails=20)
    head = source.binlog.last_scn
    stack = MigrationStack.build(source, disk.scope("c"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    assert stack.client.checkpoint == stack.capture.captured_through == head
    assert stack.journal.load_latest().stream_scn == head
    # live changes while the chunks run: each reaches the target once,
    # through the stream; the 70 preloaded rows only through bulk_apply
    committed = 0
    while stack.coordinator.phase is MigrationPhase.BACKFILL:
        stack.coordinator.tick()
        stack.proxy.upsert("profiles", {"member_id": committed,
                                        "name": "live", "score": committed})
        stack.proxy.delete("inmail", (committed,))
        committed += 2
        clock.advance(1.0)
    drive_to_phase(stack, clock, MigrationPhase.CUTOVER)
    after_head = sum(change.kind is not ChangeKind.WATERMARK
                     for txn in source.binlog.read_from(head)
                     for change in txn.changes)
    assert stack.replicator.events_applied == after_head == committed
    assert stack.relay.buffer().oldest_scn > head
    assert stack.proxy.full_comparison() == []


# -- property: history before the migration, races during it ------------------

def source_with_history(rng: random.Random, clock) -> tuple[SqlDatabase, list]:
    """Even member ids inserted, some updated, some deleted, some of the
    deleted re-inserted: a binlog whose replay is not its table."""
    source = SqlDatabase("members", clock=clock)
    source.create_table(PROFILES)
    live = list(range(0, 120, 2))
    for member in live:
        source.autocommit("profiles", {"member_id": member, "name": "v0",
                                       "score": member})
    for member in rng.sample(live, 20):
        source.autocommit("profiles", {"member_id": member, "name": "v1",
                                       "score": rng.randrange(1000)},
                          kind=ChangeKind.UPDATE)
    deleted = rng.sample(live, 12)
    for member in deleted:
        source.autocommit("profiles", {"member_id": member},
                          kind=ChangeKind.DELETE)
    for member in deleted[:4]:
        source.autocommit("profiles", {"member_id": member, "name": "again",
                                       "score": -member})
    return source, sorted(set(live) - set(deleted[4:]))


def run_scenario(seed: int, crash: bool, max_ticks: int = 400):
    rng = random.Random(seed)
    clock = SimClock()
    source, live_keys = source_with_history(rng, clock)
    disk = SimDisk(clock=clock, seed=seed)

    def build(cluster=None):
        return MigrationStack.build(source, disk.scope("c"), clock, slo=SLO,
                                    chunk_size=8, cluster=cluster,
                                    cutover_check=cutover_check)

    stack = build()
    crash_tick = rng.randrange(1, 20) if crash else None
    trace: list[str] = []
    mismatches = 0
    for tick_no in range(max_ticks):
        if stack.coordinator.complete:
            break
        stack.coordinator.tick()
        if tick_no == crash_tick:
            mismatches += stack.proxy.shadow.total_mismatches
            disk.crash_node("c")
            disk.restart_node("c")
            stack = build(cluster=stack.cluster)
            trace.append(f"crash at tick {tick_no}")
        coordinator = stack.coordinator
        if not coordinator.complete:
            cursor = coordinator.backfill.progress["profiles"]
            if coordinator.phase is MigrationPhase.BACKFILL and cursor:
                # the two races the chunk/log split has to get right
                ahead = [k for k in live_keys if k > cursor[0]]
                if ahead:       # delete a row no chunk has copied yet
                    victim = rng.choice(ahead)
                    live_keys.remove(victim)
                    stack.proxy.delete("profiles", (victim,))
                behind = [k for k in range(1, cursor[0], 2)
                          if k not in live_keys]
                if behind:      # insert behind the chunk cursor
                    member = rng.choice(behind)
                    live_keys.append(member)
                    stack.proxy.upsert("profiles", {
                        "member_id": member, "name": "behind", "score": 1})
            for _ in range(rng.randrange(0, 4)):
                move = rng.random()
                if move < 0.5:
                    stack.proxy.upsert("profiles", {
                        "member_id": rng.choice(live_keys),
                        "name": f"u{tick_no}", "score": rng.randrange(1000)})
                elif move < 0.65:
                    member = 1000 + tick_no * 4 + rng.randrange(4)
                    if member not in live_keys:
                        live_keys.append(member)
                    stack.proxy.upsert("profiles", {
                        "member_id": member, "name": "new", "score": 0})
                elif move < 0.75 and len(live_keys) > 5:
                    victim = live_keys.pop(rng.randrange(len(live_keys)))
                    stack.proxy.delete("profiles", (victim,))
                else:
                    stack.proxy.read("profiles", (rng.choice(live_keys),))
        trace.append(f"tick {tick_no} phase={coordinator.phase.value} "
                     f"scn={stack.client.checkpoint}")
        clock.advance(1.0)
    mismatches += stack.proxy.shadow.total_mismatches
    for result in stack.replicator.completed:
        trace.append(repr(result))
    trace.append(f"applied {stack.replicator.events_applied}")
    trace.append("dump " + repr(sorted(stack.target.dump("profiles").items())))
    return stack, mismatches, trace


@pytest.mark.parametrize("crash", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_target_equals_source_at_cutover_whatever_came_before(seed, crash):
    stack, mismatches, _ = run_scenario(seed, crash)
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    assert mismatches == 0
    assert stack.proxy.mismatch_log == []
    assert stack.proxy.full_comparison() == []


@pytest.mark.parametrize("crash", [False, True])
def test_same_seed_is_byte_identical(crash):
    _, _, first = run_scenario(3, crash)
    _, _, second = run_scenario(3, crash)
    assert "\n".join(first) == "\n".join(second)
