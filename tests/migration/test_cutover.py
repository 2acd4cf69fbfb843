"""The coordinator state machine: transitions, SLO gates, rollback,
and the checkpoint journal's record of all of it."""

import pytest

from repro.audit.wiring import cutover_check
from repro.common.errors import ConfigurationError
from repro.common.serialization import Field, RecordSchema
from repro.migration import MigrationPhase, MigrationSlo, MigrationStack
from repro.sqlstore.database import SqlDatabase
from repro.sqlstore.table import Column, TableSchema

from tests.migration.conftest import FAST_SLO, drive_to_phase, make_source


def test_happy_path_reaches_cutover(clock, stack):
    drive_to_phase(stack, clock, MigrationPhase.CUTOVER)
    phases = [t.phase for t in stack.coordinator.transitions]
    assert phases == [MigrationPhase.CATCHUP, MigrationPhase.SHADOW,
                      MigrationPhase.RAMP, MigrationPhase.CUTOVER]
    assert stack.proxy.serve_target_only
    assert stack.proxy.full_comparison() == []


def test_cutover_requires_shadow_traffic(clock, stack):
    """No reads -> the shadow SLO can never be satisfied -> SHADOW."""
    for _ in range(40):
        stack.coordinator.tick()
        clock.advance(1.0)
    assert stack.coordinator.phase is MigrationPhase.SHADOW


def test_ramp_walks_the_whole_schedule(clock, stack):
    drive_to_phase(stack, clock, MigrationPhase.CUTOVER)
    counters = stack.coordinator.metrics.counter("migration.ramp_steps")
    assert counters.value == len(FAST_SLO.ramp_steps) - 1


def test_mismatch_in_shadow_rolls_back(clock, stack):
    drive_to_phase(stack, clock, MigrationPhase.SHADOW)
    stack.target.put_row("profiles", {"member_id": 7, "name": "BAD",
                                      "score": 0})
    stack.proxy.read("profiles", (7,))
    stack.coordinator.tick()
    assert stack.coordinator.phase is MigrationPhase.ROLLBACK
    assert "mismatch rate" in stack.coordinator.rollback_reason
    assert not stack.proxy.dual_writes_enabled
    assert stack.proxy.ramp_percent == 0
    # reads serve the intact source copy again
    assert stack.proxy.read("profiles", (7,))["name"] == "m7"


def test_mismatch_during_ramp_rolls_back(clock, stack):
    drive_to_phase(stack, clock, MigrationPhase.RAMP)
    stack.target.put_row("profiles", {"member_id": 9, "name": "BAD",
                                      "score": 0})
    stack.proxy.read("profiles", (9,))
    stack.coordinator.tick()
    assert stack.coordinator.phase is MigrationPhase.ROLLBACK


def test_cutover_gate_catches_unread_divergence(clock, stack):
    """A target row nobody shadow-read diverges; the declared
    constraints at the cutover gate still refuse to finalize."""
    drive_to_phase(stack, clock, MigrationPhase.RAMP)
    stack.target.put_row("profiles", {"member_id": 33, "name": "BAD",
                                      "score": 0})
    drive_to_phase(stack, clock, MigrationPhase.ROLLBACK)
    assert "cutover verification" in stack.coordinator.rollback_reason
    assert not stack.proxy.serve_target_only


def test_catchup_deadline_breach_rolls_back(clock, source, disk):
    slo = MigrationSlo(min_shadow_reads=3, shadow_duration=1.0,
                       ramp_step_duration=1.0, catchup_deadline=5.0)
    stack = MigrationStack.build(source, disk.scope("c"), clock,
                                 slo=slo, chunk_size=16,
                                 cutover_check=cutover_check)
    while stack.coordinator.phase is MigrationPhase.BACKFILL:
        stack.coordinator.tick()
        clock.advance(1.0)
    # the binlog→relay feed stalls while writes keep landing: the lag
    # can only grow, so the deadline must fire and roll the whole
    # migration back instead of waiting forever
    stack.coordinator.capture = None
    for i in range(4):
        source.autocommit("profiles",
                          {"member_id": 1000 + i, "name": "w", "score": 0})
    ticks = 0
    while stack.coordinator.phase is MigrationPhase.CATCHUP and ticks < 50:
        stack.coordinator.tick()
        clock.advance(1.0)
        ticks += 1
    assert stack.coordinator.phase is MigrationPhase.ROLLBACK
    assert "did not converge" in stack.coordinator.rollback_reason


def test_declared_cutover_check_passes_a_clean_migration(clock, source, disk):
    """The declared audit constraints gate a converged migration
    through to cutover."""
    stack = MigrationStack.build(source, disk.scope("c"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    drive_to_phase(stack, clock, MigrationPhase.CUTOVER)
    assert stack.proxy.serve_target_only


def test_declared_cutover_check_rolls_back_with_rendered_evidence(
        clock, source, disk):
    stack = MigrationStack.build(source, disk.scope("c"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    drive_to_phase(stack, clock, MigrationPhase.RAMP)
    stack.target.delete_row("profiles", (21,))
    drive_to_phase(stack, clock, MigrationPhase.ROLLBACK)
    reason = stack.coordinator.rollback_reason
    assert "cutover verification" in reason
    # the constraint violation renders whole into the reason, so the
    # operator sees which declared invariant refused the cutover
    assert "cutover-containment-profiles" in reason
    assert "missing-key" in reason


@pytest.mark.parametrize("regate", [False, True],
                         ids=["full-comparison", "declared"])
def test_a_row_omitting_a_nullable_column_migrates_clean(clock, disk, regate):
    """A row may omit a nullable column; its document holds None there,
    which is what the target decodes.  So its shadow reads match, the
    gate finds no difference, and a proxied read has one shape whichever
    store serves it.  Both cases cut over through the declared gate and
    hold the row walk, its oracle, clean on the same run; ``declared``
    also finds a freshly built gate clean after the cutover."""
    source = SqlDatabase("members", clock=clock)
    source.create_table(TableSchema(
        "profiles",
        (Column("member_id", int), Column("name", str),
         Column("headline", str, nullable=True)),
        ("member_id",)))
    source.autocommit("profiles", {"member_id": 1, "name": "a",
                                   "headline": "x"})
    source.autocommit("profiles", {"member_id": 2, "name": "b"})
    source.autocommit("profiles", {"member_id": 3, "name": "c",
                                   "headline": None})
    stack = MigrationStack.build(source, disk.scope("c"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    keys = [(1,), (2,), (3,)]
    from_source = [stack.proxy.read("profiles", key) for key in keys]
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        for key in keys:
            stack.proxy.read("profiles", key)
        clock.advance(1.0)
    assert stack.coordinator.phase is MigrationPhase.CUTOVER, \
        stack.coordinator.rollback_reason
    assert stack.proxy.full_comparison() == []
    if regate:
        assert cutover_check(stack.proxy)() == []
    assert from_source[1] == {"member_id": 2, "name": "b", "headline": None}
    assert [stack.proxy.read("profiles", key) for key in keys] == from_source


def test_a_declared_gate_passes_rows_stored_under_an_older_schema(
        clock, source, disk):
    """Mid-ramp the document schema moves to v2 (an index on ``name``):
    the backfilled rows stay stored under v1, the gate's digests differ
    for their partitions, and their rows decode equal."""
    stack = MigrationStack.build(source, disk.scope("c"), clock,
                                 slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    drive_to_phase(stack, clock, MigrationPhase.RAMP)
    stack.cluster.post_document_schema("profiles", RecordSchema(
        "profiles",
        [Field("name", "string", indexed=True), Field("score", "long")],
        version=2))
    stack.proxy.upsert("profiles", {"member_id": 3, "name": "v2", "score": 3})
    drive_to_phase(stack, clock, MigrationPhase.CUTOVER)
    assert stack.proxy.full_comparison() == []


def test_journal_records_every_transition(clock, stack):
    drive_to_phase(stack, clock, MigrationPhase.CUTOVER)
    phases = [c.phase for c in stack.journal.history()]
    assert phases[0] == "backfill"
    assert phases[-1] == "cutover"
    for phase in ("catchup", "shadow", "ramp"):
        assert phase in phases
    latest = stack.journal.load_latest()
    assert latest.stream_scn == stack.client.checkpoint


def test_slo_validation():
    with pytest.raises(ConfigurationError):
        MigrationSlo(ramp_steps=(5, 25))        # must end at 100
    with pytest.raises(ConfigurationError):
        MigrationSlo(ramp_steps=(50, 25, 100))  # must be non-decreasing
    with pytest.raises(ConfigurationError):
        MigrationSlo(chunks_per_tick=0)


def test_run_to_completion_helper(clock, source, disk):
    stack = MigrationStack.build(source, disk.scope("c"), clock,
                                 slo=MigrationSlo(min_shadow_reads=0,
                                                  shadow_duration=1.0,
                                                  ramp_step_duration=1.0),
                                 chunk_size=16, cutover_check=cutover_check)
    final = stack.coordinator.run_to_completion(tick_interval=1.0)
    assert final is MigrationPhase.CUTOVER


def test_rollback_journals_phase_before_cdc_catchup(clock, stack):
    """The ROLLBACK record must be durable before the catch-up polls: a
    crash mid-catch-up would otherwise leave a RAMP journal, and the
    restarted coordinator would resume with dual writes re-enabled."""
    drive_to_phase(stack, clock, MigrationPhase.RAMP)
    coordinator = stack.coordinator

    def crash_during_catchup():
        raise RuntimeError("node lost mid catch-up")

    coordinator.client.run_to_head = crash_during_catchup
    with pytest.raises(RuntimeError):
        coordinator.rollback("operator abort")
    restored = coordinator.journal.load_latest()
    assert restored is not None
    assert MigrationPhase(restored.phase) is MigrationPhase.ROLLBACK
