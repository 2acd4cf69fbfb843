"""The DBLog watermark algorithm in isolation: chunk brackets, stale
rows discarded, watermarks from dead runs ignored, per-table progress."""

import pytest

from repro.common.errors import ConfigurationError
from repro.migration import MigrationPhase, MigrationStack
from repro.migration.backfill import DONE, high_label, low_label
from repro.simnet.disk import SimDisk
from repro.sqlstore.binlog import ChangeKind

from tests.migration.conftest import make_source


def build(source, clock, chunk_size=16):
    stack = MigrationStack.build(source, SimDisk().scope("c"), clock,
                                 chunk_size=chunk_size)
    # tables chunk in name order; mark the empty inmail table done so
    # unit tests drive the profiles table directly
    stack.coordinator.backfill.restore_progress({"inmail": DONE})
    return stack


def test_one_chunk_copies_rows(clock):
    source = make_source(clock, profiles=10, inmails=0)
    stack = build(source, clock)
    result = stack.coordinator.backfill.run_one_chunk()
    assert result.rows_read == 10
    assert result.rows_applied == 10
    assert result.rows_discarded == 0
    assert stack.target.dump("profiles") == {
        (i,): {"name": f"m{i}", "score": i * 7} for i in range(10)}


def test_short_chunk_marks_table_done(clock):
    source = make_source(clock, profiles=10, inmails=0)
    stack = build(source, clock)
    backfill = stack.coordinator.backfill
    backfill.run_one_chunk()          # profiles: 10 < 16 -> done
    assert backfill.progress["profiles"] == DONE
    assert backfill.complete


def test_chunks_resume_after_key_without_overlap(clock):
    source = make_source(clock, profiles=40, inmails=0)
    stack = build(source, clock, chunk_size=16)
    backfill = stack.coordinator.backfill
    first = backfill.run_one_chunk()
    assert first.rows_read == 16 and first.last_key == (15,)
    assert backfill.progress["profiles"] == (15,)
    second = backfill.run_one_chunk()
    assert second.rows_read == 16 and second.last_key == (31,)
    third = backfill.run_one_chunk()
    assert third.rows_read == 8
    assert backfill.progress["profiles"] == DONE
    assert len(stack.target.dump("profiles")) == 40


def test_live_write_between_watermarks_supersedes_chunk_row(clock):
    """The DBLog discard rule: a key changed inside the bracket keeps
    its live value, and the stale chunk row is counted as discarded."""
    source = make_source(clock, profiles=8, inmails=0)
    stack = build(source, clock)
    replicator = stack.replicator
    low_scn = source.write_watermark(low_label("profiles"))
    rows = source.scan_chunk("profiles", None, 16)
    # a write lands after the scan, inside the bracket
    source.autocommit("profiles", {"member_id": 3, "name": "live", "score": 0},
                      kind=ChangeKind.UPDATE)
    landed = []
    replicator.arm_chunk("profiles", low_scn, rows, landed.append)
    high_scn = source.write_watermark(high_label("profiles", low_scn))
    stack.capture.poll()
    while stack.client.checkpoint < high_scn:
        stack.client.poll()
    assert landed[0].rows_discarded == 1
    assert landed[0].rows_applied == 7
    assert stack.target.get_row("profiles", (3,))["name"] == "live"


def test_stale_watermarks_from_dead_run_are_ignored(clock):
    """Brackets written by a crashed coordinator must not disturb the
    new run: unmatched low/high watermarks pass through silently."""
    source = make_source(clock, profiles=8, inmails=0)
    # a dead run's bracket sits in the binlog before the new run starts
    orphan_low = source.write_watermark(low_label("profiles"))
    source.write_watermark(high_label("profiles", orphan_low))
    stack = build(source, clock)
    result = stack.coordinator.backfill.run_one_chunk()
    assert result.rows_applied == 8
    assert stack.replicator.armed_chunks == 0
    assert len(stack.target.dump("profiles")) == 8


def test_arming_same_chunk_twice_rejected(clock):
    source = make_source(clock, profiles=4, inmails=0)
    stack = build(source, clock)
    rows = source.scan_chunk("profiles", None, 16)
    stack.replicator.arm_chunk("profiles", 99, rows)
    with pytest.raises(ConfigurationError):
        stack.replicator.arm_chunk("profiles", 99, rows)


def test_restore_progress_skips_completed_chunks(clock):
    source = make_source(clock, profiles=40, inmails=0)
    stack = build(source, clock, chunk_size=16)
    backfill = stack.coordinator.backfill
    backfill.restore_progress({"profiles": (15,), "inmail": DONE})
    result = backfill.run_one_chunk()
    assert result.rows_read == 16
    assert result.last_key == (31,)   # resumed after (15,), no re-read


def test_chunk_size_must_be_positive(clock):
    source = make_source(clock, profiles=4, inmails=0)
    with pytest.raises(ConfigurationError):
        build(source, clock, chunk_size=0)


def test_chunk_preserves_progress_reset_during_pump(clock):
    """A restore_progress() landing while a chunk pumps the stream must
    win; the finishing chunk may not clobber the rewound cursor."""
    source = make_source(clock, profiles=50, inmails=0)
    stack = build(source, clock, chunk_size=16)
    backfill = stack.coordinator.backfill
    first = backfill.run_one_chunk()
    assert backfill.progress["profiles"] == first.last_key

    orig_pump = backfill._pump_to

    def racing_pump(scn):
        orig_pump(scn)
        backfill.restore_progress({"profiles": None})  # rewind mid-pump

    backfill._pump_to = racing_pump
    backfill.run_one_chunk()
    backfill._pump_to = orig_pump
    assert backfill.progress["profiles"] is None


class InterferingSource:
    """The source with ``writes`` application commits racing every
    bracket, on rows the chunk is about to return."""

    def __init__(self, db, writes, rows):
        self.db, self.writes, self.rows = db, writes, rows
        self.write_watermark = db.write_watermark

    def scan_chunk(self, table, after_key, limit):
        start = 0 if after_key is None else after_key[0] + 1
        for i in range(self.writes):
            self.db.autocommit(table, {"member_id": (start + i) % self.rows,
                                       "name": "hot", "score": -1},
                               kind=ChangeKind.UPDATE)
        return self.db.scan_chunk(table, after_key, limit)


def test_exp_m1_in_bracket_writes_discard_exactly_their_snapshot_rows(clock):
    # 480 rows in 15 brackets of 32: writes x brackets rows are superseded
    discarded = {}
    for writes in (0, 2, 8):
        source = make_source(clock, profiles=480, inmails=0)
        stack = build(source, clock, chunk_size=32)
        backfill = stack.coordinator.backfill
        backfill.source = InterferingSource(source, writes, rows=480)
        results = []
        while not backfill.complete:
            results.append(backfill.run_one_chunk())
            clock.advance(0.1)
        discarded[writes] = sum(r.rows_discarded for r in results)
        assert sum(r.rows_applied for r in results) == 480 - discarded[writes]
        assert len(stack.target.dump("profiles")) == 480
    assert discarded == {0: 0, 2: 30, 8: 120}


def test_exp_m1b_catch_up_lag_drains_linearly_under_bounded_polls(clock):
    polls = {}
    for burst in (100, 400):
        source = make_source(clock, profiles=480, inmails=0)
        stack = build(source, clock, chunk_size=32)
        while stack.coordinator.phase is MigrationPhase.BACKFILL:
            stack.coordinator.tick()
            clock.advance(0.1)
        for i in range(burst):
            source.autocommit("profiles", {"member_id": i, "name": "backlog",
                                           "score": i}, kind=ChangeKind.UPDATE)
        stack.capture.poll()
        lag = [stack.coordinator.replication_lag]
        while lag[-1] > 0:
            stack.client.poll(max_events=64)
            lag.append(stack.coordinator.replication_lag)
        assert lag[:-1] == list(range(burst, 0, -64))   # 64 commits a poll
        polls[burst] = len(lag) - 1
    assert polls == {100: 2, 400: 7}
