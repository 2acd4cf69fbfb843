"""The migration coordinator: a clock-driven ramped-cutover state machine.

    BACKFILL → CATCHUP → SHADOW → RAMP(5%) → … → RAMP(100%) → CUTOVER
         \\________________________________________________/
                              ↓ on SLO breach
                           ROLLBACK

Phases:

* **BACKFILL** — run DBLog watermark chunks (``chunks_per_tick`` per
  tick) until every table is fully copied; live changes replicate
  through the Databus stream the whole time.  The stream starts at the
  source binlog's head as of the first boot: chunks own every row
  committed before that SCN, the log owns every change after it.
* **CATCHUP** — backfill done; drain the stream until replication lag
  (source binlog head SCN minus client checkpoint) is zero.  If the
  lag hasn't converged by ``catchup_deadline``, the writes are landing
  faster than the stream can drain — SLO breach, roll back.
* **SHADOW** — pause CDC, enable synchronous dual-writes, and compare
  every read against the target.  CDC must pause here: a paused-at-zero
  stream plus idempotent dual-writes keeps exactly one writer per row,
  while a live stream racing the proxy could reorder a row backwards.
* **RAMP(n%)** — serve reads from the target for the n% of keys whose
  hash bucket is below the ramp, stepping up the schedule after each
  ``ramp_step_duration`` with no mismatch-rate breach.
* **CUTOVER** — final gate: a full row-by-row comparison of both
  stores.  Identical → the target becomes the store of record
  (``serve_target_only``).  Any difference → roll back instead.
* **ROLLBACK** — dual-writes off, ramp to 0%, reads/writes back on the
  source, and CDC resumes from its checkpoint to re-heal the target
  (replayed writes are idempotent upserts, so healing is safe).

Every transition — and every completed backfill chunk — is journaled
(append + fsync) *before* the coordinator acts on it, so a coordinator
crash at any point resumes from the last checkpoint without re-reading
completed chunks and without skipping a stream window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.common.atomic import atomic_section
from repro.common.clock import Clock
from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsRegistry
from repro.migration.backfill import ChunkedBackfill, ChunkResult
from repro.migration.checkpoint import MigrationCheckpoint, MigrationJournal
from repro.migration.dualwrite import DualWriteProxy


class MigrationPhase(Enum):
    BACKFILL = "backfill"
    CATCHUP = "catchup"
    SHADOW = "shadow"
    RAMP = "ramp"
    CUTOVER = "cutover"
    ROLLBACK = "rollback"


#: phases in which the migration is finished (tick() is a no-op)
TERMINAL_PHASES = (MigrationPhase.CUTOVER, MigrationPhase.ROLLBACK)


@dataclass(frozen=True)
class MigrationSlo:
    """The service-level objectives that gate each transition."""

    max_mismatch_rate: float = 0.0    # any disagreement is a breach
    min_shadow_reads: int = 20        # observations before SHADOW can pass
    shadow_duration: float = 10.0     # seconds spent in SHADOW at minimum
    ramp_steps: tuple[int, ...] = (5, 25, 50, 100)
    ramp_step_duration: float = 10.0  # seconds per ramp step at minimum
    catchup_deadline: float = 60.0    # seconds for the lag to reach zero
    chunks_per_tick: int = 1

    def __post_init__(self):
        if not self.ramp_steps or self.ramp_steps[-1] != 100:
            raise ConfigurationError("ramp schedule must end at 100%")
        if any(not 0 < p <= 100 for p in self.ramp_steps):
            raise ConfigurationError("ramp percentages must be in (0, 100]")
        if list(self.ramp_steps) != sorted(self.ramp_steps):
            raise ConfigurationError("ramp schedule must be non-decreasing")
        if self.chunks_per_tick <= 0:
            raise ConfigurationError("chunks_per_tick must be positive")


@dataclass
class TransitionRecord:
    """One observed phase change, for tests and operators."""

    at: float
    phase: MigrationPhase
    reason: str = ""
    extra: dict = field(default_factory=dict)


class MigrationCoordinator:
    """Owns the phase state machine and its durable checkpoint journal."""

    def __init__(self, proxy: DualWriteProxy, backfill: ChunkedBackfill,
                 journal: MigrationJournal, clock: Clock,
                 slo: MigrationSlo | None = None,
                 metrics: MetricsRegistry | None = None,
                 cutover_check: Callable[[], list] | None = None):
        self.proxy = proxy
        self.backfill = backfill
        # the final verification gate: a callable returning a list of
        # discrepancies (empty == safe).  Defaults to the proxy's ad-hoc
        # row comparison; pass repro.audit.wiring.cutover_check(proxy)
        # to gate on declared constraints instead (same data, but the
        # differences come back as structured Violation records).  The
        # coordinator never imports audit — the layering contract points
        # the other way — so the constraint arrives as a plain callable.
        self.cutover_check = cutover_check
        self.client = backfill.client
        self.capture = backfill.capture
        self.journal = journal
        self.clock = clock
        self.slo = slo if slo is not None else MigrationSlo()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.phase = MigrationPhase.BACKFILL
        self.ramp_index = 0
        self.entered_at = clock.now()
        self.rollback_reason: str | None = None
        self.transitions: list[TransitionRecord] = []
        self.ticks = 0
        restored = journal.load_latest()
        if restored is not None:
            self._resume(restored)
        else:
            # first boot: the stream starts where the migration starts.
            # Chunks own every row committed before this SCN, the log
            # owns everything after it (the DBLog split) — a real binlog
            # retains too little history to replay it anyway
            self._position_stream(proxy.source.binlog.last_scn)
            self._journal()

    # -- resume ------------------------------------------------------------

    def _position_stream(self, scn: int) -> None:
        """The one place the change stream is positioned, for both
        boots.  Client checkpoint and capture position move together:
        the migration relay has this one consumer, so a window at or
        below its checkpoint could never be served — and a capture left
        behind the checkpoint refills the relay with exactly those."""
        self.client.checkpoint = scn
        self.client.has_state = scn > 0
        if self.capture is not None:
            self.capture.skip_to(scn)

    @atomic_section
    def _resume(self, checkpoint: MigrationCheckpoint) -> None:
        """Rebuild in-memory state from the last durable checkpoint.

        Declared atomic: if the rebuild could yield partway through,
        an interleaved tick would observe a phase whose proxy flags
        have not been restored yet.
        """
        self.phase = MigrationPhase(checkpoint.phase)
        self.ramp_index = checkpoint.ramp_index
        self.entered_at = checkpoint.entered_at
        self._position_stream(checkpoint.stream_scn)
        self.backfill.restore_progress(checkpoint.backfill_progress)
        if self.phase in (MigrationPhase.SHADOW, MigrationPhase.RAMP):
            self.proxy.dual_writes_enabled = True
        if self.phase is MigrationPhase.RAMP:
            self.proxy.ramp_percent = self.slo.ramp_steps[self.ramp_index]
        if self.phase is MigrationPhase.CUTOVER:
            self.proxy.serve_target_only = True
        self.metrics.counter("migration.resumes").increment()

    # -- observability -----------------------------------------------------

    @property
    def replication_lag(self) -> int:
        """Source binlog head SCN minus the stream checkpoint."""
        return max(0, self.proxy.source.binlog.last_scn
                   - self.client.checkpoint)

    @property
    def complete(self) -> bool:
        return self.phase in TERMINAL_PHASES

    def _journal(self) -> None:
        self.journal.record(MigrationCheckpoint(
            phase=self.phase.value, stream_scn=self.client.checkpoint,
            ramp_index=self.ramp_index,
            backfill_progress=dict(self.backfill.progress),
            entered_at=self.entered_at))

    def _transition(self, phase: MigrationPhase, reason: str = "") -> None:
        # the phase triple must update as one unit — a yield between
        # these stores could journal a half-entered phase
        # repro-atomic: begin
        self.phase = phase
        self.entered_at = self.clock.now()
        self.transitions.append(
            TransitionRecord(self.entered_at, phase, reason))
        # repro-atomic: end
        self.metrics.counter(f"migration.enter.{phase.value}").increment()
        self._journal()

    # -- the tick loop -----------------------------------------------------

    def tick(self) -> MigrationPhase:
        """Advance the state machine one step; returns the phase after."""
        self.ticks += 1
        if self.phase is MigrationPhase.BACKFILL:
            self._tick_backfill()
        elif self.phase is MigrationPhase.CATCHUP:
            self._tick_catchup()
        elif self.phase is MigrationPhase.SHADOW:
            self._tick_shadow()
        elif self.phase is MigrationPhase.RAMP:
            self._tick_ramp()
        # CUTOVER / ROLLBACK: terminal, nothing to drive
        return self.phase

    def run_to_completion(self, max_ticks: int = 10_000,
                          tick_interval: float = 1.0) -> MigrationPhase:
        """Drive ticks (advancing a SimClock in between) until terminal."""
        for _ in range(max_ticks):
            if self.complete:
                return self.phase
            self.tick()
            advance = getattr(self.clock, "advance", None)
            if advance is not None:
                advance(tick_interval)
        raise ConfigurationError(
            f"migration did not finish within {max_ticks} ticks "
            f"(stuck in {self.phase.value})")

    # -- per-phase behaviour ----------------------------------------------

    def _tick_backfill(self) -> None:
        for _ in range(self.slo.chunks_per_tick):
            result = self.backfill.run_one_chunk()
            if result is None:
                break
            self._on_chunk(result)
        if self.backfill.complete:
            self._transition(MigrationPhase.CATCHUP, "all tables copied")

    def _on_chunk(self, result: ChunkResult) -> None:
        """A chunk landed on the target; checkpoint it so a crash never
        re-reads it."""
        self.metrics.counter("migration.chunks").increment()
        del result  # progress/stream position are read off live state
        self._journal()

    def _tick_catchup(self) -> None:
        if self.capture is not None:
            self.capture.poll()
        self.client.poll()
        if self.replication_lag == 0:
            # one writer per row from here on: stream drained and paused,
            # every new write now lands through the dual-write proxy
            self.proxy.dual_writes_enabled = True
            self.proxy.shadow.reset()
            self._transition(MigrationPhase.SHADOW, "lag reached zero")
        elif self.clock.now() - self.entered_at > self.slo.catchup_deadline:
            self.rollback(
                f"replication lag {self.replication_lag} did not converge "
                f"within {self.slo.catchup_deadline}s")

    def _breached(self) -> bool:
        shadow = self.proxy.shadow
        return (shadow.total_reads > 0
                and shadow.mismatch_rate() > self.slo.max_mismatch_rate)

    def _tick_shadow(self) -> None:
        if self._breached():
            self.rollback(
                f"shadow mismatch rate {self.proxy.shadow.mismatch_rate():.4f} "
                f"exceeds SLO {self.slo.max_mismatch_rate:.4f}")
            return
        enough_reads = self.proxy.shadow.total_reads >= self.slo.min_shadow_reads
        enough_time = (self.clock.now() - self.entered_at
                       >= self.slo.shadow_duration)
        if enough_reads and enough_time:
            self.ramp_index = 0
            self.proxy.ramp_percent = self.slo.ramp_steps[0]
            self._transition(
                MigrationPhase.RAMP,
                f"shadow SLO met; ramping to {self.proxy.ramp_percent}%")

    def _tick_ramp(self) -> None:
        if self._breached():
            self.rollback(
                f"mismatch rate {self.proxy.shadow.mismatch_rate():.4f} at "
                f"ramp {self.slo.ramp_steps[self.ramp_index]}% exceeds SLO")
            return
        if self.clock.now() - self.entered_at < self.slo.ramp_step_duration:
            return
        if self.ramp_index + 1 < len(self.slo.ramp_steps):
            self.ramp_index += 1
            self.proxy.ramp_percent = self.slo.ramp_steps[self.ramp_index]
            self.entered_at = self.clock.now()
            self.metrics.counter("migration.ramp_steps").increment()
            self._journal()
        else:
            self._enter_cutover()

    def _enter_cutover(self) -> None:
        """The final gate: both stores must be row-for-row identical."""
        if self.cutover_check is not None:
            differences = list(self.cutover_check())
        else:
            differences = self.proxy.full_comparison()
        if differences:
            first = differences[0]
            # a full_comparison difference is (table, key, src, dst);
            # trim the row images.  Constraint Violations render whole.
            preview = (first[:2] if isinstance(first, tuple)
                       else getattr(first, "render", lambda: repr(first))())
            self.rollback(
                f"cutover verification found {len(differences)} differing "
                f"rows (first: {preview})")
            return
        self.proxy.serve_target_only = True
        self.proxy.dual_writes_enabled = False
        self._transition(MigrationPhase.CUTOVER,
                         "full comparison clean; target is store of record")

    # -- rollback ----------------------------------------------------------

    def rollback(self, reason: str) -> None:
        """Abort: source stays the store of record, CDC resumes from its
        checkpoint and re-heals the target in the background."""
        self.rollback_reason = reason
        self.proxy.dual_writes_enabled = False
        self.proxy.ramp_percent = 0
        self.proxy.serve_target_only = False
        self.metrics.counter("migration.rollbacks").increment()
        # journal the ROLLBACK *before* resuming CDC: the poll and the
        # catch-up below are yield points, and a crash there with the
        # journal still reading RAMP would make _resume re-enable dual
        # writes against a target the stream has already moved past
        self._transition(MigrationPhase.ROLLBACK, reason)
        if self.capture is not None:
            self.capture.poll()
        self.client.run_to_head()
