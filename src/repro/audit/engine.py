"""The continuous auditor: certified cuts, tick loop, violation reports.

Comparing a source store against a derived store is only meaningful at
a *consistent* horizon — compare mid-flight and every lagging row looks
like a loss.  The DBLog bracket machinery the migration backfill uses
(``SqlDatabase.write_watermark``) gives us exactly that for free: a
:class:`WatermarkCut` writes a watermark into the source commit order,
pumps the pipeline until every downstream position has passed the
watermark's SCN, and only then lets constraints compare the two sides
at that horizon.  The watermark is a real commit, so it flows through
the same relay/consumer path as the data it certifies — if the pipeline
is wedged, certification fails loudly instead of auditing a torn view.

The :class:`Auditor` owns declared constraints and cuts.  Each
:meth:`Auditor.tick` re-certifies the cuts, evaluates every constraint,
deduplicates findings by identity (a persistent violation is one
finding, not one per tick), stamps detection time from the injected
clock, meters each finding through the shared
:class:`~repro.common.metrics.MetricsRegistry` counter family, and —
when a :class:`~repro.audit.blame.BlameEngine` is attached — walks the
violation's lineage for a ranked blame verdict.

``report()``/``report_bytes()`` serialize the accumulated findings with
sorted keys and sorted ordering, so two same-seed runs produce
byte-identical reports — the property the seeded-injection suite
asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

from repro.common.clock import Clock
from repro.common.errors import ConfigurationError, NonConvergenceError
from repro.common.metrics import MetricsRegistry
from repro.audit.blame import BlameEngine, BlameVerdict
from repro.audit.constraints import Constraint, Violation

#: the counter family auditor findings are metered through
VIOLATIONS_FAMILY = "audit.violations"


class WatermarkCut:
    """A certified virtual cut over one watermark-capable source.

    ``pump`` advances the pipeline one step (typically capture.poll()
    plus client.poll()); ``positions`` are the downstream SCN positions
    (consumer checkpoints) that must pass the watermark before the cut
    is certified.  ``certify`` returns the horizon SCN.
    """

    def __init__(self, source, pump: Callable[[], object],
                 positions: list[Callable[[], int]],
                 max_rounds: int = 10_000):
        if not positions:
            raise ConfigurationError("a cut needs at least one position")
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        self.source = source
        self.pump = pump
        self.positions = list(positions)
        self.max_rounds = max_rounds
        self.cuts_certified = 0
        self.last_scn = 0

    def certify(self) -> int:
        """Write a watermark and pump until every position passes it."""
        scn = self.source.write_watermark("audit-cut")
        for _ in range(self.max_rounds):
            if all(position() >= scn for position in self.positions):
                self.cuts_certified += 1
                self.last_scn = scn
                return scn
            self.pump()
        lagging = [index for index, position in enumerate(self.positions)
                   if position() < scn]
        raise NonConvergenceError(
            f"audit cut did not certify SCN {scn} within "
            f"{self.max_rounds} pump rounds (positions {lagging} lagging)")


@dataclass(frozen=True)
class AuditFinding:
    """One deduplicated violation plus its blame verdict (if any)."""

    violation: Violation
    blame: BlameVerdict | None = None


class Auditor:
    """Continuous constraint evaluation over certified cuts."""

    def __init__(self, clock: Clock, metrics: MetricsRegistry | None = None,
                 blame: BlameEngine | None = None):
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.blame = blame
        self._constraints: list[Constraint] = []
        self._cuts: list[WatermarkCut] = []
        self._seen: set[tuple[str, str, str, str]] = set()
        self.findings: list[AuditFinding] = []
        self.ticks = 0
        self._next_tick = None   # pending clock event for run_every

    # -- declaration -------------------------------------------------------

    def declare(self, constraint: Constraint) -> Constraint:
        if any(c.name == constraint.name for c in self._constraints):
            raise ConfigurationError(
                f"constraint {constraint.name!r} already declared")
        self._constraints.append(constraint)
        return constraint

    def add_cut(self, cut: WatermarkCut) -> WatermarkCut:
        self._cuts.append(cut)
        return cut

    def constraint_names(self) -> list[str]:
        return sorted(c.name for c in self._constraints)

    # -- the tick loop -----------------------------------------------------

    def tick(self) -> list[AuditFinding]:
        """Certify cuts, evaluate constraints; returns *new* findings."""
        self.ticks += 1
        for cut in self._cuts:
            cut.certify()
        now = round(self.clock.now(), 9)
        fresh: list[AuditFinding] = []
        for constraint in self._constraints:
            for violation in constraint.check():
                if violation.identity in self._seen:
                    continue
                self._seen.add(violation.identity)
                stamped = replace(violation, detected_at=now)
                self.metrics.family(VIOLATIONS_FAMILY).labels(
                    constraint=stamped.constraint,
                    kind=stamped.kind).increment()
                verdict = (self.blame.attribute(stamped)
                           if self.blame is not None else None)
                finding = AuditFinding(stamped, verdict)
                self.findings.append(finding)
                fresh.append(finding)
        self.metrics.counter("audit.ticks").increment()
        return fresh

    def run_every(self, interval: float, first_at: float | None = None) -> None:
        """Self-rescheduling ticks on the clock (SimClock-driven tests
        advance time; the auditor fires with it).  ``first_at`` defaults
        to one interval from now."""
        if interval <= 0:
            raise ConfigurationError("tick interval must be positive")
        if self._next_tick is not None:
            raise ConfigurationError("auditor is already running")

        def fire() -> None:
            self.tick()
            self._next_tick = self.clock.call_later(interval, fire)

        delay = (interval if first_at is None
                 else max(0.0, first_at - self.clock.now()))
        self._next_tick = self.clock.call_later(delay, fire)

    def stop(self) -> None:
        if self._next_tick is not None:
            self.clock.cancel(self._next_tick)
            self._next_tick = None

    # -- reporting ---------------------------------------------------------

    @property
    def violations(self) -> list[Violation]:
        return [finding.violation for finding in self.findings]

    def report(self) -> dict:
        """The accumulated findings as a deterministic document."""
        entries = []
        ordered = sorted(self.findings,
                         key=lambda f: (f.violation.constraint,
                                        f.violation.kind, f.violation.key))
        for finding in ordered:
            violation = finding.violation
            entry = {
                "constraint": violation.constraint,
                "kind": violation.kind,
                "subject": violation.subject,
                "key": violation.key,
                "expected": violation.expected,
                "actual": violation.actual,
                "scn": violation.scn,
                "detected_at": violation.detected_at,
            }
            if finding.blame is not None:
                entry["blame"] = {
                    "top": finding.blame.top,
                    "ranking": [[stage, score]
                                for stage, score in finding.blame.ranking],
                    "evidence": [{"stage": e.stage, "ok": e.ok,
                                  "detail": e.detail}
                                 for e in finding.blame.evidence],
                }
            entries.append(entry)
        return {
            "constraints": self.constraint_names(),
            "ticks": self.ticks,
            "cuts_certified": sum(cut.cuts_certified for cut in self._cuts),
            "violations": entries,
        }

    def report_bytes(self) -> bytes:
        """Canonical serialization, for byte-identical same-seed runs."""
        return json.dumps(self.report(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
