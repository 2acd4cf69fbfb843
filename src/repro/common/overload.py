"""Overload-robustness primitives: admission control, load shedding,
adaptive concurrency, and hedged requests.

The paper's four systems all sit on LinkedIn's live-site serving path,
where a traffic spike or a limping host must degrade service gracefully
rather than collapse it.  PR 1's resilience layer answers *dead* nodes
(retries, breakers, deadlines); this module answers *overloaded* and
*slow* ones, and the two compose: shed first, then breaker-gate, then
retry within the deadline budget.

Vocabulary (the DESIGN.md §12 contract):

* **Priority classes** — live-site reads outrank writes, which outrank
  replication/bootstrap traffic.  Under pressure the classes shed in
  strict reverse order; bulk work never starves a member-facing read.
* :class:`TokenBucket` — seeded-clock token bucket; the base rate
  limiter everything else builds on.
* :class:`AdmissionController` — a token bucket with per-class
  reservations: bulk traffic is only admitted while plenty of headroom
  remains, writes a bit longer, live reads down to the last token.
  Rejections raise :class:`~repro.common.errors.ServerOverloadedError`
  with a ``retry_after`` hint — *before* any downstream work happens.
* :class:`CoDelShedder` — CoDel-style queue shedding: a queue whose
  delay stays above ``target`` for a full ``interval`` enters dropping
  mode and sheds by priority class until the delay recovers.  Unlike a
  hard bound it tolerates bursts; unlike tail-drop it keeps standing
  queues from forming at all.
* :class:`ConcurrencyLimiter` — gradient/AIMD adaptive concurrency: a
  latency sample well above the smoothed baseline (or an explicit
  overload signal) multiplicatively shrinks the in-flight limit; clean
  successes additively grow it back.
* :class:`HedgedCall` — tail-latency hedging: when the primary replica
  has not answered within a p99-based delay, launch one backup request
  to the next replica and keep whichever answers first (the loser is
  cancelled).  Turns one limping replica's tail into ~p99 + a fast
  replica's median.

Nothing on the serving path wires :class:`CoDelShedder` or
:class:`ConcurrencyLimiter` yet (the Kafka producer bounds its buffer
with ``max_pending``); only their tests construct them, and DESIGN.md
§18 lists them as unwired.

Everything takes an injected :class:`~repro.common.clock.Clock` and is
fully deterministic under a :class:`SimClock` — the overload chaos
tests byte-compare whole scenario traces.
"""

from __future__ import annotations

from typing import Callable

from repro.common.clock import Clock
from repro.common.errors import (
    BackpressureError,
    ConfigurationError,
    NodeUnavailableError,
    ServerOverloadedError,
)
from repro.common.metrics import LatencyHistogram, MetricsRegistry

#: Priority classes, most to least important.  Lower number = shed last.
PRIORITY_LIVE = 0    # live-site reads (member-facing)
PRIORITY_WRITE = 1   # writes
PRIORITY_BULK = 2    # replication, bootstrap, catch-up, repair

PRIORITY_NAMES = {PRIORITY_LIVE: "live", PRIORITY_WRITE: "write",
                  PRIORITY_BULK: "bulk"}


class TokenBucket:
    """A clock-driven token bucket: ``rate`` tokens/second, holding at
    most ``burst``.  Starts full."""

    def __init__(self, clock: Clock, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ConfigurationError("rate and burst must be positive")
        self.clock = clock
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last_refill = clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        if now > self._last_refill:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last_refill) * self.rate)
            self._last_refill = now

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


class AdmissionController:
    """Token-bucket admission with per-priority-class reservations.

    A class is admitted only while the bucket still holds at least
    ``reserve[priority] * burst`` tokens *after* the acquisition — so
    as tokens drain, bulk traffic sheds first, then writes, and live
    reads keep flowing until the bucket is truly dry.  This is the
    "live-site reads > writes > replication/bootstrap" ordering from
    the paper's operational posture, enforced at the front door.

    ``admit`` raises :class:`ServerOverloadedError` (with a
    ``retry_after`` hint computed from the refill rate) and must be
    called *before* breakers, detectors, or any per-replica work: a
    shed request consumes nothing downstream.
    """

    DEFAULT_RESERVE = {PRIORITY_LIVE: 0.0, PRIORITY_WRITE: 0.15,
                       PRIORITY_BULK: 0.4}

    def __init__(self, clock: Clock, rate: float, burst: float | None = None,
                 reserve: dict[int, float] | None = None,
                 metrics: MetricsRegistry | None = None,
                 name: str = "admission"):
        self.bucket = TokenBucket(clock, rate, burst if burst is not None
                                  else max(1.0, rate * 0.1))
        self.reserve = dict(self.DEFAULT_RESERVE)
        if reserve:
            self.reserve.update(reserve)
        self.metrics = metrics
        self.name = name
        self.admitted = 0
        self.shed = 0

    def _count(self, event: str, priority: int) -> None:
        if self.metrics is not None:
            label = PRIORITY_NAMES.get(priority, str(priority))
            self.metrics.counter(f"{self.name}.{event}.{label}").increment()

    def _floor(self, priority: int) -> float:
        return self.reserve.get(priority, 0.0) * self.bucket.burst

    def try_admit(self, priority: int = PRIORITY_LIVE,
                  cost: float = 1.0) -> bool:
        floor = self._floor(priority)
        if self.bucket.available >= floor + cost and \
                self.bucket.try_acquire(cost):
            self.admitted += 1
            self._count("admitted", priority)
            return True
        self.shed += 1
        self._count("shed", priority)
        return False

    def admit(self, priority: int = PRIORITY_LIVE, cost: float = 1.0,
              what: str = "request") -> None:
        if not self.try_admit(priority, cost):
            deficit = self._floor(priority) + cost - self.bucket.available
            raise ServerOverloadedError(
                f"{what} shed ({PRIORITY_NAMES.get(priority, priority)} "
                f"class): admission tokens exhausted",
                retry_after=max(deficit, 0.0) / self.bucket.rate)


class CoDelShedder:
    """CoDel-style controlled-delay shedding with priority classes.

    Feed every arrival's observed queueing delay to :meth:`offer`; the
    request should be shed when it returns True.  The state machine is
    the CoDel idea adapted to admission time: a queue delay below
    ``target`` keeps the shedder dormant (bursts are free); once the
    delay has stayed above ``target`` for a full ``interval`` a
    standing queue exists and dropping mode begins.  While dropping,
    each class compares the delay against its own inflated target —
    bulk sheds at ``target``, writes at ``2×target``, live reads at
    ``4×target`` — so the standing queue is drained from the least
    important traffic first.  Any sample back under ``target`` exits
    dropping mode.
    """

    def __init__(self, clock: Clock, target: float = 0.005,
                 interval: float = 0.1):
        if target <= 0 or interval <= 0:
            raise ConfigurationError("target and interval must be positive")
        self.clock = clock
        self.target = target
        self.interval = interval
        self._first_above: float | None = None
        self.dropping = False
        self.passed = 0
        self.shed = 0

    def _target_for(self, priority: int) -> float:
        # live 4x, write 2x, bulk 1x — lower classes shed earlier
        return self.target * (1 << (PRIORITY_BULK - min(priority, PRIORITY_BULK)))

    def offer(self, queue_delay: float, priority: int = PRIORITY_BULK) -> bool:
        """True = shed this request; False = let it queue."""
        now = self.clock.now()
        if queue_delay < self.target:
            self._first_above = None
            self.dropping = False
            self.passed += 1
            return False
        if self._first_above is None:
            self._first_above = now + self.interval
        if not self.dropping and now >= self._first_above:
            self.dropping = True
        if self.dropping and queue_delay >= self._target_for(priority):
            self.shed += 1
            return True
        self.passed += 1
        return False


class ConcurrencyLimiter:
    """Gradient/AIMD adaptive concurrency limit.

    ``try_acquire`` admits work while fewer than ``limit`` operations
    are in flight.  ``release`` feeds the outcome back:

    * an explicit overload signal (timeout, shed, transport failure)
      multiplicatively shrinks the limit (``limit *= decrease``);
    * a success whose latency exceeds ``latency_factor ×`` the smoothed
      baseline is a *gradient* overload — same shrink, no error needed
      (this is how gray slowness is caught before anything fails);
    * a clean success additively grows the limit by ``1/limit`` (one
      extra slot per round trip of the window, classic AIMD probing)
      and updates the baseline by exponential smoothing.
    """

    def __init__(self, initial: int = 16, min_limit: int = 1,
                 max_limit: int = 1024, decrease: float = 0.7,
                 latency_factor: float = 2.0, smoothing: float = 0.9):
        if not 1 <= min_limit <= initial <= max_limit:
            raise ConfigurationError(
                "require 1 <= min_limit <= initial <= max_limit")
        if not 0.0 < decrease < 1.0:
            raise ConfigurationError("decrease must be in (0, 1)")
        if latency_factor <= 1.0:
            raise ConfigurationError("latency_factor must be > 1")
        if not 0.0 <= smoothing < 1.0:
            raise ConfigurationError("smoothing must be in [0, 1)")
        self._limit = float(initial)
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.decrease = decrease
        self.latency_factor = latency_factor
        self.smoothing = smoothing
        self.in_flight = 0
        self.baseline_latency: float | None = None
        self.overload_shrinks = 0

    @property
    def limit(self) -> int:
        return int(self._limit)

    def try_acquire(self) -> bool:
        if self.in_flight >= self.limit:
            return False
        self.in_flight += 1
        return True

    def acquire(self, what: str = "request") -> None:
        if not self.try_acquire():
            raise BackpressureError(
                f"{what}: concurrency limit {self.limit} reached "
                f"({self.in_flight} in flight)")

    def release(self, latency: float | None = None,
                overloaded: bool = False) -> None:
        self.in_flight = max(0, self.in_flight - 1)
        if overloaded:
            self._shrink()
            return
        if latency is None:
            return
        if self.baseline_latency is None:
            self.baseline_latency = latency
            return
        if latency > self.baseline_latency * self.latency_factor:
            self._shrink()  # gradient overload: latency blew past baseline
        else:
            self._limit = min(float(self.max_limit),
                              self._limit + 1.0 / self._limit)
            self.baseline_latency = (self.smoothing * self.baseline_latency
                                     + (1.0 - self.smoothing) * latency)

    def _shrink(self) -> None:
        self._limit = max(float(self.min_limit), self._limit * self.decrease)
        self.overload_shrinks += 1


#: An attempt function: targets one candidate, returns (result,
#: simulated latency).  Transport failures should carry a
#: ``simulated_latency`` attribute (SimNetwork exceptions do).
AttemptFn = Callable[[object], tuple[object, float]]


class HedgedCall:
    """Launch a backup request after a p99-based delay; keep the winner.

    The hedge delay tracks the p99 of *effective* latencies seen so far
    (clamped to ``min_delay``; ``fallback_delay`` until ``warmup``
    samples exist), so hedges fire for roughly the slowest 1% of
    requests — the standard "tied request" discipline that buys a large
    tail-latency cut for ~1% extra load.  Because the simulated network
    reports each call's full latency synchronously, the race is
    resolved arithmetically: the backup starts ``delay`` after the
    primary, and whichever *finishes* first wins; the loser is
    cancelled (its server-side work is already booked — cancellation
    saves the client's wait, not the server's capacity, exactly as in
    real systems).
    """

    def __init__(self, min_delay: float = 0.001, fallback_delay: float = 0.05,
                 warmup: int = 20, median_multiplier: float = 3.0):
        if min_delay < 0 or fallback_delay < min_delay:
            raise ConfigurationError(
                "require 0 <= min_delay <= fallback_delay")
        if median_multiplier <= 1.0:
            raise ConfigurationError("median_multiplier must be > 1")
        self.min_delay = min_delay
        self.fallback_delay = fallback_delay
        self.warmup = warmup
        self.median_multiplier = median_multiplier
        self.histogram = LatencyHistogram()
        self.launched = 0
        self.backup_wins = 0

    def hedge_delay(self) -> float:
        """Current backup-launch delay: the observed p99, clamped to
        ``median_multiplier ×`` the median.  The clamp matters under a
        *persistent* gray failure: when a limping replica makes slow
        reads a few percent of traffic, the raw p99 converges to the
        inflated latency and a pure-p99 delay would quietly turn the
        hedge off — exactly when it is most needed."""
        if self.histogram.count < self.warmup:
            return self.fallback_delay
        delay = min(self.histogram.percentile(99.0),
                    self.histogram.percentile(50.0) * self.median_multiplier)
        return max(self.min_delay, delay)

    def run(self, targets: list, attempt: AttemptFn
            ) -> tuple[object, object, float, bool]:
        """Call ``attempt`` on ``targets[0]``, hedging to ``targets[1]``.

        Returns ``(winning_target, result, effective_latency, hedged)``.
        A primary *failure* (unreachable/shed) falls through to the
        backup immediately — the hedge doubles as failover.  With a
        single target the primary's outcome stands alone.
        """
        if not targets:
            raise ConfigurationError("hedged call needs at least one target")
        delay = self.hedge_delay()
        primary = targets[0]
        try:
            result, latency = attempt(primary)
        except (NodeUnavailableError, ServerOverloadedError) as exc:
            if len(targets) < 2:
                raise
            # the primary failed outright; the backup fires as soon as
            # the failure is known (bounded by the hedge delay)
            burned = min(delay, getattr(exc, "simulated_latency", delay))
            self.launched += 1
            backup_result, backup_latency = attempt(targets[1])
            effective = burned + backup_latency
            self.backup_wins += 1
            self.histogram.record(effective)
            return targets[1], backup_result, effective, True
        if latency <= delay or len(targets) < 2:
            self.histogram.record(latency)
            return primary, result, latency, False
        # primary still outstanding at the hedge deadline: fire a backup
        self.launched += 1
        try:
            backup_result, backup_latency = attempt(targets[1])
        except (NodeUnavailableError, ServerOverloadedError):
            # backup lost by failing; the slow primary still answers
            self.histogram.record(latency)
            return primary, result, latency, True
        effective = min(latency, delay + backup_latency)
        self.histogram.record(effective)
        if delay + backup_latency < latency:
            self.backup_wins += 1
            return targets[1], backup_result, effective, True
        return primary, result, effective, True
