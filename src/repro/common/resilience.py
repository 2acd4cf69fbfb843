"""Shared resilience primitives: retries, deadlines, circuit breakers.

The paper's systems are designed around "frequent transient and
short-term failures" (Voldemort §II.A): quorums route around down
replicas, Databus clients switch from relay to bootstrap, Kafka
consumers retry rebalances, Espresso routers follow Helix failovers.
Each system used to carry its own ad-hoc loop; this module is the one
vocabulary they all share:

* :class:`RetryPolicy` — bounded exponential backoff with jitter.
  Delays are computed from an injected :class:`random.Random`, so a
  seeded RNG makes every retry schedule reproducible in tests.
* :class:`Deadline` — an end-to-end time budget created once at the
  edge and passed down through hops; each hop clamps its own timeout
  to what remains, and retry loops stop when the budget is gone.
* :class:`CircuitBreaker` — a per-target closed → open → half-open
  state machine generalizing the Voldemort success-ratio failure
  detector: a target whose success ratio drops below a threshold is
  not called at all until a recovery timeout elapses, after which a
  single probe is let through.
* :func:`call_with_retries` — the engine tying the three together,
  counting every attempt, retry, breaker transition, and deadline
  exhaustion through a :class:`~repro.common.metrics.MetricsRegistry`.

All timing flows through an injected :class:`~repro.common.clock.Clock`
(`clock.sleep` on a :class:`SimClock` advances simulated time and fires
pending events, so failure-detector probes and breaker recovery windows
interleave deterministically with the retry schedule).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.clock import Clock
from repro.common.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    InvalidRequestError,
    NodeUnavailableError,
)
from repro.common.metrics import MetricsRegistry


class Deadline:
    """A per-request time budget that shrinks across hops.

    Created once at the request edge; every downstream hop calls
    :meth:`clamp` to bound its own timeout by the remaining budget and
    :meth:`check` before starting expensive work.
    """

    __slots__ = ("clock", "expires_at")

    def __init__(self, clock: Clock, budget: float):
        if budget <= 0:
            raise ConfigurationError(f"deadline budget must be positive: {budget}")
        self.clock = clock
        self.expires_at = clock.now() + budget

    @classmethod
    def after(cls, clock: Clock, budget: float) -> "Deadline":
        return cls(clock, budget)

    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.clock.now())

    @property
    def expired(self) -> bool:
        return self.clock.now() >= self.expires_at

    def check(self, what: str = "request") -> None:
        if self.expired:
            raise DeadlineExceededError(
                f"{what} deadline exhausted at t={self.clock.now():.4f}")

    def clamp(self, timeout: float) -> float:
        """The per-hop timeout: never more than the remaining budget."""
        return min(timeout, self.remaining())


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with proportional jitter.

    ``max_attempts`` counts the first try; a policy of 1 never retries.
    The delay before retry *k* (1-based) is
    ``min(max_delay, base_delay * multiplier**(k-1))`` scaled into
    ``[1 - jitter, 1]`` by the injected RNG — deterministic whenever
    the RNG is seeded.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ConfigurationError("require 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def backoff(self, retry_number: int, rng: random.Random) -> float:
        """Delay before 1-based retry ``retry_number``."""
        if retry_number < 1:
            raise InvalidRequestError("retry_number is 1-based")
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (retry_number - 1))
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter + self.jitter * rng.random())

    def delays(self, rng: random.Random) -> Iterator[float]:
        """The full backoff schedule (``max_attempts - 1`` delays)."""
        for retry_number in range(1, self.max_attempts):
            yield self.backoff(retry_number, rng)


NO_RETRY = RetryPolicy(max_attempts=1)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-target closed → open → half-open breaker.

    Closed: calls flow, outcomes feed a sliding window.  When the
    window's success ratio drops below ``failure_threshold`` (with at
    least ``minimum_samples`` observed) the breaker opens.  Open: calls
    are rejected without touching the target until ``reset_timeout``
    elapses on the injected clock.  Half-open: probes are admitted; the
    first success closes the breaker, a failure re-opens it.

    This generalizes the Voldemort success-ratio failure detector
    (§II.B) into a primitive every client path can share; transitions
    are counted on the optional metrics registry as
    ``<name>.breaker.opened`` / ``.closed`` / ``.half_open`` /
    ``.rejected``.
    """

    def __init__(self, clock: Clock, name: str = "breaker",
                 failure_threshold: float = 0.5, window: int = 16,
                 minimum_samples: int = 4, reset_timeout: float = 1.0,
                 metrics: MetricsRegistry | None = None):
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError("failure_threshold must be in (0, 1]")
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 1 <= minimum_samples <= window:
            raise ConfigurationError(
                "require 1 <= minimum_samples <= window")
        if reset_timeout <= 0:
            raise ConfigurationError("reset_timeout must be positive")
        self.clock = clock
        self.name = name
        self.failure_threshold = failure_threshold
        self.minimum_samples = minimum_samples
        self.reset_timeout = reset_timeout
        self.metrics = metrics
        self._outcomes: deque[int] = deque(maxlen=window)
        self._state = CLOSED
        self._opened_at = 0.0

    def _count(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"{self.name}.{event}").increment()

    @property
    def state(self) -> str:
        """Current state; an open breaker whose reset timeout elapsed
        reads as half-open."""
        if self._state == OPEN and \
                self.clock.now() - self._opened_at >= self.reset_timeout:
            self._state = HALF_OPEN
            self._count("breaker.half_open")
        return self._state

    def success_ratio(self) -> float:
        if not self._outcomes:
            return 1.0
        return sum(self._outcomes) / len(self._outcomes)

    def allow(self) -> bool:
        """May a call proceed right now?"""
        state = self.state
        if state == OPEN:
            self._count("breaker.rejected")
            return False
        return True

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._close()
            return
        self._outcomes.append(1)

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            self._open()  # the probe failed; back to open
            return
        self._outcomes.append(0)
        if (self._state == CLOSED
                and len(self._outcomes) >= self.minimum_samples
                and self.success_ratio() < self.failure_threshold):
            self._open()

    def reset(self) -> None:
        """Force-close: an external signal (failure-detector probe,
        operator action) says the target recovered."""
        if self._state != CLOSED:
            self._close()
        else:
            self._outcomes.clear()

    def _open(self) -> None:
        self._state = OPEN
        self._opened_at = self.clock.now()
        self._count("breaker.opened")

    def _close(self) -> None:
        self._state = CLOSED
        self._outcomes.clear()
        self._count("breaker.closed")


def call_with_retries(fn: Callable, *, clock: Clock,
                      policy: RetryPolicy | None = None,
                      rng: random.Random | None = None,
                      retry_on: tuple[type[BaseException], ...] = (
                          NodeUnavailableError,),
                      deadline: Deadline | None = None,
                      breaker: CircuitBreaker | None = None,
                      metrics: MetricsRegistry | None = None,
                      name: str = "call",
                      on_retry: Callable[[int, BaseException], None] | None = None):
    """Run ``fn`` under the unified retry/breaker/deadline discipline.

    * Exceptions in ``retry_on`` are retried per ``policy`` (backoff
      slept on ``clock``); anything else propagates immediately.
    * ``deadline`` caps the loop: backoff never sleeps past it, and an
      exhausted budget raises :class:`DeadlineExceededError` (counted
      as ``<name>.deadline_exceeded``).
    * ``breaker`` gates each attempt; a rejected first attempt raises
      :class:`CircuitOpenError`.
    * ``on_retry(retry_number, exc)`` runs before each backoff sleep —
      the hook systems use for repair work between attempts (Kafka
      leader re-election, Espresso Helix failover).

    Counted metrics: ``<name>.attempts``, ``<name>.retries``,
    ``<name>.exhausted``, ``<name>.deadline_exceeded``.
    """
    policy = policy or NO_RETRY
    rng = rng or random.Random(0)
    last_exc: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None and deadline.expired:
            if metrics is not None:
                metrics.counter(f"{name}.deadline_exceeded").increment()
            raise DeadlineExceededError(
                f"{name} deadline exhausted after {attempt - 1} attempts"
            ) from last_exc
        if breaker is not None and not breaker.allow():
            if last_exc is not None:
                raise last_exc
            raise CircuitOpenError(f"{name}: circuit open, call rejected")
        if metrics is not None:
            metrics.counter(f"{name}.attempts").increment()
        try:
            result = fn()
        except retry_on as exc:
            if breaker is not None:
                breaker.record_failure()
            last_exc = exc
            if attempt == policy.max_attempts:
                break
            delay = policy.backoff(attempt, rng)
            if deadline is not None:
                if deadline.remaining() <= 0:
                    continue  # loop re-enters and raises DeadlineExceeded
                delay = min(delay, deadline.remaining())
            if metrics is not None:
                metrics.counter(f"{name}.retries").increment()
            if on_retry is not None:
                on_retry(attempt, exc)
            clock.sleep(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            return result
    if metrics is not None:
        metrics.counter(f"{name}.exhausted").increment()
    raise last_exc
