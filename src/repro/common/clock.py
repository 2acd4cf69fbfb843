"""Simulated and real clocks.

Distributed behaviours in the paper — failover timing, hinted-handoff
replay, retention expiry, consumer lag — are all time-dependent.  Runs
must be deterministic, so every component takes a :class:`Clock` and
defaults to a :class:`SimClock` the driver advances by hand; the tests,
the examples and ``perfbench`` all run on one.  :class:`WallClock` is
host time for a caller that asks for it by name: nothing defaults to it.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import InvalidRequestError, NonConvergenceError


class Clock:
    """Abstract time source.  All timestamps are float seconds."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class WallClock(Clock):
    """Real time, for benchmarks and examples."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


@dataclass(order=True)
class _ScheduledEvent:
    fire_at: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class SimClock(Clock):
    """Deterministic discrete-event clock.

    Components register callbacks with :meth:`call_at` / :meth:`call_later`;
    the test driver advances time with :meth:`advance` or :meth:`run_until`,
    firing callbacks in timestamp order (ties broken by scheduling order).

    ``sleep`` advances simulated time immediately — there is no blocking —
    which models a single-threaded event-loop view of the cluster.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._queue: list[_ScheduledEvent] = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise InvalidRequestError(
                f"cannot sleep a negative duration: {seconds}")
        self.advance(seconds)

    def call_at(self, when: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Schedule ``callback`` to run when the clock reaches ``when``."""
        if when < self._now:
            raise InvalidRequestError(
                f"cannot schedule in the past: {when} < {self._now}")
        event = _ScheduledEvent(when, next(self._seq), callback)
        heapq.heappush(self._queue, event)
        return event

    def call_later(self, delay: float, callback: Callable[[], None]) -> _ScheduledEvent:
        return self.call_at(self._now + delay, callback)

    @staticmethod
    def cancel(event: _ScheduledEvent) -> None:
        event.cancelled = True

    def advance(self, seconds: float) -> None:
        """Move time forward, firing every event due in the window."""
        self.run_until(self._now + seconds)

    def run_until(self, deadline: float) -> None:
        while self._queue and self._queue[0].fire_at <= deadline:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = max(self._now, event.fire_at)
            event.callback()
        self._now = max(self._now, deadline)

    def run_all(self, limit: int = 100_000) -> None:
        """Drain the event queue regardless of timestamps.

        ``limit`` guards against callbacks that reschedule forever.
        """
        fired = 0
        while self._queue:
            if self._queue[0].cancelled:
                heapq.heappop(self._queue)
                continue
            if fired >= limit:
                raise NonConvergenceError(
                    f"run_all exceeded {limit} events; "
                    "likely a self-rescheduling loop")
            event = heapq.heappop(self._queue)
            self._now = max(self._now, event.fire_at)
            event.callback()
            fired += 1

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)
