"""Success-ratio failure detector (§II.B "Failure Detector").

"The most commonly used one marks a node as down when its 'success
ratio', i.e. ratio of successful operations to total, falls below a
pre-configured threshold.  Once marked down the node is considered
online only when an asynchronous thread is able to contact it again."

The detector keeps a sliding window of outcomes per node.  When a
node's ratio drops below the threshold it is marked down and a periodic
asynchronous ping (scheduled on the cluster clock) probes it until it
answers, at which point it is marked up again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.common.clock import Clock, SimClock
from repro.common.errors import ConfigurationError


@dataclass
class _NodeHealth:
    outcomes: deque
    available: bool = True
    marked_down_at: float = 0.0

    def ratio(self) -> float:
        if not self.outcomes:
            return 1.0
        return sum(self.outcomes) / len(self.outcomes)


class FailureDetector:
    """Tracks per-node availability from observed request outcomes."""

    def __init__(self, clock: Clock, threshold: float = 0.8,
                 minimum_samples: int = 5, window: int = 64,
                 ping_interval: float = 1.0,
                 ping: Callable[[int], bool] | None = None):
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError("threshold must be in (0, 1]")
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 1 <= minimum_samples <= window:
            raise ConfigurationError(
                "require 1 <= minimum_samples <= window: a node could "
                "otherwise never accumulate enough outcomes to be marked "
                "down")
        self.clock = clock
        self.threshold = threshold
        self.minimum_samples = minimum_samples
        self.window = window
        self.ping_interval = ping_interval
        self._ping = ping
        self._health: dict[int, _NodeHealth] = {}
        self.nodes_marked_down = 0
        self.nodes_recovered = 0
        # recovery hook: fired when a down node comes back (explicit
        # mark_up or a successful async probe).  The routing layer uses
        # it to reset the node's circuit breaker so both availability
        # views agree.
        self.on_mark_up: Callable[[int], None] | None = None

    def _node(self, node_id: int) -> _NodeHealth:
        if node_id not in self._health:
            self._health[node_id] = _NodeHealth(deque(maxlen=self.window))
        return self._health[node_id]

    def is_available(self, node_id: int) -> bool:
        return self._node(node_id).available

    def record_success(self, node_id: int) -> None:
        try:
            health = self._health[node_id]
        except KeyError:
            health = self._node(node_id)
        health.outcomes.append(1)

    def record_failure(self, node_id: int) -> None:
        health = self._node(node_id)
        health.outcomes.append(0)
        if (health.available
                and len(health.outcomes) >= self.minimum_samples
                and health.ratio() < self.threshold):
            self._mark_down(node_id)

    def _mark_down(self, node_id: int) -> None:
        health = self._node(node_id)
        health.available = False
        health.marked_down_at = self.clock.now()
        self.nodes_marked_down += 1
        self._schedule_probe(node_id)

    def _schedule_probe(self, node_id: int) -> None:
        """The 'asynchronous thread' that re-contacts a down node."""
        if self._ping is None or not isinstance(self.clock, SimClock):
            return

        def probe():
            health = self._node(node_id)
            if health.available:
                return
            try:
                alive = self._ping(node_id)
            except Exception:
                alive = False
            if alive:
                self.mark_up(node_id)
            else:
                self.clock.call_later(self.ping_interval, probe)

        self.clock.call_later(self.ping_interval, probe)

    def mark_up(self, node_id: int) -> None:
        health = self._node(node_id)
        if not health.available:
            health.available = True
            health.outcomes.clear()
            self.nodes_recovered += 1
        # the hook fires even when the detector never marked the node
        # down: an explicit mark_up is an external recovery signal, and
        # listeners (circuit breakers) may hold failure history the
        # detector does not
        if self.on_mark_up is not None:
            self.on_mark_up(node_id)

    def available_nodes(self, candidates: list[int]) -> list[int]:
        return [n for n in candidates if self.is_available(n)]

    def success_ratio(self, node_id: int) -> float:
        return self._node(node_id).ratio()
