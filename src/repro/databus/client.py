"""The Databus client library (§III.C).

"The Databus client library is the glue between the Relays and
Bootstrap servers and the business logic of the Databus consumers."

Responsibilities implemented here:

* progress tracking — a checkpoint SCN persisted by the client, only
  advanced at transaction-window boundaries (timeline consistency,
  at-least-once delivery);
* automatic switchover — when the relay has evicted the client's
  position it falls back to the bootstrap server (consolidated delta
  when the client has state, consistent snapshot when it does not) and
  then returns to the relay;
* failure switchover — relay polls run under the shared resilience
  layer (:mod:`repro.common.resilience`): transient relay failures are
  retried with backoff, repeated failure opens a circuit breaker, and
  while the relay is unreachable the client serves windows from the
  bootstrap server instead, resuming from its checkpoint with no
  missed SCNs once the relay recovers;
* retry logic — a consumer callback that raises is retried up to a
  bound, after which the window is aborted and re-delivered on the
  next poll;
* server-side filters are pushed down to both relay and bootstrap.

To exercise the failure paths deterministically the client can route
its relay/bootstrap calls through a :class:`~repro.simnet.SimNetwork`,
whose :class:`FailureInjector` provides crashes, partitions, and
transient error rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.clock import Clock, SimClock, one_clock
from repro.common.errors import (
    ConfigurationError,
    NodeUnavailableError,
    SCNGoneError,
    ServerOverloadedError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.overload import PRIORITY_BULK, PRIORITY_LIVE
from repro.common.resilience import CircuitBreaker, RetryPolicy, call_with_retries
from repro.databus.bootstrap import BootstrapServer
from repro.databus.events import DatabusEvent, EventFilter
from repro.databus.relay import DEFAULT_BUFFER, Relay


class DatabusConsumer:
    """Callback interface for business logic.

    Subclass and override; any callback may raise to signal a transient
    processing failure (the library retries the window).
    """

    def on_start_window(self, scn: int) -> None:
        """A transaction window is about to be delivered."""

    def on_data_event(self, event: DatabusEvent) -> None:
        """One change event (within the current window)."""

    def on_end_window(self, scn: int) -> None:
        """The window completed; the library checkpoints after this."""

    def on_snapshot_row(self, event: DatabusEvent) -> None:
        """A row from a bootstrap consistent snapshot (defaults to
        treating it as a data event)."""
        self.on_data_event(event)


@dataclass
class ClientStats:
    windows_delivered: int = 0
    events_delivered: int = 0
    bootstraps: int = 0
    snapshot_bootstraps: int = 0
    delta_bootstraps: int = 0
    consumer_retries: int = 0
    windows_aborted: int = 0
    relay_failovers: int = 0    # polls served by bootstrap because the
    relay_reconnects: int = 0   # relay was down, and returns to it
    polls_shed: int = 0         # polls the relay refused under overload


class DatabusClient:
    """One subscription: a consumer, its checkpoint, and its sources."""

    def __init__(self, consumer: DatabusConsumer, relay: Relay,
                 bootstrap: BootstrapServer | None = None,
                 buffer_name: str = DEFAULT_BUFFER,
                 event_filter: EventFilter | None = None,
                 checkpoint: int = 0, max_retries: int = 3,
                 retry_policy: RetryPolicy | None = None,
                 clock: Clock | None = None,
                 network=None, client_name: str = "databus-client",
                 bulk_lag_scns: int = 1000):
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if bulk_lag_scns < 1:
            raise ConfigurationError("bulk_lag_scns must be >= 1")
        self.consumer = consumer
        self.relay = relay
        self.bootstrap = bootstrap
        self.buffer_name = buffer_name
        self.event_filter = event_filter
        self.checkpoint = checkpoint
        self.has_state = checkpoint > 0
        self.max_retries = max_retries
        self.stats = ClientStats()
        # resilience wiring: poll retries, relay breaker, metrics.  With
        # a network attached, relay/bootstrap calls go through it and are
        # subject to its failure injection.
        self.network = network
        self.client_name = client_name
        self.clock = one_clock(clock, network) or SimClock()
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(0)
        self.metrics = MetricsRegistry()
        self.relay_breaker = CircuitBreaker(
            self.clock, name="relay", metrics=self.metrics)
        # overload etiquette: a consumer more than bulk_lag_scns behind
        # the relay head is catching up, not tailing, and declares its
        # polls bulk-class so an admission-controlled relay sheds them
        # before they can starve live tailing consumers
        self.bulk_lag_scns = bulk_lag_scns

    # -- transport ---------------------------------------------------------

    def _call(self, server_name: str, fn, *args):
        """Direct call, or a simulated network hop when one is wired."""
        if self.network is None:
            return fn(*args)
        result, _ = self.network.invoke(self.client_name, server_name,
                                        fn, *args)
        return result

    def _poll_priority(self) -> int:
        lag = self.relay.newest_scn(self.buffer_name) - self.checkpoint
        return PRIORITY_BULK if lag > self.bulk_lag_scns else PRIORITY_LIVE

    def _stream_from_relay(self, max_events: int) -> list[DatabusEvent]:
        priority = self._poll_priority()
        return call_with_retries(
            lambda: self._call(self.relay.name, self.relay.stream_from,
                               self.checkpoint, self.buffer_name,
                               self.event_filter, max_events, priority),
            clock=self.clock, policy=self.retry_policy, rng=self._retry_rng,
            retry_on=(NodeUnavailableError,), breaker=self.relay_breaker,
            metrics=self.metrics, name="relay.poll")

    # -- the poll loop -----------------------------------------------------

    def poll(self, max_events: int = 10_000) -> int:
        """Pull available events and deliver them; returns events delivered.

        Transparently bootstraps when the relay no longer retains the
        checkpoint position, and switches over to the bootstrap server
        while the relay itself is unreachable (retries exhausted or the
        relay breaker open).  The checkpoint only ever advances at
        window boundaries, so a poll interrupted by a failure at any
        point re-delivers from the same position — at-least-once, no
        gaps.
        """
        try:
            events = self._stream_from_relay(max_events)
            if self.relay_breaker.state == "closed" and \
                    self.stats.relay_failovers > self.stats.relay_reconnects:
                self.stats.relay_reconnects += 1
                self.metrics.counter("relay.reconnects").increment()
        except SCNGoneError:
            self._bootstrap()
            events = self._stream_from_relay(max_events)
        except ServerOverloadedError as exc:
            # the relay shed this poll.  Never retry in a tight loop —
            # that is the retry amplification the shed exists to stop.
            # A lagging consumer takes its catch-up to the bootstrap
            # server instead (that is what it is for); a tailing one
            # backs off for the server's Retry-After hint and polls
            # again later, checkpoint untouched.
            self.stats.polls_shed += 1
            self.metrics.counter("relay.polls_shed").increment()
            if self.bootstrap is not None and \
                    self._poll_priority() == PRIORITY_BULK:
                return self._poll_bootstrap()
            self.clock.sleep(exc.retry_after or 0.05)
            return 0
        except NodeUnavailableError:
            # the relay is down (or its breaker is open): serve this
            # poll from the bootstrap server so consumers keep moving
            if self.bootstrap is None:
                raise
            self.stats.relay_failovers += 1
            self.metrics.counter("relay.failovers").increment()
            return self._poll_bootstrap()
        return self._deliver_windows(events)

    def _deliver_windows(self, events: list[DatabusEvent]) -> int:
        delivered = 0
        window: list[DatabusEvent] = []
        for event in events:
            window.append(event)
            if event.end_of_window:
                if self._deliver_one_window(window):
                    delivered += len(window)
                    self.stats.windows_delivered += 1
                    self.stats.events_delivered += len(window)
                    self.checkpoint = event.scn
                    self.has_state = True
                else:
                    return delivered  # aborted; re-delivered next poll
                window = []
        return delivered

    def _deliver_one_window(self, window: list[DatabusEvent]) -> bool:
        """At-least-once delivery with bounded retries."""
        scn = window[0].scn
        for attempt in range(self.max_retries + 1):
            try:
                self.consumer.on_start_window(scn)
                for event in window:
                    self.consumer.on_data_event(event)
                self.consumer.on_end_window(scn)
                return True
            except Exception:
                self.stats.consumer_retries += 1
                if attempt == self.max_retries:
                    self.stats.windows_aborted += 1
                    return False
        return False

    # -- bootstrap switchover ------------------------------------------------

    def _bootstrap(self) -> None:
        if self.bootstrap is None:
            raise SCNGoneError(
                "relay evicted our position and no bootstrap server is "
                "configured")
        self.stats.bootstraps += 1
        if self.has_state:
            self._bootstrap_with_delta()
        else:
            self._bootstrap_with_snapshot()

    def _poll_bootstrap(self) -> int:
        """Serve one poll's worth of windows from the bootstrap server
        (the relay is unreachable).  Delta playback resumes exactly from
        the checkpoint, so no SCN is skipped."""
        self.stats.bootstraps += 1
        before = self.stats.events_delivered
        if self.has_state:
            self._bootstrap_with_delta()
        else:
            self._bootstrap_with_snapshot()
        return self.stats.events_delivered - before

    def _bootstrap_with_delta(self) -> None:
        """Consolidated delta: fast playback for lagging consumers."""
        self.stats.delta_bootstraps += 1
        events, high_watermark = self._call(
            self.bootstrap.name, self.bootstrap.consolidated_delta,
            self.checkpoint, self.event_filter)
        for event in events:
            self._deliver_single(event)
        self.checkpoint = max(self.checkpoint, high_watermark)

    def _bootstrap_with_snapshot(self) -> None:
        """Consistent snapshot: initialization for stateless consumers."""
        self.stats.snapshot_bootstraps += 1
        resume_scn = self.checkpoint
        for kind, item in self._call(self.bootstrap.name,
                                     self._snapshot_as_list):
            if kind == "row":
                self.consumer.on_snapshot_row(item)
                self.stats.events_delivered += 1
            elif kind == "replay":
                self._deliver_single(item)
            else:
                resume_scn = item
        self.checkpoint = max(self.checkpoint, resume_scn)
        self.has_state = True

    def _snapshot_as_list(self) -> list:
        # materialized so the whole snapshot counts as one simulated call
        return list(self.bootstrap.consistent_snapshot(self.event_filter))

    def _deliver_single(self, event: DatabusEvent) -> None:
        self.consumer.on_start_window(event.scn)
        self.consumer.on_data_event(event)
        self.consumer.on_end_window(event.scn)
        self.stats.windows_delivered += 1
        self.stats.events_delivered += 1
        self.checkpoint = max(self.checkpoint, event.scn)

    # -- bookkeeping wrapper over _deliver_windows ------------------------------

    def run_to_head(self, max_polls: int = 1000) -> int:
        """Poll until caught up with the relay; returns total delivered."""
        total = 0
        for _ in range(max_polls):
            delivered = self.poll()
            total += delivered
            if self.checkpoint >= self.relay.newest_scn(self.buffer_name):
                break
        return total
