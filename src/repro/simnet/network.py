"""A deterministic message-passing substrate for the simulated clusters.

The paper's distributed behaviours — quorum writes racing a node crash,
hinted handoff draining after recovery, slaves catching up from a relay
during failover — depend on message latency and failure timing.  Real
sockets would make those tests flaky; instead every inter-node call in
the simulated clusters goes through :class:`SimNetwork`, which

* samples a latency for each hop from a configurable, seeded model;
* applies failure rules (crashed nodes, transient error probability,
  network partitions) before delivering;
* models *gray* failures — nodes that are up but wrong: per-node
  service-time inflation ("limping" hardware), per-link latency/loss
  overrides, asymmetric (one-way) partitions;
* models server capacity: an optional bounded queue per node adds
  deterministic queueing delay to every request it serves and
  fast-rejects (:class:`~repro.common.errors.ServerOverloadedError`)
  once the backlog would exceed its bound — the substrate the
  overload-robustness layer (DESIGN.md §12) is tested against;
* accumulates per-request latency so callers can report end-to-end
  simulated service times.

Components that run purely in-process for throughput benchmarks (the
Kafka log, Voldemort storage engines) bypass this layer; it exists for
*behavioural* fidelity, not wall-clock measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.common.clock import Clock, SimClock
from repro.common.errors import (
    ConfigurationError,
    NodeUnavailableError,
    RequestTimeoutError,
    ServerOverloadedError,
    TransientNetworkError,
    UnsupportedTypeError,
)

#: A latency model maps the network's seeded RNG to one *one-way* hop
#: delay in seconds.  :meth:`SimNetwork.invoke` samples it once and
#: doubles the value (request + response hops); :meth:`SimNetwork.send`
#: uses the single sample as the in-flight delivery delay.
LatencyModel = Callable[[random.Random], float]


def fixed_latency(seconds: float) -> LatencyModel:
    """Every hop takes exactly ``seconds``."""
    def model(_rng: random.Random) -> float:
        return seconds
    return model


def uniform_latency(low: float, high: float) -> LatencyModel:
    if low < 0 or high < low:
        raise ConfigurationError("require 0 <= low <= high")
    def model(rng: random.Random) -> float:
        return rng.uniform(low, high)
    return model


def lognormal_latency(median: float, sigma: float = 0.5) -> LatencyModel:
    """Heavy-tailed latency typical of datacenter RPC distributions."""
    import math
    mu = math.log(median)
    def model(rng: random.Random) -> float:
        return rng.lognormvariate(mu, sigma)
    return model


@dataclass
class FailureInjector:
    """Mutable failure state consulted on every delivery attempt.

    ``transient_error_rate`` models the "frequent transient and
    short-term failures" the paper says dominate production datacenters
    (Voldemort §II.A, citing [FLP+10]).

    Fault-assertion/heal semantics (each mutator also fires
    ``on_change``, which :class:`SimNetwork` wires into its event trace
    so a seeded chaos schedule is part of the byte-compared record):

    * ``crash``/``recover`` — binary liveness; a crashed node neither
      sends nor receives.
    * ``partition(*groups)`` — *replaces* the symmetric partition set:
      traffic flows only within a group (a node in two groups bridges
      them; ungrouped nodes reach each other but no grouped node).
      ``add_partition(*groups)`` is *additive*: it appends groups to
      the current set without disturbing existing ones.
      ``heal_partition`` clears every symmetric group.
    * ``block(src_group, dst_group)`` — an *asymmetric* (one-way)
      partition: messages from ``src_group`` to ``dst_group`` are
      dropped while the reverse direction still flows (the classic
      gray failure where A can reach B but B's replies vanish).
      Blocks are additive; ``heal_blocks`` clears them all.
    * ``limp(node, factor)`` — gray degradation: every hop touching
      ``node`` (and its service time, when the node has a server
      queue) is inflated by ``factor``.  ``heal_limp`` restores 1.0.
    """

    crashed: set[str] = field(default_factory=set)
    transient_error_rate: float = 0.0
    _partition_groups: list[frozenset[str]] = field(default_factory=list)
    _oneway_blocks: list[tuple[frozenset[str], frozenset[str]]] = \
        field(default_factory=list)
    _limping: dict[str, float] = field(default_factory=dict)
    #: observer hook (kind, detail) fired on every fault mutation;
    #: SimNetwork installs one so fault schedules land in the trace
    on_change: Callable[[str, str], None] | None = \
        field(default=None, repr=False, compare=False)

    def _notify(self, kind: str, detail: str) -> None:
        if self.on_change is not None:
            self.on_change(kind, detail)

    def crash(self, node: str) -> None:
        self.crashed.add(node)
        self._notify("crash", node)

    def recover(self, node: str) -> None:
        self.crashed.discard(node)
        self._notify("recover", node)

    def partition(self, *groups: set[str]) -> None:
        """Split the cluster: traffic only flows within a group.
        Replaces any previous symmetric partition set."""
        self._partition_groups = [frozenset(g) for g in groups]
        self._notify("partition", _groups_repr(self._partition_groups))

    def add_partition(self, *groups: set[str]) -> None:
        """Additively append partition groups (the previous cut stays)."""
        self._partition_groups.extend(frozenset(g) for g in groups)
        self._notify("add_partition", _groups_repr(self._partition_groups))

    def heal_partition(self) -> None:
        self._partition_groups = []
        self._notify("heal_partition", "")

    # -- asymmetric (one-way) partitions --------------------------------

    def block(self, src_group: set[str], dst_group: set[str]) -> None:
        """Drop traffic *from* ``src_group`` *to* ``dst_group`` only;
        the reverse direction keeps flowing.  Additive."""
        pair = (frozenset(src_group), frozenset(dst_group))
        self._oneway_blocks.append(pair)
        self._notify("block", _groups_repr(list(pair)))

    def heal_blocks(self) -> None:
        self._oneway_blocks = []
        self._notify("heal_blocks", "")

    # -- gray degradation ------------------------------------------------

    def limp(self, node: str, factor: float) -> None:
        """Inflate every hop (and queued service) touching ``node``."""
        if factor < 1.0:
            raise ConfigurationError(
                f"limp factor must be >= 1.0, got {factor}")
        self._limping[node] = factor
        self._notify("limp", f"{node}x{factor:g}")

    def heal_limp(self, node: str) -> None:
        self._limping.pop(node, None)
        self._notify("heal_limp", node)

    def slowdown(self, node: str) -> float:
        """Service/latency inflation factor for ``node`` (1.0 = healthy)."""
        return self._limping.get(node, 1.0)

    def reachable(self, src: str, dst: str) -> bool:
        if dst in self.crashed or src in self.crashed:
            return False
        for blocked_src, blocked_dst in self._oneway_blocks:
            if src in blocked_src and dst in blocked_dst:
                return False
        if not self._partition_groups:
            return True
        for group in self._partition_groups:
            if src in group and dst in group:
                return True
        # nodes absent from every group can reach each other
        in_any_src = any(src in g for g in self._partition_groups)
        in_any_dst = any(dst in g for g in self._partition_groups)
        return not in_any_src and not in_any_dst


def _groups_repr(groups: list[frozenset[str]]) -> str:
    """Canonical (sorted) rendering of group sets for trace entries."""
    return "|".join(",".join(sorted(g)) for g in groups)


class ServerQueue:
    """A bounded single-server queue in front of one simulated node.

    The server is modelled as one deterministic service line: work
    booked so far ends at ``busy_until``; a request arriving now waits
    ``busy_until - now`` before its own ``service_time`` starts.  When
    the backlog already holds ``capacity`` requests the new arrival is
    rejected instantly — the fast, cheap rejection that keeps bounded
    queues stable where unbounded ones melt down (queueing delay climbs
    past every client timeout while the server keeps grinding through
    work nobody is waiting for any more).

    Note the deliberate asymmetry: a request that is *admitted* books
    its service time even if the caller's timeout later expires — the
    server has no way to know the client hung up, so overload wastes
    real capacity.  Only rejection is free.  This is what makes naive
    retry storms metastable in the benchmark and shedding stabilizing.
    """

    def __init__(self, clock: Clock, service_time: float, capacity: int):
        if service_time <= 0:
            raise ConfigurationError("service_time must be positive")
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.clock = clock
        self.service_time = service_time
        self.capacity = capacity
        self.busy_until = 0.0
        self.accepted = 0
        self.rejected = 0

    def depth(self) -> int:
        """Requests currently queued or in service (by base service time)."""
        backlog = self.busy_until - self.clock.now()
        if backlog <= 0:
            return 0
        return int(backlog / self.service_time + 0.999999)

    def admit(self, service_time: float) -> float | None:
        """Book one request; returns its queueing delay, or None when
        the queue is full (fast rejection, no capacity consumed)."""
        if self.depth() >= self.capacity:
            self.rejected += 1
            return None
        now = self.clock.now()
        start = max(now, self.busy_until)
        self.busy_until = start + service_time
        self.accepted += 1
        return start - now


class SimNetwork:
    """Point-to-point messaging with latency sampling and fault injection."""

    def __init__(self, clock: Clock | None = None, seed: int = 0,
                 latency_model: LatencyModel | None = None):
        self.clock = clock if clock is not None else SimClock()
        self.rng = random.Random(seed)
        self.latency_model = latency_model or fixed_latency(0.0005)
        self.default_timeout = 0.5   # seconds, when a call names none
        self.failures = FailureInjector()
        # fault assertions/heals are part of the replayable record
        self.failures.on_change = self._record_fault
        # per-link overrides: (src, dst) -> (latency model | None, loss rate)
        self._links: dict[tuple[str, str], tuple[LatencyModel | None, float]] = {}
        # bounded per-node server queues (None for queueless nodes)
        self._server_queues: dict[str, ServerQueue] = {}
        self.hops_delivered = 0
        self.hops_failed = 0
        self.requests_shed = 0
        self.bytes_sent = 0
        # optional event trace (see start_trace); None = tracing off
        self.trace: list[tuple] | None = None

    # -- event tracing ---------------------------------------------------

    def start_trace(self) -> None:
        """Record every network event from now on.

        Each entry is ``(kind, sim_time, src, dst, outcome, latency)``;
        :meth:`trace_bytes` serializes the log so two runs of the same
        seeded scenario can be compared byte for byte.  The determinism
        replay test uses this to catch dynamic nondeterminism — hash-
        order fan-out, unseeded draws reached only under failure — that
        static analysis cannot see.
        """
        self.trace = []

    def _record(self, kind: str, src: str, dst: str, outcome: str,
                latency: float = 0.0) -> None:
        if self.trace is not None:
            self.trace.append(
                (kind, round(self.clock.now(), 9), src, dst, outcome,
                 round(latency, 9)))

    def _record_fault(self, kind: str, detail: str) -> None:
        """Fault assertions and heals enter the trace as events too, so
        two same-seed chaos runs must apply the same schedule to
        byte-compare equal."""
        self._record("fault", kind, detail, "applied")

    def trace_bytes(self) -> bytes:
        """The trace as canonical bytes (one ``repr`` line per event)."""
        if self.trace is None:
            raise ConfigurationError(
                "tracing is not enabled; call start_trace()")
        return "\n".join(repr(event) for event in self.trace).encode()

    # -- per-link overrides and server queues ----------------------------

    def set_link(self, src: str, dst: str,
                 latency_model: LatencyModel | None = None,
                 loss_rate: float = 0.0) -> None:
        """Override one directed link: its own latency model and/or an
        independent loss probability (lost hops raise/drop like
        transient failures).  Directed — set both directions for a
        symmetric degradation."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1]")
        self._links[(src, dst)] = (latency_model, loss_rate)
        self._record_fault("set_link", f"{src}->{dst} loss={loss_rate:g}")

    def clear_link(self, src: str, dst: str) -> None:
        self._links.pop((src, dst), None)
        self._record_fault("clear_link", f"{src}->{dst}")

    def add_server_queue(self, node: str, service_time: float,
                         capacity: int) -> ServerQueue:
        """Put a bounded queue in front of ``node``: every ``invoke``
        serviced by it gains queueing delay, and arrivals beyond
        ``capacity`` are fast-rejected with
        :class:`ServerOverloadedError`."""
        queue = ServerQueue(self.clock, service_time, capacity)
        self._server_queues[node] = queue
        return queue

    def queue_depth(self, node: str) -> int:
        """Current backlog of ``node`` (0 for queueless nodes) — the
        load signal least-loaded replica selection sorts by."""
        queue = self._server_queues.get(node)
        return 0 if queue is None else queue.depth()

    def _link(self, src: str, dst: str) -> tuple[LatencyModel | None, float]:
        return self._links.get((src, dst), (None, 0.0))

    def _sample_hop(self, src: str, dst: str,
                    model: LatencyModel | None) -> float:
        """One one-way hop delay, with gray-failure inflation applied
        for either limping endpoint."""
        sample = (model or self.latency_model)(self.rng)
        return sample * self.failures.slowdown(src) * \
            self.failures.slowdown(dst)

    # -- synchronous request/response -----------------------------------

    def invoke(self, src: str, dst: str, func: Callable, *args,
               timeout: float | None = None, payload_bytes: int = 0, **kwargs):
        """Simulate a round trip: returns ``(result, simulated_latency)``.

        Raises :class:`TransientNetworkError` on an injected transient
        fault (or per-link loss), :class:`NodeUnavailableError` when
        ``dst`` is crashed or partitioned away,
        :class:`ServerOverloadedError` when ``dst`` has a bounded
        server queue that is full (a fast rejection — no server
        capacity consumed), and :class:`RequestTimeoutError` when the
        total round-trip latency — including ``dst``'s queueing delay
        and service time when it has a queue, both inflated for limping
        endpoints — exceeds the timeout.  A timed-out request that was
        *admitted* to a server queue still occupies the server (the
        client gave up; the server doesn't know), which is what makes
        unprotected retry storms metastable.  On failure, the time
        burned (up to the timeout) is still reported via the
        exception's ``simulated_latency`` attribute, so callers can
        account for it.
        """
        timeout = self.default_timeout if timeout is None else timeout
        if not self.failures.reachable(src, dst):
            self.hops_failed += 1
            self._record("invoke", src, dst, "unreachable", timeout)
            exc = NodeUnavailableError(f"{dst} unreachable from {src}")
            exc.simulated_latency = timeout
            raise exc
        link_model, loss_rate = self._link(src, dst)
        if loss_rate > 0 and self.rng.random() < loss_rate:
            self.hops_failed += 1
            burned = self._sample_hop(src, dst, link_model)
            self._record("invoke", src, dst, "lost", burned)
            exc = TransientNetworkError(f"link {src}->{dst} lost the request")
            exc.simulated_latency = burned
            raise exc
        if self.failures.transient_error_rate > 0 and \
                self.rng.random() < self.failures.transient_error_rate:
            self.hops_failed += 1
            burned = self._sample_hop(src, dst, link_model)
            self._record("invoke", src, dst, "transient", burned)
            exc = TransientNetworkError(f"transient failure calling {dst}")
            exc.simulated_latency = burned
            raise exc
        hop = self._sample_hop(src, dst, link_model)
        latency = hop * 2  # request + response hops
        queue = self._server_queues.get(dst)
        if queue is not None:
            service = queue.service_time * self.failures.slowdown(dst)
            queue_delay = queue.admit(service)
            if queue_delay is None:
                # fast rejection: one round trip, no service booked
                self.hops_failed += 1
                self.requests_shed += 1
                self._record("invoke", src, dst, "shed", latency)
                exc = ServerOverloadedError(
                    f"{dst} queue full ({queue.capacity} deep)",
                    retry_after=queue.capacity * queue.service_time)
                exc.simulated_latency = latency
                raise exc
            if queue_delay > 0:
                self._record("queue", src, dst, "wait", queue_delay)
            latency += queue_delay + service
        if latency > timeout:
            self.hops_failed += 1
            self._record("invoke", src, dst, "timeout", timeout)
            exc = RequestTimeoutError(f"call to {dst} exceeded {timeout}s")
            exc.simulated_latency = timeout
            raise exc
        result = func(*args, **kwargs)
        self.hops_delivered += 1
        self.bytes_sent += payload_bytes
        self._record("invoke", src, dst, "ok", latency)
        return result, latency

    # -- asynchronous one-way delivery -----------------------------------

    def send(self, src: str, dst: str, callback: Callable[[], None],
             payload_bytes: int = 0) -> bool:
        """Queue a one-way message for delivery after one sampled
        :data:`LatencyModel` delay (one hop — no response leg, unlike
        :meth:`invoke`).  Requires a :class:`SimClock`.

        Failure rules are applied twice.  At *send* time the transient-
        error rate and the current ``(src, dst)`` reachability (crashes,
        partitions) decide whether the message enters the network at
        all; ``False`` means it was dropped on the floor and the caller
        may account for it.  A ``True`` return only means the message
        is in flight: at *delivery* time reachability is re-checked for
        the same ``(src, dst)`` pair, so a crash or partition that forms
        while the message is in the air still loses it — the callback
        runs only if the pair is reachable when the delay elapses.
        In-flight drops count toward ``hops_failed`` and are invisible
        to the sender, exactly like a lost datagram.
        """
        if not isinstance(self.clock, SimClock):
            raise UnsupportedTypeError("async send requires a SimClock")
        if not self.failures.reachable(src, dst):
            self.hops_failed += 1
            self._record("send", src, dst, "unreachable")
            return False
        link_model, loss_rate = self._link(src, dst)
        if loss_rate > 0 and self.rng.random() < loss_rate:
            self.hops_failed += 1
            self._record("send", src, dst, "lost")
            return False
        if self.failures.transient_error_rate > 0 and \
                self.rng.random() < self.failures.transient_error_rate:
            self.hops_failed += 1
            self._record("send", src, dst, "transient")
            return False
        delay = self._sample_hop(src, dst, link_model)

        def deliver():
            # re-check the real (src, dst) pair at delivery time: either
            # endpoint may have crashed, or a partition may have formed,
            # while the message was in flight
            if self.failures.reachable(src, dst):
                self.hops_delivered += 1
                self._record("deliver", src, dst, "ok", delay)
                callback()
            else:
                self.hops_failed += 1
                self._record("deliver", src, dst, "dropped", delay)

        self.clock.call_later(delay, deliver)
        self.bytes_sent += payload_bytes
        self._record("send", src, dst, "queued", delay)
        return True
