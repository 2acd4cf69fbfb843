"""Scripted, deterministic fault plans.

A :class:`FaultPlan` is a reproducible chaos schedule: kill/restart/
corrupt actions pinned to simulated timestamps on a
:class:`~repro.common.clock.SimClock`, executed against a
:class:`~repro.simnet.disk.SimDisk` and whatever component lifecycle
handlers the test registers.  Because the clock, the disk RNG, and the
schedule itself are all seeded and sorted, running the same plan twice
produces a byte-identical fault trace — the property the chaos tests
assert.

A plan schedules faults and nothing else: what must hold after them is
declared by the tests and workloads that run it.
:func:`offsets_within_watermark` — a consumer's resume offset never
points past what the broker durably exposes — is the one check kept
here, for the callers that import it from this module.
"""

from __future__ import annotations

from typing import Callable

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.simnet.disk import SimDisk


class FaultPlan:
    """A deterministic kill/restart/corrupt schedule.

    Usage::

        plan = FaultPlan(clock, disk)
        plan.on_kill(lambda node: cluster.kill_node(node))
        plan.on_restart(lambda node: cluster.restart_node(node))
        plan.torn_write(at=4.9, node="node-1")   # arm before the kill
        plan.kill(at=5.0, node="node-1")
        plan.restart(at=8.0, node="node-1")
        plan.run(until=10.0)

    An action is ``(at, kind, node, fire)``: ``fire`` performs the fault
    and returns the trace detail.  ``executed`` records ``(time, kind,
    node, detail)`` tuples in firing order; together with
    ``disk.trace_bytes()`` it forms the replayable fault trace.
    """

    def __init__(self, clock: SimClock, disk: SimDisk, network=None):
        self.clock = clock
        self.disk = disk
        # gray-failure actions (limp, links, one-way blocks, flapping)
        # drive a SimNetwork's FailureInjector; plans without network
        # faults need not attach one
        self.network = network
        self._actions: list[tuple[float, str, str, Callable[[], str]]] = []
        self._scheduled = 0   # actions[:_scheduled] are already on the clock
        self._handlers: dict[str, list[Callable[[str], None]]] = {
            kind: [] for kind in ("kill", "restart", "kill_container",
                                  "restart_container")}
        self.executed: list[tuple[float, str, str, str]] = []

    def _add(self, at: float, kind: str, node: str,
             fire: Callable[[], str]) -> None:
        self._actions.append((at, kind, node, fire))

    def _require_network(self, kind: str):
        if self.network is None:
            raise ConfigurationError(
                f"{kind} actions need a network attached to the plan")
        return self.network

    # -- lifecycle handlers --------------------------------------------------

    def on_kill(self, handler: Callable[[str], None]) -> None:
        """Register a handler invoked with the node name on every kill
        (typically the cluster's own kill method, which crashes the
        node's disk scope and network endpoint)."""
        self._handlers["kill"].append(handler)

    def on_restart(self, handler: Callable[[str], None]) -> None:
        self._handlers["restart"].append(handler)

    def on_kill_container(self, handler: Callable[[str], None]) -> None:
        """Register a handler invoked with the *container* name on every
        ``kill_container`` action.  Containers (stream-processing worker
        processes) die differently from storage nodes: their ephemeral
        coordination state vanishes but their node's disk survives, so
        they get their own handler list and trace kind rather than
        reusing :meth:`on_kill`."""
        self._handlers["kill_container"].append(handler)

    def on_restart_container(self, handler: Callable[[str], None]) -> None:
        self._handlers["restart_container"].append(handler)

    # -- schedule construction ------------------------------------------------

    def _lifecycle(self, at: float, kind: str, node: str) -> None:
        def fire() -> str:
            for handler in self._handlers[kind]:
                handler(node)
            return ""
        self._add(at, kind, node, fire)

    def kill(self, at: float, node: str) -> None:
        self._lifecycle(at, "kill", node)

    def restart(self, at: float, node: str) -> None:
        self._lifecycle(at, "restart", node)

    def kill_container(self, at: float, container: str) -> None:
        """Kill one stream container mid-flight: in-memory task state is
        lost without a final commit, ephemeral znodes vanish, durable
        files survive."""
        self._lifecycle(at, "kill_container", container)

    def restart_container(self, at: float, container: str) -> None:
        self._lifecycle(at, "restart_container", container)

    def torn_write(self, at: float, node: str, path: str | None = None,
                   keep_bytes: int | None = None) -> None:
        """Arm a torn write: the node's *next* crash cuts its unsynced
        tail mid-record instead of dropping it cleanly."""
        def fire() -> str:
            self.disk.arm_torn_write(node, path=path, keep_bytes=keep_bytes)
            return path or "<largest-unsynced>"
        self._add(at, "torn_write", node, fire)

    def call(self, at: float, label: str, fn: Callable[[], None]) -> None:
        """Schedule arbitrary workload (writes, reads, checks) between
        faults so the plan captures the whole scenario in one place."""
        def fire() -> str:
            fn()
            return label
        self._add(at, "call", "", fire)

    def inject(self, at: float, label: str, fn: Callable[[], None]) -> None:
        """Schedule a *seeded violation plant* (see
        :class:`repro.audit.inject.ViolationInjector`).  Behaves like
        :meth:`call` but is recorded under its own kind, so the executed
        trace distinguishes planted corruptions from ordinary workload —
        the ground truth the auditor's recall is scored against."""
        def fire() -> str:
            fn()
            return label
        self._add(at, "inject", "", fire)

    # -- gray-failure schedule constructors -----------------------------------

    def limp(self, at: float, node: str, factor: float) -> None:
        """Slow-node onset: inflate the node's service and hop times."""
        network = self._require_network("limp")

        def fire() -> str:
            network.failures.limp(node, factor)
            return f"x{factor}"
        self._add(at, "limp", node, fire)

    def heal_limp(self, at: float, node: str) -> None:
        """Slow-node recovery."""
        network = self._require_network("heal_limp")

        def fire() -> str:
            network.failures.heal_limp(node)
            return ""
        self._add(at, "heal_limp", node, fire)

    def flap(self, at: float, node: str, period: float, cycles: int) -> None:
        """Flapping: ``cycles`` crash/recover pairs, one ``period``
        apart, starting with a crash at ``at``.  Expanded into plain
        net_crash/net_recover actions at construction time, so the
        schedule (and its trace) is fully explicit."""
        network = self._require_network("flap")
        if period <= 0 or cycles < 1:
            raise ConfigurationError("flap needs period > 0 and cycles >= 1")

        def crash() -> str:
            network.failures.crash(node)
            return ""

        def recover() -> str:
            network.failures.recover(node)
            return ""
        for cycle in range(cycles):
            start = at + cycle * period
            self._add(start, "net_crash", node, crash)
            self._add(start + period / 2, "net_recover", node, recover)

    def set_link(self, at: float, src: str, dst: str,
                 latency_model: Callable | None = None,
                 loss_rate: float = 0.0) -> None:
        """Degrade one directed link (extra latency and/or loss)."""
        network = self._require_network("set_link")

        def fire() -> str:
            network.set_link(src, dst, latency_model=latency_model,
                             loss_rate=loss_rate)
            return f"loss={loss_rate}"
        self._add(at, "set_link", f"{src}->{dst}", fire)

    def clear_link(self, at: float, src: str, dst: str) -> None:
        network = self._require_network("clear_link")

        def fire() -> str:
            network.clear_link(src, dst)
            return ""
        self._add(at, "clear_link", f"{src}->{dst}", fire)

    def block(self, at: float, src_group: list[str],
              dst_group: list[str]) -> None:
        """Asymmetric partition: src→dst traffic drops, dst→src flows."""
        network = self._require_network("block")
        src_group, dst_group = tuple(src_group), tuple(dst_group)

        def fire() -> str:
            network.failures.block(list(src_group), list(dst_group))
            return ",".join(sorted(dst_group))
        self._add(at, "block", ",".join(sorted(src_group)), fire)

    def heal_blocks(self, at: float) -> None:
        network = self._require_network("heal_blocks")

        def fire() -> str:
            network.failures.heal_blocks()
            return ""
        self._add(at, "heal_blocks", "", fire)

    def spike(self, at: float, duration: float, label: str,
              start: Callable[[], None], stop: Callable[[], None]) -> None:
        """A traffic spike: ``start`` fires at ``at``, ``stop`` at
        ``at + duration`` — the callables adjust the workload's arrival
        rate, so the spike's shape lives in the plan's trace."""
        if duration <= 0:
            raise ConfigurationError("spike duration must be positive")
        self.call(at, f"spike_start:{label}", start)
        self.call(at + duration, f"spike_end:{label}", stop)

    # -- execution -------------------------------------------------------------

    def _fire(self, kind: str, node: str, fire: Callable[[], str]) -> None:
        now = round(self.clock.now(), 9)
        self.executed.append((now, kind, node, fire()))

    def run(self, until: float | None = None) -> list[tuple[float, str, str, str]]:
        """Schedule every action on the clock and advance through them.

        Actions sharing a timestamp fire in the order they were added
        (the clock breaks ties by scheduling order), so a plan is fully
        determined by its construction sequence.

        The clock runs to ``max(until, time of the last action)``: a
        plan always fires everything it holds, ``until`` can only
        extend the run.  Each action is scheduled once, so a later
        ``run`` fires only what was added since and otherwise just
        advances the clock.
        """
        horizon = until
        for at, _, _, _ in self._actions:
            if horizon is None or at > horizon:
                horizon = at
        for at, kind, node, fire in self._actions[self._scheduled:]:
            self.clock.call_at(at, lambda kind=kind, node=node, fire=fire:
                               self._fire(kind, node, fire))
        self._scheduled = len(self._actions)
        if horizon is not None:
            self.clock.run_until(horizon)
        return self.executed

    def trace_lines(self) -> list[str]:
        """The executed schedule as repr lines, for byte-compare."""
        return [repr(entry) for entry in self.executed]


def offsets_within_watermark(offsets: dict[tuple[str, int], int],
                             watermark_of: Callable[[str, int], int]
                             ) -> list[str]:
    """Check saved consumer offsets against broker high watermarks.

    A recovered broker may have truncated a torn (never-acked) tail, but
    a consumer's resume offset must still be at or below what the broker
    now exposes — otherwise the consumer would skip or re-read garbage.
    """
    violations = []
    for (topic, partition), offset in sorted(offsets.items()):
        watermark = watermark_of(topic, partition)
        if offset > watermark:
            violations.append(
                f"{topic}-{partition}: consumer offset {offset} beyond "
                f"high watermark {watermark}")
    return violations
