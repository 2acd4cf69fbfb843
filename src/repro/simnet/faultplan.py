"""Scripted, deterministic fault plans plus durability invariant checkers.

A :class:`FaultPlan` is a reproducible chaos schedule: kill/restart/
corrupt actions pinned to simulated timestamps on a
:class:`~repro.common.clock.SimClock`, executed against a
:class:`~repro.simnet.disk.SimDisk` and whatever component lifecycle
handlers the test registers.  Because the clock, the disk RNG, and the
schedule itself are all seeded and sorted, running the same plan twice
produces a byte-identical fault trace — the property the chaos tests
assert.

The checkers encode the DESIGN.md §9 contract as data:

* :class:`AckLedger` — every acknowledged write must read back intact
  after recovery (acked ⇒ fsynced ⇒ recoverable);
* :class:`ScnAuditor` — per node and partition, commit SCNs advance
  densely: no window applied twice, none skipped;
* :func:`offsets_within_watermark` — a consumer's resume offset never
  points past what the broker durably exposes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.simnet.disk import SimDisk


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault."""

    at: float
    kind: str                 # "kill" | "restart" | "torn_write" | "bit_flip"
                              # | "kill_container" | "restart_container"
                              # | "call" | "inject" | "limp" | "heal_limp"
                              # | "net_crash" | "net_recover" | "set_link"
                              # | "clear_link" | "block" | "heal_blocks"
    node: str = ""
    path: str | None = None
    keep_bytes: int | None = None
    offset: int | None = None
    label: str = ""
    fn: Callable[[], None] | None = field(default=None, compare=False)
    # gray-failure fields
    factor: float | None = None
    src: str = ""
    dst: str = ""
    groups: tuple = ()
    latency_model: Callable | None = field(default=None, compare=False)
    loss_rate: float = 0.0


class FaultPlan:
    """A deterministic kill/restart/corrupt schedule.

    Usage::

        plan = FaultPlan(clock, disk, seed=7)
        plan.on_kill(lambda node: cluster.kill_node(node))
        plan.on_restart(lambda node: cluster.restart_node(node))
        plan.torn_write(at=4.9, node="node-1")   # arm before the kill
        plan.kill(at=5.0, node="node-1")
        plan.restart(at=8.0, node="node-1")
        plan.run(until=10.0)

    ``executed`` records ``(time, kind, node, detail)`` tuples in firing
    order; together with ``disk.trace_bytes()`` it forms the replayable
    fault trace.
    """

    def __init__(self, clock: SimClock, disk: SimDisk, seed: int = 0,
                 network=None):
        self.clock = clock
        self.disk = disk
        # gray-failure actions (limp, links, one-way blocks, flapping)
        # drive a SimNetwork's FailureInjector; plans without network
        # faults need not attach one
        self.network = network
        self.rng = random.Random(seed)
        self._actions: list[FaultAction] = []
        self._scheduled = 0   # actions[:_scheduled] are already on the clock
        self._kill_handlers: list[Callable[[str], None]] = []
        self._restart_handlers: list[Callable[[str], None]] = []
        self._kill_container_handlers: list[Callable[[str], None]] = []
        self._restart_container_handlers: list[Callable[[str], None]] = []
        self.executed: list[tuple[float, str, str, str]] = []

    def _require_network(self, kind: str) -> None:
        if self.network is None:
            raise ConfigurationError(
                f"{kind} actions need a network attached to the plan")

    # -- lifecycle handlers --------------------------------------------------

    def on_kill(self, handler: Callable[[str], None]) -> None:
        """Register a handler invoked with the node name on every kill
        (typically the cluster's own kill method, which crashes the
        node's disk scope and network endpoint)."""
        self._kill_handlers.append(handler)

    def on_restart(self, handler: Callable[[str], None]) -> None:
        self._restart_handlers.append(handler)

    def on_kill_container(self, handler: Callable[[str], None]) -> None:
        """Register a handler invoked with the *container* name on every
        ``kill_container`` action.  Containers (stream-processing worker
        processes) die differently from storage nodes: their ephemeral
        coordination state vanishes but their node's disk survives, so
        they get their own handler list and trace kind rather than
        reusing :meth:`on_kill`."""
        self._kill_container_handlers.append(handler)

    def on_restart_container(self, handler: Callable[[str], None]) -> None:
        self._restart_container_handlers.append(handler)

    # -- schedule construction ------------------------------------------------

    def kill(self, at: float, node: str) -> None:
        self._actions.append(FaultAction(at, "kill", node))

    def restart(self, at: float, node: str) -> None:
        self._actions.append(FaultAction(at, "restart", node))

    def kill_container(self, at: float, container: str) -> None:
        """Kill one stream container mid-flight: in-memory task state is
        lost without a final commit, ephemeral znodes vanish, durable
        files survive."""
        self._actions.append(FaultAction(at, "kill_container", container))

    def restart_container(self, at: float, container: str) -> None:
        self._actions.append(FaultAction(at, "restart_container", container))

    def torn_write(self, at: float, node: str, path: str | None = None,
                   keep_bytes: int | None = None) -> None:
        """Arm a torn write: the node's *next* crash cuts its unsynced
        tail mid-record instead of dropping it cleanly."""
        self._actions.append(FaultAction(at, "torn_write", node, path=path,
                                         keep_bytes=keep_bytes))

    def bit_flip(self, at: float, node: str, path: str,
                 offset: int | None = None) -> None:
        self._actions.append(FaultAction(at, "bit_flip", node, path=path,
                                         offset=offset))

    def call(self, at: float, label: str, fn: Callable[[], None]) -> None:
        """Schedule arbitrary workload (writes, reads, checks) between
        faults so the plan captures the whole scenario in one place."""
        self._actions.append(FaultAction(at, "call", label=label, fn=fn))

    def inject(self, at: float, label: str, fn: Callable[[], None]) -> None:
        """Schedule a *seeded violation plant* (see
        :class:`repro.audit.inject.ViolationInjector`).  Behaves like
        :meth:`call` but is recorded under its own kind, so the executed
        trace distinguishes planted corruptions from ordinary workload —
        the ground truth the auditor's recall is scored against."""
        self._actions.append(FaultAction(at, "inject", label=label, fn=fn))

    # -- gray-failure schedule constructors -----------------------------------

    def limp(self, at: float, node: str, factor: float) -> None:
        """Slow-node onset: inflate the node's service and hop times."""
        self._require_network("limp")
        self._actions.append(FaultAction(at, "limp", node, factor=factor))

    def heal_limp(self, at: float, node: str) -> None:
        """Slow-node recovery."""
        self._require_network("heal_limp")
        self._actions.append(FaultAction(at, "heal_limp", node))

    def net_crash(self, at: float, node: str) -> None:
        """Network-level crash (the injector's, not the cluster's)."""
        self._require_network("net_crash")
        self._actions.append(FaultAction(at, "net_crash", node))

    def net_recover(self, at: float, node: str) -> None:
        self._require_network("net_recover")
        self._actions.append(FaultAction(at, "net_recover", node))

    def flap(self, at: float, node: str, period: float, cycles: int) -> None:
        """Flapping: ``cycles`` crash/recover pairs, one ``period``
        apart, starting with a crash at ``at``.  Expanded into plain
        net_crash/net_recover actions at construction time, so the
        schedule (and its trace) is fully explicit."""
        self._require_network("flap")
        if period <= 0 or cycles < 1:
            raise ConfigurationError("flap needs period > 0 and cycles >= 1")
        for cycle in range(cycles):
            start = at + cycle * period
            self._actions.append(FaultAction(start, "net_crash", node))
            self._actions.append(
                FaultAction(start + period / 2, "net_recover", node))

    def set_link(self, at: float, src: str, dst: str,
                 latency_model: Callable | None = None,
                 loss_rate: float = 0.0) -> None:
        """Degrade one directed link (extra latency and/or loss)."""
        self._require_network("set_link")
        self._actions.append(FaultAction(
            at, "set_link", src=src, dst=dst,
            latency_model=latency_model, loss_rate=loss_rate))

    def clear_link(self, at: float, src: str, dst: str) -> None:
        self._require_network("clear_link")
        self._actions.append(FaultAction(at, "clear_link", src=src, dst=dst))

    def block(self, at: float, src_group: list[str],
              dst_group: list[str]) -> None:
        """Asymmetric partition: src→dst traffic drops, dst→src flows."""
        self._require_network("block")
        self._actions.append(FaultAction(
            at, "block", groups=(tuple(src_group), tuple(dst_group))))

    def heal_blocks(self, at: float) -> None:
        self._require_network("heal_blocks")
        self._actions.append(FaultAction(at, "heal_blocks"))

    def spike(self, at: float, duration: float, label: str,
              start: Callable[[], None], stop: Callable[[], None]) -> None:
        """A traffic spike: ``start`` fires at ``at``, ``stop`` at
        ``at + duration`` — the callables adjust the workload's arrival
        rate, so the spike's shape lives in the plan's trace."""
        if duration <= 0:
            raise ConfigurationError("spike duration must be positive")
        self._actions.append(
            FaultAction(at, "call", label=f"spike_start:{label}", fn=start))
        self._actions.append(
            FaultAction(at + duration, "call", label=f"spike_end:{label}",
                        fn=stop))

    # -- execution -------------------------------------------------------------

    def _fire(self, action: FaultAction) -> None:
        now = round(self.clock.now(), 9)
        if action.kind == "kill":
            for handler in self._kill_handlers:
                handler(action.node)
            self.executed.append((now, "kill", action.node, ""))
        elif action.kind == "restart":
            for handler in self._restart_handlers:
                handler(action.node)
            self.executed.append((now, "restart", action.node, ""))
        elif action.kind == "kill_container":
            for handler in self._kill_container_handlers:
                handler(action.node)
            self.executed.append((now, "kill_container", action.node, ""))
        elif action.kind == "restart_container":
            for handler in self._restart_container_handlers:
                handler(action.node)
            self.executed.append((now, "restart_container", action.node, ""))
        elif action.kind == "torn_write":
            self.disk.arm_torn_write(action.node, path=action.path,
                                     keep_bytes=action.keep_bytes)
            self.executed.append((now, "torn_write", action.node,
                                  action.path or "<largest-unsynced>"))
        elif action.kind == "bit_flip":
            offset = self.disk.flip_bit(action.node, action.path,
                                        offset=action.offset)
            self.executed.append((now, "bit_flip", action.node,
                                  f"{action.path}@{offset}"))
        elif action.kind == "call":
            action.fn()
            self.executed.append((now, "call", "", action.label))
        elif action.kind == "inject":
            action.fn()
            self.executed.append((now, "inject", "", action.label))
        elif action.kind == "limp":
            self.network.failures.limp(action.node, action.factor)
            self.executed.append((now, "limp", action.node,
                                  f"x{action.factor}"))
        elif action.kind == "heal_limp":
            self.network.failures.heal_limp(action.node)
            self.executed.append((now, "heal_limp", action.node, ""))
        elif action.kind == "net_crash":
            self.network.failures.crash(action.node)
            self.executed.append((now, "net_crash", action.node, ""))
        elif action.kind == "net_recover":
            self.network.failures.recover(action.node)
            self.executed.append((now, "net_recover", action.node, ""))
        elif action.kind == "set_link":
            self.network.set_link(action.src, action.dst,
                                  latency_model=action.latency_model,
                                  loss_rate=action.loss_rate)
            self.executed.append((now, "set_link",
                                  f"{action.src}->{action.dst}",
                                  f"loss={action.loss_rate}"))
        elif action.kind == "clear_link":
            self.network.clear_link(action.src, action.dst)
            self.executed.append((now, "clear_link",
                                  f"{action.src}->{action.dst}", ""))
        elif action.kind == "block":
            src_group, dst_group = action.groups
            self.network.failures.block(list(src_group), list(dst_group))
            self.executed.append((now, "block",
                                  ",".join(sorted(src_group)),
                                  ",".join(sorted(dst_group))))
        elif action.kind == "heal_blocks":
            self.network.failures.heal_blocks()
            self.executed.append((now, "heal_blocks", "", ""))
        else:  # pragma: no cover - schedule constructors gate the kinds
            raise ConfigurationError(f"unknown fault kind {action.kind!r}")

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
        for action in self._actions:
            if horizon is None or action.at > horizon:
                horizon = action.at
        for action in self._actions[self._scheduled:]:
            self.clock.call_at(action.at,
                               lambda action=action: self._fire(action))
        self._scheduled = len(self._actions)
        if horizon is not None:
            self.clock.run_until(horizon)
        return self.executed

    def trace_lines(self) -> list[str]:
        """The executed schedule as repr lines, for byte-compare."""
        return [repr(entry) for entry in self.executed]


class AckLedger:
    """Tracks acknowledged writes and verifies they survive recovery.

    ``record`` is called the moment a write is acked (the system said
    "durable"); ``verify`` is called after kills and restarts with a
    reader function mapping the recorded key to the recovered value.
    """

    def __init__(self):
        self._acked: dict[tuple[str, object], object] = {}

    def record(self, system: str, key: object, value: object) -> None:
        self._acked[(system, key)] = value

    def __len__(self) -> int:
        return len(self._acked)

    def acked(self, system: str) -> dict[object, object]:
        """The acked ``{key: value}`` map for one system — the
        ground-truth side of a declared audit constraint (the ledger is
        "produced", the recovered store is "consumed")."""
        return {key: value for (sys_name, key), value in self._acked.items()
                if sys_name == system}

    def verify(self, system: str,
               reader: Callable[[object], object]) -> list[str]:
        """Read every acked key of ``system`` back; returns violations.

        The reader raises or returns a different value ⇒ acked-write
        loss, the one thing DESIGN.md §9 forbids outright.
        """
        violations = []
        for (sys_name, key), expected in sorted(self._acked.items(),
                                                key=lambda item: repr(item[0])):
            if sys_name != system:
                continue
            try:
                actual = reader(key)
            except Exception as exc:  # noqa: BLE001 - any failure is a loss
                violations.append(
                    f"{system}: acked key {key!r} unreadable after "
                    f"recovery: {type(exc).__name__}: {exc}")
                continue
            if actual != expected:
                violations.append(
                    f"{system}: acked key {key!r} recovered as "
                    f"{actual!r}, expected {expected!r}")
        return violations


class ScnAuditor:
    """Checks per-(node, partition) SCN streams for duplicates and gaps.

    Plug :meth:`hook` into ``EspressoStorageNode(on_apply=...)``; after
    a crash-recovery, call :meth:`observe_recovery` with the node's
    recovered ``partition_scn`` so catch-up resuming at ``scn + 1`` is
    not misread as a gap.
    """

    def __init__(self):
        self._last: dict[tuple[str, int], int] = {}
        self.violations: list[str] = []
        self.windows_seen = 0

    def hook(self, node: str) -> Callable[[int, int], None]:
        def on_apply(partition: int, scn: int) -> None:
            self.windows_seen += 1
            key = (node, partition)
            last = self._last.get(key, 0)
            if scn <= last:
                self.violations.append(
                    f"{node}: partition {partition} applied SCN {scn} "
                    f"twice (already at {last})")
            elif scn > last + 1:
                self.violations.append(
                    f"{node}: partition {partition} skipped SCNs "
                    f"{last + 1}..{scn - 1}")
            self._last[key] = scn
        return on_apply

    def observe_recovery(self, node: str,
                         partition_scn: dict[int, int]) -> None:
        """A recovered node resumes from its durable SCNs; re-baseline
        so the auditor demands density from there onward."""
        for partition, scn in sorted(partition_scn.items()):
            key = (node, partition)
            self._last[key] = max(self._last.get(key, 0), scn)


class ChunkLedger:
    """Checks that a crash-resumed backfill never re-reads a completed
    chunk (the migration checkpoint contract).

    Wire the two methods into ``ChunkedBackfill(on_chunk_read=...,
    on_chunk_complete=...)`` — the backfill takes plain callables, so
    migration code never imports this module.  A chunk is identified by
    its start position ``(table, after_key)``: re-reading the position
    that was *in flight* at a crash is legal (it never completed, and
    its upserts are idempotent), but re-reading a position whose chunk
    completed means the coordinator resumed from a stale checkpoint and
    is repeating durable work.
    """

    def __init__(self):
        self._completed: set[tuple[str, str]] = set()
        self.reads = 0
        self.completions = 0
        self.violations: list[str] = []

    def _position(self, table: str, after_key: object) -> tuple[str, str]:
        return (table, repr(after_key))

    def on_read(self, table: str, after_key: object) -> None:
        self.reads += 1
        if self._position(table, after_key) in self._completed:
            self.violations.append(
                f"{table}: chunk after {after_key!r} read again after "
                "completing — resume ignored a durable checkpoint")

    def on_complete(self, table: str, after_key: object) -> None:
        self.completions += 1
        position = self._position(table, after_key)
        if position in self._completed:
            self.violations.append(
                f"{table}: chunk after {after_key!r} completed twice")
        self._completed.add(position)


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
