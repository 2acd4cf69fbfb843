"""``streams-day``: a seeded day in the life of the stream tier.

The same estate and schedule as ``repro.workloads.run_day_in_the_life``
— one Kafka cluster, the Who-Viewed-Your-Profile and feed fan-out jobs,
three containers each, diurnal traffic, a mid-peak kill of one container
per job at 55% of the day and its restart at 75%, poll every tick and
commit every second tick — rebuilt here from the public pieces, because
the harness needs the world in hand: per-tick wall latency, freshness
read through the serving API, and a crash/restart round afterwards.

Stream tasks, their state stores, changelogs and ZooKeeper checkpoints
dominate; Kafka itself is a small share, which is exactly why a
Kafka-only gain must *not* move this workload.  An operation is one
input event (a profile view or an activity event).  A driver step is one
commit cycle — two ticks, the second of which commits — so that steps
are alike: timing single ticks would put the median step time on the
boundary between the ticks that commit and the ticks that do not.
"""

from __future__ import annotations

import random
from collections import deque

from repro.common.clock import SimClock
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import Message, MessageSet
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import offsets_within_watermark
from repro.streams import (
    JobCoordinator,
    StreamContainer,
    encode_stream_message,
    route_key,
)
from repro.streams.apps import (
    WhoViewedYourProfileService,
    feed_fanout_job,
    who_viewed_your_profile_job,
)
from repro.workloads import (
    ActivityEventGenerator,
    DiurnalRate,
    ProfileViewEventGenerator,
)
from repro.zookeeper import ZooKeeperServer

from perfbench.workloads.base import Workload, disk_live_bytes, scaled

PARTITIONS = 4
CONTAINERS_PER_JOB = 3
MEMBERS = 1000
TICK_S = 7.5
VIEW_RATE = (2.0, 10.0)
ACTIVITY_RATE = (1.0, 5.0)
TICKS_PER_CYCLE = 2     # poll every tick, commit at the end of a cycle
PROBES = 16     # most-viewed members whose serving-API totals are watched
JOBS = ("wvyp", "feed")
member_id = ProfileViewEventGenerator.member_id


class StreamsDay(Workload):
    name = "streams-day"
    CYCLES = 112

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.steps = scaled(self.CYCLES, scale, floor=8)
        ticks = self.steps * TICKS_PER_CYCLE
        day_seconds = ticks * TICK_S
        self.window_s = day_seconds / 24.0
        self.kill_tick = round(0.55 * ticks)
        self.restart_tick = round(0.75 * ticks)
        rng = random.Random(seed)
        self.user_bytes = 0
        self.connections = self._connection_log(random.Random(seed + 1))
        self.user_bytes = 0     # count the measured phase's input only
        views = ProfileViewEventGenerator(MEMBERS, seed=seed + 2)
        activity = ActivityEventGenerator(MEMBERS, seed=seed + 3)
        view_rate = DiurnalRate(*VIEW_RATE, day_seconds)
        activity_rate = DiurnalRate(*ACTIVITY_RATE, day_seconds)
        self.expected_views: dict[str, int] = {}
        # per tick: staged message sets, input events, probe view times
        self.ticks: list[tuple[dict, int, list[tuple[str, float]]]] = []
        probes = {member_id(rank) for rank in range(PROBES)}
        for i in range(ticks):
            t0 = i * TICK_S
            staged: dict = {}
            watched = []
            n_views = view_rate.events_in(t0, t0 + TICK_S)
            for ts in sorted(t0 + rng.random() * TICK_S
                             for _ in range(n_views)):
                event = views.next_event(timestamp=ts)
                self._stage(staged, "profile-views", event["viewer"],
                            {"viewee": event["viewee"], "ts": ts}, ts)
                viewee = event["viewee"]
                self.expected_views[viewee] = \
                    self.expected_views.get(viewee, 0) + 1
                if viewee in probes:
                    watched.append((viewee, ts))
            n_activity = activity_rate.events_in(t0, t0 + TICK_S)
            for ts in sorted(t0 + rng.random() * TICK_S
                             for _ in range(n_activity)):
                event = activity.next_event(timestamp=ts)
                self._stage(staged, "activity", member_id(event["member_id"]),
                            {"kind": event["event_type"],
                             "id": event["seq"]}, ts)
            self.ticks.append((staged, n_views + n_activity, watched))
        self.cluster = None
        self.fingerprint_pairs: list[tuple[dict, dict]] = []

    def _stage(self, staged: dict, topic: str, key: str, value: dict,
               ts: float) -> None:
        payload = encode_stream_message(key, value, ts)
        self.user_bytes += len(payload)
        staged.setdefault((topic, route_key(key, PARTITIONS)), []).append(
            Message(payload))

    def _connection_log(self, rng: random.Random) -> dict:
        """Every member connects to a few others; each accepted edge is
        two member-keyed connection events, one per endpoint."""
        staged: dict = {}
        edges = set()
        for member in range(MEMBERS):
            for _ in range(rng.randint(2, 5)):
                other = rng.randrange(MEMBERS)
                edge = (min(member, other), max(member, other))
                if other == member or edge in edges:
                    continue
                edges.add(edge)
                a, b = member_id(member), member_id(other)
                self._stage(staged, "connections", a, {"other": b}, 0.0)
                self._stage(staged, "connections", b, {"other": a}, 0.0)
        return staged

    # -- world ------------------------------------------------------------

    def setup(self) -> None:
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=self.seed)
        zookeeper = ZooKeeperServer()
        self.cluster = KafkaCluster(
            3, "kafka", zookeeper=zookeeper, clock=self.clock,
            partitions_per_topic=PARTITIONS, segment_bytes=32 * 1024,
            disk=self.disk)
        for topic in ("profile-views", "activity", "connections"):
            self.cluster.create_topic(topic, partitions=PARTITIONS)
        specs = {"wvyp": who_viewed_your_profile_job(
                     PARTITIONS, window_s=self.window_s),
                 "feed": feed_fanout_job(PARTITIONS)}
        self.coordinators = {
            job: JobCoordinator(specs[job], self.cluster, zookeeper)
            for job in JOBS}
        self.containers: dict[str, StreamContainer] = {}
        for job in JOBS:
            fleet = []
            for c in range(CONTAINERS_PER_JOB):
                name = f"{job}-{c}"
                fleet.append(StreamContainer(
                    name, specs[job], self.cluster, zookeeper, self.clock,
                    self.disk.scope(name), "state",
                    snapshot_interval_commits=4))
                self.containers[name] = fleet[-1]
            self.coordinators[job].deploy(fleet)
        self.views_api = WhoViewedYourProfileService(
            self.coordinators["wvyp"],
            [self.containers[f"wvyp-{c}"]
             for c in range(CONTAINERS_PER_JOB)])
        # fold the whole connection log into fan-out state before traffic
        self._produce(self.connections)
        self._drain()
        self.pending = {member_id(rank): deque() for rank in range(PROBES)}
        self.seen = dict.fromkeys(self.pending, 0)

    def teardown(self) -> None:
        self.cluster = None

    def _produce(self, staged: dict) -> None:
        for topic, partition in sorted(staged):
            self.cluster.broker_for(topic, partition).produce(
                topic, partition, MessageSet(staged[(topic, partition)]))

    def _run_cycles(self, commit: bool) -> None:
        for name in sorted(self.containers):
            container = self.containers[name]
            if container.alive:
                container.poll()
                if commit:
                    container.commit()

    def _drain(self) -> None:
        for _ in range(200):
            self._run_cycles(commit=True)
            if all(not c.alive or c.lag() == 0
                   for c in self.containers.values()):
                return
        raise RuntimeError("stream jobs failed to drain their input")

    def _watch_probes(self) -> None:
        """Freshness through the serving API: a view counts as visible
        once the member's served total has grown to include it."""
        now = self.clock.now()
        for member, times in self.pending.items():
            if not times:
                continue
            total = self.views_api.total_views(member)
            for _ in range(min(len(times), total - self.seen[member])):
                self.sim_ms.append((now - times.popleft()) * 1e3)
            self.seen[member] = max(self.seen[member], total)

    # -- measured phase ---------------------------------------------------

    def step(self, i: int) -> None:
        for tick in range(i * TICKS_PER_CYCLE, (i + 1) * TICKS_PER_CYCLE):
            staged, events, watched = self.ticks[tick]
            self.clock.advance(TICK_S)
            if tick == self.kill_tick or tick == self.restart_tick:
                for job in JOBS:
                    victim = self.containers[f"{job}-1"]
                    if tick == self.kill_tick:
                        victim.kill()
                    else:
                        victim.restart()
                    self.coordinators[job].rebalance()
            self._produce(staged)
            for member, ts in watched:
                self.pending[member].append(ts)
            self._run_cycles(commit=(tick + 1) % TICKS_PER_CYCLE == 0)
            if tick + 1 == len(self.ticks):
                self._drain()
            self._watch_probes()
            self.attempted += events
            self.ops += events

    def _fingerprints(self) -> dict[str, bytes]:
        return {f"{name.rsplit('-', 1)[0]}/{task.task_id}/{store}":
                task.stores[store].fingerprint(exclude_prefix="__seen/")
                for name, container in sorted(self.containers.items())
                for _, task in sorted(container.tasks.items())
                for store in sorted(task.stores)}

    def recover(self) -> None:
        """Kill every container, restart them all, re-place the tasks
        (snapshot load + changelog replay) and drain."""
        before = self._fingerprints()
        for container in self.containers.values():
            container.kill()
        for container in self.containers.values():
            container.restart()
        for job in JOBS:
            self.coordinators[job].rebalance()
        self._drain()
        self.views_api.total_views(member_id(0))    # it serves again
        self.fingerprint_pairs.append((before, self._fingerprints()))

    # -- correctness ------------------------------------------------------

    def check(self) -> list[str]:
        failures = []
        for member, expected in sorted(self.expected_views.items()):
            served = self.views_api.total_views(member)
            if served != expected:
                failures.append(f"{member}: {served} views served, "
                                f"{expected} generated")
        offsets = {}
        for container in self.containers.values():
            for task in container.tasks.values():
                offsets.update(task.input_offsets)
        failures.extend(offsets_within_watermark(
            offsets, lambda topic, partition: self.cluster.broker_for(
                topic, partition).log(topic, partition).high_watermark))
        for before, after in self.fingerprint_pairs:
            if before != after:
                failures.append("state after the restart differs from the "
                                "state before the kill")
        return failures

    def counts(self) -> dict[str, float]:
        tasks = [task for container in self.containers.values()
                 for task in container.tasks.values()]
        return {
            "user_bytes": self.user_bytes,
            "simnet.disk.live_bytes": disk_live_bytes(
                self.disk, [f"broker-{b}" for b in range(3)]
                + sorted(self.containers)),
            "streams.task.dup_dropped":
                sum(task.duplicates_dropped for task in tasks),
            "streams.state.keys": sum(
                len(store) for task in tasks
                for store in task.stores.values()),
            "streams.changelog.replayed":
                sum(task.replayed_mutations for task in tasks),
        }
