"""A seeded day in the life of the stream-processing tier.

One simulated "day" of diurnal traffic drives both shipped stream
jobs end to end:

* profile-view events (viewer-keyed) flow through the **Who Viewed
  Your Profile** job — repartition by viewee, windowed counters,
  serving API;
* a socialgraph-derived connection log plus activity events flow
  through the **feed fan-out** job — join, fan-out, per-member
  inboxes.

Traffic follows a sinusoidal day curve (:class:`DiurnalRate`), and —
when ``fail=True`` — a :class:`FaultPlan` kills one container of each
job at the peak and restarts it later.  Everything (clock, disk,
generators, schedule) is seeded, so a failure day and a clean day are
twins: the scenario's state fingerprints must match byte for byte,
which is exactly what the chaos suite asserts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import MessageSet
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan, offsets_within_watermark
from repro.socialgraph.graph import PartitionedSocialGraph
from repro.streams import (
    JobCoordinator,
    StreamContainer,
    encode_stream_message,
    route_key,
)
from repro.streams.apps import (
    FeedService,
    WhoViewedYourProfileService,
    feed_fanout_job,
    who_viewed_your_profile_job,
)
from repro.streams.state import encode_record
from repro.workloads.generators import (
    ActivityEventGenerator,
    DiurnalRate,
    ProfileViewEventGenerator,
)
from repro.zookeeper import ZooKeeperServer


@dataclass
class ScenarioResult:
    """Everything a test (or twin-run comparison) needs from one day."""

    seed: int
    failed: bool
    events_produced: dict[str, int]
    fault_trace: list[str] = field(default_factory=list)
    # "job/stage:partition/store" -> canonical state bytes (ascii JSON)
    state_fingerprints: dict[str, str] = field(default_factory=dict)
    top_profiles: list[tuple[str, int]] = field(default_factory=list)
    sample_inbox: list[dict] = field(default_factory=list)
    tasks_recovered_from_snapshot: int = 0
    changelog_mutations_replayed: int = 0
    duplicates_dropped: int = 0
    offset_violations: list[str] = field(default_factory=list)
    # stores whose cached records differ from a fresh encode of items()
    stale_record_stores: list[str] = field(default_factory=list)


class _World:
    """The simulated estate: one Kafka cluster, two jobs, six containers."""

    def __init__(self, seed: int, partitions: int, day_seconds: float,
                 containers_per_job: int):
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=seed)
        self.zookeeper = ZooKeeperServer()
        self.cluster = KafkaCluster(
            3, "/kafka", zookeeper=self.zookeeper, clock=self.clock,
            partitions_per_topic=partitions, segment_bytes=32 * 1024,
            disk=self.disk)
        for topic in ("profile-views", "activity", "connections"):
            self.cluster.create_topic(topic, partitions=partitions)
        self.wvyp_spec = who_viewed_your_profile_job(
            partitions, window_s=day_seconds / 24.0)
        self.feed_spec = feed_fanout_job(partitions)
        self.coordinators = {
            "wvyp": JobCoordinator(self.wvyp_spec, self.cluster,
                                   self.zookeeper),
            "feed": JobCoordinator(self.feed_spec, self.cluster,
                                   self.zookeeper),
        }
        self.containers: dict[str, StreamContainer] = {}
        for job, spec in (("wvyp", self.wvyp_spec),
                          ("feed", self.feed_spec)):
            fleet = []
            for i in range(containers_per_job):
                name = f"{job}-{i}"
                container = StreamContainer(
                    name, spec, self.cluster, self.zookeeper, self.clock,
                    self.disk.scope(name), "/state",
                    snapshot_interval_commits=4)
                self.containers[name] = container
                fleet.append(container)
            self.coordinators[job].deploy(fleet)

    def job_of(self, container: str) -> str:
        return container.rsplit("-", 1)[0]

    def run_cycles(self, commit: bool = True) -> int:
        handled = 0
        for name in sorted(self.containers):
            container = self.containers[name]
            if container.alive:
                handled += container.poll()
                if commit:
                    container.commit()
        return handled

    def drain(self, max_rounds: int = 200) -> None:
        """Cycle until every live container's lag is zero."""
        for _ in range(max_rounds):
            self.run_cycles()
            if all(not c.alive or c.lag() == 0
                   for c in self.containers.values()):
                return
        raise ConfigurationError("scenario failed to drain input lag")


def _produce(world: _World, staged: dict, topic: str, key: str,
             value: dict, timestamp: float) -> None:
    partition = route_key(key, len(world.cluster.topic_layout(topic)))
    staged.setdefault((topic, partition), []).append(
        encode_stream_message(key, value, timestamp))


def _flush_staged(world: _World, staged: dict) -> None:
    for (topic, partition) in sorted(staged):
        broker = world.cluster.broker_for(topic, partition)
        broker.produce(topic, partition,
                       MessageSet.from_payloads(staged[(topic, partition)]))
    staged.clear()


def _bootstrap_graph(world: _World, num_members: int, seed: int) -> int:
    """Seeded connection log: every member connects to a few others.

    The edges go through :class:`PartitionedSocialGraph` first — it
    deduplicates and models the site's graph store — and each accepted
    edge becomes two member-keyed connection events, one per endpoint,
    so the fan-out stage sees the edge from both sides.
    """
    graph = PartitionedSocialGraph(num_partitions=world.wvyp_spec.partitions)
    rng = random.Random(seed + 1)
    staged: dict = {}
    events = 0
    for member in range(num_members):
        for _ in range(rng.randint(2, 5)):
            other = rng.randrange(num_members)
            if other == member or not graph.connect(member, other):
                continue
            a = ProfileViewEventGenerator.member_id(member)
            b = ProfileViewEventGenerator.member_id(other)
            _produce(world, staged, "connections", a, {"other": b}, 0.0)
            _produce(world, staged, "connections", b, {"other": a}, 0.0)
            events += 2
    _flush_staged(world, staged)
    return events


def run_day_in_the_life(seed: int = 0, partitions: int = 4,
                        containers_per_job: int = 3,
                        num_members: int = 300,
                        day_seconds: float = 720.0, tick_s: float = 30.0,
                        view_rate: tuple[float, float] = (2.0, 10.0),
                        activity_rate: tuple[float, float] = (1.0, 5.0),
                        commit_every_ticks: int = 2,
                        fail: bool = True) -> ScenarioResult:
    """Run one seeded day; returns the final observable state.

    ``fail=True`` schedules a mid-peak container kill (one per job) at
    55% of the day and a restart at 75%; ``fail=False`` runs the same
    seed with no faults.  Both runs drain fully before reporting, so
    their results are comparable.

    Containers poll every tick but commit only every
    ``commit_every_ticks`` ticks, so a mid-peak kill lands on
    processed-but-uncommitted state — the kill loses real work, forces
    reprocessing and duplicate re-emission, and thereby exercises the
    repartition dedupe rather than a trivially clean cut.
    """
    if commit_every_ticks < 1:
        raise ConfigurationError("commit_every_ticks must be >= 1")
    world = _World(seed, partitions, day_seconds, containers_per_job)
    view_gen = ProfileViewEventGenerator(num_members, seed=seed + 2)
    act_gen = ActivityEventGenerator(num_members, seed=seed + 3)
    views = DiurnalRate(view_rate[0], view_rate[1], day_seconds)
    activity = DiurnalRate(activity_rate[0], activity_rate[1], day_seconds)
    counts = {"connections": _bootstrap_graph(world, num_members, seed),
              "profile-views": 0, "activity": 0}
    # fold the whole connection log into fan-out state before traffic
    # starts: the join is then independent of poll interleaving, which
    # keeps failure-day and clean-day inboxes byte-comparable
    world.drain()

    plan = FaultPlan(world.clock, world.disk)

    def kill_container(name: str) -> None:
        world.containers[name].kill()
        world.coordinators[world.job_of(name)].rebalance()

    def restart_container(name: str) -> None:
        world.containers[name].restart()
        world.coordinators[world.job_of(name)].rebalance()

    plan.on_kill_container(kill_container)
    plan.on_restart_container(restart_container)

    def make_tick(index: int):
        def tick() -> None:
            t0 = index * tick_s
            t1 = t0 + tick_s
            staged: dict = {}
            n_views = views.events_in(t0, t1)
            for j in range(n_views):
                ts = t0 + tick_s * j / n_views
                event = view_gen.next_event(timestamp=ts)
                _produce(world, staged, "profile-views", event["viewer"],
                         {"viewee": event["viewee"], "ts": ts}, ts)
            n_activity = activity.events_in(t0, t1)
            for j in range(n_activity):
                ts = t0 + tick_s * j / n_activity
                event = act_gen.next_event(timestamp=ts)
                actor = ProfileViewEventGenerator.member_id(
                    event["member_id"])
                _produce(world, staged, "activity", actor,
                         {"kind": event["event_type"],
                          "id": event["seq"]}, ts)
            _flush_staged(world, staged)
            counts["profile-views"] += n_views
            counts["activity"] += n_activity
            world.run_cycles(commit=(index + 1) % commit_every_ticks == 0)
        return tick

    ticks = int(day_seconds / tick_s)
    for i in range(ticks):
        plan.call(at=(i + 1) * tick_s, label=f"tick-{i + 1:03d}",
                  fn=make_tick(i))
    if fail:
        kill_at = round(0.55 * day_seconds, 6)
        restart_at = round(0.75 * day_seconds, 6)
        for job in ("wvyp", "feed"):
            plan.kill_container(at=kill_at, container=f"{job}-1")
            plan.restart_container(at=restart_at, container=f"{job}-1")
    plan.run(until=day_seconds)
    world.drain()

    result = ScenarioResult(seed=seed, failed=fail, events_produced=counts,
                            fault_trace=plan.trace_lines())
    offsets: dict[tuple[str, int], int] = {}
    for name in sorted(world.containers):
        container = world.containers[name]
        if not container.alive:
            continue
        for key in sorted(container.tasks):
            task = container.tasks[key]
            job = world.job_of(name)
            for store_name in sorted(task.stores):
                label = f"{job}/{task.task_id}/{store_name}"
                store = task.stores[store_name]
                result.state_fingerprints[label] = store.fingerprint(
                    exclude_prefix="__seen/").decode()
                if store.records() != [encode_record(key, value)
                                       for key, value in store.items()]:
                    result.stale_record_stores.append(label)
            if task.recovered_from_snapshot:
                result.tasks_recovered_from_snapshot += 1
            result.changelog_mutations_replayed += task.replayed_mutations
            result.duplicates_dropped += task.duplicates_dropped
            offsets.update(task.input_offsets)
    result.offset_violations = offsets_within_watermark(
        offsets, lambda topic, partition: world.cluster.broker_for(
            topic, partition).log(topic, partition).high_watermark)

    wvyp_fleet = [world.containers[f"wvyp-{i}"]
                  for i in range(containers_per_job)]
    feed_fleet = [world.containers[f"feed-{i}"]
                  for i in range(containers_per_job)]
    profile_service = WhoViewedYourProfileService(
        world.coordinators["wvyp"], wvyp_fleet)
    feed_service = FeedService(world.coordinators["feed"], feed_fleet)
    result.top_profiles = [
        (ProfileViewEventGenerator.member_id(rank),
         profile_service.total_views(
             ProfileViewEventGenerator.member_id(rank)))
        for rank in range(10)]
    result.sample_inbox = feed_service.inbox(
        ProfileViewEventGenerator.member_id(0))
    return result
