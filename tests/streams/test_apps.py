"""The two shipped applications: WVYP counters and feed fan-out."""

import random
import tracemalloc
from bisect import bisect_right

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError, NodeUnavailableError
from repro.common.metrics import MetricsRegistry
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import Message, MessageSet
from repro.simnet.disk import SimDisk
from repro.streams import (
    JobCoordinator,
    KeyedStateStore,
    StreamContainer,
    encode_stream_message,
    route_key,
)
from repro.streams.apps import (
    INBOX_CAP,
    ConnectionFanoutTask,
    FeedService,
    InboxTask,
    ProfileViewCounterTask,
    ViewRouterTask,
    WhoViewedYourProfileService,
    _rank,
    feed_fanout_job,
    who_viewed_your_profile_job,
)
from repro.streams.state import decode_json, decode_record, encode_json, \
    load_snapshot, write_snapshot
from repro.streams.task import SEEN_PREFIX, Envelope, MessageCollector, \
    TaskContext
from repro.workloads import ProfileViewEventGenerator
from repro.zookeeper import ZooKeeperServer


def make_context(stage: str, stores: dict[str, KeyedStateStore]
                 ) -> TaskContext:
    return TaskContext(stage, 0, stores, SimClock(), MetricsRegistry())


def envelope(key: str, value: object, timestamp: float = 0.0,
             topic: str = "in") -> Envelope:
    return Envelope(topic=topic, partition=0, offset=0, next_offset=1,
                    key=key, value=value, timestamp=timestamp)


# -- unit: task logic -------------------------------------------------------

def test_view_router_rekeys_by_viewee():
    task = ViewRouterTask("out")
    collector = MessageCollector()
    task.process(envelope("viewer-1", {"viewee": "member-9", "ts": 4.5},
                          timestamp=4.5), collector)
    assert collector.drain() == [
        ("out", "member-9", {"viewer": "viewer-1", "ts": 4.5})]


def test_counter_windows_by_event_time_not_arrival():
    task = ProfileViewCounterTask(window_s=10.0)
    views = KeyedStateStore("views")
    task.init(make_context("count-views", {"views": views}))
    collector = MessageCollector()
    for ts in (1.0, 9.0, 11.0):
        task.process(envelope("m", {"viewer": "v", "ts": ts}), collector)
    assert views.get("m:w00000000") == 2
    assert views.get("m:w00000001") == 1
    assert views.get("m:total") == 3


def test_counter_rejects_nonpositive_window():
    with pytest.raises(ConfigurationError):
        ProfileViewCounterTask(window_s=0)


def test_fanout_folds_connections_then_fans_activity():
    task = ConnectionFanoutTask("out")
    graph = KeyedStateStore("graph")
    task.init(make_context("fanout", {"graph": graph}))
    collector = MessageCollector()
    task.process(envelope("a", {"other": "c"}), collector)
    task.process(envelope("a", {"other": "b"}), collector)
    task.process(envelope("a", {"other": "b"}), collector)   # duplicate edge
    assert collector.drain() == []
    assert graph.get("conn:a") == ["b", "c"]                 # sorted, deduped

    task.process(envelope("a", {"kind": "post", "id": 7}, timestamp=3.0),
                 collector)
    entry = {"actor": "a", "kind": "post", "id": 7, "ts": 3.0}
    assert collector.drain() == [("out", "b", entry), ("out", "c", entry)]


def test_fanout_without_connections_emits_nothing():
    task = ConnectionFanoutTask("out")
    task.init(make_context("fanout", {"graph": KeyedStateStore("graph")}))
    collector = MessageCollector()
    task.process(envelope("loner", {"kind": "post", "id": 1}), collector)
    assert collector.drain() == []


def inbox_task(store: KeyedStateStore | None = None
               ) -> tuple[InboxTask, KeyedStateStore]:
    store = KeyedStateStore("inbox") if store is None else store
    task = InboxTask()
    task.init(make_context("inbox", {"inbox": store}))
    return task, store


def activity(i: int, ts: float) -> dict:
    return {"actor": "a", "kind": "k", "id": i, "ts": ts}


def test_inbox_sorts_by_event_time_and_caps():
    task, _ = inbox_task()
    collector = MessageCollector()
    for i in range(INBOX_CAP + 10):
        # deliver in reverse event-time order: storage must sort anyway
        ts = float(INBOX_CAP + 10 - i)
        task.process(envelope("m", activity(i, ts)), collector)
    entries = task.entries("m")
    assert len(entries) == INBOX_CAP
    assert [e["ts"] for e in entries] == sorted(e["ts"] for e in entries)
    assert entries[0]["ts"] == 11.0   # the 10 oldest were evicted
    assert entries[-1] == activity(0, 60.0)


def test_inbox_order_is_arrival_independent():
    entries = [activity(i, float(i % 5)) for i in range(12)]
    boxes = []
    for ordering in (entries, list(reversed(entries))):
        task, _ = inbox_task()
        collector = MessageCollector()
        for entry in ordering:
            task.process(envelope("m", entry), collector)
        boxes.append(task.entries("m"))
    assert len(boxes[0]) == 12
    assert boxes[0] == boxes[1]


def test_inbox_restores_from_snapshot_and_changelog_suffix():
    """A fresh task over a store rebuilt from a snapshot image plus the
    changelog records drained after it serves the same inboxes, in the
    same order, as the task that wrote them — evictions included."""
    task, store = inbox_task()
    collector = MessageCollector()
    for i in range(INBOX_CAP + 5):
        task.process(envelope(f"m{i % 2}", activity(i, float(-i))),
                     collector)
    store.drain()
    disk = SimDisk(clock=SimClock(), seed=0)
    write_snapshot(disk, "/s/inbox.snapshot", "inbox", store.records(), 7)
    for i in range(INBOX_CAP + 5, 2 * INBOX_CAP + 20):
        task.process(envelope(f"m{i % 2}", activity(i, float(i % 9))),
                     collector)
    suffix = store.drain()
    restored = KeyedStateStore("inbox")
    assert load_snapshot(disk, "/s/inbox.snapshot", restored) == 7
    restored.restore(suffix)
    fresh, _ = inbox_task(restored)
    for member in ("m0", "m1"):
        assert len(task.entries(member)) == INBOX_CAP
        assert fresh.entries(member) == task.entries(member)


def test_append_to_full_inbox_drains_one_entry_and_one_tombstone():
    """The cost of an append is per entry, not per inbox: exactly two
    records (the new entry and the evicted one's tombstone), of the
    same size however full the inbox is."""
    drained = {}
    for fill in (INBOX_CAP, 3 * INBOX_CAP):
        task, store = inbox_task()
        collector = MessageCollector()
        for i in range(1000, 1000 + fill):     # equal-width ids
            task.process(envelope("m", activity(i, float(i))), collector)
        store.drain()
        task.process(envelope("m", activity(9999, 1e6)), collector)
        records = store.drain()
        assert [decode_record(r)[0] for r in records] == [
            "m/a/9999", f"m/a/{1000 + fill - INBOX_CAP}"]
        assert decode_record(records[1])[1] is None      # the tombstone
        drained[fill] = sum(map(len, records))
    assert drained[INBOX_CAP] == drained[3 * INBOX_CAP]


def test_redelivered_entry_is_stored_once():
    """Delivered twice past a lost dedupe mark, one ``(actor, id)``
    leaves one entry and no second record."""
    task, store = inbox_task()
    collector = MessageCollector()
    task.process(envelope("m", activity(7, 3.0)), collector)
    assert len(store.drain()) == 1
    task.process(envelope("m", activity(7, 3.0)), collector)
    assert store.drain() == []
    assert task.entries("m") == [activity(7, 3.0)]


def test_inbox_order_and_ranks_follow_the_store_through_evictions():
    """The census row for the inbox order: after every step of a seeded
    walk — appends, redeliveries, evictions and a re-``init`` over the
    same store — each member's key list is its stored entries sorted by
    ``_rank``, its time list holds those entries' own ``ts`` objects in
    the same order, and neither exceeds ``INBOX_CAP``."""
    rng = random.Random(29)
    task, store = inbox_task()
    collector = MessageCollector()
    members = ("m0", "m1", "m2")
    longest = 0
    for step in range(900):
        value = {"actor": f"a{rng.randrange(4)}", "kind": "k",
                 "id": rng.randrange(120), "ts": float(rng.randrange(300))}
        task.process(envelope(rng.choice(members), value), collector)
        if step == 450:
            task, _ = inbox_task(store)         # a restart's rebuild
        for member in members:
            stored = sorted((_rank(entry), key) for key, entry
                            in store.items() if key.startswith(member + "/"))
            assert task._order.get(member, []) == [k for _, k in stored]
            times = task._times.get(member, [])
            assert times == [r[0] for r, _ in stored]
            entries = dict(store.items())
            assert all(ts is entries[k][0]
                       for ts, k in zip(times, task._order.get(member, [])))
            longest = max(longest, len(task._order.get(member, [])))
    assert longest == INBOX_CAP
    assert store.deletes > 0                    # evictions really ran


class RankListInboxTask(InboxTask):
    """The inbox as it was with a rank tuple per entry: a ``_ranks``
    list beside the key list, bisected on every insert.  The reference
    the time-list task must match entry for entry and record for
    record."""

    def init(self, context: TaskContext) -> None:
        self.inbox = context.store("inbox")
        self._order: dict[str, list[str]] = {}
        self._ranks: dict[str, list[tuple]] = {}
        entries = [(_rank(entry), key) for key, entry in self.inbox.items()
                   if not key.startswith(SEEN_PREFIX)]
        entries.sort()
        for rank, key in entries:
            _, actor, id_ = rank
            member = key[:-len(f"/{actor}/{id_}")]
            self._order.setdefault(member, []).append(key)
            self._ranks.setdefault(member, []).append(rank)

    def process(self, envelope: Envelope,
                collector: MessageCollector) -> None:
        value = envelope.value
        key = f"{envelope.key}/{value['actor']}/{value['id']}"
        if key in self.inbox:
            return
        entry = [value["ts"], value["actor"], value["id"], value["kind"]]
        rank = _rank(entry)
        order = self._order.setdefault(envelope.key, [])
        ranks = self._ranks.setdefault(envelope.key, [])
        if len(order) >= INBOX_CAP and rank < ranks[0]:
            return
        self.inbox.put(key, entry)
        at = bisect_right(ranks, rank)
        ranks.insert(at, rank)
        order.insert(at, key)
        if len(order) > INBOX_CAP:
            del ranks[0]
            self.inbox.delete(order.pop(0))


def started(cls: type[InboxTask], store: KeyedStateStore) -> InboxTask:
    task = cls()
    task.init(make_context("inbox", {"inbox": store}))
    return task


@pytest.mark.parametrize("seed", range(6))
def test_the_time_list_inbox_matches_the_rank_list_reference(seed):
    """Seeded walks with heavy ``ts`` ties (int and float times that
    compare equal), int and str ids, redeliveries, evictions and
    re-``init``s over the stores: the task and the reference keep equal
    store items, serve equal inboxes and make the same puts and
    deletes, with every drain's records byte-equal."""
    rng = random.Random(seed)
    members = [f"m{i}" for i in range(4)]
    delivered: list[tuple[str, dict]] = []
    tasks = [started(cls, KeyedStateStore("inbox"))
             for cls in (InboxTask, RankListInboxTask)]
    collector = MessageCollector()
    for step in range(1500):
        if delivered and rng.random() < 0.15:
            member, value = rng.choice(delivered)         # redelivery
        else:
            ts = rng.randrange(40)
            value = {"actor": f"a{rng.randrange(5)}",
                     "kind": rng.choice(("post", "like")),
                     "id": rng.choice((int, str))(rng.randrange(60)),
                     "ts": float(ts) if rng.random() < 0.5 else ts}
            member = rng.choice(members)
            delivered.append((member, value))
        for task in tasks:
            task.process(envelope(member, dict(value)), collector)
        if step % 300 == 299:                             # a restart
            tasks = [started(type(task), task.inbox) for task in tasks]
        if step % 50 == 0:
            assert tasks[0].inbox.drain() == tasks[1].inbox.drain()
    new, reference = (task.inbox for task in tasks)
    assert new.items() == reference.items()
    assert (new.puts, new.deletes) == (reference.puts, reference.deletes)
    assert new.deletes > 0                                # evictions ran
    for member in members:
        assert tasks[0].entries(member) == tasks[1].entries(member)
        assert len(tasks[0].entries(member)) == INBOX_CAP


def test_an_inbox_entry_retains_at_most_480_bytes():
    """DESIGN §17's inbox row: 5 000 entries decoded from JSON across
    200 members retain at most 480 B each after a drain — the key, the
    entry, its record and a few references.  Actor and kind are interned
    and the order keeps each entry's own ``ts``, so no decoded string
    or rank tuple is held per entry (a rank tuple per entry held
    about 660 B)."""
    rng = random.Random(5)
    payloads = [encode_json({
        "actor": ProfileViewEventGenerator.member_id(rng.randrange(1000)),
        "kind": rng.choice(("login", "like", "share", "comment")),
        "id": i, "ts": rng.random() * 86400.0}) for i in range(5000)]
    members = [ProfileViewEventGenerator.member_id(m) for m in range(200)]
    task, store = inbox_task()
    collector = MessageCollector()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, payload in enumerate(payloads):
            task.process(envelope(members[i % 200], decode_json(payload)),
                         collector)
        store.drain()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == 5000
    assert retained / 5000 <= 480


# -- end to end: topology + serving ----------------------------------------

class Deployment:
    def __init__(self, spec, input_topics: list[str], partitions: int = 2):
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=21)
        self.zookeeper = ZooKeeperServer()
        self.cluster = KafkaCluster(1, "/kafka", zookeeper=self.zookeeper,
                                    clock=self.clock,
                                    partitions_per_topic=partitions,
                                    disk=self.disk)
        for topic in input_topics:
            self.cluster.create_topic(topic, partitions=partitions)
        self.spec = spec
        self.coordinator = JobCoordinator(spec, self.cluster, self.zookeeper)
        self.containers = [
            StreamContainer(f"c{i}", spec, self.cluster, self.zookeeper,
                            self.clock, self.disk.scope(f"c{i}"), "/state")
            for i in range(2)]
        self.coordinator.deploy(self.containers)

    def produce(self, topic: str, key: str, value: object,
                timestamp: float = 0.0) -> None:
        partition = route_key(key, len(self.cluster.topic_layout(topic)))
        broker = self.cluster.broker_for(topic, partition)
        broker.produce(topic, partition, MessageSet(
            [Message(encode_stream_message(key, value, timestamp))]))
        broker.log(topic, partition).flush()

    def drain(self) -> None:
        for _ in range(20):
            if sum(c.run_cycle() for c in self.containers if c.alive) == 0:
                return
        raise AssertionError("deployment did not drain")


def test_wvyp_end_to_end_counts_through_repartition():
    deployment = Deployment(
        who_viewed_your_profile_job(2, window_s=10.0), ["profile-views"])
    for viewer, ts in (("v1", 1.0), ("v2", 2.0), ("v1", 12.0)):
        deployment.produce("profile-views", viewer,
                           {"viewee": "m-42", "ts": ts}, ts)
    deployment.produce("profile-views", "v1", {"viewee": "m-7", "ts": 3.0},
                       3.0)
    deployment.drain()
    service = WhoViewedYourProfileService(deployment.coordinator,
                                          deployment.containers)
    assert service.total_views("m-42") == 3
    assert service.views_by_window("m-42") == {0: 2, 1: 1}
    assert service.total_views("m-7") == 1
    assert service.total_views("m-unseen") == 0


def wvyp_event_latency(cadence_s: float) -> tuple[float, float]:
    """(mean, max) sim seconds from a profile view to its count, over
    2 000 views, with containers polling every ``cadence_s``."""
    deployment = Deployment(
        who_viewed_your_profile_job(4, window_s=3600.0), ["profile-views"],
        partitions=4)
    clock = deployment.clock
    generator = ProfileViewEventGenerator(num_members=500, seed=7)
    for _ in range(40):
        for _ in range(50):
            event = generator.next_event(timestamp=clock.now())
            deployment.produce("profile-views", event["viewer"],
                               {"viewee": event["viewee"], "ts": event["ts"]},
                               event["ts"])
        clock.advance(cadence_s)
        for container in deployment.containers:
            container.run_cycle()
    while sum(c.run_cycle() for c in deployment.containers):
        clock.advance(cadence_s)
    latency = [task.metrics.histogram("e2e_latency_s")
               for container in deployment.containers
               for (stage, _), task in container.tasks.items()
               if stage == "count-views"]
    assert sum(h.count for h in latency) == 2000
    return (round(sum(h.mean * h.count for h in latency) / 2000, 3),
            round(max(h.max for h in latency), 3))


def test_exp_s1_event_latency_tracks_the_poll_cadence_not_processing_cost():
    assert [wvyp_event_latency(cadence) for cadence in (0.1, 0.5, 2.0)] \
        == [(0.071, 0.1), (0.355, 0.5), (1.419, 2.0)]


def test_wvyp_service_raises_when_owner_is_down():
    deployment = Deployment(
        who_viewed_your_profile_job(2, window_s=10.0), ["profile-views"])
    service = WhoViewedYourProfileService(deployment.coordinator,
                                          deployment.containers)
    for container in deployment.containers:
        container.kill()
    with pytest.raises(NodeUnavailableError):
        service.total_views("m-1")


def test_feed_end_to_end_joins_and_fans_out():
    deployment = Deployment(feed_fanout_job(2), ["connections", "activity"])
    deployment.produce("connections", "alice", {"other": "bob"})
    deployment.produce("connections", "alice", {"other": "carol"})
    deployment.drain()               # fold the graph before activity
    deployment.produce("activity", "alice", {"kind": "post", "id": 1}, 5.0)
    deployment.produce("activity", "alice", {"kind": "like", "id": 2}, 6.0)
    deployment.drain()
    service = FeedService(deployment.coordinator, deployment.containers)
    bob_inbox = service.inbox("bob")
    assert [(e["kind"], e["ts"]) for e in bob_inbox] == [("post", 5.0),
                                                         ("like", 6.0)]
    assert service.inbox("carol") == bob_inbox
    assert service.inbox("alice") == []   # no one connects *to* alice
