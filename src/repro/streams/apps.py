"""The two paper-adjacent stream applications (SNIPPETS.md §11, §4).

**Who Viewed Your Profile** — the paper's marquee Kafka consumer: a
real-time counter of profile views per member.  The activity stream is
partitioned by *viewer* (the actor who generated the event), so the
job first repartitions by *viewee* and then keeps windowed counters in
changelog-backed state, queryable through a serving facade that routes
by the job's own placement.

**Feed fan-out** — connection events joined against activity events:
the fan-out stage folds connection events into a local adjacency store
and, for each activity event, emits one inbox entry per connection of
the actor; the inbox stage stores each entry under its own key and caps
every member's inbox, so a commit logs one small record per new entry
(and a tombstone per eviction) instead of the whole inbox.  The hop
between the two stages is a repartition topic keyed by *recipient*, and
its consumer-side dedupe is what turns crash redelivery into effective
exactly-once for inbox state.

Both jobs are pure topology + task logic; everything operational
(recovery, placement, chaos) is the generic machinery underneath.
"""

from __future__ import annotations

from bisect import bisect_right
from sys import intern

from repro.common.errors import ConfigurationError, NodeUnavailableError
from repro.streams.job import StreamJobSpec
from repro.streams.task import SEEN_PREFIX, Envelope, MessageCollector, \
    StreamTask, TaskContext, route_key

#: inbox entries kept per member (oldest evicted first)
INBOX_CAP = 50


# -- Who Viewed Your Profile ------------------------------------------------

class ViewRouterTask(StreamTask):
    """Repartition hop: viewer-keyed events out, viewee-keyed events in.

    The event value carries the viewee; re-emitting under that key
    moves the event to the partition whose counter task owns the
    member.  Stateless — redelivery is absorbed downstream.
    """

    def __init__(self, output_topic: str):
        self.output_topic = output_topic

    def process(self, envelope: Envelope,
                collector: MessageCollector) -> None:
        viewee = envelope.value["viewee"]
        collector.send(self.output_topic, viewee,
                       {"viewer": envelope.key, "ts": envelope.timestamp})


class ProfileViewCounterTask(StreamTask):
    """Windowed per-member view counters in the ``views`` store.

    Keys: ``<member>:w<window>`` per time window and ``<member>:total``
    — both absolute counts, so every changelog record is an idempotent
    upsert and crash replay converges byte-for-byte.
    """

    def __init__(self, window_s: float = 3600.0):
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.window_s = window_s

    def init(self, context: TaskContext) -> None:
        self.views = context.store("views")

    def process(self, envelope: Envelope,
                collector: MessageCollector) -> None:
        member = envelope.key
        window = int(envelope.value["ts"] // self.window_s)
        window_key = f"{member}:w{window:08d}"
        self.views.put(window_key, (self.views.get(window_key) or 0) + 1)
        total_key = f"{member}:total"
        self.views.put(total_key, (self.views.get(total_key) or 0) + 1)


def who_viewed_your_profile_job(partitions: int,
                                input_topic: str = "profile-views",
                                window_s: float = 3600.0) -> StreamJobSpec:
    """Topology: input → repartition by viewee → windowed counters."""
    spec = StreamJobSpec("wvyp", partitions)
    by_viewee = spec.repartition("by-viewee")
    spec.stage("route-views", [input_topic],
               lambda: ViewRouterTask(by_viewee))
    spec.stage("count-views", [by_viewee],
               lambda: ProfileViewCounterTask(window_s), stores=["views"])
    return spec


class WhoViewedYourProfileService:
    """Serving facade: route a member query to the task that owns it.

    The router is a Helix spectator — it reads the coordinator's
    external view, exactly how the paper's serving layers find
    partition owners (§IV.B 'Service discovery').
    """

    def __init__(self, coordinator, containers):
        self.coordinator = coordinator
        self._containers = {c.name: c for c in containers}

    def _owning_task(self, member: str):
        partition = route_key(member, self.coordinator.spec.partitions)
        owner = self.coordinator.owner_of("count-views", partition)
        if owner is None:
            raise NodeUnavailableError(
                f"count-views:{partition} is unplaced")
        container = self._containers[owner]
        if not container.alive:
            raise NodeUnavailableError(f"container {owner} is down")
        return container.task("count-views", partition)

    def total_views(self, member: str) -> int:
        task = self._owning_task(member)
        return int(task.stores["views"].get(f"{member}:total") or 0)

    def views_by_window(self, member: str) -> dict[int, int]:
        task = self._owning_task(member)
        prefix = f"{member}:w"
        return {int(key[len(prefix):]): int(count)
                for key, count in task.stores["views"].range(prefix)}


# -- feed fan-out -----------------------------------------------------------

class ConnectionFanoutTask(StreamTask):
    """Join connections against activity; fan out to recipients.

    Both inputs are keyed by the acting member, so they are
    co-partitioned: this task sees every connection event *and* every
    activity event of the members it owns.  Connection events fold
    into the ``graph`` store (``conn:<member>`` → sorted list);
    activity events fan out one inbox entry per connection, keyed by
    recipient, onto the repartition topic.
    """

    def __init__(self, output_topic: str):
        self.output_topic = output_topic

    def init(self, context: TaskContext) -> None:
        self.graph = context.store("graph")

    def process(self, envelope: Envelope,
                collector: MessageCollector) -> None:
        member = envelope.key
        if "other" in envelope.value:                  # connection event
            key = f"conn:{member}"
            connections = list(self.graph.get(key) or [])
            other = envelope.value["other"]
            if other not in connections:
                connections.append(other)
                self.graph.put(key, sorted(connections))
            return
        entry = {"actor": member,                      # activity event
                 "kind": envelope.value["kind"],
                 "id": envelope.value["id"],
                 "ts": envelope.timestamp}
        for connection in self.graph.get(f"conn:{member}") or []:
            collector.send(self.output_topic, connection, entry)


def _rank(entry: list) -> tuple:
    """An inbox entry's place: (event time, actor, id)."""
    return entry[0], entry[1], str(entry[2])


class InboxTask(StreamTask):
    """Capped per-member inbox: ordered by event time, oldest evicted.

    Each entry is its own key, ``<member>/<actor>/<id>`` — ``(actor,
    id)`` names one activity event — holding ``[ts, actor, id, kind]``,
    so an append is one small idempotent upsert and an eviction one
    tombstone, whatever the inbox holds.  A redelivered entry is
    already present and changes nothing.  Entries are kept sorted by
    :func:`_rank` — (event time, actor, id) — rather than arrival
    order: after a crash, re-emitted entries interleave differently
    with other producers' traffic in the repartition topic, and
    event-time order makes the stored inbox independent of that
    interleaving.  The order is an in-memory key list per member,
    rebuilt from the store at ``init`` (which runs after recovery has
    restored it), with each entry's own ``ts`` object in a list beside
    it: an insert bisects the times and computes a neighbour's full
    rank only where the times tie.  A key fixes its ``(actor, id)``, so
    no two entries of a member share a rank.  Actor and kind strings
    are interned, so an entry costs its key, its record and a few
    references.
    """

    def init(self, context: TaskContext) -> None:
        self.inbox = context.store("inbox")
        self._order: dict[str, list[str]] = {}   # member -> oldest first
        self._times: dict[str, list] = {}        # member -> ts per key
        entries = []
        for key, entry in self.inbox.items():
            if not key.startswith(SEEN_PREFIX):
                entry[1] = intern(entry[1])
                entry[3] = intern(entry[3])
                entries.append((_rank(entry), key))
        entries.sort()
        for (ts, actor, id_), key in entries:
            member = key[:-len(f"/{actor}/{id_}")]
            self._order.setdefault(member, []).append(key)
            self._times.setdefault(member, []).append(ts)

    def process(self, envelope: Envelope,
                collector: MessageCollector) -> None:
        value = envelope.value
        key = f"{envelope.key}/{value['actor']}/{value['id']}"
        if key in self.inbox:
            return
        ts = value["ts"]
        entry = [ts, intern(value["actor"]), value["id"],
                 intern(value["kind"])]
        order = self._order.setdefault(envelope.key, [])
        times = self._times.setdefault(envelope.key, [])
        if len(order) >= INBOX_CAP and ts <= times[0]:
            if ts < times[0] or _rank(entry) < self._rank_at(order, 0):
                return      # older than everything a full inbox keeps
        self.inbox.put(key, entry)
        at = bisect_right(times, ts)
        while at and times[at - 1] == ts \
                and self._rank_at(order, at - 1) > _rank(entry):
            at -= 1                     # a tie: the full rank decides
        times.insert(at, ts)
        order.insert(at, key)
        if len(order) > INBOX_CAP:
            del times[0]
            self.inbox.delete(order.pop(0))

    def _rank_at(self, order: list[str], index: int) -> tuple:
        """The :func:`_rank` of the member's ``index``-th stored entry."""
        return _rank(self.inbox.get(order[index]))

    def entries(self, member: str) -> list[dict]:
        """The member's inbox, oldest first, as served."""
        return [{"actor": actor, "kind": kind, "id": id_, "ts": ts}
                for ts, actor, id_, kind in map(
                    self.inbox.get, self._order.get(member, ()))]


def feed_fanout_job(partitions: int,
                    connections_topic: str = "connections",
                    activity_topic: str = "activity") -> StreamJobSpec:
    """Topology: (connections ⋈ activity) → repartition by recipient →
    capped inboxes."""
    spec = StreamJobSpec("feed", partitions)
    to_recipient = spec.repartition("to-recipient")
    spec.stage("fanout", [activity_topic, connections_topic],
               lambda: ConnectionFanoutTask(to_recipient), stores=["graph"])
    spec.stage("inbox", [to_recipient], InboxTask, stores=["inbox"])
    return spec


class FeedService:
    """Serving facade for per-member inboxes, routed like WVYP."""

    def __init__(self, coordinator, containers):
        self.coordinator = coordinator
        self._containers = {c.name: c for c in containers}

    def inbox(self, member: str) -> list[dict]:
        partition = route_key(member, self.coordinator.spec.partitions)
        owner = self.coordinator.owner_of("inbox", partition)
        if owner is None:
            raise NodeUnavailableError(f"inbox:{partition} is unplaced")
        container = self._containers[owner]
        if not container.alive:
            raise NodeUnavailableError(f"container {owner} is down")
        return container.task("inbox", partition).task.entries(member)
