"""The Databus relay (§III.C).

"The Relay captures changes in the source database, serializes them to
a common binary format and buffers those. ... The serialized events are
stored in a circular in-memory buffer that is used to serve events to
the Databus clients."

The relay provides:

* very low default serving latency: a poll is one bisect over the
  buffer's window index plus a copy of the events it is handed,
  O(log windows + events returned) however much history is retained
  (a filtered poll also tests every event from its position on);
* bounded buffering — old windows are evicted once capacity (bytes or
  events) is exceeded, after which lagging clients get
  :class:`SCNGoneError` and must bootstrap;
* an SCN index for "serve events from a given sequence number S": per
  buffer, the ascending window SCNs with the position of each window's
  first event (see :class:`EventBuffer`);
* server-side filtering (source and partition filters);
* fan-out to hundreds of consumers with no additional load on the
  source database — consumers only ever touch the relay.

Espresso's usage shards the binlog "into separate event buffers, one
per partition" (§IV.B); :class:`Relay` therefore manages named
:class:`EventBuffer` instances.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from typing import Callable

from repro.common.errors import ConfigurationError, SCNGoneError
from repro.common.overload import PRIORITY_LIVE, AdmissionController
from repro.common.serialization import RecordSchema, SchemaRegistry, encode_record
from repro.databus.events import DatabusEvent, EventFilter, events_from_transaction
from repro.sqlstore.binlog import BinlogTransaction
from repro.sqlstore.database import SqlDatabase

DEFAULT_BUFFER = "default"


class EventBuffer:
    """A circular in-memory buffer of complete transaction windows.

    Eviction is window-at-a-time so a window is never half-retained —
    partial transactions would break timeline consistency for readers.

    The SCN index is two parallel lists with one entry per window:
    ``_scns`` (ascending) and ``_starts``, the position of the window's
    first event in ``_events``, closed by one sentinel (the position
    after the last event) so window ``i`` is always
    ``_events[_starts[i]:_starts[i + 1]]``.  Eviction advances ``_head``
    past the oldest window; the dead prefix is cut away once it is as
    long as the live part, so an eviction costs O(1) amortised.
    """

    def __init__(self, max_events: int = 100_000,
                 max_bytes: int = 64 * 1024 * 1024):
        if max_events <= 0 or max_bytes <= 0:
            raise ConfigurationError("buffer capacity must be positive")
        self.max_events = max_events
        self.max_bytes = max_bytes
        self._events: list[DatabusEvent | None] = []   # None: evicted slot
        self._scns: list[int] = []
        self._starts: list[int] = [0]
        self._head = 0              # index of the oldest retained window
        self._bytes = 0
        self._evicted_through = 0   # highest SCN evicted
        self.events_appended = 0
        self.windows_appended = 0

    @property
    def oldest_scn(self) -> int | None:
        return self._scns[self._head] if self._head < len(self._scns) else None

    @property
    def newest_scn(self) -> int | None:
        return self._scns[-1] if self._head < len(self._scns) else None

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._events) - self._starts[self._head]

    def append_window(self, events: list[DatabusEvent]) -> None:
        """Append one transaction's events; evict old windows if full."""
        if not events:
            return
        scn = events[0].scn
        if any(e.scn != scn for e in events):
            raise ConfigurationError("a window must share one SCN")
        if not events[-1].end_of_window:
            raise ConfigurationError("window must end with end_of_window")
        newest = self.newest_scn
        if newest is not None and scn <= newest:
            raise ConfigurationError(
                f"windows must arrive in SCN order: {scn} after {newest}")
        self._events.extend(events)
        self._scns.append(scn)
        self._starts.append(len(self._events))
        for event in events:
            self._bytes += event.size_bytes
        self.events_appended += len(events)
        self.windows_appended += 1
        self._evict()

    def _evict(self) -> None:
        events, starts = self._events, self._starts
        while (len(events) - starts[self._head] > self.max_events
               or self._bytes > self.max_bytes):
            for position in range(starts[self._head], starts[self._head + 1]):
                self._bytes -= events[position].size_bytes
                events[position] = None   # free it before the cut
            self._evicted_through = self._scns[self._head]
            self._head += 1
        dead = starts[self._head]
        if dead and dead >= len(events) - dead:
            del events[:dead]
            del self._scns[:self._head]
            self._starts = [start - dead for start in starts[self._head:]]
            self._head = 0

    @property
    def evicted_through(self) -> int:
        """Highest SCN removed by honest capacity eviction.  Consumers
        behind this position get :class:`SCNGoneError` and bootstrap —
        eviction loses no data, it only moves where it is served from."""
        return self._evicted_through

    def _window_at(self, scn: int) -> int | None:
        """Index of the retained window committed at ``scn``."""
        i = bisect_left(self._scns, scn, self._head)
        return i if i < len(self._scns) and self._scns[i] == scn else None

    def contains_scn(self, scn: int) -> bool:
        """Whether the buffer still holds the window committed at
        ``scn`` — the blame engine's relay-stage interrogation."""
        return self._window_at(scn) is not None

    def drop_window(self, scn: int) -> int:
        """Silently remove the whole window committed at ``scn``.

        This is a *fault-injection hook* (see
        :class:`repro.audit.inject.ViolationInjector`), not an API a
        real relay has: unlike eviction it leaves ``_evicted_through``
        untouched, so a consumer polling past the gap gets no
        :class:`SCNGoneError` — its checkpoint skips the window without
        any error, exactly the silent-loss failure mode a consistency
        auditor exists to catch.  Returns the number of events removed.
        """
        i = self._window_at(scn)
        if i is None:
            return 0
        start, end = self._starts[i], self._starts[i + 1]
        self._bytes -= sum(e.size_bytes for e in self._events[start:end])
        del self._events[start:end]
        del self._scns[i]
        del self._starts[i]
        self._starts[i:] = [s - (end - start) for s in self._starts[i:]]
        return end - start

    def events_since(self, scn: int, event_filter: EventFilter | None = None,
                     max_events: int = 10_000) -> list[DatabusEvent]:
        """Events with SCN strictly greater than ``scn``.

        Only whole windows are returned (the last delivered event of
        each has ``end_of_window`` set), and a batch that has reached
        ``max_events`` stops only at a window boundary.  A filter is
        applied inside each window: when it rejects the window's
        closing event but accepts earlier ones, the last survivor is
        delivered as a re-closed copy, so accepted events are neither
        withheld nor merged into the next window.  Raises
        :class:`SCNGoneError` when the requested position has been
        evicted — the client must fall back to the bootstrap server.
        """
        if scn < self._evicted_through:
            raise SCNGoneError(
                f"SCN {scn} evicted; oldest retained window starts at "
                f"{self.oldest_scn}", oldest_retained=self.oldest_scn)
        first = bisect_right(self._scns, scn, self._head)
        if event_filter is None:
            stop = bisect_left(self._starts, self._starts[first] + max_events,
                               first, len(self._scns))
            return self._events[self._starts[first]:self._starts[stop]]
        out: list[DatabusEvent] = []
        for i in range(first, len(self._scns)):
            if len(out) >= max_events:
                break
            kept = [e for e in self._events[self._starts[i]:self._starts[i + 1]]
                    if event_filter(e)]
            if kept and not kept[-1].end_of_window:
                kept[-1] = replace(kept[-1], end_of_window=True)
            out += kept
        return out


class Relay:
    """A shared-nothing relay process managing named event buffers."""

    def __init__(self, name: str = "relay-1", max_events_per_buffer: int = 100_000,
                 admission: AdmissionController | None = None):
        self.name = name
        self._max_events = max_events_per_buffer
        self._buffers: dict[str, EventBuffer] = {}
        self.schemas = SchemaRegistry()
        self.requests_served = 0
        # admission control over the serving path: near-head tailing
        # polls are live-class, catch-up polls declare themselves bulk
        # (see DatabusClient), so a herd of lagging consumers sheds
        # before it can starve the tailing ones
        self.admission = admission

    # -- buffers -----------------------------------------------------------

    def buffer(self, name: str = DEFAULT_BUFFER) -> EventBuffer:
        if name not in self._buffers:
            self._buffers[name] = EventBuffer(self._max_events)
        return self._buffers[name]

    def buffer_names(self) -> list[str]:
        return sorted(self._buffers)

    # -- capture ---------------------------------------------------------------

    def register_schema(self, schema: RecordSchema) -> int:
        return self.schemas.register(schema)

    def _encode(self, table: str, row: dict) -> tuple[bytes, int]:
        schema = self.schemas.latest(table)
        if schema is None:
            raise ConfigurationError(f"relay has no schema for source {table!r}")
        return encode_record(schema, row), schema.version

    def capture_transaction(self, txn: BinlogTransaction,
                            buffer_name: str = DEFAULT_BUFFER,
                            route: Callable[[DatabusEvent], str] | None = None
                            ) -> list[DatabusEvent]:
        """Serialize one binlog transaction into the relay.

        With ``route`` set, events are sharded into per-partition
        buffers (Espresso's layout); each shard still closes its own
        window so per-buffer timeline consistency holds.
        """
        events = events_from_transaction(txn, self._encode)
        if route is None:
            self.buffer(buffer_name).append_window(events)
            return events
        shards: dict[str, list[DatabusEvent]] = {}
        for event in events:
            shards.setdefault(route(event), []).append(event)
        for shard_name, shard_events in shards.items():
            last = len(shard_events) - 1
            self.buffer(shard_name).append_window(
                [replace(e, end_of_window=(i == last))
                 for i, e in enumerate(shard_events)])
        return events

    # -- serving -------------------------------------------------------------------

    def stream_from(self, scn: int, buffer_name: str = DEFAULT_BUFFER,
                    event_filter: EventFilter | None = None,
                    max_events: int = 10_000,
                    priority: int = PRIORITY_LIVE) -> list[DatabusEvent]:
        if self.admission is not None:
            self.admission.admit(priority, what=f"stream {buffer_name}")
        self.requests_served += 1
        return self.buffer(buffer_name).events_since(scn, event_filter,
                                                     max_events)

    def drop_window(self, scn: int,
                    buffer_name: str = DEFAULT_BUFFER) -> int:
        """Fault-injection hook: silently drop one captured window (see
        :meth:`EventBuffer.drop_window`).  Returns events removed."""
        return self.buffer(buffer_name).drop_window(scn)

    def newest_scn(self, buffer_name: str = DEFAULT_BUFFER) -> int:
        existing = self._buffers.get(buffer_name)
        if existing is None or existing.newest_scn is None:
            return 0
        return existing.newest_scn


class capture_from_binlog:
    """A pull-mode capture adapter: tails a database binlog into a relay.

    "The Databus relay cluster ... pulls from a database, is stateless
    across restarts" (§III.D) — on (re)start it resumes from whatever
    the relay already holds.  Call :meth:`poll` to pull newly committed
    transactions; registration of table schemas happens lazily from the
    database's table definitions.
    """

    def __init__(self, database: SqlDatabase, relay: Relay,
                 route: Callable[[DatabusEvent], str] | None = None):
        from repro.databus.events import row_schema_for
        self.database = database
        self.relay = relay
        self.route = route
        for table_name in database.table_names():
            if relay.schemas.latest(table_name) is None:
                relay.register_schema(
                    row_schema_for(database.table(table_name).schema))
        self.captured_through = relay.newest_scn()

    def skip_to(self, scn: int) -> None:
        """Leave history at or below ``scn`` to someone else: the next
        poll pulls the transaction after it.  For a relay whose only
        consumer resumes at ``scn`` (nothing below a sole consumer's
        checkpoint can ever be served).  Forward only — windows the
        relay already holds must not be captured twice."""
        self.captured_through = max(self.captured_through, scn)

    def poll(self, max_transactions: int = 1000) -> int:
        """Pull committed transactions; returns how many were captured."""
        captured = 0
        for txn in self.database.binlog.read_from(self.captured_through):
            if captured >= max_transactions:
                break
            self.relay.capture_transaction(txn, route=self.route)
            self.captured_through = txn.scn
            captured += 1
        return captured
