"""Property-based invariants of the relay's circular event buffer."""

import random
from collections import deque
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import pytest

from repro.common.errors import SCNGoneError
from repro.databus.events import DatabusEvent
from repro.databus.relay import EventBuffer
from repro.sqlstore.binlog import ChangeKind


def window(scn: int, size: int) -> list[DatabusEvent]:
    return [DatabusEvent(scn, "t", ChangeKind.UPDATE, (i,), b"p" * 16,
                         end_of_window=(i == size - 1))
            for i in range(size)]


window_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(window_sizes, st.integers(4, 30))
def test_retained_suffix_is_contiguous_and_complete(sizes, capacity):
    buffer = EventBuffer(max_events=capacity)
    for scn, size in enumerate(sizes, start=1):
        buffer.append_window(window(scn, size))
    # whatever is retained: read it all from the oldest position
    oldest = buffer.oldest_scn
    if oldest is None:
        return
    events = buffer.events_since(oldest - 1)
    # 1. SCNs are non-decreasing and gap-free across windows
    scns = sorted({e.scn for e in events})
    assert scns == list(range(scns[0], scns[-1] + 1))
    # 2. every retained window is complete
    by_scn: dict[int, list[DatabusEvent]] = {}
    for event in events:
        by_scn.setdefault(event.scn, []).append(event)
    for scn, events_of_window in by_scn.items():
        assert len(events_of_window) == sizes[scn - 1]
        assert events_of_window[-1].end_of_window
    # 3. the newest window is always retained
    assert scns[-1] == len(sizes)


@settings(max_examples=60, deadline=None)
@given(window_sizes, st.integers(4, 30), st.integers(0, 45))
def test_reads_are_exact_suffixes_or_scngone(sizes, capacity, from_scn):
    buffer = EventBuffer(max_events=capacity)
    for scn, size in enumerate(sizes, start=1):
        buffer.append_window(window(scn, size))
    evicted_through = buffer._evicted_through
    if from_scn < evicted_through:
        with pytest.raises(SCNGoneError):
            buffer.events_since(from_scn)
        return
    events = buffer.events_since(from_scn)
    expected = [scn for scn in range(max(from_scn + 1, 1), len(sizes) + 1)]
    assert sorted({e.scn for e in events}) == expected


@settings(max_examples=40, deadline=None)
@given(window_sizes)
def test_capacity_never_exceeded_by_more_than_last_window(sizes):
    capacity = 6
    buffer = EventBuffer(max_events=capacity)
    for scn, size in enumerate(sizes, start=1):
        buffer.append_window(window(scn, size))
        # eviction may leave up to capacity events, plus however many a
        # single (oversized) window needs
        assert len(buffer) <= max(capacity, size)


# -- the index against the scan it replaced ------------------------------


class ScanBuffer:
    """Reference model: the pre-index ``EventBuffer``, which walked the
    whole retained deque on every call.  Its one difference from that
    code is the filter rule (a window's survivors are delivered
    re-closed, see ``events_since``), applied to both sides."""

    def __init__(self, max_events, max_bytes):
        self.max_events = max_events
        self.max_bytes = max_bytes
        self._events = deque()
        self.size_bytes = 0
        self.evicted_through = 0

    @property
    def oldest_scn(self):
        return self._events[0].scn if self._events else None

    @property
    def newest_scn(self):
        return self._events[-1].scn if self._events else None

    def __len__(self):
        return len(self._events)

    def append_window(self, events):
        for event in events:
            self._events.append(event)
            self.size_bytes += event.size_bytes
        while (len(self._events) > self.max_events
               or self.size_bytes > self.max_bytes):
            victim_scn = self._events[0].scn
            while self._events and self._events[0].scn == victim_scn:
                self.size_bytes -= self._events.popleft().size_bytes
            self.evicted_through = victim_scn

    def contains_scn(self, scn):
        return any(event.scn == scn for event in self._events)

    def drop_window(self, scn):
        removed = [event for event in self._events if event.scn == scn]
        self._events = deque(e for e in self._events if e.scn != scn)
        self.size_bytes -= sum(event.size_bytes for event in removed)
        return len(removed)

    def events_since(self, scn, event_filter=None, max_events=10_000):
        if scn < self.evicted_through:
            raise SCNGoneError("evicted", oldest_retained=self.oldest_scn)
        out, window = [], []
        for event in self._events:
            if event.scn <= scn:
                continue
            if not window and len(out) >= max_events:
                break  # stop only at a window boundary
            window.append(event)
            if event.end_of_window:
                kept = [e for e in window
                        if event_filter is None or event_filter(e)]
                if kept and not kept[-1].end_of_window:
                    kept[-1] = replace(kept[-1], end_of_window=True)
                out += kept
                window = []
        return out


# filters are chosen by what they do to a window whose keys are (0,),
# (1,), ...: keep all, reject the closing event of even-sized windows,
# keep only the first event, reject the first, reject everything
FILTERS = (
    None,
    lambda e: e.key[0] % 2 == 0,
    lambda e: e.key[0] == 0,
    lambda e: e.key[0] != 0,
    lambda e: False,
)

@pytest.mark.parametrize("seed", range(12))
def test_indexed_buffer_matches_the_reference_scan(seed):
    """A seeded walk over every operation, the same calls on both
    sides: equal answers, equal SCNGoneErrors, equal accounting."""
    rng = random.Random(seed)
    # odd seeds are bounded by bytes, even seeds by events
    max_events = rng.randint(3, 40) if seed % 2 == 0 else 10_000
    max_bytes = 1 << 30 if seed % 2 == 0 else rng.randint(200, 3000)
    indexed = EventBuffer(max_events=max_events, max_bytes=max_bytes)
    scan = ScanBuffer(max_events, max_bytes)
    scn = 0
    appended = {}    # id -> event: a delivered event not in here is a copy
    seen = {"events": 0, "reclosed": 0, "gone": 0, "dropped": 0}
    for _ in range(400):
        draw = rng.random()
        if draw < 0.45:
            scn += rng.choice((1, 1, 1, 2, 7))     # dense and sparse SCNs
            size = rng.randint(1, 4)
            events = [DatabusEvent(scn, "t", ChangeKind.UPDATE, (i,),
                                   b"p" * rng.randint(0, 60),
                                   end_of_window=(i == size - 1))
                      for i in range(size)]
            indexed.append_window(events)
            scan.append_window(events)
            appended.update((id(e), e) for e in events)
            continue
        # positions from just before the eviction point to past the head
        at = rng.randint(max(0, scan.evicted_through - 2), scn + 1)
        if draw < 0.50:
            dropped = scan.drop_window(at)
            assert indexed.drop_window(at) == dropped
            seen["dropped"] += dropped
        elif draw < 0.60:
            assert indexed.contains_scn(at) == scan.contains_scn(at)
        else:
            event_filter = rng.choice(FILTERS)
            limit = rng.choice((0, 1, 2, 5, 10_000))
            try:
                expected = scan.events_since(at, event_filter, limit)
            except SCNGoneError as gone:
                with pytest.raises(SCNGoneError) as raised:
                    indexed.events_since(at, event_filter, limit)
                assert raised.value.oldest_retained == gone.oldest_retained
                seen["gone"] += 1
            else:
                got = indexed.events_since(at, event_filter, limit)
                assert got == expected
                seen["events"] += len(got)
                seen["reclosed"] += sum(id(e) not in appended for e in got)
        assert (len(indexed), indexed.size_bytes, indexed.oldest_scn,
                indexed.newest_scn, indexed.evicted_through) == (
            len(scan), scan.size_bytes, scan.oldest_scn,
            scan.newest_scn, scan.evicted_through)
    # the walk reached what it is for
    assert scan.evicted_through > 0
    assert all(seen.values()), seen


class CountedEvent(DatabusEvent):
    """An event that counts how often its ``scn`` is read."""

    scn_reads = 0

    def __getattribute__(self, name):
        if name == "scn":
            CountedEvent.scn_reads += 1
        return super().__getattribute__(name)


def scn_reads_of_head_and_empty_poll(windows: int) -> int:
    buffer = EventBuffer(max_events=windows)
    for scn in range(1, windows + 1):
        buffer.append_window([CountedEvent(scn, "t", ChangeKind.UPDATE, (0,),
                                           b"p", end_of_window=True)])
    CountedEvent.scn_reads = 0
    assert len(buffer.events_since(windows - 1)) == 1
    assert buffer.events_since(windows) == []
    return CountedEvent.scn_reads


def test_a_poll_costs_what_it_returns_not_what_is_retained():
    """Shape guard, no timing: a head poll and an empty poll look at the
    same number of events whether 1 000 or 50 000 windows are retained
    (the scan it replaced read ``scn`` once per retained event)."""
    small = scn_reads_of_head_and_empty_poll(1_000)
    large = scn_reads_of_head_and_empty_poll(50_000)
    assert abs(large - small) <= 16   # a logarithm, not 49 000


# -- server-side filters and window boundaries ---------------------------


def keyed_window(scn: int, *keys: str) -> list[DatabusEvent]:
    return [DatabusEvent(scn, "t", ChangeKind.UPDATE, (key,), b"p",
                         end_of_window=(key == keys[-1])) for key in keys]


def filtered_windows(buffer: EventBuffer, event_filter) -> list[tuple]:
    """(scn, keys) of each delivered window, cut at ``end_of_window``."""
    windows, keys = [], []
    for event in buffer.events_since(0, event_filter):
        keys.append(event.key[0])
        if event.end_of_window:
            windows.append((event.scn, keys))
            keys = []
    assert keys == [], "the batch ends inside a window"
    return windows


def test_filter_rejecting_a_closing_event_keeps_the_window_apart():
    buffer = EventBuffer()
    buffer.append_window(keyed_window(1, "a", "b"))
    buffer.append_window(keyed_window(2, "c"))
    buffer.append_window(keyed_window(3, "a2", "b2"))
    # judging completeness from the filtered output instead would give
    # [(2, ["a", "c"])]: "a" inside SCN 2's window and "a2" withheld
    assert filtered_windows(
        buffer, lambda e: not e.key[0].startswith("b")) == [
            (1, ["a"]), (2, ["c"]), (3, ["a2"])]
    # ... and here nothing at all
    assert filtered_windows(
        buffer, lambda e: e.key[0].startswith("a")) == [
            (1, ["a"]), (3, ["a2"])]
    # the buffer's own events are not edited by a re-closed delivery
    assert [e.end_of_window for e in buffer.events_since(0)] == [
        False, True, True, False, True]
