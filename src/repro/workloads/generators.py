"""Synthetic workloads standing in for LinkedIn production traffic.

The paper gives us the distributions to match:

* "Both stores have a Zipfian distribution for their data size" —
  Company Follow (§II.C); keys are member/company ids.
* "Our largest read-write cluster has about 60% reads and 40% writes"
  (§II.C) — the default :class:`RequestMix`.
* Kafka ingests "user activity events corresponding to logins,
  page-views, clicks, 'likes', sharing, comments, and search queries"
  (§V) — :class:`ActivityEventGenerator` emits that shape.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import ConfigurationError


class ZipfGenerator:
    """Draws integers in ``[0, n)`` with Zipfian popularity.

    Uses the inverse-CDF method over precomputed cumulative weights,
    which is exact and fast for the n (<= a few million) used in the
    benches.  ``theta`` is the skew: 0 is uniform, ~0.99 is the YCSB
    default, higher is more skewed.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0):
        if n <= 0:
            raise ConfigurationError("ZipfGenerator needs n > 0")
        if theta < 0:
            raise ConfigurationError("theta must be non-negative")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        weights = [1.0 / ((i + 1) ** theta) for i in range(n)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc / total)
        self._cumulative = cumulative

    def next(self) -> int:
        """Sample one rank (0 = most popular)."""
        u = self._rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next()


def zipf_sizes(count: int, min_bytes: int = 64, max_bytes: int = 65536,
               theta: float = 1.0, seed: int = 0) -> list[int]:
    """Value sizes with a Zipfian distribution (most values small, a
    long tail of large ones), matching the Company Follow stores."""
    if min_bytes <= 0 or max_bytes < min_bytes:
        raise ConfigurationError("require 0 < min_bytes <= max_bytes")
    rng = random.Random(seed)
    sizes = []
    for _ in range(count):
        # Pareto-like draw bounded to [min, max]
        u = rng.random()
        size = int(min_bytes / max(u ** (1.0 / max(theta, 1e-9)), min_bytes / max_bytes))
        sizes.append(min(size, max_bytes))
    return sizes


@dataclass(frozen=True)
class RequestMix:
    """A read/write mix; the paper's flagship cluster is 60/40."""

    read_fraction: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be within [0, 1]")

    def is_read(self, rng: random.Random) -> bool:
        return rng.random() < self.read_fraction


@dataclass(frozen=True)
class Operation:
    """One generated request."""

    kind: str          # "get" or "put"
    key: bytes
    value: bytes | None = None


class KeyValueWorkload:
    """Closed-loop key-value request stream with Zipfian key popularity."""

    def __init__(self, num_keys: int = 10_000, mix: RequestMix | None = None,
                 value_bytes: int = 1024,
                 value_size_zipfian: bool = False, seed: int = 0):
        self.num_keys = num_keys
        self.mix = mix or RequestMix()
        self._rng = random.Random(seed)
        self._keys = ZipfGenerator(num_keys, theta=0.99, seed=seed + 1)
        if value_size_zipfian:
            self._sizes = zipf_sizes(num_keys, min_bytes=64,
                                     max_bytes=max(value_bytes, 64), seed=seed + 2)
        else:
            self._sizes = [value_bytes] * num_keys
        self._payload = bytes(range(256)) * (max(self._sizes) // 256 + 1)

    def key_for_rank(self, rank: int) -> bytes:
        return b"member:%012d" % rank

    def operations(self, count: int) -> Iterator[Operation]:
        for _ in range(count):
            rank = self._keys.next()
            key = self.key_for_rank(rank)
            if self.mix.is_read(self._rng):
                yield Operation("get", key)
            else:
                size = self._sizes[rank]
                yield Operation("put", key, self._payload[:size])

    def preload(self, count: int | None = None) -> Iterator[Operation]:
        """Puts covering the first ``count`` keys, for store warm-up."""
        count = self.num_keys if count is None else count
        for rank in range(count):
            yield Operation("put", self.key_for_rank(rank),
                            self._payload[:self._sizes[rank]])


_EVENT_TYPES = ("login", "page_view", "click", "like", "share",
                "comment", "search_query")
_PAGES = ("profile", "feed", "jobs", "groups", "companies", "inbox", "pymk")


class ActivityEventGenerator:
    """User-activity events of the kind LinkedIn feeds through Kafka.

    Events are dicts (serialized by the caller) with a member id drawn
    Zipfian (active users dominate), an event type, a page, and a small
    free-text payload for search queries — enough structure for the
    compression benchmark (EXP-K2) to be honest about redundancy.
    """

    def __init__(self, num_members: int = 100_000, seed: int = 0,
                 server_name: str = "app-01"):
        self._members = ZipfGenerator(num_members, theta=0.9, seed=seed)
        self._rng = random.Random(seed + 1)
        self.server_name = server_name
        self._sequence = 0

    def next_event(self, timestamp: float = 0.0) -> dict:
        self._sequence += 1
        kind = self._rng.choice(_EVENT_TYPES)
        event = {
            "seq": self._sequence,
            "member_id": self._members.next(),
            "event_type": kind,
            "page": self._rng.choice(_PAGES),
            "timestamp": timestamp,
            "server": self.server_name,
        }
        if kind == "search_query":
            words = [self._random_word() for _ in range(self._rng.randint(1, 4))]
            event["query"] = " ".join(words)
        return event

    def events(self, count: int, timestamp: float = 0.0) -> Iterator[dict]:
        for _ in range(count):
            yield self.next_event(timestamp)

    def _random_word(self) -> str:
        length = self._rng.randint(3, 10)
        return "".join(self._rng.choice(string.ascii_lowercase) for _ in range(length))


class ProfileViewEventGenerator:
    """Profile-view events: who looked at whose profile (§V, SNIPPETS
    §11 "Who Viewed Your Profile").

    Viewers and viewees are drawn from *independent* Zipfians: a small
    set of heavy browsers generates most views, and a (different) small
    set of prominent members receives most of them — which is what
    makes the per-viewee counters skewed and the repartition hop
    worthwhile.  Self-views are redrawn.  Events are keyed by viewer
    (the actor), matching how activity pipelines partition at the
    source; counting per viewee is the stream job's repartition to do.
    """

    def __init__(self, num_members: int = 10_000, seed: int = 0):
        if num_members < 2:
            raise ConfigurationError("need at least two members")
        self.num_members = num_members
        self._viewers = ZipfGenerator(num_members, theta=0.9, seed=seed)
        self._viewees = ZipfGenerator(num_members, theta=1.1, seed=seed + 1)
        self._sequence = 0

    @staticmethod
    def member_id(rank: int) -> str:
        return f"member:{rank:08d}"

    def next_event(self, timestamp: float = 0.0) -> dict:
        self._sequence += 1
        viewer = self._viewers.next()
        viewee = self._viewees.next()
        while viewee == viewer:
            viewee = self._viewees.next()
        return {
            "seq": self._sequence,
            "viewer": self.member_id(viewer),
            "viewee": self.member_id(viewee),
            "ts": timestamp,
        }

    def events(self, count: int, timestamp: float = 0.0) -> Iterator[dict]:
        for _ in range(count):
            yield self.next_event(timestamp)


class DiurnalRate:
    """Sinusoidal day-shaped arrival rate, integrated deterministically.

    ``rate(t)`` swings between ``trough_rate`` (at t = 0, "midnight")
    and ``peak_rate`` (at half the period, "midday").  Event counts per
    tick come from the closed-form integral of the rate plus a
    fractional carry — no RNG, so the same tick schedule always yields
    the same event counts, which is what lets the chaos suite run a
    failure day and a clean day off one seed and compare bytes.
    """

    def __init__(self, trough_rate: float, peak_rate: float,
                 day_seconds: float = 86_400.0):
        if trough_rate < 0 or peak_rate < trough_rate:
            raise ConfigurationError(
                "need 0 <= trough_rate <= peak_rate")
        if day_seconds <= 0:
            raise ConfigurationError("day_seconds must be positive")
        self.trough_rate = trough_rate
        self.peak_rate = peak_rate
        self.day_seconds = day_seconds
        self._carry = 0.0

    def rate_at(self, t: float) -> float:
        """Instantaneous events/second at simulated time ``t``."""
        swing = (self.peak_rate - self.trough_rate) / 2.0
        phase = 2.0 * math.pi * t / self.day_seconds
        return self.trough_rate + swing * (1.0 - math.cos(phase))

    def _integral(self, t: float) -> float:
        """∫ rate dt from 0 to ``t`` (closed form)."""
        swing = (self.peak_rate - self.trough_rate) / 2.0
        omega = 2.0 * math.pi / self.day_seconds
        return ((self.trough_rate + swing) * t
                - swing * math.sin(omega * t) / omega)

    def events_in(self, t0: float, t1: float) -> int:
        """Whole events arriving in ``[t0, t1)``; the fractional
        remainder carries into the next tick, so counts over a day sum
        to the integral of the curve with no drift."""
        if t1 < t0:
            raise ConfigurationError("events_in needs t1 >= t0")
        self._carry += self._integral(t1) - self._integral(t0)
        count = int(self._carry)
        self._carry -= count
        return count
