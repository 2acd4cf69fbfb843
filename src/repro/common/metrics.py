"""Latency histograms, counters and throughput meters.

The paper reports operational numbers — "10K queries per second at peak
with average latency of 3 ms", "average latency of less than 1 ms" —
so the benchmark harness needs a small, dependency-free metrics layer
that can produce averages and percentiles comparable to those claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, InvalidRequestError


class LatencyHistogram:
    """Fixed-precision histogram of latency samples (seconds).

    Uses logarithmic bucketing between ``min_value`` and ``max_value``
    so memory stays constant no matter how many samples are recorded,
    while percentile error stays within one bucket width (~5%).
    """

    BUCKETS_PER_DECADE = 48

    def __init__(self, min_value: float = 1e-7, max_value: float = 100.0):
        if min_value <= 0 or max_value <= min_value:
            raise ConfigurationError("require 0 < min_value < max_value")
        self._min = min_value
        self._log_min = math.log(min_value)
        decades = math.log10(max_value / min_value)
        self._bucket_count = max(1, int(math.ceil(decades * self.BUCKETS_PER_DECADE))) + 1
        self._scale = self._bucket_count / (math.log(max_value) - self._log_min)
        self._counts = [0] * (self._bucket_count + 1)
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._min_seen = math.inf

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise InvalidRequestError("latency cannot be negative")
        self._total += 1
        self._sum += seconds
        self._max = max(self._max, seconds)
        self._min_seen = min(self._min_seen, seconds)
        self._counts[self._bucket_index(seconds)] += 1

    def _bucket_index(self, seconds: float) -> int:
        if seconds < self._min:
            return 0
        idx = int((math.log(seconds) - self._log_min) * self._scale) + 1
        return min(idx, self._bucket_count)

    def _bucket_upper_bound(self, idx: int) -> float:
        if idx <= 0:
            return self._min
        return math.exp(self._log_min + idx / self._scale)

    @property
    def count(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        return self._sum / self._total if self._total else 0.0

    @property
    def max(self) -> float:
        return self._max

    @property
    def min(self) -> float:
        return 0.0 if self._total == 0 else self._min_seen

    def percentile(self, p: float) -> float:
        """Return the latency at percentile ``p`` (0 < p <= 100)."""
        if not 0 < p <= 100:
            raise InvalidRequestError("percentile must be in (0, 100]")
        if self._total == 0:
            return 0.0
        target = math.ceil(self._total * p / 100.0)
        seen = 0
        for idx, count in enumerate(self._counts):
            seen += count
            if seen >= target:
                if idx >= self._bucket_count:
                    return self._max  # overflow bucket: clamp to observed max
                return min(self._bucket_upper_bound(idx), self._max)
        return self._max

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self._total),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self._max,
        }


@dataclass
class Counter:
    """Monotonic event counter."""

    value: int = 0

    def increment(self, by: int = 1) -> None:
        if by < 0:
            raise InvalidRequestError("counters only move forward")
        self.value += by


class CounterFamily:
    """A family of counters distinguished by label sets — the scrapable
    shape for per-constraint violation/mismatch counts (one family
    ``audit.violations``, one child per ``constraint=…,kind=…``).

    Label order never matters: children are keyed by the sorted label
    items, so ``labels(a=1, b=2)`` and ``labels(b=2, a=1)`` are the same
    counter.
    """

    def __init__(self, name: str):
        if not name:
            raise ConfigurationError("a counter family needs a name")
        self.name = name
        self._children: dict[tuple[tuple[str, str], ...], Counter] = {}

    def labels(self, **labels: object) -> Counter:
        """The child counter for one label set (created on first use)."""
        if not labels:
            raise InvalidRequestError(
                f"family {self.name!r}: label a child or use a plain counter")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        if key not in self._children:
            self._children[key] = Counter()
        return self._children[key]

    def value(self, **labels: object) -> int:
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self._children.get(key)
        return child.value if child is not None else 0

    def total(self) -> int:
        return sum(child.value for child in self._children.values())

    def __len__(self) -> int:
        return len(self._children)

    def as_dict(self) -> dict[str, int]:
        """``{"k=v,k2=v2": count}`` with deterministic ordering."""
        out: dict[str, int] = {}
        for key in sorted(self._children):
            label_str = ",".join(f"{k}={v}" for k, v in key)
            out[label_str] = self._children[key].value
        return out


@dataclass
class Meter:
    """Throughput meter: events over an interval measured by a clock."""

    started_at: float
    events: int = 0
    bytes: int = 0

    def mark(self, events: int = 1, nbytes: int = 0) -> None:
        self.events += events
        self.bytes += nbytes

    def events_per_second(self, now: float) -> float:
        elapsed = now - self.started_at
        return self.events / elapsed if elapsed > 0 else 0.0

    def bytes_per_second(self, now: float) -> float:
        elapsed = now - self.started_at
        return self.bytes / elapsed if elapsed > 0 else 0.0


@dataclass
class MetricsRegistry:
    """Named metrics for one component, cheap enough to always enable."""

    histograms: dict[str, LatencyHistogram] = field(default_factory=dict)
    counters: dict[str, Counter] = field(default_factory=dict)
    families: dict[str, CounterFamily] = field(default_factory=dict)

    def histogram(self, name: str) -> LatencyHistogram:
        if name not in self.histograms:
            self.histograms[name] = LatencyHistogram()
        return self.histograms[name]

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter()
        return self.counters[name]

    def family(self, name: str) -> CounterFamily:
        if name not in self.families:
            self.families[name] = CounterFamily(name)
        return self.families[name]

    def snapshot(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for name, hist in self.histograms.items():
            out[name] = hist.summary()
        for name, counter in self.counters.items():
            out[name] = {"count": float(counter.value)}
        for name, family in self.families.items():
            for label_str, value in family.as_dict().items():
                out[f"{name}{{{label_str}}}"] = {"count": float(value)}
        return out


def percentile_of_sorted(sorted_samples: list[float], p: float) -> float:
    """Exact percentile of an already-sorted sample list (for benches)."""
    if not sorted_samples:
        return 0.0
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = max(0, math.ceil(len(sorted_samples) * p / 100.0) - 1)
    return sorted_samples[rank]
