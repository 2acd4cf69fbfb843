"""Shared substrate: clocks, errors, hashing, vector clocks, schemas, metrics."""

from repro.common.atomic import atomic_section
from repro.common.clock import Clock, SimClock, WallClock
from repro.common.metrics import Counter, LatencyHistogram, Meter, MetricsRegistry
from repro.common.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    call_with_retries,
)
from repro.common.ring import HashRing, Node, Zone, build_balanced_ring, hash_key
from repro.common.serialization import (
    Field,
    RecordSchema,
    SchemaRegistry,
    check_compatible,
    decode_record,
    decode_with_resolution,
    encode_record,
)
from repro.common.vectorclock import (
    Occurred,
    VectorClock,
    frontier_of,
    merge_frontier,
)
from repro.common.wal import WriteAheadLog

__all__ = [
    "atomic_section",
    "Clock",
    "SimClock",
    "WallClock",
    "Counter",
    "LatencyHistogram",
    "Meter",
    "MetricsRegistry",
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "call_with_retries",
    "HashRing",
    "Node",
    "Zone",
    "build_balanced_ring",
    "hash_key",
    "Field",
    "RecordSchema",
    "SchemaRegistry",
    "check_compatible",
    "decode_record",
    "decode_with_resolution",
    "encode_record",
    "Occurred",
    "VectorClock",
    "frontier_of",
    "merge_frontier",
    "WriteAheadLog",
]
