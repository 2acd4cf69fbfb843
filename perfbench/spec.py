"""The benchmark's declared shape, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repo root is the contract: workload names,
end-to-end metrics with unit, direction and regression bound, and the
per-layer metric names.  Everything else in the harness looks names up
here so the file and the code cannot drift apart silently
(``perfbench/tests`` asserts they agree in both directions).
"""

from __future__ import annotations

import json
import pathlib

from perfbench.layers import LAYERS
from perfbench.tracer import DRIVER

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: per-layer counts beyond ``<layer>.calls`` / ``<layer>.self_s``
FURTHER: dict[str, str] = {
    "simnet.network.rpcs_per_op": "count",
    "simnet.network.sim_ms_per_op": "ms",
    "simnet.disk.fsyncs_per_op": "count",
    "simnet.disk.fsync_s": "s",
    "simnet.disk.bytes_written_per_op": "bytes",
    "simnet.disk.live_bytes": "bytes",
    "simnet.disk.bytes_per_user_byte": "ratio",
    "common.wal.appends_per_op": "count",
    "common.wal.fsyncs_per_op": "count",
    "common.wal.frames_replayed": "count",
    "common.serialization.bytes_per_op": "bytes",
    "voldemort.routing.keys_per_request": "count",
    "voldemort.routing.read_repairs": "count",
    "voldemort.routing.siblings_mean": "count",
    "voldemort.routing.siblings_max": "count",
    "voldemort.routing.value_bytes_per_get": "bytes",
    "espresso.storage.windows_applied": "count",
    "espresso.storage.index_rows_per_query": "count",
    "databus.relay.events_per_window": "count",
    "databus.relay.buffer_bytes_max": "bytes",
    "databus.client.lag_scn_max": "count",
    "databus.client.empty_poll_frac": "ratio",
    "kafka.producer.requests_per_kmsg": "count",
    "kafka.consumer.fetches_per_kmsg": "count",
    "kafka.consumer.lag_msgs_max": "count",
    "kafka.log.segments_rolled": "count",
    "kafka.log.bytes_deleted": "bytes",
    "streams.task.commits": "count",
    "streams.task.dup_dropped": "count",
    "streams.task.recover_s": "s",
    "streams.state.keys": "count",
    "streams.state.snapshot_s": "s",
    "streams.changelog.replayed": "count",
    "migration.backfill.rows_per_s": "1/s",
    "migration.backfill.rows_discarded": "count",
    "migration.dualwrite.shadow_us_per_read": "us",
    "migration.dualwrite.mismatches": "count",
    "audit.cycle_s": "s",
    "bench.spans": "count",
    "bench.trace_overhead_frac": "ratio",
    "bench.traced_wall_s": "s",
    "bench.recover_s": "s",
    "bench.step_tail_us": "us",
    "bench.entry_points_missing": "count",
}

#: units whose values come off the CPU clock (or the process), and so
#: carry noise; every other unit is a sim-clock time or a count, which
#: repeats exactly for the same seed and scale and is compared exactly.
#: ``ms`` is used only for sim-clock times.
TIMED_UNITS = frozenset({"s", "us", "1/s", "MB"})
TIMED_NAMES = frozenset({"bench.trace_overhead_frac"})


def layer_names() -> list[str]:
    return [DRIVER] + list(LAYERS)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name this harness emits, with its unit."""
    units: dict[str, str] = {}
    for layer in layer_names():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(FURTHER)
    return units


def is_exact(name: str, unit: str) -> bool:
    return unit not in TIMED_UNITS and name not in TIMED_NAMES


def load() -> dict:
    """Parse ``BENCHMARK.json``; raises if it is missing."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
