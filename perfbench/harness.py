"""Run one workload, untraced or traced, and assemble its metrics.

Method (the same for every workload, see README.md):

* a workload is a fixed, seeded sequence of driver steps — a fixed
  operation count, not a fixed duration — so sim-clock metrics and
  counts repeat exactly and only timed metrics carry noise;
* one closed-loop client, one thread: the harness owns the loop and
  issues step *i+1* only after step *i* returned;
* times are read from the benchmark thread's CPU clock
  (``time.thread_time_ns``): the run is one CPU-bound thread with no
  sleeps and no real I/O, so on an idle box this *is* the wall clock,
  and on a shared box it leaves out the time the host took away;
* the sandbox is a shared VM whose speed drifts by up to 2x over
  minutes, so a small fixed calibration kernel is timed between steps
  (about 4% of the run) and every reported time is scaled to what the
  reference box takes when idle (see :func:`speed_factor`);
* set-up is repeated and its median reported; ``gc.collect()`` runs
  once before the measured phase and gc stays enabled during it;
* end-to-end metrics come from a pass with zero wrappers installed;
  the traced pass repeats the same steps with spans recorded from the
  benchmark's own files.
"""

from __future__ import annotations

import ctypes
import gc
import math
import resource
import statistics
import time
from array import array
from collections import defaultdict

from perfbench import spec
from perfbench.layers import LAYERS, OBSERVERS
from perfbench.tracer import Tracer, installed_wrappers
from perfbench.workloads import WORKLOADS

SETUP_REPEATS = 3
RECOVER_ROUNDS = 3
SAMPLED_STEPS = 200     # driver steps whose spans go to the trace file
CAL_RUNS = 1200         # calibration kernel runs spread over the phase
CAL_AROUND = 20         # kernel runs before and after a timed call
#: the calibration kernel's CPU time on the idle reference box; it only
#: fixes what "one second" means in the reported numbers
CAL_REFERENCE_NS = 230_000


def pin_allocator() -> bool:
    """Stop glibc from tuning malloc while the benchmark runs.

    ``SimDisk.fsync`` copies whole file images of several MiB.  With the
    default *dynamic* mmap threshold each such copy is a fresh ``mmap``
    plus page faults until a larger block has once been freed, so the
    same workload ran 40% faster on a second pass in one process than on
    the first, and a run's speed depended on its allocation history.
    Pinning the thresholds (which also switches the dynamic adjustment
    off) makes every pass measure the same thing.  Returns False where
    there is no glibc to ask.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                    and libc.mallopt(m_trim_threshold, 64 << 20))
    except (OSError, AttributeError):
        return False


class CheckFailed(Exception):
    """A workload's output was wrong; no metrics are reported."""


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(len(sorted_values) * p / 100.0))
    return sorted_values[rank - 1]


def _kernel() -> None:
    """The calibration kernel: a few thousand bytecodes on a working set
    that fits the L1 cache, so that its speed follows the host's and
    depends as little as possible on what the program under test left in
    the caches (in-run it is 2-5% slower than in a tight loop)."""
    x = 0
    table = [0] * 64
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFF
        table[x & 63] = x


def _kernel_ns(rounds: int) -> int:
    now = time.thread_time_ns
    started = now()
    for _ in range(rounds):
        _kernel()
    return now() - started


def speed_factor(kernel_ns: float, rounds: int) -> float:
    """What to multiply a measured time by to get the time the idle
    reference box would have taken, judged by the calibration kernel."""
    return CAL_REFERENCE_NS * rounds / kernel_ns


def _timed(fn) -> float:
    """Reference-box seconds taken by ``fn``."""
    now = time.thread_time_ns
    kernel_ns = _kernel_ns(CAL_AROUND)
    started = now()
    fn()
    elapsed = now() - started
    kernel_ns += _kernel_ns(CAL_AROUND)
    return elapsed / 1e9 * speed_factor(kernel_ns, 2 * CAL_AROUND)


def tail_percentile(samples: int) -> float:
    """p99, or the highest percentile that still has at least ten
    samples beyond it when there are fewer than a thousand."""
    return min(99.0, 100.0 * (1.0 - 10.0 / samples)) if samples > 10 else 50.0


def _measure(workload, tracer: Tracer | None
             ) -> tuple[float, list[float], float]:
    """The measured phase: every step, closed loop, timed one by one.

    Returns the phase's duration in reference-box seconds, the step
    times in reference-box ns, and the speed factor that was applied to
    both.  The duration is the sum of the step times: whatever a
    workload generates in ``prepare`` between two steps is the
    generator's cost, not the program's.
    """
    prepare, step = workload.prepare, workload.step
    steps = workload.steps
    # about CAL_RUNS kernel runs in all: one every few steps when steps
    # are short, several between consecutive steps when they are long
    stride = max(1, steps // CAL_RUNS)
    per_slot = max(1, round(CAL_RUNS / steps))
    times = array("q")
    kernel_ns = kernel_runs = 0
    now = time.thread_time_ns
    gc.collect()
    if tracer is not None:
        tracer.sample_every(steps // SAMPLED_STEPS)
        tracer.reset()
    for i in range(steps):
        if i % stride == 0:
            kernel_ns += _kernel_ns(per_slot)
            kernel_runs += per_slot
        prepare(i)
        if tracer is None:
            t0 = now()
            step(i)
            times.append(now() - t0)
        else:
            tracer.begin(i)
            t0 = now()
            step(i)
            times.append(now() - t0)
            tracer.end()
    factor = speed_factor(kernel_ns, kernel_runs)
    return sum(times) / 1e9 * factor, [t * factor for t in times], factor


def _verify(workload) -> None:
    failures = workload.check()
    if failures:
        raise CheckFailed(f"{workload.name}: " + "; ".join(failures[:5]))
    if workload.ops < 1 or workload.attempted < 1:
        raise CheckFailed(f"{workload.name}: no operation completed")


def run_untraced(name: str, seed: int, scale: float,
                 setup_repeats: int = SETUP_REPEATS,
                 recover_rounds: int = 0) -> dict:
    """One pass with no wrappers: the end-to-end numbers."""
    if installed_wrappers():
        raise RuntimeError("the untraced pass found wrappers installed")
    workload = WORKLOADS[name](seed, scale)
    setups = [_timed(workload.setup)]
    elapsed, times, factor = _measure(workload, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recovers = [_timed(workload.recover) for _ in range(recover_rounds)]
    _verify(workload)
    ordered = sorted(times)
    sims = sorted(workload.sim_ms)
    tail = tail_percentile(len(times))
    result = {
        "workload": name, "seed": seed, "scale": scale,
        "attempted": workload.attempted, "failed": workload.failed,
        "ops": workload.ops, "steps": workload.steps,
        "step_samples": len(times), "sim_samples": len(sims),
        "step_tail_percentile": tail,
        "step_tail_us": percentile(ordered, tail) / 1e3,
        "measured_s": elapsed, "speed_factor": factor,
        "recover_s": statistics.median(recovers) if recovers else 0.0,
    }
    # the remaining set-ups only feed the median; they come last so the
    # peak RSS above is that of one world and its measured phase
    for _ in range(setup_repeats - 1):
        workload.teardown()
        gc.collect()
        setups.append(_timed(workload.setup))
    result["e2e"] = {
        "setup_s": statistics.median(setups),
        "ops_per_s": result["ops"] / elapsed,
        "step_p50_us": percentile(ordered, 50) / 1e3,
        "sim_p50_ms": percentile(sims, 50),
        "sim_p99_ms": percentile(sims, 99),
        "peak_rss_mb": peak_rss_mb,
    }
    return result


def run_traced(name: str, seed: int, scale: float) -> dict:
    """An untraced pass (for the overhead and the recovery time), then
    the same steps with every layer's entry points wrapped."""
    plain = run_untraced(name, seed, scale, setup_repeats=1,
                         recover_rounds=RECOVER_ROUNDS)
    gc.collect()
    tracer = Tracer(OBSERVERS)
    # wrappers go in before any cluster object exists: handlers capture
    # bound methods at construction time
    tracer.install(LAYERS)
    try:
        workload = WORKLOADS[name](seed, scale)
        workload.setup()
        elapsed, _, _ = _measure(workload, tracer)
        traced_wall_s = tracer.total_ns[0] / 1e9
        by_layer = tracer.by_layer()
        entries = tracer.by_label()
        spans_total = sum(tracer.calls)
        acc = defaultdict(float, tracer.acc)
        counts = workload.counts()
        span_records = tracer.span_records()
        workload.recover()      # only the replay count is read after this
        acc["wal.frames_replayed"] = tracer.acc["wal.frames_replayed"]
        _verify(workload)
    finally:
        tracer.uninstall()
    if installed_wrappers():
        raise RuntimeError("wrappers survived uninstall")

    ops = workload.ops

    def calls(label):
        return entries[label][0]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    routed_calls = sum(calls(f"RoutedStore.{verb}")
                       for verb in ("get", "get_all", "put", "delete"))
    layers = {}
    for layer in spec.layer_names():
        row = by_layer.get(layer, {"calls": 0, "self_s": 0.0})
        layers[f"{layer}.calls"] = row["calls"]
        layers[f"{layer}.self_s"] = row["self_s"]
    disk_bytes = acc["disk.bytes_written"]
    gets = acc["routing.gets"]
    layers.update({
        "simnet.network.rpcs_per_op":
            per(calls("SimNetwork.invoke") + calls("SimNetwork.send"), ops),
        "simnet.network.sim_ms_per_op":
            per(acc["network.sim_s"] * 1e3, ops),
        "simnet.disk.fsyncs_per_op": per(calls("_SimFile.fsync"), ops),
        "simnet.disk.fsync_s": entries["_SimFile.fsync"][1],
        "simnet.disk.bytes_written_per_op": per(disk_bytes, ops),
        "simnet.disk.bytes_per_user_byte":
            per(disk_bytes, counts.get("user_bytes", 0)),
        "common.wal.appends_per_op": per(calls("WriteAheadLog.append"), ops),
        "common.wal.fsyncs_per_op": per(calls("WriteAheadLog.fsync"), ops),
        "common.wal.frames_replayed": acc["wal.frames_replayed"],
        "common.serialization.bytes_per_op":
            per(acc["serialization.bytes"], ops),
        "voldemort.routing.keys_per_request":
            per(acc["routing.keys"], routed_calls),
        "voldemort.routing.siblings_mean":
            per(acc["routing.siblings"], gets),
        "voldemort.routing.siblings_max":
            acc["routing.siblings_max"],
        "voldemort.routing.value_bytes_per_get":
            per(acc["routing.value_bytes"], gets),
        "espresso.storage.index_rows_per_query":
            per(acc["index.rows"], acc["index.queries"]),
        "kafka.consumer.fetches_per_kmsg":
            per(calls("SimpleConsumer.fetch") * 1e3, ops),
        "streams.task.commits": calls("TaskInstance.commit"),
        "streams.task.recover_s": entries["TaskInstance.__init__"][2],
        "streams.state.snapshot_s": entries["write_snapshot"][2],
        "migration.backfill.rows_per_s":
            per(counts.get("rows_backfilled", 0),
                entries["ChunkedBackfill.run_one_chunk"][2]),
        "migration.backfill.rows_discarded":
            acc["backfill.rows_discarded"],
        "migration.dualwrite.shadow_us_per_read":
            per(acc["dualwrite.shadow_ns"] / 1e3,
                acc["dualwrite.shadow_reads"]),
        "audit.cycle_s": per(entries["Auditor.tick"][2],
                             calls("Auditor.tick")),
        "bench.spans": spans_total,
        "bench.trace_overhead_frac":
            plain["e2e"]["ops_per_s"] / (ops / elapsed) - 1.0,
        "bench.traced_wall_s": traced_wall_s,
        "bench.recover_s": plain["recover_s"],
        "bench.step_tail_us": plain["step_tail_us"],
        "bench.entry_points_missing": len(tracer.missing),
    })
    for key in spec.FURTHER:
        layers.setdefault(key, counts.get(key, 0))
    return {
        "workload": name, "seed": seed, "scale": scale,
        "attempted": workload.attempted, "failed": workload.failed,
        "ops": ops, "steps": workload.steps,
        "untraced_ops_per_s": plain["e2e"]["ops_per_s"],
        "missing_entry_points": tracer.missing,
        "layers": layers,
        "spans": span_records,
    }
