"""Work per operation, pinned: exact same-seed counts of the benchmark
workloads at tier-1 sizes.

A wall-clock gain is proved once, by alternating runs on a noisy host,
and the benchmark's bounds are wide enough to give it back unnoticed.
The structure a gain rests on — how many state operations, changelog
records, Kafka appends and commits an input event costs — is a
same-seed count, so it is exact and can be pinned here.  A pin moves
only in a change that says why.

Each workload is imported from ``perfbench.workloads`` and driven the
way the harness drives it (``setup``, then every ``prepare``/``step``),
at two sizes.  The counts are of the measured phase only (the set-up's
own work is subtracted) and are read from the public counters of every
component the run builds, including those of tasks that a kill or a
rebalance dropped before the end.  Besides the exact pins, per-operation
counts at the two sizes must agree within a declared factor: a count
that grows with the run's length fails that shape check even where its
pin was re-taken.

``streams-day`` at seed 0, 8 and 16 commit cycles, takes about 1.6 s in
all (about 0.4 s and 0.6 s a run, 8 cycles twice), 1.8% of tier-1's
test time, on a shared 2-core Xeon host under Python 3.11.
"""

from __future__ import annotations

import pytest

from perfbench.workloads import WORKLOADS
from repro.kafka.log import PartitionLog
from repro.streams.changelog import ChangelogWriter
from repro.streams.task import SEEN_PREFIX, TaskInstance

#: per-operation counts at the two sizes differ by at most this factor
FLAT_FACTOR = 2.0

#: measured phase of ``streams-day`` at seed 0, by commit cycles
STREAMS_DAY = {
    8: {"ops": 1080, "state.puts": 7203, "state.gets": 5311,
        "state.deletes": 0, "changelog.records": 5580,
        "kafka.appended": 9750, "task.commits": 180,
        "inbox.entries": 2370},
    16: {"ops": 2160, "state.puts": 13760, "state.gets": 10137,
         "state.deletes": 112, "changelog.records": 19810,
         "kafka.appended": 28130, "task.commits": 292,
         "inbox.entries": 4608},
}

#: counts exempt from the shape check, with the reason
NOT_FLAT = {
    # evictions start only once an inbox holds INBOX_CAP entries: 0 per
    # operation at 8 cycles, 0.05 at 16, 0.33 at 64, bounded by puts
    "state.deletes",
}


class _Recorder:
    """Keeps every instance the wrapped classes construct while open."""

    CLASSES = (TaskInstance, ChangelogWriter, PartitionLog)

    def __init__(self):
        self.made: dict[type, list] = {cls: [] for cls in self.CLASSES}
        self._inits: dict[type, object] = {}

    def __enter__(self) -> "_Recorder":
        for cls in self.CLASSES:
            init = self._inits[cls] = cls.__init__
            made = self.made[cls]

            def recorded(obj, *args, _init=init, _made=made, **kwargs):
                _init(obj, *args, **kwargs)
                _made.append(obj)

            cls.__init__ = recorded
        return self

    def __exit__(self, *exc) -> None:
        for cls, init in self._inits.items():
            cls.__init__ = init

    def totals(self) -> dict[str, int]:
        tasks = self.made[TaskInstance]
        stores = [store for task in tasks for store in task.stores.values()]
        return {
            "state.puts": sum(store.puts for store in stores),
            "state.gets": sum(store.gets for store in stores),
            "state.deletes": sum(store.deletes for store in stores),
            "changelog.records": sum(
                writer.mutations_logged
                for writer in self.made[ChangelogWriter]),
            "kafka.appended": sum(
                log.messages_appended for log in self.made[PartitionLog]),
            "task.commits": sum(task.commits for task in tasks),
        }


def run_streams_day(cycles: int, seed: int = 0) -> dict[str, int]:
    """The measured phase's counts of one ``streams-day`` run."""
    cls = WORKLOADS["streams-day"]
    with _Recorder() as recorder:
        workload = cls(seed, cycles / cls.CYCLES)
        assert workload.steps == cycles
        workload.setup()
        before = recorder.totals()
        for i in range(workload.steps):
            workload.prepare(i)
            workload.step(i)
        after = recorder.totals()
    assert workload.check() == []
    counts = {name: after[name] - before[name] for name in after}
    counts["ops"] = workload.ops
    counts["inbox.entries"] = sum(
        1 for container in workload.containers.values()
        for (stage, _), task in container.tasks.items() if stage == "inbox"
        for key in task.stores["inbox"].keys()
        if not key.startswith(SEEN_PREFIX))
    return counts


@pytest.fixture(scope="module")
def streams_day() -> dict[int, dict[str, int]]:
    return {cycles: run_streams_day(cycles) for cycles in STREAMS_DAY}


@pytest.mark.parametrize("cycles", sorted(STREAMS_DAY))
def test_streams_day_work_counts_are_pinned(streams_day, cycles):
    assert streams_day[cycles] == STREAMS_DAY[cycles]


def test_streams_day_counts_repeat_at_the_same_seed(streams_day):
    assert run_streams_day(8) == streams_day[8]


def test_streams_day_work_per_operation_is_flat_across_sizes(streams_day):
    small, large = (streams_day[cycles] for cycles in sorted(STREAMS_DAY))
    for name in sorted(set(small) - {"ops"} - NOT_FLAT):
        per_small = small[name] / small["ops"]
        per_large = large[name] / large["ops"]
        assert per_small > 0 and per_large > 0, name
        ratio = max(per_small, per_large) / min(per_small, per_large)
        assert ratio <= FLAT_FACTOR, (name, per_small, per_large)
