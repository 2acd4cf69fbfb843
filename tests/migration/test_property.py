"""Property tests: under any seeded interleaving of chunk reads and
concurrent writes, the target equals the source at CUTOVER — and the
whole run is deterministic, byte-identical across two runs of the same
seed."""

import random

import pytest

from repro.audit.wiring import cutover_check
from repro.common.clock import SimClock
from repro.migration import MigrationPhase, MigrationSlo, MigrationStack
from repro.simnet.disk import SimDisk

from tests.migration.conftest import make_source

SLO = MigrationSlo(min_shadow_reads=5, shadow_duration=2.0,
                   ramp_step_duration=1.0)


def run_scenario(seed: int, profiles: int = 60, max_ticks: int = 400):
    """One full migration with a seeded write/read workload racing the
    chunk loop.  Returns (stack, trace) where the trace captures every
    observable decision the run made."""
    rng = random.Random(seed)
    clock = SimClock()
    source = make_source(clock, profiles=profiles, inmails=10)
    stack = MigrationStack.build(
        source, SimDisk(clock=clock, seed=seed).scope("c"), clock, slo=SLO,
        chunk_size=8, cutover_check=cutover_check)
    live_keys = list(range(profiles))
    trace: list[str] = []
    next_id = 10_000
    for tick_no in range(max_ticks):
        if stack.coordinator.complete:
            break
        stack.coordinator.tick()
        if not stack.coordinator.complete:
            # between coordinator steps the application keeps writing:
            # updates, inserts, deletes, and reads in random proportions
            for _ in range(rng.randrange(0, 4)):
                move = rng.random()
                if move < 0.5 and live_keys:
                    key = rng.choice(live_keys)
                    stack.proxy.upsert(
                        "profiles", {"member_id": key,
                                     "name": f"u{tick_no}",
                                     "score": rng.randrange(1000)})
                elif move < 0.7:
                    stack.proxy.upsert(
                        "profiles", {"member_id": next_id,
                                     "name": "new", "score": 0})
                    live_keys.append(next_id)
                    next_id += 1
                elif move < 0.8 and len(live_keys) > 5:
                    victim = live_keys.pop(rng.randrange(len(live_keys)))
                    stack.proxy.delete("profiles", (victim,))
                elif live_keys:
                    stack.proxy.read("profiles",
                                     (rng.choice(live_keys),))
        trace.append(f"tick {tick_no} phase={stack.coordinator.phase.value} "
                     f"scn={stack.client.checkpoint}")
        clock.advance(1.0)
    for record in stack.coordinator.transitions:
        trace.append(f"transition {record.at} {record.phase.value} "
                     f"{record.reason}")
    for result in stack.replicator.completed:
        trace.append(repr(result))
    trace.append(f"shadow {stack.proxy.shadow.by_table()!r}")
    dump = stack.target.dump("profiles")
    trace.append("dump " + repr(sorted(dump.items())))
    return stack, trace


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_target_equals_source_at_cutover(seed):
    stack, _ = run_scenario(seed)
    assert stack.coordinator.phase is MigrationPhase.CUTOVER
    # zero shadow-read mismatches along the way...
    assert stack.proxy.shadow.total_mismatches == 0
    assert stack.proxy.mismatch_log == []
    # ...and the stores are row-for-row identical at the gate
    assert stack.proxy.full_comparison() == []


@pytest.mark.parametrize("seed", [3, 99])
def test_same_seed_is_byte_identical(seed):
    _, first = run_scenario(seed)
    _, second = run_scenario(seed)
    assert "\n".join(first) == "\n".join(second)


def test_different_seeds_take_different_paths():
    _, a = run_scenario(5)
    _, b = run_scenario(6)
    assert a != b   # the workload actually varies with the seed