"""Chaos for the stream tier: a mid-peak container kill must not change
a single byte of final application state.

The day-in-the-life scenario runs one simulated day of diurnal traffic
through both shipped stream jobs.  The failure run kills one container
of each job at 55% of the day (the traffic peak) via FaultPlan-scheduled
``kill_container`` actions and restarts them at 75%; the clean run is
the same seed with no faults.  Both drain fully, then every store's
canonical fingerprint, the WVYP leaderboard, and a sampled inbox are
compared byte for byte — the recovery contract (snapshot + bounded
changelog replay + offset restore + repartition dedupe) says they must
be identical.
"""

import hashlib

import pytest

from repro.common.clock import SimClock
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan
from repro.streams.state import encode_json
from repro.workloads import ProfileViewEventGenerator, day_in_the_life, \
    run_day_in_the_life

SEED = 7


@pytest.fixture(scope="module")
def failure_day():
    return run_day_in_the_life(seed=SEED, fail=True)


@pytest.fixture(scope="module")
def clean_day():
    return run_day_in_the_life(seed=SEED, fail=False)


# -- faultplan: the container action pair -----------------------------------

def test_faultplan_container_actions_fire_handlers_in_order():
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=1)
    plan = FaultPlan(disk)
    log = []
    plan.on_kill_container(lambda name: log.append(("kill", name)))
    plan.on_restart_container(lambda name: log.append(("restart", name)))
    plan.kill_container(at=5.0, container="wvyp-1")
    plan.restart_container(at=9.0, container="wvyp-1")
    executed = plan.run(until=10.0)
    assert log == [("kill", "wvyp-1"), ("restart", "wvyp-1")]
    assert [(at, kind, node) for at, kind, node, _ in executed] == [
        (5.0, "kill_container", "wvyp-1"),
        (9.0, "restart_container", "wvyp-1")]


# -- the failure run did what the scenario promises -------------------------

def test_failure_day_really_failed_and_recovered(failure_day):
    assert failure_day.failed
    kills = [line for line in failure_day.fault_trace
             if "'kill_container'" in line]
    restarts = [line for line in failure_day.fault_trace
                if "'restart_container'" in line]
    assert len(kills) == 2           # one container of each job
    assert len(restarts) == 2
    # recovery actually exercised both paths: local snapshots where the
    # task came back to its old node, changelog replay everywhere
    assert failure_day.tasks_recovered_from_snapshot > 0
    assert failure_day.changelog_mutations_replayed > 0


def test_clean_day_saw_no_faults(clean_day):
    assert not clean_day.failed
    assert all("'call'" in line for line in clean_day.fault_trace)
    assert clean_day.tasks_recovered_from_snapshot == 0


def test_both_days_processed_identical_traffic(failure_day, clean_day):
    assert failure_day.events_produced == clean_day.events_produced
    assert failure_day.events_produced["profile-views"] > 1000


# -- the headline assertion: byte-identical final state ---------------------

def test_recovered_state_is_byte_identical_to_clean_run(failure_day,
                                                        clean_day):
    assert sorted(failure_day.state_fingerprints) == \
        sorted(clean_day.state_fingerprints)
    for label in sorted(clean_day.state_fingerprints):
        assert failure_day.state_fingerprints[label] == \
            clean_day.state_fingerprints[label], \
            f"store {label} diverged after crash recovery"


def test_record_cache_matches_state_in_every_store(failure_day, clean_day):
    """After a day of puts, barriers, a kill, image loads and changelog
    replays, every store's cached records still equal a fresh encode of
    its items — the barrier may go on copying them."""
    assert failure_day.stale_record_stores == []
    assert clean_day.stale_record_stores == []
    assert len(clean_day.state_fingerprints) > 0


def test_serving_layer_agrees_between_runs(failure_day, clean_day):
    assert failure_day.top_profiles == clean_day.top_profiles
    assert failure_day.sample_inbox == clean_day.sample_inbox
    # the leaderboard is non-trivial: the skewed viewee draw makes the
    # head dominate
    assert max(count for _, count in clean_day.top_profiles) > 50
    assert len(clean_day.sample_inbox) > 0


def test_no_offsets_beyond_watermarks(failure_day, clean_day):
    assert failure_day.offset_violations == []
    assert clean_day.offset_violations == []


def test_same_seed_same_fault_trace(failure_day):
    rerun = run_day_in_the_life(seed=SEED, fail=True)
    assert rerun.fault_trace == failure_day.fault_trace
    assert rerun.state_fingerprints == failure_day.state_fingerprints
    assert rerun.top_profiles == failure_day.top_profiles


def test_fault_trace_and_state_are_pinned():
    """A short failure day's fault trace and state fingerprints, against
    a fixed digest: the twin-run comparisons above cannot see a rewrite
    that changes both runs alike.  The fingerprints hash store layout,
    so the digest was re-taken when the feed inbox moved from one stored
    list per member to one key per entry; the fault trace and every
    other store's fingerprint were unchanged by that move, and
    :func:`test_served_inboxes_are_pinned` shows members are served the
    same inboxes."""
    day = run_day_in_the_life(seed=2, day_seconds=240.0)
    digest = hashlib.sha256(
        "\n".join(day.fault_trace).encode()
        + repr(sorted(day.state_fingerprints.items())).encode())
    assert digest.hexdigest() == (
        "cbf967ccf32e20c092f009bef567d52363b0501131c2260372210d9fb47d42ad")


def test_served_inboxes_are_pinned(monkeypatch):
    """Every member's inbox as :class:`FeedService` serves it after a
    short failure day, against a digest taken while a member's whole
    inbox was one stored list.  It reads through the serving API, so
    unlike the fingerprint digest above it does not move when the
    inbox's storage layout does — only when what members see does."""
    services = []

    class RecordingFeedService(day_in_the_life.FeedService):
        def __init__(self, *args):
            super().__init__(*args)
            services.append(self)

    monkeypatch.setattr(day_in_the_life, "FeedService", RecordingFeedService)
    run_day_in_the_life(seed=2, day_seconds=240.0)
    [service] = services
    served = [service.inbox(ProfileViewEventGenerator.member_id(rank))
              for rank in range(300)]     # the scenario's num_members
    assert sum(map(len, served)) == 4544
    assert hashlib.sha256(encode_json(served)).hexdigest() == (
        "7b88789025b857ac73a6a7accea8e527de755f1c46ce15d90f8a2f346fad197b")
