"""Shared fixtures for the migration suite: a seeded source database
and a fully wired migration stack on a simulated clock and disk."""

import pytest

from repro.audit.wiring import cutover_check
from repro.common.clock import SimClock
from repro.migration import MigrationSlo, MigrationStack
from repro.simnet.disk import SimDisk
from repro.sqlstore.database import SqlDatabase
from repro.sqlstore.table import Column, TableSchema

PROFILES = TableSchema(
    "profiles",
    (Column("member_id", int), Column("name", str), Column("score", int)),
    ("member_id",))
INMAIL = TableSchema(
    "inmail",
    (Column("msg_id", int), Column("body", str)),
    ("msg_id",))

#: tight SLO so state-machine tests converge in tens of ticks
FAST_SLO = MigrationSlo(min_shadow_reads=3, shadow_duration=1.0,
                        ramp_step_duration=1.0, catchup_deadline=30.0)


def make_source(clock, profiles=50, inmails=20,
                name="members") -> SqlDatabase:
    source = SqlDatabase(name, clock=clock)
    source.create_table(PROFILES)
    source.create_table(INMAIL)
    for i in range(profiles):
        source.autocommit("profiles",
                          {"member_id": i, "name": f"m{i}", "score": i * 7})
    for i in range(inmails):
        source.autocommit("inmail", {"msg_id": i, "body": f"hello {i}"})
    return source


def drive_to_phase(stack, clock, phase, max_ticks=500, read_key=(1,)):
    """Tick (with read traffic so shadow SLOs can be met) until the
    coordinator reaches ``phase``."""
    for _ in range(max_ticks):
        if stack.coordinator.phase is phase:
            return
        stack.coordinator.tick()
        if not stack.coordinator.complete:
            stack.proxy.read("profiles", read_key)
        clock.advance(1.0)
    raise AssertionError(
        f"never reached {phase} (stuck in {stack.coordinator.phase})")


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def source(clock):
    return make_source(clock)


@pytest.fixture
def disk(clock):
    return SimDisk(clock=clock)


@pytest.fixture
def stack(source, disk, clock):
    return MigrationStack.build(source, disk.scope("coordinator"), clock,
                                slo=FAST_SLO, chunk_size=16,
                                cutover_check=cutover_check)
