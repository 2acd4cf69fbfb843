"""The cutover gate against its oracle.  The declared, digest-scoped
gate (``repro.audit.wiring.cutover_check``) is the coordinator's only
gate; the row walk ``DualWriteProxy.full_comparison`` decodes every row
of both stores and is what the gate must agree with.  A seeded walk
plants divergences on the target and, after every step, holds the set
of ``(table, key)`` the gate convicts to the set the walk finds; then
the coordinator must cut over exactly when the walk is clean."""

import random

import pytest

from repro.audit.wiring import cutover_check
from repro.common.clock import SimClock
from repro.common.serialization import Field, RecordSchema
from repro.migration import MigrationPhase, MigrationStack
from repro.simnet.disk import SimDisk

from tests.migration.conftest import FAST_SLO, drive_to_phase, make_source

TABLES = ("profiles", "inmail")


def random_row(rng: random.Random, table: str, key: int, step: int) -> dict:
    if table == "profiles":
        return {"member_id": key, "name": f"p{step}",
                "score": rng.randrange(100)}
    return {"msg_id": key, "body": f"b{step}"}


def convicted(violations) -> set[tuple]:
    return {(v.subject.split(":", 1)[1], v.raw_key) for v in violations}


def found(differences) -> set[tuple]:
    return {(table, key) for table, key, _, _ in differences}


@pytest.mark.parametrize("heal", [False, True], ids=["diverged", "healed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_gate_convicts_exactly_what_the_oracle_finds(seed, heal):
    rng = random.Random(seed)
    clock = SimClock()
    source = make_source(clock, profiles=40, inmails=12)
    stack = MigrationStack.build(
        source, SimDisk(clock=clock, seed=seed).scope("c"), clock,
        slo=FAST_SLO, chunk_size=16, cutover_check=cutover_check)
    drive_to_phase(stack, clock, MigrationPhase.RAMP)
    target = stack.target
    posted_v2 = False

    def agree() -> list:
        oracle = stack.proxy.full_comparison()
        assert convicted(cutover_check(stack.proxy)()) == found(oracle)
        return oracle

    assert agree() == []
    for step in range(24):
        table = rng.choice(TABLES)
        keys = sorted(source.table(table).keys())
        move = rng.random()
        if move < 0.2:
            target.delete_row(table, rng.choice(keys))
        elif move < 0.4:
            target.put_row(table, random_row(rng, table, 1000 + step, step))
        elif move < 0.6:
            target.put_row(table, random_row(rng, table, rng.choice(keys)[0],
                                             step))
        elif move < 0.8:
            # a v2 document schema, then one row rewritten under it:
            # stored bytes and version move, the document may not
            if not posted_v2:
                stack.cluster.post_document_schema("profiles", RecordSchema(
                    "profiles", [Field("name", "string", indexed=True),
                                 Field("score", "long")], version=2))
                posted_v2 = True
            table = "profiles"
            key = rng.choice(sorted(source.table(table).keys()))
            row = (source.table(table).get(key) if rng.random() < 0.5
                   else random_row(rng, table, key[0], step))
            target.put_row(table, row)
        else:
            # a dual write moves both stores, and both digests, together
            stack.proxy.upsert(table, random_row(rng, table,
                                                 rng.choice(keys)[0], step))
        agree()
    if heal:
        for table, key, expected, _ in agree():
            if expected is None:
                target.delete_row(table, key)
            else:
                target.put_row(table, source.table(table).get(key))
    oracle = agree()
    assert bool(oracle) is not heal
    while not stack.coordinator.complete:
        stack.coordinator.tick()
        clock.advance(1.0)
    expected = MigrationPhase.ROLLBACK if oracle else MigrationPhase.CUTOVER
    assert stack.coordinator.phase is expected, \
        stack.coordinator.rollback_reason
