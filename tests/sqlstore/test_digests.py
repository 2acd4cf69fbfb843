"""A table's content digests against a fold over its rows, step by step.

One seeded walk inserts, updates, upserts and deletes (duplicate and
missing keys included), restores row sets that succeed and row sets that
must fail, and adopts staging tables.  At a random step mid-walk it asks
for two digests under different definitions, so each fill folds whatever
rows the table holds then.  After every later step, each kept digest
equals its fingerprint folded over ``scan()`` (a bucket whose sum is 0
may be missing from either), and a restore that fails leaves it as it
was.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.common.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    SchemaValidationError,
)
from repro.sqlstore.table import Column, Table, TableSchema

SCHEMA = TableSchema(
    "walk",
    (Column("artist", str), Column("album", int), Column("plays", int),
     Column("note", str, nullable=True)),
    ("artist", "album"))
ARTISTS = ("b", "d", "a", "c")
SEEDS = range(6)
STEPS = 200


def content(row: dict) -> int:
    data = repr(sorted(row.items())).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


DEFINITIONS = {
    "by-artist": lambda row: (row["artist"], content(row)),
    "by-album": lambda row: (row["album"] % 3, content(row) * 3),
}


def folded(table: Table, fingerprint) -> dict:
    sums: dict = {}
    for row in table.scan():
        bucket, value = fingerprint(row)
        sums[bucket] = (sums.get(bucket, 0) + value) % 2 ** 64
    return {bucket: total for bucket, total in sums.items() if total}


def kept(table: Table, name: str) -> dict:
    digest = table.digest(name, lambda row: 1 / 0)   # the kept one answers
    return {bucket: total for bucket, total in digest.items() if total}


def make_row(rng: random.Random) -> dict:
    return {"artist": rng.choice(ARTISTS), "album": rng.randrange(12),
            "plays": rng.randrange(1000),
            "note": rng.choice((None, "live", "demo"))}


def step(rng: random.Random, table: Table, filled: bool) -> str:
    """One write; returns what it did."""
    draw = rng.random()
    row = make_row(rng)
    try:
        if draw < 0.3:
            table.insert(row)
            return "insert"
        if draw < 0.55:
            table.upsert(row)
            return "upsert"
        if draw < 0.65:
            table.update(row)
            return "update"
        if draw < 0.85:
            table.delete(SCHEMA.key_of(row))
            return "delete"
    except (DuplicateKeyError, KeyNotFoundError):
        return "refused"    # a duplicate insert, or a missing key
    rows = list({SCHEMA.key_of(r): r for r in
                 (make_row(rng) for _ in range(rng.randrange(1, 20)))
                 }.values())
    if draw < 0.9:
        table.restore(rows)
        return "restore"
    if draw < 0.95:
        before = [kept(table, name) for name in DEFINITIONS] \
            if filled else None
        with pytest.raises(SchemaValidationError):
            table.restore(rows + [dict(rows[0], plays="many")])
        if filled:
            assert [kept(table, name) for name in DEFINITIONS] == before
        return "failed restore"
    staged = Table(SCHEMA)
    for staged_row in rows:
        staged.insert(staged_row)
    table.adopt(staged)
    return "adopt"


@pytest.mark.parametrize("seed", SEEDS)
def test_kept_digests_equal_a_fold_over_the_rows_after_every_step(seed):
    rng = random.Random(seed)
    table = Table(SCHEMA)
    fill_at = rng.randrange(20, STEPS // 2)
    done = set()
    for index in range(STEPS):
        if index == fill_at:
            assert len(table) > 0
            for name, fingerprint in DEFINITIONS.items():
                table.digest(name, fingerprint)
        did = step(rng, table, filled=index >= fill_at)
        if index >= fill_at:
            done.add(did)
            for name, fingerprint in DEFINITIONS.items():
                assert kept(table, name) == folded(table, fingerprint), \
                    (seed, index, name)
    assert done >= {"insert", "upsert", "update", "delete", "restore",
                    "failed restore", "adopt"}


def test_a_fingerprint_that_raises_leaves_the_table_and_its_digest():
    table = Table(SCHEMA)
    table.insert({"artist": "a", "album": 1, "plays": 5})
    fingerprint = DEFINITIONS["by-artist"]
    table.digest("by-artist", fingerprint)
    table.digest("fussy", lambda row: (0, 1 // (row["plays"] - 7)))
    before = table.digest("by-artist", fingerprint)
    with pytest.raises(ZeroDivisionError):
        table.upsert({"artist": "a", "album": 1, "plays": 7})
    assert table.get(("a", 1))["plays"] == 5
    assert table.digest("by-artist", fingerprint) == before
