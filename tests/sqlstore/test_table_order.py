"""The ordered table against its sorting reference, step by step.

One seeded script drives two tables: ``sqlstore.Table``, which keeps
its keys in primary-key order, and
:class:`~tests.sqlstore.reference_table.ReferenceTable`, which sorts on
every ordered read.  Writes come in bursts of inserts, upserts, updates
and deletes (duplicates and missing keys included), with restores that
succeed and restores that must fail and change nothing.  Reads are
skipped after some bursts, so keys written out of order are sometimes
deleted or restored away before any read merges them in.  Whenever the
walk reads, ``len``, ``keys()``, every prefix ``scan``, ``scan_chunk``
from present, absent and no keys, a full pagination and ``snapshot()``
must agree with the reference exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.sqlstore.table import Column, Table, TableSchema
from tests.sqlstore.reference_table import ReferenceTable

SCHEMA = TableSchema(
    "walk",
    (Column("artist", str), Column("album", int), Column("plays", int),
     Column("note", str, nullable=True)),
    ("artist", "album"))
ARTISTS = ("b", "d", "a", "c")
ALBUMS = range(12)
SEEDS = range(8)
STEPS = 150


def make_row(rng: random.Random) -> dict:
    return {"artist": rng.choice(ARTISTS), "album": rng.choice(ALBUMS),
            "plays": rng.randrange(1000),
            "note": rng.choice((None, "live", "demo"))}


def outcome(call, *args):
    """What a call did: its result, or the type of what it raised."""
    try:
        result = call(*args)
    except Exception as exc:
        return ("raised", type(exc))
    return ("returned", result)


def write(rng: random.Random, table, reference) -> None:
    draw = rng.random()
    row = make_row(rng)
    if draw < 0.35:
        op, args = "insert", (row,)
    elif draw < 0.6:
        op, args = "upsert", (row,)
    elif draw < 0.7:
        op, args = "update", (row,)
    elif draw < 0.92:
        op, args = "delete", (SCHEMA.key_of(row),)
    else:
        rows = [make_row(rng) for _ in range(rng.randrange(30))]
        unique = list({SCHEMA.key_of(r): r for r in rows}.values())
        rng.shuffle(unique)
        if rng.random() < 0.5 or not unique:
            op, args = "restore", (unique,)
        else:
            bad = dict(unique[0], plays="many") if rng.random() < 0.5 \
                else dict(unique[0])
            before = table.snapshot()
            assert outcome(table.restore, unique + [bad])[0] == "raised"
            assert table.snapshot() == before
            return
    got = outcome(getattr(table, op), *args)
    assert got == outcome(getattr(reference, op), *args), (op, args)


def assert_agree(rng: random.Random, table, reference) -> None:
    assert len(table) == len(reference)
    assert table.keys() == reference.keys()
    assert table.snapshot() == reference.snapshot()
    prefixes = [(), ("zz",), ("a", 3), ("a", 3, "extra")] + \
        [(artist,) for artist in ARTISTS]
    for prefix in prefixes:
        assert list(table.scan(prefix)) == list(reference.scan(prefix))
    present = reference.keys()
    afters = [None, ("a", -1), ("bb", 0), ("d", 99),
              (rng.choice(ARTISTS), rng.choice(ALBUMS))]
    if present:
        afters.append(rng.choice(present))
    for after in afters:
        limit = rng.randrange(1, 12)
        assert table.scan_chunk(after, limit) == \
            reference.scan_chunk(after, limit)
    pages, after = [], None
    while chunk := table.scan_chunk(after, 5):
        pages.extend(chunk)
        after = SCHEMA.key_of(chunk[-1])
    assert pages == reference.snapshot()


@pytest.mark.parametrize("seed", SEEDS)
def test_ordered_table_matches_its_sorting_reference(seed):
    rng = random.Random(seed)
    table, reference = Table(SCHEMA), ReferenceTable(SCHEMA)
    for _ in range(STEPS):
        for _ in range(rng.randrange(1, 6)):
            write(rng, table, reference)
        if rng.random() < 0.6:
            assert_agree(rng, table, reference)
    assert_agree(rng, table, reference)
