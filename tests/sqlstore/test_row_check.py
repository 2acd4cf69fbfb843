"""``TableSchema.validate_row`` against the per-row check it replaced.

The schema compiles its column plan once; a row is accepted or refused
exactly as before, with the same exception and message, and the first
fault found is the same one.  The reference below is the former check,
``Column.validate`` included, kept verbatim.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import SchemaValidationError
from repro.sqlstore import Column, TableSchema


def reference_validate_column(col: Column, value: object) -> None:
    if value is None:
        if not col.nullable:
            raise SchemaValidationError(f"column {col.name!r} is NOT NULL")
        return
    if col.type is float and isinstance(value, int):
        return  # ints are acceptable floats
    if not isinstance(value, col.type):
        raise SchemaValidationError(
            f"column {col.name!r} expects {col.type.__name__}, "
            f"got {type(value).__name__}")


def reference_validate_row(schema: TableSchema, row: dict) -> None:
    declared = {c.name for c in schema.columns}
    unknown = set(row) - declared
    if unknown:
        raise SchemaValidationError(
            f"table {schema.name}: unknown columns {sorted(unknown)}")
    for col in schema.columns:
        reference_validate_column(col, row.get(col.name))


class Text(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


class Blob(bytes):
    pass


TYPES = (str, int, float, bytes, bool)
VALUES = (None, True, False, 0, 7, -3, 2 ** 70, Count(4), 1.5, -0.0,
          float("inf"), Ratio(2.5), "", "text", Text("sub"), b"", b"raw",
          Blob(b"sub"), bytearray(b"mutable"), [1], (1,), {"k": 1}, object())
UNKNOWN = ("extra", "zz", "Artist", "")


def outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return None


def random_schema(rng: random.Random, number: int) -> TableSchema:
    names = rng.sample([f"c{i}" for i in range(8)], rng.randint(1, 6))
    keys = names[:rng.randint(1, len(names))]
    columns = tuple(
        Column(name, rng.choice(TYPES),
               nullable=name not in keys and rng.random() < 0.5)
        for name in names)
    return TableSchema(f"t{number}", columns, tuple(keys))


def random_row(rng: random.Random, schema: TableSchema) -> dict:
    row = {}
    for col in schema.columns:
        draw = rng.random()
        if draw < 0.1:
            continue                        # missing: read as None
        if draw < 0.7:                      # mostly a value of its type
            typed = [v for v in VALUES if type(v) is col.type]
            row[col.name] = rng.choice(typed)
        else:
            row[col.name] = rng.choice(VALUES)
    for name in rng.sample(UNKNOWN, rng.choice((0, 0, 0, 1, 2))):
        row[name] = rng.choice(VALUES)
    keys = list(row)
    rng.shuffle(keys)
    return {name: row[name] for name in keys}


@pytest.mark.parametrize("seed", range(4))
def test_validate_row_matches_the_per_row_check(seed):
    rng = random.Random(seed)
    outcomes = {"accepted": 0, "refused": 0}
    for number in range(40):
        schema = random_schema(rng, number)
        for _ in range(100):
            row = random_row(rng, schema)
            expected = outcome(reference_validate_row, schema, row)
            assert outcome(schema.validate_row, row) == expected, row
            outcomes["accepted" if expected is None else "refused"] += 1
    assert min(outcomes.values()) > 500, outcomes


SCHEMA = TableSchema("t", (
    Column("k", str), Column("n", int), Column("x", float),
    Column("b", bytes, nullable=True), Column("s", str, nullable=True)),
    primary_key=("k",))


@pytest.mark.parametrize("row", [
    {"k": "a", "n": 1, "x": 1.0, "zz": 1, "aa": None},   # unknown, sorted
    {"k": "a", "n": None, "x": 1.0},        # None in a NOT NULL column
    {"k": "a", "n": True, "x": 1.0},        # bool is an int
    {"k": "a", "n": 1, "x": 2},             # int is a float
    {"k": "a", "n": 1, "x": True},          # so is bool
    {"k": Text("a"), "n": Count(1), "x": Ratio(1.0), "b": Blob(b"")},
    {"k": "a", "n": 1.0, "x": 1.0},         # float is not an int
    {"k": "a", "n": 1, "x": 1.0, "b": bytearray()},  # mutable bytes
    {"k": b"a", "n": "1", "x": None},       # first fault wins
    {"n": 1, "x": 1.0},                     # missing key column
    {"k": "a", "n": 1, "x": 1.0, "b": None, "s": None},
], ids=["unknown", "null", "bool-int", "int-float", "bool-float",
        "subclasses", "float-int", "bytearray", "first-fault", "missing",
        "nullable-none"])
def test_validate_row_named_cases(row):
    assert outcome(SCHEMA.validate_row, row) == \
        outcome(reference_validate_row, SCHEMA, row)
