"""A written document reaches the secondary index through a projection.

``_apply_changes`` (master commit, slave apply, WAL replay, snapshot
load) resolves ``val`` against the latest schema restricted to its
indexed fields instead of decoding the whole document.  These tests hold
that to the definition it replaced — the terms of the *fully decoded*
document — for documents whose in-hand form is not what was stored
(defaulted, null-filled and coerced fields), across a schema change, on
every apply path; and they count what is no longer built.
"""

import random

import pytest

from repro.common.errors import SerializationError
from repro.common.serialization import Field, RecordSchema
from repro.databus.relay import Relay
from repro.espresso import (
    DatabaseSchema,
    DocumentSchemaRegistry,
    EspressoStorageNode,
    EspressoTableSchema,
)
from repro.espresso.index import LocalSecondaryIndex
from repro.simnet.disk import SimDisk
from repro.sqlstore.binlog import ChangeEvent, ChangeKind

from tests.common.codec_calls import DECODES, codec_calls

LIB = DatabaseSchema(
    name="Lib", num_partitions=4, replication_factor=2,
    tables=(EspressoTableSchema("Doc", ("owner", "doc")),
            EspressoTableSchema("Blob", ("owner",))))
DOC_V1 = RecordSchema("Doc", [
    Field("title", "string"),
    Field("rank", "int", default=3, has_default=True, indexed=True),
    Field("tag", ["null", "string"], indexed=True),
    Field("score", "long", indexed=True),
    Field("label", "string", indexed=True),
    Field("notes", {"array": "string"}, default=[], has_default=True),
    Field("body", ["null", "string"], free_text=True),
    Field("attrs", {"map": "long"}, default={}, has_default=True),
])
# v2 widens an indexed field (its term changes from "7" to "7.0" for
# documents stored under v1) and adds a defaulted indexed one
DOC_V2 = RecordSchema("Doc", [
    Field("rank", "double", default=3, has_default=True, indexed=True)
    if f.name == "rank" else f for f in DOC_V1.fields
] + [Field("region", "string", default="emea", has_default=True,
           indexed=True)])
BLOB = RecordSchema("Blob", [Field("data", "string"), Field("size", "long")])
WORDS = "lucy in the sky with diamonds eggman walrus".split()


def seeded_documents(seed: int, count: int) -> list[tuple[tuple, dict]]:
    """Documents whose in-hand form differs from ``decode(encode(doc))``:
    indexed fields left to their default or to null, an ``int`` given as
    ``"7"``, a ``long`` as ``7.0``, a string as a number."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        document = {"title": f"doc {i}",
                    "score": rng.choice([i, float(i)]),
                    "label": rng.choice([f"l{i % 3}", i % 3])}
        if rng.random() < 0.6:
            document["rank"] = rng.choice([i % 5, str(i % 5)])
        if rng.random() < 0.5:
            document["tag"] = rng.choice([None, f"T{i % 4}"])
        if rng.random() < 0.7:
            document["body"] = " ".join(rng.sample(WORDS, 3))
        if rng.random() < 0.5:
            document["notes"] = rng.sample(WORDS, 2)
            document["attrs"] = {"views": i, "stars": -i}
        out.append(((f"owner{i % 4}", f"d{i % 9}"), document))
    return out


@pytest.fixture
def world():
    schemas = DocumentSchemaRegistry()
    schemas.post("Lib", "Doc", DOC_V1)
    schemas.post("Lib", "Blob", BLOB)
    return schemas, Relay(), SimDisk()


def make_node(world, name: str, role: str) -> EspressoStorageNode:
    schemas, relay, disk = world
    node = EspressoStorageNode(name, LIB, schemas, relay,
                               disk=disk.scope(name))
    for partition in range(LIB.num_partitions):
        node.become_slave(partition)
        if role == "MASTER":
            node.become_master(partition)
    return node


def catch_up(slave: EspressoStorageNode) -> None:
    for partition in range(LIB.num_partitions):
        slave.catch_up(partition)


def assert_index_is_the_full_decode(node: EspressoStorageNode) -> None:
    index = node._index_for("Doc")
    rows = list(node.local.table("Doc").scan())
    assert rows
    expected = {}
    for row in rows:
        record = node._decode_row("Doc", row)
        terms = index._terms_for(record.document)
        assert terms            # every seeded document has indexed values
        expected[record.key] = terms
    assert index._doc_terms == expected
    # ... and the postings answer queries from exactly those terms
    for fieldname, value in [("label", "l1"), ("rank", "3"), ("rank", "3.0"),
                             ("region", "emea"), ("body", "lucy sky")]:
        if fieldname not in {f.name for f in index.projection.fields}:
            continue            # region arrives with v2
        wanted = {(fieldname, token) for token in value.split()}
        assert index.query(fieldname, value) == sorted(
            key for key, terms in expected.items() if wanted <= terms)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_index_terms_equal_the_full_decode_on_every_apply_path(world, seed):
    schemas = world[0]
    master = make_node(world, "n0", "MASTER")
    slave = make_node(world, "n1", "SLAVE")
    documents = seeded_documents(seed, 60)
    for key, document in documents[:30]:            # stored under v1
        master.put_document("Doc", key, document)
    catch_up(slave)
    assert_index_is_the_full_decode(master)         # master commit
    assert_index_is_the_full_decode(slave)          # slave apply

    schemas.post("Lib", "Doc", DOC_V2)
    # v1 rows re-indexed through the v1 -> v2 projection, on first touch
    assert_index_is_the_full_decode(master)
    for key, document in documents[30:]:            # v2, some overwrite v1
        master.put_document("Doc", key, document)
    master.delete_document("Doc", documents[-1][0])
    catch_up(slave)
    versions = {row["schema_version"]
                for row in master.local.table("Doc").scan()}
    assert versions == {1, 2}
    assert_index_is_the_full_decode(master)
    assert_index_is_the_full_decode(slave)

    replayed = make_node(world, "n1", "SLAVE")      # WAL replay
    assert replayed.recovered_windows > 0
    assert replayed._index_for("Doc")._doc_terms == \
        slave._index_for("Doc")._doc_terms
    assert_index_is_the_full_decode(replayed)

    loaded = make_node(world, "n2", "SLAVE")        # snapshot load
    for partition in range(LIB.num_partitions):
        scn, rows = master.partition_snapshot(partition)
        loaded.load_partition_snapshot(partition, scn, rows)
    assert loaded._index_for("Doc")._doc_terms == \
        master._index_for("Doc")._doc_terms
    assert_index_is_the_full_decode(loaded)


def test_projection_reader_is_the_latest_schema_restricted_to_its_index():
    projection = LocalSecondaryIndex(DOC_V2).projection
    assert [f.name for f in projection.fields] == [
        "rank", "tag", "score", "label", "body", "region"]
    assert projection.version == DOC_V2.version
    assert LocalSecondaryIndex(BLOB).projection.fields == []


# -- damage ------------------------------------------------------------------

def test_truncated_val_raises_on_apply_for_an_indexed_table(world):
    """Wherever the cut falls — in an indexed field or in one the
    projection only skips (``attrs`` is last and not indexed)."""
    node = make_node(world, "n0", "MASTER")
    key = ("owner0", "d0")
    row = node._build_row("Doc", key, {
        "title": "t", "score": 1, "label": "l", "body": "lucy",
        "notes": ["a", "b"], "attrs": {"views": 1234567}})
    for cut in range(len(row["val"])):
        damaged = {**row, "val": row["val"][:cut]}
        with pytest.raises(SerializationError):
            node._apply_changes(
                [ChangeEvent("Doc", ChangeKind.INSERT, key, damaged)])
        with pytest.raises(SerializationError):
            node.load_partition_snapshot(0, 1, {"Doc": [damaged]})
    node._apply_changes([ChangeEvent("Doc", ChangeKind.INSERT, key, row)])
    assert node.query_index("Doc", "body", "lucy")[0].key == key


def test_un_indexed_table_reads_nothing_on_apply_so_damage_shows_on_read(world):
    """The price of building nothing for a table with no index: its
    ``val`` is first looked at when somebody reads it, and a truncated
    one raises there."""
    node = make_node(world, "n0", "MASTER")
    row = node._build_row("Blob", ("owner0",), {"data": "x" * 20, "size": 20})
    damaged = {**row, "val": row["val"][:-1]}
    with codec_calls() as calls:
        node._apply_changes(
            [ChangeEvent("Blob", ChangeKind.INSERT, ("owner0",), damaged)])
    assert calls == []
    with pytest.raises(SerializationError):
        node.get_document("Blob", ("owner0",))


# -- count guards --------------------------------------------------------------

def test_writes_to_an_un_indexed_table_build_no_document(world):
    schemas, relay, _ = world
    master = make_node(world, "n0", "MASTER")
    slave = make_node(world, "n1", "SLAVE")
    writes = 25
    with codec_calls() as calls:
        for i in range(writes):
            master.put_document("Blob", (f"owner{i}",),
                                {"data": f"blob {i}", "size": i})
    assert calls.count(*DECODES) == 0               # was: one per write
    assert calls.count("encode_record") == 2 * writes   # document + row
    with codec_calls() as calls:
        catch_up(slave)
    # the slave decodes each event's *row*; the document inside stays bytes
    row_schema = relay.schemas.get("Blob", 1)
    assert calls.count(*DECODES) == writes
    assert calls.count("decode_record", schema=row_schema) == writes
    assert calls.count(schema=schemas.latest("Lib", "Blob")) == 0
    assert slave.get_document("Blob", ("owner3",)).document == \
        {"data": "blob 3", "size": 3}


def test_writes_to_an_indexed_table_project_once_and_decode_no_document(world):
    schemas = world[0]
    master = make_node(world, "n0", "MASTER")
    documents = seeded_documents(5, 20)
    with codec_calls() as calls:
        for key, document in documents:
            master.put_document("Doc", key, document)
    doc_schema = schemas.latest("Lib", "Doc")
    assert calls.count("decode_with_resolution", schema=doc_schema) == \
        len(documents)
    assert calls.count("decode_record") == 0
