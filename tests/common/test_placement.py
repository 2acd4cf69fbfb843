"""Placement is one hash: every site that routes a key asks
``repro.common.ring`` and lands exactly where its former private
formula did.

Each ``reference_*`` function below is the formula a site used before
it called the ring, kept verbatim, so a change to the ring's bits, to a
site's input bytes, or to its width fails here before it moves a
placement, a pinned trace or an EXPERIMENTS number.
"""

import ast
import hashlib
import random
import struct
from pathlib import Path

import pytest

from repro.common.clock import SimClock
from repro.common.errors import UnsupportedTypeError
from repro.common.ring import (
    build_balanced_ring, hash_key, key_digest, partition32)
from repro.databus.events import DatabusEvent, partition_filter
from repro.espresso.schema import DatabaseSchema
from repro.hadoop import MapReduceJob, MiniHDFS
from repro.kafka import KafkaCluster, Producer, SimpleConsumer
from repro.migration.dualwrite import ramp_bucket
from repro.simnet import SimDisk
from repro.sqlstore.binlog import ChangeKind
from repro.streams import route_key
from repro.voldemort import StoreDefinition, VoldemortCluster
from repro.voldemort.chord import ChordRing, FullTopologyRouter
from repro.voldemort.engines.readonly import INDEX_ENTRY, build_store_files
from repro.voldemort.readonly_pipeline import ReadOnlyPipelineController

INPUTS = 10_000
COUNTS = range(1, 65)
ALPHABET = "aZ09-_:/ é中😀ß \u0000"


# -- the former formulas, verbatim --------------------------------------------

def reference_hash_key(key):                      # common/ring.py
    digest = hashlib.md5(key).digest()
    return int.from_bytes(digest[:8], "big")


def reference_partition_for(resource_id, num_partitions):   # espresso/schema.py
    digest = hashlib.md5(resource_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_partitions


def reference_key_hash(source, key):              # databus/events.py
    material = repr((source, key)).encode()
    return int.from_bytes(hashlib.md5(material).digest()[:8], "big")


def reference_chord_hash(data):                   # voldemort/chord.py
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


def reference_choose_partition(key, count):       # kafka/producer.py
    digest = hashlib.md5(key).digest()
    return int.from_bytes(digest[:4], "big") % count


def reference_route_key(key, partitions):         # streams/task.py
    digest = hashlib.md5(key.encode()).digest()
    return int.from_bytes(digest[:4], "big") % partitions


def reference_default_partitioner(key, num_reducers):   # hadoop/mapreduce.py
    digest = hashlib.md5(key).digest()
    return int.from_bytes(digest[:4], "big") % num_reducers


def reference_ramp_bucket(table, source_key):     # migration/dualwrite.py
    material = repr((table, source_key)).encode()
    return int.from_bytes(hashlib.md5(material).digest()[:4], "big") % 100


def reference_index_digest(key):                  # voldemort read-only index
    return hashlib.md5(key).digest()


# -- seeded inputs ---------------------------------------------------------------

def str_keys(seed):
    """The empty key, then random keys over ASCII, non-ASCII and NUL."""
    rng = random.Random(seed)
    return [""] + ["".join(rng.choice(ALPHABET)
                           for _ in range(rng.randint(1, 24)))
                   for _ in range(INPUTS - 1)]


def byte_keys(seed):
    """The UTF-8 of half the str keys (the empty key first), then
    arbitrary bytes."""
    rng = random.Random(seed)
    half = [key.encode() for key in str_keys(seed)[:INPUTS // 2]]
    return half + [rng.randbytes(rng.randint(1, 32))
                   for _ in range(INPUTS - len(half))]


def tuple_keys(seed):
    """Primary-key tuples of the shapes sqlstore and Databus carry."""
    rng = random.Random(seed)
    words = str_keys(seed)
    shapes = [lambda i: (i,), lambda i: (words[i],),
              lambda i: (rng.randint(-10**9, 10**9), words[i]),
              lambda i: (words[i], rng.randint(0, 99), words[-i])]
    return [()] + [shapes[i % 4](i) for i in range(1, INPUTS)]


def with_counts(keys):
    return [(key, COUNTS[i % len(COUNTS)]) for i, key in enumerate(keys)]


# -- each site against its reference ----------------------------------------------

def test_ring_hashes_match_the_former_formulas():
    keys = byte_keys(1)
    assert [hash_key(key) for key in keys] == \
        [reference_hash_key(key) for key in keys]
    assert [key_digest(key) for key in keys] == \
        [reference_index_digest(key) for key in keys]
    for key, count in with_counts(keys):
        assert partition32(key, count) == \
            reference_choose_partition(key, count)
    ring = build_balanced_ring(4, 64)
    assert ring.partitions_for_keys(keys) == \
        [reference_hash_key(key) % 64 for key in keys]


def padding_edge_keys(seed):
    """Every length 0…300 with seeded contents, so each key crosses
    MD5's 55/56/64-byte padding edges, then all 256 one-byte keys."""
    rng = random.Random(seed)
    return [rng.randbytes(length) for length in range(301)] + \
        [bytes([b]) for b in range(256)]


def test_the_ring_kernel_equals_hashlib_md5():
    """The ring's digest is its own MD5 implementation, not hashlib's:
    every width must still read exactly what ``hashlib.md5`` gives."""
    keys = padding_edge_keys(12)
    assert [key_digest(key) for key in keys] == \
        [hashlib.md5(key).digest() for key in keys]
    assert [hash_key(key) for key in keys] == \
        [reference_hash_key(key) for key in keys]
    for count in COUNTS:
        assert [partition32(key, count) for key in keys] == \
            [reference_choose_partition(key, count) for key in keys]
    for count in (1, 7, 48, 64):
        assert build_balanced_ring(1, count).partitions_for_keys(keys) == \
            [reference_hash_key(key) % count for key in keys]


@pytest.mark.parametrize("key", ["k", bytearray(b"k"), memoryview(b"k")],
                         ids=["str", "bytearray", "memoryview"])
def test_the_ring_kernel_takes_only_bytes(key):
    """The built-in MD5 would digest a bytearray or a memoryview; the
    ring's ``isinstance`` check is what keeps a key ``bytes``."""
    ring = build_balanced_ring(2, 8)
    for call in (key_digest, hash_key, lambda k: partition32(k, 8),
                 ring.partition_for_key,
                 lambda k: ring.partitions_for_keys([b"ok", k])):
        with pytest.raises(UnsupportedTypeError):
            call(key)


def test_espresso_partition_for_matches():
    schemas = {count: DatabaseSchema("db", num_partitions=count)
               for count in COUNTS}
    for resource_id, count in with_counts(str_keys(2)):
        assert schemas[count].partition_for(resource_id) == \
            reference_partition_for(resource_id, count)
    unpartitioned = DatabaseSchema("db", partitioning="unpartitioned")
    assert unpartitioned.partition_for("anything") == 0


def test_databus_key_hash_and_partition_filter_match():
    for scn, (key, count) in enumerate(with_counts(tuple_keys(3)), start=1):
        source = ("member", "inbox", "é")[scn % 3]
        event = DatabusEvent(scn, source, ChangeKind.UPDATE, key, b"")
        expected = reference_key_hash(source, key)
        assert event.key_hash() == expected
        assert partition_filter(count, expected % count)(event)
        if count > 1:
            assert not partition_filter(count, (expected + 1) % count)(event)


def test_chord_places_nodes_and_keys_with_the_former_hash():
    names = [f"node-{i:03d}" for i in range(64)]
    ring = ChordRing(names)
    assert sorted(ring.nodes) == \
        sorted(reference_chord_hash(name.encode()) for name in names)
    ids = sorted((reference_chord_hash(name.encode()), name)
                 for name in names)
    router = FullTopologyRouter(names)
    for key in byte_keys(4):
        point = reference_chord_hash(key)
        owner = next((name for node_id, name in ids if node_id >= point),
                     ids[0][1])
        assert router.lookup(key) == (owner, 1)


def test_kafka_producer_partition_matches():
    cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                           clock=SimClock())
    for count in COUNTS:
        cluster.create_topic(f"t{count}", partitions=count)
    producer = Producer(cluster)
    for key, count in with_counts(byte_keys(5)):
        assert producer._choose_partition(f"t{count}", key) == \
            reference_choose_partition(key, count)


def test_streams_route_key_matches():
    for key, count in with_counts(str_keys(6)):
        assert route_key(key, count) == reference_route_key(key, count)


def test_mapreduce_default_partitioner_matches():
    job = MapReduceJob("placement", mapper=None, reducer=None)
    for key, count in with_counts(byte_keys(7)):
        assert job.partitioner(key, count) == \
            reference_default_partitioner(key, count)


def test_migration_ramp_bucket_matches():
    for i, key in enumerate(tuple_keys(8)):
        table = ("members", "inbox", "")[i % 3]
        assert ramp_bucket(table, key) == reference_ramp_bucket(table, key)


def _records(data):
    """The keys of a read-only data file, in file order, with offsets."""
    offset, out = 0, []
    while offset < len(data):
        (key_len,) = struct.unpack_from("<I", data, offset)
        key = data[offset + 4:offset + 4 + key_len]
        (value_len,) = struct.unpack_from("<I", data, offset + 4 + key_len)
        out.append((key, offset))
        offset += 8 + key_len + value_len
    return out


def _reference_index(data):
    return b"".join(INDEX_ENTRY.pack(reference_index_digest(key), offset)
                    for key, offset in _records(data))


def test_readonly_store_files_match():
    keys = byte_keys(9)
    index, data = build_store_files((key, b"v" + key) for key in set(keys))
    digests = [reference_index_digest(key) for key, _ in _records(data)]
    assert digests == sorted(digests)
    assert index == _reference_index(data)


def test_readonly_pipeline_build_matches():
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", replication_factor=2, required_reads=1, required_writes=1,
        engine_type="read-only"))
    hdfs = MiniHDFS()
    controller = ReadOnlyPipelineController(cluster, hdfs, "pymk")
    keys = sorted(set(byte_keys(10)))
    build = controller.build((key, b"v") for key in keys)
    assert sum(build.records_per_node.values()) == 2 * len(keys)
    for node_id in cluster.ring.nodes:
        data = hdfs.read(f"{build.hdfs_dir}/node-{node_id}.data")
        digests = [reference_index_digest(key) for key, _ in _records(data)]
        assert digests == sorted(digests)
        assert hdfs.read(f"{build.hdfs_dir}/node-{node_id}.index") == \
            _reference_index(data)


# -- the producer and the stream router agree, end to end ----------------------------

@pytest.mark.parametrize("partitions", [1, 7, 16])
def test_a_keyed_send_lands_where_route_key_says(partitions):
    cluster = KafkaCluster(num_brokers=2, data_root="kafka",
                           clock=SimClock())
    cluster.create_topic("events", partitions=partitions)
    producer = Producer(cluster, batch_size=50)
    keys = str_keys(11)[:500]
    for key in keys:
        producer.send("events", key.encode(), key=key.encode())
    producer.flush()
    consumer = SimpleConsumer(cluster)
    landed = {}
    for tp in cluster.topic_layout("events"):
        offset = 0
        while batch := list(consumer.fetch("events", tp.partition, offset)):
            for payload, offset in batch:
                landed.setdefault(payload.decode(), set()).add(tp.partition)
    assert landed == {key: {route_key(key, partitions)} for key in keys}


# -- the guard: no new placement site re-derives the hash ------------------------------

ROOT = Path(__file__).resolve().parents[2]
RING = "src/repro/common/ring.py"
# content fingerprints hash values, never keys, so no placement reads them
FINGERPRINTS = {
    "src/repro/espresso/storage.py":
        "a document's etag is a digest of its stored bytes",
    "src/repro/voldemort/readonly_pipeline.py":
        "the update stream diffs versions by digests of their values",
}


def md5_uses(root):
    """``(path, line)`` of every use of MD5 under ``src/repro`` outside
    the ring: ``hashlib.md5``, ``from hashlib import md5``,
    ``hashlib.new("md5")``, and any import of the built-in ``_md5``
    (``import _md5``, ``from _md5 import …``)."""
    found = []
    for path in sorted((root / "src/repro").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == RING:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "hashlib"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "md5" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.append((rel, node.lineno))
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "hashlib" \
                    and any(alias.name in ("md5", "new")
                            for alias in node.names):
                found.append((rel, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "_md5" \
                    or isinstance(node, ast.Import) \
                    and any(alias.name == "_md5" for alias in node.names):
                found.append((rel, node.lineno))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "new" and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and str(node.args[0].value).lower() == "md5":
                found.append((rel, node.lineno))
    return found


def test_only_the_ring_hashes_keys_with_md5():
    """A placement site asks ``repro.common.ring``; only the two content
    fingerprints call MD5 themselves, once each."""
    uses = md5_uses(ROOT)
    assert sorted(rel for rel, _ in uses) == sorted(FINGERPRINTS), uses


def test_the_md5_guard_sees_every_spelling(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "a.py").write_text("import hashlib as h\nh.md5(b'k')\n")
    (package / "b.py").write_text("from hashlib import md5\n")
    (package / "c.py").write_text("import hashlib\nhashlib.new('MD5')\n")
    (package / "d.py").write_text("import hashlib\nhashlib.sha1(b'k')\n")
    (package / "e.py").write_text("import os, _md5 as m\nm.md5(b'k')\n")
    (package / "f.py").write_text("x = 1\nfrom _md5 import md5\n")
    assert md5_uses(tmp_path) == [("src/repro/a.py", 2), ("src/repro/b.py", 1),
                                  ("src/repro/c.py", 2), ("src/repro/e.py", 1),
                                  ("src/repro/f.py", 2)]
