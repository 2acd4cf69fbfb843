"""Storage engines: multi-version contract, durability, compaction."""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ChecksumError, KeyNotFoundError, ObsoleteVersionError
from repro.common.vectorclock import Occurred, VectorClock
from repro.simnet.disk import SimDisk
from repro.voldemort.engines import InMemoryStorageEngine, LogStructuredEngine
from repro.voldemort.versioned import Versioned


@pytest.fixture
def disk():
    return SimDisk().scope("node")


@pytest.fixture(params=["memory", "log"])
def engine(request, disk):
    if request.param == "memory":
        built = InMemoryStorageEngine()
    else:
        built = LogStructuredEngine("store", disk)
    yield built
    built.close()


def v(value: bytes, **entries) -> Versioned:
    return Versioned(value, VectorClock(entries or {1: 1}))


class TestVersionContract:
    def test_get_missing_key(self, engine):
        with pytest.raises(KeyNotFoundError):
            engine.get(b"missing")

    def test_put_get_roundtrip(self, engine):
        engine.put(b"k", v(b"value"))
        versions = engine.get(b"k")
        assert [x.value for x in versions] == [b"value"]

    def test_newer_version_replaces(self, engine):
        first = Versioned.initial(b"v1", 1)
        engine.put(b"k", first)
        engine.put(b"k", first.next_version(b"v2", 1))
        versions = engine.get(b"k")
        assert [x.value for x in versions] == [b"v2"]

    def test_obsolete_write_rejected(self, engine):
        first = Versioned.initial(b"v1", 1)
        second = first.next_version(b"v2", 1)
        engine.put(b"k", second)
        with pytest.raises(ObsoleteVersionError):
            engine.put(b"k", first)
        with pytest.raises(ObsoleteVersionError):
            engine.put(b"k", second)  # equal clock also rejected

    def test_concurrent_versions_coexist(self, engine):
        base = Versioned.initial(b"v", 1)
        engine.put(b"k", base)
        left = base.next_version(b"a", 1)
        right = base.next_version(b"b", 2)
        engine.put(b"k", left)
        engine.put(b"k", right)
        values = {x.value for x in engine.get(b"k")}
        assert values == {b"a", b"b"}

    def test_merge_resolves_siblings(self, engine):
        base = Versioned.initial(b"v", 1)
        engine.put(b"k", base)
        left = base.next_version(b"a", 1)
        right = base.next_version(b"b", 2)
        engine.put(b"k", left)
        engine.put(b"k", right)
        merged = Versioned(b"merged", left.clock.merged(right.clock).incremented(1))
        engine.put(b"k", merged)
        assert [x.value for x in engine.get(b"k")] == [b"merged"]

    def test_delete_writes_tombstone(self, engine):
        first = Versioned.initial(b"v", 1)
        engine.put(b"k", first)
        engine.delete(b"k", first.next_version(None, 1))
        with pytest.raises(KeyNotFoundError):
            engine.get(b"k")
        assert b"k" not in list(engine.keys())

    def test_keys_and_entries(self, engine):
        engine.put(b"a", v(b"1"))
        engine.put(b"b", v(b"2"))
        assert sorted(engine.keys()) == [b"a", b"b"]
        entries = {(k, x.value) for k, x in engine.entries()}
        assert entries == {(b"a", b"1"), (b"b", b"2")}


class TestLogStructuredDurability:
    def test_recovery_after_reopen(self, disk):
        engine = LogStructuredEngine("store", disk)
        first = Versioned.initial(b"v1", 1)
        engine.put(b"k", first)
        engine.put(b"k", first.next_version(b"v2", 1))
        engine.put(b"other", v(b"x"))
        engine.close()

        reopened = LogStructuredEngine("store", disk)
        assert [x.value for x in reopened.get(b"k")] == [b"v2"]
        assert [x.value for x in reopened.get(b"other")] == [b"x"]
        reopened.close()

    def test_torn_tail_truncated_on_recovery(self, disk):
        engine = LogStructuredEngine("store", disk)
        engine.put(b"good", v(b"value"))
        engine.close()
        with disk.open(f"store/{LogStructuredEngine.LOG_NAME}", "ab") as f:
            f.write(b"\x01\x02\x03garbage-partial-record")

        reopened = LogStructuredEngine("store", disk)
        assert [x.value for x in reopened.get(b"good")] == [b"value"]
        with pytest.raises(KeyNotFoundError):
            reopened.get(b"garbage")
        reopened.close()

    def test_corrupt_record_detected_on_read(self, disk):
        engine = LogStructuredEngine("store", disk)
        engine.put(b"k", v(b"A" * 100))
        engine._log.fsync()
        # flip a byte in the middle of the value region
        with disk.open(f"store/{LogStructuredEngine.LOG_NAME}", "rb+") as f:
            f.seek(60)
            f.write(b"\xff")
        with pytest.raises(ChecksumError):
            engine.get(b"k")
        engine.close()

    def test_compaction_reclaims_space(self, disk):
        engine = LogStructuredEngine("store", disk)
        current = Versioned.initial(b"0" * 1000, 1)
        engine.put(b"k", current)
        for i in range(20):
            current = current.next_version(str(i).encode() * 100, 1)
            engine.put(b"k", current)
        before = engine.log_size_bytes()
        reclaimed = engine.compact()
        assert reclaimed > 0
        assert engine.log_size_bytes() < before
        assert [x.value for x in engine.get(b"k")] == [current.value]
        engine.close()

    def test_compaction_drops_tombstones(self, disk):
        engine = LogStructuredEngine("store", disk)
        first = Versioned.initial(b"v", 1)
        engine.put(b"k", first)
        engine.delete(b"k", first.next_version(None, 1))
        engine.compact()
        assert list(engine.keys()) == []
        engine.close()

    def test_survives_compaction_then_reopen(self, disk):
        engine = LogStructuredEngine("store", disk)
        engine.put(b"a", v(b"1"))
        engine.put(b"b", v(b"2"))
        engine.compact()
        engine.close()
        reopened = LogStructuredEngine("store", disk)
        assert sorted(reopened.keys()) == [b"a", b"b"]
        reopened.close()


def _raw_record(key: bytes, clock: dict[int, int], value: bytes | None):
    """One ``data.log`` record spelled out byte by byte, independently
    of the engine and the WAL kernel: the format as of PR 11."""
    body = struct.pack("<I", len(key)) + key
    body += struct.pack("<H", len(clock))
    for node, counter in sorted(clock.items()):
        body += struct.pack("<QQ", node, counter)
    body += bytes([1 if value is None else 0])
    body += struct.pack("<I", len(value or b"")) + (value or b"")
    return struct.pack("<II", zlib.crc32(body), len(body)) + body


def test_data_log_byte_format_is_pinned(disk):
    """A log written as raw parent-format records opens under the
    engine, and what the engine appends is the same raw format."""
    log_file = f"store/{LogStructuredEngine.LOG_NAME}"
    old = (_raw_record(b"a", {1: 1}, b"one")
           + _raw_record(b"b", {1: 1, 2: 3}, b"two")
           + _raw_record(b"a", {1: 2}, None))
    with disk.open(log_file, "wb") as f:
        f.write(old)

    engine = LogStructuredEngine("store", disk)
    assert list(engine.keys()) == [b"b"]  # the tombstone hides a
    (got,) = engine.get(b"b")
    assert got.value == b"two" and got.clock.entries == {1: 1, 2: 3}
    assert engine.record_span(b"b") == (
        len(_raw_record(b"a", {1: 1}, b"one")),
        len(_raw_record(b"b", {1: 1, 2: 3}, b"two")))
    engine.put(b"c", Versioned(b"three", VectorClock({4: 1})))
    engine.close()
    with disk.open(log_file, "rb") as f:
        assert f.read() == old + _raw_record(b"c", {4: 1}, b"three")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=20),
                          st.binary(max_size=64)), max_size=30))
def test_log_engine_matches_memory_engine(pairs):
    """The on-disk engine and dict engine agree on every history."""
    log_engine = LogStructuredEngine("store", SimDisk().scope("node"))
    memory_engine = InMemoryStorageEngine()
    clocks: dict[bytes, Versioned] = {}
    try:
        for key, value in pairs:
            if key in clocks:
                versioned = clocks[key].next_version(value, 1)
            else:
                versioned = Versioned.initial(value, 1)
            clocks[key] = versioned
            log_engine.put(key, versioned)
            memory_engine.put(key, versioned)
        for key in clocks:
            assert ([x.value for x in log_engine.get(key)]
                    == [x.value for x in memory_engine.get(key)])
    finally:
        log_engine.close()


def reference_merge(existing: list[Versioned],
                    incoming: Versioned) -> list[Versioned]:
    """The write contract as ``StorageEngine.merge_version`` spelled it
    before the shared frontier routine."""
    survivors = []
    for versioned in existing:
        relation = incoming.clock.compare(versioned.clock)
        if relation in (Occurred.BEFORE, Occurred.EQUAL):
            raise ObsoleteVersionError("dominated or equal")
        if relation is Occurred.CONCURRENT:
            survivors.append(versioned)
    survivors.append(incoming)
    return survivors


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 3), st.integers(1, 3),
                                min_size=1, max_size=3), max_size=12))
def test_write_contract_matches_reference(clock_entries):
    """Dominated and equal writes raise, concurrent siblings stay in
    their order, the accepted write comes last — on both engines, and
    again after the log engine replays its file."""
    disk = SimDisk().scope("node")
    engines = [InMemoryStorageEngine(), LogStructuredEngine("store", disk)]
    expected: list[Versioned] = []
    try:
        for i, entries in enumerate(clock_entries):
            incoming = Versioned(b"v%d" % i, VectorClock(entries))
            try:
                expected = reference_merge(expected, incoming)
            except ObsoleteVersionError:
                for engine in engines:
                    with pytest.raises(ObsoleteVersionError):
                        engine.put(b"k", incoming)
            else:
                for engine in engines:
                    engine.put(b"k", incoming)
            for engine in engines:
                assert (engine.get(b"k") if expected else []) == expected
        engines[1].close()
        engines[1] = LogStructuredEngine("store", disk)
        assert (engines[1].get(b"k") if expected else []) == expected
    finally:
        engines[1].close()


def test_compact_aborts_when_put_races_the_fsync(disk):
    """A put landing while the compacted file is being fsynced must not
    be lost: the swap aborts and the next compaction retries."""
    engine = LogStructuredEngine("store", disk)
    base = Versioned.initial(b"a-value", 1)
    engine.put(b"a", base)
    engine.put(b"a", base.next_version(b"a-newer", 1))  # leaves garbage
    engine.put(b"b", v(b"x"))

    real_open = engine.disk.open

    class RacingFile:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def __enter__(self):
            self._inner.__enter__()
            return self

        def __exit__(self, *exc):
            return self._inner.__exit__(*exc)

        def fsync(self):
            engine.disk.open = real_open  # race only once
            engine.put(b"late", v(b"9"))  # lands mid-fsync
            self._inner.fsync()

    def racing_open(path, mode="rb"):
        handle = real_open(path, mode)
        if path.endswith(".tmp"):
            return RacingFile(handle)
        return handle

    engine.disk.open = racing_open
    assert engine.compact() == 0  # swap aborted, nothing replaced
    assert engine.get(b"late")[0].value == b"9"
    assert engine.get(b"a")[0].value == b"a-newer"

    assert engine.compact() > 0  # clean retry reclaims the garbage
    assert engine.get(b"late")[0].value == b"9"
    assert engine.get(b"b")[0].value == b"x"
    engine.close()
