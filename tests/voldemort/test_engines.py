"""Storage engines: multi-version contract, durability, compaction."""

import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ChecksumError, KeyNotFoundError, ObsoleteVersionError
from repro.common.vectorclock import Occurred, VectorClock
from repro.common.wal import FRAME_OVERHEAD, frame
from repro.simnet.disk import SimDisk, _SimFile
from repro.voldemort.engines import (
    InMemoryStorageEngine,
    LogStructuredEngine,
    logstructured,
)
from repro.voldemort.engines.logstructured import encode_body
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


def _flip_bit(disk, offset: int) -> None:
    disk.disk.flip_bit(disk.node, f"store/{LogStructuredEngine.LOG_NAME}",
                       offset=offset)


class TestPositionedRead:
    """A replica ``get`` reads each live version's whole frame once, at
    the offset and length its index entry holds, and never decodes the
    clock it already has; every kind of damage is still caught."""

    def test_one_disk_read_per_live_version(self, disk, monkeypatch):
        engine = LogStructuredEngine("store", disk)
        for node in (1, 2, 3):  # three concurrent versions
            engine.put(b"k", Versioned(b"v%d" % node, VectorClock({node: 1})))
        engine.put(b"other", v(b"x"))
        reads = []
        real_read = _SimFile.read
        monkeypatch.setattr(
            _SimFile, "read",
            lambda handle, size=-1: reads.append(size)
            or real_read(handle, size))

        def no_decode(*args):
            raise AssertionError("the read path decoded a clock")

        monkeypatch.setattr(logstructured, "_decode_clock", no_decode)
        got = engine.get(b"k")
        assert [x.value for x in got] == [b"v1", b"v2", b"v3"]
        assert [x.clock for x in got] == [VectorClock({n: 1}) for n in (1, 2, 3)]
        assert reads == [entry.length for entry in engine._index[b"k"]]
        reads.clear()
        assert [x.value for x in engine.get(b"other")] == [b"x"]
        assert len(reads) == 1
        engine.close()

    @pytest.mark.parametrize("where", ["crc", "length", "key", "value"])
    def test_a_flipped_byte_is_caught(self, disk, where):
        engine = LogStructuredEngine("store", disk)
        engine.put(b"before", v(b"first"))
        engine.put(b"key", v(b"value"))
        engine.put(b"after", v(b"last"))
        offset, length = engine.record_span(b"key")
        at = {"crc": 0, "length": 4, "key": FRAME_OVERHEAD + 4,
              "value": length - 1}[where]
        _flip_bit(disk, offset + at)
        with pytest.raises(ChecksumError):
            engine.get(b"key")
        assert [x.value for x in engine.get(b"before")] == [b"first"]
        assert [x.value for x in engine.get(b"after")] == [b"last"]
        engine.close()

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_an_index_length_the_header_disagrees_with_is_caught(
            self, disk, delta):
        engine = LogStructuredEngine("store", disk)
        engine.put(b"key", v(b"value"))
        engine.put(b"after", v(b"last"))
        engine._index[b"key"][0].length += delta
        with pytest.raises(ChecksumError):
            engine.get(b"key")
        engine.close()

    def test_an_index_entry_at_another_keys_frame_is_caught(self, disk):
        engine = LogStructuredEngine("store", disk)
        engine.put(b"key", v(b"value"))
        engine.put(b"yek", v(b"other"))
        (entry,) = engine._index[b"key"]
        entry.offset, entry.length = engine.record_span(b"yek")
        with pytest.raises(ChecksumError, match="at record for b'yek'"):
            engine.get(b"key")
        engine.close()


class TestRecordSpan:
    def test_names_the_live_record_not_a_concurrent_tombstone(self, disk):
        """A bit flipped where ``record_span`` points — the last byte,
        as ``FaultInjector.flip_voldemort_bit`` places it — must surface
        on the next read, so the span never names a tombstone."""
        engine = LogStructuredEngine("store", disk)
        engine.put(b"k", Versioned(b"live", VectorClock({1: 1})))
        engine.delete(b"k", Versioned(None, VectorClock({2: 1})))
        live, tombstone = engine._index[b"k"]
        assert tombstone.tombstone
        offset, length = engine.record_span(b"k")
        assert (offset, length) == (live.offset, live.length)
        _flip_bit(disk, offset + length - 1)
        with pytest.raises(ChecksumError):
            engine.get(b"k")
        engine.close()

    def test_a_key_with_only_tombstones_has_no_span(self, disk):
        engine = LogStructuredEngine("store", disk)
        first = Versioned.initial(b"v", 1)
        engine.put(b"k", first)
        engine.delete(b"k", first.next_version(None, 1))
        with pytest.raises(KeyNotFoundError):
            engine.record_span(b"k")
        with pytest.raises(KeyNotFoundError):
            engine.record_span(b"never-written")
        engine.close()


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


def test_data_log_is_the_framed_bodies_end_to_end(disk):
    """A put hands the log its value as a separate part; the file is
    still exactly ``frame(encode_body(...))`` per record, for a live
    value, an empty one and a tombstone."""
    script = [(b"a", Versioned(b"one" * 50, VectorClock({1: 1}))),
              (b"b", Versioned(b"", VectorClock({2: 1}))),
              (b"a", Versioned(None, VectorClock({1: 2}))),
              (b"a", Versioned(b"again", VectorClock({1: 3, 2: 1})))]
    engine = LogStructuredEngine("store", disk)
    for key, versioned in script:
        if versioned.is_tombstone:
            engine.delete(key, versioned)
        else:
            engine.put(key, versioned)
    engine.close()
    with disk.open(f"store/{LogStructuredEngine.LOG_NAME}", "rb") as f:
        assert f.read() == b"".join(frame(encode_body(key, versioned))
                                    for key, versioned in script)


class TestSharedValues:
    """Three replicas on one disk store the value a client sent them as
    that very object; damage to one replica's file stays in that file."""

    VALUE = bytes(range(256)) * 4

    def _replicas(self):
        disk = SimDisk(seed=3)
        engines = [LogStructuredEngine("store", disk.scope(f"r{i}"))
                   for i in range(3)]
        versioned = Versioned(bytes(self.VALUE), VectorClock({1: 1}))
        return disk, engines, versioned

    def test_the_log_holds_the_callers_value(self):
        disk, engines, versioned = self._replicas()
        for engine in engines:
            engine.put(b"k", versioned)
        for i, engine in enumerate(engines):
            extents = disk._files[f"r{i}/store/data.log"].extents
            assert extents[-1] is versioned.value
            assert [x.value for x in engine.get(b"k")] == [self.VALUE]

    def test_a_flipped_bit_in_one_replicas_value_stays_there(self):
        disk, engines, versioned = self._replicas()
        for engine in engines:
            engine.put(b"k", versioned)
        offset, length = engines[0].record_span(b"k")
        value_at = offset + length - len(self.VALUE)
        disk.flip_bit("r0", "store/data.log", offset=value_at + 100, bit=3)
        with pytest.raises(ChecksumError):
            engines[0].get(b"k")
        for engine in engines[1:]:
            assert [x.value for x in engine.get(b"k")] == [self.VALUE]
        assert versioned.value == self.VALUE

    def test_a_write_torn_inside_the_value_loses_that_frame_whole(
            self, monkeypatch):
        disk, engines, versioned = self._replicas()
        first = Versioned(b"first", VectorClock({1: 1}))
        for engine in engines:
            engine.put(b"first", first)
        for engine in engines[1:]:
            engine.put(b"k", versioned)
        before = {i: disk._files[f"r{i}/store/data.log"].read(
            0, disk.getsize(f"r{i}/store/data.log")) for i in (1, 2)}

        class Crash(Exception):
            pass

        def die(handle):
            raise Crash

        head = len(encode_body(b"k", versioned)) - len(self.VALUE)
        disk.arm_torn_write("r0", "store/data.log",
                            keep_bytes=FRAME_OVERHEAD + head + 500)
        with monkeypatch.context() as patch:
            patch.setattr(_SimFile, "fsync", die)
            with pytest.raises(Crash):
                engines[0].put(b"k", versioned)
        disk.crash_node("r0")

        recovered = LogStructuredEngine("store", disk.scope("r0"))
        assert recovered.torn_bytes_truncated == FRAME_OVERHEAD + head + 500
        assert list(recovered.keys()) == [b"first"]
        with pytest.raises(KeyNotFoundError):
            recovered.get(b"k")
        recovered.close()
        for i in (1, 2):
            with disk.open(f"r{i}/store/data.log", "rb") as f:
                assert f.read() == before[i]
            assert [x.value for x in engines[i].get(b"k")] == [self.VALUE]
        assert versioned.value == self.VALUE

    def test_compaction_keeps_the_callers_value(self):
        """A compaction that drops a superseded version and a tombstone
        rewrites each replica's file to the framed bodies of its live
        records, byte for byte, and the value extent is still the object
        the client sent; a flipped value byte still fails the read."""
        disk = SimDisk(seed=5)
        engines = [LogStructuredEngine("store", disk.scope(f"r{i}"))
                   for i in range(3)]
        value = bytes(self.VALUE)
        script = [(b"k", Versioned(b"old value", VectorClock({1: 1}))),
                  (b"gone", Versioned(b"x", VectorClock({2: 1}))),
                  (b"gone", Versioned(None, VectorClock({2: 2}))),
                  (b"k", Versioned(value, VectorClock({1: 2}))),
                  (b"empty", Versioned(b"", VectorClock({3: 1})))]
        live = [script[3], script[4]]
        for engine in engines:
            for key, versioned in script:
                if versioned.is_tombstone:
                    engine.delete(key, versioned)
                else:
                    engine.put(key, versioned)
            assert engine.compact() > 0
        for i, engine in enumerate(engines):
            path = f"r{i}/store/data.log"
            with disk.open(path, "rb") as f:
                assert f.read() == b"".join(frame(encode_body(key, versioned))
                                            for key, versioned in live)
            assert disk._files[path].extents[1] is value
            assert [x.value for x in engine.get(b"k")] == [self.VALUE]
        offset, length = engines[0].record_span(b"k")
        disk.flip_bit("r0", "store/data.log",
                      offset=offset + length - len(value) + 7, bit=1)
        with pytest.raises(ChecksumError):
            engines[0].get(b"k")
        for engine in engines[1:]:
            assert [x.value for x in engine.get(b"k")] == [self.VALUE]
        assert value == self.VALUE


def _retained_per_replica_put(compact: bool) -> float:
    """Bytes left allocated per replica put by 2 000 puts of a 1 KiB
    value on each of three replicas, each replica compacted at the end
    when ``compact`` is set (every version is live, so the compaction
    rewrites the whole log)."""
    disk = SimDisk()
    engines = [LogStructuredEngine("store", disk.scope(f"r{i}"))
               for i in range(3)]
    keys = [b"key-%06d" % i for i in range(2000)]
    versions = [Versioned(bytes([i % 256]) * 1024, VectorClock({1: i + 1}))
                for i in range(2000)]
    for engine in engines:
        engine.put(b"warm-up", versions[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key, versioned in zip(keys, versions):
            for engine in engines:
                engine.put(key, versioned)
        if compact:
            for engine in engines:
                engine.compact()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / (len(keys) * len(engines))


def test_a_replica_put_retains_its_head_not_its_value():
    """What the puts leave allocated is the index and each frame's head,
    not a copy of the value per replica (1 402 B per put when the log
    copied it, ~360 B now)."""
    assert _retained_per_replica_put(compact=False) <= 700


def test_a_compacted_replica_retains_its_head_not_its_value():
    """The same bound after every replica compacted: the rewrite keeps
    the value each put stored (about 1 320 B per put when a compaction
    framed private copies of every live value)."""
    assert _retained_per_replica_put(compact=True) <= 700


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=20),
                          st.binary(max_size=64)), max_size=30))
def test_log_engine_matches_memory_engine(pairs):
    """The on-disk engine and dict engine agree on every history, and
    again after a compaction and a reopen have rewritten every offset
    the positioned reads go to."""
    disk = SimDisk().scope("node")
    log_engine = LogStructuredEngine("store", disk)
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
        for step in ("written", "compacted", "reopened"):
            if step == "compacted":
                log_engine.compact()
            elif step == "reopened":
                log_engine.close()
                log_engine = LogStructuredEngine("store", disk)
            for key in clocks:
                assert log_engine.get(key) == memory_engine.get(key), step
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
