"""SimDisk semantics: fsync boundary, crashes, torn writes, bit flips."""

import errno
import hashlib
import os
import tracemalloc

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.simnet.disk import LocalDisk, SimDisk


@pytest.fixture
def disk():
    return SimDisk(clock=SimClock(), seed=42)


class TestBasicFiles:
    def test_write_read_roundtrip(self, disk):
        with disk.open("n/a.log", "ab") as f:
            f.write(b"hello")
        with disk.open("n/a.log", "rb") as f:
            assert f.read() == b"hello"

    def test_missing_file_raises(self, disk):
        with pytest.raises(FileNotFoundError):
            disk.open("n/missing", "rb")

    def test_wb_truncates(self, disk):
        with disk.open("n/f", "ab") as f:
            f.write(b"old")
        with disk.open("n/f", "wb") as f:
            f.write(b"new")
        with disk.open("n/f", "rb") as f:
            assert f.read() == b"new"

    def test_append_mode_always_writes_at_end(self, disk):
        f = disk.open("n/f", "ab+")
        f.write(b"abc")
        f.seek(0)
        f.write(b"XY")
        f.seek(0)
        assert f.read() == b"abcXY"

    def test_listdir_and_getsize(self, disk):
        disk.open("n/dir/b", "ab").write(b"22")
        disk.open("n/dir/a", "ab").write(b"1")
        assert disk.listdir("n/dir") == ["a", "b"]
        assert disk.getsize("n/dir/a") == 1

    def test_closed_handle_raises(self, disk):
        f = disk.open("n/f", "ab")
        f.close()
        with pytest.raises(ValueError):
            f.write(b"x")

    def test_scope_namespaces_paths(self, disk):
        scope = disk.scope("node-0")
        scope.open("data/f", "ab").write(b"x")
        assert disk.exists("node-0/data/f")
        assert scope.exists("data/f")


    @pytest.mark.parametrize("offset, whence", [
        (-3, os.SEEK_SET), (-20, os.SEEK_CUR), (-20, os.SEEK_END)])
    def test_negative_seek_raises_einval_like_a_real_file(
            self, disk, tmp_path, offset, whence):
        """A seek before byte 0 fails and leaves the position where it
        was, on the simulated disk exactly as on the host's."""
        real = str(tmp_path / "f")
        for d, path in ((disk, "n/f"), (LocalDisk(), real)):
            with d.open(path, "wb") as f:
                f.write(b"0123456789")
            with d.open(path, "rb+") as f:
                f.seek(4)
                with pytest.raises(OSError) as raised:
                    f.seek(offset, whence)
                assert raised.value.errno == errno.EINVAL
                assert f.tell() == 4
                assert f.read(2) == b"45"
                f.write(b"XY")
            with d.open(path, "rb") as f:
                assert f.read() == b"012345XY89"

    def test_negative_truncate_raises_einval_like_a_real_file(
            self, disk, tmp_path):
        real = str(tmp_path / "f")
        for d, path in ((disk, "n/f"), (LocalDisk(), real)):
            with d.open(path, "wb") as f:
                f.write(b"0123456789")
                with pytest.raises(OSError) as raised:
                    f.truncate(-3)
                assert raised.value.errno == errno.EINVAL
            assert d.getsize(path) == 10

    @pytest.mark.parametrize("mutate", ["before-fsync", "after-fsync"])
    def test_a_written_buffer_is_not_aliased(self, disk, mutate):
        """The file holds what the buffer held at ``write``: changing a
        ``bytearray`` or a ``memoryview`` afterwards changes neither the
        page cache nor the durable image."""
        first = bytearray(b"bytearray|")
        second = bytearray(b"memoryview")
        f = disk.open("n/f", "ab")
        f.write(first)
        f.write(memoryview(second))

        def scribble():
            first[:] = b"X" * len(first)
            second[0:4] = b"YYYY"

        if mutate == "before-fsync":
            scribble()
        f.fsync()
        if mutate == "after-fsync":
            scribble()
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"bytearray|memoryview"
        disk.crash_node("n")
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"bytearray|memoryview"


class TestExtents:
    """A file is the extents written to it: reading back one whole
    write hands back the very bytes that write stored."""

    def test_a_read_of_one_whole_write_is_that_write(self, disk):
        frames = [b"first frame", b"second, the one read back", b"third"]
        f = disk.open("n/log", "ab+")
        for frame in frames:
            f.write(frame)
        f.fsync()
        f.seek(len(frames[0]))
        assert f.read(len(frames[1])) is frames[1]
        with disk.open("n/log", "rb") as g:
            assert g.read() == b"".join(frames)
            g.seek(len(frames[0]) + 1)
            assert g.read(3) == b"eco"

    def test_reading_one_mebibyte_extent_allocates_nothing(self, disk):
        f = disk.open("n/log", "ab+")
        f.write(b"header")
        f.write(bytes(1 << 20))
        f.write(b"trailer")
        f.fsync()
        f.seek(len(b"header"))
        tracemalloc.start()
        try:
            data = f.read(1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) == 1 << 20
        assert peak < 4 * 1024

    def test_the_extent_index_costs_sixteen_bytes_an_extent(self, disk):
        """10 000 appends of payloads the caller already holds: beyond
        the payloads themselves, the file keeps a list slot and a packed
        end offset per extent (about 48 B when the ends were a list of
        ``int`` objects)."""
        payloads = [b"payload %06d" % i for i in range(10_000)]
        f = disk.open("n/log", "ab")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for payload in payloads:
                f.write(payload)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert disk._files["n/log"].extents[-1] is payloads[-1]
        assert held / len(payloads) <= 20


class TestCrashSemantics:
    def test_unsynced_bytes_lost_on_crash(self, disk):
        f = disk.open("n/f", "ab")
        f.write(b"durable")
        f.fsync()
        f.write(b"at-risk")
        assert disk.unsynced_bytes("n") == 7
        lost = disk.crash_node("n")
        assert lost == 7
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"durable"

    def test_crash_invalidates_handles(self, disk):
        f = disk.open("n/f", "ab")
        f.write(b"x")
        disk.crash_node("n")
        assert f.closed
        with pytest.raises(ValueError):
            f.write(b"y")

    def test_crash_is_per_node(self, disk):
        fa = disk.open("a/f", "ab")
        fb = disk.open("b/f", "ab")
        fa.write(b"aaa")
        fb.write(b"bbb")
        disk.crash_node("a")
        assert not fb.closed
        with disk.open("b/f", "rb") as g:
            assert g.read() == b"bbb"

    def test_fsynced_then_truncated_then_crash(self, disk):
        # a durable truncation (truncate + fsync) must survive the crash
        f = disk.open("n/f", "ab+")
        f.write(b"0123456789")
        f.fsync()
        f.truncate(4)
        f.fsync()
        disk.crash_node("n")
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"0123"


class TestHandleTable:
    """Only live handles stay registered: readers that open one handle
    per call (``PartitionLog.read``, ``WriteAheadLog.frames``) must not
    leave a dead handle behind for every fetch."""

    @staticmethod
    def live(disk):
        return sum(len(handles) for handles in disk._handles.values())

    def test_fetch_loop_leaves_no_handles(self, disk):
        writer = disk.open("n/f", "ab")
        writer.write(b"segment")
        for _ in range(1000):
            with disk.open("n/f", "rb") as reader:
                assert reader.read() == b"segment"
        assert self.live(disk) == 1          # the writer
        writer.close()
        writer.close()                       # idempotent
        assert self.live(disk) == 0
        assert not disk._handles             # no empty per-path lists

    def test_crash_clears_the_node_and_only_the_node(self, disk):
        disk.open("n/f", "ab")
        disk.open("n/g", "ab")
        survivor = disk.open("m/f", "ab")
        disk.crash_node("n")
        assert self.live(disk) == 1 and not survivor.closed

    def test_replace_and_remove_drop_their_handles(self, disk):
        old = disk.open("n/f", "ab")
        tmp = disk.open("n/f.tmp", "wb")
        disk.replace("n/f.tmp", "n/f")
        assert old.closed and not tmp.closed
        assert self.live(disk) == 1
        tmp.close()                          # registered under the new name
        assert self.live(disk) == 0
        disk.open("n/f", "rb")
        disk.remove("n/f")
        assert self.live(disk) == 0


class TestTornWrites:
    def test_torn_write_keeps_prefix(self, disk):
        f = disk.open("n/f", "ab")
        f.write(b"durable|")
        f.fsync()
        f.write(b"unsynced-tail")
        disk.arm_torn_write("n", path="f", keep_bytes=3)
        disk.crash_node("n")
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"durable|uns"

    def test_torn_prefix_survives_a_second_crash(self, disk):
        """What a power cut left on the media cannot be un-written by
        the next one."""
        f = disk.open("n/f", "ab")
        f.write(b"unsynced-tail")
        disk.arm_torn_write("n", path="f", keep_bytes=3)
        disk.crash_node("n")
        assert disk.unsynced_bytes("n") == 0
        disk.crash_node("n")
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"uns"

    def test_torn_write_random_cut_is_seeded(self):
        def run(seed):
            d = SimDisk(clock=SimClock(), seed=seed)
            f = d.open("n/f", "ab")
            f.write(b"x" * 100)
            d.arm_torn_write("n")
            d.crash_node("n")
            with d.open("n/f", "rb") as g:
                return len(g.read())

        assert run(7) == run(7)
        lengths = {run(seed) for seed in range(12)}
        assert len(lengths) > 1  # the cut actually varies by seed
        assert all(1 <= n <= 100 for n in lengths)

    def test_torn_write_targets_largest_unsynced_file(self, disk):
        small = disk.open("n/small", "ab")
        big = disk.open("n/big", "ab")
        small.write(b"ab")
        big.write(b"c" * 50)
        disk.arm_torn_write("n", keep_bytes=5)
        disk.crash_node("n")
        with disk.open("n/big", "rb") as g:
            assert g.read() == b"c" * 5
        with disk.open("n/small", "rb") as g:
            assert g.read() == b""  # clean loss, no tear


class TestBitFlips:
    def test_flip_changes_exactly_one_bit(self, disk):
        f = disk.open("n/f", "ab")
        f.write(b"\x00" * 8)
        f.fsync()
        offset = disk.flip_bit("n", "f", offset=3, bit=1)
        assert offset == 3
        with disk.open("n/f", "rb") as g:
            data = g.read()
        assert data[3] == 0x02
        assert sum(data) == 0x02

    def test_flip_survives_crash(self, disk):
        f = disk.open("n/f", "ab")
        f.write(b"\x00" * 8)
        f.fsync()
        disk.flip_bit("n", "f", offset=0, bit=7)
        disk.crash_node("n")
        with disk.open("n/f", "rb") as g:
            assert g.read()[0] == 0x80

    @pytest.mark.parametrize("offset", [-1, 8])
    def test_flip_outside_the_file_rejected(self, disk, offset):
        f = disk.open("n/f", "ab")
        f.write(b"\x00" * 8)
        with pytest.raises(IndexError):
            disk.flip_bit("n", "f", offset=offset, bit=0)
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"\x00" * 8

    def test_flip_empty_file_rejected(self, disk):
        disk.open("n/f", "ab")
        with pytest.raises(ConfigurationError):
            disk.flip_bit("n", "f")


class TestReplace:
    def test_replace_is_durable(self, disk):
        with disk.open("n/f.tmp", "ab") as f:
            f.write(b"compacted")
        disk.replace("n/f.tmp", "n/f")
        disk.crash_node("n")
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"compacted"
        assert not disk.exists("n/f.tmp")


class TestTrace:
    def test_trace_requires_start(self, disk):
        with pytest.raises(ValueError):
            disk.trace_bytes()

    def test_identical_runs_identical_traces(self):
        def run():
            d = SimDisk(clock=SimClock(), seed=5)
            d.start_trace()
            f = d.open("n/f", "ab")
            f.write(b"payload")
            f.fsync()
            f.write(b"tail")
            d.arm_torn_write("n")
            d.crash_node("n")
            d.restart_node("n")
            return d.trace_bytes()

        assert run() == run()

    def test_trace_bytes_pinned(self):
        """The trace is a wire format other PRs diff across commits:
        this digest was computed on the two-image SimDisk (PR 12) and
        must not move — not the ``str(pos)`` detail of a write, not the
        length an fsync reports, not the seeded torn cut or flip."""
        clock = SimClock()
        d = SimDisk(clock=clock, seed=11)
        d.start_trace()
        f = d.open("n/f", "ab")
        f.write(b"durable-frame|")
        f.fsync()
        clock.advance(0.25)
        f.write(b"unsynced-tail-of-the-log")
        with d.open("n/f", "rb+") as g:
            g.seek(3)
            g.write(b"XY")
        d.arm_torn_write("n")
        d.crash_node("n")
        d.restart_node("n")
        clock.advance(0.5)
        d.flip_bit("n", "f")
        with d.open("n/f", "rb+") as g:
            g.truncate(9)
            g.fsync()
        with d.open("n/f.tmp", "wb") as t:
            t.write(b"compacted")
        d.replace("n/f.tmp", "n/f")
        d.remove("n/f")
        assert hashlib.sha256(d.trace_bytes()).hexdigest() == (
            "ff7b8af3980608eceb598114f7b45157"
            "bcd5af782d8d9d80dc6d9ba5b12c4dff")

    def test_counters_do_not_need_a_trace(self, disk):
        assert disk.trace is None
        f = disk.open("n/f", "ab")
        f.write(b"a")
        f.fsync()
        assert (disk.writes, disk.fsyncs) == (1, 1)

    def test_counters(self, disk):
        f = disk.open("n/f", "ab")
        f.write(b"a")
        f.write(b"b")
        f.fsync()
        disk.crash_node("n")
        assert disk.writes == 2
        assert disk.fsyncs == 1
        assert disk.crashes == 1
        assert disk.bytes_lost == 0


class TestLocalDisk:
    def test_roundtrip_on_real_fs(self, tmp_path):
        disk = LocalDisk()
        disk.makedirs(str(tmp_path / "d"))
        path = str(tmp_path / "d" / "f")
        with disk.open(path, "ab") as f:
            f.write(b"bytes")
            f.fsync()
        assert disk.exists(path)
        assert disk.getsize(path) == 5
        assert disk.listdir(str(tmp_path / "d")) == ["f"]
        with disk.open(path, "rb") as f:
            assert f.read() == b"bytes"
