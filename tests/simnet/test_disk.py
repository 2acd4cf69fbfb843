"""SimDisk semantics: fsync boundary, crashes, torn writes, bit flips."""

import hashlib

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
