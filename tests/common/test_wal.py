"""The framed-file kernel: framing, torn-tail recovery, the durability
boundary, read-by-offset, compaction, images, and one crash matrix over
all of them."""

import pytest

from repro.common import wal as wal_module
from repro.common.clock import SimClock
from repro.common.errors import ChecksumError
from repro.common.wal import (
    FRAME_OVERHEAD,
    WriteAheadLog,
    frame,
    read_image,
    scan_frames,
    write_image,
)
from repro.simnet.disk import LocalDisk, SimDisk, _SimFile


@pytest.fixture
def disk():
    return SimDisk(clock=SimClock(), seed=1)


class TestFraming:
    def test_scan_roundtrip(self):
        data = frame(b"one") + frame(b"two") + frame(b"")
        frames, good_end = scan_frames(data)
        assert [p for _, p in frames] == [b"one", b"two", b""]
        assert good_end == len(data)

    def test_scan_stops_at_corrupt_frame(self):
        good = frame(b"good")
        bad = bytearray(frame(b"bad!"))
        bad[-1] ^= 0xFF
        frames, good_end = scan_frames(good + bytes(bad) + frame(b"after"))
        assert [p for _, p in frames] == [b"good"]
        assert good_end == len(good)

    def test_scan_stops_at_overrun_length(self):
        good = frame(b"good")
        torn = frame(b"a-full-record")[:-5]
        frames, good_end = scan_frames(good + torn)
        assert [p for _, p in frames] == [b"good"]
        assert good_end == len(good)

    def test_scan_short_header(self):
        frames, good_end = scan_frames(b"\x01\x02")
        assert frames == []
        assert good_end == 0


class TestAppendReplay:
    def test_append_fsync_replay(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        offset_a = wal.append(b"alpha")
        offset_b = wal.append(b"beta")
        wal.fsync()
        assert offset_a == 0
        assert offset_b == FRAME_OVERHEAD + 5
        assert list(wal.replay()) == [b"alpha", b"beta"]

    def test_append_is_not_durable_until_fsync(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"acked")
        wal.fsync()
        wal.append(b"staged")
        assert wal.unsynced_bytes == FRAME_OVERHEAD + 6
        disk.crash_node("node")
        recovered = WriteAheadLog("node/x.wal", disk=disk)
        assert list(recovered.replay()) == [b"acked"]

    def test_reopen_resumes_appending(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        wal.fsync()
        wal.close()
        wal2 = WriteAheadLog("node/x.wal", disk=disk)
        assert wal2.recovered_frames == 1
        wal2.append(b"second")
        wal2.fsync()
        assert list(wal2.replay()) == [b"first", b"second"]

    @pytest.mark.parametrize("frames", [256, 1024, 4096])
    def test_exp_r2_a_crash_replays_exactly_the_frames_fsynced(self, disk,
                                                               frames):
        """Recovery work is linear in the log: one frame replayed per
        frame made durable, none for the unsynced tail."""
        wal = WriteAheadLog("node/x.wal", disk=disk)
        for _ in range(frames):
            wal.append(b"x" * 128)
        wal.fsync()
        wal.append(b"never synced")
        disk.crash_node("node")
        recovered = WriteAheadLog("node/x.wal", disk=disk)
        assert recovered.recovered_frames == frames
        assert recovered.size_bytes == frames * (FRAME_OVERHEAD + 128)


RECORDS = [(b"alpha",), (b"be", b"ta"), (b"", b"gamma", bytearray(b"!")),
           (b"head", b"")]
TAIL = (b"tail-head|", b"tail-value" * 4)


def _multi_part_run(gather, keep):
    """Append ``RECORDS``, fsync, then a ``TAIL`` frame torn ``keep``
    bytes in, and recover: everything a caller can observe."""
    disk = SimDisk(clock=SimClock(), seed=1)
    disk.start_trace()

    def append(wal, parts):
        return wal.append(*parts) if gather else wal.append(b"".join(parts))

    wal = WriteAheadLog("node/x.wal", disk=disk)
    offsets = [append(wal, parts) for parts in RECORDS]
    reads = [wal.read(offset, FRAME_OVERHEAD + sum(map(len, parts)))
             for offset, parts in zip(offsets, RECORDS)]
    wal.fsync()
    replayed = list(wal.replay())
    append(wal, TAIL)
    size = wal.size_bytes
    disk.arm_torn_write("node", path="x.wal", keep_bytes=keep)
    disk.crash_node("node")
    recovered = WriteAheadLog("node/x.wal", disk=disk)
    with disk.open("node/x.wal", "rb") as f:
        contents = f.read()
    return (offsets, reads, replayed, size, disk.writes, contents,
            recovered.truncated_bytes, list(recovered.replay()),
            disk.trace_bytes())


class TestMultiPartAppend:
    """``append(*parts)`` writes the frame ``append(b"".join(parts))``
    writes, in one write: reads, replay and torn-tail recovery cannot
    tell them apart."""

    @pytest.mark.parametrize("keep", [0, FRAME_OVERHEAD + 3,
                                      FRAME_OVERHEAD + 10 + 7, 10 ** 6])
    def test_a_multi_part_append_is_the_joined_append(self, keep):
        joined = _multi_part_run(gather=False, keep=keep)
        assert _multi_part_run(gather=True, keep=keep) == joined
        (_, reads, replayed, _, writes, _, truncated, survivors,
         _) = joined
        records = [b"".join(parts) for parts in RECORDS]
        assert reads == replayed == records
        assert writes == len(RECORDS) + 1
        whole = keep >= FRAME_OVERHEAD + sum(map(len, TAIL))
        assert survivors == records + [b"".join(TAIL)] * whole
        assert truncated == (0 if whole else keep)

    def test_the_parts_after_the_first_are_written_as_they_are(
            self, disk, monkeypatch):
        written = []
        real_write = _SimFile.write
        monkeypatch.setattr(
            _SimFile, "write",
            lambda handle, data: written.append(data)
            or real_write(handle, data))
        wal = WriteAheadLog("node/x.wal", disk=disk)
        value = b"a value the caller holds" * 8
        wal.append(b"head", value)
        wal.append(b"single")
        ((head, passed), (single,)) = written
        assert head == frame(b"head" + value)[:FRAME_OVERHEAD + 4]
        assert passed is value
        assert single == frame(b"single")


class TestRecovery:
    def test_torn_tail_truncated(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"durable-record")
        wal.fsync()
        wal.append(b"torn-away-record")
        disk.arm_torn_write("node", path="x.wal", keep_bytes=6)
        disk.crash_node("node")

        recovered = WriteAheadLog("node/x.wal", disk=disk)
        assert recovered.recovered_frames == 1
        assert recovered.truncated_bytes == 6
        assert list(recovered.replay()) == [b"durable-record"]

    def test_truncation_is_fsynced(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"keep")
        wal.fsync()
        wal.append(b"lose")
        disk.arm_torn_write("node", path="x.wal", keep_bytes=2)
        disk.crash_node("node")
        WriteAheadLog("node/x.wal", disk=disk)  # truncates + fsyncs the cut
        # a second crash must not resurrect the torn garbage
        disk.crash_node("node")
        again = WriteAheadLog("node/x.wal", disk=disk)
        assert list(again.replay()) == [b"keep"]
        assert again.truncated_bytes == 0

    def test_corrupt_middle_frame_cuts_everything_after(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        second_offset = wal.append(b"second")
        wal.append(b"third")
        wal.fsync()
        wal.close()
        # flip a payload byte of the middle record
        disk.flip_bit("node", "x.wal",
                      offset=second_offset + FRAME_OVERHEAD, bit=0)
        recovered = WriteAheadLog("node/x.wal", disk=disk)
        assert list(recovered.replay()) == [b"first"]
        assert recovered.truncated_bytes > 0

    def test_append_after_recovery_reuses_good_end(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"a")
        wal.fsync()
        wal.append(b"b")
        disk.crash_node("node")
        recovered = WriteAheadLog("node/x.wal", disk=disk)
        offset = recovered.append(b"c")
        recovered.fsync()
        assert offset == FRAME_OVERHEAD + 1
        assert list(recovered.replay()) == [b"a", b"c"]


class TestLocalDiskWal:
    def test_wal_on_real_filesystem(self, tmp_path):
        path = str(tmp_path / "logs" / "test.wal")
        wal = WriteAheadLog(path, disk=LocalDisk())
        wal.append(b"payload")
        wal.fsync()
        wal.close()
        reopened = WriteAheadLog(path, disk=LocalDisk())
        assert list(reopened.replay()) == [b"payload"]
        reopened.close()


class TestReadAndFrames:
    def test_read_by_offset(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        payloads = (b"alpha", b"", b"gamma")
        offsets = [wal.append(p) for p in payloads]
        assert [wal.read(o, FRAME_OVERHEAD + len(p))
                for o, p in zip(offsets, payloads)] == [b"alpha", b"", b"gamma"]
        # reading moves no append: the next frame still lands at the end
        assert wal.append(b"delta") == wal.size_bytes - FRAME_OVERHEAD - 5
        assert wal.read(offsets[2], FRAME_OVERHEAD + 5) == b"gamma"

    @pytest.mark.parametrize("where", ["crc", "length", "payload"])
    def test_read_detects_damage(self, disk, where):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        offset = wal.append(b"second")
        wal.fsync()
        delta = {"crc": 1, "length": 5, "payload": FRAME_OVERHEAD + 2}[where]
        disk.flip_bit("node", "x.wal", offset=offset + delta, bit=6)
        assert wal.read(0, FRAME_OVERHEAD + 5) == b"first"
        with pytest.raises(ChecksumError):
            wal.read(offset, FRAME_OVERHEAD + 6)

    def test_read_past_the_end_is_damage(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"only")
        with pytest.raises(ChecksumError):
            wal.read(wal.size_bytes, FRAME_OVERHEAD + 4)
        with pytest.raises(ChecksumError):
            wal.read(wal.size_bytes - 3, FRAME_OVERHEAD + 4)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_read_rejects_a_length_the_header_disagrees_with(
            self, disk, delta):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        wal.append(b"second")
        with pytest.raises(ChecksumError):
            wal.read(0, FRAME_OVERHEAD + 5 + delta)

    def test_read_is_one_positioned_read(self, disk, monkeypatch):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        offset = wal.append(b"payload")
        sizes = []
        real_read = _SimFile.read
        monkeypatch.setattr(
            _SimFile, "read",
            lambda handle, size=-1: sizes.append(size)
            or real_read(handle, size))
        assert wal.read(offset, FRAME_OVERHEAD + 7) == b"payload"
        assert sizes == [FRAME_OVERHEAD + 7]

    @pytest.mark.parametrize("cut", [0, 4, 7, 200])
    def test_read_parts_is_the_read_split_at_the_cut(self, disk, cut):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        value = b"a value the caller holds" * 4
        wal.append(b"first")
        offset = wal.append(b"head", value)
        length = FRAME_OVERHEAD + 4 + len(value)
        head, rest = wal.read_parts(offset, length, cut)
        assert head + rest == wal.read(offset, length)
        assert len(head) == min(cut, 4 + len(value))
        if cut == 4:  # the part the append stored comes back as itself
            assert rest is value

    @pytest.mark.parametrize("where", ["crc", "length", "head", "rest"])
    def test_read_parts_detects_damage(self, disk, where):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"first")
        offset = wal.append(b"head", b"value")
        wal.fsync()
        delta = {"crc": 1, "length": 5, "head": FRAME_OVERHEAD + 2,
                 "rest": FRAME_OVERHEAD + 6}[where]
        disk.flip_bit("node", "x.wal", offset=offset + delta, bit=6)
        assert wal.read_parts(0, FRAME_OVERHEAD + 5, 2) == (b"fi", b"rst")
        with pytest.raises(ChecksumError):
            wal.read_parts(offset, FRAME_OVERHEAD + 9, 4)
        with pytest.raises(ChecksumError):
            wal.read_parts(wal.size_bytes - 3, FRAME_OVERHEAD + 9, 4)

    def test_frames_carry_offsets(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        offsets = [wal.append(p) for p in (b"a", b"bb", b"ccc")]
        wal.fsync()
        assert list(wal.frames()) == list(zip(offsets, (b"a", b"bb", b"ccc")))
        reopened = WriteAheadLog("node/x.wal", disk=disk)
        assert list(reopened.frames()) == list(wal.frames())

    def test_open_then_replay_parses_the_file_once(self, disk, monkeypatch):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        for i in range(4):
            wal.append(b"record-%d" % i)
        wal.fsync()
        wal.close()
        scans = []
        real_scan = scan_frames
        monkeypatch.setattr(
            wal_module, "scan_frames",
            lambda data: scans.append(len(data)) or real_scan(data))
        reopened = WriteAheadLog("node/x.wal", disk=disk)
        assert len(list(reopened.replay())) == 4
        assert len(scans) == 1
        # a live log is re-read: the hand-off never serves stale frames
        reopened.append(b"late")
        assert len(list(reopened.replay())) == 5
        assert len(list(reopened.replay())) == 5
        assert len(scans) == 3


class TestRewrite:
    def test_rewrite_compacts_and_lays_out_from_zero(self, disk):
        wal = WriteAheadLog("node/x.wal", disk=disk)
        for payload in (b"keep-1", b"drop", b"keep-2"):
            wal.append(payload)
        wal.fsync()
        before = wal.size_bytes
        reclaimed = wal.rewrite([b"keep-1", b"keep-2"])
        assert reclaimed == FRAME_OVERHEAD + 4
        assert wal.size_bytes == before - reclaimed
        assert wal.unsynced_bytes == 0
        assert wal.read(0, FRAME_OVERHEAD + 6) == b"keep-1"
        assert wal.read(FRAME_OVERHEAD + 6, FRAME_OVERHEAD + 6) == b"keep-2"
        assert not disk.exists("node/x.wal.tmp")
        # the reopened handle appends after the survivors
        assert wal.append(b"next") == wal.size_bytes - FRAME_OVERHEAD - 4
        wal.fsync()
        disk.crash_node("node")
        assert list(WriteAheadLog("node/x.wal", disk=disk).replay()) == \
            [b"keep-1", b"keep-2", b"next"]

    def test_rewrite_aborts_when_an_append_races_the_fsync(
            self, disk, monkeypatch):
        """The caller chose the survivors before the late record
        existed; swapping would drop it.  The old log stays."""
        wal = WriteAheadLog("node/x.wal", disk=disk)
        wal.append(b"garbage")
        wal.append(b"live")
        wal.fsync()
        real_fsync = _SimFile.fsync

        def racing_fsync(handle):
            monkeypatch.setattr(_SimFile, "fsync", real_fsync)  # once
            wal.append(b"late")  # lands while the temp file is on disk
            real_fsync(handle)

        monkeypatch.setattr(_SimFile, "fsync", racing_fsync)
        assert wal.rewrite([b"live"]) is None
        assert not disk.exists("node/x.wal.tmp")
        wal.fsync()
        assert list(wal.replay()) == [b"garbage", b"live", b"late"]
        disk.crash_node("node")
        reopened = WriteAheadLog("node/x.wal", disk=disk)
        assert list(reopened.replay()) == [b"garbage", b"live", b"late"]
        assert reopened.rewrite([b"live", b"late"]) == FRAME_OVERHEAD + 7


    def test_a_rewrite_of_parts_is_the_rewrite_of_their_join(self):
        """Records handed in parts leave the file, the trace and the
        replay a rewrite of the joined payloads leaves, in one write;
        a part after a record's first is stored as the object handed
        in, and everything else is joined around it."""
        value = b"a value the caller holds" * 4
        records = [b"one", (b"head", value), (b"", b"x"), (b"tomb", b""),
                   b""]
        joined = [r if type(r) is bytes else b"".join(r) for r in records]

        def run(records):
            disk = SimDisk(clock=SimClock(), seed=1)
            wal = WriteAheadLog("node/x.wal", disk=disk)
            wal.append(b"garbage")
            wal.fsync()
            disk.start_trace()
            wal.rewrite(records)
            with disk.open("node/x.wal", "rb") as f:
                contents = f.read()
            replayed = list(WriteAheadLog("node/x.wal", disk=disk).replay())
            return (disk._files["node/x.wal"].extents,
                    (contents, disk.trace_bytes(), disk.writes, replayed))

        extents, gathered = run(records)
        assert gathered == run(joined)[1]
        assert gathered[0] == b"".join(map(frame, joined))
        assert gathered[3] == joined
        assert len(extents) == 5 and extents[1] is value


class TestImages:
    def test_roundtrip_and_missing(self, disk):
        assert read_image(disk, "node/x.img") is None
        write_image(disk, "node/x.img", [b"one", b"", b"three"])
        assert read_image(disk, "node/x.img") == [b"one", b"", b"three"]
        write_image(disk, "node/x.img", [])
        assert read_image(disk, "node/x.img") == []
        assert not disk.exists("node/x.img.tmp")

    def test_an_image_is_one_write_and_one_fsync(self, disk):
        payloads = [b"entry-%d" % i for i in range(100)]
        before = disk.writes, disk.fsyncs
        write_image(disk, "node/x.img", payloads)
        assert (disk.writes, disk.fsyncs) == (before[0] + 1, before[1] + 1)
        assert len(disk._files["node/x.img"].extents) == 1
        assert read_image(disk, "node/x.img") == payloads

    @pytest.mark.parametrize("surviving", [
        b"",                                          # empty file
        frame(b"one") + frame(b"two"),                # trailer cut off
        frame(b"one") + frame(b"\x02\x00\x00\x00"),   # a payload is missing
        frame(b"one") + frame(b"\x01\x00\x00\x00") + b"x",  # trailing bytes
    ])
    def test_incomplete_images_are_damaged_not_missing(self, disk, surviving):
        with disk.open("node/x.img", "wb") as f:
            f.write(surviving)
            f.fsync()
        for _ in range(2):
            with pytest.raises(ChecksumError):
                read_image(disk, "node/x.img")
        with disk.open("node/x.img", "rb") as f:
            assert f.read() == surviving


class TestLocalDiskImage:
    def test_image_on_real_filesystem(self, tmp_path):
        path = str(tmp_path / "snapshots" / "views.img")
        disk = LocalDisk()
        write_image(disk, path, [b"header", b"entry"])
        assert read_image(disk, path) == [b"header", b"entry"]
        with open(path, "r+b") as f:
            f.seek(FRAME_OVERHEAD + 2)
            f.write(b"\xff")
        with pytest.raises(ChecksumError):
            read_image(disk, path)


# -- the crash matrix ----------------------------------------------------------
#
# operation x fault x crash point, one recovery procedure to prove.  Every
# cell asserts: the file recovers to the old contents or the new ones, never
# a mix; damage yields a clean prefix (logs) or a rejection (images); a
# truncation is itself durable; reading an image never changes it; and the
# operation can be retried over whatever the crash left behind.

OLD = [b"old-0", b"old-one", b"old-two!"]
NEW = [b"new-0", b"new-one"]
PATH = "node/f"


class _Crash(Exception):
    pass


def _die(*args, **kwargs):
    raise _Crash


def _do_append(disk):
    wal = WriteAheadLog(PATH, disk=disk)
    for payload in NEW:
        wal.append(payload)
    wal.fsync()


def _do_rewrite(disk):
    WriteAheadLog(PATH, disk=disk).rewrite(NEW)


def _do_write_image(disk):
    write_image(disk, PATH, NEW)


def _log_setup(disk):
    wal = WriteAheadLog(PATH, disk=disk)
    for payload in OLD:
        wal.append(payload)
    wal.fsync()
    wal.close()


def _log_contents(disk):
    return list(WriteAheadLog(PATH, disk=disk).replay())


# name: (set-up, operation, read-back, new contents, file a tear hits)
OPERATIONS = {
    "append+fsync": (_log_setup, _do_append, _log_contents, OLD + NEW, "f"),
    "rewrite": (_log_setup, _do_rewrite, _log_contents, NEW, "f.tmp"),
    "write_image": (lambda disk: write_image(disk, PATH, OLD),
                    _do_write_image, lambda disk: read_image(disk, PATH),
                    NEW, "f.tmp"),
}
CRASH_POINTS = ["before-fsync", "before-rename", "done"]
FAULTS = ["lost-tail", "torn-1", "torn-8", "torn-9", "torn-all",
          "flip-header", "flip-body", "flip-last"]
CELLS = [(operation, point, fault)
         for operation in OPERATIONS for point in CRASH_POINTS
         for fault in FAULTS
         if (operation, point) != ("append+fsync", "before-rename")]


def _flip_target(fault, payloads):
    """Byte to corrupt and the index of the frame that byte is in."""
    if fault == "flip-header":
        return 2, 0                            # first frame's CRC
    if fault == "flip-body":
        start = FRAME_OVERHEAD + len(payloads[0])
        return start + FRAME_OVERHEAD + 1, 1   # second frame's payload
    size = sum(FRAME_OVERHEAD + len(p) for p in payloads)
    return size - 1, len(payloads) - 1         # the file's last byte


@pytest.mark.parametrize("operation,point,fault", CELLS)
def test_crash_matrix(disk, monkeypatch, operation, point, fault):
    setup, run, contents, new, torn_file = OPERATIONS[operation]
    is_image = operation == "write_image"
    setup(disk)

    if fault.startswith("torn-"):
        keep = {"1": 1, "8": FRAME_OVERHEAD, "9": FRAME_OVERHEAD + 1,
                "all": 10 ** 6}[fault[5:]]
        disk.arm_torn_write("node", path=torn_file, keep_bytes=keep)
    with monkeypatch.context() as patch:
        if point == "before-fsync":
            patch.setattr(_SimFile, "fsync", _die)
        elif point == "before-rename":
            patch.setattr(SimDisk, "replace", _die)
        try:
            run(disk)
        except _Crash:
            pass
    disk.crash_node("node")

    # old or new, never a mix; an unsynced append is new only if the
    # tear happened to spare every one of its bytes
    spared = (operation, point, fault) == \
        ("append+fsync", "before-fsync", "torn-all")
    intact = new if point == "done" or spared else OLD

    if not fault.startswith("flip-"):
        survivors = contents(disk)
        assert survivors == intact
    else:
        # media damage to whichever version survived the crash
        trailer = [b"\x00" * 4] if is_image else []
        offset, damaged_frame = _flip_target(fault, intact + trailer)
        disk.flip_bit("node", "f", offset=offset, bit=4)
        if is_image:
            with disk.open(PATH, "rb") as f:
                damaged = f.read()
            for _ in range(2):
                with pytest.raises(ChecksumError):
                    read_image(disk, PATH)
            with disk.open(PATH, "rb") as f:
                assert f.read() == damaged  # rejected, never repaired
        else:
            survivors = contents(disk)
            assert survivors == intact[:damaged_frame]  # a clean prefix

    if not is_image:
        # whatever recovery truncated stays truncated across a re-crash
        disk.crash_node("node")
        again = WriteAheadLog(PATH, disk=disk)
        assert again.truncated_bytes == 0
        assert list(again.replay()) == survivors
        again.close()

    # the operation retries cleanly over whatever the crash left behind
    run(disk)
    disk.crash_node("node")
    assert contents(disk) == \
        (survivors + NEW if operation == "append+fsync" else NEW)
    assert not disk.exists(PATH + ".tmp")
