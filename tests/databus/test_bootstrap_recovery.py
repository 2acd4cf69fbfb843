"""Bootstrap durability: log WAL, checkpoints, and exact-once recovery."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ChecksumError, ConfigurationError
from repro.databus import BootstrapServer
from repro.databus.events import DatabusEvent
from repro.simnet.disk import SimDisk, _SimFile
from repro.sqlstore.binlog import ChangeKind


def event(scn, key=(1,), end=True, source="member", payload=b"p",
          kind=ChangeKind.UPDATE):
    return DatabusEvent(scn, source, kind, key, payload, end_of_window=end)


@pytest.fixture
def disk():
    return SimDisk(clock=SimClock(), seed=9)


def make_server(disk):
    return BootstrapServer("bootstrap-1", disk=disk.scope("bootstrap-1"))


class TestLogDurability:
    def test_acked_events_survive_crash(self, disk):
        server = make_server(disk)
        for scn in range(1, 6):
            server.on_events([event(scn, key=(scn,))])
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        assert recovered.recovered_events == 5
        assert recovered.high_watermark == 5
        assert recovered.snapshot_rows == 5
        delta, watermark = recovered.consolidated_delta(since_scn=0)
        assert watermark == 5
        assert {e.scn for e in delta} == {1, 2, 3, 4, 5}

    def test_event_fields_roundtrip(self, disk):
        server = make_server(disk)
        original = DatabusEvent(1, "position", ChangeKind.DELETE,
                                (7, "linkedin"), b"\x00\x01payload",
                                schema_version=3, end_of_window=True,
                                timestamp=12.5)
        server.on_events([original])
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        (got,) = recovered.consolidated_delta(since_scn=0)[0]
        assert got == original

    def test_open_window_preserved_not_applied(self, disk):
        server = make_server(disk)
        server.on_events([event(1, key=(1,), end=True)])
        server.on_events([event(2, key=(2,), end=False)])  # window open
        assert server.high_watermark == 1
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        assert recovered.log_length == 2     # the logged row is durable...
        assert recovered.high_watermark == 1  # ...but still not applied
        recovered.on_events([event(2, key=(3,), end=True)])
        assert recovered.high_watermark == 2

    def test_torn_tail_truncated(self, disk):
        server = make_server(disk)
        server.on_events([event(1, key=(1,))])
        # stage an event below the durability line, then tear it
        server._log_wal.append(b"never-fsynced-garbage")
        disk.arm_torn_write("bootstrap-1", path="bootstrap.wal", keep_bytes=4)
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        assert recovered.recovered_events == 1
        assert recovered.high_watermark == 1


class TestCheckpoint:
    def test_checkpoint_compacts_log(self, disk):
        server = make_server(disk)
        for scn in range(1, 11):
            server.on_events([event(scn, key=(1,))])  # one hot row
        reclaimed = server.checkpoint()
        assert reclaimed > 0

        disk.crash_node("bootstrap-1")
        recovered = make_server(disk)
        # the checkpoint replaced 10 log rows with 1 snapshot row
        assert recovered.log_length == 0
        assert recovered.snapshot_rows == 1
        assert recovered.high_watermark == 10

    def test_no_double_apply_after_checkpoint(self, disk):
        server = make_server(disk)
        server.on_events([event(1, key=(1,), payload=b"v1")])
        server.checkpoint()
        server.on_events([event(2, key=(1,), payload=b"v2")])
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        assert recovered.recovered_events == 1  # only the post-checkpoint row
        assert recovered.high_watermark == 2
        (got,) = recovered.consolidated_delta(since_scn=0)[0]
        assert got.payload == b"v2"

    def test_scn_order_survives_a_reopen_after_checkpoint(self, disk):
        server = make_server(disk)
        server.on_events([event(1, payload=b"v1")])
        server.on_events([event(2, payload=b"v2")])
        server.checkpoint()
        with pytest.raises(ConfigurationError, match="out-of-order SCN 1"):
            server.on_events([event(1, payload=b"v1")])

        reopened = make_server(disk)
        assert reopened.log_length == 0     # nothing above the watermark
        with pytest.raises(ConfigurationError, match="out-of-order SCN 1"):
            reopened.on_events([event(1, payload=b"v1")])
        (got,) = reopened.consolidated_delta(since_scn=0)[0]
        assert got.payload == b"v2"
        reopened.on_events([event(3, payload=b"v3")])
        assert reopened.high_watermark == 3

    def test_a_window_at_the_checkpointed_scn_is_refused_not_lost(self, disk):
        """Recovery skips a logged row at or below the checkpoint's
        watermark, so a second window at that SCN, once acked, would be
        served until a crash and then be gone."""
        server = make_server(disk)
        server.on_events([event(1, payload=b"v1")])
        server.checkpoint()
        with pytest.raises(ConfigurationError, match="out-of-order SCN 1"):
            server.on_events([event(1, payload=b"v1b")])
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        (got,) = recovered.consolidated_delta(since_scn=0)[0]
        assert got.payload == b"v1"

    def test_serving_continues_after_recovery(self, disk):
        server = make_server(disk)
        for scn in range(1, 4):
            server.on_events([event(scn, key=(scn,))])
        server.checkpoint()
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        recovered.on_events([event(4, key=(4,))])
        items = list(recovered.consistent_snapshot())
        rows = [e for tag, e in items if tag == "row"]
        assert {e.key for e in rows} == {(1,), (2,), (3,), (4,)}
        assert items[-1] == ("scn", 4)

    def test_damaged_checkpoint_refuses_to_open(self, disk):
        """The log below the watermark was compacted away, so the
        snapshot is the only copy of those rows: a bit flip in it must
        stop recovery, not quietly serve the rows before the damage."""
        server = make_server(disk)
        for scn in range(1, 11):
            server.on_events([event(scn, key=(scn,))])
        server.checkpoint()
        size = disk.getsize("bootstrap-1/bootstrap.snapshot")
        disk.flip_bit("bootstrap-1", "bootstrap.snapshot",
                      offset=size // 2, bit=0)
        disk.crash_node("bootstrap-1")
        with pytest.raises(ChecksumError):
            make_server(disk)

    def test_append_racing_the_checkpoint_is_kept(self, disk, monkeypatch):
        """A window delivered while the snapshot image is being fsynced
        is in neither the image nor — if the log were cut at the live
        watermark — the compacted log.  It must survive a crash."""
        server = make_server(disk)
        server.on_events([event(1, key=(1,))])
        real_fsync = _SimFile.fsync

        def racing_fsync(handle):
            if handle._path.endswith("bootstrap.snapshot.tmp"):
                monkeypatch.setattr(_SimFile, "fsync", real_fsync)  # once
                server.on_events([event(2, key=(2,))])
            real_fsync(handle)

        monkeypatch.setattr(_SimFile, "fsync", racing_fsync)
        server.checkpoint()
        disk.crash_node("bootstrap-1")

        recovered = make_server(disk)
        assert recovered.high_watermark == 2
        assert recovered.snapshot_rows == 2

    def test_checkpoint_without_disk_is_noop(self):
        server = BootstrapServer()
        server.on_events([event(1)])
        assert server.checkpoint() == 0
