"""Broker crash-restart: acked survives, torn tails truncate, ticks flush."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ChecksumError
from repro.kafka.broker import KafkaCluster
from repro.kafka.log import PartitionLog, scan_valid_bytes
from repro.kafka.message import Message, MessageSet, iter_messages
from repro.simnet.disk import SimDisk


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def disk(clock):
    return SimDisk(clock=clock, seed=11)


def sim_log(disk, clock, node="broker-0", **kwargs):
    kwargs.setdefault("flush_interval_messages", 1)
    return PartitionLog("t-0", clock=clock, disk=disk.scope(node), **kwargs)


def payloads_in(log, offset=0):
    data = log.read(offset, 1 << 20)
    return [d.message.payload for d in iter_messages(data, offset)]


class TestScanValidBytes:
    def test_full_valid_set(self):
        data = MessageSet([Message(b"a"), Message(b"bb")]).encode()
        assert scan_valid_bytes(data) == len(data)

    def test_truncated_frame(self):
        data = MessageSet([Message(b"complete")]).encode()
        assert scan_valid_bytes(data + data[: len(data) // 2]) == len(data)

    def test_corrupt_crc(self):
        good = MessageSet([Message(b"good")]).encode()
        bad = bytearray(MessageSet([Message(b"bad!")]).encode())
        bad[-1] ^= 0xFF
        assert scan_valid_bytes(good + bytes(bad)) == len(good)


class TestPartitionLogRecovery:
    def test_acked_messages_survive_crash(self, disk, clock):
        log = sim_log(disk, clock)
        log.append(MessageSet([Message(b"acked-1")]))
        log.append(MessageSet([Message(b"acked-2")]))
        watermark = log.high_watermark
        disk.crash_node("broker-0")

        recovered = sim_log(disk, clock)
        assert recovered.high_watermark == watermark
        assert payloads_in(recovered) == [b"acked-1", b"acked-2"]

    def test_unflushed_tail_lost_cleanly(self, disk, clock):
        log = sim_log(disk, clock, flush_interval_messages=10)
        log.append(MessageSet([Message(b"durable")]))
        log.flush()
        log.append(MessageSet([Message(b"staged-only")]))  # never flushed
        disk.crash_node("broker-0")

        recovered = sim_log(disk, clock)
        assert payloads_in(recovered) == [b"durable"]
        assert recovered.torn_bytes_truncated == 0

    def test_torn_tail_truncated_on_recovery(self, disk, clock):
        log = sim_log(disk, clock)
        log.append(MessageSet([Message(b"acked")]))
        watermark = log.high_watermark
        log.fsync_on_flush = False  # simulate an OS-buffered broker
        log.append(MessageSet([Message(b"buffered-never-synced")]))
        disk.arm_torn_write("broker-0", keep_bytes=7)
        disk.crash_node("broker-0")

        recovered = sim_log(disk, clock)
        assert recovered.torn_bytes_truncated > 0
        assert recovered.high_watermark == watermark
        assert payloads_in(recovered) == [b"acked"]
        # recovery fsynced the truncation: a re-crash changes nothing
        disk.crash_node("broker-0")
        again = sim_log(disk, clock)
        assert payloads_in(again) == [b"acked"]
        assert again.torn_bytes_truncated == 0

    def test_bit_flip_detected_at_read(self, disk, clock):
        log = sim_log(disk, clock)
        log.append(MessageSet([Message(b"to-be-corrupted")]))
        segment = log._segments[0]
        disk.flip_bit("broker-0", segment.path, offset=segment.size - 1)
        data = log.read(0, 1 << 20)
        with pytest.raises(ChecksumError):
            list(iter_messages(data, 0))


class TestTimeBasedFlushTick:
    def test_append_alone_never_flushes_quiet_partition(self, disk, clock):
        log = sim_log(disk, clock, flush_interval_messages=100,
                      flush_interval_seconds=1.0)
        log.append(MessageSet([Message(b"lonely")]))
        clock.advance(60.0)
        # the satellite bug: without a tick, the staged tail stays
        # invisible no matter how much time passes
        assert log.high_watermark == 0
        assert log.maybe_flush() is True
        assert log.high_watermark > 0

    def test_broker_tick_flushes_by_time(self, clock, disk):
        cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                               clock=clock, flush_interval_messages=100,
                               disk=disk)
        broker = cluster.brokers[0]
        broker.flush_interval_seconds = 0.5
        cluster.create_topic("events", partitions=1)
        broker.produce("events", 0, MessageSet([Message(b"m")]))
        assert cluster.tick() == 0  # threshold not reached yet
        clock.advance(1.0)
        assert cluster.tick() == 1
        assert broker.log("events", 0).high_watermark > 0


class TestBrokerRestart:
    def test_cluster_kill_restart_keeps_acked(self, clock, disk):
        cluster = KafkaCluster(num_brokers=1, data_root="kafka",
                               clock=clock, disk=disk)
        cluster.create_topic("orders", partitions=1)
        broker = cluster.brokers[0]
        offsets = []
        for i in range(5):
            offsets.append(
                broker.produce("orders", 0, MessageSet([Message(b"m%d" % i)])))
        watermark = broker.log("orders", 0).high_watermark
        disk.crash_node("broker-0")
        disk.restart_node("broker-0")
        broker.restart()

        log = broker.log("orders", 0)
        assert log.high_watermark == watermark
        data = log.read(0, 1 << 20)
        payloads = [d.message.payload for d in iter_messages(data, 0)]
        assert payloads == [b"m0", b"m1", b"m2", b"m3", b"m4"]
