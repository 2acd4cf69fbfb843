"""Changelog topics: one set per commit, bounded replay, compaction."""

import pytest

from repro.common.errors import ConfigurationError, ReproError
from repro.kafka.broker import KafkaCluster
from repro.kafka.message import encode_payloads
from repro.simnet.disk import SimDisk
from repro.streams.changelog import (
    ChangelogWriter,
    changelog_topic,
    compact_changelog,
    replay_changelog,
)
from repro.streams.state import encode_record


def make_cluster(segment_bytes: int = 1 << 20) -> KafkaCluster:
    cluster = KafkaCluster(1, "/kafka", partitions_per_topic=1,
                           segment_bytes=segment_bytes,
                           disk=SimDisk(seed=3))
    cluster.create_topic("__changelog-job-store", partitions=1)
    return cluster


def test_topic_naming():
    assert changelog_topic("wvyp", "views") == "__changelog-wvyp-views"


def test_flush_publishes_one_set():
    cluster = make_cluster()
    writer = ChangelogWriter(cluster, "__changelog-job-store", 0)
    records = [encode_record("a", 1), encode_record("b", None)]
    end = writer.flush(records)
    assert writer.flushes == 1
    assert writer.mutations_logged == 2
    assert end == writer.durable_end() > 0
    assert writer.flush([]) == end       # nothing to publish: no new set
    assert writer.flushes == 1
    # transport only: the bytes that went in come back out, undecoded
    assert replay_changelog(cluster, "__changelog-job-store", 0,
                            0, end) == records


def test_replay_stops_at_checkpoint_boundary():
    """Records past ``stop`` are uncommitted mutations of a crashed
    incarnation; replay must ignore them."""
    cluster = make_cluster()
    writer = ChangelogWriter(cluster, "__changelog-job-store", 0)
    committed = writer.flush([encode_record("a", 1)])
    writer.flush([encode_record("a", 999)])   # never checkpointed
    assert replay_changelog(cluster, "__changelog-job-store", 0,
                            0, committed) == [encode_record("a", 1)]


def test_replay_fetches_a_record_larger_than_its_window_whole():
    """Regression: a frame that does not fit the fetch window used to
    read as the end of the range, so a restore silently dropped it and
    every record after it."""
    cluster = make_cluster()
    writer = ChangelogWriter(cluster, "__changelog-job-store", 0)
    records = [b"a" * 10, b"b" * 5_000, b"c" * 10]
    for record in records:
        end = writer.flush([record])
    assert replay_changelog(cluster, "__changelog-job-store", 0, 0, end,
                            fetch_max_bytes=1000) == records
    assert replay_changelog(cluster, "__changelog-job-store", 0, 0, end,
                            fetch_max_bytes=2) == records


def test_replay_refuses_a_log_that_ends_mid_frame_below_stop():
    cluster = make_cluster()
    writer = ChangelogWriter(cluster, "__changelog-job-store", 0)
    committed = writer.flush([encode_record("a", 1)])
    frame = encode_payloads([encode_record("b", 2)])
    log = cluster.broker_for("__changelog-job-store", 0).log(
        "__changelog-job-store", 0)
    log.append_raw(frame[:len(frame) // 2])     # a torn tail
    log.flush()
    with pytest.raises(ReproError):
        replay_changelog(cluster, "__changelog-job-store", 0,
                         0, committed + len(frame))


def test_replay_refuses_a_log_that_ends_on_a_frame_boundary_below_stop():
    """Regression: a log ending on a whole frame below the checkpointed
    end read as an empty fetch, and the replay handed back the prefix
    as if it were complete state."""
    cluster = make_cluster()
    writer = ChangelogWriter(cluster, "__changelog-job-store", 0)
    end = writer.flush([encode_record("a", 1), encode_record("b", 2)])
    assert end == 48
    with pytest.raises(ReproError):
        replay_changelog(cluster, "__changelog-job-store", 0, 0, end + 100)
    with pytest.raises(ReproError):     # and when the range starts at the end
        replay_changelog(cluster, "__changelog-job-store", 0, end, end + 1)
    assert len(replay_changelog(cluster, "__changelog-job-store", 0,
                                0, end)) == 2


def test_replay_rejects_reversed_range():
    cluster = make_cluster()
    with pytest.raises(ConfigurationError):
        replay_changelog(cluster, "__changelog-job-store", 0, 10, 5)


def test_compaction_drops_whole_leading_segments_only():
    """Regression: compaction below offset X removes leading segments
    ending at or below X, never the tail — a replay from X still sees
    every record at or past it, tombstones included."""
    cluster = make_cluster(segment_bytes=256)
    writer = ChangelogWriter(cluster, "__changelog-job-store", 0)
    boundaries = []
    for batch in range(8):
        boundaries.append(writer.flush(
            [encode_record(f"k{batch}-{i}", {"batch": batch, "i": i})
             for i in range(4)]
            + [encode_record(f"k{batch}-0", None)]))  # tombstone rides along
    log = cluster.broker_for("__changelog-job-store", 0).log(
        "__changelog-job-store", 0)
    assert len(log._segments) > 2   # the workload really rolled segments
    barrier = boundaries[4]
    deleted = compact_changelog(cluster, "__changelog-job-store", 0, barrier)
    assert deleted >= 1
    floor = log.oldest_offset
    assert 0 < floor <= barrier
    # everything from the floor to the end still replays, in order
    replayed = replay_changelog(cluster, "__changelog-job-store", 0,
                                floor, boundaries[-1])
    assert replayed[-1] == encode_record("k7-0", None)
    # compaction is idempotent at the same barrier
    assert compact_changelog(cluster, "__changelog-job-store", 0,
                             barrier) == 0


def test_compaction_never_deletes_the_active_segment():
    cluster = make_cluster(segment_bytes=64)
    writer = ChangelogWriter(cluster, "__changelog-job-store", 0)
    end = writer.flush([encode_record("a", 1)])
    log = cluster.broker_for("__changelog-job-store", 0).log(
        "__changelog-job-store", 0)
    assert compact_changelog(cluster, "__changelog-job-store", 0,
                             end + 1000) == 0
    assert log.oldest_offset == 0
