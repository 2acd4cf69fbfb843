"""The day-in-the-life world runs on one clock."""

from repro.workloads.day_in_the_life import _World


def test_the_world_disk_and_cluster_share_one_clock():
    """A disk on a private clock stamps its trace with a time that
    never moves, and a device cost charged on it would be invisible to
    every latency read on the world's clock."""
    world = _World(seed=0, partitions=1, day_seconds=60.0,
                   containers_per_job=1)
    assert world.disk.clock is world.clock
    assert world.cluster.clock is world.clock
    assert world.cluster.disk is world.disk
