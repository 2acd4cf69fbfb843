"""Figure II.3: the build / pull / swap data cycle end to end."""

import pytest

from repro.common.errors import ConfigurationError, KeyNotFoundError
from repro.hadoop import MiniHDFS
from repro.simnet import SimDisk, SimNetwork, lognormal_latency
from repro.voldemort import RoutedStore, StoreDefinition, Versioned
from repro.voldemort import VoldemortCluster
from repro.voldemort.readonly_pipeline import ReadOnlyPipelineController


@pytest.fixture
def setup():
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", replication_factor=2, required_reads=1, required_writes=1,
        engine_type="read-only"))
    hdfs = MiniHDFS()
    controller = ReadOnlyPipelineController(cluster, hdfs, "pymk")
    return cluster, hdfs, controller


def recommendations(count=100):
    return [(f"member-{i}".encode(), f"recs-{i}".encode()) for i in range(count)]


def test_requires_readonly_store():
    cluster = VoldemortCluster(num_nodes=2, partitions_per_node=2,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition("rw", 1, 1, 1))
    with pytest.raises(ConfigurationError):
        ReadOnlyPipelineController(cluster, MiniHDFS(), "rw")


def test_build_writes_per_node_files(setup):
    cluster, hdfs, controller = setup
    build = controller.build(recommendations())
    assert build.version == 1
    for node_id in cluster.ring.nodes:
        assert hdfs.exists(f"{build.hdfs_dir}/node-{node_id}.data")
        assert hdfs.exists(f"{build.hdfs_dir}/node-{node_id}.index")
    # replication factor 2: total records across nodes = 2x input
    assert sum(build.records_per_node.values()) == 200


def test_full_cycle_serves_all_keys(setup):
    cluster, _, controller = setup
    controller.run_cycle(recommendations())
    routed = RoutedStore(cluster, "pymk")
    for key, value in recommendations():
        frontier, _ = routed.get(key)
        assert frontier[0].value == value


def test_swap_before_pull_rejected(setup):
    _, _, controller = setup
    build = controller.build(recommendations(10))
    with pytest.raises(ConfigurationError):
        controller.swap(build)


def test_new_deployment_replaces_old(setup):
    cluster, _, controller = setup
    controller.run_cycle([(b"m1", b"old")])
    controller.run_cycle([(b"m1", b"new"), (b"m2", b"added")])
    routed = RoutedStore(cluster, "pymk")
    assert routed.get(b"m1")[0][0].value == b"new"
    assert routed.get(b"m2")[0][0].value == b"added"


def test_rollback_restores_previous_dataset(setup):
    cluster, _, controller = setup
    controller.run_cycle([(b"m1", b"v1-data")])
    controller.run_cycle([(b"m1", b"v2-data")])
    restored = controller.rollback()
    assert restored == 1
    routed = RoutedStore(cluster, "pymk")
    assert routed.get(b"m1")[0][0].value == b"v1-data"


def test_a_restarted_node_keeps_the_rolled_back_version(setup):
    cluster, _, controller = setup
    controller.run_cycle([(b"m1", b"v1")])
    controller.run_cycle([(b"m1", b"v2")])
    assert controller.rollback() == 1
    cluster.kill_node(0)
    cluster.restart_node(0)
    assert [cluster.server_for(node).engine("pymk").current_version
            for node in sorted(cluster.ring.nodes)] == [1, 1, 1]
    assert cluster.server_for(0).engine("pymk").get(b"m1")[0].value == b"v1"


def test_keys_missing_after_old_version_lacks_them(setup):
    cluster, _, controller = setup
    controller.run_cycle([(b"m1", b"v1")])
    controller.run_cycle([(b"m1", b"v1"), (b"m2", b"v2")])
    controller.rollback()
    routed = RoutedStore(cluster, "pymk")
    with pytest.raises(KeyNotFoundError):
        routed.get(b"m2")


def test_throttled_pull_advances_sim_clock(setup):
    cluster, _, controller = setup
    controller.pull_throttle_bytes_per_sec = 10_000
    start = cluster.clock.now()
    controller.run_cycle(recommendations(200))
    assert cluster.clock.now() > start


def test_replicas_allow_reads_with_node_down(setup):
    cluster, _, controller = setup
    controller.run_cycle(recommendations(50))
    routed = RoutedStore(cluster, "pymk")
    replicas = routed.replica_nodes(b"member-0")
    cluster.network.failures.crash(cluster.node_name(replicas[0]))
    frontier, _ = routed.get(b"member-0")
    assert frontier[0].value == b"recs-0"


def test_fig_ii3_build_and_pull_move_every_byte_swap_moves_none(setup):
    # "swap << build" as bytes: throttled to 1 MB/s, the sim clock charges
    # every byte the pull moves
    cluster, hdfs, controller = setup
    controller.pull_throttle_bytes_per_sec = 1_000_000
    pairs = [(b"m-%06d" % i, b"x" * 200) for i in range(2000)]
    build = controller.build(pairs)
    built = sum(len(hdfs.read(f"{build.hdfs_dir}/node-{node}.{kind}"))
                for node in cluster.ring.nodes for kind in ("data", "index"))
    assert built > 2 * sum(len(k) + len(v) for k, v in pairs)   # RF = 2
    start = cluster.clock.now()
    assert sum(controller.pull(build).values()) == built == 960_000
    pulled_at = cluster.clock.now()
    assert pulled_at - start == pytest.approx(0.96)   # sim seconds
    controller.swap(build)
    assert cluster.clock.now() == pulled_at
    assert RoutedStore(cluster, "pymk").get(b"m-000007")[0][0].value == b"x" * 200


def test_exp_v2_read_only_path_beats_the_quorum_path():
    # R=1 with no reconciliation against a read quorum of 2 of 3
    network = SimNetwork(seed=2, latency_model=lognormal_latency(0.0009, 0.4))
    cluster = VoldemortCluster(num_nodes=4, partitions_per_node=4,
                               network=network, disk=SimDisk())
    cluster.define_store(StoreDefinition("ro", 2, 1, 1, engine_type="read-only"))
    cluster.define_store(StoreDefinition("rw", 3, 2, 2))
    pairs = [(b"k-%05d" % i, b"v" * 100) for i in range(500)]
    ReadOnlyPipelineController(cluster, MiniHDFS(), "ro").run_cycle(pairs)
    ro, rw = RoutedStore(cluster, "ro"), RoutedStore(cluster, "rw")
    for key, value in pairs:
        rw.put(key, Versioned.initial(value, 0))
    for key, _ in pairs:
        ro.get(key)
        rw.get(key)
    assert [round(store.metrics.histogram("get").summary()["mean"] * 1e3, 2)
            for store in (ro, rw)] == [1.97, 2.35]
    cluster.close()
