#!/usr/bin/env python3
"""People You May Know (§II.C + Figure II.3): batch scores to serving.

An offline link-prediction job produces (member -> scored candidate
list); the build/pull/swap pipeline loads it into a Voldemort read-only
store; a bad run is rolled back instantly.

Run:  python examples/people_you_may_know.py
"""

import json

from repro.hadoop import MiniHDFS
from repro.simnet import SimDisk
from repro.voldemort import RoutedStore, StoreDefinition, VoldemortCluster
from repro.voldemort.readonly_pipeline import ReadOnlyPipelineController


def link_prediction_run(num_members: int, run: int) -> list[tuple[bytes, bytes]]:
    """A stand-in for the Hadoop link-prediction workflow: per member, a
    list of (candidate id, score).  Scores shift run to run, as the
    paper notes they do."""
    out = []
    for member in range(num_members):
        candidates = [[(member * 7 + k + run) % num_members,
                       round(0.99 - 0.07 * k - 0.01 * run, 3)]
                      for k in range(5)]
        out.append((b"member-%06d" % member, json.dumps(candidates).encode()))
    return out


def main() -> None:
    # the nodes keep their versioned directories on a simulated disk
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=8,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", replication_factor=2, required_reads=1, required_writes=1,
        engine_type="read-only"))
    hdfs = MiniHDFS()
    controller = ReadOnlyPipelineController(cluster, hdfs, "pymk")

    # --- run 1: build, pull (throttled), swap -----------------------
    build = controller.build(link_prediction_run(1000, run=1))
    print(f"build v{build.version}: "
          f"{sum(build.records_per_node.values())} records "
          f"({hdfs.total_bytes() // 1024} KiB in HDFS)")
    controller.pull_throttle_bytes_per_sec = 10 * 1024 * 1024
    pulled = controller.pull(build)
    print("pulled per node:",
          {n: f"{b // 1024} KiB" for n, b in pulled.items()})
    controller.swap(build)

    store = RoutedStore(cluster, "pymk")
    frontier, latency = store.get(b"member-000042")
    print("member-000042 recommendations:",
          json.loads(frontier[0].value)[:3], f"({latency * 1000:.2f} ms)")

    # --- run 2 deploys... and turns out to be bad --------------------
    controller.run_cycle(link_prediction_run(1000, run=2))
    v2 = json.loads(store.get(b"member-000042")[0][0].value)
    print("after run 2:", v2[:3])
    restored = controller.rollback()
    v1 = json.loads(store.get(b"member-000042")[0][0].value)
    print(f"instant rollback to v{restored}:", v1[:3])

    # --- replicas keep serving through a node failure ----------------
    victim = store.replica_nodes(b"member-000042")[0]
    cluster.network.failures.crash(cluster.node_name(victim))
    frontier, _ = store.get(b"member-000042")
    print(f"node {victim} down, reads still served:",
          json.loads(frontier[0].value)[0])

    # --- a restarted node serves the version it swapped to, not the newest
    cluster.kill_node(victim)
    cluster.restart_node(victim)
    print(f"node {victim} restarted on "
          f"v{cluster.server_for(victim).engine('pymk').current_version}")
    cluster.close()


if __name__ == "__main__":
    main()
