"""PYMK link prediction: scoring semantics and the full pipeline."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.hadoop import MiniHDFS
from repro.recommendations import PymkPipeline, score_common_neighbors
from repro.recommendations.pymk import top_k
from repro.simnet import SimDisk
from repro.socialgraph import PartitionedSocialGraph
from repro.voldemort import RoutedStore, StoreDefinition, VoldemortCluster


def triangle_graph():
    """1-2, 1-3: members 2 and 3 should be recommended to each other."""
    graph = PartitionedSocialGraph(4)
    graph.connect(1, 2)
    graph.connect(1, 3)
    return graph


def test_friends_of_friends_scored():
    scores = score_common_neighbors(triangle_graph(), MiniHDFS())
    assert 3 in scores[2]
    assert 2 in scores[3]
    assert scores[2][3] == scores[3][2] > 0


def test_direct_connections_excluded():
    graph = triangle_graph()
    graph.connect(2, 3)  # close the triangle
    scores = score_common_neighbors(graph, MiniHDFS())
    assert 3 not in scores.get(2, {})
    assert 2 not in scores.get(3, {})


def test_more_common_neighbors_scores_higher():
    graph = PartitionedSocialGraph(4)
    # 10 and 20 share two connections; 10 and 30 share one
    for shared in (1, 2):
        graph.connect(10, shared)
        graph.connect(20, shared)
    graph.connect(10, 3)
    graph.connect(30, 3)
    scores = score_common_neighbors(graph, MiniHDFS())
    assert scores[10][20] > scores[10][30]


def test_hub_connections_weigh_less():
    """Adamic/Adar: a shared hub is weaker evidence than a shared
    low-degree contact."""
    graph = PartitionedSocialGraph(4)
    # hub member 100 knows everyone
    for member in range(1, 12):
        graph.connect(100, member)
    # members 1 and 2 also share the selective member 200
    graph.connect(200, 1)
    graph.connect(200, 2)
    # members 3 and 4 share only the hub
    scores = score_common_neighbors(graph, MiniHDFS())
    assert scores[1][2] > scores[3][4]


def test_top_k_orders_and_truncates():
    scores = {1: {10: 0.5, 11: 0.9, 12: 0.7, 13: 0.1}}
    pairs = top_k(scores, k=2)
    assert pairs[0][0] == b"member-1"
    assert json.loads(pairs[0][1]) == [[11, 0.9], [12, 0.7]]


def test_pipeline_end_to_end():
    cluster = VoldemortCluster(num_nodes=3, partitions_per_node=4,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", 2, 1, 1, engine_type="read-only"))
    pipeline = PymkPipeline(cluster, MiniHDFS(), k=5)
    graph = PartitionedSocialGraph(8)
    for member in range(0, 20, 2):
        graph.connect(member, member + 1)
        graph.connect(member + 1, (member + 2) % 20)
    build = pipeline.run(graph)
    assert build.version == 1
    routed = RoutedStore(cluster, "pymk")
    recommendations = pipeline.recommendations_for(routed, 0)
    assert recommendations
    assert all(isinstance(c, int) and s > 0 for c, s in recommendations)
    # scores sorted descending
    assert [s for _, s in recommendations] == \
        sorted((s for _, s in recommendations), reverse=True)


def test_pipeline_rerun_replaces_scores():
    cluster = VoldemortCluster(num_nodes=2, partitions_per_node=4,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", 1, 1, 1, engine_type="read-only"))
    pipeline = PymkPipeline(cluster, MiniHDFS(), k=5)
    graph = triangle_graph()
    pipeline.run(graph)
    routed = RoutedStore(cluster, "pymk")
    first = pipeline.recommendations_for(routed, 2)
    # the graph evolves: member 2 gains shared connections with 4
    graph.connect(1, 4)
    pipeline.run(graph)
    second = pipeline.recommendations_for(routed, 2)
    assert {c for c, _ in second} > {c for c, _ in first}
    # rollback restores the previous run (§II.C instant rollback)
    pipeline.controller.rollback()
    assert pipeline.recommendations_for(routed, 2) == first


def test_unknown_member_gets_empty_list():
    cluster = VoldemortCluster(num_nodes=2, partitions_per_node=4,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", 1, 1, 1, engine_type="read-only"))
    pipeline = PymkPipeline(cluster, MiniHDFS())
    pipeline.run(triangle_graph())
    routed = RoutedStore(cluster, "pymk")
    assert pipeline.recommendations_for(routed, 999) == []


def test_k_validation():
    cluster = VoldemortCluster(num_nodes=2, partitions_per_node=4,
                               disk=SimDisk())
    cluster.define_store(StoreDefinition(
        "pymk", 1, 1, 1, engine_type="read-only"))
    with pytest.raises(ConfigurationError):
        PymkPipeline(cluster, MiniHDFS(), k=0)
