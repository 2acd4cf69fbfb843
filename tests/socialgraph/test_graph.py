"""Partitioned graph structure and §I.A's query examples."""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.socialgraph import PartitionedSocialGraph


@pytest.fixture
def graph():
    return PartitionedSocialGraph(num_partitions=4)


def chain(graph, *members):
    for a, b in zip(members, members[1:]):
        graph.connect(a, b)


def test_connect_is_undirected(graph):
    assert graph.connect(1, 2)
    assert 2 in graph.connections_of(1)
    assert 1 in graph.connections_of(2)
    assert graph.edge_count == 1


def test_duplicate_edges_counted_once(graph):
    assert graph.connect(1, 2)
    assert not graph.connect(2, 1)
    assert graph.edge_count == 1


def test_self_connection_rejected(graph):
    with pytest.raises(ConfigurationError):
        graph.connect(5, 5)


def test_disconnect(graph):
    graph.connect(1, 2)
    assert graph.disconnect(1, 2)
    assert not graph.disconnect(1, 2)
    assert graph.connections_of(1) == set()
    assert graph.edge_count == 0


def test_connection_count(graph):
    for other in range(2, 8):
        graph.connect(1, other)
    assert graph.connection_count(1) == 6
    assert graph.connection_count(99) == 0


def test_shared_connections(graph):
    graph.connect(1, 10)
    graph.connect(1, 11)
    graph.connect(2, 10)
    graph.connect(2, 12)
    assert graph.shared_connections(1, 2) == {10}
    assert graph.shared_connections(1, 99) == set()


def test_distance_direct_and_zero(graph):
    graph.connect(1, 2)
    assert graph.distance(1, 1) == 0
    assert graph.distance(1, 2) == 1
    assert graph.distance(2, 1) == 1


def test_distance_multi_hop(graph):
    chain(graph, 1, 2, 3, 4, 5)
    assert graph.distance(1, 3) == 2
    assert graph.distance(1, 5) == 4
    # a shortcut changes the answer
    graph.connect(1, 4)
    assert graph.distance(1, 5) == 2


def test_distance_bounded(graph):
    chain(graph, *range(10))
    assert graph.distance(0, 9, max_degrees=6) is None
    assert graph.distance(0, 9, max_degrees=9) == 9


def test_distance_disconnected(graph):
    graph.connect(1, 2)
    graph.connect(10, 11)
    assert graph.distance(1, 10) is None


def test_shortest_path(graph):
    chain(graph, 1, 2, 3, 4)
    assert graph.shortest_path(1, 4) == [1, 2, 3, 4]
    assert graph.shortest_path(1, 1) == [1]
    assert graph.shortest_path(1, 99) is None
    graph.connect(1, 3)
    assert graph.shortest_path(1, 4) == [1, 3, 4]


def test_partitioning_spreads_members(graph):
    for member in range(100):
        graph.connect(member, member + 100)
    sizes = graph.partition_sizes()
    assert len(sizes) == 4
    assert min(sizes) > 0
    assert graph.member_count() == 200


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                max_size=60), st.integers(0, 30), st.integers(0, 30))
def test_distance_matches_reference_bfs(edges, source, target):
    """Bidirectional BFS agrees with a plain reference BFS."""
    graph = PartitionedSocialGraph(num_partitions=3)
    adjacency: dict[int, set[int]] = {}
    for a, b in edges:
        if a == b:
            continue
        graph.connect(a, b)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    # reference single-source BFS
    from collections import deque
    reference = None
    seen = {source: 0}
    queue = deque([source])
    while queue:
        member = queue.popleft()
        if member == target:
            reference = seen[member]
            break
        for neighbor in adjacency.get(member, set()):
            if neighbor not in seen:
                seen[neighbor] = seen[member] + 1
                queue.append(neighbor)
    if source == target:
        reference = 0
    bounded = reference if reference is not None and reference <= 6 else None
    assert graph.distance(source, target, max_degrees=6) == bounded


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=1, max_size=40))
def test_shortest_path_is_valid_and_minimal(edges):
    graph = PartitionedSocialGraph(num_partitions=2)
    for a, b in edges:
        if a != b:
            graph.connect(a, b)
    rng = random.Random(1)
    nodes = sorted({m for e in edges for m in e})
    for _ in range(5):
        a, b = rng.choice(nodes), rng.choice(nodes)
        path = graph.shortest_path(a, b, max_degrees=20)
        distance = graph.distance(a, b, max_degrees=20)
        if path is None:
            assert distance is None
        else:
            assert path[0] == a and path[-1] == b
            for x, y in zip(path, path[1:]):
                assert y in graph.connections_of(x)
            assert len(path) - 1 == distance


# -- EXP-G1: what a graph query costs, in adjacency lists read ------------

def small_world(members=5000, half_degree=6, seed=1):
    """Ring lattice with 10% of the edges rewired for short global paths."""
    rng = random.Random(seed)
    graph = PartitionedSocialGraph(num_partitions=32)
    for member in range(members):
        for k in range(1, half_degree + 1):
            neighbor = (member + k) % members
            if rng.random() < 0.1:
                neighbor = rng.randrange(members)
            if neighbor != member:
                graph.connect(member, neighbor)
    return graph


def count_list_reads(graph):   # each adjacency-list read locates its shard
    reads = []
    locate = graph.partition_of
    graph.partition_of = lambda member: reads.append(member) or locate(member)
    return reads


def one_sided_distance(graph, a, b, max_degrees):
    seen = {a: 0}
    queue = deque([a])
    while queue:
        member = queue.popleft()
        if seen[member] < max_degrees:
            for neighbor in graph.connections_of(member):
                if neighbor == b:
                    return seen[member] + 1
                if neighbor not in seen:
                    seen[neighbor] = seen[member] + 1
                    queue.append(neighbor)
    return None


def test_exp_g1_graph_queries_read_a_handful_of_adjacency_lists():
    graph = small_world()
    reads = count_list_reads(graph)
    rng = random.Random(4)
    pairs = [(rng.randrange(5000), rng.randrange(5000)) for _ in range(20)]
    for a, b in pairs:   # a count reads one list, an intersection two
        graph.connection_count(a)
        graph.shared_connections(a, b)
    assert len(reads) == 3 * len(pairs)
    del reads[:]
    met_in_the_middle = [graph.distance(a, b, max_degrees=4) for a, b in pairs]
    two_sided = len(reads)
    del reads[:]
    assert [one_sided_distance(graph, a, b, 4) for a, b in pairs] \
        == met_in_the_middle
    assert (two_sided, len(reads)) == (493, 4975)   # ~25 vs ~250 a query
