"""People You May Know: link prediction on Hadoop (§II.C).

The classic triangle-closing formulation: candidates are
friends-of-friends, scored by how many (inverse-degree-weighted) common
connections vouch for them — the Adamic/Adar measure.  The computation
runs as a MapReduce job:

* **map** — each member's adjacency list emits one candidate pair per
  two-hop path through that member, weighted by 1/log(degree) of the
  shared connection (the "hub" penalty);
* **shuffle** — pairs group by (source, candidate);
* **reduce** — weights sum into a score; already-connected pairs are
  dropped; per-member top-k lists are assembled downstream.

The resulting store value is exactly what §II.C describes: "for every
member id, a list of recommended member ids, along with a score."
"""

from __future__ import annotations

import json
import math
import struct

from repro.common.errors import ConfigurationError
from repro.hadoop import MapReduceJob, MiniHDFS, run_job
from repro.socialgraph import PartitionedSocialGraph
from repro.voldemort.cluster import VoldemortCluster
from repro.voldemort.readonly_pipeline import BuildResult, ReadOnlyPipelineController

_PAIR = struct.Struct(">QQ")
_WEIGHT = struct.Struct(">d")


def _adjacency_records(graph: PartitionedSocialGraph):
    """(member, sorted neighbor list) records — the job's input."""
    seen: set[int] = set()
    for shard in graph._shards:
        for member, neighbors in shard.items():
            if member in seen:
                continue
            seen.add(member)
            yield member, sorted(neighbors)


def score_common_neighbors(graph: PartitionedSocialGraph, hdfs: MiniHDFS,
                           output_dir: str = "/jobs/pymk",
                           num_reducers: int = 4) -> dict[int, dict[int, float]]:
    """Run the scoring job; returns {member: {candidate: score}}.

    Scores use Adamic/Adar weighting: a shared connection with few
    connections is stronger evidence than a hub everyone knows.
    """
    direct_edges: set[tuple[int, int]] = set()
    for member, neighbors in _adjacency_records(graph):
        for neighbor in neighbors:
            direct_edges.add((member, neighbor))

    def mapper(record):
        member, neighbors = record
        if len(neighbors) < 2:
            return
        weight = 1.0 / math.log(len(neighbors) + 1.0)
        packed = _WEIGHT.pack(weight)
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                yield _PAIR.pack(a, b), packed
                yield _PAIR.pack(b, a), packed

    def reducer(key, values):
        source, candidate = _PAIR.unpack(key)
        if (source, candidate) in direct_edges:
            return
        score = sum(_WEIGHT.unpack(v)[0] for v in values)
        yield json.dumps([source, candidate, round(score, 6)]).encode() + b"\n"

    job = MapReduceJob("pymk-scoring", mapper, reducer,
                       num_reducers=num_reducers)
    run_job(job, _adjacency_records(graph), hdfs, output_dir)

    scores: dict[int, dict[int, float]] = {}
    for path in hdfs.glob_files(output_dir):
        for line in hdfs.read(path).splitlines():
            source, candidate, score = json.loads(line)
            scores.setdefault(source, {})[candidate] = score
    return scores


def top_k(scores: dict[int, dict[int, float]], k: int
          ) -> list[tuple[bytes, bytes]]:
    """Store pairs: member key -> JSON list of [candidate, score]."""
    pairs = []
    for member, candidates in sorted(scores.items()):
        ranked = sorted(candidates.items(), key=lambda cs: (-cs[1], cs[0]))[:k]
        value = json.dumps([[c, s] for c, s in ranked]).encode()
        pairs.append((b"member-%d" % member, value))
    return pairs


class PymkPipeline:
    """Offline scoring -> read-only store serving, one object.

    Each :meth:`run` is one production refresh: score the current
    graph, build/pull/swap a new store version.  Serving is a plain
    read-only store get; :meth:`recommendations_for` decodes it.
    """

    def __init__(self, cluster: VoldemortCluster, hdfs: MiniHDFS,
                 k: int = 10):
        if k <= 0:
            raise ConfigurationError("k must be positive")
        self.cluster = cluster
        self.hdfs = hdfs
        self.k = k
        self.store = "pymk"
        self.controller = ReadOnlyPipelineController(cluster, hdfs, self.store)
        self.runs = 0

    def run(self, graph: PartitionedSocialGraph) -> BuildResult:
        self.runs += 1
        scores = score_common_neighbors(
            graph, self.hdfs, output_dir=f"/jobs/{self.store}/run-{self.runs}")
        return self.controller.run_cycle(top_k(scores, self.k))

    def recommendations_for(self, routed_store,
                            member: int) -> list[tuple[int, float]]:
        """Serving-path read; [] when the member has no recommendations."""
        from repro.common.errors import KeyNotFoundError
        try:
            frontier, _ = routed_store.get(b"member-%d" % member)
        except KeyNotFoundError:
            return []
        return [(int(c), float(s)) for c, s in json.loads(frontier[0].value)]
