"""The build / pull / swap data cycle (Figure II.3).

Three phases, coordinated by :class:`ReadOnlyPipelineController`:

* **Build** — a MapReduce job partitions (key, value) pairs by
  destination node (honouring the store's replication factor), sorts
  by MD5 of key inside Hadoop's shuffle, and writes per-node data and
  index files to HDFS.
* **Pull** — every Voldemort node fetches its files from HDFS into a
  fresh versioned directory.  Pulls are throttled, and index files are
  pulled *after* all data files "to achieve cache-locality post-swap".
* **Swap** — once every node has pulled, the controller coordinates an
  atomic swap: each node records the new version as the one it serves
  after a restart, then every node reads the new index into memory in
  one step.  Rollback is the same switch pointed at the previous
  version.

The file format and its on-disk crash rules belong to
:mod:`repro.voldemort.engines.readonly`; this module only moves bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable

from repro.common.atomic import atomic_section
from repro.common.errors import ConfigurationError
from repro.common.ring import key_digest
from repro.hadoop import MapReduceJob, MiniHDFS, run_job
from repro.voldemort.cluster import VoldemortCluster
from repro.voldemort.engines.readonly import (
    INDEX_ENTRY,
    ReadOnlyStorageEngine,
    build_index,
    pack_record,
    write_version_dir,
)

_NODE_TAG = struct.Struct(">I")


@dataclass
class BuildResult:
    store: str
    version: int
    hdfs_dir: str
    records_per_node: dict[int, int]


@dataclass(frozen=True)
class SwapEvent:
    """Published on every swap/rollback (§II.C future work: "an update
    stream to which consumers can listen").

    Downstream caches and derived stores use the key deltas to
    invalidate precisely instead of flushing everything on deployment.
    """

    store: str
    version: int
    previous_version: int | None
    is_rollback: bool
    keys_added: frozenset[bytes]
    keys_removed: frozenset[bytes]
    keys_changed: frozenset[bytes]

    @property
    def total_delta(self) -> int:
        return (len(self.keys_added) + len(self.keys_removed)
                + len(self.keys_changed))


class ReadOnlyPipelineController:
    """Coordinates the data cycle for one read-only store."""

    def __init__(self, cluster: VoldemortCluster, hdfs: MiniHDFS, store: str):
        self.cluster = cluster
        self.hdfs = hdfs
        self.store = store
        definition = cluster.store_definition(store)
        if definition.engine_type != "read-only":
            raise ConfigurationError(f"store {store!r} is not read-only")
        self.definition = definition
        self._next_version = 1
        self.pull_throttle_bytes_per_sec: float | None = None
        # update stream (§II.C future work): version -> key -> value md5
        self._version_contents: dict[int, dict[bytes, bytes]] = {}
        self._live_version: int | None = None
        self._subscribers: list = []

    # -- build phase -------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Register an update-stream listener; it receives a
        :class:`SwapEvent` after every swap and rollback."""
        self._subscribers.append(listener)

    def build(self, pairs: Iterable[tuple[bytes, bytes]]) -> BuildResult:
        """Run the Hadoop job; writes per-node index/data files to HDFS."""
        pairs = list(pairs)
        version = self._next_version
        self._next_version += 1
        self._version_contents[version] = {
            key: hashlib.md5(value).digest() for key, value in pairs}
        ring = self.cluster.ring
        replication = self.definition.replication_factor
        node_ids = sorted(ring.nodes)
        node_index = {node_id: i for i, node_id in enumerate(node_ids)}

        def mapper(pair):
            key, value = pair
            digest = key_digest(key)
            partition = ring.partition_for_key(key)
            for replica in ring.replica_partitions(partition, replication):
                node_id = ring.node_for_partition(replica).node_id
                composite = _NODE_TAG.pack(node_index[node_id]) + digest + key
                yield composite, pack_record(key, value)

        def reducer(composite_key, values):
            if len(values) != 1:
                raise ConfigurationError(
                    f"duplicate key in read-only build: "
                    f"{composite_key[20:]!r}")
            yield values[0]

        def partitioner(composite_key, num_reducers):
            return _NODE_TAG.unpack_from(composite_key, 0)[0]

        job = MapReduceJob(f"build-{self.store}-v{version}", mapper, reducer,
                           num_reducers=len(node_ids),
                           partitioner=partitioner)
        hdfs_dir = f"/stores/{self.store}/version-{version}"
        counters = run_job(job, pairs, self.hdfs, f"{hdfs_dir}/_raw")

        # derive index + rename data per node; records arrive md5-sorted
        records_per_node: dict[int, int] = {}
        for node_id in node_ids:
            part = f"{hdfs_dir}/_raw/part-{node_index[node_id]:05d}"
            data = self.hdfs.read(part)
            index = build_index(data)
            self.hdfs.create(f"{hdfs_dir}/node-{node_id}.data", data)
            self.hdfs.create(f"{hdfs_dir}/node-{node_id}.index", index)
            records_per_node[node_id] = len(index) // INDEX_ENTRY.size
        return BuildResult(self.store, version, hdfs_dir, records_per_node)

    # -- pull phase --------------------------------------------------------------

    def pull(self, build: BuildResult) -> dict[int, int]:
        """Every node fetches its files into a new versioned directory.

        Returns bytes pulled per node.  Data files are fetched before
        index files; an optional throttle converts bytes to simulated
        seconds on the cluster clock.
        """
        pulled: dict[int, int] = {}
        for node_id in sorted(self.cluster.ring.nodes):
            data = self._fetch(f"{build.hdfs_dir}/node-{node_id}.data")
            index = self._fetch(f"{build.hdfs_dir}/node-{node_id}.index")
            engine = self._engine(node_id)
            write_version_dir(engine.disk, engine.store_dir, build.version,
                              index, data)
            pulled[node_id] = len(data) + len(index)
        return pulled

    def _fetch(self, path: str) -> bytes:
        chunks = []
        for chunk in self.hdfs.read_chunks(path, chunk_size=1 << 20):
            chunks.append(chunk)
            if self.pull_throttle_bytes_per_sec:
                self.cluster.clock.sleep(
                    len(chunk) / self.pull_throttle_bytes_per_sec)
        return b"".join(chunks)

    def _engine(self, node_id: int) -> ReadOnlyStorageEngine:
        engine = self.cluster.server_for(node_id).engine(self.store)
        if not isinstance(engine, ReadOnlyStorageEngine):
            raise ConfigurationError(
                f"node {node_id} store {self.store!r} is not read-only")
        return engine

    # -- swap phase ----------------------------------------------------------------

    def swap(self, build: BuildResult) -> None:
        """Cluster-wide swap: verify all nodes pulled, then switch.

        Verification before any node changes keeps the cluster versions
        consistent — either every node serves the new version or none
        does.
        """
        for node_id in sorted(self.cluster.ring.nodes):
            engine = self._engine(node_id)
            if build.version not in engine.versions_on_disk():
                raise ConfigurationError(
                    f"node {node_id} has not pulled version {build.version}")
        self._switch(build.version, is_rollback=False)

    def rollback(self) -> int:
        """Roll every node back one version; returns the version now live."""
        versions = {self._engine(node_id).previous_version()
                    for node_id in sorted(self.cluster.ring.nodes)}
        if len(versions) != 1:
            raise ConfigurationError(f"divergent rollback versions: {versions}")
        restored = versions.pop()
        self._switch(restored, is_rollback=True)
        return restored

    def _switch(self, version: int, is_rollback: bool) -> None:
        """Each node first records ``version`` durably (an fsync, so a
        yield point): a node killed among those records restarts into
        the version the flip is about to serve.  Then all flip at once."""
        for node_id in sorted(self.cluster.ring.nodes):
            self._engine(node_id).record_serving(version)
        self._flip(version, is_rollback)

    @atomic_section
    def _flip(self, version: int, is_rollback: bool) -> None:
        """Every node serves ``version``.  Declared atomic: a yield
        between per-node flips would expose mixed versions to routed
        reads."""
        for node_id in sorted(self.cluster.ring.nodes):
            self._engine(node_id).load(version)
        self._emit_swap_event(version, is_rollback)

    def _emit_swap_event(self, version: int, is_rollback: bool) -> None:
        previous = self._live_version
        new_contents = self._version_contents.get(version, {})
        old_contents = self._version_contents.get(previous, {}) \
            if previous is not None else {}
        added = frozenset(k for k in new_contents if k not in old_contents)
        removed = frozenset(k for k in old_contents if k not in new_contents)
        changed = frozenset(k for k, digest in new_contents.items()
                            if k in old_contents and old_contents[k] != digest)
        event = SwapEvent(self.store, version, previous, is_rollback,
                          added, removed, changed)
        self._live_version = version
        for listener in self._subscribers:
            listener(event)

    def run_cycle(self, pairs: Iterable[tuple[bytes, bytes]]) -> BuildResult:
        """Full build -> pull -> swap."""
        build = self.build(pairs)
        self.pull(build)
        # safe: staged publication — the build is invisible until swap()
        # flips _live_version, and swap() itself is an atomic section
        self.swap(build)  # repro-lint: disable=non-atomic-multi-write
        return build
