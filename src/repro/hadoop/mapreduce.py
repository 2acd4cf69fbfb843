"""A faithful-in-shape MapReduce runner.

Execution model (what the Voldemort build phase depends on, §II.B):

* **map** — each input record produces zero or more (key, value) pairs;
* **partition** — a user partitioner routes each key to one of
  ``num_reducers`` reduce tasks (the build phase partitions by
  destination Voldemort node);
* **shuffle/sort** — within each reduce task, pairs are sorted by key
  ("we leverage Hadoop's ability to sort its values in the reducers");
* **reduce** — called once per key with the grouped values, in key
  order; emits output records;
* **output** — one ``part-NNNNN`` file per reduce task written to HDFS.

The runner is single-process but preserves task boundaries and
determinism, so outputs are byte-identical run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.common.errors import ConfigurationError, UnsupportedTypeError
from repro.common.ring import partition32
from repro.hadoop.hdfs import MiniHDFS

Mapper = Callable[[object], Iterable[tuple[bytes, bytes]]]
Reducer = Callable[[bytes, list[bytes]], Iterable[bytes]]
Partitioner = Callable[[bytes, int], int]


@dataclass
class JobCounters:
    """Per-job counters, in the spirit of Hadoop's counter UI."""

    map_input_records: int = 0
    map_output_records: int = 0
    reduce_input_groups: int = 0
    reduce_output_records: int = 0
    shuffled_bytes: int = 0


@dataclass
class MapReduceJob:
    """Job configuration; run with :func:`run_job`."""

    name: str
    mapper: Mapper
    reducer: Reducer
    num_reducers: int = 1
    partitioner: Partitioner = partition32   # hash partitioning, Hadoop's default

    def __post_init__(self):
        if self.num_reducers <= 0:
            raise ConfigurationError("num_reducers must be positive")


def run_job(job: MapReduceJob, inputs: Iterable[object], hdfs: MiniHDFS,
            output_dir: str) -> JobCounters:
    """Execute ``job`` over ``inputs``, writing part files to ``output_dir``.

    Each part file is the concatenation of the reducer's emitted byte
    records for its partition, with records laid out exactly as emitted
    (the reducer owns framing — the Voldemort build reducer emits fixed
    width index entries and length-prefixed data records).
    """
    counters = JobCounters()

    # map phase
    shuffle: list[list[tuple[bytes, bytes]]] = [[] for _ in range(job.num_reducers)]
    for record in inputs:
        counters.map_input_records += 1
        for key, value in job.mapper(record):
            if not isinstance(key, bytes) or not isinstance(value, bytes):
                raise UnsupportedTypeError(
                    f"{job.name}: mapper must emit (bytes, bytes)")
            partition = job.partitioner(key, job.num_reducers)
            if not 0 <= partition < job.num_reducers:
                raise ConfigurationError(
                    f"{job.name}: partitioner returned {partition} "
                    f"for {job.num_reducers} reducers")
            shuffle[partition].append((key, value))
            counters.map_output_records += 1
            counters.shuffled_bytes += len(key) + len(value)

    # shuffle-sort + reduce phase, one task per partition
    for partition, pairs in enumerate(shuffle):
        pairs.sort(key=lambda kv: kv[0])
        out = bytearray()
        for key, values in _grouped(pairs):
            counters.reduce_input_groups += 1
            for record in job.reducer(key, values):
                if not isinstance(record, bytes):
                    raise UnsupportedTypeError(
                        f"{job.name}: reducer must emit bytes")
                out.extend(record)
                counters.reduce_output_records += 1
        hdfs.create(f"{output_dir}/part-{partition:05d}", bytes(out))
    return counters


def _grouped(sorted_pairs: list[tuple[bytes, bytes]]
             ) -> Iterator[tuple[bytes, list[bytes]]]:
    """Group adjacent pairs sharing a key (input must be sorted)."""
    current_key: bytes | None = None
    bucket: list[bytes] = []
    for key, value in sorted_pairs:
        if key != current_key:
            if current_key is not None:
                yield current_key, bucket
            current_key = key
            bucket = []
        bucket.append(value)
    if current_key is not None:
        yield current_key, bucket
