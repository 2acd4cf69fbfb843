"""Which entry points belong to which layer, and what to count there.

Layer names follow the package layout under ``src/repro``.  A target is
``module:Class.*`` (every public method defined on the class),
``module:Class.method`` or ``module:function``; see
:meth:`perfbench.tracer.Tracer.install`.  Generators and properties are
skipped by the tracer, so e.g. ``iter_messages`` decoding is charged to
the consumer that iterates it.
"""

from __future__ import annotations

LAYERS: dict[str, list[str]] = {
    "common.serialization": [
        "repro.common.serialization:encode_record",
        "repro.common.serialization:decode_record",
        "repro.common.serialization:decode_with_resolution",
    ],
    "common.wal": [
        "repro.common.wal:WriteAheadLog.*",
        "repro.common.wal:WriteAheadLog.__init__",
    ],
    # counter_of is compare's sub-microsecond inner loop; it stays
    # unwrapped so the shim does not dominate what it measures
    "common.vectorclock": [
        "repro.common.vectorclock:VectorClock.compare",
        "repro.common.vectorclock:VectorClock.incremented",
        "repro.common.vectorclock:VectorClock.merged",
        "repro.common.vectorclock:VectorClock.dominates",
        "repro.common.vectorclock:VectorClock.descends_from",
        "repro.common.vectorclock:VectorClock.concurrent_with",
    ],
    "common.metrics": [
        "repro.common.metrics:LatencyHistogram.record",
        "repro.common.metrics:Counter.increment",
        "repro.common.metrics:CounterFamily.labels",
        "repro.common.metrics:Meter.mark",
        "repro.common.metrics:MetricsRegistry.*",
    ],
    "common.overload": [
        "repro.common.overload:TokenBucket.*",
        "repro.common.overload:AdmissionController.*",
        "repro.common.overload:CoDelShedder.*",
        "repro.common.overload:ConcurrencyLimiter.*",
        "repro.common.overload:HedgedCall.*",
    ],
    "common.resilience": [
        "repro.common.resilience:call_with_retries",
        "repro.common.resilience:CircuitBreaker.*",
        "repro.common.resilience:Deadline.*",
        "repro.common.resilience:RetryPolicy.*",
    ],
    "simnet.network": [
        "repro.simnet.network:SimNetwork.invoke",
        "repro.simnet.network:SimNetwork.send",
        "repro.simnet.network:SimNetwork.queue_depth",
    ],
    "simnet.disk": [
        "repro.simnet.disk:SimDisk.*",
        "repro.simnet.disk:_SimFile.*",
    ],
    "voldemort.routing": [
        "repro.voldemort.routing:RoutedStore.*",
        "repro.voldemort.failure_detector:FailureDetector.*",
    ],
    "voldemort.server": [
        "repro.voldemort.server:VoldemortServer.*",
        "repro.voldemort.server:VoldemortServer.__init__",
        "repro.voldemort.cluster:VoldemortCluster.kill_node",
        "repro.voldemort.cluster:VoldemortCluster.restart_node",
    ],
    "voldemort.engines": [
        "repro.voldemort.engines.logstructured:LogStructuredEngine.*",
        "repro.voldemort.engines.logstructured:LogStructuredEngine.__init__",
        "repro.voldemort.engines.memory:InMemoryStorageEngine.*",
        "repro.voldemort.engines.base:StorageEngine.*",
    ],
    "espresso.router": [
        "repro.espresso.router:Router.*",
        "repro.espresso.cluster:EspressoCluster.node_for_resource",
        "repro.espresso.cluster:EspressoCluster.master_node",
        "repro.espresso.uri:parse_uri",
    ],
    "espresso.storage": [
        "repro.espresso.storage:EspressoStorageNode.*",
        "repro.espresso.storage:EspressoStorageNode.__init__",
        "repro.espresso.index:LocalSecondaryIndex.*",
        "repro.espresso.cluster:EspressoCluster.pump_replication",
        "repro.espresso.cluster:EspressoCluster.crash_node",
        "repro.espresso.cluster:EspressoCluster.recover_node",
    ],
    "sqlstore": [
        "repro.sqlstore.database:SqlDatabase.*",
        "repro.sqlstore.database:Transaction.*",
        "repro.sqlstore.table:Table.*",
        "repro.sqlstore.binlog:Binlog.*",
    ],
    "databus.relay": [
        "repro.databus.relay:Relay.*",
        "repro.databus.relay:capture_from_binlog.poll",
    ],
    "databus.client": [
        "repro.databus.client:DatabusClient.*",
    ],
    "databus.bootstrap": [
        "repro.databus.bootstrap:BootstrapServer.*",
    ],
    "kafka.producer": [
        "repro.kafka.producer:Producer.*",
    ],
    "kafka.broker": [
        "repro.kafka.broker:Broker.*",
        "repro.kafka.broker:KafkaCluster.*",
    ],
    "kafka.log": [
        "repro.kafka.log:PartitionLog.*",
        "repro.kafka.log:PartitionLog.__init__",
        "repro.kafka.message:MessageSet.encode",
    ],
    "kafka.consumer": [
        "repro.kafka.consumer:SimpleConsumer.*",
        "repro.kafka.consumer:MessageStream.*",
        "repro.kafka.consumer:ConsumerGroupMember.*",
    ],
    "streams.task": [
        "repro.streams.task:TaskInstance.*",
        "repro.streams.task:TaskInstance.__init__",
        "repro.streams.container:StreamContainer.*",
        "repro.streams.job:JobCoordinator.*",
    ],
    "streams.state": [
        "repro.streams.state:KeyedStateStore.*",
        "repro.streams.state:write_snapshot",
        "repro.streams.state:load_snapshot",
    ],
    "streams.changelog": [
        "repro.streams.changelog:ChangelogWriter.*",
        "repro.streams.changelog:replay_changelog",
        "repro.streams.changelog:compact_changelog",
    ],
    "zookeeper": [
        "repro.zookeeper.server:ZooKeeperSession.*",
        "repro.zookeeper.server:ZooKeeperServer.connect",
    ],
    "helix": [
        "repro.helix.controller:HelixController.*",
        "repro.helix.controller:ExternalView.*",
        "repro.helix.participant:Participant.*",
    ],
    "migration.backfill": [
        "repro.migration.backfill:ChunkedBackfill.*",
        "repro.migration.backfill:LiveReplicator.*",
        "repro.migration.target:EspressoTarget.put_row",
        "repro.migration.target:EspressoTarget.delete_row",
        "repro.migration.target:EspressoTarget.bulk_apply_rows",
    ],
    "migration.dualwrite": [
        "repro.migration.dualwrite:DualWriteProxy.*",
        "repro.migration.target:EspressoTarget.get_document",
        "repro.migration.target:EspressoTarget.get_row",
        "repro.migration.target:EspressoTarget.dump",
    ],
    "migration.cutover": [
        "repro.migration.cutover:MigrationCoordinator.*",
        "repro.migration.checkpoint:MigrationJournal.*",
    ],
    "audit": [
        "repro.audit.engine:Auditor.*",
        "repro.audit.engine:WatermarkCut.certify",
        "repro.audit.constraints:CountConservation.check",
        "repro.audit.constraints:KeySetContainment.check",
        "repro.audit.constraints:ValueEquality.check",
        "repro.audit.constraints:ReplicaAgreement.check",
    ],
}


# -- observers: counts taken where the work happens --------------------------
#
# An observer runs after a successful wrapped call with the tracer's
# accumulator dict, the call's positional args (``args[0]`` is ``self``
# for methods), its result and its inclusive duration in ns.

def _invoke(acc, args, result, dt):
    acc["network.sim_s"] += result[1]


def _file_write(acc, args, result, dt):
    acc["disk.bytes_written"] += result


def _encode(acc, args, result, dt):
    acc["serialization.bytes"] += len(result)


def _decode(acc, args, result, dt):
    acc["serialization.bytes"] += len(args[1])


def _wal_open(acc, args, result, dt):
    acc["wal.frames_replayed"] += args[0].recovered_frames


def _routed_get(acc, args, result, dt):
    frontier = result[0]
    acc["routing.keys"] += 1
    acc["routing.gets"] += 1
    acc["routing.siblings"] += len(frontier)
    acc["routing.siblings_max"] = max(acc["routing.siblings_max"],
                                      len(frontier))
    acc["routing.value_bytes"] += sum(len(v.value or b"") for v in frontier)


def _routed_get_all(acc, args, result, dt):
    acc["routing.keys"] += len(args[1])


def _routed_put(acc, args, result, dt):
    acc["routing.keys"] += 1


def _query_index(acc, args, result, dt):
    acc["index.queries"] += 1
    acc["index.rows"] += len(result)


def _run_one_chunk(acc, args, result, dt):
    if result is not None:
        acc["backfill.rows_discarded"] += result.rows_discarded


def _proxy_read(acc, args, result, dt):
    if args[0].dual_writes_enabled:
        acc["dualwrite.shadow_reads"] += 1
        acc["dualwrite.shadow_ns"] += dt


OBSERVERS = {
    "SimNetwork.invoke": _invoke,
    "_SimFile.write": _file_write,
    "encode_record": _encode,
    "decode_record": _decode,
    "WriteAheadLog.__init__": _wal_open,
    "RoutedStore.get": _routed_get,
    "RoutedStore.get_all": _routed_get_all,
    "RoutedStore.put": _routed_put,
    "EspressoStorageNode.query_index": _query_index,
    "ChunkedBackfill.run_one_chunk": _run_one_chunk,
    "DualWriteProxy.read": _proxy_read,
}
