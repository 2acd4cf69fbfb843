"""The six workloads, by the names ``BENCHMARK.json`` declares."""

from perfbench.workloads.espresso_cdc import EspressoCdc
from perfbench.workloads.kafka_pubsub import KafkaPubSub
from perfbench.workloads.migrate_live import MigrateLive
from perfbench.workloads.streams_day import StreamsDay
from perfbench.workloads.voldemort import VoldemortMultiget, VoldemortReadWrite

WORKLOADS = {cls.name: cls for cls in (
    VoldemortReadWrite,
    VoldemortMultiget,
    EspressoCdc,
    KafkaPubSub,
    StreamsDay,
    MigrateLive,
)}
