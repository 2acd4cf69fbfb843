"""``espresso-cdc``: the write → relay → slave-apply → client path.

Requests go through the Espresso :class:`Router` to a 3-node, RF-2
cluster on a ``SimDisk``; every commit is captured by the cluster's
Databus relay, applied by the slaves (``pump_replication``), and
consumed by a search-index consumer through one ``DatabusClient`` per
partition buffer.  Serialization, the commit WAL, the storage node and
the relay do most of the work; the network and Kafka do none.

Requests arrive on a seeded Poisson schedule on the sim clock (mean gap
Δ = 1 ms): an open loop, so freshness is measured against a schedule
that does not slow down when the code does.
"""

from __future__ import annotations

import random

from repro.common.clock import SimClock
from repro.common.serialization import (
    Field,
    RecordSchema,
    decode_record,
    encode_record,
)
from repro.databus.client import DatabusClient, DatabusConsumer
from repro.espresso import (
    DatabaseSchema,
    EspressoCluster,
    EspressoTableSchema,
    Router,
)
from repro.espresso.storage import partition_buffer_name
from repro.search.index import RankedInvertedIndex
from repro.simnet.disk import SimDisk
from repro.sqlstore.binlog import ChangeKind
from repro.workloads import ZipfGenerator

from perfbench.workloads.base import Workload, disk_live_bytes, scaled

DATABASE = DatabaseSchema(
    name="Members", num_partitions=8, replication_factor=2,
    tables=(EspressoTableSchema("Profile", ("member",)),
            EspressoTableSchema("Mailbox", ("member", "message"))))
PROFILE = RecordSchema("Profile", [
    Field("name", "string"), Field("headline", "string"),
    Field("industry", "string", indexed=True)])
MAILBOX = RecordSchema("Mailbox", [
    Field("subject", "string"), Field("body", "string"),
    Field("folder", "string", indexed=True), Field("sent_at", "long")])
NODES = ("storage-0", "storage-1", "storage-2")
FOLDERS = ("inbox", "archive", "sent")
INDUSTRIES = ("software", "finance", "health", "media", "retail")
WORDS = ("data infrastructure voldemort databus espresso kafka member "
         "profile stream change capture timeline consistent replica "
         "partition master slave relay bootstrap index query").split()
DELTA_S = 0.001     # mean sim time between requests
PUMP_EVERY = 20
POLL_EVERY = 50


class SearchIndexConsumer(DatabusConsumer):
    """Keeps a search index current from one partition's change stream,
    and notes how stale each window was when it arrived."""

    def __init__(self, workload: "EspressoCdc", partition: int):
        self.workload = workload
        self.partition = partition
        self.last_scn = 0
        self._committed_at = 0.0

    def on_data_event(self, event) -> None:
        self._committed_at = event.timestamp
        if event.source != "Mailbox":
            return
        if event.kind is ChangeKind.DELETE:
            self.workload.index.remove(event.key)
            return
        relay = self.workload.cluster.relay
        row = decode_record(
            relay.schemas.get(event.source, event.schema_version),
            event.payload)
        self.workload.index.add(event.key, decode_record(MAILBOX, row["val"]))

    def on_end_window(self, scn: int) -> None:
        if scn != self.last_scn + 1:
            self.workload.scn_gaps.append(
                f"partition {self.partition}: SCN {scn} after "
                f"{self.last_scn}")
        self.last_scn = scn
        self.workload.sim_ms.append(
            (self.workload.clock.now() - self._committed_at) * 1e3)


class EspressoCdc(Workload):
    """70% ``put`` of a ~300 B document with one indexed field, 20%
    ``get``, 8% secondary-index query, 2% multi-table transaction."""

    name = "espresso-cdc"
    MEMBERS = 2000
    REQUESTS = 13_000
    MESSAGES_PER_MEMBER = 16

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        members = ZipfGenerator(self.MEMBERS, theta=0.99, seed=seed + 1)
        self.member_ids = [f"m{rank:05d}" for rank in range(self.MEMBERS)]
        self.preload = [(member, self._profile(rng, member),
                         self._message(rng, 0))
                        for member in self.member_ids]
        self.requests: list[tuple] = []
        self.gaps: list[float] = []
        for i in range(scaled(self.REQUESTS, scale, floor=100)):
            self.gaps.append(rng.expovariate(1.0 / DELTA_S))
            member = self.member_ids[members.next()]
            draw = rng.random()
            if draw < 0.70:
                slot = rng.randrange(self.MESSAGES_PER_MEMBER)
                document = self._message(rng, i)
                self.requests.append(
                    ("put", f"/Members/Mailbox/{member}/{slot:04d}",
                     document, len(encode_record(MAILBOX, document))))
            elif draw < 0.90:
                self.requests.append(
                    ("get", f"/Members/Mailbox/{member}/0000"))
            elif draw < 0.98:
                self.requests.append(
                    ("get", f"/Members/Mailbox/{member}"
                            f"?query=folder:{rng.choice(FOLDERS)}"))
            else:
                profile = self._profile(rng, member)
                document = self._message(rng, i)
                self.requests.append(("txn", member, [
                    ("put", "Profile", (member,), profile),
                    ("put", "Mailbox", (member, "0001"), document)],
                    len(encode_record(PROFILE, profile))
                    + len(encode_record(MAILBOX, document))))
        self.steps = len(self.requests)
        self.cluster = None
        self.user_bytes = 0
        self.polls = self.empty_polls = self.lag_scn_max = 0

    @staticmethod
    def _profile(rng: random.Random, member: str) -> dict:
        return {"name": f"Member {member}",
                "headline": " ".join(rng.choice(WORDS) for _ in range(12)),
                "industry": rng.choice(INDUSTRIES)}

    @staticmethod
    def _message(rng: random.Random, sent_at: int) -> dict:
        return {"subject": " ".join(rng.choice(WORDS) for _ in range(5)),
                "body": " ".join(rng.choice(WORDS) for _ in range(32)),
                "folder": rng.choice(FOLDERS), "sent_at": sent_at}

    # -- world ------------------------------------------------------------

    def setup(self) -> None:
        self.clock = SimClock()
        self.disk = SimDisk(clock=self.clock, seed=self.seed)
        self.cluster = EspressoCluster(DATABASE, num_nodes=len(NODES),
                                       clock=self.clock, disk=self.disk)
        self.cluster.post_document_schema("Profile", PROFILE)
        self.cluster.post_document_schema("Mailbox", MAILBOX)
        self.cluster.start()
        self.router = Router(self.cluster)
        self.index = RankedInvertedIndex({"subject": 2.0, "body": 1.0})
        self.scn_gaps: list[str] = []
        self.consumers = [SearchIndexConsumer(self, partition)
                          for partition in range(DATABASE.num_partitions)]
        self.clients = [
            DatabusClient(consumer, self.cluster.relay,
                          buffer_name=partition_buffer_name(
                              DATABASE.name, consumer.partition),
                          clock=self.clock,
                          client_name=f"search-{consumer.partition}")
            for consumer in self.consumers]
        for member, profile, message in self.preload:
            self.router.put(f"/Members/Profile/{member}", profile)
            self.router.put(f"/Members/Mailbox/{member}/0000", message)
        self._drain()
        # the preload's polls and staleness are not measurements
        self.sim_ms.clear()
        self.polls = self.empty_polls = self.lag_scn_max = 0

    def teardown(self) -> None:
        self.cluster = None

    def _poll_clients(self) -> None:
        relay = self.cluster.relay
        for client in self.clients:
            lag = relay.newest_scn(client.buffer_name) - client.checkpoint
            if lag > self.lag_scn_max:
                self.lag_scn_max = lag
            self.polls += 1
            if client.poll() == 0:
                self.empty_polls += 1

    def _drain(self) -> None:
        self.cluster.pump_replication()
        self._poll_clients()

    # -- measured phase ---------------------------------------------------

    def step(self, i: int) -> None:
        self.clock.advance(self.gaps[i])
        request = self.requests[i]
        self.attempted += 1
        if request[0] == "put":
            ok = self.router.put(request[1], request[2]).status == 200
            if ok:
                self.user_bytes += request[3]
        elif request[0] == "get":
            ok = self.router.get(request[1]).status == 200
        else:
            ok = self.router.post_transaction(
                "Members", request[1], request[2]).status == 200
            if ok:
                self.user_bytes += request[3]
        if ok:
            self.ops += 1
        else:
            self.failed += 1
        if (i + 1) % PUMP_EVERY == 0:
            self.cluster.pump_replication()
        if (i + 1) % POLL_EVERY == 0:
            self._poll_clients()
        if i + 1 == self.steps:
            self._drain()

    def recover(self) -> None:
        """Bounce every storage node in turn: crash, fail over, rebuild
        from the commit log, rejoin, catch up from the relay."""
        for name in NODES:
            self.cluster.crash_node(name)
            self.cluster.failover()
            self.cluster.recover_node(name)
            self.cluster.failover()
        self.cluster.pump_replication()
        if self.router.get(
                f"/Members/Mailbox/{self.member_ids[0]}/0000").status != 200:
            raise RuntimeError("cluster does not serve after recovery")

    # -- correctness ------------------------------------------------------

    def check(self) -> list[str]:
        self._drain()
        failures = list(self.scn_gaps)
        relay = self.cluster.relay
        for client in self.clients:
            head = relay.newest_scn(client.buffer_name)
            if client.checkpoint != head:
                failures.append(f"{client.buffer_name}: consumer at "
                                f"{client.checkpoint}, relay at {head}")
        for partition in range(DATABASE.num_partitions):
            images = {}
            for name in NODES:
                node = self.cluster.nodes[name]
                if node.role_of(partition) is not None:
                    images[name] = node.partition_snapshot(partition)
            master = self.cluster.master_node(partition)
            for name, image in images.items():
                if image != images[master.instance_name]:
                    failures.append(
                        f"partition {partition}: {name} differs from "
                        f"master {master.instance_name}")
        for member in self.member_ids[:64]:
            node = self.cluster.node_for_resource(member)
            for folder in FOLDERS:
                indexed = [r.key for r in node.query_index(
                    "Mailbox", "folder", folder, resource_id=member)]
                scanned = [r.key for r in node.query_full_scan(
                    "Mailbox", "folder", folder, resource_id=member)]
                if indexed != scanned:
                    failures.append(f"index and scan disagree for "
                                    f"{member}/{folder}")
        return failures

    def counts(self) -> dict[str, float]:
        relay = self.cluster.relay
        buffers = [relay.buffer(name) for name in relay.buffer_names()]
        windows = sum(b.windows_appended for b in buffers)
        return {
            "user_bytes": self.user_bytes,
            "simnet.disk.live_bytes": disk_live_bytes(self.disk, list(NODES)),
            "espresso.storage.windows_applied": sum(
                node.windows_applied for node in self.cluster.nodes.values()),
            "databus.relay.events_per_window":
                sum(b.events_appended for b in buffers) / max(1, windows),
            "databus.relay.buffer_bytes_max":
                max(b.size_bytes for b in buffers),
            "databus.client.lag_scn_max": self.lag_scn_max,
            "databus.client.empty_poll_frac":
                self.empty_polls / max(1, self.polls),
        }
