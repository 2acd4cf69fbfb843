"""What verifying a migration costs: ``contains`` and ``keys`` read no
document, ``dump`` and ``keys`` share one scan per node, and a cutover
check decodes each target document once."""

import random

import pytest

from repro.audit.wiring import cutover_check
from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.espresso.cluster import EspressoCluster
from repro.migration import MigrationPhase, MigrationStack
from repro.migration.target import (
    EspressoTarget,
    RowTransform,
    espresso_schema_for,
)
from repro.simnet.disk import SimDisk

from tests.common.codec_calls import DECODES, codec_calls
from tests.migration.conftest import FAST_SLO, drive_to_phase, make_source

NODES = ("storage-0", "storage-1", "storage-2")


def migrated_stack(profiles: int, inmails: int,
                   phase: MigrationPhase = MigrationPhase.CUTOVER):
    clock = SimClock()
    source = make_source(clock, profiles=profiles, inmails=inmails)
    stack = MigrationStack.build(source, SimDisk(clock=clock).scope("c"),
                                 clock, slo=FAST_SLO, chunk_size=16,
                                 cutover_check=cutover_check)
    drive_to_phase(stack, clock, phase)
    return stack


# -- count guards --------------------------------------------------------------

def test_cutover_check_decodes_each_target_document_once():
    """Containment asks ``contains``, no-extras asks ``keys``; only value
    equality reads documents, and only in the partitions whose source
    and master digests differ: a clean gate decodes none.  The
    coordinator's own gate encodes each source row once to fill the
    source digest, and a gate built after it shares that digest, so it
    encodes nothing.  A second evaluation by the same constraints reads
    what moved since the first: here a deleted key (``contains``) and a
    ghost key (``contains`` on both sides) — no document at all.  A
    fresh gate then decodes each document the source also holds in
    those two keys' partitions, once, and encodes nothing."""
    profiles, inmails = 37, 11
    stack = migrated_stack(profiles, inmails, MigrationPhase.RAMP)
    with codec_calls() as calls:
        drive_to_phase(stack, stack.coordinator.clock,
                       MigrationPhase.CUTOVER)
    assert calls.count("encode_record") == profiles + inmails
    check = cutover_check(stack.proxy)
    with codec_calls() as calls:
        assert check() == []
    assert calls.count(*DECODES) == 0
    assert calls.count("encode_record") == 0
    stack.target.delete_row("profiles", (5,))
    stack.target.put_row("profiles", {"member_id": 999, "name": "ghost",
                                      "score": 0})
    with codec_calls() as calls:
        kinds = sorted(v.constraint for v in check())
    assert kinds == ["cutover-containment-profiles",
                     "cutover-no-extras-profiles"]
    assert calls.count(*DECODES) == 0
    partitions = {stack.target.partition_of("profiles", (5,)),
                  stack.target.partition_of("profiles", (999,))}
    compared = [key for key in stack.source.table("profiles").keys()
                if stack.target.partition_of("profiles", key) in partitions
                and stack.target.contains("profiles", key)]
    with codec_calls() as calls:
        kinds = sorted(v.constraint for v in cutover_check(stack.proxy)())
    assert kinds == ["cutover-containment-profiles",
                     "cutover-no-extras-profiles"]
    assert calls.count(*DECODES) == len(compared) < profiles
    assert calls.count("encode_record") == 0


def test_contains_and_keys_read_no_document():
    stack = migrated_stack(20, 0)
    with codec_calls() as calls:
        assert stack.target.contains("profiles", (3,))
        assert not stack.target.contains("profiles", (3000,))
        assert sorted(stack.target.keys("profiles")) == \
            [(i,) for i in range(20)]
    assert calls == []
    with codec_calls() as calls:
        assert len(stack.target.dump("profiles")) == 20
    assert calls.count(*DECODES) == 20


def test_dump_and_keys_scan_each_node_once(monkeypatch):
    """One table scan per master node and one routing hash per stored
    row — not one scan of a node's whole table per partition."""
    stack = migrated_stack(40, 0)
    stack.cluster.pump_replication()    # every row now sits on two nodes
    database = stack.cluster.database
    scans, hashed = [], []
    for name, node in stack.cluster.nodes.items():
        table = node.local.table("profiles")
        monkeypatch.setattr(
            table, "scan",
            lambda *args, _scan=table.scan, _name=name:
                scans.append(_name) or _scan(*args))
    monkeypatch.setattr(
        type(database), "partition_for",
        lambda self, resource_id, _real=type(database).partition_for:
            hashed.append(resource_id) or _real(self, resource_id))
    masters = {stack.cluster.master_node(p).instance_name
               for p in range(database.num_partitions)}
    stored = sum(len(list(node.local.table("profiles").scan()))
                 for node in stack.cluster.nodes.values())
    for walk in (stack.target.keys, stack.target.dump):
        del scans[:], hashed[:]
        assert len(walk("profiles")) == 40
        assert sorted(scans) == sorted(masters)
        # every replica of every row is hashed once (dump's reads route
        # by key too, through the node it already holds: no extra hash)
        assert len(hashed) == stored == 2 * 40


def test_verification_needs_every_partition_mastered():
    stack = migrated_stack(8, 0)
    for name in NODES:
        stack.cluster.crash_node(name)
    stack.cluster.failover()
    for walk in (stack.target.keys, stack.target.dump):
        with pytest.raises(ConfigurationError, match="has no master"):
            walk("profiles")


# -- equivalence ----------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contains_and_keys_agree_with_the_decoding_reads(seed):
    """After every step of a seeded put / delete / backfill / failover
    walk: ``contains`` is ``get_document is not None`` and ``keys`` is
    the key set of ``dump``."""
    rng = random.Random(seed)
    clock = SimClock()
    source = make_source(clock, profiles=0, inmails=0)
    disk = SimDisk(clock=clock, seed=seed)
    cluster = EspressoCluster(espresso_schema_for(source), num_nodes=3,
                              clock=clock, disk=disk)
    cluster.start()
    target = EspressoTarget(cluster, RowTransform(source))
    probes = [(member,) for member in range(48)]
    live: set[tuple] = set()

    def agree() -> None:
        for key in probes:
            held = target.get_document("profiles", key) is not None
            assert target.contains("profiles", key) == held == (key in live)
        keys = target.keys("profiles")
        assert len(keys) == len(set(keys))
        assert set(keys) == set(target.dump("profiles")) == live

    agree()
    for step in range(60):
        move = rng.random()
        if move < 0.40:
            member = rng.randrange(40)
            target.put_row("profiles", {"member_id": member,
                                        "name": f"s{step}", "score": step})
            live.add((member,))
        elif move < 0.60:
            member = rng.randrange(40)
            target.delete_row("profiles", (member,))
            live.discard((member,))
        elif move < 0.80:
            chunk = [{"member_id": member, "name": f"b{step}", "score": step}
                     for member in rng.sample(range(40), 6)]
            target.bulk_apply_rows("profiles", chunk)
            live.update((row["member_id"],) for row in chunk)
        else:
            victim = rng.choice(NODES)
            cluster.pump_replication()      # the survivor has every window
            cluster.crash_node(victim)
            cluster.failover()
            agree()                         # served by the promoted slaves
            cluster.recover_node(victim)
            cluster.failover()
        cluster.pump_replication()
        agree()
    assert live                              # the walk did something
