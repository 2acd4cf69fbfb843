"""Seeded overload chaos: a traffic spike, a limping replica, a
flapping node, lossy links, and an asymmetric partition, all scheduled
by one :class:`FaultPlan` against a Voldemort serving path protected by
admission control and hedged reads.

The headline assertion is determinism: two runs of the same seeded
scenario produce byte-identical network traces and identical outcome
counts — the overload machinery (token buckets, CoDel-free bounded
queues, hedge delays) introduces no hidden nondeterminism.  The smoke
variant runs scaled down inside tier-1; the full scenario is
``chaos``-marked.
"""

import hashlib

import pytest

from repro.common.errors import (
    InsufficientOperationalNodesError,
    ServerOverloadedError,
)
from repro.common.overload import AdmissionController, HedgedCall
from repro.simnet import FaultPlan, SimDisk, SimNetwork, fixed_latency
from repro.voldemort import RoutedStore, StoreDefinition, Versioned, VoldemortCluster
from repro.voldemort import routing
from repro.voldemort.failure_detector import FailureDetector

TICK = 0.05


def run_overload_scenario(seed, horizon=4.0, base_rate=100.0,
                          spike_rate=800.0):
    """One seeded chaos run; returns (trace_bytes, plan_lines, stats)."""
    network = SimNetwork(seed=seed, latency_model=fixed_latency(0.0005))
    clock = network.clock
    cluster = VoldemortCluster(num_nodes=5, partitions_per_node=4,
                               network=network, seed=seed)
    cluster.define_store(StoreDefinition(
        "chaos", replication_factor=3, required_reads=1, required_writes=1))
    names = [cluster.node_name(i) for i in range(5)]
    admission = AdmissionController(clock, rate=400.0, burst=40.0)
    hedge = HedgedCall(min_delay=0.001, fallback_delay=0.01, warmup=10)
    routed = RoutedStore(cluster, "chaos", admission=admission, hedge=hedge)
    keys = [b"chaos-%03d" % i for i in range(30)]
    for key in keys:
        routed.put(key, Versioned.initial(b"v", 0))
    # bounded server queues go in after seeding, so the scenario starts
    # from a fully replicated store behind empty queues
    for name in names:
        network.add_server_queue(name, service_time=0.002, capacity=20)

    network.start_trace()
    plan = FaultPlan(SimDisk(clock=clock, seed=seed), network=network)
    rate = {"value": base_rate}
    plan.spike(at=0.25 * horizon, duration=0.375 * horizon, label="storm",
               start=lambda: rate.update(value=spike_rate),
               stop=lambda: rate.update(value=base_rate))
    plan.limp(at=0.125 * horizon, node=names[0], factor=10.0)
    plan.heal_limp(at=0.7 * horizon, node=names[0])
    plan.flap(at=0.3 * horizon, node=names[1], period=0.1 * horizon,
              cycles=3)
    plan.set_link(at=0.2 * horizon, src="client", dst=names[2],
                  loss_rate=0.3)
    plan.clear_link(at=0.75 * horizon, src="client", dst=names[2])
    plan.block(at=0.4 * horizon, src_group=["client"], dst_group=[names[3]])
    plan.heal_blocks(at=0.65 * horizon)

    stats = {"ok": 0, "shed": 0, "failed": 0, "value_mismatch": 0}
    request = {"count": 0}

    def tick():
        burst = max(1, int(rate["value"] * TICK))
        for _ in range(burst):
            key = keys[request["count"] % len(keys)]
            request["count"] += 1
            try:
                frontier, _ = routed.get(key)
                stats["ok"] += 1
                if frontier[0].value != b"v":
                    stats["value_mismatch"] += 1
            except ServerOverloadedError:
                stats["shed"] += 1
            except InsufficientOperationalNodesError:
                stats["failed"] += 1

    t = 0.05 * horizon
    while t < 0.95 * horizon:
        clock.call_at(t, tick)
        t += TICK
    plan.run(until=horizon)
    return network.trace_bytes(), plan.trace_lines(), stats


def assert_scenario_invariants(stats):
    assert stats["value_mismatch"] == 0       # degraded, never wrong
    assert stats["ok"] > 0                    # the site stayed up
    assert stats["shed"] > 0                  # admission actually engaged
    # graceful degradation: sheds and failures never dominate service
    assert stats["ok"] > stats["shed"] + stats["failed"]


def test_overload_smoke_scenario():
    """Tier-1 smoke: the full gray-failure repertoire, scaled down."""
    trace_a, plan_a, stats_a = run_overload_scenario(
        seed=13, horizon=2.0, base_rate=60.0, spike_rate=700.0)
    trace_b, plan_b, stats_b = run_overload_scenario(
        seed=13, horizon=2.0, base_rate=60.0, spike_rate=700.0)
    assert trace_a == trace_b                 # byte-identical replay
    assert plan_a == plan_b
    assert stats_a == stats_b
    assert_scenario_invariants(stats_a)
    # the fault schedule itself is part of the replayable record
    fired = {line.split(", ")[1] for line in plan_a}
    assert "'limp'" in fired and "'net_crash'" in fired \
        and "'block'" in fired and "'set_link'" in fired


def test_overload_trace_is_pinned():
    """The network trace and the fault schedule of one full-length run,
    against a fixed digest: same-seed comparisons within one commit
    cannot see a rewrite that changes both runs alike.

    Retaken once, when the cluster stopped building a private clock
    beside its network's: the failure detector's probes now run, so a
    node marked down is pinged back up and routed to again, and the
    trace moved with it (outcome counts at this seed are unchanged:
    841 ok, 601 shed, 8 failed)."""
    trace, plan_lines, _ = run_overload_scenario(5)
    digest = hashlib.sha256(trace + "\n".join(plan_lines).encode())
    assert digest.hexdigest() == (
        "12ab64743d98edaab4b929b274ba619b4552710693e6432646b3cceb14fb1ab0")


def test_failure_detector_recovers_every_node_it_marks_down(monkeypatch):
    """§II.B: a node marked down "is considered online only when an
    asynchronous thread is able to contact it again".  That thread is a
    probe on the cluster's clock, so it only runs if the cluster shares
    the clock the scenario advances."""
    detectors = []

    class RecordedDetector(FailureDetector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            detectors.append(self)

    monkeypatch.setattr(routing, "FailureDetector", RecordedDetector)
    run_overload_scenario(seed=13, horizon=2.0, base_rate=60.0,
                          spike_rate=700.0)
    [detector] = detectors
    assert detector.nodes_marked_down > 0
    assert detector.nodes_recovered == detector.nodes_marked_down
    assert all(detector.is_available(node) for node in range(5))


@pytest.mark.chaos
def test_overload_chaos_full_scenario():
    """The full-length scenario: same-seed byte-identical, different
    seed divergent, and the protected stack degrades gracefully."""
    trace_a, plan_a, stats_a = run_overload_scenario(seed=29)
    trace_b, plan_b, stats_b = run_overload_scenario(seed=29)
    assert trace_a == trace_b
    assert plan_a == plan_b
    assert stats_a == stats_b
    assert_scenario_invariants(stats_a)
    trace_other, _, _ = run_overload_scenario(seed=30)
    assert trace_other != trace_a             # the seed drives the run
