"""Gray failures and server capacity in SimNetwork: bounded queues,
limping nodes, per-link overrides, asymmetric partitions, and the
trace accounting that makes overload chaos runs byte-comparable."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    NodeUnavailableError,
    RequestTimeoutError,
    ServerOverloadedError,
    TransientNetworkError,
)
from repro.common.overload import PRIORITY_LIVE, AdmissionController
from repro.simnet import SimNetwork, fixed_latency
from repro.simnet.network import ServerQueue


def ping():
    return "pong"


# -- ServerQueue ----------------------------------------------------------


def test_server_queue_books_service_time_in_sequence():
    network = SimNetwork()
    queue = ServerQueue(network.clock, service_time=0.01, capacity=4)
    assert queue.admit(0.01) == 0.0          # idle server: no wait
    assert queue.admit(0.01) == pytest.approx(0.01)   # behind one
    assert queue.admit(0.01) == pytest.approx(0.02)   # behind two
    assert queue.depth() == 3


def test_server_queue_drains_as_the_clock_advances():
    network = SimNetwork()
    queue = ServerQueue(network.clock, service_time=0.01, capacity=4)
    for _ in range(3):
        queue.admit(0.01)
    network.clock.advance(0.02)
    assert queue.depth() == 1
    assert queue.admit(0.01) == pytest.approx(0.01)


def test_server_queue_fast_rejects_beyond_capacity():
    network = SimNetwork()
    queue = ServerQueue(network.clock, service_time=0.01, capacity=2)
    assert queue.admit(0.01) is not None
    assert queue.admit(0.01) is not None
    assert queue.admit(0.01) is None     # full: no capacity consumed
    assert queue.rejected == 1
    before = queue.busy_until
    queue.admit(0.01)
    assert queue.busy_until == before    # the rejection booked nothing


def test_server_queue_validation():
    clock = SimNetwork().clock
    with pytest.raises(ConfigurationError):
        ServerQueue(clock, service_time=0.0, capacity=1)
    with pytest.raises(ConfigurationError):
        ServerQueue(clock, service_time=0.01, capacity=0)


# -- invoke through a server queue ---------------------------------------


def test_invoke_adds_queueing_delay_and_service_time():
    network = SimNetwork(latency_model=fixed_latency(0.001))
    network.add_server_queue("srv", service_time=0.01, capacity=10)
    _, first = network.invoke("cli", "srv", ping)
    assert first == pytest.approx(0.002 + 0.01)          # rtt + service
    _, second = network.invoke("cli", "srv", ping)
    assert second == pytest.approx(0.002 + 0.01 + 0.01)  # + queue wait


def test_invoke_sheds_when_queue_full_with_retry_after():
    network = SimNetwork(latency_model=fixed_latency(0.001))
    network.add_server_queue("srv", service_time=0.01, capacity=2)
    network.invoke("cli", "srv", ping)
    network.invoke("cli", "srv", ping)
    with pytest.raises(ServerOverloadedError) as exc_info:
        network.invoke("cli", "srv", ping)
    assert exc_info.value.retry_after == pytest.approx(0.02)
    assert exc_info.value.simulated_latency == pytest.approx(0.002)
    assert network.requests_shed == 1
    # rejection was free: the backlog drains and service resumes
    network.clock.advance(0.02)
    network.invoke("cli", "srv", ping)


def test_admitted_but_timed_out_request_still_occupies_server():
    # the metastability mechanic: the client gave up; the server can't
    # know, so the booked service time is wasted capacity
    network = SimNetwork(latency_model=fixed_latency(0.001))
    queue = network.add_server_queue("srv", service_time=0.05, capacity=10)
    with pytest.raises(RequestTimeoutError):
        network.invoke("cli", "srv", ping, timeout=0.01)
    assert queue.accepted == 1
    assert queue.depth() == 1


# -- limping nodes --------------------------------------------------------


def test_limp_inflates_hops_and_service_time():
    network = SimNetwork(latency_model=fixed_latency(0.001))
    network.add_server_queue("srv", service_time=0.01, capacity=10)
    _, healthy = network.invoke("cli", "srv", ping)
    network.clock.advance(0.1)   # drain the healthy booking
    network.failures.limp("srv", 10.0)
    _, limping = network.invoke("cli", "srv", ping)
    assert limping == pytest.approx(0.02 + 0.1)   # both hops and service x10
    network.failures.heal_limp("srv")
    network.clock.advance(1.0)   # let the inflated booking drain
    _, healed = network.invoke("cli", "srv", ping)
    assert healed == pytest.approx(healthy)


def test_limp_factor_below_one_rejected():
    network = SimNetwork()
    with pytest.raises(ConfigurationError):
        network.failures.limp("srv", 0.5)


# -- per-link overrides ---------------------------------------------------


def test_set_link_overrides_latency_one_direction_only():
    network = SimNetwork(latency_model=fixed_latency(0.001))
    network.set_link("a", "b", latency_model=fixed_latency(0.05))
    _, slow = network.invoke("a", "b", ping)
    _, fast = network.invoke("b", "a", ping)
    assert slow == pytest.approx(0.1)
    assert fast == pytest.approx(0.002)
    network.clear_link("a", "b")
    _, restored = network.invoke("a", "b", ping)
    assert restored == pytest.approx(0.002)


def test_set_link_loss_drops_invokes_and_sends():
    network = SimNetwork(latency_model=fixed_latency(0.001))
    network.set_link("a", "b", loss_rate=1.0)
    with pytest.raises(TransientNetworkError):
        network.invoke("a", "b", ping)
    assert not network.send("a", "b", lambda: None)
    # the reverse direction is untouched
    network.invoke("b", "a", ping)
    assert network.send("b", "a", lambda: None)


def test_set_link_loss_rate_validation():
    with pytest.raises(ConfigurationError):
        SimNetwork().set_link("a", "b", loss_rate=1.5)


# -- asymmetric and additive partitions -----------------------------------


def test_one_way_block_drops_only_src_to_dst():
    network = SimNetwork()
    network.failures.block({"a"}, {"b"})
    with pytest.raises(NodeUnavailableError):
        network.invoke("a", "b", ping)
    network.invoke("b", "a", ping)   # replies still flow
    network.failures.heal_blocks()
    network.invoke("a", "b", ping)


def test_blocks_are_additive():
    network = SimNetwork()
    network.failures.block({"a"}, {"b"})
    network.failures.block({"c"}, {"b"})
    with pytest.raises(NodeUnavailableError):
        network.invoke("a", "b", ping)
    with pytest.raises(NodeUnavailableError):
        network.invoke("c", "b", ping)
    network.invoke("a", "c", ping)


def test_add_partition_is_additive_where_partition_replaces():
    network = SimNetwork()
    network.failures.partition({"a", "b"})
    network.failures.add_partition({"c", "d"})
    network.invoke("a", "b", ping)
    network.invoke("c", "d", ping)
    with pytest.raises(NodeUnavailableError):
        network.invoke("a", "c", ping)
    # replace-semantics partition() would have dropped the a|b group
    network.failures.partition({"a", "c"})
    network.invoke("a", "c", ping)
    with pytest.raises(NodeUnavailableError):
        network.invoke("a", "b", ping)


# -- trace accounting -----------------------------------------------------


def test_trace_records_faults_queueing_and_sheds():
    network = SimNetwork(latency_model=fixed_latency(0.001))
    network.add_server_queue("srv", service_time=0.01, capacity=5)
    network.start_trace()
    network.failures.limp("srv", 2.0)
    network.set_link("cli", "srv", loss_rate=0.0)
    for _ in range(4):
        try:
            network.invoke("cli", "srv", ping)
        except ServerOverloadedError:
            pass
    kinds = [(event[0], event[4]) for event in network.trace]
    assert ("fault", "applied") in kinds            # limp + set_link
    assert ("queue", "wait") in kinds               # queueing delay
    assert ("invoke", "shed") in kinds              # the fast rejection
    assert ("invoke", "ok") in kinds


def run_traced_scenario(seed):
    network = SimNetwork(seed=seed, latency_model=fixed_latency(0.001))
    network.add_server_queue("srv", service_time=0.005, capacity=3)
    network.start_trace()
    network.failures.limp("srv", 4.0)
    network.set_link("cli", "srv", loss_rate=0.3)
    for _ in range(20):
        try:
            network.invoke("cli", "srv", ping, timeout=0.05)
        except (TransientNetworkError, ServerOverloadedError,
                RequestTimeoutError):
            pass
        network.clock.advance(0.002)
    network.failures.heal_limp("srv")
    network.clear_link("cli", "srv")
    return network.trace_bytes()


def test_same_seed_gray_failure_traces_are_byte_identical():
    assert run_traced_scenario(7) == run_traced_scenario(7)
    assert run_traced_scenario(7) != run_traced_scenario(8)


def test_queue_depth_is_the_load_signal():
    network = SimNetwork(latency_model=fixed_latency(0.0001))
    network.add_server_queue("busy", service_time=0.01, capacity=100)
    assert network.queue_depth("queueless") == 0
    for _ in range(5):
        network.invoke("cli", "busy", ping)
    assert network.queue_depth("busy") == 5


# -- EXP-O1: a 5x spike against a 1 000 ops/s server ----------------------

def goodput_through_a_spike(protected: bool) -> dict[str, float]:
    """ok/s by phase for an open-loop client: 600 ops/s, 3 000 from t=10 to
    t=25, 50 ms timeout.  Unprotected: unbounded queue, 4 tries at once.
    Protected: 40-deep queue, token-bucket admission, no retries."""
    network = SimNetwork(seed=11, latency_model=fixed_latency(0.0002))
    clock = network.clock
    network.add_server_queue("server", 0.001,
                             capacity=40 if protected else 10_000_000)
    admission = AdmissionController(clock, rate=950.0, burst=60)
    ok = {"before": 0, "during": 0, "after": 0}

    def phase():
        now = clock.now()
        return "before" if now < 10.0 else "during" if now < 25.0 else "after"

    while clock.now() < 40.0:
        clock.advance(1 / 3000 if phase() == "during" else 1 / 600)
        arrived = phase()
        if protected and not admission.try_admit(PRIORITY_LIVE):
            continue
        for _ in range(1 if protected else 4):
            try:
                network.invoke("client", "server", ping, timeout=0.05)
            except (NodeUnavailableError, ServerOverloadedError):
                continue
            ok[arrived] += 1
            break
    return {"before": ok["before"] / 10, "during": ok["during"] / 15,
            "after": ok["after"] / 15}


def test_exp_o1_metastable_collapse_is_reproduced_and_prevented():
    unprotected = goodput_through_a_spike(protected=False)
    assert unprotected["before"] == pytest.approx(600, abs=1)
    # 0.5% of capacity during the spike and nothing after it ends:
    # admitted-but-doomed work keeps the queue full
    assert (round(unprotected["during"], 1), unprotected["after"]) == (4.9, 0)
    protected = goodput_through_a_spike(protected=True)
    assert round(protected["during"]) == 953      # 95% of capacity
    assert round(protected["after"]) == 600       # 100% of baseline
