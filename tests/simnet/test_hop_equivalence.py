"""A simulated hop against the hop it replaced.

:class:`SimNetwork` skips the work a hop has no use for: it builds a
trace record only while tracing is on, looks a link override up only
while one is set, and scales a hop by limp factors only while some node
limps.  :func:`lognormal_latency` draws the Kinderman–Monahan normal
inline instead of through ``Random.lognormvariate``.  None of that may
move a float: a seeded run must sample, and record, what it did before.

The references below are the replaced code, kept here:
``reference_lognormal_latency`` is the model as it was (a call to
``rng.lognormvariate``), and :class:`ReferenceNetwork` samples every hop
as the network did (the model's draw times both endpoints' limp
factors, always).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.common.clock import SimClock
from repro.simnet import SimNetwork, lognormal_latency
from repro.simnet.network import LatencyModel

#: (median, sigma) pairs: the benchmark's hop, the default sigma, a
#: narrow and a wide spread
LOGNORMAL_PARAMS = [(0.0009, 0.4), (0.0005, 0.5), (0.002, 0.05), (0.01, 1.5)]
DRAWS = 10_000     # per seed and pair: 120 000 in all


def reference_lognormal_latency(median: float,
                                sigma: float = 0.5) -> LatencyModel:
    """The model as it was: one ``lognormvariate`` call per hop."""
    mu = math.log(median)

    def model(rng: random.Random) -> float:
        return rng.lognormvariate(mu, sigma)
    return model


class ReferenceNetwork(SimNetwork):
    """The network as it was: every hop is scaled by both endpoints'
    limp factors, whether or not any node limps."""

    def _sample_hop(self, src, dst, model):
        sample = (model or self.latency_model)(self.rng)
        return sample * self.failures.slowdown(src) * \
            self.failures.slowdown(dst)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("median, sigma", LOGNORMAL_PARAMS)
def test_lognormal_latency_matches_lognormvariate_bit_for_bit(
        seed, median, sigma):
    inline, reference = lognormal_latency(median, sigma), \
        reference_lognormal_latency(median, sigma)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    draws = [inline(rng) for _ in range(DRAWS)]
    expected = [reference(reference_rng) for _ in range(DRAWS)]
    assert [x.hex() for x in draws] == [x.hex() for x in expected]
    # the same number of uniforms consumed: the stream continues alike
    assert rng.getstate() == reference_rng.getstate()


def _traffic(network: SimNetwork, seed: int) -> list:
    """A seeded script of invokes and sends among four nodes, through a
    limp, a link override with its own model and loss, and back to a
    healthy network; returns every outcome in order."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(4)]
    outcomes: list = []

    def burst(count: int) -> None:
        for _ in range(count):
            src, dst = rng.sample(nodes, 2)
            if rng.random() < 0.7:
                try:
                    outcomes.append(network.invoke(src, dst, lambda: dst))
                except Exception as exc:   # lost hops are outcomes too
                    outcomes.append((type(exc).__name__,
                                     exc.simulated_latency))
            else:
                outcomes.append(network.send(src, dst, lambda: None))
                network.clock.advance(0.01)

    burst(60)                               # healthy: the fast path
    network.failures.limp("n1", 3.0)
    burst(60)
    network.set_link("n0", "n2", reference_lognormal_latency(0.004, 0.3),
                     loss_rate=0.2)
    burst(60)
    network.failures.heal_limp("n1")
    burst(60)
    network.clear_link("n0", "n2")
    burst(60)                               # healthy again
    return outcomes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_limp_and_a_link_override_trace_byte_identically(seed):
    runs = []
    for network_cls, model in ((SimNetwork, lognormal_latency),
                               (ReferenceNetwork,
                                reference_lognormal_latency)):
        network = network_cls(clock=SimClock(), seed=seed,
                              latency_model=model(0.0009, 0.4))
        network.start_trace()
        outcomes = _traffic(network, seed)
        network.clock.advance(1.0)          # deliver what is in flight
        runs.append((outcomes, network.trace_bytes(), network.hops_delivered,
                     network.hops_failed))
    assert runs[0] == runs[1]
    trace = runs[0][1]
    assert b"'lost'" in trace and b"'deliver'" in trace


def test_an_untraced_hop_records_nothing(monkeypatch):
    """With tracing off, a delivered invoke or send builds no record."""
    network = SimNetwork(clock=SimClock())
    records = []
    monkeypatch.setattr(network, "_record",
                        lambda *args, **kwargs: records.append(args))
    network.invoke("a", "b", lambda: None)
    network.send("a", "b", lambda: None)
    network.clock.advance(1.0)
    assert network.hops_delivered == 2
    assert records == []
