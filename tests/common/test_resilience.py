"""The shared resilience layer: retries, deadlines, circuit breakers."""

import random

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    NodeUnavailableError,
    TransientNetworkError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    call_with_retries,
)


# -- RetryPolicy ------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(base_delay=1.0, max_delay=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=1.5)


def test_backoff_grows_exponentially_without_jitter():
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                         max_delay=10.0, jitter=0.0)
    rng = random.Random(0)
    delays = list(policy.delays(rng))
    assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])


def test_backoff_capped_at_max_delay():
    policy = RetryPolicy(max_attempts=10, base_delay=0.1, multiplier=4.0,
                         max_delay=0.5, jitter=0.0)
    rng = random.Random(0)
    assert max(policy.delays(rng)) == pytest.approx(0.5)


def test_jitter_deterministic_under_fixed_seed():
    policy = RetryPolicy(max_attempts=6, base_delay=0.05, jitter=0.5)
    schedule_a = list(policy.delays(random.Random(42)))
    schedule_b = list(policy.delays(random.Random(42)))
    schedule_c = list(policy.delays(random.Random(43)))
    assert schedule_a == schedule_b
    assert schedule_a != schedule_c


def test_jitter_stays_within_proportional_band():
    policy = RetryPolicy(max_attempts=50, base_delay=0.1, multiplier=1.0,
                         max_delay=0.1, jitter=0.3)
    rng = random.Random(7)
    for delay in policy.delays(rng):
        assert 0.1 * 0.7 <= delay <= 0.1


def test_backoff_retry_number_is_one_based():
    policy = RetryPolicy()
    with pytest.raises(ValueError):
        policy.backoff(0, random.Random(0))


# -- Deadline ------------------------------------------------------------------

def test_deadline_budget_must_be_positive():
    with pytest.raises(ConfigurationError):
        Deadline(SimClock(), 0.0)


def test_deadline_shrinks_with_time():
    clock = SimClock()
    deadline = Deadline.after(clock, 1.0)
    assert deadline.remaining() == pytest.approx(1.0)
    clock.advance(0.4)
    assert deadline.remaining() == pytest.approx(0.6)
    assert not deadline.expired
    clock.advance(0.6)
    assert deadline.expired
    assert deadline.remaining() == 0.0


def test_deadline_check_raises_when_expired():
    clock = SimClock()
    deadline = Deadline.after(clock, 0.5)
    deadline.check("read")  # fine
    clock.advance(1.0)
    with pytest.raises(DeadlineExceededError):
        deadline.check("read")


def test_deadline_clamps_hop_timeouts():
    clock = SimClock()
    deadline = Deadline.after(clock, 1.0)
    assert deadline.clamp(5.0) == pytest.approx(1.0)
    assert deadline.clamp(0.2) == pytest.approx(0.2)
    clock.advance(0.9)
    assert deadline.clamp(0.2) == pytest.approx(0.1)


# -- CircuitBreaker --------------------------------------------------------------

def test_breaker_validation():
    clock = SimClock()
    with pytest.raises(ConfigurationError):
        CircuitBreaker(clock, failure_threshold=0.0)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(clock, window=0)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(clock, minimum_samples=20, window=10)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(clock, reset_timeout=0.0)


def test_breaker_full_lifecycle():
    clock = SimClock()
    metrics = MetricsRegistry()
    breaker = CircuitBreaker(clock, name="db", failure_threshold=0.5,
                             window=8, minimum_samples=4, reset_timeout=2.0,
                             metrics=metrics)
    assert breaker.state == "closed"
    for _ in range(4):
        breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()  # rejected without touching the target
    clock.advance(2.0)
    assert breaker.state == "half-open"
    assert breaker.allow()  # the probe is admitted
    breaker.record_success()
    assert breaker.state == "closed"

    assert metrics.counter("db.breaker.opened").value == 1
    assert metrics.counter("db.breaker.half_open").value == 1
    assert metrics.counter("db.breaker.closed").value == 1
    assert metrics.counter("db.breaker.rejected").value == 1


def test_breaker_failed_probe_reopens():
    clock = SimClock()
    breaker = CircuitBreaker(clock, minimum_samples=2, reset_timeout=1.0)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(1.0)
    assert breaker.state == "half-open"
    breaker.record_failure()
    assert breaker.state == "open"
    # and the reset timer restarted from the failed probe
    clock.advance(0.5)
    assert breaker.state == "open"
    clock.advance(0.5)
    assert breaker.state == "half-open"


def test_breaker_requires_minimum_samples():
    breaker = CircuitBreaker(SimClock(), minimum_samples=4)
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == "closed"


def test_breaker_reset_force_closes():
    clock = SimClock()
    breaker = CircuitBreaker(clock, minimum_samples=2)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    breaker.reset()
    assert breaker.state == "closed"
    assert breaker.success_ratio() == 1.0


# -- call_with_retries -----------------------------------------------------------

def _flaky(failures: int, exc=TransientNetworkError):
    """A callable that fails ``failures`` times then succeeds."""
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise exc(f"injected failure {state['calls']}")
        return state["calls"]

    fn.state = state
    return fn


def test_retries_until_success_and_counts_metrics():
    clock = SimClock()
    metrics = MetricsRegistry()
    fn = _flaky(2)
    result = call_with_retries(fn, clock=clock,
                               policy=RetryPolicy(max_attempts=5),
                               rng=random.Random(0), metrics=metrics,
                               name="op")
    assert result == 3
    assert metrics.counter("op.attempts").value == 3
    assert metrics.counter("op.retries").value == 2
    assert "op.exhausted" not in metrics.counters
    assert clock.now() > 0.0  # backoff actually slept on the clock


def test_exhausted_retries_reraise_last_error():
    metrics = MetricsRegistry()
    fn = _flaky(10)
    with pytest.raises(TransientNetworkError):
        call_with_retries(fn, clock=SimClock(),
                          policy=RetryPolicy(max_attempts=3),
                          metrics=metrics, name="op")
    assert fn.state["calls"] == 3
    assert metrics.counter("op.exhausted").value == 1


def test_non_retryable_errors_propagate_immediately():
    fn = _flaky(10, exc=ValueError)
    with pytest.raises(ValueError):
        call_with_retries(fn, clock=SimClock(),
                          policy=RetryPolicy(max_attempts=5))
    assert fn.state["calls"] == 1


def test_deadline_stops_retry_loop():
    clock = SimClock()
    metrics = MetricsRegistry()
    deadline = Deadline.after(clock, 0.05)
    fn = _flaky(100)
    with pytest.raises(DeadlineExceededError):
        call_with_retries(
            fn, clock=clock,
            policy=RetryPolicy(max_attempts=100, base_delay=0.02, jitter=0.0),
            deadline=deadline, metrics=metrics, name="op")
    assert fn.state["calls"] < 100  # the budget, not the attempt cap, stopped us
    assert metrics.counter("op.deadline_exceeded").value == 1


def test_open_breaker_rejects_first_attempt():
    clock = SimClock()
    breaker = CircuitBreaker(clock, minimum_samples=2)
    breaker.record_failure()
    breaker.record_failure()
    with pytest.raises(CircuitOpenError):
        call_with_retries(lambda: 1, clock=clock, breaker=breaker)


def test_breaker_records_outcomes_through_engine():
    clock = SimClock()
    breaker = CircuitBreaker(clock, minimum_samples=2, reset_timeout=0.01)
    fn = _flaky(2, exc=NodeUnavailableError)
    # the two failures open the breaker; backoff sleeps past the reset
    # timeout, so the third (half-open) attempt is admitted and closes it
    result = call_with_retries(fn, clock=clock,
                               policy=RetryPolicy(max_attempts=5,
                                                  base_delay=0.02, jitter=0.0),
                               breaker=breaker)
    assert result == 3
    assert breaker.state == "closed"


def test_on_retry_hook_runs_between_attempts():
    seen = []
    fn = _flaky(2)
    call_with_retries(fn, clock=SimClock(),
                      policy=RetryPolicy(max_attempts=5),
                      on_retry=lambda n, exc: seen.append((n, type(exc))))
    assert seen == [(1, TransientNetworkError), (2, TransientNetworkError)]


def test_retry_schedule_reproducible_across_runs():
    def run():
        clock = SimClock()
        call_with_retries(_flaky(3), clock=clock,
                          policy=RetryPolicy(max_attempts=5, jitter=0.5),
                          rng=random.Random(99))
        return clock.now()
    assert run() == run()


def test_a_retried_call_without_an_rng_backs_off_as_random_0():
    """The generator is built at the first backoff, not per call, and
    draws what ``random.Random(0)`` draws, one backoff after another."""
    class RecordingClock(SimClock):
        def __init__(self):
            super().__init__()
            self.slept = []

        def sleep(self, seconds):
            self.slept.append(seconds)
            super().sleep(seconds)

    policy = RetryPolicy(max_attempts=5, jitter=0.5)
    clock = RecordingClock()
    assert call_with_retries(_flaky(4), clock=clock, policy=policy) == 5
    reference = random.Random(0)
    assert clock.slept == [policy.backoff(n, reference) for n in range(1, 5)]


def test_a_call_that_never_backs_off_builds_no_generator(monkeypatch):
    made = []

    class CountedRandom(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountedRandom)
    assert call_with_retries(lambda: 1, clock=SimClock()) == 1
    assert call_with_retries(_flaky(1), clock=SimClock(),
                             policy=RetryPolicy(max_attempts=2)) == 2
    assert made == [(0,)]       # only the retried call built one
