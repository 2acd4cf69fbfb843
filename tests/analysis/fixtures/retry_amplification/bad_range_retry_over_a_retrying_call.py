# rule: retry-amplification
# The range loop re-sends the same request (its try body never reads
# the index) around a call that retries itself: budgets multiply.
from repro.common.errors import OverloadError
from repro.common.resilience import call_with_retries


def send_one(clock, producer, message):
    return call_with_retries(lambda: producer.send(message), clock=clock)


def send_until_taken(clock, producer, message, policy, rng):
    for n in range(3):
        try:
            return send_one(clock, producer, message)  # BAD
        except OverloadError:
            clock.sleep(policy.backoff(n + 1, rng))
