# rule: retry-amplification
# The retry loop's callee retries one frame further down: middle()
# holds no retrying context itself, but its effect summary inherits
# fetch_one()'s, so the budgets still multiply.
from repro.common.errors import NodeUnavailableError
from repro.common.resilience import call_with_retries


def fetch_one(clock, node):
    return call_with_retries(lambda: node.read(), clock=clock)


def middle(clock, node):
    return fetch_one(clock, node)


def fetch_all(clock, nodes, policy, rng):
    for attempt in range(3):
        try:
            return [middle(clock, node) for node in nodes]  # BAD
        except NodeUnavailableError:
            clock.sleep(policy.backoff(attempt + 1, rng))
