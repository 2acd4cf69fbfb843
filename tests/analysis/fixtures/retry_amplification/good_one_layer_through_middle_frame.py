# rule: retry-amplification
# The same frames with one retry budget: the outer loop is a fan-out
# over nodes, not a re-attempt, so only fetch_one() re-sends.
from repro.common.errors import NodeUnavailableError
from repro.common.resilience import call_with_retries


def fetch_one(clock, node):
    return call_with_retries(lambda: node.read(), clock=clock)


def middle(clock, node):
    return fetch_one(clock, node)


def fetch_all(clock, nodes, failures):
    out = []
    for node in nodes:
        try:
            out.append(middle(clock, node))
        except NodeUnavailableError:
            failures.append(node)
    return out
