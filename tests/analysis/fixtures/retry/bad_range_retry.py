# rule: retry-without-backoff
# Re-sending one request: the try bodies never read the loop index
# (or read it only under a retry-shaped name), so each pass is another
# attempt at the same call, and nothing paces them.
from repro.common.errors import NodeUnavailableError, OverloadError


def publish(producer, message, shed):
    for i in range(6):  # BAD
        try:
            producer.send("topic", message)
        except OverloadError:
            shed.append(i)


def fetch(net, fn, misses):
    for attempt in range(3):  # BAD
        try:
            return net.invoke("c", "s", fn, attempt=attempt)
        except NodeUnavailableError:
            misses.append(attempt)
