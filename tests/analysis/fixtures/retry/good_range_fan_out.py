# rule: retry-without-backoff
# A fan-out over an index: the try body reads it, so each pass sends a
# different request, and a shed one is counted, not re-sent.
from repro.common.errors import OverloadError


def publish_all(producer, shed):
    for i in range(6):
        try:
            producer.send("topic", {"i": i})
        except OverloadError:
            shed.append(i)
