# rule: retry-amplification
# The same call in a fan-out: the try body reads the index, so each
# pass sends a different message and only send_one() re-sends.
from repro.common.errors import OverloadError
from repro.common.resilience import call_with_retries


def send_one(clock, producer, message):
    return call_with_retries(lambda: producer.send(message), clock=clock)


def send_all(clock, producer, messages, shed):
    for n in range(len(messages)):
        try:
            send_one(clock, producer, messages[n])
        except OverloadError:
            shed.append(n)
