# rule: atomicity-violation
# A value *taken* out of shared state is owned by the local that holds
# it: pop() removed the batch from self._batches in one atomic step, so
# no event during the yield can change it, and counters bumped from it
# afterwards are not a stale write-back.


def call_with_retries(operation, clock):
    clock.sleep(0.01)
    return operation()


class Producer:
    def __init__(self, net, clock):
        self.net = net
        self.clock = clock
        self._batches = {}
        self.messages_sent = 0
        self.messages_acked = 0

    def send(self, topic, payload):
        self._batches.setdefault(topic, []).append(payload)
        self._publish(topic)

    def _publish(self, topic):
        batch = self._batches.pop(topic, [])
        if not batch:
            return
        call_with_retries(lambda: self.net.invoke("broker", batch),
                          clock=self.clock)
        self.messages_sent += len(batch)
        self.messages_acked += len(batch)
