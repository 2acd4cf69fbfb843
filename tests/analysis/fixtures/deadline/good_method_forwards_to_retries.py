# rule: deadline-dropped
# The same helper with the budget forwarded: the retry loop stops
# when the request's deadline does.
from repro.common.resilience import call_with_retries


class Client:
    def __init__(self, clock, node):
        self.clock = clock
        self.node = node

    def _read_with_retries(self, key, deadline):
        return call_with_retries(lambda: self.node.read(key),
                                 clock=self.clock, deadline=deadline)

    def fetch(self, key, deadline=None):
        return self._read_with_retries(key, deadline)
