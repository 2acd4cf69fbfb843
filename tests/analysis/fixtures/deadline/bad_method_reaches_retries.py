# rule: deadline-dropped
# fetch() takes a deadline and never reads it, while the helper it
# calls retries the read: the retry loop runs on default budgets.
from repro.common.resilience import call_with_retries


class Client:
    def __init__(self, clock, node):
        self.clock = clock
        self.node = node

    def _read_with_retries(self, key):
        return call_with_retries(lambda: self.node.read(key),
                                 clock=self.clock)

    def fetch(self, key, deadline=None):  # BAD
        return self._read_with_retries(key)
