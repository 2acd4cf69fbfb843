# rule: atomicity-violation
# One stale read, six spellings of the write that makes it stale.  Each
# class's reader binds self._batches.get(k), yields through an RPC and
# branches on the stale local; its write() mutates self._batches, each
# class spelling the write differently.  The verdict must not depend on
# the spelling: every reader is convicted on the same line.


class Store:
    def __init__(self, net):
        self.net = net
        self._batches = {}

    def write(self, k, v):
        self._batches[k] = [v]

    def read(self, k):
        batch = self._batches.get(k)
        self.net.invoke("peer", k)
        if batch:  # BAD
            return batch
        return None


class AugAssign:
    def __init__(self, net):
        self.net = net
        self._batches = {}

    def write(self, k, v):
        self._batches[k] += [v]

    def read(self, k):
        batch = self._batches.get(k)
        self.net.invoke("peer", k)
        if batch:  # BAD
            return batch
        return None


class StoreUnderSubscript:
    def __init__(self, net):
        self.net = net
        self._batches = {}

    def write(self, k, v):
        self._batches[k].n = v

    def read(self, k):
        batch = self._batches.get(k)
        self.net.invoke("peer", k)
        if batch:  # BAD
            return batch
        return None


class Delete:
    def __init__(self, net):
        self.net = net
        self._batches = {}

    def write(self, k, v):
        del self._batches[k]

    def read(self, k):
        batch = self._batches.get(k)
        self.net.invoke("peer", k)
        if batch:  # BAD
            return batch
        return None


class SetdefaultAppend:
    def __init__(self, net):
        self.net = net
        self._batches = {}

    def write(self, k, v):
        self._batches.setdefault(k, []).append(v)

    def read(self, k):
        batch = self._batches.get(k)
        self.net.invoke("peer", k)
        if batch:  # BAD
            return batch
        return None


class Update:
    def __init__(self, net):
        self.net = net
        self._batches = {}

    def write(self, k, v):
        self._batches.update({k: [v]})

    def read(self, k):
        batch = self._batches.get(k)
        self.net.invoke("peer", k)
        if batch:  # BAD
            return batch
        return None
