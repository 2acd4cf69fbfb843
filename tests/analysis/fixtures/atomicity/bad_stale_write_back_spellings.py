# rule: atomicity-violation
# A stale local written back is convicted however the write-back is
# spelled: the receiver of a mutator call is part of the write, not a
# revalidating re-read of the attribute.


class Log:
    def __init__(self, net):
        self.net = net
        self.entries = []

    def add(self, entry):
        self.entries.append(entry)

    def append_after_rpc(self):
        last = self.entries[-1]
        self.net.invoke("peer", last)
        self.entries.append(last + 1)  # BAD

    def store_after_rpc(self):
        last = self.entries[-1]
        self.net.invoke("peer", last)
        self.entries[-1] = last + 1  # BAD
