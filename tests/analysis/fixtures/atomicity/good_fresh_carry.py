# rule: atomicity-violation
# The good twin of bad_stale_local_carry: the loop target is one element
# of the snapshot, not a copy of it, so what the loop builds from it is
# not stale, and the write-back re-reads the attribute after the yield
# instead of carrying the snapshot's tail over by its length.


class HintHolder:
    def __init__(self, network, wal):
        self.network = network
        self.wal = wal
        self.hints = []

    def store(self, hint):
        self.hints.append(hint)

    def deliver(self, destination):
        snapshot = list(self.hints)
        delivered = []
        for hint in snapshot:
            self.network.invoke(destination, hint)
            if hint.destination == destination:
                delivered.append(hint)
        self.wal.fsync()
        self.hints = [hint for hint in self.hints if hint not in delivered]
