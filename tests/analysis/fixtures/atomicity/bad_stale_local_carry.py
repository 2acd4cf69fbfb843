# rule: atomicity-violation
# A local built from a stale local after the yield is stale too.  The
# carry-over below reads the attribute through the snapshot's length
# into a second local, and that local, not the snapshot, is what is
# written back: a peer that rewrote the attribute during the fsync has
# its change dropped or a delivered entry resurrected.


class HintHolder:
    def __init__(self, wal):
        self.wal = wal
        self.hints = []

    def store(self, hint):
        self.hints.append(hint)

    def deliver(self, destination):
        remaining = []
        snapshot = list(self.hints)
        for hint in snapshot:
            if hint != destination:
                remaining.append(hint)
        self.wal.fsync()
        remaining.extend(self.hints[len(snapshot):])
        self.hints = remaining  # BAD

    def deliver_rebuilt(self, destination):
        snapshot = list(self.hints)
        self.wal.fsync()
        tail = self.hints[len(snapshot):]
        kept = [hint for hint in snapshot if hint != destination] + tail
        self.hints = kept  # BAD
