# rule: atomicity-violation
# A snapshot's length used to slice or index the attribute after the
# yield is the stale local, not a re-read: the carry-over assumes the
# attribute still starts with the snapshot, which a peer running during
# the fsync may have rewritten.  Only a re-read that does not lean on
# the stale local revalidates it.


class HintHolder:
    def __init__(self, wal):
        self.wal = wal
        self.hints = []
        self.last_seq = None

    def store(self, hint):
        self.hints.append(hint)

    def deliver(self, destination):
        snapshot = list(self.hints)
        kept = [hint for hint in snapshot if hint != destination]
        self.wal.fsync()
        self.hints = kept + self.hints[len(snapshot):]  # BAD

    def note_last(self):
        snapshot = list(self.hints)
        self.wal.fsync()
        self.last_seq = self.hints[len(snapshot) - 1].seq  # BAD
