# rule: atomicity-violation
# The good twin of bad_stale_length_slice: after the yield a branch test
# compares the fresh attribute with the snapshot and retries on a
# change, so the write that follows acts on state it has just checked.
# Indexing the re-read by the snapshot's length inside the test is part
# of the comparison, not a stale use.


class HintHolder:
    def __init__(self, wal):
        self.wal = wal
        self.hints = []

    def store(self, hint):
        self.hints.append(hint)

    def deliver(self, destination):
        snapshot = list(self.hints)
        self.wal.fsync()
        if self.hints[:len(snapshot)] != snapshot:
            return self.deliver(destination)
        self.hints = [h for h in snapshot if h != destination]
        return None
