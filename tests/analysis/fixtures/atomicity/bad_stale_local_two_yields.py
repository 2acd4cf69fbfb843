# rule: atomicity-violation
# The SCN read before the branch goes stale on both arms: across the
# relay round-trip on one, across the WAL fsync on the other.  Either
# path is a check-then-act; the one finding names the earliest of the
# two yield points.


class Master:
    def __init__(self, net, wal):
        self.net = net
        self.wal = wal
        self.partition_scn = 0

    def apply(self, scn):
        self.partition_scn = scn + 1

    def advance(self, remote):
        current = self.partition_scn
        if remote:
            self.net.invoke(self.relay_pull, current)
        else:
            self.wal.fsync()
        self.partition_scn = current + 1  # BAD
