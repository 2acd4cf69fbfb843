# rule: atomicity-violation
# The good twin of bad_stale_local_two_yields: each arm re-reads the SCN
# after its own yield, so the value that reaches the write-back is fresh
# on both paths.


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
            current = self.partition_scn
        else:
            self.wal.fsync()
            current = self.partition_scn
        self.partition_scn = current + 1
