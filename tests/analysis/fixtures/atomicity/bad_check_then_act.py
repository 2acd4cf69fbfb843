# rule: atomicity-violation
# Check-then-act across the network: the SCN is read before the relay
# round-trip and drives the branch after it.  Another replica may have
# advanced it while the call was in flight.


class Master:
    def __init__(self, net):
        self.net = net
        self.partition_scn = 0
        self.high_water = 0

    def apply(self, scn):
        self.partition_scn = scn + 1

    def advance(self):
        current = self.partition_scn
        self.net.invoke(self.relay_pull, current)
        if current < self.high_water:  # BAD
            self.apply(current)
