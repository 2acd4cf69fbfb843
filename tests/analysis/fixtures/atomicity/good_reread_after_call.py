# rule: atomicity-violation
# The fix for bad_check_then_act: re-read the shared value once the
# call returns; the redefinition kills the stale path.


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
        current = self.partition_scn
        if current < self.high_water:
            self.apply(current)
