# rule: atomicity-violation
# Binding the RPC *result* and branching on it is the re-read pattern,
# not the bug: the value is as fresh as it can be.


class Monitor:
    def __init__(self, net):
        self.net = net
        self.peer_status = "status"

    def retarget(self, method):
        self.peer_status = method

    def check(self):
        status = self.net.invoke(self.peer_status)
        if status:
            self.mark_alive()
