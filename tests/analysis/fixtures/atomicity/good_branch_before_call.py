# rule: atomicity-violation
# Deciding *before* the network call is fine: nothing has had a chance
# to go stale yet.


class Node:
    def __init__(self, net):
        self.net = net
        self.role = "follower"

    def promote(self):
        self.role = "leader"

    def ping_if_leader(self):
        role = self.role
        if role == "leader":
            self.net.send(self.peer_name, "ping")
        return role
