# rule: atomicity-violation
# The only write to self.peer sits in a callback defined inside a
# method: a closure's self is its method's, so self.peer is mutable
# state and the stale branch after the RPC is convicted.


class Watcher:
    def __init__(self, net):
        self.net = net
        self.peer = None

    def watch(self, path):
        def on_change(peer):
            self.peer = peer
        self.net.send("zk", path, on_change)

    def ping(self):
        peer = self.peer
        self.net.invoke(peer, "ping")
        if peer is not None:  # BAD
            return peer
        return None
