# rule: non-atomic-multi-write
# A call is a journal record only when "journal" or "wal" is a whole
# word of its name: walk_index() and swallow() record nothing, so the
# pair still straddles the RPC.


class Index:
    def __init__(self, net):
        self.net = net
        self.a = None
        self.b = None

    def walk_index(self):
        return []

    def swallow(self):
        return None

    def update(self, x):
        self.a = x
        self.net.invoke("peer", x)
        self.walk_index()
        self.b = x  # BAD

    def update_quietly(self, x):
        self.a = x
        self.net.invoke("peer", x)
        self.swallow()
        self.b = x  # BAD
