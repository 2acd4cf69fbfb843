# rule: atomicity-violation
# A log-structured put: the version frontier is merged from the index
# before the WAL fsync and stored after it.  Another put can land
# while the fsync yields, so the stored frontier drops its version.


def merge(frontier, record):
    return [*frontier, record]


class Engine:
    def __init__(self, wal):
        self.wal = wal
        self.index = {}

    def put(self, key, record):
        survivors = merge(self.index.get(key, ()), record)
        self.wal.append(record)
        self.wal.fsync()
        self.index[key] = survivors  # BAD
