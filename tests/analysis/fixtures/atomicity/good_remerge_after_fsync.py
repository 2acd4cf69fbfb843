# rule: atomicity-violation
# The twin of bad_merge_before_fsync_stored_after: the merge before the
# fsync only validates the write, and the frontier that is stored is
# merged again from the index read after the fsync.


def merge(frontier, record):
    return [*frontier, record]


class Engine:
    def __init__(self, wal):
        self.wal = wal
        self.index = {}

    def put(self, key, record):
        merge(self.index.get(key, ()), record)
        self.wal.append(record)
        self.wal.fsync()
        self.index[key] = merge(self.index.get(key, ()), record)
