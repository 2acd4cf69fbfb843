"""Transactions, binlog ordering, and semi-sync commit."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    InvalidRequestError,
    KeyNotFoundError,
    SchemaValidationError,
    TransactionAbortedError,
)
from repro.sqlstore import (
    ChangeKind,
    Column,
    SemiSyncTimeoutError,
    SqlDatabase,
    TableSchema,
)

FOLLOW_SCHEMA = TableSchema(
    "follows",
    (Column("member", int), Column("company", int), Column("since", int)),
    primary_key=("member", "company"),
)
COUNT_SCHEMA = TableSchema(
    "counts",
    (Column("company", int), Column("n", int)),
    primary_key=("company",),
)


@pytest.fixture
def db():
    database = SqlDatabase("social", clock=SimClock())
    database.create_table(FOLLOW_SCHEMA)
    database.create_table(COUNT_SCHEMA)
    return database


def test_commit_applies_atomically(db):
    txn = db.begin()
    txn.insert("follows", {"member": 1, "company": 10, "since": 0})
    txn.insert("counts", {"company": 10, "n": 1})
    scn = txn.commit()
    assert scn == 1
    assert db.table("follows").get((1, 10))["since"] == 0
    assert db.table("counts").get((10,))["n"] == 1


def test_rollback_discards_everything(db):
    txn = db.begin()
    txn.insert("follows", {"member": 1, "company": 10, "since": 0})
    txn.rollback()
    assert len(db.table("follows")) == 0
    assert db.binlog.last_scn == 0


def test_transaction_reuse_rejected(db):
    txn = db.begin()
    txn.commit()
    with pytest.raises(TransactionAbortedError):
        txn.insert("follows", {"member": 1, "company": 1, "since": 0})


def test_empty_commit_assigns_no_scn(db):
    assert db.begin().commit() == 0
    assert db.last_committed_scn == 0


def test_read_your_writes_within_transaction(db):
    txn = db.begin()
    txn.insert("counts", {"company": 10, "n": 1})
    assert txn.get("counts", (10,))["n"] == 1
    txn.update("counts", {"company": 10, "n": 2})
    assert txn.get("counts", (10,))["n"] == 2
    txn.delete("counts", (10,))
    with pytest.raises(KeyNotFoundError):
        txn.get("counts", (10,))
    txn.commit()
    assert len(db.table("counts")) == 0


def test_scns_are_dense_and_ordered(db):
    for member in range(5):
        txn = db.begin()
        txn.insert("follows", {"member": member, "company": 1, "since": 0})
        txn.commit()
    scns = [t.scn for t in db.binlog.read_from(0)]
    assert scns == [1, 2, 3, 4, 5]


def test_binlog_records_full_transactions(db):
    txn = db.begin()
    txn.insert("follows", {"member": 1, "company": 10, "since": 0})
    txn.insert("counts", {"company": 10, "n": 1})
    txn.commit()
    entries = list(db.binlog.read_from(0))
    assert len(entries) == 1
    assert entries[0].tables_touched() == {"follows", "counts"}
    kinds = [c.kind for c in entries[0].changes]
    assert kinds == [ChangeKind.INSERT, ChangeKind.INSERT]


def test_binlog_read_from_midpoint(db):
    for member in range(4):
        db.autocommit("follows", {"member": member, "company": 1, "since": 0})
    tail = [t.scn for t in db.binlog.read_from(2)]
    assert tail == [3, 4]


def test_delete_records_preimage(db):
    db.autocommit("counts", {"company": 5, "n": 9})
    txn = db.begin()
    txn.delete("counts", (5,))
    txn.commit()
    delete_event = list(db.binlog.read_from(1))[0].changes[0]
    assert delete_event.kind is ChangeKind.DELETE
    assert delete_event.row["n"] == 9


def test_semisync_refusal_aborts_commit(db):
    db.set_semisync_listener(lambda txn: False)
    txn = db.begin()
    txn.insert("counts", {"company": 1, "n": 1})
    with pytest.raises(SemiSyncTimeoutError):
        txn.commit()
    assert len(db.table("counts")) == 0
    assert db.binlog.last_scn == 0
    assert db.aborts == 1


def test_semisync_ack_allows_commit(db):
    acked = []
    db.set_semisync_listener(lambda txn: acked.append(txn.scn) or True)
    db.autocommit("counts", {"company": 1, "n": 1})
    assert acked == [1]
    assert db.table("counts").get((1,))["n"] == 1


def test_semisync_exception_aborts(db):
    def explode(txn):
        raise RuntimeError("relay down")
    db.set_semisync_listener(explode)
    txn = db.begin()
    txn.insert("counts", {"company": 1, "n": 1})
    with pytest.raises(SemiSyncTimeoutError):
        txn.commit()


def test_snapshot_restore_and_scn(db):
    for member in range(3):
        db.autocommit("follows", {"member": member, "company": 7, "since": 0})
    scn, tables = db.snapshot()
    assert scn == 3
    replica = SqlDatabase("replica", clock=SimClock())
    replica.create_table(FOLLOW_SCHEMA)
    replica.create_table(COUNT_SCHEMA)
    replica.restore(tables, scn)
    assert len(replica.table("follows")) == 3
    assert replica.last_committed_scn == 3


def test_a_failed_restore_changes_nothing(db):
    """A restore is all or nothing: refused over committed transactions
    or for a bad row, it leaves rows, SCN and binlog as they were, and
    the next commit lands at the next SCN."""
    db.autocommit("counts", {"company": 1, "n": 1})
    db.autocommit("counts", {"company": 2, "n": 1})
    snapshot = {"counts": [{"company": 9, "n": 9}], "follows": []}
    with pytest.raises(InvalidRequestError):
        db.restore(snapshot, 0)
    assert [r["company"] for r in db.table("counts").scan()] == [1, 2]
    assert db.last_committed_scn == db.binlog.last_scn == 2
    assert db.autocommit("counts", {"company": 3, "n": 1}) == 3

    replica = SqlDatabase("replica", clock=SimClock())
    replica.create_table(FOLLOW_SCHEMA)
    replica.create_table(COUNT_SCHEMA)
    bad = {"follows": [{"member": 1, "company": 1, "since": 0}],
           "counts": [{"company": 1, "n": "many"}]}
    with pytest.raises(SchemaValidationError):
        replica.restore(bad, 5)
    assert len(replica.table("follows")) == 0
    assert replica.last_committed_scn == replica.binlog.last_scn == 0
    assert replica.autocommit("counts", {"company": 1, "n": 1}) == 1


def test_apply_replicated_enforces_order(db):
    master = db
    replica = SqlDatabase("replica", clock=SimClock())
    replica.create_table(FOLLOW_SCHEMA)
    replica.create_table(COUNT_SCHEMA)
    for member in range(3):
        master.autocommit("follows", {"member": member, "company": 1, "since": 0})
    txns = list(master.binlog.read_from(0))
    replica.apply_replicated(txns[0])
    with pytest.raises(ValueError):
        replica.apply_replicated(txns[2])  # gap
    replica.apply_replicated(txns[1])
    replica.apply_replicated(txns[1])  # duplicate is a no-op
    replica.apply_replicated(txns[2])
    assert replica.last_committed_scn == 3
    assert len(replica.table("follows")) == 3


def test_binlog_subscription_push(db):
    seen = []
    db.binlog.subscribe(lambda txn: seen.append(txn.scn))
    db.autocommit("counts", {"company": 1, "n": 1})
    db.autocommit("counts", {"company": 2, "n": 1})
    assert seen == [1, 2]
