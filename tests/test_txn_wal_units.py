"""Direct unit tests of TransactionManager and WriteAheadLog."""

import os

import pytest

from repro.errors import StorageError, TransactionError
from repro.relational.heap import HeapFile
from repro.relational.pager import MemoryPager
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.txn import TransactionManager
from repro.relational.types import ColumnType
from repro.relational.wal import WriteAheadLog


def make_table():
    schema = TableSchema(
        "t",
        [Column("k", ColumnType.INT), Column("v", ColumnType.TEXT)],
        primary_key=["k"],
    )
    return Table(schema, HeapFile(MemoryPager()))


def insert_logged(txn, wal, table, key):
    """One insert logged undo and redo together, as the database does."""
    rid = table.insert((key, "a"))
    txn.log_insert(table, rid, redo=wal.log_insert("t", (key, "a")))


class TestTransactionManagerUnit:
    def test_active_flag(self):
        txn = TransactionManager()
        assert not txn.active
        txn.begin()
        assert txn.active
        txn.commit()
        assert not txn.active

    def test_double_begin(self):
        txn = TransactionManager()
        txn.begin()
        with pytest.raises(TransactionError):
            txn.begin()

    def test_commit_writes_exactly_its_own_lines(self, tmp_path):
        # Two transactions over one log, interleaved: each commit is one
        # group holding its own redo lines and nothing of the other's.
        wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync=False)
        table = make_table()
        first, second = TransactionManager(wal), TransactionManager(wal)
        first.begin()
        second.begin()
        for txn, key in ((first, 1), (second, 2), (first, 3)):
            insert_logged(txn, wal, table, key)
        first.commit()
        assert wal.stats["commits"] == 1 and wal.stats["ops"] == 2
        second.rollback()
        groups = []
        wal.replay(lambda op: groups.append(op["row"][0]))
        assert groups == [1, 3]
        wal.close()

    def test_rollback_drops_the_group(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync=False)
        table = make_table()
        txn = TransactionManager(wal)
        txn.begin()
        insert_logged(txn, wal, table, 1)
        txn.rollback()
        txn.begin()
        txn.commit()
        assert wal.stats["ops"] == 0
        assert os.path.getsize(wal.path) == 0
        wal.close()

    def test_rollback_to_drops_the_tail(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync=False)
        table = make_table()
        txn = TransactionManager(wal)
        txn.begin()
        insert_logged(txn, wal, table, 1)
        mark = txn.mark()
        insert_logged(txn, wal, table, 2)
        txn.rollback_to(mark)
        txn.commit()
        assert wal.stats["ops"] == 1
        seen = []
        wal.replay(seen.append)
        assert [op["row"] for op in seen] == [[1, "a"]]
        wal.close()

    def test_undo_insert(self):
        table = make_table()
        txn = TransactionManager()
        txn.begin()
        rid = table.insert((1, "x"))
        txn.log_insert(table, rid)
        txn.rollback()
        assert table.count() == 0

    def test_undo_delete(self):
        table = make_table()
        rid = table.insert((1, "x"))
        txn = TransactionManager()
        txn.begin()
        row = table.delete(rid)
        txn.log_delete(table, row)
        txn.rollback()
        assert list(table.rows()) == [(1, "x")]

    def test_undo_update(self):
        table = make_table()
        rid = table.insert((1, "old"))
        txn = TransactionManager()
        txn.begin()
        new_rid, old_row = table.update(rid, (1, "new"))
        txn.log_update(table, new_rid, old_row)
        txn.rollback()
        assert list(table.rows()) == [(1, "old")]

    def test_logging_inactive_is_noop(self):
        table = make_table()
        txn = TransactionManager()
        rid = table.insert((1, "x"))
        txn.log_insert(table, rid)  # no crash, nothing recorded
        assert txn.mark() == 0

    def test_rollback_to_mark(self):
        table = make_table()
        txn = TransactionManager()
        txn.begin()
        rid1 = table.insert((1, "a"))
        txn.log_insert(table, rid1)
        mark = txn.mark()
        rid2 = table.insert((2, "b"))
        txn.log_insert(table, rid2)
        txn.rollback_to(mark)
        assert [row[0] for row in table.rows()] == [1]
        txn.commit()
        assert [row[0] for row in table.rows()] == [1]

    def test_rollback_to_outside_txn(self):
        txn = TransactionManager()
        with pytest.raises(TransactionError):
            txn.rollback_to(0)

    def test_note_rid_moved(self):
        table = make_table()
        txn = TransactionManager()
        txn.begin()
        rid = table.insert((1, "short"))
        txn.log_insert(table, rid)
        # Simulate the row moving pages: the log entry must follow.
        from repro.relational.heap import RowId

        new_rid = RowId(99, 0)
        txn.note_rid_moved(table, rid, new_rid)
        assert txn._entries[0].rid == new_rid


class TestWriteAheadLogUnit:
    def make(self, tmp_path, fsync=False):
        return WriteAheadLog(str(tmp_path / "wal.log"), fsync=fsync)

    def test_pending_then_commit(self, tmp_path):
        wal = self.make(tmp_path)
        line = wal.log_insert("t", (1, "a"))  # encoded, not yet written
        assert os.path.getsize(wal.path) == 0
        wal.commit([line])
        assert wal.stats == {
            "commits": 1,
            "ops": 1,
            "bytes": wal.stats["bytes"],
            "fsyncs": 0,  # fsync=False in make()
            "appends": 1,
        }
        wal.close()

    def test_empty_commit_writes_nothing(self, tmp_path):
        wal = self.make(tmp_path)
        wal.commit([])
        assert wal.stats["commits"] == 0
        wal.close()

    def test_replay_only_committed(self, tmp_path):
        wal = self.make(tmp_path)
        wal.commit([wal.log_insert("t", (1, "a"))])
        wal.log_insert("t", (2, "b"))  # never committed
        seen = []
        wal.replay(seen.append)
        assert [op["row"] for op in seen] == [[1, "a"]]
        wal.close()

    def test_replay_groups_in_order(self, tmp_path):
        wal = self.make(tmp_path)
        wal.commit(
            [wal.log_insert("t", (1, "a")), wal.log_update("t", (1, "a"), (1, "b"))]
        )
        wal.commit([wal.log_delete("t", (1, "b"))])
        kinds = []
        wal.replay(lambda op: kinds.append(op["t"]))
        assert kinds == ["insert", "update", "delete"]
        wal.close()

    def test_truncate(self, tmp_path):
        wal = self.make(tmp_path)
        wal.commit([wal.log_insert("t", (1, "a"))])
        wal.truncate()
        seen = []
        wal.replay(seen.append)
        assert seen == []
        assert os.path.getsize(wal.path) == 0
        wal.close()

    def test_torn_tail_tolerated(self, tmp_path):
        wal = self.make(tmp_path)
        wal.commit([wal.log_insert("t", (1, "a"))])
        with open(wal.path, "ab") as fh:
            fh.write(b'{"t": "insert", "tab": "t", "r')  # torn write
        seen = []
        wal.replay(seen.append)
        assert len(seen) == 1
        wal.close()

    def test_corruption_before_commit_raises(self, tmp_path):
        wal = self.make(tmp_path)
        with open(wal.path, "ab") as fh:
            fh.write(b"garbage-line\n")
            fh.write(b'{"t": "commit"}\n')
        with pytest.raises(StorageError):
            wal.replay(lambda op: None)
        wal.close()

    def test_closed_wal_raises(self, tmp_path):
        wal = self.make(tmp_path)
        wal.close()
        with pytest.raises(StorageError):
            wal.commit([])
        with pytest.raises(StorageError):
            wal.truncate()
