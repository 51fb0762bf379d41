"""Redo semantics: how recovery finds the row a logged UPDATE/DELETE names.

Every test builds a disk database, logs work without a checkpoint, copies
the directory the way the end-to-end benchmark's ``crash_image`` does (the
files of the open database *are* what a kill leaves: heaps change only at
checkpoints, every commit has written its WAL group), reopens the copy and
compares whole tables with the database that kept running.

The log is logical and commit-ordered, so these pin *what* is redone, not
how the victim is located: every case except the last — which reads the
``unmatched_ops`` counter — passes on a full-scan redo as well.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import pytest

from repro.relational.database import Database
from repro.relational.wal import _frame
from repro.session import SessionConfig, SessionManager


@pytest.fixture
def disk_db(tmp_path):
    db = Database(path=str(tmp_path / "db"), fsync=False)
    yield db
    db.close()


@pytest.fixture
def crash(tmp_path):
    """``crash(db)``: the database reopened from a copy of *db*'s directory
    taken as a kill would leave it — nothing is flushed for the copy."""
    reopened = []

    def reopen(db):
        image = str(tmp_path / f"image{len(reopened)}")
        shutil.copytree(db.path, image)
        reopened.append(Database(path=image, fsync=False))
        return reopened[-1]

    yield reopen
    for db in reopened:
        db.close()


def heap_rows(db, table):
    return list(db.catalog.table(table).rows())


def contents(db):
    """Every table's rows, order-free (heap slots differ after a replay)."""
    return {
        name: sorted(db.catalog.table(name).rows(), key=repr)
        for name in db.table_names()
    }


def assert_recovers(db, crash):
    recovered = crash(db)
    assert not recovered.read_only, recovered._corruption_events
    assert contents(recovered) == contents(db)
    assert recovered.integrity_check().ok
    return recovered


def delete_rid(db, table, rid):
    """One statement deleting exactly the row at *rid* — what a form does
    with its current record, and what SQL cannot say of identical rows."""
    with db._latch, db._atomic():
        db._apply_delete(table, rid)


def update_rid(db, table, rid, new_row):
    with db._latch, db._atomic():
        db._apply_update(table, rid, new_row)


def rids_by_key(db, table):
    return {row[0]: rid for rid, row in db.catalog.table(table).scan()}


def test_two_sessions_commit_in_the_other_order_than_they_wrote(disk_db, crash):
    """Two sessions insert in one order and commit in the other, one of them
    rolls a transaction back, then each updates and deletes its own rows.
    Replay sees commit order and no rolled-back work, so it assigns other
    heap slots than the original run did: redo addressed by the original
    RowIds would rewrite the wrong rows; redo by value cannot."""
    disk_db.execute("CREATE TABLE a (id INT PRIMARY KEY, owner TEXT)")
    disk_db.execute("CREATE TABLE b (id INT PRIMARY KEY, owner TEXT)")
    mgr = SessionManager(disk_db, SessionConfig(max_sessions=2))
    s1, s2 = mgr.connect(), mgr.connect()
    s1.execute("BEGIN")
    s2.execute("BEGIN")
    s1.execute("INSERT INTO a VALUES (1, 's1'), (2, 's1')")  # written first,
    s2.execute("INSERT INTO b VALUES (1, 's2'), (2, 's2')")
    s2.execute("COMMIT")
    s1.execute("COMMIT")  # logged second
    s2.execute("INSERT INTO a VALUES (3, 's2'), (4, 's2')")
    s1.execute("INSERT INTO b VALUES (3, 's1'), (4, 's1')")
    # Undo restores deleted rows newest-first, so 3 and 4 trade slots — in
    # the running database only; none of this reaches the log.
    s2.execute("BEGIN")
    s2.execute("DELETE FROM a WHERE owner = 's2'")
    s2.execute("ROLLBACK")
    for session, owner in ((s1, "s1"), (s2, "s2")):
        for table in ("a", "b"):
            session.execute(
                f"UPDATE {table} SET owner = '{owner}!' WHERE owner = '{owner}'"
            )
    s1.execute("DELETE FROM a WHERE id = 1")
    s2.execute("DELETE FROM a WHERE id = 3")
    s2.execute("DELETE FROM b WHERE id = 2")
    s1.execute("DELETE FROM b WHERE id = 4")
    recovered = assert_recovers(disk_db, crash)
    assert contents(recovered) == {
        "a": [(2, "s1!"), (4, "s2!")],
        "b": [(1, "s2!"), (3, "s1!")],
    }
    assert rids_by_key(recovered, "a") != rids_by_key(disk_db, "a")
    mgr.close()


def test_rolled_back_work_moves_rows_replay_never_hears_of(disk_db, crash):
    disk_db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    disk_db.execute("INSERT INTO t VALUES (2, 'two'), (3, 'three'), (4, 'four')")
    disk_db.execute("BEGIN")
    disk_db.execute("DELETE FROM t WHERE id = 2")
    disk_db.execute("DELETE FROM t WHERE id = 3")
    disk_db.execute("ROLLBACK")  # 3 is restored before 2: they trade slots
    disk_db.execute("UPDATE t SET v = 'THREE' WHERE id = 3")
    disk_db.execute("DELETE FROM t WHERE id = 4")
    recovered = assert_recovers(disk_db, crash)
    assert rids_by_key(recovered, "t") != rids_by_key(disk_db, "t")


def test_keyless_identical_rows_lose_exactly_one_per_op(disk_db, crash):
    disk_db.execute("CREATE TABLE k (name TEXT, n INT)")
    disk_db.execute(
        "INSERT INTO k VALUES ('pad', 0), ('dup', 1), ('dup', 1), ('dup', 1), ('end', 9)"
    )
    table = disk_db.catalog.table("k")
    dups = [rid for rid, row in table.scan() if row == ("dup", 1)]
    # The live database removes the LAST twin and rewrites the middle one;
    # replay cannot tell twins apart and takes the first in heap order each
    # time.  Same bag of rows either way — any equal row is the same row.
    delete_rid(disk_db, table, dups[2])
    update_rid(disk_db, table, dups[1], ("dup", 2))
    assert heap_rows(disk_db, "k") == [
        ("pad", 0), ("dup", 1), ("dup", 2), ("end", 9)
    ]
    recovered = assert_recovers(disk_db, crash)
    assert heap_rows(recovered, "k") == [
        ("pad", 0), ("dup", 2), ("dup", 1), ("end", 9)
    ]


def test_null_unique_key_falls_through_to_the_next_index_then_the_scan(disk_db, crash):
    """No primary key; two UNIQUE columns.  An image with a NULL in the
    first is located through the second; with NULLs in both, by scan."""
    disk_db.execute("CREATE TABLE u (a INT UNIQUE, b INT UNIQUE, v TEXT)")
    disk_db.execute(
        "INSERT INTO u VALUES (1, 10, 'both'), (NULL, 20, 'second'), "
        "(NULL, 21, 'second'), (NULL, NULL, 'scan'), (NULL, NULL, 'scan'), "
        "(NULL, NULL, 'stays')"
    )
    disk_db.execute("UPDATE u SET v = 'BOTH' WHERE a = 1")
    disk_db.execute("UPDATE u SET v = 'SECOND' WHERE b = 20")
    disk_db.execute("DELETE FROM u WHERE b = 21")
    table = disk_db.catalog.table("u")
    twins = [rid for rid, row in table.scan() if row == (None, None, "scan")]
    update_rid(disk_db, table, twins[0], (None, None, "SCAN"))
    delete_rid(disk_db, table, twins[1])
    recovered = assert_recovers(disk_db, crash)
    assert contents(recovered)["u"] == sorted(
        [
            (1, 10, "BOTH"), (None, 20, "SECOND"),
            (None, None, "SCAN"), (None, None, "stays"),
        ],
        key=repr,
    )


def test_an_update_located_by_the_key_an_earlier_update_wrote(disk_db, crash):
    disk_db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    disk_db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    disk_db.checkpoint()
    disk_db.execute("UPDATE t SET id = 7 WHERE id = 1")
    disk_db.execute("UPDATE t SET v = 'seven' WHERE id = 7")
    disk_db.execute("UPDATE t SET id = 1 WHERE id = 2")  # the freed key, reused
    disk_db.execute("UPDATE t SET v = 'was two' WHERE id = 1")
    recovered = assert_recovers(disk_db, crash)
    assert contents(recovered)["t"] == [(1, "was two"), (7, "seven")]


def test_delete_then_reinsert_of_one_key(disk_db, crash):
    disk_db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    disk_db.execute("INSERT INTO t VALUES (1, 'first'), (2, 'other')")
    disk_db.checkpoint()
    disk_db.execute("DELETE FROM t WHERE id = 1")
    disk_db.execute("INSERT INTO t VALUES (1, 'second')")
    disk_db.execute("UPDATE t SET v = 'second!' WHERE id = 1")
    disk_db.execute("DELETE FROM t WHERE id = 1")
    disk_db.execute("INSERT INTO t VALUES (1, 'third')")
    recovered = assert_recovers(disk_db, crash)
    assert contents(recovered)["t"] == [(1, "third"), (2, "other")]


def test_a_unique_hash_index_is_key_enough(disk_db, crash):
    disk_db.execute("CREATE TABLE h (code TEXT, n INT)")
    disk_db.execute("CREATE UNIQUE INDEX ix_h_code ON h (code) USING HASH")
    disk_db.execute("INSERT INTO h VALUES ('a', 1), ('b', 2), ('c', 3)")
    disk_db.execute("UPDATE h SET n = 20 WHERE code = 'b'")
    disk_db.execute("UPDATE h SET code = 'z' WHERE code = 'a'")
    disk_db.execute("DELETE FROM h WHERE code = 'c'")
    disk_db.execute("UPDATE h SET n = 26 WHERE code = 'z'")
    recovered = assert_recovers(disk_db, crash)
    assert contents(recovered)["h"] == [("b", 20), ("z", 26)]
    assert recovered.catalog.table("h").indexes["ix_h_code"].unique


def test_an_image_that_matches_the_key_but_not_the_row_is_counted(disk_db, crash):
    """A hand-written redo record: the key exists, the row under it is not
    the logged old image.  Nothing may change — and recovery says so."""
    disk_db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    disk_db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    seq = disk_db.wal.last_seq + 1
    stale = {"t": "update", "tab": "t", "old": [1, "ONE"], "new": [1, "uno"]}
    with open(os.path.join(disk_db.path, "wal.log"), "ab") as log:
        for record in (stale, {"t": "commit"}):
            log.write((_frame(seq, json.dumps(record)) + "\n").encode("utf-8"))
    recovered = crash(disk_db)
    assert not recovered.read_only
    assert contents(recovered) == contents(disk_db)
    assert recovered.wal.recovery_stats["unmatched_ops"] == 1
    assert recovered.metrics_snapshot()["integrity"]["wal_unmatched_ops"] == 1


class _Actor:
    """One session's seeded script over its own table, plus a Python model
    of what it has committed and of its open transaction."""

    def __init__(self, session, table):
        self.session = session
        self.table = table
        self.committed = {}  # id -> v
        self.working = None  # the open transaction's view, else None
        self.savepoints = []  # [(name, snapshot)], oldest first
        self.named = 0

    @property
    def visible(self):
        return self.committed if self.working is None else self.working

    def step(self, rng):
        # Weighted so transactions run long and nest savepoints.
        if self.working is None:
            weights = {"begin": 3, "insert": 2, "update": 1, "delete": 1}
        else:
            weights = {"insert": 4, "update": 3, "delete": 1, "savepoint": 2,
                       "commit": 1, "rollback": 1}
            if self.savepoints:
                weights.update(rollback_to=3, release=1)
        kind = rng.choices(list(weights), list(weights.values()))[0]
        getattr(self, "_" + kind)(rng)

    def _run(self, sql, change=None):
        """Run one statement; apply *change* to the model's current view."""
        self.session.execute(sql)
        if change is not None:
            rows = dict(self.visible)
            change(rows)
            if self.working is None:
                self.committed = rows
            else:
                self.working = rows

    def _insert(self, rng):
        key = rng.choice([k for k in range(12) if k not in self.visible] or [99])
        if key in self.visible:
            return self._update(rng)
        value = rng.randrange(100)
        self._run(
            f"INSERT INTO {self.table} VALUES ({key}, {value})",
            lambda rows: rows.__setitem__(key, value),
        )

    def _update(self, rng):
        key, value = rng.randrange(12), rng.randrange(100)
        if rng.random() < 0.5:
            def change(rows):
                if key in rows:
                    rows[key] = value

            self._run(f"UPDATE {self.table} SET v = {value} WHERE id = {key}", change)
        else:
            def change(rows):
                for k in rows:
                    if k < key:
                        rows[k] += 1

            self._run(f"UPDATE {self.table} SET v = v + 1 WHERE id < {key}", change)

    def _delete(self, rng):
        key = rng.randrange(12)
        if rng.random() < 0.5:
            self._run(
                f"DELETE FROM {self.table} WHERE id = {key}",
                lambda rows: rows.pop(key, None),
            )
        else:
            limit = rng.randrange(100)

            def change(rows):
                for k in [k for k, v in rows.items() if v > limit]:
                    del rows[k]

            self._run(f"DELETE FROM {self.table} WHERE v > {limit}", change)

    def _begin(self, rng):
        self._run("BEGIN")
        self.working = dict(self.committed)

    def _savepoint(self, rng):
        self.named += 1
        name = f"sp{self.named}"
        self._run(f"SAVEPOINT {name}")
        self.savepoints.append((name, dict(self.working)))

    def _rollback_to(self, rng):
        index = rng.randrange(len(self.savepoints))
        name, snapshot = self.savepoints[index]
        self._run(f"ROLLBACK TO SAVEPOINT {name}")
        self.working = dict(snapshot)
        del self.savepoints[index + 1:]

    def _release(self, rng):
        index = rng.randrange(len(self.savepoints))
        self._run(f"RELEASE SAVEPOINT {self.savepoints[index][0]}")
        del self.savepoints[index]

    def _commit(self, rng):
        self._run("COMMIT")
        self.committed, self.working, self.savepoints = self.working, None, []

    def _rollback(self, rng):
        self._run("ROLLBACK")
        self.working, self.savepoints = None, []


@pytest.mark.parametrize("seed", range(3))
def test_interleaved_savepoints_and_commit_groups(disk_db, crash, seed):
    """Two sessions on disjoint tables interleave transactions, savepoints,
    partial rollbacks and autocommit statements.  Both transactions log into
    the one WAL at once; after every statement a crash image must reopen to
    exactly what each session has committed, and the running database must
    show each session's own view."""
    rng = random.Random(seed)
    for table in ("a", "b"):
        disk_db.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, v INT)")
    mgr = SessionManager(disk_db, SessionConfig(max_sessions=2))
    actors = [_Actor(mgr.connect(), "a"), _Actor(mgr.connect(), "b")]

    def model(view):
        return {
            actor.table: sorted(getattr(actor, view).items(), key=repr)
            for actor in actors
        }

    for _step in range(60):
        rng.choice(actors).step(rng)
        assert contents(disk_db) == model("visible")
        recovered = crash(disk_db)
        assert not recovered.read_only, recovered._corruption_events
        assert contents(recovered) == model("committed")
    mgr.close()
