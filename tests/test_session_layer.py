"""Session layer: lock manager semantics, session lifecycle, retry
policy, degradation, telemetry, and the wire protocol.

Thread-using tests are deterministic where the design allows it (the
deadlock victim is always the youngest session id; backoff jitter is
seeded) and bounded everywhere else: every helper thread is joined with a
timeout and asserted dead, so a regression hangs a test for seconds, not
forever.
"""

from __future__ import annotations

import shutil
import socket
import threading

import pytest

from repro.errors import (
    BusyError,
    CatalogError,
    LockTimeoutError,
    ReadOnlyError,
    SerializationError,
    SessionError,
    StatementTimeoutError,
    TransactionError,
)
from repro.relational.database import Database
from repro.relational.txn import UndoEntry
from repro.session import (
    CATALOG_RESOURCE,
    EXCLUSIVE,
    SHARED,
    DatabaseServer,
    LockManager,
    RemoteSession,
    SessionConfig,
    SessionManager,
)
from repro.session.server import FRAME_HEADER, MAX_FRAME_BYTES, recv_frame, send_frame

JOIN_TIMEOUT = 20.0


def run_thread(fn):
    """Run *fn* in a thread; returns (thread, box) where box collects
    the result under ``"value"`` or the exception under ``"error"``."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - test harness boundary
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def join_dead(thread):
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive(), "helper thread hung"


def wait_until(predicate, timeout=JOIN_TIMEOUT):
    deadline = threading.Event()
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        deadline.wait(0.002)
    raise AssertionError("condition never became true")


# ---------------------------------------------------------------------------
# LockManager
# ---------------------------------------------------------------------------


class TestLockManager:
    def test_shared_locks_coexist(self):
        lm = LockManager()
        lm.acquire(1, "t", SHARED, 1.0)
        lm.acquire(2, "t", SHARED, 1.0)
        assert lm.held(1) == [("t", SHARED)]
        assert lm.held(2) == [("t", SHARED)]
        assert lm.stats["waits"] == 0

    def test_reacquire_is_idempotent(self):
        lm = LockManager()
        lm.acquire(1, "t", EXCLUSIVE, 1.0)
        lm.acquire(1, "t", EXCLUSIVE, 1.0)
        lm.acquire(1, "t", SHARED, 1.0)  # X already covers S
        assert lm.held(1) == [("t", EXCLUSIVE)]
        assert lm.stats["acquired"] == 1

    def test_upgrade_when_sole_holder(self):
        lm = LockManager()
        lm.acquire(1, "t", SHARED, 1.0)
        lm.acquire(1, "t", EXCLUSIVE, 1.0)
        assert lm.held(1) == [("t", EXCLUSIVE)]
        assert lm.stats["upgrades"] == 1

    def test_exclusive_blocks_until_release(self):
        lm = LockManager()
        lm.acquire(1, "t", EXCLUSIVE, 1.0)
        thread, box = run_thread(lambda: lm.acquire(2, "t", SHARED, 10.0))
        wait_until(lambda: lm.stats["waits"] == 1)
        assert thread.is_alive()
        lm.release_all(1)
        join_dead(thread)
        assert "error" not in box
        assert lm.held(2) == [("t", SHARED)]

    def test_lock_timeout(self):
        lm = LockManager()
        lm.acquire(1, "t", EXCLUSIVE, 1.0)
        with pytest.raises(LockTimeoutError) as exc_info:
            lm.acquire(2, "t", SHARED, 0.02)
        assert exc_info.value.retryable
        assert lm.stats["timeouts"] == 1
        assert lm.held(2) == []

    def test_deadlock_dooms_youngest(self):
        lm = LockManager()
        lm.acquire(1, "a", EXCLUSIVE, 1.0)
        lm.acquire(2, "b", EXCLUSIVE, 1.0)
        t1, box1 = run_thread(lambda: lm.acquire(1, "b", EXCLUSIVE, 30.0))
        t2, box2 = run_thread(lambda: lm.acquire(2, "a", EXCLUSIVE, 30.0))
        # session 2 is the youngest member of the cycle: always the victim
        join_dead(t2)
        assert isinstance(box2.get("error"), SerializationError)
        assert box2["error"].retryable
        lm.release_all(2)
        join_dead(t1)
        assert "error" not in box1
        assert lm.stats["deadlocks"] == 1

    def test_release_all_clears_doom(self):
        lm = LockManager()
        lm._doomed.add(3)
        lm.release_all(3)
        lm.acquire(3, "t", SHARED, 1.0)  # must not abort on stale doom
        assert lm.held(3) == [("t", SHARED)]

    def _ring(self, lm, n):
        """Build an n-session wait ring: session i holds resource i and
        requests resource i+1 (mod n).  Returns [(thread, box), ...] in
        session order; the last request closes the cycle."""
        for sid in range(1, n + 1):
            lm.acquire(sid, f"r{sid}", EXCLUSIVE, 1.0)
        waiters = []
        for sid in range(1, n + 1):
            nxt = sid % n + 1
            thread, box = run_thread(
                lambda s=sid, r=f"r{nxt}": lm.acquire(s, r, EXCLUSIVE, 30.0)
            )
            waiters.append((thread, box))
            wait_until(lambda count=sid: lm.stats["waits"] >= count)
        return waiters

    def _drain_ring(self, lm, waiters, victim):
        """After *victim* aborts, release sessions in reverse id order so
        every survivor's grant unblocks the next; assert none errored."""
        lm.release_all(victim)
        for sid in range(victim - 1, 0, -1):
            thread, box = waiters[sid - 1]
            join_dead(thread)
            assert "error" not in box, f"session {sid} should survive"
            lm.release_all(sid)

    def test_three_cycle_dooms_youngest(self):
        lm = LockManager()
        waiters = self._ring(lm, 3)
        thread, box = waiters[2]  # session 3: youngest member
        join_dead(thread)
        assert isinstance(box.get("error"), SerializationError)
        assert box["error"].retryable
        assert lm.stats["deadlocks"] == 1
        self._drain_ring(lm, waiters, victim=3)

    def test_four_cycle_dooms_youngest(self):
        lm = LockManager()
        waiters = self._ring(lm, 4)
        thread, box = waiters[3]  # session 4
        join_dead(thread)
        assert isinstance(box.get("error"), SerializationError)
        assert lm.stats["deadlocks"] == 1
        self._drain_ring(lm, waiters, victim=4)

    def test_victim_choice_is_order_independent(self):
        # the victim is max(cycle) no matter which waiter's wait-loop pass
        # detects the cycle: park the *older* session first, then let the
        # younger one close the cycle (so session 1 triggers detection on
        # a later pass), and vice versa — the youngest dies both times
        for first_waiter in (1, 2):
            lm = LockManager()
            lm.acquire(1, "a", EXCLUSIVE, 1.0)
            lm.acquire(2, "b", EXCLUSIVE, 1.0)
            order = [1, 2] if first_waiter == 1 else [2, 1]
            boxes = {}
            threads = {}
            for sid in order:
                resource = "b" if sid == 1 else "a"
                threads[sid], boxes[sid] = run_thread(
                    lambda s=sid, r=resource: lm.acquire(s, r, EXCLUSIVE, 30.0)
                )
                wait_until(
                    lambda count=len(threads): lm.stats["waits"] >= count
                )
            join_dead(threads[2])
            assert isinstance(boxes[2].get("error"), SerializationError)
            lm.release_all(2)
            join_dead(threads[1])
            assert "error" not in boxes[1]

    def test_waiter_outside_cycle_survives(self):
        # session 3 waits on a cycle member's resource but is not part of
        # the cycle: it must never be doomed, and proceeds once the chain
        # unwinds
        lm = LockManager()
        lm.acquire(1, "a", EXCLUSIVE, 1.0)
        lm.acquire(2, "b", EXCLUSIVE, 1.0)
        t3, box3 = run_thread(lambda: lm.acquire(3, "a", SHARED, 30.0))
        wait_until(lambda: lm.stats["waits"] >= 1)
        t1, box1 = run_thread(lambda: lm.acquire(1, "b", EXCLUSIVE, 30.0))
        wait_until(lambda: lm.stats["waits"] >= 2)
        t2, box2 = run_thread(lambda: lm.acquire(2, "a", EXCLUSIVE, 30.0))
        # cycle is {1, 2}; 3 is younger than both but outside the cycle
        join_dead(t2)
        assert isinstance(box2.get("error"), SerializationError)
        lm.release_all(2)
        join_dead(t1)
        assert "error" not in box1
        lm.release_all(1)
        join_dead(t3)
        assert "error" not in box3
        assert lm.held(3) == [("a", SHARED)]
        assert lm.stats["deadlocks"] == 1


# ---------------------------------------------------------------------------
# Sessions over one engine
# ---------------------------------------------------------------------------


@pytest.fixture
def mgr(db):
    manager = SessionManager(
        db, SessionConfig(max_sessions=4, lock_timeout=5.0, retry_seed=7)
    )
    yield manager
    manager.close()


def _seed(db):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")


class TestSessions:
    def test_autocommit_visible_across_sessions(self, db, mgr):
        _seed(db)
        db.execute("GRANT INSERT ON t TO alice")
        db.execute("GRANT SELECT ON t TO bob")
        s1, s2 = mgr.connect("alice"), mgr.connect("bob")
        s1.execute("INSERT INTO t VALUES (3, 30)")
        assert s2.query("SELECT v FROM t WHERE id = 3") == [(30,)]

    def test_writer_blocks_reader_until_commit(self, db, mgr):
        _seed(db)
        s1, s2 = mgr.connect(), mgr.connect()
        s1.execute("BEGIN")
        s1.execute("UPDATE t SET v = 11 WHERE id = 1")
        thread, box = run_thread(
            lambda: s2.query("SELECT v FROM t WHERE id = 1")
        )
        wait_until(lambda: mgr.locks.stats["waits"] >= 1)
        assert thread.is_alive(), "reader must wait for the writer's X lock"
        s1.execute("COMMIT")
        join_dead(thread)
        # no dirty read: the reader saw the committed value, after commit
        assert box["value"] == [(11,)]

    def test_rollback_discards_and_releases(self, db, mgr):
        _seed(db)
        s1, s2 = mgr.connect(), mgr.connect()
        s1.execute("BEGIN")
        s1.execute("DELETE FROM t WHERE id = 2")
        s1.execute("ROLLBACK")
        assert not s1.in_txn
        assert mgr.locks.held(s1.id) == []
        assert s2.query("SELECT COUNT(*) FROM t") == [(2,)]

    def test_savepoints_swap_per_session(self, db, mgr):
        _seed(db)
        s1 = mgr.connect()
        s1.execute("BEGIN")
        s1.execute("UPDATE t SET v = 99 WHERE id = 1")
        s1.execute("SAVEPOINT sp")
        s1.execute("DELETE FROM t WHERE id = 2")
        s1.execute("ROLLBACK TO SAVEPOINT sp")
        s1.execute("COMMIT")
        assert s1.query("SELECT COUNT(*) FROM t") == [(2,)]
        assert s1.query("SELECT v FROM t WHERE id = 1") == [(99,)]

    def test_upgrade_deadlock_aborts_youngest(self, db, mgr):
        _seed(db)
        s1, s2 = mgr.connect(), mgr.connect()
        for s in (s1, s2):
            s.execute("BEGIN")
            s.query("SELECT COUNT(*) FROM t")  # both now hold S on t
        t1, box1 = run_thread(
            lambda: s1.execute("UPDATE t SET v = v + 1 WHERE id = 1")
        )
        t2, box2 = run_thread(
            lambda: s2.execute("UPDATE t SET v = v + 1 WHERE id = 2")
        )
        join_dead(t1)
        join_dead(t2)
        # both upgrades S->X can only proceed by aborting the youngest
        assert "error" not in box1
        assert isinstance(box2.get("error"), SerializationError)
        assert not s2.in_txn, "victim transaction must be rolled back"
        assert mgr.locks.held(s2.id) == []
        s1.execute("COMMIT")
        assert s1.query("SELECT v FROM t WHERE id = 1") == [(11,)]
        assert s1.query("SELECT v FROM t WHERE id = 2") == [(20,)]
        snap = db.metrics_snapshot()["sessions"]
        assert snap["lock_deadlocks"] == 1
        assert snap["aborts"] == 1

    def test_lock_timeout_aborts_whole_txn(self, db):
        mgr = SessionManager(db, SessionConfig(lock_timeout=0.02))
        _seed(db)
        s1, s2 = mgr.connect(), mgr.connect()
        s1.execute("BEGIN")
        s1.execute("UPDATE t SET v = 0 WHERE id = 1")
        s2.execute("BEGIN")
        with pytest.raises(LockTimeoutError):
            s2.execute("UPDATE t SET v = 1 WHERE id = 1")
        assert not s2.in_txn
        assert mgr.locks.held(s2.id) == []
        s1.execute("COMMIT")
        # the survivor's work went through untouched
        assert s1.query("SELECT v FROM t WHERE id = 1") == [(0,)]
        mgr.close()

    def test_dml_subquery_sources_are_locked(self, db):
        # The UPDATE reads u through its SET subquery, so it must wait for
        # s2's X lock on u instead of reading s2's uncommitted 100.
        mgr = SessionManager(
            db, SessionConfig(lock_timeout=0.05, max_retries=0)
        )
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, y INT)")
        db.execute("INSERT INTO t VALUES (1, 0)")
        db.execute("INSERT INTO u VALUES (1, 1)")
        s1, s2 = mgr.connect(), mgr.connect()
        s2.execute("BEGIN")
        s2.execute("UPDATE u SET y = 100")
        with pytest.raises(LockTimeoutError):
            s1.execute("UPDATE t SET x = (SELECT MAX(y) FROM u)")
        s2.execute("ROLLBACK")
        assert s1.query("SELECT x FROM t") == [(0,)]
        mgr.close()

    def test_ddl_serialises_against_open_txn(self, db):
        mgr = SessionManager(db, SessionConfig(lock_timeout=0.02))
        _seed(db)
        s1, s2 = mgr.connect(), mgr.connect()
        s1.execute("BEGIN")
        s1.query("SELECT COUNT(*) FROM t")  # holds catalog S to txn end
        with pytest.raises(LockTimeoutError):
            s2.execute("CREATE TABLE u (id INT PRIMARY KEY)")  # catalog X
        s1.execute("COMMIT")
        s2.execute("CREATE TABLE u (id INT PRIMARY KEY)")
        assert "u" in db.table_names()
        mgr.close()

    def test_busy_admission_and_release(self, db, mgr):
        sessions = [mgr.connect() for _ in range(4)]
        with pytest.raises(BusyError) as exc_info:
            mgr.connect()
        assert exc_info.value.retryable
        assert mgr.stats["busy_rejections"] == 1
        sessions[0].close()
        replacement = mgr.connect()  # freed slot is reusable
        assert replacement.id not in (s.id for s in sessions)

    def test_closed_session_refuses_statements(self, db, mgr):
        session = mgr.connect()
        session.close()
        session.close()  # idempotent
        with pytest.raises(SessionError):
            session.execute("SELECT 1")

    def test_close_with_open_txn_rolls_back(self, db, mgr):
        _seed(db)
        s1 = mgr.connect()
        s1.execute("BEGIN")
        s1.execute("DELETE FROM t WHERE id = 1")
        s1.close()
        s2 = mgr.connect()
        assert s2.query("SELECT COUNT(*) FROM t") == [(2,)]


class TestStaleLockset:
    """DDL that commits between a statement's lockset derivation and its
    run — staged without racing threads: the intruder's statements run
    inside the victim's ``_acquire_locks`` call."""

    @staticmethod
    def _intrude(mgr, monkeypatch, victim, intrusions):
        """Before each of the victim's lock acquisitions run the next batch
        of *intrusions*; returns the locksets the victim acquired."""
        real = mgr._acquire_locks
        intruder = mgr.connect()
        pending = iter(intrusions)
        passes = []

        def acquire(session, lockset):
            if session is victim:
                passes.append(lockset)
                for sql in next(pending, ()):
                    intruder.execute(sql)
            return real(session, lockset)

        monkeypatch.setattr(mgr, "_acquire_locks", acquire)
        return passes

    def test_unrelated_ddl_does_not_restart_the_statement(self, db, mgr, monkeypatch):
        victim = mgr.connect()
        passes = self._intrude(
            mgr, monkeypatch, victim, [["CREATE TABLE b (id INT PRIMARY KEY)"]]
        )
        generation = db.catalog.generation
        victim.execute("CREATE TABLE a (id INT PRIMARY KEY)")
        assert db.catalog.generation > generation + 1  # both DDLs committed
        assert {"a", "b"} <= set(db.table_names())
        assert len(passes) == 1, "an identical re-derived lockset must run at once"
        assert mgr.locks.held(victim.id) == []

    def test_a_lockset_that_really_changed_is_reacquired(self, db, mgr, monkeypatch):
        _seed(db)
        db.execute("CREATE TABLE u (id INT PRIMARY KEY)")
        db.execute("CREATE VIEW w AS SELECT id FROM t")
        victim = mgr.connect()
        passes = self._intrude(
            mgr, monkeypatch, victim,
            [["DROP VIEW w", "CREATE VIEW w AS SELECT id FROM u"]],
        )
        assert victim.query("SELECT COUNT(*) FROM w") == [(0,)]  # u is empty
        assert [[name for name, _ in lockset] for lockset in passes] == [
            ["__catalog__", "t"], ["__catalog__", "u"]
        ]
        assert mgr.locks.held(victim.id) == []

    def test_a_lockset_that_never_settles_still_gives_up(self, db, mgr, monkeypatch):
        _seed(db)
        db.execute("CREATE TABLE u (id INT PRIMARY KEY)")
        db.execute("CREATE VIEW w AS SELECT id FROM t")
        victim = mgr.connect()
        flips = [
            ["DROP VIEW w", f"CREATE VIEW w AS SELECT id FROM {base}"]
            for base in ["u", "t"] * 5
        ]
        passes = self._intrude(mgr, monkeypatch, victim, flips)
        with pytest.raises(SessionError, match="would not stabilise"):
            victim.execute("SELECT COUNT(*) FROM w")
        assert len(passes) == 10
        assert mgr.locks.held(victim.id) == []


class TestRetryPolicy:
    def test_autocommit_retries_with_seeded_backoff(self, db, mgr):
        _seed(db)
        session = mgr.connect()
        real_execute = mgr.execute
        failures = {"left": 2}

        def flaky(sess, sql):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise LockTimeoutError("synthetic contention")
            return real_execute(sess, sql)

        mgr.execute = flaky
        sleeps = []
        session._sleep = sleeps.append
        assert session.query("SELECT COUNT(*) FROM t") == [(2,)]
        assert session.stats["retries"] == 2
        assert len(sleeps) == 2
        # jitter is seeded: the exact backoffs are reproducible, and each
        # is within [span/2, span] of the exponential schedule
        config = mgr.config
        for attempt, slept in enumerate(sleeps, start=1):
            span = min(
                config.backoff_cap, config.backoff_base * 2 ** (attempt - 1)
            )
            assert span * 0.5 <= slept <= span

    def test_retry_budget_exhausts(self, db, mgr):
        session = mgr.connect()
        mgr.execute = lambda sess, sql: (_ for _ in ()).throw(
            LockTimeoutError("always busy")
        )
        with pytest.raises(LockTimeoutError):
            session.execute("SELECT 1")
        assert session.stats["retries"] == mgr.config.max_retries

    def test_no_retry_inside_explicit_txn(self, db, mgr):
        _seed(db)
        session = mgr.connect()
        session.execute("BEGIN")
        real_execute = mgr.execute
        calls = {"n": 0}

        def fail_once(sess, sql):
            calls["n"] += 1
            raise SerializationError("deadlock victim")

        mgr.execute = fail_once
        with pytest.raises(SerializationError):
            session.execute("UPDATE t SET v = 0 WHERE id = 1")
        assert calls["n"] == 1, "in-txn statements must not auto-retry"
        assert session.stats["retries"] == 0
        mgr.execute = real_execute

    def test_statement_timeout_is_not_retryable(self, db):
        mgr = SessionManager(
            db, SessionConfig(statement_max_rows=5, max_retries=3)
        )
        _seed(db)
        db.execute(
            "INSERT INTO t VALUES (3,1),(4,1),(5,1),(6,1),(7,1),(8,1)"
        )
        session = mgr.connect()
        with pytest.raises(StatementTimeoutError) as exc_info:
            session.query("SELECT * FROM t")
        assert not exc_info.value.retryable
        assert session.stats["retries"] == 0
        assert mgr.stats["statement_timeouts"] == 1
        # the session survives and small statements still run
        assert session.query("SELECT v FROM t WHERE id = 1") == [(10,)]
        mgr.close()

    def test_explain_analyze_pays_the_row_budget_and_counts_batches(self, db):
        # EXPLAIN ANALYZE *runs* the query: it used to drain the plan
        # itself, bypassing the budget and the executor counters.
        _seed(db)
        db.execute(
            "INSERT INTO t VALUES " + ",".join(f"({i},1)" for i in range(3, 201))
        )
        before = db.metrics_snapshot()["executor"]["batches"]
        result = db.execute("EXPLAIN ANALYZE SELECT * FROM t")
        assert result.rowcount == 200 and result.rows == []
        assert db.metrics_snapshot()["executor"]["batches"] > before
        db.statement_max_rows = 50
        with pytest.raises(StatementTimeoutError):
            db.execute("SELECT * FROM t")
        with pytest.raises(StatementTimeoutError):
            db.execute("EXPLAIN ANALYZE SELECT * FROM t")


class TestDegradation:
    def test_undo_failure_degrades_to_read_only(self, db, mgr):
        _seed(db)
        session = mgr.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (9, 90)")

        class BoomTable:
            name = "t"

            def insert(self, row):
                raise RuntimeError("heap write failed mid-undo")

        # poison the undo log: rolling back will fail partway
        session.txn._entries.append(
            UndoEntry("delete", BoomTable(), row=(99, 0))
        )
        with pytest.raises(TransactionError):
            session.execute("ROLLBACK")
        assert db.read_only, "partial undo must degrade the engine"
        assert session.txn.stats["undo_failures"] == 1
        assert db.metrics_snapshot()["txn"]["undo_failures"] == 1
        with pytest.raises(ReadOnlyError):
            db.execute("INSERT INTO t VALUES (10, 100)")

    def test_checkpoint_refuses_dirty_session_txn(self, tmp_path):
        db = Database(path=str(tmp_path / "ckpt_db"))
        mgr = SessionManager(db)
        _seed(db)
        session = mgr.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (3, 30)")
        with pytest.raises(TransactionError):
            db.checkpoint()  # no-steal: dirty session undo may not flush
        session.execute("COMMIT")
        db.checkpoint()
        mgr.close()
        db.close()

    def test_session_ddl_does_not_flush_an_embedded_txn(self, tmp_path):
        # The DDL's checkpoint would write the embedded transaction's
        # uncommitted row into the heap files (no-steal), so it is skipped.
        db = Database(path=str(tmp_path / "db"), fsync=False)
        mgr = SessionManager(db)
        db.execute("CREATE TABLE t (id INT)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        mgr.connect().execute("CREATE TABLE z (id INT)")
        image = str(tmp_path / "image")
        shutil.copytree(db.path, image)
        crashed = Database(path=image, fsync=False)
        assert crashed.query("SELECT * FROM t") == []
        crashed.close()
        db.execute("COMMIT")
        mgr.close()
        db.close()
        reopened = Database(path=db.path, fsync=False)
        assert reopened.query("SELECT * FROM t") == [(1,)]
        assert "z" in reopened.table_names()
        reopened.close()

    def test_wal_scopes_keep_commit_groups_separate(self, tmp_path):
        path = str(tmp_path / "scoped_db")
        db = Database(path=path)
        mgr = SessionManager(db)
        db.execute("CREATE TABLE a (id INT PRIMARY KEY)")
        db.execute("CREATE TABLE b (id INT PRIMARY KEY)")
        s1, s2 = mgr.connect(), mgr.connect()
        s1.execute("BEGIN")
        s1.execute("INSERT INTO a VALUES (1)")
        s2.execute("BEGIN")
        s2.execute("INSERT INTO b VALUES (2)")
        s1.execute("COMMIT")  # must not drag s2's pending frames along
        s2.execute("ROLLBACK")
        mgr.close()
        db.close()
        reopened = Database(path=path)
        assert reopened.query("SELECT COUNT(*) FROM a") == [(1,)]
        assert reopened.query("SELECT COUNT(*) FROM b") == [(0,)]
        assert reopened.integrity_check().ok
        reopened.close()


class TestTelemetry:
    def test_statements_carry_session_and_cache_attribution(self, db, mgr):
        _seed(db)
        db.execute("GRANT SELECT ON t TO carol")
        session = mgr.connect("carol")
        session.query("SELECT v FROM t WHERE id = 1")
        session.query("SELECT v FROM t WHERE id = 1")
        records = [
            r for r in db.statement_log.records()
            if r.sql and r.sql.startswith("SELECT v FROM t")
        ]
        assert [r.session for r in records] == [session.id, session.id]
        assert [r.cache for r in records] == ["miss", "hit"]

    def test_sessions_table_joins_statements(self, db, mgr):
        _seed(db)
        db.execute("GRANT SELECT, UPDATE ON t TO dave")
        session = mgr.connect("dave")
        session.execute("BEGIN")
        session.execute("UPDATE t SET v = 0 WHERE id = 1")
        rows = db.query(
            "SELECT id, user_name, in_txn, locks FROM _sessions"
        )
        assert rows == [
            (session.id, "dave", 1, f"{CATALOG_RESOURCE}:S,t:X")
        ]
        joined = db.query(
            "SELECT s.user_name, COUNT(*) FROM _statements st "
            "JOIN _sessions s ON st.session = s.id GROUP BY s.user_name"
        )
        assert joined == [("dave", 2)]
        session.execute("COMMIT")

    def test_metrics_snapshot_sessions_section(self, db, mgr):
        session = mgr.connect()
        session.query("SELECT 1")
        snap = db.metrics_snapshot()["sessions"]
        assert snap["enabled"] == 1
        assert snap["active"] == 1
        assert snap["statements"] == 1
        assert snap["max_sessions"] == 4
        for key in ("lock_acquired", "lock_waits", "lock_deadlocks",
                    "lock_timeouts", "lock_upgrades"):
            assert key in snap

    def test_sessions_disabled_snapshot(self, db):
        assert db.metrics_snapshot()["sessions"] == {"enabled": 0}


# ---------------------------------------------------------------------------
# Wire protocol and server
# ---------------------------------------------------------------------------


class TestFrames:
    def test_roundtrip_and_eof(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"op": "ping", "n": 1})
            assert recv_frame(b) == {"op": "ping", "n": 1}
            a.close()
            assert recv_frame(b) is None  # clean EOF

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(ValueError):
                recv_frame(b)

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(FRAME_HEADER.pack(100) + b'{"op":')
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)


class TestServer:
    def test_execute_roundtrip(self):
        db = Database()
        with DatabaseServer(db, port=0) as server:
            host, port = server.address
            with RemoteSession(host, port, user="erin") as remote:
                remote.execute("CREATE TABLE r (id INT PRIMARY KEY, v INT)")
                result = remote.execute("INSERT INTO r VALUES (1, 5), (2, 6)")
                assert result.rowcount == 2
                assert remote.query("SELECT v FROM r WHERE id = 2") == [(6,)]
                assert remote.ping()
                metrics = remote.metrics()
                assert metrics["active"] == 1
                assert metrics["statements"] >= 3
        db.close()

    def test_error_frames_rebuild_exceptions(self):
        db = Database()
        with DatabaseServer(db, port=0) as server:
            host, port = server.address
            with RemoteSession(host, port) as remote:
                with pytest.raises(CatalogError):
                    remote.query("SELECT * FROM missing")
                # the connection survives an error frame
                assert remote.ping()
        db.close()

    def test_busy_server_refuses_with_retryable_frame(self):
        db = Database()
        config = SessionConfig(max_sessions=1)
        with DatabaseServer(db, port=0, config=config) as server:
            host, port = server.address
            with RemoteSession(host, port):
                with pytest.raises(BusyError) as exc_info:
                    RemoteSession(host, port, connect_retries=0)
                assert exc_info.value.retryable
        db.close()

    def test_connect_retry_after_slot_frees(self):
        db = Database()
        config = SessionConfig(max_sessions=1)
        with DatabaseServer(db, port=0, config=config) as server:
            host, port = server.address
            first = RemoteSession(host, port)

            def connect_patiently():
                # retries hello with backoff until the slot frees
                return RemoteSession(host, port, connect_retries=50, seed=3)

            thread, box = run_thread(connect_patiently)
            wait_until(
                lambda: server.manager.stats["busy_rejections"] >= 1
            )
            first.close()
            join_dead(thread)
            assert "error" not in box
            box["value"].close()
        db.close()
