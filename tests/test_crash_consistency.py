"""Crash-consistency: fault injection, WAL v2, checkpoints, degradation.

The heart of this file is the **crash-point exhaustion harness**: a mixed
workload (inserts, a view update, DDL, an explicit checkpoint, committed
and rolled-back transactions) is first run once to count every
fault-injectable I/O call, then re-run once per call with a simulated
kill -9 injected there.  Every crashed world is reopened and must satisfy
the recovery invariants:

* the observable state equals the state after the last completed step or
  after the in-flight step (statement atomicity — never in between);
* ``integrity_check()`` is clean (indexes, FKs, catalog all consistent);
* a pure crash never degrades the reopened database to read-only.

Set ``CRASH_MAX_POINTS`` to bound the exhaustion for smoke runs (CI); by
default every enumerated point is exercised.
"""

import json
import os
import shutil
import zlib

import pytest

from repro.errors import ReadOnlyError, StorageError
from repro.relational.database import Database
from repro.relational.faults import (
    FaultInjector,
    InjectedCrash,
    IOShim,
    crash_points,
    exhaust_crash_points,
    select_points,
)
from repro.relational.integrity import (
    JOURNAL_NAME,
    read_checkpoint_journal,
    rollback_checkpoint_journal,
    write_checkpoint_journal,
)
from repro.relational.wal import _frame


def _max_points(default=None):
    value = os.environ.get("CRASH_MAX_POINTS")
    return int(value) if value else default


def _hard_close(db):
    """Release file handles the way a dead process would: no flushing."""
    for pager in db._pagers.values():
        if pager._fd is not None:
            os.close(pager._fd)
            pager._fd = None
    if db.wal is not None and db.wal._fd is not None:
        os.close(db.wal._fd)
        db.wal._fd = None


def _observe(db):
    """The logical state the invariants compare: rows and object names."""
    tables = {}
    for name in db.table_names():
        tables[name] = sorted(db.catalog.table(name).rows())
    return {"tables": tables, "views": sorted(db.view_names())}


class _Workload:
    """The mixed workload the exhaustion harness drives.

    Each call to :meth:`run` starts from an empty directory and performs
    the same step sequence, snapshotting the expected logical state after
    every step; a crash leaves ``self.completed`` at the last finished
    step so the verifier knows which snapshots are legal outcomes.
    """

    def __init__(self, path, db_kwargs=None):
        self.path = path
        #: extra Database() arguments (e.g. a tiny pool_size to force the
        #: no-steal policy to carry dirty pages past the pool target)
        self.db_kwargs = db_kwargs or {}
        #: per-step expected states, recorded once by the enumeration pass
        #: (the step sequence is deterministic, so they hold for every run)
        self.baseline = []
        self.completed = 0

    def steps(self, db):
        yield db.execute, "CREATE TABLE dept (id INT PRIMARY KEY, name TEXT)"
        yield db.execute, (
            "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept_id INT, "
            "FOREIGN KEY (dept_id) REFERENCES dept (id))"
        )
        yield db.execute, "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales')"
        yield db.execute, (
            "INSERT INTO emp VALUES (1, 'ada', 1), (2, 'bob', 2), (3, 'cyn', 1)"
        )
        yield db.execute, (
            "CREATE VIEW eng AS SELECT id, name, dept_id FROM emp "
            "WHERE dept_id = 1 WITH CHECK OPTION"
        )
        yield (lambda: db.update("eng", {"name": "ADA"}, "id = 1")), None
        yield db.execute, "CREATE INDEX ix_emp_dept ON emp (dept_id)"
        yield db.checkpoint, None
        yield db.execute, "BEGIN"
        yield db.execute, "INSERT INTO emp VALUES (4, 'dee', 2)"
        yield db.execute, "COMMIT"
        yield db.execute, "BEGIN"
        yield db.execute, "INSERT INTO emp VALUES (5, 'eve', 1)"
        yield db.execute, "ROLLBACK"
        yield db.execute, "DELETE FROM emp WHERE id = 2"
        yield db.close, None

    def run(self, shim):
        shutil.rmtree(self.path, ignore_errors=True)
        recording = shim.crash_at is None  # the enumeration pass
        if recording:
            self.baseline = []
        self.completed = 0
        db = Database(path=self.path, fsync=True, io=shim, **self.db_kwargs)
        try:
            for func, arg in self.steps(db):
                func(arg) if arg is not None else func()
                self.completed += 1
                if recording:
                    # The baseline is the *durable* state after each step:
                    # inside an open transaction nothing new is durable yet
                    # (a crash loses the uncommitted group), and close()
                    # released the handles, so both reuse the prior entry.
                    if db.wal is None or db.txn.active:
                        self.baseline.append(self.baseline[-1])
                    else:
                        self.baseline.append(_observe(db))
        except BaseException:
            _hard_close(db)
            raise

    def verify(self, shim):
        db = Database(path=self.path, fsync=False, **self.db_kwargs)
        try:
            assert not db.read_only, (
                f"pure crash degraded the database; events="
                f"{db._corruption_events} calls={shim.calls[-3:]}"
            )
            assert db.wal.recovery_stats["unmatched_ops"] == 0, (
                f"redo could not place an op after crash at call {shim.crash_at}"
            )
            report = db.integrity_check()
            assert report.ok, (
                f"integrity violations after crash at call {shim.crash_at}: "
                f"{report.to_lines()}"
            )
            observed = _observe(db)
            # Statement atomicity: the recovered world is either before or
            # after the in-flight step, never in between.
            legal = [self.baseline[self.completed - 1]] if self.completed else [
                {"tables": {}, "views": []}
            ]
            if self.completed < len(self.baseline):
                legal.append(self.baseline[self.completed])
            assert observed in legal, (
                f"crash at call {shim.crash_at} (step {self.completed + 1} "
                f"in flight, last I/O {shim.calls[-1:]}) recovered to a "
                f"state matching no step boundary:\n{observed}\nlegal:\n{legal}"
            )
        finally:
            _hard_close(db)


class TestCrashExhaustion:
    def test_mixed_workload_every_crash_point(self, tmp_path):
        workload = _Workload(str(tmp_path / "db"))
        # Enumeration pass establishes the baseline snapshots and coverage.
        counter = crash_points(workload.run)
        assert counter.io_calls > 30, "workload exercises too few I/O points"
        ops = {op for op, _ in counter.calls}
        assert {"write", "fsync", "ftruncate", "replace", "remove"} <= ops
        points = exhaust_crash_points(
            workload.run, workload.verify, max_points=_max_points()
        )
        assert points, "no crash points exercised"
        if _max_points() is None:
            assert len(points) == counter.io_calls  # full coverage

    def test_mixed_workload_under_pool_pressure(self, tmp_path):
        """The full exhaustion sweep with a pool of two pages.

        Nearly every page access overflows the pool, so the no-steal
        policy is exercised at each crash point: a dirty page stolen to
        disk would surface as a recovery mismatch here, and a broken
        eviction-queue discipline raises StorageError inside the pager
        before the crash even lands.
        """
        workload = _Workload(
            str(tmp_path / "db"),
            db_kwargs={"pool_size": 2, "prefetch_pages": 4},
        )
        points = exhaust_crash_points(
            workload.run, workload.verify, max_points=_max_points(25)
        )
        assert points

    def test_mixed_workload_torn_writes(self, tmp_path):
        """Crashes that tear the in-flight write half-way still recover."""
        workload = _Workload(str(tmp_path / "db"))
        points = exhaust_crash_points(
            workload.run, workload.verify, torn=True,
            max_points=_max_points(25),
        )
        assert points

    def test_vectorized_execution_survives_crash_exhaustion(self, tmp_path):
        """The batched executor is the recovery-verification path too.

        Batched execution is the only statement path, so every recovery +
        integrity check above already runs through batched scans; this
        pins that explicitly with a small workload and exercises a
        batched query against each recovered database.
        """
        path = str(tmp_path / "db")

        def run(shim):
            shutil.rmtree(path, ignore_errors=True)
            db = Database(path=path, fsync=True, io=shim)
            try:
                db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, val INT)")
                db.execute(
                    "INSERT INTO t VALUES (1, 'a', 10), (2, 'b', NULL), (3, 'c', 30)"
                )
                db.checkpoint()
                db.execute("UPDATE t SET val = 11 WHERE id = 1")
                db.execute("DELETE FROM t WHERE id = 2")
                db.close()
            except BaseException:
                _hard_close(db)
                raise

        def verify(shim):
            db = Database(path=path, fsync=False)
            try:
                assert db.wal.recovery_stats["unmatched_ops"] == 0
                report = db.integrity_check()  # scans via scan_batched()
                assert report.ok, report.to_lines()
                # A query through the batched executor agrees with the
                # tuple-at-a-time heap scan of the same table.  (A crash
                # before the CREATE committed recovers to no table at all.)
                if "t" in db.table_names():
                    rows = db.query("SELECT id, name, val FROM t ORDER BY id")
                    assert rows == sorted(db.catalog.table("t").rows())
            finally:
                _hard_close(db)

        points = exhaust_crash_points(run, verify, max_points=_max_points(30))
        assert points, "no crash points exercised"

    def test_select_points_sampling(self):
        assert select_points(5, None) == [1, 2, 3, 4, 5]
        assert select_points(5, 10) == [1, 2, 3, 4, 5]
        sampled = select_points(100, 7)
        assert sampled[0] == 1 and sampled[-1] == 100 and len(sampled) == 7
        assert select_points(0, 5) == []
        # CRASH_MAX_POINTS=1 must test a single point, not crash.
        assert select_points(100, 1) == [1]
        assert select_points(1, 1) == [1]
        assert select_points(5, 0) == []


def _setup_disk(path, rows=3):
    db = Database(path=path, fsync=False)
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
    for i in range(rows):
        db.insert("t", {"a": i, "b": f"row-{i}"})
    return db


class TestCheckpointOrdering:
    """Targeted crashes at each stage of the 5-step checkpoint protocol."""

    def _crash_checkpoint_at(self, path, op, occurrence=1):
        """Crash a checkpoint at the Nth shim call matching *op*."""
        db = _setup_disk(path)
        db.checkpoint()
        db.insert("t", {"a": 100, "b": "after-ckpt"})
        db.update("t", {"b": "ROW-0"}, "a = 0")
        counting = FaultInjector()
        db._io = counting
        for pager in db._pagers.values():
            pager._io = counting
        db.wal._io = counting
        db.checkpoint()
        hits = [i for i, (o, _) in enumerate(counting.calls, 1) if o == op]
        assert len(hits) >= occurrence, f"checkpoint never reached {op}"
        db.close()

        # Fresh database, same content, crash this time.
        shutil.rmtree(path)
        db = _setup_disk(path)
        db.checkpoint()
        db.insert("t", {"a": 100, "b": "after-ckpt"})
        db.update("t", {"b": "ROW-0"}, "a = 0")
        shim = FaultInjector(crash_at=hits[occurrence - 1])
        db._io = shim
        for pager in db._pagers.values():
            pager._io = shim
        db.wal._io = shim
        with pytest.raises(InjectedCrash):
            db.checkpoint()
        _hard_close(db)
        return Database(path=path, fsync=False)

    EXPECTED = [(0, "ROW-0"), (1, "row-1"), (2, "row-2"), (100, "after-ckpt")]

    @pytest.mark.parametrize(
        "op", ["write", "fsync", "replace", "ftruncate", "remove"]
    )
    def test_crash_at_each_protocol_stage(self, tmp_path, op, request):
        """No stage of the checkpoint may lose or double-apply rows.

        ``write`` hits the journal, ``fsync`` the heap flush, ``replace``
        the catalog commit point, ``ftruncate`` the WAL truncation, and
        ``remove`` the journal deletion — one crash per protocol step.
        """
        db = self._crash_checkpoint_at(str(tmp_path / "db"), op)
        try:
            assert not db.read_only
            assert db.query("SELECT * FROM t ORDER BY a") == self.EXPECTED
            assert db.integrity_check().ok
        finally:
            _hard_close(db)

    def test_crash_between_rename_and_truncate_does_not_double_apply(
        self, tmp_path
    ):
        """The historical hole: catalog renamed, WAL not yet truncated.

        Without group sequence numbers the replay would re-apply every
        committed group on top of the already-flushed heaps, doubling rows
        (inserts) or corrupting them (updates).  ``checkpoint_seq`` makes
        replay skip the covered groups.
        """
        db = self._crash_checkpoint_at(str(tmp_path / "db"), "ftruncate")
        try:
            counts = db.query("SELECT COUNT(*) FROM t")
            assert counts == [(4,)], f"rows double-applied: {counts}"
            assert db.wal.recovery_stats["skipped_groups"] > 0
            assert db.wal.recovery_stats["unmatched_ops"] == 0
        finally:
            _hard_close(db)

    def test_journal_roundtrip_and_idempotent_rollback(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        db.checkpoint()
        db.update("t", {"b": "CHANGED"}, "a = 1")
        journal_path = os.path.join(path, JOURNAL_NAME)
        assert write_checkpoint_journal(journal_path, 7, db._pagers)
        journal = read_checkpoint_journal(journal_path)
        assert journal is not None and journal["seq"] == 7
        db.close()  # flushes CHANGED into the heap (and clears the journal)
        # Roll back twice: idempotent, lands on the checkpointed image.
        rollback_checkpoint_journal(journal, path)
        rollback_checkpoint_journal(journal, path)
        db2 = Database(path=path, fsync=False)
        try:
            # Heap is pre-update, and the WAL was truncated by close(), so
            # the update is gone — exactly the journal's contract.
            assert db2.query("SELECT b FROM t WHERE a = 1") == [("row-1",)]
        finally:
            _hard_close(db2)

    def test_incomplete_journal_is_ignored(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        db.close()
        with open(os.path.join(path, JOURNAL_NAME), "w") as fh:
            fh.write('{"t": "begin", "v": 1, "seq": 99, "files"')  # torn
        db2 = Database(path=path, fsync=False)
        try:
            assert not db2.read_only
            assert not os.path.exists(os.path.join(path, JOURNAL_NAME))
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3
        finally:
            db2.close()


class TestWalV2:
    def test_flipped_byte_degrades_to_read_only(self, tmp_path):
        """A single flipped WAL byte is caught by the CRC: the database
        opens read-only with a populated integrity report — no traceback."""
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)  # crash: WAL holds all rows
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "r+b") as fh:
            data = fh.read()
            # Flip a byte inside the first record's JSON payload, so valid
            # records follow the damage (real corruption, not a torn tail).
            target = data.index(b'"t"')
            fh.seek(target)
            fh.write(bytes([data[target] ^ 0x40]))

        db2 = Database(path=path, fsync=False)  # must not raise
        try:
            assert db2.read_only
            report = db2.integrity_check()
            assert not report.ok
            assert any(f.component == "wal" for f in report.findings)
            assert any("CRC" in f.message for f in report.findings)
            snap = db2.metrics_snapshot()["integrity"]
            assert snap["read_only"] is True
            assert snap["corruption_events"] >= 1
            assert snap["wal_crc_errors"] >= 1
        finally:
            db2.close()

    def test_read_only_gates_every_write_path(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        with open(os.path.join(path, "wal.log"), "r+b") as fh:
            data = fh.read()
            fh.seek(data.index(b'"t"'))
            fh.write(b"X")
        db2 = Database(path=path, fsync=False)
        try:
            # Reads still work on whatever replayed cleanly.
            db2.query("SELECT * FROM t")
            with pytest.raises(ReadOnlyError):
                db2.insert("t", {"a": 50, "b": "x"})
            with pytest.raises(ReadOnlyError):
                db2.execute("UPDATE t SET b = 'x' WHERE a = 0")
            with pytest.raises(ReadOnlyError):
                db2.execute("DELETE FROM t")
            with pytest.raises(ReadOnlyError):
                db2.execute("CREATE TABLE u (a INT)")
            with pytest.raises(ReadOnlyError):
                db2.execute("DROP TABLE t")
            with pytest.raises(ReadOnlyError):
                db2.execute("CREATE INDEX ix ON t (b)")
            wal_size = os.path.getsize(os.path.join(path, "wal.log"))
            db2.checkpoint()  # silently does nothing
            assert os.path.getsize(os.path.join(path, "wal.log")) == wal_size
        finally:
            db2.close()
        # close() must not have "repaired" anything: still degraded on reopen.
        db3 = Database(path=path, fsync=False)
        try:
            assert db3.read_only
        finally:
            db3.close()

    def test_v1_checksum_less_wal_still_replays(self, tmp_path):
        """Regression: logs written before the v2 format open cleanly."""
        path = str(tmp_path / "db")
        db = _setup_disk(path, rows=1)
        db.close()  # checkpoint; WAL now empty
        v1 = [
            json.dumps({"t": "insert", "tab": "t", "row": [7, "seven"]}),
            json.dumps({"t": "commit"}),
            json.dumps({"t": "update", "tab": "t", "old": [7, "seven"], "new": [7, "SEVEN"]}),
            json.dumps({"t": "commit"}),
        ]
        with open(os.path.join(path, "wal.log"), "w") as fh:
            fh.write("\n".join(v1) + "\n")
        db2 = Database(path=path, fsync=False)
        try:
            assert not db2.read_only
            assert db2.query("SELECT * FROM t ORDER BY a") == [
                (0, "row-0"), (7, "SEVEN"),
            ]
        finally:
            db2.close()

    def test_torn_tail_still_tolerated(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        with open(os.path.join(path, "wal.log"), "ab") as fh:
            fh.write(b"2|9|deadbeef|{\"t\": \"ins")  # torn final write
        db2 = Database(path=path, fsync=False)
        try:
            assert not db2.read_only
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3
            assert db2.wal.recovery_stats["torn_tail_records"] >= 1
            assert db2.wal.recovery_stats["unmatched_ops"] == 0
        finally:
            db2.close()

    def test_torn_tail_is_truncated_before_new_appends(self, tmp_path):
        """Crash -> recover -> commit -> crash (two generations).

        Recovery discards a torn tail; it must also truncate it from the
        file — the fd is O_APPEND, so a leftover newline-less fragment
        would otherwise share a line with the first post-recovery commit
        and the SECOND recovery would read that acknowledged group as
        corruption, bricking the database.
        """
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        wal_path = os.path.join(path, "wal.log")
        committed_size = os.path.getsize(wal_path)
        with open(wal_path, "ab") as fh:
            fh.write(b'2|9|deadbeef|{"t": "ins')  # torn write, no newline
        db2 = Database(path=path, fsync=False)
        assert os.path.getsize(wal_path) == committed_size  # tail gone
        assert db2.wal.recovery_stats["tail_truncated_bytes"] > 0
        assert db2.wal.recovery_stats["unmatched_ops"] == 0
        db2.insert("t", {"a": 50, "b": "second-generation"})
        _hard_close(db2)
        db3 = Database(path=path, fsync=False)
        try:
            assert not db3.read_only, f"events={db3._corruption_events}"
            assert db3.execute("SELECT COUNT(*) FROM t").scalar() == 4
            assert db3.query("SELECT b FROM t WHERE a = 50") == [
                ("second-generation",)
            ]
            assert db3.integrity_check().ok
        finally:
            _hard_close(db3)

    def test_uncommitted_tail_is_truncated_on_recovery(self, tmp_path):
        """Orphan uncommitted records are erased, not merely skipped.

        If they stayed in the file, the next commit (a different group
        seq) would follow them as a group-seq-mismatching continuation and
        the following open would silently drop that acknowledged group.
        """
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        wal_path = os.path.join(path, "wal.log")
        committed_size = os.path.getsize(wal_path)
        orphan = _frame(4, json.dumps({"t": "insert", "tab": "t", "row": [9, "orphan"]}))
        with open(wal_path, "ab") as fh:
            fh.write(orphan.encode() + b"\n")
        db2 = Database(path=path, fsync=False)
        assert os.path.getsize(wal_path) == committed_size
        db2.insert("t", {"a": 4, "b": "four"})
        _hard_close(db2)
        db3 = Database(path=path, fsync=False)
        try:
            assert not db3.read_only, f"events={db3._corruption_events}"
            # The committed post-recovery row survives; the orphan doesn't.
            assert db3.query("SELECT a FROM t ORDER BY a") == [
                (0,), (1,), (2,), (4,),
            ]
        finally:
            _hard_close(db3)

    def test_undecodable_bytes_treated_as_torn_line(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        with open(os.path.join(path, "wal.log"), "ab") as fh:
            fh.write(b"\xff\xfe garbage \x80\n")
        db2 = Database(path=path, fsync=False)
        try:
            assert not db2.read_only
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3
        finally:
            db2.close()

    def test_unknown_record_kind_rejected(self, tmp_path):
        """An unknown ``t`` mid-log is corruption (valid records follow)."""
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        wal_path = os.path.join(path, "wal.log")
        unknown = _frame(1, json.dumps({"t": "mystery", "tab": "t"}))
        with open(wal_path, "rb") as fh:
            original = fh.read()
        with open(wal_path, "wb") as fh:
            fh.write(unknown.encode() + b"\n" + original)
        db2 = Database(path=path, fsync=False)
        try:
            assert db2.read_only  # valid records followed the junk
        finally:
            db2.close()

    def test_unknown_record_kind_at_tail_discarded(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        unknown = _frame(9, json.dumps({"t": "mystery", "tab": "t"}))
        with open(os.path.join(path, "wal.log"), "ab") as fh:
            fh.write(unknown.encode() + b"\n")
        db2 = Database(path=path, fsync=False)
        try:
            assert not db2.read_only
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3
        finally:
            db2.close()

    def test_frame_crc_covers_seq(self):
        """Splicing a record into a different group must break the CRC."""
        payload = json.dumps({"t": "commit"})
        framed = _frame(3, payload)
        spliced = framed.replace("2|3|", "2|4|", 1)
        _version, seq, crc, body = spliced.split("|", 3)
        assert zlib.crc32(f"{seq}|{body}".encode()) & 0xFFFFFFFF != int(crc, 16)


class TestInjectedFailures:
    def test_short_writes_are_retried_to_completion(self, tmp_path):
        """Every durability write loops until fully written (satellite #1)."""
        path = str(tmp_path / "db")
        shim = FaultInjector(short_writes=7)
        db = Database(path=path, fsync=False, io=shim)
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
        db.bulk_insert("t", [{"a": i, "b": "x" * 50} for i in range(40)])
        db.close()
        assert any(op == "write" for op, _ in shim.calls)
        db2 = Database(path=path, fsync=False)
        try:
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 40
            assert db2.integrity_check().ok
        finally:
            db2.close()

    def test_fsync_failure_surfaces_as_storage_error(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path, fsync=True, io=FaultInjector(fail_fsync=True))
        try:
            with pytest.raises(StorageError):
                db.execute("CREATE TABLE t (a INT)")
        finally:
            _hard_close(db)

    def test_fsync_failure_during_commit_is_atomic(self, tmp_path):
        """A commit whose fsync fails must not survive in the log.

        The group (commit marker included) is already written when fsync
        raises; without the rollback truncation, recovery would replay a
        commit the caller was told failed (phantom commit), and the next
        successful commit would reuse its seq.
        """
        path = str(tmp_path / "db")
        db = Database(path=path, fsync=True)
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
        db.insert("t", {"a": 0, "b": "zero"})
        wal_path = os.path.join(path, "wal.log")
        size_before = os.path.getsize(wal_path)
        seq_before = db.wal.next_seq
        db.wal._io = FaultInjector(fail_fsync=True)
        with pytest.raises(StorageError):
            db.insert("t", {"a": 1, "b": "one"})
        # The un-fsynced group, commit marker included, was rolled back.
        assert os.path.getsize(wal_path) == size_before
        assert db.wal.next_seq == seq_before
        db.wal._io = IOShim()
        db.insert("t", {"a": 2, "b": "two"})
        _hard_close(db)
        db2 = Database(path=path, fsync=False)
        try:
            assert not db2.read_only, f"events={db2._corruption_events}"
            # The failed commit is not replayed; the later one is.
            assert db2.query("SELECT a FROM t ORDER BY a") == [(0,), (2,)]
            assert db2.integrity_check().ok
        finally:
            _hard_close(db2)

    def test_checkpoint_io_failure_degrades_to_read_only(self, tmp_path):
        """A mid-checkpoint I/O error may leave the heaps half-flushed, so
        a *retried* checkpoint would journal contaminated pre-images.  The
        database degrades instead; reopening recovers like after a crash."""
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        db.checkpoint()
        db.insert("t", {"a": 100, "b": "after-ckpt"})
        shim = FaultInjector(fail_fsync=True)
        db._io = shim
        for pager in db._pagers.values():
            pager._io = shim
        db.wal._io = shim
        with pytest.raises(StorageError):
            db.checkpoint()
        assert db.read_only
        assert any(
            e["component"] == "checkpoint" for e in db._corruption_events
        )
        with pytest.raises(ReadOnlyError):
            db.insert("t", {"a": 101, "b": "rejected"})
        _hard_close(db)
        db2 = Database(path=path, fsync=False)
        try:
            assert not db2.read_only, f"events={db2._corruption_events}"
            assert db2.query("SELECT COUNT(*) FROM t") == [(4,)]
            assert db2.integrity_check().ok
        finally:
            _hard_close(db2)

    def test_injected_crash_is_not_a_catchable_wow_error(self):
        from repro.errors import WowError

        assert not issubclass(InjectedCrash, WowError)
        assert not issubclass(InjectedCrash, Exception)

    def test_csv_export_io_is_fault_covered(self, tmp_path):
        """Regression for the WOW001 routing fix: ``export_csv`` to a path
        writes through the database's IOShim, so its I/O is counted — and
        crashable.  Before the fix the export used a raw ``open()`` and the
        crash below could never land inside it."""
        from repro.relational.csvio import export_csv

        path = str(tmp_path / "db")
        shim = FaultInjector()
        db = Database(path=path, fsync=False, io=shim)
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
        db.bulk_insert("t", [{"a": i, "b": f"row{i}"} for i in range(10)])
        before = shim.io_calls
        assert export_csv(db, "t", str(tmp_path / "t.csv")) == 10
        # Only passes with the shim routing in place: a raw open() would
        # leave the counter untouched.
        assert shim.io_calls > before

        # Arm a crash on the export's very first I/O call (the open): the
        # export dies before writing a byte, the engine state is untouched.
        out2 = str(tmp_path / "t2.csv")
        db._io = FaultInjector(crash_at=1)
        with pytest.raises(InjectedCrash):
            export_csv(db, "t", out2)
        assert not os.path.exists(out2)
        db._io = shim
        _hard_close(db)
        db2 = Database(path=path, fsync=False)
        try:
            assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 10
            assert db2.integrity_check().ok
        finally:
            _hard_close(db2)


class TestDegradedSurfaces:
    def _degraded_db(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        _hard_close(db)
        with open(os.path.join(path, "wal.log"), "r+b") as fh:
            data = fh.read()
            fh.seek(data.index(b'"t"'))
            fh.write(b"X")
        return Database(path=path, fsync=False)

    def test_forms_runtime_shows_banner_instead_of_crashing(self, tmp_path):
        from repro.forms.runtime import FormController, Mode
        from repro.forms.spec import FieldSpec, FormSpec
        from repro.relational.types import ColumnType

        db = self._degraded_db(tmp_path)
        try:
            spec = FormSpec(
                "tform", "t", "T records",
                fields=[
                    FieldSpec("a", "A", ColumnType.INT, 8, 0, in_key=True),
                    FieldSpec("b", "B", ColumnType.TEXT, 20, 1),
                ],
            )
            controller = FormController(db, spec)  # browsing must work
            assert controller.status_line().startswith("[READ-ONLY]")
            controller.begin_edit()
            assert controller.mode is Mode.BROWSE  # refused, not crashed
            assert "READ-ONLY" in controller.message
            controller.begin_insert()
            assert controller.mode is Mode.BROWSE
            assert controller.delete_record() is False
            assert "READ-ONLY" in controller.message
        finally:
            _hard_close(db)

    def test_debug_window_lists_integrity_section(self, tmp_path):
        from repro.core.debug_window import _snapshot_lines

        db = self._degraded_db(tmp_path)
        try:
            lines = _snapshot_lines(db)
            assert "== integrity ==" in lines
            joined = "\n".join(lines)
            assert "read_only" in joined and "corruption_events" in joined
        finally:
            _hard_close(db)

    def test_integrity_report_renders_and_serialises(self, tmp_path):
        db = self._degraded_db(tmp_path)
        try:
            report = db.integrity_check()
            doc = report.to_dict()
            assert doc["ok"] is False and doc["read_only"] is True
            assert doc["findings"]
            text = "\n".join(report.to_lines())
            assert "CORRUPT" in text and "READ-ONLY" in text
            json.dumps(doc)  # must be serialisable
        finally:
            _hard_close(db)

    def test_healthy_database_reports_ok(self, tmp_path):
        path = str(tmp_path / "db")
        db = _setup_disk(path)
        db.execute("CREATE INDEX ix_b ON t (b)")
        try:
            report = db.integrity_check()
            assert report.ok and not report.read_only
            assert report.checked["tables"] >= 1
            assert report.checked["rows"] == 3
            assert report.checked["indexes"] >= 2  # pk + ix_b
        finally:
            db.close()
