"""Tests for the dynamic lockset detector
(:mod:`repro.analysis.concurrency.dynlock`): latch discipline,
per-statement lockset ordering, and observed-order inversions with both
stacks in the report.  The seeded chaos matrix in
``tests/test_concurrency_stress.py`` runs the same detector under load.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.analysis.concurrency import dynlock
from repro.errors import LockDisciplineError
from repro.relational.database import Database
from repro.session.manager import SessionManager


# ---------------------------------------------------------------------------
# Dynamic lockset detector
# ---------------------------------------------------------------------------


@pytest.fixture
def lock_check():
    dynlock.reset()
    dynlock.set_lock_check(True)
    try:
        yield
    finally:
        dynlock.set_lock_check(False)
        dynlock.reset()


class TestDynamicDetector:
    def test_disabled_by_default_returns_bare_objects(self):
        assert not dynlock.enabled()
        latch = threading.RLock()
        assert dynlock.maybe_wrap_latch(latch) is latch

    def test_clean_session_traffic_produces_no_violations(self, lock_check):
        db = Database()
        manager = SessionManager(db)
        with manager.connect() as session:
            session.execute("CREATE TABLE t (id INT, v TEXT)")
            session.execute("INSERT INTO t VALUES (1, 'a')")
            session.execute("SELECT * FROM t")
        snap = dynlock.snapshot()
        assert snap["enabled"]
        assert snap["violations"] == []
        assert snap["lockset_runs"] >= 3
        assert snap["acquisitions"] > 0

    def test_inverted_two_lock_acquisition_caught_with_both_stacks(
            self, lock_check):
        a = dynlock.CheckedLock("lock_a")
        b = dynlock.CheckedLock("lock_b")
        with a:
            with b:
                pass
        with pytest.raises(LockDisciplineError, match="order graph"):
            with b:
                with a:
                    pass
        violations = dynlock.snapshot()["violations"]
        assert len(violations) == 1
        report = violations[0]
        assert report["kind"] == "order_graph_inversion"
        assert report["cycle"][0] == report["cycle"][-1] or (
            "lock_a" in report["cycle"] and "lock_b" in report["cycle"])
        # both stacks present and non-empty
        assert len(report["stacks"]) >= 2
        assert all(stack for stack in report["stacks"].values())
        # locks remain usable after the backed-out acquisition
        with a:
            pass
        with b:
            pass

    def test_table_lock_under_latch_caught(self, lock_check):
        db = Database()
        manager = SessionManager(db)
        session = manager.connect()
        try:
            with db._latch:
                with pytest.raises(LockDisciplineError, match="engine latch"):
                    manager.locks.acquire(session.id, "t", "X", 0.1)
            report = dynlock.snapshot()["violations"][0]
            assert report["kind"] == "latch_held_during_lock_wait"
            assert "engine_latch" in report["stacks"]
        finally:
            dynlock.state().violations.clear()
            session.close()

    def test_lockset_order_inversion_caught(self, lock_check):
        db = Database()
        manager = SessionManager(db)
        session = manager.connect()
        try:
            manager.locks.begin_lockset(session.id)
            manager.locks.acquire(session.id, "zebra", "S", 0.1)
            with pytest.raises(LockDisciplineError, match="catalog-first"):
                manager.locks.acquire(
                    session.id, "__catalog__", "S", 0.1)
            report = dynlock.snapshot()["violations"][0]
            assert report["kind"] == "lockset_order_inversion"
            assert set(report["stacks"]) == {"zebra", "__catalog__"}
        finally:
            dynlock.state().violations.clear()
            manager.locks.release_all(session.id)
            session.close()

    def test_begin_lockset_resets_ordering(self, lock_check):
        db = Database()
        manager = SessionManager(db)
        session = manager.connect()
        try:
            manager.locks.begin_lockset(session.id)
            manager.locks.acquire(session.id, "b_table", "S", 0.1)
            # new statement: going "backwards" to a_table is legal
            manager.locks.begin_lockset(session.id)
            manager.locks.acquire(session.id, "a_table", "S", 0.1)
            assert dynlock.snapshot()["violations"] == []
        finally:
            manager.locks.release_all(session.id)
            session.close()

    def test_violation_report_written_to_telemetry_dir(
            self, lock_check, tmp_path, monkeypatch):
        monkeypatch.setenv("WOW_TELEMETRY_DIR", str(tmp_path))
        a = dynlock.CheckedLock("lock_a")
        b = dynlock.CheckedLock("lock_b")
        with a:
            with b:
                pass
        with pytest.raises(LockDisciplineError):
            with b:
                with a:
                    pass
        dump = tmp_path / "lock_violations.jsonl"
        assert dump.exists()
        payload = json.loads(dump.read_text().splitlines()[0])
        assert payload["kind"] == "order_graph_inversion"


# ---------------------------------------------------------------------------
# Catalog-first lockset ordering (the `__a` regression)
# ---------------------------------------------------------------------------


class TestLocksetOrdering:
    def test_catalog_sorts_before_dunder_table(self):
        # "__a" < "__catalog__" lexicographically, so a plain sorted()
        # would put the user table before the catalog pseudo-lock; the
        # explicit sort key must keep the catalog strictly first
        db = Database()
        manager = SessionManager(db)
        lockset, _ = manager._lockset("SELECT * FROM __a")
        resources = [resource for resource, _ in lockset]
        assert resources[0] == "__catalog__"
        assert "__a" in resources

    def test_tables_sorted_after_catalog(self):
        db = Database()
        manager = SessionManager(db)
        lockset, _ = manager._lockset(
            "SELECT * FROM t_b JOIN t_a ON t_b.id = t_a.id")
        resources = [resource for resource, _ in lockset]
        assert resources[0] == "__catalog__"
        assert resources[1:] == sorted(resources[1:])
        assert {"t_a", "t_b"} <= set(resources)


# ---------------------------------------------------------------------------
# Import boundary: the engine loads the detector, never the linter
# ---------------------------------------------------------------------------


def test_engine_imports_dynlock_and_nothing_else_from_analysis():
    """Building a Database and a SessionManager loads ``dynlock`` and no
    other ``repro.analysis`` module; a metrics snapshot adds at most the
    plan verifier's counters.  Never the linter, its rules or
    ``argparse``."""
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith('repro.analysis') or m == 'argparse')\n"
        "from repro.relational.database import Database\n"
        "from repro.session.manager import SessionManager\n"
        "db = Database()\n"
        "SessionManager(db)\n"
        "print(loaded())\n"
        "db.metrics_snapshot()\n"
        "print(loaded())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True).stdout
    built, snapshot = out.splitlines()
    assert built == repr([
        "repro.analysis",
        "repro.analysis.concurrency",
        "repro.analysis.concurrency.dynlock",
    ])
    for module in ("repro.analysis.linter", "repro.analysis.rules",
                   "argparse"):
        assert repr(module) not in snapshot
