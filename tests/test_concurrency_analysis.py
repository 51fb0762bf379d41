"""Tests for the concurrency correctness analyzer (PR 10).

Three layers under test:

* the static pass — call-graph construction, may/must-held propagation,
  the WOW009/WOW010 checkers — driven with synthetic modules shaped like
  the real engine plus the real tree itself (which must be clean);
* the dynamic lockset detector — latch discipline, per-statement lockset
  ordering, observed-order inversions with both stacks in the report;
* the CLI/pipeline wiring — ``--concurrency`` output, wowlint formats,
  ``--strict`` baseline hygiene, and that ``metrics_snapshot()`` never
  runs the analyzer.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.analysis.concurrency import (
    analyze_package,
    analyze_sources,
    build_graph,
    dynlock,
)
from repro.analysis.concurrency.report import PACKAGE_ROOT
from repro.analysis.linter import LintReport, lint_paths, main
from repro.analysis.rules import Violation
from repro.errors import LockDisciplineError
from repro.relational.database import Database
from repro.session.manager import SessionManager


# ---------------------------------------------------------------------------
# Synthetic-module fixtures: engine-shaped code with known defects
# ---------------------------------------------------------------------------

#: a Database/LockManager pair where execute() blocks on the lock-table
#: condition while holding the engine latch — the PR 8 invariant broken
LATCH_WAIT_SRC = '''
import threading

class LockManager:
    def __init__(self):
        self._cond = threading.Condition()
    def acquire(self, session_id, resource, mode):
        with self._cond:
            self._cond.wait(1.0)

class Database:
    def __init__(self):
        self._latch = threading.RLock()
        self.locks = LockManager()
    def execute(self, sql):
        with self._latch:
            self.locks.acquire(1, "t", "X")
'''

#: same shape, but the wait happens outside the latch (the real design)
LATCH_CLEAN_SRC = '''
import threading

class LockManager:
    def __init__(self):
        self._cond = threading.Condition()
    def acquire(self, session_id, resource, mode):
        with self._cond:
            self._cond.wait(1.0)

class Database:
    def __init__(self):
        self._latch = threading.RLock()
        self.locks = LockManager()
    def execute(self, sql):
        self.locks.acquire(1, "t", "X")
        with self._latch:
            return sql
'''


def _conc_violations(sources, code=None):
    report = analyze_sources(sources)
    if code is None:
        return report.violations
    return [v for v in report.violations if v.code == code]


class TestStaticLatchDiscipline:
    def test_latch_held_while_waiting_fails_wow009(self):
        violations = _conc_violations(
            {"src/repro/session/locks.py": LATCH_WAIT_SRC}, "WOW009")
        assert violations, "latch-held-while-waiting must fire WOW009"
        messages = " ".join(v.message for v in violations)
        assert "engine latch" in messages
        # the witness chain names the caller that held the latch
        assert any("Database.execute" in v.message for v in violations)

    def test_wait_outside_latch_is_clean(self):
        assert _conc_violations(
            {"src/repro/session/locks.py": LATCH_CLEAN_SRC}) == []

    def test_interprocedural_latch_reaches_through_helpers(self):
        # latch -> helper -> helper -> wait: only propagation can see it
        src = LATCH_WAIT_SRC.replace(
            '''    def execute(self, sql):
        with self._latch:
            self.locks.acquire(1, "t", "X")''',
            '''    def execute(self, sql):
        with self._latch:
            self._step_one()
    def _step_one(self):
        self._step_two()
    def _step_two(self):
        self.locks.acquire(1, "t", "X")''')
        violations = _conc_violations(
            {"src/repro/session/locks.py": src}, "WOW009")
        assert violations, "held set must propagate through helper calls"

    def test_allow_comment_suppresses(self):
        src = LATCH_WAIT_SRC.replace(
            "            self._cond.wait(1.0)",
            "            # wowlint: allow WOW009\n"
            "            self._cond.wait(1.0)")
        src = src.replace(
            '            self.locks.acquire(1, "t", "X")',
            '            # wowlint: allow WOW009\n'
            '            self.locks.acquire(1, "t", "X")')
        from repro.analysis.linter import concurrency_violations

        remaining = concurrency_violations(
            {"src/repro/session/locks.py": src}, skip_allowed=True)
        assert [v for v in remaining if v.code == "WOW009"] == []


class TestStaticOrderGraph:
    def test_lock_order_cycle_detected(self):
        # cross-file: StatementLog.record holds its lock and calls
        # Registry.bump (statement_log -> metrics_registry); Registry.export
        # holds its lock and calls statlog.record (metrics_registry ->
        # statement_log) — a cycle only entry-held propagation can see
        statlog_src = '''
import threading

class StatementLog:
    def __init__(self):
        self._lock = threading.Lock()
    def record(self, registry: "Registry"):
        with self._lock:
            registry.bump()
'''
        registry_src = '''
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
    def bump(self):
        with self._lock:
            pass
    def export(self, statlog: "StatementLog"):
        with self._lock:
            statlog.record(self)
'''
        report = analyze_sources({
            "src/repro/obs/statlog.py": statlog_src,
            "src/repro/obs/registry.py": registry_src,
        })
        assert report.cycles, "mutual lock nesting must produce a cycle"
        flat = {lock for cycle in report.cycles for lock in cycle}
        assert {"statement_log", "metrics_registry"} <= flat
        assert any("lock-order cycle" in v.message for v in report.violations)

    def test_catalog_after_table_flagged(self):
        src = '''
import threading

CATALOG_RESOURCE = "__catalog__"

class LockManager:
    def __init__(self):
        self._cond = threading.Condition()
    def acquire(self, session_id, resource, mode):
        with self._cond:
            pass

class Manager:
    def __init__(self):
        self.locks = LockManager()
    def bad_path(self):
        self.locks.acquire(1, "accounts", "X")
        self.locks.acquire(1, CATALOG_RESOURCE, "S")
'''
        violations = _conc_violations(
            {"src/repro/session/locks.py": src}, "WOW009")
        assert any("CATALOG_RESOURCE acquired after" in v.message
                   for v in violations)

    def test_real_tree_lock_order_is_cycle_free(self):
        report = analyze_package(PACKAGE_ROOT)
        assert report.cycles == [], (
            "the engine's static lock order grew a cycle: "
            f"{report.cycles}")
        assert report.violations == [], (
            "the engine tree must be WOW009/WOW010-clean: "
            + "; ".join(v.render() for v in report.violations))
        # the PR 8 wiring shows up as latch-outermost edges
        firsts = {e.first for e in report.order_edges}
        assert "engine_latch" in firsts
        # and the latch-over-lock_table edge is release_all (which never
        # waits), not acquire
        latch_edges = [e for e in report.order_edges
                       if e.first == "engine_latch" and e.then == "lock_table"]
        assert all("release_all" in e.scope for e in latch_edges)

    def test_dispatch_edges_reach_system_table_builders(self):
        # Catalog.table -> build_sessions -> SessionManager.session_rows
        # runs under the latch; only the declared dispatch edge makes the
        # engine_latch -> session_registry ordering visible
        report = analyze_package(PACKAGE_ROOT)
        pairs = {(e.first, e.then) for e in report.order_edges}
        assert ("engine_latch", "session_registry") in pairs


class TestSharedStateRule:
    def test_mixed_guarded_unguarded_mutation_fires_wow010(self):
        src = '''
import threading

METRICS = {"hits": 0}

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
    def record_hit(self):
        with self._lock:
            METRICS["hits"] += 1
    def record_unsafe(self):
        METRICS["hits"] += 1
'''
        violations = _conc_violations(
            {"src/repro/relational/plancache.py": src}, "WOW010")
        assert len(violations) == 1
        assert violations[0].scope == "Cache.record_unsafe"
        assert "METRICS" in violations[0].message

    def test_interprocedural_guard_counts(self):
        # the unguarded-looking helper is only ever called under the lock:
        # must-held propagation proves it safe, so WOW010 stays silent
        src = '''
import threading

METRICS = {"hits": 0}

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
    def record_hit(self):
        with self._lock:
            self._bump()
    def record_other(self):
        with self._lock:
            self._bump()
    def _bump(self):
        METRICS["hits"] += 1
'''
        assert _conc_violations(
            {"src/repro/relational/plancache.py": src}, "WOW010") == []

    def test_never_guarded_name_left_to_wow007(self):
        src = '''
METRICS = {"hits": 0}

def bump():
    METRICS["hits"] += 1
'''
        assert _conc_violations(
            {"src/repro/relational/plancache.py": src}, "WOW010") == []


class TestCallGraph:
    def test_self_method_resolution(self):
        cg = build_graph({"src/repro/session/x.py": '''
class A:
    def top(self):
        self.helper()
    def helper(self):
        pass
'''})
        node = cg.nodes[("src/repro/session/x.py", "A.top")]
        calls = [s for s in node.sites if s.kind == "call"]
        assert calls and calls[0].targets == (
            ("src/repro/session/x.py", "A.helper"),)

    def test_attr_type_chain_resolution(self):
        cg = build_graph({"src/repro/session/x.py": '''
class Inner:
    def work(self):
        pass

class Outer:
    def __init__(self):
        self.inner = Inner()
    def run(self):
        self.inner.work()
'''})
        node = cg.nodes[("src/repro/session/x.py", "Outer.run")]
        calls = [s for s in node.sites if s.kind == "call"]
        assert calls[0].targets == (("src/repro/session/x.py", "Inner.work"),)

    def test_unresolvable_calls_are_dropped_not_wildcarded(self):
        cg = build_graph({"src/repro/session/x.py": '''
class A:
    def top(self, mystery):
        mystery.do_something()
'''})
        node = cg.nodes[("src/repro/session/x.py", "A.top")]
        assert [s for s in node.sites if s.kind == "call"] == []

    def test_unmodeled_lock_is_reported(self):
        report = analyze_sources({"src/repro/session/x.py": '''
import threading

class A:
    def __init__(self):
        self._private_lock = threading.Lock()
    def go(self):
        with self._private_lock:
            pass
'''})
        assert any(name == "self._private_lock"
                   for _, _, name in report.unmodeled)


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
# CLI & pipeline wiring
# ---------------------------------------------------------------------------


class TestCli:
    def test_concurrency_cli_human(self, capsys):
        exit_code = main(["--concurrency"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "discovered lock order" in out
        assert "cycle-free" in out
        assert "engine_latch" in out

    def test_concurrency_cli_json(self, capsys):
        exit_code = main(["--concurrency", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["cycles"] == []
        assert payload["violations"] == []
        assert "engine_latch" in payload["lock_order"]
        assert payload["checked_invariants"]
        assert "lock_check" in payload

    def test_metrics_snapshot_does_not_run_the_analyzer(self):
        """The static analyzer is a CLI, not a metrics source: taking a
        snapshot (directly or through ``_metrics``) never parses the
        package."""
        script = (
            "from repro.relational.database import Database\n"
            "from repro.analysis.concurrency import report\n"
            "db = Database()\n"
            "db.metrics_snapshot()\n"
            "db.execute('SELECT * FROM _metrics')\n"
            "assert report._cached is None\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_format_json(self, capsys):
        exit_code = main(["--check", "src/repro/analysis", "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["ok"] is True
        assert payload["files_checked"] > 0

    def test_format_github_annotations(self):
        report = LintReport()
        report.violations.append(Violation(
            code="WOW009", path="src/repro/session/locks.py", line=12,
            col=4, scope="LockManager.acquire",
            message="bad % and\nnewline", fixit="do better"))
        report.files_checked = 1
        rendered = report.render_github()
        assert "::error file=src/repro/session/locks.py,line=12,col=5," in rendered
        assert "title=WOW009::" in rendered
        # workflow-command escaping
        assert "%25" in rendered and "%0A" in rendered

    def test_strict_fails_on_stale_entries(self, tmp_path):
        src_dir = tmp_path / "src" / "repro" / "relational"
        src_dir.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (src_dir / "clean.py").write_text("x = 1\n")
        baseline = tmp_path / "wowlint.baseline"
        baseline.write_text(
            "WOW001 src/repro/relational/clean.py <module>\n")
        report = lint_paths([str(tmp_path / "src")],
                            baseline_path=str(baseline))
        assert report.ok  # non-strict: stale is a note
        assert report.stale
        exit_code = main(["--check", str(tmp_path / "src"),
                          "--baseline", str(baseline), "--strict"])
        assert exit_code == 1

    def test_strict_passes_on_clean_baseline(self):
        exit_code = main(["--check", "src", "tests", "--strict"])
        assert exit_code == 0
