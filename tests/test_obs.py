"""Tests for the repro.obs observability subsystem.

Covers: registry instrument math, span nesting and thread-local
isolation, EXPLAIN ANALYZE end-to-end (through both Database.execute and
the SQL window), Database.metrics_snapshot(), and the metrics.py
KeystrokeMeter accumulation fix.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.metrics import KeystrokeMeter
from repro.obs import Registry, Tracer, current_span, get_registry, set_registry
from repro.relational.database import Database


@pytest.fixture()
def registry():
    """A private default registry per test, restoring the old one after."""
    fresh = Registry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def make_people_db(registry=None) -> Database:
    db = Database(obs=registry)
    db.execute("CREATE TABLE people (id INT PRIMARY KEY, name TEXT, age INT)")
    for i in range(20):
        db.insert("people", {"id": i, "name": f"p{i}", "age": 20 + (i % 5)})
    return db


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_math(self):
        registry = Registry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("x") is counter  # same instrument by name
        assert registry.counter_value("x") == 5
        assert registry.counter_value("missing") == 0

    def test_histogram_summary_and_percentiles(self):
        registry = Registry()
        histogram = registry.histogram("latency")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.total == pytest.approx(5050.0)
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.min == 1.0
        assert histogram.max == 100.0
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(95) == pytest.approx(95.05)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p99"] == pytest.approx(99.01)

    def test_empty_histogram(self):
        histogram = Registry().histogram("empty")
        assert histogram.mean == 0.0
        assert histogram.percentile(50) is None
        assert histogram.summary()["min"] is None

    def test_reset(self):
        registry = Registry()
        registry.add("c")
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_default_registry_swap(self, registry):
        assert get_registry() is registry
        get_registry().add("visible")
        assert registry.counter_value("visible") == 1


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_durations_and_registry(self):
        registry = Registry()
        tracer = Tracer(registry)
        with tracer.span("work") as span:
            time.sleep(0.002)
        assert span.duration_ms >= 1.0
        assert registry.histogram("span.work").count == 1

    def test_nested_spans_share_one_stack_across_tracers(self):
        registry = Registry()
        outer_tracer = Tracer(registry)
        inner_tracer = Tracer(registry)  # a different layer's tracer
        with outer_tracer.span("form.save") as outer:
            with inner_tracer.span("db.execute") as inner:
                assert current_span() is inner
                assert inner.path == "form.save/db.execute"
                assert inner.depth == 1
            assert current_span() is outer
        assert current_span() is None
        assert outer.path == "form.save"

    def test_span_records_exception_and_unwinds(self):
        tracer = Tracer(Registry())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert current_span() is None
        assert tracer.finished[-1].tags["error"] == "ValueError"

    def test_thread_local_isolation(self):
        tracer = Tracer(Registry())
        seen = {}

        def worker():
            # The main thread's active span must not leak in here.
            seen["parent"] = current_span()
            with tracer.span("child") as span:
                seen["path"] = span.path

        with tracer.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent"] is None
        assert seen["path"] == "child"  # no main-span/ prefix

    def test_recent_is_json_serialisable(self):
        tracer = Tracer(Registry())
        with tracer.span("a", {"k": 1}):
            pass
        json.dumps(tracer.recent())
        assert tracer.recent()[0]["name"] == "a"


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_operator_row_counts(self, registry):
        db = make_people_db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT name FROM people WHERE age = 21"
        )
        assert result.plan is not None
        lines = result.plan.splitlines()
        # 20 people, ages cycle 20..24 -> exactly 4 rows match age=21.
        assert result.rowcount == 4
        project_line = next(l for l in lines if l.startswith("Project"))
        assert "rows=4" in project_line and "loops=1" in project_line
        scan_line = next(l for l in lines if "Scan" in l)
        assert "time=" in scan_line
        assert any(l.startswith("Planning Time:") for l in lines)
        assert any(l.startswith("Execution Time:") for l in lines)

    def test_join_rows_attributed_per_operator(self, registry):
        db = Database()
        db.execute("CREATE TABLE m (id INT PRIMARY KEY)")
        db.execute("CREATE TABLE d (id INT PRIMARY KEY, mid INT)")
        for i in range(3):
            db.insert("m", {"id": i})
        for j in range(9):
            db.insert("d", {"id": j, "mid": j % 3})
        result = db.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM m JOIN d ON m.id = d.mid"
        )
        join_line = next(l for l in result.plan.splitlines() if "Join" in l)
        assert "rows=9" in join_line
        agg_line = next(
            l for l in result.plan.splitlines() if l.lstrip().startswith("Aggregate")
        )
        assert "rows=1" in agg_line

    def test_plain_explain_unchanged(self, registry):
        db = make_people_db()
        result = db.execute("EXPLAIN SELECT name FROM people")
        assert "rows=" not in result.plan
        assert "Execution Time" not in result.plan

    def test_explain_analyze_does_not_slow_later_queries(self, registry):
        """Instrumentation is per-instance: a later plain SELECT must not
        run through counting wrappers."""
        db = make_people_db()
        db.execute("EXPLAIN ANALYZE SELECT * FROM people")
        result = db.execute("SELECT COUNT(*) FROM people")
        assert result.scalar() == 20

    def test_explain_analyze_from_sql_window(self, registry):
        from repro.core.app import WowApp
        from repro.windows.events import KeyEvent

        db = make_people_db()
        app = WowApp(db, 80, 24)
        app.open_sql_window()
        for ch in "EXPLAIN ANALYZE SELECT name FROM people":
            app.send_key(KeyEvent(ch))
        app.send_key(KeyEvent("ENTER"))
        screen = app.screen_text()
        assert "rows=20" in screen
        assert "Execution Time" in screen


# ---------------------------------------------------------------------------
# metrics_snapshot
# ---------------------------------------------------------------------------


class TestMetricsSnapshot:
    def test_covers_every_layer_and_is_json(self, registry, tmp_path):
        db = Database(path=str(tmp_path / "db"), obs=registry)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        db.execute("CREATE INDEX iv ON t (v)")
        for i in range(10):
            db.insert("t", {"id": i, "v": f"v{i}"})
        db.execute("BEGIN")
        db.insert("t", {"id": 100, "v": "x"})
        db.execute("ROLLBACK")
        db.query("SELECT * FROM t WHERE id = 3")
        db.checkpoint()

        snapshot = db.metrics_snapshot()
        json.dumps(snapshot)  # must be JSON-serialisable end to end

        assert snapshot["statements"]["inserts"] == 11
        assert snapshot["pager"]["writes"] > 0
        assert snapshot["pager"]["fsyncs"] >= 1
        assert snapshot["wal"]["commits"] >= 10
        assert snapshot["wal"]["fsyncs"] >= 1
        assert snapshot["btree"]["trees"] >= 1
        assert snapshot["btree"]["node_visits"] > 0
        assert snapshot["txn"]["begins"] >= 11
        assert snapshot["txn"]["rollbacks"] == 1
        assert snapshot["planner"]["plans"] >= 1
        assert snapshot["planner"]["index_eq_scans"] >= 1
        assert "span.db.execute" in snapshot["registry"]["histograms"]
        db.close()

    def test_forms_layer_metrics_flow_into_snapshot(self, registry):
        from repro.core.app import WowApp

        db = make_people_db()
        app = WowApp(db, 80, 24)
        app.open_form("people")
        app.send_keys("<DOWN><DOWN><F5>")
        snapshot = db.metrics_snapshot()
        counters = snapshot["registry"]["counters"]
        assert counters["forms.refreshes"] >= 2  # open + F5
        assert counters["windows.frames"] >= 3
        assert counters["windows.cells_transmitted"] > 0
        histograms = snapshot["registry"]["histograms"]
        assert histograms["span.form.open"]["count"] == 1
        assert histograms["span.form.refresh"]["count"] >= 2
        assert histograms["span.app.key"]["count"] == 3
        assert histograms["windows.frame_cells"]["count"] >= 3

    def test_form_save_span_nests_db_execute(self, registry):
        """The cross-layer story: a form save's db work nests under it."""
        from repro.forms.generate import generate_form
        from repro.forms.runtime import FormController

        db = make_people_db()
        controller = FormController(db, generate_form(db, "people"))
        controller.begin_edit()
        controller.set_field("age", "99")
        assert controller.save()
        paths = [s["path"] for s in db.tracer.recent()]
        assert "form.save" in paths
        assert any(p.startswith("form.save/form.refresh") for p in paths)

    def test_debug_window_renders_metrics(self, registry):
        from repro.core.app import WowApp

        db = make_people_db()
        app = WowApp(db, 80, 24)
        app.open_form("people")
        app.send_keys("<F11>")
        app.expect_on_screen("Metrics")
        app.expect_on_screen("statements")
        app.send_keys("<F11>")  # closes again
        assert app._metrics_window is None

    def test_private_registry_isolates_databases(self):
        private = Registry()
        db = make_people_db(registry=private)
        db.query("SELECT * FROM people")
        assert "span.db.execute" in db.metrics_snapshot()["registry"]["histograms"]
        assert db.obs is private


# ---------------------------------------------------------------------------
# metrics.py satellites
# ---------------------------------------------------------------------------


class TestMetricsSatellites:
    def test_keystroke_meter_repeated_task_accumulates(self):
        meter = KeystrokeMeter()
        meter.start_task("edit")
        meter.record(3)
        assert meter.end_task() == 3
        meter.start_task("edit")  # same name again: must NOT reset
        meter.record(2)
        assert meter.end_task() == 5
        assert meter.by_task["edit"] == 5

    def test_keystroke_meter_fresh_task_starts_at_zero(self):
        meter = KeystrokeMeter()
        meter.start_task("a")
        meter.record(4)
        meter.end_task()
        meter.start_task("b")
        meter.record(1)
        assert meter.by_task == {"a": 4, "b": 1}
        assert meter.total == 5
