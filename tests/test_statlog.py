"""Query-insight subsystem: statement log, telemetry tables, sink, CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import CatalogError, ExecutionError, SqlError
from repro.obs.statlog import (
    JsonlSink,
    StatementLog,
    fingerprint_sql,
    misestimate_factor,
    read_jsonl,
)
from repro.relational.catalog import SYSTEM_TABLE_NAMES, Catalog
from repro.relational.database import Database
from repro.relational.faults import FaultInjector, InjectedCrash


@pytest.fixture
def people(db: Database) -> Database:
    db.execute("CREATE TABLE people (id INT PRIMARY KEY, name TEXT)")
    for i in range(30):
        db.insert("people", {"id": i, "name": f"p{i}"})
    return db


# -- fingerprints ------------------------------------------------------------


class TestFingerprint:
    def test_literals_lift_to_same_fingerprint(self):
        a = fingerprint_sql("SELECT * FROM t WHERE id = 3")
        b = fingerprint_sql("SELECT * FROM t WHERE id = 7777")
        c = fingerprint_sql("SELECT * FROM t WHERE id = ?")
        assert a == b == c

    def test_whitespace_and_case_normalize(self):
        a = fingerprint_sql("select  name from t\n WHERE id = 1")
        b = fingerprint_sql("SELECT name FROM t WHERE id = 2")
        assert a == b

    def test_different_shape_differs(self):
        a = fingerprint_sql("SELECT * FROM t WHERE id = 1")
        b = fingerprint_sql("SELECT * FROM t WHERE name = 'x'")
        assert a != b

    def test_unlexable_text_still_fingerprints(self):
        assert len(fingerprint_sql("SELECT \x00 garbage !!!! ~~")) == 12

    def test_misestimate_factor(self):
        assert misestimate_factor(None, 5) is None
        assert misestimate_factor(10, None) is None
        assert misestimate_factor(10, 10) == 1.0
        assert misestimate_factor(100, 10) == 10.0
        assert misestimate_factor(10, 100) == 10.0
        # both sides floored at one row: no division by zero
        assert misestimate_factor(0, 0) == 1.0
        assert misestimate_factor(50, 0) == 50.0


# -- capture -----------------------------------------------------------------


class TestStatementCapture:
    def test_statements_table_records_session(self, people: Database):
        people.execute("SELECT * FROM people WHERE id = 5")
        rows = people.execute(
            "SELECT kind, sql, cache, act_rows FROM _statements"
        ).mappings()
        assert rows, "_statements must not be empty"
        last = rows[-1]
        # the SELECT over _statements itself is not yet finished, so the
        # last *captured* row is the point select
        assert last["kind"] == "Select"
        assert last["sql"] == "SELECT * FROM people WHERE id = 5"
        assert last["cache"] in ("hit", "miss")
        assert last["act_rows"] == 1
        kinds = {r["kind"] for r in rows}
        # programmatic db.insert() is not a statement; only SQL is captured
        assert kinds == {"CreateTable", "Select"}

    def test_cache_hit_miss_column(self, people: Database):
        people.execute("SELECT name FROM people WHERE id = 9")
        people.execute("SELECT name FROM people WHERE id = 9")
        rows = people.execute(
            "SELECT sql, cache FROM _statements WHERE act_rows = 1"
        ).mappings()
        point = [r for r in rows if r["sql"] == "SELECT name FROM people WHERE id = 9"]
        assert [r["cache"] for r in point] == ["miss", "hit"]

    def test_fingerprint_shared_across_literals(self, people: Database):
        people.execute("SELECT name FROM people WHERE id = 1")
        people.execute("SELECT name FROM people WHERE id = 2")
        rows = people.execute(
            "SELECT sql, fingerprint FROM _statements"
        ).mappings()
        fps = {
            r["fingerprint"]
            for r in rows
            if r["sql"].startswith("SELECT name FROM people")
        }
        assert len(fps) == 1

    def test_errors_are_captured(self, people: Database):
        with pytest.raises(CatalogError):
            people.execute("SELECT * FROM missing")
        rows = people.execute(
            "SELECT sql, error, act_rows FROM _statements"
        ).mappings()
        failed = [r for r in rows if r["error"]]
        assert failed and "CatalogError" in failed[-1]["error"]
        assert failed[-1]["act_rows"] is None

    def test_prepared_statements_capture_params(self, people: Database):
        handle = people.prepare("SELECT name FROM people WHERE id = ?")
        handle.execute([7])
        rows = people.execute(
            "SELECT kind, params, fingerprint FROM _statements"
        ).mappings()
        last = rows[-1]
        assert json.loads(last["params"]) == [7]
        assert last["fingerprint"] == fingerprint_sql(
            "SELECT name FROM people WHERE id = 7"
        )

    def test_capacity_zero_disables_capture(self):
        db = Database(statlog_capacity=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        assert not db.statement_log.enabled
        assert db.execute("SELECT * FROM _statements").rowcount == 0

    def test_ring_is_bounded(self, people: Database):
        small = Database(statlog_capacity=4)
        small.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(10):
            small.execute(f"SELECT {i} FROM t")
        assert len(small.statement_log) == 4
        assert small.statement_log.counters["dropped"] == 7
        seqs = [r.seq for r in small.statement_log.records()]
        assert seqs == sorted(seqs)

    def test_union_and_est_rows_noted(self, people: Database):
        people.execute("ANALYZE people")
        people.execute("SELECT name FROM people WHERE id < 10")
        record = people.statement_log.records()[-1]
        assert record.plan_fp is not None
        people.execute(
            "SELECT name FROM people WHERE id = 1 "
            "UNION SELECT name FROM people WHERE id = 2"
        )
        assert people.statement_log.records()[-1].plan_fp is not None

    def test_metrics_snapshot_has_statement_log(self, people: Database):
        snap = people.metrics_snapshot()["statement_log"]
        assert snap["enabled"] == 1
        assert snap["captured"] == len(people.statement_log)


class TestSampling:
    def test_sample_every_captures_operator_rows(self):
        db = Database(statlog_sample_every=2)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(20):
            db.insert("t", {"id": i, "v": i * 2})
        db.execute("ANALYZE t")
        for i in range(6):
            db.execute(f"SELECT v FROM t WHERE id < {10 + i}")
        sampled = [r for r in db.statement_log.records() if r.ops]
        assert sampled, "sampling must capture per-operator rows"
        op = sampled[-1].ops[-1]
        assert set(op) == {"i", "op", "est", "act"}
        assert db.statement_log.counters["sampled"] == len(sampled)
        assert db.statement_log.plan_stats

    def test_sampling_never_instruments_cached_plan(self):
        db = Database(statlog_sample_every=1)  # sample every select
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.insert("t", {"id": 1})
        sql = "SELECT * FROM t WHERE id = 1"
        db.execute(sql)
        db.execute(sql)
        entry = db._lookup_statement(sql)
        # the cached plan slot must stay empty or uninstrumented: its rows
        # method must be the class implementation, not a counting wrapper
        if entry.plan is not None:
            assert "rows" not in vars(entry.plan)

    def test_plan_stats_table(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(10):
            db.insert("t", {"id": i})
        db.execute("ANALYZE t")
        db.execute("EXPLAIN ANALYZE SELECT * FROM t WHERE id < 5")
        rows = db.execute("SELECT * FROM _plan_stats").mappings()
        assert rows
        scan = [r for r in rows if r["est_rows"] is not None]
        assert scan and scan[0]["worst_factor"] >= 1.0
        assert scan[0]["execs"] == 1


# -- EXPLAIN ANALYZE render (regression-pins the est/act format) -------------


class TestAnalyzeRender:
    def test_est_act_format(self, people: Database):
        people.execute("ANALYZE people")
        plan = people.execute(
            "EXPLAIN ANALYZE SELECT * FROM people WHERE id < 10"
        ).plan
        # the scan line must read "[est=~N act=M (xK.K off)" once actuals
        # are captured and an estimate exists
        import re

        match = re.search(r"\[est=~(\d+) act=(\d+) \(x(\d+\.\d) off\)", plan)
        assert match, f"no est/act annotation in:\n{plan}"
        assert int(match.group(2)) == 10
        est, act = float(match.group(1)), float(match.group(2))
        expected = max(max(est, 1) / max(act, 1), max(act, 1) / max(est, 1))
        assert float(match.group(3)) == pytest.approx(expected, abs=0.06)

    def test_operators_without_estimate_keep_rows_format(self, people: Database):
        plan = people.execute("EXPLAIN ANALYZE SELECT * FROM people").plan
        assert "[rows=30 loops=1" in plan


# -- _slow_ops: the statement log filtered by Database(slow_ms=) -------------


class TestSlowOps:
    def test_slow_ops_carry_statement_fingerprint(self):
        db = Database(slow_ms=0.0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("SELECT * FROM t WHERE id = 1")
        rows = db.execute(
            "SELECT kind, fingerprint FROM _slow_ops"
        ).mappings()
        executes = [r for r in rows if r["kind"] == "Select"]
        assert executes
        fps = {r["fingerprint"] for r in executes}
        assert fingerprint_sql("SELECT * FROM t WHERE id = 1") in fps

    def test_slow_ops_join_statements(self):
        db = Database(slow_ms=0.0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("SELECT * FROM t")
        joined = db.execute(
            "SELECT s.sql, o.duration_ms FROM _slow_ops o "
            "JOIN _statements s ON o.fingerprint = s.fingerprint"
        ).rows
        assert any("SELECT * FROM t" in row[0] for row in joined)

    def test_slow_ops_are_the_statements_at_or_above_threshold(self):
        db = Database()
        assert db.slow_ms == 50.0  # the default threshold
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.execute("SELECT * FROM t")
        durations = sorted(r.duration_ms for r in db.statement_log.records())
        # A threshold equal to a recorded duration keeps that statement.
        db.slow_ms = durations[len(durations) // 2]
        columns = ", ".join(db.catalog.table("_statements").schema.column_names)
        assert columns == ", ".join(db.catalog.table("_slow_ops").schema.column_names)
        statements = db.statement_log.records()
        slow = db.query(f"SELECT {columns} FROM _slow_ops")
        # The _slow_ops read is itself captured; compare against the
        # statements that existed when it ran.
        every = db.query(
            f"SELECT {columns} FROM _statements WHERE seq <= {statements[-1].seq}"
        )
        assert slow == [row for row in every if row[12] >= db.slow_ms]
        assert [row[0] for row in slow] == [
            r.seq for r in statements if r.duration_ms >= db.slow_ms
        ]
        assert 0 < len(slow) < len(statements)

    def test_huge_threshold_leaves_slow_ops_empty(self):
        db = Database(slow_ms=1e12)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("SELECT * FROM t")
        assert db.query("SELECT * FROM _slow_ops") == []
        assert len(db.statement_log) >= 2

    def test_f11_lists_slow_statements(self):
        from repro.core.debug_window import _snapshot_lines

        db = Database(slow_ms=0.0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("SELECT * FROM t WHERE id = 7")
        lines = _snapshot_lines(db)
        start = lines.index("== slow statements (>= 0 ms) ==")
        section = "\n".join(lines[start:])
        assert "CREATE TABLE t (id INT PRIMARY KEY)" in section
        assert "SELECT * FROM t WHERE id = 7" in section
        db.slow_ms = 1e12
        assert _snapshot_lines(db)[-1] == "  (empty)"


# -- reserved names (satellite: telemetry tables are reserved) ---------------


class TestReservedNames:
    def test_telemetry_names_are_reserved(self):
        assert {"_statements", "_slow_ops", "_metrics", "_plan_stats"} <= set(
            SYSTEM_TABLE_NAMES
        )

    @pytest.mark.parametrize(
        "name", ["_statements", "_slow_ops", "_metrics", "_plan_stats"]
    )
    def test_create_table_rejected(self, db: Database, name: str):
        with pytest.raises(CatalogError, match="reserved"):
            db.execute(f"CREATE TABLE {name} (id INT PRIMARY KEY)")

    def test_create_view_rejected(self, people: Database):
        with pytest.raises(CatalogError, match="reserved"):
            people.execute("CREATE VIEW _statements AS SELECT * FROM people")

    def test_dml_rejected(self, db: Database):
        with pytest.raises((SqlError, ExecutionError, CatalogError)):
            db.execute("DELETE FROM _statements")

    def test_bare_catalog_serves_empty_telemetry(self):
        catalog = Catalog()
        table = catalog.table("_statements")
        assert table.count() == 0
        assert "fingerprint" in table.schema.column_names

    def test_register_rejects_unreserved_and_builtin(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.register_system_source("_nope", lambda: None)
        with pytest.raises(CatalogError):
            catalog.register_system_source("_tables", lambda: None)


# -- metrics table -----------------------------------------------------------


class TestMetricsSurface:
    def test_metrics_table_flattens_snapshot(self, people: Database):
        rows = people.execute(
            "SELECT source, name, value FROM _metrics WHERE source = 'statements'"
        ).mappings()
        by_name = {r["name"]: r["value"] for r in rows}
        assert by_name["inserts"] >= 30.0

    def test_metrics_table_includes_registry(self):
        from repro.obs import Registry

        db = Database(obs=Registry())
        db.obs.add("test.counter", 5)
        db.obs.observe("test.hist", 1.5)
        rows = db.execute(
            "SELECT name, kind, value, samples FROM _metrics WHERE source = 'registry'"
        ).mappings()
        kinds = {r["name"]: r for r in rows}
        assert kinds["test.counter"]["value"] == 5.0
        assert kinds["test.hist"]["kind"] == "histogram"
        assert kinds["test.hist"]["samples"] == 1

# -- JSONL sink (satellite: rotation, valid JSON, crash replay) --------------


class TestJsonlSink:
    def test_every_line_is_valid_json(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        db = Database(statlog_path=path)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.close()
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == 6
        for line in lines:
            doc = json.loads(line)
            assert {"seq", "sql", "fingerprint", "duration_ms"} <= set(doc)

    def test_rotation_at_size_cap(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        sink = JsonlSink(path, max_bytes=400)
        for i in range(40):
            sink.write({"seq": i, "payload": "x" * 40})
        sink.close()
        assert sink.rotations > 0
        assert os.path.exists(path) and os.path.exists(path + ".1")
        # on-disk footprint stays bounded by ~2x the cap
        total = os.path.getsize(path) + os.path.getsize(path + ".1")
        assert total <= 2 * 400 + 200
        records, skipped = read_jsonl(path)
        assert skipped == 0
        # the live file holds the newest records
        assert records[-1]["seq"] == 39

    def test_torn_line_replay(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        sink = JsonlSink(path)
        sink.write({"seq": 1, "sql": "SELECT 1"})
        sink.write({"seq": 2, "sql": "SELECT 2"})
        sink.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 3, "sql": "SELECT 3\xff')  # torn mid-append
        records, skipped = read_jsonl(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert skipped == 1

    def test_crash_exhaustion_leaves_replayable_log(self, tmp_path):
        """Crash at every sink write point: the log must replay cleanly."""
        path = str(tmp_path / "s.jsonl")

        def run(io):
            sink = JsonlSink(path, max_bytes=300, io=io)
            log = StatementLog(capacity=8, sink=sink)
            for i in range(12):
                record = log.begin(0, 0, 0)
                log.describe(record, f"SELECT {i}", fingerprint_sql(f"SELECT {i}"), "Select")
                log.finish(record, 1, 0, 0, 0)
            sink.close()

        counting = FaultInjector()
        run(counting)
        writes = len(counting.calls)
        assert writes >= 12
        for crash_at in range(1, writes + 1):
            for name in (path, path + ".1"):
                if os.path.exists(name):
                    os.remove(name)
            shim = FaultInjector(crash_at=crash_at)
            try:
                run(shim)
            except InjectedCrash:
                pass
            if os.path.exists(path):
                _records, skipped = read_jsonl(path)
                assert skipped <= 1  # at most the torn trailing line

    def test_default_sink_collects_all_databases(self, tmp_path):
        from repro.obs.statlog import get_default_sink, set_default_sink

        path = str(tmp_path / "all.jsonl")
        previous = get_default_sink()
        set_default_sink(path)
        try:
            db = Database()
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        finally:
            set_default_sink(previous.path if previous else None)
        records, skipped = read_jsonl(path)
        assert skipped == 0
        assert any("CREATE TABLE t" in r["sql"] for r in records)


# -- F12 query inspector & F11 section ---------------------------------------


class TestQueryInspector:
    def _app(self):
        from repro.core.app import WowApp

        db = Database()
        db.execute("CREATE TABLE people (id INT PRIMARY KEY, name TEXT)")
        db.execute("INSERT INTO people VALUES (1, 'ada')")
        db.execute("SELECT * FROM people")
        return WowApp(db, 100, 30)

    def test_f12_toggles_inspector_window(self):
        app = self._app()
        app.send_keys("<F12>")
        app.expect_on_screen("Query Inspector")
        app.expect_on_screen("seq")
        app.send_keys("<F12>")
        assert app._inspector_window is None

    def test_inspector_shows_executed_statements(self):
        app = self._app()
        app.send_keys("<F12>")
        app.expect_on_screen("INSERT INTO p")  # sql column, truncated to width

    def test_f12_listed_in_help(self):
        app = self._app()
        app.send_keys("<F9>")
        app.expect_on_screen("F12 query inspector")

    def test_metrics_window_has_statement_log_section(self):
        from repro.core.debug_window import _snapshot_lines

        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        lines = _snapshot_lines(db)
        assert "== statement log ==" in lines
        joined = "\n".join(lines)
        assert "captured" in joined


# -- analyzer CLI ------------------------------------------------------------


class TestAnalyzerCli:
    def _write_log(self, tmp_path) -> str:
        path = str(tmp_path / "s.jsonl")
        db = Database(statlog_path=path, statlog_sample_every=1)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(20):
            db.insert("t", {"id": i})
        db.execute("ANALYZE t")
        db.execute("SELECT * FROM t WHERE id < 3")
        db.execute("SELECT * FROM t WHERE id < 15")
        db.close()
        return path

    def test_top_slow(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._write_log(tmp_path)
        assert main(["--log", path, "--top-slow", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["top_slow"]) == 2
        durations = [r["duration_ms"] for r in doc["top_slow"]]
        assert durations == sorted(durations, reverse=True)

    def test_misestimates_ordered_worst_first(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._write_log(tmp_path)
        assert main(["--log", path, "--misestimates", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        factors = [m["worst_factor"] for m in doc["misestimates"]]
        assert factors and factors == sorted(factors, reverse=True)
        assert all(f >= 1.0 for f in factors)

    def test_summary_text_output(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._write_log(tmp_path)
        assert main(["--log", path, "--summary"]) == 0
        out = capsys.readouterr().out
        assert "== summary ==" in out and "statements" in out

    def test_missing_log_exits_2(self, tmp_path):
        from repro.obs.__main__ import main

        assert main(["--log", str(tmp_path / "absent.jsonl")]) == 2
