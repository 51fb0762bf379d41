"""Tests for the statement/plan cache, prepared statements, and invalidation.

The invariant under test: a cached plan is **never** served across a
generation bump (DDL, ANALYZE, planner-config change), while plain DML
neither invalidates nor goes stale — cached operator trees scan live
tables.
"""

import pytest

from repro.errors import ExecutionError, SqlError
from repro.relational.database import Database
from repro.relational.planner import PlannerConfig
from repro.relational.plancache import PlanCache, normalize_sql


def plans(db: Database) -> int:
    return db.planner.metrics["plans"]


def cache_stats(db: Database) -> dict:
    return db.metrics_snapshot()["plan_cache"]


class TestCacheHits:
    def test_repeated_select_plans_once(self, company):
        sql = "SELECT name FROM emp WHERE salary > 80 ORDER BY name"
        first = company.query(sql)
        before = plans(company)
        for _ in range(5):
            assert company.query(sql) == first
        assert plans(company) == before
        assert cache_stats(company)["hits"] >= 5

    def test_whitespace_variants_share_an_entry(self, company):
        company.query("SELECT id FROM dept")
        before = plans(company)
        company.query("SELECT  id\n FROM   dept")
        assert plans(company) == before

    def test_normalize_sql(self):
        assert normalize_sql("SELECT  a\n\tFROM t") == "SELECT a FROM t"
        # Case is preserved: 'x' and 'X' are different string literals.
        assert normalize_sql("SELECT 'X'") != normalize_sql("SELECT 'x'")

    def test_dml_does_not_invalidate_but_is_visible(self, company):
        sql = "SELECT COUNT(*) FROM emp"
        assert company.query(sql) == [(4,)]
        generation = cache_stats(company)["generation"]
        company.execute("INSERT INTO emp VALUES (14, 'eve', 2, 80.0, NULL)")
        # Same generation, yet the cached plan sees the new row.
        assert cache_stats(company)["generation"] == generation
        assert company.query(sql) == [(5,)]

    def test_cache_disabled_by_capacity_zero(self, company):
        db = Database(plan_cache_size=0)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.query("SELECT a FROM t") == [(1,)]
        assert db.query("SELECT a FROM t") == [(1,)]
        assert cache_stats(db)["hits"] == 0
        assert cache_stats(db)["entries"] == 0

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for i in range(3):
            cache.store(cache.key(f"SELECT {i}", ()), statement=i)
        assert len(cache) == 2
        assert cache.stats["evictions"] == 1
        # The oldest entry was evicted.
        assert cache.lookup(cache.key("SELECT 0", ())) is None


class TestInvalidation:
    def test_drop_and_recreate_table_changes_results(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.query("SELECT * FROM t") == [(1,)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.execute("INSERT INTO t VALUES (2, 'x')")
        # The cached SELECT * plan projected one column; it must not survive.
        assert db.query("SELECT * FROM t") == [(2, "x")]

    def test_view_redefinition_invalidates(self, company):
        company.execute("CREATE VIEW v AS SELECT id FROM emp WHERE salary > 100")
        assert company.query("SELECT * FROM v") == [(12,)]
        company.execute("DROP VIEW v")
        company.execute("CREATE VIEW v AS SELECT id FROM emp WHERE salary < 80")
        assert company.query("SELECT * FROM v") == [(13,)]

    def test_create_index_invalidates(self, company):
        sql = "SELECT name FROM emp WHERE id = 12"
        assert company.query(sql) == [("cyd",)]
        generation = cache_stats(company)["generation"]
        company.execute("CREATE INDEX emp_id_ix ON emp (id)")
        assert cache_stats(company)["generation"] > generation
        # Replanned (now through the index) and still correct.
        assert company.query(sql) == [("cyd",)]
        company.execute("DROP INDEX emp_id_ix ON emp")
        assert company.query(sql) == [("cyd",)]

    def test_analyze_invalidates(self, company):
        company.query("SELECT id FROM emp")
        generation = cache_stats(company)["generation"]
        company.execute("ANALYZE")
        assert cache_stats(company)["generation"] > generation

    def test_set_planner_config_invalidates(self, company):
        sql = "SELECT name FROM emp WHERE dept_id = 1"
        rows = company.query(sql)
        generation = cache_stats(company)["generation"]
        company.set_planner_config(PlannerConfig(enable_pushdown=False))
        assert cache_stats(company)["generation"] > generation
        assert sorted(company.query(sql)) == sorted(rows)

    def test_in_place_config_change_misses_by_fingerprint(self, company):
        sql = "SELECT name FROM emp WHERE dept_id = 1"
        rows = company.query(sql)
        before = plans(company)
        company.planner_config.enable_index_selection = False
        # Different fingerprint -> different key -> replanned, not stale.
        assert sorted(company.query(sql)) == sorted(rows)
        assert plans(company) == before + 1

    def test_out_of_band_catalog_change_detected(self, db):
        from repro.relational.schema import Column, TableSchema
        from repro.relational.types import ColumnType

        db.execute("CREATE TABLE t (a INT)")
        db.query("SELECT * FROM t")
        # Code (not SQL) creating a table bumps catalog.generation; the
        # next lookup must notice and invalidate.
        db.catalog.create_table(
            TableSchema("u", [Column("b", ColumnType.INT)])
        )
        generation = cache_stats(db)["generation"]
        db.query("SELECT * FROM t")
        assert cache_stats(db)["generation"] > generation

    def test_entries_cleared_on_invalidation(self, company):
        company.query("SELECT id FROM dept")
        assert cache_stats(company)["entries"] >= 1
        company.execute("CREATE TABLE scratch (a INT)")
        assert cache_stats(company)["entries"] == 0


class TestNotPlanCacheable:
    def test_subquery_select_stays_fresh(self, company):
        sql = "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)"
        assert sorted(company.query(sql)) == [("ada",), ("cyd",)]
        # Raising the average must change the answer: the subquery is
        # materialized at plan time, so the plan must not be reused.
        company.execute("INSERT INTO emp VALUES (15, 'moe', 1, 500.0, NULL)")
        assert sorted(company.query(sql)) == [("moe",)]

    def test_system_table_select_stays_fresh(self, db):
        db.execute("CREATE TABLE t1 (a INT)")
        names = db.query("SELECT name FROM _tables ORDER BY name")
        db.execute("CREATE TABLE t2 (a INT)")
        after = db.query("SELECT name FROM _tables ORDER BY name")
        assert len(after) == len(names) + 1

    def test_subquery_inside_view_not_plan_cached(self, company):
        company.execute(
            "CREATE VIEW top_paid AS "
            "SELECT name FROM emp WHERE salary >= (SELECT MAX(salary) FROM emp)"
        )
        sql = "SELECT * FROM top_paid"
        assert company.query(sql) == [("cyd",)]
        company.execute("INSERT INTO emp VALUES (16, 'zed', 1, 999.0, NULL)")
        assert company.query(sql) == [("zed",)]


class TestPreparedStatements:
    def test_prepared_select_replans_never(self, company):
        stmt = company.prepare("SELECT name FROM emp WHERE dept_id = ?")
        assert stmt.param_count == 1
        assert sorted(stmt.query([1])) == [("ada",), ("cyd",)]
        before = plans(company)
        for dept in (1, 2, 3, 1, 2):
            stmt.query([dept])
        assert plans(company) == before

    def test_prepared_insert_and_update(self, company):
        ins = company.prepare("INSERT INTO dept VALUES (?, ?)")
        ins.execute([4, "ops"])
        assert company.query("SELECT name FROM dept WHERE id = 4") == [("ops",)]
        upd = company.prepare("UPDATE dept SET name = ? WHERE id = ?")
        assert upd.execute(["it", 4]).rowcount == 1
        assert company.query("SELECT name FROM dept WHERE id = 4") == [("it",)]

    def test_param_count_mismatch(self, company):
        stmt = company.prepare("SELECT id FROM emp WHERE salary > ?")
        with pytest.raises(SqlError, match="1 parameter"):
            stmt.execute([1, 2])
        with pytest.raises(SqlError, match="1 parameter"):
            stmt.execute([])

    def test_unbound_param_raises(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        # A '?' executed outside the prepared path has no value.
        with pytest.raises(ExecutionError, match="Database.prepare"):
            db.execute("SELECT * FROM t WHERE a = ?")

    def test_prepared_survives_ddl_by_replanning(self, company):
        stmt = company.prepare("SELECT name FROM emp WHERE id = ?")
        assert stmt.query([10]) == [("ada",)]
        company.execute("CREATE INDEX emp_pk_ix ON emp (id)")
        before = plans(company)
        assert stmt.query([10]) == [("ada",)]
        assert plans(company) == before + 1  # replanned exactly once
        assert stmt.query([12]) == [("cyd",)]
        assert plans(company) == before + 1

    def test_prepared_rejects_multiple_statements(self, company):
        with pytest.raises(SqlError):
            company.prepare("SELECT 1; SELECT 2")


class TestObservability:
    def test_metrics_snapshot_exposes_cache_counters(self, company):
        snap = cache_stats(company)
        for key in ("hits", "misses", "invalidations", "evictions",
                    "entries", "generation"):
            assert key in snap

    def test_explain_analyze_reports_cache_line(self, company):
        text = company.execute("EXPLAIN ANALYZE SELECT id FROM emp").plan
        assert "Plan Cache: hits=" in text

    def test_explain_analyze_never_caches_instrumented_plan(self, company):
        sql = "SELECT id FROM emp ORDER BY id"
        company.execute(f"EXPLAIN ANALYZE {sql}")
        # The instrumented tree must not have been stored: running the
        # plain statement afterwards yields untouched counters/rows.
        assert company.query(sql) == [(10,), (11,), (12,), (13,)]
        company.execute(f"EXPLAIN ANALYZE {sql}")
        assert company.query(sql) == [(10,), (11,), (12,), (13,)]


class TestFormsIntegration:
    def test_refresh_hits_the_cache(self, company):
        from repro.forms.generate import generate_form
        from repro.forms.runtime import FormController

        controller = FormController(company, generate_form(company, "dept"))
        before = plans(company)
        for _ in range(5):
            controller.refresh()
        assert plans(company) == before
        assert cache_stats(company)["hits"] >= 5

    def test_qbf_value_change_reuses_statement_shape(self, company):
        from repro.forms.generate import generate_form
        from repro.forms.runtime import FormController

        controller = FormController(company, generate_form(company, "emp"))
        controller.begin_query()
        controller.set_field("dept_id", "1")
        assert controller.execute_query()
        assert len(controller.rows) == 2
        before = plans(company)
        controller.begin_query()
        controller.set_field("dept_id", "2")
        assert controller.execute_query()
        assert len(controller.rows) == 1
        # New criterion value, same '?' shape: no replanning.
        assert plans(company) == before

    def test_qbf_not_equals_spellings(self, company):
        from repro.forms.qbf import parse_criterion
        from repro.relational.types import ColumnType

        a = parse_criterion("x", "!=5", ColumnType.INT)
        b = parse_criterion("x", "<>5", ColumnType.INT)
        assert a.to_sql() == b.to_sql()
