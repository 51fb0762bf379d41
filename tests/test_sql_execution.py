"""End-to-end SQL semantics through Database.execute."""

import datetime

import pytest

from repro.errors import (
    BindError,
    CatalogError,
    ConstraintError,
    ExecutionError,
    ForeignKeyError,
    PlanError,
    SqlError,
)
from repro.relational.database import Database


class TestProjectionAndFilter:
    def test_select_star(self, company):
        rows = company.query("SELECT * FROM dept ORDER BY id")
        assert rows == [(1, "eng"), (2, "sales"), (3, "hr")]

    def test_column_order_respected(self, company):
        result = company.execute("SELECT name, id FROM dept ORDER BY id LIMIT 1")
        assert result.columns == ["name", "id"]
        assert result.rows == [("eng", 1)]

    def test_computed_column(self, company):
        rows = company.query("SELECT salary * 2 AS double_pay FROM emp WHERE id = 10")
        assert rows == [(200.0,)]

    def test_where_3vl_null_filtered(self, company):
        # dan has NULL dept_id; NULL = 1 is unknown, so he is excluded.
        rows = company.query("SELECT id FROM emp WHERE dept_id = 1 ORDER BY id")
        assert rows == [(10,), (12,)]

    def test_is_null(self, company):
        rows = company.query("SELECT id FROM emp WHERE dept_id IS NULL")
        assert rows == [(13,)]

    def test_like(self, company):
        rows = company.query("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name")
        assert rows == [("ada",), ("dan",)]

    def test_in_list(self, company):
        rows = company.query("SELECT id FROM emp WHERE id IN (10, 13) ORDER BY id")
        assert rows == [(10,), (13,)]

    def test_between(self, company):
        rows = company.query("SELECT id FROM emp WHERE salary BETWEEN 80 AND 105 ORDER BY id")
        assert rows == [(10,), (11,)]

    def test_date_comparison(self, company):
        rows = company.query("SELECT id FROM emp WHERE hired > '2020-06-01' ORDER BY id")
        assert rows == [(11,)]

    def test_order_by_desc_nulls_first(self, company):
        rows = company.query("SELECT id FROM emp ORDER BY hired DESC")
        # NULLs first ascending => last when descending.
        assert rows[-1] == (12,)

    def test_order_by_output_alias(self, company):
        rows = company.query("SELECT salary * -1 AS neg FROM emp ORDER BY neg")
        assert rows[0] == (-120.0,)

    def test_limit_offset(self, company):
        rows = company.query("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1")
        assert rows == [(11,), (12,)]

    def test_distinct(self, company):
        rows = company.query("SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL ORDER BY dept_id")
        assert rows == [(1,), (2,)]

    def test_unknown_column_raises(self, company):
        with pytest.raises(BindError):
            company.query("SELECT ghost FROM emp")

    def test_unknown_table_raises(self, company):
        with pytest.raises(CatalogError):
            company.query("SELECT * FROM ghosts")

    def test_ambiguous_column_raises(self, company):
        with pytest.raises(BindError):
            company.query("SELECT name FROM emp, dept")


class TestJoins:
    def test_inner_join(self, company):
        rows = company.query(
            "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.id"
        )
        assert rows == [("ada", "eng"), ("bob", "sales"), ("cyd", "eng")]

    def test_left_join_pads_nulls(self, company):
        rows = company.query(
            "SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id ORDER BY e.id"
        )
        assert ("dan", None) in rows and len(rows) == 4

    def test_cross_join_counts(self, company):
        rows = company.query("SELECT COUNT(*) FROM emp, dept")
        assert rows == [(12,)]

    def test_implicit_join_with_where(self, company):
        rows = company.query(
            "SELECT e.name FROM emp e, dept d WHERE e.dept_id = d.id AND d.name = 'sales'"
        )
        assert rows == [("bob",)]

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE a (x INT PRIMARY KEY)")
        db.execute("CREATE TABLE b (x INT, y INT)")
        db.execute("CREATE TABLE c (y INT, z TEXT)")
        db.execute("INSERT INTO a VALUES (1), (2)")
        db.execute("INSERT INTO b VALUES (1, 10), (2, 20), (2, 30)")
        db.execute("INSERT INTO c VALUES (10, 'ten'), (30, 'thirty')")
        rows = db.query(
            "SELECT a.x, c.z FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y ORDER BY a.x"
        )
        assert rows == [(1, "ten"), (2, "thirty")]

    def test_self_join_via_aliases(self, company):
        rows = company.query(
            "SELECT e1.name, e2.name FROM emp e1 JOIN emp e2 "
            "ON e1.dept_id = e2.dept_id WHERE e1.id < e2.id"
        )
        assert rows == [("ada", "cyd")]

    def test_duplicate_alias_rejected(self, company):
        with pytest.raises(BindError):
            company.query("SELECT * FROM emp e, dept e")

    def test_join_null_keys_never_match(self, company):
        rows = company.query(
            "SELECT COUNT(*) FROM emp e JOIN emp f ON e.dept_id = f.dept_id"
        )
        # dan (NULL dept) matches nobody, including himself.
        assert rows == [(5,)]  # ada-ada, ada-cyd, cyd-ada, cyd-cyd, bob-bob


class TestAggregates:
    def test_global_aggregates(self, company):
        result = company.execute(
            "SELECT COUNT(*), COUNT(dept_id), SUM(salary), MIN(salary), MAX(salary) FROM emp"
        )
        assert result.rows == [(4, 3, 385.0, 75.0, 120.0)]

    def test_avg(self, company):
        assert company.execute("SELECT AVG(salary) FROM emp WHERE dept_id = 1").scalar() == 110.0

    def test_empty_input_yields_one_row(self, company):
        result = company.execute("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 999")
        assert result.rows == [(0, None)]

    def test_group_by(self, company):
        rows = company.query(
            "SELECT dept_id, COUNT(*) AS n FROM emp GROUP BY dept_id ORDER BY dept_id"
        )
        assert rows == [(None, 1), (1, 2), (2, 1)]

    def test_group_by_having(self, company):
        rows = company.query(
            "SELECT dept_id FROM emp GROUP BY dept_id HAVING COUNT(*) > 1"
        )
        assert rows == [(1,)]

    def test_having_on_aggregate_not_in_select(self, company):
        rows = company.query(
            "SELECT dept_id FROM emp WHERE dept_id IS NOT NULL "
            "GROUP BY dept_id HAVING AVG(salary) > 100"
        )
        assert rows == [(1,)]

    def test_order_by_aggregate(self, company):
        rows = company.query(
            "SELECT dept_id, COUNT(*) AS n FROM emp WHERE dept_id IS NOT NULL "
            "GROUP BY dept_id ORDER BY COUNT(*) DESC"
        )
        assert rows[0] == (1, 2)

    def test_count_distinct(self, company):
        assert company.execute("SELECT COUNT(DISTINCT dept_id) FROM emp").scalar() == 2

    def test_non_grouped_column_rejected(self, company):
        with pytest.raises(PlanError):
            company.query("SELECT name, COUNT(*) FROM emp GROUP BY dept_id")

    def test_star_with_group_by_rejected(self, company):
        with pytest.raises(PlanError):
            company.query("SELECT * FROM emp GROUP BY dept_id")

    def test_aggregate_over_join(self, company):
        rows = company.query(
            "SELECT d.name, COUNT(*) AS n FROM emp e JOIN dept d ON e.dept_id = d.id "
            "GROUP BY d.name ORDER BY d.name"
        )
        assert rows == [("eng", 2), ("sales", 1)]


class TestDml:
    def test_insert_defaults_and_nulls(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT DEFAULT 'dflt', c INT)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        assert db.query("SELECT * FROM t") == [(1, "dflt", None)]

    def test_insert_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(SqlError):
            db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(SqlError):
            db.execute("INSERT INTO t (a) VALUES (1, 2)")

    def test_insert_expression_values(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (2 + 3)")
        assert db.query("SELECT a FROM t") == [(5,)]

    def test_insert_column_ref_rejected(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(BindError):
            db.execute("INSERT INTO t VALUES (a)")

    def test_pk_duplicate_rejected_and_atomic(self, db):
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (2), (1)")
        # Statement atomicity: the 2 must have been rolled back too.
        assert db.query("SELECT * FROM t") == [(1,)]

    def test_update_expression(self, company):
        count = company.execute("UPDATE emp SET salary = salary + 10 WHERE dept_id = 1").rowcount
        assert count == 2
        assert company.execute("SELECT salary FROM emp WHERE id = 10").scalar() == 110.0

    def test_update_all_rows(self, company):
        assert company.execute("UPDATE emp SET salary = 1.0").rowcount == 4

    def test_update_not_null_violation_atomic(self, company):
        with pytest.raises(ConstraintError):
            company.execute("UPDATE emp SET name = NULL WHERE id > 0")
        assert company.execute("SELECT COUNT(*) FROM emp WHERE name IS NULL").scalar() == 0

    def test_delete_where(self, company):
        assert company.execute("DELETE FROM emp WHERE salary < 80").rowcount == 1
        assert company.execute("SELECT COUNT(*) FROM emp").scalar() == 3

    def test_delete_all(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert db.execute("DELETE FROM t").rowcount == 3
        assert db.query("SELECT COUNT(*) FROM t") == [(0,)]


class TestForeignKeys:
    def test_insert_orphan_rejected(self, company):
        with pytest.raises(ForeignKeyError):
            company.execute("INSERT INTO emp VALUES (99, 'zed', 42, 1.0, NULL)")

    def test_null_fk_allowed(self, company):
        company.execute("INSERT INTO emp VALUES (99, 'zed', NULL, 1.0, NULL)")

    def test_delete_referenced_parent_rejected(self, company):
        with pytest.raises(ForeignKeyError):
            company.execute("DELETE FROM dept WHERE id = 1")

    def test_delete_unreferenced_parent_ok(self, company):
        company.execute("DELETE FROM dept WHERE id = 3")

    def test_update_child_to_orphan_rejected(self, company):
        with pytest.raises(ForeignKeyError):
            company.execute("UPDATE emp SET dept_id = 42 WHERE id = 10")

    def test_update_parent_key_with_children_rejected(self, company):
        with pytest.raises(ForeignKeyError):
            company.execute("UPDATE dept SET id = 9 WHERE id = 1")

    def test_update_parent_key_without_children_ok(self, company):
        company.execute("UPDATE dept SET id = 9 WHERE id = 3")

    def test_fk_must_reference_key(self, db):
        db.execute("CREATE TABLE p (a INT, b INT)")  # no key on a
        with pytest.raises(CatalogError):
            db.execute(
                "CREATE TABLE c (x INT, FOREIGN KEY (x) REFERENCES p (a))"
            )

    def test_drop_referenced_table_rejected(self, company):
        with pytest.raises(CatalogError):
            company.execute("DROP TABLE dept")


class TestDdl:
    def test_create_drop_cycle(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM t")

    def test_if_not_exists(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")  # no error

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS ghost")
        db.execute("DROP VIEW IF EXISTS ghost")

    def test_create_index_then_query_uses_it(self, company):
        company.execute("CREATE INDEX ix_salary ON emp (salary)")
        plan = company.execute("EXPLAIN SELECT * FROM emp WHERE salary > 100").plan
        assert "IndexRangeScan" in plan

    def test_open_low_index_range_skips_nulls(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
        db.execute("INSERT INTO t VALUES (0, NULL), (1, -7), (2, 5)")
        db.execute("CREATE INDEX ix_k ON t (k)")
        assert "IndexRangeScan" in db.execute("EXPLAIN SELECT id FROM t WHERE k < 0").plan
        assert db.query("SELECT id FROM t WHERE k < 0") == [(1,)]

    def test_drop_index(self, company):
        company.execute("CREATE INDEX ix_salary ON emp (salary)")
        company.execute("DROP INDEX ix_salary ON emp")
        plan = company.execute("EXPLAIN SELECT * FROM emp WHERE salary > 100").plan
        assert "IndexRangeScan" not in plan

    def test_unique_index_enforces(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("CREATE UNIQUE INDEX ux ON t (a)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (b INT)")


class TestSystemCatalogQueries:
    def test_tables_listing(self, company):
        rows = company.query("SELECT name, kind FROM _tables ORDER BY name")
        assert ("emp", "table") in rows and ("eng_emps", "view") in rows

    def test_columns_listing(self, company):
        rows = company.query(
            "SELECT name FROM _columns WHERE table_name = 'emp' ORDER BY position"
        )
        assert rows == [("id",), ("name",), ("dept_id",), ("salary",), ("hired",)]

    def test_indexes_listing(self, company):
        rows = company.query("SELECT name FROM _indexes WHERE table_name = 'dept'")
        assert rows == [("pk_dept",)]

    def test_views_listing(self, company):
        rows = company.query("SELECT name, check_option FROM _views")
        assert rows == [("eng_emps", True)]


class TestErrors:
    def test_division_by_zero_surfaces(self, company):
        with pytest.raises(ExecutionError):
            company.query("SELECT salary / 0 FROM emp")

    def test_scalar_on_multirow_raises(self, company):
        with pytest.raises(ExecutionError):
            company.execute("SELECT id FROM emp").scalar()

    def test_mappings(self, company):
        mappings = company.execute("SELECT id, name FROM dept ORDER BY id LIMIT 1").mappings()
        assert mappings == [{"id": 1, "name": "eng"}]
