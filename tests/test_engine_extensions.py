"""Tests for engine extensions: UNION, subqueries, savepoints, ALTER TABLE,
extra scalar functions, constant SELECT, and CSV import/export."""

import pytest

from repro.errors import (
    BindError,
    CatalogError,
    ParseError,
    PlanError,
    SchemaError,
    TransactionError,
    TypeMismatchError,
)
from repro.relational.csvio import (
    export_csv,
    export_csv_text,
    import_csv,
    import_csv_text,
)
from repro.relational.database import Database


@pytest.fixture
def two_tables(db):
    db.execute("CREATE TABLE a (x INT PRIMARY KEY, y TEXT)")
    db.execute("CREATE TABLE b (x INT PRIMARY KEY)")
    db.execute("INSERT INTO a VALUES (1, 'p'), (2, 'q'), (3, 'p')")
    db.execute("INSERT INTO b VALUES (1), (3), (9)")
    return db


class TestUnion:
    def test_union_distinct(self, two_tables):
        rows = two_tables.query("SELECT y FROM a UNION SELECT y FROM a ORDER BY y")
        assert rows == [("p",), ("q",)]

    def test_union_all(self, two_tables):
        rows = two_tables.query("SELECT y FROM a UNION ALL SELECT y FROM a")
        assert len(rows) == 6

    def test_union_across_tables(self, two_tables):
        rows = two_tables.query(
            "SELECT x FROM a UNION SELECT x FROM b ORDER BY x"
        )
        assert rows == [(1,), (2,), (3,), (9,)]

    def test_union_with_limit(self, two_tables):
        rows = two_tables.query(
            "SELECT x FROM a UNION SELECT x FROM b ORDER BY x LIMIT 2"
        )
        assert rows == [(1,), (2,)]

    def test_union_arity_mismatch(self, two_tables):
        with pytest.raises(PlanError):
            two_tables.query("SELECT x, y FROM a UNION SELECT x FROM b")

    def test_order_by_on_early_arm_rejected(self, two_tables):
        with pytest.raises(ParseError):
            two_tables.query("SELECT x FROM a ORDER BY x UNION SELECT x FROM b")

    def test_mixed_chain_left_associative(self, two_tables):
        # (a UNION a) keeps one copy; UNION ALL b then appends b verbatim.
        rows = two_tables.query(
            "SELECT x FROM a UNION SELECT x FROM a UNION ALL SELECT x FROM b"
        )
        assert len(rows) == 3 + 3


class TestSubqueries:
    def test_in_subquery(self, two_tables):
        rows = two_tables.query(
            "SELECT x FROM a WHERE x IN (SELECT x FROM b) ORDER BY x"
        )
        assert rows == [(1,), (3,)]

    def test_not_in_subquery(self, two_tables):
        rows = two_tables.query("SELECT x FROM a WHERE x NOT IN (SELECT x FROM b)")
        assert rows == [(2,)]

    def test_exists(self, two_tables):
        rows = two_tables.query(
            "SELECT x FROM a WHERE EXISTS (SELECT x FROM b WHERE x = 9)"
        )
        assert len(rows) == 3
        rows = two_tables.query(
            "SELECT x FROM a WHERE EXISTS (SELECT x FROM b WHERE x = 42)"
        )
        assert rows == []

    def test_not_exists(self, two_tables):
        rows = two_tables.query(
            "SELECT x FROM a WHERE NOT EXISTS (SELECT x FROM b WHERE x = 42)"
        )
        assert len(rows) == 3

    def test_scalar_subquery(self, two_tables):
        rows = two_tables.query("SELECT x FROM a WHERE x = (SELECT MIN(x) FROM b)")
        assert rows == [(1,)]

    def test_scalar_subquery_empty_is_null(self, two_tables):
        rows = two_tables.query(
            "SELECT x FROM a WHERE x = (SELECT x FROM b WHERE x = 42)"
        )
        assert rows == []  # comparison with NULL is unknown

    def test_scalar_subquery_multirow_rejected(self, two_tables):
        with pytest.raises(PlanError):
            two_tables.query("SELECT x FROM a WHERE x = (SELECT x FROM b)")

    def test_in_subquery_multicolumn_rejected(self, two_tables):
        two_tables.execute("CREATE TABLE c (p INT, q INT)")
        with pytest.raises(PlanError):
            two_tables.query("SELECT x FROM a WHERE x IN (SELECT p, q FROM c)")

    def test_correlated_subquery_rejected(self, two_tables):
        with pytest.raises(BindError):
            two_tables.query(
                "SELECT x FROM a WHERE x IN (SELECT x FROM b WHERE b.x = a.x)"
            )

    def test_nested_subqueries(self, two_tables):
        rows = two_tables.query(
            "SELECT x FROM a WHERE x IN "
            "(SELECT x FROM b WHERE x IN (SELECT x FROM a))"
        )
        assert rows == [(1,), (3,)]

    def test_a_view_depends_on_its_subquery_sources(self, two_tables):
        two_tables.execute(
            "CREATE VIEW v AS SELECT x FROM a WHERE x IN (SELECT x FROM b)"
        )
        with pytest.raises(CatalogError, match="views depend on it"):
            two_tables.execute("DROP TABLE b")
        assert two_tables.query("SELECT * FROM v ORDER BY x") == [(1,), (3,)]

    def test_insert_values_with_subqueries_matches_sqlite(self, two_tables):
        import sqlite3  # a test-time referee only

        referee = sqlite3.connect(":memory:")
        referee.executescript(
            "CREATE TABLE a (x INT PRIMARY KEY, y TEXT);"
            "CREATE TABLE b (x INT PRIMARY KEY);"
            "INSERT INTO a VALUES (1, 'p'), (2, 'q'), (3, 'p');"
            "INSERT INTO b VALUES (1), (3), (9);"
        )
        for sql in (
            "INSERT INTO b VALUES ((SELECT MAX(x) FROM a) + 10)",
            "INSERT INTO a VALUES (4, (SELECT MAX(y) FROM a)), "
            "(5, (SELECT y FROM a WHERE x = 42))",
            "INSERT INTO a (x, y) VALUES ((SELECT COUNT(*) FROM b) * 10, 'n')",
        ):
            two_tables.execute(sql)
            referee.execute(sql)
        for table in ("a", "b"):
            query = f"SELECT * FROM {table} ORDER BY x"
            assert two_tables.query(query) == referee.execute(query).fetchall()


class TestSavepoints:
    def test_basic_savepoint_rollback(self, two_tables):
        db = two_tables
        db.execute("BEGIN")
        db.execute("INSERT INTO b VALUES (100)")
        db.execute("SAVEPOINT sp")
        db.execute("INSERT INTO b VALUES (101)")
        db.execute("ROLLBACK TO sp")
        db.execute("COMMIT")
        xs = [x for (x,) in db.query("SELECT x FROM b ORDER BY x")]
        assert 100 in xs and 101 not in xs

    def test_savepoint_outside_txn_rejected(self, two_tables):
        with pytest.raises(TransactionError):
            two_tables.execute("SAVEPOINT sp")

    def test_rollback_to_unknown_rejected(self, two_tables):
        two_tables.execute("BEGIN")
        with pytest.raises(TransactionError):
            two_tables.execute("ROLLBACK TO ghost")

    def test_release_savepoint(self, two_tables):
        db = two_tables
        db.execute("BEGIN")
        db.execute("SAVEPOINT sp")
        db.execute("RELEASE SAVEPOINT sp")
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK TO sp")

    def test_nested_savepoints(self, two_tables):
        db = two_tables
        db.execute("BEGIN")
        db.execute("SAVEPOINT s1")
        db.execute("INSERT INTO b VALUES (200)")
        db.execute("SAVEPOINT s2")
        db.execute("INSERT INTO b VALUES (201)")
        db.execute("ROLLBACK TO s1")
        # s2 died with the rollback.
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK TO s2")
        db.execute("COMMIT")
        xs = [x for (x,) in db.query("SELECT x FROM b")]
        assert 200 not in xs and 201 not in xs

    def test_savepoints_cleared_on_commit(self, two_tables):
        db = two_tables
        db.execute("BEGIN")
        db.execute("SAVEPOINT sp")
        db.execute("COMMIT")
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK TO sp")


class TestAlterTable:
    def test_add_column_with_default(self, two_tables):
        db = two_tables
        db.execute("ALTER TABLE a ADD COLUMN z FLOAT DEFAULT 1.5")
        assert db.query("SELECT z FROM a WHERE x = 1") == [(1.5,)]
        db.execute("INSERT INTO a VALUES (4, 'r', 2.0)")
        assert db.query("SELECT z FROM a WHERE x = 4") == [(2.0,)]

    def test_add_column_nullable(self, two_tables):
        two_tables.execute("ALTER TABLE a ADD COLUMN note TEXT")
        assert two_tables.query("SELECT note FROM a WHERE x = 1") == [(None,)]

    def test_add_not_null_without_default_rejected(self, two_tables):
        with pytest.raises(CatalogError):
            two_tables.execute("ALTER TABLE a ADD COLUMN z INT NOT NULL")

    def test_add_duplicate_rejected(self, two_tables):
        with pytest.raises(CatalogError):
            two_tables.execute("ALTER TABLE a ADD COLUMN y TEXT")

    def test_drop_column(self, two_tables):
        two_tables.execute("ALTER TABLE a DROP COLUMN y")
        assert two_tables.catalog.schema_of("a").column_names == ("x",)
        assert two_tables.query("SELECT * FROM a WHERE x = 1") == [(1,)]

    def test_drop_pk_column_rejected(self, two_tables):
        with pytest.raises(CatalogError):
            two_tables.execute("ALTER TABLE a DROP COLUMN x")

    def test_drop_column_with_dependent_view_rejected(self, two_tables):
        two_tables.execute("CREATE VIEW va AS SELECT y FROM a")
        with pytest.raises(CatalogError):
            two_tables.execute("ALTER TABLE a DROP COLUMN y")

    def test_rename_table(self, two_tables):
        two_tables.execute("ALTER TABLE b RENAME TO bee")
        assert two_tables.query("SELECT COUNT(*) FROM bee") == [(3,)]
        with pytest.raises(CatalogError):
            two_tables.query("SELECT * FROM b")

    def test_rename_referenced_parent_rejected(self, db):
        db.execute("CREATE TABLE p (id INT PRIMARY KEY)")
        db.execute("CREATE TABLE c (pid INT, FOREIGN KEY (pid) REFERENCES p (id))")
        with pytest.raises(CatalogError):
            db.execute("ALTER TABLE p RENAME TO pp")

    def test_alter_preserves_pk_and_indexes(self, two_tables):
        db = two_tables
        db.execute("CREATE INDEX iy ON a (y)")
        db.execute("ALTER TABLE a ADD COLUMN z INT")
        table = db.catalog.table("a")
        assert "iy" in table.indexes
        from repro.errors import ConstraintError

        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO a VALUES (1, 'dup', NULL)")

    def test_alter_inside_txn_rejected(self, two_tables):
        two_tables.execute("BEGIN")
        with pytest.raises(TransactionError):
            two_tables.execute("ALTER TABLE a ADD COLUMN z INT")

    def test_alter_persists(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path, fsync=False)
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'x'")
        db.close()
        db2 = Database(path=path, fsync=False)
        assert db2.query("SELECT * FROM t") == [(1, "x")]
        db2.close()


class TestScalarFunctions:
    def test_round(self, db):
        assert db.query("SELECT ROUND(2.567, 2)") == [(2.57,)]
        assert db.query("SELECT ROUND(2.4)") == [(2.0,)]

    def test_trim_family(self, db):
        assert db.query("SELECT TRIM('  x  '), LTRIM('  x'), RTRIM('x  ')") == [
            ("x", "x", "x")
        ]

    def test_replace(self, db):
        assert db.query("SELECT REPLACE('banana', 'na', '-')") == [("ba--",)]

    def test_nullif(self, db):
        assert db.query("SELECT NULLIF(1, 1), NULLIF(1, 2)") == [(None, 1)]

    def test_null_propagation(self, db):
        assert db.query("SELECT TRIM(NULL), ROUND(NULL)") == [(None, None)]

    def test_constant_select_arithmetic(self, db):
        assert db.query("SELECT 2 + 3 * 4 AS v") == [(14,)]


class TestInsertSelect:
    @pytest.fixture
    def pair(self, db):
        db.execute("CREATE TABLE src (a INT PRIMARY KEY, b TEXT)")
        db.execute("CREATE TABLE dst (a INT PRIMARY KEY, b TEXT)")
        db.execute("INSERT INTO src VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        return db

    def test_basic_copy(self, pair):
        result = pair.execute("INSERT INTO dst SELECT a, b FROM src WHERE a > 1")
        assert result.rowcount == 2
        assert pair.query("SELECT * FROM dst ORDER BY a") == [(2, "y"), (3, "z")]

    def test_column_list_reorders(self, pair):
        pair.execute("INSERT INTO dst (b, a) SELECT b, a + 100 FROM src")
        assert pair.query("SELECT a, b FROM dst ORDER BY a") == [
            (101, "x"),
            (102, "y"),
            (103, "z"),
        ]

    def test_self_insert_materialises_first(self, pair):
        pair.execute("INSERT INTO src SELECT a + 10, b FROM src")
        assert pair.execute("SELECT COUNT(*) FROM src").scalar() == 6

    def test_arity_mismatch_rejected(self, pair):
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            pair.execute("INSERT INTO dst SELECT a FROM src")

    def test_atomic_on_constraint_error(self, pair):
        from repro.errors import ConstraintError

        pair.execute("INSERT INTO dst VALUES (3, 'pre')")
        with pytest.raises(ConstraintError):
            pair.execute("INSERT INTO dst SELECT a, b FROM src")  # 3 collides
        assert pair.execute("SELECT COUNT(*) FROM dst").scalar() == 1

    def test_into_view(self, pair):
        pair.execute("CREATE VIEW dv AS SELECT a, b FROM dst")
        pair.execute("INSERT INTO dv SELECT a, b FROM src WHERE a = 1")
        assert pair.query("SELECT * FROM dst") == [(1, "x")]

    def test_scalar_subquery_in_set(self, pair):
        pair.execute("UPDATE src SET a = (SELECT MAX(a) FROM src) + a WHERE a = 1")
        assert pair.query("SELECT a FROM src ORDER BY a") == [(2,), (3,), (4,)]


class TestCheckConstraints:
    @pytest.fixture
    def acct(self, db):
        db.execute(
            "CREATE TABLE acct (id INT PRIMARY KEY, balance FLOAT, "
            "kind TEXT, CHECK (balance >= 0), "
            "CHECK (kind IN ('savings', 'checking')))"
        )
        db.execute("INSERT INTO acct VALUES (1, 10.0, 'savings')")
        return db

    def test_insert_violation(self, acct):
        from repro.errors import CheckConstraintError

        with pytest.raises(CheckConstraintError):
            acct.execute("INSERT INTO acct VALUES (2, -5.0, 'savings')")
        with pytest.raises(CheckConstraintError):
            acct.execute("INSERT INTO acct VALUES (2, 5.0, 'slush-fund')")

    def test_update_violation(self, acct):
        from repro.errors import CheckConstraintError

        with pytest.raises(CheckConstraintError):
            acct.execute("UPDATE acct SET balance = -1 WHERE id = 1")

    def test_null_passes(self, acct):
        acct.execute("INSERT INTO acct VALUES (3, NULL, 'checking')")

    def test_violation_is_atomic(self, acct):
        from repro.errors import CheckConstraintError

        with pytest.raises(CheckConstraintError):
            acct.execute(
                "INSERT INTO acct VALUES (4, 1.0, 'savings'), (5, -1.0, 'savings')"
            )
        assert acct.execute("SELECT COUNT(*) FROM acct").scalar() == 1

    def test_check_enforced_through_view(self, acct):
        from repro.errors import CheckConstraintError

        acct.execute("CREATE VIEW v AS SELECT id, balance FROM acct")
        with pytest.raises(CheckConstraintError):
            acct.update("v", {"balance": -9.0}, "id = 1")

    def test_bad_check_column_rejected_at_ddl(self, db):
        from repro.errors import BindError

        with pytest.raises(BindError):
            db.execute("CREATE TABLE t (a INT, CHECK (ghost > 0))")

    def test_check_survives_reopen(self, tmp_path):
        from repro.errors import CheckConstraintError

        path = str(tmp_path / "db")
        db = Database(path=path, fsync=False)
        db.execute("CREATE TABLE t (a INT, CHECK (a < 100))")
        db.close()
        db2 = Database(path=path, fsync=False)
        with pytest.raises(CheckConstraintError):
            db2.execute("INSERT INTO t VALUES (200)")
        db2.close()

    def test_check_survives_alter(self, acct):
        from repro.errors import CheckConstraintError

        acct.execute("ALTER TABLE acct ADD COLUMN note TEXT")
        with pytest.raises(CheckConstraintError):
            acct.execute("INSERT INTO acct VALUES (9, -2.0, 'savings', 'x')")


@pytest.fixture
def people(db):
    db.execute(
        "CREATE TABLE people (id INT PRIMARY KEY, name TEXT NOT NULL, "
        "born DATE, score FLOAT)"
    )
    db.execute(
        "INSERT INTO people VALUES "
        "(1, 'ann', '1960-05-04', 9.5), (2, 'bob', NULL, NULL)"
    )
    return db


class TestCsv:
    def test_export_text(self, people):
        text = export_csv_text(people, "people")
        lines = text.strip().splitlines()
        assert lines[0] == "id,name,born,score"
        assert lines[1] == "1,ann,1960-05-04,9.5"
        assert lines[2] == "2,bob,,"

    def test_roundtrip(self, people):
        text = export_csv_text(people, "people")
        people.execute("DELETE FROM people")
        count = import_csv_text(people, "people", text)
        assert count == 2
        assert people.query("SELECT name FROM people ORDER BY id") == [
            ("ann",),
            ("bob",),
        ]
        assert people.query("SELECT born FROM people WHERE id = 2") == [(None,)]

    def test_file_roundtrip(self, people, tmp_path):
        path = str(tmp_path / "people.csv")
        assert export_csv(people, "people", path) == 2
        people.execute("DELETE FROM people")
        assert import_csv(people, "people", path) == 2

    def test_import_partial_columns(self, people):
        count = import_csv_text(people, "people", "id,name\n7,zoe\n")
        assert count == 1
        assert people.query("SELECT score FROM people WHERE id = 7") == [(None,)]

    def test_import_unknown_column_rejected(self, people):
        with pytest.raises(SchemaError):
            import_csv_text(people, "people", "id,ghost\n7,1\n")

    def test_import_is_atomic(self, people):
        bad = "id,name\n7,zoe\n1,dup\n"  # second row violates PK
        with pytest.raises(Exception):
            import_csv_text(people, "people", bad)
        assert people.execute("SELECT COUNT(*) FROM people").scalar() == 2

    def test_import_bad_type_reports_line(self, people):
        with pytest.raises(TypeMismatchError):
            import_csv_text(people, "people", "id,name\nnot-a-number,zoe\n")

    def test_import_arity_mismatch(self, people):
        with pytest.raises(SchemaError):
            import_csv_text(people, "people", "id,name\n7\n")

    def test_export_where(self, people):
        text = export_csv_text(people, "people", where="id = 1")
        assert "bob" not in text

    def test_export_view(self, people):
        people.execute("CREATE VIEW scored AS SELECT id, score FROM people")
        text = export_csv_text(people, "scored")
        assert text.splitlines()[0] == "id,score"

    def test_import_through_view(self, people):
        people.execute(
            "CREATE VIEW named AS SELECT id, name FROM people WHERE score IS NULL"
        )
        import_csv_text(people, "named", "id,name\n9,view-born\n")
        assert people.query("SELECT name FROM people WHERE id = 9") == [
            ("view-born",)
        ]
