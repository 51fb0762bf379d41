"""Tests for the catalog layer, system-table protection, and scripts."""

import pytest

from repro.errors import CatalogError, ParseError
from repro.relational.catalog import Catalog, view_dependencies
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType


def schema(name="t"):
    return TableSchema(name, [Column("a", ColumnType.INT)])


class TestCatalog:
    def test_create_and_resolve(self):
        catalog = Catalog()
        table = catalog.create_table(schema())
        assert catalog.table("t") is table
        assert catalog.resolve("T") is table
        assert catalog.has_table("t")

    def test_duplicate_name_rejected(self):
        catalog = Catalog()
        catalog.create_table(schema())
        with pytest.raises(CatalogError):
            catalog.create_table(schema())

    def test_system_names_reserved(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.create_table(schema("_tables"))

    def test_unknown_lookups(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.table("ghost")
        with pytest.raises(CatalogError):
            catalog.view("ghost")
        with pytest.raises(CatalogError):
            catalog.resolve("ghost")

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table(schema())
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_tables_sorted(self):
        catalog = Catalog()
        catalog.create_table(schema("zeta"))
        catalog.create_table(schema("alpha"))
        assert [t.name for t in catalog.tables()] == ["alpha", "zeta"]

    def test_view_dependencies_helper(self, company):
        view = company.catalog.view("eng_emps")
        assert view_dependencies(view) == ["emp"]

    def test_system_tables_are_fresh_copies(self, company):
        first = company.catalog.table("_tables")
        second = company.catalog.table("_tables")
        assert first is not second  # synthesised per access


class TestSystemTableProtection:
    def test_dml_rejected(self, company):
        with pytest.raises(CatalogError):
            company.insert("_tables", {"name": "fake", "kind": "table", "arity": 1})
        with pytest.raises(CatalogError):
            company.delete("_columns")
        with pytest.raises(CatalogError):
            company.execute("UPDATE _views SET name = 'x'")

    def test_select_still_fine(self, company):
        assert company.execute("SELECT COUNT(*) FROM _tables").scalar() >= 2

    def test_browse_form_over_catalog(self, company):
        """The catalog itself is browsable through the UI — a 1983 delight."""
        from repro.core import WowApp
        from repro.windows.geometry import Rect

        app = WowApp(company, width=90, height=20)
        browser = app.open_browser("_columns", Rect(0, 0, 85, 15))
        assert len(browser.rows) > 5
        app.expect_on_screen("table_name")


class TestExecuteScript:
    SCRIPT = (
        "CREATE TABLE t (id INT PRIMARY KEY, x INT); "
        "CREATE VIEW v AS SELECT id FROM t WHERE x > 0; "
        "INSERT INTO t VALUES (1, 5)"
    )

    def test_view_keeps_its_own_text(self):
        db = Database()
        db.execute_script(self.SCRIPT)
        assert db.query("SELECT definition FROM _views") == [
            ("CREATE VIEW v AS SELECT id FROM t WHERE x > 0",)
        ]

    def test_view_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path)
        db.execute_script(self.SCRIPT)
        db.close()
        reopened = Database(path=path)
        assert not reopened.read_only
        assert reopened.integrity_check().ok
        assert reopened.query("SELECT * FROM v") == [(1,)]
        assert reopened.query("SELECT definition FROM _views") == [
            ("CREATE VIEW v AS SELECT id FROM t WHERE x > 0",)
        ]
        reopened.close()

    def test_syntax_error_anywhere_runs_nothing(self):
        db = Database()
        with pytest.raises(ParseError):
            db.execute_script("CREATE TABLE t (id INT PRIMARY KEY); FROB")
        assert not db.catalog.has_table("t")

    def test_statements_are_captured(self):
        db = Database()
        db.execute_script(self.SCRIPT)
        kinds = [r.kind for r in db.statement_log.records()]
        assert kinds == ["CreateTable", "CreateView", "Insert"]
