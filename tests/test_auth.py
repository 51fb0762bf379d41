"""Tests for authorization: users, ownership, GRANT/REVOKE, views as
protection domains."""

import pytest

from repro.relational.auth import ALL_PRIVILEGES, AuthError, AuthManager, Privilege
from repro.relational.database import Database


@pytest.fixture
def secured(db):
    db.execute("CREATE TABLE payroll (id INT PRIMARY KEY, name TEXT, salary FLOAT)")
    db.execute("INSERT INTO payroll VALUES (1, 'ada', 100.0), (2, 'boss', 999.0)")
    db.execute(
        "CREATE VIEW staff AS SELECT id, name FROM payroll WHERE salary < 500"
    )
    return db


class TestAuthManager:
    def test_owner_holds_everything(self):
        auth = AuthManager()
        auth.record_owner("t", "alice")
        for privilege in Privilege:
            auth.check("alice", privilege, "t")  # no raise

    def test_superuser_bypasses(self):
        auth = AuthManager()
        auth.record_owner("t", "alice")
        auth.check("dba", Privilege.DELETE, "t")

    def test_grant_and_check(self):
        auth = AuthManager()
        auth.record_owner("t", "alice")
        auth.grant("alice", {Privilege.SELECT}, "t", "bob")
        auth.check("bob", Privilege.SELECT, "t")
        with pytest.raises(AuthError):
            auth.check("bob", Privilege.UPDATE, "t")

    def test_non_owner_cannot_grant(self):
        auth = AuthManager()
        auth.record_owner("t", "alice")
        with pytest.raises(AuthError):
            auth.grant("bob", {Privilege.SELECT}, "t", "carol")

    def test_revoke(self):
        auth = AuthManager()
        auth.record_owner("t", "alice")
        auth.grant("alice", set(ALL_PRIVILEGES), "t", "bob")
        auth.revoke("alice", {Privilege.DELETE}, "t", "bob")
        auth.check("bob", Privilege.SELECT, "t")
        with pytest.raises(AuthError):
            auth.check("bob", Privilege.DELETE, "t")

    def test_forget_object_drops_grants(self):
        auth = AuthManager()
        auth.record_owner("t", "alice")
        auth.grant("alice", {Privilege.SELECT}, "t", "bob")
        auth.forget_object("t")
        assert auth.owner_of("t") is None
        assert auth.privileges_of("bob", "t") == set()

    def test_doc_roundtrip(self):
        auth = AuthManager()
        auth.record_owner("t", "alice")
        auth.grant("alice", {Privilege.SELECT, Privilege.INSERT}, "t", "bob")
        restored = AuthManager.from_doc(auth.to_doc())
        restored.check("bob", Privilege.INSERT, "t")
        assert restored.owner_of("t") == "alice"

    def test_unknown_privilege_name(self):
        with pytest.raises(AuthError):
            Privilege.from_name("FROB")


class TestSqlLevelAuth:
    def test_view_as_protection_domain(self, secured):
        secured.execute("GRANT SELECT ON staff TO clerk")
        secured.set_user("clerk")
        assert secured.query("SELECT * FROM staff") == [(1, "ada")]
        with pytest.raises(AuthError):
            secured.query("SELECT * FROM payroll")

    def test_join_requires_both_sides(self, secured):
        secured.execute("CREATE TABLE extra (id INT PRIMARY KEY)")
        secured.execute("GRANT SELECT ON staff TO clerk")
        secured.set_user("clerk")
        with pytest.raises(AuthError):
            secured.query(
                "SELECT * FROM staff s JOIN extra e ON s.id = e.id"
            )

    def test_subquery_sources_checked(self, secured):
        secured.execute("GRANT SELECT ON staff TO clerk")
        secured.set_user("clerk")
        with pytest.raises(AuthError):
            secured.query(
                "SELECT id FROM staff WHERE id IN (SELECT id FROM payroll)"
            )

    def test_dml_subquery_sources_checked(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
        db.execute("CREATE TABLE secret (y INT)")
        db.execute("INSERT INTO t VALUES (1, 0)")
        db.execute("INSERT INTO secret VALUES (42)")
        db.execute("GRANT SELECT, INSERT, UPDATE, DELETE ON t TO clerk")
        db.set_user("clerk")
        for sql in (
            "UPDATE t SET x = (SELECT MAX(y) FROM secret)",
            "UPDATE t SET x = 1 WHERE x IN (SELECT y FROM secret)",
            "DELETE FROM t WHERE x IN (SELECT y FROM secret)",
            "INSERT INTO t VALUES (2, (SELECT MAX(y) FROM secret))",
        ):
            with pytest.raises(AuthError):
                db.execute(sql)
        with pytest.raises(AuthError):
            db.update("t", {"x": 1}, "x IN (SELECT y FROM secret)")
        with pytest.raises(AuthError):
            db.delete("t", "x IN (SELECT y FROM secret)")
        assert db.query("SELECT id, x FROM t") == [(1, 0)]

    def test_dml_privileges_separate(self, secured):
        secured.execute("GRANT SELECT, UPDATE ON staff TO clerk")
        secured.set_user("clerk")
        secured.execute("UPDATE staff SET name = 'eve' WHERE id = 1")
        with pytest.raises(AuthError):
            secured.execute("DELETE FROM staff WHERE id = 1")
        with pytest.raises(AuthError):
            secured.execute("INSERT INTO staff (id, name) VALUES (9, 'x')")

    def test_grant_all(self, secured):
        secured.execute("GRANT ALL ON staff TO clerk")
        secured.set_user("clerk")
        secured.execute("DELETE FROM staff WHERE id = 1")

    def test_revoke_sql(self, secured):
        secured.execute("GRANT SELECT ON staff TO clerk")
        secured.execute("REVOKE SELECT ON staff FROM clerk")
        secured.set_user("clerk")
        with pytest.raises(AuthError):
            secured.query("SELECT * FROM staff")

    def test_only_owner_grants(self, secured):
        secured.set_user("mallory")
        with pytest.raises(AuthError):
            secured.execute("GRANT SELECT ON payroll TO mallory")

    def test_non_owner_cannot_drop_or_alter(self, secured):
        secured.set_user("clerk")
        with pytest.raises(AuthError):
            secured.execute("DROP TABLE payroll")
        with pytest.raises(AuthError):
            secured.execute("ALTER TABLE payroll ADD COLUMN x INT")
        with pytest.raises(AuthError):
            secured.execute("CREATE INDEX ix ON payroll (name)")

    def test_create_view_requires_select_on_sources(self, secured):
        secured.set_user("clerk")
        with pytest.raises(AuthError):
            secured.execute("CREATE VIEW mine AS SELECT id FROM payroll")

    def test_user_owns_own_objects(self, secured):
        secured.set_user("clerk")
        secured.execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
        secured.execute("INSERT INTO notes VALUES (1, 'hello')")
        assert secured.query("SELECT body FROM notes") == [("hello",)]
        secured.execute("DROP TABLE notes")

    def test_system_tables_always_readable(self, secured):
        secured.set_user("clerk")
        assert secured.query("SELECT COUNT(*) FROM _tables")[0][0] >= 2

    def test_programmatic_dml_checked(self, secured):
        secured.set_user("clerk")
        with pytest.raises(AuthError):
            secured.insert("payroll", {"id": 9, "name": "x", "salary": 1.0})
        with pytest.raises(AuthError):
            secured.update("payroll", {"salary": 0.0})
        with pytest.raises(AuthError):
            secured.delete("payroll")

    def test_grants_survive_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path, fsync=False)
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute("GRANT SELECT ON t TO clerk")
        db.close()
        db2 = Database(path=path, fsync=False)
        db2.set_user("clerk")
        assert db2.query("SELECT COUNT(*) FROM t") == [(0,)]
        with pytest.raises(AuthError):
            db2.execute("DELETE FROM t")
        db2.close()

    def test_forms_respect_privileges(self, secured):
        from repro.forms import FormController, generate_form

        secured.execute("GRANT SELECT ON staff TO clerk")
        secured.set_user("clerk")
        controller = FormController(secured, generate_form(secured, "staff"))
        assert controller.record_count == 1
        controller.begin_edit()
        controller.set_field("name", "zz")
        assert not controller.save()  # UPDATE not granted
        assert "error" in controller.message
