"""Property-based whole-engine tests.

Three families:

* **planner equivalence** — random queries must return identical result
  sets no matter which planner features or join strategies are enabled;
* **model-based DML** — a random interleaving of inserts/updates/deletes
  (with savepoints) must leave the table equal to a plain-dict model;
* **index maintenance** — after every ``Table`` insert/update/delete,
  accepted or refused, each index equals a rebuild from the heap.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintError, StorageError
from repro.relational.database import Database
from repro.relational.heap import HeapFile
from repro.relational.indexes import BTreeIndex, HashIndex
from repro.relational.pager import MemoryPager
from repro.relational.planner import PlannerConfig
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import ColumnType


def _make_db(rows):
    db = Database()
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, tag TEXT)"
    )
    db.execute("CREATE TABLE g (grp INT PRIMARY KEY, label TEXT)")
    for grp in range(5):
        db.insert("g", {"grp": grp, "label": f"g{grp}"})
    for row_id, (grp, val, tag) in enumerate(rows):
        db.insert(
            "t",
            {
                "id": row_id,
                "grp": grp if grp is not None else None,
                "val": val,
                "tag": tag,
            },
        )
    db.execute("CREATE INDEX it ON t (val)")
    return db


row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(0, 4)),  # grp (FK-ish, nullable)
    st.one_of(st.none(), st.integers(-20, 20)),  # val
    st.sampled_from(["a", "b", "ab", "ba", ""]),  # tag
)

query_strategy = st.sampled_from(
    [
        "SELECT id FROM t WHERE val > 0 ORDER BY id",
        "SELECT id FROM t WHERE val >= -5 AND val <= 5 ORDER BY id",
        "SELECT id FROM t WHERE val = 3 OR tag = 'ab' ORDER BY id",
        "SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp ORDER BY t.id",
        "SELECT t.id FROM t LEFT JOIN g ON t.grp = g.grp WHERE g.label IS NULL ORDER BY t.id",
        "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t GROUP BY grp ORDER BY grp",
        "SELECT DISTINCT tag FROM t ORDER BY tag",
        "SELECT id FROM t WHERE tag LIKE 'a%' ORDER BY id",
        "SELECT id FROM t WHERE grp IN (SELECT grp FROM g WHERE label != 'g0') ORDER BY id",
        "SELECT g.label, COUNT(*) AS n FROM t JOIN g ON t.grp = g.grp "
        "GROUP BY g.label HAVING COUNT(*) > 1 ORDER BY g.label",
    ]
)


class TestPlannerEquivalence:
    @given(rows=st.lists(row_strategy, max_size=30), sql=query_strategy)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_feature_toggles_preserve_results(self, rows, sql):
        db = _make_db(rows)
        reference = db.query(sql)
        configurations = [
            PlannerConfig(enable_pushdown=False),
            PlannerConfig(enable_index_selection=False),
            PlannerConfig(enable_join_reorder=False),
            PlannerConfig(join_strategy="nl"),
            PlannerConfig(join_strategy="merge"),
            PlannerConfig(
                enable_pushdown=False,
                enable_index_selection=False,
                enable_join_reorder=False,
                join_strategy="nl",
            ),
        ]
        for config in configurations:
            db.planner.config = config
            assert sorted(map(repr, db.query(sql))) == sorted(map(repr, reference)), (
                f"config {config} changed results for {sql}"
            )
        db.planner.config = PlannerConfig()

    @given(rows=st.lists(row_strategy, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_order_by_is_sorted(self, rows):
        db = _make_db(rows)
        values = [v for (v,) in db.query("SELECT val FROM t ORDER BY val")]
        from repro.relational.types import sort_key

        assert values == sorted(values, key=sort_key)

    @given(rows=st.lists(row_strategy, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_count_star_matches_len(self, rows):
        db = _make_db(rows)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)

    @given(rows=st.lists(row_strategy, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_where_partition(self, rows):
        """Rows matching P, NOT P, and P-is-NULL partition the table."""
        db = _make_db(rows)
        positive = db.execute("SELECT COUNT(*) FROM t WHERE val > 0").scalar()
        negative = db.execute("SELECT COUNT(*) FROM t WHERE NOT val > 0").scalar()
        nulls = db.execute("SELECT COUNT(*) FROM t WHERE val IS NULL").scalar()
        assert positive + negative + nulls == len(rows)


#: wowlint WOW006 ledger: every Operator subclass with a *native*
#: ``rows_batched`` maps to a SQL statement whose plan contains it.  The
#: linter cross-references these keys against algebra.py; the meta-tests
#: below check the other direction (each SQL really exercises its operator
#: and its batched path matches the tuple path).
BATCHED_OPERATOR_REGISTRY = {
    "SeqScan": "SELECT id, grp, val, tag FROM t",
    "IndexEqScan": "SELECT id FROM t WHERE val = 3",
    "IndexRangeScan": "SELECT id FROM t WHERE val >= -5 AND val <= 5",
    "RowSource": "SELECT 1, 'x'",
    "Rename": "SELECT vid FROM tv",
    "Filter": "SELECT id FROM t WHERE tag = 'a'",
    "Project": "SELECT id FROM t",
    "Sort": "SELECT id FROM t ORDER BY tag",
    "Limit": "SELECT id FROM t LIMIT 5",
    "Distinct": "SELECT DISTINCT tag FROM t",
    "HashJoin": "SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp",
    "UnionAll": "SELECT id FROM t UNION ALL SELECT grp FROM g",
    "Aggregate": "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp",
}


class TestBatchedOperatorRegistry:
    """The registry is honest in both directions: complete and exercising."""

    @staticmethod
    def _plan_for(db, sql):
        from repro.sql.ast_nodes import Union as SqlUnion
        from repro.sql.parser import parse_statement

        statement = parse_statement(sql)
        if isinstance(statement, SqlUnion):
            return db.planner.plan_union(statement)
        return db.planner.plan_select(statement)

    def test_registry_covers_every_native_batched_operator(self):
        import inspect

        import repro.relational.algebra as algebra_mod
        from repro.analysis.rules import native_batched_operators

        source = inspect.getsource(algebra_mod)
        native = {name for name, _line in native_batched_operators(source)}
        assert set(BATCHED_OPERATOR_REGISTRY) == native, (
            "BATCHED_OPERATOR_REGISTRY out of sync with algebra.py: "
            f"missing={sorted(native - set(BATCHED_OPERATOR_REGISTRY))} "
            f"extra={sorted(set(BATCHED_OPERATOR_REGISTRY) - native)}"
        )

    def test_each_registered_sql_exercises_its_operator(self):
        from repro.analysis.planverify import iter_operators, verify_plan

        db = _make_db([(1, 3, "a"), (2, -1, "b"), (None, 5, "ab"), (0, None, "")])
        db.execute("CREATE VIEW tv AS SELECT id AS vid FROM t WHERE val > 0")
        for op_name, sql in BATCHED_OPERATOR_REGISTRY.items():
            plan = self._plan_for(db, sql)
            kinds = {type(op).__name__ for op in iter_operators(plan)}
            assert op_name in kinds, (
                f"{sql!r} no longer exercises {op_name}; its plan contains {sorted(kinds)}"
            )
            verify_plan(plan)
            reference = list(plan.rows())
            flattened = [row for batch in plan.rows_batched(batch_size=2) for row in batch]
            assert flattened == reference, f"batched path diverged for {op_name}"


batched_query_strategy = st.sampled_from(
    [
        # Plain scans and filters (NULL-heavy columns flow through batches).
        "SELECT id, grp, val, tag FROM t ORDER BY id",
        "SELECT id FROM t WHERE val IS NULL ORDER BY id",
        "SELECT id FROM t WHERE val > 0 ORDER BY id",
        # LIMIT/OFFSET chosen to straddle the small batch sizes below.
        "SELECT id FROM t ORDER BY id LIMIT 5",
        "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 3",
        "SELECT id FROM t ORDER BY id LIMIT 0",
        # DISTINCT must dedupe across batch boundaries.
        "SELECT DISTINCT grp FROM t ORDER BY grp",
        "SELECT DISTINCT tag FROM t ORDER BY tag",
        # Joins, grouping, and index scans get their native batched paths.
        "SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp ORDER BY t.id",
        "SELECT t.id FROM t LEFT JOIN g ON t.grp = g.grp ORDER BY t.id",
        "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t GROUP BY grp ORDER BY grp",
        "SELECT id FROM t WHERE val = 3 ORDER BY id",
        "SELECT id FROM t WHERE val >= -5 AND val <= 5 ORDER BY id",
    ]
)


class TestBatchedEquivalence:
    """rows_batched() is transport, not semantics: identical rows, same order."""

    @given(
        rows=st.lists(row_strategy, max_size=30),
        sql=batched_query_strategy,
        batch_size=st.sampled_from([1, 2, 3, 7, 1024]),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rows_batched_matches_rows(self, rows, sql, batch_size):
        from repro.sql.parser import parse_statement

        db = _make_db(rows)
        plan = db.planner.plan_select(parse_statement(sql))
        reference = list(plan.rows())
        batches = list(plan.rows_batched(batch_size=batch_size))
        assert all(batches), f"empty batch emitted for {sql}"
        assert [row for batch in batches for row in batch] == reference, (
            f"batched execution (batch_size={batch_size}) diverged for {sql}"
        )

    def test_empty_table_yields_no_batches(self):
        from repro.sql.parser import parse_statement

        db = _make_db([])
        for sql in (
            "SELECT id FROM t",
            "SELECT DISTINCT tag FROM t",
            "SELECT id FROM t ORDER BY id LIMIT 5",
        ):
            plan = db.planner.plan_select(parse_statement(sql))
            assert list(plan.rows_batched()) == []


op_strategy = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 30), st.integers(-5, 5)),
    st.tuples(st.just("delete"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("update"), st.integers(0, 30), st.integers(-5, 5)),
    st.tuples(st.just("savepoint"), st.just(0), st.just(0)),
    st.tuples(st.just("rollback_sp"), st.just(0), st.just(0)),
)


class TestModelBasedDml:
    @given(ops=st.lists(op_strategy, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_engine_matches_dict_model(self, ops):
        db = Database()
        db.execute("CREATE TABLE m (k INT PRIMARY KEY, v INT)")
        model = {}
        db.execute("BEGIN")
        saved_model = None
        have_savepoint = False
        for op, key, value in ops:
            if op == "insert":
                if key in model:
                    continue
                db.insert("m", {"k": key, "v": value})
                model[key] = value
            elif op == "delete":
                if key not in model:
                    continue
                db.delete("m", f"k = {key}")
                del model[key]
            elif op == "update":
                if key not in model:
                    continue
                db.update("m", {"v": value}, f"k = {key}")
                model[key] = value
            elif op == "savepoint":
                db.execute("SAVEPOINT sp")
                saved_model = dict(model)
                have_savepoint = True
            elif op == "rollback_sp" and have_savepoint:
                db.execute("ROLLBACK TO sp")
                model = dict(saved_model)
        db.execute("COMMIT")
        assert dict(db.query("SELECT k, v FROM m")) == model

    @given(ops=st.lists(op_strategy, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_full_rollback_restores_initial_state(self, ops):
        db = Database()
        db.execute("CREATE TABLE m (k INT PRIMARY KEY, v INT)")
        for key in range(5):
            db.insert("m", {"k": key, "v": key})
        before = db.query("SELECT k, v FROM m ORDER BY k")
        db.execute("BEGIN")
        model_keys = {k for k in range(5)}
        for op, key, value in ops:
            try:
                if op == "insert" and key not in model_keys:
                    db.insert("m", {"k": key, "v": value})
                    model_keys.add(key)
                elif op == "delete" and key in model_keys:
                    db.delete("m", f"k = {key}")
                    model_keys.discard(key)
                elif op == "update" and key in model_keys:
                    db.update("m", {"v": value}, f"k = {key}")
            except Exception:
                pass
        db.execute("ROLLBACK")
        assert db.query("SELECT k, v FROM m ORDER BY k") == before


class TestPersistencePropertyLite:
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 1000), st.text(max_size=20)),
            max_size=30,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_crash_recovery_preserves_rows(self, rows, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("pdb"))
        db = Database(path=path, fsync=False)
        db.execute("CREATE TABLE r (k INT PRIMARY KEY, s TEXT)")
        for key, text in rows:
            db.insert("r", {"k": key, "s": text})
        # Crash (no close); reopen and compare.
        db2 = Database(path=path, fsync=False)
        assert sorted(db2.query("SELECT k, s FROM r")) == sorted(rows)
        db2.close()


# -- Table.update keeps every index equal to a rebuild from the heap ----------

_PADS = (0, 10, 1500, 3000, 5000)  # 5000 exceeds a page: heap refuses it

_row_values = st.tuples(
    st.integers(0, 15),                        # k   primary key
    st.one_of(st.none(), st.integers(0, 15)),  # u   UNIQUE, nullable
    st.integers(0, 2),                         # g   non-unique hash index
    st.sampled_from(_PADS),                    # pad length: growth relocates
)

_table_op = st.one_of(
    st.tuples(st.just("insert"), st.just(0), _row_values),
    st.tuples(st.just("delete"), st.integers(0, 50), st.none()),
    # which columns an update overwrites: none, one, or every key — and the pad
    st.tuples(
        st.sampled_from(["update"] * 4 + ["update_heap_fails"]),
        st.integers(0, 50),
        st.tuples(_row_values, st.tuples(*[st.booleans()] * 4)),
    ),
)


def _index_entries(table):
    """Every index's (key, rid) pairs, read from the structures themselves."""
    entries = {}
    for name, index in table.indexes.items():
        if isinstance(index, BTreeIndex):
            pairs = list(index.range_scan())
        else:
            pairs = [(key, rid) for key, bucket in index._map.items() for rid in bucket]
        assert len(pairs) == len(index)
        entries[name] = sorted(pairs, key=repr)
    return entries


def _indexed_table():
    schema = TableSchema(
        "t",
        [
            Column("k", ColumnType.INT), Column("u", ColumnType.INT),
            Column("g", ColumnType.INT), Column("pad", ColumnType.TEXT),
        ],
        primary_key=["k"],
        unique=[["u"]],
    )
    table = Table(schema, HeapFile(MemoryPager()))
    table.add_index("ix_g", "hash", ["g"])
    return table


def _assert_indexes_match_heap(table):
    entries = _index_entries(table)
    table.rebuild_indexes()
    assert _index_entries(table) == entries


class TestTableIndexMaintenance:
    @given(ops=st.lists(_table_op, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_every_step_leaves_indexes_equal_to_a_rebuild(self, ops):
        table = _indexed_table()
        for k in range(4):  # two full pages: the first growth already relocates
            table.insert((k, k, k % 3, "x" * 1500))
        for op, pick, arg in ops:
            before = (list(table.scan()), _index_entries(table))
            live = [rid for rid, _row in before[0]]
            try:
                if op == "insert":
                    k, u, g, pad = arg
                    table.insert((k, u, g, "x" * pad))
                elif live and op == "delete":
                    table.delete(live[pick % len(live)])
                elif live:
                    rid = live[pick % len(live)]
                    (k, u, g, pad), overwrite = arg
                    new_row = [
                        new if chosen else old
                        for old, new, chosen in zip(
                            table.read(rid), (k, u, g, "x" * pad), overwrite
                        )
                    ]
                    heap_fails = (
                        mock.patch.object(
                            table.heap, "update", side_effect=StorageError("injected")
                        )
                        if op == "update_heap_fails"
                        else contextlib.nullcontext()
                    )
                    with heap_fails:
                        table.update(rid, new_row)
            except (ConstraintError, StorageError):
                # refused: duplicate key, oversize record or the injected
                # failure — heap and indexes are exactly as they were
                assert (list(table.scan()), _index_entries(table)) == before
            _assert_indexes_match_heap(table)

    def test_growing_past_the_page_moves_the_row_in_every_index(self):
        table = _indexed_table()
        rids = [table.insert((k, k, 0, "x" * 1500)) for k in range(2)]  # one full page
        new_rid, _old = table.update(rids[0], (0, 0, 0, "x" * 3000))
        assert new_rid.page != rids[0].page
        assert all(
            index.lookup(key) == [new_rid]
            for index, key in ((table.indexes["pk_t"], (0,)), (table.indexes["uq_t_0"], (0,)))
        )
        _assert_indexes_match_heap(table)

    def test_an_update_that_changes_no_key_touches_no_index(self, monkeypatch):
        table = _indexed_table()
        rid = table.insert((1, 2, 3, "before"))
        touched = []

        def recording(real):
            def method(index, key, rid):
                touched.append(index.name)
                return real(index, key, rid)

            return method

        for cls in (BTreeIndex, HashIndex):
            for name in ("insert", "delete"):
                monkeypatch.setattr(cls, name, recording(getattr(cls, name)))
        assert table.update(rid, (1, 2, 3, "after")) == (rid, (1, 2, 3, "before"))
        assert touched == []
        table.update(rid, (1, 2, 0, "after"))  # one key: one index, delete + insert
        assert touched == ["ix_g", "ix_g"]
        _assert_indexes_match_heap(table)
