"""Plan-verifier tests: real plans pass, and a deliberately malformed plan
of every operator kind is rejected with a diagnostic naming the problem."""

from __future__ import annotations

import pytest

from repro.analysis.planverify import (
    PlanVerificationError,
    VERIFY_METRICS,
    iter_operators,
    maybe_verify_plan,
    set_verify_plans,
    verify_plan,
)
from repro.errors import PlanError
from repro.relational import algebra as A
from repro.relational import expr as E
from repro.relational.database import Database
from repro.relational.expr import ColumnRef, RowLayout
from repro.relational.types import ColumnType
from repro.sql.parser import parse_statement


def _layout(*cols):
    """RowLayout from ('name', ColumnType) pairs, qualified under 'r'."""
    return RowLayout([("r", name, ctype) for name, ctype in cols])


def _source(layout, rows=((1, 2),)):
    return A.RowSource(layout, list(rows))


INT2 = [("a", ColumnType.INT), ("b", ColumnType.INT)]


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, val INT, tag TEXT)")
    db.execute("CREATE INDEX iv ON t (val)")
    for i in range(8):
        db.insert("t", {"id": i, "val": i % 3, "tag": f"x{i}"})
    return db


def _plan(db, sql):
    return db.planner.plan_select(parse_statement(sql))


def _find(plan, kind):
    for op in iter_operators(plan):
        if type(op).__name__ == kind:
            return op
    raise AssertionError(f"plan has no {kind}: {plan.explain()}")


def _rejects(plan, fragment):
    with pytest.raises(PlanVerificationError, match=fragment):
        verify_plan(plan)


class TestGoodPlansPass:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t",
            "SELECT id FROM t WHERE val = 1",
            "SELECT id FROM t WHERE val >= 0 AND val <= 2 ORDER BY tag",
            "SELECT DISTINCT tag FROM t LIMIT 3",
            "SELECT val, COUNT(*) AS n FROM t GROUP BY val",
            "SELECT a.id, b.id FROM t a JOIN t b ON a.val = b.val",
            "SELECT 1, 'x'",
        ],
    )
    def test_planner_output_verifies(self, db, sql):
        assert verify_plan(_plan(db, sql)) >= 1

    def test_error_is_a_plan_error(self):
        assert issubclass(PlanVerificationError, PlanError)


class TestMalformedPlansRejected:
    """One deliberately broken plan per operator kind, each with a precise
    diagnostic.  Constructors enforce some invariants, so several cases
    corrupt a well-formed operator after construction — exactly the class
    of planner bug the verifier exists to catch."""

    def test_rowsource_row_arity(self):
        op = A.RowSource(_layout(*INT2), [(1,)])
        _rejects(op, r"row 0 has 1 values for a 2-column layout")

    def test_filter_layout_not_preserved(self):
        op = A.Filter(_source(_layout(*INT2)), E.Literal(True))
        op.layout = _layout(("a", ColumnType.INT))
        _rejects(op, r"Filter must preserve its child's layout")

    def test_filter_unbound_reference(self):
        op = A.Filter(_source(_layout(*INT2)), ColumnRef("ghost"))
        _rejects(op, r"unbound column reference 'ghost'")

    def test_filter_reference_out_of_range(self):
        op = A.Filter(_source(_layout(*INT2)), ColumnRef("a", "r", 5))
        _rejects(op, r"references slot 5 but the input has only 2 columns")

    def test_project_arity_mismatch(self):
        op = A.Project(
            _source(_layout(*INT2)), [ColumnRef("a", "r", 0)], ["a"], [ColumnType.INT]
        )
        op.layout = RowLayout([(None, "a", ColumnType.INT), (None, "b", ColumnType.INT)])
        _rejects(op, r"projects 1 expressions into 2 output slots")

    def test_sort_key_out_of_range(self):
        op = A.Sort(_source(_layout(*INT2)), [(ColumnRef("a", "r", 9), True)])
        _rejects(op, r"sort key references slot 9")

    def test_limit_negative_after_construction(self):
        op = A.Limit(_source(_layout(*INT2)), 5)
        op.offset = -1
        _rejects(op, r"negative LIMIT/OFFSET")

    def test_distinct_layout_not_preserved(self):
        op = A.Distinct(_source(_layout(*INT2)))
        op.layout = _layout(("a", ColumnType.INT))
        _rejects(op, r"Distinct must preserve its child's layout")

    def test_rename_arity_change(self):
        op = A.Rename(_source(_layout(*INT2)), "v")
        op.layout = RowLayout([("v", "a", ColumnType.INT)])
        _rejects(op, r"rename changes arity \(2 -> 1\)")

    def test_rename_type_change(self):
        op = A.Rename(_source(_layout(*INT2)), "v")
        op.layout = RowLayout(
            [("v", "a", ColumnType.INT), ("v", "b", ColumnType.TEXT)]
        )
        _rejects(op, r"rename changes the type of slot 1")

    def test_nested_loop_join_layout(self):
        left, right = _source(_layout(*INT2)), _source(_layout(("c", ColumnType.INT)))
        op = A.NestedLoopJoin(left, right)
        op.layout = left.layout
        _rejects(op, r"join layout must be outer slots followed by inner slots")

    def test_hash_join_key_out_of_range(self):
        left, right = _source(_layout(*INT2)), _source(_layout(("c", ColumnType.INT)))
        op = A.HashJoin(left, right, [0], [0])
        op.inner_keys = (7,)
        _rejects(op, r"inner key position 7 out of range")

    def test_hash_join_incompatible_key_types(self):
        left = _source(_layout(("a", ColumnType.INT)))
        right = _source(_layout(("s", ColumnType.TEXT)), [("x",)])
        op = A.HashJoin(left, right, [0], [0])
        _rejects(op, r"join key types incompatible: outer\[0\] is INT")

    def test_merge_join_empty_keys(self):
        left = _source(_layout(*INT2))
        right = _source(
            RowLayout([("s", "a", ColumnType.INT), ("s", "b", ColumnType.INT)])
        )
        op = A.MergeJoin(left, right, [0], [0])
        op.outer_keys = op.inner_keys = ()
        _rejects(op, r"matching, non-empty key position lists")

    def test_union_incompatible_columns(self):
        left = _source(_layout(("a", ColumnType.INT)))
        right = _source(_layout(("f", ColumnType.BOOL)), [(True,)])
        op = A.UnionAll(left, right)
        _rejects(op, r"UNION column 0 types incompatible: INT vs BOOL")

    def test_aggregate_output_arity(self):
        child = _source(_layout(*INT2))
        op = A.Aggregate(
            child,
            [(ColumnRef("a", "r", 0), "a", ColumnType.INT)],
            [A.AggSpec("count", None, "n", ColumnType.INT)],
        )
        op.layout = RowLayout([(None, "a", ColumnType.INT)])
        _rejects(op, r"declares 1 output columns but has 1 groups \+ 1 aggregates")

    def test_aggregate_group_ref_out_of_range(self):
        child = _source(_layout(*INT2))
        op = A.Aggregate(
            child,
            [(ColumnRef("a", "r", 4), "a", ColumnType.INT)],
            [A.AggSpec("count", None, "n", ColumnType.INT)],
        )
        _rejects(op, r"group expression references slot 4")

    def test_seqscan_layout_schema_mismatch(self, db):
        op = _find(_plan(db, "SELECT id FROM t"), "SeqScan")
        op.layout = _layout(("a", ColumnType.INT))
        _rejects(op, r"scan layout does not match schema of table 't'")

    def test_index_scan_key_length_mismatch(self, db):
        op = _find(_plan(db, "SELECT id FROM t WHERE val = 1"), "IndexEqScan")
        op.key = (1, 2)
        _rejects(op, r"lookup key has 2 components but index 'iv' covers 1")

    def test_range_scan_bound_longer_than_index(self, db):
        op = _find(
            _plan(db, "SELECT id FROM t WHERE val >= 0 AND val <= 2"),
            "IndexRangeScan",
        )
        op.low = (0, 99)
        _rejects(op, r"range low bound has 2 components but index 'iv' covers only 1")

    def test_negative_estimate(self):
        op = _source(_layout(*INT2))
        op.est_rows = -3.0
        _rejects(op, r"negative cardinality estimate")

    def test_untyped_slot(self):
        op = _source(_layout(*INT2))
        op.layout.slots = (("r", "a", "INT"), ("r", "b", ColumnType.INT))
        _rejects(op, r"slot 0 is untyped")

    def test_violation_names_nested_operator(self):
        # The diagnostic points at the broken node, not the plan root.
        bad = A.Filter(_source(_layout(*INT2)), ColumnRef("ghost"))
        root = A.Limit(bad, 10)
        with pytest.raises(PlanVerificationError, match=r"^Filter\("):
            verify_plan(root)


class TestWiring:
    def test_explain_carries_verified_line(self, db):
        result = db.execute("EXPLAIN SELECT id FROM t WHERE val = 1")
        assert "Plan verified:" in result.plan
        assert "operators ok" in result.plan

    def test_explain_analyze_carries_verified_line(self, db):
        result = db.execute("EXPLAIN ANALYZE SELECT id FROM t ORDER BY tag")
        assert "Plan verified:" in result.plan

    def test_maybe_verify_respects_switch(self, db):
        plan = _plan(db, "SELECT id FROM t")
        previous = set_verify_plans(False)
        try:
            assert maybe_verify_plan(plan) is None
            set_verify_plans(True)
            assert maybe_verify_plan(plan) >= 1
        finally:
            set_verify_plans(previous)

    def test_every_query_verified_when_enabled(self, db):
        previous = set_verify_plans(True)
        try:
            before = VERIFY_METRICS["verified_plans"]
            db.query("SELECT id FROM t WHERE val = 2")
            db.query("SELECT id FROM t UNION ALL SELECT val FROM t")
            assert VERIFY_METRICS["verified_plans"] > before
        finally:
            set_verify_plans(previous)

    def test_metrics_snapshot_reports_counts(self, db):
        snapshot = db.metrics_snapshot()
        assert "plans_verified" in snapshot["executor"]
        assert "plans_rejected" in snapshot["executor"]

    def test_rejection_counted(self):
        before = VERIFY_METRICS["rejected_plans"]
        with pytest.raises(PlanVerificationError):
            verify_plan(A.RowSource(_layout(*INT2), [(1,)]))
        assert VERIFY_METRICS["rejected_plans"] == before + 1
