"""Optimizer v2: estimator bugfixes, histograms, NDV sketch, cost-based
access paths, DP join enumeration, the `_table_stats` system table, stats
persistence, and the statlog-driven adaptive re-planning loop."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.relational import expr as E
from repro.relational import stats as S
from repro.relational.database import Database
from repro.relational.planner import PlannerConfig


@pytest.fixture
def db() -> Database:
    return Database()


def _eq(col: str, value) -> E.Expr:
    return E.BinOp("=", E.ColumnRef(col), E.Literal(value))


# -- satellite bugfixes ------------------------------------------------------


class TestSelectivityBugfixes:
    def test_is_not_null_without_stats_is_complement(self):
        stats = S.TableStats(row_count=100)  # no column stats at all
        isnull = E.IsNull(E.ColumnRef("c"))
        not_null = E.IsNull(E.ColumnRef("c"), negated=True)
        assert stats.selectivity(isnull) == pytest.approx(0.1)
        # The old code returned 0.1 for both — IS NOT NULL must be 0.9.
        assert stats.selectivity(not_null) == pytest.approx(0.9)

    def test_is_not_null_with_stats(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, NULL), (3, NULL), (4, 40)")
        db.execute("ANALYZE t")
        stats = db.planner.stats["t"]
        assert stats.selectivity(E.IsNull(E.ColumnRef("v"))) == pytest.approx(0.5)
        assert stats.selectivity(
            E.IsNull(E.ColumnRef("v"), negated=True)
        ) == pytest.approx(0.5)

    def test_not_in_is_complement_of_in(self):
        stats = S.TableStats(
            row_count=100,
            columns={"c": S.ColumnStats(n_distinct=10, null_count=0)},
        )
        items = [E.Literal(1), E.Literal(2), E.Literal(3)]
        in_list = E.InList(E.ColumnRef("c"), items)
        not_in = E.InList(E.ColumnRef("c"), items, negated=True)
        assert stats.selectivity(in_list) == pytest.approx(0.3)
        # The old code returned the IN estimate for NOT IN too.
        assert stats.selectivity(not_in) == pytest.approx(0.7)

    def test_in_list_dedupes_constant_items(self):
        stats = S.TableStats(
            row_count=100,
            columns={"c": S.ColumnStats(n_distinct=10, null_count=0)},
        )
        dupes = E.InList(
            E.ColumnRef("c"), [E.Literal(1), E.Literal(1), E.Literal(1)]
        )
        # The old code tripled the estimate for IN (1, 1, 1).
        assert stats.selectivity(dupes) == pytest.approx(0.1)

    def test_in_list_caps_at_one_and_negated_floors_at_zero(self):
        stats = S.TableStats(
            row_count=100,
            columns={"c": S.ColumnStats(n_distinct=2, null_count=0)},
        )
        items = [E.Literal(i) for i in range(5)]
        assert stats.selectivity(E.InList(E.ColumnRef("c"), items)) == 1.0
        assert stats.selectivity(
            E.InList(E.ColumnRef("c"), items, negated=True)
        ) == 0.0


class TestEstimateNormalization:
    def test_clamp_rows(self):
        assert S.clamp_rows(0.2) == 1.0
        assert S.clamp_rows(-5) == 1.0
        assert S.clamp_rows(4.2) == 5.0
        assert S.clamp_rows(float("nan")) == 1.0
        assert S.clamp_rows(float("inf")) == 1.0

    def test_is_valid_estimate(self):
        assert S.is_valid_estimate(1.0)
        assert S.is_valid_estimate(17.0)
        assert not S.is_valid_estimate(0.4)
        assert not S.is_valid_estimate(-3)
        assert not S.is_valid_estimate(float("nan"))
        assert not S.is_valid_estimate("many")

    def test_estimate_rows_never_renders_zero(self, db):
        """A highly selective predicate used to produce `[~0 rows]`."""
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(50):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.execute("ANALYZE t")
        text = db.execute(
            "EXPLAIN SELECT * FROM t WHERE v = 1 AND id = 1"
        ).plan
        assert "~0 rows" not in text
        assert "~1 rows" in text

    def test_verifier_rejects_sub_one_estimates(self, db):
        from repro.analysis.planverify import PlanVerificationError, verify_plan

        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        plan = db.planner.plan_select(
            __import__("repro.sql.parser", fromlist=["parse_statement"])
            .parse_statement("SELECT * FROM t")
        )
        plan.est_rows = 0.4
        with pytest.raises(PlanVerificationError, match="non-normalized"):
            verify_plan(plan)
        plan.est_rows = -3.0
        with pytest.raises(PlanVerificationError, match="negative cardinality"):
            verify_plan(plan)


# -- estimator edge cases ----------------------------------------------------


class TestEstimatorEdgeCases:
    def test_analyze_empty_table(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("ANALYZE t")
        stats = db.planner.stats["t"]
        assert stats.row_count == 0
        assert stats.columns["v"].n_distinct == 0
        assert stats.columns["v"].min_value is None
        # row_count == 0: selectivities still return sane fractions and the
        # normalized estimate is the one-row floor.
        assert 0.0 <= stats.selectivity(_eq("v", 1)) <= 1.0
        assert stats.estimate_rows([_eq("v", 1)]) == 1.0

    def test_all_null_column(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, NULL), (2, NULL), (3, NULL)")
        db.execute("ANALYZE t")
        stats = db.planner.stats["t"]
        column = stats.columns["v"]
        assert column.null_count == 3
        assert column.n_distinct == 0
        assert stats.selectivity(E.IsNull(E.ColumnRef("v"))) == 1.0
        assert stats.selectivity(
            E.IsNull(E.ColumnRef("v"), negated=True)
        ) == 0.0
        # Equality on an all-NULL column can never match.
        assert stats.selectivity(_eq("v", 1)) == 0.0

    def test_ndv_sketch_exact_below_k_and_estimates_beyond(self):
        small = S.DistinctSketch(64)
        for i in range(40):
            small.add(i % 13)
        assert small.estimate() == 13
        big = S.DistinctSketch(64)
        for i in range(20_000):
            big.add(i)
        estimate = big.estimate()
        assert 10_000 <= estimate <= 40_000  # right order of magnitude


class TestHistograms:
    def test_bucket_boundaries_and_range_fractions(self):
        histogram = S.build_histogram(list(range(1000)))
        assert histogram is not None
        assert sum(histogram.counts) == 1000
        assert histogram.bounds[0] == 0
        assert histogram.bounds[-1] == 999
        # Exactly on a bucket boundary and in the interior.
        assert histogram.selectivity_range("<", 500) == pytest.approx(0.5, abs=0.05)
        assert histogram.selectivity_range(">", 900) == pytest.approx(0.1, abs=0.05)
        assert histogram.selectivity_range("<", 0) == 0.0
        assert histogram.selectivity_range(">", 999) <= 0.05

    def test_out_of_range_equality_is_zero(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(200):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.execute("ANALYZE t")
        stats = db.planner.stats["t"]
        assert stats.columns["v"].histogram is not None
        assert stats.selectivity(_eq("v", 10_000)) == 0.0
        assert stats.selectivity(_eq("v", 100)) == pytest.approx(1 / 200, rel=0.5)

    def test_small_tables_have_no_histogram(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("ANALYZE t")
        assert db.planner.stats["t"].columns["id"].histogram is None

    def test_histogram_guides_range_selectivity(self, db):
        """A skewed predicate no longer gets the flat 1/3 guess."""
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(300):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.execute("ANALYZE t")
        stats = db.planner.stats["t"]
        narrow = E.BinOp(">", E.ColumnRef("v"), E.Literal(290))
        wide = E.BinOp(">", E.ColumnRef("v"), E.Literal(10))
        assert stats.selectivity(narrow) < 0.1
        assert stats.selectivity(wide) > 0.9


# -- bounded-memory ANALYZE --------------------------------------------------


class TestBoundedAnalyze:
    def test_pages_and_sketch_bounds(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        for i in range(2000):
            db.execute(f"INSERT INTO t VALUES ({i}, 'val{i}')")
        db.execute("ANALYZE t")
        stats = db.planner.stats["t"]
        assert stats.row_count == 2000
        assert stats.pages > 0
        # KMV estimate, not an exact set of 2000 entries.
        assert 1000 <= stats.columns["id"].n_distinct <= 4000


# -- cost-based access paths -------------------------------------------------


class TestCostModel:
    def test_unanalyzed_tables_keep_legacy_index_priority(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 1)")
        text = db.execute("EXPLAIN SELECT * FROM t WHERE id = 1").plan
        assert "IndexEqScan" in text

    def test_cost_model_prefers_seq_scan_on_tiny_table(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.execute("ANALYZE t")
        # One heap page: reading it sequentially beats two random probes.
        text = db.execute("EXPLAIN SELECT * FROM t WHERE id = 1").plan
        assert "SeqScan" in text
        assert "cost=" in text

    def test_cost_model_prefers_index_on_selective_big_table(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(600):
            db.execute(f"INSERT INTO t VALUES ({i}, {i % 7})")
        db.execute("ANALYZE t")
        stats = db.planner.stats["t"]
        assert stats.pages >= 2
        text = db.execute("EXPLAIN SELECT * FROM t WHERE id = 123").plan
        assert "IndexEqScan" in text

    def test_two_bounds_on_one_column_are_one_range(self, db):
        """``id >= a AND id < b`` is the slice between a and b, not the
        product of two independent halves (which estimated ~2,700 rows
        for 500 and lost the index to a SeqScan)."""
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        values = ", ".join(f"({i}, {i % 7})" for i in range(10_000))
        db.execute(f"INSERT INTO t VALUES {values}")
        db.execute("ANALYZE t")
        text = db.execute(
            "EXPLAIN SELECT * FROM t WHERE id >= 4000 AND id < 4500").plan
        assert "IndexRangeScan" in text, text
        estimate = int(re.search(r"\[~(\d+) rows", text).group(1))
        assert 250 <= estimate <= 1000, text


# -- DP join enumeration -----------------------------------------------------


def _build_chain(db: Database) -> None:
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, k INT)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, k INT, j INT)")
    db.execute("CREATE TABLE c (id INT PRIMARY KEY, j INT)")
    insert_a = db.prepare("INSERT INTO a VALUES (?, ?)")
    insert_b = db.prepare("INSERT INTO b VALUES (?, ?, ?)")
    insert_c = db.prepare("INSERT INTO c VALUES (?, ?)")
    for i in range(4):
        insert_a.execute([i, i % 2])
    for i in range(300):
        insert_b.execute([i, i % 2, i % 5])
    for i in range(10):
        insert_c.execute([i, i % 5])


CHAIN_SQL = (
    "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k JOIN c ON c.j = b.j"
)


class TestDPEnumeration:
    def test_dp_runs_only_with_full_stats(self, db):
        _build_chain(db)
        db.query(CHAIN_SQL)
        assert db.planner.metrics["dp_joins"] == 0  # no stats yet
        db.execute("ANALYZE")
        db.query(CHAIN_SQL)
        assert db.planner.metrics["dp_joins"] == 1
        assert db.planner.metrics["join_candidates"] > 0

    def test_dp_and_greedy_agree_on_results(self):
        dp_db = Database()
        greedy_db = Database()  # never ANALYZEd: no stats selects greedy
        for database in (dp_db, greedy_db):
            _build_chain(database)
        dp_db.execute("ANALYZE")
        expected = [
            ("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k", None),
            (CHAIN_SQL, None),
            (
                "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k "
                "WHERE b.j = 1 ORDER BY a.id, b.id",
                None,
            ),
        ]
        for sql, _ in expected:
            assert dp_db.query(sql) == greedy_db.query(sql)
        assert dp_db.planner.metrics["dp_joins"] > 0
        assert greedy_db.planner.metrics["dp_joins"] == 0

    def test_dp_respects_forced_nl_strategy(self):
        database = Database(planner_config=PlannerConfig(join_strategy="nl"))
        _build_chain(database)
        database.execute("ANALYZE")
        text = database.execute("EXPLAIN " + CHAIN_SQL).plan
        assert "HashJoin" not in text
        assert "NestedLoopJoin" in text

    def test_left_joins_stay_on_greedy_path(self, db):
        _build_chain(db)
        db.execute("ANALYZE")
        rows = db.query(
            "SELECT COUNT(*) FROM c LEFT JOIN b ON c.j = b.j"
        )
        assert db.planner.metrics["dp_joins"] == 0
        assert rows[0][0] >= 10

    def test_every_dp_candidate_is_verified(self, db):
        from repro.analysis import planverify

        _build_chain(db)
        db.execute("ANALYZE")
        previous = planverify.set_verify_plans(True)
        try:
            before = planverify.VERIFY_METRICS["verified_plans"]
            db.query(CHAIN_SQL)
            verified = planverify.VERIFY_METRICS["verified_plans"] - before
        finally:
            planverify.set_verify_plans(previous)
        # At least one verification per costed candidate, plus the final plan.
        assert verified > db.planner.metrics["join_candidates"] >= 1

    def test_join_operators_carry_cost_annotations(self, db):
        _build_chain(db)
        db.execute("ANALYZE")
        text = db.execute("EXPLAIN " + CHAIN_SQL).plan
        assert "cost=" in text
        assert "rows," in text  # "[~N rows, cost=C]" on join operators


# -- _table_stats system table ----------------------------------------------


class TestTableStatsSystemTable:
    def test_empty_before_analyze(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        assert db.query("SELECT * FROM _table_stats") == []

    def test_rows_after_analyze(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)")
        db.execute("ANALYZE t")
        rows = db.query(
            "SELECT table_name, column_name, row_count, n_distinct, null_count "
            "FROM _table_stats ORDER BY column_name"
        )
        assert rows == [("t", "id", 3, 3, 0), ("t", "v", 3, 2, 1)]

    def test_histogram_buckets_column(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(200):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.execute("ANALYZE t")
        rows = db.query(
            "SELECT histogram_buckets FROM _table_stats WHERE column_name = 'id'"
        )
        assert rows[0][0] is not None and rows[0][0] > 1

    def test_name_is_reserved(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError, match="reserved"):
            db.execute("CREATE TABLE _table_stats (id INT PRIMARY KEY)")


# -- stats persistence -------------------------------------------------------


class TestStatsPersistence:
    def test_stats_survive_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(150):
            db.execute(f"INSERT INTO t VALUES ({i}, {i % 4})")
        db.execute("ANALYZE t")
        original = db.planner.stats["t"]
        db.close()

        reopened = Database(path)
        try:
            restored = reopened.planner.stats.get("t")
            assert restored is not None
            assert restored.row_count == original.row_count
            assert restored.pages == original.pages
            column = restored.columns["v"]
            assert column.n_distinct == original.columns["v"].n_distinct
            assert column.min_value == 0 and column.max_value == 3
            assert restored.columns["id"].histogram is not None
            rows = reopened.query(
                "SELECT row_count FROM _table_stats WHERE column_name = 'id'"
            )
            assert rows == [(150,)]
        finally:
            reopened.close()

    def test_date_minmax_roundtrip(self, tmp_path):
        import datetime

        path = str(tmp_path / "db")
        db = Database(path)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, d DATE)")
        db.execute("INSERT INTO t VALUES (1, '2020-01-02'), (2, '2021-03-04')")
        db.execute("ANALYZE t")
        db.close()
        reopened = Database(path)
        try:
            column = reopened.planner.stats["t"].columns["d"]
            assert column.min_value == datetime.date(2020, 1, 2)
            assert column.max_value == datetime.date(2021, 3, 4)
        finally:
            reopened.close()


# -- adaptive re-planning ----------------------------------------------------


class TestAdaptiveReplan:
    def _misestimate(self, db: Database) -> str:
        """ANALYZE on tiny tables, then grow one 100x so the cached plan's
        estimates are off by far more than the replan factor."""
        _build_chain(db)
        db.execute("ANALYZE")
        sql = CHAIN_SQL
        db.query(sql)  # plan + cache under fresh (soon stale) stats
        grow = db.prepare("INSERT INTO a VALUES (?, ?)")
        for i in range(4, 500):
            grow.execute([i, i % 2])
        return sql

    def test_sampled_misestimate_triggers_replan(self):
        db = Database(statlog_sample_every=2)
        sql = self._misestimate(db)
        for _ in range(4):
            db.query(sql)
        assert db.planner.metrics["replans"] == 1
        assert db.plan_cache.stats["feedback_drops"] == 1
        # Fresh statistics were gathered as part of the re-plan.
        assert db.planner.stats["a"].row_count == 500
        assert db.metrics_snapshot()["planner"]["replans"] == 1

    def test_replanned_statement_recaches_and_does_not_loop(self):
        db = Database(statlog_sample_every=2)
        sql = self._misestimate(db)
        for _ in range(10):
            db.query(sql)
        assert db.planner.metrics["replans"] == 1  # once, not per sample
        assert db.plan_cache.stats["hits"] > 0

    def test_explain_analyze_triggers_and_reports_replans(self):
        db = Database()  # no sampling: EXPLAIN ANALYZE is the feedback path
        sql = self._misestimate(db)
        first = db.execute("EXPLAIN ANALYZE " + sql).plan
        assert "Adaptive: replans=1" in first
        second = db.execute("EXPLAIN ANALYZE " + sql).plan
        assert "Adaptive: replans=1" in second  # fresh stats estimate well

    def test_accurate_estimates_never_replan(self):
        db = Database(statlog_sample_every=1)
        _build_chain(db)
        db.execute("ANALYZE")
        for _ in range(5):
            db.query("SELECT COUNT(*) FROM b WHERE k = 1")
        assert db.planner.metrics["replans"] == 0


# -- config fingerprint ------------------------------------------------------


class TestConfigFingerprint:
    def test_fingerprint_covers_exactly_the_four_switches(self):
        """The fingerprint is derived from the dataclass fields, so a new
        field cannot be missed; this pins which fields exist."""
        flipped = {
            "enable_pushdown": False,
            "enable_index_selection": False,
            "enable_join_reorder": False,
            "join_strategy": "nl",
        }
        assert [f.name for f in dataclasses.fields(PlannerConfig)] == list(flipped)
        base = PlannerConfig().fingerprint()
        hash(base)  # a plan-cache key component
        for name, value in flipped.items():
            assert PlannerConfig(**{name: value}).fingerprint() != base, name
