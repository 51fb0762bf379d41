"""Telemetry system tables: the engine's own telemetry as relations.

Read-only system tables, synthesised on demand exactly like the
catalog's ``_tables``/``_columns``/... (see
:meth:`repro.relational.catalog.Catalog._system_table`):

* ``_statements`` — the statement log's ring: one row per executed
  statement with fingerprint, plan-cache hit/miss, plan fingerprint,
  est/act rows, duration, pages read;
* ``_slow_ops`` — the ``_statements`` rows whose duration reached the
  database's ``slow_ms`` threshold: same columns, same ``seq`` values;
* ``_metrics`` — every counter/histogram of the engine snapshot and
  the attached registry, flattened to rows;
* ``_plan_stats`` — per-plan, per-operator estimated-vs-actual row counts
  aggregated from sampled executions and EXPLAIN ANALYZE — the adaptive
  optimizer's feedback relation;
* ``_table_stats`` — the optimizer statistics ANALYZE collected, one row
  per (table, column): row count, heap pages, distinct-value estimate,
  null count, min/max, and histogram bucket count;
* ``_sessions`` — one row per live session (user, open-transaction flag,
  held locks, retry/abort counters); ``_statements.session`` joins
  against ``_sessions.id``, so "what is session 3 running" is a query.
* ``_storage`` — one row per user table: heap pages, buffer-pool
  occupancy (resident/pinned/dirty against the pool target), hit/miss/
  eviction/prefetch counters, free-space-map coverage, and the columnar
  segment cache's contents — "why is this scan slow" as a SELECT.

Because they are ordinary relations, ``SELECT * FROM _statements`` works
in the SQL window, the F12 query inspector is just a browser window over
``_statements``, and a form can be generated over any of them — the forms
runtime dogfooding itself on the engine.

:func:`register_telemetry_tables` binds the builders to one
:class:`~repro.relational.database.Database`; a bare catalog (no database
attached) serves the same schemas empty via :func:`empty_system_table`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, Tuple

from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.statlog import StatementRecord
    from repro.relational.database import Database
    from repro.relational.table import Table

TELEMETRY_TABLE_NAMES = (
    "_statements",
    "_slow_ops",
    "_metrics",
    "_plan_stats",
    "_table_stats",
    "_sessions",
    "_storage",
)


def _schema_statements(name: str = "_statements") -> TableSchema:
    return TableSchema(
        name,
        [
            Column("seq", ColumnType.INT, nullable=False),
            Column("ts", ColumnType.FLOAT, nullable=False),
            # the session the statement ran under — joins against
            # _sessions.id (NULL for embedded, session-less execution)
            Column("session", ColumnType.INT),
            Column("kind", ColumnType.TEXT),
            Column("sql", ColumnType.TEXT),
            Column("fingerprint", ColumnType.TEXT),
            Column("params", ColumnType.TEXT),
            Column("cache", ColumnType.TEXT),
            Column("plan", ColumnType.TEXT),
            Column("est_rows", ColumnType.FLOAT),
            Column("act_rows", ColumnType.INT),
            Column("pages_read", ColumnType.INT),
            Column("duration_ms", ColumnType.FLOAT),
            Column("error", ColumnType.TEXT),
        ],
        primary_key=["seq"],
    )


def _schema_metrics() -> TableSchema:
    return TableSchema(
        "_metrics",
        [
            Column("source", ColumnType.TEXT, nullable=False),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("kind", ColumnType.TEXT, nullable=False),
            Column("value", ColumnType.FLOAT),
            # "samples"/"peak" rather than "count"/"max": those are SQL
            # keywords here and could not be selected by name
            Column("samples", ColumnType.INT),
            Column("p95", ColumnType.FLOAT),
            Column("peak", ColumnType.FLOAT),
        ],
    )


def _schema_plan_stats() -> TableSchema:
    return TableSchema(
        "_plan_stats",
        [
            Column("plan", ColumnType.TEXT, nullable=False),
            Column("op_index", ColumnType.INT, nullable=False),
            Column("op", ColumnType.TEXT, nullable=False),
            Column("execs", ColumnType.INT, nullable=False),
            Column("est_rows", ColumnType.FLOAT),
            Column("mean_act_rows", ColumnType.FLOAT, nullable=False),
            Column("worst_factor", ColumnType.FLOAT),
        ],
        primary_key=["plan", "op_index"],
    )


def _schema_table_stats() -> TableSchema:
    return TableSchema(
        "_table_stats",
        [
            Column("table_name", ColumnType.TEXT, nullable=False),
            Column("column_name", ColumnType.TEXT, nullable=False),
            Column("row_count", ColumnType.INT, nullable=False),
            Column("pages", ColumnType.INT, nullable=False),
            Column("n_distinct", ColumnType.INT, nullable=False),
            Column("null_count", ColumnType.INT, nullable=False),
            Column("min_value", ColumnType.TEXT),
            Column("max_value", ColumnType.TEXT),
            Column("histogram_buckets", ColumnType.INT),
        ],
        primary_key=["table_name", "column_name"],
    )


def _schema_sessions() -> TableSchema:
    return TableSchema(
        "_sessions",
        [
            Column("id", ColumnType.INT, nullable=False),
            Column("user_name", ColumnType.TEXT, nullable=False),
            Column("in_txn", ColumnType.INT, nullable=False),
            Column("undo_entries", ColumnType.INT, nullable=False),
            Column("locks", ColumnType.TEXT),
            Column("statements", ColumnType.INT, nullable=False),
            Column("retries", ColumnType.INT, nullable=False),
            Column("aborts", ColumnType.INT, nullable=False),
        ],
        primary_key=["id"],
    )


def _schema_storage() -> TableSchema:
    return TableSchema(
        "_storage",
        [
            Column("table_name", ColumnType.TEXT, nullable=False),
            Column("heap_pages", ColumnType.INT, nullable=False),
            Column("pool_target", ColumnType.INT),
            Column("resident", ColumnType.INT),
            Column("pinned", ColumnType.INT),
            Column("dirty", ColumnType.INT),
            Column("hits", ColumnType.INT, nullable=False),
            Column("misses", ColumnType.INT, nullable=False),
            Column("evictions", ColumnType.INT, nullable=False),
            Column("prefetched", ColumnType.INT, nullable=False),
            Column("fsm_pages", ColumnType.INT, nullable=False),
            Column("fsm_free_bytes", ColumnType.INT, nullable=False),
            Column("seg_cached", ColumnType.INT, nullable=False),
            Column("seg_cached_rows", ColumnType.INT, nullable=False),
            Column("seg_hits", ColumnType.INT, nullable=False),
            Column("seg_misses", ColumnType.INT, nullable=False),
            Column("data_version", ColumnType.INT, nullable=False),
        ],
        primary_key=["table_name"],
    )


_SCHEMAS = {
    "_statements": _schema_statements,
    "_slow_ops": lambda: _schema_statements("_slow_ops"),
    "_metrics": _schema_metrics,
    "_plan_stats": _schema_plan_stats,
    "_table_stats": _schema_table_stats,
    "_sessions": _schema_sessions,
    "_storage": _schema_storage,
}


def _fresh(schema: TableSchema, rows: Iterator[Tuple[Any, ...]]) -> "Table":
    from repro.relational.heap import HeapFile
    from repro.relational.pager import MemoryPager
    from repro.relational.table import Table

    table = Table(schema, HeapFile(MemoryPager()))
    for row in rows:
        table.insert(row)
    return table


def empty_system_table(name: str) -> "Table":
    """A telemetry table with its declared schema and zero rows — what a
    catalog without an attached database serves."""
    return _fresh(_SCHEMAS[name](), iter(()))


# -- builders ----------------------------------------------------------------


def _statement_rows(
    records: Iterable["StatementRecord"],
) -> Iterator[Tuple[Any, ...]]:
    for r in records:
        yield (
            r.seq, r.ts, r.session, r.kind, r.sql, r.fingerprint,
            r.params, r.cache, r.plan_fp, r.est_rows, r.rows,
            r.pages_read, r.duration_ms, r.error,
        )


def build_statements(db: "Database") -> "Table":
    return _fresh(_schema_statements(), _statement_rows(db.statement_log.records()))


def build_slow_ops(db: "Database") -> "Table":
    return _fresh(
        _schema_statements("_slow_ops"),
        _statement_rows(db.statement_log.slow_records(db.slow_ms)),
    )


def _numeric(value: Any) -> Any:
    """Coerce snapshot values to floats; None for non-numeric entries."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def build_metrics(db: "Database") -> "Table":
    snap = db.metrics_snapshot()
    registry = snap.pop("registry")

    def rows() -> Iterator[Tuple[Any, ...]]:
        for source, counters in snap.items():
            if not isinstance(counters, dict):
                continue
            for name, value in sorted(counters.items()):
                numeric = _numeric(value)
                if numeric is None:
                    continue
                yield (source, name, "counter", numeric, None, None, None)
        for name, value in sorted(registry["counters"].items()):
            yield ("registry", name, "counter", float(value), None, None, None)
        for name, summary in sorted(registry["histograms"].items()):
            yield (
                "registry", name, "histogram",
                _numeric(summary["mean"]), summary["count"],
                _numeric(summary["p95"]), _numeric(summary["max"]),
            )

    return _fresh(_schema_metrics(), rows())


def build_plan_stats(db: "Database") -> "Table":
    def rows() -> Iterator[Tuple[Any, ...]]:
        for stat in db.statement_log.plan_stat_rows():
            yield (
                stat.plan_fp, stat.op_index, stat.label, stat.execs,
                stat.est_rows, stat.mean_act, stat.worst_factor,
            )

    return _fresh(_schema_plan_stats(), rows())


def build_table_stats(db: "Database") -> "Table":
    def render(value: Any) -> Any:
        return None if value is None else str(value)

    def rows() -> Iterator[Tuple[Any, ...]]:
        for table_name in sorted(db.planner.stats):
            stats = db.planner.stats[table_name]
            for column_name in sorted(stats.columns):
                column = stats.columns[column_name]
                histogram = column.histogram
                yield (
                    table_name, column_name, stats.row_count, stats.pages,
                    column.n_distinct, column.null_count,
                    render(column.min_value), render(column.max_value),
                    None if histogram is None else len(histogram.counts),
                )

    return _fresh(_schema_table_stats(), rows())


def build_sessions(db: "Database") -> "Table":
    def rows() -> Iterator[Tuple[Any, ...]]:
        manager = db.session_manager
        if manager is None:
            return
        for row in manager.session_rows():
            yield (
                row["id"], row["user"], row["in_txn"],
                row["undo_entries"], row["locks"] or None,
                row["statements"], row["retries"], row["aborts"],
            )

    return _fresh(_schema_sessions(), rows())


def build_storage(db: "Database") -> "Table":
    def rows() -> Iterator[Tuple[Any, ...]]:
        for table in db.catalog.tables():
            heap = table.heap
            pager = heap._pager
            stats = pager.stats
            # FilePager pool introspection; a MemoryPager has no pool, so
            # those columns are NULL for in-memory tables.
            pool_target = getattr(pager, "pool_size", None)
            resident = getattr(pager, "resident_pages", None)
            pinned = getattr(pager, "pinned_pages", None)
            dirty = getattr(pager, "dirty_page_count", None)
            fsm = heap.free_space_stats()
            seg = table.segments.snapshot()
            yield (
                table.name,
                heap.page_count(),
                pool_target,
                resident() if resident is not None else None,
                pinned() if pinned is not None else None,
                dirty() if dirty is not None else None,
                stats.get("hits", 0),
                stats.get("misses", 0),
                stats.get("evictions", 0),
                stats.get("prefetched", 0),
                fsm["fsm_pages"],
                fsm["fsm_free_bytes"],
                seg["seg_cached"],
                seg["seg_cached_rows"],
                seg["seg_hits"],
                seg["seg_misses"],
                heap.data_version,
            )

    return _fresh(_schema_storage(), rows())


_BUILDERS: Dict[str, Any] = {
    "_statements": build_statements,
    "_slow_ops": build_slow_ops,
    "_metrics": build_metrics,
    "_plan_stats": build_plan_stats,
    "_table_stats": build_table_stats,
    "_sessions": build_sessions,
    "_storage": build_storage,
}


def register_telemetry_tables(db: "Database") -> None:
    """Attach the telemetry tables to *db*'s catalog."""
    for name, builder in _BUILDERS.items():
        db.catalog.register_system_source(
            name, (lambda b: lambda: b(db))(builder)
        )
