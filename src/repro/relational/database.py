"""The public database facade: SQL execution, DML through views, durability.

:class:`Database` wires together the catalog, planner, executor, transaction
manager, and (for on-disk databases) the write-ahead log.  It is the only
entry point the windowing/forms layers use.

Two backends share every code path above storage:

* ``Database()`` — in-memory (MemoryPager heaps, no WAL);
* ``Database(path="/some/dir")`` — a directory holding ``catalog.json``,
  one ``<table>.heap`` file per table, and ``wal.log``.  Recovery replays
  the WAL over the last checkpoint on open.

Statement-level atomicity: every statement (or programmatic DML call) either
fully applies or fully rolls back, whether or not an explicit transaction is
open.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.concurrency import dynlock
from repro.errors import (
    BindError,
    CatalogError,
    DatabaseError,
    ExecutionError,
    ForeignKeyError,
    ReadOnlyError,
    SqlError,
    StatementTimeoutError,
    StorageError,
    TransactionError,
)
from repro.obs import Registry, Tracer, get_registry, instrument, render_analyze
from repro.obs.analyze import operator_rows
from repro.obs.statlog import (
    JsonlSink,
    StatementLog,
    fingerprint_sql,
    plan_fingerprint,
)
from repro.relational import expr as E
from repro.relational import exprcompile
from repro.relational.algebra import EXEC_METRICS, Operator
from repro.relational.catalog import SYSTEM_TABLE_NAMES, Catalog
from repro.relational.faults import DEFAULT_IO, IOShim
from repro.relational.heap import HeapFile, RowId
from repro.relational.integrity import (
    IntegrityReport,
    check_database,
    clear_checkpoint_journal,
    JOURNAL_NAME,
    read_checkpoint_journal,
    rollback_checkpoint_journal,
    write_checkpoint_journal,
)
from repro.relational.pager import DEFAULT_PREFETCH_PAGES, FilePager, MemoryPager
from repro.relational.plancache import CacheEntry, PlanCache
from repro.relational.segments import DEFAULT_SEGMENT_ROWS
from repro.relational.planner import REPLAN_FACTOR, Planner, PlannerConfig
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.table import Table
from repro.relational.txn import TransactionManager
from repro.relational.types import ColumnType
from repro.relational.wal import WriteAheadLog
from repro.sql import ast_nodes as A
from repro.sql.parser import parse_prepared, parse_script, parse_statement
from repro.sql.sources import statement_sources
from repro.views.definition import ViewDefinition
from repro.views.update import UpdatableViewInfo, analyze_updatability

Row = Tuple[Any, ...]


@dataclass
class Result:
    """The outcome of one statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[Row] = field(default_factory=list)
    rowcount: int = 0
    plan: Optional[str] = None

    def scalar(self) -> Any:
        """The single value of a 1x1 result (raises otherwise)."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows"
            )
        return self.rows[0][0]

    def mappings(self) -> List[Dict[str, Any]]:
        """Rows as column-name dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class PreparedStatement:
    """A parsed (and, for SELECTs, planned) statement with ``?`` parameters.

    Obtained from :meth:`Database.prepare`.  The handle owns the live
    :class:`~repro.relational.expr.Param` nodes embedded in its AST;
    :meth:`execute` assigns their values and runs the statement without
    re-lexing or re-parsing.  For cacheable SELECTs the physical plan is
    kept on the handle and reused until the database's plan generation
    moves (DDL, ANALYZE, or a planner-config change), at which point the
    next execute re-plans transparently.
    """

    def __init__(
        self,
        db: "Database",
        sql: str,
        statement: A.Statement,
        params: Sequence[E.Param],
    ) -> None:
        self._db = db
        self.sql = sql
        self.statement = statement
        self._params = tuple(params)
        #: plan slot managed by Database._select_plan
        self._plan: Optional[Any] = None
        self._plan_generation: Optional[int] = None
        #: statement fingerprint, filled by Database.prepare when the
        #: statement log is capturing
        self.fingerprint: Optional[str] = None

    @property
    def param_count(self) -> int:
        return len(self._params)

    def execute(self, args: Sequence[Any] = ()) -> Result:
        """Bind *args* to the ``?`` markers (in order) and run."""
        if len(args) != len(self._params):
            raise SqlError(
                f"prepared statement takes {len(self._params)} parameter(s), "
                f"got {len(args)}"
            )
        for param, value in zip(self._params, args):
            param.set(value)
        return self._db._execute_prepared(self)

    def query(self, args: Sequence[Any] = ()) -> List[Row]:
        """Shorthand: execute and return the rows."""
        return self.execute(args).rows


@dataclass
class ExecContext:
    """Who a statement runs for: the transaction it writes into, the user
    privileges are checked against, the session its telemetry names, and
    its row budget.  The embedded database owns a default one; the session
    layer passes each session's own to :meth:`Database.execute`."""

    txn: TransactionManager
    user: str = "dba"
    session_id: Optional[int] = None
    #: statement row budget (None = unlimited); see _RowBudget
    max_rows: Optional[int] = None


class _RowBudget:
    """Per-statement row budget — the statement-timeout mechanism.

    A wall-clock timer cannot interrupt a Python thread that is deep in
    engine code, so statement timeouts are enforced as *work* limits:
    every executor batch charges the budget, and blowing it raises
    :class:`StatementTimeoutError` mid-statement (statement-level
    atomicity then rolls the partial effects back).  Deliberately not
    retryable — the same statement over the same data blows the same
    budget.
    """

    __slots__ = ("limit", "consumed")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.consumed = 0

    def charge(self, rows: int) -> None:
        self.consumed += rows
        if self.consumed > self.limit:
            raise StatementTimeoutError(
                f"statement cancelled: row budget exhausted "
                f"({self.consumed} rows processed, limit {self.limit})"
            )


class Database:
    """A relational database instance (see module docstring)."""

    def __init__(
        self,
        path: Optional[str] = None,
        fsync: bool = True,
        planner_config: Optional[PlannerConfig] = None,
        obs: Optional[Registry] = None,
        slow_ms: float = 50.0,
        plan_cache_size: int = 128,
        statlog_capacity: int = 256,
        statlog_path: Optional[str] = None,
        statlog_sample_every: int = 0,
        io: Optional[IOShim] = None,
        pool_size: int = 256,
        prefetch_pages: int = DEFAULT_PREFETCH_PAGES,
        segment_cache_rows: int = DEFAULT_SEGMENT_ROWS,
    ) -> None:
        self.path = path
        #: I/O shim every durability-relevant call goes through; tests
        #: inject a FaultInjector here (see repro.relational.faults)
        self._io = io if io is not None else DEFAULT_IO
        #: buffer-pool page target per heap file (the pool grows past it
        #: only while dirty/pinned pages forbid eviction)
        self.pool_size = pool_size
        #: read-ahead window for sequential scans (0 disables prefetch
        #: and the pinned-scan path with it)
        self.prefetch_pages = prefetch_pages
        #: per-table cap on columnar-segment-cache rows (0 disables)
        self.segment_cache_rows = segment_cache_rows
        #: True once corruption was detected: every write path refuses
        #: with ReadOnlyError, checkpoints become no-ops, and close()
        #: leaves the (possibly damaged, still diagnosable) files alone
        self.read_only = False
        #: corruption events recorded while opening or checkpointing;
        #: surfaced through integrity_check() and
        #: metrics_snapshot()["integrity"]
        self._corruption_events: List[Dict[str, str]] = []
        #: the WAL group sequence the last durable checkpoint covered
        self._checkpoint_seq = 0
        #: observability: metrics registry (shared process default unless a
        #: private one is injected) and a tracer whose span stack is shared
        #: with the UI layers' tracers
        self.obs = obs if obs is not None else get_registry()
        self.tracer = Tracer(self.obs)
        #: statements at or above this many milliseconds are the rows of
        #: ``_slow_ops`` (a filter over the statement log)
        self.slow_ms = slow_ms
        self._pagers: Dict[str, FilePager] = {}
        #: engine latch: one statement at a time touches the internal
        #: structures (catalog, heaps, caches).  Held for the duration of
        #: a statement, never across a lock wait — the session layer's
        #: LockManager queues transactions *before* taking the latch, so
        #: blocked sessions cannot wedge running ones.  Re-entrant because
        #: statements nest (DDL checkpoints, telemetry rebuilds).
        #: Under WOW_LOCK_CHECK=1 the latch is wrapped by the dynamic lock
        #: checker.
        self._latch = dynlock.maybe_wrap_latch(threading.RLock())
        self._row_budget: Optional[_RowBudget] = None
        #: attached repro.session.SessionManager, None in embedded use
        self.session_manager: Optional[Any] = None
        #: every live transaction (the default one plus one per session) —
        #: the checkpoint guard and metrics walk these; closed sessions
        #: fold their counters into _retired_txn_stats
        self._txn_managers: List[TransactionManager] = []
        self._retired_txn_stats: Dict[str, int] = {}
        self.planner_config = planner_config or PlannerConfig()
        if path is None:
            self.catalog = Catalog()
            self.wal: Optional[WriteAheadLog] = None
        else:
            os.makedirs(path, exist_ok=True)
            self.catalog = Catalog(heap_factory=self._disk_heap)
            # A leftover checkpoint journal means a crash mid-checkpoint:
            # settle the heap files before anything reads them.
            self._recover_checkpoint_journal()
            self.wal = WriteAheadLog(
                os.path.join(path, "wal.log"), fsync=fsync, io=self._io
            )
            self._load_catalog()
            self._remove_orphan_heaps()
            self._recover()
        #: the embedded context, and the one the running statement is bound
        #: to (see execute); outside a statement they are the same object
        self._default_ctx = ExecContext(self.new_txn_manager())
        self._ctx = self._default_ctx
        self.planner = Planner(self.catalog, self.planner_config)
        # ANALYZE statistics persisted in the catalog document are parsed by
        # _load_catalog (which runs before the planner exists) and applied
        # here; plans from restored stats match the pre-restart ones.
        loaded_stats = getattr(self, "_loaded_stats", None)
        if loaded_stats:
            self.planner.stats.update(loaded_stats)
        self._loaded_stats = None
        # Wire the DP enumerator's per-candidate hook to the static plan
        # verifier (active under WOW_VERIFY_PLANS / verify_plans()).
        self.planner.verify_candidate = self._maybe_verify_plan
        #: plan fingerprints already re-planned by adaptive feedback — each
        #: misestimated plan shape triggers one re-plan, not a loop
        self._replanned_fps: Set[str] = set()
        #: statement/plan cache; ``plan_cache_size=0`` disables memoization
        #: entirely (every execute re-parses and re-plans, the pre-cache
        #: behaviour — used by benchmarks for before/after comparisons)
        self.plan_cache = PlanCache(capacity=plan_cache_size)
        self._catalog_generation_seen = self.catalog.generation
        #: statement log: every top-level statement captured into a bounded ring
        #: (and optionally a rotating JSONL sink); ``statlog_capacity=0``
        #: turns capture off entirely — the path then costs one branch
        self.statement_log = StatementLog(
            capacity=statlog_capacity,
            sink=(
                JsonlSink(statlog_path, io=self._io)
                if statlog_path is not None
                else None
            ),
            sample_every=statlog_sample_every,
            io=self._io,
        )
        from repro.obs.systables import register_telemetry_tables

        register_telemetry_tables(self)
        self._apply_storage_limits()
        #: statement counters for tests/benchmarks
        self.stats = {"selects": 0, "inserts": 0, "updates": 0, "deletes": 0}
        if not hasattr(self, "auth"):
            from repro.relational.auth import AuthManager

            self.auth = AuthManager()

    # -- the embedded context ------------------------------------------------

    @property
    def txn(self) -> TransactionManager:
        """The embedded context's transaction."""
        return self._default_ctx.txn

    @property
    def current_user(self) -> str:
        """The user embedded statements execute as; 'dba' is the superuser."""
        return self._default_ctx.user

    def set_user(self, name: str) -> None:
        """Switch the session user (authentication was the OS's job in 1983)."""
        self._default_ctx.user = name.lower()

    @property
    def statement_max_rows(self) -> Optional[int]:
        """The embedded context's row budget (None = unlimited)."""
        return self._default_ctx.max_rows

    @statement_max_rows.setter
    def statement_max_rows(self, limit: Optional[int]) -> None:
        self._default_ctx.max_rows = limit

    def set_planner_config(self, config: PlannerConfig) -> None:
        """Swap the planner configuration, invalidating every cached plan.

        In-place mutation of :attr:`planner_config` is also safe — the
        config fingerprint is part of every cache key — but this is the
        supported way to change configuration at runtime, and it bumps the
        cache generation so prepared-statement plans re-plan too.
        """
        self.planner_config = config
        self.planner.config = config
        self._invalidate_plans()

    # ------------------------------------------------------------------
    # SQL entry points
    # ------------------------------------------------------------------

    def execute(self, sql: str, ctx: Optional[ExecContext] = None) -> Result:
        """Parse and execute a single SQL statement for *ctx*.

        *ctx* None means the context already bound — a statement nested in
        another keeps its session — which outside any statement is the
        embedded default.

        Parsed ASTs — and, for cacheable SELECTs, physical plans — are
        memoized in :attr:`plan_cache`, keyed on the normalized statement
        text and the planner-config fingerprint.  DDL, ``ANALYZE``, and
        planner-config changes invalidate every cached entry; plain DML
        does not (plans read live tables, so data changes are always
        visible).
        """
        with self._latch:
            outer = self._ctx
            self._ctx = ctx or outer
            try:
                return self._run_captured(sql)
            finally:
                self._ctx = outer

    def execute_script(self, sql: str) -> List[Result]:
        """Execute a ';'-separated script; returns one Result per statement.

        The whole script is parsed first, so a syntax error anywhere runs
        nothing; then each statement's own text goes through
        :meth:`execute` (so a CREATE VIEW stores only its own statement).
        """
        with self._latch:
            return [self.execute(text) for _statement, text in parse_script(sql)]

    def query(self, sql: str) -> List[Row]:
        """Shorthand: execute a SELECT and return its rows."""
        return self.execute(sql).rows

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse *sql* once into a reusable handle with ``?`` parameters.

        The forms runtime's hot path: refresh/scroll/picklist queries are
        prepared once per statement shape and re-executed with new
        parameter values, skipping the lexer, parser, and (until the next
        DDL/ANALYZE/config change) the planner.
        """
        statement, params = parse_prepared(sql)
        handle = PreparedStatement(self, sql, statement, params)
        if self.statement_log.enabled:
            handle.fingerprint = fingerprint_sql(sql)
        return handle

    # -- statement/plan cache plumbing --------------------------------------

    def _plan_generation(self) -> int:
        """The current plan-cache generation.

        Folds in out-of-band catalog changes (code that mutates
        ``db.catalog`` directly, bypassing SQL DDL): whenever the catalog's
        own generation has moved since we last looked, every cached plan is
        invalidated here before anyone can be served a stale one.
        """
        if self.catalog.generation != self._catalog_generation_seen:
            self._invalidate_plans()
        return self.plan_cache.generation

    def _invalidate_plans(self) -> None:
        """Bump the plan-cache generation (and absorb the catalog's)."""
        self.plan_cache.invalidate()
        self._catalog_generation_seen = self.catalog.generation
        # DDL may have created tables; size their segment stores too.
        self._apply_storage_limits()

    def _apply_storage_limits(self) -> None:
        """Push the database's cache knobs onto every table's stores."""
        for table in self.catalog.tables():
            store = getattr(table, "segments", None)
            if store is None:
                continue
            store.max_rows = self.segment_cache_rows
            if self.segment_cache_rows <= 0:
                store.clear()

    def _lookup_statement(self, sql: str) -> CacheEntry:
        """The cache entry for *sql*, parsing and registering on a miss."""
        self._plan_generation()  # sync before the lookup, never after
        key = self.plan_cache.key(sql, self.planner_config.fingerprint())
        entry = self.plan_cache.lookup(key)
        if entry is None:
            self.statement_log.note_cache("miss")
            statement = parse_statement(sql)
            entry = self.plan_cache.store(key, statement, None)
        else:
            self.statement_log.note_cache("hit")
        if entry.fingerprint is None and self.statement_log.enabled:
            # One extra lex per cache miss; hits reuse the stored value.
            entry.fingerprint = fingerprint_sql(sql)
        return entry

    def _begin_capture(self) -> Any:
        """Open the statement-log capture of a top-level statement, naming
        the bound context's session (None while the log is off)."""
        log = self.statement_log
        if not log.enabled:
            return None
        return log.begin(
            self._pages_read_total(),
            self.plan_cache.stats["hits"],
            self.plan_cache.stats["misses"],
            session=self._ctx.session_id,
        )

    def _pages_read_total(self) -> int:
        """Pages fetched across every table's pager (hits + misses).

        Snapshotted at capture begin/finish; the delta is the statement's
        page traffic.
        """
        total = 0
        for table in self.catalog.tables():
            stats = getattr(getattr(table.heap, "_pager", None), "stats", None)
            if stats:
                total += stats.get("hits", 0) + stats.get("misses", 0)
        return total

    def _finish_capture(
        self,
        capture: Any,
        rows: Optional[int],
        error: Optional[BaseException] = None,
    ) -> None:
        """Complete a statement-log capture with the end-time snapshots."""
        self.statement_log.finish(
            capture,
            rows,
            self._pages_read_total(),
            self.plan_cache.stats["hits"],
            self.plan_cache.stats["misses"],
            error=None if error is None else f"{type(error).__name__}: {error}",
        )

    def _select_plan(
        self,
        select: A.Select,
        cache_entry: Optional[CacheEntry] = None,
        prepared: Optional[PreparedStatement] = None,
    ) -> Any:
        """A physical plan for *select*, served from the cache when safe."""
        generation = self._plan_generation()
        if prepared is not None:
            if prepared._plan is not None and prepared._plan_generation == generation:
                self.plan_cache.stats["hits"] += 1
                self.statement_log.note_cache("hit")
                return prepared._plan
            self.plan_cache.stats["misses"] += 1
            self.statement_log.note_cache("miss")
        elif (
            cache_entry is not None
            and cache_entry.plan is not None
            and cache_entry.generation == generation
        ):
            return cache_entry.plan
        plan = self.planner.plan_select(select)
        self._maybe_verify_plan(plan)
        if self._plan_cacheable(select):
            if prepared is not None:
                prepared._plan = plan
                prepared._plan_generation = generation
            elif cache_entry is not None and cache_entry.generation == generation:
                cache_entry.plan = plan
        return plan

    @staticmethod
    def _maybe_verify_plan(plan: Any) -> None:
        """Static plan verification on every fresh plan, when switched on
        (``WOW_VERIFY_PLANS=1``; the tier-1 conftest and CI set it)."""
        from repro.analysis import planverify

        planverify.maybe_verify_plan(plan)

    @staticmethod
    def _verify_metrics() -> Dict[str, int]:
        from repro.analysis.planverify import VERIFY_METRICS

        return {
            "plans_verified": VERIFY_METRICS["verified_plans"],
            "plans_rejected": VERIFY_METRICS["rejected_plans"],
        }

    def _plan_cacheable(self, select: A.Select) -> bool:
        """True when re-running *select*'s operator tree is always correct.

        Two constructs freeze transient state into the plan and so forbid
        plan reuse (the AST is still cached): uncorrelated subqueries are
        materialised into literal lists at plan time, and system-table
        scans snapshot the catalog into a throwaway table.  View expansion
        recurses: a view whose definition contains either construct taints
        every statement that reads it.
        """
        from repro.relational.catalog import SYSTEM_TABLE_NAMES
        from repro.sql.parser import AggExpr, SubqueryExpr

        def expr_clean(expr: Any) -> bool:
            if not isinstance(expr, E.Expr):
                if isinstance(expr, A.AggCall):
                    return expr.arg is None or expr_clean(expr.arg)
                return True
            for node in expr.walk():
                if isinstance(node, SubqueryExpr):
                    return False
                if isinstance(node, AggExpr):
                    call = node.call
                    if call.arg is not None and not expr_clean(call.arg):
                        return False
            return True

        def select_clean(sel: A.Select) -> bool:
            sources: List[str] = []
            if sel.from_table is not None:
                sources.append(sel.from_table.name.lower())
            sources.extend(join.table.name.lower() for join in sel.joins)
            for name in sources:
                if name in SYSTEM_TABLE_NAMES:
                    return False
                if self.catalog.has_view(name):
                    if not select_clean(self.catalog.view(name).query):
                        return False
            exprs: List[Any] = [sel.where, sel.having]
            exprs.extend(join.condition for join in sel.joins)
            exprs.extend(sel.group_by)
            exprs.extend(item.expr for item in sel.order_by)
            exprs.extend(item.expr for item in sel.items if item.expr is not None)
            return all(expr is None or expr_clean(expr) for expr in exprs)

        return select_clean(select)

    def _execute_prepared(self, prepared: PreparedStatement) -> Result:
        """Run a prepared statement (parameters already bound by the handle)."""
        with self._latch:
            return self._run_captured(prepared.sql, prepared)

    def _run_captured(
        self, sql: str, prepared: Optional[PreparedStatement] = None
    ) -> Result:
        """Run one top-level statement inside its statement-log capture and
        ``db.execute`` span — the one capture site behind :meth:`execute`
        and :meth:`PreparedStatement.execute`.  Caller holds the latch."""
        self._begin_row_budget()
        capture = self._begin_capture()
        try:
            if prepared is None:
                entry: Optional[CacheEntry] = self._lookup_statement(sql)
                statement, fingerprint, params = entry.statement, entry.fingerprint, None
            else:
                entry = None
                statement, fingerprint = prepared.statement, prepared.fingerprint
                params = [param.value for param in prepared._params]
            kind = type(statement).__name__
            if capture is not None:
                self.statement_log.describe(capture, sql, fingerprint, kind, params)
            with self.tracer.span("db.execute", {"stmt": kind}) as span:
                if prepared is not None and isinstance(statement, A.Select):
                    result = self._run_select(statement, prepared=prepared)
                else:
                    result = self._execute_statement(statement, sql, cache_entry=entry)
                span.tag("rows", result.rowcount)
        except BaseException as exc:
            if capture is not None:
                self._finish_capture(capture, None, error=exc)
            raise
        if capture is not None:
            self._finish_capture(capture, result.rowcount)
        return result

    # ------------------------------------------------------------------
    # Programmatic DML (used by the forms runtime)
    # ------------------------------------------------------------------

    def insert(self, target: str, values: Mapping[str, Any]) -> int:
        """Insert one row into a table **or updatable view**; returns 1."""
        with self._latch:
            self._check_dml_privilege(target, "INSERT")
            with self._atomic():
                self._insert_target(target, dict(values))
            self.stats["inserts"] += 1
            return 1

    def bulk_insert(self, target: str, rows: Sequence[Mapping[str, Any]]) -> int:
        """Insert many rows as one atomic unit (one WAL commit).

        Much faster than per-row :meth:`insert` for loads: the undo/redo
        machinery runs once per batch instead of once per row.
        """
        with self._latch:
            self._check_dml_privilege(target, "INSERT")
            with self._atomic():
                for values in rows:
                    self._insert_target(target, dict(values))
            self.stats["inserts"] += 1
            return len(rows)

    def update(
        self,
        target: str,
        changes: Mapping[str, Any],
        where: Optional[Union[str, E.Expr]] = None,
    ) -> int:
        """Update rows of a table or updatable view; returns the row count."""
        with self._latch:
            self._check_dml_privilege(target, "UPDATE")
            predicate = self._parse_predicate(where)
            self._check_select_privileges(A.Update(target, [], predicate))
            with self._atomic():
                count = self._update_target(target, dict(changes), predicate)
            self.stats["updates"] += 1
            return count

    def delete(
        self, target: str, where: Optional[Union[str, E.Expr]] = None
    ) -> int:
        """Delete rows of a table or updatable view; returns the row count."""
        with self._latch:
            self._check_dml_privilege(target, "DELETE")
            predicate = self._parse_predicate(where)
            self._check_select_privileges(A.Delete(target, predicate))
            with self._atomic():
                count = self._delete_target(target, predicate)
            self.stats["deletes"] += 1
            return count

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def vacuum(self, table_name: Optional[str] = None) -> Dict[str, Dict[str, int]]:
        """Compact fragmented heap pages in place; returns per-table stats.

        In-page compaction preserves every RowId (records keep their
        (page, slot) address), so indexes stay valid and no locks beyond
        the engine latch are needed.  The reclaimed space is immediately
        visible to the free-space map, so subsequent inserts fill the
        compacted pages instead of growing the file.  Durability rides the
        normal checkpoint path — vacuum only dirties pool pages.
        """
        with self._latch:
            self._require_writable()
            if table_name is not None:
                if table_name.lower() in SYSTEM_TABLE_NAMES:
                    raise CatalogError(f"cannot vacuum system table {table_name!r}")
                tables = [self.catalog.table(table_name)]
            else:
                tables = self.catalog.tables()
            return {table.name: table.heap.vacuum() for table in tables}

    def checkpoint(self) -> None:
        """Flush all data to disk and truncate the WAL (no-op in memory).

        Protocol (each step's crash behaviour is proven by the exhaustion
        harness in ``tests/test_crash_consistency.py``):

        1. journal pre-images of every dirty heap page (+ fsync);
        2. flush + fsync the heaps;
        3. atomically replace ``catalog.json``, which records
           ``checkpoint_seq`` — the **commit point**;
        4. truncate the WAL;
        5. delete the journal.

        A crash before step 3 rolls the heaps back from the journal and
        replays the intact WAL; a crash after it skips replay of every
        group the new catalog covers.  Read-only (degraded) databases
        never checkpoint — the damaged files stay untouched for forensics.

        An I/O *error* (rather than a crash) mid-checkpoint degrades the
        database to read-only and raises :class:`StorageError`: the heaps
        may be half-flushed, and a retried checkpoint would journal
        contaminated pre-images.  Reopening recovers from the journal and
        WAL like after a crash.
        """
        if self.path is None or self.read_only:
            return
        with self._latch:
            if self._ctx.txn.active:
                # Flushing mid-transaction would write uncommitted rows into
                # the heaps, breaking the no-steal invariant recovery rests on.
                raise TransactionError("checkpoint inside an open transaction")
            if self._uncommitted():
                # Same invariant, other transactions: the embedded one or a
                # concurrent session's.
                raise TransactionError(
                    "checkpoint while another transaction holds uncommitted "
                    "changes"
                )
            seq = self.wal.last_seq if self.wal is not None else 0
            try:
                write_checkpoint_journal(
                    self._journal_path(), seq, self._pagers, io=self._io
                )
                for pager in self._pagers.values():
                    pager.flush()
                self._checkpoint_seq = seq
                self._save_catalog()
                if self.wal is not None:
                    self.wal.truncate()
                clear_checkpoint_journal(self._journal_path(), io=self._io)
            except OSError as exc:
                # A mid-checkpoint I/O failure leaves no state a *retry* can
                # safely build on: the heaps may be half-flushed, so a second
                # attempt would rewrite the journal with "pre-images" read
                # from half-flushed heaps — post-images that poison rollback.
                # Degrade to read-only instead: the journal and WAL already
                # on disk reopen to the last consistent state, exactly as
                # after a crash at this point (proven by the exhaustion
                # harness).
                self._record_corruption(
                    "checkpoint",
                    os.path.basename(self.path) or self.path,
                    f"checkpoint I/O failed: {exc}",
                )
                raise StorageError(f"checkpoint failed: {exc}") from exc

    def _uncommitted(self) -> bool:
        """True while some live transaction holds undo entries: flushing
        the heaps then would write rows no one has committed."""
        return any(txn.mark() > 0 for txn in self._txn_managers)

    def close(self) -> None:
        """Checkpoint (if persistent) and release every file handle.

        A degraded (read-only) database closes **without** flushing: its
        pools hold partially replayed state, and the on-disk files are the
        only trustworthy evidence left.  An open transaction is rolled
        back first — closing is not committing.
        """
        with self._latch:
            self.statement_log.close()
            if self.path is not None:
                if self.txn.active:
                    self.txn.rollback()
                self.checkpoint()
                for pager in self._pagers.values():
                    pager.close(flush=not self.read_only)
                self._pagers.clear()
                if self.wal is not None:
                    self.wal.close()
                    self.wal = None

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------

    def _execute_statement(
        self,
        statement: A.Statement,
        sql_text: str,
        cache_entry: Optional[CacheEntry] = None,
    ) -> Result:
        if isinstance(
            statement,
            (
                A.AlterTable, A.CreateTable, A.DropTable, A.CreateIndex,
                A.DropIndex, A.CreateView, A.DropView, A.Grant, A.Revoke,
            ),
        ):
            # DDL and privilege changes rewrite the catalog; a degraded
            # database must not touch its files.  (DML is gated in
            # _check_dml_privilege, which the programmatic API shares.)
            self._require_writable()
        if isinstance(statement, A.Select):
            return self._run_select(statement, cache_entry=cache_entry)
        if isinstance(statement, A.Union):
            self._check_select_privileges(statement)
            plan = self.planner.plan_union(statement)
            self._maybe_verify_plan(plan)
            if self.statement_log.current is not None:
                self.statement_log.note_plan(plan)
            rows = self._collect_rows(plan)
            self.stats["selects"] += 1
            return Result(columns=plan.layout.names(), rows=rows, rowcount=len(rows))
        if isinstance(statement, A.AlterTable):
            return self._run_alter_table(statement)
        if isinstance(statement, (A.Grant, A.Revoke)):
            return self._run_grant_revoke(statement)
        if isinstance(statement, A.Analyze):
            return self._run_analyze(statement)
        txn = self._ctx.txn
        if isinstance(statement, A.Savepoint):
            txn.savepoint(statement.name)
            return Result()
        if isinstance(statement, A.RollbackTo):
            txn.rollback_to_savepoint(statement.name)
            return Result()
        if isinstance(statement, A.ReleaseSavepoint):
            txn.release_savepoint(statement.name)
            return Result()
        if isinstance(statement, A.Explain):
            if statement.analyze:
                return self._run_explain_analyze(statement.query)
            from repro.analysis.planverify import verify_plan

            plan = self.planner.plan_select(statement.query)
            # EXPLAIN always verifies: a malformed plan fails here with a
            # precise diagnostic instead of rendering a bogus tree.
            verified = verify_plan(plan)
            text = plan.explain() + f"\nPlan verified: {verified} operators ok"
            return Result(plan=text)
        if isinstance(statement, A.Insert):
            return self._run_insert(statement)
        if isinstance(statement, A.Update):
            return self._run_update(statement)
        if isinstance(statement, A.Delete):
            return self._run_delete(statement)
        if isinstance(statement, A.CreateTable):
            return self._run_create_table(statement)
        if isinstance(statement, A.DropTable):
            return self._run_drop_table(statement)
        if isinstance(statement, A.CreateIndex):
            return self._run_create_index(statement)
        if isinstance(statement, A.DropIndex):
            return self._run_drop_index(statement)
        if isinstance(statement, A.CreateView):
            return self._run_create_view(statement, sql_text)
        if isinstance(statement, A.DropView):
            return self._run_drop_view(statement)
        if isinstance(statement, A.Begin):
            txn.begin()
            return Result()
        if isinstance(statement, A.Commit):
            txn.commit()
            return Result()
        if isinstance(statement, A.Rollback):
            txn.rollback()
            return Result()
        raise DatabaseError(f"unhandled statement {type(statement).__name__}")

    # -- ALTER TABLE ---------------------------------------------------------

    def _run_alter_table(self, statement: A.AlterTable) -> Result:
        if self._ctx.txn.active:
            raise TransactionError("ALTER TABLE is not allowed inside a transaction")
        self._require_ownership(statement.table)
        table = self.catalog.table(statement.table)
        if statement.action == "add":
            return self._alter_add_column(table, statement.column)
        if statement.action == "drop":
            return self._alter_drop_column(table, statement.column_name)
        if statement.action == "rename":
            return self._alter_rename(table, statement.new_name)
        raise DatabaseError(f"unknown ALTER action {statement.action!r}")

    def _dependent_views(self, table_name: str) -> List[str]:
        from repro.relational.catalog import view_dependencies

        return [
            v.name
            for v in self.catalog.views()
            if table_name in view_dependencies(v)
        ]

    def _rebuild_table(
        self,
        old: Table,
        new_schema: TableSchema,
        transform,
        keep_index: Callable[[Any], bool] = lambda index: True,
    ) -> None:
        """Replace *old* with a table of *new_schema*, copying rows through
        *transform* and re-creating surviving secondary indexes."""
        rows = [transform(row) for row in old.rows()]
        secondary = [
            (index.name, "btree" if index.ordered else "hash", index.columns, index.unique)
            for index in old.indexes.values()
            if not index.name.startswith(("pk_", "uq_"))
        ]
        # Drop the old storage.
        self.catalog._tables.pop(old.name)
        pager = self._pagers.pop(old.name, None)
        if pager is not None:
            pager.close()
            with contextlib.suppress(FileNotFoundError):
                self._io.remove(pager.path)
        if new_schema.name != old.name:
            owner = self.auth.owner_of(old.name) or self._ctx.user
            self.auth.forget_object(old.name)
            self.auth.record_owner(new_schema.name, owner)
        new_table = self.catalog.create_table(new_schema)
        for row in rows:
            new_table.insert(row)
        for name, kind, columns, unique in secondary:
            if all(new_schema.has_column(c) for c in columns) and keep_index(columns):
                new_table.add_index(name, kind, columns, unique)
        self._ddl_checkpoint()

    def _alter_add_column(self, table: Table, column: Column) -> Result:
        if table.schema.has_column(column.name):
            raise CatalogError(
                f"table {table.name!r} already has a column {column.name!r}"
            )
        if not column.nullable and column.default is None and table.count() > 0:
            raise CatalogError(
                "cannot add a NOT NULL column without a DEFAULT to a non-empty table"
            )
        new_schema = TableSchema(
            table.schema.name,
            list(table.schema.columns) + [column],
            primary_key=table.schema.primary_key or None,
            unique=table.schema.unique,
            foreign_keys=table.schema.foreign_keys,
            checks=table.schema.checks,
        )
        self._rebuild_table(table, new_schema, lambda row: row + (column.default,))
        return Result()

    def _alter_drop_column(self, table: Table, column_name: str) -> Result:
        column_name = column_name.lower()
        position = table.schema.column_index(column_name)  # validates
        if column_name in table.schema.primary_key:
            raise CatalogError(f"cannot drop primary-key column {column_name!r}")
        if any(column_name in group for group in table.schema.unique):
            raise CatalogError(f"cannot drop UNIQUE column {column_name!r}")
        if any(column_name in fk.columns for fk in table.schema.foreign_keys):
            raise CatalogError(f"cannot drop foreign-key column {column_name!r}")
        for other in self.catalog.tables():
            for fk in other.schema.foreign_keys:
                if (
                    fk.parent_table.lower() == table.name
                    and column_name in fk.parent_columns
                ):
                    raise CatalogError(
                        f"{other.name!r} references {table.name}.{column_name}"
                    )
        dependants = self._dependent_views(table.name)
        if dependants:
            raise CatalogError(
                f"cannot drop a column of {table.name!r}: views depend on it: "
                f"{dependants}"
            )
        if table.schema.arity == 1:
            raise CatalogError("cannot drop a table's only column")
        new_columns = [
            c for c in table.schema.columns if c.name != column_name
        ]
        new_schema = TableSchema(
            table.schema.name,
            new_columns,
            primary_key=table.schema.primary_key or None,
            unique=table.schema.unique,
            foreign_keys=table.schema.foreign_keys,
            checks=table.schema.checks,
        )
        self._rebuild_table(
            table,
            new_schema,
            lambda row: row[:position] + row[position + 1 :],
        )
        return Result()

    def _alter_rename(self, table: Table, new_name: str) -> Result:
        dependants = self._dependent_views(table.name)
        if dependants:
            raise CatalogError(
                f"cannot rename {table.name!r}: views depend on it: {dependants}"
            )
        for other in self.catalog.tables():
            for fk in other.schema.foreign_keys:
                if fk.parent_table.lower() == table.name and other.name != table.name:
                    raise CatalogError(
                        f"cannot rename {table.name!r}: {other.name!r} references it"
                    )
        new_schema = TableSchema(
            new_name,
            list(table.schema.columns),
            primary_key=table.schema.primary_key or None,
            unique=table.schema.unique,
            foreign_keys=table.schema.foreign_keys,
            checks=table.schema.checks,
        )
        self._rebuild_table(table, new_schema, lambda row: row)
        return Result()

    def _run_analyze(self, statement: A.Analyze) -> Result:
        """Collect optimizer statistics for one table or all tables."""
        from repro.relational.stats import analyze_table

        if statement.table is not None:
            tables = [self.catalog.table(statement.table)]
        else:
            tables = self.catalog.tables()
        for table in tables:
            self.planner.stats[table.name] = analyze_table(table)
        # Fresh statistics can change index and join choices; cached plans
        # made under the old statistics must not survive.
        self._invalidate_plans()
        # Statistics persist in the catalog document: a reopened database
        # plans with the same numbers it closed with.
        if self.path is not None and not self._ctx.txn.active:
            self._save_catalog()
        return Result(rowcount=len(tables))

    def _run_grant_revoke(self, statement) -> Result:
        from repro.relational.auth import ALL_PRIVILEGES, Privilege

        self.catalog.resolve(statement.object_name)  # must exist
        if statement.privileges == ["ALL"]:
            privileges = set(ALL_PRIVILEGES)
        else:
            privileges = {Privilege.from_name(p) for p in statement.privileges}
        if isinstance(statement, A.Grant):
            self.auth.grant(
                self._ctx.user, privileges, statement.object_name, statement.grantee
            )
        else:
            self.auth.revoke(
                self._ctx.user, privileges, statement.object_name, statement.grantee
            )
        if self.path is not None and not self._ctx.txn.active:
            self._save_catalog()
        return Result()

    # -- privilege checks ---------------------------------------------------

    def _check_select_privileges(self, statement: A.Statement) -> None:
        """SELECT on every object *statement* reads, subqueries included.

        Access through a view requires privileges on the view only (the
        view executes with its owner's rights) — so view expansion does NOT
        contribute its underlying tables here.
        """
        from repro.relational.auth import Privilege

        for name in statement_sources(statement):
            if name not in SYSTEM_TABLE_NAMES:
                self.auth.check(self._ctx.user, Privilege.SELECT, name)

    def _check_dml_privilege(self, target: str, privilege_name: str) -> None:
        from repro.relational.auth import Privilege

        # Every DML path — SQL or programmatic — funnels through here, so
        # the read-only gate lives here too.
        self._require_writable()
        self.auth.check(
            self._ctx.user, Privilege(privilege_name), target.lower()
        )

    def _run_explain_analyze(self, select: A.Select) -> Result:
        """EXPLAIN ANALYZE: execute the query with per-operator counters.

        Like PostgreSQL, the statement *runs* the query (so it needs the
        same privileges as the SELECT) but returns only the annotated plan;
        the result's ``rowcount`` reports how many rows the plan produced.
        """
        from repro.analysis.planverify import verify_plan

        self._check_select_privileges(select)
        start = time.perf_counter()
        plan = self.planner.plan_select(select)
        planning_ms = (time.perf_counter() - start) * 1000.0
        verified = verify_plan(plan)
        op_stats = instrument(plan)
        with self.tracer.span("db.explain_analyze") as span:
            start = time.perf_counter()
            produced = sum(len(batch) for batch in self._iter_batches(plan))
            execution_ms = (time.perf_counter() - start) * 1000.0
            span.tag("rows", produced)
        self.stats["selects"] += 1
        if self.statement_log.enabled:
            # ANALYZE runs always contribute per-operator est/act to the
            # plan-stats aggregate (and to the current capture, if any).
            self.statement_log.note_plan(plan)
            self.statement_log.note_operators(
                plan_fingerprint(plan), operator_rows(plan, op_stats)
            )
            self._consider_replan(plan_fingerprint(plan), select)
        text = render_analyze(
            plan, op_stats, planning_ms, execution_ms,
            plan_cache=self.plan_cache.snapshot(), verified=verified,
            replans=self.planner.metrics["replans"],
        )
        return Result(rowcount=produced, plan=text)

    def _consider_replan(self, plan_fp: str, select: A.Select) -> None:
        """Adaptive feedback: re-plan a statement whose estimates were bad.

        Called after an instrumented execution (a sampled run or EXPLAIN
        ANALYZE) has folded true per-operator cardinalities into the
        ``_plan_stats`` aggregate.  When the worst est-vs-act factor for
        this plan shape reaches ``REPLAN_FACTOR``, the referenced tables
        are re-ANALYZEd and every cached entry holding this plan has its
        plan slot cleared — the statement re-plans under fresh statistics
        on its next execution, while the rest of the cache stays hot.
        """
        if plan_fp in self._replanned_fps:
            return
        worst = self.statement_log.worst_factor_for(plan_fp)
        if worst is None or worst < REPLAN_FACTOR:
            return
        if len(self._replanned_fps) >= 1024:  # bound the loop guard
            self._replanned_fps.clear()
        self._replanned_fps.add(plan_fp)
        from repro.relational.stats import analyze_table

        for name in statement_sources(select):
            if self.catalog.has_table(name):
                self.planner.stats[name] = analyze_table(self.catalog.table(name))
        # The stale aggregates must not re-trigger on the next sample.
        self.statement_log.forget_plan(plan_fp)
        self.plan_cache.drop_plans(
            lambda plan: plan_fingerprint(plan) == plan_fp
        )
        self.planner.metrics["replans"] += 1
        if self.path is not None and not self._ctx.txn.active:
            self._save_catalog()

    # ------------------------------------------------------------------
    # Observability API
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """A JSON-serialisable dict of every layer's counters.

        Covers storage (pager, WAL, B+-tree), transactions, planner
        decisions, statement counts, the statement log, and the attached
        metrics registry (which carries the forms/windows layer's counters and span
        histograms when this database shares the process default registry).
        """
        pager_stats: Dict[str, int] = {}
        segment_stats: Dict[str, int] = {}
        btree_stats = {"trees": 0, "node_visits": 0, "max_depth": 0}
        for table in self.catalog.tables():
            pager = getattr(table.heap, "_pager", None)
            stats = getattr(pager, "stats", None)
            if stats:
                for key, value in stats.items():
                    pager_stats[key] = pager_stats.get(key, 0) + value
            for key, value in table.heap.free_space_stats().items():
                pager_stats[key] = pager_stats.get(key, 0) + value
            store = getattr(table, "segments", None)
            if store is not None:
                for key, value in store.snapshot().items():
                    segment_stats[key] = segment_stats.get(key, 0) + value
            for index in table.indexes.values():
                tree = getattr(index, "_tree", None)
                if tree is not None:
                    btree_stats["trees"] += 1
                    btree_stats["node_visits"] += tree.node_visits
                    btree_stats["max_depth"] = max(
                        btree_stats["max_depth"], tree.depth()
                    )
        txn_stats: Dict[str, int] = dict(self._retired_txn_stats)
        for manager in self._txn_managers:
            for key, value in manager.stats.items():
                txn_stats[key] = txn_stats.get(key, 0) + value
        return {
            "statements": dict(self.stats),
            "pager": pager_stats,
            "segments": segment_stats,
            "wal": dict(self.wal.stats) if self.wal is not None else {},
            "btree": btree_stats,
            "txn": txn_stats,
            "sessions": (
                self.session_manager.metrics()
                if self.session_manager is not None
                else {"enabled": 0}
            ),
            "planner": dict(self.planner.metrics),
            "plan_cache": self.plan_cache.snapshot(),
            "executor": {
                "batches": EXEC_METRICS["batches"],
                "batch_rows": EXEC_METRICS["batch_rows"],
                "exprs_compiled": exprcompile.COMPILE_METRICS["compiled"],
                "exprs_fallback": exprcompile.COMPILE_METRICS["fallback"],
                **self._verify_metrics(),
            },
            "integrity": {
                "read_only": self.read_only,
                "corruption_events": len(self._corruption_events),
                **{
                    f"wal_{key}": value
                    for key, value in (
                        self.wal.recovery_stats if self.wal is not None else {}
                    ).items()
                },
            },
            "statement_log": self.statement_log.snapshot(),
            "registry": self.obs.snapshot(),
        }

    def _begin_row_budget(self) -> None:
        """Arm the per-statement row budget (top-level statements only —
        nested plan executions inside one statement share its budget)."""
        limit = self._ctx.max_rows
        self._row_budget = _RowBudget(limit) if limit else None

    def _collect_rows(self, plan: Operator) -> List[Row]:
        """Materialise a plan's output, charging the statement row budget."""
        budget = self._row_budget
        rows: List[Row] = []
        extend = rows.extend
        batches = 0
        for batch in plan.rows_batched():
            if budget is not None:
                budget.charge(len(batch))
            extend(batch)
            batches += 1
        EXEC_METRICS["batches"] += batches
        EXEC_METRICS["batch_rows"] += len(rows)
        return rows

    def _iter_batches(self, plan: Operator) -> Iterator[List[Row]]:
        """Lazy batch iterator, charging the statement row budget (EXPLAIN
        ANALYZE counts rows without materialising them)."""
        budget = self._row_budget
        for batch in plan.rows_batched():
            if budget is not None:
                budget.charge(len(batch))
            EXEC_METRICS["batches"] += 1
            EXEC_METRICS["batch_rows"] += len(batch)
            yield batch

    def _run_select(
        self,
        select: A.Select,
        cache_entry: Optional[CacheEntry] = None,
        prepared: Optional[PreparedStatement] = None,
    ) -> Result:
        self._check_select_privileges(select)
        log = self.statement_log
        if log.take_sample():
            return self._run_select_sampled(select)
        plan = self._select_plan(select, cache_entry=cache_entry, prepared=prepared)
        if log.current is not None:
            log.note_plan(plan)
        rows = self._collect_rows(plan)
        self.stats["selects"] += 1
        return Result(columns=plan.layout.names(), rows=rows, rowcount=len(rows))

    def _run_select_sampled(self, select: A.Select) -> Result:
        """Every Nth SELECT under ``statlog_sample_every=N``: plan fresh,
        instrument, and record true per-operator est/act cardinalities.

        The plan cache is deliberately bypassed — instrumentation wrappers
        mutate the tree's ``rows`` methods and must never leak into a
        cached (or prepared) plan.
        """
        log = self.statement_log
        plan = self.planner.plan_select(select)
        self._maybe_verify_plan(plan)
        op_stats = instrument(plan)
        rows = self._collect_rows(plan)
        log.note_plan(plan)
        log.note_operators(
            plan_fingerprint(plan), operator_rows(plan, op_stats), sampled=True
        )
        self._consider_replan(plan_fingerprint(plan), select)
        self.stats["selects"] += 1
        return Result(columns=plan.layout.names(), rows=rows, rowcount=len(rows))

    # -- DML statements ------------------------------------------------------

    def _run_insert(self, statement: A.Insert) -> Result:
        self._check_dml_privilege(statement.table, "INSERT")
        self._check_select_privileges(statement)
        schema = self.catalog.schema_of(statement.table)
        if statement.select is not None:
            return self._run_insert_select(statement, schema)
        # Subqueries see the table as it was before the first row lands.
        resolve = self.planner._resolve_subqueries
        value_rows = [
            [_const_value(resolve(expr)) for expr in value_row]
            for value_row in statement.rows
        ]
        count = 0
        with self._atomic():
            for values in value_rows:
                if statement.columns is not None:
                    if len(values) != len(statement.columns):
                        raise SqlError(
                            f"INSERT has {len(values)} values for "
                            f"{len(statement.columns)} columns"
                        )
                    mapping = dict(zip(statement.columns, values))
                else:
                    if len(values) != schema.arity:
                        raise SqlError(
                            f"INSERT has {len(values)} values; table "
                            f"{schema.name!r} has {schema.arity} columns"
                        )
                    mapping = dict(zip(schema.column_names, values))
                self._insert_target(statement.table, mapping)
                count += 1
        self.stats["inserts"] += 1
        return Result(rowcount=count)

    def _run_insert_select(self, statement: A.Insert, schema) -> Result:
        """INSERT INTO t [(cols)] SELECT ... — rows map positionally."""
        plan = self.planner.plan_select(statement.select)
        target_columns = statement.columns or list(schema.column_names)
        if len(plan.layout) != len(target_columns):
            raise SqlError(
                f"INSERT ... SELECT: query yields {len(plan.layout)} columns "
                f"for {len(target_columns)} target columns"
            )
        # Materialise before writing: the source may be the target table.
        source_rows = self._collect_rows(plan)
        count = 0
        with self._atomic():
            for row in source_rows:
                self._insert_target(
                    statement.table, dict(zip(target_columns, row))
                )
                count += 1
        self.stats["inserts"] += 1
        return Result(rowcount=count)

    def _run_update(self, statement: A.Update) -> Result:
        self._check_dml_privilege(statement.table, "UPDATE")
        self._check_select_privileges(statement)
        changes = {}
        for column, expr in statement.assignments:
            expr = self.planner._resolve_subqueries(expr)
            changes[column] = _const_value(expr) if _is_const(expr) else expr
        with self._atomic():
            count = self._update_target(statement.table, changes, statement.where)
        self.stats["updates"] += 1
        return Result(rowcount=count)

    def _run_delete(self, statement: A.Delete) -> Result:
        self._check_dml_privilege(statement.table, "DELETE")
        self._check_select_privileges(statement)
        with self._atomic():
            count = self._delete_target(statement.table, statement.where)
        self.stats["deletes"] += 1
        return Result(rowcount=count)

    # -- DDL statements ------------------------------------------------------

    def _run_create_table(self, statement: A.CreateTable) -> Result:
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return Result()
        schema = TableSchema(
            statement.name,
            statement.columns,
            primary_key=statement.primary_key,
            unique=statement.unique,
            foreign_keys=statement.foreign_keys,
            checks=statement.checks,
        )
        for fk in schema.foreign_keys:
            self._validate_fk_target(schema, fk)
        for check in schema.checks:
            # Validate the expression binds against this table's columns.
            E.bind(check, E.RowLayout.for_table(schema.name, schema))
        self.catalog.create_table(schema)
        self.auth.record_owner(schema.name, self._ctx.user)
        self._ddl_checkpoint()
        return Result()

    def _run_drop_table(self, statement: A.DropTable) -> Result:
        name = statement.name.lower()
        if not self.catalog.has_table(name):
            if statement.if_exists:
                return Result()
            raise CatalogError(f"no table named {name!r}")
        for other in self.catalog.tables():
            if other.name == name:
                continue
            for fk in other.schema.foreign_keys:
                if fk.parent_table.lower() == name:
                    raise CatalogError(
                        f"cannot drop {name!r}: {other.name!r} references it"
                    )
        self._require_ownership(name)
        self.catalog.drop_table(name)
        self.auth.forget_object(name)
        # A later table of the same name must not inherit these statistics.
        self.planner.stats.pop(name, None)
        pager = self._pagers.pop(name, None)
        if pager is not None:
            pager.close(flush=False)
        # The heap file is removed only AFTER the checkpoint makes the
        # table's absence durable in the catalog: a crash in between leaves
        # an orphan file (harmless, re-droppable) rather than a catalog
        # entry pointing at a missing heap.
        self._ddl_checkpoint()
        if pager is not None:
            with contextlib.suppress(FileNotFoundError):
                self._io.remove(pager.path)
        return Result()

    def _require_ownership(self, obj: str) -> None:
        from repro.relational.auth import AuthError

        if not self.auth.is_owner(self._ctx.user, obj):
            raise AuthError(
                f"user {self._ctx.user!r} does not own {obj!r}"
            )

    def _run_create_index(self, statement: A.CreateIndex) -> Result:
        self._require_ownership(statement.table)
        table = self.catalog.table(statement.table)
        table.add_index(
            statement.name, statement.kind, statement.columns, statement.unique
        )
        self._ddl_checkpoint()
        return Result()

    def _run_drop_index(self, statement: A.DropIndex) -> Result:
        self._require_ownership(statement.table)
        table = self.catalog.table(statement.table)
        table.drop_index(statement.name)
        self._ddl_checkpoint()
        return Result()

    def _run_create_view(self, statement: A.CreateView, sql_text: str) -> Result:
        # Creating a view requires SELECT on everything it reads.
        self._check_select_privileges(statement.query)
        schema = self.planner.output_schema(statement.query, statement.name)
        if statement.column_names is not None:
            if len(statement.column_names) != schema.arity:
                raise SqlError(
                    f"view column list has {len(statement.column_names)} names "
                    f"for {schema.arity} outputs"
                )
            schema = TableSchema(
                statement.name,
                [
                    Column(new_name, col.ctype, col.nullable, col.default)
                    for new_name, col in zip(statement.column_names, schema.columns)
                ],
            )
        view = ViewDefinition(
            name=statement.name.lower(),
            query=statement.query,
            schema=schema,
            check_option=statement.check_option,
            sql_text=sql_text.strip(),
        )
        if statement.check_option:
            # WITH CHECK OPTION only makes sense on an updatable view.
            analyze_updatability(view, self.catalog)
        self.catalog.create_view(view)
        self.auth.record_owner(view.name, self._ctx.user)
        self._ddl_checkpoint()
        return Result()

    def _run_drop_view(self, statement: A.DropView) -> Result:
        if not self.catalog.has_view(statement.name):
            if statement.if_exists:
                return Result()
            raise CatalogError(f"no view named {statement.name!r}")
        self._require_ownership(statement.name)
        self.catalog.drop_view(statement.name)
        self.auth.forget_object(statement.name)
        self._ddl_checkpoint()
        return Result()

    def _ddl_checkpoint(self) -> None:
        """Common DDL epilogue: invalidate cached plans, then make durable.

        The invalidation is unconditional — every DDL path (CREATE/DROP
        TABLE/VIEW/INDEX, ALTER) funnels through here, and a generation
        bump is required even when the durability step is skipped (memory
        databases, DDL inside a transaction, or while another transaction
        holds uncommitted rows that a flush would make durable — no-steal).
        Catalog mutations also bump ``catalog.generation``, which
        :meth:`_plan_generation` folds in; this explicit bump covers index
        DDL, which changes no catalog entry but changes what the planner
        would choose.
        """
        self._invalidate_plans()
        if (
            self.path is not None
            and not self._ctx.txn.active
            and not self._uncommitted()
        ):
            self.checkpoint()

    # ------------------------------------------------------------------
    # Row-level operations with constraint enforcement and logging
    # ------------------------------------------------------------------

    @staticmethod
    def _reject_system_table_dml(target: str) -> None:
        from repro.relational.catalog import SYSTEM_TABLE_NAMES

        if target.lower() in SYSTEM_TABLE_NAMES:
            raise CatalogError(f"system table {target!r} is read-only")

    def _insert_target(self, target: str, values: Dict[str, Any]) -> None:
        self._reject_system_table_dml(target)
        entity = self.catalog.resolve(target)
        if isinstance(entity, ViewDefinition):
            info = analyze_updatability(entity, self.catalog)
            base_values = info.translate_changes(values)
            for column, value in info.predicate_defaults().items():
                base_values.setdefault(column, value)
            row = info.base.schema.row_from_mapping(base_values)
            info.enforce_check_option(row)
            self._apply_insert(info.base, row)
        else:
            row = entity.schema.row_from_mapping(values)
            self._apply_insert(entity, row)

    def _update_target(
        self,
        target: str,
        changes: Dict[str, Any],
        where: Optional[E.Expr],
    ) -> int:
        self._reject_system_table_dml(target)
        entity = self.catalog.resolve(target)
        if isinstance(entity, ViewDefinition):
            return self._update_view(entity, changes, where)
        return self._update_table(entity, changes, where)

    def _delete_target(self, target: str, where: Optional[E.Expr]) -> int:
        self._reject_system_table_dml(target)
        entity = self.catalog.resolve(target)
        if isinstance(entity, ViewDefinition):
            return self._delete_view(entity, where)
        return self._delete_table(entity, where)

    # -- base-table paths ------------------------------------------------

    def _update_table(
        self, table: Table, changes: Dict[str, Any], where: Optional[E.Expr]
    ) -> int:
        victims = self._matching_rids(table, where)
        count = 0
        for rid in victims:
            old_row = table.read(rid)
            new_row = list(old_row)
            for column, value in changes.items():
                position = table.schema.column_index(column)
                new_row[position] = self._change_value(value, table, old_row)
            self._apply_update(table, rid, tuple(new_row))
            count += 1
        return count

    def _delete_table(self, table: Table, where: Optional[E.Expr]) -> int:
        victims = self._matching_rids(table, where)
        for rid in victims:
            self._apply_delete(table, rid)
        return len(victims)

    # -- view paths ----------------------------------------------------------

    def _update_view(
        self, view: ViewDefinition, changes: Dict[str, Any], where: Optional[E.Expr]
    ) -> int:
        info = analyze_updatability(view, self.catalog)
        base_changes = info.translate_changes(
            {k: v for k, v in changes.items()}
        )
        base_where = self._translate_view_predicate(info, where)
        victims = [
            rid
            for rid in self._matching_rids(info.base, base_where)
            if info.row_visible(info.base.read(rid))
        ]
        count = 0
        for rid in victims:
            old_row = info.base.read(rid)
            new_row = list(old_row)
            for column, value in base_changes.items():
                position = info.base.schema.column_index(column)
                new_row[position] = self._change_value(value, info.base, old_row)
            info.enforce_check_option(tuple(new_row))
            self._apply_update(info.base, rid, tuple(new_row))
            count += 1
        return count

    def _delete_view(self, view: ViewDefinition, where: Optional[E.Expr]) -> int:
        info = analyze_updatability(view, self.catalog)
        base_where = self._translate_view_predicate(info, where)
        victims = [
            rid
            for rid in self._matching_rids(info.base, base_where)
            if info.row_visible(info.base.read(rid))
        ]
        for rid in victims:
            self._apply_delete(info.base, rid)
        return len(victims)

    @staticmethod
    def _translate_view_predicate(
        info: UpdatableViewInfo, where: Optional[E.Expr]
    ) -> Optional[E.Expr]:
        """Rewrite a predicate over view columns into base-table columns."""
        if where is None:
            return None

        def fix(node: E.Expr) -> Optional[E.Expr]:
            if isinstance(node, E.ColumnRef):
                base_col = info.column_map.get(node.name)
                if base_col is None:
                    raise BindError(
                        f"view {info.view.name!r} has no column {node.name!r}"
                    )
                return E.ColumnRef(base_col)
            return None

        return E.rewrite(where, fix)

    def _change_value(self, value: Any, table: Table, old_row: Row) -> Any:
        """Evaluate a SET value: a constant or an expression over the old row."""
        if isinstance(value, E.Expr):
            layout = E.RowLayout.for_table(table.name, table.schema)
            return E.bind(value, layout).eval(old_row)
        return value

    def _matching_rids(self, table: Table, where: Optional[E.Expr]) -> List[RowId]:
        """RowIds satisfying *where* (index-accelerated when possible)."""
        if where is None:
            return [rid for rid, _row in table.scan()]
        where = self.planner._resolve_subqueries(where)
        layout = E.RowLayout.for_table(table.name, table.schema)
        conjuncts = E.split_conjuncts(where)
        # Try an equality conjunct with a matching index.
        for conjunct in conjuncts:
            hit = E.const_comparison(conjunct)
            if hit is None or hit[1] != "=" or hit[2] is None:
                continue
            column, _op, value = hit
            if not table.schema.has_column(column.name):
                continue
            index = table.index_on([column.name])
            if index is None:
                continue
            coerced = table.schema.column(column.name).ctype
            bound = E.bind(where, layout)
            rids = []
            from repro.relational.types import coerce

            for rid in index.lookup((coerce(value, coerced),)):
                if bound.eval(table.read(rid)) is True:
                    rids.append(rid)
            return rids
        bound = E.bind(where, layout)
        return [rid for rid, row in table.scan() if bound.eval(row) is True]

    # -- physical ops with FK checks and logging -----------------------------

    def _check_table_checks(self, table: Table, row: Row) -> None:
        """Enforce CHECK constraints: a check fails only on FALSE (not NULL)."""
        from repro.errors import CheckConstraintError

        for check in table.schema.checks:
            layout = E.RowLayout.for_table(table.name, table.schema)
            if E.bind(check, layout).eval(row) is False:
                raise CheckConstraintError(
                    f"row violates CHECK {check.to_sql()} on {table.name!r}"
                )

    def _apply_insert(self, table: Table, row: Row) -> RowId:
        row = table.schema.validate_row(row)
        self._check_table_checks(table, row)
        self._check_fk_child_side(table, row)
        rid = table.insert(row)
        redo = self.wal.log_insert(table.name, row) if self.wal is not None else None
        self._ctx.txn.log_insert(table, rid, redo=redo)
        return rid

    def _apply_delete(self, table: Table, rid: RowId) -> None:
        row = table.read(rid)
        self._check_fk_parent_side(table, row, ignore_rid=rid)
        table.delete(rid)
        redo = self.wal.log_delete(table.name, row) if self.wal is not None else None
        self._ctx.txn.log_delete(table, row, rid=rid, redo=redo)

    def _apply_update(self, table: Table, rid: RowId, new_row: Row) -> RowId:
        new_row = table.schema.validate_row(new_row)
        old_row = table.read(rid)
        if new_row == old_row:
            return rid
        self._check_table_checks(table, new_row)
        self._check_fk_child_side(table, new_row)
        self._check_fk_parent_key_change(table, old_row, new_row, rid)
        new_rid, _ = table.update(rid, new_row)
        redo = (
            self.wal.log_update(table.name, old_row, new_row)
            if self.wal is not None
            else None
        )
        txn = self._ctx.txn
        txn.log_update(table, new_rid, old_row, redo=redo)
        if new_rid != rid:
            txn.note_rid_moved(table, rid, new_rid)
        return new_rid

    # -- foreign keys ------------------------------------------------------

    def _validate_fk_target(self, child_schema: TableSchema, fk: ForeignKey) -> None:
        parent = self.catalog.table(fk.parent_table)  # raises if missing
        for column in fk.parent_columns:
            parent.schema.column(column)
        parent_cols = tuple(c.lower() for c in fk.parent_columns)
        if parent.schema.primary_key != parent_cols and parent_cols not in parent.schema.unique:
            raise CatalogError(
                f"foreign key must reference a primary key or UNIQUE columns "
                f"of {fk.parent_table!r}"
            )

    def _check_fk_child_side(self, table: Table, row: Row) -> None:
        """Every FK value combination must exist in its parent table."""
        for fk in table.schema.foreign_keys:
            key = tuple(
                row[table.schema.column_index(c)] for c in fk.columns
            )
            if any(component is None for component in key):
                continue
            parent = self.catalog.table(fk.parent_table)
            index = parent.index_on(fk.parent_columns)
            if index is not None:
                if index.lookup(key):
                    continue
            else:
                positions = [
                    parent.schema.column_index(c) for c in fk.parent_columns
                ]
                if any(
                    tuple(parent_row[p] for p in positions) == key
                    for parent_row in parent.rows()
                ):
                    continue
            raise ForeignKeyError(
                f"{table.name}.{fk.columns} = {key!r} has no parent in "
                f"{fk.parent_table}({', '.join(fk.parent_columns)})"
            )

    def _check_fk_parent_side(
        self, table: Table, row: Row, ignore_rid: Optional[RowId]
    ) -> None:
        """No child row may still reference *row* (RESTRICT semantics)."""
        for child in self.catalog.tables():
            for fk in child.schema.foreign_keys:
                if fk.parent_table.lower() != table.name:
                    continue
                key = tuple(
                    row[table.schema.column_index(c)] for c in fk.parent_columns
                )
                if any(component is None for component in key):
                    continue
                index = child.index_on(fk.columns)
                if index is not None:
                    referencing = index.lookup(key)
                else:
                    positions = [child.schema.column_index(c) for c in fk.columns]
                    referencing = [
                        rid
                        for rid, child_row in child.scan()
                        if tuple(child_row[p] for p in positions) == key
                    ]
                if referencing:
                    raise ForeignKeyError(
                        f"cannot delete from {table.name!r}: "
                        f"{child.name}.{fk.columns} still references {key!r}"
                    )

    def _check_fk_parent_key_change(
        self, table: Table, old_row: Row, new_row: Row, rid: RowId
    ) -> None:
        """Treat a referenced-key change as a delete of the old key."""
        for child in self.catalog.tables():
            for fk in child.schema.foreign_keys:
                if fk.parent_table.lower() != table.name:
                    continue
                positions = [table.schema.column_index(c) for c in fk.parent_columns]
                old_key = tuple(old_row[p] for p in positions)
                new_key = tuple(new_row[p] for p in positions)
                if old_key != new_key:
                    self._check_fk_parent_side(table, old_row, ignore_rid=rid)
                    return

    # ------------------------------------------------------------------
    # Statement atomicity
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _atomic(self) -> Iterator[None]:
        """Make the enclosed DML all-or-nothing."""
        txn = self._ctx.txn
        if txn.active:
            mark = txn.mark()
            try:
                yield
            except Exception:
                txn.rollback_to(mark)
                raise
        else:
            txn.begin()
            try:
                yield
            except Exception:
                txn.rollback()
                raise
            else:
                txn.commit()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _disk_heap(self, name: str) -> HeapFile:
        pager = FilePager(
            os.path.join(self.path, f"{name}.heap"),
            pool_size=self.pool_size,
            io=self._io,
            prefetch_pages=self.prefetch_pages,
        )
        self._pagers[name] = pager
        return HeapFile(pager)

    def _catalog_path(self) -> str:
        return os.path.join(self.path, "catalog.json")

    def _journal_path(self) -> str:
        return os.path.join(self.path, JOURNAL_NAME)

    # -- corruption handling / read-only degradation ------------------------

    def new_txn_manager(self) -> TransactionManager:
        """A fresh TransactionManager over this database's WAL.

        The embedded context's transaction comes from here, and the
        session layer creates one per session so concurrent transactions
        keep separate undo/redo logs.  The undo-failure degradation hook
        comes pre-attached, and the manager's counters feed
        ``metrics_snapshot()["txn"]``.
        """
        txn = TransactionManager(self.wal)
        txn.on_undo_failure.append(self._on_undo_failure)
        self._txn_managers.append(txn)
        return txn

    def retire_txn_manager(self, txn: TransactionManager) -> None:
        """Fold a closed session's txn counters into the lifetime totals."""
        if txn is self.txn or txn not in self._txn_managers:
            return
        self._txn_managers.remove(txn)
        for key, value in txn.stats.items():
            self._retired_txn_stats[key] = (
                self._retired_txn_stats.get(key, 0) + value
            )

    def _on_undo_failure(self, exc: BaseException) -> None:
        """A partial undo left half-rolled-back rows nobody can repair
        in place — record it and degrade to read-only (graceful
        degradation beats silent corruption)."""
        self._record_corruption(
            "txn", "undo-log", f"rollback failed partway: {exc}"
        )

    def _record_corruption(self, component: str, obj: str, message: str) -> None:
        """Note a corruption event and degrade the database to read-only."""
        self._corruption_events.append(
            {"component": component, "object": obj, "message": message}
        )
        self.read_only = True
        self.obs.add("integrity.corruption_events")

    def _require_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyError(
                "database is in read-only mode after corruption was "
                "detected; see Database.integrity_check() for the report"
            )

    def integrity_check(self) -> IntegrityReport:
        """Verify heaps, indexes, FKs, and the catalog; returns a report.

        Includes every corruption event recorded while opening (bad WAL
        CRC, unloadable catalog/heap) plus an active scan of the loaded
        state.  ``report.ok`` is True on a healthy database.
        """
        return check_database(self)

    def _recover_checkpoint_journal(self) -> None:
        """Settle a crash that hit mid-checkpoint (see ``checkpoint()``).

        Runs before the catalog or any heap is opened.  A complete journal
        newer than the on-disk catalog's ``checkpoint_seq`` means the
        catalog rename (the commit point) never happened: heap files may
        hold a partial flush, so the journal's pre-images roll them back
        to the previous checkpoint and WAL replay redoes the lost work.
        """
        journal = read_checkpoint_journal(self._journal_path())
        if journal is None:
            # Absent, or incomplete (crash while writing it — the heaps
            # were never touched).  Nothing to undo.
            if os.path.exists(self._journal_path()):
                clear_checkpoint_journal(self._journal_path(), io=self._io)
            return
        disk_seq = self._read_disk_checkpoint_seq()
        if disk_seq is None or disk_seq < journal["seq"]:
            try:
                rollback_checkpoint_journal(journal, self.path, io=self._io)
            except StorageError as exc:
                self._record_corruption("journal", JOURNAL_NAME, str(exc))
                return  # keep the journal for forensics
        clear_checkpoint_journal(self._journal_path(), io=self._io)

    def _remove_orphan_heaps(self) -> None:
        """Delete heap files no catalog entry references.

        DROP TABLE removes the heap file only *after* its checkpoint (so a
        crash never leaves a catalog entry pointing at a missing heap); the
        price is that a crash in between leaves an orphan file that a later
        CREATE TABLE of the same name would resurrect.  This sweep closes
        that window.  Skipped on a degraded database — if the catalog did
        not load cleanly, "unreferenced" proves nothing.
        """
        if self.read_only:
            return
        live = {f"{table.name}.heap" for table in self.catalog.tables()}
        try:
            entries = os.listdir(self.path)
        except OSError:
            return
        for entry in entries:
            if entry.endswith(".heap") and entry not in live:
                with contextlib.suppress(OSError):
                    self._io.remove(os.path.join(self.path, entry))

    def _read_disk_checkpoint_seq(self) -> Optional[int]:
        """The ``checkpoint_seq`` recorded in catalog.json (None = unknown)."""
        try:
            with open(self._catalog_path(), "r", encoding="utf-8") as fh:
                return int(json.load(fh).get("checkpoint_seq", 0))
        except FileNotFoundError:
            return 0
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError, OSError):
            return None

    def _save_catalog(self) -> None:
        doc = {
            "tables": [
                {
                    "name": table.name,
                    "columns": [
                        {
                            "name": col.name,
                            "type": str(col.ctype),
                            "nullable": col.nullable,
                            "default": _json_value(col.default),
                        }
                        for col in table.schema.columns
                    ],
                    "primary_key": list(table.schema.primary_key),
                    "unique": [list(g) for g in table.schema.unique],
                    "foreign_keys": [
                        {
                            "columns": list(fk.columns),
                            "parent_table": fk.parent_table,
                            "parent_columns": list(fk.parent_columns),
                        }
                        for fk in table.schema.foreign_keys
                    ],
                    "checks": [check.to_sql() for check in table.schema.checks],
                    "indexes": [
                        {
                            "name": index.name,
                            "kind": "btree" if index.ordered else "hash",
                            "columns": list(index.columns),
                            "unique": index.unique,
                        }
                        for index in table.indexes.values()
                        if not index.name.startswith(("pk_", "uq_"))
                    ],
                }
                for table in self.catalog.tables()
            ],
            "views": [
                {"name": view.name, "sql": view.sql_text}
                for view in self.catalog.views()
            ],
            "auth": self.auth.to_doc() if hasattr(self, "auth") else {},
            # The WAL group the heaps on disk are current through; replay
            # after a crash skips every group at or below this.
            "checkpoint_seq": self._checkpoint_seq,
        }
        # Optimizer statistics (ANALYZE output) ride along in the catalog
        # document; absent before the planner exists during early open.
        planner = getattr(self, "planner", None)
        if planner is not None and planner.stats:
            from repro.relational.stats import stats_to_doc

            doc["stats"] = {
                name: stats_to_doc(stats)
                for name, stats in sorted(planner.stats.items())
                if self.catalog.has_table(name)
            }
        # Atomic replace: write a tmp file, fsync it, rename over the old
        # catalog, then fsync the directory so the rename itself is durable.
        tmp_path = self._catalog_path() + ".tmp"
        payload = json.dumps(doc, indent=1).encode("utf-8")
        fd = self._io.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            self._io.write_all(fd, payload)
            self._io.fsync(fd)
        finally:
            os.close(fd)
        self._io.replace(tmp_path, self._catalog_path())
        self._io.fsync_dir(self.path)

    def _load_catalog(self) -> None:
        if not os.path.exists(self._catalog_path()):
            return
        try:
            with open(self._catalog_path(), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            # An unparseable catalog leaves nothing to load; degrade rather
            # than crash so integrity_check() can still report the damage.
            self._record_corruption("catalog", "catalog.json", f"unparseable: {exc}")
            return
        try:
            self._checkpoint_seq = int(doc.get("checkpoint_seq", 0))
        except (TypeError, ValueError):
            self._record_corruption(
                "catalog", "catalog.json",
                f"bad checkpoint_seq {doc.get('checkpoint_seq')!r}",
            )
        if doc.get("auth"):
            from repro.relational.auth import AuthManager

            self.auth = AuthManager.from_doc(doc["auth"])
        for spec in doc.get("tables", []):
            try:
                schema = TableSchema(
                    spec["name"],
                    [
                        Column(
                            c["name"],
                            ColumnType.from_name(c["type"]),
                            c["nullable"],
                            c["default"],
                        )
                        for c in spec["columns"]
                    ],
                    primary_key=spec["primary_key"] or None,
                    unique=spec["unique"],
                    foreign_keys=[
                        ForeignKey(
                            tuple(fk["columns"]),
                            fk["parent_table"],
                            tuple(fk["parent_columns"]),
                        )
                        for fk in spec["foreign_keys"]
                    ],
                    checks=[
                        self._parse_predicate(text) for text in spec.get("checks", [])
                    ],
                )
                table = self.catalog.create_table(schema)
                for index_spec in spec.get("indexes", []):
                    table.add_index(
                        index_spec["name"],
                        index_spec["kind"],
                        index_spec["columns"],
                        index_spec["unique"],
                    )
            except (DatabaseError, KeyError, TypeError, ValueError) as exc:
                # One damaged table entry (or its torn heap file) must not
                # take down the rest of the catalog: record, skip, continue.
                self._record_corruption(
                    "catalog", str(spec.get("name", "?")), f"unloadable table: {exc}"
                )
        # Views are re-created by re-parsing their original SQL; a planner
        # bound to this catalog is needed to re-derive schemas.
        planner = Planner(self.catalog, self.planner_config)
        for view_spec in doc.get("views", []):
            try:
                statement = parse_statement(view_spec["sql"])
                assert isinstance(statement, A.CreateView)
                schema = planner.output_schema(statement.query, statement.name)
                if statement.column_names is not None:
                    schema = TableSchema(
                        statement.name,
                        [
                            Column(new_name, col.ctype, col.nullable, col.default)
                            for new_name, col in zip(statement.column_names, schema.columns)
                        ],
                    )
                self.catalog.create_view(
                    ViewDefinition(
                        name=statement.name.lower(),
                        query=statement.query,
                        schema=schema,
                        check_option=statement.check_option,
                        sql_text=view_spec["sql"],
                    )
                )
            except (DatabaseError, AssertionError, KeyError, TypeError) as exc:
                self._record_corruption(
                    "catalog", str(view_spec.get("name", "?")),
                    f"unloadable view: {exc}",
                )
        # Persisted optimizer statistics: parsed here, applied by __init__
        # once the real planner exists (this method runs before it does).
        # Torn entries are dropped silently — stats are advisory, and a
        # missing entry merely costs one ANALYZE.
        loaded: Dict[str, Any] = {}
        stats_doc = doc.get("stats")
        if isinstance(stats_doc, dict):
            from repro.relational.stats import stats_from_doc

            for name, entry in stats_doc.items():
                if not isinstance(entry, dict):
                    continue
                stats = stats_from_doc(entry)
                if stats is not None:
                    loaded[str(name).lower()] = stats
        self._loaded_stats = loaded

    def _recover(self) -> None:
        """Replay committed WAL records over the checkpointed data files.

        Groups at or below the catalog's ``checkpoint_seq`` are skipped —
        a crash between the catalog rename and the WAL truncation leaves
        already-flushed groups in the log, and replaying them would apply
        every row twice.  Proven corruption (a bad CRC followed by valid
        records) keeps the applied prefix and degrades to read-only.
        """
        if self.wal is None:
            return

        stats = self.wal.recovery_stats

        def locate(table: Table, image: Sequence[Any]) -> Optional[RowId]:
            # The victim is found by value — through a unique index when the
            # table has one (_load_catalog backfilled them, replay keeps them
            # in step) — never by RowId: the log is commit-ordered and omits
            # rolled-back work, so slots differ from the original run.
            rid = table.find_by_image(table.schema.validate_row(image))
            if rid is None:
                stats["unmatched_ops"] += 1
            return rid

        def apply(op: dict) -> None:
            table = self.catalog.table(op["tab"])
            if op["t"] == "insert":
                table.insert(table.schema.validate_row(op["row"]))
            elif op["t"] == "delete":
                rid = locate(table, op["old" if "old" in op else "row"])
                if rid is not None:
                    table.delete(rid)
            elif op["t"] == "update":
                new_image = table.schema.validate_row(op["new"])
                rid = locate(table, op["old"])
                if rid is not None:
                    table.update(rid, new_image)

        try:
            self.wal.replay(apply, min_seq=self._checkpoint_seq)
        except DatabaseError as exc:
            self._record_corruption("wal", os.path.basename(self.wal.path), str(exc))

    # -- misc helpers -------------------------------------------------------

    def _parse_predicate(self, where: Optional[Union[str, E.Expr]]) -> Optional[E.Expr]:
        if where is None or isinstance(where, E.Expr):
            return where
        # Parse the text as the WHERE clause of a dummy statement.
        statement = parse_statement(f"DELETE FROM __predicate_host WHERE {where}")
        assert isinstance(statement, A.Delete)
        return statement.where

    def table_names(self) -> List[str]:
        return [t.name for t in self.catalog.tables()]

    def view_names(self) -> List[str]:
        return [v.name for v in self.catalog.views()]


def _is_const(expr: E.Expr) -> bool:
    return not any(isinstance(node, E.ColumnRef) for node in expr.walk())


def _const_value(expr: E.Expr) -> Any:
    if not _is_const(expr):
        raise BindError(
            f"VALUES entries must be constants, got {expr.to_sql()}"
        )
    return expr.eval(())


def _json_value(value: Any) -> Any:
    import datetime

    if isinstance(value, datetime.date):
        return value.isoformat()
    return value
