"""The session manager: per-connection transaction state, one engine.

A :class:`Session` is what the paper calls a *user* at a terminal: its own
:class:`~repro.relational.database.ExecContext` — open transaction (undo
and redo log, savepoints), user identity, and statement budget — handed to
one shared :class:`~repro.relational.database.Database` with each
statement.

Concurrency is two-level:

* the database's **engine latch** (``Database._latch``) serialises the
  row-level work of individual statements, so the engine's internal
  structures never see two mutators at once;
* the **lock manager** (:mod:`repro.session.locks`) serialises whole
  *transactions* at table granularity under strict 2PL, so interleaved
  transactions are conflict-serialisable.

The golden rule tying the two together: **never block on a table lock
while holding the latch**.  Every statement computes its lockset first
(briefly under the latch, to read the catalog consistently), releases the
latch, acquires its locks — possibly waiting — and only then takes the
latch to execute.  A DDL that slips in between bumps the catalog
generation, which the execute step detects and handles by recomputing the
lockset (holding the extra locks is safe under 2PL, merely conservative).

Retry policy (:meth:`Session.execute`): a retryable failure
(:class:`SerializationError`, :class:`LockTimeoutError`) aborts the whole
transaction server-side.  For a standalone autocommit statement the
session retries it transparently with jittered exponential backoff; for a
statement inside an explicit ``BEGIN`` the error propagates, because only
the client knows the rest of the transaction to replay.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.concurrency import dynlock
from repro.errors import (
    BusyError,
    LockTimeoutError,
    SerializationError,
    SessionError,
    StatementTimeoutError,
    WowError,
)
from repro.relational.catalog import SYSTEM_TABLE_NAMES
from repro.relational.database import ExecContext
from repro.session.locks import (
    CATALOG_RESOURCE,
    EXCLUSIVE,
    SHARED,
    LockManager,
)
from repro.sql import ast_nodes as A
from repro.sql.parser import parse_statement
from repro.sql.sources import statement_sources


@dataclass
class SessionConfig:
    """Tunables for a :class:`SessionManager` (defaults documented in
    INTERNALS §"Sessions & concurrency control")."""

    #: admission control: connect() beyond this raises retryable BusyError
    max_sessions: int = 8
    #: seconds a lock wait may block before LockTimeoutError
    lock_timeout: float = 5.0
    #: per-statement row budget (None = unlimited); see Database._RowBudget
    statement_max_rows: Optional[int] = None
    #: automatic retries of a retryable *autocommit* statement
    max_retries: int = 4
    #: exponential backoff: base * 2^(attempt-1), capped, jittered 50-100%
    backoff_base: float = 0.005
    backoff_cap: float = 0.25
    #: seed for the backoff jitter (tests pin it for determinism)
    retry_seed: Optional[int] = None


class Session:
    """One connection's transaction state plus the retry wrapper."""

    def __init__(
        self,
        manager: "SessionManager",
        session_id: int,
        user: str,
        txn: Any,
    ) -> None:
        self.manager = manager
        self.id = session_id
        self.user = user
        #: this session's TransactionManager (created by
        #: Database.new_txn_manager, WAL + degradation hook pre-wired)
        self.txn = txn
        #: what every statement of this session runs under
        self.ctx = ExecContext(
            txn, user, session_id, manager.config.statement_max_rows
        )
        self.closed = False
        self.stats: Dict[str, int] = {
            "statements": 0, "retries": 0, "aborts": 0
        }
        seed = manager.config.retry_seed
        self._rng = random.Random(
            None if seed is None else seed * 1_000_003 + session_id
        )
        #: injectable for tests (deterministic chaos never really sleeps)
        self._sleep = time.sleep

    @property
    def in_txn(self) -> bool:
        return self.txn.active

    def execute(self, sql: str) -> Any:
        """Execute *sql*, transparently retrying retryable autocommit
        failures with jittered exponential backoff."""
        attempt = 0
        while True:
            was_in_txn = self.txn.active
            try:
                return self.manager.execute(self, sql)
            except WowError as exc:
                if not getattr(exc, "retryable", False):
                    raise
                if was_in_txn:
                    # The whole transaction was aborted; replaying just
                    # this statement would silently drop the earlier ones.
                    raise
                if attempt >= self.manager.config.max_retries:
                    raise
                attempt += 1
                self.stats["retries"] += 1
                self.manager.stats["retries"] += 1
                self._sleep(self._backoff(attempt))

    def query(self, sql: str) -> List[Any]:
        return self.execute(sql).rows

    def _backoff(self, attempt: int) -> float:
        config = self.manager.config
        span = min(
            config.backoff_cap, config.backoff_base * (2 ** (attempt - 1))
        )
        return span * (0.5 + 0.5 * self._rng.random())

    def close(self) -> None:
        self.manager.close_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SessionManager:
    """Owns the sessions, the lock manager, and the statement pipeline."""

    def __init__(
        self, db: Any, config: Optional[SessionConfig] = None
    ) -> None:
        self.db = db
        self.config = config or SessionConfig()
        self.locks = dynlock.maybe_checked_lock_manager(LockManager())
        #: guards _sessions / _next_id / the lockset cache
        self._mutex = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1
        #: (normalized sql, catalog generation) -> lockset; DDL bumps the
        #: generation so stale entries are never consulted
        self._lockset_cache: Dict[Tuple[str, int], Tuple[Tuple[str, str], ...]] = {}
        self.stats: Dict[str, int] = {
            "connects": 0,
            "disconnects": 0,
            "busy_rejections": 0,
            "statements": 0,
            "retries": 0,
            "aborts": 0,
            "statement_timeouts": 0,
        }
        db.session_manager = self

    # -- lifecycle ---------------------------------------------------------

    def connect(self, user: str = "dba") -> Session:
        """Admit a new session, or refuse with a retryable BusyError."""
        with self._mutex:
            if len(self._sessions) >= self.config.max_sessions:
                self.stats["busy_rejections"] += 1
                raise BusyError(
                    f"server at capacity "
                    f"({self.config.max_sessions} sessions); retry later"
                )
            session_id = self._next_id
            self._next_id += 1
        with self.db._latch:
            txn = self.db.new_txn_manager()
        session = Session(self, session_id, user.lower(), txn)
        with self._mutex:
            self._sessions[session_id] = session
            self.stats["connects"] += 1
        return session

    def close_session(self, session: Session) -> None:
        """Roll back open work, release locks, retire the txn manager."""
        if session.closed:
            return
        session.closed = True
        try:
            if session.txn.active:
                self._abort(session)
        finally:
            self.locks.release_all(session.id)
            with self.db._latch:
                self.db.retire_txn_manager(session.txn)
            with self._mutex:
                self._sessions.pop(session.id, None)
                self.stats["disconnects"] += 1

    def close(self) -> None:
        """Close every live session (server shutdown path)."""
        with self._mutex:
            sessions = list(self._sessions.values())
        for session in sessions:
            self.close_session(session)

    # -- the statement pipeline --------------------------------------------

    def execute(self, session: Session, sql: str) -> Any:
        """Lockset → acquire (2PL) → run under the engine latch."""
        if session.closed:
            raise SessionError(f"session {session.id} is closed")
        self.stats["statements"] += 1
        session.stats["statements"] += 1
        # A DDL between lockset computation and execution may change what
        # the statement must lock.  When the generation moved, the lockset
        # is re-derived under the latch (reentrant; the catalog cannot
        # change while it is held) and the statement runs if the locks it
        # holds are still the ones it needs — a storm of unrelated DDL must
        # not starve it.  Only a lockset that really differs loops.
        for _attempt in range(10):
            lockset, generation = self._lockset(sql)
            self._acquire_locks(session, lockset)
            with self.db._latch:
                try:
                    if (
                        self.db.catalog.generation == generation
                        or self._lockset(sql)[0] == lockset
                    ):
                        return self._run_statement(session, sql)
                finally:
                    if not session.txn.active:
                        # 2PL release point: the statement autocommitted,
                        # COMMITted, or ROLLBACKed (or was aborted) — or it
                        # holds the wrong locks and starts over.
                        self.locks.release_all(session.id)
        raise SessionError(
            "statement lockset would not stabilise (concurrent DDL storm)"
        )

    def _acquire_locks(
        self, session: Session, lockset: Tuple[Tuple[str, str], ...]
    ) -> None:
        try:
            self.locks.begin_lockset(session.id)
            for resource, mode in lockset:
                self.locks.acquire(
                    session.id, resource, mode, self.config.lock_timeout
                )
        except (SerializationError, LockTimeoutError):
            # The transaction dies wholesale: roll it back and release its
            # locks so the survivors can proceed; the error stays
            # retryable because nothing of it remains.
            self._abort(session)
            raise

    def _run_statement(self, session: Session, sql: str) -> Any:
        try:
            return self.db.execute(sql, session.ctx)
        except StatementTimeoutError:
            self.stats["statement_timeouts"] += 1
            raise

    def _abort(self, session: Session) -> None:
        """Roll back the session's transaction and release its locks."""
        self.stats["aborts"] += 1
        session.stats["aborts"] += 1
        with self.db._latch:
            if session.txn.active:
                session.txn.rollback()
        self.locks.release_all(session.id)

    # -- lockset derivation ------------------------------------------------

    def _lockset(
        self, sql: str
    ) -> Tuple[Tuple[Tuple[str, str], ...], int]:
        """The (resource, mode) pairs *sql* must lock, plus the catalog
        generation the computation is valid for.

        Runs briefly under the engine latch: view resolution must read a
        consistent catalog, and the latch is never held across a lock
        wait, so this cannot deadlock.  Cached per (sql, generation).
        """
        normalized = " ".join(sql.split())
        with self.db._latch:
            generation = self.db.catalog.generation
            key = (normalized, generation)
            with self._mutex:
                cached = self._lockset_cache.get(key)
            if cached is not None:
                return cached, generation
            statement = parse_statement(sql)
            lockset = self._statement_locks(statement)
            with self._mutex:
                if len(self._lockset_cache) > 512:
                    self._lockset_cache.clear()
                self._lockset_cache[key] = lockset
            return lockset, generation

    def _statement_locks(
        self, statement: A.Statement
    ) -> Tuple[Tuple[str, str], ...]:
        """Table locks for one statement (sorted — deterministic order
        prevents lock-order deadlocks *within* a statement; across
        statements of a transaction, detection takes over)."""
        wanted: Dict[str, str] = {}

        def want(name: str, mode: str) -> None:
            name = name.lower()
            if name in SYSTEM_TABLE_NAMES:
                return  # rebuilt snapshots; never lockable resources
            if self.db.catalog.has_view(name):
                # Lock the base tables a view reads/writes, recursively.
                for base in statement_sources(self.db.catalog.view(name).query):
                    want(base, mode)
                return
            if wanted.get(name) != EXCLUSIVE:
                wanted[name] = mode

        def want_sources(read: A.Statement) -> None:
            for name in statement_sources(read):
                want(name, SHARED)

        if isinstance(
            statement,
            (A.Begin, A.Commit, A.Rollback, A.Savepoint, A.RollbackTo,
             A.ReleaseSavepoint),
        ):
            return ()  # pure transaction control: no resources touched
        if isinstance(statement, (A.Select, A.Union)):
            want_sources(statement)
        elif isinstance(statement, A.Explain):
            if statement.analyze:
                want_sources(statement.query)
        elif isinstance(statement, (A.Insert, A.Update, A.Delete)):
            want(statement.table, EXCLUSIVE)
            want_sources(statement)  # subqueries in VALUES, SET and WHERE
        else:
            # DDL / ANALYZE / GRANT / anything else schema-shaped: the
            # exclusive catalog lock serialises it against every open
            # transaction, plus X on the named object's table when known.
            target = (
                getattr(statement, "table", None)
                or getattr(statement, "name", None)
            )
            if isinstance(target, str):
                want(target, EXCLUSIVE)
            wanted[CATALOG_RESOURCE] = EXCLUSIVE
        if CATALOG_RESOURCE not in wanted:
            # Everyone else shares the catalog so DDL cannot shift the
            # schema underneath an open statement or transaction.
            wanted[CATALOG_RESOURCE] = SHARED
        # Catalog pseudo-lock strictly first, then tables ascending.  A
        # plain sorted() almost gives this for free ("__catalog__" sorts
        # before every letter), but a user table like "__a" would slip in
        # front of it — and DDL holding X on the catalog while a reader
        # acquires its tables catalog-last is exactly the inversion the
        # ordering exists to prevent.
        return tuple(sorted(
            wanted.items(), key=lambda kv: (kv[0] != CATALOG_RESOURCE, kv[0])
        ))

    # -- telemetry ---------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The ``metrics_snapshot()["sessions"]`` section."""
        with self._mutex:
            active = len(self._sessions)
            in_txn = sum(
                1 for s in self._sessions.values() if s.txn.active
            )
        return {
            "enabled": 1,
            "active": active,
            "in_txn": in_txn,
            "max_sessions": self.config.max_sessions,
            **self.stats,
            **{f"lock_{k}": v for k, v in self.locks.stats.items()},
        }

    def session_rows(self) -> List[Dict[str, Any]]:
        """One row per live session, for the ``_sessions`` system table."""
        with self._mutex:
            sessions = sorted(self._sessions.values(), key=lambda s: s.id)
        rows = []
        for session in sessions:
            rows.append(
                {
                    "id": session.id,
                    "user": session.user,
                    "in_txn": 1 if session.txn.active else 0,
                    "undo_entries": session.txn.mark(),
                    "locks": ",".join(
                        f"{resource}:{mode}"
                        for resource, mode in self.locks.held(session.id)
                    ),
                    "statements": session.stats["statements"],
                    "retries": session.stats["retries"],
                    "aborts": session.stats["aborts"],
                }
            )
        return rows
