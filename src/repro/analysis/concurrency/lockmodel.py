"""The lock model: every synchronization object the engine owns, by name.

The static and dynamic checkers share one closed inventory of locks.  Each
:class:`LockSpec` names an abstract lock (the *key* the order graph and
the violation messages use), the attribute that holds it in the source
(``_latch``, ``_cond``, ...), and the file the attribute lives in — three
different ``self._lock`` attributes in three modules are three different
locks, and the ``where`` scope keeps them apart.

Two *pseudo-resources* extend the inventory past thread mutexes:
``table_locks`` (the 2PL table-lock namespace — blocking on a grant in
:meth:`LockManager.acquire` is a wait on this resource) and
``catalog_resource`` (the ``__catalog__`` pseudo-lock DDL serialises on).
They have no mutex object; they exist so the order graph can express the
PR 8 discipline rules ("never wait on a table lock under the latch",
"catalog before any table lock") as edges and absences of edges.

Adding a lock: add a LockSpec here.  The call-graph walker, the held-set
propagation, the CLI report, and the dynamic shim all pick it up; a
``with <something lockish>:`` in a modeled package whose expression is
*not* in this inventory is reported by the CLI as an unmodeled lock so
the model cannot silently rot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.rules import dotted_name

#: abstract names for the two pseudo-resources (not thread mutexes)
TABLE_LOCKS = "table_locks"
CATALOG_RESOURCE_LOCK = "catalog_resource"

#: the literal resource string session/locks.py uses for the catalog
CATALOG_RESOURCE_VALUE = "__catalog__"


@dataclass(frozen=True)
class LockSpec:
    """One synchronization object in the tree."""

    key: str  #: abstract name used in the order graph and diagnostics
    attr: str  #: attribute that holds the lock object (``_latch``, ...)
    where: Optional[str]  #: relpath substring that owns it (None = anywhere)
    kind: str  #: "rlock" | "lock" | "condition" | "resource"
    description: str


#: the closed inventory, most-specific ``where`` first
LOCK_SPECS: Tuple[LockSpec, ...] = (
    LockSpec(
        "engine_latch", "_latch", None, "rlock",
        "Database._latch — serialises each statement's engine work; "
        "must never be held across a table-lock wait or condition wait",
    ),
    LockSpec(
        "lock_table", "_cond", "session/locks.py", "condition",
        "LockManager._cond — guards the 2PL lock table; its wait() is "
        "the blocking point for every table-lock grant",
    ),
    LockSpec(
        "session_registry", "_mutex", "session/manager.py", "lock",
        "SessionManager._mutex — guards the session map and lockset cache",
    ),
    LockSpec(
        "plan_cache", "_lock", "relational/plancache.py", "rlock",
        "PlanCache._lock — guards the plan/statement cache LRU",
    ),
    LockSpec(
        "statement_log", "_lock", "obs/statlog.py", "lock",
        "StatementLog._lock — guards the statement ring and plan stats",
    ),
    LockSpec(
        "metrics_registry", "_lock", "obs/registry.py", "lock",
        "Registry._lock — guards counters/histograms",
    ),
    LockSpec(
        "detector_state", "_mutex", "analysis/concurrency/dynlock.py", "lock",
        "LockCheckState._mutex — guards the dynamic detector's observed "
        "edge graph (the analyzer models itself)",
    ),
    LockSpec(
        "analysis_cache", "_cache_lock", "analysis/concurrency/report.py",
        "lock",
        "report._cache_lock — guards the memoised static analysis report",
    ),
    LockSpec(
        TABLE_LOCKS, "<resource>", "session/locks.py", "resource",
        "2PL table locks (S/X per table, held to transaction end); "
        "blocking on a grant happens inside LockManager.acquire",
    ),
    LockSpec(
        CATALOG_RESOURCE_LOCK, "<resource>", "session/locks.py", "resource",
        "the __catalog__ pseudo-resource — S by data statements, X by "
        "DDL; must be acquired before any table lock in a lockset",
    ),
)

#: key -> spec, for report rendering
SPECS_BY_KEY: Dict[str, LockSpec] = {spec.key: spec for spec in LOCK_SPECS}

#: mutex-kind locks (the ones a thread can lexically hold via ``with``)
MUTEX_KEYS: Tuple[str, ...] = tuple(
    spec.key for spec in LOCK_SPECS if spec.kind != "resource"
)

#: attribute-name hints marking an expression as "lockish" even when it is
#: not in the model (kept in sync with wowlint WOW007's heuristic)
LOCKISH_HINTS = ("lock", "latch", "mutex", "cond")

#: attribute types the call-graph resolver cannot infer from assignments
#: (constructor params stored as-is, late-bound attributes) — the known
#: dispatch points of the Database/Session layers live here too
KNOWN_ATTR_TYPES: Dict[Tuple[str, str], str] = {
    ("SessionManager", "db"): "Database",
    ("SessionManager", "locks"): "LockManager",
    ("Session", "manager"): "SessionManager",
    ("Session", "txn"): "TransactionManager",
    ("Database", "session_manager"): "SessionManager",
    ("Database", "wal"): "WriteAheadLog",
    ("Database", "plan_cache"): "PlanCache",
    ("Database", "statement_log"): "StatementLog",
    ("Database", "obs"): "Registry",
    ("Database", "catalog"): "Catalog",
    ("Database", "txn"): "TransactionManager",
    ("Database", "_ctx"): "ExecContext",
    ("Database", "planner"): "Planner",
    ("ExecContext", "txn"): "TransactionManager",
    ("TransactionManager", "_wal"): "WriteAheadLog",
    ("SessionServer", "manager"): "SessionManager",
}

#: call edges the AST cannot see: (caller relpath, caller scope) ->
#: (callee relpath, callee scope).  Catalog.table() invokes the telemetry
#: builders registered by obs/systables.py through _system_sources — a
#: first-class dispatch point: those builders take SessionManager._mutex
#: and the statlog/registry locks *under the engine latch*.
DISPATCH_EDGES: Tuple[Tuple[str, str, str, str], ...] = (
    ("src/repro/relational/catalog.py", "Catalog.table",
     "src/repro/obs/systables.py", "build_statements"),
    ("src/repro/relational/catalog.py", "Catalog.table",
     "src/repro/obs/systables.py", "build_slow_ops"),
    ("src/repro/relational/catalog.py", "Catalog.table",
     "src/repro/obs/systables.py", "build_metrics"),
    ("src/repro/relational/catalog.py", "Catalog.table",
     "src/repro/obs/systables.py", "build_plan_stats"),
    ("src/repro/relational/catalog.py", "Catalog.table",
     "src/repro/obs/systables.py", "build_table_stats"),
    ("src/repro/relational/catalog.py", "Catalog.table",
     "src/repro/obs/systables.py", "build_sessions"),
    ("src/repro/relational/catalog.py", "Catalog.table",
     "src/repro/obs/systables.py", "build_storage"),
)

#: packages whose module-level/instance shared state WOW010 inspects
#: (the WOW007 inventory, extended per ISSUE 10 to obs/ and the plan cache)
SHARED_STATE_SCOPES = ("session/", "relational/", "obs/")


def identify_lock(expr: ast.AST, relpath: str) -> Optional[str]:
    """The abstract lock key a ``with`` context / receiver expression
    names, or None when it is not in the model."""
    name = dotted_name(expr)
    if name is None and isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
    if name is None:
        return None
    leaf = name.rsplit(".", 1)[-1]
    for spec in LOCK_SPECS:
        if spec.kind == "resource":
            continue
        if leaf != spec.attr:
            continue
        if spec.where is None or spec.where in relpath:
            return spec.key
    return None


def is_lockish(expr: ast.AST) -> bool:
    """Heuristic: does this expression *look* like a lock acquisition
    (used to spot locks missing from the model)?"""
    name = dotted_name(expr)
    if name is None and isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
    if name is None and isinstance(expr, ast.Subscript):
        name = dotted_name(expr.value)
    return name is not None and any(
        hint in name.lower() for hint in LOCKISH_HINTS
    )
