"""EXPLAIN ANALYZE support: per-operator runtime counters.

:func:`instrument` walks an operator tree and wraps each node's
``rows_batched()`` with a counting/timing generator (instance-attribute
assignment — operator classes have no ``__slots__``; ``Operator.rows()``
flattens ``rows_batched()``, so it is counted too).  The wrappers only
exist on trees that are being ANALYZEd, so the normal execution path pays
nothing.

Timings are *inclusive*: an operator's elapsed time includes its children,
matching PostgreSQL's EXPLAIN ANALYZE convention.  ``loops`` counts how
many times ``rows_batched()`` was restarted (e.g. a re-executed view),
and ``batches`` counts emitted batches.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.relational.algebra import DEFAULT_BATCH_SIZE, Operator


class OpStats:
    """Runtime counters for one operator node.

    ``est_rows`` is the planner's cardinality estimate, copied off the
    operator at instrumentation time so estimated-vs-actual comparisons
    (EXPLAIN ANALYZE, the statement log's ``_plan_stats`` feedback) read
    from one place.
    """

    __slots__ = ("rows_out", "elapsed", "loops", "batches", "est_rows")

    def __init__(self, est_rows: Optional[float] = None) -> None:
        self.rows_out = 0
        self.elapsed = 0.0  # seconds, inclusive of children
        self.loops = 0
        self.batches = 0
        self.est_rows = est_rows

    @property
    def misestimate(self) -> Optional[float]:
        """``max(est/act, act/est)`` with both sides floored at one row."""
        from repro.obs.statlog import misestimate_factor

        return misestimate_factor(self.est_rows, self.rows_out)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "rows": self.rows_out,
            "loops": self.loops,
            "batches": self.batches,
            "time_ms": self.elapsed * 1000.0,
        }
        if self.est_rows is not None:
            out["est_rows"] = self.est_rows
            out["misestimate"] = self.misestimate
        return out


def instrument(root: Operator) -> Dict[int, OpStats]:
    """Attach counting wrappers to every node of *root*'s tree.

    Returns ``{id(op): OpStats}``; stats fill in as the tree is consumed.
    """
    stats: Dict[int, OpStats] = {}

    def wrap(op: Operator) -> None:
        op_stats = stats[id(op)] = OpStats(
            est_rows=None if op.est_rows is None else float(op.est_rows)
        )
        original_batched = op.rows_batched

        def counted_batches(
            batch_size: int = DEFAULT_BATCH_SIZE,
        ) -> Iterator[List[Tuple[Any, ...]]]:
            op_stats.loops += 1
            start = time.perf_counter()
            try:
                for batch in original_batched(batch_size):
                    op_stats.elapsed += time.perf_counter() - start
                    op_stats.batches += 1
                    op_stats.rows_out += len(batch)
                    yield batch
                    start = time.perf_counter()
            finally:
                op_stats.elapsed += time.perf_counter() - start

        op.rows_batched = counted_batches  # type: ignore[method-assign]
        for child in op.children():
            wrap(child)

    wrap(root)
    return stats


def render_analyze(
    root: Operator,
    stats: Dict[int, OpStats],
    planning_ms: float,
    execution_ms: float,
    plan_cache: Optional[Dict[str, int]] = None,
    verified: Optional[int] = None,
    replans: Optional[int] = None,
) -> str:
    """The annotated plan text returned by EXPLAIN ANALYZE.

    *plan_cache*, when given, is the database's statement-cache counter
    snapshot; EXPLAIN ANALYZE itself always plans fresh (instrumentation
    wraps the plan's ``rows_batched`` methods, which must never leak into a cached
    tree), so the line reports the cache's lifetime counters, not a hit for
    this statement.  Each operator line that emitted batches carries
    ``batches=`` and, where expressions were lowered, ``compiled=yes/no``.
    *verified*, when given, is the operator count the static plan verifier
    checked (see :mod:`repro.analysis.planverify`).
    """
    lines: List[str] = []

    def walk(op: Operator, depth: int) -> None:
        text = op.label()
        op_stats = stats.get(id(op))
        if op.est_rows is not None and op_stats is None:
            text += f"  [~{op.est_rows:.0f} rows]"
        if op_stats is not None:
            if op_stats.est_rows is not None:
                # The estimated-vs-actual line: the feedback signal the
                # adaptive optimizer reads.  "x1.0 off" is a perfect guess.
                text += (
                    f"  [est=~{op_stats.est_rows:.0f} act={op_stats.rows_out}"
                    f" (x{op_stats.misestimate:.1f} off)"
                    f" loops={op_stats.loops}"
                )
            else:
                text += f"  [rows={op_stats.rows_out} loops={op_stats.loops}"
            if op_stats.batches:
                text += f" batches={op_stats.batches}"
            compiled = op.compiled_status()
            if compiled is not None:
                text += f" compiled={compiled}"
            text += f" time={op_stats.elapsed * 1000.0:.3f} ms]"
        lines.append("  " * depth + text)
        for child in op.children():
            walk(child, depth + 1)

    walk(root, 0)
    lines.append(f"Planning Time: {planning_ms:.3f} ms")
    if verified is not None:
        lines.append(f"Plan verified: {verified} operators ok")
    if plan_cache is not None:
        lines.append(
            "Plan Cache: hits={hits} misses={misses} "
            "invalidations={invalidations}".format(**plan_cache)
        )
    if replans is not None:
        lines.append(f"Adaptive: replans={replans}")
    lines.append(f"Execution Time: {execution_ms:.3f} ms")
    return "\n".join(lines)


def stats_tree(root: Operator, stats: Dict[int, OpStats]) -> Dict[str, Any]:
    """The same information as a JSON-serialisable nested dict."""
    node: Dict[str, Any] = {"op": op_label(root)}
    op_stats = stats.get(id(root))
    if op_stats is not None:
        node.update(op_stats.to_dict())
        compiled = root.compiled_status()
        if compiled is not None:
            node["compiled"] = compiled
    children = [stats_tree(child, stats) for child in root.children()]
    if children:
        node["children"] = children
    return node


def operator_rows(
    root: Operator, stats: Dict[int, OpStats]
) -> List[Dict[str, Any]]:
    """Flat preorder per-operator est/act list, for the statement log.

    ``i`` is the preorder position — stable for a given plan shape, so
    records with the same plan fingerprint aggregate per position in
    ``_plan_stats``.
    """
    out: List[Dict[str, Any]] = []

    def walk(op: Operator) -> None:
        op_stats = stats.get(id(op))
        out.append(
            {
                "i": len(out),
                "op": op.label(),
                "est": None if op_stats is None else op_stats.est_rows,
                "act": 0 if op_stats is None else op_stats.rows_out,
            }
        )
        for child in op.children():
            walk(child)

    walk(root)
    return out


def op_label(op: Operator) -> str:
    return op.label()
