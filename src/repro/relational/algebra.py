"""Physical relational operators (the executor's iterator tree).

Every operator exposes:

* ``layout`` — the :class:`~repro.relational.expr.RowLayout` of its output;
* ``rows_batched(batch_size)`` — an iterator of row *lists*, the one
  execution protocol;
* ``rows()`` — the same rows one tuple at a time, a flatten of
  ``rows_batched()`` defined once on :class:`Operator`;
* ``explain()`` — a nested textual plan, one line per operator.

Predicates and projections arrive *bound* (column references resolved to
positions in the child's layout); the planner is responsible for binding.
All operators are restartable: ``rows_batched()`` may be called
repeatedly.

**Batch execution.**  Operators pull batches from their children and
evaluate expressions through :mod:`~repro.relational.exprcompile`
closures, so the per-row Python overhead (generator resumption, ``eval``
tree walks, per-record decode) is paid once per batch instead of once per
row.  Batch *sizes* are a hint: operators may emit shorter or slightly
longer lists (a scan flushes whole pages), and empty batches are
suppressed.  ``tests/test_differential_sqlite.py`` checks the rows
against sqlite at batch sizes from 1 to 1024.

Compiled expression closures are cached on the operator instances, so
plans held by the plan cache or a prepared statement compile once and
re-execute the compiled form.  ``compiled_status()`` reports ``"yes"``/
``"no"`` (or None for operators with nothing to compile) for EXPLAIN
ANALYZE.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, PlanError
from repro.relational import exprcompile
from repro.relational.expr import Expr, RowLayout
from repro.relational.indexes import BTreeIndex, Index
from repro.relational.table import Table
from repro.relational.types import ColumnType, sort_key

Row = Tuple[Any, ...]

#: default number of rows per batch (X100-style: big enough to amortise
#: per-batch overhead, small enough to stay cache- and memory-friendly)
DEFAULT_BATCH_SIZE = 1024

#: process-wide batch-executor counters (reported by ``metrics_snapshot()``)
EXEC_METRICS: Dict[str, int] = {"batches": 0, "batch_rows": 0}


class Operator:
    """Base class for plan nodes."""

    layout: RowLayout
    #: optional cardinality estimate, set by the planner when ANALYZE
    #: statistics are available; shown by EXPLAIN
    est_rows: Optional[float] = None
    #: optional cost-model estimate (optimizer-v2 cost units), set on
    #: operators that went through cost-based selection; shown by EXPLAIN
    est_cost: Optional[float] = None

    def rows(self) -> Iterator[Row]:
        """The output one tuple at a time."""
        return chain.from_iterable(self.rows_batched())

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        raise NotImplementedError

    def compiled_status(self) -> Optional[str]:
        """``"yes"``/``"no"`` once expression compilation was attempted;
        None for operators that evaluate no expressions."""
        return None

    def children(self) -> Tuple["Operator", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def explain(self, depth: int = 0) -> str:
        text = self.label()
        if self.est_rows is not None and self.est_cost is not None:
            text += f"  [~{self.est_rows:.0f} rows, cost={self.est_cost:.2f}]"
        elif self.est_rows is not None:
            text += f"  [~{self.est_rows:.0f} rows]"
        lines = ["  " * depth + text]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class SeqScan(Operator):
    """Full scan of a base table under an alias."""

    def __init__(self, table: Table, alias: Optional[str] = None) -> None:
        self.table = table
        self.alias = (alias or table.name).lower()
        self.layout = RowLayout.for_table(self.alias, table.schema)

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        # Always offer the segment store; a table sized to
        # ``segment_cache_rows=0`` takes the plain page-at-a-time branch.
        return self.table.rows_batched(batch_size, use_segments=True)

    def label(self) -> str:
        return f"SeqScan({self.table.name} AS {self.alias})"


class IndexEqScan(Operator):
    """Point lookup: rows whose index key equals *key*."""

    def __init__(self, table: Table, index: Index, key: Tuple[Any, ...], alias: Optional[str] = None) -> None:
        self.table = table
        self.index = index
        self.key = key
        self.alias = (alias or table.name).lower()
        self.layout = RowLayout.for_table(self.alias, table.schema)

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        rids = list(self.index.lookup(self.key))
        for start in range(0, len(rids), batch_size):
            yield self.table.read_many(rids[start : start + batch_size])

    def label(self) -> str:
        return f"IndexEqScan({self.table.name}.{self.index.name} = {self.key!r})"


class IndexRangeScan(Operator):
    """Ordered scan of a B+-tree index between two single-column bounds."""

    def __init__(
        self,
        table: Table,
        index: BTreeIndex,
        low: Optional[Tuple[Any, ...]],
        high: Optional[Tuple[Any, ...]],
        include_low: bool = True,
        include_high: bool = True,
        alias: Optional[str] = None,
    ) -> None:
        if not index.ordered:
            raise PlanError(f"index {index.name!r} does not support range scans")
        self.table = table
        self.index = index
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.alias = (alias or table.name).lower()
        self.layout = RowLayout.for_table(self.alias, table.schema)

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        read_many = self.table.read_many
        rids: List[Any] = []
        for key, rid in self.index.range_scan(
            self.low, self.high, self.include_low, self.include_high
        ):
            if key[0] is None:
                # NULL keys sort first, so an open low end reaches them;
                # no range predicate matches NULL.
                continue
            rids.append(rid)
            if len(rids) >= batch_size:
                # Range batches tend to land on page runs; warm them with
                # batched reads instead of one point read per rid.
                yield read_many(rids, prefetch=True)
                rids = []
        if rids:
            yield read_many(rids, prefetch=True)

    def label(self) -> str:
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return f"IndexRangeScan({self.table.name}.{self.index.name} in [{low}, {high}])"


class RowSource(Operator):
    """Materialised rows with an explicit layout (views, VALUES, tests)."""

    def __init__(self, layout: RowLayout, rows: Sequence[Row], name: str = "rows") -> None:
        self.layout = layout
        self._rows = list(rows)
        self._name = name

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        rows = self._rows
        for start in range(0, len(rows), batch_size):
            yield rows[start : start + batch_size]

    def label(self) -> str:
        return f"RowSource({self._name}, {len(self._rows)} rows)"


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class Rename(Operator):
    """Re-qualify a child's output columns under a new alias.

    Used when a view appears in FROM: the view's plan produces unqualified
    output columns; Rename exposes them as ``alias.column``.  Optionally
    renames the columns themselves (CREATE VIEW v (a, b) AS ...).
    """

    def __init__(
        self,
        child: Operator,
        alias: str,
        column_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.child = child
        self.alias = alias.lower()
        old = child.layout.slots
        if column_names is not None:
            if len(column_names) != len(old):
                raise PlanError(
                    f"rename expects {len(old)} column names, got {len(column_names)}"
                )
            names = [n.lower() for n in column_names]
        else:
            names = [name for _q, name, _t in old]
        self.layout = RowLayout(
            [(self.alias, name, ctype) for name, (_q, _n, ctype) in zip(names, old)]
        )

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        return self.child.rows_batched(batch_size)

    def label(self) -> str:
        return f"Rename({self.alias})"


class Filter(Operator):
    """Keep rows for which the bound predicate evaluates to True."""

    def __init__(self, child: Operator, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.layout = child.layout
        self._compiled: Optional[Tuple[Callable[[Row], Any], bool]] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def _predicate_fn(self) -> Callable[[Row], Any]:
        if self._compiled is None:
            self._compiled = exprcompile.compile_expr(self.predicate)
        return self._compiled[0]

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        predicate = self._predicate_fn()
        for batch in self.child.rows_batched(batch_size):
            kept = [row for row in batch if predicate(row) is True]
            if kept:
                yield kept

    def compiled_status(self) -> Optional[str]:
        self._predicate_fn()
        return "yes" if self._compiled[1] else "no"

    def label(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


class Project(Operator):
    """Compute output columns from bound expressions."""

    def __init__(
        self,
        child: Operator,
        exprs: Sequence[Expr],
        names: Sequence[str],
        types: Sequence[ColumnType],
    ) -> None:
        if not (len(exprs) == len(names) == len(types)):
            raise PlanError("projection lists must have equal lengths")
        self.child = child
        self.exprs = tuple(exprs)
        self.names = tuple(n.lower() for n in names)
        self.layout = RowLayout([(None, n, t) for n, t in zip(self.names, types)])
        self._compiled: Optional[Tuple[Callable[[Row], Row], bool]] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def _row_fn(self) -> Callable[[Row], Row]:
        if self._compiled is None:
            self._compiled = exprcompile.compile_row_fn(self.exprs)
        return self._compiled[0]

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        project = self._row_fn()
        for batch in self.child.rows_batched(batch_size):
            yield [project(row) for row in batch]

    def compiled_status(self) -> Optional[str]:
        self._row_fn()
        return "yes" if self._compiled[1] else "no"

    def label(self) -> str:
        return "Project(" + ", ".join(self.names) + ")"


class Sort(Operator):
    """Full in-memory sort; NULLs first within each key (engine convention)."""

    def __init__(self, child: Operator, keys: Sequence[Tuple[Expr, bool]]) -> None:
        """*keys* is a list of (bound expression, ascending?) pairs."""
        self.child = child
        self.keys = tuple(keys)
        self.layout = child.layout
        self._compiled: Optional[List[Tuple[Callable[[Row], Any], bool]]] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def _key_fns(self) -> List[Tuple[Callable[[Row], Any], bool]]:
        if self._compiled is None:
            self._compiled = [
                exprcompile.compile_expr(expr) for expr, _asc in self.keys
            ]
        return self._compiled

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        materialised: List[Row] = []
        for batch in self.child.rows_batched(batch_size):
            materialised.extend(batch)
        key_fns = self._key_fns()
        for (key_fn, _), (_expr, ascending) in zip(reversed(key_fns), reversed(self.keys)):
            materialised.sort(
                key=lambda row: sort_key(key_fn(row)), reverse=not ascending
            )
        for start in range(0, len(materialised), batch_size):
            yield materialised[start : start + batch_size]

    def compiled_status(self) -> Optional[str]:
        return "yes" if all(ok for _fn, ok in self._key_fns()) else "no"

    def label(self) -> str:
        parts = ", ".join(
            f"{e.to_sql()} {'ASC' if asc else 'DESC'}" for e, asc in self.keys
        )
        return f"Sort({parts})"


class Limit(Operator):
    """LIMIT n OFFSET m."""

    def __init__(self, child: Operator, limit: Optional[int], offset: int = 0) -> None:
        if (limit is not None and limit < 0) or offset < 0:
            raise PlanError("LIMIT/OFFSET must be non-negative")
        self.child = child
        self.limit = limit
        self.offset = offset
        self.layout = child.layout

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        to_skip = self.offset
        remaining = self.limit  # None = unbounded
        for batch in self.child.rows_batched(batch_size):
            if to_skip:
                if to_skip >= len(batch):
                    to_skip -= len(batch)
                    continue
                batch = batch[to_skip:]
                to_skip = 0
            if remaining is not None:
                if len(batch) > remaining:
                    batch = batch[:remaining]
                remaining -= len(batch)
            if batch:
                yield batch
            if remaining == 0:
                return

    def label(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


class Distinct(Operator):
    """Remove duplicate rows (hash-based; NULLs compare equal for DISTINCT)."""

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.layout = child.layout

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        seen: set = set()
        add = seen.add
        for batch in self.child.rows_batched(batch_size):
            fresh = []
            for row in batch:
                if row not in seen:
                    add(row)
                    fresh.append(row)
            if fresh:
                yield fresh


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class NestedLoopJoin(Operator):
    """Join on an arbitrary bound predicate (or none: a cross product).

    The inner input is materialised once.  ``left_outer=True`` emits
    NULL-padded rows for unmatched outer tuples.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        predicate: Optional[Expr] = None,
        left_outer: bool = False,
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.predicate = predicate
        self.left_outer = left_outer
        self.layout = outer.layout + inner.layout
        self._compiled: Optional[Tuple[Callable[[Row], Any], bool]] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.outer, self.inner)

    def _predicate_fn(self) -> Optional[Callable[[Row], Any]]:
        if self.predicate is None:
            return None
        if self._compiled is None:
            self._compiled = exprcompile.compile_expr(self.predicate)
        return self._compiled[0]

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        inner_rows = [row for batch in self.inner.rows_batched(batch_size) for row in batch]
        pad = (None,) * len(self.inner.layout)
        predicate = self._predicate_fn()
        left_outer = self.left_outer
        out: List[Row] = []
        append = out.append
        for batch in self.outer.rows_batched(batch_size):
            for outer_row in batch:
                matched = False
                for inner_row in inner_rows:
                    combined = outer_row + inner_row
                    if predicate is None or predicate(combined) is True:
                        matched = True
                        append(combined)
                if left_outer and not matched:
                    append(outer_row + pad)
                # Flush per outer row: one row's fan-out is the whole inner.
                if len(out) >= batch_size:
                    yield out
                    out = []
                    append = out.append
        if out:
            yield out

    def compiled_status(self) -> Optional[str]:
        if self.predicate is None:
            return None
        self._predicate_fn()
        return "yes" if self._compiled[1] else "no"

    def label(self) -> str:
        kind = "LeftOuterNLJoin" if self.left_outer else "NestedLoopJoin"
        cond = self.predicate.to_sql() if self.predicate else "TRUE"
        return f"{kind}({cond})"


class HashJoin(Operator):
    """Equi-join: build a hash table on the inner keys, probe with the outer.

    NULL keys never match (SQL semantics).  ``left_outer=True`` pads
    unmatched outer rows.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        outer_key_positions: Sequence[int],
        inner_key_positions: Sequence[int],
        residual: Optional[Expr] = None,
        left_outer: bool = False,
    ) -> None:
        if len(outer_key_positions) != len(inner_key_positions) or not outer_key_positions:
            raise PlanError("hash join needs matching, non-empty key lists")
        self.outer = outer
        self.inner = inner
        self.outer_keys = tuple(outer_key_positions)
        self.inner_keys = tuple(inner_key_positions)
        self.residual = residual
        self.left_outer = left_outer
        self.layout = outer.layout + inner.layout
        self._compiled: Optional[Tuple[Callable[[Row], Any], bool]] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.outer, self.inner)

    def _residual_fn(self) -> Optional[Callable[[Row], Any]]:
        if self.residual is None:
            return None
        if self._compiled is None:
            self._compiled = exprcompile.compile_expr(self.residual)
        return self._compiled[0]

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        # Build phase: single-column keys hash the bare value (the common
        # equi-join shape); multi-column keys hash the tuple.  NULL keys
        # never enter the table, so probes need no separate NULL check for
        # the matched path.
        build: Dict[Any, List[Row]] = {}
        inner_keys = self.inner_keys
        single = len(inner_keys) == 1
        single_inner = inner_keys[0]
        single_outer = self.outer_keys[0]
        for batch in self.inner.rows_batched(batch_size):
            if single:
                for inner_row in batch:
                    key = inner_row[single_inner]
                    if key is not None:
                        build.setdefault(key, []).append(inner_row)
            else:
                for inner_row in batch:
                    key = tuple(inner_row[p] for p in inner_keys)
                    if not any(component is None for component in key):
                        build.setdefault(key, []).append(inner_row)
        pad = (None,) * len(self.inner.layout)
        residual = self._residual_fn()
        left_outer = self.left_outer
        outer_keys = self.outer_keys
        get = build.get
        out: List[Row] = []
        append = out.append
        for batch in self.outer.rows_batched(batch_size):
            for outer_row in batch:
                if single:
                    bucket = get(outer_row[single_outer])
                else:
                    key = tuple(outer_row[p] for p in outer_keys)
                    bucket = None if any(c is None for c in key) else get(key)
                matched = False
                if bucket:
                    if residual is None:
                        matched = True
                        for inner_row in bucket:
                            append(outer_row + inner_row)
                    else:
                        for inner_row in bucket:
                            combined = outer_row + inner_row
                            if residual(combined) is True:
                                matched = True
                                append(combined)
                if left_outer and not matched:
                    append(outer_row + pad)
            if len(out) >= batch_size:
                yield out
                out = []
                append = out.append
        if out:
            yield out

    def compiled_status(self) -> Optional[str]:
        if self.residual is None:
            return None
        self._residual_fn()
        return "yes" if self._compiled[1] else "no"

    def label(self) -> str:
        kind = "LeftOuterHashJoin" if self.left_outer else "HashJoin"
        pairs = ", ".join(
            f"L[{o}]=R[{i}]" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"{kind}({pairs})"


class MergeJoin(Operator):
    """Equi-join over two inputs; sorts both sides, then merges.

    Handles duplicate keys on both sides.  NULL keys never match.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        outer_key_positions: Sequence[int],
        inner_key_positions: Sequence[int],
    ) -> None:
        if len(outer_key_positions) != len(inner_key_positions) or not outer_key_positions:
            raise PlanError("merge join needs matching, non-empty key lists")
        self.outer = outer
        self.inner = inner
        self.outer_keys = tuple(outer_key_positions)
        self.inner_keys = tuple(inner_key_positions)
        self.layout = outer.layout + inner.layout

    def children(self) -> Tuple[Operator, ...]:
        return (self.outer, self.inner)

    @staticmethod
    def _sorted_side(
        side: Operator, positions: Tuple[int, ...], batch_size: int
    ) -> List[Tuple[Tuple[Any, ...], Row]]:
        """(sort key, row) for every row whose key has no NULL, stably
        sorted by key."""
        keyed = []
        for batch in side.rows_batched(batch_size):
            for row in batch:
                key = tuple(row[p] for p in positions)
                if not any(c is None for c in key):
                    keyed.append((tuple(sort_key(c) for c in key), row))
        keyed.sort(key=itemgetter(0))
        return keyed

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        left = self._sorted_side(self.outer, self.outer_keys, batch_size)
        right = self._sorted_side(self.inner, self.inner_keys, batch_size)
        out: List[Row] = []
        i = j = 0
        while i < len(left) and j < len(right):
            lkey = left[i][0]
            rkey = right[j][0]
            if lkey < rkey:
                i += 1
            elif rkey < lkey:
                j += 1
            else:
                # Gather the run of equal keys on both sides.
                i_end = i + 1
                while i_end < len(left) and left[i_end][0] == lkey:
                    i_end += 1
                j_end = j + 1
                while j_end < len(right) and right[j_end][0] == rkey:
                    j_end += 1
                run = [row for _key, row in right[j:j_end]]
                for _key, outer_row in left[i:i_end]:
                    out.extend([outer_row + inner_row for inner_row in run])
                    if len(out) >= batch_size:
                        yield out
                        out = []
                i, j = i_end, j_end
        if out:
            yield out

    def label(self) -> str:
        pairs = ", ".join(
            f"L[{o}]=R[{i}]" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"MergeJoin({pairs})"


class UnionAll(Operator):
    """Concatenate two inputs with identical arities."""

    def __init__(self, left: Operator, right: Operator) -> None:
        if len(left.layout) != len(right.layout):
            raise PlanError("UNION inputs must have the same arity")
        self.left = left
        self.right = right
        self.layout = left.layout

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        yield from self.left.rows_batched(batch_size)
        yield from self.right.rows_batched(batch_size)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class AggSpec:
    """One aggregate column: func in COUNT/SUM/AVG/MIN/MAX, arg may be None
    (COUNT(*)), output name, output type."""

    FUNCS = ("count", "sum", "avg", "min", "max")

    def __init__(
        self,
        func: str,
        arg: Optional[Expr],
        name: str,
        out_type: ColumnType,
        distinct: bool = False,
    ) -> None:
        func = func.lower()
        if func not in self.FUNCS:
            raise PlanError(f"unknown aggregate {func!r}")
        if func != "count" and arg is None:
            raise PlanError(f"{func.upper()} requires an argument")
        if distinct and arg is None:
            raise PlanError("COUNT(DISTINCT *) is not valid")
        self.func = func
        self.arg = arg
        self.name = name.lower()
        self.out_type = out_type
        self.distinct = distinct


class _AggState:
    """Accumulator for one aggregate within one group."""

    __slots__ = ("func", "count", "total", "best", "seen")

    def __init__(self, func: str, distinct: bool = False) -> None:
        self.func = func
        self.count = 0
        self.total: Any = None
        self.best: Any = None
        self.seen: Any = set() if distinct else None

    def add(self, value: Any) -> None:
        if self.seen is not None:
            if value is None or value in self.seen:
                return
            self.seen.add(value)
        if self.func == "count":
            # COUNT(*) passes a sentinel non-None; COUNT(x) skips NULLs.
            if value is not None:
                self.count += 1
            return
        if value is None:
            return
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "min":
            if self.best is None or sort_key(value) < sort_key(self.best):
                self.best = value
        elif self.func == "max":
            if self.best is None or sort_key(self.best) < sort_key(value):
                self.best = value

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if self.count == 0:
            return None
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        return self.best


class Aggregate(Operator):
    """Hash aggregation with optional GROUP BY expressions.

    Output rows are: group-key columns first (in group_exprs order), then one
    column per AggSpec.  With no groups, exactly one row is produced even on
    empty input (SQL semantics).
    """

    def __init__(
        self,
        child: Operator,
        group_exprs: Sequence[Tuple[Expr, str, ColumnType]],
        aggregates: Sequence[AggSpec],
    ) -> None:
        self.child = child
        self.group_exprs = tuple(group_exprs)
        self.aggregates = tuple(aggregates)
        slots = [(None, name, ctype) for _e, name, ctype in self.group_exprs]
        slots += [(None, spec.name, spec.out_type) for spec in self.aggregates]
        if not slots:
            raise PlanError("aggregate with neither groups nor aggregates")
        self.layout = RowLayout(slots)
        self._compiled_key: Optional[Tuple[Callable[[Row], Row], bool]] = None
        self._compiled_args: Optional[List[Optional[Tuple[Callable[[Row], Any], bool]]]] = None

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def _ensure_compiled(self) -> None:
        if self._compiled_key is None:
            self._compiled_key = exprcompile.compile_row_fn(
                [expr for expr, _n, _t in self.group_exprs]
            )
            self._compiled_args = [
                None if spec.arg is None else exprcompile.compile_expr(spec.arg)
                for spec in self.aggregates
            ]

    def rows_batched(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[List[Row]]:
        specs = self.aggregates
        if not self.group_exprs and all(
            spec.func == "count" and spec.arg is None for spec in specs
        ):
            # Ungrouped COUNT(*): the batch sizes ARE the answer.
            total = 0
            for batch in self.child.rows_batched(batch_size):
                total += len(batch)
            yield [(total,) * len(specs)]
            return
        self._ensure_compiled()
        key_of = self._compiled_key[0]
        arg_fns = [
            None if compiled is None else compiled[0]
            for compiled in self._compiled_args
        ]
        groups: Dict[Tuple[Any, ...], List[_AggState]] = {}
        order: List[Tuple[Any, ...]] = []
        for batch in self.child.rows_batched(batch_size):
            for row in batch:
                key = key_of(row)
                states = groups.get(key)
                if states is None:
                    states = [_AggState(spec.func, spec.distinct) for spec in specs]
                    groups[key] = states
                    order.append(key)
                for arg_fn, state in zip(arg_fns, states):
                    if arg_fn is None:
                        state.add(True)  # COUNT(*)
                    else:
                        state.add(arg_fn(row))
        if not groups and not self.group_exprs:
            groups[()] = [_AggState(spec.func) for spec in specs]
            order.append(())
        result = [
            key + tuple(state.result() for state in groups[key]) for key in order
        ]
        for start in range(0, len(result), batch_size):
            yield result[start : start + batch_size]

    def compiled_status(self) -> Optional[str]:
        if not self.group_exprs and all(
            spec.func == "count" and spec.arg is None for spec in self.aggregates
        ):
            return "yes"  # runs as a pure batch-length sum
        self._ensure_compiled()
        ok = self._compiled_key[1] and all(
            compiled is None or compiled[1] for compiled in self._compiled_args
        )
        return "yes" if ok else "no"

    def label(self) -> str:
        groups = ", ".join(n for _e, n, _t in self.group_exprs)
        aggs = ", ".join(f"{s.func}->{s.name}" for s in self.aggregates)
        return f"Aggregate(groups=[{groups}], aggs=[{aggs}])"
