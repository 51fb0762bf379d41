"""Table statistics (ANALYZE), histograms, and selectivity estimation.

A single pass over a table collects, per column: a bounded-memory distinct
count (KMV sketch), null count, min/max, and — for columns with enough
non-null rows — an equi-depth histogram built from a deterministic
bottom-k sample.  Memory is O(sketch + sample) per column regardless of
table size; the old implementation kept every distinct value in a Python
set, which on a wide million-row table was a second copy of the data.

The estimator exposes classic System-R-style selectivities, refined by the
histogram when one exists:

* ``col = literal``  ->  1 / n_distinct (0 outside the observed range)
* range predicate    ->  histogram fraction, else 1/3 (textbook default)
* IS [NOT] NULL      ->  null_fraction (or its complement)
* ``IN (...)``       ->  sum over *distinct* items, complemented for NOT IN

Every cardinality the planner annotates goes through :func:`clamp_rows`
(ceil, floored at one row) — the same helper the static plan verifier uses
to reject non-normalized estimates — so EXPLAIN never shows ``[~0 rows]``
and downstream cost math never sees a negative or fractional row count.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.relational import expr as E
from repro.relational.table import Table
from repro.relational.types import sort_key

DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_EQ_SELECTIVITY = 0.1
#: range operator -> which side of a one-column range it bounds
_RANGE_SIDE = {">": 0, ">=": 0, "<": 1, "<=": 1}

#: equi-depth histogram resolution (bucket count)
HISTOGRAM_BUCKETS = 16
#: columns with fewer non-null values carry no histogram: over a handful of
#: rows the textbook defaults are as good as any bucket math (and the
#: tiny-table estimates are pinned by long-standing tests)
HISTOGRAM_MIN_ROWS = 100
#: histogram sample bound: the k smallest-hashed values stand in for the
#: column; at or below this many rows the "sample" is the whole column
HISTOGRAM_SAMPLE = 4096
#: KMV sketch size: up to this many distinct values the count is exact
NDV_SKETCH_SIZE = 256

#: the floor every normalized cardinality estimate respects
MIN_EST_ROWS = 1.0


def clamp_rows(value: float) -> float:
    """Normalize a cardinality estimate: ceil, floored at one row.

    Selectivity products routinely land below one (rendering as
    ``[~0 rows]`` in EXPLAIN) and a buggy path could go negative; this is
    the single normalization point shared by the planner's annotations and
    the static plan verifier's estimate check.
    """
    value = float(value)
    if not math.isfinite(value):
        return MIN_EST_ROWS
    return float(max(MIN_EST_ROWS, math.ceil(value)))


def is_valid_estimate(value: Any) -> bool:
    """True when *value* is a normalized estimate (what clamp_rows emits)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return False
    return math.isfinite(number) and number >= MIN_EST_ROWS


def _hash01(value: Any) -> float:
    """Deterministic hash of *value* into [0, 1).

    crc32 over a type-tagged repr: stable across processes (unlike builtin
    ``hash`` under PYTHONHASHSEED) and cheap enough for an ANALYZE scan.
    """
    data = repr((type(value).__name__, value)).encode("utf-8", "backslashreplace")
    return zlib.crc32(data) / 4294967296.0


class DistinctSketch:
    """Bounded-memory distinct counter: the k minimum hash values (KMV).

    Below *k* distinct values the count is exact; beyond, the classic
    ``(k - 1) / kth_smallest_hash`` estimator.  Memory is O(k) no matter
    how many values stream through.
    """

    __slots__ = ("k", "_members", "_neg_heap", "_saturated")

    def __init__(self, k: int = NDV_SKETCH_SIZE) -> None:
        self.k = max(2, k)
        self._members: set = set()
        self._neg_heap: List[float] = []  # max-heap of kept hashes, negated
        self._saturated = False

    def add(self, value: Any) -> None:
        h = _hash01(value)
        if h in self._members:
            return
        if len(self._members) < self.k:
            self._members.add(h)
            heapq.heappush(self._neg_heap, -h)
            return
        self._saturated = True
        largest = -self._neg_heap[0]
        if h < largest:
            self._members.discard(largest)
            self._members.add(h)
            heapq.heapreplace(self._neg_heap, -h)

    def estimate(self) -> int:
        if not self._saturated:
            return len(self._members)
        kth = -self._neg_heap[0]
        if kth <= 0.0:
            return len(self._members)
        return max(self.k, int(round((self.k - 1) / kth)))


@dataclass
class Histogram:
    """Equi-depth histogram over one column's non-null values.

    ``bounds`` has ``len(counts) + 1`` edges; bucket *i* spans
    ``(bounds[i], bounds[i+1]]`` (the first bucket includes its lower edge)
    and holds ``counts[i]`` sampled values.  Selectivities are fractions of
    the sampled population, so no rescaling to the full table is needed.
    """

    bounds: List[Any]
    counts: List[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def out_of_range(self, value: Any) -> bool:
        key = sort_key(value)
        return key < sort_key(self.bounds[0]) or sort_key(self.bounds[-1]) < key

    def _fraction_below(self, value: Any) -> float:
        """Approximate fraction of values strictly below *value*."""
        key = sort_key(value)
        total = self.total
        if total <= 0:
            return 0.0
        below = 0.0
        for i, count in enumerate(self.counts):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if sort_key(hi) < key:
                below += count
            elif not (sort_key(lo) < key):  # sort keys only define ``<``
                break
            else:
                below += count * self._within(lo, hi, value)
                break
        return min(1.0, below / total)

    @staticmethod
    def _within(lo: Any, hi: Any, value: Any) -> float:
        """Position of *value* inside (lo, hi]: interpolated when numeric."""
        if (
            isinstance(lo, (int, float))
            and isinstance(hi, (int, float))
            and isinstance(value, (int, float))
            and hi > lo
        ):
            return min(1.0, max(0.0, (value - lo) / (hi - lo)))
        return 0.5  # non-numeric bucket: assume the middle

    def selectivity_range(self, op: str, value: Any) -> float:
        below = self._fraction_below(value)
        if op in ("<", "<="):
            return below
        return max(0.0, 1.0 - below)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "bounds": [stat_value_to_doc(b) for b in self.bounds],
            "counts": list(self.counts),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> Optional["Histogram"]:
        try:
            bounds = [stat_value_from_doc(b) for b in doc["bounds"]]
            counts = [int(c) for c in doc["counts"]]
        except (KeyError, TypeError, ValueError):
            return None
        if len(bounds) != len(counts) + 1 or not counts:
            return None
        return cls(bounds, counts)


def build_histogram(values: List[Any], buckets: int = HISTOGRAM_BUCKETS) -> Optional[Histogram]:
    """An equi-depth histogram over *values* (a sample of the column)."""
    if not values:
        return None
    ordered = sorted(values, key=sort_key)
    n = len(ordered)
    buckets = max(1, min(buckets, n))
    bounds: List[Any] = [ordered[0]]
    counts: List[int] = []
    prev = 0
    for b in range(1, buckets + 1):
        hi = (b * n) // buckets
        if hi <= prev:
            continue
        bounds.append(ordered[hi - 1])
        counts.append(hi - prev)
        prev = hi
    return Histogram(bounds, counts)


@dataclass
class ColumnStats:
    n_distinct: int = 0
    null_count: int = 0
    min_value: Any = None
    max_value: Any = None
    histogram: Optional[Histogram] = None


@dataclass
class TableStats:
    row_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    #: heap pages at ANALYZE time — the cost model's I/O term
    pages: int = 0

    def selectivity(self, conjunct: E.Expr) -> float:
        """Estimated fraction of rows satisfying one conjunct."""
        if isinstance(conjunct, E.IsNull):
            operand = conjunct.operand
            if isinstance(operand, E.ColumnRef) and self.row_count:
                column = self.columns.get(operand.name)
                if column is not None:
                    fraction = column.null_count / self.row_count
                    return (1.0 - fraction) if conjunct.negated else fraction
            # No stats: IS NULL matches few rows; IS NOT NULL is its
            # complement, not equally selective.
            if conjunct.negated:
                return 1.0 - DEFAULT_EQ_SELECTIVITY
            return DEFAULT_EQ_SELECTIVITY
        hit = E.const_comparison(conjunct)
        if hit is not None:
            column_ref, op, value = hit
            column = self.columns.get(column_ref.name)
            if op == "=":
                return self._eq_selectivity(column, value)
            if op == "!=":
                return 1.0 - self._eq_selectivity(column, value)
            return self._range_selectivity(column, op, value)
        if isinstance(conjunct, E.Like):
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(conjunct, E.InList):
            return self._in_list_selectivity(conjunct)
        return 0.5  # unknown shapes: coin flip

    def _eq_selectivity(self, column: Optional[ColumnStats], value: Any) -> float:
        if column is not None and self.row_count and column.null_count >= self.row_count:
            return 0.0  # all-NULL column: equality never matches
        if column is None or column.n_distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        if value is not None and column.histogram is not None:
            try:
                if column.histogram.out_of_range(value):
                    return 0.0  # outside the observed domain
            except TypeError:
                pass  # cross-type comparison: no histogram information
        return 1.0 / column.n_distinct

    def _range_selectivity(
        self, column: Optional[ColumnStats], op: str, value: Any
    ) -> float:
        if column is not None and column.histogram is not None and value is not None:
            try:
                return column.histogram.selectivity_range(op, value)
            except TypeError:
                return DEFAULT_RANGE_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    def _in_list_selectivity(self, conjunct: E.InList) -> float:
        column = None
        if isinstance(conjunct.operand, E.ColumnRef):
            column = self.columns.get(conjunct.operand.name)
        # Dedupe constant items: IN (1, 1, 1) hits at most one distinct value.
        seen: set = set()
        items: List[E.Expr] = []
        for item in conjunct.items:
            if isinstance(item, E.Literal):
                marker: Tuple[str, Any] = (type(item.value).__name__, item.value)
                try:
                    if marker in seen:
                        continue
                    seen.add(marker)
                except TypeError:
                    pass  # unhashable literal: keep it
            items.append(item)
        selectivity = 0.0
        for item in items:
            if isinstance(item, E.Literal):
                selectivity += self._eq_selectivity(column, item.value)
            else:
                selectivity += self._eq_selectivity(column, None)
        selectivity = min(1.0, selectivity)
        # NOT IN is the complement, not the same estimate.
        return (1.0 - selectivity) if conjunct.negated else selectivity

    def estimate_rows(self, conjuncts) -> float:
        """Estimated output rows for an AND of *conjuncts* over this table,
        normalized through :func:`clamp_rows` (always a whole number >= 1)."""
        return clamp_rows(self.estimate_rows_raw(conjuncts))

    def estimate_rows_raw(self, conjuncts) -> float:
        """The un-normalized estimate (internal cost math only).

        Every range bound on one column forms one range, as the planner's
        index range does: ``id >= a AND id < b`` is the fraction between
        *a* and *b*, not the product of two independent halves.  The
        tightest bound on each side wins.
        """
        rows = float(self.row_count)
        # column -> [tightest lower-bound selectivity, tightest upper]
        ranges: Dict[str, List[float]] = {}
        for conjunct in conjuncts:
            hit = E.const_comparison(conjunct)
            if hit is None or hit[1] not in _RANGE_SIDE or hit[2] is None:
                rows *= self.selectivity(conjunct)
                continue
            side = ranges.setdefault(hit[0].name, [1.0, 1.0])
            index = _RANGE_SIDE[hit[1]]
            side[index] = min(side[index], self.selectivity(conjunct))
        for name, (lower, upper) in ranges.items():
            column = self.columns.get(name)
            if column is not None and column.histogram is not None:
                # both fractions come from one distribution: the range
                # between the bounds is their overlap
                rows *= max(0.0, lower + upper - 1.0)
            else:
                rows *= lower * upper  # textbook defaults: independent
        return rows


class _BottomKSample:
    """A deterministic uniform sample: keep the k values whose position hash
    is smallest.  Hash-ranked rather than random.random-reservoir because
    ``relational/`` is a crash-replayed engine path (see wowlint WOW004)."""

    __slots__ = ("k", "_neg_heap")

    def __init__(self, k: int = HISTOGRAM_SAMPLE) -> None:
        self.k = k
        self._neg_heap: List[Tuple[float, int, Any]] = []

    def add(self, ordinal: int, value: Any) -> None:
        rank = -_hash01(ordinal)
        if len(self._neg_heap) < self.k:
            heapq.heappush(self._neg_heap, (rank, ordinal, value))
        elif rank > self._neg_heap[0][0]:
            heapq.heapreplace(self._neg_heap, (rank, ordinal, value))

    def values(self) -> List[Any]:
        return [entry[2] for entry in self._neg_heap]


def analyze_table(
    table: Table,
    buckets: int = HISTOGRAM_BUCKETS,
    sketch_size: int = NDV_SKETCH_SIZE,
) -> TableStats:
    """One full scan collecting row count and per-column statistics.

    Per-column memory is bounded: distinct values go through a KMV sketch,
    histogram input through a bottom-k sample.  Columns whose non-null count
    is below :data:`HISTOGRAM_MIN_ROWS` get min/max and NDV only.
    """
    stats = TableStats()
    names = table.schema.column_names
    sketches: Dict[str, DistinctSketch] = {c: DistinctSketch(sketch_size) for c in names}
    samples: Dict[str, _BottomKSample] = {c: _BottomKSample() for c in names}
    nulls: Dict[str, int] = {c: 0 for c in names}
    minmax: Dict[str, Optional[tuple]] = {c: None for c in names}
    ordinal = 0
    for row in table.rows():
        stats.row_count += 1
        ordinal += 1
        for column, value in zip(names, row):
            if value is None:
                nulls[column] += 1
                continue
            sketches[column].add(value)
            samples[column].add(ordinal, value)
            current = minmax[column]
            if current is None:
                minmax[column] = (value, value)
            else:
                low, high = current
                if sort_key(value) < sort_key(low):
                    low = value
                if sort_key(high) < sort_key(value):
                    high = value
                minmax[column] = (low, high)
    for column in names:
        bounds = minmax[column]
        non_null = stats.row_count - nulls[column]
        histogram = None
        if non_null >= HISTOGRAM_MIN_ROWS:
            histogram = build_histogram(samples[column].values(), buckets)
        stats.columns[column] = ColumnStats(
            # The KMV estimate can overshoot the true count; there are
            # never more distinct values than non-null rows.
            n_distinct=min(sketches[column].estimate(), non_null),
            null_count=nulls[column],
            min_value=bounds[0] if bounds else None,
            max_value=bounds[1] if bounds else None,
            histogram=histogram,
        )
    page_count = getattr(table.heap, "page_count", None)
    stats.pages = int(page_count()) if callable(page_count) else 0
    return stats


# -- catalog persistence -----------------------------------------------------


def stat_value_to_doc(value: Any) -> Any:
    """A JSON-safe form of a statistics value (min/max, histogram bounds)."""
    import datetime

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return None  # exotic type: drop rather than corrupt the catalog doc


def stat_value_from_doc(doc: Any) -> Any:
    import datetime

    if isinstance(doc, dict) and "$date" in doc:
        try:
            return datetime.date.fromisoformat(doc["$date"])
        except (TypeError, ValueError):
            return None
    return doc


def stats_to_doc(stats: TableStats) -> Dict[str, Any]:
    """Serialize one table's statistics for the catalog JSON document."""
    return {
        "row_count": stats.row_count,
        "pages": stats.pages,
        "columns": {
            name: {
                "n_distinct": column.n_distinct,
                "null_count": column.null_count,
                "min": stat_value_to_doc(column.min_value),
                "max": stat_value_to_doc(column.max_value),
                "histogram": (
                    None if column.histogram is None else column.histogram.to_doc()
                ),
            }
            for name, column in sorted(stats.columns.items())
        },
    }


def stats_from_doc(doc: Dict[str, Any]) -> Optional[TableStats]:
    """Rebuild TableStats from :func:`stats_to_doc` output (None if torn)."""
    try:
        stats = TableStats(row_count=int(doc["row_count"]), pages=int(doc.get("pages", 0)))
        for name, column_doc in doc.get("columns", {}).items():
            histogram_doc = column_doc.get("histogram")
            stats.columns[name] = ColumnStats(
                n_distinct=int(column_doc["n_distinct"]),
                null_count=int(column_doc["null_count"]),
                min_value=stat_value_from_doc(column_doc.get("min")),
                max_value=stat_value_from_doc(column_doc.get("max")),
                histogram=(
                    None if histogram_doc is None else Histogram.from_doc(histogram_doc)
                ),
            )
    except (KeyError, TypeError, ValueError):
        return None
    return stats
