"""Columnar segment cache for the vectorized executor.

A *segment* is an immutable column-major snapshot of the live rows in one
contiguous run of heap pages (``SEGMENT_PAGES`` per run): one tuple per
column, all the same length.  Hot analytic scans re-read the same pages
over and over; decoding them into rows each time dominates the scan cost
once the buffer pool has absorbed the I/O.  The segment cache pays the
decode once per (page run, heap version) and serves subsequent scans by
re-zipping the cached columns — no page reads, no slot-directory walks,
no per-record codec calls.

Consistency is by *versioned keys*, not explicit invalidation hooks:
every :class:`~repro.relational.heap.HeapFile` bumps ``data_version`` on
each mutation, and a segment is only served when its recorded version
matches the heap's current one.  A lookup that finds a stale entry drops
it on the spot, so a cache can never return rows a committed write has
since changed.  (DDL replaces the Table object wholesale, which replaces
the store too.)

Memory is bounded by cached *rows*, not entries: an LRU over page runs
evicts whole segments until the store is back under ``max_rows``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

#: heap pages per segment (a prefetch-window multiple: one segment build
#: triggers at most two batched reads on the default pager config)
SEGMENT_PAGES = 64

#: default cap on total rows cached per store
DEFAULT_SEGMENT_ROWS = 262_144

Row = Tuple[object, ...]
Columns = Tuple[Tuple[object, ...], ...]


class SegmentStore:
    """Per-table LRU cache of column-major page-run snapshots."""

    def __init__(self, max_rows: int = DEFAULT_SEGMENT_ROWS) -> None:
        self.max_rows = max_rows
        # page_lo -> (data_version, columns, row_count); LRU order
        self._segments: "OrderedDict[int, Tuple[int, Columns, int]]" = OrderedDict()
        self._cached_rows = 0
        self.stats: Dict[str, int] = {
            "seg_hits": 0,
            "seg_misses": 0,
            "seg_builds": 0,
            "seg_evictions": 0,
            "seg_invalidated": 0,
            "seg_rows_served": 0,
        }

    # -- lookup / build ------------------------------------------------------

    def get(self, page_lo: int, version: int) -> Optional[Columns]:
        """The cached columns for the run at *page_lo*, if still current."""
        entry = self._segments.get(page_lo)
        if entry is None:
            self.stats["seg_misses"] += 1
            return None
        cached_version, columns, nrows = entry
        if cached_version != version:
            # Stale snapshot of a mutated run — drop it rather than letting
            # the LRU keep unservable bytes alive.
            del self._segments[page_lo]
            self._cached_rows -= nrows
            self.stats["seg_invalidated"] += 1
            self.stats["seg_misses"] += 1
            return None
        self._segments.move_to_end(page_lo)
        self.stats["seg_hits"] += 1
        self.stats["seg_rows_served"] += nrows
        return columns

    def put(self, page_lo: int, version: int, rows: List[Row]) -> Columns:
        """Cache *rows* (row-major) as columns; returns the column view."""
        columns: Columns = tuple(zip(*rows)) if rows else ()
        nrows = len(rows)
        self.stats["seg_builds"] += 1
        if nrows > self.max_rows:
            # A single run bigger than the whole budget is served but not
            # cached — caching it would just evict everything else first.
            return columns
        old = self._segments.pop(page_lo, None)
        if old is not None:
            self._cached_rows -= old[2]
        self._segments[page_lo] = (version, columns, nrows)
        self._cached_rows += nrows
        while self._cached_rows > self.max_rows and len(self._segments) > 1:
            _lo, (_v, _cols, evicted_rows) = self._segments.popitem(last=False)
            self._cached_rows -= evicted_rows
            self.stats["seg_evictions"] += 1
        return columns

    def clear(self) -> None:
        self._segments.clear()
        self._cached_rows = 0

    # -- introspection -------------------------------------------------------

    def cached_rows(self) -> int:
        return self._cached_rows

    def snapshot(self) -> Dict[str, int]:
        """Counters plus gauges, for ``metrics_snapshot()``/``_storage``."""
        out = dict(self.stats)
        out["seg_cached"] = len(self._segments)
        out["seg_cached_rows"] = self._cached_rows
        return out

