"""The table layer: validated rows over a heap, with index maintenance.

A :class:`Table` owns one :class:`~repro.relational.heap.HeapFile` plus the
set of secondary indexes declared on it.  All DML funnels through the three
methods :meth:`insert`, :meth:`delete`, and :meth:`update`, which keep every
index exactly in sync with the heap and enforce uniqueness (primary key and
UNIQUE constraints are implemented as unique indexes).

Foreign-key enforcement lives one level up (:mod:`repro.relational.database`)
because it needs to see the parent table.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, ConstraintError
from repro.relational.heap import HeapFile, RowId
from repro.relational.indexes import BTreeIndex, Index, make_index
from repro.relational.rowcodec import decode_row, encode_row, span_decoder
from repro.relational.schema import TableSchema
from repro.relational.segments import SEGMENT_PAGES, SegmentStore

Row = Tuple[Any, ...]


class Table:
    """One base relation: schema + heap + indexes."""

    def __init__(self, schema: TableSchema, heap: HeapFile) -> None:
        self.schema = schema
        self.heap = heap
        #: columnar page-run cache for hot vectorized scans; the database
        #: layer sizes it (or disables it with max_rows=0)
        self.segments = SegmentStore()
        self.indexes: Dict[str, Index] = {}
        if schema.primary_key:
            self.add_index(
                f"pk_{schema.name}", "btree", schema.primary_key, unique=True
            )
        for pos, group in enumerate(schema.unique):
            self.add_index(
                f"uq_{schema.name}_{pos}", "btree", group, unique=True
            )

    @property
    def name(self) -> str:
        return self.schema.name

    # -- index management ------------------------------------------------

    def add_index(
        self, name: str, kind: str, columns: Sequence[str], unique: bool = False
    ) -> Index:
        """Create and backfill an index over *columns*."""
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists on {self.name!r}")
        for column in columns:
            self.schema.column(column)  # raises SchemaError if unknown
        index = make_index(kind, name, self.name, columns, unique)
        positions = [self.schema.column_index(c) for c in index.columns]
        for rid, row in self.scan():
            index.insert(tuple(row[p] for p in positions), rid)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        """Remove an index; primary-key/unique indexes cannot be dropped."""
        index = self.indexes.get(name)
        if index is None:
            raise CatalogError(f"no index {name!r} on {self.name!r}")
        if index.unique:
            raise CatalogError(f"index {name!r} enforces a constraint")
        del self.indexes[name]

    def index_on(self, columns: Sequence[str], ordered: bool = False) -> Optional[Index]:
        """Find an index whose key is exactly *columns* (order-sensitive)."""
        wanted = tuple(c.lower() for c in columns)
        for index in self.indexes.values():
            if index.columns == wanted and (index.ordered or not ordered):
                return index
        return None

    def ordered_index_with_prefix(self, column: str) -> Optional[BTreeIndex]:
        """An ordered index whose first key column is *column*, if any."""
        column = column.lower()
        for index in self.indexes.values():
            if isinstance(index, BTreeIndex) and index.columns[0] == column:
                return index
        return None

    def rebuild_indexes(self) -> None:
        """Re-derive every index from a heap scan (used after recovery)."""
        for index in self.indexes.values():
            index.clear()
            positions = [self.schema.column_index(c) for c in index.columns]
            for rid, row in self.scan():
                index.insert(tuple(row[p] for p in positions), rid)

    # -- DML ----------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> RowId:
        """Validate and store a positional row; maintain all indexes."""
        clean = self.schema.validate_row(row)
        self._check_unique_all(clean, exclude_rid=None)
        rid = self.heap.insert(encode_row(self.schema, clean))
        for index in self.indexes.values():
            index.insert(self._key_for(index, clean), rid)
        return rid

    def read(self, rid: RowId) -> Row:
        """Decode the row at *rid*."""
        return decode_row(self.schema, self.heap.read(rid))

    def delete(self, rid: RowId) -> Row:
        """Remove the row at *rid*; returns the old row (for undo logs)."""
        row = self.read(rid)
        for index in self.indexes.values():
            index.delete(self._key_for(index, row), rid)
        self.heap.delete(rid)
        return row

    def update(self, rid: RowId, new_row: Sequence[Any]) -> Tuple[RowId, Row]:
        """Replace the row at *rid*; returns (new_rid, old_row).

        The RowId may change if the record grows past its page.  An index
        is touched only when its key or the rid changed; the heap is written
        first, so a StorageError leaves every index as it was.
        """
        old_row = self.read(rid)
        clean = self.schema.validate_row(new_row)
        self._check_unique_all(clean, exclude_rid=rid)
        new_rid = self.heap.update(rid, encode_row(self.schema, clean))
        for index in self.indexes.values():
            old_key = self._key_for(index, old_row)
            new_key = self._key_for(index, clean)
            if new_rid != rid or new_key != old_key:
                index.delete(old_key, rid)
                index.insert(new_key, new_rid)
        return new_rid, old_row

    # -- reads ------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RowId, Row]]:
        """All live rows with their RowIds, in heap order."""
        for rid, record in self.heap.scan():
            yield rid, decode_row(self.schema, record)

    def rows(self) -> Iterator[Row]:
        """All live rows (no RowIds)."""
        for _rid, row in self.scan():
            yield row

    def scan_batched(
        self, batch_size: int = 1024
    ) -> Iterator[List[Tuple[RowId, Row]]]:
        """Like :meth:`scan`, but in page-decoded batches.

        Each heap page is converted to an immutable buffer once and every
        live record on it is decoded from its (offset, length) span — no
        per-record ``bytes`` copy, no per-record codec call setup.
        """
        decode = span_decoder(self.schema)
        batch: List[Tuple[RowId, Row]] = []
        append = batch.append
        for page_no, data, live in self.heap.scan_pages():
            buf = bytes(data)
            for slot_no, offset, length in live:
                append((RowId(page_no, slot_no), decode(buf, offset, offset + length)))
            if len(batch) >= batch_size:
                yield batch
                batch = []
                append = batch.append
        if batch:
            yield batch

    def rows_batched(
        self, batch_size: int = 1024, use_segments: bool = False
    ) -> Iterator[List[Row]]:
        """All live rows in batches (no RowIds) — the executor's scan path.

        With *use_segments*, rows are served page-run-at-a-time from the
        table's :class:`~repro.relational.segments.SegmentStore`: a run
        whose cached version matches ``heap.data_version`` skips the page
        reads and record decoding entirely; a miss decodes the run once
        (through the pinned, prefetching heap scan) and caches it.
        """
        if use_segments and self.segments.max_rows > 0:
            yield from self._rows_batched_segments(batch_size)
            return
        decode = span_decoder(self.schema)
        batch: List[Row] = []
        append = batch.append
        for _page_no, data, live in self.heap.scan_pages():
            buf = bytes(data)
            for _slot_no, offset, length in live:
                append(decode(buf, offset, offset + length))
            if len(batch) >= batch_size:
                yield batch
                batch = []
                append = batch.append
        if batch:
            yield batch

    def _rows_batched_segments(self, batch_size: int) -> Iterator[List[Row]]:
        decode = span_decoder(self.schema)
        store = self.segments
        heap = self.heap
        total = heap.page_count()
        batch: List[Row] = []
        for page_lo in range(0, total, SEGMENT_PAGES):
            version = heap.data_version
            columns = store.get(page_lo, version)
            if columns is None:
                run_rows: List[Row] = []
                stop = min(page_lo + SEGMENT_PAGES, total)
                for _page_no, data, live in heap.scan_pages(page_lo, stop):
                    buf = bytes(data)
                    for _slot_no, offset, length in live:
                        run_rows.append(decode(buf, offset, offset + length))
                columns = store.put(page_lo, version, run_rows)
                rows: Iterator[Row] = iter(run_rows)
            else:
                rows = zip(*columns)  # type: ignore[assignment]
            for row in rows:
                batch.append(row)
                if len(batch) >= batch_size:
                    yield batch
                    batch = []
        if batch:
            yield batch

    def read_many(self, rids: Sequence[RowId], prefetch: bool = False) -> List[Row]:
        """Decode the rows at *rids* (index-scan batch path).

        With *prefetch*, the distinct pages behind the batch are warmed
        through the pager's batched read API first, collapsing the
        per-rid point reads into a few positioned I/Os on a cold pool.
        """
        if prefetch and len(rids) > 1:
            self.heap.prefetch([rid.page for rid in rids])
        schema = self.schema
        read = self.heap.read
        return [decode_row(schema, read(rid)) for rid in rids]

    def count(self) -> int:
        """Live row count."""
        return self.heap.count()

    def find_by_key(self, key: Sequence[Any]) -> Optional[Tuple[RowId, Row]]:
        """Locate a row by primary key, or None."""
        if not self.schema.primary_key:
            raise CatalogError(f"table {self.name!r} has no primary key")
        index = self.index_on(self.schema.primary_key)
        rids = index.lookup(tuple(key))
        if not rids:
            return None
        rid = rids[0]
        return rid, self.read(rid)

    def find_by_image(self, image: Row) -> Optional[RowId]:
        """The rid of a row equal to the validated *image*, or None (redo).

        The first unique index whose key is NULL-free in *image* settles
        it: the one row under that key equals the image or no row does.
        Only a table without such a key is scanned, in heap order — there
        any equal row is the same row.
        """
        for index in self.indexes.values():
            if not index.unique:
                continue
            key = self._key_for(index, image)
            if None in key:
                continue
            rids = index.lookup(key)
            if rids and self.read(rids[0]) == image:
                return rids[0]
            return None
        for rid, row in self.scan():
            if row == image:
                return rid
        return None

    # -- internals ---------------------------------------------------------

    def _key_for(self, index: Index, row: Row) -> Tuple[Any, ...]:
        return tuple(row[self.schema.column_index(c)] for c in index.columns)

    def _check_unique_all(self, row: Row, exclude_rid: Optional[RowId]) -> None:
        """Pre-check unique indexes so failures surface before heap writes."""
        for index in self.indexes.values():
            if not index.unique:
                continue
            key = self._key_for(index, row)
            if any(component is None for component in key):
                continue
            hits = [r for r in index.lookup(key) if r != exclude_rid]
            if hits:
                raise ConstraintError(
                    f"duplicate key {key!r} violates {index.name!r} "
                    f"on table {self.name!r}"
                )
