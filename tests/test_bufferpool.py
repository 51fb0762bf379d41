"""Buffer-pool v2 units: LRU-K eviction, pins, prefetch, the free-space
map, vacuum, and the columnar segment cache.

The crash/chaos suites prove these mechanisms survive failure; this file
pins their *behaviour* — eviction order, counter semantics, RowId
stability across vacuum, and segment-cache consistency under mutation.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.relational.database import Database
from repro.relational.faults import FaultInjector
from repro.relational.heap import HeapFile, RowId
from repro.relational.pager import PAGE_SIZE, FilePager, MemoryPager
from repro.relational.schema import Column, TableSchema
from repro.relational.segments import SegmentStore
from repro.relational.table import Table
from repro.relational.types import ColumnType


def _pager(tmp_path, name="p.heap", **kwargs):
    return FilePager(str(tmp_path / name), **kwargs)


def _flushed_pages(pager, count):
    """Allocate *count* pages, flush them clean, and drop them from the
    pool so subsequent reads start cold."""
    for _ in range(count):
        pager.allocate_page()
    pager.flush()
    for page_no in range(count):
        pager._pool.pop(page_no, None)
        pager._unqueue(page_no)
        pager._hot.discard(page_no)
    return count


class TestEvictionPolicy:
    def test_probation_evicts_before_protected(self, tmp_path):
        pager = _pager(tmp_path, pool_size=3)
        _flushed_pages(pager, 6)
        # Pages 0 and 1 become hot (two references); page 2 stays cold.
        for page_no in (0, 1, 0, 1, 2):
            pager.read_page(page_no)
        # Admitting page 3 must evict the probation page (2), not a hot one.
        pager.read_page(3)
        assert 0 in pager._pool and 1 in pager._pool
        assert 2 not in pager._pool
        pager.close()

    def test_sequential_scan_does_not_flush_hot_set(self, tmp_path):
        pager = _pager(tmp_path, pool_size=4)
        _flushed_pages(pager, 30)
        pager.read_page(0)
        pager.read_page(0)  # hot
        for page_no in range(1, 30):  # one-touch scan traffic
            pager.read_page(page_no)
        assert 0 in pager._pool, "scan traffic evicted a protected page"
        pager.close()

    def test_pinned_page_survives_pressure(self, tmp_path):
        pager = _pager(tmp_path, pool_size=2)
        _flushed_pages(pager, 8)
        pager.read_page(0)
        pager.pin(0)
        for page_no in range(1, 8):
            pager.read_page(page_no)
        assert 0 in pager._pool
        pager.unpin(0)
        pager.read_page(1)  # any further pressure may now take page 0
        pager.close()

    def test_dirty_pages_overflow_instead_of_stealing(self, tmp_path):
        pager = _pager(tmp_path, pool_size=1)
        for _ in range(3):
            pager.allocate_page()  # born dirty, never flushed
        assert pager.stats["writes"] == 0, "no-steal violated: dirty write-back"
        assert pager.stats["evictions"] == 0
        assert pager.stats["pool_overflows"] > 0
        assert pager.resident_pages() == 3  # pool grew past its target
        pager.flush()
        assert pager.resident_pages() <= 1  # and shrank back once clean
        pager.close()

    def test_unpin_without_pin_raises(self, tmp_path):
        pager = _pager(tmp_path)
        pager.allocate_page()
        with pytest.raises(StorageError):
            pager.unpin(0)
        pager.close()

    def test_nested_pins_require_matching_unpins(self, tmp_path):
        pager = _pager(tmp_path, pool_size=1)
        _flushed_pages(pager, 4)
        pager.read_page(0)
        pager.pin(0)
        pager.pin(0)
        pager.unpin(0)
        pager.read_page(1)  # pressure: page 0 still pinned once
        assert 0 in pager._pool
        pager.unpin(0)
        pager.close()


class TestPrefetch:
    def test_read_pages_one_io_per_miss_run(self, tmp_path):
        path = str(tmp_path / "pf.heap")
        pager = FilePager(path, pool_size=16)
        for _ in range(8):
            pager.allocate_page()
        pager.close()
        shim = FaultInjector()
        pager = FilePager(path, pool_size=16, io=shim)
        preads_before = sum(1 for op, _ in shim.calls if op == "pread")
        pages = pager.read_pages(0, 8)
        assert len(pages) == 8
        assert sum(1 for op, _ in shim.calls if op == "pread") == preads_before + 1
        assert pager.stats["prefetch_io"] == 1
        assert pager.stats["prefetched"] == 8
        # A second batch is all hits: no further I/O.
        pager.read_pages(0, 8)
        assert pager.stats["prefetch_io"] == 1
        assert pager.stats["hits"] == 8
        pager.close()

    def test_read_pages_pin_survives_small_pool(self, tmp_path):
        # The batch is wider than the pool: every page must still arrive
        # pinned (a later admission never evicts an earlier promise).
        pager = _pager(tmp_path, pool_size=2)
        _flushed_pages(pager, 6)
        pages = pager.read_pages(0, 6, pin=True)
        assert len(pages) == 6
        assert pager.pinned_pages() == 6
        for page_no in range(6):
            pager.unpin(page_no)
        assert pager.pinned_pages() == 0
        assert pager.resident_pages() <= 2
        pager.close()

    def test_read_pages_out_of_bounds(self, tmp_path):
        pager = _pager(tmp_path)
        pager.allocate_page()
        with pytest.raises(StorageError):
            pager.read_pages(0, 2)
        pager.close()

    def test_failed_read_surfaces_as_storage_error(self, tmp_path):
        path = str(tmp_path / "bad.heap")
        pager = FilePager(path)
        pager.allocate_page()
        pager.close()
        shim = FaultInjector(fail_reads=True)
        with pytest.raises(StorageError):
            FilePager(path, io=shim).read_page(0)

    def test_memory_pager_counter_parity(self):
        memory = MemoryPager()
        memory.allocate_page()
        memory.read_page(0)
        assert set(memory.stats) <= {
            "hits", "misses", "evictions", "writes", "prefetched",
        }
        assert memory.stats["hits"] == 1
        assert memory.stats["misses"] == 0


def _heap_with_rows(tmp_path, n=64, size=200, prefetch_pages=8):
    pager = _pager(tmp_path, "h.heap", pool_size=32, prefetch_pages=prefetch_pages)
    heap = HeapFile(pager)
    rids = [heap.insert(bytes([i % 251]) * size) for i in range(n)]
    return heap, rids


class TestFreeSpaceMap:
    def test_insert_reuses_freed_space(self, tmp_path):
        heap, rids = _heap_with_rows(tmp_path, n=100)
        pages_before = heap.page_count()
        assert pages_before > 2
        for rid in rids[: len(rids) // 2]:
            heap.delete(rid)
        heap._free_hint = None  # force the FSM path, not the hint
        for i in range(40):
            heap.insert(bytes([7]) * 200)
        assert heap.page_count() == pages_before, "freed space was not reused"

    def test_fsm_stats_surface_after_build(self, tmp_path):
        heap, rids = _heap_with_rows(tmp_path, n=40)
        assert heap.free_space_stats() == {"fsm_pages": 0, "fsm_free_bytes": 0}
        for rid in rids[:20]:
            heap.delete(rid)
        heap._free_hint = None
        heap.insert(b"z" * 200)  # miss -> lazy FSM build
        stats = heap.free_space_stats()
        assert stats["fsm_pages"] > 0
        assert stats["fsm_free_bytes"] > 0

    def test_scan_pages_range_and_pinning(self, tmp_path):
        heap, _rids = _heap_with_rows(tmp_path, n=100, prefetch_pages=4)
        full = [page_no for page_no, _, _ in heap.scan_pages()]
        assert full == list(range(heap.page_count()))
        partial = [p for p, _, _ in heap.scan_pages(1, 3)]
        assert partial == [1, 2]
        scan = heap.scan_pages()
        next(scan)
        assert heap._pager.pinned_pages() > 0, "scan does not pin its window"
        scan.close()  # abandoning the generator must release every pin
        assert heap._pager.pinned_pages() == 0

    def test_data_version_tracks_every_mutation(self, tmp_path):
        heap, rids = _heap_with_rows(tmp_path, n=4)
        version = heap.data_version
        heap.insert(b"a" * 10)
        assert heap.data_version == version + 1
        heap.update(rids[0], b"b" * 10)
        assert heap.data_version == version + 2
        heap.delete(rids[1])
        assert heap.data_version == version + 3
        heap.vacuum()
        assert heap.data_version == version + 4


class TestVacuum:
    def test_vacuum_compacts_and_preserves_rowids(self, tmp_path):
        heap, rids = _heap_with_rows(tmp_path, n=60)
        for rid in rids[::2]:
            heap.delete(rid)
        survivors = {rid: heap.read(rid) for rid in rids[1::2]}
        stats = heap.vacuum()
        assert stats["compacted"] > 0
        assert stats["reclaimed_bytes"] > 0
        for rid, record in survivors.items():
            assert heap.read(rid) == record
        # Compacted space is immediately insertable: the file cannot grow
        # while the reclaimed bytes cover the new records.
        pages = heap.page_count()
        for _ in range(20):
            heap.insert(b"q" * 200)
        assert heap.page_count() == pages

    def test_vacuum_on_clean_heap_is_a_noop(self, tmp_path):
        heap, _rids = _heap_with_rows(tmp_path, n=10)
        stats = heap.vacuum()
        assert stats["compacted"] == 0
        assert stats["reclaimed_bytes"] == 0

    def test_database_vacuum_rejects_system_tables(self, tmp_path):
        db = Database(str(tmp_path / "db"), fsync=False)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            db.vacuum("_storage")
        assert set(db.vacuum()) == {"t"}
        db.close()


def _memory_table(rows=50):
    schema = TableSchema(
        "t",
        [
            Column("id", ColumnType.INT, nullable=False),
            Column("v", ColumnType.TEXT),
        ],
        primary_key=["id"],
    )
    table = Table(schema, HeapFile(MemoryPager()))
    for i in range(rows):
        table.insert((i, f"val{i}"))
    return table


class TestSegmentCache:
    def test_segment_scan_matches_plain_scan(self):
        table = _memory_table()
        plain = [r for batch in table.rows_batched(8) for r in batch]
        first = [r for batch in table.rows_batched(8, use_segments=True) for r in batch]
        second = [r for batch in table.rows_batched(8, use_segments=True) for r in batch]
        assert first == plain
        assert second == plain
        stats = table.segments.stats
        assert stats["seg_builds"] == 1
        assert stats["seg_hits"] >= 1

    def test_mutation_invalidates_cached_segment(self):
        table = _memory_table(10)
        list(table.rows_batched(100, use_segments=True))
        table.insert((999, "new"))
        rows = [r for batch in table.rows_batched(100, use_segments=True) for r in batch]
        assert (999, "new") in rows
        assert table.segments.stats["seg_invalidated"] == 1

    def test_store_evicts_by_row_budget(self):
        store = SegmentStore(max_rows=10)
        store.put(0, 1, [(i,) for i in range(6)])
        store.put(64, 1, [(i,) for i in range(6)])
        assert store.stats["seg_evictions"] == 1
        assert store.cached_rows() <= 10
        # An oversized run is served but never cached.
        store.put(128, 1, [(i,) for i in range(11)])
        assert store.get(128, 1) is None
        assert store.cached_rows() <= 10

    def test_zero_budget_disables_the_cache(self):
        table = _memory_table(10)
        table.segments.max_rows = 0
        list(table.rows_batched(100, use_segments=True))
        assert table.segments.stats["seg_builds"] == 0


class TestStorageSystemTable:
    def test_storage_rows_reflect_pool_and_segments(self, tmp_path):
        db = Database(str(tmp_path / "db"), fsync=False, pool_size=8)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        for i in range(100):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("SELECT COUNT(*) FROM t")
        rows = db.query(
            "SELECT table_name, heap_pages, pool_target, seg_hits, "
            "data_version FROM _storage"
        )
        assert len(rows) == 1
        name, pages, pool_target, seg_hits, version = rows[0]
        assert name == "t"
        assert pages >= 1
        assert pool_target == 8
        assert seg_hits >= 1
        assert version >= 100
        db.close()

    def test_memory_tables_report_null_pool_columns(self):
        db = Database()
        db.execute("CREATE TABLE m (id INT PRIMARY KEY)")
        db.execute("INSERT INTO m VALUES (1)")
        rows = db.query("SELECT table_name, pool_target, resident FROM _storage")
        assert rows == [("m", None, None)]
        db.close()


class TestDatabaseKnobs:
    def test_pool_and_prefetch_reach_the_pager(self, tmp_path):
        db = Database(
            str(tmp_path / "db"), fsync=False, pool_size=7, prefetch_pages=3
        )
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        pager = db.catalog.table("t").heap._pager
        assert pager.pool_size == 7
        assert pager.prefetch_pages == 3
        db.close()

    def test_segment_cache_rows_zero_disables_store(self, tmp_path):
        db = Database(str(tmp_path / "db"), fsync=False, segment_cache_rows=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("SELECT COUNT(*) FROM t")
        assert db.metrics_snapshot()["segments"]["seg_builds"] == 0
        db.close()
