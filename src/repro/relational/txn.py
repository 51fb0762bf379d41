"""Transactions: everything a transaction has not committed yet, in one log.

The engine runs in autocommit mode unless ``BEGIN`` opens an explicit
transaction.  While a transaction is open, every row-level change appends
one :class:`UndoEntry`; ``ROLLBACK`` replays them in reverse.  On an
on-disk database the entry also carries the change's WAL line, so the
undo log and the redo group are one list: a savepoint or a statement mark
is one position in it, ``commit()`` hands the lines to the WAL as one
group, and a rollback drops them with the entries.

RowIds are not stable across updates that move a record between pages, so
rollback maintains a translation map: whenever undoing an entry moves a row,
later (earlier-in-time) entries' RowIds are translated through the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TransactionError
from repro.relational.heap import RowId
from repro.relational.table import Table
from repro.relational.wal import WriteAheadLog


@dataclass
class UndoEntry:
    """One logged row-level change.

    kind is 'insert' (undo = delete rid), 'delete' (undo = re-insert row),
    or 'update' (undo = write old_row back at rid).  *redo* is the WAL line
    that replays the change (None on a memory database).
    """

    kind: str
    table: Table
    rid: Optional[RowId] = None
    row: Optional[Tuple[Any, ...]] = None
    redo: Optional[str] = None


class TransactionManager:
    """One transaction at a time: its undo/redo log, savepoints, rollback."""

    def __init__(self, wal: Optional[WriteAheadLog] = None) -> None:
        #: where commit() writes the redo lines (None: memory database)
        self._wal = wal
        self._entries: Optional[List[UndoEntry]] = None
        #: open savepoints: name -> undo-log position
        self.savepoints: Dict[str, int] = {}
        self._txn_counter = 0
        #: callbacks fired when an undo walk fails partway — the database
        #: registers one that degrades to read-only, because a half-rolled-
        #: back transaction leaves the heaps in a state no retry can fix
        self.on_undo_failure: List[Callable[[BaseException], None]] = []
        #: lifetime counters, exposed through Database.metrics_snapshot()
        self.stats: Dict[str, int] = {
            "begins": 0, "commits": 0, "rollbacks": 0, "undo_failures": 0
        }

    # -- state ------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while an explicit transaction is open."""
        return self._entries is not None

    def begin(self) -> int:
        """Open a transaction; returns its id.  Nested BEGIN is an error."""
        if self.active:
            raise TransactionError("a transaction is already open")
        self._entries = []
        self.savepoints.clear()
        self._txn_counter += 1
        self.stats["begins"] += 1
        return self._txn_counter

    def commit(self) -> None:
        """Close the open transaction, keeping its effects, and write its
        redo lines to the WAL as one group."""
        if not self.active:
            raise TransactionError("COMMIT without BEGIN")
        entries = self._entries
        self._entries = None
        self.savepoints.clear()
        self.stats["commits"] += 1
        if self._wal is not None:
            self._wal.commit([e.redo for e in entries if e.redo is not None])

    def rollback(self) -> None:
        """Undo every change of the open transaction, newest first.

        Its redo lines go with the entries, so nothing of it reaches the
        WAL.  If the undo walk itself fails partway (a heap write error
        while re-inserting a deleted row, say), the transaction is left
        half-rolled-back: some entries were undone, the rest cannot be.
        That state is unrecoverable in place, so the failure is *recorded*
        — ``undo_failures`` counts it and every ``on_undo_failure`` hook
        fires (the database's hook degrades to read-only) — and a
        :class:`TransactionError` chains the original cause.
        """
        if not self.active:
            raise TransactionError("ROLLBACK without BEGIN")
        entries = self._entries
        self._entries = None  # log nothing while undoing
        self.savepoints.clear()
        self.stats["rollbacks"] += 1
        try:
            self._undo(entries)
        # the cause is re-raised chained as TransactionError below
        except Exception as exc:  # wowlint: allow WOW002
            self._undo_failed(exc)
            raise TransactionError(
                f"rollback failed partway; remaining undo entries are "
                f"unrecoverable: {exc}"
            ) from exc

    def mark(self) -> int:
        """Current undo-log position (for statement-level atomicity)."""
        return len(self._entries) if self._entries is not None else 0

    def rollback_to(self, mark: int) -> None:
        """Undo entries logged after *mark*, keeping the transaction open.

        Like :meth:`rollback`, a failure inside the undo walk leaves rows
        no later undo can reach; it is recorded and degrades the database
        rather than silently dropping the remaining entries.
        """
        if self._entries is None:
            raise TransactionError("rollback_to outside a transaction")
        tail = self._entries[mark:]
        del self._entries[mark:]
        keep, self._entries = self._entries, None  # log nothing while undoing
        try:
            self._undo(tail)
        # the cause is re-raised chained as TransactionError below
        except Exception as exc:  # wowlint: allow WOW002
            self._undo_failed(exc)
            raise TransactionError(
                f"statement rollback failed partway; remaining undo entries "
                f"are unrecoverable: {exc}"
            ) from exc
        finally:
            self._entries = keep

    # -- savepoints --------------------------------------------------------

    def savepoint(self, name: str) -> None:
        if not self.active:
            raise TransactionError("SAVEPOINT outside a transaction")
        self.savepoints[name.lower()] = self.mark()

    def rollback_to_savepoint(self, name: str) -> None:
        mark = self.savepoints.get(name.lower())
        if mark is None:
            raise TransactionError(f"no savepoint named {name!r}")
        self.rollback_to(mark)
        # Savepoints created after this one are gone.
        self.savepoints = {n: m for n, m in self.savepoints.items() if m <= mark}

    def release_savepoint(self, name: str) -> None:
        if self.savepoints.pop(name.lower(), None) is None:
            raise TransactionError(f"no savepoint named {name!r}")

    # -- undo ----------------------------------------------------------------

    def _undo_failed(self, exc: BaseException) -> None:
        """Record a partial undo: count it and fire the degradation hooks."""
        self.stats["undo_failures"] += 1
        for hook in self.on_undo_failure:
            hook(exc)

    def _undo(self, entries: List[UndoEntry]) -> None:
        translation: Dict[Tuple[int, RowId], RowId] = {}

        def resolve(table: Table, rid: RowId) -> RowId:
            return translation.get((id(table), rid), rid)

        for entry in reversed(entries):
            if entry.kind == "insert":
                entry.table.delete(resolve(entry.table, entry.rid))
            elif entry.kind == "delete":
                new_rid = entry.table.insert(entry.row)
                # The row rarely lands back on its old slot.  Earlier
                # entries (still to be undone) reference the freed rid, so
                # route them to the re-inserted copy.
                if entry.rid is not None and new_rid != entry.rid:
                    translation[(id(entry.table), entry.rid)] = new_rid
            elif entry.kind == "update":
                current = resolve(entry.table, entry.rid)
                new_rid, _old = entry.table.update(current, entry.row)
                if new_rid != current:
                    translation[(id(entry.table), entry.rid)] = new_rid
            else:  # pragma: no cover - exhaustive
                raise TransactionError(f"unknown undo kind {entry.kind!r}")

    # -- logging -----------------------------------------------------------
    #
    # Each change is logged once, undo and redo together, so every mark
    # covers both.

    def log_insert(self, table: Table, rid: RowId, redo: Optional[str] = None) -> None:
        if self._entries is not None:
            self._entries.append(UndoEntry("insert", table, rid=rid, redo=redo))

    def log_delete(
        self,
        table: Table,
        row: Tuple[Any, ...],
        rid: Optional[RowId] = None,
        redo: Optional[str] = None,
    ) -> None:
        if self._entries is not None:
            self._entries.append(
                UndoEntry("delete", table, rid=rid, row=row, redo=redo)
            )

    def log_update(
        self,
        table: Table,
        new_rid: RowId,
        old_row: Tuple[Any, ...],
        redo: Optional[str] = None,
    ) -> None:
        if self._entries is not None:
            self._entries.append(
                UndoEntry("update", table, rid=new_rid, row=old_row, redo=redo)
            )

    def note_rid_moved(self, table: Table, old_rid: RowId, new_rid: RowId) -> None:
        """Fix up logged rids when a later update moves a row.

        If an earlier entry in the open transaction references *old_rid*, it
        must now reference *new_rid* (the undo walk resolves newest-first, so
        rewriting in place is simplest and exact).
        """
        if self._entries is None:
            return
        for entry in self._entries:
            if entry.table is table and entry.rid == old_rid:
                entry.rid = new_rid
