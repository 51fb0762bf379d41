"""Write-ahead logging and crash recovery for on-disk databases.

Protocol (see DESIGN.md S9 and docs/INTERNALS.md "Transactions and
recovery"):

* Data files (heap pages, catalog JSON) are written **only** at checkpoints
  — the pager is strict no-steal, so between checkpoints the files stay
  exactly at the last checkpointed state.
* Every committed statement/transaction appends its logical row operations
  to the WAL, followed by a commit marker, then fsyncs.
* Recovery = load the data files, then replay every op that is covered by a
  commit marker.  A trailing, unmarked group (a crash mid-commit) is
  discarded.
* ``checkpoint()`` flushes everything and truncates the WAL.

**Record format v2.**  Each line is ``2|<seq>|<crc32:8 hex>|<json>`` where
*seq* is the group sequence number (every record of a commit group,
including its commit marker, carries the same seq; seqs increase by one
per committed group and survive truncation via the catalog's
``checkpoint_seq``) and the CRC-32 covers ``<seq>|<json>``.  A flipped bit
anywhere in a record is caught by the CRC instead of being replayed as
data.  Replay skips groups with ``seq <= min_seq`` — how recovery avoids
re-applying work a crashed checkpoint already flushed to the heaps.

**v1 compatibility.**  Lines starting with ``{`` are v1 records (raw JSON,
no checksum, no seq); they replay exactly as before, so a database written
by an older build opens cleanly.  New records are always written as v2.

Torn-tail handling: any invalid line (bad CRC, bad JSON, unknown record
kind, bad UTF-8) *poisons* the current group.  If the log ends there it
was a torn final write and the group is discarded; if a valid record
follows, the damage is in the middle of the log and replay raises
:class:`~repro.errors.WalCorruptionError` — the database reacts by
degrading to read-only rather than guessing.  A discarded tail is also
**truncated from the file**: the fd is O_APPEND, so leaving the leftover
bytes in place would put the next commit right behind (or on the same
line as) them, and the following open would read that acknowledged group
as corruption.

Row values are JSON-encoded; DATE values round-trip as ISO strings through
:func:`repro.relational.types.coerce` at replay time.
"""

from __future__ import annotations

import datetime
import json
import os
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError, WalCorruptionError
from repro.relational.faults import DEFAULT_IO, IOShim

#: record kinds replay understands; anything else is treated as corruption
KNOWN_RECORD_KINDS = ("insert", "delete", "update", "commit")


def _encode_value(value: Any) -> Any:
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _encode_row(row: Sequence[Any]) -> List[Any]:
    return [_encode_value(v) for v in row]


def _crc(seq: int, payload: str) -> int:
    return zlib.crc32(f"{seq}|{payload}".encode("utf-8")) & 0xFFFFFFFF


def _frame(seq: int, payload: str) -> str:
    """A v2 log line for *payload* under group sequence *seq*."""
    return f"2|{seq}|{_crc(seq, payload):08x}|{payload}"


class _Invalid(Exception):
    """Internal: this log line cannot be trusted (reason in args)."""


def _parse_line(line: bytes) -> tuple:
    """Decode one log line -> (seq | None, record dict).

    Raises :class:`_Invalid` for anything unparseable or unknown; the
    caller decides whether that means a torn tail or real corruption.
    """
    try:
        text = line.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise _Invalid(f"undecodable bytes: {exc}") from exc
    if text.startswith("2|"):
        parts = text.split("|", 3)
        if len(parts) != 4:
            raise _Invalid("truncated v2 frame")
        _version, seq_text, crc_text, payload = parts
        try:
            seq = int(seq_text)
            crc = int(crc_text, 16)
        except ValueError as exc:
            raise _Invalid(f"bad v2 frame header: {exc}") from exc
        if _crc(seq, payload) != crc:
            raise _Invalid(f"CRC mismatch on seq {seq}")
    elif text.startswith("{"):
        seq, payload = None, text  # v1 record: raw JSON, no checksum
    else:
        raise _Invalid(f"unrecognized line prefix {text[:8]!r}")
    try:
        record = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise _Invalid(f"bad JSON: {exc}") from exc
    if not isinstance(record, dict) or record.get("t") not in KNOWN_RECORD_KINDS:
        raise _Invalid(f"unknown record kind {record!r:.60}")
    return seq, record


class WriteAheadLog:
    """Append-only logical redo log for one database directory."""

    def __init__(self, path: str, fsync: bool = True, io: Optional[IOShim] = None) -> None:
        self.path = path
        self._fsync = fsync
        self._io = io if io is not None else DEFAULT_IO
        self._fd: Optional[int] = self._io.open(
            path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        #: the sequence number the next committed group will carry
        self.next_seq = 1
        #: statistics for benchmarks/tests
        self.stats = {"commits": 0, "ops": 0, "bytes": 0, "fsyncs": 0, "appends": 0}
        #: recovery-side counters (kept apart from the write-side stats)
        self.recovery_stats: Dict[str, int] = {
            "replayed_ops": 0,
            #: replayed UPDATE/DELETE ops whose old image matched no row
            #: (counted by the caller's apply; the op is a no-op)
            "unmatched_ops": 0,
            "skipped_groups": 0,
            "torn_tail_records": 0,
            "tail_truncated_bytes": 0,
            "crc_errors": 0,
        }

    @property
    def last_seq(self) -> int:
        """The sequence number of the newest committed group (0 if none)."""
        return self.next_seq - 1

    # -- record encoders ----------------------------------------------------
    #
    # The log owns its record format, but not the uncommitted records: a
    # transaction keeps each encoded line beside the undo entry of the same
    # change and hands the whole group to commit().

    @staticmethod
    def log_insert(table: str, row: Sequence[Any]) -> str:
        return json.dumps({"t": "insert", "tab": table, "row": _encode_row(row)})

    @staticmethod
    def log_delete(table: str, row: Sequence[Any]) -> str:
        return json.dumps({"t": "delete", "tab": table, "row": _encode_row(row)})

    @staticmethod
    def log_update(table: str, old: Sequence[Any], new: Sequence[Any]) -> str:
        return json.dumps(
            {
                "t": "update",
                "tab": table,
                "old": _encode_row(old),
                "new": _encode_row(new),
            }
        )

    def commit(self, records: Sequence[str]) -> None:
        """Make one group durable: *records* + commit marker + fsync."""
        if self._fd is None:
            raise StorageError("WAL is closed")
        if not records:
            return
        seq = self.next_seq
        lines = [_frame(seq, line) for line in records]
        lines.append(_frame(seq, json.dumps({"t": "commit"})))
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        start = os.lseek(self._fd, 0, os.SEEK_END)
        try:
            self._io.write_all(self._fd, payload)
            self.stats["appends"] += 1
            if self._fsync:
                self._io.fsync(self._fd)
                self.stats["fsyncs"] += 1
        except OSError as exc:
            # The group — commit marker included — may already be in the
            # file (a write that landed but whose fsync failed), and replay
            # applies any marker-covered group regardless of fsync.  Make
            # the failure atomic: truncate back to the pre-append offset so
            # neither recovery nor a later append can observe a group the
            # caller was told did not commit.
            try:
                self._io.ftruncate(self._fd, start)
                os.lseek(self._fd, 0, os.SEEK_END)
            except OSError as trunc_exc:
                # Rollback failed too: the log may now hold a phantom
                # commit.  Burn its seq so the next successful group cannot
                # collide with it, and report both failures.
                self.next_seq = seq + 1
                raise StorageError(
                    f"WAL append failed ({exc}) and could not be rolled "
                    f"back ({trunc_exc}); the log may hold a phantom commit"
                ) from exc
            raise StorageError(f"WAL append failed: {exc}") from exc
        self.next_seq = seq + 1
        self.stats["commits"] += 1
        self.stats["ops"] += len(records)
        self.stats["bytes"] += len(payload)

    # -- recovery ------------------------------------------------------------

    def _lines(self) -> Iterator[Tuple[bytes, int]]:
        """Stream ``(line, end_offset)`` without materialising the file.

        *end_offset* is the file offset just past the line, its newline
        included — the offset replay truncates back to when everything
        after a commit marker is discarded.
        """
        tail = b""
        offset = 0
        read_pos = 0
        while True:
            chunk = self._io.pread(self._fd, 1 << 20, read_pos)
            if not chunk:
                break
            read_pos += len(chunk)
            tail += chunk
            lines = tail.split(b"\n")
            tail = lines.pop()
            for line in lines:
                offset += len(line) + 1
                yield line, offset
        os.lseek(self._fd, 0, os.SEEK_END)
        if tail:
            # No trailing newline: by construction this write never
            # finished, so the final fragment is torn by definition.
            offset += len(tail)
            yield tail, offset

    def replay(self, apply: Callable[[dict], None], min_seq: int = 0) -> int:
        """Feed every committed op with seq > *min_seq* to *apply*.

        Returns the applied op count.  Malformed trailing data (torn final
        write) is treated as an uncommitted group and ignored — and then
        **truncated from the file**, so the discard is durable rather than
        implicit (the fd is O_APPEND; leftover tail bytes would otherwise
        sit in front of the next commit and make the following open read
        that acknowledged group as corruption).  Malformed data *before* a
        later valid record raises
        :class:`~repro.errors.WalCorruptionError` because it means real
        corruption.  Groups at or below *min_seq* were already flushed to
        the heaps by a checkpoint and are skipped.
        """
        if self._fd is None:
            raise StorageError("WAL is closed")
        group: List[dict] = []
        group_seq: Optional[int] = None
        poisoned_at: Optional[str] = None
        pending_invalid = 0
        applied = 0
        max_seq = 0
        committed_end = 0  # offset just past the last commit marker
        log_end = 0        # offset just past the last line seen
        for line_no, (raw, end_offset) in enumerate(self._lines(), start=1):
            log_end = end_offset
            if not raw.strip():
                continue
            try:
                seq, record = _parse_line(raw)
                if group and seq != group_seq:
                    raise _Invalid(
                        f"group sequence mismatch: {seq} in group {group_seq}"
                    )
            except _Invalid as exc:
                if poisoned_at is None:
                    poisoned_at = f"line {line_no}: {exc}"
                if "CRC" in str(exc):
                    self.recovery_stats["crc_errors"] += 1
                pending_invalid += 1
                continue
            if poisoned_at is not None:
                raise WalCorruptionError(
                    f"WAL corruption in {self.path!r}: valid record after "
                    f"invalid data ({poisoned_at})"
                )
            if seq is not None:
                max_seq = max(max_seq, seq)
            if record["t"] == "commit":
                committed_end = end_offset
                if seq is not None and seq <= min_seq:
                    self.recovery_stats["skipped_groups"] += 1
                else:
                    for op in group:
                        apply(op)
                        applied += 1
                    self.recovery_stats["replayed_ops"] += len(group)
                group = []
                group_seq = None
            else:
                if not group:
                    group_seq = seq
                group.append(record)
        # Anything after the last commit marker — valid uncommitted records
        # and/or a torn final write — is discarded, not corruption.  Make
        # the discard durable by truncating it away: the next commit is
        # appended at EOF, so leftover tail bytes would otherwise turn that
        # acknowledged group into a same-line continuation (torn fragment)
        # or a group-seq-mismatching suffix (orphan records) on reopen.
        self.recovery_stats["torn_tail_records"] += pending_invalid
        if log_end > committed_end:
            self._io.ftruncate(self._fd, committed_end)
            os.lseek(self._fd, 0, os.SEEK_END)
            if self._fsync:
                self._io.fsync(self._fd)
            self.recovery_stats["tail_truncated_bytes"] += log_end - committed_end
        self.next_seq = max(self.next_seq, max_seq + 1, min_seq + 1)
        return applied

    def truncate(self) -> None:
        """Erase the log (after a checkpoint has made data files current)."""
        if self._fd is None:
            raise StorageError("WAL is closed")
        self._io.ftruncate(self._fd, 0)
        os.lseek(self._fd, 0, os.SEEK_END)
        if self._fsync:
            self._io.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
