"""The statement log: telemetry-as-relations for every executed statement.

The paper's thesis — everything browsable through a form over a relational
view — applies to the engine's own telemetry too.  :class:`StatementLog`
records every ``Database.execute`` and prepared execution into a bounded
in-memory ring (and, optionally, a rotating JSONL file sink), and the
records are queryable as the ``_statements`` system table — and, filtered
by duration, as ``_slow_ops`` (see :mod:`repro.obs.systables`) — and
browsable in the F12 query-inspector window.  It is the engine's only
per-statement record.

Each :class:`StatementRecord` carries the statement's normalized SQL, its
**fingerprint** (literals and parameters lifted to ``?`` — the shape key
the future interface-mining work starts from), plan-cache hit/miss,
the physical **plan fingerprint**, duration, pages read, rows returned, and
— for sampled or EXPLAIN ANALYZE'd executions — per-operator estimated vs
actual row counts.  That est/act signal, aggregated per plan in
:attr:`StatementLog.plan_stats`, is exactly what the adaptive optimizer
(ROADMAP item 2) will consume to re-plan badly estimated statements; the
``python -m repro.obs --misestimates`` CLI reports it today.

All file I/O goes through the :class:`~repro.relational.faults.IOShim`, so
the crash-exhaustion harness counts, crashes on, and tears sink writes like
any other durable write; a torn trailing line is skipped (and counted) on
replay by :func:`read_jsonl`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import LexError
from repro.relational.faults import DEFAULT_IO, IOShim
from repro.sql.lexer import tokenize

#: ring size for the in-memory statement ring (0 disables capture)
DEFAULT_CAPACITY = 256
#: default rotation threshold for the JSONL sink
DEFAULT_SINK_MAX_BYTES = 1_000_000

#: token kinds replaced by ``?`` when fingerprinting (constants only —
#: identifiers and keywords shape the statement, literals parameterize it)
_LITERAL_KINDS = frozenset({"INT", "FLOAT", "STRING"})


def fingerprint_sql(sql: str) -> str:
    """A stable fingerprint of *sql* with literals lifted to ``?``.

    Two statements that differ only in constants (``id = 3`` vs ``id = 7``)
    — or in whitespace or keyword case — share a fingerprint, so
    ``_statements`` aggregates them as one shape.  Unlexable text falls
    back to a hash of the normalized string.
    """
    try:
        tokens = tokenize(sql)
    except LexError:
        shape = " ".join(sql.split())
    else:
        shape = " ".join(
            "?" if token.kind in _LITERAL_KINDS or token.kind == "PARAM" else str(token.value)
            for token in tokens
            if token.kind != "EOF"
        )
    return hashlib.sha1(shape.encode("utf-8")).hexdigest()[:12]


def plan_fingerprint(root: Any) -> str:
    """A structural fingerprint of a physical plan (labels, preorder).

    Cached on the plan object, so cached plans and prepared statements pay
    the walk once.
    """
    cached = getattr(root, "_plan_fp", None)
    if cached is not None:
        return cached
    labels: List[str] = []

    def walk(op: Any, depth: int) -> None:
        labels.append(f"{depth}:{op.label()}")
        for child in op.children():
            walk(child, depth + 1)

    walk(root, 0)
    fp = hashlib.sha1("|".join(labels).encode("utf-8")).hexdigest()[:12]
    try:
        root._plan_fp = fp
    except AttributeError:  # operators with __slots__ would land here
        pass
    return fp


def misestimate_factor(est: Optional[float], act: Optional[int]) -> Optional[float]:
    """How far off an estimate was: ``max(est/act, act/est)``, floored at 1.

    Both sides are clamped to 1 row so empty results do not divide by zero;
    a perfect estimate scores 1.0, an estimate 10x too high (or low) scores
    10.0.  None when there was no estimate.
    """
    if est is None or act is None:
        return None
    e = max(float(est), 1.0)
    a = max(float(act), 1.0)
    return max(e / a, a / e)


class JsonlSink:
    """An append-only JSONL file with size-capped rotation.

    When the live file would cross ``max_bytes`` it is renamed to
    ``<path>.1`` (replacing any previous rotation) and a fresh file is
    started — so the sink holds at most ~``2 * max_bytes`` on disk however
    long the session runs.  All writes go through the :class:`IOShim`.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = DEFAULT_SINK_MAX_BYTES,
        io: Optional[IOShim] = None,
    ) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.io = io if io is not None else DEFAULT_IO
        self.rotations = 0
        self.bytes_written = 0
        self._fd: Optional[int] = None
        self._size = 0

    def _open(self) -> None:
        self._fd = self.io.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._size = os.fstat(self._fd).st_size

    def _rotate(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self.io.replace(self.path, self.path + ".1")
        self.rotations += 1
        self._open()

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line, rotating at the size cap."""
        data = (json.dumps(record, separators=(",", ":"), default=str) + "\n").encode(
            "utf-8"
        )
        if self._fd is None:
            self._open()
        if self._size > 0 and self._size + len(data) > self.max_bytes:
            self._rotate()
        self.io.write_all(self._fd, data)
        self._size += len(data)
        self.bytes_written += len(data)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def read_jsonl(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Replay a JSONL statement log: ``(records, skipped_lines)``.

    Tolerates a torn trailing line (crash mid-append) — and any other
    undecodable line — by skipping and counting it, so a log written up to
    the moment of a crash is always readable.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(doc, dict):
                records.append(doc)
            else:
                skipped += 1
    return records, skipped


class StatementRecord:
    """One executed statement, as captured by the log."""

    __slots__ = (
        "seq", "ts", "session", "kind", "sql", "fingerprint", "params",
        "cache", "plan_fp", "est_rows", "rows", "pages_read", "duration_ms",
        "error", "ops",
        # capture-time scratch (not exported)
        "_start", "_pages0", "_hits0", "_misses0",
    )

    def __init__(self) -> None:
        self.seq = 0
        self.ts = 0.0
        #: session id the statement ran under (None in embedded use) —
        #: the join key against the _sessions telemetry table
        self.session: Optional[int] = None
        self.kind: Optional[str] = None
        self.sql: Optional[str] = None
        self.fingerprint: Optional[str] = None
        self.params: Optional[str] = None
        self.cache: Optional[str] = None
        self.plan_fp: Optional[str] = None
        self.est_rows: Optional[float] = None
        self.rows: Optional[int] = None
        self.pages_read: Optional[int] = None
        self.duration_ms: Optional[float] = None
        self.error: Optional[str] = None
        #: per-operator [{"i": idx, "op": label, "est": float|None, "act": int}]
        self.ops: Optional[List[Dict[str, Any]]] = None
        self._start = 0.0
        self._pages0 = 0
        self._hits0 = 0
        self._misses0 = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "session": self.session,
            "kind": self.kind,
            "sql": self.sql,
            "fingerprint": self.fingerprint,
            "params": self.params,
            "cache": self.cache,
            "plan": self.plan_fp,
            "est_rows": self.est_rows,
            "rows": self.rows,
            "pages_read": self.pages_read,
            "duration_ms": self.duration_ms,
            "error": self.error,
            "ops": self.ops,
        }


class PlanOpStat:
    """Aggregated est-vs-act for one operator position of one plan shape."""

    __slots__ = ("plan_fp", "op_index", "label", "execs", "est_rows",
                 "act_total", "worst_factor")

    def __init__(self, plan_fp: str, op_index: int, label: str) -> None:
        self.plan_fp = plan_fp
        self.op_index = op_index
        self.label = label
        self.execs = 0
        self.est_rows: Optional[float] = None
        self.act_total = 0
        self.worst_factor: Optional[float] = None

    def observe(self, est: Optional[float], act: int) -> None:
        self.execs += 1
        self.est_rows = est
        self.act_total += act
        factor = misestimate_factor(est, act)
        if factor is not None and (
            self.worst_factor is None or factor > self.worst_factor
        ):
            self.worst_factor = factor

    @property
    def mean_act(self) -> float:
        return self.act_total / self.execs if self.execs else 0.0


class StatementLog:
    """Bounded ring of executed statements + optional JSONL sink.

    The database begins a capture before dispatching a statement and
    finishes it with the outcome; plan-level details (``note_plan``,
    ``note_operators``) are filled in by the select path while the capture
    is *current*.  ``sample_every=N`` makes every Nth SELECT execute
    through a freshly planned, instrumented tree (never the cached one —
    instrumentation wrappers must not leak into cached plans), capturing
    true per-operator cardinalities at a controlled cost; ``0`` disables
    sampling, and EXPLAIN ANALYZE always contributes per-operator rows.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[JsonlSink] = None,
        sample_every: int = 0,
        io: Optional[IOShim] = None,
    ) -> None:
        self.capacity = capacity
        self._ring: Deque[StatementRecord] = deque(maxlen=max(capacity, 0))
        self.sink = sink
        self.sample_every = sample_every
        self.io = io if io is not None else DEFAULT_IO
        self._seq = 0
        self._since_sample = 0
        #: guards the ring, counters, plan_stats, and sink writes — the
        #: engine latch serialises *statements*, but sessions and direct
        #: callers may publish records concurrently
        self._lock = threading.Lock()
        #: capture in flight (statements are serialised by the engine
        #: latch, so one in-flight capture suffices)
        self.current: Optional[StatementRecord] = None
        #: (plan_fp, op_index) -> PlanOpStat, fed by samples + EXPLAIN ANALYZE
        self.plan_stats: Dict[Tuple[str, int], PlanOpStat] = {}
        self.counters = {"captured": 0, "dropped": 0, "sampled": 0, "errors": 0}

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    # -- capture protocol --------------------------------------------------

    def begin(
        self,
        pages_read: int,
        cache_hits: int,
        cache_misses: int,
        session: Optional[int] = None,
    ) -> StatementRecord:
        """Open a capture; counter arguments are begin-time snapshots."""
        record = StatementRecord()
        record.ts = time.time()
        record.session = session
        record._start = time.perf_counter()
        record._pages0 = pages_read
        record._hits0 = cache_hits
        record._misses0 = cache_misses
        self.current = record
        return record

    def describe(
        self,
        record: StatementRecord,
        sql: str,
        fingerprint: Optional[str],
        kind: str,
        params: Optional[Sequence[Any]] = None,
    ) -> None:
        """Fill the capture's identity fields (post statement lookup)."""
        record.sql = " ".join(sql.split())
        record.fingerprint = fingerprint
        record.kind = kind
        if params is not None:
            record.params = json.dumps(list(params), default=str)

    def note_cache(self, outcome: str) -> None:
        """Explicit per-call plan-cache attribution for the current capture.

        The database calls this at each hit/miss decision site.  The old
        scheme — diffing the shared cache's counters between begin and
        finish — mis-attributes under concurrency: another session's
        lookup between the two snapshots shows up in *this* statement's
        delta.  A "hit" sticks once set (parity with the delta scheme,
        where any hit won over a miss).
        """
        record = self.current
        if record is None:
            return
        if record.cache != "hit":
            record.cache = outcome

    def note_plan(self, plan: Any) -> None:
        """Record the physical plan the current capture executed."""
        record = self.current
        if record is None:
            return
        record.plan_fp = plan_fingerprint(plan)
        if plan.est_rows is not None:
            record.est_rows = float(plan.est_rows)

    def note_operators(
        self, plan_fp: str, ops: List[Dict[str, Any]], sampled: bool = False
    ) -> None:
        """Attach per-operator est/act rows (from a sample or ANALYZE)."""
        record = self.current
        if record is not None:
            record.ops = ops
            record.plan_fp = plan_fp
        with self._lock:
            if sampled:
                self.counters["sampled"] += 1
            for op in ops:
                key = (plan_fp, op["i"])
                stat = self.plan_stats.get(key)
                if stat is None:
                    stat = self.plan_stats[key] = PlanOpStat(
                        plan_fp, op["i"], op["op"]
                    )
                stat.observe(op.get("est"), op.get("act", 0))

    def take_sample(self) -> bool:
        """True when the current statement should run instrumented."""
        if self.sample_every <= 0 or self.current is None:
            return False
        self._since_sample += 1
        if self._since_sample >= self.sample_every:
            self._since_sample = 0
            return True
        return False

    def finish(
        self,
        record: StatementRecord,
        rows: Optional[int],
        pages_read: int,
        cache_hits: int,
        cache_misses: int,
        error: Optional[str] = None,
    ) -> None:
        """Complete a capture and publish it to the ring (and the sink)."""
        record.duration_ms = (time.perf_counter() - record._start) * 1000.0
        record.rows = rows
        record.pages_read = max(0, pages_read - record._pages0)
        if record.cache is None:
            # Fallback counter-delta attribution for callers that never
            # reached a note_cache() site (only sound single-session —
            # the database attributes explicitly per call).
            if cache_hits > record._hits0:
                record.cache = "hit"
            elif cache_misses > record._misses0:
                record.cache = "miss"
        if self.current is record:
            self.current = None
        with self._lock:
            if error is not None:
                record.error = error
                self.counters["errors"] += 1
            self._seq += 1
            record.seq = self._seq
            if len(self._ring) == self._ring.maxlen:
                self.counters["dropped"] += 1
            self._ring.append(record)
            self.counters["captured"] += 1
            sink = self.sink if self.sink is not None else _DEFAULT_SINK
            if sink is not None:
                sink.write(record.to_dict())

    # -- reading -----------------------------------------------------------

    def records(self) -> List[StatementRecord]:
        """Captured statements, oldest first."""
        with self._lock:
            return list(self._ring)

    def slow_records(self, threshold_ms: float) -> List[StatementRecord]:
        """Captured statements that took at least *threshold_ms*, oldest
        first — the rows of ``_slow_ops`` and F11's slow section."""
        return [r for r in self.records() if r.duration_ms >= threshold_ms]

    def plan_stat_rows(self) -> List[PlanOpStat]:
        """Aggregated per-plan operator stats, worst misestimates first."""
        with self._lock:
            return sorted(
                self.plan_stats.values(),
                key=lambda s: (-(s.worst_factor or 0.0), s.plan_fp, s.op_index),
            )

    def worst_factor_for(self, plan_fp: str) -> Optional[float]:
        """The worst est-vs-act factor observed anywhere in plan *plan_fp* —
        the adaptive optimizer's re-plan trigger signal."""
        worst: Optional[float] = None
        for (fp, _index), stat in self.plan_stats.items():
            if fp != plan_fp or stat.worst_factor is None:
                continue
            if worst is None or stat.worst_factor > worst:
                worst = stat.worst_factor
        return worst

    def forget_plan(self, plan_fp: str) -> None:
        """Drop the aggregates for *plan_fp* — called after a re-plan so the
        stale plan's misestimates cannot re-trigger the feedback loop."""
        for key in [k for k in self.plan_stats if k[0] == plan_fp]:
            del self.plan_stats[key]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.plan_stats.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Counters for ``metrics_snapshot()`` / the F11 window."""
        with self._lock:
            out: Dict[str, Any] = {
                "enabled": 1 if self.enabled else 0,
                "capacity": self.capacity,
                "entries": len(self._ring),
                "sample_every": self.sample_every,
                **self.counters,
            }
        sink = self.sink if self.sink is not None else _DEFAULT_SINK
        if sink is not None:
            out["sink_rotations"] = sink.rotations
            out["sink_bytes"] = sink.bytes_written
        return out

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    def __len__(self) -> int:
        return len(self._ring)


# -- process-wide default sink (CI telemetry artifacts) ----------------------

_DEFAULT_SINK: Optional[JsonlSink] = None


def set_default_sink(path: Optional[str], max_bytes: int = DEFAULT_SINK_MAX_BYTES) -> None:
    """Install (or, with None, remove) a process-wide fallback JSONL sink.

    Statement logs without their own sink write here; the tier-1 CI job
    sets this (via ``WOW_TELEMETRY_DIR`` in ``tests/conftest.py``) so a
    failing run uploads its full statement history as an artifact.
    """
    global _DEFAULT_SINK
    if _DEFAULT_SINK is not None:
        _DEFAULT_SINK.close()
    _DEFAULT_SINK = JsonlSink(path, max_bytes=max_bytes) if path else None


def get_default_sink() -> Optional[JsonlSink]:
    return _DEFAULT_SINK
