"""Runs a workload, checks its outputs and turns timings into metrics.

One run of one workload is:

* generate the inputs from the seed (nothing timed yet);
* set up ``SETUP_REPS`` times — build, checkpoint, open forms or start the
  server and connect — and keep the last one; ``setup_s`` is the median;
* a warm-up phase (discarded), ``gc.collect()``, then the timed phase: a
  fixed operation count split into ``BLOCKS`` equal blocks.  Every timed
  end-to-end value is the **median of the block values**; the smallest and
  largest block value are kept as the run's own spread;
* compare the ``students`` table with the generator's model, take the
  crash image (SIGKILL for the server), reopen copies of it up to
  ``REOPEN_REPS`` times (``reopen_s`` is the median) and check the first
  copy row by row.

A traced run (``--trace 1``) does half the operations twice on two fresh
databases: once plain, once with :mod:`trace` wrappers installed before
set-up.  The per-layer numbers come from the second pass, and
``trace.overhead_ratio`` is the first pass's throughput over the second's.
End-to-end numbers are never taken from a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.relational.database import Database

from . import trace
from .workloads import (
    BLOCKS, BY_NAME, ROOT, STUDENTS_SQL, WORKLOADS, Inputs, Phase, Script, Workload,
    reset_peak_rss,
)

SETUP_REPS = 3
#: reopen until this many repetitions or this many seconds, whichever first
#: (replaying a long WAL takes seconds, and one such timing is steady enough)
REOPEN_REPS = 5
REOPEN_BUDGET_SECONDS = 4.0
#: how long past a phase's deadline its caller threads are waited for
JOIN_GRACE_SECONDS = 5.0
#: a traced run does this share of the operations, twice
TRACE_SHARE = 0.5
DEFAULT_SECONDS = 10
FLUSH_POLICY = "fsync per commit (Database(fsync=True)); heap pages written at checkpoints only"
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
WORK_ROOT = os.path.join(ROOT, ".bench_build")

#: (name, unit, better, bound) — mirrored in BENCHMARK.json (a test compares)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("light_op_p50_us", "us", "lower", 0.20),
    ("heavy_op_p50_us", "us", "lower", 0.20),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("reopen_s", "s", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: (name, unit, better) — mirrored in BENCHMARK.json
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.self_us", "us", "lower"),
    ("core.keystroke_p99_us", "us", "lower"),
    ("windows.dispatch_self_us", "us", "lower"),
    ("windows.render_us", "us", "lower"),
    ("windows.cells_per_key", "count", "lower"),
    ("forms.self_us", "us", "lower"),
    ("forms.refresh_us", "us", "lower"),
    ("forms.refreshes_per_key", "count", "lower"),
    ("forms.save_us", "us", "lower"),
    ("views.analyze_us", "us", "lower"),
    ("views.analyze_calls_per_commit", "count", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.parses_per_op", "count", "lower"),
    ("plancache.hit_ratio", "ratio", "higher"),
    ("plancache.misses_per_op", "count", "lower"),
    ("planner.plan_us", "us", "lower"),
    ("planner.plans_per_op", "count", "lower"),
    ("database.self_us", "us", "lower"),
    ("database.calls_per_op", "count", "lower"),
    ("executor.batches_per_op", "count", "lower"),
    ("executor.rows_examined_per_row_returned", "ratio", "lower"),
    ("table.read_us", "us", "lower"),
    ("table.write_us", "us", "lower"),
    ("table.calls_per_op", "count", "lower"),
    ("segments.hit_ratio", "ratio", "higher"),
    ("segments.builds_per_op", "count", "lower"),
    ("pager.hit_ratio", "ratio", "higher"),
    ("pager.misses_per_op", "count", "lower"),
    ("pager.evictions_per_op", "count", "lower"),
    ("pager.prefetch_io_per_op", "count", "lower"),
    ("pager.page_writes_per_commit", "count", "lower"),
    ("pager.io_us", "us", "lower"),
    ("btree.node_visits_per_op", "count", "lower"),
    ("txn.commit_us", "us", "lower"),
    ("wal.commit_us", "us", "lower"),
    ("wal.fsyncs_per_commit", "count", "lower"),
    ("wal.bytes_per_commit", "bytes", "lower"),
    ("wal.replay_us_per_op", "us", "lower"),
    ("locks.acquire_us", "us", "lower"),
    ("locks.waits_per_kop", "count", "lower"),
    ("locks.deadlocks", "count", "lower"),
    ("locks.timeouts", "count", "lower"),
    ("session.self_us", "us", "lower"),
    ("session.retries", "count", "lower"),
    ("session.aborts", "count", "lower"),
    ("session.stmt_p99_us", "us", "lower"),
    ("session.conn_scaling", "ratio", "higher"),
    ("wire.overhead_us", "us", "lower"),
    ("wire.bytes_per_op", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
)

#: the ``*_us`` metrics that are self times of disjoint span sets; their sum
#: over the traced time per operation is ``trace.attributed_ratio``
SELF_TIME_METRICS = (
    "core.self_us", "windows.dispatch_self_us", "windows.render_us", "forms.self_us",
    "views.analyze_us", "sql.parse_us", "planner.plan_us", "database.self_us",
    "table.read_us", "table.write_us", "pager.io_us", "txn.commit_us", "wal.commit_us",
    "locks.acquire_us", "session.self_us", "wire.overhead_us",
)


@dataclass
class Metric:
    value: float
    unit: str
    #: smallest and largest block (or repetition) value, and how many
    low: float = 0.0
    high: float = 0.0
    samples: int = 0


@dataclass
class CallerRecord:
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    failed: int = 0
    error: str = ""


@dataclass
class PhaseResult:
    phase: Phase
    records: List[CallerRecord]

    @property
    def attempted(self) -> int:
        return sum(len(script) for script in self.phase.scripts)

    @property
    def failed(self) -> int:
        """Wrong or refused operations plus those never reached."""
        return sum(
            record.failed + len(script) - len(record.ends)
            for script, record in zip(self.phase.scripts, self.records)
        )

    def busy_seconds(self) -> float:
        return sum(r.ends[-1] - r.starts[0] for r in self.records if r.ends)

    def latencies(self) -> List[float]:
        return [e - s for r in self.records for s, e in zip(r.starts, r.ends)]

    def blocks(self) -> Dict[str, List[float]]:
        """Per block: throughput (callers added up) and the class medians."""
        out: Dict[str, List[float]] = {"ops_per_s": [], "light_op_p50_us": [], "heavy_op_p50_us": []}
        for block in range(BLOCKS):
            rate = 0.0
            by_class: Dict[bool, List[float]] = {False: [], True: []}
            for script, record in zip(self.phase.scripts, self.records):
                size = len(script) // BLOCKS
                low, high = block * size, min((block + 1) * size, len(record.ends))
                if high <= low:
                    continue
                rate += (high - low) / (record.ends[high - 1] - record.starts[low])
                for index in range(low, high):
                    by_class[script.heavy[index]].append(record.ends[index] - record.starts[index])
            out["ops_per_s"].append(rate)
            for heavy, name in ((False, "light_op_p50_us"), (True, "heavy_op_p50_us")):
                if by_class[heavy]:
                    out[name].append(statistics.median(by_class[heavy]) * 1e6)
        return out


def _of_blocks(values: Sequence[float], unit: str, samples: int) -> Metric:
    if not values:
        return Metric(0.0, unit)
    return Metric(statistics.median(values), unit, min(values), max(values), samples)


# ---------------------------------------------------------------------------
# Driving the phases
# ---------------------------------------------------------------------------


def _drive(call: Callable[[Any], Any], verify: Callable[..., bool], script: Script,
           record: CallerRecord, deadline: float) -> None:
    """One closed-loop caller: the next operation waits for the last."""
    starts, ends = record.starts, record.ends
    for payload, check in zip(script.payloads, script.checks):
        start = perf_counter()
        try:
            result = call(payload)
        except Exception as exc:  # a refused operation is a failed one, not a crash
            end = perf_counter()
            ok = False
            record.error = record.error or repr(exc)
        else:
            end = perf_counter()
            ok = check is None or verify(check, result)
        starts.append(start)
        ends.append(end)
        if not ok:
            record.failed += 1
            record.error = record.error or f"wrong output for {payload!r}"
        if end > deadline:
            break  # the shortfall is counted as failed, never waited for


def run_phase(env: Any, phase: Phase, limit_seconds: float) -> PhaseResult:
    records = [CallerRecord() for _ in phase.scripts]
    deadline = perf_counter() + limit_seconds
    if len(phase.scripts) == 1:
        call, verify = env.caller(0)
        _drive(call, verify, phase.scripts[0], records[0], deadline)
        return PhaseResult(phase, records)
    threads = []
    for index, script in enumerate(phase.scripts):
        call, verify = env.caller(index)
        threads.append(threading.Thread(
            target=_drive, args=(call, verify, script, records[index], deadline), daemon=True,
        ))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, deadline - perf_counter()) + JOIN_GRACE_SECONDS)
    if any(thread.is_alive() for thread in threads):
        env.abort()  # a caller is stuck in a reply that will not come
        for thread in threads:
            thread.join(JOIN_GRACE_SECONDS)
    return PhaseResult(phase, records)


def drive(env: Any, inputs: Inputs, seconds: float,
          before_last: Optional[Callable[[], None]] = None) -> List[PhaseResult]:
    results = []
    for phase in inputs.phases:
        if before_last is not None and phase is inputs.phases[-1]:
            before_last()
        gc.collect()
        results.append(run_phase(env, phase, limit_seconds=max(30.0, 6.0 * seconds)))
    return results


def check_students(inputs: Inputs, rows: Sequence[Sequence[Any]]) -> Tuple[int, int]:
    """(rows compared, rows wrong) against the generator's model."""
    if inputs.final_students is None:
        return 0, 0
    want = inputs.final_students
    got = sorted(tuple(row) for row in rows)
    wrong = abs(len(got) - len(want)) + sum(1 for a, b in zip(got, want) if a != b)
    return len(want), wrong


@dataclass
class Reopened:
    seconds: List[float]
    attempted: int
    failed: int
    replayed_ops: int


def reopen_after_crash(env: Any, inputs: Inputs, work: str) -> Reopened:
    """Take the crash image and time opening copies of it to a first answer."""
    image = os.path.join(work, "image")
    env.crash_image(image)
    out = Reopened([], 0, 0, 0)
    for rep in range(REOPEN_REPS):
        if sum(out.seconds) > REOPEN_BUDGET_SECONDS:
            break
        copy = os.path.join(work, f"reopen{rep}")
        shutil.copytree(image, copy)
        gc.collect()  # the database closed a moment ago is cyclic garbage
        start = perf_counter()
        db = Database(path=copy, fsync=True, **env.db_options)
        try:
            count = db.execute("SELECT COUNT(*) FROM students").scalar()
            out.seconds.append(perf_counter() - start)
            if rep == 0:
                out.replayed_ops = db.metrics_snapshot()["integrity"].get("wal_replayed_ops", 0)
                if inputs.final_students is None:
                    out.attempted, out.failed = 1, int(count <= 0)
                else:
                    out.attempted, out.failed = check_students(inputs, db.query(STUDENTS_SQL))
        finally:
            db.close()
        shutil.rmtree(copy)
    shutil.rmtree(image)
    return out


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    traced: bool
    metrics: Dict[str, Metric]
    attempted: int
    failed: int
    errors: List[str]
    detail: Dict[str, Any]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def last_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": m.value, "unit": m.unit} for n, m in self.metrics.items()},
        })


def _tally(phases: Sequence[PhaseResult]) -> Tuple[int, int, List[str]]:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [r.error for p in phases for r in p.records if r.error]
    return attempted, failed, errors


def _fresh_dir(work: str, name: str) -> str:
    path = os.path.join(work, name)
    os.makedirs(path)
    return path


def run_plain(workload: Workload, seed: int, seconds: float, work: str) -> RunResult:
    inputs = workload.generate(seed, seconds)
    setups: List[float] = []
    env = None
    try:
        for rep in range(SETUP_REPS):
            if env is not None:
                env.close()
                env = None
                shutil.rmtree(os.path.join(work, f"setup{rep - 1}"))
            directory = _fresh_dir(work, f"setup{rep}")
            gc.collect()
            start = perf_counter()
            env = workload.setup(inputs, directory, traced=False)
            setups.append(perf_counter() - start)
        phases = drive(env, inputs, seconds)
        attempted, failed, errors = _tally(phases)
        compared, wrong = check_students(inputs, env.students_now())
        peak_rss = env.peak_rss_mb()
        reopened = reopen_after_crash(env, inputs, work)
    finally:
        if env is not None:
            env.close()
    timed = phases[-1]
    blocks = timed.blocks()
    samples = timed.attempted
    heavy = sum(sum(script.heavy) for script in timed.phase.scripts)
    metrics = {
        "setup_s": _of_blocks(setups, "s", len(setups)),
        "light_op_p50_us": _of_blocks(blocks["light_op_p50_us"], "us", samples - heavy),
        "heavy_op_p50_us": _of_blocks(blocks["heavy_op_p50_us"], "us", heavy),
        "ops_per_s": _of_blocks(blocks["ops_per_s"], "1/s", samples),
        "reopen_s": _of_blocks(reopened.seconds, "s", len(reopened.seconds)),
        "peak_rss_mb": Metric(peak_rss, "MiB", peak_rss, peak_rss, 1),
    }
    if wrong or reopened.failed:
        errors.append(f"students table: {wrong} rows wrong before the crash, "
                      f"{reopened.failed} after reopening")
    return RunResult(
        workload.name, seed, seconds, False, metrics,
        attempted + compared + reopened.attempted,
        failed + wrong + reopened.failed,
        errors,
        {
            "timed_seconds": timed.busy_seconds() / len(timed.records),
            "callers": len(timed.records),
            "wal_ops_replayed_on_reopen": reopened.replayed_ops,
            "phases": {p.phase.name: p.attempted for p in phases},
        },
    )


def _delta(after: Dict[str, Any], before: Dict[str, Any], section: str, key: str) -> float:
    return float(after.get(section, {}).get(key, 0)) - float(before.get(section, {}).get(key, 0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_traced(workload: Workload, seed: int, seconds: float, work: str) -> RunResult:
    inputs = workload.generate(seed, seconds * TRACE_SHARE)
    env = workload.setup(inputs, _fresh_dir(work, "plain"), traced=False)
    try:
        plain = drive(env, inputs, seconds)
    finally:
        env.close()
    shutil.rmtree(os.path.join(work, "plain"))

    recorder = trace.Recorder()
    # before set-up: Database stores ``wal.commit`` as a bound method when it
    # is constructed, which a later patch would not reach
    recorder.install(trace.BENCH_TARGETS)
    try:
        env = workload.setup(inputs, _fresh_dir(work, "traced"), traced=True)
        try:
            before: Dict[str, Any] = {}

            def before_last() -> None:
                recorder.clear()
                env.reset_spans()
                before.update(env.snapshot())

            traced = drive(env, inputs, seconds, before_last)
            after = env.snapshot()
            threads = [list(spans) for spans in recorder.threads()]
            counts = dict(recorder.counts)
            server_threads, server_counts = env.remote_spans()
            threads += server_threads
            for name, amount in server_counts.items():
                counts[name] = counts.get(name, 0) + amount
            recorder.clear()
            reopened = reopen_after_crash(env, inputs, work)
            replay = trace.get(trace.summarize(recorder.threads()), "wal.replay")
        finally:
            env.close()
    finally:
        recorder.uninstall()

    attempted, failed, errors = _tally(list(plain) + list(traced))
    nesting = trace.nesting_errors(threads)
    if nesting:
        errors.append(f"{nesting} spans do not nest inside their parent")
    summary = trace.summarize(threads)
    metrics = layer_metrics(plain, traced, threads, summary, counts, before, after, reopened, replay)
    return RunResult(
        workload.name, seed, seconds, True, metrics,
        attempted + reopened.attempted + 1,
        failed + reopened.failed + int(nesting > 0),
        errors,
        {
            "spans": sum(len(spans) for spans in threads),
            "threads": threads,
            "layer_self_us_per_op": {
                layer: seconds_ * 1e6 / max(1, traced[-1].attempted)
                for layer, seconds_ in sorted(trace.selftime_by_layer(summary).items())
            },
        },
    )


def layer_metrics(plain: Sequence[PhaseResult], traced: Sequence[PhaseResult],
                  threads: Sequence[Sequence[trace.Span]], summary: Dict[str, trace.SpanStats],
                  counts: Dict[str, int],
                  before: Dict[str, Any], after: Dict[str, Any],
                  reopened: Reopened, replay: trace.SpanStats) -> Dict[str, Metric]:
    """Every PER_LAYER metric from the traced last phase (see README.md)."""
    ops = max(1, sum(len(record.ends) for record in traced[-1].records))
    commits = _delta(after, before, "wal", "commits")

    def self_us(*names: str) -> float:
        return trace.get(summary, *names).self_time * 1e6 / ops

    def calls(*names: str) -> float:
        return trace.get(summary, *names).calls

    def per_op(section: str, key: str) -> float:
        return _delta(after, before, section, key) / ops

    def hit_ratio(section: str, hits: str, misses: str) -> float:
        """1 - misses/lookups; with no lookup at all nothing missed: 1."""
        hit, miss = _delta(after, before, section, hits), _delta(after, before, section, misses)
        return 1.0 - _ratio(miss, hit + miss)

    forms = ("forms.handle_key", "forms.refresh", "forms.save", "forms.execute_query", "forms.delete_record")
    database = ("database.execute", "database.insert", "database.update", "database.delete",
                "database.prepared_query", "database.prepared_execute")
    reads = ("table.rows_batched", "table.read_many", "table.find_by_key")
    writes = ("table.insert", "table.update", "table.delete")
    rows_returned = sum(v for k, v in counts.items() if k.endswith(".rows"))
    remote = trace.get(summary, "wire.remote_execute")
    served = trace.get(summary, "session.execute")
    plain_rate = statistics.median(plain[-1].blocks()["ops_per_s"])
    traced_rate = statistics.median(traced[-1].blocks()["ops_per_s"])
    solo_rate = statistics.median(plain[-2].blocks()["ops_per_s"]) if len(plain) > 2 else 0.0

    values: Dict[str, float] = {
        "core.self_us": self_us("core.send_key"),
        "core.keystroke_p99_us": (
            _percentile(plain[-1].latencies(), 0.99) * 1e6 if "core.send_key" in summary else 0.0),
        "windows.dispatch_self_us": self_us("windows.dispatch"),
        "windows.render_us": self_us("windows.render_frame"),
        "windows.cells_per_key": (after.get("cells_transmitted", 0) - before.get("cells_transmitted", 0)) / ops,
        "forms.self_us": self_us(*forms),
        "forms.refresh_us": self_us("forms.refresh"),
        "forms.refreshes_per_key": calls("forms.refresh") / ops,
        "forms.save_us": self_us("forms.save"),
        "views.analyze_us": self_us("views.analyze"),
        "views.analyze_calls_per_commit": _ratio(calls("views.analyze"), commits),
        "sql.parse_us": self_us("sql.tokenize", "sql.parse_statement", "sql.parse_prepared"),
        "sql.parses_per_op": calls("sql.parse_statement", "sql.parse_prepared") / ops,
        "plancache.hit_ratio": hit_ratio("plan_cache", "hits", "misses"),
        "plancache.misses_per_op": per_op("plan_cache", "misses"),
        "planner.plan_us": self_us("planner.plan_select", "planner.plan_union"),
        "planner.plans_per_op": per_op("planner", "plans"),
        "database.self_us": self_us(*database),
        "database.calls_per_op": calls(*database) / ops,
        "executor.batches_per_op": per_op("executor", "batches"),
        "executor.rows_examined_per_row_returned": _ratio(
            counts.get("table.rows_read", 0), rows_returned),
        "table.read_us": self_us(*reads),
        "table.write_us": self_us(*writes),
        "table.calls_per_op": calls(*reads, *writes) / ops,
        "segments.hit_ratio": hit_ratio("segments", "seg_hits", "seg_misses"),
        "segments.builds_per_op": per_op("segments", "seg_builds"),
        "pager.hit_ratio": hit_ratio("pager", "hits", "misses"),
        "pager.misses_per_op": per_op("pager", "misses"),
        "pager.evictions_per_op": per_op("pager", "evictions"),
        "pager.prefetch_io_per_op": per_op("pager", "prefetch_io"),
        "pager.page_writes_per_commit": _ratio(_delta(after, before, "pager", "writes"), commits),
        "pager.io_us": self_us("pager.read_pages", "pager.flush"),
        "btree.node_visits_per_op": per_op("btree", "node_visits"),
        "txn.commit_us": self_us("txn.commit"),
        "wal.commit_us": self_us("wal.commit"),
        "wal.fsyncs_per_commit": _ratio(_delta(after, before, "wal", "fsyncs"), commits),
        "wal.bytes_per_commit": _ratio(_delta(after, before, "wal", "bytes"), commits),
        "wal.replay_us_per_op": _ratio(replay.total * 1e6, reopened.replayed_ops),
        "locks.acquire_us": self_us("locks.acquire"),
        "locks.waits_per_kop": per_op("sessions", "lock_waits") * 1000,
        "locks.deadlocks": _delta(after, before, "sessions", "lock_deadlocks"),
        "locks.timeouts": _delta(after, before, "sessions", "lock_timeouts"),
        "session.self_us": self_us("session.execute"),
        "session.retries": _delta(after, before, "sessions", "retries"),
        "session.aborts": _delta(after, before, "sessions", "aborts"),
        "session.stmt_p99_us": _percentile(trace.durations(threads, "session.execute"), 0.99) * 1e6,
        "session.conn_scaling": _ratio(plain_rate, solo_rate),
        "wire.overhead_us": (remote.total - served.total) * 1e6 / ops if remote.calls else 0.0,
        "wire.bytes_per_op": counts.get("wire.bytes", 0) / ops,
        "trace.overhead_ratio": _ratio(plain_rate, traced_rate),
    }
    traced_us_per_op = traced[-1].busy_seconds() * 1e6 / ops
    values["trace.attributed_ratio"] = _ratio(
        sum(values[name] for name in SELF_TIME_METRICS), traced_us_per_op)
    return {name: Metric(values[name], unit, samples=ops) for name, unit, _ in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> RunResult:
    """Run one workload in a scratch directory that is always removed.

    The process is pinned to one CPU for the run, and the server of
    ``remote_oltp`` inherits the pin.  With the two ends of the socket on
    different CPUs every request wakes an idle virtual CPU, and that latency
    follows the host's load, not the program: the same code then measures
    anywhere between 0.5x and 1x from one run to the next.
    """
    os.makedirs(WORK_ROOT, exist_ok=True)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    reset_peak_rss()
    try:
        with tempfile.TemporaryDirectory(prefix=f"e2e-{name}-", dir=WORK_ROOT) as work:
            run = run_traced if traced else run_plain
            return run(BY_NAME[name], seed, seconds, work)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_run(result: RunResult) -> None:
    kind = "per-layer (traced run)" if result.traced else "end-to-end (tracing off)"
    print(f"== {result.workload}  seed={result.seed}  seconds={result.seconds:g}  {kind}")
    for name, metric in result.metrics.items():
        spread = f"  blocks {metric.low:.6g}..{metric.high:.6g}" if metric.high and not result.traced else ""
        print(f"  {name:<42} {metric.value:>14.6g} {metric.unit:<6} n={metric.samples}{spread}")
    print(f"  failed_share = {result.failed}/{result.attempted} = {result.failed / result.attempted:.6g}")
    for error in result.errors[:5]:
        print(f"  ! {error}")


def _run_file(workload: str, traced: bool) -> str:
    return os.path.join(RESULTS_DIR, f"{workload}.{'per_layer' if traced else 'end_to_end'}.json")


def write_run(result: RunResult) -> None:
    """The run's record (and, traced, its spans) under ``results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    threads = result.detail.pop("threads", None)
    if threads is not None:
        with open(os.path.join(RESULTS_DIR, f"spans-{result.workload}.json"), "w", encoding="utf-8") as handle:
            json.dump({"span": ["name", "start", "end", "parent", "op", "began"], "threads": threads}, handle)
    with open(_run_file(result.workload, result.traced), "w", encoding="utf-8") as handle:
        json.dump({
            "seed": result.seed,
            "seconds": result.seconds,
            "metrics": {n: vars(m) for n, m in result.metrics.items()},
            "attempted": result.attempted,
            "failed": result.failed,
            "failed_share": result.failed / result.attempted,
            "errors": result.errors[:5],
            "detail": result.detail,
        }, handle, indent=1)


def run_in_own_process(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One run as the driver makes it: a fresh interpreter per run.

    ``peak_rss_mb`` and the process-wide counters of the engine would
    otherwise carry over from the workload that ran before.
    """
    command = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(traced)),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    print("\n".join(lines[1:-1]), flush=True)  # without the banner and the result line
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {done.returncode}")
    with open(_run_file(workload, traced), "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_latest(runs: Dict[str, Dict[str, Any]], seed: int, seconds: float) -> str:
    path = os.path.join(RESULTS_DIR, "latest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "seconds": seconds,
            "flush_policy": FLUSH_POLICY,
            "durability_note": "a killed process leaves the OS page cache intact: "
                               "process-crash durability only",
            "workloads": runs,
        }, handle, indent=1)
        handle.write("\n")
    return path


def run_set(seed: int, seconds: float, traced_too: bool) -> Dict[str, Dict[str, Any]]:
    runs: Dict[str, Dict[str, Any]] = {}
    for workload in WORKLOADS:
        runs[workload.name] = {"end_to_end": run_in_own_process(workload.name, seed, seconds, False)}
        if traced_too:
            runs[workload.name]["per_layer"] = run_in_own_process(workload.name, seed, seconds, True)
    return runs


def selfcheck(seed: int, seconds: float) -> int:
    """A/A: the whole set twice on the same code, differences beside bounds."""
    first, second = (run_set(seed, seconds, traced_too=False) for _ in range(2))
    worst = 0
    print(f"{'workload':<12} {'metric':<18} {'A':>12} {'B':>12} {'diff':>8} {'bound':>6}")
    for workload in WORKLOADS:
        a_run, b_run = first[workload.name]["end_to_end"], second[workload.name]["end_to_end"]
        worst |= int(a_run["failed"] + b_run["failed"] > 0)
        for name, _unit, _better, bound in END_TO_END:
            a, b = a_run["metrics"][name]["value"], b_run["metrics"][name]["value"]
            diff = abs(a - b) / min(a, b)
            worst |= int(diff > bound)
            flag = "" if diff <= bound else "  EXCEEDS"
            print(f"{workload.name:<12} {name:<18} {a:>12.6g} {b:>12.6g} {diff:>8.2%} {bound:>6.0%}{flag}")
    return worst


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Keystroke-to-redraw and statement-over-socket benchmark.",
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1983)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="budget of the timed pass; fixes the operation counts")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: the traced run, printing the per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="a tenth of the operations")
    parser.add_argument("--selfcheck", action="store_true", help="run the set twice (A/A)")
    args = parser.parse_args(argv)
    seconds = args.seconds / 10 if args.quick else args.seconds
    print(f"flush policy: {FLUSH_POLICY}; closed loop; python {platform.python_version()}; "
          f"nproc {os.cpu_count()}", flush=True)
    if args.selfcheck:
        return selfcheck(args.seed, seconds)
    if args.workload:
        # the driver's form: one workload, one kind of run, result on the last line
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print_run(result)
        write_run(result)
        print(result.last_line())
        return 0
    runs = run_set(args.seed, seconds, traced_too=bool(args.trace))
    print(f"results written to {write_latest(runs, args.seed, seconds)}")
    return int(any(run["failed"] for kinds in runs.values() for run in kinds.values()))
