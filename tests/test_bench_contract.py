"""What the frozen benchmark (``benchmarks/e2e``, ROADMAP landing contract
clauses 4 and 5) silently requires of ``src/``.

The driver runs the benchmark on the committed tree after a PR is written;
a renamed method or a dropped counter is a ``KeyError`` there, or a metric
that silently reads 0.  These tests make it a one-second failure here.
They import from ``benchmarks/e2e`` and never edit it.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import trace
from repro.core.app import WowApp
from repro.relational.database import Database
from repro.session.manager import SessionManager
from repro.windows.events import Key, KeyEvent
from repro.workloads import build_university

#: ``metrics_snapshot()`` sections and keys the harness reads (clause 5);
#: ``harness._delta`` reads a missing key as 0 without complaint
SNAPSHOT_KEYS = {
    "wal": ("commits", "fsyncs", "bytes"),
    "plan_cache": ("hits", "misses"),
    "planner": ("plans",),
    "executor": ("batches",),
    "segments": ("seg_hits", "seg_misses", "seg_builds"),
    "pager": ("hits", "misses", "evictions", "prefetch_io", "writes"),
    "btree": ("node_visits",),
    "sessions": ("lock_waits", "lock_deadlocks", "lock_timeouts", "retries", "aborts"),
    "integrity": ("wal_replayed_ops",),
}


def _resolve(target: trace.Target):
    """(holder, original) exactly as ``Recorder.install`` finds them."""
    module = importlib.import_module(target.module)
    if target.owner:
        holder = getattr(module, target.owner)
        return holder, holder.__dict__[target.attr]
    return module, getattr(module, target.attr)


@pytest.mark.parametrize("target", trace.BENCH_TARGETS, ids=lambda t: t.span)
def test_every_traced_entry_point_is_defined_where_the_tracer_looks(target):
    # a method must sit in the class body itself: inherited, mixed in or
    # moved is a KeyError in every traced run
    _, original = _resolve(target)
    assert callable(original)


def test_install_uninstall_round_trip_restores_the_real_tree():
    before = [(target, *_resolve(target)) for target in trace.BENCH_TARGETS]
    # module functions are also re-bound wherever ``from x import f`` put them
    rebound = [
        (other, target.attr, original)
        for target, _, original in before
        if not target.owner
        for other in list(sys.modules.values())
        if getattr(other, "__name__", "").startswith("repro")
        and other.__dict__.get(target.attr) is original
    ]
    recorder = trace.Recorder()
    recorder.install(trace.BENCH_TARGETS)
    try:
        for target, holder, original in before:
            assert vars(holder)[target.attr] is not original, target.span
    finally:
        recorder.uninstall()
    for target, holder, original in before:
        assert vars(holder)[target.attr] is original, target.span
    for holder, attr, original in rebound:
        assert vars(holder)[attr] is original, (holder.__name__, attr)


@pytest.fixture
def forms_env(tmp_path):
    """The form workloads' environment (``workloads.FormsEnv``) on small data."""
    db = Database(path=str(tmp_path / "db"), fsync=True)
    try:
        build_university(db, students=40, courses=10, seed=1983)
        db.checkpoint()
        app = WowApp(db, 100, 30)
        detail = app.open_form("students", x=0, y=0)
        master = app.open_form("departments", x=50, y=0)
        app.link(master, detail, on=[("id", "major_id")])
        yield db, app, master, detail
    finally:
        db.close()


def test_the_form_workloads_surfaces(forms_env):
    _, app, master, detail = forms_env
    assert isinstance(app.wm.renderer.cells_transmitted, int)
    # FormsEnv.caller: send_key returns after the frame is flushed
    frames = app.wm.renderer.frames
    assert isinstance(app.send_key(KeyEvent(Key.DOWN)), int)
    assert app.wm.renderer.frames == frames + 1
    # FormsEnv.verify reads these after every checked key
    for window in (master, detail):
        controller = window.controller
        assert controller.record_count == len(controller.rows) > 0
        assert isinstance(controller.rows[0][0], int)
        assert isinstance(controller.message, str)
    # .link(): the <DOWN> moved the master to its second row and the detail followed
    assert all(row[2] == master.controller.rows[1][0] for row in detail.controller.rows)


def test_metrics_snapshot_has_every_key_the_harness_reads(forms_env):
    db = forms_env[0]
    db.close()
    reopened = Database(path=db.path, fsync=True)  # recovery fills wal_replayed_ops
    try:
        SessionManager(reopened)  # the "sessions" section is counters only with sessions on
        reopened.query("SELECT COUNT(*) FROM students")
        snapshot = reopened.metrics_snapshot()
    finally:
        reopened.close()
    missing = [
        f"{section}.{key}"
        for section, keys in SNAPSHOT_KEYS.items()
        for key in keys
        if key not in snapshot.get(section, {})
    ]
    assert missing == []


def test_bench_modules_are_exactly_those_design_md_section_4_names():
    # an orphan bench (no row in the experiment index) or a dangling doc
    # pointer (a row whose file is gone) is a one-second failure here
    root = Path(__file__).resolve().parent.parent
    design = (root / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 4. Reconstructed evaluation", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(bench_\w+\.py)`", section))
    present = {path.name for path in (root / "benchmarks").glob("bench_*.py")}
    assert present == named
