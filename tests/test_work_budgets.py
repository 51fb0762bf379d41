"""Deterministic work counts per operation, asserted as budgets (ROADMAP
item 0b) — the trajectory of "work done per keystroke" is a diff in this
file, immune to timing noise.

The keystroke scenario is the end-to-end benchmark's form layout on small
data: a 100x30 screen, ``students`` (detail) at x=0 linked to
``departments`` (master) at x=50; the save and replay scenarios are its
``form_edit`` and crash-image reopen on the same data, on disk.  Each
budget is exactly what the code does today; a later PR that earns a lower
number ratchets it down here, never up.
"""

from __future__ import annotations

import shutil
from collections import Counter

import pytest

from benchmarks.e2e import trace
from repro.core.app import WowApp
from repro.relational.database import Database
from repro.relational.table import Table
from repro.windows.events import Key, KeyEvent
from repro.workloads import build_university

# budgets, not goals: a later PR that does less work ratchets these down, never up
#: a full recomposite: 3,000 cells cleared + 849 painted by the two windows
CELLS_WRITTEN_PER_KEY = 3849
#: what the row-wise diff then finds changed by the first <DOWN>
CELLS_TRANSMITTED_FIRST_DOWN = 22

PARSERS = tuple(
    target
    for target in trace.ENGINE_TARGETS
    if target.span in ("sql.tokenize", "sql.parse_statement", "sql.parse_prepared")
)


@pytest.fixture
def detail_form_app():
    db = build_university(Database(), students=40, courses=10, seed=1983)
    app = WowApp(db, 100, 30)
    detail = app.open_form("students", x=0, y=0)
    master = app.open_form("departments", x=50, y=0)
    app.link(master, detail, on=[("id", "major_id")])
    app.send_key(KeyEvent(Key.F1))  # focus the detail form
    assert app.active_window is detail and detail.controller.record_count == 7
    return db, app


def test_a_plain_down_reaches_neither_sql_nor_the_planner(detail_form_app):
    db, app = detail_form_app
    before = db.metrics_snapshot()
    recorder = trace.Recorder()
    recorder.install(PARSERS)
    try:
        app.send_key(KeyEvent(Key.DOWN))
    finally:
        recorder.uninstall()
    after = db.metrics_snapshot()
    assert after["statements"] == before["statements"]
    assert recorder.threads() == []  # no tokenize, no parse
    assert after["planner"]["plans"] == before["planner"]["plans"]
    lookups = ("hits", "misses")
    assert [after["plan_cache"][k] for k in lookups] == [before["plan_cache"][k] for k in lookups]


def test_a_plain_down_writes_and_transmits_exactly_this_many_cells(detail_form_app):
    _, app = detail_form_app
    renderer = app.wm.renderer
    written, transmitted = renderer.back.cells_written, renderer.cells_transmitted
    assert app.send_key(KeyEvent(Key.DOWN)) == CELLS_TRANSMITTED_FIRST_DOWN
    assert renderer.back.cells_written - written == CELLS_WRITTEN_PER_KEY
    assert renderer.cells_transmitted - transmitted == CELLS_TRANSMITTED_FIRST_DOWN


def test_a_second_identical_frame_transmits_nothing(detail_form_app):
    _, app = detail_form_app
    app.send_key(KeyEvent(Key.DOWN))
    renderer = app.wm.renderer
    written, transmitted = renderer.back.cells_written, renderer.cells_transmitted
    assert app.wm.render_frame() == 0
    assert renderer.cells_transmitted == transmitted
    assert renderer.back.cells_written - written == CELLS_WRITTEN_PER_KEY


# -- one <F2> save through an updatable view ---------------------------------

#: metrics_snapshot() deltas of the committing <F2>: one WAL group and one
#: fsync for the base-table update; the requery is a plan-cache hit
SAVE_COUNTERS = {
    ("wal", "commits"): 1, ("wal", "fsyncs"): 1, ("planner", "plans"): 0,
    ("plan_cache", "hits"): 1, ("plan_cache", "misses"): 0,
}


def university_on_disk(path):
    db = build_university(Database(path=str(path), fsync=True), students=40, courses=10, seed=1983)
    db.checkpoint()
    return db


def test_a_save_through_a_view_is_one_fsync_one_analysis_and_no_parse(tmp_path):
    db = university_on_disk(tmp_path / "db")
    app = WowApp(db, 100, 30)
    form = app.open_form("senior_students", x=0, y=0).controller
    for gpa in ("3.21", "2.50", "3.99"):  # the first save already meets the budget
        app.send_keys("<F2><TAB><TAB><TAB>" + gpa)
        before = db.metrics_snapshot()
        recorder = trace.Recorder()
        recorder.install(trace.ENGINE_TARGETS)
        try:
            app.send_key(KeyEvent(Key.F2))
        finally:
            recorder.uninstall()
        after = db.metrics_snapshot()
        assert form.message == "1 record(s) updated" and form.rows[0][3] == float(gpa)
        assert {
            (section, name): after[section][name] - before[section][name]
            for section, name in SAVE_COUNTERS
        } == SAVE_COUNTERS
        spans = Counter(span[0] for thread in recorder.threads() for span in thread)
        assert spans["views.analyze"] == 1 and spans["table.update"] == 1
        assert not [name for name in spans if name.startswith("sql.")]
    db.close()


# -- replaying the log after a kill ------------------------------------------


def table_scans_on_reopen(db, image, monkeypatch):
    """Copy *db*'s directory to *image* as a kill would leave it, reopen the
    copy and count the ``Table.scan`` calls recovery makes, per table."""
    shutil.copytree(db.path, image)
    scans = Counter()
    real_scan = Table.scan

    def counting_scan(table):
        scans[table.name] += 1
        return real_scan(table)

    with monkeypatch.context() as patch:
        patch.setattr(Table, "scan", counting_scan)
        reopened = Database(path=str(image), fsync=False)
    stats = reopened.wal.recovery_stats
    reopened.close()
    return scans, stats


def test_replaying_keyed_updates_scans_no_table(tmp_path, monkeypatch):
    """N logged updates of a table with a primary key add no ``Table.scan``
    to a reopen: the scans left are the index backfills of ``_load_catalog``."""
    db = university_on_disk(tmp_path / "db")
    backfills, _ = table_scans_on_reopen(db, tmp_path / "checkpointed", monkeypatch)
    assert backfills["students"] >= 1
    for n in range(50):
        db.execute(f"UPDATE students SET gpa = {1.5 + n / 100:.2f} WHERE id = {1 + n % 40}")
    scans, stats = table_scans_on_reopen(db, tmp_path / "logged", monkeypatch)
    assert stats["replayed_ops"] == 50 and stats["unmatched_ops"] == 0
    assert scans == backfills
    db.close()


def test_replaying_updates_of_a_keyless_table_scans_once_per_op(tmp_path, monkeypatch):
    db = Database(path=str(tmp_path / "db"), fsync=False)
    db.execute("CREATE TABLE notes (student INT, body TEXT)")
    db.execute("INSERT INTO notes VALUES " + ", ".join(f"({n}, 'note')" for n in range(20)))
    db.checkpoint()
    backfills, _ = table_scans_on_reopen(db, tmp_path / "checkpointed", monkeypatch)
    assert backfills == {}  # no index to fill
    for n in range(20):
        db.execute(f"UPDATE notes SET body = 'note {n}' WHERE student = {n}")
    scans, stats = table_scans_on_reopen(db, tmp_path / "logged", monkeypatch)
    assert stats["replayed_ops"] == 20 and stats["unmatched_ops"] == 0
    assert scans == {"notes": 20}
    db.close()
