"""Deterministic work counts per operation, asserted as budgets (ROADMAP
item 0b) — the trajectory of "work done per keystroke" is a diff in this
file, immune to timing noise.

The scenario is the end-to-end benchmark's form layout on small data: a
100x30 screen, ``students`` (detail) at x=0 linked to ``departments``
(master) at x=50.  Each budget is exactly what the code does today; a later
PR that earns a lower number ratchets it down here, never up.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e import trace
from repro.core.app import WowApp
from repro.relational.database import Database
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
