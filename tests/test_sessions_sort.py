"""Tests for F8 sort cycling, the curses key translation and paint step, and
two apps sharing one database (multi-terminal 1983 style)."""

from types import SimpleNamespace

import pytest

from repro.core import WowApp
from repro.forms import FormController, generate_form
from repro.windows.curses_driver import _loop, paint, translate_key
from repro.windows.events import Key
from repro.windows.screen import BLANK, ScreenBuffer


class TestSortCycling:
    def test_f8_cycles_columns(self, company):
        controller = FormController(company, generate_form(company, "emp"))
        assert controller.spec.order_by == ["id"]
        controller.cycle_sort()
        assert controller.spec.order_by == ["name"]
        assert controller.field_texts["name"] == "ada"  # first alphabetically

    def test_f8_wraps_around(self, company):
        controller = FormController(company, generate_form(company, "emp"))
        for _ in range(5):  # id -> name -> dept_id -> salary -> hired -> id
            controller.cycle_sort()
        assert controller.spec.order_by == ["id"]

    def test_sort_by_salary_orders_rowset(self, company):
        controller = FormController(company, generate_form(company, "emp"))
        for _ in range(3):
            controller.cycle_sort()
        assert controller.spec.order_by == ["salary"]
        salaries = [row[3] for row in controller.rows]
        assert salaries == sorted(salaries)

    def test_f8_by_key(self, company):
        app = WowApp(company, width=70, height=18)
        form = app.open_form("emp")
        app.send_keys("<F8>")
        assert "ordered by name" in form.controller.message


class TestCursesTranslation:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("KEY_UP", Key.UP),
            ("KEY_NPAGE", Key.PGDN),
            ("KEY_F(2)", Key.F2),
            ("\n", Key.ENTER),
            ("\t", Key.TAB),
            ("\x1b", Key.ESC),
            ("\x7f", Key.BACKSPACE),
            ("a", "a"),
            ("Z", "Z"),
        ],
    )
    def test_known_keys(self, name, expected):
        event = translate_key(name)
        assert event is not None and event.key == expected

    def test_unknown_ignored(self):
        assert translate_key("KEY_MOUSE") is None
        assert translate_key("\x00") is None


class TestSharedDatabaseSessions:
    def test_two_apps_one_world(self, company):
        """Two terminals, one database: edits in one appear in the other."""
        clerk_app = WowApp(company, width=60, height=16)
        boss_app = WowApp(company, width=60, height=16)
        clerk_form = clerk_app.open_form("emp")
        boss_form = boss_app.open_form("emp")

        # The clerk gives ada a raise.
        clerk_app.send_keys("<F2><TAB><TAB><TAB>199<F2>")
        assert company.execute("SELECT salary FROM emp WHERE id = 10").scalar() == 199.0

        # The boss's window still shows the stale value until requery.
        assert boss_form.controller.field_texts["salary"] == "100"
        boss_app.send_keys("<F5>")
        assert boss_form.controller.field_texts["salary"] == "199"

    def test_sessions_have_independent_meters(self, company):
        app_a = WowApp(company, width=60, height=16)
        app_b = WowApp(company, width=60, height=16)
        app_a.open_form("emp")
        app_b.open_form("emp")
        app_a.send_keys("<DOWN><DOWN>")
        app_b.send_keys("<DOWN>")
        assert app_a.keys.total == 2
        assert app_b.keys.total == 1

    def test_delete_in_one_session_counts_in_other(self, company):
        app_a = WowApp(company, width=60, height=16)
        app_b = WowApp(company, width=60, height=16)
        form_b = app_b.open_form("emp")
        app_a.open_form("emp")
        app_a.send_keys("<END><F6>")  # delete dan
        app_b.send_keys("<F5>")
        assert form_b.controller.record_count == 3


class _FakeStdscr:
    """Records what the driver sends a curses window; plays back a key list."""

    def __init__(self, keys=()):
        self.keys = list(keys)
        self.frames = [[]]  # one list of (y, x, char, flags) per refresh

    def keypad(self, flag):
        pass

    def addstr(self, y, x, char, flags):
        self.frames[-1].append((y, x, char, flags))

    def refresh(self):
        self.frames.append([])

    def getkey(self):
        return self.keys.pop(0)


class _FakeCursesError(Exception):
    pass


_FAKE_CURSES = SimpleNamespace(
    error=_FakeCursesError, raw=lambda: None, A_BOLD=1, A_REVERSE=2, A_UNDERLINE=4, A_DIM=8
)


class TestCursesPaint:
    """The TTY driver honours D2: one composite per key, changed cells only."""

    def session(self, company, keys):
        app = WowApp(company, width=70, height=18)
        app.open_form("emp")
        stdscr = _FakeStdscr(keys + ["\x11"])
        frames_before = app.wm.renderer.frames
        _loop(stdscr, app, _FAKE_CURSES)
        return app, stdscr, app.wm.renderer.frames - frames_before

    def test_first_frame_paints_every_non_blank_cell(self, company):
        app, stdscr, _ = self.session(company, [])
        front = app.wm.renderer.front
        non_blank = {
            (y, x, front.cell(x, y).char)
            for y in range(front.height)
            for x in range(front.width)
            if front.cell(x, y) != BLANK
        }
        first = stdscr.frames[0]
        assert len(first) == len(non_blank) < front.width * front.height
        assert {(y, x, char) for y, x, char, _ in first} == non_blank
        assert any(flags & _FAKE_CURSES.A_BOLD for _, _, _, flags in first)

    def test_a_key_composites_once_and_paints_only_the_changed_cells(self, company):
        app, stdscr, composites = self.session(company, ["KEY_DOWN"])
        assert composites == 2  # once before the loop, once inside send_key
        first, after_down = stdscr.frames[0], stdscr.frames[1]
        assert len(after_down) == app.wm.renderer.last_frame_cells
        assert 0 < len(after_down) < len(first)
        assert "bob" in "".join(char for _, _, char, _ in after_down)

    def test_paint_tolerates_the_bottom_right_corner_error(self):
        class Refusing(_FakeStdscr):
            def addstr(self, y, x, char, flags):
                raise _FAKE_CURSES.error("bottom-right corner")

        front, painted = ScreenBuffer(4, 2), ScreenBuffer(4, 2)
        front.put(3, 1, "x")
        assert paint(Refusing(), front, painted, _FAKE_CURSES) == 1
        assert front.diff(painted) == []
