"""Tests for the windowing substrate: screen, widgets, windows, manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FocusError, GeometryError, WindowError
from repro.windows import (
    Attr,
    Cell,
    GridView,
    Key,
    KeyEvent,
    Label,
    Rect,
    Renderer,
    ScreenBuffer,
    StatusBar,
    TextField,
    Window,
    WindowManager,
)
from repro.windows import screen as screen_module
from repro.windows.events import format_keys, parse_keys


class TestRect:
    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 0, 5)

    def test_contains(self):
        rect = Rect(2, 3, 4, 2)
        assert rect.contains(2, 3) and rect.contains(5, 4)
        assert not rect.contains(6, 3) and not rect.contains(2, 5)

    def test_intersect(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 10, 10)
        assert a.intersect(b) == Rect(5, 5, 5, 5)
        assert a.intersect(Rect(20, 20, 2, 2)) is None

    def test_inset_and_move(self):
        assert Rect(0, 0, 10, 10).inset(1, 2) == Rect(1, 2, 8, 6)
        assert Rect(1, 1, 2, 2).moved(3, -1) == Rect(4, 0, 2, 2)


class TestKeyScripts:
    def test_parse_mixed(self):
        events = parse_keys("ab<ENTER><F2>c")
        assert [e.key for e in events] == ["a", "b", "ENTER", "F2", "c"]

    def test_literal_angle(self):
        events = parse_keys("a<<b")
        assert [e.key for e in events] == ["a", "<", "b"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_keys("<WARP>")

    def test_unterminated_rejected(self):
        with pytest.raises(ValueError):
            parse_keys("<ENTER")

    def test_roundtrip(self):
        script = "x<TAB>1<<2<ENTER>"
        assert format_keys(parse_keys(script)) == script


class TestScreenBuffer:
    def test_write_and_read(self):
        screen = ScreenBuffer(20, 5)
        screen.write(2, 1, "hello", Attr.BOLD)
        assert screen.row_text(1)[2:7] == "hello"
        assert screen.cell(2, 1).attr == Attr.BOLD

    def test_clipping_to_bounds(self):
        screen = ScreenBuffer(5, 2)
        screen.write(3, 0, "long-text")  # silently clipped
        assert screen.row_text(0) == "   lo"

    def test_clip_rect(self):
        screen = ScreenBuffer(10, 3)
        screen.set_clip(Rect(2, 1, 3, 1))
        screen.write(0, 1, "abcdefgh")
        assert screen.row_text(1) == "  cde     "
        screen.set_clip(None)

    def test_box(self):
        screen = ScreenBuffer(6, 4)
        screen.box(Rect(0, 0, 6, 4))
        assert screen.row_text(0) == "+----+"
        assert screen.row_text(3) == "+----+"
        assert screen.row_text(1)[0] == "|" and screen.row_text(1)[5] == "|"

    def test_fill_counts_writes(self):
        screen = ScreenBuffer(10, 10)
        screen.reset_stats()
        screen.fill(Rect(0, 0, 4, 3), "#")
        assert screen.cells_written == 12

    def test_diff(self):
        a = ScreenBuffer(8, 2)
        b = ScreenBuffer(8, 2)
        a.write(0, 0, "xy")
        changes = a.diff(b)
        assert len(changes) == 2
        assert changes[0][:2] == (0, 0)

    def test_diff_size_mismatch(self):
        with pytest.raises(GeometryError):
            ScreenBuffer(2, 2).diff(ScreenBuffer(3, 2))

    def test_find(self):
        screen = ScreenBuffer(20, 3)
        screen.write(5, 2, "needle")
        assert screen.find("needle") == (5, 2)
        assert screen.find("absent") is None

    def test_cell_out_of_range(self):
        with pytest.raises(GeometryError):
            ScreenBuffer(2, 2).cell(5, 0)


class TestTextField:
    def field(self, **kwargs):
        return TextField(0, 0, 10, **kwargs)

    def send(self, field, script):
        for event in parse_keys(script):
            field.handle_key(event)

    def test_typing(self):
        field = self.field()
        self.send(field, "abc")
        assert field.text == "abc" and field.cursor == 3

    def test_backspace_and_delete(self):
        field = self.field(text="abcd")
        self.send(field, "<BACKSPACE>")
        assert field.text == "abc"
        self.send(field, "<HOME><DELETE>")
        assert field.text == "bc"

    def test_cursor_movement_and_insert(self):
        field = self.field(text="ac")
        self.send(field, "<LEFT>b")
        assert field.text == "abc"
        self.send(field, "<END>d")
        assert field.text == "abcd"

    def test_read_only_swallows_edits(self):
        field = self.field(text="keep", read_only=True)
        self.send(field, "x<BACKSPACE>")
        assert field.text == "keep"

    def test_horizontal_scroll(self):
        field = TextField(0, 0, 5)
        self.send(field, "abcdefghij")
        assert field.scroll > 0
        screen = ScreenBuffer(5, 1)
        field.focused = True
        field.render(screen, 0, 0)
        assert "j" in screen.row_text(0)

    def test_on_change_fires(self):
        seen = []
        field = TextField(0, 0, 5, on_change=seen.append)
        self.send(field, "hi")
        assert seen == ["h", "hi"]

    def test_unhandled_key_bubbles(self):
        assert self.field().handle_key(KeyEvent(Key.F5)) is False


class TestGridView:
    def grid(self, height=5):
        g = GridView(Rect(0, 0, 30, height), [("id", 4), ("name", 10)])
        g.set_rows([(str(i), f"row{i}") for i in range(20)])
        return g

    def test_selection_moves_and_clamps(self):
        grid = self.grid()
        grid.handle_key(KeyEvent(Key.DOWN))
        assert grid.selected == 1
        grid.handle_key(KeyEvent(Key.UP))
        grid.handle_key(KeyEvent(Key.UP))
        assert grid.selected == 0

    def test_paging_and_home_end(self):
        grid = self.grid()
        grid.handle_key(KeyEvent(Key.PGDN))
        assert grid.selected == 4
        grid.handle_key(KeyEvent(Key.END))
        assert grid.selected == 19
        grid.handle_key(KeyEvent(Key.HOME))
        assert grid.selected == 0

    def test_scroll_follows_selection(self):
        grid = self.grid()
        for _ in range(10):
            grid.handle_key(KeyEvent(Key.DOWN))
        assert grid.scroll == 10 - grid.body_height + 1

    def test_on_select_callback(self):
        seen = []
        grid = GridView(Rect(0, 0, 20, 4), [("a", 5)], on_select=seen.append)
        grid.set_rows([("1",), ("2",)])
        grid.handle_key(KeyEvent(Key.DOWN))
        assert seen == [1]

    def test_on_activate(self):
        seen = []
        grid = GridView(Rect(0, 0, 20, 4), [("a", 5)], on_activate=seen.append)
        grid.set_rows([("1",), ("2",)])
        grid.handle_key(KeyEvent(Key.DOWN))
        grid.handle_key(KeyEvent(Key.ENTER))
        assert seen == [1]

    def test_render_header_and_selection(self):
        grid = self.grid()
        grid.focused = True
        screen = ScreenBuffer(30, 5)
        grid.render(screen, 0, 0)
        assert screen.row_text(0).startswith("id   name")
        assert screen.row_text(1).startswith("0    row0")

    def test_too_small_rejected(self):
        with pytest.raises(GeometryError):
            GridView(Rect(0, 0, 10, 1), [("a", 3)])

    def test_set_rows_clamps_selection(self):
        grid = self.grid()
        grid.select(19)
        grid.set_rows([("only",) ])
        assert grid.selected == 0


class TestWindow:
    def make(self):
        window = Window("Test", Rect(0, 0, 40, 10))
        window.add(Label(0, 0, "Name:"))
        f1 = window.add(TextField(7, 0, 10))
        f2 = window.add(TextField(7, 1, 10))
        return window, f1, f2

    def test_first_focusable_gets_focus(self):
        window, f1, _f2 = self.make()
        assert window.focused_widget is f1 and f1.focused

    def test_tab_cycles(self):
        window, f1, f2 = self.make()
        window.handle_key(KeyEvent(Key.TAB))
        assert window.focused_widget is f2
        window.handle_key(KeyEvent(Key.TAB))
        assert window.focused_widget is f1
        window.handle_key(KeyEvent(Key.BACKTAB))
        assert window.focused_widget is f2

    def test_keys_go_to_focused_widget(self):
        window, f1, f2 = self.make()
        window.handle_key(KeyEvent("x"))
        assert f1.text == "x" and f2.text == ""

    def test_focus_specific(self):
        window, _f1, f2 = self.make()
        window.focus(f2)
        assert f2.focused

    def test_focus_errors(self):
        window, _f1, _f2 = self.make()
        label = Label(0, 5, "static")
        with pytest.raises(FocusError):
            window.focus(label)
        window.add(label)
        with pytest.raises(FocusError):
            window.focus(label)

    def test_render_frame_and_title(self):
        window, _f1, _f2 = self.make()
        screen = ScreenBuffer(50, 12)
        window.render(screen)
        assert screen.find("Test") is not None
        assert screen.row_text(0).strip().startswith("+")

    def test_too_small_rejected(self):
        with pytest.raises(GeometryError):
            Window("x", Rect(0, 0, 3, 3))

    def test_min_resize_enforced(self):
        window, _f1, _f2 = self.make()
        with pytest.raises(GeometryError):
            window.resize(2, 2)


class TestWindowManager:
    def manager(self):
        wm = WindowManager(80, 24)
        w1 = Window("One", Rect(0, 0, 30, 10))
        w2 = Window("Two", Rect(20, 5, 30, 10))
        wm.open(w1)
        wm.open(w2)
        return wm, w1, w2

    def test_open_sets_active(self):
        wm, w1, w2 = self.manager()
        assert wm.active_window is w2 and w2.active and not w1.active

    def test_close_restores_previous(self):
        wm, w1, w2 = self.manager()
        wm.close(w2)
        assert wm.active_window is w1 and w1.active

    def test_double_open_rejected(self):
        wm, w1, _w2 = self.manager()
        with pytest.raises(WindowError):
            wm.open(w1)

    def test_close_unknown_rejected(self):
        wm, _w1, _w2 = self.manager()
        with pytest.raises(WindowError):
            wm.close(Window("ghost", Rect(0, 0, 10, 5)))

    def test_raise_and_cycle(self):
        wm, w1, w2 = self.manager()
        wm.raise_window(w1)
        assert wm.active_window is w1
        wm.cycle()
        assert wm.active_window is w2

    def test_f1_cycles_globally(self):
        wm, w1, _w2 = self.manager()
        wm.dispatch(KeyEvent(Key.F1))
        assert wm.active_window is w1

    def test_dispatch_reaches_topmost(self):
        wm, w1, w2 = self.manager()
        f = w2.add(TextField(0, 0, 8))
        wm.dispatch(KeyEvent("z"))
        assert f.text == "z"

    def test_overlap_topmost_wins(self):
        wm, w1, w2 = self.manager()
        wm.render_frame()
        # (25, 6) is inside both; w2 is on top, its frame/blank should rule.
        text = wm.screen_text()
        assert "Two" in text

    def test_tile(self):
        wm, w1, w2 = self.manager()
        wm.tile()
        assert w1.rect.x == 0 and w2.rect.x == 40
        assert w1.rect.height == 24

    def test_differential_render_cheaper_than_full(self):
        wm, _w1, w2 = self.manager()
        first = wm.render_frame()
        f = w2.add(TextField(0, 0, 8))
        wm.dispatch(KeyEvent("q"))
        second = wm.render_frame()
        assert second < first  # only the field area changed

    def test_full_mode_always_pays_whole_screen(self):
        wm = WindowManager(40, 10, differential=False)
        wm.open(Window("W", Rect(0, 0, 20, 5)))
        assert wm.render_frame() == 400
        assert wm.render_frame() == 400

    def test_no_change_frame_transmits_nothing(self):
        wm, _w1, _w2 = self.manager()
        wm.render_frame()
        assert wm.render_frame() == 0


class TestRenderer:
    def test_stats_accumulate(self):
        renderer = Renderer(10, 4)
        back = renderer.begin_frame()
        back.write(0, 0, "abc")
        n = renderer.flush()
        assert n == 3
        assert renderer.cells_transmitted == 3 and renderer.frames == 1
        renderer.reset_stats()
        assert renderer.cells_transmitted == 0

    def test_changed_cells_preview(self):
        renderer = Renderer(10, 4)
        back = renderer.begin_frame()
        back.write(0, 0, "ab")
        assert len(renderer.changed_cells()) == 2


class TestStatusBar:
    def test_message_rendering(self):
        bar = StatusBar(0, 0, 10)
        bar.set_message("saved")
        screen = ScreenBuffer(10, 1)
        bar.render(screen, 0, 0)
        assert screen.row_text(0) == "saved     "


# -- the row-wise, interned ScreenBuffer against a per-cell model -----------


class _ModelScreen:
    """The buffer done naively: every cell is bounds-checked, clip-checked
    and built on its own — the reference the real one must agree with."""

    def __init__(self, width, height):
        self.width, self.height = width, height
        self.cells = [[Cell() for _ in range(width)] for _ in range(height)]
        self.clip = None
        self.cells_written = 0

    def set_clip(self, rect):
        self.clip = rect

    def put(self, x, y, char, attr=Attr.NORMAL):
        on_screen = 0 <= x < self.width and 0 <= y < self.height
        if on_screen and (self.clip is None or self.clip.contains(x, y)):
            self.cells[y][x] = Cell(char, attr)  # raises on a bad char
            self.cells_written += 1

    def write(self, x, y, text, attr=Attr.NORMAL):
        for offset, char in enumerate(text):
            self.put(x + offset, y, char, attr)

    def fill(self, rect, char=" ", attr=Attr.NORMAL):
        for y in range(rect.y, rect.bottom):
            self.hline(rect.x, y, rect.width, char, attr)

    def hline(self, x, y, length, char="-", attr=Attr.NORMAL):
        for offset in range(length):
            self.put(x + offset, y, char, attr)

    def vline(self, x, y, length, char="|", attr=Attr.NORMAL):
        for offset in range(length):
            self.put(x, y + offset, char, attr)

    def box(self, rect, attr=Attr.NORMAL):
        edges_x, edges_y = (rect.x, rect.right - 1), (rect.y, rect.bottom - 1)
        for y in edges_y:
            self.hline(rect.x + 1, y, rect.width - 2, "-", attr)
        for x in edges_x:
            self.vline(x, rect.y + 1, rect.height - 2, "|", attr)
        for y in edges_y:
            for x in edges_x:
                self.put(x, y, "+", attr)

    def clear(self):
        self.cells = [[Cell() for _ in range(self.width)] for _ in range(self.height)]
        self.cells_written += self.width * self.height

    def diff(self, other):
        return [
            (x, y, cell)
            for y, row in enumerate(self.cells)
            for x, cell in enumerate(row)
            if cell != other.cells[y][x]
        ]


_WIDTH, _HEIGHT = 7, 5
# coordinates reach past every edge; rectangles may lie partly or wholly outside
_coords = st.integers(-4, 11)
_lengths = st.integers(-3, 14)
_rects = st.builds(Rect, _coords, _coords, st.integers(1, 12), st.integers(1, 12))
_attrs = st.sampled_from(
    [Attr.NORMAL, Attr.BOLD, Attr.REVERSE, Attr.BOLD | Attr.REVERSE, Attr.DIM | Attr.UNDERLINE]
)
# a cell holds exactly one character: "" and "xy" must raise GeometryError
_chars = st.sampled_from(["a", "b", " ", "#", "-", "\u00e9", "", "xy"])
_draw_ops = st.one_of(
    st.tuples(st.just("set_clip"), st.one_of(st.none(), _rects)),
    st.tuples(st.just("put"), _coords, _coords, _chars, _attrs),
    st.tuples(st.just("write"), _coords, _coords, st.text("ab #\u00e9", max_size=14), _attrs),
    st.tuples(st.just("fill"), _rects, _chars, _attrs),
    st.tuples(st.just("hline"), _coords, _coords, _lengths, _chars, _attrs),
    st.tuples(st.just("vline"), _coords, _coords, _lengths, _chars, _attrs),
    st.tuples(st.just("box"), _rects, _attrs),
    st.tuples(st.just("clear")),
)


def _raises_geometry_error(target, name, args):
    try:
        getattr(target, name)(*args)
    except GeometryError:
        return True
    return False


def _assert_same(real, model):
    for y in range(_HEIGHT):
        for x in range(_WIDTH):
            assert real.cell(x, y) == model.cells[y][x], (x, y)
            assert isinstance(real.cell(x, y).attr, Attr)
    assert real.cells_written == model.cells_written


def _drawn(ops):
    """A real buffer and a model after the same ops, compared after each."""
    real, model = ScreenBuffer(_WIDTH, _HEIGHT), _ModelScreen(_WIDTH, _HEIGHT)
    for name, *args in ops:
        # the same ops raise, and an op that raises has changed nothing
        assert _raises_geometry_error(real, name, args) == _raises_geometry_error(
            model, name, args
        ), (name, args)
        _assert_same(real, model)
    return real, model


def _check_against_model(ops, other_ops):
    real, model = _drawn(ops)
    other_real, other_model = _drawn(other_ops)
    assert real.diff(other_real) == model.diff(other_model)
    assert other_real.diff(real) == other_model.diff(model)
    written = other_real.cells_written
    other_real.copy_from(real)
    assert other_real.diff(real) == [] and real.diff(other_real) == []
    assert other_real.cells_written == written  # no write accounting
    other_model.cells, other_model.cells_written = model.cells, written
    _assert_same(other_real, other_model)


# two frames that share most of their content, as consecutive frames do: the
# second replays a prefix of the first frame's ops and then goes its own way
_two_frames = st.tuples(
    st.lists(_draw_ops, max_size=25), st.integers(0, 25), st.lists(_draw_ops, max_size=6)
).map(lambda drawn: (drawn[0], drawn[0][: drawn[1]] + drawn[2]))


class TestScreenBufferAgainstModel:
    @given(frames=_two_frames)
    @settings(max_examples=200, deadline=None)
    def test_random_draw_sequences(self, frames):
        _check_against_model(*frames)

    @given(frames=_two_frames)
    @settings(max_examples=200, deadline=None)
    def test_still_correct_once_the_intern_table_is_full(self, frames):
        # one attribute, two characters: nearly every cell is then an unshared
        # object, so nothing may lean on ``is`` for equality
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(screen_module, "_TABLES", {})
            patch.setattr(screen_module, "_MAX_ATTRS", 1)
            patch.setattr(screen_module, "_MAX_CHARS", 2)
            _check_against_model(*frames)
            tables = screen_module._TABLES
            assert len(tables) <= 1 and all(len(table) <= 2 for table in tables.values())

    def test_equal_content_is_one_shared_cell_until_the_table_is_full(self):
        a, b = ScreenBuffer(4, 1), ScreenBuffer(4, 1)
        a.write(0, 0, "xy", Attr.BOLD)
        b.put(0, 0, "x", Attr.BOLD)
        assert a.cell(0, 0) is b.cell(0, 0)
        assert a.cell(3, 0) is b.cell(3, 0) is screen_module.BLANK
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(screen_module, "_TABLES", {})
            patch.setattr(screen_module, "_MAX_ATTRS", 0)
            a.put(1, 0, "z", Attr.DIM)
            b.put(1, 0, "z", Attr.DIM)
        assert a.cell(1, 0) == b.cell(1, 0) and a.cell(1, 0) is not b.cell(1, 0)
        assert a.diff(b) == []  # equal by value is equal, shared or not
