"""Optional curses front-end: run a WowApp on a real terminal.

The whole system is headless by design (frames are text, keys are events),
which is what makes the evaluation reproducible.  This adapter is the thin
bridge to an actual TTY for people who want to *use* the thing::

    from repro.core import WowApp
    from repro.windows.curses_driver import run_app

    app = WowApp(db)
    app.open_form("students")
    run_app(app)          # blocks until the user presses ctrl-Q

It is intentionally minimal — one composite per keystroke, only the changed
cells sent to curses, attribute mapping to curses A_* flags.  ``run_app``
itself needs a TTY and is not run in CI; the paint step takes the curses
window as an argument and is tested against a fake one.
"""

from __future__ import annotations

from typing import Optional

from repro.windows.events import Key, KeyEvent
from repro.windows.screen import Attr, ScreenBuffer

#: curses keycode -> KeyEvent name
_SPECIAL = {
    "KEY_UP": Key.UP,
    "KEY_DOWN": Key.DOWN,
    "KEY_LEFT": Key.LEFT,
    "KEY_RIGHT": Key.RIGHT,
    "KEY_HOME": Key.HOME,
    "KEY_END": Key.END,
    "KEY_PPAGE": Key.PGUP,
    "KEY_NPAGE": Key.PGDN,
    "KEY_BACKSPACE": Key.BACKSPACE,
    "KEY_DC": Key.DELETE,
    "KEY_BTAB": Key.BACKTAB,
    "KEY_F(1)": Key.F1,
    "KEY_F(2)": Key.F2,
    "KEY_F(3)": Key.F3,
    "KEY_F(4)": Key.F4,
    "KEY_F(5)": Key.F5,
    "KEY_F(6)": Key.F6,
    "KEY_F(7)": Key.F7,
    "KEY_F(8)": Key.F8,
    "KEY_F(9)": Key.F9,
    "KEY_F(10)": Key.F10,
}


def translate_key(name: str) -> Optional[KeyEvent]:
    """Map a curses key name to a KeyEvent (None = ignore)."""
    if name in _SPECIAL:
        return KeyEvent(_SPECIAL[name])
    if name == "\n":
        return KeyEvent(Key.ENTER)
    if name == "\t":
        return KeyEvent(Key.TAB)
    if name == "\x1b":
        return KeyEvent(Key.ESC)
    if name in ("\x7f", "\x08"):
        return KeyEvent(Key.BACKSPACE)
    if len(name) == 1 and name.isprintable():
        return KeyEvent(name)
    return None


def _attr_to_curses(attr: Attr, curses_module) -> int:
    flags = 0
    if attr & Attr.BOLD:
        flags |= curses_module.A_BOLD
    if attr & Attr.REVERSE:
        flags |= curses_module.A_REVERSE
    if attr & Attr.UNDERLINE:
        flags |= curses_module.A_UNDERLINE
    if attr & Attr.DIM:
        flags |= curses_module.A_DIM
    return flags


def paint(stdscr, front: ScreenBuffer, painted: ScreenBuffer, curses_module) -> int:
    """Bring the terminal up to *front*; returns the cells sent.

    *painted* is what the terminal shows.  Only the cells where *front*
    differs from it are written (design point D2 carried through to the
    TTY), and *painted* is then made equal to *front*.
    """
    changes = front.diff(painted)
    for x, y, cell in changes:
        try:
            stdscr.addstr(y, x, cell.char, _attr_to_curses(cell.attr, curses_module))
        except curses_module.error:
            pass  # bottom-right corner write
    painted.copy_from(front)
    stdscr.refresh()
    return len(changes)


def _loop(stdscr, app, curses_module) -> None:
    curses_module.raw()
    stdscr.keypad(True)
    front = app.wm.renderer.front
    painted = ScreenBuffer(front.width, front.height)  # curses starts blank
    app.wm.render_frame()  # the only composite here: send_key does its own
    while True:
        paint(stdscr, front, painted, curses_module)
        name = stdscr.getkey()
        if name == "\x11":  # ctrl-Q
            return
        event = translate_key(name)
        if event is not None:
            app.send_key(event)


def run_app(app) -> None:  # pragma: no cover - requires a TTY
    """Drive *app* interactively until ctrl-Q."""
    import curses

    curses.wrapper(_loop, app, curses)
