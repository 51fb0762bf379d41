"""The window manager: z-ordered windows over a differential renderer.

The manager composites every visible window back-to-front into the
renderer's back buffer, routes keyboard events to the active (topmost
focused) window, and offers the classic desktop verbs: open, close, raise,
cycle, move, resize, tile.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FocusError, WindowError
from repro.windows.events import Key, KeyEvent
from repro.windows.geometry import Rect
from repro.windows.render import Renderer
from repro.windows.screen import ScreenBuffer
from repro.windows.window import Window


class WindowManager:
    """Owns the window stack and the screen."""

    def __init__(self, width: int = 80, height: int = 24, differential: bool = True) -> None:
        self.renderer = Renderer(width, height, differential)
        self.windows: List[Window] = []  # back-to-front z-order

    # -- stack operations ---------------------------------------------------

    @property
    def active_window(self) -> Optional[Window]:
        """The topmost window (receives keyboard input)."""
        return self.windows[-1] if self.windows else None

    def open(self, window: Window) -> Window:
        """Push a window on top of the stack and activate it."""
        if window in self.windows:
            raise WindowError("window is already open")
        if self.active_window is not None:
            self.active_window.active = False
        self.windows.append(window)
        window.active = True
        return window

    def close(self, window: Window) -> None:
        """Remove a window; the next topmost becomes active."""
        if window not in self.windows:
            raise WindowError("window is not open")
        self.windows.remove(window)
        window.active = False
        if self.active_window is not None:
            self.active_window.active = True

    def raise_window(self, window: Window) -> None:
        """Bring *window* to the top of the z-order and activate it."""
        if window not in self.windows:
            raise WindowError("window is not open")
        if self.active_window is not None:
            self.active_window.active = False
        self.windows.remove(window)
        self.windows.append(window)
        window.active = True

    def cycle(self) -> Optional[Window]:
        """Rotate the bottom window to the top (the F1 'next window' verb)."""
        if len(self.windows) > 1:
            bottom = self.windows[0]
            self.raise_window(bottom)
        return self.active_window

    def tile(self) -> None:
        """Tile all windows side by side across the screen."""
        count = len(self.windows)
        if count == 0:
            return
        width = self.renderer.width // count
        if width < 4:
            raise WindowError(f"cannot tile {count} windows into {self.renderer.width} columns")
        for position, window in enumerate(self.windows):
            x = position * width
            window.rect = Rect(x, 0, width, self.renderer.height)

    # -- events -----------------------------------------------------------

    def dispatch(self, event: KeyEvent) -> bool:
        """Send a key to the active window; F1 cycles windows globally.

        Returns True if anything consumed the event.
        """
        if event.key == Key.F1:
            self.cycle()
            return True
        window = self.active_window
        if window is None:
            return False
        return window.handle_key(event)

    # -- rendering -----------------------------------------------------------

    def render_frame(self) -> int:
        """Composite all windows and flush; returns cells transmitted."""
        back = self.renderer.begin_frame()
        for window in self.windows:
            window.render(back)
        return self.renderer.flush()

    def screen_text(self) -> str:
        """Text of the currently *presented* frame (front buffer)."""
        return self.renderer.front.to_text()
