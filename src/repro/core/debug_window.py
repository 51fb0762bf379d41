"""The F11 debug window (live metrics + slow statements) and the F12 query
inspector (a browser over the ``_statements`` telemetry table).

Both are read-only, in-app faces of the ``repro.obs`` subsystem.  F11
formats ``Database.metrics_snapshot()`` and the ``_slow_ops`` rows (the
statement log filtered by ``Database.slow_ms``) as text; F12 is
an ordinary :class:`~repro.core.browser.BrowserWindow` over the
``_statements`` system relation — the forms runtime browsing the engine's
own telemetry.  Inside the metrics window:

    F5            re-snapshot the metrics
    PGUP / PGDN   scroll
    HOME / END    jump to top / bottom
"""

from __future__ import annotations

import time
from typing import List

from repro.core.browser import BrowserWindow
from repro.relational.database import Database
from repro.windows.events import Key, KeyEvent
from repro.windows.geometry import Rect
from repro.windows.screen import ScreenBuffer
from repro.windows.widgets import StatusBar, Widget
from repro.windows.window import Window


class _MetricsPane(Widget):
    """A scrollable read-only text pane."""

    def __init__(self, rect: Rect) -> None:
        super().__init__(rect)
        self.lines: List[str] = []
        self.scroll = 0

    def set_lines(self, lines: List[str]) -> None:
        self.lines = lines
        self.scroll = min(self.scroll, self._max_scroll())

    def _max_scroll(self) -> int:
        return max(0, len(self.lines) - self.rect.height)

    def scroll_by(self, delta: int) -> None:
        self.scroll = max(0, min(self.scroll + delta, self._max_scroll()))

    def render(self, screen: ScreenBuffer, dx: int, dy: int) -> None:
        for line_no in range(self.rect.height):
            index = self.scroll + line_no
            text = self.lines[index] if index < len(self.lines) else ""
            screen.write(
                self.rect.x + dx,
                self.rect.y + dy + line_no,
                text[: self.rect.width].ljust(self.rect.width),
            )


def _snapshot_lines(db: Database) -> List[str]:
    """Format the metrics snapshot and slow statements for display."""
    snap = db.metrics_snapshot()
    lines: List[str] = []

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(f"== {title} ==")

    for title, key in (
        ("statements", "statements"),
        ("pager", "pager"),
        ("wal", "wal"),
        ("btree", "btree"),
        ("txn", "txn"),
        ("planner", "planner"),
        ("plan cache", "plan_cache"),
        ("statement log", "statement_log"),
        ("integrity", "integrity"),
    ):
        counters = snap[key]
        section(title)
        if not counters:
            lines.append("  (none)")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<20} {value}")

    registry = snap["registry"]
    if registry["counters"]:
        section("counters")
        for name, value in sorted(registry["counters"].items()):
            lines.append(f"  {name:<28} {value}")
    if registry["histograms"]:
        section("histograms (ms)")
        for name, summary in sorted(registry["histograms"].items()):
            lines.append(
                f"  {name:<28} n={summary['count']}"
                f" mean={summary['mean']:.2f}"
                f" p95={summary['p95'] if summary['p95'] is None else round(summary['p95'], 2)}"
                f" max={summary['max'] if summary['max'] is None else round(summary['max'], 2)}"
            )

    section(f"slow statements (>= {db.slow_ms:g} ms)")
    slow = db.statement_log.slow_records(db.slow_ms)
    for record in slow:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.ts))
        lines.append(f"  {stamp} {record.duration_ms:8.2f} ms  {record.sql}")
    if not slow:
        lines.append("  (empty)")
    return lines


class MetricsWindow(Window):
    """The observability window a running WowApp opens with F11."""

    def __init__(self, db: Database, rect: Rect) -> None:
        super().__init__("Metrics", rect)
        self.db = db
        content = self.content
        self.pane = _MetricsPane(Rect(0, 0, content.width, content.height - 1))
        self.add(self.pane)
        self.status = StatusBar(0, content.height - 1, content.width)
        self.add(self.status)
        self.status.set_message("F5 refresh; PGUP/PGDN scroll; F11 close")
        self.refresh()

    def refresh(self) -> None:
        self.pane.set_lines(_snapshot_lines(self.db))

    def handle_key(self, event: KeyEvent) -> bool:
        key = event.key
        if key == Key.F5:
            self.refresh()
            return True
        if key == Key.PGUP:
            self.pane.scroll_by(-self.pane.rect.height)
            return True
        if key == Key.PGDN:
            self.pane.scroll_by(self.pane.rect.height)
            return True
        if key == Key.HOME:
            self.pane.scroll = 0
            return True
        if key == Key.END:
            self.pane.scroll = self.pane._max_scroll()
            return True
        return super().handle_key(event)


class QueryInspectorWindow(BrowserWindow):
    """The F12 query inspector: a browser window over ``_statements``.

    Every executed statement of the session, newest last (the grid orders
    by the ``seq`` primary key), with fingerprint, plan-cache hit/miss,
    est/act rows, duration, and pages read.  F5 (inherited) re-queries the
    ring, so the inspector refreshes like any other browser.
    """

    def __init__(self, db: Database, rect: Rect) -> None:
        super().__init__(db, "_statements", rect)
        self.title = "Query Inspector"
