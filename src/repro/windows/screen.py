"""The character-cell screen buffer.

A :class:`ScreenBuffer` is a fixed grid of :class:`Cell` (character +
attribute bits).  All drawing clips to the buffer (and optionally to a clip
rectangle), so widgets can draw naively.  The buffer records nothing about
what changed — the renderer diffs two buffers — but it counts the cells
drawing stores (``cells_written``), the measure of composition work.

A row is a list of interned cells, so what happens every frame — clear, span
writes, diff, copy — is done a row at a time by list operations at C speed
rather than a cell at a time in Python (docs/INTERNALS.md, "The display
path").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import GeometryError
from repro.windows.geometry import Rect


class Attr(enum.IntFlag):
    """Display attributes a 1983 terminal could render."""

    NORMAL = 0
    BOLD = 1
    REVERSE = 2
    UNDERLINE = 4
    DIM = 8


@dataclass(frozen=True)
class Cell:
    """One character cell."""

    char: str = " "
    attr: Attr = Attr.NORMAL

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise GeometryError(f"a cell holds exactly one character, got {self.char!r}")


class _CellTable(dict):
    """char -> the one shared Cell of that character, for a single attribute.

    Interning makes equal content the identical object, so comparing two rows
    (``list == list``) settles each position by identity at C speed instead
    of calling ``Cell.__eq__``.  Identity is only ever that fast path: a cell
    built past a budget below (or by a caller) is a plain equal-by-value Cell
    and every operation still treats it correctly.
    """

    def __init__(self, attr: Attr) -> None:
        self.attr = attr

    def __missing__(self, char: str) -> Cell:
        cell = Cell(char, self.attr)  # validates: exactly one character
        if len(self) < _MAX_CHARS:
            # setdefault: two threads racing here still agree on one object
            cell = self.setdefault(char, cell)
        return cell


#: intern budget: every combination of the four attribute bits, and per
#: attribute room for all of printable Latin-1 (so at most 4,096 cells)
_MAX_ATTRS = 16
_MAX_CHARS = 256
_TABLES: Dict[Attr, _CellTable] = {}


def _table(attr: Attr) -> _CellTable:
    """The intern table for *attr* (an unshared one once the budget is spent)."""
    table = _TABLES.get(attr)
    if table is None:
        table = _CellTable(attr)
        if len(_TABLES) < _MAX_ATTRS:
            table = _TABLES.setdefault(attr, table)
    return table


BLANK = _table(Attr.NORMAL)[" "]


class ScreenBuffer:
    """A width x height grid of cells with clipped drawing primitives."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise GeometryError(f"bad screen size {width}x{height}")
        self.width = width
        self.height = height
        self._blank_row: List[Cell] = [BLANK] * width
        self._cells: List[List[Cell]] = [list(self._blank_row) for _ in range(height)]
        #: total individual cell writes since construction (or reset_stats)
        self.cells_written = 0
        self.set_clip(None)

    # -- clipping -----------------------------------------------------------

    def set_clip(self, rect: Optional[Rect]) -> None:
        """Restrict subsequent writes to *rect* (None = whole screen)."""
        # the writable area (clip ∩ screen) as half-open bounds, resolved once
        # here so no drawing call consults a Rect per cell; empty when
        # left >= right or top >= bottom
        if rect is None:
            self._left, self._top, self._right, self._bottom = 0, 0, self.width, self.height
        else:
            self._left, self._top = max(rect.x, 0), max(rect.y, 0)
            self._right, self._bottom = min(rect.right, self.width), min(rect.bottom, self.height)

    # -- drawing ------------------------------------------------------------

    def put(self, x: int, y: int, char: str, attr: Attr = Attr.NORMAL) -> None:
        """Write one character (clipped)."""
        if self._left <= x < self._right and self._top <= y < self._bottom:
            self._cells[y][x] = _table(attr)[char]
            self.cells_written += 1

    def write(self, x: int, y: int, text: str, attr: Attr = Attr.NORMAL) -> None:
        """Write a string left-to-right starting at (x, y) (clipped)."""
        if self._top <= y < self._bottom:
            start, stop = max(x, self._left), min(x + len(text), self._right)
            if start < stop:
                cells = _table(attr)
                self._cells[y][start:stop] = map(cells.__getitem__, text[start - x : stop - x])
                self.cells_written += stop - start

    def fill(self, rect: Rect, char: str = " ", attr: Attr = Attr.NORMAL) -> None:
        """Fill a rectangle with one character (clipped)."""
        left, right = max(rect.x, self._left), min(rect.right, self._right)
        top, bottom = max(rect.y, self._top), min(rect.bottom, self._bottom)
        if left < right and top < bottom:
            run = [_table(attr)[char]] * (right - left)
            for row in self._cells[top:bottom]:
                row[left:right] = run
            self.cells_written += (right - left) * (bottom - top)

    def hline(self, x: int, y: int, length: int, char: str = "-", attr: Attr = Attr.NORMAL) -> None:
        if self._top <= y < self._bottom:
            start, stop = max(x, self._left), min(x + length, self._right)
            if start < stop:
                self._cells[y][start:stop] = [_table(attr)[char]] * (stop - start)
                self.cells_written += stop - start

    def vline(self, x: int, y: int, length: int, char: str = "|", attr: Attr = Attr.NORMAL) -> None:
        top, bottom = max(y, self._top), min(y + length, self._bottom)
        if self._left <= x < self._right and top < bottom:
            cell = _table(attr)[char]
            for row in self._cells[top:bottom]:
                row[x] = cell
            self.cells_written += bottom - top

    def box(self, rect: Rect, attr: Attr = Attr.NORMAL) -> None:
        """Draw a border box on the edge of *rect* with +-| characters."""
        self.hline(rect.x + 1, rect.y, rect.width - 2, "-", attr)
        self.hline(rect.x + 1, rect.bottom - 1, rect.width - 2, "-", attr)
        self.vline(rect.x, rect.y + 1, rect.height - 2, "|", attr)
        self.vline(rect.right - 1, rect.y + 1, rect.height - 2, "|", attr)
        for cx, cy in (
            (rect.x, rect.y),
            (rect.right - 1, rect.y),
            (rect.x, rect.bottom - 1),
            (rect.right - 1, rect.bottom - 1),
        ):
            self.put(cx, cy, "+", attr)

    def clear(self) -> None:
        """Blank the whole buffer (ignores the clip rectangle)."""
        for row in self._cells:
            row[:] = self._blank_row
        self.cells_written += self.width * self.height

    # -- reading ----------------------------------------------------------

    def cell(self, x: int, y: int) -> Cell:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise GeometryError(f"cell ({x},{y}) outside {self.width}x{self.height}")
        return self._cells[y][x]

    def row_text(self, y: int) -> str:
        """The characters of row *y* as a string."""
        return "".join(cell.char for cell in self._cells[y])

    def to_text(self) -> str:
        """The whole frame as newline-joined rows (tests and examples)."""
        return "\n".join(self.row_text(y) for y in range(self.height))

    def find(self, needle: str) -> Optional[Tuple[int, int]]:
        """(x, y) of the first occurrence of *needle* in row text, or None."""
        for y in range(self.height):
            x = self.row_text(y).find(needle)
            if x != -1:
                return (x, y)
        return None

    # -- diffing support ----------------------------------------------------

    def diff(self, other: "ScreenBuffer") -> List[Tuple[int, int, Cell]]:
        """Cells where *self* differs from *other* (same dimensions)."""
        if (other.width, other.height) != (self.width, self.height):
            raise GeometryError("cannot diff screens of different sizes")
        changes = []
        for y, (mine, theirs) in enumerate(zip(self._cells, other._cells)):
            if mine != theirs:  # interned cells: settled by identity, in C
                changes += [
                    (x, y, cell)
                    for x, (cell, old) in enumerate(zip(mine, theirs))
                    if cell is not old and cell != old
                ]
        return changes

    def copy_from(self, other: "ScreenBuffer") -> None:
        """Make this buffer identical to *other* (no write accounting)."""
        if (other.width, other.height) != (self.width, self.height):
            raise GeometryError("cannot copy screens of different sizes")
        for mine, theirs in zip(self._cells, other._cells):
            if mine != theirs:  # most rows of a frame did not change
                mine[:] = theirs

    def reset_stats(self) -> None:
        self.cells_written = 0
