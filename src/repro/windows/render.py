"""The differential renderer.

The renderer owns two buffers: the *front* buffer (what the terminal shows)
and a *back* buffer the compositor draws each frame into.  ``flush`` sends
the frame to the terminal:

* differential mode (the paper's design, D2 in DESIGN.md): diff back vs
  front and transmit only changed cells;
* full mode (the ablation): retransmit every cell.

"Transmitting" means counting — the substrate is headless.  The counters
model the dominant cost of a 9600-baud 1983 terminal: bytes on the wire.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.obs import get_registry
from repro.windows.screen import Cell, ScreenBuffer


class Renderer:
    """Double-buffered renderer with per-flush cell-write accounting."""

    def __init__(self, width: int, height: int, differential: bool = True) -> None:
        self.width = width
        self.height = height
        self.differential = differential
        self.front = ScreenBuffer(width, height)
        self.back = ScreenBuffer(width, height)
        #: cumulative count of cells transmitted to the "terminal"
        self.cells_transmitted = 0
        #: number of flush() calls
        self.frames = 0
        #: cells transmitted by the most recent flush
        self.last_frame_cells = 0

    def begin_frame(self) -> ScreenBuffer:
        """Clear and return the back buffer for the compositor to draw on."""
        self.back.clear()
        return self.back

    def flush(self) -> int:
        """Present the back buffer; returns cells transmitted this frame."""
        if self.differential:
            changes = self.back.diff(self.front)
            transmitted = len(changes)
        else:
            transmitted = self.width * self.height
        self.front.copy_from(self.back)
        self.cells_transmitted += transmitted
        self.last_frame_cells = transmitted
        self.frames += 1
        registry = get_registry()
        registry.counter("windows.frames").inc()
        registry.counter("windows.cells_transmitted").inc(transmitted)
        registry.histogram("windows.frame_cells").observe(transmitted)
        return transmitted

    def changed_cells(self) -> List[Tuple[int, int, Cell]]:
        """The pending differences (without flushing) — for tests."""
        return self.back.diff(self.front)

    def reset_stats(self) -> None:
        self.cells_transmitted = 0
        self.frames = 0
        self.last_frame_cells = 0
