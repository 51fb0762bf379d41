"""Interaction-cost metrics shared by the forms UI and the baselines.

The reconstructed evaluation measures two quantities:

* **keystrokes** — every key a user presses, via :class:`KeystrokeMeter`
  (both the forms UI and the raw-SQL baseline count through this class, so
  Table 1 compares like with like);
* **cells transmitted** — counted by the renderer (Fig 3/4).

:class:`TerminalCostModel` converts (keystrokes, cells) into seconds at
1983 rates for the Fig 5 crossover: a competent typist and a 9600-baud
serial line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


class KeystrokeMeter:
    """Counts keystrokes, optionally per labelled task."""

    def __init__(self) -> None:
        self.total = 0
        self.by_task: Dict[str, int] = {}
        self._current_task: Optional[str] = None

    def start_task(self, name: str) -> None:
        """Begin attributing keystrokes to *name*.

        A repeated task name accumulates onto its existing count (a user
        returning to a task keeps its running total); it is never reset
        implicitly — use :meth:`reset` for a clean slate.
        """
        self._current_task = name
        self.by_task.setdefault(name, 0)

    def end_task(self) -> int:
        """Stop attributing; returns the finished task's count."""
        if self._current_task is None:
            return 0
        count = self.by_task[self._current_task]
        self._current_task = None
        return count

    def record(self, count: int = 1) -> None:
        """Count *count* keystrokes."""
        self.total += count
        if self._current_task is not None:
            self.by_task[self._current_task] += count

    def reset(self) -> None:
        self.total = 0
        self.by_task.clear()
        self._current_task = None


@dataclass
class TerminalCostModel:
    """Seconds of user-visible cost at 1983 terminal rates.

    Defaults: 2 keystrokes/second typing (a careful occasional user typing
    queries, not a touch-typist on prose) and 960 characters/second down a
    9600-baud line.
    """

    seconds_per_keystroke: float = 0.5
    seconds_per_cell: float = 1.0 / 960.0

    def cost(self, keystrokes: int, cells: int) -> float:
        """Total seconds for an interaction."""
        return keystrokes * self.seconds_per_keystroke + cells * self.seconds_per_cell
