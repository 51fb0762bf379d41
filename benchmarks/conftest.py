"""Shared benchmark infrastructure.

Every bench module regenerates one table or figure of the reconstructed
evaluation (see DESIGN.md §4).  Output goes three places:

* the terminal (via the ``report`` fixture, which bypasses capture), so
  ``pytest benchmarks/ --benchmark-only`` shows the tables live;
* ``benchmarks/results/<name>.txt``, which EXPERIMENTS.md is built from;
* ``benchmarks/results/<name>.json``, the same sections and tables as
  structured data, for tooling that tracks results across commits.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def report(capsys):
    """A print function that bypasses pytest capture and records to a file.

    Usage::

        def test_table(report, ...):
            report.section("Table 1 — ...")
            report.row("task", "forms", "sql")
            report.save("table1")
    """

    class _Reporter:
        def __init__(self) -> None:
            self.lines: List[str] = []
            self.sections: List[Dict[str, Any]] = []

        def _current_section(self) -> Dict[str, Any]:
            if not self.sections:
                self.sections.append({"title": None, "tables": []})
            return self.sections[-1]

        def line(self, text: str = "") -> None:
            self.lines.append(text)
            with capsys.disabled():
                print(text)

        def section(self, title: str) -> None:
            self.sections.append({"title": title, "tables": []})
            self.line("")
            self.line("=" * len(title))
            self.line(title)
            self.line("=" * len(title))

        def table(self, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
            self._current_section()["tables"].append(
                {
                    "headers": [str(h) for h in headers],
                    "rows": [[v for v in row] for row in rows],
                }
            )
            widths = [len(str(h)) for h in headers]
            text_rows = [[str(v) for v in row] for row in rows]
            for row in text_rows:
                for index, value in enumerate(row):
                    widths[index] = max(widths[index], len(value))
            self.line(
                "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
            )
            self.line("  ".join("-" * w for w in widths))
            for row in text_rows:
                self.line("  ".join(v.ljust(w) for v, w in zip(row, widths)))

        def save(self, name: str) -> None:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            path = os.path.join(RESULTS_DIR, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(self.lines) + "\n")
            json_path = os.path.join(RESULTS_DIR, f"{name}.json")
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(
                    {"benchmark": name, "sections": self.sections},
                    fh,
                    indent=2,
                    default=str,
                )
                fh.write("\n")

    return _Reporter()
