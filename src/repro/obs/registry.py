"""The metrics registry: named counters and histograms.

Design rules (see docs/INTERNALS.md §Observability):

* **Zero dependencies** — everything here is stdlib-only and in-process.
* **Always on** — there is no switch; an instrumented call site costs a
  locked dict lookup and an add.
* **JSON all the way down** — :meth:`Registry.snapshot` returns plain
  dicts/lists/numbers, so ``json.dumps`` always succeeds on it.

Metric names are dotted paths (``pager.page_reads``, ``span.db.execute``);
the registry imposes no hierarchy beyond the convention.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Optional

#: ring size for histogram percentile windows (recent samples)
_HISTOGRAM_WINDOW = 1024


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Streaming summary of observed values with windowed percentiles.

    Count/total/min/max cover the full stream; percentiles are computed
    over a ring of the most recent ``_HISTOGRAM_WINDOW`` samples, which is
    exact for short runs and a recency-weighted estimate for long ones.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_window")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._window: Deque[float] = deque(maxlen=_HISTOGRAM_WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._window.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The *q*-th percentile (0..100) of the recent-sample window."""
        if not self._window:
            return None
        ordered = sorted(self._window)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class Registry:
    """A namespace of metrics instruments, snapshottable as JSON."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- instrument factories ---------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- one-shot helpers ---------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter *name*."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name*."""
        self.histogram(name).observe(value)

    # -- export -------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as a JSON-serialisable dict."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "histograms": {
                    n: h.summary() for n, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Forget every instrument (tests and benchmark iterations)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


# -- process-wide default registry ------------------------------------------

_default_registry = Registry()


def get_registry() -> Registry:
    """The process-wide default registry (shared by UI-layer components)."""
    return _default_registry


def set_registry(registry: Registry) -> Registry:
    """Swap the default registry; returns the previous one (for tests)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
