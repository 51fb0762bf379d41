"""Concurrency correctness analyzer: static lock-order / latch-discipline
checking over an intra-package call graph, cross-checked by an opt-in
Eraser-style dynamic lockset detector.

* :mod:`lockmodel`  — the closed inventory of synchronization objects
* :mod:`callgraph`  — conservative AST call graph with lock events
* :mod:`lockorder`  — held-set propagation; rules WOW009 and WOW010
* :mod:`dynlock`    — the ``WOW_LOCK_CHECK=1`` runtime shim
* :mod:`report`     — CLI / metrics / JSON rendering, cached per process

The interprocedural core (callgraph + may/must-held propagation) is the
substrate future discipline rules build on — MVCC version-visibility, for
one — which is why it lives in its own package rather than inside the
per-file wowlint rules.
"""

from __future__ import annotations

from repro.analysis.concurrency.callgraph import CallGraph, build_graph
from repro.analysis.concurrency.lockorder import (
    AnalysisReport,
    analyze_package,
    analyze_sources,
)
from repro.analysis.concurrency import dynlock, lockmodel, report

__all__ = [
    "AnalysisReport",
    "CallGraph",
    "analyze_package",
    "analyze_sources",
    "build_graph",
    "dynlock",
    "lockmodel",
    "report",
]
