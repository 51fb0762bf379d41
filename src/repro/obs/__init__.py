"""``repro.obs`` — in-process observability: metrics, spans, statement log.

Three pieces, all stdlib-only and always on:

* :class:`Registry` — named counters and histograms with percentile
  summaries (:mod:`repro.obs.registry`);
* :class:`Tracer` / :class:`Span` — context-manager spans on a
  thread-local stack shared across tracer instances, each span's duration
  landing in a ``span.<name>`` histogram (:mod:`repro.obs.tracer`);
* :class:`StatementLog` — the one per-statement record: a bounded ring of
  every executed statement, browsable as ``_statements`` and filtered by
  duration as ``_slow_ops`` (:mod:`repro.obs.statlog`,
  :mod:`repro.obs.systables`).

A process-wide default registry (:func:`get_registry`) serves the UI
layers; each :class:`~repro.relational.database.Database` additionally
owns a tracer wired to the same registry unless told otherwise, and its
own statement log.  EXPLAIN ANALYZE plumbing lives in
:mod:`repro.obs.analyze`.
"""

from .analyze import OpStats, instrument, operator_rows, render_analyze, stats_tree
from .registry import Counter, Histogram, Registry, get_registry, set_registry
from .statlog import (
    JsonlSink,
    PlanOpStat,
    StatementLog,
    StatementRecord,
    fingerprint_sql,
    misestimate_factor,
    plan_fingerprint,
    read_jsonl,
    set_default_sink,
)
from .tracer import Span, Tracer, current_span

__all__ = [
    "Counter",
    "Histogram",
    "Registry",
    "get_registry",
    "set_registry",
    "Span",
    "Tracer",
    "current_span",
    "OpStats",
    "instrument",
    "render_analyze",
    "stats_tree",
    "operator_rows",
    "StatementLog",
    "StatementRecord",
    "PlanOpStat",
    "JsonlSink",
    "fingerprint_sql",
    "plan_fingerprint",
    "misestimate_factor",
    "read_jsonl",
    "set_default_sink",
]
