"""Rendering + caching for the concurrency analyzer.

Feeds two consumers: ``python -m repro.analysis --concurrency`` (human
or ``--json``) and the wowlint project pass (which only wants the
Violations).  The engine never runs the analyzer itself; the live
dynamic-detector state is :func:`dynlock.snapshot`.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from repro.analysis.concurrency import dynlock, lockmodel
from repro.analysis.concurrency.lockorder import AnalysisReport, analyze_package

#: the package the analyzer covers, derived from this file's location
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_cache_lock = threading.Lock()
_cached: Optional[AnalysisReport] = None

#: the invariants the static pass checks, for the CLI banner and docs
CHECKED_INVARIANTS = (
    "no cycle in the static lock-order graph (mutex-over-mutex)",
    "no Condition.wait / table-lock acquisition reachable with the "
    "engine latch held",
    "CATALOG_RESOURCE acquired before table locks at resolvable sites",
    "shared module-level state is either always or never lock-guarded "
    "(no mixed guarded/unguarded mutation paths)",
)


def cached_report(package_root: Optional[str] = None) -> AnalysisReport:
    """Run the static analysis once per process and memoise the result
    (sources on disk don't change under a running engine)."""
    global _cached
    with _cache_lock:
        if _cached is None:
            _cached = analyze_package(package_root or PACKAGE_ROOT)
        return _cached


def invalidate_cache() -> None:
    global _cached
    with _cache_lock:
        _cached = None


def report_to_dict(report: AnalysisReport,
                   violations: Optional[List[Any]] = None) -> Dict[str, Any]:
    if violations is None:
        violations = report.violations
    return {
        "functions": report.functions,
        "call_edges": report.call_edges,
        "lock_order": report.ordered_locks,
        "order_edges": [
            {"first": e.first, "then": e.then, "at": f"{e.relpath}:{e.line}",
             "scope": e.scope}
            for e in report.order_edges
        ],
        "cycles": report.cycles,
        "checked_invariants": list(CHECKED_INVARIANTS),
        "violations": [
            {"code": v.code, "path": v.path, "line": v.line,
             "scope": v.scope, "message": v.message}
            for v in violations
        ],
        "reach": report.reach,
        "unmodeled_locks": [
            {"path": p, "line": ln, "name": name}
            for p, ln, name in report.unmodeled
        ],
    }


def render_report(report: AnalysisReport,
                  violations: Optional[List[Any]] = None) -> str:
    """The human CLI output.  *violations* overrides the raw list with a
    baseline/allow-filtered one (the wowlint CLI passes that in)."""
    if violations is None:
        violations = report.violations
    lines: List[str] = []
    lines.append("concurrency analysis: "
                 f"{report.functions} functions, {report.call_edges} call "
                 f"edges, {len(report.order_edges)} lock-order edges")
    lines.append("")
    lines.append("lock model:")
    for key in lockmodel.MUTEX_KEYS + (lockmodel.TABLE_LOCKS,
                                       lockmodel.CATALOG_RESOURCE_LOCK):
        spec = lockmodel.SPECS_BY_KEY[key]
        reach = report.reach.get(key)
        suffix = (f"  [may be held entering {reach} functions]"
                  if reach else "")
        lines.append(f"  {key:<17} {spec.description}{suffix}")
    lines.append("")
    lines.append("discovered lock order (outermost first):")
    ordered = report.ordered_locks
    if ordered:
        lines.append("  " + " -> ".join(ordered))
    else:
        lines.append("  (no nested acquisitions observed)")
    for edge in report.order_edges:
        lines.append("    " + edge.render())
    lines.append("")
    lines.append("checked invariants:")
    for inv in CHECKED_INVARIANTS:
        lines.append(f"  - {inv}")
    lines.append("")
    if report.cycles:
        lines.append("lock-order CYCLES:")
        for cycle in report.cycles:
            lines.append("  " + " -> ".join(cycle + [cycle[0]]))
    else:
        lines.append("lock order is cycle-free.")
    if report.unmodeled:
        lines.append("")
        lines.append("unmodeled lock-like contexts (extend lockmodel.LOCK_SPECS):")
        for path, line, name in report.unmodeled:
            lines.append(f"  {path}:{line}: with {name}")
    lines.append("")
    if violations:
        lines.append(f"{len(violations)} violation(s):")
        for v in violations:
            lines.append(v.render())
    else:
        lines.append("no violations.")
    dyn = dynlock.snapshot()
    if dyn["enabled"] or dyn["violations"]:
        lines.append("")
        lines.append(
            "dynamic detector: "
            f"{dyn['acquisitions']} acquisitions, "
            f"{dyn['lockset_runs']} locksets, "
            f"{len(dyn['violations'])} violation(s)")
        for violation in dyn["violations"]:
            lines.append(f"  [{violation.get('kind')}] "
                         f"{violation.get('message')}")
    return "\n".join(lines)


def run_cli(as_json: bool, package_root: Optional[str] = None,
            violations: Optional[List[Any]] = None) -> int:
    """Back end of ``python -m repro.analysis --concurrency [--json]``.
    Exit 1 on any (unsuppressed) static violation or order cycle."""
    report = cached_report(package_root)
    if violations is None:
        violations = report.violations
    if as_json:
        payload = report_to_dict(report, violations)
        payload["lock_check"] = dynlock.snapshot()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_report(report, violations))
    return 1 if (violations or report.cycles) else 0
