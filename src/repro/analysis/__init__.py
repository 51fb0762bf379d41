"""Static analysis for the engine: the ``wowlint`` invariant linter and
the plan verifier.

The engine carries invariants that no runtime assertion can enforce
cheaply — *every* durability-relevant I/O call must flow through the
:class:`~repro.relational.faults.IOShim` or fault injection silently loses
coverage; no handler may swallow ``InjectedCrash``; compiled expressions
must never apply Python truthiness to three-valued-logic results.  This
package enforces them at review time instead of relying on vigilance:

* :mod:`repro.analysis.linter` — ``wowlint``, an AST linter with
  engine-specific per-file rules (see :mod:`repro.analysis.rules`) and
  the WOW009/WOW010 concurrency pass,
  a checked-in baseline for pre-existing debt, and a CLI
  (``python -m repro.analysis --check src tests``) wired into CI;
* :mod:`repro.analysis.planverify` — a static verifier for physical plan
  trees (schema/arity/type invariants at every operator boundary), run on
  every freshly planned query when ``WOW_VERIFY_PLANS=1`` and always on
  ``EXPLAIN``.

Everything here is stdlib-only by design (``--self-check`` proves it), so
the linter runs in CI before any dependency is installed.
"""

from __future__ import annotations

from repro.analysis.linter import LintReport, lint_paths, lint_source, main
from repro.analysis.planverify import (
    PlanVerificationError,
    VERIFY_METRICS,
    iter_operators,
    maybe_verify_plan,
    verify_plan,
)
from repro.analysis.rules import RULES, Violation

__all__ = [
    "LintReport",
    "PlanVerificationError",
    "RULES",
    "VERIFY_METRICS",
    "Violation",
    "iter_operators",
    "lint_paths",
    "lint_source",
    "main",
    "maybe_verify_plan",
    "verify_plan",
]
