"""Analysis for the engine: the ``wowlint`` invariant linter, the plan
verifier and the dynamic lock checker.

The engine carries invariants that no runtime assertion can enforce
cheaply — *every* durability-relevant I/O call must flow through the
:class:`~repro.relational.faults.IOShim` or fault injection silently loses
coverage; no handler may swallow ``InjectedCrash``; compiled expressions
must never apply Python truthiness to three-valued-logic results.

* :mod:`repro.analysis.linter` — ``wowlint``, an AST linter with
  engine-specific per-file rules (see :mod:`repro.analysis.rules`), a
  checked-in baseline for pre-existing debt, and a CLI
  (``python -m repro.analysis --check src tests``) wired into CI;
* :mod:`repro.analysis.planverify` — a static verifier for physical plan
  trees (schema/arity/type invariants at every operator boundary), run on
  every freshly planned query when ``WOW_VERIFY_PLANS=1`` and always on
  ``EXPLAIN``;
* :mod:`repro.analysis.concurrency.dynlock` — the opt-in lockset detector
  (``WOW_LOCK_CHECK=1``) that checks lock order on the paths that run.

This package re-exports nothing: the engine imports ``dynlock`` when a
``Database`` is built and ``planverify`` when a plan is verified, and
neither pulls in the linter.  Everything here is stdlib-only by design
(``--self-check`` proves it), so the linter runs in CI before any
dependency is installed.
"""
