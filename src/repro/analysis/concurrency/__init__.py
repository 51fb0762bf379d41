"""Concurrency checking: :mod:`repro.analysis.concurrency.dynlock`, the
opt-in (``WOW_LOCK_CHECK=1``) Eraser-style lockset detector that
``Database`` and ``SessionManager`` wrap their locks in.  The seeded chaos
matrix (``tests/test_concurrency_stress.py``) runs under it in CI."""
