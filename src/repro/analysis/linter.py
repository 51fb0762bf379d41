"""wowlint: file walking, rule dispatch, baseline application, CLI entry.

``lint_source`` lints one in-memory file (the unit the rule tests drive);
``lint_paths`` walks real paths and applies the baseline and inline
suppressions.  ``main`` is the
argparse CLI behind ``python -m repro.analysis``.

Inline suppression: a ``# wowlint: allow WOW00x`` comment on the violating
line (or the line directly above it) suppresses that code there.  Use it
for single deliberate exceptions; use the baseline for pre-existing debt.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import baseline as baseline_mod
from repro.analysis.rules import (
    RULE_CATALOG,
    RULES,
    Violation,
    annotate_scopes,
)

_ALLOW_RE = re.compile(r"#\s*wowlint:\s*allow\s+([A-Z0-9,\s]+)")


@dataclass
class LintReport:
    """Everything one lint run produced, pre-rendered decisions included."""

    violations: List[Violation] = field(default_factory=list)  # non-baselined
    suppressed: List[Tuple[str, str, str]] = field(default_factory=list)
    stale: List[Tuple[str, str, str]] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def render(self) -> str:
        lines: List[str] = []
        for v in sorted(self.violations, key=lambda v: (v.path, v.line, v.code)):
            lines.append(v.render())
        for err in self.parse_errors:
            lines.append(f"error: {err}")
        for code, path, scope in self.stale:
            lines.append(f"note: stale baseline entry {code} {path} {scope} (violation gone — remove it)")
        summary = (
            f"wowlint: {self.files_checked} files, "
            f"{len(self.violations)} new violations, "
            f"{len(self.suppressed)} baselined, {len(self.stale)} stale"
        )
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report (``--format=json``)."""
        payload = {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "violations": [
                {
                    "code": v.code, "path": v.path, "line": v.line,
                    "col": v.col + 1, "scope": v.scope,
                    "message": v.message, "fixit": v.fixit,
                }
                for v in sorted(self.violations,
                                key=lambda v: (v.path, v.line, v.code))
            ],
            "baselined": len(self.suppressed),
            "stale_baseline_entries": [
                {"code": c, "path": p, "scope": s} for c, p, s in self.stale
            ],
            "parse_errors": list(self.parse_errors),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_github(self) -> str:
        """GitHub Actions workflow commands (``--format=github``): every
        violation becomes a clickable annotation on the PR diff."""

        def esc(text: str) -> str:
            # workflow-command data: %, CR, LF must be URL-escaped
            return (text.replace("%", "%25")
                        .replace("\r", "%0D").replace("\n", "%0A"))

        lines: List[str] = []
        for v in sorted(self.violations, key=lambda v: (v.path, v.line, v.code)):
            lines.append(
                f"::error file={v.path},line={v.line},col={v.col + 1},"
                f"title={v.code}::{esc(v.message)} (fix: {esc(v.fixit)})"
            )
        for err in self.parse_errors:
            lines.append(f"::error title=wowlint::{esc(err)}")
        for code, path, scope in self.stale:
            lines.append(
                f"::warning file={path},title=stale baseline::"
                f"{esc(f'{code} {scope}: violation gone — remove the entry')}"
            )
        lines.append(
            f"wowlint: {self.files_checked} files, "
            f"{len(self.violations)} new violations, "
            f"{len(self.suppressed)} baselined, {len(self.stale)} stale"
        )
        return "\n".join(lines)


def _allowed_lines(source: str) -> Dict[int, Set[str]]:
    """line -> codes suppressed on that line (comment's own line and the next)."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _ALLOW_RE.search(text)
        if not m:
            continue
        codes = {c.strip() for c in m.group(1).replace(",", " ").split() if c.strip()}
        allowed.setdefault(lineno, set()).update(codes)
        allowed.setdefault(lineno + 1, set()).update(codes)
    return allowed


def lint_source(source: str, relpath: str) -> List[Violation]:
    """Run every applicable per-file rule over *source* as *relpath*
    (posix-style, repo-relative — scoping keys off the path)."""
    applicable = [rule for rule in RULES if rule.applies(relpath)]
    if not applicable:
        return []
    tree = ast.parse(source)
    annotate_scopes(tree)
    allowed = _allowed_lines(source)
    out: List[Violation] = []
    for rule in applicable:
        for v in rule.check(tree, relpath):
            if v.code in allowed.get(v.line, ()):  # inline `# wowlint: allow`
                continue
            out.append(v)
    return out


def _iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in {"__pycache__", ".git", ".venv"}
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)


def find_repo_root(start: str) -> Optional[str]:
    """Walk upward from *start* looking for pyproject.toml (the repo root
    marker); the baseline file and relpath normalization anchor there."""
    cur = os.path.abspath(start)
    if os.path.isfile(cur):
        cur = os.path.dirname(cur)
    while True:
        if os.path.isfile(os.path.join(cur, "pyproject.toml")):
            return cur
        parent = os.path.dirname(cur)
        if parent == cur:
            return None
        cur = parent


def _relpath(path: str, root: Optional[str]) -> str:
    abspath = os.path.abspath(path)
    if root and (abspath == root or abspath.startswith(root + os.sep)):
        rel = os.path.relpath(abspath, root)
    else:
        rel = path
    return rel.replace(os.sep, "/")


def lint_paths(
    paths: Sequence[str],
    baseline_path: Optional[str] = None,
    use_baseline: bool = True,
) -> LintReport:
    """Lint files/directories and apply the baseline."""
    root = None
    for p in paths:
        root = find_repo_root(p)
        if root:
            break
    report = LintReport()
    all_violations: List[Violation] = []
    seen: Set[str] = set()
    for path in _iter_python_files(paths):
        relpath = _relpath(path, root)
        if relpath in seen:
            continue
        seen.add(relpath)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.parse_errors.append(f"{relpath}: unreadable ({exc})")
            continue
        report.files_checked += 1
        try:
            all_violations.extend(lint_source(source, relpath))
        except SyntaxError as exc:
            report.parse_errors.append(f"{relpath}: syntax error at line {exc.lineno}")

    if baseline_path is None and root:
        candidate = os.path.join(root, baseline_mod.BASELINE_FILENAME)
        if os.path.isfile(candidate):
            baseline_path = candidate
    entries: Set[Tuple[str, str, str]] = set()
    if use_baseline and baseline_path and os.path.isfile(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as fh:
            entries = baseline_mod.parse_baseline(fh.read())
    new, suppressed, stale = baseline_mod.apply_baseline(all_violations, entries)
    report.violations = new
    report.suppressed = suppressed
    report.stale = stale
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "wowlint: engine-invariant linter (WOW001-WOW005)"
        ),
    )
    parser.add_argument(
        "--check", nargs="+", metavar="PATH", help="lint these files/directories"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default="human",
        help="report format: human (default), json, or GitHub Actions annotations",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail (exit 1) on stale baseline entries",
    )
    parser.add_argument(
        "--baseline", help=f"baseline file (default: {baseline_mod.BASELINE_FILENAME} at repo root)"
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="report all violations, ignoring the baseline"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from current violations and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="verify repro.analysis is stdlib-only and lints itself clean",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, title in sorted(RULE_CATALOG.items()):
            print(f"{code}  {title}")
        return 0

    if args.self_check:
        from repro.analysis.selfcheck import run_self_check

        problems = run_self_check()
        if problems:
            for p in problems:
                print(f"self-check: {p}")
            return 1
        print("self-check: repro.analysis is stdlib-only and lints clean")
        return 0

    if not args.check:
        parser.print_usage()
        print("error: --check PATH... is required (or --list-rules / --self-check)")
        return 2

    if args.write_baseline:
        report = lint_paths(args.check, baseline_path=args.baseline, use_baseline=False)
        root = None
        for p in args.check:
            root = find_repo_root(p)
            if root:
                break
        target = args.baseline or os.path.join(
            root or os.getcwd(), baseline_mod.BASELINE_FILENAME
        )
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(baseline_mod.format_baseline(report.violations))
        print(f"wrote {len({v.key() for v in report.violations})} entries to {target}")
        return 0

    report = lint_paths(
        args.check, baseline_path=args.baseline, use_baseline=not args.no_baseline
    )
    if args.format == "json":
        print(report.render_json())
    elif args.format == "github":
        print(report.render_github())
    else:
        print(report.render())
    ok = report.ok and not (args.strict and report.stale)
    return 0 if ok else 1
