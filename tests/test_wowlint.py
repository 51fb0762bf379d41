"""wowlint unit tests: each rule fires on a seeded violation and stays
quiet on the compliant form, plus baseline/suppression/CLI behaviour."""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from repro.analysis import baseline as baseline_mod
from repro.analysis.linter import LintReport, lint_paths, lint_source, main
from repro.analysis.rules import Violation

ENGINE_PATH = "src/repro/relational/fake.py"
APP_PATH = "src/repro/forms/fake.py"
TEST_PATH = "tests/fake_test.py"


def codes(source: str, relpath: str = ENGINE_PATH):
    return [v.code for v in lint_source(textwrap.dedent(source), relpath)]


class TestWow001RawIO:
    def test_raw_os_calls_fire(self):
        src = """
            import os
            def flush(fd, data):
                os.write(fd, data)
                os.fsync(fd)
        """
        assert codes(src) == ["WOW001", "WOW001"]

    def test_writable_open_fires(self):
        assert codes("fh = open(p, 'w')\n") == ["WOW001"]
        assert codes("fh = open(p, mode='ab')\n") == ["WOW001"]

    def test_dynamic_mode_fires(self):
        # Mode unknown statically: must be treated as potentially writable.
        assert codes("fh = open(p, m)\n") == ["WOW001"]

    def test_read_open_and_shim_calls_clean(self):
        src = """
            def ok(self, p):
                with open(p, 'r') as fh:
                    fh.read()
                fd = self._io.open(p, 0)
                self._io.write_all(fd, b'x')
        """
        assert codes(src) == []

    def test_only_relational_paths_in_scope(self):
        assert codes("os.write(1, b'x')\n", APP_PATH) == []
        assert codes("os.write(1, b'x')\n", "src/repro/relational/faults.py") == []


class TestWow002BroadExcept:
    def test_bare_except_fires(self):
        src = """
            try:
                work()
            except:
                pass
        """
        assert "WOW002" in codes(src, APP_PATH)

    def test_broad_except_without_reraise_fires(self):
        for catcher in ("Exception", "BaseException", "(ValueError, Exception)"):
            src = f"""
                try:
                    work()
                except {catcher} as exc:
                    log(exc)
            """
            assert "WOW002" in codes(src, APP_PATH), catcher

    def test_bare_raise_is_compliant(self):
        src = """
            try:
                work()
            except Exception:
                undo()
                raise
        """
        assert codes(src, APP_PATH) == []

    def test_raise_new_exception_still_fires(self):
        # `raise Wrapped(...) from exc` swallows a crash signal caught by
        # a broad handler — only a bare `raise` re-raises it.
        src = """
            try:
                work()
            except Exception as exc:
                raise RuntimeError("wrapped") from exc
        """
        assert "WOW002" in codes(src, APP_PATH)

    def test_narrow_handler_clean(self):
        src = """
            try:
                work()
            except ValueError:
                pass
        """
        assert codes(src, APP_PATH) == []


class TestWow003Truthiness:
    def test_eval_in_if_fires(self):
        src = """
            def keep(pred, row):
                if pred.eval(row):
                    return row
        """
        assert "WOW003" in codes(src)

    def test_eval_in_not_and_boolop_fires(self):
        src = """
            def f(pred, other, row):
                return not pred.eval(row) or other.eval(row)
        """
        assert codes(src).count("WOW003") == 2

    def test_is_true_comparison_clean(self):
        src = """
            def keep(pred, row):
                if pred.eval(row) is True:
                    return row
        """
        assert codes(src) == []


class TestWow004Nondeterminism:
    def test_wall_clock_and_random_fire(self):
        src = """
            import random
            def stamp():
                return time.time(), random.random()
        """
        report = codes(src)
        assert report.count("WOW004") == 3  # import + two calls

    def test_perf_counter_clean(self):
        assert codes("start = time.perf_counter()\n") == []

    def test_out_of_scope_clean(self):
        assert codes("import random\n", APP_PATH) == []


class TestWow005UnpairedSpan:
    def test_span_outside_with_fires(self):
        src = """
            def work(tracer):
                span = tracer.span('work')
                span.tag('x', 1)
        """
        assert "WOW005" in codes(src, APP_PATH)

    def test_span_as_context_manager_clean(self):
        src = """
            def work(tracer):
                with tracer.span('work') as span:
                    span.tag('x', 1)
        """
        assert codes(src, APP_PATH) == []


class TestWow001ReadCoverage:
    def test_raw_reads_fire(self):
        src = """
            import os
            def fetch(fd, n, off):
                os.lseek(fd, off, os.SEEK_SET)
                data = os.read(fd, n)
                data2 = os.pread(fd, n, off)
                size = os.fstat(fd).st_size
        """
        # lseek is positioning, not I/O the shim must count; the reads and
        # the size probe each need shim routing.
        assert codes(src) == ["WOW001", "WOW001", "WOW001"]

    def test_shimmed_reads_clean(self):
        src = """
            def fetch(self, n, off):
                data = self._io.pread(self._fd, n, off)
                size = self._io.fstat(self._fd).st_size
        """
        assert codes(src) == []


class TestSuppressionAndBaseline:
    def test_inline_allow_on_line(self):
        src = "os.fsync(fd)  # wowlint: allow WOW001\n"
        assert codes(src) == []

    def test_inline_allow_on_previous_line(self):
        src = "# wowlint: allow WOW001\nos.fsync(fd)\n"
        assert codes(src) == []

    def test_inline_allow_other_code_does_not_suppress(self):
        src = "os.fsync(fd)  # wowlint: allow WOW002\n"
        assert codes(src) == ["WOW001"]

    def test_baseline_roundtrip(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "relational" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\n\ndef f(fd):\n    os.fsync(fd)\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")

        report = lint_paths([str(tmp_path)], use_baseline=False)
        assert [v.code for v in report.violations] == ["WOW001"]
        assert report.violations[0].scope == "f"

        baseline_file = tmp_path / baseline_mod.BASELINE_FILENAME
        baseline_file.write_text(baseline_mod.format_baseline(report.violations))
        report2 = lint_paths([str(tmp_path)])
        assert report2.ok
        assert report2.suppressed and not report2.stale

        # A *new* violation in a different scope is not covered.
        bad.write_text(bad.read_text() + "\ndef g(fd):\n    os.fsync(fd)\n")
        report3 = lint_paths([str(tmp_path)])
        assert [v.scope for v in report3.violations] == ["g"]

    def test_stale_entries_are_notes_not_failures(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        clean = tmp_path / "src" / "repro" / "relational" / "ok.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("x = 1\n")
        (tmp_path / baseline_mod.BASELINE_FILENAME).write_text(
            "WOW001 src/repro/relational/ok.py f\n"
        )
        report = lint_paths([str(tmp_path)])
        assert report.ok and report.stale

    def test_malformed_baseline_rejected(self):
        with pytest.raises(ValueError):
            baseline_mod.parse_baseline("WOW001 only-two-fields\n")


class TestCli:
    def test_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        bad = tmp_path / "src" / "repro" / "relational" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("os.remove(p)\n")
        assert main(["--check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "WOW001" in out and "fix:" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        ok = tmp_path / "src" / "repro" / "relational" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("x = 1\n")
        assert main(["--check", str(tmp_path)]) == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        bad = tmp_path / "src" / "repro" / "relational" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("os.remove(p)\n")
        assert main(["--check", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / baseline_mod.BASELINE_FILENAME).exists()
        assert main(["--check", str(tmp_path)]) == 0

    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["WOW001", "WOW002", "WOW003", "WOW004", "WOW005"]

    def test_format_json(self, capsys):
        exit_code = main(["--check", "src/repro/analysis", "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["ok"] is True
        assert payload["files_checked"] > 0

    def test_format_github_annotations(self):
        report = LintReport()
        report.violations.append(Violation(
            code="WOW009", path="src/repro/session/locks.py", line=12,
            col=4, scope="LockManager.acquire",
            message="bad % and\nnewline", fixit="do better"))
        report.files_checked = 1
        rendered = report.render_github()
        assert "::error file=src/repro/session/locks.py,line=12,col=5," in rendered
        assert "title=WOW009::" in rendered
        # workflow-command escaping
        assert "%25" in rendered and "%0A" in rendered

    def test_strict_fails_on_stale_entries(self, tmp_path):
        src_dir = tmp_path / "src" / "repro" / "relational"
        src_dir.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (src_dir / "clean.py").write_text("x = 1\n")
        baseline = tmp_path / "wowlint.baseline"
        baseline.write_text(
            "WOW001 src/repro/relational/clean.py <module>\n")
        report = lint_paths([str(tmp_path / "src")],
                            baseline_path=str(baseline))
        assert report.ok  # non-strict: stale is a note
        assert report.stale
        exit_code = main(["--check", str(tmp_path / "src"),
                          "--baseline", str(baseline), "--strict"])
        assert exit_code == 1

    def test_strict_passes_on_clean_baseline(self):
        exit_code = main(["--check", "src", "tests", "--strict"])
        assert exit_code == 0


class TestRepoIsClean:
    def test_repo_lints_clean_under_checked_in_baseline(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        report = lint_paths([os.path.join(root, "src"), os.path.join(root, "tests")])
        assert report.ok, report.render()
        assert not report.stale, report.render()

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        bad = tmp_path / "src" / "repro" / "relational" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(:\n")
        report = lint_paths([str(tmp_path)])
        assert not report.ok and report.parse_errors
