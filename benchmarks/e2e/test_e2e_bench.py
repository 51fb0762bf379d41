"""Checks on the benchmark itself (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_bench.py

Everything runs at ``--quick`` scale (one budget second).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

from benchmarks.e2e import harness, trace, workloads

QUICK_SECONDS = harness.DEFAULT_SECONDS / 10
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: counts that must repeat exactly when one caller runs the same inputs
EXACT_COUNTS = (
    "windows.cells_per_key",
    "plancache.misses_per_op",
    "wal.bytes_per_commit",
    "executor.rows_examined_per_row_returned",
)
SINGLE_CALLER = ("form_browse", "form_edit", "report_scan")


def _benchmark_json() -> dict:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_names_units_caps_and_bounds():
    document = _benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    bounds = {entry["name"]: entry["bound"] for entry in document["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert document["run_seconds"] == harness.DEFAULT_SECONDS
    assert document["paths"] == ["benchmarks/e2e"]


def test_every_printed_name_is_declared_and_the_reverse():
    document = _benchmark_json()
    assert [tuple(e.values()) for e in document["end_to_end"]] == [tuple(e) for e in harness.END_TO_END]
    assert [tuple(e.values()) for e in document["per_layer"]] == [tuple(e) for e in harness.PER_LAYER]
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert set(harness.SELF_TIME_METRICS) <= {name for name, _, _ in harness.PER_LAYER}


@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_inputs_are_a_function_of_the_seed(workload):
    first = workload.generate(11, QUICK_SECONDS)
    again = workload.generate(11, QUICK_SECONDS)
    other = workload.generate(12, QUICK_SECONDS)
    assert first.digest == again.digest
    assert first.final_students == again.final_students
    assert first.digest != other.digest
    for phase in first.phases:
        if phase.timed:
            assert all(len(script) % workloads.BLOCKS == 0 for script in phase.scripts)


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced quick runs per single-caller workload, same seed."""
    return {
        name: [harness.run_workload(name, 5, QUICK_SECONDS, traced=True) for _ in range(2)]
        for name in SINGLE_CALLER
    }


@pytest.mark.parametrize("name", SINGLE_CALLER)
def test_same_seed_gives_identical_exact_counts(traced_runs, name):
    first, second = traced_runs[name]
    assert first.correct and second.correct, first.errors + second.errors
    assert first.attempted == second.attempted
    for metric in EXACT_COUNTS:
        assert first.metrics[metric].value == second.metrics[metric].value, metric
    assert set(first.metrics) == {n for n, _, _ in harness.PER_LAYER}


@pytest.mark.parametrize("name", SINGLE_CALLER)
def test_spans_nest_and_overhead_is_reported(traced_runs, name):
    run = traced_runs[name][0]
    threads = run.detail["threads"]
    assert sum(len(spans) for spans in threads) > 0
    assert trace.nesting_errors(threads) == 0
    assert run.metrics["trace.overhead_ratio"].value > 0
    # the reported self times account for the traced time per operation
    assert 0.9 <= run.metrics["trace.attributed_ratio"].value <= 1.1


def test_layer_predictions_hold_at_quick_scale(traced_runs):
    browse = traced_runs["form_browse"][0].metrics
    scan = traced_runs["report_scan"][0].metrics
    # at most the one prepare of a QBF shape the short warm-up did not reach
    assert browse["wal.commit_us"].value == 0 and browse["sql.parses_per_op"].value < 0.01
    assert browse["pager.hit_ratio"].value == 1.0
    assert scan["windows.render_us"].value == 0 and scan["forms.self_us"].value == 0
    assert scan["pager.hit_ratio"].value < 1.0
    assert scan["executor.rows_examined_per_row_returned"].value > 100


def _originals():
    """Every attribute the recorder replaces, before it does."""
    import importlib

    found = []
    for target in trace.BENCH_TARGETS:
        module = importlib.import_module(target.module)
        if target.owner:
            holder = getattr(module, target.owner)
            found.append((holder, target.attr, holder.__dict__[target.attr]))
            continue
        original = getattr(module, target.attr)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and other.__dict__.get(target.attr) is original:
                found.append((other, target.attr, original))
    return found


def test_trace_puts_back_every_wrapped_attribute():
    import repro.relational.database as database_module
    import repro.session.manager as manager_module
    import repro.sql.parser as parser_module

    before = _originals()
    # names re-bound by ``from ... import`` are among them
    assert (database_module, "parse_statement", parser_module.parse_statement) in before
    assert (manager_module, "parse_statement", parser_module.parse_statement) in before
    recorder = trace.Recorder()
    recorder.install(trace.BENCH_TARGETS)
    try:
        assert all(vars(holder)[attr] is not original for holder, attr, original in before)
        assert database_module.parse_statement is parser_module.parse_statement
        with pytest.raises(RuntimeError):
            recorder.install(trace.BENCH_TARGETS)
    finally:
        recorder.uninstall()
    assert all(vars(holder)[attr] is original for holder, attr, original in before)


def test_traced_run_leaves_the_engine_unwrapped(traced_runs):
    assert all(not hasattr(vars(holder)[attr], "__wrapped__") for holder, attr, _ in _originals())


class _StuckEnv:
    """Callers whose operations never return until the harness aborts."""

    def __init__(self) -> None:
        self.released = threading.Event()

    def caller(self, index):
        return (lambda payload: self.released.wait(30)), (lambda check, result: True)

    def abort(self) -> None:
        self.released.set()


def _script(length: int) -> workloads.Script:
    script = workloads.Script()
    for index in range(length):
        script.emit(index)
    return script


def test_a_slow_caller_reports_its_shortfall_instead_of_hanging():
    class SlowEnv(_StuckEnv):
        def caller(self, index):
            return (lambda payload: time.sleep(0.02)), (lambda check, result: True)

    phase = workloads.Phase("main", [_script(50)])
    started = time.perf_counter()
    result = harness.run_phase(SlowEnv(), phase, limit_seconds=0.1)
    assert time.perf_counter() - started < 2
    assert 0 < result.failed < 50 and result.attempted == 50


def test_stuck_callers_are_aborted_with_bounded_joins(monkeypatch):
    monkeypatch.setattr(harness, "JOIN_GRACE_SECONDS", 0.2)
    env = _StuckEnv()
    phase = workloads.Phase("main", [_script(10), _script(10)])
    started = time.perf_counter()
    result = harness.run_phase(env, phase, limit_seconds=0.1)
    assert time.perf_counter() - started < 5
    assert env.released.is_set()
    assert result.failed == 18  # one operation each returned after the abort


def _command_lines():
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    yield handle.read().replace(b"\0", b" ").decode(errors="replace")
            except OSError:
                continue  # the process ended meanwhile


def _cli(*arguments: str, cwd: str = workloads.ROOT) -> subprocess.CompletedProcess:
    command = _benchmark_json()["command"] + list(arguments)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("traced", ["0", "1"])
def test_the_driver_command_ends_with_one_result_line(traced):
    done = _cli("--workload", "remote_oltp", "--seed", "3", "--seconds", str(QUICK_SECONDS), "--trace", traced)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = harness.PER_LAYER if traced == "1" else harness.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {d[0]: d[1] for d in declared}
    if traced == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # scratch directories and the server process are gone
    leftovers = [n for n in os.listdir(harness.WORK_ROOT) if n.startswith("e2e-")]
    assert leftovers == []
    assert not any("benchmarks.e2e.serve" in line for line in _command_lines())


def test_without_the_repository_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(workloads.ROOT, "benchmarks", "e2e"), tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = _cli("--workload", "form_browse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
