"""The four workloads: generated inputs, set-up, and correctness oracles.

Every input — key scripts, SQL texts, parameter values, the data itself —
is a function of the seed and is generated *before* anything is timed,
together with the answer each checked operation must give.  The answers
come from the rows ``build_university`` generated (captured by
:func:`university_rows` without the engine), never from the engine under
test.

A workload is closed-loop: each caller sends its next operation only when
the previous one has returned.  Operation counts are fixed per second of
``--seconds`` budget (``ops_per_second``, sized on the 2-core reference box
so that the timed pass lasts about ``--seconds``), so two runs with the
same seed do exactly the same work whatever the machine's speed.

Each operation belongs to one of two classes, *light* or *heavy*, fixed by
the generator (see README.md for the table); the end-to-end latencies are
medians per class, because the median of a mixture of classes would sit on
a class boundary and jump between them.
"""

from __future__ import annotations

import math
import os
import json
import random
import select
import shutil
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.app import WowApp
from repro.relational.database import Database
from repro.session.client import RemoteSession
from repro.windows.events import Key, KeyEvent
from repro.workloads import build_university

from . import trace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: the timed pass is split into this many equal blocks
BLOCKS = 5

#: the whole table the write workloads are checked against, in model order
STUDENTS_SQL = "SELECT id, name, major_id, year, gpa FROM students"

Check = Optional[Tuple[Any, ...]]
Call = Callable[[Any], Any]
Verify = Callable[[Tuple[Any, ...], Any], bool]


@dataclass
class Script:
    """One caller's operations for one phase, with the expected answers."""

    payloads: List[Any] = field(default_factory=list)
    heavy: List[bool] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)

    def emit(self, payload: Any, heavy: bool = False, check: Check = None) -> None:
        self.payloads.append(payload)
        self.heavy.append(heavy)
        self.checks.append(check)

    def __len__(self) -> int:
        return len(self.payloads)

    def cut(self, start: int, stop: int) -> "Script":
        return Script(
            self.payloads[start:stop], self.heavy[start:stop], self.checks[start:stop]
        )


@dataclass
class Phase:
    """Scripts run concurrently, one per caller; ``timed`` ones are measured."""

    name: str
    scripts: List[Script]
    timed: bool = True


@dataclass
class Inputs:
    seed: int
    phases: List[Phase]
    #: expected ``students`` rows (id order) once every phase has run, or
    #: None when the workload writes nothing
    final_students: Optional[List[Tuple[Any, ...]]] = None
    #: what a test compares between seeds: the generated operations as text
    digest: List[str] = field(default_factory=list)


class _RowCapture:
    """Stands in for a Database so ``build_university`` yields its rows."""

    def __init__(self) -> None:
        self.tables: Dict[str, List[Dict[str, Any]]] = {}

    def execute_script(self, sql: str) -> None:
        pass

    def execute(self, sql: str) -> None:
        pass

    def insert(self, table: str, values: Dict[str, Any]) -> None:
        self.tables.setdefault(table, []).append(dict(values))

    def bulk_insert(self, table: str, rows: Sequence[Dict[str, Any]]) -> None:
        self.tables.setdefault(table, []).extend(dict(row) for row in rows)


def university_rows(students: int, courses: int, seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """The rows ``build_university`` generates, without touching the engine."""
    capture = _RowCapture()
    build_university(capture, students=students, courses=courses, seed=seed)  # type: ignore[arg-type]
    return capture.tables


def student_tuple(row: Dict[str, Any]) -> Tuple[Any, ...]:
    return (row["id"], row["name"], row["major_id"], row["year"], row["gpa"])


def same_rows(got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]) -> bool:
    """Equal as multisets; floats may differ in the last digits (sum order)."""
    if len(got) != len(want):
        return False
    def order(row: Sequence[Any]) -> Tuple[Any, ...]:
        # None sorts first; int and float share a rank so 3 and 3.0 meet
        return tuple(
            (value is not None, isinstance(value, str), 0 if value is None else value) for value in row
        )

    for left, right in zip(sorted(got, key=order), sorted(want, key=order)):
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if isinstance(a, float) and isinstance(b, (int, float)):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif a != b:
                return False
    return True


def peak_rss_mb(pid: Any = "self") -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MiB.

    Not ``ru_maxrss``: that survives ``exec``, so a fresh server would start
    at the size of the benchmark process that spawned it.
    """
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def reset_peak_rss() -> None:
    """Restart this process's high-water mark at its current size."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass  # an old kernel: the mark then also covers earlier runs in this process


def _count(unit: int, rate: float, seconds: float) -> int:
    """A fixed operation count: *rate* per budget second, a multiple of *unit*."""
    return max(unit, int(round(rate * seconds / unit)) * unit)


# ---------------------------------------------------------------------------
# Environments: what set-up builds and the harness drives
# ---------------------------------------------------------------------------


class EmbeddedEnv:
    """The engine in this process, on a disk-backed database with fsync."""

    callers = 1

    def __init__(self, workdir: str, students: int, courses: int, seed: int, db_options: Dict[str, int]) -> None:
        self.path = os.path.join(workdir, "db")
        self.db_options = db_options
        self.db = Database(path=self.path, fsync=True, **db_options)
        try:
            build_university(self.db, students=students, courses=courses, seed=seed)
            self.db.checkpoint()
        except BaseException:
            self.db.close()
            raise

    def caller(self, index: int) -> Tuple[Call, Verify]:
        return self.db.execute, lambda check, result: same_rows(result.rows, check[0])

    def snapshot(self) -> Dict[str, Any]:
        return self.db.metrics_snapshot()

    def students_now(self) -> List[Tuple[Any, ...]]:
        return self.db.query(STUDENTS_SQL)

    def crash_image(self, destination: str) -> None:
        """Copy the directory as a kill would leave it.

        Heap files change only at checkpoints (no-steal) and every commit
        has fsynced its WAL group, so the files of the open database *are*
        the crash image; nothing is flushed for the copy.
        """
        shutil.copytree(self.path, destination)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def reset_spans(self) -> None:
        pass  # the engine's spans are the harness's own recorder's

    def remote_spans(self) -> Tuple[List[List[Any]], Dict[str, int]]:
        return [], {}

    def abort(self) -> None:
        pass  # one caller, driven inline: its loop watches the deadline itself

    def close(self) -> None:
        self.db.close()


class FormsEnv(EmbeddedEnv):
    """A 100x30 WowApp over the embedded database; callers send keys."""

    def __init__(self, workdir: str, seed: int, forms: Sequence[str], link: bool) -> None:
        super().__init__(workdir, FORM_STUDENTS, FORM_COURSES, seed, {})
        self.app = WowApp(self.db, 100, 30)
        self.windows = [
            self.app.open_form(source, x=50 * index, y=0) for index, source in enumerate(forms)
        ]
        if link:
            # forms[0] is the detail, forms[1] the master (opened last: active)
            self.app.link(self.windows[1], self.windows[0], on=[("id", "major_id")])

    def caller(self, index: int) -> Tuple[Call, Verify]:
        controllers = [window.controller for window in self.windows]

        def verify(check: Tuple[Any, ...], _cells: Any) -> bool:
            kind, form = check[0], controllers[check[1]]
            if kind == "count":
                return form.record_count == check[2] and (
                    check[2] == 0 or form.rows[0][0] == check[3]
                )
            return form.message == check[2]  # kind == "msg"

        return self.app.send_key, verify

    def snapshot(self) -> Dict[str, Any]:
        snapshot = self.db.metrics_snapshot()
        snapshot["cells_transmitted"] = self.app.wm.renderer.cells_transmitted
        return snapshot


class RemoteEnv:
    """``serve.py`` in a subprocess and two RemoteSession connections."""

    callers = 2

    def __init__(self, workdir: str, seed: int, traced: bool) -> None:
        self.workdir = workdir
        self.path = os.path.join(workdir, "db")
        self.db_options: Dict[str, int] = {}
        self.traced = traced
        self.sessions: List[RemoteSession] = []
        self._files = 0
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
        command = [
            sys.executable, "-m", "benchmarks.e2e.serve", "--path", self.path,
            "--students", str(FORM_STUDENTS), "--courses", str(FORM_COURSES),
            "--seed", str(seed),
        ]
        if traced:
            command.append("--trace")
        self.server = subprocess.Popen(
            command, cwd=ROOT, env=environment, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            port = int(self._reply(timeout=120.0).split()[1])
            for index in range(self.callers):
                self.sessions.append(RemoteSession("127.0.0.1", port, seed=seed + index))
        except BaseException:
            self.close()
            raise

    def _reply(self, timeout: float = 60.0) -> str:
        assert self.server.stdout is not None
        ready, _, _ = select.select([self.server.stdout], [], [], timeout)
        line = self.server.stdout.readline() if ready else ""
        if not line or line.startswith("error"):
            raise RuntimeError(f"server did not answer (got {line!r})")
        return line

    def command(self, text: str) -> None:
        assert self.server.stdin is not None
        self.server.stdin.write(text + "\n")
        self.server.stdin.flush()
        self._reply()

    def _fresh_file(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"{stem}-{self._files}.json")

    def caller(self, index: int) -> Tuple[Call, Verify]:
        def verify(check: Tuple[Any, ...], result: Any) -> bool:
            if check[0] == "upd":
                return result.rowcount == 1
            rows = result.rows  # kind == "sel": (name, gpa or None if racing)
            return (
                len(rows) == 1
                and rows[0][0] == check[1]
                and (check[2] is None or rows[0][1] == check[2])
            )

        return self.sessions[index].execute, verify

    def snapshot(self) -> Dict[str, Any]:
        path = self._fresh_file("snapshot")
        self.command(f"snapshot {path}")
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def reset_spans(self) -> None:
        self.command("reset")

    def remote_spans(self) -> Tuple[List[List[Any]], Dict[str, int]]:
        """What the server's own recorder holds (it runs with ``--trace``)."""
        path = self._fresh_file("spans")
        self.command(f"spans {path}")
        return trace.load(path)

    def students_now(self) -> List[Tuple[Any, ...]]:
        return self.sessions[0].query(STUDENTS_SQL)

    def crash_image(self, destination: str) -> None:
        """SIGKILL the server, then copy what it left on disk."""
        self._kill()
        shutil.copytree(self.path, destination)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.pid)

    def _kill(self) -> None:
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGKILL)
        self.server.wait(timeout=30)

    def abort(self) -> None:
        """Unblock callers stuck in a reply that will not come."""
        self._kill()

    def close(self) -> None:
        for session in self.sessions:
            try:
                session.close()
            except OSError:
                pass
        self._kill()
        for pipe in (self.server.stdin, self.server.stdout):
            if pipe is not None:
                pipe.close()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

FORM_STUDENTS, FORM_COURSES = 3000, 60
SCAN_STUDENTS, SCAN_COURSES = 10000, 120
#: report_scan caches, both smaller than either scanned table (README.md)
SCAN_DB_OPTIONS = {"pool_size": 32, "segment_cache_rows": 8192}


class Workload:
    name = ""
    why = ""
    #: timed operations per second of ``--seconds`` (all callers together)
    ops_per_second = 0.0
    def generate(self, seed: int, seconds: float) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs, workdir: str, traced: bool) -> Any:
        raise NotImplementedError


def _key(name: str) -> KeyEvent:
    return KeyEvent(name)


def _type(script: Script, text: str) -> None:
    for char in text:
        script.emit(KeyEvent(char))


def _split(script: Script, warm: int) -> List[Phase]:
    return [
        Phase("warm-up", [script.cut(0, warm)], timed=False),
        Phase("main", [script.cut(warm, len(script))]),
    ]


class FormBrowse(Workload):
    name = "form_browse"
    why = (
        "read-only multi-hop master-detail browsing with QBF: forms, windows and "
        "the prepared plan-cache-hit path do the work; sql, planner, wal, session do none"
    )
    ops_per_second = 640.0

    def generate(self, seed: int, seconds: float) -> Inputs:
        timed = _count(BLOCKS, self.ops_per_second, seconds)
        warm = max(BLOCKS, timed // 10)
        students = university_rows(FORM_STUDENTS, FORM_COURSES, seed)["students"]
        ids_by_major: Dict[int, List[int]] = {}
        for row in students:
            ids_by_major.setdefault(row["major_id"], []).append(row["id"])
        rng = random.Random(f"{self.name}:{seed}")
        run_lengths = list(range(5, 26))
        rng.shuffle(run_lengths)
        script = Script()
        master = 0  # position in the departments form; its id is master + 1
        hop = 0

        def refiltered(ids: List[int]) -> Tuple[Any, ...]:
            return ("count", 0, len(ids), ids[0] if ids else None)

        while len(script) < warm + timed:
            # the departments (master) window is on top here
            down = master == 0 or (master < 5 and rng.random() < 0.5)
            master += 1 if down else -1
            members = ids_by_major.get(master + 1, [])
            script.emit(_key(Key.DOWN if down else Key.UP), True, refiltered(members))
            script.emit(_key(Key.F1))
            for _ in range(run_lengths[hop % len(run_lengths)]):
                script.emit(_key(Key.DOWN))
            for name in (Key.PGDN, Key.PGDN, Key.HOME):
                script.emit(_key(name))
            hop += 1
            if hop % 3 == 0:
                low = rng.randrange(1000, 2900)
                script.emit(_key(Key.F4))
                _type(script, f"{low}..{low + 99}")
                inside = [i for i in members if low <= i <= low + 99]
                script.emit(_key(Key.ENTER), True, refiltered(inside))
                for _ in range(5):
                    script.emit(_key(Key.DOWN))
                script.emit(_key(Key.ESC), True, refiltered(members))
            script.emit(_key(Key.F1))
        script = script.cut(0, warm + timed)
        return Inputs(seed, _split(script, warm), digest=[str(e) for e in script.payloads])

    def setup(self, inputs: Inputs, workdir: str, traced: bool) -> FormsEnv:
        return FormsEnv(workdir, inputs.seed, ["students", "departments"], link=True)


class FormEdit(Workload):
    name = "form_edit"
    why = (
        "the same forms and screen used for writes, mostly through the updatable view "
        "senior_students: view-update translation, FK/CHECK, txn, WAL fsync, requery, redraw"
    )
    ops_per_second = 400.0

    _INSERTED_NAME = "new student"

    def generate(self, seed: int, seconds: float) -> Inputs:
        timed = _count(BLOCKS, self.ops_per_second, seconds)
        warm = max(BLOCKS, timed // 10)
        rows = university_rows(FORM_STUDENTS, FORM_COURSES, seed)["students"]
        model = {row["id"]: list(student_tuple(row)) for row in rows}
        anyone = [i for i in model if 1000 <= i <= 2999]
        seniors = [i for i in anyone if model[i][3] == 4]
        rng = random.Random(f"{self.name}:{seed}")
        script = Script()
        #: form 0 = students, form 1 = senior_students (opened last: on top)
        on_top = 1
        #: (index of the committing key, student id, new row or None = delete)
        commits: List[Tuple[int, int, Optional[List[Any]]]] = []

        def show(form: int) -> None:
            nonlocal on_top
            if on_top != form:
                script.emit(_key(Key.F1))
                on_top = form

        def lookup(form: int, student: int) -> None:
            script.emit(_key(Key.F4))
            _type(script, str(student))
            script.emit(_key(Key.ENTER), False, ("count", form, 1, student))

        def commit(key: str, form: int, message: str, student: int, row: Optional[List[Any]]) -> None:
            commits.append((len(script), student, row))
            script.emit(_key(key), True, ("msg", form, message))

        def gpa_text() -> str:
            return f"{rng.randrange(150, 400) / 100:.2f}"

        cycle = 0
        while len(script) < warm + timed:
            # three of four edits go through the view, so the median commit
            # is a view update (see the module docstring on mixtures)
            form = 0 if cycle % 4 == 2 else 1
            student = rng.choice(anyone if form == 0 else seniors)
            show(form)
            lookup(form, student)
            script.emit(_key(Key.F2))
            for _ in range(4 if form == 0 else 3):
                script.emit(_key(Key.TAB))
            text = gpa_text()
            _type(script, text)
            model[student][4] = float(text)
            commit(Key.F2, form, "1 record(s) updated", student, list(model[student]))
            if cycle % 4 == 3:
                form = (cycle // 4) % 2
                new_id = 9000 + cycle // 4
                text = gpa_text()
                show(form)
                script.emit(_key(Key.F3))
                typed = [str(new_id), self._INSERTED_NAME, "2"] + (["1"] if form == 0 else []) + [text]
                for position, value in enumerate(typed):
                    if position:
                        script.emit(_key(Key.TAB))
                    _type(script, value)
                # through the view, year comes from its predicate (year = 4)
                row = [new_id, self._INSERTED_NAME, 2, 1 if form == 0 else 4, float(text)]
                commit(Key.F2, form, "record inserted", new_id, row)
                lookup(form, new_id)
                commit(Key.F6, form, "1 record(s) deleted", new_id, None)
            cycle += 1
        script = script.cut(0, warm + timed)
        final = {row["id"]: list(student_tuple(row)) for row in rows}
        for index, student, row in commits:
            if index >= len(script):
                break
            if row is None:
                del final[student]
            else:
                final[student] = row
        return Inputs(
            seed,
            _split(script, warm),
            final_students=[tuple(final[i]) for i in sorted(final)],
            digest=[str(e) for e in script.payloads],
        )

    def setup(self, inputs: Inputs, workdir: str, traced: bool) -> FormsEnv:
        return FormsEnv(workdir, inputs.seed, ["students", "senior_students"], link=False)


class RemoteOltp(Workload):
    name = "remote_oltp"
    why = (
        "literal-SQL autocommit statements over the session socket, 90% point reads, "
        "1 then 2 connections: sql, planner (cache misses), locks, latch/GIL, wire, wal"
    )
    ops_per_second = 1600.0

    #: share of the timed operations run by one connection alone (phase A)
    _SOLO_SHARE = 0.4

    def generate(self, seed: int, seconds: float) -> Inputs:
        timed = _count(BLOCKS, self.ops_per_second, seconds)
        solo = _count(BLOCKS, self._SOLO_SHARE, timed)
        each = _count(BLOCKS, (1 - self._SOLO_SHARE) / 2, timed)
        warm = max(BLOCKS, timed // 20)
        rows = university_rows(FORM_STUDENTS, FORM_COURSES, seed)["students"]
        final = {row["id"]: list(student_tuple(row)) for row in rows}
        rng = random.Random(f"{self.name}:{seed}")

        def skewed_key() -> int:
            return max(1, math.ceil(FORM_STUDENTS * rng.random() ** 3))

        def phase(name: str, lengths: Sequence[int], timed: bool = True) -> Phase:
            """Callers run concurrently: caller *j* of *n* writes only keys
            congruent to *j* mod *n*, so the last acknowledged value of every
            key is known; a read of another caller's key checks the name only."""
            callers = len(lengths)
            scripts = []
            for caller, length in enumerate(lengths):
                script = Script()
                for _ in range(length):
                    key = skewed_key()
                    if rng.random() < 0.1:
                        key += (caller - key) % callers
                        if key > FORM_STUDENTS:
                            key -= callers
                        value = rng.randrange(150, 400) / 100
                        final[key][4] = value
                        script.emit(
                            f"UPDATE students SET gpa = {value} WHERE id = {key}",
                            True, ("upd",),
                        )
                    else:
                        mine = key % callers == caller % callers
                        script.emit(
                            f"SELECT name, gpa FROM students WHERE id = {key}",
                            False, ("sel", final[key][1], final[key][4] if mine else None),
                        )
                scripts.append(script)
            return Phase(name, scripts, timed)

        phases = [
            phase("warm-up", [warm, warm], timed=False),
            phase("one-connection", [solo]),
            phase("two-connections", [each, each]),
        ]
        return Inputs(
            seed,
            phases,
            final_students=[tuple(final[i]) for i in sorted(final)],
            digest=[sql for p in phases for script in p.scripts for sql in script.payloads],
        )

    def setup(self, inputs: Inputs, workdir: str, traced: bool) -> RemoteEnv:
        return RemoteEnv(workdir, inputs.seed, traced)


class ReportScan(Workload):
    name = "report_scan"
    why = (
        "six fixed report queries over tables larger than the buffer pool and the "
        "segment cache: algebra/exprcompile, table/heap/rowcodec, pager, segments"
    )
    ops_per_second = 18.0

    def generate(self, seed: int, seconds: float) -> Inputs:
        tables = university_rows(SCAN_STUDENTS, SCAN_COURSES, seed)
        students, courses, enrollments = tables["students"], tables["courses"], tables["enrollments"]
        rng = random.Random(f"{self.name}:{seed}")
        low = rng.randrange(1000, 9000)
        one = rng.randrange(1, SCAN_STUDENTS + 1)
        first = rng.choice(sorted({row["name"][0] for row in students}))
        last = rng.choice(sorted({row["name"][-1] for row in students}))

        by_major: Dict[int, List[float]] = {}
        for row in students:
            by_major.setdefault(row["major_id"], []).append(row["gpa"])
        course_of = {row["id"]: row for row in courses}
        name_of = {row["id"]: row["name"] for row in students}
        load = Counter(course_of[e["course_id"]]["dept_id"] for e in enrollments)
        credits: Counter = Counter()
        for e in enrollments:
            credits[course_of[e["course_id"]]["dept_id"]] += course_of[e["course_id"]]["credits"]
        in_range = sorted(
            (row for row in students if low <= row["id"] < low + 500),
            key=lambda row: (-row["gpa"], row["id"]),
        )[:24]
        #: (SQL, heavy, expected rows); heavy = joins the enrollments table
        queries: List[Tuple[str, bool, List[Tuple[Any, ...]]]] = [
            (
                "SELECT major_id, COUNT(*), AVG(gpa) FROM students GROUP BY major_id",
                False,
                [(m, len(g), sum(g) / len(g)) for m, g in by_major.items()],
            ),
            (
                "SELECT c.dept_id, COUNT(*), SUM(c.credits) FROM enrollments e "
                "JOIN courses c ON e.course_id = c.id GROUP BY c.dept_id",
                True,
                [(d, load[d], credits[d]) for d in load],
            ),
            (
                f"SELECT id, name, gpa FROM students WHERE id >= {low} AND id < {low + 500} "
                "ORDER BY gpa DESC, id LIMIT 24",
                False,
                [(row["id"], row["name"], row["gpa"]) for row in in_range],
            ),
            (
                f"SELECT student, course, term, grade FROM transcript WHERE student_id = {one}",
                True,
                [
                    (name_of[one], course_of[e["course_id"]]["title"], e["term"], e["grade"])
                    for e in enrollments if e["student_id"] == one
                ],
            ),
            (
                "SELECT dept_id, enrollment_count FROM dept_load",
                True,
                [(d, load[d]) for d in load],
            ),
            (
                f"SELECT COUNT(*) FROM students WHERE name LIKE '{first}%{last}'",
                False,
                [(sum(1 for row in students if len(row["name"]) >= 2
                      and row["name"][0] == first and row["name"][-1] == last),)],
            ),
        ]
        rounds = _count(BLOCKS, self.ops_per_second / len(queries), seconds)
        script = Script()
        for _ in range(max(1, rounds // 10) + rounds):
            for sql, heavy, expected in queries:
                script.emit(sql, heavy, (expected,))
        warm = max(1, rounds // 10) * len(queries)
        return Inputs(seed, _split(script, warm), digest=[q[0] for q in queries])

    def setup(self, inputs: Inputs, workdir: str, traced: bool) -> EmbeddedEnv:
        return EmbeddedEnv(workdir, SCAN_STUDENTS, SCAN_COURSES, inputs.seed, SCAN_DB_OPTIONS)


WORKLOADS: Tuple[Workload, ...] = (FormBrowse(), FormEdit(), RemoteOltp(), ReportScan())
BY_NAME = {workload.name: workload for workload in WORKLOADS}
