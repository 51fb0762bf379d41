"""Layer tracing from outside the program.

A :class:`Recorder` replaces public entry points of the engine (methods on
classes, and module-level functions in every module that imported them by
name) with wrappers that record one span per call, and puts the originals
back afterwards.  Nothing under ``src/`` is edited: the layer boundaries
are the call sites the benchmark can reach, which is why ``heap`` and
``rowcodec`` time is folded into ``table`` and latch wait into ``session``
(see README.md, "Known gaps").

A span is ``[name, start, end, parent, op, began]``:

* *parent* is the index of the enclosing span in the same thread's list
  (-1 for a root span);
* *op* numbers the root spans of a thread, so every span of one keystroke
  or statement shares an identifier;
* *began* is 1 when the span starts a call and 0 when it continues a
  generator (``Table.rows_batched`` yields batches; each resumption is its
  own span so the consumer's time between batches is not charged to it).

Spans live in per-thread lists in memory and are written out only when the
caller asks (:meth:`Recorder.dump`), after measurement has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = List[Any]


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module.owner.attr`` (owner "" = module)."""

    span: str
    module: str
    owner: str
    attr: str
    #: a count kept beside the span: "rows" adds ``len(result.rows)`` to
    #: ``<span>.rows``; "table_rows" adds the rows the call hands back (a
    #: list, each yielded batch, or one found row) to ``table.rows_read``;
    #: "bytes" adds what the call gives ``sock.sendall`` (the socket is the
    #: first positional argument) to ``wire.bytes``
    extra: str = ""


def _t(span: str, module: str, owner: str, attr: str, extra: str = "") -> Target:
    return Target(span, "repro." + module, owner, attr, extra)


#: entry points wrapped in the process that runs the engine
ENGINE_TARGETS: Tuple[Target, ...] = (
    _t("core.send_key", "core.app", "WowApp", "send_key"),
    _t("windows.dispatch", "windows.manager", "WindowManager", "dispatch"),
    _t("windows.render_frame", "windows.manager", "WindowManager", "render_frame"),
    _t("forms.handle_key", "forms.runtime", "FormController", "handle_key"),
    _t("forms.refresh", "forms.runtime", "FormController", "refresh"),
    _t("forms.save", "forms.runtime", "FormController", "save"),
    _t("forms.execute_query", "forms.runtime", "FormController", "execute_query"),
    _t("forms.delete_record", "forms.runtime", "FormController", "delete_record"),
    _t("views.analyze", "views.update", "", "analyze_updatability"),
    _t("sql.tokenize", "sql.lexer", "", "tokenize"),
    _t("sql.parse_statement", "sql.parser", "", "parse_statement"),
    _t("sql.parse_prepared", "sql.parser", "", "parse_prepared"),
    _t("planner.plan_select", "relational.planner", "Planner", "plan_select"),
    _t("planner.plan_union", "relational.planner", "Planner", "plan_union"),
    _t("database.execute", "relational.database", "Database", "execute", "rows"),
    _t("database.insert", "relational.database", "Database", "insert"),
    _t("database.update", "relational.database", "Database", "update"),
    _t("database.delete", "relational.database", "Database", "delete"),
    _t("database.prepared_query", "relational.database", "PreparedStatement", "query"),
    _t("database.prepared_execute", "relational.database", "PreparedStatement", "execute", "rows"),
    _t("table.rows_batched", "relational.table", "Table", "rows_batched", "table_rows"),
    _t("table.read_many", "relational.table", "Table", "read_many", "table_rows"),
    _t("table.find_by_key", "relational.table", "Table", "find_by_key", "table_rows"),
    _t("table.insert", "relational.table", "Table", "insert"),
    _t("table.update", "relational.table", "Table", "update"),
    _t("table.delete", "relational.table", "Table", "delete"),
    _t("pager.read_pages", "relational.pager", "FilePager", "read_pages"),
    _t("pager.flush", "relational.pager", "FilePager", "flush"),
    _t("txn.commit", "relational.txn", "TransactionManager", "commit"),
    _t("wal.commit", "relational.wal", "WriteAheadLog", "commit"),
    _t("wal.replay", "relational.wal", "WriteAheadLog", "replay"),
    _t("locks.acquire", "session.locks", "LockManager", "acquire"),
    _t("session.execute", "session.manager", "Session", "execute", "rows"),
    _t("wire.send_frame", "session.server", "", "send_frame", "bytes"),
)

#: what the benchmark process wraps: the engine (the form workloads and
#: ``report_scan`` run it here, and ``remote_oltp`` reopens the database here
#: after the kill) plus the client end of the wire
BENCH_TARGETS: Tuple[Target, ...] = ENGINE_TARGETS + (
    _t("wire.remote_execute", "session.client", "RemoteSession", "execute"),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class _ThreadState:
    __slots__ = ("spans", "stack", "ops")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.ops = 0


class _CountingSocket:
    """Forwards to a socket, counting the bytes given to ``sendall``."""

    __slots__ = ("_sock", "_recorder")

    def __init__(self, sock: Any, recorder: "Recorder") -> None:
        self._sock = sock
        self._recorder = recorder

    def sendall(self, data: bytes) -> None:
        self._recorder.add("wire.bytes", len(data))
        self._sock.sendall(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class Recorder:
    """Wraps targets, records spans, and restores the originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._mutex = threading.Lock()
        self._threads: List[_ThreadState] = []
        #: (holder object, attribute, original value) in patch order
        self._patches: List[Tuple[Any, str, Any]] = []
        #: plain counters kept beside the spans (rows returned, wire bytes)
        self.counts: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._mutex:
                self._threads.append(state)
        return state

    def add(self, name: str, amount: int) -> None:
        with self._mutex:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str, began: int) -> Tuple[_ThreadState, Span]:
        state = self._state()
        spans, stack = state.spans, state.stack
        if stack:
            parent = stack[-1]
            op = spans[parent][4]
        else:
            parent = -1
            state.ops += 1
            op = state.ops
        span: Span = [name, 0.0, 0.0, parent, op, began]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        return state, span

    def _wrap(self, target: Target, original: Callable[..., Any]) -> Callable[..., Any]:
        name, extra = target.span, target.extra
        open_span = self._open

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = original(*args, **kwargs)
                began = 1
                try:
                    while True:
                        state, span = open_span(name, began)
                        began = 0
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            span[2] = perf_counter()
                            state.stack.pop()
                        if extra == "table_rows":
                            self.add("table.rows_read", len(item))
                        yield item
                finally:
                    # an abandoned scan must still release its page pins
                    iterator.close()

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if extra == "bytes":
                args = (_CountingSocket(args[0], self),) + args[1:]
            state, span = open_span(name, 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                state.stack.pop()
            if extra == "rows":
                self.add(name + ".rows", len(result.rows))
            elif extra == "table_rows" and result is not None:
                self.add("table.rows_read", len(result) if isinstance(result, list) else 1)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        """Replace every target; a second install without uninstall raises."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        for target in targets:
            module = importlib.import_module(target.module)
            if target.owner:
                holder = getattr(module, target.owner)
                original = holder.__dict__[target.attr]
                self._patch(holder, target.attr, original, self._wrap(target, original))
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap(target, original)
            # ``from x import f`` binds the function object under the same
            # name in the importing module; rebind every such name.
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                if other.__dict__.get(target.attr) is original:
                    self._patch(other, target.attr, original, wrapped)

    def _patch(self, holder: Any, attr: str, original: Any, wrapped: Any) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- reading -----------------------------------------------------------

    def threads(self) -> List[List[Span]]:
        with self._mutex:
            return [state.spans for state in self._threads]

    def clear(self) -> None:
        """Forget recorded spans and counts (open spans must not exist)."""
        with self._mutex:
            for state in self._threads:
                del state.spans[:]
                state.ops = 0
            self.counts.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"threads": self.threads(), "counts": self.counts}, handle)


def load(path: str) -> Tuple[List[List[Span]], Dict[str, int]]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return document["threads"], document["counts"]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def summarize(threads: Sequence[Sequence[Span]]) -> Dict[str, SpanStats]:
    """Per span name: calls, inclusive seconds, and self seconds.

    Self time is a span's duration minus the part its child spans cover;
    over a whole tree the self times add up to the root's duration.
    """
    summary: Dict[str, SpanStats] = {}
    for spans in threads:
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        for index, span in enumerate(spans):
            stats = summary.get(span[0])
            if stats is None:
                stats = summary[span[0]] = SpanStats()
            duration = span[2] - span[1]
            stats.calls += span[5]
            stats.total += duration
            stats.self_time += duration - covered[index]
    return summary


def durations(threads: Sequence[Sequence[Span]], name: str) -> List[float]:
    return [span[2] - span[1] for spans in threads for span in spans if span[0] == name]


def nesting_errors(threads: Sequence[Sequence[Span]]) -> int:
    """Spans that do not lie inside their parent or do not share its op."""
    errors = 0
    for spans in threads:
        for span in spans:
            if span[3] < 0:
                continue
            parent = spans[span[3]]
            if span[1] < parent[1] or span[2] > parent[2] or span[4] != parent[4]:
                errors += 1
    return errors


def selftime_by_layer(summary: Dict[str, SpanStats]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for name, stats in summary.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + stats.self_time
    return layers


def get(summary: Dict[str, SpanStats], *names: str) -> SpanStats:
    """The sum of the named spans' statistics (missing names count zero)."""
    out = SpanStats()
    for name in names:
        stats: Optional[SpanStats] = summary.get(name)
        if stats is not None:
            out.calls += stats.calls
            out.total += stats.total
            out.self_time += stats.self_time
    return out
