"""The wowlint rule catalog: engine-specific invariants as AST checks.

Each rule has a stable code, a one-line description, a path scope (rules
only fire where the invariant they protect applies), and a fix-it message
telling the author what the compliant code looks like.  The rules in
:data:`RULES` are per-file AST visitors.

Adding a rule: subclass :class:`Rule`, give it ``code``/``title``/``fixit``,
implement ``applies`` (path scope) and ``check`` (AST walk returning
:class:`Violation` objects), and append it to :data:`RULES`.  The linter,
baseline machinery, CLI, and docs pick it up from there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    code: str
    path: str  # posix-style path, relative to the repo root
    line: int
    col: int
    scope: str  # dotted enclosing class/function qualname, or "<module>"
    message: str
    fixit: str

    def key(self) -> Tuple[str, str, str]:
        """The baseline identity: line numbers churn, scopes rarely do."""
        return (self.code, self.path, self.scope)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}\n"
            f"    fix: {self.fixit}"
        )


# ---------------------------------------------------------------------------
# Shared AST plumbing
# ---------------------------------------------------------------------------


def annotate_scopes(tree: ast.AST) -> None:
    """Attach ``_wow_scope`` (dotted qualname of the enclosing def/class)
    to every node, so violations carry a stable, line-number-free identity."""

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_scope = f"{scope}.{child.name}" if scope != "<module>" else child.name
            child._wow_scope = scope  # type: ignore[attr-defined]
            walk(child, child_scope)

    tree._wow_scope = "<module>"  # type: ignore[attr-defined]
    walk(tree, "<module>")


def scope_of(node: ast.AST) -> str:
    return getattr(node, "_wow_scope", "<module>")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``os.path.join`` for an Attribute/Name chain; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base class for per-file rules."""

    code: str = "WOW000"
    title: str = ""
    fixit: str = ""

    def applies(self, path: str) -> bool:
        raise NotImplementedError

    def check(self, tree: ast.AST, path: str) -> List[Violation]:
        raise NotImplementedError

    def violation(self, node: ast.AST, path: str, message: str) -> Violation:
        return Violation(
            code=self.code,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            scope=scope_of(node),
            message=message,
            fixit=self.fixit,
        )


# ---------------------------------------------------------------------------
# WOW001 — raw file I/O in relational/ bypassing the IOShim
# ---------------------------------------------------------------------------

#: os-level calls that touch durable state; each must route through IOShim
#: so FaultInjector can count it, crash on it, and tear it.  Reads are
#: included: an unreadable sector is a fault the engine must surface, and
#: a crash between a read and the decision made from it is a real world.
_RAW_WRITE_CALLS = {
    "os.open",
    "os.write",
    "os.fsync",
    "os.fdatasync",
    "os.replace",
    "os.rename",
    "os.remove",
    "os.unlink",
    "os.ftruncate",
    "os.truncate",
    "os.read",
    "os.pread",
    "os.fstat",
}


class RawEngineIO(Rule):
    """Durability-relevant I/O in ``relational/`` must go through IOShim."""

    code = "WOW001"
    title = "raw file I/O in relational/ bypasses the IOShim"
    fixit = (
        "route the call through the IOShim (self._io.open/write_all/fsync/"
        "replace/remove/ftruncate/pread/fstat) so fault injection covers "
        "it; read-only open(path) / open(path, 'r'/'rb') stays raw"
    )

    def applies(self, path: str) -> bool:
        return "relational/" in path and not path.endswith("faults.py")

    def check(self, tree: ast.AST, path: str) -> List[Violation]:
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _RAW_WRITE_CALLS:
                out.append(
                    self.violation(
                        node, path,
                        f"`{name}` bypasses the IOShim — fault injection "
                        "cannot crash, tear, or count this call",
                    )
                )
            elif name == "open":
                mode = self._open_mode(node)
                if mode is None or any(ch in mode for ch in "wax+"):
                    shown = "?" if mode is None else mode
                    out.append(
                        self.violation(
                            node, path,
                            f"writable builtin `open(..., {shown!r})` bypasses "
                            "the IOShim — a crash inside this write is "
                            "invisible to the exhaustion harness",
                        )
                    )
        return out

    @staticmethod
    def _open_mode(call: ast.Call) -> Optional[str]:
        """The literal mode of a builtin open() call; 'r' when omitted,
        None when it cannot be determined statically."""
        mode_node: Optional[ast.AST] = None
        if len(call.args) >= 2:
            mode_node = call.args[1]
        else:
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode_node = kw.value
        if mode_node is None:
            return "r"
        if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
            return mode_node.value
        return None


# ---------------------------------------------------------------------------
# WOW002 — bare/broad except handlers
# ---------------------------------------------------------------------------


class BroadExcept(Rule):
    """``except:`` / ``except BaseException`` can swallow InjectedCrash and
    KeyboardInterrupt; ``except Exception`` hides engine bugs behind catch-alls.
    Either re-raise or catch the narrowest WowError subclass the body expects."""

    code = "WOW002"
    title = "bare or broad except without re-raise"
    fixit = (
        "catch the specific WowError subclass(es) the body expects, or keep "
        "the broad handler and re-raise with a bare `raise`"
    )

    def applies(self, path: str) -> bool:
        return "repro/" in path

    def check(self, tree: ast.AST, path: str) -> List[Violation]:
        out: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_catch(node.type)
            if broad is None or self._reraises(node):
                continue
            out.append(
                self.violation(
                    node, path,
                    f"{broad} does not re-raise — "
                    + (
                        "it can swallow InjectedCrash/KeyboardInterrupt"
                        if broad != "`except Exception`"
                        else "it masks unexpected engine bugs as handled errors"
                    ),
                )
            )
        return out

    @staticmethod
    def _broad_catch(type_node: Optional[ast.AST]) -> Optional[str]:
        if type_node is None:
            return "bare `except:`"
        names: List[Optional[str]]
        if isinstance(type_node, ast.Tuple):
            names = [dotted_name(el) for el in type_node.elts]
        else:
            names = [dotted_name(type_node)]
        if "BaseException" in names:
            return "`except BaseException`"
        if "Exception" in names:
            return "`except Exception`"
        return None

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """Only a bare ``raise`` preserves the caught exception; raising a
        new exception still swallows a crash signal caught by ``except:``."""
        return any(
            isinstance(n, ast.Raise) and n.exc is None for n in ast.walk(handler)
        )


# ---------------------------------------------------------------------------
# WOW003 — Python truthiness on three-valued-logic results
# ---------------------------------------------------------------------------


class TruthyThreeValued(Rule):
    """``Expr.eval`` returns True/False/None; ``if pred.eval(row):`` treats
    NULL as False by accident of Python truthiness.  Engine code must compare
    ``is True`` (or ``is None`` / ``is False``) explicitly."""

    code = "WOW003"
    title = "truthiness applied to a nullable Expr result"
    fixit = "compare explicitly: `expr.eval(row) is True` (3VL: NULL is not False)"

    def applies(self, path: str) -> bool:
        return "relational/" in path or "views/" in path

    def check(self, tree: ast.AST, path: str) -> List[Violation]:
        out: List[Violation] = []
        for expr in self._boolean_contexts(tree):
            if self._is_eval_call(expr):
                out.append(
                    self.violation(
                        expr, path,
                        "`.eval(...)` used directly in a boolean context — "
                        "a NULL (None) result silently behaves as False",
                    )
                )
        return out

    @staticmethod
    def _boolean_contexts(tree: ast.AST) -> Iterable[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                yield node.test
            elif isinstance(node, ast.Assert):
                yield node.test
            elif isinstance(node, ast.BoolOp):
                yield from node.values
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                yield node.operand
            elif isinstance(node, ast.comprehension):
                yield from node.ifs

    @staticmethod
    def _is_eval_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eval"
        )


# ---------------------------------------------------------------------------
# WOW004 — wall clock / randomness in crash-replayed engine paths
# ---------------------------------------------------------------------------

#: calls whose results differ between a run and its crash-replay;
#: time.perf_counter is deliberately allowed (observability timing only —
#: its values never reach durable state).
_NONDETERMINISTIC_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
)

_NONDETERMINISTIC_MODULES = {"random", "secrets"}


class NondeterministicEnginePath(Rule):
    """Crash exhaustion re-runs a workload once per I/O point and expects the
    same byte stream every time; wall-clock or random values in ``relational/``
    would make every replay a different world."""

    code = "WOW004"
    title = "wall-clock/random use in a crash-replayed engine path"
    fixit = (
        "thread the value in from the caller (or derive it from stored data); "
        "monotonic time.perf_counter is fine for metrics"
    )

    def applies(self, path: str) -> bool:
        return "relational/" in path

    def check(self, tree: ast.AST, path: str) -> List[Violation]:
        out: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in _NONDETERMINISTIC_MODULES:
                        out.append(
                            self.violation(
                                node, path,
                                f"`import {alias.name}` in an engine module — "
                                "randomness breaks deterministic crash replay",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in _NONDETERMINISTIC_MODULES:
                    out.append(
                        self.violation(
                            node, path,
                            f"`from {node.module} import ...` in an engine "
                            "module — randomness breaks deterministic crash replay",
                        )
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                root = name.split(".")[0]
                if root in _NONDETERMINISTIC_MODULES or any(
                    name == s or name.endswith("." + s) for s in _NONDETERMINISTIC_SUFFIXES
                ):
                    out.append(
                        self.violation(
                            node, path,
                            f"`{name}` is nondeterministic — crash replay of "
                            "this path cannot reproduce the original run",
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# WOW005 — tracer spans outside `with`
# ---------------------------------------------------------------------------


class UnpairedSpan(Rule):
    """``tracer.span(...)`` is a context manager: entered, it pushes onto the
    thread-local span stack; only ``__exit__`` pops it.  A span call outside a
    ``with`` statement never pops, corrupting every later span's ancestry path
    and leaking its duration."""

    code = "WOW005"
    title = "tracer span started outside a with statement"
    fixit = "wrap it: `with tracer.span(name) as span:` (spans must pair start/stop)"

    def applies(self, path: str) -> bool:
        return "repro/" in path and not path.endswith("obs/tracer.py")

    def check(self, tree: ast.AST, path: str) -> List[Violation]:
        with_items: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        out: List[Violation] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in with_items
            ):
                out.append(
                    self.violation(
                        node, path,
                        "span context manager created outside `with` — the "
                        "span stack is never popped",
                    )
                )
        return out


#: the per-file rules, in code order
RULES: Sequence[Rule] = (
    RawEngineIO(),
    BroadExcept(),
    TruthyThreeValued(),
    NondeterministicEnginePath(),
    UnpairedSpan(),
)

#: code -> one-line description, for --list-rules and the docs
RULE_CATALOG: Dict[str, str] = {rule.code: rule.title for rule in RULES}
