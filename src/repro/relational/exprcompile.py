"""Compile bound expression trees to single Python closures.

The tuple-at-a-time executor evaluates predicates by walking the ``Expr``
tree: one Python method call per node per row.  For batch execution that
interpretive overhead dominates, so this module lowers a *bound* tree to
one generated function — ``lower('x') = 'abc' AND score > ?`` becomes
roughly::

    def _compiled(row):
        return _and(_b(_eq(_f_lower(row[1]), 'abc')), _b(_gt(row[2], _p0.eval(row))))

compiled once with :func:`compile` and closed over a small environment of
helper functions that reproduce the interpreter's semantics *exactly*:
3VL AND/OR/NOT, ``compare()``-based comparisons (so ``TRUE = 1`` raises
the same :class:`TypeMismatchError`), NULL-propagating arithmetic, the
division/modulo error texts, and the live :class:`~repro.relational.expr.
Param` objects of prepared statements (the generated code calls
``param.eval`` so re-binding a parameter re-uses the compiled closure).

Node types the compiler does not cover — unbound column references, or
planner-internal nodes such as subquery markers — raise
:class:`NotCompilable` internally and the caller falls back to the
interpreter (``expr.eval``).  Both outcomes are counted in
:data:`COMPILE_METRICS` and surfaced per-operator as ``compiled=yes/no``
in EXPLAIN ANALYZE.

Compiled closures are cached on the operator instances of a plan, so the
plan cache (and prepared statements) amortise compilation across
executions the same way they amortise parsing and planning.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, TypeMismatchError
from repro.relational import expr as E
from repro.relational.types import and_, compare, not_, or_

#: process-wide compilation counters (reported by ``metrics_snapshot()``)
COMPILE_METRICS: Dict[str, int] = {"compiled": 0, "fallback": 0}


class NotCompilable(Exception):
    """Internal: the tree contains a node the compiler cannot lower."""


# ---------------------------------------------------------------------------
# Runtime helpers (the environment every generated closure closes over)
# ---------------------------------------------------------------------------
# Each helper mirrors one interpreter code path; see expr.py for the
# canonical semantics.  They take already-evaluated operands.


def _eq(lhs: Any, rhs: Any) -> Optional[bool]:
    c = compare(lhs, rhs)
    return None if c is None else c == 0


def _ne(lhs: Any, rhs: Any) -> Optional[bool]:
    c = compare(lhs, rhs)
    return None if c is None else c != 0


def _lt(lhs: Any, rhs: Any) -> Optional[bool]:
    c = compare(lhs, rhs)
    return None if c is None else c < 0


def _le(lhs: Any, rhs: Any) -> Optional[bool]:
    c = compare(lhs, rhs)
    return None if c is None else c <= 0


def _gt(lhs: Any, rhs: Any) -> Optional[bool]:
    c = compare(lhs, rhs)
    return None if c is None else c > 0


def _ge(lhs: Any, rhs: Any) -> Optional[bool]:
    c = compare(lhs, rhs)
    return None if c is None else c >= 0


def _arith_guard(lhs: Any, rhs: Any, op: str, sql: str) -> None:
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        raise TypeMismatchError(f"arithmetic on BOOL: {sql}")
    if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
        raise TypeMismatchError(f"arithmetic on non-numbers: {sql}")


def _add(lhs: Any, rhs: Any, sql: str) -> Any:
    if lhs is None or rhs is None:
        return None
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        raise TypeMismatchError(f"arithmetic on BOOL: {sql}")
    if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
        if isinstance(lhs, str) and isinstance(rhs, str):
            return lhs + rhs  # string concatenation
        raise TypeMismatchError(f"arithmetic on non-numbers: {sql}")
    return lhs + rhs


def _sub(lhs: Any, rhs: Any, sql: str) -> Any:
    if lhs is None or rhs is None:
        return None
    _arith_guard(lhs, rhs, "-", sql)
    return lhs - rhs


def _mul(lhs: Any, rhs: Any, sql: str) -> Any:
    if lhs is None or rhs is None:
        return None
    _arith_guard(lhs, rhs, "*", sql)
    return lhs * rhs


def _div(lhs: Any, rhs: Any, sql: str) -> Any:
    if lhs is None or rhs is None:
        return None
    _arith_guard(lhs, rhs, "/", sql)
    if rhs == 0:
        raise ExecutionError(f"division by zero in {sql}")
    if isinstance(lhs, int) and isinstance(rhs, int) and lhs % rhs == 0:
        return lhs // rhs
    return lhs / rhs


def _mod(lhs: Any, rhs: Any, sql: str) -> Any:
    if lhs is None or rhs is None:
        return None
    _arith_guard(lhs, rhs, "%", sql)
    if rhs == 0:
        raise ExecutionError(f"modulo by zero in {sql}")
    return E.sql_mod(lhs, rhs)


def _neg(value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeMismatchError(f"cannot negate {value!r}")
    return -value


def _like(value: Any, match: Callable[[str], Any], negated: bool) -> Optional[bool]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise TypeMismatchError(f"LIKE applies to TEXT, got {value!r}")
    matched = match(value) is not None
    return not matched if negated else matched


def _in(value: Any, candidates: Tuple[Any, ...], negated: bool) -> Optional[bool]:
    # SQL IN: membership via compare() (not Python ==, which would let
    # TRUE match 1), with NULL-in-the-list semantics.  Nothing is IN an
    # empty list, not even NULL (an IN subquery that returned no rows).
    if not candidates:
        return negated
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
            continue
        if compare(value, candidate) == 0:
            return False if negated else True
    if saw_null:
        return None
    return True if negated else False


def _func(fn: Callable[..., Any], name: str, *values: Any) -> Any:
    try:
        return fn(*values)
    except (TypeError, AttributeError) as exc:
        raise TypeMismatchError(
            f"bad arguments to {name}(): {list(values)!r}"
        ) from exc


_HELPERS: Dict[str, Any] = {
    "_and": and_,
    "_or": or_,
    "_not": not_,
    "_b": E._as_bool,
    "_eq": _eq,
    "_ne": _ne,
    "_lt": _lt,
    "_le": _le,
    "_gt": _gt,
    "_ge": _ge,
    "_add": _add,
    "_sub": _sub,
    "_mul": _mul,
    "_div": _div,
    "_mod": _mod,
    "_neg": _neg,
    "_like": _like,
    "_in": _in,
    "_func": _func,
}

_CMP_HELPERS = {"=": "_eq", "!=": "_ne", "<": "_lt", "<=": "_le", ">": "_gt", ">=": "_ge"}
_ARITH_HELPERS = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "%": "_mod"}


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Emitter:
    """Walks a bound tree, producing a Python expression string plus the
    constant environment the string refers to."""

    def __init__(self) -> None:
        self.env: Dict[str, Any] = {}
        self._counter = 0

    def const(self, value: Any, prefix: str = "c") -> str:
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    def emit(self, expr: E.Expr) -> str:
        if isinstance(expr, E.Literal):
            value = expr.value
            # Inline the self-representing literal types; everything else
            # (dates, floats — repr('inf') does not round-trip) goes into
            # the environment.
            if value is None or value is True or value is False:
                return repr(value)
            if isinstance(value, (int, str)) and not isinstance(value, bool):
                return repr(value)
            return self.const(value)
        if isinstance(expr, E.Param):
            # The live Param object: prepared statements mutate it between
            # executions, and eval() raises on unset parameters.
            return f"{self.const(expr, 'p')}.eval(row)"
        if isinstance(expr, E.ColumnRef):
            if expr.index is None:
                raise NotCompilable(f"unbound column {expr.to_sql()}")
            return f"row[{expr.index}]"
        if isinstance(expr, E.BinOp):
            left = self.emit(expr.left)
            right = self.emit(expr.right)
            op = expr.op
            if op == "and":
                return f"_and(_b({left}), _b({right}))"
            if op == "or":
                return f"_or(_b({left}), _b({right}))"
            if op in _CMP_HELPERS:
                return f"{_CMP_HELPERS[op]}({left}, {right})"
            sql = self.const(expr.to_sql(), "s")
            return f"{_ARITH_HELPERS[op]}({left}, {right}, {sql})"
        if isinstance(expr, E.UnaryOp):
            operand = self.emit(expr.operand)
            if expr.op == "not":
                return f"_not(_b({operand}))"
            return f"_neg({operand})"
        if isinstance(expr, E.IsNull):
            if isinstance(expr.operand, E.Literal):
                # fold: `5 is None` is a SyntaxWarning in generated code
                return repr((expr.operand.value is None) != expr.negated)
            test = "is not None" if expr.negated else "is None"
            return f"(({self.emit(expr.operand)}) {test})"
        if isinstance(expr, E.Like):
            match = self.const(expr._regex.match, "m")
            return f"_like({self.emit(expr.operand)}, {match}, {expr.negated!r})"
        if isinstance(expr, E.InList):
            items = ", ".join(self.emit(item) for item in expr.items)
            candidates = f"({items},)" if items else "()"
            return f"_in({self.emit(expr.operand)}, {candidates}, {expr.negated!r})"
        if isinstance(expr, E.FuncCall):
            fn = self.const(E._SCALAR_FUNCS[expr.func], "f")
            args = "".join(f", {self.emit(arg)}" for arg in expr.args)
            return f"_func({fn}, {expr.func!r}{args})"
        if isinstance(expr, E.Case):
            # Lazy like the interpreter: Python conditionals evaluate only
            # the taken branch; conditions fire on `is True` (3VL).
            tail = self.emit(expr.else_expr) if expr.else_expr is not None else "None"
            for condition, result in reversed(expr.branches):
                tail = f"(({self.emit(result)}) if ({self.emit(condition)}) is True else {tail})"
            return tail
        raise NotCompilable(f"cannot compile {type(expr).__name__}")


def _build(body: str, env: Dict[str, Any]) -> Callable[[Sequence[Any]], Any]:
    source = f"def _compiled(row):\n    return {body}\n"
    namespace = dict(_HELPERS)
    namespace.update(env)
    exec(compile(source, "<exprcompile>", "exec"), namespace)
    fn = namespace["_compiled"]
    fn.__source__ = source  # debugging aid
    return fn


def compile_expr(expr: E.Expr) -> Tuple[Callable[[Sequence[Any]], Any], bool]:
    """Lower *expr* to ``(fn(row) -> value, compiled?)``.

    On any lowering failure the interpreter (``expr.eval``) is returned
    with ``compiled=False`` — callers never need to special-case.
    """
    try:
        emitter = _Emitter()
        body = emitter.emit(expr)
        fn = _build(body, emitter.env)
    except (NotCompilable, SyntaxError, RecursionError, MemoryError):
        COMPILE_METRICS["fallback"] += 1
        return expr.eval, False
    COMPILE_METRICS["compiled"] += 1
    return fn, True


def compile_row_fn(
    exprs: Sequence[E.Expr],
) -> Tuple[Callable[[Sequence[Any]], Tuple[Any, ...]], bool]:
    """Lower a list of expressions to one ``fn(row) -> tuple`` closure.

    Used for projections, hash-join key extraction, and GROUP BY keys —
    building the whole output tuple in one generated expression avoids a
    per-column dispatch.  Falls back to per-expression ``eval`` whenever
    any member is not compilable.
    """
    try:
        emitter = _Emitter()
        parts = [emitter.emit(expr) for expr in exprs]
        body = "(" + "".join(part + ", " for part in parts) + ")"
        fn = _build(body, emitter.env)
    except (NotCompilable, SyntaxError, RecursionError, MemoryError):
        COMPILE_METRICS["fallback"] += 1
        bound = tuple(exprs)
        return (lambda row: tuple(e.eval(row) for e in bound)), False
    COMPILE_METRICS["compiled"] += 1
    return fn, True
