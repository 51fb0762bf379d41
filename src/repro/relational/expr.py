"""Scalar expression trees: AST, name binding, and 3VL evaluation.

The same node types serve the SQL front-end (which builds unbound trees with
name-based column references) and the executor (which evaluates bound trees
where every column reference carries a resolved row position).  Binding is a
pure function from an unbound tree plus a :class:`RowLayout` to a new bound
tree; trees are immutable after construction.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BindError, ExecutionError, TypeMismatchError
from repro.relational.types import ColumnType, and_, compare, not_, or_

# ---------------------------------------------------------------------------
# Row layouts
# ---------------------------------------------------------------------------


class RowLayout:
    """Maps (qualifier, column) names to positions in an executor row.

    Each slot is (qualifier, name, ctype).  Qualifiers are table aliases; a
    slot may appear under a unique bare name as well.  Layouts compose with
    ``+`` when joins concatenate rows.
    """

    def __init__(self, slots: Sequence[Tuple[Optional[str], str, ColumnType]]) -> None:
        self.slots: Tuple[Tuple[Optional[str], str, ColumnType], ...] = tuple(
            (q.lower() if q else None, n.lower(), t) for q, n, t in slots
        )
        self._by_qualified: Dict[Tuple[str, str], int] = {}
        self._by_bare: Dict[str, List[int]] = {}
        for pos, (qualifier, name, _t) in enumerate(self.slots):
            if qualifier is not None:
                key = (qualifier, name)
                if key in self._by_qualified:
                    raise BindError(f"duplicate column {qualifier}.{name} in layout")
                self._by_qualified[key] = pos
            self._by_bare.setdefault(name, []).append(pos)

    @classmethod
    def for_table(cls, alias: str, schema: "Any") -> "RowLayout":
        """Layout of a base-table (or view) scan under *alias*."""
        return cls([(alias, col.name, col.ctype) for col in schema.columns])

    def __add__(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(self.slots + other.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def resolve(self, qualifier: Optional[str], name: str) -> int:
        """Resolve a column reference to a slot position.

        Qualified lookups must match exactly; bare lookups must be
        unambiguous across the whole layout.
        """
        name = name.lower()
        if qualifier is not None:
            key = (qualifier.lower(), name)
            pos = self._by_qualified.get(key)
            if pos is None:
                raise BindError(f"unknown column {qualifier}.{name}")
            return pos
        positions = self._by_bare.get(name, [])
        if not positions:
            raise BindError(f"unknown column {name!r}")
        if len(positions) > 1:
            raise BindError(f"ambiguous column {name!r}; qualify it")
        return positions[0]

    def type_at(self, pos: int) -> ColumnType:
        return self.slots[pos][2]

    def names(self) -> List[str]:
        """Bare output names (used for result headers)."""
        return [name for _q, name, _t in self.slots]


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for scalar expressions."""

    def eval(self, row: Sequence[Any]) -> Any:
        """Evaluate against an executor row (only valid on bound trees)."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_sql()

    def to_sql(self) -> str:
        raise NotImplementedError


class Literal(Expr):
    """A constant value (already a stored-form Python value)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def eval(self, row: Sequence[Any]) -> Any:
        return self.value

    def to_sql(self) -> str:
        import datetime

        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, datetime.date):
            return f"'{self.value.isoformat()}'"  # DATE literals are quoted
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Literal", self.value))


class Param(Expr):
    """A ``?`` placeholder filled in at execute time by a prepared statement.

    Unlike every other node, a Param is deliberately mutable: the parser
    creates one node per marker, binding and planning thread the *same*
    object through (``rewrite`` passes unknown leaves along unchanged), and
    :meth:`PreparedStatement.execute` assigns the value right before
    evaluation.  Identity (not structural) equality keeps two statements'
    parameters distinct.
    """

    __slots__ = ("position", "value", "is_set")

    def __init__(self, position: int) -> None:
        self.position = position  # zero-based, in lexical order
        self.value: Any = None
        self.is_set = False

    def set(self, value: Any) -> None:
        self.value = value
        self.is_set = True

    def eval(self, row: Sequence[Any]) -> Any:
        if not self.is_set:
            raise ExecutionError(
                f"parameter ?{self.position + 1} has no value; "
                "execute this statement through Database.prepare()"
            )
        return self.value

    def to_sql(self) -> str:
        return "?"


class ColumnRef(Expr):
    """A reference to a column; bound copies carry a resolved position."""

    __slots__ = ("qualifier", "name", "index")

    def __init__(
        self, name: str, qualifier: Optional[str] = None, index: Optional[int] = None
    ) -> None:
        self.qualifier = qualifier.lower() if qualifier else None
        self.name = name.lower()
        self.index = index

    def eval(self, row: Sequence[Any]) -> Any:
        if self.index is None:
            raise ExecutionError(f"unbound column reference {self.to_sql()}")
        return row[self.index]

    def to_sql(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColumnRef)
            and other.qualifier == self.qualifier
            and other.name == self.name
        )

    def __hash__(self) -> int:
        return hash(("ColumnRef", self.qualifier, self.name))


_CMP_OPS: Dict[str, Callable[[Optional[int]], Optional[bool]]] = {
    "=": lambda c: None if c is None else c == 0,
    "!=": lambda c: None if c is None else c != 0,
    "<": lambda c: None if c is None else c < 0,
    "<=": lambda c: None if c is None else c <= 0,
    ">": lambda c: None if c is None else c > 0,
    ">=": lambda c: None if c is None else c >= 0,
}

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_BOOL_OPS = {"and", "or"}


def sql_mod(lhs: Any, rhs: Any) -> Any:
    """SQL ``%``: the remainder takes the sign of the dividend (truncated
    division, as in sqlite and PostgreSQL), unlike Python's ``%``."""
    if isinstance(lhs, float) or isinstance(rhs, float):
        return math.fmod(lhs, rhs)
    remainder = abs(lhs) % abs(rhs)
    return -remainder if lhs < 0 else remainder


class BinOp(Expr):
    """Binary operator: comparison, arithmetic, AND/OR."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        op = op.lower()
        if op not in _CMP_OPS and op not in _ARITH_OPS and op not in _BOOL_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def eval(self, row: Sequence[Any]) -> Any:
        op = self.op
        if op == "and":
            return and_(_as_bool(self.left.eval(row)), _as_bool(self.right.eval(row)))
        if op == "or":
            return or_(_as_bool(self.left.eval(row)), _as_bool(self.right.eval(row)))
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if op in _CMP_OPS:
            return _CMP_OPS[op](compare(lhs, rhs))
        # arithmetic
        if lhs is None or rhs is None:
            return None
        if isinstance(lhs, bool) or isinstance(rhs, bool):
            raise TypeMismatchError(f"arithmetic on BOOL: {self.to_sql()}")
        if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
            if op == "+" and isinstance(lhs, str) and isinstance(rhs, str):
                return lhs + rhs  # string concatenation
            raise TypeMismatchError(f"arithmetic on non-numbers: {self.to_sql()}")
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise ExecutionError(f"division by zero in {self.to_sql()}")
            result = lhs / rhs
            if isinstance(lhs, int) and isinstance(rhs, int) and lhs % rhs == 0:
                return lhs // rhs
            return result
        if op == "%":
            if rhs == 0:
                raise ExecutionError(f"modulo by zero in {self.to_sql()}")
            return sql_mod(lhs, rhs)
        raise ExecutionError(f"unhandled operator {op!r}")  # pragma: no cover

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.upper()} {self.right.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinOp)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("BinOp", self.op, self.left, self.right))


class UnaryOp(Expr):
    """NOT or numeric negation."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        op = op.lower()
        if op not in ("not", "-"):
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def eval(self, row: Sequence[Any]) -> Any:
        value = self.operand.eval(row)
        if self.op == "not":
            return not_(_as_bool(value))
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeMismatchError(f"cannot negate {value!r}")
        return -value

    def to_sql(self) -> str:
        if self.op == "not":
            return f"(NOT {self.operand.to_sql()})"
        return f"(-{self.operand.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnaryOp)
            and other.op == self.op
            and other.operand == self.operand
        )

    def __hash__(self) -> int:
        return hash(("UnaryOp", self.op, self.operand))


class IsNull(Expr):
    """column IS [NOT] NULL — the only NULL-test that returns 2VL booleans."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def eval(self, row: Sequence[Any]) -> Any:
        is_null = self.operand.eval(row) is None
        return not is_null if self.negated else is_null

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {keyword})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IsNull)
            and other.negated == self.negated
            and other.operand == self.operand
        )

    def __hash__(self) -> int:
        return hash(("IsNull", self.operand, self.negated))


class Like(Expr):
    """TEXT pattern match with %% and _ wildcards (case-sensitive)."""

    __slots__ = ("operand", "pattern", "negated", "_regex")

    def __init__(self, operand: Expr, pattern: str, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = re.compile(like_to_regex(pattern), re.DOTALL)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def eval(self, row: Sequence[Any]) -> Any:
        value = self.operand.eval(row)
        if value is None:
            return None
        if not isinstance(value, str):
            raise TypeMismatchError(f"LIKE applies to TEXT, got {value!r}")
        matched = self._regex.match(value) is not None
        return not matched if self.negated else matched

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand.to_sql()} {keyword} '{escaped}')"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Like)
            and other.pattern == self.pattern
            and other.negated == self.negated
            and other.operand == self.operand
        )

    def __hash__(self) -> int:
        return hash(("Like", self.operand, self.pattern, self.negated))


class InList(Expr):
    """operand IN (literal, ...) with SQL NULL semantics."""

    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False) -> None:
        self.operand = operand
        self.items = tuple(items)
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,) + self.items

    def eval(self, row: Sequence[Any]) -> Any:
        if not self.items:  # an IN subquery that returned no rows
            return self.negated
        value = self.operand.eval(row)
        if value is None:
            return None
        saw_null = False
        for item in self.items:
            candidate = item.eval(row)
            if candidate is None:
                saw_null = True
                continue
            if compare(value, candidate) == 0:
                return False if self.negated else True
        if saw_null:
            return None
        return True if self.negated else False

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {keyword} ({inner}))"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InList)
            and other.items == self.items
            and other.negated == self.negated
            and other.operand == self.operand
        )

    def __hash__(self) -> int:
        return hash(("InList", self.operand, self.items, self.negated))


def _round(n, digits=0):
    if n is None:
        return None
    result = round(n, int(digits))
    return float(result) if isinstance(n, float) else result


_SCALAR_FUNCS: Dict[str, Callable[..., Any]] = {
    "lower": lambda s: None if s is None else s.lower(),
    "upper": lambda s: None if s is None else s.upper(),
    "length": lambda s: None if s is None else len(s),
    "abs": lambda n: None if n is None else abs(n),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "substr": lambda s, start, n=None: (
        None if s is None else (s[start - 1 :] if n is None else s[start - 1 : start - 1 + n])
    ),
    "trim": lambda s: None if s is None else s.strip(),
    "ltrim": lambda s: None if s is None else s.lstrip(),
    "rtrim": lambda s: None if s is None else s.rstrip(),
    "replace": lambda s, old, new: None if s is None else s.replace(old, new),
    "round": _round,
    "nullif": lambda a, b: None if a == b else a,
    "year": lambda d: None if d is None else d.year,
    "month": lambda d: None if d is None else d.month,
    "day": lambda d: None if d is None else d.day,
}


class FuncCall(Expr):
    """Scalar function call (LOWER, UPPER, LENGTH, ABS, COALESCE, SUBSTR)."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr]) -> None:
        func = func.lower()
        if func not in _SCALAR_FUNCS:
            raise ValueError(f"unknown scalar function {func!r}")
        self.func = func
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def eval(self, row: Sequence[Any]) -> Any:
        values = [arg.eval(row) for arg in self.args]
        try:
            return _SCALAR_FUNCS[self.func](*values)
        except (TypeError, AttributeError) as exc:
            raise TypeMismatchError(f"bad arguments to {self.func}(): {values!r}") from exc

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.func.upper()}({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FuncCall)
            and other.func == self.func
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("FuncCall", self.func, self.args))


class Case(Expr):
    """CASE WHEN cond THEN result [...] [ELSE result] END.

    The "simple" form (CASE x WHEN v THEN r END) is desugared by the parser
    into equality conditions, so this node only handles the searched form.
    """

    __slots__ = ("branches", "else_expr")

    def __init__(
        self,
        branches: Sequence[Tuple[Expr, Expr]],
        else_expr: Optional[Expr] = None,
    ) -> None:
        if not branches:
            raise ValueError("CASE needs at least one WHEN branch")
        self.branches = tuple(branches)
        self.else_expr = else_expr

    def children(self) -> Tuple[Expr, ...]:
        kids: List[Expr] = []
        for condition, result in self.branches:
            kids.extend((condition, result))
        if self.else_expr is not None:
            kids.append(self.else_expr)
        return tuple(kids)

    def eval(self, row: Sequence[Any]) -> Any:
        for condition, result in self.branches:
            if condition.eval(row) is True:
                return result.eval(row)
        if self.else_expr is not None:
            return self.else_expr.eval(row)
        return None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.else_expr is not None:
            parts.append(f"ELSE {self.else_expr.to_sql()}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Case)
            and other.branches == self.branches
            and other.else_expr == self.else_expr
        )

    def __hash__(self) -> int:
        return hash(("Case", self.branches, self.else_expr))


def like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an anchored regex source string."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out) + r"\Z"


def _as_bool(value: Any) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise TypeMismatchError(f"expected a boolean, got {value!r}")


# ---------------------------------------------------------------------------
# Binding and rewriting
# ---------------------------------------------------------------------------


def bind(expr: Expr, layout: RowLayout) -> Expr:
    """Return a copy of *expr* with every ColumnRef resolved against *layout*."""
    return rewrite(
        expr,
        lambda node: ColumnRef(
            node.name, node.qualifier, layout.resolve(node.qualifier, node.name)
        )
        if isinstance(node, ColumnRef)
        else None,
    )


def rewrite(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: *fn* returns a replacement node or None to keep.

    ``fn`` sees nodes whose children have already been rewritten.
    """
    if isinstance(expr, BinOp):
        node: Expr = BinOp(expr.op, rewrite(expr.left, fn), rewrite(expr.right, fn))
    elif isinstance(expr, UnaryOp):
        node = UnaryOp(expr.op, rewrite(expr.operand, fn))
    elif isinstance(expr, IsNull):
        node = IsNull(rewrite(expr.operand, fn), expr.negated)
    elif isinstance(expr, Like):
        node = Like(rewrite(expr.operand, fn), expr.pattern, expr.negated)
    elif isinstance(expr, InList):
        node = InList(
            rewrite(expr.operand, fn),
            [rewrite(item, fn) for item in expr.items],
            expr.negated,
        )
    elif isinstance(expr, FuncCall):
        node = FuncCall(expr.func, [rewrite(arg, fn) for arg in expr.args])
    elif isinstance(expr, Case):
        node = Case(
            [
                (rewrite(condition, fn), rewrite(result, fn))
                for condition, result in expr.branches
            ],
            rewrite(expr.else_expr, fn) if expr.else_expr is not None else None,
        )
    else:
        node = expr
    replacement = fn(node)
    return node if replacement is None else replacement


def extract_params(expr: Expr, values: List[Any]) -> Expr:
    """Replace every Literal with a bound Param, appending its value to *values*.

    ``rewrite`` visits children in the same order ``to_sql`` renders them, so
    the collected values line up positionally with the ``?`` markers in the
    rewritten expression's text.  The forms runtime uses this to turn a
    per-refresh predicate with embedded literal values into a stable
    statement text plus a parameter vector, so one prepared plan serves
    every refresh regardless of the current criterion or link values.
    """

    def swap(node: Expr) -> Optional[Expr]:
        if isinstance(node, Literal):
            param = Param(len(values))
            param.set(node.value)
            values.append(node.value)
            return param
        return None

    return rewrite(expr, swap)


def column_refs(expr: Expr) -> List[ColumnRef]:
    """All ColumnRef nodes in *expr*, pre-order."""
    return [node for node in expr.walk() if isinstance(node, ColumnRef)]


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """Inverse of :func:`split_conjuncts`; None for an empty list."""
    result: Optional[Expr] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinOp("and", result, conjunct)
    return result


def references_only(expr: Expr, qualifiers: Sequence[str]) -> bool:
    """True if every column in *expr* belongs to one of *qualifiers*.

    Unqualified references make the test fail (the caller should have
    qualified everything during binding preparation).
    """
    allowed = {q.lower() for q in qualifiers}
    return all(
        ref.qualifier is not None and ref.qualifier in allowed
        for ref in column_refs(expr)
    )


def equality_pair(expr: Expr) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """If *expr* is ``a.x = b.y`` over two columns, return the pair."""
    if (
        isinstance(expr, BinOp)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
    ):
        return expr.left, expr.right
    return None


def const_comparison(expr: Expr) -> Optional[Tuple[ColumnRef, str, Any]]:
    """If *expr* compares one column to a literal, return (col, op, value).

    The comparison is normalised so the column is on the left.
    """
    flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
    if isinstance(expr, BinOp) and expr.op in flipped:
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            return expr.left, expr.op, expr.right.value
        if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
            return expr.right, flipped[expr.op], expr.left.value
    return None
