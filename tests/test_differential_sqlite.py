"""Differential SQL testing: the engine, refereed by stdlib ``sqlite3``.

Hypothesis generates a schema (a key, a nullable join column and one to
three INT/FLOAT/TEXT/BOOL columns, all nullable), rows with NULLs, and
SELECTs from the supported subset: filters under three-valued logic,
IN/NOT IN lists with NULL, BETWEEN, LIKE, CASE, inner and left joins on
equi and non-equi conditions, GROUP BY/HAVING, the five aggregates (with
DISTINCT), SELECT DISTINCT, UNION/UNION ALL, ORDER BY/LIMIT/OFFSET, and
uncorrelated EXISTS/IN/scalar subqueries.  Each statement runs on a WoW
:class:`Database` and on an in-memory sqlite3 database holding the same
rows.  sqlite is a test-only referee: DESIGN.md forbids it as a
substrate, and ``test_no_sqlite_under_src`` keeps it out of ``src/``.

On the WoW side every statement is planned under each configuration in
:data:`CONFIGS` (the four ``join_strategy`` values, then each of
``enable_pushdown``/``enable_index_selection``/``enable_join_reorder``
off) and drained through ``rows_batched`` at every size in
:data:`BATCH_SIZES`, and once more through ``Database.query`` (the
statement path, plan cache included).  Results compare as lists when the
ORDER BY names every output column (a total order), otherwise as
multisets.  Errors compare by class (:func:`_error_class`).

Dialect differences, each handled on the sqlite side or kept out of the
generator:

* **LIKE** is case-sensitive in the engine; sqlite runs with
  ``PRAGMA case_sensitive_like = ON``.
* **``/``** gives the engine an exact int when the division is exact and
  a float otherwise; sqlite truncates integer division.  The sqlite side
  renders ``x / y`` as ``(x * 1.0 / y)``.  Divisors are non-zero literals
  (the engine raises on division by zero, sqlite yields NULL).
* **String concatenation** is ``+`` in the engine, ``||`` in sqlite.
* **``%`` on FLOAT**: sqlite casts the operands to INTEGER; the generator
  applies ``%`` to INT operands only.
* **Strict typing**: the engine refuses to compare TEXT with INT (or BOOL
  with a number); sqlite compares across storage classes.  The generator
  is type-correct.
* **BOOL** is stored by sqlite as 0/1; Python's ``True == 1`` (with equal
  hashes), so rows compare as they come.
* **Scalar subqueries** with more than one row raise in the engine;
  sqlite takes the first row.  Generated scalar subqueries are ungrouped
  aggregates, which return exactly one row.
* **Float accumulation order**: FLOAT values are small dyadic fractions
  (their sums are exact), and ``/`` never appears inside an aggregate's
  argument, so SUM/AVG do not depend on the order rows arrive in.
* **GROUP BY select lists** hold only group keys and aggregates (sqlite
  accepts bare columns; the engine rejects them).
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Any, List, NamedTuple, Optional, Sequence, Set, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.planverify import iter_operators
from repro.errors import PlanError, SqlError
from repro.relational import algebra
from repro.relational.database import Database
from repro.relational.planner import PlannerConfig
from repro.sql.ast_nodes import Union as SqlUnion
from repro.sql.parser import parse_statement

BATCH_SIZES = (1, 2, 3, 7, 1024)

CONFIGS = (
    PlannerConfig(),
    PlannerConfig(join_strategy="nl"),
    PlannerConfig(join_strategy="hash"),
    PlannerConfig(join_strategy="merge"),
    PlannerConfig(enable_pushdown=False),
    PlannerConfig(enable_index_selection=False),
    PlannerConfig(enable_join_reorder=False),
)

#: every operator class some plan of this module contained
SEEN_OPERATORS: Set[type] = set()

KINDS = ("int", "float", "text", "bool")
SQL_TYPES = {"int": "INT", "float": "FLOAT", "text": "TEXT", "bool": "BOOL"}
SQLITE_TYPES = {"int": "INTEGER", "float": "REAL", "text": "TEXT", "bool": "INTEGER"}

INT_VALUES = st.integers(-6, 6)
FLOAT_VALUES = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.5, 3.25])
TEXT_VALUES = st.sampled_from(["", "a", "b", "ab", "Ab", "ba", "B", "a_b"])
VALUES = {
    "int": INT_VALUES,
    "float": FLOAT_VALUES,
    "text": TEXT_VALUES,
    "bool": st.booleans(),
}
LIKE_PATTERNS = ["a%", "%b", "_", "A%", "%", "a_", "%a%", "a\\_b"]


# ---------------------------------------------------------------------------
# Schema and data
# ---------------------------------------------------------------------------


class Table(NamedTuple):
    name: str
    columns: Tuple[Tuple[str, str], ...]  # (name, kind); id and k first
    rows: Tuple[Tuple[Any, ...], ...]
    index_on_k: bool


class Schema(NamedTuple):
    a: Table
    b: Table
    analyze: bool

    def table(self, name: str) -> Table:
        return self.a if name == "a" else self.b


@st.composite
def tables(draw, name: str) -> Table:
    extras = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    columns = (("id", "int"), ("k", "int")) + tuple(
        (f"x{i}", kind) for i, kind in enumerate(extras)
    )
    count = draw(st.integers(0, 8) | st.integers(3, 8))
    rows = []
    for row_id in range(count):
        k = draw(st.one_of(st.none(), st.integers(0, 3)))
        values = [draw(st.one_of(st.none(), VALUES[kind])) for kind in extras]
        rows.append((row_id, k, *values))
    return Table(name, columns, tuple(rows), draw(st.booleans()))


schemas = st.builds(Schema, tables("a"), tables("b"), st.booleans())

#: ``v`` exposes a view (a Rename in the plan) over ``a``
VIEW_SQL = "CREATE VIEW v AS SELECT id, k FROM a WHERE k IS NOT NULL"


def _load_wow(schema: Schema) -> Database:
    db = Database()
    for table in (schema.a, schema.b):
        cols = ", ".join(
            f"{name} {SQL_TYPES[kind]}" + (" PRIMARY KEY" if name == "id" else "")
            for name, kind in table.columns
        )
        db.execute(f"CREATE TABLE {table.name} ({cols})")
        names = [name for name, _kind in table.columns]
        for row in table.rows:
            db.insert(table.name, dict(zip(names, row)))
        if table.index_on_k:
            db.execute(f"CREATE INDEX {table.name}_k ON {table.name} (k)")
    db.execute(VIEW_SQL)
    if schema.analyze:
        db.execute("ANALYZE")
    return db


def _load_sqlite(schema: Schema) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    for table in (schema.a, schema.b):
        cols = ", ".join(
            f"{name} {SQLITE_TYPES[kind]}" + (" PRIMARY KEY" if name == "id" else "")
            for name, kind in table.columns
        )
        conn.execute(f"CREATE TABLE {table.name} ({cols})")
        marks = ", ".join("?" for _ in table.columns)
        conn.executemany(f"INSERT INTO {table.name} VALUES ({marks})", table.rows)
    conn.execute(VIEW_SQL)
    return conn


# ---------------------------------------------------------------------------
# Expressions: each node renders once per dialect
# ---------------------------------------------------------------------------


class Sql(NamedTuple):
    wow: str
    lite: str
    kind: str  # int | float | text | bool


def _same(text: str, kind: str) -> Sql:
    return Sql(text, text, kind)


def _literal(draw, kind: str) -> Sql:
    value = draw(VALUES[kind])
    if kind == "text":
        return _same("'" + value.replace("'", "''") + "'", kind)
    if kind == "bool":
        return _same("TRUE" if value else "FALSE", kind)
    return _same(repr(value), kind)


def _wrap(fmt: str, kind: str, *parts: Sql) -> Sql:
    return Sql(
        fmt.format(*(p.wow for p in parts)), fmt.format(*(p.lite for p in parts)), kind
    )


class Scope(NamedTuple):
    columns: Tuple[Sql, ...]
    #: tables an uncorrelated subquery may read
    subquery_tables: Tuple[Table, ...]
    #: forbid ``/`` (inside aggregate arguments: float sums are order-dependent)
    no_div: bool = False

    def of_kind(self, kind: str) -> List[Sql]:
        if kind == "num":
            return [c for c in self.columns if c.kind in ("int", "float")]
        return [c for c in self.columns if c.kind == kind]


def _scope_for(table: Table, alias: str, subquery_tables=()) -> Scope:
    return Scope(
        tuple(_same(f"{alias}.{name}", kind) for name, kind in table.columns),
        tuple(subquery_tables),
    )


def _merge(*scopes: Scope) -> Scope:
    return Scope(
        tuple(chain.from_iterable(s.columns for s in scopes)), scopes[0].subquery_tables
    )


def scalar(draw, scope: Scope, kind: str, depth: int) -> Sql:
    """A value expression of *kind* ("num" = int or float)."""
    if kind == "num":
        kind = draw(st.sampled_from(["int", "float"]))
    columns = scope.of_kind(kind)
    leaf = draw(st.integers(0, 3)) if depth > 0 else 0
    if leaf == 0:
        if columns and draw(st.integers(0, 3)):
            return draw(st.sampled_from(columns))
        return _literal(draw, kind)
    sub = depth - 1
    if kind == "int":
        form = draw(st.sampled_from(["arith", "mod", "abs", "neg", "length", "coalesce", "case"]))
        if form == "arith":
            op = draw(st.sampled_from(["+", "-", "*"]))
            return _wrap("({} %s {})" % op, "int", scalar(draw, scope, "int", sub),
                         scalar(draw, scope, "int", sub))
        if form == "mod":
            divisor = draw(st.sampled_from([-3, -2, 2, 3, 4]))
            return _wrap("({} %% %d)" % divisor, "int", scalar(draw, scope, "int", sub))
        if form == "abs":
            return _wrap("ABS({})", "int", scalar(draw, scope, "int", sub))
        if form == "neg":
            return _wrap("(- {})", "int", scalar(draw, scope, "int", sub))
        if form == "length":
            return _wrap("LENGTH({})", "int", scalar(draw, scope, "text", sub))
    elif kind == "float":
        form = draw(st.sampled_from(["arith", "div", "coalesce", "case"]))
        if form == "div" and scope.no_div:
            form = "arith"
        if form == "arith":
            op = draw(st.sampled_from(["+", "-", "*"]))
            return _wrap("({} %s {})" % op, "float", scalar(draw, scope, "float", sub),
                         scalar(draw, scope, "num", sub))
        if form == "div":
            dividend = scalar(draw, scope, "num", sub)
            divisor = draw(st.sampled_from(["2", "3", "-4", "0.5", "1.5"]))
            return Sql(f"({dividend.wow} / {divisor})",
                       f"({dividend.lite} * 1.0 / {divisor})", "float")
    elif kind == "text":
        form = draw(st.sampled_from(["concat", "upper", "lower", "coalesce", "case"]))
        if form == "concat":
            left = scalar(draw, scope, "text", sub)
            right = scalar(draw, scope, "text", sub)
            return Sql(f"({left.wow} + {right.wow})", f"({left.lite} || {right.lite})", "text")
        if form in ("upper", "lower"):
            return _wrap(form.upper() + "({})", "text", scalar(draw, scope, "text", sub))
    else:  # bool
        form = draw(st.sampled_from(["predicate", "case"]))
        if form == "predicate":
            return predicate(draw, scope, sub, subqueries=False)
    if form == "coalesce":
        return _wrap("COALESCE({}, {})", kind, scalar(draw, scope, kind, sub),
                     scalar(draw, scope, kind, sub))
    # searched CASE; an ELSE-less CASE yields NULL
    when = predicate(draw, scope, sub, subqueries=False)
    then = scalar(draw, scope, kind, sub)
    if draw(st.booleans()):
        return _wrap("(CASE WHEN {} THEN {} ELSE {} END)", kind, when, then,
                     scalar(draw, scope, kind, sub))
    return _wrap("(CASE WHEN {} THEN {} END)", kind, when, then)


def predicate(draw, scope: Scope, depth: int, subqueries: bool = True) -> Sql:
    """A three-valued boolean expression."""
    forms = ["cmp", "cmp", "isnull", "in", "between", "like", "boolcol"]
    if depth > 0:
        forms += ["not", "and", "or"]
    if subqueries and scope.subquery_tables:
        forms += ["exists", "in_sub", "scalar_sub"]
    form = draw(st.sampled_from(forms))
    sub = max(depth - 1, 0)
    if form in ("not", "and", "or"):
        left = predicate(draw, scope, sub, subqueries)
        if form == "not":
            return _wrap("(NOT {})", "bool", left)
        right = predicate(draw, scope, sub, subqueries)
        return _wrap("({} %s {})" % form.upper(), "bool", left, right)
    if form == "boolcol":
        columns = scope.of_kind("bool")
        if columns:
            return draw(st.sampled_from(columns))
        form = "cmp"
    if form == "isnull":
        kind = draw(st.sampled_from(KINDS))
        keyword = draw(st.sampled_from(["IS NULL", "IS NOT NULL"]))
        return _wrap("({} %s)" % keyword, "bool", scalar(draw, scope, kind, sub))
    if form == "like":
        keyword = draw(st.sampled_from(["LIKE", "NOT LIKE"]))
        pattern = draw(st.sampled_from(LIKE_PATTERNS))
        return _wrap("({} %s '%s')" % (keyword, pattern), "bool",
                     scalar(draw, scope, "text", sub))
    if form in ("exists", "in_sub", "scalar_sub"):
        return _subquery_predicate(draw, scope, form)
    kind = draw(st.sampled_from(["num", "num", "text", "bool"]))
    operand = scalar(draw, scope, kind, sub)
    if form == "in":
        if operand.kind == "bool":
            operand = scalar(draw, scope, "int", sub)
        items = [_literal(draw, operand.kind) for _ in range(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            items.append(_same("NULL", operand.kind))
        keyword = draw(st.sampled_from(["IN", "NOT IN"]))
        return Sql(
            f"({operand.wow} {keyword} ({', '.join(i.wow for i in items)}))",
            f"({operand.lite} {keyword} ({', '.join(i.lite for i in items)}))",
            "bool",
        )
    if form == "between":
        if operand.kind == "bool":
            operand = scalar(draw, scope, "int", sub)
        keyword = draw(st.sampled_from(["BETWEEN", "NOT BETWEEN"]))
        low = scalar(draw, scope, "num" if operand.kind != "text" else "text", 0)
        high = scalar(draw, scope, "num" if operand.kind != "text" else "text", 0)
        return _wrap("({} %s {} AND {})" % keyword, "bool", operand, low, high)
    # comparison
    if operand.kind == "bool":
        op = draw(st.sampled_from(["=", "!="]))
        right = scalar(draw, scope, "bool", sub)
    else:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        right = scalar(draw, scope, "num" if operand.kind != "text" else "text", sub)
    return _wrap("({} %s {})" % op, "bool", operand, right)


def _subquery_predicate(draw, scope: Scope, form: str) -> Sql:
    """EXISTS / IN / scalar-comparison over an uncorrelated subquery."""
    table = draw(st.sampled_from(scope.subquery_tables))
    inner = _scope_for(table, "sq")
    where = ""
    where_lite = ""
    if draw(st.booleans()):
        cond = predicate(draw, inner, 1, subqueries=False)
        where, where_lite = f" WHERE {cond.wow}", f" WHERE {cond.lite}"
    source = f"FROM {table.name} AS sq"
    if form == "exists":
        keyword = draw(st.sampled_from(["EXISTS", "NOT EXISTS"]))
        return Sql(f"({keyword} (SELECT sq.id {source}{where}))",
                   f"({keyword} (SELECT sq.id {source}{where_lite}))", "bool")
    if form == "in_sub":
        column = draw(st.sampled_from(inner.of_kind("int")))
        operand = scalar(draw, scope, "int", 1)
        keyword = draw(st.sampled_from(["IN", "NOT IN"]))
        return Sql(f"({operand.wow} {keyword} (SELECT {column.wow} {source}{where}))",
                   f"({operand.lite} {keyword} (SELECT {column.lite} {source}{where_lite}))",
                   "bool")
    kind = draw(st.sampled_from(["int", "text", "float"]))
    columns = inner.of_kind(kind)
    if columns:
        func = draw(st.sampled_from(["MIN", "MAX"]))
        value = _wrap(func + "({})", kind, draw(st.sampled_from(columns)))
    else:
        kind = "int"
        value = _same("COUNT(*)", kind)
    operand = scalar(draw, scope, "num" if kind != "text" else "text", 1)
    op = draw(st.sampled_from(["=", "<", ">=", "!="]))
    return Sql(f"({operand.wow} {op} (SELECT {value.wow} {source}{where}))",
               f"({operand.lite} {op} (SELECT {value.lite} {source}{where_lite}))",
               "bool")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Query(NamedTuple):
    wow: str
    lite: str
    ordered: bool  # ORDER BY names every output column


def _from_clause(draw, schema: Schema) -> Tuple[str, str, Scope, List[Sql]]:
    """FROM with zero to two joins: (wow, sqlite, scope, cross-join
    conditions that belong in WHERE)."""
    subq = (schema.a, schema.b)
    first = draw(st.sampled_from(["a", "b", "v"]))
    if first == "v":
        view = Table("v", (("id", "int"), ("k", "int")), (), False)
        scope = _scope_for(view, "v", subq)
    else:
        scope = _scope_for(schema.table(first), first, subq)
    wow = lite = f"{first}"
    joins = draw(st.integers(0, 2)) if first != "v" else draw(st.integers(0, 1))
    aliases = [first]
    cross: List[Sql] = []
    for position in range(joins):
        other = "b" if first != "b" else "a"
        alias = other if position == 0 else "c"
        right = _scope_for(schema.table(other), alias, subq)
        ref = f"{other} AS {alias}" if alias != other else other
        scope = _merge(scope, right)
        kind = draw(st.sampled_from(["JOIN", "JOIN", "LEFT JOIN", "comma"]))
        partner = draw(st.sampled_from(aliases))
        shape = draw(st.sampled_from(["equi", "equi", "equi_residual", "non_equi", "any"]))
        if shape == "equi":
            cond = _same(f"{partner}.k = {alias}.k", "bool")
        elif shape == "equi_residual":
            residual = predicate(draw, scope, 1, subqueries=False)
            cond = _wrap("{} AND {}", "bool", _same(f"{partner}.k = {alias}.k", "bool"), residual)
        elif shape == "non_equi":
            op = draw(st.sampled_from(["<", "<=", "!=", ">"]))
            cond = _same(f"{partner}.k {op} {alias}.k", "bool")
        else:
            cond = predicate(draw, scope, 1, subqueries=False)
        if kind == "comma":
            wow += f", {ref}"
            lite += f", {ref}"
            cross.append(cond)
        else:
            wow += f" {kind} {ref} ON {cond.wow}"
            lite += f" {kind} {ref} ON {cond.lite}"
        aliases.append(alias)
    return wow, lite, scope, cross


def _where(draw, scope: Scope, conjuncts: List[Sql]) -> Tuple[str, str]:
    if draw(st.booleans()):
        conjuncts.append(predicate(draw, scope, 2))
    if not conjuncts:
        return "", ""
    return (
        " WHERE " + " AND ".join(c.wow for c in conjuncts),
        " WHERE " + " AND ".join(c.lite for c in conjuncts),
    )


def _order_by(draw, aliases: Sequence[str]) -> Tuple[str, bool]:
    """ORDER BY over the output aliases: all (a total order) or a prefix."""
    mode = draw(st.sampled_from(["none", "total", "total", "partial"]))
    if mode == "none" or not aliases:
        return "", False
    keys = list(draw(st.permutations(list(aliases))))
    if mode == "partial" and len(keys) > 1:
        keys = keys[: draw(st.integers(1, len(keys) - 1))]
    text = ", ".join(f"{key} {draw(st.sampled_from(['ASC', 'DESC']))}" for key in keys)
    total = len(keys) == len(aliases)
    if total and draw(st.booleans()):
        text += f" LIMIT {draw(st.integers(0, 5))}"
        if draw(st.booleans()):
            text += f" OFFSET {draw(st.integers(1, 4))}"
    return " ORDER BY " + text, total


def _simple_select(draw, schema: Schema, kinds: Optional[Sequence[str]] = None):
    """SELECT [DISTINCT] exprs FROM ... [WHERE ...]; returns (wow, lite, aliases)."""
    from_wow, from_lite, scope, cross = _from_clause(draw, schema)
    if kinds is None:
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    items = [scalar(draw, scope, kind, draw(st.integers(0, 2))) for kind in kinds]
    aliases = [f"o{i}" for i in range(len(items))]
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    where_wow, where_lite = _where(draw, scope, cross)
    return (
        f"SELECT {distinct}" + ", ".join(f"{i.wow} AS {a}" for i, a in zip(items, aliases))
        + f" FROM {from_wow}{where_wow}",
        f"SELECT {distinct}" + ", ".join(f"{i.lite} AS {a}" for i, a in zip(items, aliases))
        + f" FROM {from_lite}{where_lite}",
        aliases,
    )


def _aggregate(draw, scope: Scope, kind: str) -> Sql:
    func = draw(st.sampled_from(["COUNT*", "COUNT", "SUM", "AVG", "MIN", "MAX"]))
    if func == "COUNT*":
        return _same("COUNT(*)", "int")
    arg_scope = scope._replace(no_div=True)
    distinct = "DISTINCT " if draw(st.integers(0, 3)) == 0 else ""
    if func in ("SUM", "AVG"):
        arg = scalar(draw, arg_scope, "num", 1)
        return _wrap(func + "(" + distinct + "{})", "float", arg)
    if func == "COUNT":
        arg = scalar(draw, arg_scope, kind, 1)
        return _wrap("COUNT(" + distinct + "{})", "int", arg)
    arg = scalar(draw, arg_scope, "text" if kind == "text" else "num", 1)
    return _wrap(func + "(" + distinct + "{})", arg.kind, arg)


@st.composite
def queries(draw, schema: Schema) -> Query:
    shape = draw(st.sampled_from(
        ["select", "select", "aggregate", "aggregate", "union", "constant", "error"]
    ))
    if shape == "select":
        wow, lite, aliases = _simple_select(draw, schema)
        order, total = _order_by(draw, aliases)
        return Query(wow + order, lite + order, total)
    if shape == "aggregate":
        from_wow, from_lite, scope, cross = _from_clause(draw, schema)
        where_wow, where_lite = _where(draw, scope, cross)
        groups = draw(st.lists(st.sampled_from(scope.columns), max_size=2, unique=True))
        aggs = [_aggregate(draw, scope, draw(st.sampled_from(KINDS)))
                for _ in range(draw(st.integers(1, 3)))]
        items = list(groups) + aggs
        aliases = [f"o{i}" for i in range(len(items))]
        select_wow = ", ".join(f"{i.wow} AS {a}" for i, a in zip(items, aliases))
        select_lite = ", ".join(f"{i.lite} AS {a}" for i, a in zip(items, aliases))
        group_wow = group_lite = ""
        if groups:
            group_wow = " GROUP BY " + ", ".join(g.wow for g in groups)
            group_lite = " GROUP BY " + ", ".join(g.lite for g in groups)
            if draw(st.booleans()):
                agg = _aggregate(draw, scope, draw(st.sampled_from(KINDS)))
                bound = _literal(draw, agg.kind)
                op = draw(st.sampled_from(["<", ">=", "=", "!="]))
                group_wow += f" HAVING {agg.wow} {op} {bound.wow}"
                group_lite += f" HAVING {agg.lite} {op} {bound.lite}"
        order, total = _order_by(draw, aliases)
        return Query(
            f"SELECT {select_wow} FROM {from_wow}{where_wow}{group_wow}{order}",
            f"SELECT {select_lite} FROM {from_lite}{where_lite}{group_lite}{order}",
            total,
        )
    if shape == "union":
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=2))
        arms = [_simple_select(draw, schema, kinds) for _ in range(draw(st.integers(2, 3)))]
        ops = [draw(st.sampled_from([" UNION ", " UNION ALL "])) for _ in arms[1:]]
        wow, lite, aliases = arms[0]
        for op, (arm_wow, arm_lite, _aliases) in zip(ops, arms[1:]):
            wow += op + arm_wow
            lite += op + arm_lite
        order, total = _order_by(draw, aliases)
        return Query(wow + order, lite + order, total)
    if shape == "constant":
        scope = Scope((), (schema.a, schema.b))
        items = [scalar(draw, scope, draw(st.sampled_from(KINDS)), 2)]
        if draw(st.booleans()):
            items.append(_subquery_scalar(draw, schema))
        select = ", ".join(f"{i.wow} AS o{n}" for n, i in enumerate(items))
        select_lite = ", ".join(f"{i.lite} AS o{n}" for n, i in enumerate(items))
        return Query(f"SELECT {select}", f"SELECT {select_lite}", True)
    # error: an unknown column, which both engines must refuse
    wow, lite, _aliases = _simple_select(draw, schema)
    joiner = " AND " if " WHERE " in wow else " WHERE "
    return Query(wow + joiner + "nosuch = 1", lite + joiner + "nosuch = 1", False)


def _subquery_scalar(draw, schema: Schema) -> Sql:
    table = draw(st.sampled_from([schema.a, schema.b]))
    inner = _scope_for(table, "sq")
    agg = _aggregate(draw, inner, draw(st.sampled_from(KINDS)))
    return _wrap("(SELECT {} FROM %s AS sq)" % table.name, agg.kind, agg)


# ---------------------------------------------------------------------------
# Running and comparing
# ---------------------------------------------------------------------------


def _error_class(exc: BaseException) -> str:
    """Engine and sqlite exceptions mapped onto one vocabulary."""
    if isinstance(exc, (SqlError, PlanError, sqlite3.OperationalError)):
        return "statement"  # syntax, unknown name, shape the planner refuses
    return type(exc).__name__


def _sqlite_outcome(conn: sqlite3.Connection, sql: str):
    try:
        return "rows", conn.execute(sql).fetchall()
    except sqlite3.Error as exc:
        return "error", _error_class(exc)


def _plan(db: Database, sql: str) -> algebra.Operator:
    statement = parse_statement(sql)
    if isinstance(statement, SqlUnion):
        return db.planner.plan_union(statement)
    return db.planner.plan_select(statement)


def _same_rows(actual: List[tuple], expected: List[tuple], ordered: bool) -> bool:
    if ordered:
        return actual == expected
    return Counter(actual) == Counter(expected)


def check_query(db: Database, conn: sqlite3.Connection, query: Query) -> None:
    """Run *query* on both engines under every configuration and batch size."""
    want_kind, want = _sqlite_outcome(conn, query.lite)
    context = f"\nwow:    {query.wow}\nsqlite: {query.lite}\nsqlite says: {want!r}"
    saved = db.planner.config
    try:
        for config in CONFIGS:
            db.planner.config = config
            try:
                plan = _plan(db, query.wow)
                SEEN_OPERATORS.update(type(op) for op in iter_operators(plan))
                for batch_size in BATCH_SIZES:
                    batches = list(plan.rows_batched(batch_size))
                    assert all(batches), f"empty batch at batch_size={batch_size}{context}"
                    got = [tuple(row) for row in chain.from_iterable(batches)]
                    assert want_kind == "rows", f"engine returned {got!r}{context}"
                    assert _same_rows(got, want, query.ordered), (
                        f"{config} batch_size={batch_size}: engine returned {got!r}{context}"
                    )
            except AssertionError:
                raise
            except Exception as exc:  # noqa: BLE001 - compared by class
                assert want_kind == "error" and want == _error_class(exc), (
                    f"{config}: engine raised {exc!r}{context}"
                )
    finally:
        db.planner.config = saved
    try:
        got = [tuple(row) for row in db.query(query.wow)]
    except Exception as exc:  # noqa: BLE001 - compared by class
        assert want_kind == "error" and want == _error_class(exc), (
            f"statement path raised {exc!r}{context}"
        )
        return
    assert want_kind == "rows" and _same_rows(got, want, query.ordered), (
        f"statement path returned {got!r}{context}"
    )


@st.composite
def scenarios(draw):
    schema = draw(schemas)
    return schema, [draw(queries(schema)) for _ in range(3)]


@given(scenario=scenarios())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_engine_matches_sqlite(scenario):
    schema, generated = scenario
    db = _load_wow(schema)
    conn = _load_sqlite(schema)
    try:
        for query in generated:
            check_query(db, conn, query)
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# A fixed corpus: one statement per operator, plus the regressions the
# generator found, so the coverage check below never depends on luck
# ---------------------------------------------------------------------------

CORPUS_SCHEMA = Schema(
    Table(
        "a",
        (("id", "int"), ("k", "int"), ("x0", "int"), ("x1", "text")),
        ((0, 1, -2, "a"), (1, 2, 7, "Ab"), (2, None, None, "b"), (3, 1, -7, None),
         (4, 3, 5, "ab")),
        True,
    ),
    Table(
        "b",
        (("id", "int"), ("k", "int"), ("x0", "float"), ("x1", "bool")),
        ((0, 1, 0.5, True), (1, 1, -2.5, False), (2, None, 1.5, None), (3, 3, None, True)),
        False,
    ),
    False,
)


def _same_sql(sql: str, ordered: bool) -> Query:
    """A statement both dialects spell the same way."""
    return Query(sql, sql, ordered)


CORPUS = [
    # SeqScan, Filter, Project, Sort
    _same_sql("SELECT a.id AS o0 FROM a WHERE a.x1 LIKE 'a%' ORDER BY o0", True),
    # IndexEqScan / IndexRangeScan through the index on a.k
    _same_sql("SELECT a.id AS o0 FROM a WHERE a.k = 1", False),
    _same_sql("SELECT a.id AS o0 FROM a WHERE a.k >= 2 AND a.k <= 3", False),
    # RowSource (no FROM) and a scalar subquery
    _same_sql("SELECT 1 AS o0, (SELECT COUNT(*) FROM a AS sq) AS o1", True),
    # Rename (a view in FROM), Limit, Distinct
    _same_sql("SELECT DISTINCT v.k AS o0 FROM v ORDER BY o0 DESC LIMIT 2 OFFSET 1", True),
    # joins: hash / merge / nested-loop (equi, non-equi, left outer)
    _same_sql("SELECT a.id AS o0, b.id AS o1 FROM a JOIN b ON a.k = b.k", False),
    _same_sql("SELECT a.id AS o0, b.id AS o1 FROM a LEFT JOIN b ON a.k < b.k", False),
    # UnionAll + Distinct, Aggregate with HAVING
    _same_sql("SELECT a.k AS o0 FROM a UNION SELECT b.k AS o0 FROM b ORDER BY o0", True),
    _same_sql("SELECT b.k AS o0, COUNT(*) AS o1, AVG(b.x0) AS o2 FROM b GROUP BY b.k "
              "HAVING COUNT(*) >= 1 ORDER BY o0", True),
    # EXISTS / IN subqueries with NULLs on the subquery side
    _same_sql("SELECT a.id AS o0 FROM a "
              "WHERE EXISTS (SELECT sq.id FROM b AS sq WHERE sq.k = 3)", False),
    _same_sql("SELECT a.id AS o0 FROM a WHERE a.k NOT IN (SELECT sq.k FROM b AS sq)", False),
    # regression: an open-low index range skips NULL keys
    _same_sql("SELECT a.id AS o0 FROM a WHERE a.k < 2", False),
    # regression: NULL NOT IN (an empty subquery) is TRUE, not NULL
    _same_sql("SELECT a.id AS o0 FROM a "
              "WHERE a.k NOT IN (SELECT sq.k FROM b AS sq WHERE sq.id < 0)", False),
    # regression: % takes the sign of the dividend (SQL), not the divisor
    _same_sql("SELECT a.x0 % 3 AS o0, a.x0 % -3 AS o1 FROM a", False),
]


def test_corpus_matches_sqlite():
    db = _load_wow(CORPUS_SCHEMA)
    conn = _load_sqlite(CORPUS_SCHEMA)
    try:
        for query in CORPUS:
            check_query(db, conn, query)
    finally:
        conn.close()


def test_every_operator_ran():
    """Every concrete operator appeared in a plan this module checked —
    a new operator fails here until a generated or corpus query plans it."""
    test_corpus_matches_sqlite()
    operators = {
        cls for cls in algebra.Operator.__subclasses__()
        if cls.__module__ == algebra.__name__
    }
    missing = sorted(cls.__name__ for cls in operators - SEEN_OPERATORS)
    assert not missing, f"no differential query planned {missing}"


def test_no_sqlite_under_src():
    """sqlite is a test-only referee (DESIGN.md): nothing under src/ imports it."""
    src = Path(__file__).resolve().parent.parent / "src"
    offenders = [
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if re.search(r"^\s*(import|from)\s+sqlite3\b", path.read_text(encoding="utf-8"), re.M)
    ]
    assert offenders == []
