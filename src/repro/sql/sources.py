"""Which tables and views a statement reads.

Privilege checks, 2PL locksets, view dependencies and adaptive re-planning
all ask the same question of an AST, so one walker answers it.  A source
is read from a FROM or JOIN entry, or from a subquery anywhere an
expression may stand: select items, WHERE, GROUP BY, HAVING, ORDER BY,
JOIN ON, UPDATE SET, and INSERT VALUES.  Views are not expanded — each
caller decides what a view stands for.
"""

from __future__ import annotations

from typing import Any, List

from repro.relational import expr as E
from repro.sql import ast_nodes as A
from repro.sql.parser import AggExpr, SubqueryExpr


def statement_sources(statement: A.Statement) -> List[str]:
    """The lowered names *statement* reads, each once, in first-seen order.

    Covers SELECT, UNION, INSERT, UPDATE and DELETE; a DML target is
    written, not read, so it is not listed.  Any other statement reads
    nothing.
    """
    names: List[str] = []
    _statement(statement, names)
    return list(dict.fromkeys(names))


def _statement(node: A.Statement, names: List[str]) -> None:
    if isinstance(node, A.Select):
        if node.from_table is not None:
            names.append(node.from_table.name.lower())
        for join in node.joins:
            names.append(join.table.name.lower())
            _expr(join.condition, names)
        for item in node.items:
            _expr(item.expr, names)
        _expr(node.where, names)
        for expr in node.group_by:
            _expr(expr, names)
        _expr(node.having, names)
        for item in node.order_by:
            _expr(item.expr, names)
    elif isinstance(node, A.Union):
        for arm in node.selects:
            _statement(arm, names)
    elif isinstance(node, A.Insert):
        for row in node.rows:
            for expr in row:
                _expr(expr, names)
        if node.select is not None:
            _statement(node.select, names)
    elif isinstance(node, A.Update):
        for _column, expr in node.assignments:
            _expr(expr, names)
        _expr(node.where, names)
    elif isinstance(node, A.Delete):
        _expr(node.where, names)


def _expr(expr: Any, names: List[str]) -> None:
    """Sources of the subqueries inside one expression (or aggregate call)."""
    if isinstance(expr, A.AggCall):
        expr = expr.arg
    if not isinstance(expr, E.Expr):
        return
    for node in expr.walk():
        if isinstance(node, SubqueryExpr):
            _statement(node.select, names)
        elif isinstance(node, AggExpr):
            _expr(node.call.arg, names)
