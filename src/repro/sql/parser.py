"""Recursive-descent parser for the SQL subset.

Grammar highlights (see DESIGN.md S7):

* ``SELECT [DISTINCT] items FROM t [AS a] {[INNER|LEFT [OUTER]|CROSS] JOIN t
  [AS a] [ON expr]} [WHERE expr] [GROUP BY exprs] [HAVING expr]
  [ORDER BY expr [ASC|DESC], ...] [LIMIT n [OFFSET m]]``
* ``INSERT INTO t [(cols)] VALUES (lits), ...``
* ``UPDATE t SET c = expr, ... [WHERE expr]`` / ``DELETE FROM t [WHERE expr]``
* ``CREATE TABLE / CREATE [UNIQUE] INDEX ... [USING HASH|BTREE] /
  CREATE VIEW ... AS SELECT ... [WITH CHECK OPTION]`` and the DROPs
* ``BEGIN / COMMIT / ROLLBACK / EXPLAIN SELECT ...``

Aggregates (COUNT/SUM/AVG/MIN/MAX) are legal in select lists, HAVING, and
ORDER BY; inside HAVING/ORDER BY they appear as :class:`AggExpr` wrapper
nodes that the planner rewrites to references into the aggregate output.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.relational import expr as E
from repro.relational.schema import Column, ForeignKey
from repro.relational.types import ColumnType
from repro.sql import ast_nodes as A
from repro.sql.lexer import Token, tokenize


class AggExpr(E.Expr):
    """An aggregate call embedded in an expression (HAVING / ORDER BY).

    Never evaluated directly: the planner replaces it with a ColumnRef into
    the aggregate operator's output before binding.
    """

    __slots__ = ("call",)

    def __init__(self, call: A.AggCall) -> None:
        self.call = call

    def eval(self, row: Sequence[Any]) -> Any:  # pragma: no cover - planner bug
        raise RuntimeError("AggExpr must be planned away before evaluation")

    def children(self) -> Tuple[E.Expr, ...]:
        return ()

    def to_sql(self) -> str:
        arg = "*" if self.call.arg is None else self.call.arg.to_sql()
        prefix = "DISTINCT " if self.call.distinct else ""
        return f"{self.call.func.upper()}({prefix}{arg})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggExpr):
            return NotImplemented
        return (
            other.call.func == self.call.func
            and other.call.arg == self.call.arg
            and other.call.distinct == self.call.distinct
        )

    def __hash__(self) -> int:
        return hash(("AggExpr", self.call.func, self.call.arg, self.call.distinct))


class SubqueryExpr(E.Expr):
    """An uncorrelated subquery in an expression: IN / EXISTS / scalar.

    Never evaluated directly: the planner materialises the subquery once
    and replaces this node with literals (uncorrelated-only semantics —
    correlated subqueries are outside the 1983 subset).
    """

    __slots__ = ("kind", "select", "operand", "negated")

    def __init__(
        self,
        kind: str,  # 'in' | 'exists' | 'scalar'
        select: "A.Select",
        operand: Optional[E.Expr] = None,
        negated: bool = False,
    ) -> None:
        self.kind = kind
        self.select = select
        self.operand = operand
        self.negated = negated

    def eval(self, row: Sequence[Any]) -> Any:  # pragma: no cover - planner bug
        raise RuntimeError("SubqueryExpr must be planned away before evaluation")

    def children(self) -> Tuple[E.Expr, ...]:
        return (self.operand,) if self.operand is not None else ()

    def to_sql(self) -> str:
        if self.kind == "exists":
            prefix = "NOT EXISTS" if self.negated else "EXISTS"
            return f"{prefix} (<subquery>)"
        if self.kind == "in":
            keyword = "NOT IN" if self.negated else "IN"
            return f"({self.operand.to_sql()} {keyword} (<subquery>))"
        return "(<scalar subquery>)"


_AGG_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}


def parse_statement(sql: str) -> A.Statement:
    """Parse exactly one statement (a trailing ';' is tolerated)."""
    statements = parse_script(sql)
    if len(statements) != 1:
        raise ParseError(f"expected one statement, got {len(statements)}")
    return statements[0][0]


def parse_prepared(sql: str) -> Tuple[A.Statement, List[E.Param]]:
    """Parse one statement, returning its ``?`` parameters in lexical order.

    The returned :class:`~repro.relational.expr.Param` nodes are the live
    objects embedded in the AST: assigning their values (via ``Param.set``)
    is how a prepared statement binds arguments before execution.
    """
    parser = _Parser(tokenize(sql))
    statement = parser.statement()
    while parser.accept_punct(";"):
        pass
    if not parser.at("EOF"):
        raise ParseError("expected one statement")
    return statement, parser.params


def parse_script(sql: str) -> List[Tuple[A.Statement, str]]:
    """Parse a ';'-separated sequence of statements, each paired with its
    own source text (sliced from *sql* by token offsets)."""
    parser = _Parser(tokenize(sql))
    statements: List[Tuple[A.Statement, str]] = []
    while not parser.at("EOF"):
        if parser.accept_punct(";"):
            continue
        start = parser.peek().pos
        statement = parser.statement()
        statements.append((statement, sql[start : parser.peek().pos].rstrip()))
    return statements


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        #: E.Param nodes in lexical order, one per `?` marker seen so far.
        self.params: List[E.Param] = []

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "KEYWORD" and token.value in words

    def accept_keyword(self, *words: str) -> Optional[str]:
        if self.at_keyword(*words):
            return self.advance().value
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise ParseError(f"expected {word} near {self._context()}")

    def accept_punct(self, punct: str) -> bool:
        if self.at("PUNCT", punct):
            self.advance()
            return True
        return False

    def expect_punct(self, punct: str) -> None:
        if not self.accept_punct(punct):
            raise ParseError(f"expected {punct!r} near {self._context()}")

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.kind == "IDENT":
            return self.advance().value
        # Non-reserved use of keyword-looking names is not supported; tell
        # the user clearly instead of producing a confusing parse error.
        raise ParseError(f"expected {what} near {self._context()}")

    def _context(self) -> str:
        token = self.peek()
        return f"{token.kind}:{token.value!r} (offset {token.pos})"

    # -- statements -----------------------------------------------------------

    def statement(self) -> A.Statement:
        if self.at_keyword("SELECT"):
            return self.select_or_union()
        if self.at_keyword("INSERT"):
            return self.insert()
        if self.at_keyword("UPDATE"):
            return self.update()
        if self.at_keyword("DELETE"):
            return self.delete()
        if self.at_keyword("CREATE"):
            return self.create()
        if self.at_keyword("DROP"):
            return self.drop()
        if self.at_keyword("ALTER"):
            return self.alter()
        if self.at_keyword("GRANT") or self.at_keyword("REVOKE"):
            return self.grant_or_revoke()
        if self.accept_keyword("BEGIN"):
            return A.Begin()
        if self.accept_keyword("COMMIT"):
            return A.Commit()
        if self.accept_keyword("SAVEPOINT"):
            return A.Savepoint(self.expect_ident("savepoint name"))
        if self.accept_keyword("RELEASE"):
            self.accept_keyword("SAVEPOINT")
            return A.ReleaseSavepoint(self.expect_ident("savepoint name"))
        if self.accept_keyword("ROLLBACK"):
            if self.accept_keyword("TO"):
                self.accept_keyword("SAVEPOINT")
                return A.RollbackTo(self.expect_ident("savepoint name"))
            return A.Rollback()
        if self.accept_keyword("EXPLAIN"):
            analyze = bool(self.accept_keyword("ANALYZE"))
            return A.Explain(self.select(), analyze=analyze)
        if self.accept_keyword("ANALYZE"):
            table = self.advance().value if self.at("IDENT") else None
            return A.Analyze(table)
        raise ParseError(f"unexpected token {self._context()}")

    def select_or_union(self) -> A.Statement:
        """A SELECT, possibly extended into a UNION [ALL] chain."""
        first = self.select()
        if not self.at_keyword("UNION"):
            return first
        selects = [first]
        all_flags: List[bool] = []
        while self.accept_keyword("UNION"):
            all_flags.append(bool(self.accept_keyword("ALL")))
            selects.append(self.select())
        # ORDER BY / LIMIT written after the last arm apply to the union.
        last = selects[-1]
        order_by, limit, offset = last.order_by, last.limit, last.offset
        last.order_by, last.limit, last.offset = [], None, 0
        for arm in selects[:-1]:
            if arm.order_by or arm.limit is not None or arm.offset:
                raise ParseError(
                    "ORDER BY/LIMIT may only follow the last arm of a UNION"
                )
        return A.Union(
            selects=selects,
            all_flags=all_flags,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def grant_or_revoke(self) -> A.Statement:
        """GRANT privs ON obj TO user / REVOKE privs ON obj FROM user."""
        is_grant = bool(self.accept_keyword("GRANT"))
        if not is_grant:
            self.expect_keyword("REVOKE")
        privileges: List[str] = []
        if self.accept_keyword("ALL"):
            privileges.append("ALL")
        else:
            while True:
                token = self.peek()
                if token.kind == "KEYWORD" and token.value in (
                    "SELECT",
                    "INSERT",
                    "UPDATE",
                    "DELETE",
                ):
                    privileges.append(self.advance().value)
                else:
                    raise ParseError(
                        f"expected a privilege near {self._context()}"
                    )
                if not self.accept_punct(","):
                    break
        self.expect_keyword("ON")
        object_name = self.expect_ident("object name")
        if is_grant:
            self.expect_keyword("TO")
            grantee = self.expect_ident("user name")
            return A.Grant(privileges, object_name, grantee)
        self.expect_keyword("FROM")
        grantee = self.expect_ident("user name")
        return A.Revoke(privileges, object_name, grantee)

    def alter(self) -> A.AlterTable:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_ident("table name")
        if self.accept_keyword("ADD"):
            self.accept_keyword("COLUMN")
            # Reuse the column-definition grammar (no inline PK/UNIQUE).
            self._inline_pk = None
            self._inline_unique = []
            column = self._column_def()
            if self._inline_pk or self._inline_unique:
                raise ParseError("ADD COLUMN cannot declare PRIMARY KEY/UNIQUE")
            return A.AlterTable(table=table, action="add", column=column)
        if self.accept_keyword("DROP"):
            self.accept_keyword("COLUMN")
            return A.AlterTable(
                table=table,
                action="drop",
                column_name=self.expect_ident("column name"),
            )
        if self.accept_keyword("RENAME"):
            self.expect_keyword("TO")
            return A.AlterTable(
                table=table, action="rename", new_name=self.expect_ident("new name")
            )
        raise ParseError(f"ALTER TABLE supports ADD/DROP/RENAME near {self._context()}")

    # -- SELECT -----------------------------------------------------------

    def select(self) -> A.Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = [self.select_item()]
        while self.accept_punct(","):
            items.append(self.select_item())
        from_table: Optional[A.TableRef] = None
        joins: List[A.JoinClause] = []
        if self.accept_keyword("FROM"):
            from_table = self.table_ref()
            while True:
                if self.accept_punct(","):
                    joins.append(A.JoinClause("cross", self.table_ref()))
                    continue
                kind = self._join_kind()
                if kind is None:
                    break
                table = self.table_ref()
                condition = None
                if kind != "cross":
                    self.expect_keyword("ON")
                    condition = self.expression()
                joins.append(A.JoinClause(kind, table, condition))
        where = self.expression() if self.accept_keyword("WHERE") else None
        group_by: List[E.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.expression())
            while self.accept_punct(","):
                group_by.append(self.expression())
        having = (
            self.expression(allow_agg=True) if self.accept_keyword("HAVING") else None
        )
        order_by: List[A.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.order_item())
            while self.accept_punct(","):
                order_by.append(self.order_item())
        limit: Optional[int] = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            limit = self._int_literal("LIMIT")
            if self.accept_keyword("OFFSET"):
                offset = self._int_literal("OFFSET")
        return A.Select(
            items=items,
            from_table=from_table,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _join_kind(self) -> Optional[str]:
        if self.accept_keyword("JOIN"):
            return "inner"
        if self.at_keyword("INNER") and self.peek(1).value == "JOIN":
            self.advance()
            self.advance()
            return "inner"
        if self.at_keyword("LEFT"):
            self.advance()
            self.accept_keyword("OUTER")
            self.expect_keyword("JOIN")
            return "left"
        if self.at_keyword("CROSS"):
            self.advance()
            self.expect_keyword("JOIN")
            return "cross"
        return None

    def select_item(self) -> A.SelectItem:
        if self.at("OP", "*"):
            self.advance()
            return A.SelectItem(star=True)
        if (
            self.at("IDENT")
            and self.peek(1).kind == "PUNCT"
            and self.peek(1).value == "."
            and self.peek(2).kind == "OP"
            and self.peek(2).value == "*"
        ):
            qualifier = self.advance().value
            self.advance()  # .
            self.advance()  # *
            return A.SelectItem(star=True, qualifier=qualifier)
        expr = self.expression(allow_agg=True)
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("output alias")
        elif self.at("IDENT"):
            alias = self.advance().value
        if isinstance(expr, AggExpr):
            return A.SelectItem(expr=expr.call, alias=alias)
        return A.SelectItem(expr=expr, alias=alias)

    def table_ref(self) -> A.TableRef:
        name = self.expect_ident("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("table alias")
        elif self.at("IDENT"):
            alias = self.advance().value
        return A.TableRef(name=name, alias=alias)

    def order_item(self) -> A.OrderItem:
        expr = self.expression(allow_agg=True)
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return A.OrderItem(expr=expr, ascending=ascending)

    def _int_literal(self, what: str) -> int:
        token = self.peek()
        if token.kind != "INT":
            raise ParseError(f"{what} requires an integer near {self._context()}")
        self.advance()
        return int(token.value)

    # -- DML ------------------------------------------------------------------

    def insert(self) -> A.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: Optional[List[str]] = None
        if self.accept_punct("("):
            columns = [self.expect_ident("column name")]
            while self.accept_punct(","):
                columns.append(self.expect_ident("column name"))
            self.expect_punct(")")
        if self.at_keyword("SELECT"):
            return A.Insert(table=table, columns=columns, select=self.select())
        self.expect_keyword("VALUES")
        rows = [self._value_row()]
        while self.accept_punct(","):
            rows.append(self._value_row())
        return A.Insert(table=table, columns=columns, rows=rows)

    def _value_row(self) -> List[E.Expr]:
        self.expect_punct("(")
        values = [self.expression()]
        while self.accept_punct(","):
            values.append(self.expression())
        self.expect_punct(")")
        return values

    def update(self) -> A.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident("table name")
        self.expect_keyword("SET")
        assignments = [self._assignment()]
        while self.accept_punct(","):
            assignments.append(self._assignment())
        where = self.expression() if self.accept_keyword("WHERE") else None
        return A.Update(table=table, assignments=assignments, where=where)

    def _assignment(self) -> Tuple[str, E.Expr]:
        column = self.expect_ident("column name")
        if not (self.at("OP", "=")):
            raise ParseError(f"expected '=' near {self._context()}")
        self.advance()
        return column, self.expression()

    def delete(self) -> A.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident("table name")
        where = self.expression() if self.accept_keyword("WHERE") else None
        return A.Delete(table=table, where=where)

    # -- DDL ------------------------------------------------------------------

    def create(self) -> A.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._create_table()
        if self.at_keyword("UNIQUE") or self.at_keyword("INDEX"):
            return self._create_index()
        if self.accept_keyword("VIEW"):
            return self._create_view()
        raise ParseError(f"CREATE must be TABLE/INDEX/VIEW near {self._context()}")

    def _create_table(self) -> A.CreateTable:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident("table name")
        self.expect_punct("(")
        columns: List[Column] = []
        primary_key: Optional[List[str]] = None
        unique: List[List[str]] = []
        foreign_keys: List[ForeignKey] = []
        checks: List[E.Expr] = []
        self._inline_pk: Optional[List[str]] = None
        self._inline_unique: List[str] = []
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                if primary_key is not None:
                    raise ParseError("multiple PRIMARY KEY clauses")
                primary_key = self._column_name_list()
            elif self.accept_keyword("UNIQUE"):
                unique.append(self._column_name_list())
            elif self.accept_keyword("FOREIGN"):
                self.expect_keyword("KEY")
                local = self._column_name_list()
                self.expect_keyword("REFERENCES")
                parent = self.expect_ident("parent table")
                parent_cols = self._column_name_list()
                foreign_keys.append(
                    ForeignKey(tuple(local), parent, tuple(parent_cols))
                )
            elif self.accept_keyword("CHECK"):
                self.expect_punct("(")
                checks.append(self.expression())
                self.expect_punct(")")
            else:
                columns.append(self._column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        if self._inline_pk is not None:
            if primary_key is not None:
                raise ParseError("multiple PRIMARY KEY clauses")
            primary_key = self._inline_pk
        unique.extend([name] for name in self._inline_unique)
        return A.CreateTable(
            name=name,
            columns=columns,
            primary_key=primary_key,
            unique=unique,
            foreign_keys=foreign_keys,
            checks=checks,
            if_not_exists=if_not_exists,
        )

    def _column_def(self) -> Column:
        name = self.expect_ident("column name")
        type_token = self.peek()
        if type_token.kind not in ("IDENT", "KEYWORD"):
            raise ParseError(f"expected a type near {self._context()}")
        self.advance()
        ctype = ColumnType.from_name(type_token.value)
        nullable = True
        default = None
        primary_single = False
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
            elif self.accept_keyword("NULL"):
                nullable = True
            elif self.accept_keyword("DEFAULT"):
                literal = self.primary()
                if not isinstance(literal, E.Literal):
                    raise ParseError("DEFAULT requires a literal")
                default = literal.value
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_single = True
                nullable = False
            elif self.accept_keyword("UNIQUE"):
                self._inline_unique.append(name)
            else:
                break
        column = Column(name, ctype, nullable, default)
        if primary_single:
            if self._inline_pk is not None:
                raise ParseError("multiple PRIMARY KEY clauses")
            self._inline_pk = [name]
        return column

    def _column_name_list(self) -> List[str]:
        self.expect_punct("(")
        names = [self.expect_ident("column name")]
        while self.accept_punct(","):
            names.append(self.expect_ident("column name"))
        self.expect_punct(")")
        return names

    def _create_index(self) -> A.CreateIndex:
        unique = bool(self.accept_keyword("UNIQUE"))
        self.expect_keyword("INDEX")
        name = self.expect_ident("index name")
        self.expect_keyword("ON")
        table = self.expect_ident("table name")
        columns = self._column_name_list()
        kind = "btree"
        if self.accept_keyword("USING"):
            kind_token = self.advance()
            kind = kind_token.value.lower()
            if kind not in ("hash", "btree"):
                raise ParseError(f"USING must be HASH or BTREE, got {kind!r}")
        return A.CreateIndex(name=name, table=table, columns=columns, unique=unique, kind=kind)

    def _create_view(self) -> A.CreateView:
        name = self.expect_ident("view name")
        column_names = None
        if self.at("PUNCT", "("):
            column_names = self._column_name_list()
        self.expect_keyword("AS")
        query = self.select()
        check_option = False
        if self.accept_keyword("WITH"):
            self.expect_keyword("CHECK")
            self.expect_keyword("OPTION")
            check_option = True
        return A.CreateView(
            name=name, column_names=column_names, query=query, check_option=check_option
        )

    def drop(self) -> A.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = self._if_exists()
            return A.DropTable(self.expect_ident("table name"), if_exists)
        if self.accept_keyword("VIEW"):
            if_exists = self._if_exists()
            return A.DropView(self.expect_ident("view name"), if_exists)
        if self.accept_keyword("INDEX"):
            name = self.expect_ident("index name")
            self.expect_keyword("ON")
            table = self.expect_ident("table name")
            return A.DropIndex(name=name, table=table)
        raise ParseError(f"DROP must be TABLE/VIEW/INDEX near {self._context()}")

    def _if_exists(self) -> bool:
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            return True
        return False

    # -- expressions ------------------------------------------------------

    def expression(self, allow_agg: bool = False) -> E.Expr:
        return self._or_expr(allow_agg)

    def _or_expr(self, allow_agg: bool) -> E.Expr:
        left = self._and_expr(allow_agg)
        while self.accept_keyword("OR"):
            left = E.BinOp("or", left, self._and_expr(allow_agg))
        return left

    def _and_expr(self, allow_agg: bool) -> E.Expr:
        left = self._not_expr(allow_agg)
        while self.accept_keyword("AND"):
            left = E.BinOp("and", left, self._not_expr(allow_agg))
        return left

    def _not_expr(self, allow_agg: bool) -> E.Expr:
        if self.accept_keyword("NOT"):
            return E.UnaryOp("not", self._not_expr(allow_agg))
        return self._predicate(allow_agg)

    def _predicate(self, allow_agg: bool) -> E.Expr:
        left = self._additive(allow_agg)
        if self.at("OP") and self.peek().value in _CMP_OPS:
            op = self.advance().value
            return E.BinOp(op, left, self._additive(allow_agg))
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return E.IsNull(left, negated)
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("LIKE"):
            token = self.peek()
            if token.kind != "STRING":
                raise ParseError(f"LIKE requires a string near {self._context()}")
            self.advance()
            return E.Like(left, token.value, negated)
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            if self.at_keyword("SELECT"):
                select = self.select()
                self.expect_punct(")")
                return SubqueryExpr("in", select, operand=left, negated=negated)
            items = [self.expression()]
            while self.accept_punct(","):
                items.append(self.expression())
            self.expect_punct(")")
            return E.InList(left, items, negated)
        if self.accept_keyword("BETWEEN"):
            low = self._additive(allow_agg)
            self.expect_keyword("AND")
            high = self._additive(allow_agg)
            between = E.BinOp(
                "and", E.BinOp(">=", left, low), E.BinOp("<=", left, high)
            )
            return E.UnaryOp("not", between) if negated else between
        if negated:
            raise ParseError(f"dangling NOT near {self._context()}")
        return left

    def _additive(self, allow_agg: bool) -> E.Expr:
        left = self._term(allow_agg)
        while self.at("OP") and self.peek().value in ("+", "-"):
            op = self.advance().value
            left = E.BinOp(op, left, self._term(allow_agg))
        return left

    def _term(self, allow_agg: bool) -> E.Expr:
        left = self._factor(allow_agg)
        while self.at("OP") and self.peek().value in ("*", "/", "%"):
            op = self.advance().value
            left = E.BinOp(op, left, self._factor(allow_agg))
        return left

    def _factor(self, allow_agg: bool) -> E.Expr:
        if self.at("OP", "-"):
            self.advance()
            operand = self._factor(allow_agg)
            # Fold negated numeric literals: -1 is a literal, not an op.
            if isinstance(operand, E.Literal) and isinstance(
                operand.value, (int, float)
            ) and not isinstance(operand.value, bool):
                return E.Literal(-operand.value)
            return E.UnaryOp("-", operand)
        return self.primary(allow_agg)

    def primary(self, allow_agg: bool = False) -> E.Expr:
        token = self.peek()
        if token.kind == "PARAM":
            self.advance()
            param = E.Param(len(self.params))
            self.params.append(param)
            return param
        if token.kind == "INT":
            self.advance()
            return E.Literal(int(token.value))
        if token.kind == "FLOAT":
            self.advance()
            return E.Literal(float(token.value))
        if token.kind == "STRING":
            self.advance()
            return E.Literal(token.value)
        if token.kind == "KEYWORD":
            if token.value == "NULL":
                self.advance()
                return E.Literal(None)
            if token.value == "TRUE":
                self.advance()
                return E.Literal(True)
            if token.value == "FALSE":
                self.advance()
                return E.Literal(False)
            if token.value in _AGG_KEYWORDS:
                if not allow_agg:
                    raise ParseError(
                        f"aggregate {token.value} not allowed here "
                        f"(offset {token.pos})"
                    )
                return self._agg_call()
        if token.kind == "KEYWORD" and token.value == "CASE":
            return self._case_expr(allow_agg)
        if token.kind == "KEYWORD" and token.value == "EXISTS":
            self.advance()
            self.expect_punct("(")
            select = self.select()
            self.expect_punct(")")
            return SubqueryExpr("exists", select)
        if token.kind == "PUNCT" and token.value == "(":
            self.advance()
            if self.at_keyword("SELECT"):
                select = self.select()
                self.expect_punct(")")
                return SubqueryExpr("scalar", select)
            inner = self.expression(allow_agg)
            self.expect_punct(")")
            return inner
        if token.kind == "IDENT":
            # function call?
            if self.peek(1).kind == "PUNCT" and self.peek(1).value == "(":
                func = self.advance().value
                self.advance()  # (
                args: List[E.Expr] = []
                if not self.at("PUNCT", ")"):
                    args.append(self.expression(allow_agg))
                    while self.accept_punct(","):
                        args.append(self.expression(allow_agg))
                self.expect_punct(")")
                try:
                    return E.FuncCall(func, args)
                except ValueError as exc:
                    raise ParseError(str(exc)) from exc
            name = self.advance().value
            if self.accept_punct("."):
                column = self.expect_ident("column name")
                return E.ColumnRef(column, qualifier=name)
            return E.ColumnRef(name)
        raise ParseError(f"unexpected token {self._context()}")

    def _case_expr(self, allow_agg: bool) -> E.Expr:
        """Searched or simple CASE; the simple form desugars to equalities."""
        self.expect_keyword("CASE")
        subject: Optional[E.Expr] = None
        if not self.at_keyword("WHEN"):
            subject = self.expression(allow_agg)
        branches = []
        while self.accept_keyword("WHEN"):
            condition = self.expression(allow_agg)
            if subject is not None:
                condition = E.BinOp("=", subject, condition)
            self.expect_keyword("THEN")
            result = self.expression(allow_agg)
            branches.append((condition, result))
        if not branches:
            raise ParseError(f"CASE needs at least one WHEN near {self._context()}")
        else_expr = None
        if self.accept_keyword("ELSE"):
            else_expr = self.expression(allow_agg)
        self.expect_keyword("END")
        return E.Case(branches, else_expr)

    def _agg_call(self) -> AggExpr:
        func = self.advance().value.lower()
        self.expect_punct("(")
        distinct = bool(self.accept_keyword("DISTINCT"))
        if self.at("OP", "*"):
            self.advance()
            if func != "count":
                raise ParseError(f"{func.upper()}(*) is not valid")
            arg: Optional[E.Expr] = None
        else:
            arg = self.expression()
        self.expect_punct(")")
        return AggExpr(A.AggCall(func=func, arg=arg, distinct=distinct))
