"""Tests for expression evaluation, binding, and rewriting utilities."""

import pytest

from repro.errors import BindError, ExecutionError, TypeMismatchError
from repro.relational import exprcompile
from repro.relational.expr import (
    BinOp,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    RowLayout,
    UnaryOp,
    bind,
    column_refs,
    conjoin,
    const_comparison,
    equality_pair,
    references_only,
    split_conjuncts,
)
from repro.relational.types import ColumnType

LAYOUT = RowLayout(
    [
        ("t", "a", ColumnType.INT),
        ("t", "b", ColumnType.TEXT),
        ("u", "a", ColumnType.INT),
        ("u", "c", ColumnType.FLOAT),
    ]
)


def run(expr, row=(1, "x", 2, 3.5)):
    return bind(expr, LAYOUT).eval(row)


class TestRowLayout:
    def test_qualified_resolution(self):
        assert LAYOUT.resolve("t", "a") == 0
        assert LAYOUT.resolve("u", "a") == 2

    def test_bare_unambiguous(self):
        assert LAYOUT.resolve(None, "b") == 1
        assert LAYOUT.resolve(None, "c") == 3

    def test_bare_ambiguous_raises(self):
        with pytest.raises(BindError):
            LAYOUT.resolve(None, "a")

    def test_unknown_raises(self):
        with pytest.raises(BindError):
            LAYOUT.resolve("t", "zzz")
        with pytest.raises(BindError):
            LAYOUT.resolve(None, "zzz")

    def test_concatenation(self):
        left = RowLayout([("x", "p", ColumnType.INT)])
        right = RowLayout([("y", "q", ColumnType.INT)])
        combined = left + right
        assert combined.resolve("y", "q") == 1

    def test_duplicate_qualified_rejected(self):
        with pytest.raises(BindError):
            RowLayout([("t", "a", ColumnType.INT), ("t", "a", ColumnType.INT)])


class TestEvaluation:
    def test_comparison(self):
        assert run(BinOp("<", ColumnRef("a", "t"), ColumnRef("a", "u"))) is True
        assert run(BinOp("=", ColumnRef("a", "t"), Literal(1))) is True
        assert run(BinOp("!=", ColumnRef("a", "t"), Literal(1))) is False

    def test_comparison_with_null_is_unknown(self):
        assert run(BinOp("=", Literal(None), Literal(1))) is None
        assert run(BinOp("<", Literal(None), Literal(None))) is None

    def test_arithmetic(self):
        assert run(BinOp("+", Literal(2), Literal(3))) == 5
        assert run(BinOp("*", ColumnRef("c", "u"), Literal(2))) == 7.0
        assert run(BinOp("-", Literal(2), Literal(5))) == -3
        assert run(BinOp("%", Literal(7), Literal(3))) == 1

    def test_modulo_sign_follows_dividend(self):
        # SQL (sqlite, PostgreSQL) truncates; Python's % floors.
        cases = ((-2, 3, -2), (-7, 3, -1), (7, -3, 1), (-7, -3, -1), (-7.5, 2, -1.5))
        for lhs, rhs, want in cases:
            expr = BinOp("%", Literal(lhs), Literal(rhs))
            assert run(expr) == want
            assert exprcompile.compile_expr(expr)[0](()) == want

    def test_nothing_is_in_an_empty_list_not_even_null(self):
        # An IN subquery that returned no rows materialises to an empty list.
        for operand in (Literal(None), Literal(1)):
            for negated, want in ((False, False), (True, True)):
                expr = InList(operand, [], negated)
                assert run(expr) is want
                assert exprcompile.compile_expr(expr)[0](()) is want

    def test_integer_division_exact_stays_int(self):
        assert run(BinOp("/", Literal(6), Literal(3))) == 2
        assert run(BinOp("/", Literal(7), Literal(2))) == 3.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            run(BinOp("/", Literal(1), Literal(0)))
        with pytest.raises(ExecutionError):
            run(BinOp("%", Literal(1), Literal(0)))

    def test_arithmetic_null_propagates(self):
        assert run(BinOp("+", Literal(None), Literal(3))) is None

    def test_string_concat(self):
        assert run(BinOp("+", Literal("ab"), Literal("cd"))) == "abcd"

    def test_arithmetic_type_errors(self):
        with pytest.raises(TypeMismatchError):
            run(BinOp("+", Literal(True), Literal(1)))
        with pytest.raises(TypeMismatchError):
            run(BinOp("*", Literal("x"), Literal(2)))

    def test_and_or_3vl(self):
        true, false, null = Literal(True), Literal(False), Literal(None)
        assert run(BinOp("and", false, null)) is False
        assert run(BinOp("and", true, null)) is None
        assert run(BinOp("or", true, null)) is True
        assert run(BinOp("or", false, null)) is None

    def test_not(self):
        assert run(UnaryOp("not", Literal(False))) is True
        assert run(UnaryOp("not", Literal(None))) is None

    def test_negation(self):
        assert run(UnaryOp("-", Literal(4))) == -4
        assert run(UnaryOp("-", Literal(None))) is None
        with pytest.raises(TypeMismatchError):
            run(UnaryOp("-", Literal("x")))

    def test_is_null(self):
        assert run(IsNull(Literal(None))) is True
        assert run(IsNull(Literal(1))) is False
        assert run(IsNull(Literal(None), negated=True)) is False

    def test_like(self):
        assert run(Like(Literal("window"), "win%")) is True
        assert run(Like(Literal("window"), "w_ndow")) is True
        assert run(Like(Literal("window"), "Win%")) is False  # case-sensitive
        assert run(Like(Literal("window"), "win%", negated=True)) is False
        assert run(Like(Literal(None), "%")) is None

    def test_like_escapes_regex_metachars(self):
        assert run(Like(Literal("a.b"), "a.b")) is True
        assert run(Like(Literal("axb"), "a.b")) is False

    def test_like_rejects_non_text(self):
        with pytest.raises(TypeMismatchError):
            run(Like(ColumnRef("a", "t"), "%"))

    def test_in_list(self):
        expr = InList(ColumnRef("a", "t"), [Literal(1), Literal(2)])
        assert run(expr) is True
        expr = InList(ColumnRef("a", "t"), [Literal(5)])
        assert run(expr) is False

    def test_in_list_null_semantics(self):
        # 1 IN (2, NULL) is UNKNOWN, not FALSE.
        expr = InList(Literal(1), [Literal(2), Literal(None)])
        assert run(expr) is None
        # 1 IN (1, NULL) is TRUE.
        expr = InList(Literal(1), [Literal(1), Literal(None)])
        assert run(expr) is True
        # NULL IN (...) is UNKNOWN.
        expr = InList(Literal(None), [Literal(1)])
        assert run(expr) is None

    def test_not_in(self):
        expr = InList(Literal(1), [Literal(2)], negated=True)
        assert run(expr) is True
        expr = InList(Literal(1), [Literal(2), Literal(None)], negated=True)
        assert run(expr) is None

    def test_func_calls(self):
        assert run(FuncCall("lower", [Literal("ABC")])) == "abc"
        assert run(FuncCall("upper", [Literal("abc")])) == "ABC"
        assert run(FuncCall("length", [Literal("abcd")])) == 4
        assert run(FuncCall("abs", [Literal(-3)])) == 3
        assert run(FuncCall("coalesce", [Literal(None), Literal(7)])) == 7
        assert run(FuncCall("substr", [Literal("window"), Literal(2), Literal(3)])) == "ind"

    def test_func_null_propagation(self):
        assert run(FuncCall("lower", [Literal(None)])) is None

    def test_unknown_func_rejected(self):
        with pytest.raises(ValueError):
            FuncCall("md5", [Literal("x")])

    def test_unbound_column_raises(self):
        with pytest.raises(ExecutionError):
            ColumnRef("a", "t").eval((1,))


class TestUtilities:
    def test_split_and_conjoin_roundtrip(self):
        expr = BinOp(
            "and",
            BinOp("and", Literal(True), Literal(False)),
            IsNull(ColumnRef("a", "t")),
        )
        parts = split_conjuncts(expr)
        assert len(parts) == 3
        rebuilt = conjoin(parts)
        assert split_conjuncts(rebuilt) == parts

    def test_split_none(self):
        assert split_conjuncts(None) == []
        assert conjoin([]) is None

    def test_column_refs(self):
        expr = BinOp("=", ColumnRef("a", "t"), BinOp("+", ColumnRef("c", "u"), Literal(1)))
        refs = column_refs(expr)
        assert {(r.qualifier, r.name) for r in refs} == {("t", "a"), ("u", "c")}

    def test_references_only(self):
        expr = BinOp("=", ColumnRef("a", "t"), Literal(1))
        assert references_only(expr, ["t"])
        assert not references_only(expr, ["u"])
        bare = BinOp("=", ColumnRef("a"), Literal(1))
        assert not references_only(bare, ["t"])  # unqualified fails

    def test_equality_pair(self):
        expr = BinOp("=", ColumnRef("a", "t"), ColumnRef("a", "u"))
        pair = equality_pair(expr)
        assert pair is not None and pair[0].qualifier == "t"
        assert equality_pair(BinOp("<", ColumnRef("a", "t"), ColumnRef("a", "u"))) is None

    def test_const_comparison_normalises_direction(self):
        col = ColumnRef("a", "t")
        assert const_comparison(BinOp("<", col, Literal(5)))[1] == "<"
        flipped = const_comparison(BinOp("<", Literal(5), col))
        assert flipped[1] == ">"
        assert const_comparison(BinOp("=", Literal(1), Literal(2))) is None

    def test_to_sql_roundtrip_text(self):
        expr = BinOp("and", Like(ColumnRef("b", "t"), "a%"), IsNull(ColumnRef("a", "t")))
        text = expr.to_sql()
        assert "LIKE" in text and "IS NULL" in text

    def test_literal_sql_escaping(self):
        assert Literal("o'brien").to_sql() == "'o''brien'"
        assert Literal(None).to_sql() == "NULL"
        assert Literal(True).to_sql() == "TRUE"
