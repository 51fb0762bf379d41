"""Tests for the vectorized executor's new machinery: the expression
compiler (compiled closures must match the interpreter exactly, including
3VL and error texts), the compiled per-schema row decoders, and the
observability surfaces (EXPLAIN ANALYZE batch/compile annotations and the
metrics snapshot's executor section).

Whole-query results over random data are checked against sqlite in
test_differential_sqlite.py; this module covers the units.
"""

import datetime

import pytest

from repro.errors import ExecutionError, StorageError, TypeMismatchError
from repro.relational import exprcompile
from repro.relational.database import Database
from repro.relational.expr import (
    BinOp,
    Case,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    RowLayout,
    UnaryOp,
    bind,
)
from repro.relational.exprcompile import compile_expr, compile_row_fn
from repro.relational.rowcodec import decode_row, encode_row, span_decoder
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType

LAYOUT = RowLayout(
    [
        ("t", "a", ColumnType.INT),
        ("t", "b", ColumnType.TEXT),
        ("t", "c", ColumnType.FLOAT),
        ("t", "d", ColumnType.BOOL),
    ]
)

ROWS = [
    (1, "x", 3.5, True),
    (None, None, None, None),
    (-7, "", 0.0, False),
    (0, "abc", -1.25, True),
    (42, "xyzzy", float("inf"), False),
]


def both(expr):
    """(interpreter result, compiled result) per row — must agree exactly."""
    bound = bind(expr, LAYOUT)
    fn, compiled = compile_expr(bound)
    assert compiled, f"expected {expr.to_sql()} to compile"
    return [(bound.eval(row), fn(row)) for row in ROWS]


class TestCompiledEquivalence:
    @pytest.mark.parametrize(
        "expr",
        [
            BinOp("=", ColumnRef("a"), Literal(1)),
            BinOp("!=", ColumnRef("a"), Literal(0)),
            BinOp("<", ColumnRef("a"), Literal(10)),
            BinOp(">=", ColumnRef("c"), Literal(0.0)),
            BinOp("+", ColumnRef("a"), Literal(5)),
            BinOp("-", ColumnRef("a"), ColumnRef("a")),
            BinOp("*", ColumnRef("c"), Literal(2.0)),
            BinOp("/", ColumnRef("a"), Literal(2)),
            BinOp("%", ColumnRef("a"), Literal(3)),
            BinOp("+", ColumnRef("b"), Literal("-suffix")),
            BinOp(
                "and",
                BinOp(">", ColumnRef("a"), Literal(0)),
                BinOp("<", ColumnRef("a"), Literal(10)),
            ),
            BinOp(
                "or",
                IsNull(ColumnRef("a")),
                BinOp("=", ColumnRef("b"), Literal("x")),
            ),
            UnaryOp("not", BinOp(">", ColumnRef("a"), Literal(0))),
            UnaryOp("-", ColumnRef("a")),
            IsNull(ColumnRef("b")),
            IsNull(ColumnRef("b"), negated=True),
            Like(ColumnRef("b"), "x%"),
            Like(ColumnRef("b"), "%z%", negated=True),
            InList(ColumnRef("a"), [Literal(1), Literal(42)]),
            InList(ColumnRef("a"), [Literal(1), Literal(None)], negated=True),
            FuncCall("upper", [ColumnRef("b")]),
            FuncCall("coalesce", [ColumnRef("a"), Literal(-1)]),
            FuncCall("length", [ColumnRef("b")]),
            Case(
                [(BinOp(">", ColumnRef("a"), Literal(0)), Literal("pos"))],
                else_expr=Literal("neg-or-null"),
            ),
            Case([(IsNull(ColumnRef("a")), Literal("null"))]),
        ],
        ids=lambda e: e.to_sql(),
    )
    def test_matches_interpreter(self, expr):
        for interpreted, compiled in both(expr):
            assert compiled == interpreted
            assert type(compiled) is type(interpreted)  # True, not 1

    def test_three_valued_logic_table(self):
        # NULL AND FALSE = FALSE, NULL AND TRUE = NULL, NULL OR TRUE = TRUE...
        a = BinOp(">", ColumnRef("a"), Literal(0))  # NULL on row 2
        for connective in ("and", "or"):
            for other in (Literal(True), Literal(False), Literal(None)):
                for interpreted, compiled in both(BinOp(connective, a, other)):
                    assert compiled is interpreted or compiled == interpreted

    def test_division_by_zero_matches(self):
        bound = bind(BinOp("/", ColumnRef("a"), Literal(0)), LAYOUT)
        fn, compiled = compile_expr(bound)
        assert compiled
        with pytest.raises(ExecutionError) as interp:
            bound.eval(ROWS[0])
        with pytest.raises(ExecutionError) as comp:
            fn(ROWS[0])
        assert str(comp.value) == str(interp.value)

    def test_type_errors_match(self):
        cases = [
            BinOp("-", ColumnRef("b"), Literal(1)),  # arithmetic on TEXT
            BinOp("+", ColumnRef("d"), Literal(1)),  # arithmetic on BOOL
            UnaryOp("-", ColumnRef("b")),  # negate TEXT
            Like(ColumnRef("a"), "x%"),  # LIKE on INT
        ]
        for expr in cases:
            bound = bind(expr, LAYOUT)
            fn, compiled = compile_expr(bound)
            assert compiled
            with pytest.raises(TypeMismatchError) as interp:
                bound.eval(ROWS[0])
            with pytest.raises(TypeMismatchError) as comp:
                fn(ROWS[0])
            assert str(comp.value) == str(interp.value)

    def test_in_list_does_not_let_true_match_one(self):
        # Python's True == 1 must not leak through IN.
        bound = bind(InList(ColumnRef("d"), [Literal(1)]), LAYOUT)
        fn, compiled = compile_expr(bound)
        assert compiled
        with pytest.raises(TypeMismatchError):
            fn((1, "x", 0.0, True))  # compare(BOOL, INT) raises, like eval

    def test_param_stays_live(self):
        param = Param(0)
        bound = bind(BinOp(">", ColumnRef("a"), param), LAYOUT)
        fn, compiled = compile_expr(bound)
        assert compiled
        with pytest.raises(ExecutionError):  # unset parameter
            fn(ROWS[0])
        param.set(0)
        assert fn(ROWS[0]) is True
        param.set(100)  # same closure, new value: no recompilation needed
        assert fn(ROWS[0]) is False

    def test_unbound_column_falls_back(self):
        before = dict(exprcompile.COMPILE_METRICS)
        unbound = BinOp("=", ColumnRef("a"), Literal(1))  # never bound
        fn, compiled = compile_expr(unbound)
        assert not compiled
        assert exprcompile.COMPILE_METRICS["fallback"] == before["fallback"] + 1
        assert fn == unbound.eval  # the interpreter, not a closure

    def test_compile_row_fn_builds_tuples(self):
        exprs = [
            bind(ColumnRef("b"), LAYOUT),
            bind(BinOp("+", ColumnRef("a"), Literal(1)), LAYOUT),
        ]
        fn, compiled = compile_row_fn(exprs)
        assert compiled
        assert fn((1, "x", 3.5, True)) == ("x", 2)
        assert fn((None, None, None, None)) == (None, None)

    def test_generated_source_attached(self):
        bound = bind(BinOp("=", ColumnRef("a"), Literal(1)), LAYOUT)
        fn, compiled = compile_expr(bound)
        assert compiled
        assert "def _compiled(row):" in fn.__source__


SCHEMA = TableSchema(
    "codec",
    [
        Column("i", ColumnType.INT),
        Column("t", ColumnType.TEXT),
        Column("f", ColumnType.FLOAT),
        Column("b", ColumnType.BOOL),
        Column("d", ColumnType.DATE),
    ],
)

CODEC_ROWS = [
    (1, "hello", 2.5, True, datetime.date(1983, 6, 1)),
    (None, None, None, None, None),
    (-(2**40), "", float("-inf"), False, datetime.date(1, 1, 1)),
    (0, "naïve-ütf8 ☃", -0.0, True, datetime.date(9999, 12, 31)),
]


class TestSpanDecoder:
    def test_matches_decode_row(self):
        decode = span_decoder(SCHEMA)
        for row in CODEC_ROWS:
            record = encode_row(SCHEMA, row)
            # Embed at an offset to prove span bounds are honoured.
            buf = b"\xaa" * 3 + record + b"\xbb" * 2
            assert decode(buf, 3, 3 + len(record)) == decode_row(SCHEMA, record)
            assert decode(buf, 3, 3 + len(record)) == row

    def test_decoder_cached_per_schema(self):
        assert span_decoder(SCHEMA) is span_decoder(SCHEMA)

    def test_error_messages_match_scalar_codec(self):
        record = encode_row(SCHEMA, CODEC_ROWS[0])
        decode = span_decoder(SCHEMA)
        for end in range(len(record)):  # every truncation point
            with pytest.raises(StorageError) as span_err:
                decode(record, 0, end)
            with pytest.raises(StorageError) as row_err:
                decode_row(SCHEMA, record[:end])
            assert str(span_err.value) == str(row_err.value)
        with pytest.raises(StorageError, match="trailing bytes"):
            decode(record + b"\x00\x00", 0, len(record) + 2)

    def test_generated_source_attached(self):
        assert "def _decode(buf, start, end):" in span_decoder(SCHEMA).__source__


class TestExecutorObservability:
    def _db(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT)")
        for i in range(10):
            db.insert("t", {"id": i, "grp": i % 3, "name": f"n{i}"})
        return db

    def test_explain_analyze_shows_batches_and_compiled(self):
        db = self._db()
        text = db.execute(
            "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t "
            "WHERE id >= 2 GROUP BY grp ORDER BY grp"
        ).plan
        assert "batches=" in text
        assert "compiled=yes" in text
        assert "compiled=no" not in text

    def test_metrics_snapshot_executor_section(self):
        db = self._db()
        db.query("SELECT name FROM t WHERE grp = 1")
        snap = db.metrics_snapshot()["executor"]
        assert snap["batches"] >= 1
        assert snap["batch_rows"] >= 3
        assert snap["exprs_compiled"] >= 1
