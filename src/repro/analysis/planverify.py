"""Static verification of physical plan trees.

``verify_plan`` walks an operator tree and checks the schema/arity/type
invariants every operator boundary must satisfy: bound column references
in range of the input layout, Filter/Sort/Limit/Distinct preserving their
child's layout, join outputs being the concatenation of their inputs with
type-compatible keys, UnionAll inputs aligned slot-by-slot, scans agreeing
with their table's schema.  A violation raises
:class:`PlanVerificationError` (a :class:`~repro.errors.PlanError`) naming
the exact operator and slot, so a planner bug fails loudly at plan time
instead of surfacing as silently wrong rows.

The verifier runs in three places:

* always on ``EXPLAIN`` (the "verified" trailer line);
* on every freshly planned query when ``WOW_VERIFY_PLANS=1`` (set by CI
  and the tier-1 conftest hook);
* directly from the planner unit tests, which feed it deliberately
  malformed trees.

Type compatibility is *category*-based, mirroring ``types.compare``'s
runtime coercions: {INT, FLOAT} are mutually comparable numerics and
{TEXT, DATE} coerce to each other; BOOL stands alone.  The verifier must
never be stricter than the executor, or valid plans would be rejected.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.relational import algebra as A
from repro.relational.expr import ColumnRef, Expr, RowLayout
from repro.relational.types import ColumnType


class PlanVerificationError(PlanError):
    """A plan tree violates an operator-boundary invariant."""


#: process-wide counters, surfaced via ``Database.metrics_snapshot()``
VERIFY_METRICS: Dict[str, int] = {"verified_plans": 0, "rejected_plans": 0}

#: mutually comparable type categories (keep in sync with types.compare,
#: which coerces date<->str and compares int/float numerically)
_TYPE_CATEGORY: Dict[ColumnType, str] = {
    ColumnType.INT: "numeric",
    ColumnType.FLOAT: "numeric",
    ColumnType.TEXT: "textual",
    ColumnType.DATE: "textual",
    ColumnType.BOOL: "boolean",
}

#: module-level switch, initialised from the environment so a test session
#: (or CI) opts every plan in without touching call sites
VERIFY_PLANS: bool = os.environ.get("WOW_VERIFY_PLANS", "") == "1"


def iter_operators(plan: A.Operator) -> Iterator[A.Operator]:
    """Pre-order walk of the operator tree."""
    yield plan
    for child in plan.children():
        yield from iter_operators(child)


def _compatible(a: ColumnType, b: ColumnType) -> bool:
    return _TYPE_CATEGORY.get(a) == _TYPE_CATEGORY.get(b)


def _fail(op: A.Operator, message: str) -> None:
    raise PlanVerificationError(f"{op.label()}: {message}")


def _check_layout(op: A.Operator) -> RowLayout:
    layout = getattr(op, "layout", None)
    if not isinstance(layout, RowLayout):
        _fail(op, "operator has no RowLayout")
    for pos, slot in enumerate(layout.slots):
        if len(slot) != 3 or not isinstance(slot[2], ColumnType):
            _fail(op, f"slot {pos} is untyped: {slot!r}")
    return layout


def _check_refs_bound(op: A.Operator, expr: Expr, input_arity: int, what: str) -> None:
    for node in expr.walk():
        if isinstance(node, ColumnRef):
            if node.index is None:
                _fail(op, f"{what} contains unbound column reference {node.to_sql()!r}")
            if not (0 <= node.index < input_arity):
                _fail(
                    op,
                    f"{what} references slot {node.index} but the input "
                    f"has only {input_arity} columns",
                )


def _check_same_slots(op: A.Operator, child: A.Operator, kind: str) -> None:
    if op.layout.slots != child.layout.slots:
        _fail(
            op,
            f"{kind} must preserve its child's layout exactly "
            f"(child has {len(child.layout)} slots, operator declares "
            f"{len(op.layout)})",
        )


def _check_scan(op: A.Operator) -> None:
    expected = RowLayout.for_table(op.alias, op.table.schema)
    if op.layout.slots != expected.slots:
        _fail(op, f"scan layout does not match schema of table {op.table.name!r}")
    index = getattr(op, "index", None)
    if index is not None:
        schema_names = {col.name for col in op.table.schema.columns}
        for column in index.columns:
            if column not in schema_names:
                _fail(
                    op,
                    f"index {index.name!r} references column {column!r} "
                    f"missing from table {op.table.name!r}",
                )
        key = getattr(op, "key", None)
        if key is not None and len(key) != len(index.columns):
            _fail(
                op,
                f"lookup key has {len(key)} components but index "
                f"{index.name!r} covers {len(index.columns)} columns",
            )
        if isinstance(op, A.IndexRangeScan):
            for side in ("low", "high"):
                bound = getattr(op, side, None)
                if bound is not None and len(bound) > len(index.columns):
                    _fail(
                        op,
                        f"range {side} bound has {len(bound)} components "
                        f"but index {index.name!r} covers only "
                        f"{len(index.columns)} columns",
                    )


def _check_join_keys(
    op: A.Operator,
    outer: A.Operator,
    inner: A.Operator,
    outer_keys: Sequence[int],
    inner_keys: Sequence[int],
) -> None:
    if len(outer_keys) != len(inner_keys) or not outer_keys:
        _fail(op, "join needs matching, non-empty key position lists")
    for side, keys, child in (("outer", outer_keys, outer), ("inner", inner_keys, inner)):
        for pos in keys:
            if not (0 <= pos < len(child.layout)):
                _fail(
                    op,
                    f"{side} key position {pos} out of range for input "
                    f"with {len(child.layout)} columns",
                )
    for o_pos, i_pos in zip(outer_keys, inner_keys):
        o_type = outer.layout.type_at(o_pos)
        i_type = inner.layout.type_at(i_pos)
        if not _compatible(o_type, i_type):
            _fail(
                op,
                f"join key types incompatible: outer[{o_pos}] is "
                f"{o_type.name}, inner[{i_pos}] is {i_type.name}",
            )


def _check_join_layout(op: A.Operator, outer: A.Operator, inner: A.Operator) -> None:
    expected = outer.layout.slots + inner.layout.slots
    if op.layout.slots != expected:
        _fail(
            op,
            "join layout must be outer slots followed by inner slots "
            f"({len(outer.layout)} + {len(inner.layout)} columns, operator "
            f"declares {len(op.layout)})",
        )


def _verify_operator(op: A.Operator) -> None:
    from repro.relational.stats import is_valid_estimate

    _check_layout(op)
    est = op.est_rows
    if est is not None:
        try:
            negative = float(est) < 0
        except (TypeError, ValueError):
            negative = False
        if negative:
            _fail(op, f"negative cardinality estimate {est!r}")
        elif not is_valid_estimate(est):
            # Shares the planner's clamp_rows contract: every annotated
            # estimate is a finite whole number of at least one row.
            _fail(op, f"non-normalized cardinality estimate {est!r}")

    if isinstance(op, (A.SeqScan, A.IndexEqScan, A.IndexRangeScan)):
        _check_scan(op)
    elif isinstance(op, A.RowSource):
        arity = len(op.layout)
        for i, row in enumerate(op._rows):
            if len(row) != arity:
                _fail(op, f"row {i} has {len(row)} values for a {arity}-column layout")
                break
    elif isinstance(op, A.Rename):
        if len(op.layout) != len(op.child.layout):
            _fail(
                op,
                f"rename changes arity ({len(op.child.layout)} -> "
                f"{len(op.layout)}); it may only re-qualify",
            )
        for pos, ((_q, _n, out_t), (_cq, _cn, in_t)) in enumerate(
            zip(op.layout.slots, op.child.layout.slots)
        ):
            if out_t is not in_t:
                _fail(op, f"rename changes the type of slot {pos}")
    elif isinstance(op, A.Filter):
        _check_same_slots(op, op.child, "Filter")
        _check_refs_bound(op, op.predicate, len(op.child.layout), "predicate")
    elif isinstance(op, A.Project):
        if len(op.exprs) != len(op.layout):
            _fail(
                op,
                f"projects {len(op.exprs)} expressions into "
                f"{len(op.layout)} output slots",
            )
        for expr in op.exprs:
            _check_refs_bound(op, expr, len(op.child.layout), "projection expression")
    elif isinstance(op, A.Sort):
        _check_same_slots(op, op.child, "Sort")
        for expr, _asc in op.keys:
            _check_refs_bound(op, expr, len(op.child.layout), "sort key")
    elif isinstance(op, A.Limit):
        _check_same_slots(op, op.child, "Limit")
        if (op.limit is not None and op.limit < 0) or op.offset < 0:
            _fail(op, f"negative LIMIT/OFFSET ({op.limit!r}, {op.offset!r})")
    elif isinstance(op, A.Distinct):
        _check_same_slots(op, op.child, "Distinct")
    elif isinstance(op, A.NestedLoopJoin):
        _check_join_layout(op, op.outer, op.inner)
        if op.predicate is not None:
            _check_refs_bound(op, op.predicate, len(op.layout), "join predicate")
    elif isinstance(op, (A.HashJoin, A.MergeJoin)):
        _check_join_layout(op, op.outer, op.inner)
        _check_join_keys(op, op.outer, op.inner, op.outer_keys, op.inner_keys)
        residual = getattr(op, "residual", None)
        if residual is not None:
            _check_refs_bound(op, residual, len(op.layout), "residual predicate")
    elif isinstance(op, A.UnionAll):
        left, right = op.left, op.right
        if len(left.layout) != len(right.layout):
            _fail(
                op,
                f"UNION inputs disagree on arity "
                f"({len(left.layout)} vs {len(right.layout)})",
            )
        for pos, ((_lq, _ln, lt), (_rq, _rn, rt)) in enumerate(
            zip(left.layout.slots, right.layout.slots)
        ):
            if not _compatible(lt, rt):
                _fail(
                    op,
                    f"UNION column {pos} types incompatible: "
                    f"{lt.name} vs {rt.name}",
                )
        if op.layout.slots != left.layout.slots:
            _fail(op, "UNION output layout must be the left input's layout")
    elif isinstance(op, A.Aggregate):
        expected = len(op.group_exprs) + len(op.aggregates)
        if len(op.layout) != expected:
            _fail(
                op,
                f"declares {len(op.layout)} output columns but has "
                f"{len(op.group_exprs)} groups + {len(op.aggregates)} aggregates",
            )
        input_arity = len(op.child.layout)
        for expr, _name, _type in op.group_exprs:
            _check_refs_bound(op, expr, input_arity, "group expression")
        for spec in op.aggregates:
            if spec.arg is not None:
                _check_refs_bound(op, spec.arg, input_arity, f"{spec.func.upper()} argument")


def verify_plan(plan: A.Operator) -> int:
    """Check every operator boundary in *plan*; return the number of
    operators verified.  Raises :class:`PlanVerificationError` naming the
    offending operator on the first violation."""
    count = 0
    try:
        for op in iter_operators(plan):
            _verify_operator(op)
            count += 1
    except PlanVerificationError:
        VERIFY_METRICS["rejected_plans"] += 1
        raise
    VERIFY_METRICS["verified_plans"] += 1
    return count


def maybe_verify_plan(plan: A.Operator) -> Optional[int]:
    """Verify *plan* iff plan verification is switched on (module flag or
    ``WOW_VERIFY_PLANS=1``); the engine calls this on every fresh plan."""
    if not VERIFY_PLANS:
        return None
    return verify_plan(plan)


def set_verify_plans(enabled: bool) -> bool:
    """Flip the module switch (used by the conftest hook); returns the
    previous value so callers can restore it."""
    global VERIFY_PLANS
    previous = VERIFY_PLANS
    VERIFY_PLANS = enabled
    return previous
