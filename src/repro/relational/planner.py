"""Query planning: SELECT ASTs into physical operator trees.

The planner performs, in order:

1. **Name qualification** — every bare column reference is rewritten to a
   qualified one against the FROM bindings (erroring on ambiguity).
2. **View expansion** — a view in FROM is planned recursively and wrapped in
   :class:`~repro.relational.algebra.Rename` under its alias.
3. **Predicate pushdown** (toggleable) — WHERE and inner-join conjuncts that
   mention a single binding move onto that binding's scan.
4. **Index selection** (toggleable) — an equality conjunct over a scan with a
   matching index becomes an IndexEqScan; single-column range conjuncts over
   a B+-tree index become an IndexRangeScan.
5. **Greedy join ordering** (toggleable) — joins connected by equi-conjuncts
   are ordered smallest-estimated-first and executed as hash joins; the
   strategy can be forced via :class:`PlannerConfig` for ablations.
6. **Aggregation / projection / DISTINCT / ORDER BY / LIMIT.**
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import BindError, PlanError
from repro.relational import algebra as Alg
from repro.relational import expr as E
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.relational.stats import (
    DEFAULT_RANGE_SELECTIVITY,
    TableStats,
    clamp_rows,
)
from repro.sql import ast_nodes as A
from repro.sql.parser import AggExpr, SubqueryExpr
from repro.views.definition import ViewDefinition

# Cost-model unit prices (System-R lineage: an arbitrary currency whose only
# job is to rank alternatives consistently).
SEQ_PAGE_COST = 1.0
RANDOM_PAGE_COST = 2.0
CPU_TUPLE_COST = 0.01
HASH_BUILD_COST = 0.02
#: DP enumerates 2^n subsets; beyond this many relations joins order greedily
MAX_DP_RELATIONS = 8
#: a cached plan whose row estimate was off by at least this factor is
#: re-planned after re-ANALYZE (Database._consider_replan)
REPLAN_FACTOR = 10.0


@dataclass
class PlannerConfig:
    """The planner switches the paper reconstructions ablate (DESIGN.md
    Abl B, Fig 1, Table 4) and the planner-equivalence property varies.
    Everything else the planner decides from what it can observe."""

    enable_pushdown: bool = True
    enable_index_selection: bool = True
    enable_join_reorder: bool = True
    #: 'auto' (hash for equi-joins, NL otherwise), or force 'nl'/'hash'/'merge'
    join_strategy: str = "auto"

    def fingerprint(self) -> Tuple[Any, ...]:
        """Hashable digest of every switch; part of the plan-cache key, so
        plans produced under one configuration are never replayed under
        another (even when the config object is mutated in place)."""
        return astuple(self)


@dataclass
class _Binding:
    """One FROM entry: alias plus the underlying table or view."""

    alias: str
    source: Union[Table, ViewDefinition]
    join_kind: str = "base"  # base | inner | left | cross
    join_condition: Optional[E.Expr] = None

    @property
    def schema(self) -> TableSchema:
        return self.source.schema


@dataclass
class _DPCell:
    """Best-so-far plan for one subset of relations during DP enumeration:
    the operator tree, its estimated output rows and total cost, and the
    pool-conjunct indices already applied somewhere inside the tree."""

    plan: Alg.Operator
    rows: float
    cost: float
    applied: frozenset


class Planner:
    """Plans SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog, config: Optional[PlannerConfig] = None) -> None:
        self.catalog = catalog
        self.config = config or PlannerConfig()
        #: optimizer statistics from ANALYZE: table name -> TableStats
        self.stats: Dict[str, Any] = {}
        #: lifetime counters of planning decisions, exposed through
        #: Database.metrics_snapshot()
        self.metrics: Dict[str, int] = {
            "plans": 0,
            "seq_scans": 0,
            "index_eq_scans": 0,
            "index_range_scans": 0,
            "nl_joins": 0,
            "hash_joins": 0,
            "merge_joins": 0,
            #: optimizer-v2 counters: full DP enumerations run, candidate
            #: join trees costed, and adaptive feedback re-plans
            "dp_joins": 0,
            "join_candidates": 0,
            "replans": 0,
        }
        #: called with every candidate join tree the DP enumerator costs;
        #: Database wires this to the static plan verifier when
        #: WOW_VERIFY_PLANS is on, so no invalid shape can even be *costed*
        self.verify_candidate = None

    # -- public API ---------------------------------------------------------

    def plan_select(self, select: A.Select) -> Alg.Operator:
        """Produce an executable operator tree for *select*."""
        self.metrics["plans"] += 1
        if select.from_table is None:
            return self._plan_constant_select(select)
        bindings = self._collect_bindings(select)
        layout_all = self._combined_layout(bindings)
        qualified = _Qualifier(layout_all, self._resolve_subqueries)

        where_conjuncts = [
            qualified.qualify(conj) for conj in E.split_conjuncts(select.where)
        ]
        for binding in bindings:
            if binding.join_condition is not None:
                binding.join_condition = qualified.qualify(binding.join_condition)

        # Inner-join ON conditions join the WHERE pool (they are equivalent);
        # LEFT-join conditions must stay attached to their join.
        pool: List[E.Expr] = list(where_conjuncts)
        for binding in bindings:
            if binding.join_kind == "inner" and binding.join_condition is not None:
                pool.extend(E.split_conjuncts(binding.join_condition))
                binding.join_condition = None

        plan = self._plan_joins(select, bindings, pool)

        # Residual predicates that survived pushdown/join-keys.
        residual = E.conjoin(pool)
        if residual is not None:
            plan = Alg.Filter(plan, E.bind(residual, plan.layout))

        has_aggs = bool(select.group_by) or select.having is not None or any(
            isinstance(item.expr, A.AggCall) for item in select.items
        )
        order_items = list(select.order_by)  # local copy: never mutate the AST
        if has_aggs:
            plan = self._plan_aggregate(select, plan, qualified, order_items)
            order_items = []
        else:
            plan, order_items = self._plan_projection(
                select, plan, qualified, order_items
            )

        if select.distinct:
            plan = Alg.Distinct(plan)

        if order_items:
            plan = self._plan_order_by(order_items, plan)

        if select.limit is not None or select.offset:
            plan = Alg.Limit(plan, select.limit, select.offset)
        return plan

    def _plan_constant_select(self, select: A.Select) -> Alg.Operator:
        """SELECT <constant expressions> with no FROM: one synthetic row."""
        if select.joins or select.group_by or select.having or select.order_by:
            raise PlanError("SELECT without FROM takes only constant expressions")
        source = Alg.RowSource(E.RowLayout([]), [()], name="dual")
        exprs: List[E.Expr] = []
        names: List[str] = []
        types: List[ColumnType] = []
        for pos, item in enumerate(select.items):
            if item.star or isinstance(item.expr, A.AggCall):
                raise PlanError("SELECT without FROM takes only constant expressions")
            expr = self._resolve_subqueries(item.expr)
            exprs.append(expr)  # no columns to bind
            names.append(item.alias or f"col{pos}")
            types.append(infer_expr_type(expr, source.layout))
        plan: Alg.Operator = Alg.Project(source, exprs, names, types)
        if select.limit is not None or select.offset:
            plan = Alg.Limit(plan, select.limit, select.offset)
        return plan

    def plan_union(self, union: A.Union) -> Alg.Operator:
        """Plan a UNION [ALL] chain (left-associative SQL semantics)."""
        plan = self.plan_select(union.selects[0])
        for arm, all_flag in zip(union.selects[1:], union.all_flags):
            arm_plan = self.plan_select(arm)
            if len(arm_plan.layout) != len(plan.layout):
                raise PlanError("UNION arms must have the same number of columns")
            plan = Alg.UnionAll(plan, arm_plan)
            if not all_flag:
                plan = Alg.Distinct(plan)
        if union.order_by:
            sort_keys = [
                (E.bind(item.expr, plan.layout), item.ascending)
                for item in union.order_by
            ]
            plan = Alg.Sort(plan, sort_keys)
        if union.limit is not None or union.offset:
            plan = Alg.Limit(plan, union.limit, union.offset)
        return plan

    def _resolve_subqueries(self, expr: E.Expr) -> E.Expr:
        """Materialise uncorrelated subqueries into literal expressions.

        ``x IN (SELECT ...)`` becomes an InList of the subquery's first
        column; ``EXISTS (SELECT ...)`` becomes TRUE/FALSE; a scalar
        subquery becomes its single value (NULL on empty input).  A
        correlated subquery surfaces as a BindError from planning the
        inner select — correlation is outside the supported subset.
        """

        def fix(node: E.Expr) -> Optional[E.Expr]:
            if not isinstance(node, SubqueryExpr):
                return None
            inner = self.plan_select(node.select)
            if node.kind == "exists":
                has_rows = next(iter(inner.rows()), None) is not None
                return E.Literal(has_rows)
            if node.kind == "scalar":
                if len(inner.layout) != 1:
                    raise PlanError("scalar subquery must return one column")
                rows = list(Alg.Limit(inner, 2).rows())
                if len(rows) > 1:
                    raise PlanError("scalar subquery returned more than one row")
                return E.Literal(rows[0][0] if rows else None)
            if node.kind == "in":
                if len(inner.layout) != 1:
                    raise PlanError("IN subquery must return one column")
                values = {row[0] for row in inner.rows()}
                items = [E.Literal(v) for v in sorted(
                    values, key=lambda v: (v is None, str(type(v)), str(v))
                )]
                return E.InList(node.operand, items, node.negated)
            raise PlanError(f"unknown subquery kind {node.kind!r}")  # pragma: no cover

        return E.rewrite(expr, fix)

    def output_schema(self, select: A.Select, name: str) -> TableSchema:
        """Derive the output schema of *select* (for CREATE VIEW)."""
        plan = self.plan_select(select)
        columns = []
        seen = set()
        for _q, col_name, ctype in plan.layout.slots:
            if col_name in seen:
                raise PlanError(
                    f"duplicate output column {col_name!r}; alias it to use "
                    "this query as a view"
                )
            seen.add(col_name)
            columns.append(Column(col_name, ctype))
        return TableSchema(name, columns)

    # -- FROM clause ----------------------------------------------------------

    def _collect_bindings(self, select: A.Select) -> List[_Binding]:
        if select.from_table is None:
            raise PlanError("SELECT without FROM is not supported")
        bindings = [
            _Binding(select.from_table.binding_name, self.catalog.resolve(select.from_table.name))
        ]
        for join in select.joins:
            bindings.append(
                _Binding(
                    join.table.binding_name,
                    self.catalog.resolve(join.table.name),
                    join_kind=join.kind,
                    join_condition=join.condition,
                )
            )
        seen: Set[str] = set()
        for binding in bindings:
            if binding.alias in seen:
                raise BindError(f"duplicate table alias {binding.alias!r}")
            seen.add(binding.alias)
        return bindings

    def _combined_layout(self, bindings: Sequence[_Binding]) -> E.RowLayout:
        layout = E.RowLayout([])
        for binding in bindings:
            layout = layout + E.RowLayout.for_table(binding.alias, binding.schema)
        return layout

    def _scan_for(self, binding: _Binding, pool: List[E.Expr]) -> Alg.Operator:
        """Build the access path for one binding, consuming pushable conjuncts."""
        mine: List[E.Expr] = []
        if self.config.enable_pushdown:
            rest: List[E.Expr] = []
            for conjunct in pool:
                if E.references_only(conjunct, [binding.alias]):
                    mine.append(conjunct)
                else:
                    rest.append(conjunct)
            pool[:] = rest

        all_mine = list(mine)
        if isinstance(binding.source, ViewDefinition):
            pushed_query, mine = self._try_view_pushdown(binding, mine)
            inner = self.plan_select(pushed_query or binding.source.query)
            column_names = [c.name for c in binding.source.schema.columns]
            scan: Alg.Operator = Alg.Rename(inner, binding.alias, column_names)
        else:
            scan = Alg.SeqScan(binding.source, binding.alias)
            if (
                mine
                and self.config.enable_index_selection
                and isinstance(binding.source, Table)
            ):
                scan, mine = self._try_index_path(binding, mine)

        access_cost = scan.est_cost  # set when an index path was costed
        predicate = E.conjoin(mine)
        if predicate is not None:
            scan = Alg.Filter(scan, E.bind(predicate, scan.layout))
        if isinstance(binding.source, Table):
            stats = self.stats.get(binding.source.name)
            if stats is not None:
                scan.est_rows = stats.estimate_rows(all_mine)
                if access_cost is None:
                    access_cost = (
                        stats.pages * SEQ_PAGE_COST
                        + stats.row_count * CPU_TUPLE_COST
                    )
                scan.est_cost = access_cost
        return scan

    def _try_view_pushdown(
        self, binding: _Binding, conjuncts: List[E.Expr]
    ) -> Tuple[Optional[A.Select], List[E.Expr]]:
        """Push single-view conjuncts inside the view's defining query.

        Rewrites each conjunct from view-output columns to the view's
        underlying select expressions and ANDs it into (a copy of) the
        view's WHERE, so inner index paths apply.  Returns (modified query
        or None, conjuncts that could not be pushed and must filter above
        the view).  Pushing through aggregation/DISTINCT/LIMIT is unsafe
        and skipped entirely.
        """
        view = binding.source
        assert isinstance(view, ViewDefinition)
        query = view.query
        if not conjuncts:
            return None, conjuncts
        if (
            query.group_by
            or query.having is not None
            or query.distinct
            or query.limit is not None
            or query.offset
        ):
            return None, conjuncts

        # Align each view output column with its defining inner expression.
        inner_exprs: List[E.Expr] = []
        for item in query.items:
            if item.star:
                bindings = [query.from_table] + [j.table for j in query.joins]
                for table_ref in bindings:
                    if (
                        item.qualifier is not None
                        and table_ref.binding_name != item.qualifier.lower()
                    ):
                        continue
                    schema = self.catalog.schema_of(table_ref.name)
                    for column in schema.column_names:
                        inner_exprs.append(
                            E.ColumnRef(column, table_ref.binding_name)
                        )
            elif isinstance(item.expr, A.AggCall):
                return None, conjuncts
            else:
                inner_exprs.append(item.expr)
        if len(inner_exprs) != view.schema.arity:
            return None, conjuncts
        mapping = dict(zip(view.schema.column_names, inner_exprs))

        pushed: List[E.Expr] = []
        residual: List[E.Expr] = []
        for conjunct in conjuncts:
            try:
                def translate(node: E.Expr) -> Optional[E.Expr]:
                    if isinstance(node, E.ColumnRef):
                        if node.qualifier not in (None, binding.alias):
                            raise BindError("foreign reference")
                        replacement = mapping.get(node.name)
                        if replacement is None:
                            raise BindError(f"no view column {node.name}")
                        return replacement
                    return None

                pushed.append(E.rewrite(conjunct, translate))
            except BindError:
                residual.append(conjunct)
        if not pushed:
            return None, conjuncts
        from dataclasses import replace

        new_where = E.conjoin(E.split_conjuncts(query.where) + pushed)
        return replace(query, where=new_where), residual

    def _try_index_path(
        self, binding: _Binding, conjuncts: List[E.Expr]
    ) -> Tuple[Alg.Operator, List[E.Expr]]:
        """Pick the access path: SeqScan vs. index equality vs. index range.

        Without ANALYZE stats this keeps the legacy first-match priority
        (full-key equality, then single-column range, then seq scan).  With
        stats every applicable path is costed — pages for the sequential
        read vs. probe cost times estimated matching rows for the indexes —
        and the cheapest wins.
        """
        table = binding.source
        assert isinstance(table, Table)
        stats = self.stats.get(table.name)

        # (metric, operator, used conjuncts) per applicable access path.
        candidates: List[Tuple[str, Alg.Operator, Set[E.Expr]]] = []
        eq_values: Dict[str, Any] = {}
        eq_conjuncts: Dict[str, E.Expr] = {}
        for conjunct in conjuncts:
            hit = E.const_comparison(conjunct)
            if hit is not None and hit[1] == "=":
                column, _op, value = hit
                eq_values.setdefault(column.name, value)
                eq_conjuncts.setdefault(column.name, conjunct)
        for index in table.indexes.values():
            if all(col in eq_values for col in index.columns):
                key = tuple(eq_values[col] for col in index.columns)
                used = {eq_conjuncts[col] for col in index.columns}
                candidates.append(
                    (
                        "index_eq_scans",
                        Alg.IndexEqScan(table, index, key, binding.alias),
                        used,
                    )
                )
        for conjunct in conjuncts:
            hit = E.const_comparison(conjunct)
            if hit is None or hit[1] in ("=", "!="):
                continue
            column, _op, _value = hit
            index = table.ordered_index_with_prefix(column.name)
            if index is None or len(index.columns) != 1:
                continue
            low, high, incl_low, incl_high, used = self._collect_bounds(
                column.name, conjuncts
            )
            candidates.append(
                (
                    "index_range_scans",
                    Alg.IndexRangeScan(
                        table, index, low, high, incl_low, incl_high, binding.alias
                    ),
                    used,
                )
            )
            break  # one range path per scan, as before

        if stats is None or stats.row_count <= 0:
            # Legacy priority: first equality path, else first range path.
            for metric, op, used in candidates:
                if metric == "index_eq_scans":
                    self.metrics[metric] += 1
                    return op, [c for c in conjuncts if c not in used]
            for metric, op, used in candidates:
                self.metrics[metric] += 1
                return op, [c for c in conjuncts if c not in used]
            self.metrics["seq_scans"] += 1
            return Alg.SeqScan(table, binding.alias), conjuncts

        rows = float(stats.row_count)
        seq_cost = stats.pages * SEQ_PAGE_COST + rows * CPU_TUPLE_COST
        best_metric = "seq_scans"
        best_op: Alg.Operator = Alg.SeqScan(table, binding.alias)
        best_used: Set[E.Expr] = set()
        best_cost = seq_cost
        for metric, op, used in candidates:
            matching = rows
            for conjunct in used:
                matching *= stats.selectivity(conjunct)
            cost = RANDOM_PAGE_COST + matching * (
                CPU_TUPLE_COST + RANDOM_PAGE_COST * 0.1
            )
            if cost < best_cost:
                best_metric, best_op, best_used, best_cost = metric, op, used, cost
        self.metrics[best_metric] += 1
        best_op.est_cost = best_cost
        return best_op, [c for c in conjuncts if c not in best_used]

    @staticmethod
    def _collect_bounds(
        column_name: str, conjuncts: List[E.Expr]
    ) -> Tuple[Optional[Tuple], Optional[Tuple], bool, bool, Set[E.Expr]]:
        """Gather all range bounds on *column_name* from the conjunct list."""
        low: Optional[Tuple] = None
        high: Optional[Tuple] = None
        incl_low = incl_high = True
        used: Set[E.Expr] = set()
        from repro.relational.types import sort_key

        for conjunct in conjuncts:
            hit = E.const_comparison(conjunct)
            if hit is None:
                continue
            column, op, value = hit
            if column.name != column_name or value is None:
                continue
            if op in (">", ">="):
                candidate = (value,)
                if low is None or sort_key(low[0]) < sort_key(value) or (
                    low[0] == value and op == ">" and incl_low
                ):
                    low, incl_low = candidate, op == ">="
                used.add(conjunct)
            elif op in ("<", "<="):
                candidate = (value,)
                if high is None or sort_key(value) < sort_key(high[0]) or (
                    high[0] == value and op == "<" and incl_high
                ):
                    high, incl_high = candidate, op == "<="
                used.add(conjunct)
        return low, high, incl_low, incl_high, used

    # -- joins --------------------------------------------------------------

    def _plan_joins(
        self, select: A.Select, bindings: List[_Binding], pool: List[E.Expr]
    ) -> Alg.Operator:
        """Dispatch: cost-based DP enumeration when it applies, else greedy.

        DP requires ANALYZE statistics for *every* joined table (the cost
        model has nothing to price otherwise), inner/cross joins only, and
        a bounded relation count — everything else keeps the legacy greedy
        smallest-first order, so un-analyzed databases plan exactly as
        before.
        """
        if self._dp_applicable(bindings):
            return self._plan_joins_dp(bindings, pool)
        return self._plan_joins_greedy(bindings, pool)

    def _dp_applicable(self, bindings: List[_Binding]) -> bool:
        config = self.config
        if not (
            config.enable_join_reorder
            and config.enable_pushdown
            and 2 <= len(bindings) <= MAX_DP_RELATIONS
        ):
            return False
        if any(b.join_kind == "left" for b in bindings):
            return False
        for binding in bindings:
            if not isinstance(binding.source, Table):
                return False
            if not isinstance(self.stats.get(binding.source.name), TableStats):
                return False
        return True

    def _plan_joins_dp(
        self, bindings: List[_Binding], pool: List[E.Expr]
    ) -> Alg.Operator:
        """Bottom-up (DPsize) join-order enumeration with per-subset pruning.

        Every subset of relations keeps only its cheapest plan; candidate
        join trees are priced from scan costs plus per-strategy join costs,
        with cardinalities from |L ⨝ R| = |L|·|R| / max(ndv) per equi pair.
        Each candidate is offered to :attr:`verify_candidate` (the static
        plan verifier) before it can be retained.  Cross joins are legal
        candidates — their NL pricing keeps them naturally last.
        """
        import itertools

        self.metrics["dp_joins"] += 1
        alias_stats: Dict[str, TableStats] = {
            b.alias: self.stats[b.source.name] for b in bindings
        }
        cells: Dict[frozenset, _DPCell] = {}
        for binding in bindings:
            scan = self._scan_for(binding, pool)
            rows = scan.est_rows if scan.est_rows is not None else 1.0
            cost = scan.est_cost if scan.est_cost is not None else rows * CPU_TUPLE_COST
            cells[frozenset([binding.alias])] = _DPCell(scan, rows, cost, frozenset())

        # Index the surviving pool by referenced alias set; conjuncts are
        # identified positionally so duplicates in the pool stay distinct.
        conjunct_aliases: List[Set[str]] = []
        for conjunct in pool:
            refs = {ref.qualifier for ref in E.column_refs(conjunct)}
            refs.discard(None)
            conjunct_aliases.append(refs)

        all_aliases = [b.alias for b in bindings]
        for size in range(2, len(all_aliases) + 1):
            for combo in itertools.combinations(all_aliases, size):
                subset = frozenset(combo)
                best: Optional[_DPCell] = None
                members = sorted(subset)
                # Ordered (L, R) splits: both build-side choices are costed.
                for left_size in range(1, size):
                    for left_combo in itertools.combinations(members, left_size):
                        left = frozenset(left_combo)
                        right = subset - left
                        left_cell = cells.get(left)
                        right_cell = cells.get(right)
                        if left_cell is None or right_cell is None:
                            continue
                        applied = left_cell.applied | right_cell.applied
                        applicable = [
                            i
                            for i, aliases in enumerate(conjunct_aliases)
                            if i not in applied and aliases and aliases <= subset
                        ]
                        candidate = self._dp_candidate(
                            left_cell, right_cell, left, right,
                            [pool[i] for i in applicable], alias_stats,
                        )
                        if candidate is None:
                            continue
                        candidate.applied = applied | frozenset(applicable)
                        if best is None or candidate.cost < best.cost:
                            best = candidate
                if best is None:  # unreachable: cross joins always legal
                    raise PlanError("join enumeration found no plan")
                cells[subset] = best

        final = cells[frozenset(all_aliases)]
        pool[:] = [c for i, c in enumerate(pool) if i not in final.applied]
        self._count_final_joins(final.plan)
        return final.plan

    def _dp_candidate(
        self,
        left_cell: "_DPCell",
        right_cell: "_DPCell",
        left_aliases: frozenset,
        right_aliases: frozenset,
        conjuncts: List[E.Expr],
        alias_stats: Dict[str, TableStats],
    ) -> Optional["_DPCell"]:
        """Cost one join of two DP cells under the configured strategy."""
        left_plan, right_plan = left_cell.plan, right_cell.plan
        combined_layout = left_plan.layout + right_plan.layout
        equi: List[Tuple[E.ColumnRef, E.ColumnRef]] = []
        residual: List[E.Expr] = []
        for conjunct in conjuncts:
            pair = E.equality_pair(conjunct)
            if pair is not None:
                a, b = pair
                if a.qualifier in left_aliases and b.qualifier in right_aliases:
                    equi.append((a, b))
                    continue
                if b.qualifier in left_aliases and a.qualifier in right_aliases:
                    equi.append((b, a))
                    continue
            residual.append(conjunct)

        # Cardinality: the classic containment-of-values formula per equi
        # pair, textbook default per residual predicate.
        out_rows = left_cell.rows * right_cell.rows
        for outer_ref, inner_ref in equi:
            ndv = 1
            for ref in (outer_ref, inner_ref):
                stats = alias_stats.get(ref.qualifier)
                column = stats.columns.get(ref.name) if stats is not None else None
                if column is not None:
                    ndv = max(ndv, column.n_distinct)
            out_rows /= ndv
        out_rows *= DEFAULT_RANGE_SELECTIVITY ** len(residual)

        strategy = self.config.join_strategy
        if strategy == "nl" or not equi:
            predicate = E.conjoin(conjuncts)
            bound_predicate = (
                E.bind(predicate, combined_layout) if predicate is not None else None
            )
            joined: Alg.Operator = Alg.NestedLoopJoin(
                left_plan, right_plan, bound_predicate, False
            )
            join_cost = left_cell.rows * right_cell.rows * CPU_TUPLE_COST
        else:
            outer_positions = [
                left_plan.layout.resolve(ref.qualifier, ref.name) for ref, _ in equi
            ]
            inner_positions = [
                right_plan.layout.resolve(ref.qualifier, ref.name) for _, ref in equi
            ]
            residual_expr = E.conjoin(residual)
            bound_residual = (
                E.bind(residual_expr, combined_layout)
                if residual_expr is not None
                else None
            )
            if strategy == "merge":
                joined = Alg.MergeJoin(
                    left_plan, right_plan, outer_positions, inner_positions
                )
                if bound_residual is not None:
                    joined = Alg.Filter(joined, bound_residual)
                # Both inputs are sorted then merged; charge a few passes.
                join_cost = (
                    (left_cell.rows + right_cell.rows) * CPU_TUPLE_COST * 4
                    + out_rows * CPU_TUPLE_COST
                )
            else:
                joined = Alg.HashJoin(
                    left_plan, right_plan, outer_positions, inner_positions,
                    bound_residual, False,
                )
                join_cost = (
                    right_cell.rows * (CPU_TUPLE_COST + HASH_BUILD_COST)
                    + left_cell.rows * CPU_TUPLE_COST
                    + out_rows * CPU_TUPLE_COST
                )

        joined.est_rows = clamp_rows(out_rows)
        cost = left_cell.cost + right_cell.cost + join_cost
        joined.est_cost = cost
        self.metrics["join_candidates"] += 1
        if self.verify_candidate is not None:
            self.verify_candidate(joined)
        return _DPCell(joined, clamp_rows(out_rows), cost, frozenset())

    def _count_final_joins(self, plan: Alg.Operator) -> None:
        """Metric bookkeeping for the joins in the chosen DP plan only
        (candidates that lost the enumeration are not counted)."""
        if isinstance(plan, Alg.HashJoin):
            self.metrics["hash_joins"] += 1
        elif isinstance(plan, Alg.MergeJoin):
            self.metrics["merge_joins"] += 1
        elif isinstance(plan, Alg.NestedLoopJoin):
            self.metrics["nl_joins"] += 1
        for child in plan.children():
            self._count_final_joins(child)

    def _plan_joins_greedy(
        self, bindings: List[_Binding], pool: List[E.Expr]
    ) -> Alg.Operator:
        base = bindings[0]
        plan = self._scan_for(base, pool)
        bound = {base.alias}
        remaining = bindings[1:]

        has_left = any(b.join_kind == "left" for b in remaining)
        reorder = self.config.enable_join_reorder and not has_left

        while remaining:
            next_binding = None
            if reorder:
                # Prefer a binding connected by an equi-conjunct; among those,
                # the one with the smallest estimated cardinality.
                candidates = []
                for binding in remaining:
                    keys = self._equi_keys(pool, bound, binding.alias)
                    if keys:
                        candidates.append((self._estimate(binding), binding))
                if candidates:
                    candidates.sort(key=lambda pair: pair[0])
                    next_binding = candidates[0][1]
            if next_binding is None:
                next_binding = remaining[0]
            remaining.remove(next_binding)
            plan = self._join_step(plan, next_binding, bound, pool)
            bound.add(next_binding.alias)
        return plan

    def _join_step(
        self,
        plan: Alg.Operator,
        binding: _Binding,
        bound: Set[str],
        pool: List[E.Expr],
    ) -> Alg.Operator:
        left_outer = binding.join_kind == "left"
        if left_outer:
            # LEFT JOIN: the scan must not consume WHERE conjuncts from the
            # pool (they apply after padding); only the ON condition is used.
            scan = self._scan_for(binding, [])
            on_conjuncts = E.split_conjuncts(binding.join_condition)
        else:
            scan = self._scan_for(binding, pool)
            on_conjuncts = []
            # Pull every pool conjunct that now becomes evaluable.
            usable = []
            rest = []
            for conjunct in pool:
                if E.references_only(conjunct, list(bound | {binding.alias})):
                    usable.append(conjunct)
                else:
                    rest.append(conjunct)
            pool[:] = rest
            on_conjuncts = usable

        combined_layout = plan.layout + scan.layout
        equi, residual = self._split_equi(on_conjuncts, bound, binding.alias)

        strategy = self.config.join_strategy
        if strategy == "nl" or not equi:
            predicate = E.conjoin(on_conjuncts)
            bound_predicate = (
                E.bind(predicate, combined_layout) if predicate is not None else None
            )
            self.metrics["nl_joins"] += 1
            return Alg.NestedLoopJoin(plan, scan, bound_predicate, left_outer)

        outer_positions = [
            plan.layout.resolve(ref.qualifier, ref.name) for ref, _ in equi
        ]
        inner_positions = [
            scan.layout.resolve(ref.qualifier, ref.name) for _, ref in equi
        ]
        residual_expr = E.conjoin(residual)
        bound_residual = (
            E.bind(residual_expr, combined_layout) if residual_expr is not None else None
        )
        if strategy == "merge" and not left_outer:
            self.metrics["merge_joins"] += 1
            joined: Alg.Operator = Alg.MergeJoin(
                plan, scan, outer_positions, inner_positions
            )
            if bound_residual is not None:
                joined = Alg.Filter(joined, bound_residual)
            return joined
        self.metrics["hash_joins"] += 1
        return Alg.HashJoin(
            plan, scan, outer_positions, inner_positions, bound_residual, left_outer
        )

    @staticmethod
    def _split_equi(
        conjuncts: List[E.Expr], bound: Set[str], new_alias: str
    ) -> Tuple[List[Tuple[E.ColumnRef, E.ColumnRef]], List[E.Expr]]:
        """Partition join conjuncts into (outer_col = inner_col) pairs and rest."""
        equi: List[Tuple[E.ColumnRef, E.ColumnRef]] = []
        residual: List[E.Expr] = []
        for conjunct in conjuncts:
            pair = E.equality_pair(conjunct)
            if pair is not None:
                a, b = pair
                if a.qualifier in bound and b.qualifier == new_alias:
                    equi.append((a, b))
                    continue
                if b.qualifier in bound and a.qualifier == new_alias:
                    equi.append((b, a))
                    continue
            residual.append(conjunct)
        return equi, residual

    def _equi_keys(
        self, pool: List[E.Expr], bound: Set[str], alias: str
    ) -> List[Tuple[E.ColumnRef, E.ColumnRef]]:
        equi, _ = self._split_equi(
            [
                c
                for c in pool
                if E.references_only(c, list(bound | {alias}))
            ],
            bound,
            alias,
        )
        return equi

    def _estimate(self, binding: _Binding) -> int:
        if isinstance(binding.source, Table):
            stats = self.stats.get(binding.source.name)
            if stats is not None:
                return stats.row_count
            return binding.source.count()
        return 1000  # views: flat guess; good enough for greedy ordering

    # -- aggregation ----------------------------------------------------------

    def _plan_aggregate(
        self,
        select: A.Select,
        plan: Alg.Operator,
        qualifier: "_Qualifier",
        order_items: List[A.OrderItem],
    ) -> Alg.Operator:
        group_entries: List[Tuple[E.Expr, str, ColumnType]] = []
        group_unbound: List[E.Expr] = []
        for pos, expr in enumerate(select.group_by):
            expr = qualifier.qualify(expr)
            group_unbound.append(expr)
            name = expr.name if isinstance(expr, E.ColumnRef) else f"group{pos}"
            ctype = infer_expr_type(expr, plan.layout)
            group_entries.append((E.bind(expr, plan.layout), name, ctype))

        # Gather aggregate calls from select items, HAVING, and ORDER BY.
        agg_calls: List[A.AggCall] = []

        def register(call: A.AggCall) -> int:
            for pos, existing in enumerate(agg_calls):
                if (
                    existing.func == call.func
                    and existing.arg == call.arg
                    and existing.distinct == call.distinct
                ):
                    return pos
            agg_calls.append(call)
            return len(agg_calls) - 1

        item_plan: List[Tuple[str, int, str]] = []  # (kind, index, out_name)
        for pos, item in enumerate(select.items):
            if item.star:
                raise PlanError("SELECT * cannot be combined with GROUP BY")
            if isinstance(item.expr, A.AggCall):
                call = A.AggCall(
                    item.expr.func,
                    qualifier.qualify(item.expr.arg) if item.expr.arg is not None else None,
                    item.expr.distinct,
                )
                agg_index = register(call)
                out_name = item.alias or call.func
                item_plan.append(("agg", agg_index, out_name))
            else:
                expr = qualifier.qualify(item.expr)
                group_index = _index_of_expr(expr, group_unbound)
                if group_index is None:
                    raise PlanError(
                        f"{expr.to_sql()} must appear in GROUP BY or an aggregate"
                    )
                out_name = item.alias or (
                    expr.name if isinstance(expr, E.ColumnRef) else f"col{pos}"
                )
                item_plan.append(("group", group_index, out_name))

        def lift(expr: E.Expr) -> E.Expr:
            """Rewrite AggExpr and group expressions to agg-output ColumnRefs."""
            qualified_expr = qualifier.qualify(expr)

            def replace(node: E.Expr) -> Optional[E.Expr]:
                if isinstance(node, AggExpr):
                    call = A.AggCall(
                        node.call.func,
                        qualifier.qualify(node.call.arg)
                        if node.call.arg is not None
                        else None,
                        node.call.distinct,
                    )
                    agg_index = register(call)
                    return E.ColumnRef(f"__agg{agg_index}")
                group_index = _index_of_expr(node, group_unbound)
                if group_index is not None:
                    return E.ColumnRef(f"__group{group_index}")
                return None

            return E.rewrite(qualified_expr, replace)

        having_lifted = lift(select.having) if select.having is not None else None

        def lift_order(expr: E.Expr) -> E.Expr:
            # ORDER BY may name a select-item alias (ORDER BY y).
            if isinstance(expr, E.ColumnRef) and expr.qualifier is None:
                for kind, index, out_name in item_plan:
                    if out_name == expr.name:
                        internal = f"__agg{index}" if kind == "agg" else f"__group{index}"
                        return E.ColumnRef(internal)
            return lift(expr)

        order_lifted = [(lift_order(item.expr), item.ascending) for item in order_items]

        specs = []
        for pos, call in enumerate(agg_calls):
            out_type = _agg_output_type(call, plan.layout)
            bound_arg = E.bind(call.arg, plan.layout) if call.arg is not None else None
            specs.append(
                Alg.AggSpec(call.func, bound_arg, f"__agg{pos}", out_type, call.distinct)
            )
        internal_groups = [
            (bound, f"__group{pos}", ctype)
            for pos, (bound, _name, ctype) in enumerate(group_entries)
        ]
        agg_op = Alg.Aggregate(plan, internal_groups, specs)

        if having_lifted is not None:
            agg_op = Alg.Filter(agg_op, E.bind(having_lifted, agg_op.layout))

        sort_keys = [
            (E.bind(expr, agg_op.layout), ascending)
            for expr, ascending in order_lifted
        ]

        # Final projection: select items in order, with user-facing names.
        out_exprs: List[E.Expr] = []
        out_names: List[str] = []
        out_types: List[ColumnType] = []
        for kind, index, out_name in item_plan:
            source = f"__agg{index}" if kind == "agg" else f"__group{index}"
            position = agg_op.layout.resolve(None, source)
            out_exprs.append(E.ColumnRef(source, index=position))
            out_names.append(out_name)
            out_types.append(agg_op.layout.type_at(position))

        result: Alg.Operator = agg_op
        if sort_keys:
            result = Alg.Sort(result, sort_keys)
        return Alg.Project(result, out_exprs, out_names, out_types)

    # -- projection / order ---------------------------------------------------

    def _plan_projection(
        self,
        select: A.Select,
        plan: Alg.Operator,
        qualifier: "_Qualifier",
        order_items: List[A.OrderItem],
    ) -> Tuple[Alg.Operator, List[A.OrderItem]]:
        exprs: List[E.Expr] = []
        names: List[str] = []
        types: List[ColumnType] = []
        for pos, item in enumerate(select.items):
            if item.star:
                for slot_pos, (slot_q, slot_name, slot_type) in enumerate(
                    plan.layout.slots
                ):
                    if item.qualifier is not None and slot_q != item.qualifier.lower():
                        continue
                    exprs.append(E.ColumnRef(slot_name, slot_q, index=slot_pos))
                    names.append(slot_name)
                    types.append(slot_type)
                if item.qualifier is not None and not any(
                    slot_q == item.qualifier.lower() for slot_q, _n, _t in plan.layout.slots
                ):
                    raise BindError(f"unknown alias {item.qualifier!r} in select list")
                continue
            if isinstance(item.expr, A.AggCall):  # pragma: no cover - guarded earlier
                raise PlanError("aggregate outside aggregate query")
            expr = qualifier.qualify(item.expr)
            name = item.alias or (
                expr.name if isinstance(expr, E.ColumnRef) else f"col{pos}"
            )
            exprs.append(E.bind(expr, plan.layout))
            names.append(name)
            types.append(infer_expr_type(expr, plan.layout))

        # ORDER BY binds against the pre-projection layout when possible,
        # falling back to output names (SQL lets you order by an alias).
        if order_items and not select.distinct:
            sort_keys: List[Tuple[E.Expr, bool]] = []
            pre_projection = True
            for item in order_items:
                if isinstance(item.expr, AggExpr):
                    raise PlanError("ORDER BY aggregate requires a GROUP BY query")
                try:
                    qualified_expr = qualifier.qualify(item.expr)
                    sort_keys.append(
                        (E.bind(qualified_expr, plan.layout), item.ascending)
                    )
                except BindError:
                    pre_projection = False
                    break
            if pre_projection:
                order_items = []
                plan = Alg.Sort(plan, sort_keys)
        return Alg.Project(plan, exprs, names, types), order_items

    @staticmethod
    def _plan_order_by(
        order_items: List[A.OrderItem], plan: Alg.Operator
    ) -> Alg.Operator:
        """Sort over the final (projected) layout, e.g. by output alias."""
        sort_keys = []
        for item in order_items:
            if isinstance(item.expr, AggExpr):
                raise PlanError("ORDER BY aggregate requires a GROUP BY query")
            sort_keys.append((E.bind(item.expr, plan.layout), item.ascending))
        return Alg.Sort(plan, sort_keys)


class _Qualifier:
    """Rewrites bare column references to qualified ones against a layout.

    Also runs the planner's subquery resolver first, so every expression
    that goes through qualification has its subqueries materialised.
    """

    def __init__(self, layout: E.RowLayout, resolver=None) -> None:
        self._layout = layout
        self._resolver = resolver

    def qualify(self, expr: E.Expr) -> E.Expr:
        if self._resolver is not None:
            expr = self._resolver(expr)

        def fix(node: E.Expr) -> Optional[E.Expr]:
            if isinstance(node, AggExpr):
                return None  # handled by the aggregate planner
            if isinstance(node, E.ColumnRef) and node.qualifier is None:
                position = self._layout.resolve(None, node.name)
                slot_q, slot_name, _t = self._layout.slots[position]
                return E.ColumnRef(slot_name, slot_q)
            if isinstance(node, E.ColumnRef):
                self._layout.resolve(node.qualifier, node.name)  # existence check
            return None

        return E.rewrite(expr, fix)


def _index_of_expr(expr: E.Expr, pool: Sequence[E.Expr]) -> Optional[int]:
    for pos, candidate in enumerate(pool):
        if candidate == expr:
            return pos
    return None


def infer_expr_type(expr: E.Expr, layout: E.RowLayout) -> ColumnType:
    """Best-effort static type of *expr* over *layout* (for output schemas)."""
    if isinstance(expr, E.Param):
        return ColumnType.TEXT  # arbitrary; a `?` has no static type
    if isinstance(expr, E.Literal):
        if expr.value is None:
            return ColumnType.TEXT  # arbitrary; NULL literal has no type
        from repro.relational.types import infer_type

        return infer_type(expr.value)
    if isinstance(expr, E.ColumnRef):
        position = layout.resolve(expr.qualifier, expr.name)
        return layout.type_at(position)
    if isinstance(expr, E.BinOp):
        if expr.op in ("and", "or", "=", "!=", "<", "<=", ">", ">="):
            return ColumnType.BOOL
        left = infer_expr_type(expr.left, layout)
        right = infer_expr_type(expr.right, layout)
        if expr.op == "+" and left is ColumnType.TEXT:
            return ColumnType.TEXT
        if expr.op == "/":
            return ColumnType.FLOAT
        if ColumnType.FLOAT in (left, right):
            return ColumnType.FLOAT
        return ColumnType.INT
    if isinstance(expr, E.UnaryOp):
        if expr.op == "not":
            return ColumnType.BOOL
        return infer_expr_type(expr.operand, layout)
    if isinstance(expr, (E.IsNull, E.Like, E.InList)):
        return ColumnType.BOOL
    if isinstance(expr, E.Case):
        return infer_expr_type(expr.branches[0][1], layout)
    if isinstance(expr, E.FuncCall):
        if expr.func in ("lower", "upper", "substr", "trim", "ltrim", "rtrim", "replace"):
            return ColumnType.TEXT
        if expr.func in ("length", "year", "month", "day"):
            return ColumnType.INT
        if expr.func in ("abs", "coalesce", "round", "nullif"):
            return infer_expr_type(expr.args[0], layout)
    raise PlanError(f"cannot infer type of {expr.to_sql()}")


def _agg_output_type(call: A.AggCall, layout: E.RowLayout) -> ColumnType:
    if call.func == "count":
        return ColumnType.INT
    arg_type = infer_expr_type(call.arg, layout)
    if call.func == "avg":
        return ColumnType.FLOAT
    if call.func == "sum":
        return arg_type if arg_type in (ColumnType.INT, ColumnType.FLOAT) else ColumnType.FLOAT
    return arg_type  # min/max preserve the argument type
