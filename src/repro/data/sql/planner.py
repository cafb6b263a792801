"""Planner: SELECT statements → access-layer operator trees.

Planning is a two-phase pipeline:

1. **Logical**: the FROM/WHERE clauses are decomposed into table
   references, single-table filter conjuncts, and equi-join edges.
2. **Physical**: when every referenced table has ANALYZE statistics
   (and all joins are inner), the cost-based optimizer
   (:mod:`repro.data.sql.optimizer`) chooses access paths (heap scan vs
   index equality vs index range), orders the join graph greedily by
   estimated cardinality, and picks hash vs nested-loop per join.
   Without statistics the planner falls back to the original syntactic
   rules, which keeps plans deterministic for fresh tables:

   - an equality or range conjunct on an indexed column turns the scan
     into an index scan (predicate pushdown to the access path);
   - equi-join conditions become hash joins, anything else nested
     loops, in FROM-clause order.

Either way, grouping/aggregation compiles to a pre-projection + hash
aggregate + post-projection sandwich, and ORDER BY / LIMIT / DISTINCT
map directly onto their operators.

Expression evaluation follows SQL three-valued logic: comparisons with
NULL yield NULL, AND/OR propagate unknowns, and WHERE keeps only rows
whose predicate is exactly TRUE.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.access.operators import (
    Aggregate,
    Distinct,
    FusedSelectProject,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Operator,
    Project,
    Select,
    Sort,
    Source,
    TopK,
)
from repro.access.batch import batches_from_rows
from repro.data.transactions import Snapshot
from repro.data.sql import ast
from repro.data.sql.compiler import (
    _like_to_regex,
    compile_predicate,
    compile_projection,
    compile_scalar,
)
from repro.data.sql.optimizer import (
    CostModel,
    JoinEdge,
    PredicateSpec,
    ScanChoice,
    SelectivityEstimator,
    choose_access_path,
    order_joins,
    rule_access_path,
    unique_probe,
)
from repro.errors import SQLPlanError

# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


@dataclass
class Scope:
    """Name resolution context: column display names in tuple order.

    Entries are ``binding.column`` qualified names; ``resolve`` accepts
    qualified and unqualified references (the latter must be unambiguous).
    """

    columns: list[str]
    node_slots: dict = field(default_factory=dict)  # AST node -> index

    def resolve(self, ref: ast.ColumnRef) -> int:
        wanted = ref.display()
        if ref.table is not None:
            matches = [i for i, name in enumerate(self.columns)
                       if name == wanted]
        else:
            matches = [i for i, name in enumerate(self.columns)
                       if name == ref.name or
                       name.endswith(f".{ref.name}")]
        if not matches:
            raise SQLPlanError(
                f"unknown column {wanted!r} (in scope: {self.columns})")
        if len(matches) > 1:
            raise SQLPlanError(f"ambiguous column {wanted!r}")
        return matches[0]


def _sql_not(value):
    if value is None:
        return None
    return not value


def _sql_and(left_fn, right_fn, row):
    left = left_fn(row)
    if left is False:
        return False
    right = right_fn(row)
    if right is False:
        return False
    if left is None or right is None:
        return None
    return bool(left) and bool(right)


def _sql_or(left_fn, right_fn, row):
    left = left_fn(row)
    if left is True:
        return True
    right = right_fn(row)
    if right is True:
        return True
    if left is None or right is None:
        return None
    return bool(left) or bool(right)


_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def compile_expression(expr: ast.Expression, scope: Scope,
                       params: Sequence[Any] = ()) -> Callable[[tuple], Any]:
    """Compile an AST expression into a row -> value callable."""
    # Slot-mapped nodes (aggregate results, group keys in post-projection)
    # take precedence over structural compilation.
    if expr in scope.node_slots:
        index = scope.node_slots[expr]
        return lambda row: row[index]
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Param):
        if expr.index >= len(params):
            raise SQLPlanError(
                f"statement references parameter {expr.index} but only "
                f"{len(params)} given")
        value = params[expr.index]
        return lambda row: value
    if isinstance(expr, ast.ColumnRef):
        index = scope.resolve(expr)
        return lambda row: row[index]
    if isinstance(expr, ast.Unary):
        inner = compile_expression(expr.operand, scope, params)
        if expr.operator == "NOT":
            return lambda row: _sql_not(inner(row))
        return lambda row: (None if inner(row) is None else -inner(row))
    if isinstance(expr, ast.IsNull):
        inner = compile_expression(expr.operand, scope, params)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None
    if isinstance(expr, ast.InList):
        inner = compile_expression(expr.operand, scope, params)
        items = [compile_expression(i, scope, params) for i in expr.items]

        def in_list(row):
            value = inner(row)
            if value is None:
                return None
            found = unknown = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    unknown = True
                elif candidate == value:
                    found = True
                    break
            if found:
                return not expr.negated
            if unknown:
                return None
            return expr.negated

        return in_list
    if isinstance(expr, ast.Between):
        inner = compile_expression(expr.operand, scope, params)
        low = compile_expression(expr.low, scope, params)
        high = compile_expression(expr.high, scope, params)

        def between(row):
            value, lo, hi = inner(row), low(row), high(row)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return (not result) if expr.negated else result

        return between
    if isinstance(expr, ast.Binary):
        left = compile_expression(expr.left, scope, params)
        right = compile_expression(expr.right, scope, params)
        op_name = expr.operator
        if op_name == "AND":
            return lambda row: _sql_and(left, right, row)
        if op_name == "OR":
            return lambda row: _sql_or(left, right, row)
        if op_name == "LIKE":
            def like(row):
                value, pattern = left(row), right(row)
                if value is None or pattern is None:
                    return None
                return bool(_like_to_regex(pattern).match(value))

            return like
        if op_name in _COMPARE:
            compare = _COMPARE[op_name]

            def comparison(row):
                lv, rv = left(row), right(row)
                if lv is None or rv is None:
                    return None
                return compare(lv, rv)

            return comparison
        if op_name in _ARITH:
            arith = _ARITH[op_name]

            def arithmetic(row):
                lv, rv = left(row), right(row)
                if lv is None or rv is None:
                    return None
                return arith(lv, rv)

            return arithmetic
        if op_name == "/":
            def divide(row):
                lv, rv = left(row), right(row)
                if lv is None or rv is None:
                    return None
                if rv == 0:
                    return None  # SQL engines differ; NULL is the safe pick
                return lv / rv

            return divide
        if op_name == "%":
            def modulo(row):
                lv, rv = left(row), right(row)
                if lv is None or rv is None or rv == 0:
                    return None
                return lv % rv

            return modulo
        raise SQLPlanError(f"unsupported operator {op_name!r}")
    if isinstance(expr, ast.FunctionCall):
        raise SQLPlanError(
            f"aggregate {expr.name}() not allowed in this context")
    if isinstance(expr, ast.Star):
        raise SQLPlanError("* not allowed in this context")
    raise SQLPlanError(f"cannot compile expression {expr!r}")


def _expression_name(expr: ast.Expression) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        inner = "*" if expr.argument is None else \
            _expression_name(expr.argument)
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    return "expr"


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


@dataclass
class PlanInfo:
    """Explain-style plan summary, asserted on by tests and benchmarks.

    ``access_paths``/``joins``/``aggregated`` keep their historical
    rule-based format; the remaining fields are filled in when the
    cost-based optimizer produced the plan: per-table row/cost
    estimates, the chosen join order (binding names, execution order),
    and the plan's total estimated cardinality and cost.
    """

    access_paths: list[str] = field(default_factory=list)
    joins: list[str] = field(default_factory=list)
    aggregated: bool = False
    cost_based: bool = False
    join_order: list[str] = field(default_factory=list)
    estimates: list[dict] = field(default_factory=list)
    estimated_rows: Optional[float] = None
    estimated_cost: Optional[float] = None
    exec_engine: str = "row"
    top_k: bool = False
    fused: bool = False
    isolation: str = "2pl"
    #: ``binding=heap|columnar|hybrid`` per planned table access path
    #: (hybrid = AS OF merging the heap with migrated history).
    stores: list[str] = field(default_factory=list)
    #: Statement-cache disposition ("hit" | "miss" | "bypass") when the
    #: statement went through `Database.execute`'s text path, else None.
    cached: Optional[str] = None

    def as_dict(self) -> dict:
        summary = {"access_paths": self.access_paths, "joins": self.joins,
                   "aggregated": self.aggregated,
                   "cost_based": self.cost_based,
                   "exec": self.exec_engine,
                   "isolation": self.isolation,
                   "top_k": self.top_k, "fused": self.fused,
                   "stores": self.stores}
        if self.cached is not None:
            summary["cached"] = self.cached
        if self.cost_based:
            summary.update({
                "join_order": self.join_order,
                "estimates": self.estimates,
                "estimated_rows": self.estimated_rows,
                "estimated_cost": self.estimated_cost})
        return summary


@dataclass
class DMLPlan:
    """Victim-selection plan for one UPDATE/DELETE statement.

    ``victims`` yields ``(head_rid, row)`` candidates from the
    statement's read view; the executor still locks, re-reads, and
    re-applies the full WHERE per candidate (stale index candidates are
    dropped exactly like a stale seq-scan victim), so an index-driven
    plan answers identically to a full scan — just without reading the
    whole heap.
    """

    table_name: str
    access_path: str
    #: The ``estimates`` row of a cost-based plan (write overhead
    #: included in its cost); None when planned by rule.
    estimate: Optional[dict] = None
    victims: Optional[Callable[[], Any]] = None

    @property
    def cost_based(self) -> bool:
        return self.estimate is not None

    def as_dict(self) -> dict:
        summary = {"table": self.table_name,
                   "access_path": self.access_path,
                   "cost_based": self.cost_based}
        if self.cost_based:
            summary.update({"estimated_rows": self.estimate["rows"],
                            "estimated_cost": self.estimate["cost"]})
        return summary


class Planner:
    """Plans SELECT statements against a catalog of tables and views.

    ``catalog`` must offer ``table(name)``, ``has_table(name)``,
    ``views`` (dict name -> SQL text) — satisfied by
    :class:`repro.data.catalog.Catalog`.
    """

    def __init__(self, catalog, view_parser: Optional[Callable] = None,
                 txn=None, engine: str = "vectorized",
                 isolation: str = "2pl") -> None:
        if engine not in ("vectorized", "row"):
            raise SQLPlanError(
                f"execution engine must be 'vectorized' or 'row', "
                f"not {engine!r}")
        self.catalog = catalog
        self._view_parser = view_parser
        self.txn = txn
        self.engine = engine
        self.isolation = isolation
        # The statement's read view over *versioned* tables: the fixed
        # transaction snapshot under snapshot isolation (lock-free
        # reads), else latest-committed-plus-own-writes for a 2PL
        # transaction touching versioned heaps.
        self.snapshot = txn.read_view() \
            if txn is not None and hasattr(txn, "read_view") else None

    def _lock_for_read(self, name: str, table=None) -> None:
        """S table lock for the locking read path.  Skipped only when
        the table is versioned *and* the session runs snapshot-based
        isolation (snapshot or serializable — SSI reads stay lock-free
        too; SIREAD tracking replaces blocking) — an unversioned table
        (e.g. created under 2PL and reopened under snapshot) has no
        version headers to filter by, so its readers must still block
        out writers."""
        if self.txn is None:
            return
        if self.isolation in ("snapshot", "serializable") \
                and table is not None \
                and getattr(table, "versioned", False):
            return
        self.txn.lock_shared(name)

    def _ssi_pair(self):
        """``(SSIManager, tracker)`` when the planning transaction runs
        serializable, else ``None`` — used to register index probes as
        SIREAD predicate (key-range) locks."""
        txn = self.txn
        if txn is None:
            return None
        ssi = getattr(getattr(txn, "manager", None), "ssi", None)
        if ssi is None:
            return None
        tracker = ssi.tracker(txn.txn_id)
        if tracker is None:
            return None
        return ssi, tracker

    # -- sources -----------------------------------------------------------------

    def _table_source(self, table_ref: ast.TableRef,
                      where: Optional[ast.Expression],
                      params: Sequence[Any],
                      info: PlanInfo) -> Operator:
        name = table_ref.name
        binding = table_ref.binding
        if self.catalog.has_table(name):
            table = self.catalog.table(name)
            if table_ref.as_of is not None:
                return self._as_of_source(table_ref, table, params, info)
            self._lock_for_read(name, table)
            conjuncts = _conjuncts(where) if where is not None else []
            return self._rule_source(
                table, binding,
                _table_specs(conjuncts, binding, table.schema, params),
                info)
        if name in getattr(self.catalog, "views", {}):
            if self._view_parser is None:
                raise SQLPlanError(f"cannot expand view {name!r}")
            view_select = self._view_parser(self.catalog.views[name])
            inner, inner_info = self.plan(view_select, params)
            info.access_paths.extend(
                f"view({name}):{p}" for p in inner_info.access_paths)
            info.stores.extend(inner_info.stores)
            rows_factory = inner  # operators are re-iterable
            columns = [f"{binding}.{c}" for c in inner.columns]
            return Source(columns, lambda: iter(rows_factory),
                          batch_factory=lambda: rows_factory.batches())
        raise SQLPlanError(f"no table or view named {name!r}")

    def _rule_source(self, table, binding: str, specs: list,
                     info: PlanInfo) -> Operator:
        """Leaf for a table without usable statistics, shared with the
        plan cache's templates so both report the same path."""
        choice = rule_access_path(
            table, specs, columnar=self._columnar_candidate(table))
        info.access_paths.append(choice.path)
        info.stores.append(_store_entry(binding, choice))
        return self._choice_source(table, binding, choice)

    def _index_source(self, table, columns: list[str], index, kind: str,
                      bounds: dict) -> Source:
        """Leaf operator fetching heap rows through an index probe
        (shared by the rule-based and cost-based paths).

        Version-aware semantics: on versioned tables the probe returns
        *candidate* head RIDs — superseded-key entries are retained
        until vacuum, so a key some concurrent transaction changed still
        leads back to the row.  ``read_many``/``read_batches`` re-check
        each candidate's version chain against the statement snapshot
        (``self.snapshot``), and the residual WHERE applied above every
        index source re-checks the probed key against the *visible*
        version's values, discarding stale candidates — which is what
        makes an EXPLAIN-chosen index path answer identically to a
        sequential scan under any snapshot.

        On the lock-free read path (snapshot isolation over a versioned
        table) the probe runs under the table latch: readers take no
        transaction locks, so the in-memory index structure must be
        guarded against concurrent maintenance.  Point probes hold it
        for microseconds; a huge unbounded range scan holds it for its
        whole traversal — writers stall for that window (chunked
        re-seeking probes are a noted follow-up).  Locking read paths
        (2PL, or unversioned tables) already exclude writers via their
        S lock and skip the latch.
        """
        latch = getattr(table, "_latch", None) \
            if self.isolation in ("snapshot", "serializable") and \
            getattr(table, "versioned", False) else None
        rids = self._index_rids(table, index, kind, latch, **bounds)
        snap = self.snapshot
        # read_many holds one pin per same-page RID run (instead of a
        # pin/unpin per record) and preserves index order; the batch
        # factory additionally decodes each run in bulk.
        return Source(columns,
                      lambda: table.read_many(rids(), snapshot=snap),
                      batch_factory=lambda: table.read_batches(
                          rids(), snapshot=snap))

    def _index_rids(self, table, index, kind: str, latch,
                    value: Any = None, lo: Optional[tuple] = None,
                    hi: Optional[tuple] = None, lo_inclusive: bool = True,
                    hi_inclusive: bool = True) -> Callable[[], Any]:
        """Callable producing one ``eq``/``range`` probe's candidate
        head RIDs: walked under ``latch`` (materialised) when given,
        else lazily.  Under serializable isolation the bounds register
        a SIREAD key-range lock, the phantom case tuple SIREADs miss."""
        if kind == "eq":
            probe = partial(index.lookup_eq, (value,))
            lo = hi = (value,)
        else:
            probe = partial(index.range_scan, lo, hi, lo_inclusive,
                            hi_inclusive)
        ssi = self._ssi_pair()
        key_columns = index.definition.columns

        def rids():
            table.index_probes += 1
            if ssi is not None:
                ssi[0].record_key_range(ssi[1], table.name, key_columns,
                                        lo, hi, lo_inclusive, hi_inclusive)
            if latch is None:
                return probe()   # locking read path: stream lazily
            with latch:
                return list(probe())

        return rids

    # -- columnar sources --------------------------------------------------------

    def _columnar_candidate(self, table):
        """The table's columnar store when a mirror scan is legal right
        now: never under serializable isolation (mirror scans register
        no SIREADs, so SSI would lose its rw-dependency edges) and only
        while the mirror epoch matches the heap."""
        if self.isolation == "serializable":
            return None
        store = getattr(table, "columnar", None)
        if store is None or not store.mirror_valid(table):
            return None
        return store

    def _columnar_source(self, table, binding: str, store,
                         specs: tuple) -> Source:
        """Leaf operator over the table's columnar mirror.

        The decision to use the mirror re-runs at iteration time under
        the store gate: if a write invalidated the mirror between plan
        and execution, the source silently degrades to the heap scan —
        both answer with exactly the statement snapshot's rows.  Block
        loads happen under the gate (so a concurrent rebuild cannot
        erase chunks mid-read); decode stays lazy per column."""
        columns = [f"{binding}.{c}" for c in table.schema.names]
        snap = self.snapshot

        def batches():
            with store.gate:
                if store.mirror_valid(table):
                    view = snap if snap is not None \
                        else table.txns.latest_snapshot()
                    return iter(list(store.mirror_batches(
                        store.mirror, view, specs)))
            return table.scan_batches(snapshot=snap)

        def rows():
            for batch in batches():
                yield from batch.iter_rows()

        return Source(columns, rows, batch_factory=batches)

    def _as_of_source(self, table_ref: ast.TableRef, table,
                      params: Sequence[Any], info: PlanInfo) -> Source:
        """``FROM t AS OF <xid>``: the table as transaction ``xid`` saw
        it — rows still in the heap merged with versions the vacuum
        migrated into columnar history.  The read view is a detached
        snapshot (``xid = 0``): it takes no locks and registers no
        SIREADs, time travel is a pure visibility computation."""
        name = table_ref.name
        binding = table_ref.binding
        if not getattr(table, "versioned", False):
            raise SQLPlanError(
                f"AS OF requires a versioned table: {name!r}")
        bound = compile_expression(table_ref.as_of, Scope([]), params)(())
        if not isinstance(bound, int) or isinstance(bound, bool) \
                or bound < 0:
            raise SQLPlanError(
                f"AS OF bound must be a non-negative transaction id, "
                f"got {bound!r}")
        columns = [f"{binding}.{c}" for c in table.schema.names]
        store = getattr(table, "columnar", None)

        def rows():
            # Committed-as-of view: sees x iff x <= bound and x is not
            # still in flight.  Heap and history are disjoint (migration
            # deletes from one and installs into the other inside one
            # gate hold), so the union is exact; materialising eagerly
            # under the gate keeps a concurrent migration from moving a
            # version between the two mid-read.
            view = Snapshot(0, bound + 1, frozenset(table.txns.active))
            if store is None:
                return iter(list(table.rows(snapshot=view)))
            with store.gate:
                merged = list(table.rows(snapshot=view))
                merged.extend(store.history_rows(view))
                return iter(merged)

        info.access_paths.append(f"as_of_scan({name})")
        info.stores.append(f"{binding}=hybrid")
        return Source(columns, rows,
                      batch_factory=lambda: batches_from_rows(
                          rows(), len(columns)))

    # -- subqueries (uncorrelated) ---------------------------------------------------

    def resolve_subqueries(self, expr: Optional[ast.Expression],
                           params: Sequence[Any]) -> Optional[ast.Expression]:
        """Evaluate uncorrelated subqueries, folding them into literals.

        Correlated subqueries (references to outer columns) fail inside the
        nested plan with an unknown-column error — a documented limit.
        """
        if expr is None:
            return None
        if isinstance(expr, ast.Subquery):
            rows = self._run_subquery(expr.query, params)
            if rows and len(rows[0]) != 1:
                raise SQLPlanError("scalar subquery must return 1 column")
            if len(rows) > 1:
                raise SQLPlanError(
                    f"scalar subquery returned {len(rows)} rows")
            return ast.Literal(rows[0][0] if rows else None)
        if isinstance(expr, ast.InSubquery):
            rows = self._run_subquery(expr.query, params)
            if rows and len(rows[0]) != 1:
                raise SQLPlanError("IN subquery must return 1 column")
            items = tuple(ast.Literal(r[0]) for r in rows)
            operand = self.resolve_subqueries(expr.operand, params)
            if not items:
                # x IN (empty) is FALSE; NOT IN (empty) is TRUE.
                return ast.Literal(expr.negated)
            return ast.InList(operand, items, expr.negated)
        if isinstance(expr, ast.Unary):
            return ast.Unary(expr.operator,
                             self.resolve_subqueries(expr.operand, params))
        if isinstance(expr, ast.Binary):
            return ast.Binary(expr.operator,
                              self.resolve_subqueries(expr.left, params),
                              self.resolve_subqueries(expr.right, params))
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(self.resolve_subqueries(expr.operand, params),
                              expr.negated)
        if isinstance(expr, ast.InList):
            return ast.InList(
                self.resolve_subqueries(expr.operand, params),
                tuple(self.resolve_subqueries(i, params)
                      for i in expr.items),
                expr.negated)
        if isinstance(expr, ast.Between):
            return ast.Between(
                self.resolve_subqueries(expr.operand, params),
                self.resolve_subqueries(expr.low, params),
                self.resolve_subqueries(expr.high, params),
                expr.negated)
        return expr

    def _run_subquery(self, query: ast.SelectStatement,
                      params: Sequence[Any]) -> list[tuple]:
        nested = Planner(self.catalog, self._view_parser, self.txn,
                         engine=self.engine, isolation=self.isolation)
        plan, _ = nested.plan(query, params)
        if self.engine == "vectorized":
            return plan.to_list_batched()
        return list(plan)

    # -- SELECT planning -----------------------------------------------------------

    def plan(self, select: ast.SelectStatement,
             params: Sequence[Any] = ()) -> tuple[Operator, PlanInfo]:
        if select.where is not None or select.having is not None:
            select = ast.SelectStatement(
                items=select.items, table=select.table, joins=select.joins,
                where=self.resolve_subqueries(select.where, params),
                group_by=select.group_by,
                having=self.resolve_subqueries(select.having, params),
                order_by=select.order_by, limit=select.limit,
                offset=select.offset, distinct=select.distinct)
        info = PlanInfo()
        info.exec_engine = self.engine
        info.isolation = self.isolation
        if select.table is None:
            # SELECT without FROM: single synthetic row.
            plan: Operator = Source([], lambda: iter([()]))
        else:
            plan = self._plan_from_clause(select, params, info)
        scope = Scope(list(plan.columns))
        if select.where is not None:
            predicate = compile_predicate(select.where, scope, params)
            plan = Select(plan, predicate.row,
                          batch_predicate=predicate.batch,
                          rows_predicate=predicate.rows)

        aggregates = _collect_aggregates(select)
        if aggregates or select.group_by:
            plan, scope = self._plan_aggregation(plan, scope, select,
                                                 aggregates, params, info)
            if select.having is not None:
                having = compile_predicate(select.having, scope, params)
                plan = Select(plan, having.row,
                              batch_predicate=having.batch,
                              rows_predicate=having.rows)
            plan, scope = self._plan_projection(plan, scope, select, params)
        else:
            if select.having is not None:
                raise SQLPlanError("HAVING requires GROUP BY or aggregates")
            plan, scope = self._plan_order_then_project(plan, scope, select,
                                                        params, info)
        if select.distinct:
            plan = Distinct(plan)
        if aggregates or select.group_by:
            plan = self._plan_order(plan, scope, select, params, info)
        if select.limit is not None or select.offset is not None:
            limit, offset = self._limit_bounds(select, params)
            plan = Limit(plan, limit, offset or 0)
        return plan, info

    @staticmethod
    def _limit_bounds(select: ast.SelectStatement,
                      params: Sequence[Any]) -> tuple[Optional[int], int]:
        limit = (compile_scalar(select.limit, Scope([]), params)(())
                 if select.limit is not None else None)
        offset = (compile_scalar(select.offset, Scope([]), params)(())
                  if select.offset is not None else 0)
        return limit, offset or 0

    def _sort_operator(self, child: Operator,
                       keys: Sequence[tuple[int, bool]],
                       select: Optional[ast.SelectStatement],
                       params: Sequence[Any],
                       info: PlanInfo) -> Operator:
        bounded = select is not None and select.limit is not None
        return _sort(child, keys, self._limit_bounds(select, params)
                     if bounded else None, info)

    # -- FROM-clause planning (cost-based with rule-based fallback) -------------------

    def _plan_from_clause(self, select: ast.SelectStatement,
                          params: Sequence[Any],
                          info: PlanInfo) -> Operator:
        costed = self._cost_based_from(select, params, info)
        if costed is not None:
            return costed
        plan = self._table_source(select.table, select.where, params,
                                  info)
        for join in select.joins:
            right = self._table_source(join.table, None, params, info)
            plan = self._plan_join(plan, right, join, params, info)
        return plan

    def _cost_based_from(self, select: ast.SelectStatement,
                         params: Sequence[Any],
                         info: PlanInfo) -> Optional[Operator]:
        """Physical planning over statistics; None → rule-based fallback.

        Applies only when every reference is a base table with ANALYZE
        statistics, bindings are unambiguous, and all joins are inner
        (outer joins constrain both pushdown and reordering).
        """
        stats_for = getattr(self.catalog, "stats_for", None)
        if stats_for is None or select.table is None:
            return None
        refs = [select.table] + [join.table for join in select.joins]
        if any(join.kind != "inner" for join in select.joins):
            return None
        if any(ref.as_of is not None for ref in refs):
            # Time travel reads a merged heap ∪ history view; only the
            # rule-based hybrid source knows how to build it.
            return None
        bindings: dict[str, Any] = {}
        all_stats = {}
        for ref in refs:
            if not self.catalog.has_table(ref.name) \
                    or ref.binding in bindings:
                return None
            stats = stats_for(ref.name)
            if stats is None or (stats.row_count == 0 and
                                 self.catalog.table(ref.name).row_count):
                # No statistics (or a snapshot of a then-empty table):
                # stay rule-based.  Ordinary drift is tolerated — stats
                # describe the table as of the last ANALYZE.
                return None
            bindings[ref.binding] = self.catalog.table(ref.name)
            all_stats[ref.binding] = stats
        schemas = {b: t.schema for b, t in bindings.items()}

        # Logical step: gather conjuncts from WHERE and all ON clauses.
        conjuncts: list[ast.Expression] = []
        if select.where is not None:
            conjuncts.extend(_conjuncts(select.where))
        on_conjuncts: list[ast.Expression] = []
        for join in select.joins:
            if join.condition is not None:
                on_conjuncts.extend(_conjuncts(join.condition))
        conjuncts.extend(on_conjuncts)

        specs: dict[str, list[PredicateSpec]] = \
            {b: [] for b in bindings}
        pushdown: dict[str, list[ast.Expression]] = \
            {b: [] for b in bindings}
        edges: list[JoinEdge] = []
        rel_index = {ref.binding: i for i, ref in enumerate(refs)}
        estimators = {b: SelectivityEstimator(all_stats[b])
                      for b in bindings}
        for conjunct in conjuncts:
            owners = _conjunct_bindings(conjunct, schemas)
            if owners is None:
                continue
            if len(owners) == 1:
                binding = next(iter(owners))
                specs[binding].append(
                    _predicate_spec(conjunct, binding, schemas, params))
                pushdown[binding].append(conjunct)
            elif len(owners) == 2:
                edge = _join_edge(conjunct, schemas, rel_index,
                                  estimators)
                if edge is not None:
                    edges.append(edge)

        cost_model = CostModel(buffer_pages=self._buffer_pages())

        # Physical step 1: access path per table reference.
        relations: list[tuple[str, Operator, ScanChoice]] = []
        total_cost = 0.0
        for ref in refs:
            table = bindings[ref.binding]
            self._lock_for_read(ref.name, table)
            choice = choose_access_path(
                table, all_stats[ref.binding], specs[ref.binding],
                cost_model, columnar=self._columnar_candidate(table))
            source = self._choice_source(table, ref.binding, choice)
            # Apply the relation's own filters at the scan, so joins
            # see the cardinality the estimates were computed from
            # (legal because all joins are inner here).
            if pushdown[ref.binding]:
                condition = pushdown[ref.binding][0]
                for extra in pushdown[ref.binding][1:]:
                    condition = ast.Binary("AND", condition, extra)
                predicate = compile_predicate(
                    condition, Scope(list(source.columns)), params)
                source = Select(source, predicate.row,
                                batch_predicate=predicate.batch,
                                rows_predicate=predicate.rows)
            info.access_paths.append(choice.path)
            info.stores.append(_store_entry(ref.binding, choice))
            info.estimates.append(
                _estimate_entry(ref.name, ref.binding, choice))
            total_cost += choice.cost
            relations.append((ref.binding, source, choice))

        # Physical step 2: join order + algorithm per step.
        start, steps = order_joins(
            [choice.est_rows for _, _, choice in relations], edges,
            cost_model)
        binding_order = [relations[start][0]]
        tree = relations[start][1]
        est_rows = relations[start][2].est_rows
        for step in steps:
            binding, source, choice = relations[step.relation]
            tree = self._join_step(tree, source, step, info)
            binding_order.append(binding)
            total_cost += step.cost
            est_rows = step.est_rows
        info.join_order = binding_order
        info.estimated_rows = round(est_rows, 1)
        info.estimated_cost = round(total_cost, 2)
        info.cost_based = True

        # Re-enforce every ON conjunct (hash joins only check their equi
        # keys; WHERE is applied by the caller).
        if on_conjuncts:
            condition = on_conjuncts[0]
            for extra in on_conjuncts[1:]:
                condition = ast.Binary("AND", condition, extra)
            predicate = compile_predicate(
                condition, Scope(list(tree.columns)), params)
            tree = Select(tree, predicate.row,
                          batch_predicate=predicate.batch,
                          rows_predicate=predicate.rows)

        # Restore the syntactic column order so downstream name
        # resolution (and SELECT *) is independent of the join order.
        syntactic = []
        for binding, source, _ in relations:
            syntactic.extend(source.columns)
        if list(tree.columns) != syntactic:
            positions = [tree.columns.index(c) for c in syntactic]
            tree = Project.by_indexes(tree, positions)
        return tree

    def _buffer_pages(self) -> int:
        pages = getattr(self.catalog, "pages", None)
        pool = getattr(pages, "pool", None)
        return getattr(pool, "capacity", 256)

    def _choice_source(self, table, binding: str,
                       choice: ScanChoice) -> Operator:
        """Materialise a :class:`ScanChoice` as a leaf operator."""
        columns = [f"{binding}.{c}" for c in table.schema.names]
        if choice.kind == "seq":
            snap = self.snapshot
            return Source(columns, lambda: table.rows(snapshot=snap),
                          batch_factory=lambda: table.scan_batches(
                              snapshot=snap))
        if choice.kind == "columnar":
            store = getattr(table, "columnar", None)
            if store is None:    # race: tier disabled since costing
                snap = self.snapshot
                return Source(columns,
                              lambda: table.rows(snapshot=snap),
                              batch_factory=lambda: table.scan_batches(
                                  snapshot=snap))
            return self._columnar_source(table, binding, store,
                                         choice.specs)
        return self._index_source(table, columns, choice.index,
                                  *_probe_bounds(choice))

    # -- DML victim selection ---------------------------------------------------------

    def plan_dml(self, table_name: str,
                 where: Optional[ast.Expression],
                 params: Sequence[Any], memo=None) -> DMLPlan:
        """Costed access path for UPDATE/DELETE victim selection.

        With ANALYZE statistics the cost model chooses between a heap
        scan and the matching index probes (same machinery as SELECT,
        plus the per-victim write overhead); a plan-cache entry passes
        its ``memo``, which keeps a shape :func:`unique_probe` admits
        decided across executions; without statistics the
        first interval an index can serve drives a rule-based probe,
        and a statement with no usable conjunct falls back to the seq
        scan DML always used before.
        """
        table = self.catalog.table(table_name)
        conjuncts = _conjuncts(where) if where is not None else []
        stats_for = getattr(self.catalog, "stats_for", None)
        stats = stats_for(table_name) if stats_for is not None else None
        if stats is not None and not (stats.row_count == 0
                                      and table.row_count):
            schemas = {table_name: table.schema}
            specs = []
            for conjunct in conjuncts:
                owners = _conjunct_bindings(conjunct, schemas)
                if owners is not None and owners <= {table_name}:
                    specs.append(_predicate_spec(conjunct, table_name,
                                                 schemas, params))
                else:
                    specs.append(PredicateSpec("", "other"))
            cost_model = CostModel(buffer_pages=self._buffer_pages())
            probe = memo.probe(table, stats, lambda: unique_probe(
                table, stats, specs, cost_model)) \
                if memo is not None else None
            choice = probe.choice(table, specs[probe.position].value) \
                if probe is not None \
                else choose_access_path(table, stats, specs, cost_model)
            estimate = _estimate_entry(table_name, table_name, choice)
            estimate["cost"] = round(
                choice.cost + cost_model.dml_overhead(choice.est_rows), 2)
            plan = DMLPlan(table_name, choice.path, estimate)
        else:
            choice = rule_access_path(
                table, _table_specs(conjuncts, table_name, table.schema,
                                    params))
            plan = DMLPlan(table_name, choice.path)
        snap = self.snapshot
        if choice.kind == "seq":
            plan.victims = lambda: table.scan(snapshot=snap)
            return plan
        # A DML statement holds no S lock in any isolation mode, so the
        # probe always runs under the table latch; ``read_pairs``
        # re-checks the candidates against the statement view.
        kind, bounds = _probe_bounds(choice)
        rids = self._index_rids(table, choice.index, kind,
                                getattr(table, "_latch", None), **bounds)
        plan.victims = lambda: table.read_pairs(rids(), snapshot=snap)
        return plan

    def _join_step(self, tree: Operator, source: Operator, step,
                   info: PlanInfo) -> Operator:
        """Apply one ordered join step to the running left-deep tree."""
        pairs = []       # (outer index in tree, inner index in source)
        for edge in step.edges:
            if edge.left_column in tree.columns:
                tree_col, rel_col = edge.left_column, edge.right_column
            else:
                tree_col, rel_col = edge.right_column, edge.left_column
            pairs.append((tree.columns.index(tree_col),
                          source.columns.index(rel_col)))
        if step.method == "hash" and pairs:
            info.joins.append("hash_join")
            return HashJoin(tree, source, [o for o, _ in pairs],
                            [i for _, i in pairs])
        if pairs:
            info.joins.append("nested_loop")
            return NestedLoopJoin(
                tree, source,
                lambda o, i, pairs=pairs: all(
                    o[oi] is not None and o[oi] == i[ii]
                    for oi, ii in pairs))
        info.joins.append("cross(nested_loop)")
        return NestedLoopJoin(tree, source, lambda o, i: True)

    # -- join planning ----------------------------------------------------------------

    def _plan_join(self, left: Operator, right: Operator, join: ast.Join,
                   params: Sequence[Any], info: PlanInfo) -> Operator:
        combined = Scope(list(left.columns) + list(right.columns))
        if join.condition is None:
            if join.kind == "left":
                raise SQLPlanError("LEFT JOIN requires an ON condition")
            info.joins.append("cross(nested_loop)")
            return NestedLoopJoin(left, right, lambda o, i: True)
        equi = _equi_join_keys(join.condition, len(left.columns),
                               Scope(list(left.columns)), combined)
        if equi is not None:
            left_key, right_key = equi
            info.joins.append("hash_join")
            return HashJoin(left, right, [left_key],
                            [right_key - len(left.columns)],
                            left_outer=join.kind == "left")
        if join.kind == "left":
            raise SQLPlanError(
                "LEFT JOIN supports only single equality conditions")
        predicate = compile_expression(join.condition, combined, params)
        info.joins.append("nested_loop")
        return NestedLoopJoin(
            left, right,
            lambda o, i, p=predicate: p(o + i) is True)

    # -- aggregation ---------------------------------------------------------------------

    def _plan_aggregation(self, plan: Operator, scope: Scope,
                          select: ast.SelectStatement,
                          aggregates: list[ast.FunctionCall],
                          params: Sequence[Any],
                          info: PlanInfo) -> tuple[Operator, Scope]:
        info.aggregated = True
        # Pre-projection: group-by expressions first, then each aggregate's
        # input expression (COUNT(*) needs no input and gets no slot).
        pre_columns: list[str] = []
        pre_outputs: list = []
        for i, group_expr in enumerate(select.group_by):
            pre_columns.append(f"__group_{i}")
            pre_outputs.append(group_expr)
        agg_specs: list[tuple] = []
        for i, aggregate in enumerate(aggregates):
            column_name = f"__agg_{i}"
            if aggregate.argument is None:
                agg_specs.append((column_name, "count", None, False))
            else:
                input_index = len(pre_columns)
                pre_columns.append(f"__agg_in_{i}")
                pre_outputs.append(aggregate.argument)
                agg_specs.append((column_name, aggregate.name, input_index,
                                  aggregate.distinct))
        projection = compile_projection(pre_outputs, scope, params)
        plan = Project(plan, pre_columns, projection.row_exprs,
                       positions=projection.positions,
                       batch_fn=projection.batch,
                       rows_fn=projection.rows)
        plan = Aggregate(plan, list(range(len(select.group_by))), agg_specs)
        # Post-scope: group-by AST nodes and aggregate AST nodes map to
        # output slots.
        node_slots: dict = {}
        for i, group_expr in enumerate(select.group_by):
            node_slots[group_expr] = i
        for i, aggregate in enumerate(aggregates):
            node_slots[aggregate] = len(select.group_by) + i
        post_scope = Scope(list(plan.columns), node_slots)
        return plan, post_scope

    def _plan_projection(self, plan: Operator, scope: Scope,
                         select: ast.SelectStatement,
                         params: Sequence[Any]) -> tuple[Operator, Scope]:
        columns: list[str] = []
        outputs: list = []
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                raise SQLPlanError("* cannot be combined with GROUP BY")
            columns.append(item.alias or _expression_name(item.expression))
            outputs.append(item.expression)
        projection = compile_projection(outputs, scope, params)
        projected = Project(plan, columns, projection.row_exprs,
                            positions=projection.positions,
                            batch_fn=projection.batch,
                            rows_fn=projection.rows)
        # ORDER BY in aggregate queries may reference aliases or the same
        # aggregate nodes; build a scope carrying both.
        order_slots = dict(scope.node_slots)
        out_scope = Scope(columns, order_slots)
        self._alias_slots = {item.alias: i
                             for i, item in enumerate(select.items)
                             if item.alias}
        self._agg_scope = scope
        return projected, out_scope

    def _plan_order(self, plan: Operator, scope: Scope,
                    select: ast.SelectStatement,
                    params: Sequence[Any], info: PlanInfo) -> Operator:
        if not select.order_by:
            return plan
        keys: list[tuple[int, bool]] = []
        extra_exprs: list[ast.Expression] = []
        for item in select.order_by:
            expr = item.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                # Positional ORDER BY (1-based output column).
                position = expr.value - 1
                if not 0 <= position < len(plan.columns):
                    raise SQLPlanError(
                        f"ORDER BY position {expr.value} out of range")
                keys.append((position, item.descending))
                continue
            if isinstance(expr, ast.ColumnRef) and expr.table is None \
                    and expr.name in getattr(self, "_alias_slots", {}):
                keys.append((self._alias_slots[expr.name], item.descending))
                continue
            if expr in scope.node_slots and scope.node_slots[expr] < \
                    len(plan.columns):
                keys.append((scope.node_slots[expr], item.descending))
                continue
            try:
                index = scope.resolve(expr) if isinstance(
                    expr, ast.ColumnRef) else None
            except SQLPlanError:
                index = None
            if index is not None:
                keys.append((index, item.descending))
                continue
            extra_exprs.append(expr)
            keys.append((-1, item.descending))
        if extra_exprs:
            raise SQLPlanError(
                "ORDER BY expression must be a selected column, alias, or "
                "group key in aggregate queries")
        # DISTINCT (if any) already ran below this sort, so a LIMIT can
        # safely bound it to a top-k heap.
        return self._sort_operator(plan, keys, select, params, info)

    def _plan_order_then_project(
            self, plan: Operator, scope: Scope,
            select: ast.SelectStatement,
            params: Sequence[Any],
            info: PlanInfo) -> tuple[Operator, Scope]:
        """Non-aggregate path: sort on base columns (so ORDER BY can use
        non-selected columns), then project."""
        # Top-k is only legal here when no DISTINCT runs above the sort
        # (dedup after truncation would under-produce rows).
        bounded = select if not select.distinct else None
        if select.order_by:
            keys, computed = _order_keys(select, scope)

            def sort(child: Operator, keys: list) -> Operator:
                return self._sort_operator(child, keys, bounded, params,
                                           info)
            if computed:
                # Computed sort keys ride along as hidden columns.
                plan = _hidden_sort(plan, keys, compile_projection(
                    list(range(len(plan.columns))) + computed, scope,
                    params), sort)
            else:
                plan = sort(plan, keys)
        columns, outputs = _select_outputs(select, scope)
        projection = compile_projection(outputs, scope, params)
        return _project(plan, columns, projection,
                        self.engine == "vectorized", info), Scope(columns)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _sort(child: Operator, keys: Sequence[tuple[int, bool]],
          bounds: Optional[tuple], info: PlanInfo) -> Operator:
    """Sort, or a bounded top-k heap when a LIMIT directly bounds this
    sort (``bounds`` is its ``(limit, offset)``; Sort→Limit plans keep
    only limit+offset rows)."""
    if bounds is not None:
        limit, offset = bounds
        if isinstance(limit, int) and not isinstance(limit, bool) \
                and limit >= 0 and isinstance(offset, int) and offset >= 0:
            info.top_k = True
            return TopK(child, keys, limit + offset)
    return Sort(child, keys)


def _project(plan: Operator, columns: list[str], projection, fuse: bool,
             info: PlanInfo) -> Operator:
    """The projection over ``plan``, fused with a filter right below it
    into one batch pass when ``fuse`` (both operators are stateless
    row-wise maps, so fusion is always safe)."""
    if fuse and isinstance(plan, Select):
        info.fused = True
        return FusedSelectProject(
            plan.child, plan.predicate, columns, projection.row_exprs,
            batch_predicate=plan.batch_predicate,
            rows_predicate=plan.rows_predicate,
            positions=projection.positions, batch_fn=projection.batch,
            rows_fn=projection.rows)
    return Project(plan, columns, projection.row_exprs,
                   positions=projection.positions,
                   batch_fn=projection.batch, rows_fn=projection.rows)


def _order_keys(select: ast.SelectStatement,
                scope: Scope) -> tuple[list, list]:
    """A non-aggregate ORDER BY as ``(slot, descending)`` sort keys over
    ``scope``, slot -1 for each computed key, plus those computed
    expressions in order.  Positions and aliases name select items."""
    keys: list[tuple[int, bool]] = []
    computed: list[ast.Expression] = []
    for item in select.order_by:
        expr = item.expression
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            # Positional ORDER BY refers to an output column; since
            # sorting happens pre-projection, route it through the
            # select item's expression.
            position = expr.value - 1
            if not 0 <= position < len(select.items):
                raise SQLPlanError(
                    f"ORDER BY position {expr.value} out of range")
            expr = select.items[position].expression
        if isinstance(expr, ast.ColumnRef):
            try:
                keys.append((scope.resolve(expr), item.descending))
                continue
            except SQLPlanError:
                pass
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for sel_item in select.items:     # alias of a select item?
                if sel_item.alias == expr.name:
                    expr = sel_item.expression
                    break
        computed.append(expr)
        keys.append((-1, item.descending))
    return keys, computed


def _hidden_sort(plan: Operator, keys: list, hidden,
                 sort: Callable[[Operator, list], Operator]) -> Operator:
    """Sort ``plan`` on ``keys`` whose computed entries (slot -1) are the
    extra outputs of the projection ``hidden``: append them as hidden
    columns, ``sort(child, keys)``, strip them again."""
    arity = len(plan.columns)
    extra = len(hidden.row_exprs) - arity
    augmented = Project(
        plan, list(plan.columns) + [f"__sort_{i}" for i in range(extra)],
        hidden.row_exprs, positions=hidden.positions,
        batch_fn=hidden.batch, rows_fn=hidden.rows)
    slots = iter(range(arity, arity + extra))
    keys = [(k if k >= 0 else next(slots), d) for k, d in keys]
    return Project.by_indexes(sort(augmented, keys), list(range(arity)))


def _select_outputs(select: ast.SelectStatement,
                    scope: Scope) -> tuple[list[str], list]:
    """Output column names and projection outputs (slot or expression)
    of a non-aggregate select list, ``*`` expanded over ``scope``."""
    columns: list[str] = []
    outputs: list = []
    for item in select.items:
        if isinstance(item.expression, ast.Star):
            star = item.expression
            for i, column in enumerate(scope.columns):
                if star.table is not None and \
                        not column.startswith(f"{star.table}."):
                    continue
                columns.append(column.split(".", 1)[-1])
                outputs.append(i)
            continue
        columns.append(item.alias or _expression_name(item.expression))
        outputs.append(item.expression)
    return columns, outputs


def _conjuncts(expr: ast.Expression) -> list[ast.Expression]:
    if isinstance(expr, ast.Binary) and expr.operator == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _index_match(expr: ast.Expression,
                 binding: str) -> Optional[tuple[str, str, ast.Expression]]:
    """Recognise ``col OP constant`` over this binding's columns."""
    if not isinstance(expr, ast.Binary) or \
            expr.operator not in ("=", "<", "<=", ">", ">="):
        return None
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

    def constant(node) -> bool:
        return isinstance(node, (ast.Literal, ast.Param))

    def column(node) -> Optional[str]:
        if isinstance(node, ast.ColumnRef) and \
                (node.table is None or node.table == binding):
            return node.name
        return None

    left_col, right_col = column(expr.left), column(expr.right)
    if left_col is not None and constant(expr.right):
        return left_col, expr.operator, expr.right
    if right_col is not None and constant(expr.left):
        return right_col, flipped[expr.operator], expr.left
    return None


def _binding_of_ref(ref: ast.ColumnRef,
                    schemas: dict) -> Optional[str]:
    """Which FROM binding a column reference belongs to (None: unknown
    or ambiguous)."""
    if ref.table is not None:
        schema = schemas.get(ref.table)
        return ref.table if schema is not None \
            and ref.name in schema.names else None
    owners = [binding for binding, schema in schemas.items()
              if ref.name in schema.names]
    return owners[0] if len(owners) == 1 else None


def _conjunct_bindings(conjunct: ast.Expression,
                       schemas: dict) -> Optional[set]:
    """The set of bindings a conjunct references (None: unresolvable —
    the conjunct still executes via the residual WHERE, it just cannot
    inform pushdown or join edges)."""
    owners: set = set()
    for node in ast.walk_expression(conjunct):
        if isinstance(node, (ast.Subquery, ast.InSubquery)):
            return None
        if isinstance(node, ast.ColumnRef):
            owner = _binding_of_ref(node, schemas)
            if owner is None:
                return None
            owners.add(owner)
    return owners


def _table_specs(conjuncts: list, binding: str, schema,
                 params: Sequence[Any]) -> list[PredicateSpec]:
    """Estimator-form specs of the conjuncts that reference only
    ``binding``'s columns."""
    schemas = {binding: schema}
    return [_predicate_spec(conjunct, binding, schemas, params)
            for conjunct in conjuncts
            if _conjunct_bindings(conjunct, schemas) == {binding}]


def _probe_bounds(choice: ScanChoice) -> tuple[str, dict]:
    """``(kind, bounds)`` arguments of :meth:`Planner._index_rids` that
    walk exactly an index choice's interval."""
    interval = choice.interval
    if choice.kind == "index_eq":
        return "eq", {"value": interval.value}
    low, high = interval.bounds()
    return "range", {
        "lo": (low[0],) if low is not None else None,
        "lo_inclusive": low[1] if low is not None else True,
        "hi": (high[0],) if high is not None else None,
        "hi_inclusive": high[1] if high is not None else True}


def _store_entry(binding: str, choice: ScanChoice) -> str:
    return f"{binding}=" \
        f"{'columnar' if choice.kind == 'columnar' else 'heap'}"


def _estimate_entry(table_name: str, binding: str,
                    choice: ScanChoice) -> dict:
    """One ``PlanInfo.estimates`` row.  Index paths also report the
    folded interval probed and the heap-order correlation its fetches
    were priced with."""
    entry = {"table": table_name, "binding": binding,
             "path": choice.path,
             "rows": round(choice.est_rows, 1),
             "cost": round(choice.cost, 2)}
    if choice.interval is not None:
        entry["interval"] = choice.interval.describe()
        entry["correlation"] = round(choice.correlation, 2)
    return entry


def explain_estimate(entry: dict) -> str:
    """EXPLAIN's ``estimate`` detail for one estimates row."""
    text = f"{entry['binding']}: rows={entry['rows']} cost={entry['cost']}"
    if "interval" in entry:
        text += f" interval=[{entry['interval']}] " \
                f"correlation={entry['correlation']}"
    return text


def _constant_value(expr: ast.Expression,
                    params: Sequence[Any]) -> tuple[bool, Any]:
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Param):
        if expr.index < len(params):
            return True, params[expr.index]
        # Out of range: let the compiler raise its usual error.
        return True, compile_expression(expr, Scope([]), params)(())
    return False, None


def _predicate_spec(conjunct: ast.Expression, binding: str,
                    schemas: dict,
                    params: Sequence[Any]) -> PredicateSpec:
    """Distil a single-table conjunct into estimator-friendly form."""
    if isinstance(conjunct, ast.Binary):
        match = _index_match(conjunct, binding)
        if match is not None:
            column, op_name, value_expr = match
            known, value = _constant_value(value_expr, params)
            if known:
                return PredicateSpec(column, op_name, value)
    if isinstance(conjunct, ast.Between) and not conjunct.negated \
            and isinstance(conjunct.operand, ast.ColumnRef):
        low_known, low = _constant_value(conjunct.low, params)
        high_known, high = _constant_value(conjunct.high, params)
        if low_known and high_known:
            return PredicateSpec(conjunct.operand.name, "between",
                                 low=low, high=high)
    if isinstance(conjunct, ast.IsNull) \
            and isinstance(conjunct.operand, ast.ColumnRef):
        return PredicateSpec(conjunct.operand.name,
                             "notnull" if conjunct.negated else "isnull")
    if isinstance(conjunct, ast.InList) and not conjunct.negated \
            and isinstance(conjunct.operand, ast.ColumnRef) \
            and all(isinstance(i, (ast.Literal, ast.Param))
                    for i in conjunct.items):
        return PredicateSpec(conjunct.operand.name, "in",
                             len(conjunct.items))
    return PredicateSpec("", "other")


def _join_edge(conjunct: ast.Expression, schemas: dict,
               rel_index: dict, estimators: dict) -> Optional[JoinEdge]:
    """Recognise ``a.x = b.y`` between two different bindings."""
    if not isinstance(conjunct, ast.Binary) or conjunct.operator != "=":
        return None
    if not isinstance(conjunct.left, ast.ColumnRef) or \
            not isinstance(conjunct.right, ast.ColumnRef):
        return None
    left_owner = _binding_of_ref(conjunct.left, schemas)
    right_owner = _binding_of_ref(conjunct.right, schemas)
    if left_owner is None or right_owner is None or \
            left_owner == right_owner:
        return None
    return JoinEdge(
        rel_index[left_owner], rel_index[right_owner],
        f"{left_owner}.{conjunct.left.name}",
        f"{right_owner}.{conjunct.right.name}",
        estimators[left_owner].n_distinct(conjunct.left.name),
        estimators[right_owner].n_distinct(conjunct.right.name))


def _equi_join_keys(condition: ast.Expression, left_arity: int,
                    left_scope: Scope,
                    combined: Scope) -> Optional[tuple[int, int]]:
    """Recognise ``a = b`` with one side per input."""
    if not isinstance(condition, ast.Binary) or condition.operator != "=":
        return None
    if not isinstance(condition.left, ast.ColumnRef) or \
            not isinstance(condition.right, ast.ColumnRef):
        return None
    try:
        li = combined.resolve(condition.left)
        ri = combined.resolve(condition.right)
    except SQLPlanError:
        return None
    if li < left_arity <= ri:
        return li, ri
    if ri < left_arity <= li:
        return ri, li
    return None


def _collect_aggregates(select: ast.SelectStatement) -> list[ast.FunctionCall]:
    found: list[ast.FunctionCall] = []
    seen: set = set()

    def visit(expr: Optional[ast.Expression]) -> None:
        if expr is None:
            return
        for node in ast.walk_expression(expr):
            if isinstance(node, ast.FunctionCall) and node not in seen:
                seen.add(node)
                found.append(node)

    for item in select.items:
        if not isinstance(item.expression, ast.Star):
            visit(item.expression)
    visit(select.having)
    for order in select.order_by:
        visit(order.expression)
    return found
