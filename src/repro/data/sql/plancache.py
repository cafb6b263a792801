"""Statement cache: soft parse, plan templates, and their validation.

Executing SQL text used to pay the full pipeline every time: tokenize,
parse, name resolution, access-path selection, and closure codegen.
This module splits that pipeline at the two natural seams:

1. **Soft parse** (:func:`fingerprint`): a token-level pass rewrites
   literals in value positions to ``?`` placeholders, producing a
   *normalized text* plus a recipe for rebuilding the full parameter
   vector from the constants and the caller's own parameters.
   ``WHERE id = 3`` and ``WHERE id = 7`` share one cache entry.

2. **Plan templates** (:func:`build_template`): for the supported
   statement shapes, planning and expression codegen run once per
   normalized text.  The template stores *late-binding factories* (see
   ``compile_*_factory`` in :mod:`repro.data.sql.compiler`) and
   instantiates a fresh operator tree per execution — so every
   execution still sees the current snapshot, session transaction,
   SSI tracking, and lock protocol.  A unique-key equality's access
   path is decided once per entry (:class:`ProbeMemo`) and priced per
   binding; other shapes re-choose theirs per execution.  Either way
   plan dictionaries (``access_paths``, estimates, ``cost_based``) stay
   bit-identical to the uncached planner.

Statements the template builder cannot express (joins, aggregates,
views, subqueries, UNION, ...) become **bypass** entries: only the
parsed AST is reused and the ordinary planner runs per execution —
still skipping tokenize+parse, never risking semantic drift.

**Invalidation** is validation-based: every template entry captures the
catalog's DDL version, the per-table statistics versions, and whether
statistics existed at build time.  DDL (create/drop table, index, or
view), ``ANALYZE``, and vacuum-driven stats refreshes bump those
counters; a mismatched entry is dropped on lookup and rebuilt.
Catalog drift a version bump cannot see (a table object swapped out
from under a live template) surfaces as :class:`StalePlanError`, which
the executor turns into a drop-and-replan.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.access.operators import Distinct, Limit, Operator, Select
from repro.data.sql import ast
from repro.data.sql.compiler import (
    compile_predicate_factory,
    compile_projection_factory,
    compile_scalar_factory,
)
from repro.data.sql.lexer import Token, tokenize
from repro.data.sql.optimizer import (
    CostModel,
    choose_access_path,
    unique_probe,
)
from repro.data.sql.planner import (
    PlanInfo,
    Planner,
    Scope,
    _conjunct_bindings,
    _conjuncts,
    _constant_value,
    _estimate_entry,
    _hidden_sort,
    _index_match,
    _order_keys,
    _predicate_spec,
    _project,
    _select_outputs,
    _sort,
    _store_entry,
)
from repro.errors import CatalogError, SQLPlanError, SQLSyntaxError


class StalePlanError(Exception):
    """A cached template no longer matches the live catalog (e.g. an
    index it relies on vanished without a version bump).  The executor
    drops the entry and re-plans through the bypass path."""


class _NotCacheable(Exception):
    """Statement shape the template builder does not support."""


class ProbeMemo:
    """One cache entry's :func:`unique_probe` outcome, decided again only
    for another table or statistics object (drift no version counter
    saw).  An index detached behind the entry raises
    :class:`StalePlanError`.  The record is one tuple published by one
    assignment, so sessions share it without a lock."""

    __slots__ = ("_record",)

    def __init__(self) -> None:
        self._record = (None, None, None)

    def probe(self, table, stats, decide: Callable[[], Any]):
        """The probe for ``table`` under ``stats``; ``decide()`` runs
        :func:`unique_probe` when none is recorded for them yet."""
        seen_table, seen_stats, probe = self._record
        if seen_table is not table or seen_stats is not stats:
            probe = decide()
            self._record = (table, stats, probe)
        elif probe is not None and table.indexes.get(
                probe.index.definition.name) is not probe.index:
            raise StalePlanError(table.name)
        return probe


# ---------------------------------------------------------------------------
# Soft parse: SQL text -> normalized text + parameter recipe
# ---------------------------------------------------------------------------


#: Leading keywords that route through the fingerprinted executor.
CACHEABLE_KEYWORDS = frozenset({"SELECT", "INSERT", "UPDATE", "DELETE"})

# Literals are rewritten to ``?`` only inside value regions: after
# FROM/WHERE/VALUES/SET, where a literal is a runtime value.  The
# rewrite stops for good at the first ORDER/GROUP/LIMIT/OFFSET —
# ``ORDER BY 2`` is a positional reference, not a value, and keeping
# LIMIT/OFFSET literal keeps top-k eligibility visible in the text.
# Literals in the SELECT item list stay literal too, so derived column
# names ("SELECT 1" names its column "1") match the uncached planner.
_ENABLE_KEYWORDS = frozenset({"FROM", "WHERE", "VALUES", "SET"})
_DISABLE_KEYWORDS = frozenset({"ORDER", "GROUP", "LIMIT", "OFFSET"})

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _number_value(text: str) -> Any:
    # Must mirror the parser's literal conversion exactly.
    return float(text) if any(c in text for c in ".eE") else int(text)


def _render_token(token: Token) -> str:
    if token.kind == "STRING":
        escaped = token.value.replace("'", "''")
        return f"'{escaped}'"
    if token.kind == "IDENT" and not _PLAIN_IDENT.match(token.value):
        return f'"{token.value}"'
    return token.value


@dataclass(frozen=True)
class Fingerprint:
    """Normalized statement text plus the parameter-merge recipe.

    ``recipe`` holds one entry per ``?`` in ``text``, in order:
    ``("c", value)`` for an auto-parameterized constant, ``("u", i)``
    for the caller's i-th own parameter.  ``bind`` merges a caller
    parameter vector into the full vector the normalized statement
    expects.
    """

    text: str
    keyword: str
    recipe: tuple[tuple[str, Any], ...]
    cacheable: bool = True

    def bind(self, params: Sequence[Any]) -> tuple:
        merged = []
        for kind, value in self.recipe:
            if kind == "c":
                merged.append(value)
            else:
                if value >= len(params):
                    # Same message the baked compiler raises, in the
                    # caller's own parameter numbering.
                    raise SQLPlanError(
                        f"statement references parameter {value} but "
                        f"only {len(params)} given")
                merged.append(params[value])
        return tuple(merged)


def fingerprint(sql: str) -> Fingerprint:
    """Tokenize ``sql`` into its normalized form (may raise
    :class:`SQLSyntaxError` on malformed text, like the parser)."""
    tokens = tokenize(sql)
    parts: list[str] = []
    recipe: list[tuple[str, Any]] = []
    keyword = tokens[0].value if tokens and tokens[0].kind == "KEYWORD" \
        else ""
    active = False
    disabled = False
    user_index = 0
    prev: Optional[Token] = None
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.kind == "EOF":
            break
        if token.kind == "KEYWORD":
            if token.value in _DISABLE_KEYWORDS:
                active = False
                disabled = True
            elif token.value in _ENABLE_KEYWORDS and not disabled:
                active = True
            parts.append(token.value)
        elif token.kind == "PARAM":
            parts.append("?")
            recipe.append(("u", user_index))
            user_index += 1
        elif token.kind in ("NUMBER", "STRING") and active:
            value = _number_value(token.value) \
                if token.kind == "NUMBER" else token.value
            # Fold a leading unary minus into the constant, exactly
            # where the parser would (a ``-`` after a keyword or any
            # symbol except ``)`` is unary; after an operand or ``)``
            # it is binary subtraction).
            if token.kind == "NUMBER" and parts and parts[-1] == "-" \
                    and prev is not None and prev.kind == "SYMBOL" \
                    and prev.value == "-":
                before = tokens[i - 2] if i >= 2 else None
                unary = before is None or before.kind == "KEYWORD" or \
                    (before.kind == "SYMBOL" and before.value != ")")
                if unary:
                    parts.pop()
                    value = -value
            parts.append("?")
            recipe.append(("c", value))
        elif token.kind in ("NUMBER", "STRING"):
            parts.append(_render_token(token))
        elif token.kind == "SYMBOL" and token.value == ";":
            pass  # canonical text carries no trailing terminator
        else:
            parts.append(_render_token(token))
        prev = token
        i += 1
    return Fingerprint(" ".join(parts), keyword, tuple(recipe))


class FingerprintCache:
    """Raw SQL text -> :class:`Fingerprint`, bounded LRU."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, Fingerprint]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, sql: str) -> Optional[Fingerprint]:
        """The fingerprint for ``sql``; None when tokenization fails
        (the caller falls through to the parser for the real error)."""
        with self._lock:
            found = self._entries.get(sql)
            if found is not None:
                self._entries.move_to_end(sql)
                return found
        try:
            made = fingerprint(sql)
        except SQLSyntaxError:
            return None
        with self._lock:
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[sql] = made
        return made

    def demote(self, sql: str) -> None:
        """Pin ``sql``'s fingerprint as non-cacheable (normalization
        produced text the parser rejects — the raw path must run)."""
        with self._lock:
            found = self._entries.get(sql)
            if found is not None and found.cacheable:
                self._entries[sql] = Fingerprint(
                    found.text, found.keyword, found.recipe,
                    cacheable=False)


# ---------------------------------------------------------------------------
# Statement templates
# ---------------------------------------------------------------------------


def _walk_optional(expr: Optional[ast.Expression]):
    if expr is not None:
        yield from ast.walk_expression(expr)


def _reject_subqueries(*exprs: Optional[ast.Expression]) -> None:
    for expr in exprs:
        for node in _walk_optional(expr):
            if isinstance(node, (ast.Subquery, ast.InSubquery)):
                raise _NotCacheable("subquery")


def _scalar_factory(expr: ast.Expression) -> Callable:
    """Factory for a parameter/constant-only scalar (LIMIT, probe
    values, INSERT values): ``factory(params) -> value``."""
    inner = compile_scalar_factory(expr, Scope([]))
    return lambda params: inner(params)(())


@dataclass
class SelectTemplate:
    """A reusable single-table SELECT plan.

    Name resolution, ORDER BY key mapping, and closure codegen happened
    at build time; ``instantiate`` re-runs only the per-execution
    parts — locking, snapshot capture, access-path choice, and closure
    binding — and returns a fresh operator tree plus its
    :class:`PlanInfo`.  The access path of a unique-key equality is
    decided once per entry (see :class:`ProbeMemo`); every other shape
    is re-chosen from current statistics and the bound values.
    """

    table_name: str
    binding: str
    scope_columns: list[str]
    #: The WHERE conjuncts over this table alone, and each one's
    #: ``col OP constant`` match (None when it has another form).
    spec_conjuncts: list
    spec_matches: list
    predicate_factory: Optional[Callable]
    projection_factory: Callable
    out_columns: list[str]
    keys: Optional[list[tuple[int, bool]]] = None
    hidden_factory: Optional[Callable] = None
    distinct: bool = False
    limit_factory: Optional[Callable] = None
    offset_factory: Optional[Callable] = None
    tables: tuple[str, ...] = ()
    kind: str = "select"
    #: Adaptation class ("point" | "analytic"): routes the statement
    #: through the per-class engine override.
    query_class: str = "analytic"
    memo: ProbeMemo = field(default_factory=ProbeMemo)
    #: The table object the scope was last checked against.
    _scoped: Any = field(default=None, init=False, repr=False)

    def execute(self, db, params: tuple, state: str):
        txn, autocommit = db._txn()
        try:
            planner = Planner(db.catalog, view_parser=db._parse_view,
                              txn=txn,
                              engine=db.engine_for(self.query_class),
                              isolation=db.isolation)
            plan, info = self.instantiate(planner, params)
            info.cached = state
            rows = plan.to_list_batched() \
                if planner.engine == "vectorized" else list(plan)
            if autocommit:
                txn.commit()
            return db._result_set(list(plan.columns), rows, info)
        except BaseException:
            if autocommit:
                txn.abort()
            raise

    # -- plan assembly (mirrors Planner.plan for the supported shape) --------

    def instantiate(self, planner: Planner,
                    params: tuple) -> tuple[Operator, PlanInfo]:
        info = PlanInfo(exec_engine=planner.engine,
                        isolation=planner.isolation)
        try:
            table = planner.catalog.table(self.table_name)
        except CatalogError:
            raise StalePlanError(self.table_name) from None
        planner._lock_for_read(self.table_name, table)
        if table is not self._scoped:
            if [f"{self.binding}.{c}" for c in table.schema.names] \
                    != self.scope_columns:
                raise StalePlanError(self.table_name)
            self._scoped = table

        plan: Operator = self._source(planner, table, params, info)
        if self.predicate_factory is not None:
            predicate = self.predicate_factory(params)
            plan = Select(plan, predicate.row,
                          batch_predicate=predicate.batch,
                          rows_predicate=predicate.rows)
        if self.keys is not None:
            plan = self._order(plan, params, info)
        plan = _project(plan, self.out_columns,
                        self.projection_factory(params),
                        planner.engine == "vectorized", info)
        if self.distinct:
            plan = Distinct(plan)
        if self.limit_factory is not None \
                or self.offset_factory is not None:
            limit, offset = self._limit_bounds(params)
            plan = Limit(plan, limit, offset)
        return plan, info

    def _specs(self, table, params: tuple) -> list:
        schemas = {self.binding: table.schema}
        return [_predicate_spec(conjunct, self.binding, schemas, params)
                for conjunct in self.spec_conjuncts]

    def _source(self, planner: Planner, table, params: tuple,
                info: PlanInfo) -> Operator:
        """The rule-based leaf without usable statistics (same gate as
        the planner).  With them: the entry's unique-key probe bound to
        this execution's key while no columnar scan is legal, else a
        cost-based choice from current statistics and bound values."""
        stats_for = getattr(planner.catalog, "stats_for", None)
        stats = stats_for(self.table_name) if stats_for is not None \
            else None
        if stats is None or (stats.row_count == 0 and table.row_count):
            return planner._rule_source(
                table, self.binding, self._specs(table, params), info)
        columnar = planner._columnar_candidate(table)
        probe = self.memo.probe(table, stats, lambda: unique_probe(
            table, stats, self._specs(table, params),
            CostModel(buffer_pages=planner._buffer_pages()))) \
            if columnar is None else None
        if probe is None:
            choice = choose_access_path(
                table, stats, self._specs(table, params),
                CostModel(buffer_pages=planner._buffer_pages()),
                columnar=columnar)
            source = planner._choice_source(table, self.binding, choice)
        else:
            _, value = _constant_value(
                self.spec_matches[probe.position][2], params)
            choice = probe.choice(table, value)
            source = planner._index_source(
                table, self.scope_columns, probe.index, "eq",
                {"value": value})
        info.access_paths.append(choice.path)
        info.stores.append(_store_entry(self.binding, choice))
        info.estimates.append(
            _estimate_entry(self.table_name, self.binding, choice))
        info.join_order = [self.binding]
        info.estimated_rows = round(choice.est_rows, 1)
        info.estimated_cost = round(choice.cost, 2)
        info.cost_based = True
        return source

    def _limit_bounds(self, params: tuple) -> tuple[Optional[int], int]:
        limit = self.limit_factory(params) \
            if self.limit_factory is not None else None
        offset = self.offset_factory(params) \
            if self.offset_factory is not None else 0
        return limit, offset or 0

    def _order(self, plan: Operator, params: tuple,
               info: PlanInfo) -> Operator:
        def sort(child: Operator, keys: list) -> Operator:
            # DISTINCT above the sort forbids truncating it to a top-k.
            bounded = not self.distinct and self.limit_factory is not None
            return _sort(child, keys, self._limit_bounds(params)
                         if bounded else None, info)
        if self.hidden_factory is None:
            return sort(plan, list(self.keys))
        return _hidden_sort(plan, self.keys, self.hidden_factory(params),
                            sort)


@dataclass
class DmlTemplate:
    """A reusable UPDATE or DELETE.

    Assignment and residual-predicate closures are pre-lowered; victim
    selection still runs through :meth:`Planner.plan_dml` per execution
    so costed access paths, SIREAD ranges, and latch protocols are
    identical to the uncached executor.
    """

    kind: str                      # "update" | "delete"
    table_name: str
    where: Optional[ast.Expression]
    predicate_factory: Optional[Callable]
    #: UPDATE only: (column position, scalar factory) per assignment.
    assignment_factories: list[tuple[int, Callable]] = \
        field(default_factory=list)
    tables: tuple[str, ...] = ()
    query_class: str = "dml"
    memo: ProbeMemo = field(default_factory=ProbeMemo)

    def execute(self, db, params: tuple, state: str):
        table = db.catalog.table(self.table_name)
        txn, autocommit = db._txn()
        try:
            planner = Planner(db.catalog, view_parser=db._parse_view,
                              txn=txn,
                              engine=db.engine_for(self.query_class),
                              isolation=db.isolation)
            assignments = [(position, factory(params))
                           for position, factory
                           in self.assignment_factories]
            predicate = self.predicate_factory(params).row \
                if self.predicate_factory is not None else None
            db._lock_for_write(txn, self.table_name)
            plan = planner.plan_dml(self.table_name, self.where, params,
                                    memo=self.memo)
            if self.kind == "update":
                touched = db._apply_update(table, self.table_name,
                                           assignments, predicate, plan,
                                           txn, autocommit)
            else:
                touched = db._apply_delete(table, self.table_name,
                                           predicate, plan, txn,
                                           autocommit)
            if autocommit:
                txn.commit()
                db._maybe_autovacuum(self.table_name)
            return db._execution_result(self.kind, touched)
        except BaseException:
            if autocommit:
                txn.abort()
            raise


@dataclass
class InsertTemplate:
    """A reusable INSERT: column positions resolved and value closures
    lowered once; each execution binds parameters and appends rows
    (the ``executemany`` hot path)."""

    table_name: str
    #: Per VALUES row: list of (schema position, scalar factory).
    rows: list[list[tuple[int, Callable]]]
    arity: int
    tables: tuple[str, ...] = ()
    kind: str = "insert"
    query_class: str = "dml"

    def execute(self, db, params: tuple, state: str):
        table = db.catalog.table(self.table_name)
        if len(table.schema) != self.arity:
            raise StalePlanError(self.table_name)
        txn, autocommit = db._txn()
        try:
            db._lock_for_write(txn, self.table_name)
            inserted = 0
            for row_factories in self.rows:
                full = [None] * self.arity
                for position, factory in row_factories:
                    full[position] = factory(params)
                db._apply_insert(table, self.table_name, tuple(full),
                                 txn)
                inserted += 1
            if autocommit:
                txn.commit()
            return db._execution_result("insert", inserted)
        except BaseException:
            if autocommit:
                txn.abort()
            raise


# -- template builders --------------------------------------------------------


def build_template(statement: ast.Statement, db):
    """A reusable template for ``statement``, or None (bypass) when the
    shape is unsupported.  Build-time planner errors also yield bypass:
    the uncached path then raises the user-facing error."""
    try:
        if isinstance(statement, ast.SelectStatement):
            return _build_select(statement, db)
        if isinstance(statement, ast.Update):
            return _build_update(statement, db)
        if isinstance(statement, ast.Delete):
            return _build_delete(statement, db)
        if isinstance(statement, ast.Insert):
            return _build_insert(statement, db)
    except (_NotCacheable, SQLPlanError, CatalogError):
        return None
    return None


def _base_table(db, name: str):
    if not db.catalog.has_table(name):
        raise _NotCacheable(name)      # view, or missing (bypass errors)
    return db.catalog.table(name)


def _build_select(select: ast.SelectStatement, db) -> SelectTemplate:
    if select.table is None or select.joins or select.group_by \
            or select.having is not None:
        raise _NotCacheable("shape")
    if select.table.as_of is not None:
        raise _NotCacheable("as_of")
    for item in select.items:
        for node in _walk_optional(
                item.expression if not isinstance(item.expression,
                                                  ast.Star) else None):
            if isinstance(node, ast.FunctionCall):
                raise _NotCacheable("aggregate")
            if isinstance(node, (ast.Subquery, ast.InSubquery)):
                raise _NotCacheable("subquery")
    for order in select.order_by:
        for node in ast.walk_expression(order.expression):
            if isinstance(node,
                          (ast.FunctionCall, ast.Subquery,
                           ast.InSubquery)):
                raise _NotCacheable("order expression")
    _reject_subqueries(select.where, select.limit, select.offset)

    table = _base_table(db, select.table.name)
    binding = select.table.binding
    columns = [f"{binding}.{c}" for c in table.schema.names]
    scope = Scope(list(columns))

    conjuncts = _conjuncts(select.where) \
        if select.where is not None else []
    schemas = {binding: table.schema}
    spec_conjuncts = [c for c in conjuncts
                      if _conjunct_bindings(c, schemas) == {binding}]
    matches = [_index_match(conjunct, binding) for conjunct in conjuncts]

    predicate_factory = compile_predicate_factory(select.where, scope) \
        if select.where is not None else None

    keys, computed = _order_keys(select, scope) if select.order_by \
        else (None, [])
    hidden_factory = compile_projection_factory(
        list(range(len(columns))) + computed, scope) if computed else None
    out_columns, outputs = _select_outputs(select, scope)
    projection_factory = compile_projection_factory(outputs, scope)

    return SelectTemplate(
        table_name=select.table.name, binding=binding,
        scope_columns=columns, spec_conjuncts=spec_conjuncts,
        spec_matches=[_index_match(c, binding) for c in spec_conjuncts],
        predicate_factory=predicate_factory,
        projection_factory=projection_factory, out_columns=out_columns,
        keys=keys, hidden_factory=hidden_factory,
        distinct=select.distinct,
        limit_factory=_scalar_factory(select.limit)
        if select.limit is not None else None,
        offset_factory=_scalar_factory(select.offset)
        if select.offset is not None else None,
        tables=(select.table.name,),
        query_class="point" if any(
            match is not None and match[1] == "=" for match in matches)
        else "analytic")


def _build_update(statement: ast.Update, db) -> DmlTemplate:
    _reject_subqueries(statement.where,
                       *(expr for _, expr in statement.assignments))
    table = _base_table(db, statement.table)
    scope = Scope(list(table.schema.names))
    assignment_factories = [
        (table.schema.index_of(column),
         compile_scalar_factory(expr, scope))
        for column, expr in statement.assignments]
    predicate_factory = compile_predicate_factory(statement.where,
                                                  scope) \
        if statement.where is not None else None
    return DmlTemplate("update", statement.table, statement.where,
                       predicate_factory, assignment_factories,
                       tables=(statement.table,))


def _build_delete(statement: ast.Delete, db) -> DmlTemplate:
    _reject_subqueries(statement.where)
    table = _base_table(db, statement.table)
    scope = Scope(list(table.schema.names))
    predicate_factory = compile_predicate_factory(statement.where,
                                                  scope) \
        if statement.where is not None else None
    return DmlTemplate("delete", statement.table, statement.where,
                       predicate_factory, tables=(statement.table,))


def _build_insert(statement: ast.Insert, db) -> InsertTemplate:
    table = _base_table(db, statement.table)
    schema = table.schema
    columns = statement.columns or tuple(schema.names)
    positions = [schema.index_of(c) for c in columns]
    rows: list[list[tuple[int, Callable]]] = []
    for value_row in statement.rows:
        if len(value_row) != len(columns):
            raise _NotCacheable("arity")   # bypass raises the real error
        _reject_subqueries(*value_row)
        rows.append([(position, _scalar_factory(expr))
                     for position, expr in zip(positions, value_row)])
    return InsertTemplate(statement.table, rows, len(schema),
                          tables=(statement.table,))


# ---------------------------------------------------------------------------
# The plan cache proper
# ---------------------------------------------------------------------------


@dataclass
class CacheEntry:
    """One normalized statement: its parsed AST, optional template, and
    the catalog state the template was built against."""

    text: str
    statement: ast.Statement
    template: Optional[Any]
    ddl_version: int = 0
    stats_versions: dict[str, int] = field(default_factory=dict)
    has_stats: dict[str, bool] = field(default_factory=dict)
    engine: str = ""
    isolation: str = ""
    granularity: str = ""
    query_class: str = ""
    executions: int = 0


class PlanCache:
    """Thread-safe LRU of :class:`CacheEntry` keyed by normalized text.

    Lookups validate the entry against the live catalog (DDL version,
    per-table stats versions and presence) and the session-shaping
    settings it was built under; a failed check drops the entry and
    counts an invalidation, and the caller rebuilds.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.invalidations = 0
        self.evictions = 0

    # -- validation ----------------------------------------------------------

    def _valid(self, entry: CacheEntry, db) -> bool:
        if entry.template is None:
            return True           # a bare AST depends on nothing
        # The *effective* engine for this entry's query class — an
        # adaptive per-class override flip invalidates exactly the
        # cached plans it affects.
        if entry.engine != db.engine_for(entry.query_class) \
                or entry.isolation != db.isolation \
                or entry.granularity != db.lock_granularity:
            return False
        catalog = db.catalog
        if entry.ddl_version != getattr(catalog, "ddl_version", 0):
            return False
        versions = getattr(catalog, "stats_versions", {})
        for name in entry.template.tables:
            if entry.stats_versions.get(name) != versions.get(name, 0):
                return False
            if entry.has_stats.get(name) != \
                    (catalog.stats_for(name) is not None):
                return False
        return True

    # -- lookup / store ------------------------------------------------------

    def lookup(self, text: str, db) -> Optional[CacheEntry]:
        """A valid entry for ``text``, counting hit/bypass; None on
        miss or invalidation (caller rebuilds via :meth:`store`)."""
        with self._lock:
            entry = self._entries.get(text)
            if entry is None:
                return None
            if not self._valid(entry, db):
                del self._entries[text]
                self.invalidations += 1
                return None
            self._entries.move_to_end(text)
            entry.executions += 1
            if entry.template is None:
                self.bypasses += 1
            else:
                self.hits += 1
            return entry

    def store(self, text: str, statement: ast.Statement, template,
              db) -> CacheEntry:
        entry = CacheEntry(text, statement, template)
        if template is not None:
            catalog = db.catalog
            entry.ddl_version = getattr(catalog, "ddl_version", 0)
            versions = getattr(catalog, "stats_versions", {})
            for name in template.tables:
                entry.stats_versions[name] = versions.get(name, 0)
                entry.has_stats[name] = \
                    catalog.stats_for(name) is not None
            entry.query_class = getattr(template, "query_class", "")
            entry.engine = db.engine_for(entry.query_class)
            entry.isolation = db.isolation
            entry.granularity = db.lock_granularity
        entry.executions = 1
        with self._lock:
            if template is None:
                self.bypasses += 1
            else:
                self.misses += 1
            if self.capacity <= 0:
                return entry     # cache disabled: plan, don't retain
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[text] = entry
        return entry

    def resize(self, capacity: int) -> None:
        """Change capacity online; shrinking evicts LRU immediately so
        the memory bound holds as soon as the knob lands."""
        with self._lock:
            self.capacity = capacity
            while len(self._entries) > max(capacity, 0):
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, text: str) -> None:
        """Drop one entry (stale-plan recovery)."""
        with self._lock:
            if text in self._entries:
                del self._entries[text]
                self.invalidations += 1

    def clear(self) -> None:
        """Drop everything (catalog replaced, e.g. by recovery)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "bypasses": self.bypasses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "hit_rate": round(self.hits / lookups, 4)
                if lookups else 0.0,
            }
