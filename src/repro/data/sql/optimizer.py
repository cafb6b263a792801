"""Cost-based physical planning: selectivity, cost model, join ordering.

The planner splits query compilation into a *logical* step (which tables,
which predicates, which join edges) and a *physical* step (which access
path per table, which join order, which join algorithm).  This module is
the physical step's brain:

- :func:`fold_intervals` merges all bounds on one column into a single
  interval, so two conjuncts on the same column are estimated, probed
  and pushed down as the one dependent event they are;
- :class:`SelectivityEstimator` turns predicate shapes into expected
  row fractions using the ANALYZE snapshots in the catalog
  (:mod:`repro.data.sql.stats`), with textbook defaults when a value or
  histogram is unavailable;
- :class:`CostModel` prices sequential pages, index probes, and join
  algorithms, aware of the buffer pool size (a table that fits in the
  pool pays sequential-read cost even for "random" probes) and of how
  closely heap order follows key order;
- :func:`choose_access_path` picks heap scan vs index equality vs index
  range per table reference, :func:`rule_access_path` is its
  statistics-free fallback, and :func:`unique_probe` recognises the
  statement shapes whose choice no binding can change;
- :func:`order_joins` greedily orders inner equi-join graphs by
  estimated intermediate cardinality and selects hash vs nested-loop
  per step.

Everything here is pure estimation over plain data — operator
construction stays in :mod:`repro.data.sql.planner`, which consumes the
:class:`ScanChoice` / :class:`JoinStep` decisions this module emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.data.sql.stats import ColumnStats, TableStats, orderable

# Default selectivities when no statistics (or no comparable value) are
# available — the classical System R constants.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.25


# ---------------------------------------------------------------------------
# Predicate shapes (built by the planner from WHERE/ON conjuncts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateSpec:
    """One single-table conjunct in estimator-friendly form.

    ``op`` is one of ``= < <= > >= between isnull notnull in other``;
    ``value`` holds the comparison constant (or item count for ``in``),
    ``low``/``high`` the ``between`` bounds.  SQL BETWEEN is closed;
    folding ``col > a AND col < b`` yields an open ``between``, and a
    ``between`` with a NULL bound is never TRUE (how a folded empty
    interval is spelled).
    """

    column: str
    op: str
    value: object = None
    low: object = None
    high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def bounds(self) -> tuple[Optional[tuple], Optional[tuple]]:
        """``(low, high)`` of a sargable spec, each ``(value,
        inclusive)`` or None for an open side."""
        if self.op == "between":
            return ((self.low, self.low_inclusive),
                    (self.high, self.high_inclusive))
        if self.op == "=":
            return (self.value, True), (self.value, True)
        if self.op in (">", ">="):
            return (self.value, self.op == ">="), None
        return None, (self.value, self.op == "<=")

    def describe(self) -> str:
        """The interval as EXPLAIN prints it."""
        if self.op != "between":
            return f"{self.column} {self.op} {self.value!r}"
        if self.low is None or self.high is None:
            return f"{self.column} empty"
        return (f"{self.low!r} {'<=' if self.low_inclusive else '<'} "
                f"{self.column} "
                f"{'<=' if self.high_inclusive else '<'} {self.high!r}")


#: Ops that bound their column to an interval an index can walk.
INTERVAL_OPS = frozenset({"=", "<", "<=", ">", ">=", "between"})


def _fold_column(column: str,
                 group: list[PredicateSpec]) -> Optional[PredicateSpec]:
    """The one spec equivalent to ``group`` (all bounds on ``column``),
    or None when the bound values do not share one ordered type."""
    bounds = [spec.bounds() for spec in group]
    lows = [low for low, _ in bounds if low is not None]
    highs = [high for _, high in bounds if high is not None]
    values = [value for value, _ in lows + highs]
    never = PredicateSpec(column, "between")
    if any(value is None for value in values):
        return never    # a comparison with NULL is never TRUE
    if not orderable(values):
        return None
    # Tightest bound per side; at equal values the exclusive one wins.
    low = max(lows, key=lambda b: (b[0], not b[1])) if lows else None
    high = min(highs) if highs else None
    if high is None:
        return PredicateSpec(column, ">=" if low[1] else ">", low[0])
    if low is None:
        return PredicateSpec(column, "<=" if high[1] else "<", high[0])
    if low[0] > high[0] or (low[0] == high[0]
                            and not (low[1] and high[1])):
        return never
    if low[0] == high[0]:
        return PredicateSpec(column, "=", low[0])
    return PredicateSpec(column, "between", low=low[0], high=high[0],
                         low_inclusive=low[1], high_inclusive=high[1])


def fold_intervals(specs: list[PredicateSpec]) -> list[PredicateSpec]:
    """Merge every column's bounds (``= < <= > >= between``) into one
    interval spec.

    Two bounds on one column are not independent events — ``id > 10
    AND id < 20`` keeps the rows between, not a third of a third — so
    everything downstream (selectivity, the index range, zone-map
    pushdown) sees one spec per column.  Columns with a single bound,
    and bounds of mixed types (no common order to intersect in), pass
    through untouched.
    """
    if len(specs) < 2:
        return specs
    groups: dict[str, list[PredicateSpec]] = {}
    for spec in specs:
        if spec.op in INTERVAL_OPS:
            groups.setdefault(spec.column, []).append(spec)
    if all(len(group) < 2 for group in groups.values()):
        return specs
    folded = []
    for spec in specs:
        group = groups.get(spec.column) \
            if spec.op in INTERVAL_OPS else None
        if group is None or len(group) < 2:
            folded.append(spec)
        elif spec is group[0]:
            merged = _fold_column(spec.column, group)
            folded.extend(group if merged is None else [merged])
    return folded


# ---------------------------------------------------------------------------
# Selectivity
# ---------------------------------------------------------------------------


class SelectivityEstimator:
    """Maps predicate specs to row fractions using a table's statistics."""

    def __init__(self, stats: Optional[TableStats]) -> None:
        self.stats = stats

    def _column(self, name: str) -> Optional[ColumnStats]:
        if self.stats is None:
            return None
        return self.stats.column(name)

    def conjunct(self, spec: PredicateSpec) -> float:
        column = self._column(spec.column)
        if spec.op == "=":
            if column is not None and column.n_distinct > 0:
                return column.eq_selectivity(spec.value)
            return DEFAULT_EQ_SELECTIVITY
        if spec.op in ("<", "<=", ">", ">="):
            if column is not None and column.histogram:
                return column.range_selectivity(spec.op, spec.value)
            return DEFAULT_RANGE_SELECTIVITY
        if spec.op == "between":
            if spec.low is None or spec.high is None:
                return 0.0
            if column is not None and column.histogram:
                return column.between_selectivity(
                    spec.low, spec.high, spec.low_inclusive,
                    spec.high_inclusive)
            return DEFAULT_RANGE_SELECTIVITY / 2
        if spec.op == "isnull":
            return column.null_fraction if column is not None \
                else DEFAULT_EQ_SELECTIVITY
        if spec.op == "notnull":
            return (1.0 - column.null_fraction) if column is not None \
                else 1.0 - DEFAULT_EQ_SELECTIVITY
        if spec.op == "in":
            per_item = (column.eq_selectivity()
                        if column is not None and column.n_distinct > 0
                        else DEFAULT_EQ_SELECTIVITY)
            count = spec.value if isinstance(spec.value, int) else 1
            return min(1.0, per_item * max(count, 1))
        return DEFAULT_SELECTIVITY

    def combined(self, specs: list[PredicateSpec]) -> float:
        """Independence-assumption product over folded conjuncts (see
        :func:`fold_intervals`: independence is assumed *across*
        columns, never between two bounds on one)."""
        selectivity = 1.0
        for spec in specs:
            selectivity *= self.conjunct(spec)
        return selectivity

    def n_distinct(self, column_name: str) -> int:
        column = self._column(column_name)
        if column is not None and column.n_distinct > 0:
            return column.n_distinct
        if self.stats is not None:
            return max(self.stats.row_count, 1)
        return 1


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass
class CostModel:
    """Disk/CPU cost constants in "sequential page read" units.

    ``buffer_pages`` makes the model buffer-pool-aware: when a table's
    pages all fit in the pool, repeated "random" probes hit cache, so
    they are charged at sequential rather than random cost.
    """

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_operator_cost: float = 0.0025
    hash_entry_cost: float = 0.015
    #: Per-victim surcharge of an UPDATE/DELETE on top of its access
    #: path: row lock, snapshot re-read, version create/stamp, index
    #: maintenance.  Identical across candidate paths, so it shifts DML
    #: estimates without ever changing the access-path choice.
    cpu_dml_tuple_cost: float = 0.02
    buffer_pages: int = 256

    def random_page(self, table_pages: int) -> float:
        if table_pages <= self.buffer_pages:
            return self.seq_page_cost
        return self.random_page_cost

    @staticmethod
    def _btree_height(rows: float) -> float:
        # ~100-way fanout; at least root + leaf.
        return max(2.0, math.log(max(rows, 2.0), 100) + 1.0)

    def seq_scan(self, pages: int, rows: float) -> float:
        return pages * self.seq_page_cost + rows * self.cpu_tuple_cost

    def columnar_scan(self, pages: int, rows: float) -> float:
        """Scan of a table's columnar mirror: only zone-map-admitted
        pages are read, and encoded evaluation (dictionary codes, runs)
        is charged per *operation*, not per materialised tuple."""
        return pages * self.seq_page_cost + rows * self.cpu_operator_cost

    def index_scan(self, pages: int, rows: float, matching_rows: float,
                   correlation: float = 0.0) -> float:
        """An index probe plus the heap pages its matches touch.

        Scattered matches (``correlation`` 0) cost one page each; when
        heap order follows key order (±1) they sit in one run of
        ``selectivity × pages`` pages plus the page the run starts in.
        In between, interpolate on correlation², as PostgreSQL does.
        """
        random_page = self.random_page(pages)
        touched = matching_rows
        if matching_rows > 1.0:     # a lone match is one page anywhere
            run_pages = matching_rows / rows * pages + 1.0
            if run_pages < matching_rows:
                touched += correlation * correlation \
                    * (run_pages - matching_rows)
        return (self._btree_height(rows) + touched) * random_page \
            + matching_rows * self.cpu_tuple_cost

    def dml_overhead(self, matching_rows: float) -> float:
        """Write-side cost an UPDATE/DELETE adds to its chosen access
        path (see :attr:`cpu_dml_tuple_cost`)."""
        return matching_rows * self.cpu_dml_tuple_cost

    def hash_join(self, outer_rows: float, inner_rows: float,
                  out_rows: float) -> float:
        build = inner_rows * (self.cpu_tuple_cost + self.hash_entry_cost)
        probe = outer_rows * (self.cpu_tuple_cost + self.cpu_operator_cost)
        return build + probe + out_rows * self.cpu_tuple_cost

    def nested_loop(self, outer_rows: float, inner_rows: float,
                    out_rows: float) -> float:
        compares = outer_rows * max(inner_rows, 1.0) \
            * self.cpu_operator_cost
        return compares + out_rows * self.cpu_tuple_cost


# ---------------------------------------------------------------------------
# Access path choice
# ---------------------------------------------------------------------------


@dataclass
class ScanChoice:
    """The physical access path selected for one table reference."""

    kind: str                  # seq | index_eq | index_range | columnar
    path: str                  # explain string, e.g. "index_eq(t.id)"
    cost: float = 0.0
    est_rows: float = 0.0      # rows after ALL pushable filters
    #: Index paths: the folded interval being probed (its ``bounds()``
    #: are the range-scan bounds) and the heap-order correlation the
    #: fetches were priced with.
    interval: Optional[PredicateSpec] = None
    correlation: float = 0.0
    #: Columnar scans carry the pushable conjuncts: zone maps skip
    #: blocks and encoded evaluation pre-filters rows with them.
    specs: tuple = ()
    #: Index paths: the index walked.
    index: Any = None


def _record_sightings(table, specs: list[PredicateSpec]) -> None:
    """Workload observation: every sargable conjunct planned is a
    predicate sighting — whether or not an index exists yet.  That
    asymmetry is the point: the index advisor reads these counts to
    find columns that are filtered often but have no index."""
    record = getattr(table, "record_predicate", None)
    if record is not None:
        for spec in specs:
            if spec.column and spec.op != "other":
                record(spec.column, spec.op)


def _index_path(table, spec: PredicateSpec) -> Optional[tuple]:
    """``(kind, index)`` when an index of ``table`` can walk ``spec``'s
    interval (``index_eq`` or ``index_range``), else None."""
    if spec.op not in INTERVAL_OPS:
        return None
    kind = "index_eq" if spec.op == "=" else "index_range"
    index = table.index_on((spec.column,),
                           require_btree=kind == "index_range")
    return None if index is None else (kind, index)


def choose_access_path(table, stats: TableStats,
                       specs: list[PredicateSpec],
                       cost_model: CostModel,
                       columnar=None) -> ScanChoice:
    """Pick the cheapest access path for a base table.

    ``specs`` are the single-table conjuncts, folded here to one
    interval per column; each interval whose column has a matching
    index generates an index candidate, and a valid columnar mirror
    (``columnar`` is the table's store when usable) generates a
    columnar-scan candidate priced by its zone-map skipping estimate.
    The estimated output cardinality (used for join ordering) is the
    same for every candidate — it reflects all filters — only the cost
    differs.
    """
    _record_sightings(table, specs)
    specs = fold_intervals(specs)
    estimator = SelectivityEstimator(stats)
    rows = float(stats.row_count)
    pages = max(stats.page_count, 1)
    out_rows = max(rows * estimator.combined(specs), 0.0)

    best = ScanChoice("seq", f"seq_scan({table.name})",
                      cost_model.seq_scan(pages, rows), out_rows)
    if columnar is not None:
        fraction, col_pages = columnar.admitted_fraction(specs)
        cost = cost_model.columnar_scan(col_pages, rows * fraction)
        if cost < best.cost:
            best = ScanChoice("columnar",
                              f"columnar_scan({table.name})",
                              cost, out_rows, specs=tuple(specs))
    for spec in specs:
        found = _index_path(table, spec)
        if found is None:
            continue
        kind, index = found
        column = stats.column(spec.column)
        correlation = column.correlation if column is not None else 0.0
        cost = cost_model.index_scan(
            pages, rows, rows * estimator.conjunct(spec), correlation)
        if cost < best.cost:
            best = ScanChoice(kind, f"{kind}({table.name}.{spec.column})",
                              cost, out_rows, spec, correlation,
                              index=index)
    return best


@dataclass(frozen=True)
class UniqueProbe:
    """An access path no binding can change (see :func:`unique_probe`);
    :meth:`choice` prices one bound key value exactly as
    :func:`choose_access_path` would price the whole binding."""

    index: Any
    position: int              # the key equality's place in the specs
    shape: tuple               # the specs decided for (sightings only)
    path: str
    rows: float
    pages: int
    correlation: float
    estimator: SelectivityEstimator
    cost_model: CostModel
    #: The other specs' selectivities before and after the key's, in
    #: spec order, so the product is bit-identical to ``combined``.
    before: float
    after: tuple

    def choice(self, table, value: Any) -> ScanChoice:
        _record_sightings(table, self.shape)
        key = PredicateSpec(self.shape[self.position].column, "=", value)
        selectivity = self.estimator.conjunct(key)
        combined = self.before * selectivity
        for factor in self.after:
            combined *= factor
        cost = self.cost_model.index_scan(
            self.pages, self.rows, self.rows * selectivity,
            self.correlation)
        return ScanChoice("index_eq", self.path, cost,
                          max(self.rows * combined, 0.0), key,
                          self.correlation, index=self.index)


def unique_probe(table, stats: TableStats, specs: list[PredicateSpec],
                 cost_model: CostModel) -> Optional[UniqueProbe]:
    """The access path of ``specs``' shape (columns and ops; the values
    are ignored) when every binding gets it from
    :func:`choose_access_path` and the key value alone prices it: the
    one interval spec is ``=`` on the whole key of a unique index (at
    most one match), nothing folds, every other selectivity is
    binding-free, and the probe at its most expensive beats the heap
    scan.  A columnar scan is the one candidate this cannot rule out:
    callers use the probe only while none is legal."""
    positions = [position for position, spec in enumerate(specs)
                 if spec.op in INTERVAL_OPS]
    if len(positions) != 1 or specs[positions[0]].op != "=":
        return None
    position = positions[0]
    column = specs[position].column
    found = _index_path(table, specs[position])
    if found is None or not found[1].definition.unique:
        return None
    estimator = SelectivityEstimator(stats)
    rows = float(stats.row_count)
    pages = max(stats.page_count, 1)
    column_stats = stats.column(column)
    correlation = column_stats.correlation \
        if column_stats is not None else 0.0
    # An unbound ``=`` is priced like any in-range value: the most an
    # equality selectivity gets (out-of-range values estimate 0 rows).
    most = rows * estimator.conjunct(PredicateSpec(column, "="))
    if cost_model.index_scan(pages, rows, most, correlation) \
            >= cost_model.seq_scan(pages, rows):
        return None
    return UniqueProbe(found[1], position, tuple(specs),
                       f"index_eq({table.name}.{column})", rows, pages,
                       correlation, estimator, cost_model,
                       estimator.combined(specs[:position]),
                       tuple(estimator.conjunct(spec)
                             for spec in specs[position + 1:]))


def rule_access_path(table, specs: list[PredicateSpec],
                     columnar=None) -> ScanChoice:
    """Access path without statistics: the first interval an index can
    serve, else the columnar mirror when valid, else the heap scan."""
    _record_sightings(table, specs)
    specs = fold_intervals(specs)
    for spec in specs:
        found = _index_path(table, spec)
        if found is not None:
            kind, index = found
            return ScanChoice(kind, f"{kind}({table.name}.{spec.column})",
                              interval=spec, index=index)
    if columnar is not None:
        return ScanChoice("columnar", f"columnar_scan({table.name})",
                          specs=tuple(specs))
    return ScanChoice("seq", f"seq_scan({table.name})")


# ---------------------------------------------------------------------------
# Join ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join conjunct connecting two relations.

    Columns are binding-qualified display names ("e.dept"); ``ndv``
    values come from the base tables' statistics.
    """

    left_rel: int
    right_rel: int
    left_column: str
    right_column: str
    left_ndv: int
    right_ndv: int


@dataclass
class JoinStep:
    """One step of the chosen left-deep join sequence."""

    relation: int              # index of the relation joined in
    method: str                # hash | nested_loop (cross when no edge)
    edges: list[JoinEdge] = field(default_factory=list)
    est_rows: float = 0.0      # cardinality after this step
    cost: float = 0.0


def order_joins(rel_rows: list[float], edges: list[JoinEdge],
                cost_model: CostModel) -> tuple[int, list[JoinStep]]:
    """Greedy left-deep join ordering by estimated cardinality.

    Starts from the smallest relation and repeatedly joins in the
    not-yet-joined relation that yields the smallest intermediate
    result, preferring connected relations over cross products.
    Returns the starting relation index and the step list.
    """
    count = len(rel_rows)
    start = min(range(count), key=lambda i: rel_rows[i])
    joined = {start}
    card = max(rel_rows[start], 0.0)
    steps: list[JoinStep] = []
    while len(joined) < count:
        candidates = []
        for j in range(count):
            if j in joined:
                continue
            connecting = [e for e in edges
                          if (e.left_rel in joined and e.right_rel == j)
                          or (e.right_rel in joined and e.left_rel == j)]
            selectivity = 1.0
            for edge in connecting:
                selectivity /= max(edge.left_ndv, edge.right_ndv, 1)
            out = card * max(rel_rows[j], 0.0) * selectivity
            candidates.append((not connecting, out, j, connecting))
        # Sort order: connected first, then smallest intermediate,
        # then syntactic position for determinism.
        candidates.sort()
        _, out, j, connecting = candidates[0]
        hash_cost = cost_model.hash_join(card, rel_rows[j], out)
        loop_cost = cost_model.nested_loop(card, rel_rows[j], out)
        if connecting and hash_cost <= loop_cost:
            method = "hash"
            cost = hash_cost
        else:
            method = "nested_loop"
            cost = loop_cost
        steps.append(JoinStep(j, method, connecting, out, cost))
        joined.add(j)
        card = out
    return start, steps
