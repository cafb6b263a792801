"""Table and column statistics for cost-based query optimization.

``ANALYZE`` scans a table once and distils it into a :class:`TableStats`:
row and page counts plus, per column, null fraction, distinct-value
count, min/max, a small equi-depth histogram, and the correlation
between value order and heap order.  The planner's
selectivity estimator (:mod:`repro.data.sql.optimizer`) reads these to
predict how many rows a predicate keeps and how large a join result
gets; the catalog persists them alongside the schema so estimates
survive a restart.

Statistics are a snapshot: they describe the table as of the last
ANALYZE and drift as data changes, which is the classical trade-off —
cheap to keep, refreshed explicitly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Optional

# Number of boundary values kept per histogram.  Boundaries delimit
# HISTOGRAM_BOUNDS - 1 equi-depth buckets; small enough to serialise
# into the catalog blob, large enough to see skew.
HISTOGRAM_BOUNDS = 17


def orderable(values: list) -> bool:
    """True when the values share one comparable, JSON-safe type (the
    catalog persists histograms as JSON).  ``bool`` is its own kind:
    Python orders it with the numbers, the index key codec does not."""
    kinds = {type(v) for v in values}
    if not kinds:
        return False
    if kinds <= {int, float}:
        return True
    return kinds == {str}


@dataclass
class ColumnStats:
    """Distribution summary for one column."""

    null_fraction: float = 0.0
    n_distinct: int = 0
    minimum: Any = None
    maximum: Any = None
    #: Sorted equi-depth boundary values: histogram[0] is the min,
    #: histogram[-1] the max, with (roughly) equal row counts between
    #: consecutive boundaries.  Empty when the column is unorderable.
    histogram: list = field(default_factory=list)
    #: Rank correlation between value order and heap scan order as of
    #: the last ANALYZE: ±1 when rows sit on disk in key order (a range
    #: of keys is a run of pages), 0 when scattered (one page per row).
    correlation: float = 0.0

    # -- selectivity ------------------------------------------------------

    def eq_selectivity(self, value: Any = None) -> float:
        """Fraction of rows expected to satisfy ``col = value``."""
        if self.n_distinct <= 0:
            return 0.0
        if value is not None and self.minimum is not None:
            try:
                if value < self.minimum or value > self.maximum:
                    return 0.0
            except TypeError:
                pass
        return (1.0 - self.null_fraction) / self.n_distinct

    def fraction_below(self, value: Any, inclusive: bool = False) -> float:
        """Fraction of non-null rows with ``col < value`` (or <=).

        Interpolates inside the matching equi-depth bucket, so skew that
        the histogram captured is reflected in the estimate.
        """
        hist = self.histogram
        if len(hist) < 2:
            return 0.5
        try:
            # bisect over the boundary list handles duplicated
            # boundaries (heavy skew packs many equal values).
            locate = bisect_right if inclusive else bisect_left
            position = locate(hist, value)
        except TypeError:
            return 0.5
        if position <= 0:
            return 0.0
        if position >= len(hist):
            return 1.0
        buckets = len(hist) - 1
        lo, hi = hist[position - 1], hist[position]
        within = 0.5
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) \
                and hi > lo:
            within = (value - lo) / (hi - lo)
        return ((position - 1) + min(max(within, 0.0), 1.0)) / buckets

    def range_selectivity(self, op: str, value: Any) -> float:
        """Selectivity of ``col OP value`` for an inequality operator."""
        not_null = 1.0 - self.null_fraction
        if op in ("<", "<="):
            fraction = self.fraction_below(value, inclusive=op == "<=")
        else:
            fraction = 1.0 - self.fraction_below(value,
                                                 inclusive=op == ">")
        return max(0.0, min(1.0, fraction)) * not_null

    def between_selectivity(self, low: Any, high: Any,
                            low_inclusive: bool = True,
                            high_inclusive: bool = True) -> float:
        """Selectivity of one interval: the two bounds are dependent
        events on one column, so the fractions subtract (crossed
        bounds keep nothing)."""
        not_null = 1.0 - self.null_fraction
        fraction = self.fraction_below(high, inclusive=high_inclusive) - \
            self.fraction_below(low, inclusive=not low_inclusive)
        return max(0.0, min(1.0, fraction)) * not_null

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"null_fraction": self.null_fraction,
                "n_distinct": self.n_distinct,
                "min": self.minimum, "max": self.maximum,
                "histogram": list(self.histogram),
                "correlation": self.correlation}

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnStats":
        return cls(data.get("null_fraction", 0.0),
                   data.get("n_distinct", 0),
                   data.get("min"), data.get("max"),
                   list(data.get("histogram", ())),
                   data.get("correlation", 0.0))


@dataclass
class TableStats:
    """Per-table snapshot produced by ANALYZE."""

    row_count: int = 0
    page_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def to_dict(self) -> dict:
        return {"row_count": self.row_count,
                "page_count": self.page_count,
                "columns": {name: c.to_dict()
                            for name, c in self.columns.items()}}

    @classmethod
    def from_dict(cls, data: dict) -> "TableStats":
        return cls(data.get("row_count", 0), data.get("page_count", 0),
                   {name: ColumnStats.from_dict(c)
                    for name, c in data.get("columns", {}).items()})


def build_histogram(values: list, bounds: int = HISTOGRAM_BOUNDS) -> list:
    """Equi-depth boundaries over ``values`` (sorted, non-null)."""
    if not values:
        return []
    if len(values) <= bounds:
        return list(values)
    step = (len(values) - 1) / (bounds - 1)
    return [values[round(i * step)] for i in range(bounds)]


def order_correlation(order: list[int], values: list) -> float:
    """Pearson correlation between heap position and value rank.

    ``order`` is the stable argsort of ``values`` (which are in heap
    scan order); equal values share their mean rank, so a two-valued
    column scattered over the heap reads as 0, not as half-sorted.
    """
    count = len(order)
    if count < 2:
        return 0.0
    mean = (count - 1) / 2.0
    covariance = rank_variance = 0.0
    start = 0
    while start < count:
        end = start + 1
        value = values[order[start]]
        while end < count and values[order[end]] == value:
            end += 1
        rank = (start + end - 1) / 2.0 - mean
        covariance += rank * (sum(order[start:end]) - (end - start) * mean)
        rank_variance += rank * rank * (end - start)
        start = end
    position_variance = count * (count * count - 1) / 12.0
    if rank_variance <= 0.0:
        return 0.0
    return covariance / math.sqrt(rank_variance * position_variance)


def collect_table_stats(table) -> TableStats:
    """Scan ``table`` once and summarise it (the ANALYZE workhorse)."""
    names = list(table.schema.names)
    per_column: list[list] = [[] for _ in names]
    nulls = [0] * len(names)
    rows = 0
    for row in table.rows():
        rows += 1
        for i, value in enumerate(row):
            if value is None:
                nulls[i] += 1
            else:
                per_column[i].append(value)
    stats = TableStats(row_count=rows,
                       page_count=max(table.heap.num_pages(), 1))
    for i, name in enumerate(names):
        values = per_column[i]
        column = ColumnStats(
            null_fraction=(nulls[i] / rows) if rows else 0.0,
            n_distinct=len(set(values)))
        if values and orderable(values):
            order = sorted(range(len(values)), key=values.__getitem__)
            column.correlation = order_correlation(order, values)
            values = [values[j] for j in order]
            column.minimum = values[0]
            column.maximum = values[-1]
            column.histogram = build_histogram(values)
        stats.columns[name] = column
    return stats
