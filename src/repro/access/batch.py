"""Columnar row batches for the vectorized execution engine.

A :class:`RowBatch` is the unit of exchange between batch-native
operators: a tuple of column value lists, all the same length, holding
up to :data:`BATCH_SIZE` rows.  Batches amortise Python's per-row
interpreter dispatch — one operator call processes ~1024 rows, column
projections are list re-references (zero copy), and an aggregate takes
a whole column per call: COUNT and MIN/MAX use C-speed builtins
(``list.count``/``min``/``max``), while SUM/AVG add value by value onto
the running total, because float addition is not associative and the
row engine's order must be kept.

Batches built from row tuples (scans, join outputs) are **lazily
columnar**: the row list is kept and a column is transposed out only
when an operator first touches it.  A ``COUNT(*)`` over a wide join
output therefore never pays for a single transpose, while a filter
materialises exactly the columns its predicate reads.

Batches are *immutable by convention*: operators never mutate a column
list they received, they build new lists (or re-reference old ones).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

BATCH_SIZE = 1024


class _ColumnView:
    """Lazy columnar view over a list of row tuples: transposes one
    column on first access and caches it."""

    __slots__ = ("rows", "arity", "_cache")

    def __init__(self, rows: Sequence[tuple], arity: int) -> None:
        self.rows = rows
        self.arity = arity
        self._cache: dict[int, list] = {}

    def __getitem__(self, index: int) -> list:
        column = self._cache.get(index)
        if column is None:
            if index < 0 or index >= self.arity:
                raise IndexError(index)
            column = self._cache[index] = [row[index] for row in self.rows]
        return column

    def __len__(self) -> int:
        return self.arity

    def __iter__(self) -> Iterator[list]:
        return (self[i] for i in range(self.arity))


class RowBatch:
    """A fixed window of rows in columnar form.

    ``columns`` is a tuple of equal-length value lists — or a lazy
    :class:`_ColumnView` for row-built batches; ``num_rows`` is tracked
    explicitly so zero-column batches (e.g. ``SELECT`` without FROM)
    still know their cardinality.  ``rows`` is the row-major backing
    when the batch was built from tuples (``None`` for columnar-built
    batches).
    """

    __slots__ = ("columns", "num_rows", "rows")

    def __init__(self, columns: Sequence[list], num_rows: int) -> None:
        self.columns = columns if isinstance(columns, _ColumnView) \
            else tuple(columns)
        self.num_rows = num_rows
        self.rows: Optional[Sequence[tuple]] = None

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], arity: int) -> "RowBatch":
        """Wrap row tuples without transposing; columns appear on demand."""
        if arity == 0:
            return cls((), len(rows))
        batch = cls.__new__(cls)
        batch.columns = _ColumnView(rows, arity)
        batch.num_rows = len(rows)
        batch.rows = rows
        return batch

    # -- row views -------------------------------------------------------------

    def iter_rows(self) -> Iterator[tuple]:
        """Yield the batch's rows as tuples."""
        if self.rows is not None:
            return iter(self.rows)
        if not self.columns:
            return iter([()] * self.num_rows)
        return zip(*self.columns)

    def to_rows(self) -> list[tuple]:
        return list(self.iter_rows())

    def row(self, i: int) -> tuple:
        if self.rows is not None:
            return self.rows[i]
        if not self.columns:
            return ()
        return tuple(column[i] for column in self.columns)

    # -- columnar transforms ---------------------------------------------------

    def take(self, indices: Sequence[int]) -> "RowBatch":
        """New batch holding the given row positions (in the given order)."""
        if self.rows is not None:
            rows = self.rows
            return RowBatch.from_rows([rows[i] for i in indices],
                                      len(self.columns))
        if not self.columns:
            return RowBatch((), len(indices))
        return RowBatch(
            tuple([column[i] for i in indices] for column in self.columns),
            len(indices))

    def project(self, positions: Sequence[int]) -> "RowBatch":
        """New batch over a subset/permutation of columns (zero copy for
        columnar batches; lazy batches materialise only the projected
        columns)."""
        return RowBatch(tuple(self.columns[p] for p in positions),
                        self.num_rows)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"<RowBatch {len(self.columns)}x{self.num_rows}>"


def batches_from_rows(rows: Iterable[tuple], arity: int,
                      batch_rows: int = BATCH_SIZE) -> Iterator[RowBatch]:
    """Chunk a row iterator into batches (the row→batch adapter)."""
    chunk: list[tuple] = []
    append = chunk.append
    for row in rows:
        append(row)
        if len(chunk) >= batch_rows:
            yield RowBatch.from_rows(chunk, arity)
            chunk = []
            append = chunk.append
    if chunk:
        yield RowBatch.from_rows(chunk, arity)
