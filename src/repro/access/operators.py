"""Relational operators: Volcano-style row iterators + a batch engine.

The paper's Access Services layer is "responsible for higher level
operations, such as joins, selections, and sorting of record sets"; these
operators implement exactly that, over plain tuple iterators so they
compose freely.  Each operator is a restartable iterable: calling
:meth:`Operator.__iter__` re-executes it, which blocking operators (sort,
hash build) exploit for rescans in nested loops.

Every operator additionally exposes :meth:`Operator.batches`, the
**vectorized** execution surface: operators exchange
:class:`~repro.access.batch.RowBatch` objects (~1024 rows in columnar
form) so per-row interpreter dispatch is amortised across a whole batch.
Batch-native operators (select/project/join/aggregate/sort/limit/
distinct) override ``batches()``; everything else inherits the row→batch
adapter, so the two engines compose freely in one tree and DML/legacy
callers keep the one-row API.

Operators work on tuples and carry a ``columns`` list so downstream
operators and the SQL executor can resolve names positionally.
"""

from __future__ import annotations

import heapq
import math

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.access.batch import BATCH_SIZE, RowBatch, batches_from_rows
from repro.errors import AccessError


class Operator:
    """Base class: an iterable of tuples with named columns."""

    columns: list[str]

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError

    def batches(self) -> Iterator[RowBatch]:
        """Batch adapter: chunk the row iterator.

        Batch-native operators override this; the default keeps any
        row-only operator usable inside a vectorized plan.
        """
        return batches_from_rows(iter(self), len(self.columns))

    def to_list(self) -> list[tuple]:
        return list(self)

    def to_list_batched(self) -> list[tuple]:
        """Materialise through the batch engine (vectorized execution)."""
        out: list[tuple] = []
        for batch in self.batches():
            out.extend(batch.iter_rows())
        return out


class Source(Operator):
    """Leaf operator over any re-iterable tuple factory.

    ``factory`` is called on every iteration, so scans restart correctly;
    pass ``lambda: heap.scan_tuples()`` rather than an exhausted iterator.
    """

    def __init__(self, columns: Sequence[str],
                 factory: Callable[[], Iterable[tuple]],
                 batch_factory: Optional[
                     Callable[[], Iterable[RowBatch]]] = None) -> None:
        self.columns = list(columns)
        self._factory = factory
        self._batch_factory = batch_factory

    @classmethod
    def from_rows(cls, columns: Sequence[str],
                  rows: Iterable[tuple]) -> "Source":
        materialised = [tuple(r) for r in rows]
        return cls(columns, lambda: iter(materialised))

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._factory())

    def batches(self) -> Iterator[RowBatch]:
        """Native batches when the leaf can produce them (heap/index
        scans decode page-at-a-time); chunked rows otherwise."""
        if self._batch_factory is not None:
            return iter(self._batch_factory())
        return batches_from_rows(iter(self._factory()), len(self.columns))


class Select(Operator):
    """Filter rows by a predicate over the tuple.

    ``batch_predicate``/``rows_predicate`` — when the expression
    compiler could lower the predicate — map a whole batch (columnar /
    row-backed form respectively) to the list of surviving row
    positions in one compiled loop.
    """

    def __init__(self, child: Operator,
                 predicate: Callable[[tuple], bool],
                 batch_predicate: Optional[
                     Callable[[Sequence[list], int], list[int]]] = None,
                 rows_predicate: Optional[
                     Callable[[Sequence[tuple]], list[int]]] = None
                 ) -> None:
        self.child = child
        self.predicate = predicate
        self.batch_predicate = batch_predicate
        self.rows_predicate = rows_predicate
        self.columns = list(child.columns)

    def __iter__(self) -> Iterator[tuple]:
        return (row for row in self.child if self.predicate(row))

    def _keep(self, batch: RowBatch) -> list[int]:
        if self.rows_predicate is not None and batch.rows is not None:
            return self.rows_predicate(batch.rows)
        if self.batch_predicate is not None:
            return self.batch_predicate(batch.columns, batch.num_rows)
        predicate = self.predicate
        return [i for i, row in enumerate(batch.iter_rows())
                if predicate(row)]

    def batches(self) -> Iterator[RowBatch]:
        for batch in self.child.batches():
            num_rows = batch.num_rows
            if not num_rows:
                continue
            keep = self._keep(batch)
            if not keep:
                continue
            yield batch if len(keep) == num_rows else batch.take(keep)


class Project(Operator):
    """Compute output columns from input rows.

    ``exprs`` maps each output column to a callable over the input tuple.
    """

    def __init__(self, child: Operator, columns: Sequence[str],
                 exprs: Sequence[Callable[[tuple], Any]],
                 positions: Optional[Sequence[int]] = None,
                 batch_fn: Optional[
                     Callable[[Sequence[list], int],
                              tuple[list, ...]]] = None,
                 rows_fn: Optional[
                     Callable[[Sequence[tuple]],
                              tuple[list, ...]]] = None) -> None:
        if len(columns) != len(exprs):
            raise AccessError("Project: columns/exprs arity mismatch")
        self.child = child
        self.columns = list(columns)
        self.exprs = list(exprs)
        # ``positions`` marks a pure column selection/permutation: the
        # batch path re-references the input column lists (zero copy).
        # ``batch_fn``/``rows_fn`` compute all output columns in one
        # compiled loop over a columnar / row-backed batch.
        self.positions = list(positions) if positions is not None else None
        # Every input column in order: batches pass through untouched.
        self.identity = self.positions == list(range(len(child.columns)))
        self.batch_fn = batch_fn
        self.rows_fn = rows_fn

    @classmethod
    def by_indexes(cls, child: Operator,
                   indexes: Sequence[int]) -> "Project":
        cols = [child.columns[i] for i in indexes]
        exprs = [(lambda row, i=i: row[i]) for i in indexes]
        return cls(child, cols, exprs, positions=indexes)

    def __iter__(self) -> Iterator[tuple]:
        for row in self.child:
            yield tuple(expr(row) for expr in self.exprs)

    def batches(self) -> Iterator[RowBatch]:
        if self.identity:
            yield from self.child.batches()
            return
        if self.positions is not None:
            for batch in self.child.batches():
                yield batch.project(self.positions)
            return
        batch_fn = self.batch_fn
        rows_fn = self.rows_fn
        exprs = self.exprs
        arity = len(self.columns)
        for batch in self.child.batches():
            num_rows = batch.num_rows
            if not num_rows:
                continue
            if rows_fn is not None and batch.rows is not None:
                yield RowBatch(rows_fn(batch.rows), num_rows)
            elif batch_fn is not None:
                yield RowBatch(batch_fn(batch.columns, num_rows), num_rows)
            else:
                rows = [tuple(expr(row) for expr in exprs)
                        for row in batch.iter_rows()]
                yield RowBatch.from_rows(rows, arity)


class FusedSelectProject(Operator):
    """Fused scan→filter→project: one pass per batch, no intermediate.

    The planner emits this when a projection sits directly on a filter
    (both stateless, so fusion is always semantics-preserving).  The
    payoff over ``Project(Select(...))`` is that rejected rows are never
    materialised and — for positional projections — only the *projected*
    columns are gathered for the surviving row positions.
    """

    def __init__(self, child: Operator,
                 predicate: Callable[[tuple], bool],
                 columns: Sequence[str],
                 exprs: Sequence[Callable[[tuple], Any]],
                 batch_predicate: Optional[Callable] = None,
                 rows_predicate: Optional[Callable] = None,
                 positions: Optional[Sequence[int]] = None,
                 batch_fn: Optional[Callable] = None,
                 rows_fn: Optional[Callable] = None) -> None:
        if len(columns) != len(exprs):
            raise AccessError("FusedSelectProject: arity mismatch")
        self.child = child
        self.predicate = predicate
        self.batch_predicate = batch_predicate
        self.rows_predicate = rows_predicate
        self.columns = list(columns)
        self.exprs = list(exprs)
        self.positions = list(positions) if positions is not None else None
        self.identity = self.positions == list(range(len(child.columns)))
        self.batch_fn = batch_fn
        self.rows_fn = rows_fn

    def __iter__(self) -> Iterator[tuple]:
        exprs = self.exprs
        predicate = self.predicate
        for row in self.child:
            if predicate(row):
                yield tuple(expr(row) for expr in exprs)

    def batches(self) -> Iterator[RowBatch]:
        rows_predicate = self.rows_predicate
        batch_predicate = self.batch_predicate
        predicate = self.predicate
        positions = self.positions
        identity = self.identity
        batch_fn = self.batch_fn
        rows_fn = self.rows_fn
        exprs = self.exprs
        arity = len(self.columns)
        for batch in self.child.batches():
            num_rows = batch.num_rows
            if not num_rows:
                continue
            if rows_predicate is not None and batch.rows is not None:
                keep = rows_predicate(batch.rows)
            elif batch_predicate is not None:
                keep = batch_predicate(batch.columns, num_rows)
            else:
                keep = [i for i, row in enumerate(batch.iter_rows())
                        if predicate(row)]
            if not keep:
                continue
            if positions is not None:
                if len(keep) == num_rows:
                    yield batch if identity else batch.project(positions)
                elif batch.rows is not None:
                    # Row-backed input: gather the surviving rows first
                    # (k ops) and transpose only the projected columns.
                    kept = batch.take(keep)
                    yield kept if identity else kept.project(positions)
                else:
                    columns = batch.columns
                    yield RowBatch(
                        tuple([columns[p][i] for i in keep]
                              for p in positions), len(keep))
                continue
            filtered = batch if len(keep) == num_rows else batch.take(keep)
            if rows_fn is not None and filtered.rows is not None:
                yield RowBatch(rows_fn(filtered.rows), filtered.num_rows)
            elif batch_fn is not None:
                yield RowBatch(batch_fn(filtered.columns,
                                        filtered.num_rows),
                               filtered.num_rows)
            else:
                rows = [tuple(expr(row) for expr in exprs)
                        for row in filtered.iter_rows()]
                yield RowBatch.from_rows(rows, arity)


def _sort_key(keys: Sequence[tuple[int, bool]]):
    """Build a sort key for (index, descending) specs that handles NULLs
    (NULL sorts first ascending, last descending) and mixed types."""

    def key(row: tuple):
        parts = []
        for idx, descending in keys:
            value = row[idx]
            null_rank = (value is None)
            rank = _TypeRanked(value)
            if descending:
                parts.append(_Reversed((not null_rank, rank)))
            else:
                parts.append((not null_rank, rank))
        return tuple(parts)

    return key


class _TypeRanked:
    """Total order over heterogeneous scalars: bool < number < str < bytes."""

    __slots__ = ("rank", "value")

    _RANKS = {bool: 0, int: 1, float: 1, str: 2, bytes: 3}

    def __init__(self, value: Any) -> None:
        self.value = value
        self.rank = 0 if value is None else self._RANKS.get(type(value), 4)

    def _cmp_tuple(self):
        return (self.rank, self.value)

    def __lt__(self, other: "_TypeRanked") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        if self.value is None:
            return False
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TypeRanked) and self.value == other.value \
            and self.rank == other.rank


class _Reversed:
    __slots__ = ("inner",)

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def __lt__(self, other: "_Reversed") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.inner == other.inner


class Sort(Operator):
    """In-memory sort; ``keys`` is a list of (column index, descending)."""

    def __init__(self, child: Operator,
                 keys: Sequence[tuple[int, bool]]) -> None:
        self.child = child
        self.keys = list(keys)
        self.columns = list(child.columns)

    def __iter__(self) -> Iterator[tuple]:
        return iter(sorted(self.child, key=_sort_key(self.keys)))

    def batches(self) -> Iterator[RowBatch]:
        rows = [row for batch in self.child.batches()
                for row in batch.iter_rows()]
        rows.sort(key=_sort_key(self.keys))
        return batches_from_rows(iter(rows), len(self.columns))


class TopK(Operator):
    """Bounded top-k: ``ORDER BY ... LIMIT k`` without a full sort.

    Stable and order-equivalent to ``Sort`` followed by ``Limit`` —
    ``heapq.nsmallest`` is documented equivalent to
    ``sorted(rows, key=key)[:k]`` — but holds only ``k`` rows.
    """

    def __init__(self, child: Operator, keys: Sequence[tuple[int, bool]],
                 k: int) -> None:
        self.child = child
        self.keys = list(keys)
        self.k = k
        self.columns = list(child.columns)

    def __iter__(self) -> Iterator[tuple]:
        return iter(heapq.nsmallest(self.k, self.child,
                                    key=_sort_key(self.keys)))

    def batches(self) -> Iterator[RowBatch]:
        rows = heapq.nsmallest(
            self.k,
            (row for batch in self.child.batches()
             for row in batch.iter_rows()),
            key=_sort_key(self.keys))
        return batches_from_rows(iter(rows), len(self.columns))


class Limit(Operator):
    """Emit at most ``limit`` rows after skipping ``offset`` (a ``None``
    limit means offset-only)."""

    def __init__(self, child: Operator, limit: Optional[int],
                 offset: int = 0) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset
        self.columns = list(child.columns)

    def __iter__(self) -> Iterator[tuple]:
        iterator = iter(self.child)
        for _ in range(self.offset):
            if next(iterator, _SENTINEL) is _SENTINEL:
                return
        if self.limit is None:
            yield from iterator
            return
        for count, row in enumerate(iterator):
            if count >= self.limit:
                return
            yield row

    def batches(self) -> Iterator[RowBatch]:
        # Mirror __iter__'s tolerance of odd bounds: a negative offset
        # skips nothing (range() semantics), and a fractional limit
        # yields rows while the count is still below it — i.e. its
        # ceiling.
        to_skip = max(self.offset, 0)
        remaining = self.limit
        if remaining is not None and not isinstance(remaining, int):
            remaining = math.ceil(remaining)
        if remaining is not None and remaining <= 0:
            return
        for batch in self.child.batches():
            num_rows = batch.num_rows
            if to_skip:
                if num_rows <= to_skip:
                    to_skip -= num_rows
                    continue
                batch = batch.take(range(to_skip, num_rows))
                num_rows = batch.num_rows
                to_skip = 0
            if remaining is None:
                yield batch
                continue
            if num_rows >= remaining:
                yield (batch if num_rows == remaining
                       else batch.take(range(remaining)))
                return
            remaining -= num_rows
            yield batch


_SENTINEL = object()


class Distinct(Operator):
    """Drop duplicate rows, keeping first occurrences in input order."""

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.columns = list(child.columns)

    def __iter__(self) -> Iterator[tuple]:
        seen: set = set()
        for row in self.child:
            if row not in seen:
                seen.add(row)
                yield row

    def batches(self) -> Iterator[RowBatch]:
        seen: set = set()
        arity = len(self.columns)
        for batch in self.child.batches():
            fresh = []
            append = fresh.append
            add = seen.add
            for row in batch.iter_rows():
                if row not in seen:
                    add(row)
                    append(row)
            if not fresh:
                continue
            if len(fresh) == batch.num_rows:
                yield batch
            else:
                yield RowBatch.from_rows(fresh, arity)


class NestedLoopJoin(Operator):
    """Tuple-at-a-time join; the inner child is re-iterated per outer row
    (correct for any re-iterable operator, quadratic by nature)."""

    def __init__(self, outer: Operator, inner: Operator,
                 predicate: Callable[[tuple, tuple], bool]) -> None:
        self.outer = outer
        self.inner = inner
        self.predicate = predicate
        self.columns = list(outer.columns) + list(inner.columns)

    def __iter__(self) -> Iterator[tuple]:
        inner_rows = list(self.inner)  # materialise once per execution
        for outer_row in self.outer:
            for inner_row in inner_rows:
                if self.predicate(outer_row, inner_row):
                    yield outer_row + inner_row


class HashJoin(Operator):
    """Equi-join: build a hash table on the inner child's key columns."""

    def __init__(self, outer: Operator, inner: Operator,
                 outer_keys: Sequence[int], inner_keys: Sequence[int],
                 left_outer: bool = False) -> None:
        if len(outer_keys) != len(inner_keys):
            raise AccessError("HashJoin: key arity mismatch")
        self.outer = outer
        self.inner = inner
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)
        self.left_outer = left_outer
        self.columns = list(outer.columns) + list(inner.columns)

    def _build(self) -> dict:
        """Hash the inner child's rows on its key columns (batched pull).
        A single key is hashed on the bare value read from the batch's
        key column, multiple keys on their tuple.  NULL keys are never
        stored: SQL NULL never matches."""
        table: dict = {}
        setdefault = table.setdefault
        inner_keys = self.inner_keys
        single = inner_keys[0] if len(inner_keys) == 1 else None
        for batch in self.inner.batches():
            if single is not None:
                for key, row in zip(batch.columns[single],
                                    batch.iter_rows()):
                    if key is not None:
                        setdefault(key, []).append(row)
            else:
                for row in batch.iter_rows():
                    key = tuple(row[i] for i in inner_keys)
                    if any(part is None for part in key):
                        continue  # SQL semantics: NULL never matches
                    setdefault(key, []).append(row)
        return table

    def __iter__(self) -> Iterator[tuple]:
        table: dict[tuple, list[tuple]] = {}
        inner_arity = len(self.inner.columns)
        for row in self.inner:
            key = tuple(row[i] for i in self.inner_keys)
            if any(part is None for part in key):
                continue  # SQL semantics: NULL never matches
            table.setdefault(key, []).append(row)
        null_row = (None,) * inner_arity
        for row in self.outer:
            key = tuple(row[i] for i in self.outer_keys)
            matches = [] if any(p is None for p in key) \
                else table.get(key, [])
            if matches:
                for inner_row in matches:
                    yield row + inner_row
            elif self.left_outer:
                yield row + null_row

    def batches(self) -> Iterator[RowBatch]:
        table = self._build()
        get = table.get
        outer_keys = self.outer_keys
        left_outer = self.left_outer
        null_row = (None,) * len(self.inner.columns)
        arity = len(self.columns)
        empty: list[tuple] = []
        flush_rows = 4 * BATCH_SIZE
        for batch in self.outer.batches():
            out_rows: list[tuple] = []
            extend = out_rows.extend
            append = out_rows.append
            if len(outer_keys) == 1:
                # Single-key probe: skip per-row key-tuple construction;
                # map() concatenates match runs at C speed.
                # NULL is never a build key, so no NULL test is needed.
                key_column = batch.columns[outer_keys[0]] if batch.columns \
                    else []
                for row, part in zip(batch.iter_rows(), key_column):
                    matches = get(part, empty)
                    if matches:
                        extend(map(row.__add__, matches))
                        if len(out_rows) >= flush_rows:
                            yield RowBatch.from_rows(out_rows, arity)
                            out_rows = []
                            extend = out_rows.extend
                            append = out_rows.append
                    elif left_outer:
                        append(row + null_row)
            else:
                for row in batch.iter_rows():
                    key = tuple(row[i] for i in outer_keys)
                    matches = empty if any(p is None for p in key) \
                        else get(key, empty)
                    if matches:
                        extend(map(row.__add__, matches))
                        if len(out_rows) >= flush_rows:
                            yield RowBatch.from_rows(out_rows, arity)
                            out_rows = []
                            extend = out_rows.extend
                            append = out_rows.append
                    elif left_outer:
                        append(row + null_row)
            if out_rows:
                yield RowBatch.from_rows(out_rows, arity)


class MergeJoin(Operator):
    """Sort-merge equi-join on single key columns (inputs must already be
    sorted ascending on their keys; combine with :class:`Sort`)."""

    def __init__(self, outer: Operator, inner: Operator,
                 outer_key: int, inner_key: int) -> None:
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.columns = list(outer.columns) + list(inner.columns)

    def __iter__(self) -> Iterator[tuple]:
        outer_rows = list(self.outer)
        inner_rows = list(self.inner)
        i = j = 0
        while i < len(outer_rows) and j < len(inner_rows):
            left = outer_rows[i][self.outer_key]
            right = inner_rows[j][self.inner_key]
            if left is None:
                i += 1
                continue
            if right is None:
                j += 1
                continue
            if left < right:
                i += 1
            elif left > right:
                j += 1
            else:
                # Emit the cross product of the two equal runs.
                i_end = i
                while i_end < len(outer_rows) and \
                        outer_rows[i_end][self.outer_key] == left:
                    i_end += 1
                j_end = j
                while j_end < len(inner_rows) and \
                        inner_rows[j_end][self.inner_key] == right:
                    j_end += 1
                for oi in range(i, i_end):
                    for ji in range(j, j_end):
                        yield outer_rows[oi] + inner_rows[ji]
                i, j = i_end, j_end


class Aggregate(Operator):
    """Hash aggregation with optional grouping.

    ``aggregates`` is a list of (output name, function name, input index or
    ``None`` for ``COUNT(*)``) tuples, optionally extended with a fourth
    ``distinct`` flag.  Supported functions: count, sum, avg, min, max.
    NULLs are ignored by all functions except ``COUNT(*)``.
    """

    FUNCTIONS = ("count", "sum", "avg", "min", "max")

    def __init__(self, child: Operator, group_by: Sequence[int],
                 aggregates: Sequence[tuple]) -> None:
        normalised = []
        for spec in aggregates:
            name, fn, idx, *rest = spec
            distinct = bool(rest[0]) if rest else False
            if fn not in self.FUNCTIONS:
                raise AccessError(f"unknown aggregate function {fn!r}")
            if distinct and idx is None:
                raise AccessError("COUNT(DISTINCT *) is meaningless")
            normalised.append((name, fn, idx, distinct))
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = normalised
        self.columns = [child.columns[i] for i in group_by] + \
            [name for name, _, _, _ in normalised]

    def __iter__(self) -> Iterator[tuple]:
        groups: dict[tuple, list[_AggState]] = {}
        for row in self.child:
            key = tuple(row[i] for i in self.group_by)
            states = groups.get(key)
            if states is None:
                states = [_AggState(fn, distinct)
                          for _, fn, _, distinct in self.aggregates]
                groups[key] = states
            for state, (_, _, idx, _) in zip(states, self.aggregates):
                state.feed(row[idx] if idx is not None else _COUNT_STAR)
        if not groups and not self.group_by:
            # Global aggregate over an empty input still yields one row.
            states = [_AggState(fn, distinct)
                      for _, fn, _, distinct in self.aggregates]
            groups[()] = states
        for key, states in groups.items():
            yield key + tuple(state.result() for state in states)

    def batches(self) -> Iterator[RowBatch]:
        if not self.group_by:
            # Global aggregates collapse each batch column with one
            # bulk feed (list.count/min/max; SUM/AVG add sequentially).
            states = [_AggState(fn, distinct)
                      for _, fn, _, distinct in self.aggregates]
            for batch in self.child.batches():
                num_rows = batch.num_rows
                if not num_rows:
                    continue
                columns = batch.columns
                for state, (_, _, idx, _) in zip(states, self.aggregates):
                    if idx is None:
                        state.feed_count(num_rows)
                    else:
                        state.feed_many(columns[idx])
            row = tuple(state.result() for state in states)
            yield RowBatch.from_rows([row], len(self.columns))
            return
        # Grouped: per batch, collect each key's row positions, then feed
        # the group's values of every input column in one bulk call.
        # Positions stay in row order inside a group, so float SUM/AVG
        # accumulate exactly as the row engine's per-row feeds do.  All
        # state is local: cached plans reuse this operator object.
        groups: dict = {}
        get = groups.get
        group_by = self.group_by
        specs = self.aggregates
        single = len(group_by) == 1
        for batch in self.child.batches():
            if not batch.num_rows:
                continue
            columns = batch.columns
            keys = columns[group_by[0]] if single \
                else list(zip(*[columns[i] for i in group_by]))
            inputs = [None if idx is None else columns[idx]
                      for _, _, idx, _ in specs]
            for key, positions in _group_positions(keys).items():
                states = get(key)
                if states is None:
                    states = groups[key] = [
                        _AggState(fn, distinct)
                        for _, fn, _, distinct in specs]
                for state, column in zip(states, inputs):
                    if column is None:
                        state.feed_count(len(positions))
                    else:
                        state.feed_many([column[i] for i in positions])
        out_rows = [((key,) if single else key)
                    + tuple(state.result() for state in states)
                    for key, states in groups.items()]
        yield from batches_from_rows(iter(out_rows), len(self.columns))


_COUNT_STAR = object()


def _group_positions(keys: Sequence) -> dict:
    """Row positions of every distinct key, ascending, with the keys in
    first-seen order.  Keys merge as dict keys do: ``1``/``1.0``/``True``
    share the first-seen representative, NULL is a key of its own."""
    add_of = dict.fromkeys(keys)
    runs: dict = {}
    for key in add_of:
        run = runs[key] = []
        add_of[key] = run.append
    for i, key in enumerate(keys):
        add_of[key](i)
    return runs


class _AggState:
    __slots__ = ("fn", "count", "total", "minimum", "maximum", "seen",
                 "distinct", "_values")

    def __init__(self, fn: str, distinct: bool = False) -> None:
        self.fn = fn
        self.count = 0
        self.total = 0
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen = False
        self.distinct = distinct
        self._values: set = set() if distinct else None

    def feed_count(self, n: int) -> None:
        """Bulk COUNT(*): ``n`` rows at once (batch engine)."""
        self.count += n

    def feed_many(self, values: list) -> None:
        """Bulk feed of one batch column; result-equivalent to calling
        :meth:`feed` per value, but using C-speed builtins."""
        if self.distinct:
            # Preserve encounter order: float SUM/AVG are not
            # associative, so summing in set order would diverge from
            # the row engine's feed() order.
            seen = self._values
            fresh: list = []
            append = fresh.append
            add = seen.add
            for value in values:
                if value is None or value in seen:
                    continue
                add(value)
                append(value)
            if not fresh:
                return
            live: Any = fresh
            count = len(fresh)
        else:
            nulls = values.count(None)
            count = len(values) - nulls
            if not count:
                return
            live = values if not nulls \
                else [v for v in values if v is not None]
        self.count += count
        self.seen = True
        if self.fn in ("sum", "avg"):
            # Accumulate sequentially from the running total: float
            # addition is not associative, and `total += sum(batch)`
            # would round differently than the row engine's per-value
            # feeds.
            total = self.total
            for value in live:
                total += value
            self.total = total
        elif self.fn == "min":
            low = min(live)
            if self.minimum is None or low < self.minimum:
                self.minimum = low
        elif self.fn == "max":
            high = max(live)
            if self.maximum is None or high > self.maximum:
                self.maximum = high

    def feed(self, value: Any) -> None:
        if value is _COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self._values:
                return
            self._values.add(value)
        self.count += 1
        self.seen = True
        if self.fn in ("sum", "avg"):
            self.total += value
        elif self.fn == "min":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.fn == "max":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self) -> Any:
        if self.fn == "count":
            return self.count
        if not self.seen:
            return None
        if self.fn == "sum":
            return self.total
        if self.fn == "avg":
            return self.total / self.count
        if self.fn == "min":
            return self.minimum
        return self.maximum
