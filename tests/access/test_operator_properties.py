"""Hypothesis properties for relational operators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import Aggregate, Distinct, HashJoin, Limit, Project, \
    Select, Sort, Source
from repro.access.batch import batches_from_rows

rows_strategy = st.lists(
    st.tuples(st.integers(-50, 50),
              st.one_of(st.none(), st.integers(-10, 10))),
    max_size=60)


class TestSortProperties:
    @given(rows_strategy)
    @settings(max_examples=150, deadline=None)
    def test_sort_matches_sorted_with_null_policy(self, rows):
        source = Source.from_rows(["a", "b"], rows)
        got = Sort(source, [(1, False), (0, False)]).to_list()
        expected = sorted(rows, key=lambda r: (r[1] is not None, r[1]
                                               if r[1] is not None else 0,
                                               r[0]))
        # NULLs first ascending; within equal b, ordered by a.
        assert [r[1] for r in got] == [r[1] for r in expected]

    @given(rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_sort_is_permutation(self, rows):
        from collections import Counter

        source = Source.from_rows(["a", "b"], rows)
        got = Sort(source, [(0, True)]).to_list()
        assert Counter(got) == Counter(rows)
        assert [r[0] for r in got] == sorted((r[0] for r in rows),
                                             reverse=True)


class TestPipelineProperties:
    @given(rows_strategy, st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_limit_offset_window(self, rows, limit, offset):
        source = Source.from_rows(["a", "b"], rows)
        got = Limit(source, limit, offset).to_list()
        assert got == rows[offset:offset + limit]

    @given(rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_distinct_preserves_first_occurrence_order(self, rows):
        source = Source.from_rows(["a", "b"], rows)
        got = Distinct(source).to_list()
        seen = set()
        expected = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                expected.append(row)
        assert got == expected

    @given(rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_select_project_compose(self, rows):
        source = Source.from_rows(["a", "b"], rows)
        pipeline = Project.by_indexes(
            Select(source, lambda r: r[0] >= 0), [0])
        assert pipeline.to_list() == [(a,) for a, _ in rows if a >= 0]

    @given(rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_aggregate_sum_count_consistency(self, rows):
        source = Source.from_rows(["a", "b"], rows)
        out = Aggregate(source, [], [
            ("n", "count", None), ("nn", "count", 1),
            ("s", "sum", 1), ("lo", "min", 1), ("hi", "max", 1)]).to_list()
        (n, nn, s, lo, hi), = out
        non_null = [b for _, b in rows if b is not None]
        assert n == len(rows)
        assert nn == len(non_null)
        assert s == (sum(non_null) if non_null else None)
        assert lo == (min(non_null) if non_null else None)
        assert hi == (max(non_null) if non_null else None)


# -- batch engine == row engine ------------------------------------------------

#: ``1``, ``1.0`` and ``True`` are one dict key; NULL is a key of its own.
keys = st.sampled_from([None, 0, 1, 1.0, True, 2, "a"])
numbers = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.floats(-1e17, 1e17, allow_nan=False),
    st.sampled_from([1e16, -1e16, 0.1, 0.3333333333333333]))


def _chunked(columns, rows, size):
    """A Source whose batches hold ``size`` rows, so groups and build
    keys span several batches."""
    return Source(columns, lambda: iter(rows),
                  lambda: batches_from_rows(iter(rows), len(columns),
                                            batch_rows=size))


def _typed(rows):
    """repr per value: tells 1 / 1.0 / True and -0.0 / 0.0 apart."""
    return [tuple(map(repr, row)) for row in rows]


GROUPED_AGGREGATES = [
    ("n", "count", None), ("c", "count", 1), ("s", "sum", 1),
    ("a", "avg", 1), ("lo", "min", 1), ("hi", "max", 1),
    ("sd", "sum", 1, True), ("ad", "avg", 1, True),
    ("cd", "count", 1, True), ("mind", "min", 1, True)]


class TestBatchRowParity:
    @given(st.lists(st.tuples(keys, numbers, keys), max_size=80),
           st.sampled_from([[0], [2], [0, 2], [2, 0]]),
           st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_grouped_aggregate_batches_equal_rows(self, rows, group_by,
                                                  batch_rows):
        source = _chunked(["k", "v", "j"], rows, batch_rows)
        aggregate = Aggregate(source, group_by, GROUPED_AGGREGATES)
        expected = list(aggregate)
        assert _typed(aggregate.to_list_batched()) == _typed(expected)
        # Running again reuses no state from the first execution.
        assert _typed(aggregate.to_list_batched()) == _typed(expected)

    def test_grouped_aggregate_merges_equal_keys_first_seen(self):
        rows = [(1.0, 1), (None, 2), (True, 3), (1, 4), (None, None)]
        aggregate = Aggregate(_chunked(["k", "v"], rows, 2), [0],
                              [("n", "count", None), ("s", "sum", 1)])
        assert _typed(aggregate.to_list_batched()) == \
            _typed([(1.0, 3, 8), (None, 2, 2)])

    def test_grouped_aggregate_over_empty_input(self):
        aggregate = Aggregate(_chunked(["k", "v"], [], 4), [0],
                              [("n", "count", None)])
        assert aggregate.to_list_batched() == list(aggregate) == []

    @given(st.lists(st.tuples(keys, keys, st.integers()), max_size=40),
           st.lists(st.tuples(keys, keys, st.integers()), max_size=40),
           st.sampled_from([([0], [0]), ([1], [0]), ([0, 1], [0, 1]),
                            ([1, 0], [0, 1])]),
           st.booleans(), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_hash_join_batches_equal_rows(self, outer_rows, inner_rows,
                                          key_pairs, left_outer,
                                          batch_rows):
        outer_keys, inner_keys = key_pairs
        join = HashJoin(_chunked(["a", "b", "c"], outer_rows, batch_rows),
                        _chunked(["x", "y", "z"], inner_rows, batch_rows),
                        outer_keys, inner_keys, left_outer=left_outer)
        assert _typed(join.to_list_batched()) == _typed(list(join))

    def test_hash_join_null_and_duplicate_build_keys(self):
        inner = [(1, "one"), (None, "null"), (1, "uno"), (2, "two")]
        outer = [(1,), (None,), (3,), (True,)]
        for left_outer in (False, True):
            join = HashJoin(_chunked(["k"], outer, 2),
                            _chunked(["k2", "name"], inner, 3),
                            [0], [0], left_outer=left_outer)
            expected = [(1, 1, "one"), (1, 1, "uno"),
                        (True, 1, "one"), (True, 1, "uno")]
            if left_outer:
                expected[2:2] = [(None, None, None), (3, None, None)]
            assert _typed(join.to_list_batched()) == _typed(expected)
            assert _typed(list(join)) == _typed(expected)
