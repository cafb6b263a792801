"""Cost-based optimizer tests: statistics, selectivity, access-path
choice, join ordering, and the enriched EXPLAIN output."""

import pytest

from repro.data import Database
from repro.data.sql.optimizer import (
    CostModel,
    JoinEdge,
    SelectivityEstimator,
    PredicateSpec,
    fold_intervals,
    order_joins,
    rule_access_path,
)
from repro.data.sql.stats import ColumnStats, TableStats, build_histogram
from repro.storage import MemoryDevice


@pytest.fixture()
def db():
    return Database(buffer_capacity=64)


def fill(db, n_rows=500, skew=False):
    """A fact table plus two dimension tables of very different sizes."""
    db.execute("CREATE TABLE fact (id INT PRIMARY KEY, d1 INT, d2 INT, "
               "v INT)")
    db.execute("CREATE TABLE dim_big (id INT PRIMARY KEY, name TEXT)")
    db.execute("CREATE TABLE dim_small (id INT PRIMARY KEY, name TEXT)")
    for i in range(50):
        db.execute("INSERT INTO dim_big VALUES (?, ?)", (i, f"b{i}"))
    for i in range(4):
        db.execute("INSERT INTO dim_small VALUES (?, ?)", (i, f"s{i}"))
    for i in range(n_rows):
        d2 = 0 if (skew and i % 10) else i % 4
        db.execute("INSERT INTO fact VALUES (?, ?, ?, ?)",
                   (i, i % 50, d2, i))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class TestStatistics:
    def test_analyze_single_table(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(100):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 10))
        result = db.execute("ANALYZE t")
        assert result.operation == "analyze"
        assert result.affected == 1
        stats = db.catalog.stats_for("t")
        assert stats.row_count == 100
        assert stats.page_count >= 1
        assert stats.columns["v"].n_distinct == 10
        assert stats.columns["id"].minimum == 0
        assert stats.columns["id"].maximum == 99

    def test_analyze_all_tables(self, db):
        fill(db, n_rows=20)
        assert db.execute("ANALYZE").affected == 3
        assert set(db.catalog.table_stats) == \
            {"fact", "dim_big", "dim_small"}

    def test_null_fraction(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, NULL), (3, NULL), "
                   "(4, 40)")
        db.execute("ANALYZE t")
        assert db.catalog.stats_for("t").columns["v"].null_fraction == 0.5

    def test_stats_survive_reopen(self):
        device = MemoryDevice()
        db = Database(device=device)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 5))
        db.execute("ANALYZE t")
        db.checkpoint()

        reopened = Database(device=device)
        stats = reopened.catalog.stats_for("t")
        assert stats is not None
        assert stats.row_count == 50
        assert stats.columns["v"].n_distinct == 5
        assert stats.columns["id"].histogram[0] == 0

    def test_drop_table_drops_stats(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("ANALYZE t")
        db.execute("DROP TABLE t")
        assert db.catalog.stats_for("t") is None

    def test_analyze_unknown_table_fails(self, db):
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.execute("ANALYZE nope")


class TestHistograms:
    def test_equi_depth_boundaries(self):
        hist = build_histogram(list(range(1000)), bounds=5)
        assert hist[0] == 0 and hist[-1] == 999
        assert len(hist) == 5
        # Roughly equal spacing for uniform data.
        gaps = [hist[i + 1] - hist[i] for i in range(4)]
        assert max(gaps) - min(gaps) <= 2

    def test_fraction_below_interpolates(self):
        column = ColumnStats(n_distinct=100,
                             minimum=0, maximum=100,
                             histogram=[0, 25, 50, 75, 100])
        assert column.fraction_below(50) == pytest.approx(0.5)
        assert column.fraction_below(0) == 0.0
        assert column.fraction_below(100, inclusive=True) == 1.0
        assert 0.1 < column.fraction_below(25) < 0.35

    def test_skew_is_visible(self):
        # 90% of values are 0: the equi-depth histogram packs its
        # boundaries there, so a range above 0 is estimated small.
        values = sorted([0] * 900 + list(range(1, 101)))
        column = ColumnStats(n_distinct=101, minimum=0, maximum=100,
                             histogram=build_histogram(values))
        assert column.range_selectivity(">", 0) < 0.2

    def test_eq_selectivity_uses_distinct_count(self):
        column = ColumnStats(n_distinct=20, minimum=0, maximum=19,
                             histogram=list(range(20)))
        assert column.eq_selectivity(5) == pytest.approx(0.05)
        # Out-of-range constants cannot match.
        assert column.eq_selectivity(999) == 0.0

    def test_between_selectivity(self):
        column = ColumnStats(n_distinct=100, minimum=0, maximum=100,
                             histogram=[0, 25, 50, 75, 100])
        assert column.between_selectivity(25, 75) == pytest.approx(
            0.5, abs=0.1)


class TestSelectivityEstimator:
    def test_defaults_without_stats(self):
        estimator = SelectivityEstimator(None)
        assert estimator.conjunct(PredicateSpec("x", "=", 1)) == 0.1
        assert estimator.conjunct(
            PredicateSpec("x", ">", 1)) == pytest.approx(1 / 3)

    def test_combined_independence(self):
        stats = TableStats(row_count=1000, page_count=10, columns={
            "a": ColumnStats(n_distinct=10),
            "b": ColumnStats(n_distinct=4)})
        estimator = SelectivityEstimator(stats)
        combined = estimator.combined([PredicateSpec("a", "=", 1),
                                       PredicateSpec("b", "=", 2)])
        assert combined == pytest.approx(0.1 * 0.25)


# ---------------------------------------------------------------------------
# cost model and join ordering (unit level)
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_buffer_pool_awareness(self):
        model = CostModel(buffer_pages=100)
        assert model.random_page(50) == model.seq_page_cost
        assert model.random_page(500) == model.random_page_cost

    def test_index_beats_seq_when_selective(self):
        model = CostModel(buffer_pages=8)
        pages, rows = 1000, 100_000
        assert model.index_scan(pages, rows, 10) < \
            model.seq_scan(pages, rows)

    def test_seq_beats_index_when_unselective(self):
        model = CostModel(buffer_pages=8)
        pages, rows = 1000, 100_000
        assert model.seq_scan(pages, rows) < \
            model.index_scan(pages, rows, rows * 0.9)


class TestJoinOrdering:
    def test_greedy_starts_with_smallest(self):
        edges = [JoinEdge(0, 1, "a.x", "b.x", 100, 100),
                 JoinEdge(1, 2, "b.y", "c.y", 10, 10)]
        start, steps = order_joins([1000.0, 100.0, 10.0], edges,
                                   CostModel())
        assert start == 2
        order = [start] + [s.relation for s in steps]
        assert order[0] == 2
        assert len(order) == 3

    def test_connected_preferred_over_cross(self):
        # 0 and 1 are connected; 2 is dangling (cross product) and tiny.
        edges = [JoinEdge(0, 1, "a.x", "b.x", 50, 50)]
        start, steps = order_joins([100.0, 50.0, 2.0], edges, CostModel())
        order = [start] + [s.relation for s in steps]
        # The dangling relation starts (smallest), but then the engine
        # must still produce a complete order covering all relations.
        assert sorted(order) == [0, 1, 2]

    def test_cardinality_estimates_shrink_with_ndv(self):
        edges = [JoinEdge(0, 1, "a.x", "b.x", 1000, 1000)]
        _, steps = order_joins([1000.0, 1000.0], edges, CostModel())
        assert steps[0].est_rows == pytest.approx(1000.0)


# ---------------------------------------------------------------------------
# end-to-end: plan choice through Database.execute
# ---------------------------------------------------------------------------


class TestPlanChoice:
    def test_selective_predicate_flips_to_index_after_analyze(self, db):
        """Before ANALYZE the first indexable interval drives a
        rule-based probe (BETWEEN is an interval like any other);
        afterwards the same path carries estimates."""
        fill(db)
        before = db.execute(
            "EXPLAIN SELECT * FROM fact WHERE v < 400 "
            "AND id BETWEEN 10 AND 14")
        assert ("access_path", "index_range(fact.id)") in before.rows
        assert before.plan["cost_based"] is False
        db.execute("ANALYZE")
        after = db.execute(
            "EXPLAIN SELECT * FROM fact WHERE id BETWEEN 10 AND 14")
        assert ("access_path", "index_range(fact.id)") in after.rows
        assert after.plan["cost_based"] is True
        estimate = after.plan["estimates"][0]
        assert estimate["rows"] == pytest.approx(5, abs=3)
        assert estimate["cost"] > 0

    def test_point_query_uses_index_with_estimates(self, db):
        fill(db)
        db.execute("ANALYZE")
        result = db.execute("EXPLAIN SELECT v FROM fact WHERE id = 123")
        assert ("access_path", "index_eq(fact.id)") in result.rows
        assert result.plan["estimated_rows"] == pytest.approx(1, abs=1)

    def test_unselective_predicate_prefers_seq_scan(self, db):
        """Cost-based planning overrides the index rule when the
        predicate keeps most of the table."""
        fill(db)
        db.execute("ANALYZE")
        result = db.execute("EXPLAIN SELECT * FROM fact WHERE id >= 0")
        assert ("access_path", "seq_scan(fact)") in result.rows
        # Rule-based planning would have picked the index blindly.
        db.catalog.table_stats.clear()
        blind = db.execute("EXPLAIN SELECT * FROM fact WHERE id >= 0")
        assert ("access_path", "index_range(fact.id)") in blind.rows

    def test_results_identical_with_and_without_stats(self, db):
        fill(db, n_rows=200)
        query = ("SELECT fact.v, dim_big.name FROM fact "
                 "JOIN dim_big ON fact.d1 = dim_big.id "
                 "WHERE fact.id < 20 ORDER BY fact.v")
        before = db.query(query)
        db.execute("ANALYZE")
        assert db.query(query) == before

    def test_param_predicate_estimated(self, db):
        fill(db)
        db.execute("ANALYZE")
        result = db.execute("SELECT v FROM fact WHERE id = ?", (7,))
        assert result.plan["access_paths"] == ["index_eq(fact.id)"]
        assert result.rows == [(7,)]


class TestJoinReordering:
    def test_three_way_star_join_reordered(self, db):
        """A star query written largest-first is reordered to start from
        the smallest estimated relation."""
        fill(db)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v, dim_big.name, dim_small.name FROM fact "
            "JOIN dim_big ON fact.d1 = dim_big.id "
            "JOIN dim_small ON fact.d2 = dim_small.id")
        assert result.plan["cost_based"] is True
        order = result.plan["join_order"]
        assert order[0] == "dim_small"
        assert set(order) == {"fact", "dim_big", "dim_small"}
        assert len(result.rows) == 500

    def test_selective_filter_drives_order(self, db):
        """With a point filter on the fact table its estimated
        cardinality drops to ~1, so it joins first."""
        fill(db)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v, dim_big.name FROM dim_big "
            "JOIN fact ON fact.d1 = dim_big.id WHERE fact.id = 3")
        assert result.plan["join_order"][0] == "fact"
        assert result.rows == [(3, "b3")]

    def test_reordered_join_preserves_column_order(self, db):
        fill(db, n_rows=40)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT * FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id WHERE fact.id = 1")
        # SELECT * must keep FROM-clause column order even though the
        # optimizer may start the join from dim_small.
        assert result.columns == ["id", "d1", "d2", "v", "id", "name"]
        assert result.rows == [(1, 1, 1, 1, 1, "s1")]

    def test_explain_reports_join_order_and_total(self, db):
        fill(db)
        db.execute("ANALYZE")
        result = db.execute(
            "EXPLAIN SELECT fact.v FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id")
        kinds = [kind for kind, _ in result.rows]
        assert "join_order" in kinds
        assert "total" in kinds
        assert "estimate" in kinds

    def test_left_join_stays_rule_based(self, db):
        fill(db, n_rows=30)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v FROM fact "
            "LEFT JOIN dim_big ON fact.d1 = dim_big.id")
        assert result.plan["cost_based"] is False
        assert len(result.rows) == 30

    def test_non_equi_join_condition_enforced(self, db):
        fill(db, n_rows=30)
        db.execute("ANALYZE")
        rows = db.query(
            "SELECT COUNT(*) FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id "
            "AND fact.v > dim_small.id")
        expected = db.query(
            "SELECT COUNT(*) FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id "
            "WHERE fact.v > dim_small.id")
        assert rows == expected


class TestAnalyzeRoundTrip:
    def test_execute_analyze_then_query(self, db):
        """ANALYZE through the public API immediately influences
        subsequent plans (acceptance criterion)."""
        fill(db)
        assert db.execute("ANALYZE fact").affected == 1
        assert db.execute("ANALYZE").affected == 3
        result = db.execute("SELECT v FROM fact WHERE id = 250")
        assert result.plan["cost_based"] is True
        assert result.plan["access_paths"] == ["index_eq(fact.id)"]
        assert result.rows == [(250,)]

    def test_catalog_stats_lists_analyzed(self, db):
        fill(db, n_rows=10)
        db.execute("ANALYZE fact")
        assert db.catalog.stats()["analyzed"] == ["fact"]

    def test_analyze_blocked_by_concurrent_writer(self):
        """ANALYZE takes shared locks, so it cannot read another
        transaction's uncommitted rows — it waits (and here, times
        out) instead."""
        from repro.errors import TransactionError
        db = Database(lock_timeout_s=0.05)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        writer = db.transactions.begin()
        writer.lock_exclusive("t")
        with pytest.raises(TransactionError):
            db.execute("ANALYZE t")
        writer.abort()
        assert db.execute("ANALYZE t").affected == 1


class TestRegressions:
    def test_unknown_join_column_raises_cleanly(self, db):
        """A bogus qualified column in an ON clause must raise
        SQLPlanError, not crash the cost-based join builder."""
        from repro.errors import SQLPlanError
        fill(db, n_rows=10)
        db.execute("ANALYZE")
        with pytest.raises(SQLPlanError):
            db.query("SELECT * FROM fact "
                     "JOIN dim_small ON fact.nosuch = dim_small.id")

    def test_filters_pushed_below_joins(self, db):
        """Single-table WHERE conjuncts are applied at the scan in
        cost-based plans, so join inputs match the estimates."""
        fill(db, n_rows=60)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id "
            "WHERE fact.v < 3 AND dim_small.name = 's1'")
        assert result.plan["cost_based"] is True
        assert result.rows == [(1,)]


# ---------------------------------------------------------------------------
# interval folding and clustering-aware index pricing
# ---------------------------------------------------------------------------


def spec_range(column, low, high, low_inclusive=False,
               high_inclusive=False):
    return PredicateSpec(column, "between", low=low, high=high,
                         low_inclusive=low_inclusive,
                         high_inclusive=high_inclusive)


class TestIntervalFolding:
    def test_two_bounds_fold_to_one_open_interval(self):
        specs = [PredicateSpec("id", ">", 10), PredicateSpec("v", "=", 1),
                 PredicateSpec("id", "<", 20)]
        assert fold_intervals(specs) == [spec_range("id", 10, 20),
                                         PredicateSpec("v", "=", 1)]

    def test_single_bounds_pass_through_untouched(self):
        specs = [PredicateSpec("id", ">", 10), PredicateSpec("v", "<", 3)]
        assert fold_intervals(specs) is specs

    def test_tightest_bound_and_inclusivity_win(self):
        specs = [PredicateSpec("id", ">=", 5), PredicateSpec("id", ">", 5),
                 PredicateSpec("id", "between", low=0, high=9),
                 PredicateSpec("id", "<=", 9)]
        assert fold_intervals(specs) == [
            spec_range("id", 5, 9, high_inclusive=True)]
        assert fold_intervals([PredicateSpec("id", ">", 3),
                               PredicateSpec("id", ">=", 8)]) == \
            [PredicateSpec("id", ">=", 8)]

    def test_equality_with_compatible_bound_is_the_point(self):
        assert fold_intervals([PredicateSpec("id", "=", 7),
                               PredicateSpec("id", "<", 10)]) == \
            [PredicateSpec("id", "=", 7)]

    @pytest.mark.parametrize("specs", [
        [PredicateSpec("id", ">", 5), PredicateSpec("id", "<", 3)],
        [PredicateSpec("id", "=", 7), PredicateSpec("id", "<", 3)],
        [PredicateSpec("id", "=", 7), PredicateSpec("id", "=", 8)],
        [PredicateSpec("id", ">", 5), PredicateSpec("id", "<=", 5)],
        [PredicateSpec("id", ">", None), PredicateSpec("id", "<", 3)],
    ])
    def test_empty_intervals_estimate_zero_rows(self, specs):
        (folded,) = fold_intervals(specs)
        assert folded.describe() == "id empty"
        stats = TableStats(100, 4, {"id": ColumnStats(
            n_distinct=100, minimum=0, maximum=99,
            histogram=build_histogram(list(range(100))))})
        assert SelectivityEstimator(stats).combined([folded]) == 0.0
        assert SelectivityEstimator(None).combined([folded]) == 0.0

    @pytest.mark.parametrize("other", ["x", True, 1.5])
    def test_unordered_bound_types_stay_unfolded(self, other):
        specs = [PredicateSpec("id", ">", 1), PredicateSpec("id", "<", other)]
        folded = fold_intervals(specs)
        if isinstance(other, float):      # int and float share an order
            assert folded == [spec_range("id", 1, 1.5)]
        else:
            assert folded == specs

    @pytest.mark.parametrize("where, params, expected", [
        ("id > ? AND id < ?", (5, 3), []),
        ("id = ? AND id < ?", (7, 3), []),
        ("id = ? AND id < ?", (7, 30), [7]),
        ("id > ? AND id < ?", (None, 30), []),
        ("id >= ? AND id <= ?", (7, 7), [7]),
        ("id > ? AND id < ?", (1, "x"), TypeError),
        ("id > ? AND id <= ?", (0, True), [1]),
        ("id > 10 AND id BETWEEN 5 AND 12 AND id <= 11", (), [11]),
    ])
    @pytest.mark.parametrize("analyzed", [False, True])
    def test_edge_intervals_answer_like_the_heap_scan(
            self, db, where, params, expected, analyzed):
        fill(db, n_rows=40)
        if analyzed:
            db.execute("ANALYZE")
        sql = f"SELECT id FROM fact WHERE {where} ORDER BY id"
        if expected is TypeError:
            # The residual WHERE compares int with text, as it always
            # did; planning itself must not be what raises.
            explained = db.execute("EXPLAIN " + sql, params)
            assert any(kind == "access_path" for kind, _
                       in explained.rows)
            return
        assert [row[0] for row in db.execute(sql, params).rows] \
            == expected
        if analyzed and not expected:
            explained = db.execute("EXPLAIN " + sql, params)
            assert explained.plan["estimated_rows"] == 0.0


class TestCorrelation:
    def test_analyze_records_heap_order_correlation(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, up INT, "
                   "down INT, mixed INT, flag INT)")
        db.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
            [(i, i // 3, -i, i * 7919 % 1000, i * 7919 % 2)
             for i in range(1000)])
        db.execute("ANALYZE t")
        columns = db.catalog.stats_for("t").columns
        assert columns["id"].correlation == pytest.approx(1.0)
        assert columns["up"].correlation == pytest.approx(1.0, abs=1e-3)
        assert columns["down"].correlation == pytest.approx(-1.0)
        assert abs(columns["mixed"].correlation) < 0.1
        # Two scattered values: ties share a rank, so no false order.
        assert abs(columns["flag"].correlation) < 0.1

    def test_stats_without_correlation_price_as_before(self):
        old = ColumnStats(0.0, 100, 0, 99, list(range(100))).to_dict()
        del old["correlation"]
        assert ColumnStats.from_dict(old).correlation == 0.0
        model = CostModel(buffer_pages=10)
        probe = model._btree_height(10_000) * model.random_page_cost
        assert model.index_scan(100, 10_000, 50) == pytest.approx(
            probe + 50 * model.random_page_cost
            + 50 * model.cpu_tuple_cost)

    def test_clustered_matches_cost_a_run_of_pages(self):
        model = CostModel(buffer_pages=10)
        scattered = model.index_scan(100, 10_000, 50)
        clustered = model.index_scan(100, 10_000, 50, 1.0)
        reverse = model.index_scan(100, 10_000, 50, -1.0)
        half = model.index_scan(100, 10_000, 50, 0.5)
        assert clustered == reverse < half < scattered
        probe = model._btree_height(10_000) * model.random_page_cost
        # 50 of 10 000 rows over 100 pages: half a page, plus the one
        # the run starts in.
        assert clustered == pytest.approx(
            probe + 1.5 * model.random_page_cost
            + 50 * model.cpu_tuple_cost)
        # A single match never costs more than its one page.
        assert model.index_scan(100, 10_000, 1, 1.0) == \
            model.index_scan(100, 10_000, 1)

    def test_correlation_survives_reopen(self):
        device, wal = MemoryDevice(), MemoryDevice()
        db = Database(device=device, wal_device=wal)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, -i) for i in range(50)])
        db.execute("ANALYZE t")
        db.checkpoint()
        reopened = Database(device=device, wal_device=wal)
        assert reopened.catalog.stats_for("t").columns["v"].correlation \
            == pytest.approx(-1.0)


def true_count(values, low, high, low_inclusive, high_inclusive):
    return sum(1 for v in values
               if (v >= low if low_inclusive else v > low)
               and (v <= high if high_inclusive else v < high))


class TestIntervalEstimates:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_intervals_within_q_error_two(self, seed):
        """Seeded property: a two-sided interval estimates within 2x of
        the true count — on a uniform column down to 20 rows of 4000
        (the independence product this replaces was ~50x off there),
        on a skewed one down to one histogram bucket's depth."""
        import random
        rng = random.Random(seed)
        n = 4000
        columns = {
            "uniform": [rng.randrange(10_000) for _ in range(n)],
            "skewed": [int(rng.random() ** 3 * 10_000) for _ in range(n)],
        }
        floor = {"uniform": n // 200, "skewed": n // 16}
        stats = TableStats(n, 40)
        for name, values in columns.items():
            ordered = sorted(values)
            stats.columns[name] = ColumnStats(
                n_distinct=len(set(values)), minimum=ordered[0],
                maximum=ordered[-1], histogram=build_histogram(ordered))
        estimator = SelectivityEstimator(stats)
        checked = 0
        for _ in range(300):
            name = rng.choice(sorted(columns))
            values = columns[name]
            low = rng.choice(values)
            high = low + rng.randrange(1, 3000) if name == "uniform" \
                else rng.choice(values)
            low, high = sorted((low, high))
            low_inc, high_inc = rng.random() < 0.5, rng.random() < 0.5
            actual = true_count(values, low, high, low_inc, high_inc)
            if low == high or actual < floor[name]:
                continue
            specs = fold_intervals([
                PredicateSpec(name, ">=" if low_inc else ">", low),
                PredicateSpec(name, "<=" if high_inc else "<", high)])
            estimate = max(n * estimator.combined(specs), 1.0)
            assert max(estimate / actual, actual / estimate) <= 2.0, \
                (name, low, high, low_inc, high_inc, actual, estimate)
            checked += 1
        assert checked > 100


def load_keyed(db, order):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
    db.execute("BEGIN")
    db.executemany("INSERT INTO t VALUES (?, ?)",
                   [(i, "x" * 60) for i in order])
    db.execute("COMMIT")
    db.execute("ANALYZE t")


class TestClusteringAwareChoice:
    RANGE = "SELECT id FROM t WHERE id > ? AND id < ?"

    def test_key_order_vs_shuffled_on_a_small_pool(self):
        """The same rows and the same 300-row range: walking the index
        is a handful of pages when the heap is in key order and one
        page per row when it is shuffled, so on a pool smaller than
        the table only the first beats the scan."""
        import random
        keys = list(range(3000))
        ordered = Database(buffer_capacity=8)
        load_keyed(ordered, keys)
        random.Random(5).shuffle(keys)
        shuffled = Database(buffer_capacity=8)
        load_keyed(shuffled, keys)
        assert ordered.catalog.stats_for("t").page_count > 8
        plans = {}
        for name, db in (("ordered", ordered), ("shuffled", shuffled)):
            result = db.execute(self.RANGE, (1000, 1301))
            assert len(result.rows) == 300
            plans[name] = result.plan["access_paths"]
        assert plans == {"ordered": ["index_range(t.id)"],
                         "shuffled": ["seq_scan(t)"]}

    @pytest.mark.parametrize("analyzed", [False, True])
    def test_dml_ranges_walk_the_index_between_both_bounds(
            self, db, analyzed, monkeypatch):
        from repro.data.table import TableIndex
        fill(db, n_rows=300)
        if analyzed:
            db.execute("ANALYZE")
        walked = []
        original = TableIndex.range_scan

        def spy(self, lo, hi, lo_inclusive=True, hi_inclusive=False):
            walked.append((lo, hi, lo_inclusive, hi_inclusive))
            return original(self, lo, hi, lo_inclusive, hi_inclusive)

        monkeypatch.setattr(TableIndex, "range_scan", spy)
        for sql in ("UPDATE fact SET v = v + 1 WHERE id > ? AND id < ?",
                    "DELETE FROM fact WHERE id > ? AND id < ?"):
            explained = db.execute("EXPLAIN " + sql, (100, 111))
            assert ("access_path", "index_range(fact.id)") \
                in explained.rows
            assert db.execute(sql, (100, 111)).affected == 10
        assert walked == [((100,), (111,), False, False)] * 2
        assert db.query("SELECT COUNT(*) FROM fact") == [(290,)]


class TestRuleBasedInterval:
    SQL = "SELECT id FROM fact WHERE id > ? AND id <= ?"

    def test_rule_path_takes_both_bounds(self, db):
        fill(db, n_rows=50)
        table = db.catalog.table("fact")
        choice = rule_access_path(table, [PredicateSpec("v", "<", 9),
                                          PredicateSpec("id", ">", 10),
                                          PredicateSpec("id", "<=", 20)])
        assert choice.path == "index_range(fact.id)"
        assert choice.interval == spec_range("id", 10, 20,
                                             high_inclusive=True)

    def test_cached_and_uncached_report_the_same_plan(self, db):
        from repro.data.sql.parser import parse
        fill(db, n_rows=50)
        miss = db.execute(self.SQL, (10, 20))
        hit = db.execute(self.SQL, (10, 20))
        uncached = db.execute_statement(parse(self.SQL), (10, 20))
        assert (miss.plan["cached"], hit.plan["cached"]) == ("miss", "hit")
        assert "cached" not in uncached.plan
        for result in (miss, hit):
            result.plan.pop("cached")
            assert result.plan == uncached.plan
            assert result.rows == uncached.rows
        assert uncached.plan["access_paths"] == ["index_range(fact.id)"]
        assert [row[0] for row in uncached.rows] == list(range(11, 21))


# ---------------------------------------------------------------------------
# the perf ledger's statement shapes, pinned
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ledger_items():
    """``items`` at the ledger's out-of-core shape: 6000 rows loaded in
    key order behind a 20-frame pool, ANALYZEd, no VACUUM (so no
    columnar mirror).  Statement texts are copies of the ledger's."""
    import random
    rng = random.Random(7)
    db = Database(buffer_capacity=20)
    db.execute("CREATE TABLE items (id INT PRIMARY KEY, grp INT NOT NULL, "
               "label TEXT NOT NULL, value FLOAT)")
    rows = [(i, rng.randrange(50), "abcdefgh",
             round(rng.uniform(0, 1000), 2)) for i in range(6000)]
    for start in range(0, len(rows), 1000):
        db.execute("BEGIN")
        db.executemany("INSERT INTO items VALUES (?, ?, ?, ?)",
                       rows[start:start + 1000])
        db.execute("COMMIT")
    db.execute("ANALYZE")
    yield db
    db.close()


class TestLedgerPlans:
    """An access-path flip on a ledger shape should be a failing test
    with a readable diff, not a surprise in the next ledger run."""

    RANGE = "SELECT id, value FROM items WHERE id > ? AND id < ?"
    SHAPES = [
        ("point", "SELECT * FROM items WHERE id = ?", (4321,),
         "index_eq(items.id)"),
        ("range", RANGE, (2000, 2051), "index_range(items.id)"),
        ("secondary", "SELECT * FROM items WHERE grp = ?", (17,),
         "seq_scan(items)"),
        ("topk", "SELECT * FROM items WHERE grp = ? "
                 "ORDER BY value DESC, id LIMIT 10", (17,),
         "seq_scan(items)"),
        ("filt_agg", "SELECT COUNT(*), SUM(value) FROM items "
                     "WHERE value > ? AND grp < ?", (500.0, 25),
         "seq_scan(items)"),
        ("update", "UPDATE items SET value = value + 1 WHERE id = ?",
         (4321,), "index_eq(items.id)"),
    ]

    def test_access_path_per_shape(self, ledger_items):
        paths = {
            kind: [detail for row_kind, detail
                   in ledger_items.execute("EXPLAIN " + sql, params).rows
                   if row_kind == "access_path"]
            for kind, sql, params, _ in self.SHAPES}
        assert paths == {kind: [path] for kind, _, _, path in self.SHAPES}

    def test_range_plan_is_the_same_on_hit_miss_and_bypass(
            self, ledger_items):
        from repro.data.sql.parser import parse
        db = ledger_items
        params = (3000, 3051)
        db._plan_cache.clear()
        miss = db.execute(self.RANGE, params)
        hit = db.execute(self.RANGE, params)
        uncached = db.execute_statement(parse(self.RANGE), params)
        bypass = db.execute("SELECT COUNT(*) FROM items "
                            "WHERE id > ? AND id < ?", params)
        assert [r.plan.get("cached") for r in
                (miss, hit, uncached, bypass)] \
            == ["miss", "hit", None, "bypass"]
        estimate = dict(miss.plan["estimates"][0])
        assert 25 <= estimate.pop("rows") <= 100
        assert 0 < estimate.pop("cost") < 30      # a seq scan is 159
        assert estimate == {
            "table": "items", "binding": "items",
            "path": "index_range(items.id)",
            "interval": "3000 < id < 3051", "correlation": 1.0}
        for result in (miss, hit, uncached, bypass):
            assert result.plan["access_paths"] == ["index_range(items.id)"]
            assert result.plan["estimates"] == miss.plan["estimates"]
        assert len(miss.rows) == 50 and bypass.rows == [(50,)]
        explained = dict(db.execute("EXPLAIN " + self.RANGE, params).rows)
        assert explained["estimate"].endswith(
            "interval=[3000 < id < 3051] correlation=1.0")
