"""Vectorized engine: compiled-expression parity (three-valued logic)
and batch-vs-row engine result equivalence over the SQL fixture suite."""

import random

import pytest

from repro.access.batch import RowBatch
from repro.data import Database
from repro.data.sql import ast
from repro.data.sql.compiler import (
    compile_predicate,
    compile_projection,
    compile_scalar,
)
from repro.data.sql.planner import Scope, compile_expression

# ---------------------------------------------------------------------------
# Randomized expression parity: generated code vs interpreted evaluator
# ---------------------------------------------------------------------------

COLUMNS = ["a", "b", "c", "d", "e"]   # INT, INT, FLOAT, TEXT, BOOL


def _random_rows(rng, count=40):
    rows = []
    for _ in range(count):
        rows.append((
            rng.choice([None, rng.randint(-50, 50)]),
            rng.choice([None, rng.randint(-5, 5)]),
            rng.choice([None, rng.randint(-40, 40) / 2.0]),
            rng.choice([None, "", "ab", "abc", "ba%", "x_y", "zzz"]),
            rng.choice([None, True, False]),
        ))
    return rows


def _num_expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice([
            ast.Literal(rng.randint(-10, 10)),
            ast.Literal(rng.choice([None, 0, 1, 2.5, -3.5])),
            ast.ColumnRef("a"), ast.ColumnRef("b"), ast.ColumnRef("c"),
        ])
    if roll < 0.45:
        return ast.Unary("-", _num_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "%"])
    return ast.Binary(op, _num_expr(rng, depth - 1),
                      _num_expr(rng, depth - 1))


def _text_expr(rng):
    return rng.choice([
        ast.Literal(rng.choice([None, "ab", "abc", "a%", "z"])),
        ast.ColumnRef("d"),
    ])


def _bool_expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        choice = rng.random()
        if choice < 0.45:
            op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
            return ast.Binary(op, _num_expr(rng, 1), _num_expr(rng, 1))
        if choice < 0.60:
            return ast.IsNull(_num_expr(rng, 1),
                              negated=rng.random() < 0.5)
        if choice < 0.75:
            return ast.Between(_num_expr(rng, 1), _num_expr(rng, 1),
                               _num_expr(rng, 1),
                               negated=rng.random() < 0.5)
        if choice < 0.90:
            items = tuple(
                ast.Literal(rng.choice([None, -1, 0, 1, 2, 3.0]))
                for _ in range(rng.randint(1, 4)))
            return ast.InList(_num_expr(rng, 1), items,
                              negated=rng.random() < 0.5)
        return ast.Binary("LIKE", _text_expr(rng),
                          ast.Literal(rng.choice(["a%", "%b", "_b%",
                                                  "abc", "%"])))
    if roll < 0.45:
        return ast.Unary("NOT", _bool_expr(rng, depth - 1))
    op = rng.choice(["AND", "OR"])
    return ast.Binary(op, _bool_expr(rng, depth - 1),
                      _bool_expr(rng, depth - 1))


def _seq_sum(values):
    total = 0
    for value in values:
        total += value
    return total


def _same(left, right):
    if left is None or right is None:
        return left is None and right is None
    return type(left) is type(right) and left == right


class TestCompiledExpressionParity:
    """Compiled closures must be bit-identical to the interpreter."""

    @pytest.mark.parametrize("seed", range(8))
    def test_scalar_parity(self, seed):
        rng = random.Random(0xA80 + seed)
        rows = _random_rows(rng)
        scope = Scope(list(COLUMNS))
        for _ in range(60):
            expr = rng.choice([_bool_expr(rng, 3), _num_expr(rng, 3)])
            interpreted = compile_expression(expr, scope)
            compiled = compile_scalar(expr, scope)
            for row in rows:
                try:
                    expected = interpreted(row)
                except Exception as exc:   # noqa: BLE001 - parity check
                    with pytest.raises(type(exc)):
                        compiled(row)
                    continue
                assert _same(compiled(row), expected), \
                    f"{expr!r} on {row!r}"

    @pytest.mark.parametrize("seed", range(8))
    def test_predicate_batch_parity(self, seed):
        """All three predicate lowerings agree with the interpreter's
        WHERE semantics (keep rows whose value is exactly TRUE)."""
        rng = random.Random(0xB80 + seed)
        rows = _random_rows(rng)
        scope = Scope(list(COLUMNS))
        columnar = RowBatch(tuple(map(list, zip(*rows))), len(rows))
        lazy = RowBatch.from_rows(rows, len(COLUMNS))
        for _ in range(40):
            expr = _bool_expr(rng, 3)
            interpreted = compile_expression(expr, scope)
            predicate = compile_predicate(expr, scope)
            try:
                expected = [i for i, row in enumerate(rows)
                            if interpreted(row) is True]
            except Exception:   # noqa: BLE001 - type-error expressions
                continue
            assert [i for i, row in enumerate(rows)
                    if predicate.row(row)] == expected
            if predicate.batch is not None:
                assert predicate.batch(columnar.columns,
                                       len(rows)) == expected
            if predicate.rows is not None:
                assert predicate.rows(lazy.rows) == expected

    def test_projection_forms_agree(self):
        rng = random.Random(0xC80)
        rows = _random_rows(rng)
        scope = Scope(list(COLUMNS))
        outputs = [0, ast.Binary("+", ast.ColumnRef("a"),
                                 ast.ColumnRef("b")),
                   ast.Binary("*", ast.ColumnRef("c"), ast.Literal(2))]
        projection = compile_projection(outputs, scope)
        assert projection.positions is None
        assert projection.batch is not None and projection.rows is not None
        expected = [tuple(expr(row) for expr in projection.row_exprs)
                    for row in rows]
        columnar = RowBatch(tuple(map(list, zip(*rows))), len(rows))
        by_cols = projection.batch(columnar.columns, len(rows))
        by_rows = projection.rows(rows)
        assert [tuple(col[i] for col in by_cols)
                for i in range(len(rows))] == expected
        assert [tuple(col[i] for col in by_rows)
                for i in range(len(rows))] == expected

    def test_pure_column_projection_positions(self):
        scope = Scope(list(COLUMNS))
        projection = compile_projection(
            [2, ast.ColumnRef("a"), ast.ColumnRef("d")], scope)
        assert projection.positions == [2, 0, 3]


# ---------------------------------------------------------------------------
# Engine equivalence over the SQL fixture suite
# ---------------------------------------------------------------------------

FIXTURE_STATEMENTS = [
    ("CREATE TABLE emp (id INT PRIMARY KEY, name TEXT NOT NULL, "
     "dept TEXT, salary FLOAT, active BOOL)"),
    ("INSERT INTO emp VALUES "
     "(1, 'ada', 'eng', 100.0, TRUE), "
     "(2, 'bob', 'eng', 80.0, TRUE), "
     "(3, 'cyd', 'ops', 60.0, FALSE), "
     "(4, 'dee', NULL, NULL, TRUE)"),
    "CREATE TABLE dept (name TEXT PRIMARY KEY, floor INT)",
    "INSERT INTO dept VALUES ('eng', 3), ('ops', 1), ('hr', 2)",
    "CREATE VIEW eng_emp AS SELECT id, name FROM emp WHERE dept = 'eng'",
]

# Every SELECT shape exercised by the tier-1 SQL fixtures, plus NULL
# semantics, LIMIT/OFFSET, DISTINCT, views, unions, and parameters.
EQUIVALENCE_QUERIES = [
    ("SELECT * FROM emp", ()),
    ("SELECT name, salary FROM emp WHERE salary > 70", ()),
    ("SELECT name FROM emp WHERE dept = 'eng' AND active", ()),
    ("SELECT name FROM emp WHERE dept IS NULL", ()),
    ("SELECT name FROM emp WHERE dept IS NOT NULL OR salary > 1000", ()),
    ("SELECT name FROM emp WHERE salary BETWEEN 60 AND 100", ()),
    ("SELECT name FROM emp WHERE salary NOT BETWEEN 60 AND 80", ()),
    ("SELECT name FROM emp WHERE dept IN ('eng', 'hr')", ()),
    ("SELECT name FROM emp WHERE dept NOT IN ('eng')", ()),
    ("SELECT name FROM emp WHERE name LIKE 'a%'", ()),
    ("SELECT name FROM emp WHERE name LIKE '_o_'", ()),
    ("SELECT id * 2 + 1, salary / 2, salary % 7 FROM emp", ()),
    ("SELECT -id, NOT active FROM emp", ()),
    ("SELECT 1 + 2, 'x', NULL", ()),
    ("SELECT count(*), count(salary), sum(salary), avg(salary), "
     "min(salary), max(salary) FROM emp", ()),
    ("SELECT dept, count(*) FROM emp GROUP BY dept", ()),
    ("SELECT dept, sum(salary) FROM emp GROUP BY dept "
     "HAVING sum(salary) > 50", ()),
    ("SELECT count(DISTINCT dept) FROM emp", ()),
    ("SELECT DISTINCT dept FROM emp", ()),
    ("SELECT DISTINCT active, dept FROM emp ORDER BY active", ()),
    ("SELECT name FROM emp ORDER BY salary", ()),
    ("SELECT name FROM emp ORDER BY salary DESC, name", ()),
    ("SELECT name FROM emp ORDER BY dept, id DESC", ()),
    ("SELECT name FROM emp ORDER BY salary LIMIT 2", ()),
    ("SELECT name FROM emp ORDER BY salary LIMIT 2 OFFSET 1", ()),
    ("SELECT name FROM emp ORDER BY id LIMIT 10 OFFSET 2", ()),
    ("SELECT name FROM emp LIMIT 3", ()),
    ("SELECT name, salary * 2 AS double FROM emp ORDER BY double", ()),
    ("SELECT e.name, d.floor FROM emp e JOIN dept d "
     "ON e.dept = d.name", ()),
    ("SELECT e.name, d.floor FROM emp e LEFT JOIN dept d "
     "ON e.dept = d.name ORDER BY e.id", ()),
    ("SELECT e.name, d.name FROM emp e JOIN dept d "
     "ON e.salary > d.floor * 25", ()),
    ("SELECT dept, count(*) FROM emp GROUP BY dept "
     "ORDER BY count(*) DESC, dept LIMIT 1", ()),
    ("SELECT id, name FROM eng_emp ORDER BY id", ()),
    ("SELECT name FROM emp WHERE id = ?", (2,)),
    ("SELECT name FROM emp WHERE salary > ? AND dept = ?",
     (70.0, "eng")),
    ("SELECT name FROM emp WHERE id = (SELECT min(id) FROM emp)", ()),
    ("SELECT name FROM emp WHERE dept IN "
     "(SELECT name FROM dept WHERE floor > 1)", ()),
    ("SELECT name FROM emp UNION SELECT name FROM dept", ()),
    ("SELECT name FROM emp UNION ALL SELECT name FROM dept", ()),
    ("SELECT id FROM emp WHERE id > 1", ()),
    ("SELECT id FROM emp WHERE id >= 2 AND id <= 3", ()),
]


def _build(engine):
    db = Database(execution_engine=engine)
    for statement in FIXTURE_STATEMENTS:
        db.execute(statement)
    # A second, multi-page table so batches span page boundaries and a
    # real mix of NULLs flows through every operator.
    db.execute("CREATE TABLE big (k INT PRIMARY KEY, grp TEXT, "
               "x INT, y FLOAT)")
    rng = random.Random(0xA8)
    values = []
    for k in range(2500):
        grp = rng.choice(["'p'", "'q'", "'r'", "NULL"])
        x = rng.choice(["NULL", str(rng.randint(0, 99))])
        y = rng.choice(["NULL", f"{rng.randint(0, 199)}.5"])
        values.append(f"({k}, {grp}, {x}, {y})")
    db.execute("INSERT INTO big VALUES " + ", ".join(values))
    return db


BIG_QUERIES = [
    ("SELECT count(*), count(x), sum(x), min(y), max(y) FROM big", ()),
    ("SELECT grp, count(*), sum(x), avg(y) FROM big GROUP BY grp", ()),
    ("SELECT k, x FROM big WHERE x > 50 AND y < 100", ()),
    ("SELECT k FROM big WHERE grp = 'p' AND x IS NOT NULL "
     "ORDER BY x DESC, k LIMIT 7", ()),
    ("SELECT k FROM big WHERE x > 90 ORDER BY y, k LIMIT 5 OFFSET 3", ()),
    ("SELECT DISTINCT grp FROM big", ()),
    ("SELECT b.k FROM big b JOIN emp e ON b.x = e.id "
     "ORDER BY b.k LIMIT 20", ()),
]


class TestEngineEquivalence:
    """The vectorized and row engines must return identical results —
    including NULL semantics and row order — on the full fixture suite."""

    @pytest.fixture(scope="class")
    def engines(self):
        return _build("vectorized"), _build("row")

    @pytest.mark.parametrize(
        "sql,params",
        EQUIVALENCE_QUERIES + BIG_QUERIES,
        ids=[q[0][:60] for q in EQUIVALENCE_QUERIES + BIG_QUERIES])
    def test_identical_results(self, engines, sql, params):
        vectorized, row = engines
        left = vectorized.execute(sql, params)
        right = row.execute(sql, params)
        assert left.columns == right.columns
        assert left.rows == right.rows
        for a, b in zip(left.rows, right.rows):
            for x, y in zip(a, b):
                assert (x is None) == (y is None)
                if x is not None:
                    assert type(x) is type(y)

    def test_analyzed_plans_agree_too(self, engines):
        vectorized, row = engines
        for db in engines:
            db.execute("ANALYZE")
        for sql, params in EQUIVALENCE_QUERIES + BIG_QUERIES:
            assert vectorized.execute(sql, params).rows == \
                row.execute(sql, params).rows, sql

    def test_float_aggregate_rounding_parity(self):
        """Float addition is not associative: SUM/AVG (plain and
        DISTINCT) must accumulate in the row engine's order."""
        results = []
        for engine in ("vectorized", "row"):
            db = Database(execution_engine=engine)
            db.execute("CREATE TABLE f (id INT PRIMARY KEY, x FLOAT)")
            db.execute("INSERT INTO f VALUES (1, 1e16), (2, 1.0), "
                       "(3, 2.0), (4, -1e16), (5, 0.3333333333333333), "
                       "(6, 1.0), (7, 2.0)")
            results.append(db.query(
                "SELECT sum(x), avg(x), sum(DISTINCT x), avg(DISTINCT x) "
                "FROM f"))
        assert results[0] == results[1]

        # Grouped: every group spans the three ~1024-row batches of the
        # heap scan and, after VACUUM, one columnar block.
        cancelling = [1e16, 1.0, -1e16, 0.3333333333333333, 2.0, 1e-3,
                      -0.1, 1e16, 0.7, -1e16, 3.0]
        rows = [(i, i % 7, cancelling[(i * 5 + i // 7) % len(cancelling)])
                for i in range(3100)]
        sql = ("SELECT g, count(*), sum(x), avg(x), sum(DISTINCT x), "
               "avg(DISTINCT x) FROM f GROUP BY g")
        answers = {}
        for engine in ("vectorized", "row"):
            db = Database(execution_engine=engine, mirror_min_rows=16)
            db.execute("CREATE TABLE f (id INT PRIMARY KEY, g INT, x FLOAT)")
            db.executemany("INSERT INTO f VALUES (?, ?, ?)", rows)
            heap = db.query(sql)
            db.execute("VACUUM")
            assert db.execute("EXPLAIN " + sql).plan["stores"] == \
                ["f=columnar"]
            columnar = db.query(sql)
            answers[engine] = [[tuple(map(repr, row)) for row in result]
                               for result in (heap, columnar)]
        assert answers["vectorized"] == answers["row"]
        assert answers["vectorized"][0] == answers["vectorized"][1]
        # The data can tell summation orders apart: a sorted-order sum
        # rounds differently from the row-order one in some group.
        in_order = {}
        for _, g, x in rows:
            in_order.setdefault(g, []).append(x)
        assert any(_seq_sum(xs) != _seq_sum(sorted(xs))
                   for xs in in_order.values())

    def test_odd_limit_offset_params_parity(self, engines):
        vectorized, row = engines
        for sql, params in [
            ("SELECT id FROM emp ORDER BY id LIMIT ?", (2.5,)),
            ("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET ?", (-1,)),
            ("SELECT id FROM emp ORDER BY id LIMIT ? OFFSET ?",
             (1.5, 1)),
        ]:
            assert vectorized.execute(sql, params).rows == \
                row.execute(sql, params).rows, (sql, params)

    def test_row_engine_update_subquery(self):
        db = Database(execution_engine="row")
        db.execute("CREATE TABLE s (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO s VALUES (1, 10), (2, 20)")
        db.execute("UPDATE s SET v = (SELECT max(v) FROM s) WHERE id = 1")
        assert db.query("SELECT v FROM s WHERE id = 1") == [(20,)]

    def test_dml_visible_to_both_paths(self, engines):
        vectorized, _ = engines
        vectorized.execute("CREATE TABLE dml (id INT PRIMARY KEY, v INT)")
        vectorized.execute("INSERT INTO dml VALUES (1, 10), (2, NULL)")
        vectorized.execute("UPDATE dml SET v = 11 WHERE id = 1")
        vectorized.execute("DELETE FROM dml WHERE v IS NULL")
        assert vectorized.query("SELECT * FROM dml") == [(1, 11)]


# ---------------------------------------------------------------------------
# Plan surface: engine tag, top-k rewrite, fusion
# ---------------------------------------------------------------------------

class TestPlanSurface:
    @pytest.fixture()
    def db(self):
        return _build("vectorized")

    def test_explain_reports_engine(self, db):
        result = db.execute("EXPLAIN SELECT * FROM emp")
        assert ("exec", "vectorized") in result.rows
        assert result.plan["exec"] == "vectorized"
        row_db = _build("row")
        assert row_db.execute(
            "EXPLAIN SELECT * FROM emp").plan["exec"] == "row"

    def test_sort_limit_becomes_top_k(self, db):
        plan = db.execute("EXPLAIN SELECT name FROM emp "
                          "ORDER BY salary LIMIT 2").plan
        assert plan["top_k"] is True
        plan = db.execute("EXPLAIN SELECT name FROM emp "
                          "ORDER BY salary").plan
        assert plan["top_k"] is False
        # DISTINCT above the sort makes truncation illegal.
        plan = db.execute("EXPLAIN SELECT DISTINCT name FROM emp "
                          "ORDER BY name LIMIT 2").plan
        assert plan["top_k"] is False
        # Aggregate path sorts above DISTINCT, so top-k stays legal.
        plan = db.execute("EXPLAIN SELECT dept, count(*) FROM emp "
                          "GROUP BY dept ORDER BY count(*) LIMIT 1").plan
        assert plan["top_k"] is True

    def test_filter_projection_fuses(self, db):
        plan = db.execute("EXPLAIN SELECT name FROM emp "
                          "WHERE salary > 70").plan
        assert plan["fused"] is True
        plan = db.execute("EXPLAIN SELECT name FROM emp").plan
        assert plan["fused"] is False

    def test_row_engine_never_fuses(self):
        db = _build("row")
        plan = db.execute("EXPLAIN SELECT name FROM emp "
                          "WHERE salary > 70").plan
        assert plan["fused"] is False

    def test_distinct_offset_only_limit(self, db):
        # offset-only LIMIT keeps the Sort (no constant bound to push).
        rows = db.query("SELECT name FROM emp ORDER BY id "
                        "LIMIT 2 OFFSET 2")
        assert rows == [("cyd",), ("dee",)]

    def test_engine_validation(self):
        with pytest.raises(Exception):
            Database(execution_engine="warp")
