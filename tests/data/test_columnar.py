"""HTAP columnar tier: encoding, zone maps, migration, equivalence.

The columnar store is a *redundant* representation — every answer it
produces must be bit-identical (3VL included) to what the heap would
have said.  These tests pin that equivalence over a SQL battery with a
concurrent OLTP writer, plus the mechanics underneath: per-column
encodings round-trip with type identity, zone maps answer three-valued
admissibility, vacuum migrates dead versions and rebuilds mirrors,
fraction-based pacing fires, and EXPLAIN names the store every table
access path uses.
"""

import marshal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BLOCK_ROWS, PUSHABLE_OPS, EncodedColumn, ZoneMap
from repro.columnar.encoding import (_dict_encode, _for_encode,
                                     _rle_encode, spec_test)
from repro.data import Database
from repro.data.sql.optimizer import PredicateSpec
from repro.storage import MemoryDevice

ENGINES = ["vectorized", "row"]


def typed(rows):
    """Sort rows and tag every value with its class so ``1`` vs ``1.0``
    vs ``True`` (equal under ``==``) cannot slip through a comparison."""
    return sorted(
        (tuple((v.__class__.__name__, v) for v in row) for row in rows),
        key=repr)


# -- encodings ---------------------------------------------------------------


class TestEncoding:
    @pytest.mark.parametrize("values, kind", [
        ([7] * 500, "rle"),
        (["ab", "cd"] * 300, "dict"),
        (list(range(10_000, 10_600)), "for"),
        ([f"unique-{i}" for i in range(40)], "plain"),
    ])
    def test_roundtrip_picks_expected_kind(self, values, kind):
        col = EncodedColumn.encode(values)
        assert col.kind == kind
        assert col.decode() == values

    def test_nulls_and_mixed_types_roundtrip(self):
        values = [1, None, "x", 2.5, None, True, b"\x00raw"] * 30
        col = EncodedColumn.encode(values)
        out = col.decode()
        assert out == values
        assert [v.__class__ for v in out] == [v.__class__ for v in values]

    def test_equal_but_distinct_types_survive(self):
        # 1 == 1.0 == True: a dictionary keyed on value alone would
        # collapse these and rewrite the column's types.
        values = [1, 1.0, True, 1, 1.0, True] * 40
        for col in (EncodedColumn.encode(values),):
            out = col.decode()
            assert [v.__class__ for v in out] == \
                [v.__class__ for v in values]

    def test_matches_agrees_with_per_row_test(self):
        values = [None, 1, 2, 2, 3, None, 5] * 50
        col = EncodedColumn.encode(values)
        assert list(col.matches(PredicateSpec("v", ">=", 2))) == [
            v is not None and v >= 2 for v in values]


def _forced(kind, values):
    """An EncodedColumn in ``kind`` regardless of which is smallest."""
    payload = marshal.dumps(values) if kind == "plain" else {
        "rle": _rle_encode, "dict": _dict_encode, "for": _for_encode,
    }[kind](values)
    assert payload is not None, (kind, values)
    return EncodedColumn(kind, payload, len(values))


COMPARANDS = [None, 0, 1, 1.0, True, 2.5, -3]
SPECS = [PredicateSpec("v", op, value=c) for op in ("=", "<", "<=", ">", ">=")
         for c in COMPARANDS] + \
    [PredicateSpec("v", "between", low=lo, high=hi, low_inclusive=li,
                   high_inclusive=hi_inc)
     for lo, hi in [(0, 2), (1, 1.0), (-3, 2.5), (None, 2), (1, None)]
     for li in (True, False) for hi_inc in (True, False)] + \
    [PredicateSpec("v", "isnull"), PredicateSpec("v", "notnull")]


class TestPushdownFlags:
    """``EncodedColumn.matches(spec)`` equals the per-value ``spec_test``
    closure for every pushable op on every encoding."""

    def test_specs_cover_every_pushable_op(self):
        assert {spec.op for spec in SPECS} == set(PUSHABLE_OPS)

    @pytest.mark.parametrize("kind, values", [
        ("plain", [3, 1.0, None, -3, True, 2.5, None, 0]),    # NULLs
        ("plain", [3, 1.0, -3, True, 2.5, 0, 1]),           # no NULLs
        ("for", [5, 1, -3, 0, 2, 1, 7]),                    # ints only
        ("dict", [1, 1.0, True, None, 1, 2.5, 1.0, None]),
        ("rle", [1, 1, 1.0, 1.0, None, None, True, True, 0, 0]),
    ])
    def test_matches_equals_spec_test(self, kind, values):
        col = _forced(kind, values)
        for spec in SPECS:
            test = spec_test(spec.op, spec.value, spec.low, spec.high,
                             spec.low_inclusive, spec.high_inclusive)
            flags = col.matches(spec)
            assert flags == [bool(test(v)) for v in values], spec
            assert all(flag.__class__ is bool for flag in flags), spec

    @given(st.lists(st.one_of(st.none(), st.integers(-4, 4),
                              st.floats(-4, 4, allow_nan=False)),
                    min_size=1, max_size=50),
           st.sampled_from(SPECS))
    @settings(max_examples=150, deadline=None)
    def test_matches_equals_spec_test_property(self, values, spec):
        test = spec_test(spec.op, spec.value, spec.low, spec.high,
                         spec.low_inclusive, spec.high_inclusive)
        expected = [bool(test(v)) for v in values]
        assert EncodedColumn.encode(values).matches(spec) == expected
        assert _forced("plain", values).matches(spec) == expected
        assert _forced("dict", values).matches(spec) == expected
        ints = [v for v in values if v.__class__ is int]
        if ints:
            assert _forced("for", ints).matches(spec) == \
                [bool(test(v)) for v in ints]
        runs = [v for v in values for _ in range(2)]
        assert _forced("rle", runs).matches(spec) == \
            [bool(test(v)) for v in runs]

    def test_incomparable_values_fall_back_to_the_row_test(self):
        # No block value reaches the string bound, so the row test never
        # compares against it and nothing raises.
        col = _forced("plain", [-5, -4, -3])
        spec = PredicateSpec("v", "between", low=0, high="z")
        assert col.matches(spec) == [False, False, False]
        with pytest.raises(TypeError):
            _forced("plain", [1, "a"]).matches(PredicateSpec("v", "<", 2))


class TestZoneMap:
    def test_build_and_admit_ranges(self):
        zone = ZoneMap.build([3, None, 9, 5])
        assert (zone.lo, zone.hi, zone.nulls, zone.count) == (3, 9, 1, 4)
        assert zone.admits("=", 5)
        assert not zone.admits("=", 10)
        assert zone.admits("between", None, 8, 20)
        assert not zone.admits("between", None, 10, 20)
        assert zone.admits("isnull", None)
        assert zone.admits("notnull", None)

    def test_all_null_block_admits_nothing_but_isnull(self):
        zone = ZoneMap.build([None, None])
        assert zone.admits("isnull", None)
        assert not zone.admits("notnull", None)
        assert not zone.admits("=", 1)
        assert not zone.admits("<", 1)

    def test_null_comparand_admits_nothing(self):
        zone = ZoneMap.build([1, 2, 3])
        # ``col = NULL`` is UNKNOWN for every row: the block holds no
        # row for which the predicate is TRUE.
        assert not zone.admits("=", None)
        assert not zone.admits("between", None, None, 5)

    def test_incomparable_types_fail_open(self):
        zone = ZoneMap.build(["a", "b"])
        assert zone.admits("<", 5)      # TypeError => cannot exclude

    def test_row_test_honours_interval_inclusivity(self):
        closed = spec_test("between", low=1, high=3)
        half_open = spec_test("between", low=1, high=3,
                              low_inclusive=False)
        assert [closed(v) for v in (0, 1, 3, 4, None)] == \
            [False, True, True, False, False]
        assert [half_open(v) for v in (1, 2, 3)] == [False, True, True]
        never = spec_test("between", low=None, high=None)
        assert not any(never(v) for v in (None, 0, 1))


# -- migration, pacing, EXPLAIN ----------------------------------------------


def make_db(**kwargs):
    kwargs.setdefault("mirror_min_rows", 16)
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                   [(i, i % 7, f"s{i % 3}") for i in range(200)])
    return db


class TestMigrationAndMirror:
    def test_vacuum_migrates_dead_versions_and_builds_mirror(self):
        db = make_db()
        for i in range(100):
            db.execute("UPDATE t SET v = v + 100 WHERE id = ?", (i,))
        before = db.query("SELECT COUNT(*), SUM(v) FROM t")
        report = db.vacuum(aggressive=True)
        assert report["versions_migrated"] == 100
        assert report["mirror_rebuilds"] == 1
        assert db.query("SELECT COUNT(*), SUM(v) FROM t") == before
        stats = db.stats()
        assert stats["vacuum"]["versions_migrated"] == 100
        col = stats["columnar"]
        assert col["history_rows"] == 100
        assert col["mirror_rows"] == 200
        assert col["tables"]["t"]["mirror_valid"]

    def test_write_invalidates_mirror_and_queries_stay_correct(self):
        db = make_db()
        db.vacuum(aggressive=True)
        assert db.stats()["columnar"]["tables"]["t"]["mirror_valid"]
        db.execute("INSERT INTO t VALUES (777, 1, 'new')")
        assert not db.stats()["columnar"]["tables"]["t"]["mirror_valid"]
        assert db.query("SELECT COUNT(*) FROM t") == [(201,)]
        rows = db.query("SELECT id FROM t WHERE id = 777")
        assert rows == [(777,)]

    def test_small_tables_never_mirror(self):
        db = Database(mirror_min_rows=256)
        db.execute("CREATE TABLE small (id INT PRIMARY KEY, v INT)")
        db.executemany("INSERT INTO small VALUES (?, ?)",
                       [(i, i) for i in range(20)])
        db.vacuum(aggressive=True)
        assert not db.stats()["columnar"]["tables"]["small"]["mirror_valid"]
        plan = db.execute("EXPLAIN SELECT COUNT(*) FROM small").rows
        assert ("store", "small=heap") in plan

    def test_serializable_never_uses_columnar_scans(self):
        db = make_db(isolation="serializable")
        db.vacuum(aggressive=True)
        # Mirror exists, but SSI cannot track rw-edges through it: the
        # planner must keep every scan on the heap.
        assert db.stats()["columnar"]["tables"]["t"]["mirror_valid"]
        result = db.execute("SELECT COUNT(*) FROM t WHERE v >= 3")
        assert all("columnar" not in p
                   for p in result.plan["access_paths"])
        assert result.rows == [(sum(1 for i in range(200)
                                    if i % 7 >= 3),)]

    def test_columnar_disabled_database_has_no_stores(self):
        db = Database(columnar=False)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        stats = db.stats()["columnar"]
        assert not stats["enabled"]
        assert db.catalog.table("t").columnar is None


class TestFractionPacing:
    def test_dead_fraction_triggers_below_absolute_threshold(self):
        db = Database(vacuum_threshold=10 ** 6, vacuum_min_dead=32,
                      vacuum_dead_fraction=0.25)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, i) for i in range(100)])
        table = db.catalog.table("t")
        assert not db.vacuum_manager.should_trigger(table)
        for i in range(40):                      # fraction crosses 0.25
            db.execute("UPDATE t SET v = v + 1 WHERE id = ?", (i,))
        # The absolute threshold is unreachable, so only the fraction
        # trigger can have fired the commit-time sweep.
        stats = db.stats()["vacuum"]
        assert stats["auto_runs"] >= 1
        assert table.dead_versions < 40

    def test_min_dead_floor_suppresses_tiny_tables(self):
        db = Database(vacuum_threshold=10 ** 6, vacuum_min_dead=128,
                      vacuum_dead_fraction=0.25)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 0)")
        for _ in range(20):                      # fraction ~0.95, dead 20
            db.execute("UPDATE t SET v = v + 1 WHERE id = 1")
        assert not db.vacuum_manager.should_trigger(db.catalog.table("t"))

    def test_stats_expose_pacing_gauges(self):
        db = make_db()
        for i in range(60):
            db.execute("UPDATE t SET v = v + 1 WHERE id = ?", (i,))
        db.vacuum()
        stats = db.stats()["vacuum"]
        assert stats["dead_fraction"] == pytest.approx(0.2)
        assert stats["min_dead"] == 128
        assert "versions_migrated" in stats
        assert "mirror_rebuilds" in stats
        report = stats["tables"]["t"]
        assert "dead_fraction" in report


class TestExplainStores:
    def test_every_access_path_names_its_store(self):
        db = make_db()
        db.vacuum(aggressive=True)
        plan = db.execute(
            "EXPLAIN SELECT s, COUNT(*) FROM t WHERE v >= 3 "
            "GROUP BY s").rows
        assert ("store", "t=columnar") in plan
        plan = db.execute(
            "EXPLAIN SELECT * FROM t WHERE id = 5").rows
        assert ("store", "t=heap") in plan       # index wins point reads
        plan = db.execute(
            "EXPLAIN SELECT * FROM t AS OF 50").rows
        assert ("store", "t=hybrid") in plan
        assert any("as_of_scan" in v for k, v in plan
                   if k == "access_path")
        plan = db.execute(
            "EXPLAIN UPDATE t SET v = 0 WHERE id = 1").rows
        assert ("store", "t=heap") in plan       # DML is heap-only

    def test_join_reports_one_store_per_table(self):
        db = make_db()
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, w INT)")
        db.executemany("INSERT INTO u VALUES (?, ?)",
                       [(i, i) for i in range(50)])
        db.vacuum(aggressive=True)
        plan = db.execute(
            "EXPLAIN SELECT t.id FROM t JOIN u ON t.id = u.id").rows
        stores = [v for k, v in plan if k == "store"]
        assert len(stores) == 2
        assert all(s.split("=")[1] in ("heap", "columnar")
                   for s in stores)


class TestZoneMapSkipping:
    @pytest.fixture(scope="class")
    def big(self):
        db = Database(mirror_min_rows=16)
        db.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        n = 3 * BLOCK_ROWS
        for lo in range(0, n, 1000):
            db.executemany(
                "INSERT INTO big VALUES (?, ?)",
                [(i, i) for i in range(lo, min(lo + 1000, n))])
        db.vacuum(aggressive=True)
        db.execute("ANALYZE big")
        return db

    def test_blocks_outside_predicate_range_are_skipped(self, big):
        # v rides insertion order, so each block's zone covers a
        # disjoint range; a narrow BETWEEN admits exactly one block.
        result = big.execute(
            "SELECT COUNT(*) FROM big WHERE v BETWEEN 10 AND 20")
        assert result.rows == [(11,)]
        assert any("columnar" in p for p in result.plan["access_paths"])
        col = big.stats()["columnar"]
        assert col["blocks_skipped"] >= 2
        assert col["blocks_scanned"] >= 1

    @pytest.mark.parametrize("where, first, last", [
        ("v >= ? AND v < ?", 0, -1),            # half-open
        ("v >= ? AND v <= ?", 0, 0),            # closed
        ("v > ? AND v <= ?", 1, 0),             # mixed
        ("v > ? AND v < ?", 1, -1),             # open
        ("v BETWEEN ? AND ? AND v < ?", 0, -1),  # BETWEEN, then tightened
    ])
    def test_folded_intervals_keep_their_inclusivity(
            self, big, where, first, last):
        """Two bounds on one column reach the mirror as one interval:
        the rows are exactly the heap's, bound rows included or not as
        written, and the other blocks are still skipped."""
        low, high = BLOCK_ROWS + 5, BLOCK_ROWS + 25
        params = (low, high, high) if "BETWEEN" in where else (low, high)
        before = big.stats()["columnar"]
        result = big.execute(f"SELECT v FROM big WHERE {where}", params)
        assert result.plan["access_paths"] == ["columnar_scan(big)"]
        assert sorted(row[0] for row in result.rows) == \
            list(range(low + first, high + last + 1))
        after = big.stats()["columnar"]
        assert after["blocks_skipped"] - before["blocks_skipped"] == 2
        assert after["blocks_scanned"] - before["blocks_scanned"] == 1


# -- heap equivalence over the SQL battery ------------------------------------


BATTERY = [
    "SELECT * FROM facts",
    "SELECT COUNT(*) FROM facts",
    "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM facts",
    "SELECT AVG(score) FROM facts",
    "SELECT * FROM facts WHERE v = 3",
    "SELECT id FROM facts WHERE v >= 5 AND score < 0.5",
    "SELECT id, s FROM facts WHERE v BETWEEN 2 AND 4",
    "SELECT id FROM facts WHERE score IS NULL",
    "SELECT id FROM facts WHERE score IS NOT NULL AND v < 3",
    "SELECT id FROM facts WHERE s IN ('g0', 'g2')",
    "SELECT id FROM facts WHERE v + 1 = 4",          # non-pushable
    "SELECT s, COUNT(*), SUM(v) FROM facts GROUP BY s",
    "SELECT DISTINCT v FROM facts",
    "SELECT id, v FROM facts ORDER BY v, id LIMIT 17",
    "SELECT f.id, g.id FROM facts f JOIN facts g ON f.id = g.id "
    "WHERE f.v = 1",
    "SELECT id FROM facts WHERE NOT (v = 2)",
]


def fill_facts(db, rows):
    db.execute("CREATE TABLE facts "
               "(id INT PRIMARY KEY, v INT, s TEXT, score FLOAT)")
    db.executemany("INSERT INTO facts VALUES (?, ?, ?, ?)", rows)
    # Churn half the rows so vacuum has versions to migrate.
    for i in range(0, len(rows), 2):
        db.execute("UPDATE facts SET v = v WHERE id = ?", (i,))
    db.vacuum(aggressive=True)
    db.execute("ANALYZE facts")


@pytest.mark.parametrize("engine", ENGINES)
def test_columnar_equals_heap_under_oltp_writes(engine):
    rows = [(i, i % 7, f"g{i % 3}",
             None if i % 11 == 0 else round(i / 300, 3))
            for i in range(300)]
    col_db = Database(execution_engine=engine, mirror_min_rows=16)
    heap_db = Database(execution_engine=engine, columnar=False)
    for db in (col_db, heap_db):
        fill_facts(db, rows)
    assert col_db.stats()["columnar"]["tables"]["facts"]["mirror_valid"]

    # Concurrent OLTP mix on a sibling table while the battery runs:
    # exercises the store gate and the planner under mutation traffic.
    col_db.execute("CREATE TABLE side (id INT PRIMARY KEY, n INT)")
    stop = threading.Event()

    def writer():
        i = 0
        while not stop.is_set():
            col_db.execute("INSERT INTO side VALUES (?, ?)", (i, i))
            col_db.execute("UPDATE side SET n = n + 1 WHERE id = ?",
                           (i,))
            i += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        used_columnar = False
        for sql in BATTERY:
            got = col_db.execute(sql)
            expect = heap_db.execute(sql)
            assert typed(got.rows) == typed(expect.rows), sql
            used_columnar |= any("columnar" in p
                                 for p in got.plan["access_paths"])
        assert used_columnar
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize("engine", ENGINES)
def test_equivalence_survives_writes_to_the_mirrored_table(engine):
    rows = [(i, i % 5, f"g{i % 2}", float(i)) for i in range(120)]
    col_db = Database(execution_engine=engine, mirror_min_rows=16)
    heap_db = Database(execution_engine=engine, columnar=False)
    for db in (col_db, heap_db):
        fill_facts(db, rows)
    # Mutate both identically *after* the mirror exists: the columnar
    # database must fall back to its heap and still agree bit-for-bit.
    for db in (col_db, heap_db):
        db.execute("DELETE FROM facts WHERE id < 10")
        db.execute("UPDATE facts SET v = v * 10 WHERE v = 4")
        db.execute("INSERT INTO facts VALUES (900, 1, 'gX', NULL)")
    for sql in BATTERY:
        assert typed(col_db.query(sql)) == typed(heap_db.query(sql)), sql
    # Re-vacuum rebuilds the mirror over the new state; answers hold.
    col_db.vacuum(aggressive=True)
    for sql in BATTERY:
        assert typed(col_db.query(sql)) == typed(heap_db.query(sql)), sql


def test_mirror_and_history_survive_clean_reopen():
    dev, wdev = MemoryDevice(), MemoryDevice()
    db = Database(device=dev, wal_device=wdev, mirror_min_rows=16)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.executemany("INSERT INTO t VALUES (?, ?)",
                   [(i, i) for i in range(64)])
    for i in range(32):
        db.execute("UPDATE t SET v = v + 1000 WHERE id = ?", (i,))
    db.vacuum(aggressive=True)
    live = db.query("SELECT id, v FROM t ORDER BY id")
    db.scrub_manager.stop()
    db.vacuum_manager.stop()
    db.checkpoint()

    db2 = Database(device=dev, wal_device=wdev, mirror_min_rows=16)
    assert db2.query("SELECT id, v FROM t ORDER BY id") == live
    col = db2.stats()["columnar"]
    assert col["history_rows"] == 32
    assert col["mirror_rows"] == 64
    assert col["tables"]["t"]["mirror_valid"]
    plan = db2.execute("EXPLAIN SELECT COUNT(*) FROM t WHERE v >= 0").rows
    assert ("store", "t=columnar") in plan
