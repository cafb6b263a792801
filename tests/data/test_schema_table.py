"""Schema, table, and catalog tests."""

import math
import sys
import threading

import pytest

from repro.data import Database, Schema
from repro.data.schema import Column
from repro.data.table import IndexDef, TableIndex
from repro.access.record import ColumnType
from repro.errors import (
    CatalogError,
    DuplicateKeyError,
    IndexError_,
    SchemaError,
)
from tests.access.test_btree import leaf_capacity, leaf_pages


class TestSchema:
    def test_build_shorthand(self):
        schema = Schema.build(("id", "int", "pk"), ("name", "text"),
                              ("score", "float", "not_null"))
        assert schema.names == ["id", "name", "score"]
        assert schema.primary_key.name == "id"
        assert schema.primary_key_index == 0
        assert schema.column("score").not_null

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema.build(("a", "int"), ("a", "text"))

    def test_validate_arity(self):
        schema = Schema.build(("a", "int"))
        with pytest.raises(SchemaError):
            schema.validate((1, 2))

    def test_validate_not_null(self):
        schema = Schema.build(("a", "int", "not_null"))
        with pytest.raises(SchemaError):
            schema.validate((None,))

    def test_validate_types(self):
        schema = Schema.build(("a", "int"), ("b", "text"))
        with pytest.raises(SchemaError):
            schema.validate(("x", "y"))
        with pytest.raises(SchemaError):
            schema.validate((1, 2))
        with pytest.raises(SchemaError):
            schema.validate((True, "y"))

    def test_int_coerced_for_float(self):
        schema = Schema.build(("x", "float"))
        assert schema.validate((3,)) == (3.0,)

    def test_encode_decode(self):
        schema = Schema.build(("id", "int"), ("name", "text"))
        assert schema.decode(schema.encode((1, "a"))) == (1, "a")

    def test_serialisation_round_trip(self):
        schema = Schema.build(("id", "int", "pk"), ("name", "text"))
        assert Schema.from_dict(schema.to_dict()) == schema

    def test_index_of_unknown(self):
        schema = Schema.build(("a", "int"))
        with pytest.raises(SchemaError):
            schema.index_of("zz")

    def test_project(self):
        schema = Schema.build(("a", "int"), ("b", "text"), ("c", "bool"))
        projected = schema.project(["c", "a"])
        assert projected.names == ["c", "a"]


def fresh_db(**kwargs):
    return Database(**kwargs)


class TestTable:
    def make_table(self, db=None):
        db = db or fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, "
                   "score FLOAT)")
        return db, db.catalog.table("t")

    def test_insert_read(self):
        _, table = self.make_table()
        rid = table.insert((1, "a", 2.5))
        assert table.read(rid) == (1, "a", 2.5)
        assert table.count() == 1

    def test_pk_uniqueness(self):
        _, table = self.make_table()
        table.insert((1, "a", None))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "b", None))

    def test_pk_lookup_via_index(self):
        _, table = self.make_table()
        rids = {table.insert((i, f"n{i}", None)): i for i in range(50)}
        index = table.index_on(("id",))
        for rid, i in rids.items():
            assert index.lookup_eq((i,)) == [rid]

    def test_delete_maintains_indexes(self):
        _, table = self.make_table()
        rid = table.insert((1, "a", None))
        table.delete(rid)
        assert table.index_on(("id",)).lookup_eq((1,)) == []
        table.insert((1, "again", None))  # PK is free again

    def test_update_changes_indexes(self):
        _, table = self.make_table()
        rid = table.insert((1, "a", None))
        table.update(rid, (2, "a", None))
        index = table.index_on(("id",))
        assert index.lookup_eq((1,)) == []
        assert len(index.lookup_eq((2,))) == 1

    def test_update_pk_conflict(self):
        _, table = self.make_table()
        table.insert((1, "a", None))
        rid = table.insert((2, "b", None))
        with pytest.raises(DuplicateKeyError):
            table.update(rid, (1, "b", None))

    def test_update_same_pk_allowed(self):
        _, table = self.make_table()
        rid = table.insert((1, "a", None))
        table.update(rid, (1, "b", None))
        assert table.read(rid)[1] == "b"

    def test_secondary_non_unique_index(self):
        db, table = self.make_table()
        db.execute("CREATE INDEX by_name ON t (name)")
        table.insert((1, "dup", None))
        table.insert((2, "dup", None))
        index = table.index_on(("name",))
        assert len(index.lookup_eq(("dup",))) == 2

    def test_index_range_scan(self):
        db, table = self.make_table()
        for i in range(20):
            table.insert((i, f"n{i}", float(i)))
        index = table.index_on(("id",))
        rids = list(index.range_scan((5,), (10,)))
        values = sorted(table.read(r)[0] for r in rids)
        assert values == [5, 6, 7, 8, 9]

    def _range_values(self, table, index, **bounds):
        return sorted(table.read(rid)[0]
                      for rid in index.range_scan(**bounds))

    def test_unique_range_scan_boundaries(self):
        _, table = self.make_table()
        for i in range(10):
            table.insert((i, f"n{i}", None))
        index = table.index_on(("id",))
        assert self._range_values(
            table, index, lo=(3,), hi=(6,), lo_inclusive=True,
            hi_inclusive=True) == [3, 4, 5, 6]
        assert self._range_values(
            table, index, lo=(3,), hi=(6,), lo_inclusive=False,
            hi_inclusive=False) == [4, 5]

    def test_non_unique_range_scan_boundaries(self):
        """Boundary semantics on RID-suffixed (non-unique) entry keys:
        an exclusive bound must exclude *every* entry of the boundary
        key and an inclusive one must admit them all — the RID suffix
        makes each boundary entry compare strictly greater than the
        bare encoded bound, so both bounds need the suffix extension."""
        db, table = self.make_table()
        db.execute("CREATE INDEX by_score ON t (score)")
        for i in range(12):
            table.insert((i, "x", float(i % 4)))   # three rows per key
        index = table.index_on(("score",))
        cases = [
            (dict(lo=(1.0,), hi=(3.0,), lo_inclusive=True,
                  hi_inclusive=False), {1.0, 2.0}),
            (dict(lo=(1.0,), hi=(3.0,), lo_inclusive=False,
                  hi_inclusive=False), {2.0}),
            (dict(lo=(1.0,), hi=(3.0,), lo_inclusive=False,
                  hi_inclusive=True), {2.0, 3.0}),
            (dict(lo=(1.0,), hi=(3.0,), lo_inclusive=True,
                  hi_inclusive=True), {1.0, 2.0, 3.0}),
            (dict(lo=(1.0,), hi=None, lo_inclusive=False), {2.0, 3.0}),
            (dict(lo=None, hi=(1.0,), hi_inclusive=True), {0.0, 1.0}),
        ]
        for bounds, expected in cases:
            scores = [table.read(rid)[2]
                      for rid in index.range_scan(**bounds)]
            assert set(scores) == expected, bounds
            # Every entry of each admitted key, exactly once.
            assert len(scores) == 3 * len(expected), bounds

    def test_non_unique_range_scan_text_boundaries(self):
        """The suffix extension must stay exact for varlen (text) keys:
        no bleed into adjacent keys in either direction."""
        db, table = self.make_table()
        db.execute("CREATE INDEX by_name ON t (name)")
        names = ["ab", "ab\x00x", "abc", "b"]
        for i, name in enumerate(names):
            table.insert((i * 2, name, None))
            table.insert((i * 2 + 1, name, None))
        index = table.index_on(("name",))
        got = [table.read(rid)[1]
               for rid in index.range_scan(("ab",), ("abc",),
                                           lo_inclusive=False,
                                           hi_inclusive=True)]
        assert sorted(got) == ["ab\x00x", "ab\x00x", "abc", "abc"]

    def test_hash_index(self):
        db, table = self.make_table()
        db.execute("CREATE UNIQUE INDEX h ON t (name) USING hash")
        table.insert((1, "alpha", None))
        index = table.index_on(("name",))
        assert index.definition.method in ("btree", "hash")
        by_hash = table.indexes["h"]
        assert by_hash.hash is not None
        assert len(by_hash.lookup_eq(("alpha",))) == 1

    def test_properties(self):
        _, table = self.make_table()
        table.insert((1, "a", None))
        props = table.properties()
        assert props["rows"] == 1
        assert props["indexes"] == ["pk_t"]
        assert 0 <= props["fragmentation"] <= 1


class TestCatalog:
    def test_duplicate_table_rejected(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.catalog.create_table("t", Schema.build(("a", "int")))

    def test_if_not_exists(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (a INT)")
        result = db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert result.affected == 0

    def test_drop_table_drops_indexes(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("DROP TABLE t")
        assert "pk_t" not in db.catalog.index_defs
        assert not db.catalog.has_table("t")

    def test_drop_missing_with_if_exists(self):
        db = fresh_db()
        assert db.execute("DROP TABLE IF EXISTS nope").affected == 0
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nope")

    def test_view_name_collision(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW t AS SELECT 1")

    def test_populating_index_on_existing_rows(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(30):
            db.execute(f"INSERT INTO t VALUES ({i}, {i * 2})")
        db.execute("CREATE INDEX by_v ON t (v)")
        rows = db.query("SELECT id FROM t WHERE v = 20")
        assert rows == [(10,)]

    def test_paused_index_iteration_survives_detach(self):
        # Statements loop over ``indexes.values()`` while DDL detaches:
        # the loop keeps the set it started with.
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("CREATE INDEX by_v ON t (v)")
        table = db.catalog.table("t")
        before = list(table.indexes.values())
        values = iter(table.indexes.values())
        seen = [next(values)]
        detached = table.detach_index("by_v")
        seen.extend(values)
        assert seen == before
        assert list(table.indexes) == ["pk_t"]
        table.attach_index(detached)
        assert set(table.indexes) == {"pk_t", "by_v"}

    def test_index_set_survives_concurrent_ddl(self):
        # Two DDL threads attach and detach their own index while two
        # readers loop over the set: no reader sees it resized, and no
        # publish loses the other thread's index.
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)")
        db.execute("CREATE INDEX by_a ON t (a)")
        db.execute("CREATE INDEX by_b ON t (b)")
        table = db.catalog.table("t")
        held = {name: table.detach_index(name) for name in ("by_a", "by_b")}
        errors: list = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                try:
                    for _ in table.indexes.values():
                        pass
                except RuntimeError as exc:
                    errors.append(exc)
                    return

        def ddl(name):
            try:
                for _ in range(1500):
                    table.attach_index(held[name])
                    table.detach_index(name)
            except CatalogError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(2)]
        writers = [threading.Thread(target=ddl, args=(name,))
                   for name in held]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + writers)
        assert errors == []
        assert list(table.indexes) == ["pk_t"]

    def test_stats(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        stats = db.catalog.stats()
        assert stats["total_rows"] == 1
        assert stats["tables"] == ["t"]


class TestPersistence:
    def test_close_reopen_memory_device(self):
        from repro.storage import MemoryDevice
        device = MemoryDevice()
        db = Database(device=device)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'ada'), (2, 'bob')")
        db.execute("CREATE INDEX by_name ON t (name)")
        db.checkpoint()

        db2 = Database(device=device)
        assert db2.query("SELECT name FROM t ORDER BY id") == \
            [("ada",), ("bob",)]
        # Index survives and is used.
        result = db2.execute("SELECT id FROM t WHERE name = 'bob'")
        assert result.rows == [(2,)]
        assert any("index_eq" in p for p in result.plan["access_paths"])

    def test_file_device_full_cycle(self, tmp_path):
        from repro.storage import FileDevice
        path = tmp_path / "db.bin"
        device = FileDevice(path)
        db = Database(device=device)
        db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)")
        for i in range(100):
            db.execute("INSERT INTO kv VALUES (?, ?)", (f"key{i}", i))
        db.close()

        device2 = FileDevice(path)
        db2 = Database(device=device2)
        assert db2.query("SELECT COUNT(*) FROM kv") == [(100,)]
        assert db2.query("SELECT v FROM kv WHERE k = 'key42'") == [(42,)]
        db2.close()

    def test_views_survive_reopen(self):
        from repro.storage import MemoryDevice
        device = MemoryDevice()
        db = Database(device=device)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (5)")
        db.execute("CREATE VIEW big AS SELECT a FROM t WHERE a > 2")
        db.checkpoint()
        db2 = Database(device=device)
        assert db2.query("SELECT * FROM big") == [(5,)]

    def test_hash_index_rebuilt_on_reopen(self):
        from repro.storage import MemoryDevice
        device = MemoryDevice()
        db = Database(device=device)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, tag TEXT)")
        db.execute("CREATE UNIQUE INDEX by_tag ON t (tag) USING hash")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        db.checkpoint()
        db2 = Database(device=device)
        index = db2.catalog.table("t").indexes["by_tag"]
        assert len(index.lookup_eq(("y",))) == 1


class TestIndexBuild:
    """``attach_index(populate=True)`` loads a B+-tree bottom-up with the
    entries per-row maintenance would have made."""

    @staticmethod
    def per_row_entries(db, table, index):
        """The reference: a fresh index filled by ``insert`` per row."""
        definition = index.definition
        files = db.pages.pool.files
        reference = TableIndex(
            IndexDef("ref_" + definition.name, table.name,
                     definition.columns, definition.unique),
            table.schema, db.pages,
            files.ensure_file("ref_" + definition.name))
        reference.versioned = table.versioned
        for rid, row in table.scan():
            reference.insert(row, rid)
        return list(reference.tree.items())

    def test_create_and_rebuild_match_per_row_inserts(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, tag TEXT)")
        for i in range(300):
            db.execute("INSERT INTO t VALUES (?, ?, ?)",
                       (i, i % 17, f"tag{i}"))
        # Retained versions: superseded keys, deleted heads, a recycled
        # key, and two visible rows sharing the unique index's key —
        # which the unique build refuses until one of them moves off it.
        db.execute("UPDATE t SET v = v + 100 WHERE id < 60")
        for i in range(0, 60, 3):
            db.execute("UPDATE t SET tag = ? WHERE id = ?", (f"tag{i}x", i))
        db.execute("DELETE FROM t WHERE id >= 250")
        db.execute("INSERT INTO t VALUES (250, 3, 'tag250')")
        db.execute("UPDATE t SET tag = 'tag3x' WHERE id = 4")
        table = db.catalog.table("t")
        assert table.versioned and table.dead_versions > 0
        db.execute("CREATE INDEX by_v ON t (v)")
        with pytest.raises(DuplicateKeyError, match="by_tag"):
            db.execute("CREATE UNIQUE INDEX by_tag ON t (tag)")
        assert "by_tag" not in table.indexes
        db.execute("UPDATE t SET tag = 'tag4' WHERE id = 4")
        db.execute("CREATE UNIQUE INDEX by_tag ON t (tag)")
        for name in ("pk_t", "by_v", "by_tag"):
            index = table.indexes[name]
            index.tree.check_invariants()
            if name != "pk_t":
                assert list(index.tree.items()) == \
                    self.per_row_entries(db, table, index), name
        db.catalog.rebuild_indexes()
        for name in ("pk_t", "by_v", "by_tag"):
            index = table.indexes[name]
            index.tree.check_invariants()
            assert list(index.tree.items()) == \
                self.per_row_entries(db, table, index), name

    def test_unversioned_unique_duplicate_rejected(self):
        db = fresh_db(isolation="2pl")
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(5):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 4))
        with pytest.raises(DuplicateKeyError, match=r"\(0,\).*'u'"):
            db.execute("CREATE UNIQUE INDEX u ON t (v)")
        assert "u" not in db.catalog.table("t").indexes

    def test_ascending_rows_fill_leaves(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        table = db.catalog.table("t")
        n = 5000
        for i in range(n):
            table.insert((i, i))
        db.execute("CREATE INDEX by_v ON t (v)")
        for name in ("pk_t", "by_v"):   # per-row appends, bulk build
            tree = table.indexes[name].tree
            entries = list(tree.items())
            assert len(entries) == n
            key_len, value_len = map(len, entries[-1])
            assert {len(k) for k, _ in entries} == {key_len}
            per_leaf = leaf_capacity(tree, key_len, value_len)
            assert leaf_pages(tree) <= math.ceil(n / per_leaf), name

    def test_long_text_keys_up_to_half_a_page(self):
        # An index entry may take up to half a node: on 4 KiB pages a
        # TEXT key of ~2 000 characters indexes, a 3 000-character one
        # is refused and leaves neither index nor row behind.
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, s TEXT)")
        long = [chr(97 + i % 26) * 1990 + str(i) for i in range(40)]
        for i, text in enumerate(long[:20]):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, text))
        db.execute("CREATE INDEX by_s ON t (s)")
        for i, text in enumerate(long[20:], start=20):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, text))
        db.execute("DELETE FROM t WHERE id < 10")
        tree = db.catalog.table("t").indexes["by_s"].tree
        tree.check_invariants()
        assert tree.height > 1
        assert db.query("SELECT id FROM t WHERE s = ?", (long[27],)) \
            == [(27,)]
        assert db.query("SELECT id FROM t WHERE s = ?", (long[3],)) == []

        db.execute("CREATE TABLE w (id INT PRIMARY KEY, s TEXT)")
        db.execute("INSERT INTO w VALUES (1, ?)", ("x" * 3000,))
        with pytest.raises(IndexError_, match="too large"):
            db.execute("CREATE INDEX by_ws ON w (s)")
        assert "by_ws" not in db.catalog.table("w").indexes
        with pytest.raises(IndexError_, match="too large"):
            db.execute("INSERT INTO t VALUES (99, ?)", ("y" * 3000,))
        assert db.query("SELECT COUNT(*) FROM t WHERE id = 99") == [(0,)]

    def test_attaching_a_taken_name_writes_nothing(self):
        db = fresh_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, i))
        db.execute("CREATE INDEX by_v ON t (v)")
        table = db.catalog.table("t")
        attached = table.indexes["by_v"]
        twin = TableIndex(
            IndexDef("by_v", "t", ("v",), False), table.schema, db.pages,
            db.pages.pool.files.ensure_file("twin_by_v"))
        for index in (attached, twin):
            with pytest.raises(CatalogError, match="already attached"):
                table.attach_index(index, populate=True)
        assert len(twin.tree) == 0
        assert table.indexes["by_v"] is attached
        assert len(attached.tree) == 50
