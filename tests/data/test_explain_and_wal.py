"""EXPLAIN statement tests and WAL-backed Database integration."""

import threading

import pytest

from repro.data import Database
from repro.errors import SQLSyntaxError
from repro.storage import MemoryDevice, WriteAheadLog


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    database.execute("CREATE INDEX by_v ON t (v)")
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


class TestExplain:
    def test_explain_point_query(self, db):
        result = db.execute("EXPLAIN SELECT * FROM t WHERE id = 1")
        assert ("access_path", "index_eq(t.id)") in result.rows
        assert result.plan["aggregated"] is False

    def test_explain_does_not_execute(self, db):
        db.execute("EXPLAIN SELECT * FROM t WHERE id = 1")
        # Statement counting aside, data is unchanged and no rows were
        # consumed from anywhere.
        assert db.query("SELECT COUNT(*) FROM t") == [(2,)]

    def test_explain_join(self, db):
        db.execute("CREATE TABLE u (id INT PRIMARY KEY)")
        result = db.execute(
            "EXPLAIN SELECT * FROM t JOIN u ON t.id = u.id")
        assert ("join", "hash_join") in result.rows

    def test_explain_aggregate(self, db):
        result = db.execute("EXPLAIN SELECT v, COUNT(*) FROM t GROUP BY v")
        assert ("aggregated", "True") in result.rows

    def test_explain_update_shows_access_path(self, db):
        result = db.execute("EXPLAIN UPDATE t SET v = 0 WHERE id = 1")
        assert ("access_path", "index_eq(t.id)") in result.rows
        # Planning a DML statement must not execute it.
        assert db.query("SELECT v FROM t WHERE id = 1") == [(10,)]
        # Victims on a secondary column come through its index, and
        # through a scan once the index is gone.
        sql = "EXPLAIN UPDATE t SET id = 3 WHERE v = 20"
        assert ("access_path", "index_eq(t.v)") in db.execute(sql).rows
        db.execute("DROP INDEX by_v")
        assert ("access_path", "seq_scan(t)") in db.execute(sql).rows

    def test_explain_delete_does_not_execute(self, db):
        result = db.execute("EXPLAIN DELETE FROM t WHERE v > 15")
        assert ("statement", "delete") in result.rows
        assert db.query("SELECT COUNT(*) FROM t") == [(2,)]

    def test_explain_requires_select_or_dml(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("EXPLAIN INSERT INTO t VALUES (3, 30)")


class TestWALBackedDatabase:
    def test_commit_forces_wal_flush(self):
        wal_device = MemoryDevice()
        db = Database(wal_device=wal_device)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("COMMIT")
        wal = WriteAheadLog(wal_device)
        committed, losers = wal.analyze()
        assert committed and not losers

    def test_abort_logged(self):
        wal_device = MemoryDevice()
        db = Database(wal_device=wal_device)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("ROLLBACK")
        from repro.storage import LogKind
        kinds = [r.kind for r in WriteAheadLog(wal_device).records()]
        assert LogKind.ABORT in kinds

    def test_checkpoint_truncates_wal(self):
        wal_device = MemoryDevice()
        db = Database(wal_device=wal_device)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.checkpoint()
        assert db.wal.size_bytes() == 0
        # Data survives: the checkpoint flushed all pages.
        assert db.query("SELECT COUNT(*) FROM t") == [(1,)]


class TestConcurrentSQL:
    def test_parallel_readers(self, db):
        errors: list[Exception] = []

        def reader():
            try:
                for _ in range(30):
                    assert db.query("SELECT COUNT(*) FROM t") == [(2,)]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_writers_serialised_by_locks(self):
        db = Database(lock_timeout_s=5.0)
        db.execute("CREATE TABLE counter (id INT PRIMARY KEY, n INT)")
        db.execute("INSERT INTO counter VALUES (1, 0)")
        errors: list[Exception] = []

        def writer():
            try:
                for _ in range(25):
                    db.execute("UPDATE counter SET n = n + 1 WHERE id = 1")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert db.query("SELECT n FROM counter") == [(100,)]
