"""Heap reclamation costs what the garbage costs, not what the table costs.

Covers the header-filtered vacuum sweep and the lazily compacted slotted
pages underneath it: work counters for one ``VACUUM`` over a mostly
clean table, a crash in the middle of a vacuum whose deletes only
tombstoned their slots, the dead-version gauge surviving a restart, and
the auto trigger counting the errors it swallows.
"""

from __future__ import annotations

import pytest

from repro.access.heap_file import HeapFile
from repro.access.slotted_page import SlottedPage
from repro.data import Database
from repro.errors import InjectedCrashError
from repro.faults import crashpoints
from repro.storage import MemoryDevice
from repro.storage.buffer import BufferPool
from repro.storage.faultdev import FaultyDevice
from repro.storage.page import PageId


@pytest.fixture(autouse=True)
def _clean_crashpoints():
    crashpoints.reset()
    yield
    crashpoints.reset()


def quiet(**kwargs):
    """Autovacuum never fires on its own and no vacuum rebuilds a
    mirror: every pass below is the sweep and the surgery, nothing
    else."""
    kwargs.setdefault("mirror_min_rows", 10 ** 9)
    return Database(vacuum_threshold=10 ** 9, vacuum_min_dead=10 ** 9,
                    **kwargs)


def last_xid(db) -> int:
    return db.transactions.latest_snapshot().next_xid - 1


def pages_with_holes(heap) -> int:
    """Pages whose free space is not all in the gap between directory
    and payloads: something was tombstoned and nothing compacted yet."""
    count = 0
    for page_no in range(heap.num_pages()):
        page_id = PageId(heap.file_id, page_no)
        view = SlottedPage(heap.pages.fetch(page_id))
        gap = view._free_ptr - 4 - 4 * view.num_slots
        count += gap < view.free_space
        heap.pages.unpin(page_id)
    return count


class _Calls:
    """Count calls of ``owner.name`` until ``monkeypatch.undo()``."""

    def __init__(self, monkeypatch, owner, name):
        self.count = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)


def test_vacuum_work_is_proportional_to_garbage(monkeypatch):
    rows, dead = 2000, 10
    db = quiet(buffer_capacity=512)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("BEGIN")
    for i in range(rows):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    db.execute("COMMIT")
    for i in range(0, rows, rows // dead):
        db.execute("UPDATE t SET v = v + 1 WHERE id = ?", (i,))
    table = db.catalog.table("t")
    assert table.dead_versions == dead
    pages = table.heap.num_pages()

    reads = _Calls(monkeypatch, HeapFile, "read")
    fetches = _Calls(monkeypatch, BufferPool, "fetch")
    db.execute("VACUUM t")
    monkeypatch.undo()

    summary = db.vacuum_manager.last_run
    assert summary["versions"] == dead
    assert summary["versions_migrated"] == dead
    assert summary["mirror_rebuilds"] == 0
    assert table.dead_versions == 0
    # Per dead version: re-read the head under the latch, read the copy,
    # restamp the head, delete the copy (one fetch each), plus its share
    # of the history install — 8 leaves room, 2 000 would not.
    assert reads.count <= 8 * dead
    assert fetches.count <= pages + 8 * dead
    assert sorted(db.query("SELECT id, v FROM t")) == \
        [(i, i + (i % (rows // dead) == 0)) for i in range(rows)]


def test_crash_mid_vacuum_on_lazily_compacted_pages():
    data = FaultyDevice(MemoryDevice())
    wal = FaultyDevice(MemoryDevice())
    db = quiet(device=data, wal_device=wal)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(300):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    history = [(last_xid(db), [(i, i) for i in range(300)])]
    state = dict(history[0][1])
    for _ in range(3):
        for i in range(0, 300, 3):
            state[i] += 1000
            db.execute("UPDATE t SET v = ? WHERE id = ?", (state[i], i))
        history.append((last_xid(db), sorted(state.items())))
    # Deletes physically free whole rows now, so the pages the vacuum
    # below works on already carry tombstoned-but-uncompacted payloads.
    for i in range(1, 300, 3):
        del state[i]
        db.execute("DELETE FROM t WHERE id = ?", (i,))
    history.append((last_xid(db), sorted(state.items())))
    db.vacuum("t")
    for i in range(0, 300, 3):
        state[i] += 1000
        db.execute("UPDATE t SET v = ? WHERE id = ?", (state[i], i))
    history.append((last_xid(db), sorted(state.items())))
    db.checkpoint()

    def as_of(database):
        return [sorted(database.query("SELECT id, v FROM t AS OF ?",
                                      (bound,)))
                for bound, _ in history]

    before = as_of(db)
    assert before == [expected for _, expected in history]
    dead_before = db.catalog.table("t").dead_versions
    assert dead_before == 100
    assert pages_with_holes(db.catalog.table("t").heap) > 0

    crashpoints.arm("heap.delete", after=40)
    with pytest.raises(InjectedCrashError):
        db.vacuum("t")
    crashpoints.reset()
    db.pool.flush_all()      # steal: the half-done surgery reaches disk
    data.crash()
    wal.crash()

    db2 = quiet(device=data, wal_device=wal)
    assert db2.last_recovery is not None
    assert db2.last_recovery["undone"] > 0       # the vacuum was a loser
    assert as_of(db2) == before
    assert db2.catalog.table("t").dead_versions == dead_before
    # The recovered chains are whole: a second vacuum reclaims them all.
    assert db2.vacuum("t")["versions"] == dead_before
    assert as_of(db2) == before


def test_dead_versions_gauge_survives_reopen():
    dev, wdev = MemoryDevice(), MemoryDevice()
    db = quiet(device=dev, wal_device=wdev)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(60):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    for i in range(50):
        db.execute("UPDATE t SET v = v + 1 WHERE id = ?", (i,))
    for i in range(50, 55):
        db.execute("DELETE FROM t WHERE id = ?", (i,))
    assert db.catalog.table("t").dead_versions == 55
    db.checkpoint()

    # Autovacuum paces itself by the gauge: a reopened engine must see
    # the garbage its previous incarnation left, and trigger on it.
    db2 = Database(device=dev, wal_device=wdev, vacuum_threshold=50,
                   mirror_min_rows=10 ** 9)
    table = db2.catalog.table("t")
    assert table.dead_versions == 55
    assert table.row_count == 55
    assert db2.vacuum_manager.should_trigger(table)
    summary = db2.vacuum_manager.maybe("t")
    assert summary["versions"] == 55
    assert table.dead_versions == 0


def test_auto_vacuum_counts_the_errors_it_swallows(monkeypatch):
    db = quiet()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("CREATE INDEX by_v ON t (v)")
    for i in range(20):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    for i in range(20):
        db.execute("UPDATE t SET v = v + 100 WHERE id = ?", (i,))
    manager = db.vacuum_manager
    manager.threshold = 10
    table = db.catalog.table("t")
    index = table.indexes["by_v"]

    # The race ``maybe`` exists to absorb: the index is dropped while the
    # pass still holds a reference to it, so unlinking a superseded key
    # walks into a deleted file.
    def drop_then_scan():
        if "by_v" in db.catalog.index_defs:
            db.catalog.drop_index("by_v")
            table.indexes["by_v"] = index     # the pass's stale view
        return HeapFile.scan(table.heap)
    monkeypatch.setattr(table.heap, "scan", drop_then_scan)

    assert manager.maybe("t") is None         # swallowed, not raised
    stats = db.stats()["vacuum"]
    assert stats["auto_errors"] == 1
    assert stats["auto_runs"] == 0
    kind, _, message = stats["last_error"].partition(": ")
    assert kind.endswith("Error") and message

    del table.indexes["by_v"]
    monkeypatch.undo()
    assert manager.maybe("t")["versions"] == 20
    stats = db.stats()["vacuum"]
    assert (stats["auto_errors"], stats["auto_runs"]) == (1, 1)
