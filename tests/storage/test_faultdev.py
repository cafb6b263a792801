"""Fault-injection device, retry policy, and containment unit tests."""

import pytest

from repro.errors import (
    BufferPoolError,
    ChecksumError,
    DiskError,
    DiskFullError,
)
from repro.storage import (
    DiskManager,
    FileManager,
    LogKind,
    MemoryDevice,
    Page,
    PageId,
    WriteAheadLog,
)
from repro.storage.buffer import BufferPool
from repro.storage.faultdev import FaultSchedule, FaultSpec, FaultyDevice
from repro.storage.integrity import QuarantineRegistry, retry_io

BS = 4096


def faulty(schedule=None, **kwargs):
    return FaultyDevice(MemoryDevice(**kwargs), schedule)


class TestFaultSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(op="read", kind="gremlin")
        with pytest.raises(ValueError):
            FaultSpec(op="sing", kind="eio")

    def test_random_schedule_is_deterministic(self):
        a = FaultSchedule.random_schedule(seed=42)
        b = FaultSchedule.random_schedule(seed=42)
        assert a.specs == b.specs
        assert FaultSchedule.random_schedule(seed=43).specs != a.specs

    def test_transient_fault_spends_itself(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="read", kind="eio", at=1, count=2)]))
        dev.append_block(bytes(BS))
        dev.read_block(0)                      # index 0: clean
        for _ in range(2):                     # indexes 1, 2: injected
            with pytest.raises(DiskError):
                dev.read_block(0)
        dev.read_block(0)                      # healed
        assert dev.schedule.injected == 2


class TestFaultyDevice:
    def test_eio_write_has_no_effect(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="write", kind="eio", at=1)]))
        dev.append_block(b"\x01" * BS)
        with pytest.raises(DiskError):
            dev.write_block(0, b"\x02" * BS)
        assert dev.read_block(0) == b"\x01" * BS

    def test_enospc_raises_disk_full(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="write", kind="enospc", at=0)]))
        with pytest.raises(DiskFullError):
            dev.append_block(bytes(BS))

    def test_torn_write_keeps_old_suffix(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="write", kind="torn", at=1)], seed=7))
        dev.append_block(b"\xAA" * BS)
        with pytest.raises(DiskError, match="torn"):
            dev.write_block(0, b"\xBB" * BS)
        data = dev.read_block(0)
        assert data != b"\xBB" * BS
        assert data[0] == 0xBB           # some prefix made it
        assert data[-1] == 0xAA          # the old suffix survived

    def test_torn_write_caught_by_page_checksum(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="write", kind="torn", at=1)], seed=3))
        page = Page(PageId(0, 0), BS)
        page.write(0, b"hello world")
        dev.append_block(page.to_block())
        page.write(0, b"HELLO WORLD")
        with pytest.raises(DiskError):
            dev.write_block(0, page.to_block())
        with pytest.raises(ChecksumError):
            Page.from_block(PageId(0, 0), dev.read_block(0))

    def test_bitrot_transient_vs_persistent(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="read", kind="bitrot", at=0)], seed=1))
        dev.append_block(b"\x00" * BS)
        assert dev.read_block(0) != b"\x00" * BS   # injected flip
        assert dev.read_block(0) == b"\x00" * BS   # bus error: healed
        dev2 = faulty(FaultSchedule([
            FaultSpec(op="read", kind="bitrot", at=0, persist=True)],
            seed=1))
        dev2.append_block(b"\x00" * BS)
        rotted = dev2.read_block(0)
        assert rotted != b"\x00" * BS
        assert dev2.read_block(0) == rotted        # latent sector rot

    def test_crash_reverts_to_last_honest_flush(self):
        dev = faulty()
        dev.append_block(b"\x01" * BS)
        dev.flush()
        dev.write_block(0, b"\x02" * BS)
        dev.append_block(b"\x03" * BS)
        dev.crash()
        assert dev.read_block(0) == b"\x01" * BS
        assert dev.read_block(1) == bytes(BS)      # never existed durably
        assert dev.crashes == 1

    def test_fsync_lie_loses_acknowledged_writes(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="flush", kind="fsync_lie", at=0)]))
        dev.append_block(b"\x01" * BS)
        dev.flush()                                # lies
        assert dev.durable_write_ops == 0
        dev.crash()
        assert dev.read_block(0) == bytes(BS)
        dev.write_block(0, b"\x02" * BS)
        dev.flush()                                # honest now
        assert dev.durable_write_ops == dev.ops["write"]
        dev.crash()
        assert dev.read_block(0) == b"\x02" * BS

    def test_inner_stats_not_double_counted(self):
        dev = faulty()
        dev.append_block(bytes(BS))
        dev.read_block(0)
        assert dev.stats.reads == 1
        assert dev.stats.writes == 1
        assert dev.inner.stats.reads == 0

    def test_empty_schedule_is_transparent_to_the_engine(self):
        from repro.data import Database

        def run(wrap):
            db = Database(device=wrap(MemoryDevice()),
                          wal_device=wrap(MemoryDevice()),
                          buffer_capacity=16)
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, n INT)")
            db.executemany("INSERT INTO t VALUES (?, ?)",
                           [(i, i % 7) for i in range(200)])
            out = []
            for i in range(60):
                key = i * 31 % 200
                db.execute("UPDATE t SET n = n + 1 WHERE id = ?", (key,))
                out += db.query("SELECT n FROM t WHERE id = ?", (key,))
            db.checkpoint()
            return db, out + db.query("SELECT COUNT(*), SUM(n) FROM t")

        _, expected = run(lambda device: device)
        db, got = run(FaultyDevice)
        assert got == expected
        # The wrapper sat on every I/O path and injected nothing.
        for device in (db.device, db.wal.device):
            assert device.ops_total > 0
            assert device.schedule.injected == 0


class TestRetryIO:
    def test_transient_eio_healed(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="read", kind="eio", at=0, count=2)]))
        dev.append_block(b"\x05" * BS)
        data = retry_io(lambda: dev.read_block(0), backoff=0)
        assert data == b"\x05" * BS
        assert dev.ops["read"] == 3

    def test_persistent_eio_propagates(self):
        dev = faulty(FaultSchedule([FaultSpec(op="read", kind="eio")]))
        dev.append_block(bytes(BS))
        with pytest.raises(DiskError):
            retry_io(lambda: dev.read_block(0), backoff=0)

    def test_disk_full_never_retried(self):
        dev = faulty(FaultSchedule([
            FaultSpec(op="write", kind="enospc", at=0, count=1)]))
        with pytest.raises(DiskFullError):
            retry_io(lambda: dev.append_block(bytes(BS)), backoff=0)
        assert dev.ops["write"] == 1               # exactly one attempt

    def test_checksum_retry_is_opt_in(self):
        calls = {"n": 0}

        def sometimes():
            calls["n"] += 1
            raise ChecksumError("boom")

        with pytest.raises(ChecksumError):
            retry_io(sometimes, backoff=0)
        assert calls["n"] == 1
        calls["n"] = 0
        with pytest.raises(ChecksumError):
            retry_io(sometimes, backoff=0, retry_checksum=True)
        assert calls["n"] == 3


class TestQuarantineRegistry:
    def test_lifecycle_and_stats(self):
        reg = QuarantineRegistry()
        assert reg.quarantine(1, 3)
        assert not reg.quarantine(1, 3)            # already known
        assert reg.quarantine(2, 0)
        assert reg.is_quarantined(1, 3)
        assert reg.for_file(1) == (3,)
        assert len(reg) == 2
        assert reg.clear(1, 3)
        assert not reg.clear(1, 3)
        stats = reg.stats()
        assert stats["quarantined_pages"] == 1
        assert stats["detected"] == 2
        assert stats["cleared"] == 1


class TestWalTailHardening:
    def _filled_wal(self):
        dev = MemoryDevice()
        wal = WriteAheadLog(dev)
        for txn in (1, 2, 3):
            wal.append(txn, LogKind.BEGIN)
            wal.log_update(txn, PageId(1, 0), 0, b"a", b"b")
            wal.append(txn, LogKind.COMMIT)
        wal.flush()
        return dev, wal

    def test_torn_tail_truncated_not_fatal(self):
        dev, wal = self._filled_wal()
        total = wal.size_bytes()
        # Corrupt the last bytes of the durable stream, as a tear that
        # the tail header's fsync outran would leave them.
        last_block = 1 + (total - 1) // BS
        raw = bytearray(dev.read_block(last_block))
        end = (total - 1) % BS + 1
        for i in range(max(0, end - 8), end):
            raw[i] ^= 0xFF
        dev.write_block(last_block, bytes(raw))
        wal2 = WriteAheadLog(dev)
        records = list(wal2.records())
        assert records                             # prefix survives
        assert wal2.truncated_tail_bytes > 0
        assert wal2.next_lsn > records[-1].lsn
        # The log keeps working past the repaired tail.
        lsn = wal2.append(9, LogKind.BEGIN)
        wal2.flush()
        assert [r.lsn for r in WriteAheadLog(dev).records()][-1] == lsn

    def test_header_claiming_unwritten_bytes_is_clamped(self):
        dev, wal = self._filled_wal()
        total = wal.size_bytes()
        header = bytearray(dev.read_block(0))
        header[:16] = WriteAheadLog._TAIL_HEADER.pack(
            total + 10 * BS, wal.next_lsn)
        dev.write_block(0, bytes(header))
        wal2 = WriteAheadLog(dev)
        assert len(list(wal2.records())) == 9
        assert wal2.size_bytes() == total

    def test_recovered_lsns_strictly_increasing(self):
        dev, wal = self._filled_wal()
        lsns = [r.lsn for r in WriteAheadLog(dev).records()]
        assert lsns == sorted(set(lsns))

    def test_would_overflow(self):
        dev = MemoryDevice(capacity_blocks=3)     # header + 2 stream
        wal = WriteAheadLog(dev)
        assert not wal.would_overflow()
        assert wal.would_overflow(2 * BS + 1)
        assert not WriteAheadLog(MemoryDevice()).would_overflow(10 ** 9)


class TestBufferContainment:
    def _pool(self, schedule=None, capacity=4):
        dev = faulty(schedule)
        files = FileManager(DiskManager(dev))
        registry = QuarantineRegistry()
        pool = BufferPool(files, capacity=capacity,
                          integrity=registry)
        return dev, files, pool, registry

    def _new_page(self, files, pool, marker: bytes):
        fid = files.ensure_file("t")
        page = pool.new_page(fid)
        page_id = page.page_id
        page.write(0, marker)
        pool.unpin(page_id, dirty=True)
        return page_id

    def test_failed_write_back_keeps_page_dirty(self):
        dev, files, pool, _ = self._pool()
        page_id = self._new_page(files, pool, b"payload")
        dev.schedule.add(FaultSpec(op="write", kind="eio"))
        with pytest.raises(DiskError):
            pool.flush_page(page_id)
        frame = pool._frames[page_id]
        assert frame.dirty                         # not falsely clean
        assert frame.pin_count == 0                # and not leaked
        dev.schedule.clear()
        pool.flush_page(page_id)
        assert not pool._frames[page_id].dirty

    def test_failed_eviction_write_back_keeps_frame(self):
        dev, files, pool, _ = self._pool(capacity=2)
        first = self._new_page(files, pool, b"one")
        self._new_page(files, pool, b"two")
        dev.schedule.add(FaultSpec(op="write", kind="eio"))
        with pytest.raises(DiskError):
            self._new_page(files, pool, b"three")  # needs an eviction
        assert pool.is_resident(first)             # victim not dropped
        assert pool._frames[first].dirty
        dev.schedule.clear()
        third = self._new_page(files, pool, b"three")
        pool.flush_all()
        assert Page.from_block(
            third, files.read_page(third)).read(0, 5) == b"three"

    def test_persistent_checksum_failure_quarantines(self):
        dev, files, pool, registry = self._pool()
        page_id = self._new_page(files, pool, b"data")
        pool.flush_all()
        pool.drop_all(flush=False)
        block_no = files.block_of(page_id)
        raw = bytearray(dev.read_block(block_no))
        raw[10] ^= 0xFF
        dev.write_block(block_no, bytes(raw))
        with pytest.raises(ChecksumError):
            pool.fetch(page_id)
        assert registry.is_quarantined(page_id.file_id, page_id.page_no)

    def test_transient_read_rot_healed_by_retry(self):
        dev, files, pool, registry = self._pool()
        page_id = self._new_page(files, pool, b"data")
        pool.flush_all()
        pool.drop_all(flush=False)
        dev.schedule.add(FaultSpec(op="read", kind="bitrot",
                                   at=dev.ops["read"], count=1))
        page = pool.fetch(page_id)                 # retried, healed
        assert page.read(0, 4) == b"data"
        pool.unpin(page_id)
        assert len(registry) == 0

    def test_discard_page_refuses_pinned(self):
        dev, files, pool, _ = self._pool()
        page_id = self._new_page(files, pool, b"data")
        pool.fetch(page_id)
        with pytest.raises(BufferPoolError):
            pool.discard_page(page_id)
        pool.unpin(page_id)
        pool.discard_page(page_id)
        assert not pool.is_resident(page_id)
