"""Online integrity scrubbing: CRC verification and corruption repair.

:class:`ScrubManager` is the quarantine registry's repair arm (the
vacuum manager's sibling): it sweeps every table's heap pages verifying
on-disk CRCs, and for each corrupt page applies the cheapest repair that
recovers the most data:

1. **Cache repair** — a clean resident copy of the page is authoritative
   (it passed its CRC when it was read): rewrite the block from memory.
   A *dirty* resident copy needs no action at all; its write-back will
   overwrite the rot.
2. **Salvage** — no healthy copy exists.  The slotted page is parsed
   defensively (bad slots skipped), decodable head versions are kept,
   the page is reformatted in place, and the survivors are re-inserted
   under a logged transaction.  Version-chain pointers into the dead
   page (its own heads' history, and other pages' prev pointers) are
   cut, the table's indexes are rebuilt, and its row count recounted —
   the table returns to full readability, minus only what the
   corruption had already destroyed.

The reformatted page image is written directly (not WAL-logged, like
index rebuilds) but stamped with the current end-of-log LSN so that a
later crash's conditional redo cannot resurrect corrupt-era records onto
it.

Triggers: a manual ``SCRUB [table]`` SQL statement, or an optional
background daemon (``scrub_interval_s``) alongside the vacuum daemon.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.access.slotted_page import SlottedPage
from repro.access.version import HEADER_SIZE, restamp, unpack_version
from repro.errors import CatalogError, ChecksumError
from repro.storage.integrity import QuarantineRegistry, retry_io
from repro.storage.page import Page, PageId
from repro.storage.wal import OP_VERSION_STAMP


class ScrubManager:
    """Verifies page CRCs table by table and repairs what it can.

    ``tables`` is a zero-argument callable returning the live
    ``{name: Table}`` mapping and ``rebuild_indexes`` a one-argument
    callable rebuilding one table's indexes (callables so catalog
    replacement on recovery is transparent); ``transactions`` supplies
    the salvage transactions, ``pool`` the buffer pool (with its
    quarantine registry attached).
    """

    def __init__(self, tables: Callable[[], dict],
                 transactions, pool,
                 registry: QuarantineRegistry,
                 rebuild_indexes: Callable[[str], int],
                 interval_s: Optional[float] = None) -> None:
        self.tables = tables
        self.transactions = transactions
        self.pool = pool
        self.registry = registry
        self.rebuild_indexes = rebuild_indexes
        self.interval_s = interval_s
        self.runs = 0
        self.pages_checked = 0
        self.pages_repaired = 0
        self.pages_salvaged = 0
        self.rows_salvaged = 0
        self.versions_dropped = 0
        self.last_run: Optional[dict] = None
        self._mutex = threading.Lock()   # one scrub at a time
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- entry points ------------------------------------------------------------

    def run(self, table_name: Optional[str] = None) -> dict:
        """Scrub one table (or all).  Returns a summary dict."""
        catalog_tables = self.tables()
        if table_name is not None and table_name not in catalog_tables:
            raise CatalogError(f"no table {table_name!r}")
        names = [table_name] if table_name is not None \
            else sorted(catalog_tables)
        summary = {"tables": 0, "pages_checked": 0, "pages_ok": 0,
                   "pages_repaired": 0, "pages_salvaged": 0,
                   "rows_salvaged": 0, "versions_dropped": 0,
                   "prev_cuts": 0}
        with self._mutex:
            for name in names:
                report = self._scrub_table(catalog_tables[name])
                summary["tables"] += 1
                for key, value in report.items():
                    summary[key] += value
            self.runs += 1
            self.pages_checked += summary["pages_checked"]
            self.pages_repaired += summary["pages_repaired"]
            self.pages_salvaged += summary["pages_salvaged"]
            self.rows_salvaged += summary["rows_salvaged"]
            self.versions_dropped += summary["versions_dropped"]
            summary["at"] = time.time()
            self.last_run = summary
        return summary

    # -- background daemon -------------------------------------------------------

    def start(self) -> None:
        """Start the interval daemon (no-op without an interval)."""
        if self.interval_s is None or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="scrub-daemon", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def set_interval(self, interval_s: Optional[float]) -> None:
        """Re-pace (or stop/start) the daemon online; ``Event.wait``
        wakes on ``stop()``, so the new pace applies immediately."""
        if self._thread is not None:
            self.stop()
        self.interval_s = interval_s
        if interval_s is not None:
            self.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.run()
            except Exception:  # noqa: BLE001 — daemon must survive races
                pass

    # -- the scrubber ------------------------------------------------------------

    def _scrub_table(self, table) -> dict:
        report = {"pages_checked": 0, "pages_ok": 0, "pages_repaired": 0,
                  "pages_salvaged": 0, "rows_salvaged": 0,
                  "versions_dropped": 0, "prev_cuts": 0}
        files = self.pool.files
        file_id = table.heap.file_id
        corrupt: list[int] = []
        # Verification pass (no table latch): every page either verifies,
        # is repaired from a clean cached copy, or is queued for salvage.
        for page_no in range(files.file_size_pages(file_id)):
            page_id = PageId(file_id, page_no)
            report["pages_checked"] += 1
            resident = self._resident(page_id)
            if resident is not None and resident.dirty:
                # The cached copy is newer than the disk image; its
                # write-back will overwrite whatever is on disk.
                report["pages_ok"] += 1
                continue
            try:
                block = retry_io(lambda: files.read_page(page_id))
                Page.from_block(page_id, block)
            except ChecksumError:
                if resident is not None:
                    # Clean resident copy: it verified when read, so it
                    # is authoritative — rewrite the rotten block.
                    with resident.latch:
                        retry_io(lambda: files.write_page(
                            page_id, resident.to_block()))
                    self.registry.clear(file_id, page_no)
                    report["pages_repaired"] += 1
                else:
                    corrupt.append(page_no)
                continue
            # Healthy on disk: drop any stale quarantine entry (a
            # transient fault may have healed, or repair already ran).
            self.registry.clear(file_id, page_no)
            report["pages_ok"] += 1
        if corrupt:
            salvaged, dropped, cuts = self._salvage(table, corrupt)
            report["pages_salvaged"] += len(corrupt)
            report["rows_salvaged"] += salvaged
            report["versions_dropped"] += dropped
            report["prev_cuts"] += cuts
        return report

    def _resident(self, page_id: PageId) -> Optional[Page]:
        with self.pool._lock:
            return self.pool._frames.get(page_id)

    def _salvage(self, table, page_nos: list[int]) -> tuple[int, int, int]:
        """Reformat the corrupt pages of one table, re-inserting every
        decodable head row.  Returns (rows salvaged, versions dropped,
        prev pointers cut)."""
        files = self.pool.files
        file_id = table.heap.file_id
        wal = self.transactions.wal
        txn = self.transactions.begin()
        salvaged = dropped = cuts = 0
        dead = set(page_nos)
        try:
            with table._latch:
                keep: list[bytes] = []
                for page_no in page_nos:
                    page_id = PageId(file_id, page_no)
                    rows, lost = self._extract(table, page_id)
                    keep.extend(rows)
                    dropped += lost
                    # Reformat in place, stamped at the log's high-water
                    # mark so conditional redo after a later crash
                    # cannot replay corrupt-era records onto it.
                    fresh = Page(page_id, files.disk.device.block_size)
                    SlottedPage.format(fresh)
                    if wal is not None:
                        fresh.lsn = wal.next_lsn - 1
                    retry_io(lambda: files.write_page(
                        page_id, fresh.to_block()))
                    self.pool.discard_page(page_id)
                    self.registry.clear(file_id, page_no)
                for payload in keep:
                    table.heap.insert(payload, txn=txn)
                    salvaged += 1
                if table.versioned:
                    cuts = self._cut_dangling_prev(table, dead, txn)
            txn.commit()
        except BaseException:
            txn.abort()
            raise
        if keep or cuts or table.versioned:
            self.rebuild_indexes(table.name)
            with table._latch:
                table.row_count, _, table.dead_versions = \
                    table.bootstrap_stats()
        return salvaged, dropped, cuts

    def _extract(self, table, page_id: PageId) -> tuple[list[bytes], int]:
        """Defensively pull decodable payloads off a corrupt page.

        Returns (payloads worth re-inserting, records dropped).  On a
        versioned table only head versions survive (their history
        pointers are cut — the chain may run through the garbage);
        payloads that fail schema decoding are dropped."""
        files = self.pool.files
        lost = 0
        keep: list[bytes] = []
        try:
            block = retry_io(lambda: files.read_page(page_id))
            page = Page.from_block(page_id, block, verify=False)
            view = SlottedPage(page)
            slots = range(view.num_slots)
        except Exception:  # noqa: BLE001 — even the layout is garbage
            return [], 0
        for slot in slots:
            try:
                payload = view.read(slot)
            except Exception:  # noqa: BLE001
                continue
            try:
                if table.versioned:
                    header = unpack_version(payload)
                    table.schema.decode(payload[HEADER_SIZE:])
                    if not header.is_head:
                        lost += 1   # superseded history: droppable
                        continue
                    if header.prev is not None:
                        payload = restamp(payload, cut_prev=True)
                else:
                    table.schema.decode(payload)
            except Exception:  # noqa: BLE001 — rotted payload
                lost += 1
                continue
            keep.append(payload)
        return keep, lost

    def _cut_dangling_prev(self, table, dead: set, txn) -> int:
        """Cut version-chain prev pointers that lead into reformatted
        pages — a dangling pointer would break chain walks forever,
        while a cut merely shortens visible history."""
        cuts = 0
        for rid, payload in list(table.heap.scan()):
            try:
                header = unpack_version(payload)
            except Exception:  # noqa: BLE001
                continue
            if header.prev is not None and header.prev.page_no in dead:
                table.heap.update(rid, restamp(payload, cut_prev=True),
                                  txn=txn, op=OP_VERSION_STAMP)
                cuts += 1
        return cuts

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "runs": self.runs,
            "pages_checked": self.pages_checked,
            "pages_repaired": self.pages_repaired,
            "pages_salvaged": self.pages_salvaged,
            "rows_salvaged": self.rows_salvaged,
            "versions_dropped": self.versions_dropped,
            "interval_s": self.interval_s,
            "last_run": self.last_run,
        }
