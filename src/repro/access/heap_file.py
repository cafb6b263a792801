"""Heap files: unordered record storage over slotted pages.

A heap file owns one storage file and provides record-level CRUD addressed
by RID (page number + slot).  Free space is found through the page
manager's free-space map, so inserts do not scan the file.

Updates that no longer fit on the record's page move the record and return
a new RID; callers that maintain indexes (the data layer) re-index on move.

Transactional mutations: every CRUD method takes an optional ``txn``
(a :class:`~repro.data.transactions.Transaction`).  When present and a WAL
is attached, the mutation runs under the page latch and logs one
*physiological* record — operation + slot + record payload images, chained
by ``prev_lsn`` (see :mod:`repro.storage.wal`) — and stamps the page LSN.
Physiological (slot-level) logging rather than raw byte diffs is what
makes row-level concurrency crash-safe: undoing one transaction's insert
removes *its slot* without clobbering the slot-directory/compaction bytes
a committed neighbour on the same page wrote afterwards.  Without a
``txn`` the mutation is unlogged (bootstrap/maintenance paths).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from repro.errors import ChecksumError, PageLayoutError
from repro.faults.crashpoints import maybe_crash
from repro.storage.page import Page, PageId
from repro.storage.page_manager import PageManager
from repro.storage.wal import OP_HEAP_DELETE, OP_HEAP_INSERT, OP_HEAP_UPDATE
from repro.access.slotted_page import SlottedPage


class RID(NamedTuple):
    """Stable record identifier: page number within the file + slot.

    A plain tuple underneath (C-level hashing and equality); it also
    compares equal to ``(page_no, slot)``."""

    page_no: int
    slot: int

    def __repr__(self) -> str:
        return f"RID({self.page_no}:{self.slot})"


class HeapFile:
    """Unordered collection of byte-string records."""

    def __init__(self, pages: PageManager, file_id: int) -> None:
        self.pages = pages
        self.file_id = file_id

    # -- helpers -------------------------------------------------------------

    def _page_id(self, page_no: int) -> PageId:
        return PageId(self.file_id, page_no)

    def _note_free(self, view: SlottedPage) -> None:
        self.pages.note_free_space(view.page.page_id, view.free_space)

    @staticmethod
    def _log(page: Page, txn, op: int, slot: int,
             before: bytes, after: bytes) -> None:
        """Log one physiological heap record and stamp the page LSN.
        Caller holds the page latch."""
        if txn is None or not getattr(txn, "logs_physical", False):
            return
        lsn = txn.log_heap(op, page.page_id, slot, before, after)
        if lsn:
            if page.rec_lsn is None:
                page.rec_lsn = lsn
            page.lsn = lsn

    # -- CRUD ----------------------------------------------------------------

    def insert(self, payload: bytes, txn=None,
               op: int = OP_HEAP_INSERT) -> RID:
        """Store a record somewhere with room; ``op`` overrides the WAL
        record kind (version-chain maintenance logs its own kinds)."""
        needed = len(payload) + 4  # payload + one slot-directory entry
        target = self.pages.page_with_space(self.file_id, needed)
        if target is not None:
            page = self.pages.fetch(target)
            slot: Optional[int] = None
            try:
                with page.latch:
                    view = SlottedPage(page)
                    if view.has_room(len(payload)):
                        slot = view.insert(payload)
                        self._log(page, txn, op, slot, b"", payload)
                    # Stale hint either way; refresh it.
                    self._note_free(view)
                maybe_crash("heap.insert")
            finally:
                self.pages.unpin(target, dirty=slot is not None)
            if slot is not None:
                return RID(target.page_no, slot)
        page = self.pages.allocate(self.file_id)
        try:
            with page.latch:
                view = SlottedPage.format(page)
                slot = view.insert(payload)
                self._log(page, txn, op, slot, b"", payload)
                self._note_free(view)
            maybe_crash("heap.insert")
        finally:
            self.pages.unpin(page.page_id, dirty=True)
        return RID(page.page_id.page_no, slot)

    def read(self, rid: RID) -> bytes:
        page_id = PageId(self.file_id, rid.page_no)
        page = self.pages.fetch(page_id)
        try:
            with page.latch:
                return SlottedPage(page).read(rid.slot)
        finally:
            self.pages.unpin(page_id)

    def exists(self, rid: RID) -> bool:
        page_id = self._page_id(rid.page_no)
        if rid.page_no >= self.pages.pool.files.file_size_pages(self.file_id):
            return False
        page = self.pages.fetch(page_id)
        try:
            with page.latch:
                view = SlottedPage(page)
                return rid.slot < view.num_slots and view.is_live(rid.slot)
        finally:
            self.pages.unpin(page_id)

    def delete(self, rid: RID, txn=None) -> None:
        page_id = self._page_id(rid.page_no)
        page = self.pages.fetch(page_id)
        try:
            with page.latch:
                view = SlottedPage(page)
                before = view.read(rid.slot)
                view.delete(rid.slot)
                self._log(page, txn, OP_HEAP_DELETE, rid.slot, before, b"")
                self._note_free(view)
            maybe_crash("heap.delete")
        finally:
            self.pages.unpin(page_id, dirty=True)

    def update(self, rid: RID, payload: bytes, txn=None,
               op: int = OP_HEAP_UPDATE) -> RID:
        """Rewrite a record; returns its (possibly new) RID.  ``op``
        overrides the WAL record kind for in-place rewrites (header
        stamps never change the record size, so they never move)."""
        page_id = self._page_id(rid.page_no)
        page = self.pages.fetch(page_id)
        moved = False
        try:
            with page.latch:
                view = SlottedPage(page)
                before = view.read(rid.slot)
                try:
                    view.update(rid.slot, payload)
                    self._log(page, txn, op, rid.slot,
                              before, payload)
                    self._note_free(view)
                except PageLayoutError:
                    # Does not fit here: delete and reinsert elsewhere,
                    # each half logged as its own single-page operation.
                    view.delete(rid.slot)
                    self._log(page, txn, OP_HEAP_DELETE, rid.slot,
                              before, b"")
                    self._note_free(view)
                    moved = True
            maybe_crash("heap.update")
        finally:
            self.pages.unpin(page_id, dirty=True)
        if moved:
            return self.insert(payload, txn=txn)
        return rid

    # -- scanning --------------------------------------------------------------

    def _fetch_or_skip(self, page_id: PageId):
        """Fetch for a sequential sweep, degrading around corruption.

        When the pool carries a quarantine registry, a page that fails
        checksum verification is skipped (fetch has already quarantined
        it) so one corrupt page does not make the whole table
        unreadable; the scrubber repairs it later.  Pools without a
        registry keep the historical fail-fast behaviour.  Point reads
        (:meth:`read`, :meth:`read_many`) always propagate."""
        try:
            return self.pages.fetch(page_id)
        except ChecksumError:
            if getattr(self.pages.pool, "integrity", None) is not None:
                return None
            raise

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        num_pages = self.pages.pool.files.file_size_pages(self.file_id)
        for page_no in range(num_pages):
            page_id = self._page_id(page_no)
            page = self._fetch_or_skip(page_id)
            if page is None:
                continue
            try:
                with page.latch:
                    records = list(SlottedPage(page).records())
            finally:
                self.pages.unpin(page_id)
            for slot, payload in records:
                yield RID(page_no, slot), payload

    def _sweep_pages(self, slotted: bool
                     ) -> Iterator[tuple[int, list]]:
        """One pin + one bulk copy per page: ``(page_no, payloads)``
        when ``slotted`` is False, ``(page_no, [(slot, payload)...])``
        when True — the single pin/latch loop both batch scanners
        share."""
        num_pages = self.pages.pool.files.file_size_pages(self.file_id)
        for page_no in range(num_pages):
            page_id = self._page_id(page_no)
            page = self._fetch_or_skip(page_id)
            if page is None:
                continue
            try:
                with page.latch:
                    view = SlottedPage(page)
                    records = list(view.records()) if slotted \
                        else view.payloads()
            finally:
                self.pages.unpin(page_id)
            yield page_no, records

    def scan_payload_batches(self, target_rows: int = 1024
                             ) -> Iterator[list[bytes]]:
        """Yield runs of live payloads, at least ``target_rows`` per run
        (except the last).

        Each page is fetched/pinned exactly once and its whole slot
        directory is swept in one bulk copy under the latch — the batch
        engine's page-at-a-time counterpart to :meth:`scan`.
        """
        buffered: list[bytes] = []
        for _, payloads in self._sweep_pages(slotted=False):
            buffered.extend(payloads)
            if len(buffered) >= target_rows:
                yield buffered
                buffered = []
        if buffered:
            yield buffered

    def scan_version_batches(self, target_rows: int = 1024
                             ) -> Iterator[tuple[list[int], list[int],
                                                 list[bytes]]]:
        """Like :meth:`scan_payload_batches` but each run also carries
        the records' positions as parallel ``(page_nos, slots)`` int
        lists — the versioned-scan leaf.  Positions stay primitive so
        the hot path allocates no RID objects; the (rare) chain walk of
        an invisible head builds its RID on demand."""
        page_nos: list[int] = []
        slots: list[int] = []
        buffered: list[bytes] = []
        for page_no, records in self._sweep_pages(slotted=True):
            for slot, payload in records:
                page_nos.append(page_no)
                slots.append(slot)
                buffered.append(payload)
            if len(buffered) >= target_rows:
                yield page_nos, slots, buffered
                page_nos, slots, buffered = [], [], []
        if buffered:
            yield page_nos, slots, buffered

    def read_many(self, rids: Iterable[RID],
                  missing_ok: bool = False) -> Iterator[Optional[bytes]]:
        """Read several records in the given order, holding one pin per
        *run* of same-page RIDs instead of pinning per record (index
        scans feed RIDs clustered by page, so the common case is one
        fetch per page).  With ``missing_ok`` a deleted/invalid slot
        yields ``None`` instead of raising — versioned-table fetches
        tolerate index entries racing a vacuum prune."""
        pinned_id: Optional[PageId] = None
        pinned_page = None
        try:
            for rid in rids:
                if pinned_page is None or pinned_id.page_no != rid.page_no:
                    if pinned_page is not None:
                        self.pages.unpin(pinned_id)
                        pinned_page = None
                    pinned_id = PageId(self.file_id, rid.page_no)
                    pinned_page = self.pages.fetch(pinned_id)
                with pinned_page.latch:
                    try:
                        payload = SlottedPage(pinned_page).read(rid.slot)
                    except PageLayoutError:
                        if not missing_ok:
                            raise
                        payload = None
                yield payload
        finally:
            if pinned_page is not None:
                self.pages.unpin(pinned_id)

    def count(self) -> int:
        return sum(1 for _ in self.scan())

    def num_pages(self) -> int:
        return self.pages.pool.files.file_size_pages(self.file_id)

    def fragmentation(self) -> float:
        """Free-space fraction (the monitoring example's figure)."""
        return self.pages.fragmentation(self.file_id)
