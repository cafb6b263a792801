"""Slotted-page layout over storage pages.

Classic layout: a header and slot directory grow from the start of the
page, record payloads grow from the end.  Slots are stable handles — a
record keeps its slot number for life, so (page id, slot) forms a stable
record id (RID).

Layout (all little-endian u16):

    [num_slots][free_space_ptr] [slot 0 off][slot 0 len] ... | gap | payloads

A slot with offset ``0xFFFF`` is a tombstone.  ``free_space_ptr`` is the
lowest payload offset; new payloads are written just below it.

Compaction is on demand.  Deleting a record (or growing one, which moves
it) only rewrites its slot entry, leaving the old bytes as a hole among
the payloads; holes are closed — every live payload slid to the end of
the page, the directory rewritten, slot numbers untouched — only when an
``insert``/``update``/``place`` finds the contiguous gap too short for
what it was promised.  :attr:`SlottedPage.free_space` is therefore *not*
the size of the gap: it is the bytes a compaction would make contiguous
(usable size minus header, directory and live payloads), which is what
the free-space map advertises and what the next insert can count on.
Nothing about holes is logged: redo and undo are slot-level operations
and land correctly on a page compacted at different moments than the
original run's.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.errors import PageLayoutError
from repro.storage.page import Page

_HEADER = struct.Struct("<HH")   # num_slots, free_space_ptr (end of free area)
_SLOT = struct.Struct("<HH")     # offset, length
_TOMBSTONE = 0xFFFF


class SlottedPage:
    """View over a :class:`~repro.storage.page.Page` providing record slots.

    The view reads/writes the underlying page bytes on every operation, so
    several short-lived views over the same pinned page stay consistent.
    """

    def __init__(self, page: Page) -> None:
        self.page = page

    # -- header ------------------------------------------------------------------

    @classmethod
    def format(cls, page: Page) -> "SlottedPage":
        """Initialise an empty slotted page in-place."""
        view = cls(page)
        page.write(0, _HEADER.pack(0, page.usable_size))
        return view

    @property
    def num_slots(self) -> int:
        return _HEADER.unpack_from(self.page.data, 0)[0]

    @property
    def _free_ptr(self) -> int:
        return _HEADER.unpack_from(self.page.data, 0)[1]

    def _set_header(self, num_slots: int, free_ptr: int) -> None:
        self.page.write(0, _HEADER.pack(num_slots, free_ptr))

    def _slot(self, slot_no: int) -> tuple[int, int]:
        if slot_no < 0 or slot_no >= self.num_slots:
            raise PageLayoutError(
                f"slot {slot_no} out of range [0, {self.num_slots})")
        return _SLOT.unpack_from(self.page.data,
                                 _HEADER.size + slot_no * _SLOT.size)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        self.page.write(_HEADER.size + slot_no * _SLOT.size,
                        _SLOT.pack(offset, length))

    def _directory(self) -> tuple[int, ...]:
        """The whole slot directory in one unpack, flat:
        ``(off 0, len 0, off 1, len 1, ...)``."""
        return struct.unpack_from(f"<{2 * self.num_slots}H",
                                  self.page.data, _HEADER.size)

    # -- capacity -------------------------------------------------------------------

    def _free(self, directory: tuple[int, ...]) -> int:
        # Tombstones carry length 0, so the odd entries sum to the live
        # payload bytes; the directory takes 2 bytes per entry.
        return (self.page.usable_size - _HEADER.size
                - 2 * len(directory) - sum(directory[1::2]))

    @property
    def free_space(self) -> int:
        """Bytes a compaction would make contiguous: everything that is
        not header, slot directory or live payload."""
        return self._free(self._directory())

    def space_needed(self, payload_len: int) -> int:
        """Worst-case free space required to insert (payload + new slot)."""
        return payload_len + _SLOT.size

    def has_room(self, payload_len: int) -> bool:
        directory = self._directory()
        needed = payload_len if _TOMBSTONE in directory[0::2] \
            else self.space_needed(payload_len)
        return self._free(directory) >= needed

    def _reusable_slot(self) -> Optional[int]:
        offsets = self._directory()[0::2]
        return offsets.index(_TOMBSTONE) if _TOMBSTONE in offsets else None

    # -- record operations ---------------------------------------------------------

    def _store(self, slot_no: int, payload: bytes, num_slots: int) -> None:
        """Write ``payload`` below the lowest payload and point
        ``slot_no`` at it, in a directory of ``num_slots`` (>= current)
        entries.  Compacts first when the contiguous gap is too short;
        the caller has checked :attr:`free_space`, so that makes room."""
        old_slots = self.num_slots
        free_ptr = self._free_ptr
        directory_end = _HEADER.size + num_slots * _SLOT.size
        if free_ptr - directory_end < len(payload):
            free_ptr = self._compact()
        offset = free_ptr - len(payload)
        self.page.write(offset, payload)
        if num_slots > old_slots:    # new entries start as tombstones
            self.page.write(_HEADER.size + old_slots * _SLOT.size,
                            _SLOT.pack(_TOMBSTONE, 0)
                            * (num_slots - old_slots))
        self._set_header(num_slots, offset)
        self._set_slot(slot_no, offset, len(payload))

    def insert(self, payload: bytes) -> int:
        """Store ``payload`` and return its slot number.

        Raises :class:`PageLayoutError` when the page cannot hold it even
        after compaction (callers check :meth:`has_room` or let the heap
        file allocate a new page).
        """
        if len(payload) >= _TOMBSTONE:
            raise PageLayoutError(
                f"payload of {len(payload)} bytes exceeds slotted page limit")
        if not self.has_room(len(payload)):
            raise PageLayoutError("page full")
        num_slots = self.num_slots
        reuse = self._reusable_slot()
        if reuse is not None:
            self._store(reuse, payload, num_slots)
            return reuse
        self._store(num_slots, payload, num_slots + 1)
        return num_slots

    def place(self, slot_no: int, payload: bytes) -> None:
        """Force ``payload`` into a *specific* slot — the recovery/undo
        path (redo of an insert, undo of a delete must restore the exact
        slot so RIDs stay stable).  Extends the slot directory with
        tombstones as needed; the target slot must not hold a live
        record."""
        if len(payload) >= _TOMBSTONE:
            raise PageLayoutError(
                f"payload of {len(payload)} bytes exceeds slotted page limit")
        num_slots = self.num_slots
        grow = max(0, slot_no + 1 - num_slots)
        if self.free_space < len(payload) + grow * _SLOT.size:
            raise PageLayoutError("page full")
        if not grow and self._slot(slot_no)[0] != _TOMBSTONE:
            raise PageLayoutError(
                f"slot {slot_no} is live; cannot place over it")
        self._store(slot_no, payload, num_slots + grow)

    def read(self, slot_no: int) -> bytes:
        offset, length = self._slot(slot_no)
        if offset == _TOMBSTONE:
            raise PageLayoutError(f"slot {slot_no} is deleted")
        return self.page.read(offset, length)

    def delete(self, slot_no: int) -> None:
        """Tombstone the slot; its payload bytes stay where they are
        until a later insert/update/place needs the room."""
        offset, _ = self._slot(slot_no)
        if offset == _TOMBSTONE:
            raise PageLayoutError(f"slot {slot_no} already deleted")
        self._set_slot(slot_no, _TOMBSTONE, 0)

    def update(self, slot_no: int, payload: bytes) -> None:
        """Replace a record under its slot number; the caller handles
        does-not-fit (record left intact) by delete+reinsert elsewhere
        (heap file level)."""
        offset, length = self._slot(slot_no)
        if offset == _TOMBSTONE:
            raise PageLayoutError(f"slot {slot_no} is deleted")
        if len(payload) <= length:
            # Shrink in place; the slack counts as free space at once.
            self.page.write(offset, payload)
            self._set_slot(slot_no, offset, len(payload))
            return
        if self.free_space + length < len(payload):
            raise PageLayoutError("page full")
        # Grow: the old payload becomes a hole, the new one is appended.
        self._set_slot(slot_no, _TOMBSTONE, 0)
        self._store(slot_no, payload, self.num_slots)

    def is_live(self, slot_no: int) -> bool:
        offset, _ = self._slot(slot_no)
        return offset != _TOMBSTONE

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot_no, payload)`` for live records."""
        data = self.page.data
        directory = self._directory()
        for slot_no, (offset, length) in enumerate(
                zip(directory[0::2], directory[1::2])):
            if offset != _TOMBSTONE:
                yield slot_no, bytes(data[offset:offset + length])

    def payloads(self) -> list[bytes]:
        """All live payloads in slot order, copied out in one sweep.

        The bulk-decode scan path calls this once per page under the
        page latch; the copies let decoding happen after the pin is
        released.
        """
        return [payload for _, payload in self.records()]

    @property
    def live_count(self) -> int:
        offsets = self._directory()[0::2]
        return len(offsets) - offsets.count(_TOMBSTONE)

    # -- compaction -------------------------------------------------------------------

    def _compact(self) -> int:
        """Rebuild the payload area without holes and the directory to
        match, one write each; returns the new free pointer."""
        data = self.page.data
        directory = list(self._directory())
        free_ptr = self.page.usable_size
        pieces = []
        for at in range(0, len(directory), 2):
            offset = directory[at]
            if offset != _TOMBSTONE:
                pieces.append(data[offset:offset + directory[at + 1]])
                free_ptr -= directory[at + 1]
                directory[at] = free_ptr
        self.page.write(free_ptr, b"".join(reversed(pieces)))
        self.page.write(0, struct.pack(f"<{2 + len(directory)}H",
                                       len(directory) // 2, free_ptr,
                                       *directory))
        return free_ptr
