"""Page abstraction shared by the buffer pool and access layer.

A :class:`Page` is a mutable view over one device block plus bookkeeping:
a page id, a dirty flag, a pin count, and a page LSN used by the WAL
protocol (a page may not be written to disk before the log covering its
latest change is durable).

The on-disk image carries a trailer the payload never touches:

    [payload ... ][page LSN (8 bytes)][CRC32 (4 bytes)]

The page LSN makes redo *conditional* — recovery re-applies a log record
only when ``record.lsn > page_lsn`` — and the checksum detects torn or
corrupted blocks on read.  Pages mutated outside the WAL protocol keep
LSN 0 and are simply always redo candidates (a redundant but idempotent
re-apply of physical images).
"""

from __future__ import annotations

import struct
import threading
import zlib
from typing import NamedTuple

from repro.errors import ChecksumError

CHECKSUM_SIZE = 4
LSN_SIZE = 8
PAGE_TRAILER_SIZE = LSN_SIZE + CHECKSUM_SIZE

_LSN = struct.Struct("<Q")


class PageId(NamedTuple):
    """Identifies a page as (file id, page number within the file).

    A plain tuple underneath, so hashing and equality (every buffer-pool
    dict lookup) run in C; it also compares equal to ``(file_id,
    page_no)``."""

    file_id: int
    page_no: int

    def __repr__(self) -> str:  # compact form shows up in many test asserts
        return f"PageId({self.file_id}:{self.page_no})"


class Page:
    """In-memory image of one block, with pin/dirty/LSN bookkeeping.

    The usable payload excludes the trailing LSN + checksum: a page created
    over a 4096-byte block exposes 4084 writable bytes through :attr:`data`.

    ``lsn`` is the LSN of the last logged change (persisted in the block
    trailer); ``rec_lsn`` is the LSN that first dirtied the page since it
    was last clean — the recovery-LSN entry the fuzzy-checkpoint dirty
    page table records.  ``latch`` is a short-term mutual-exclusion lock
    for physical page access, distinct from transaction-level locks.
    """

    def __init__(self, page_id: PageId, block_size: int) -> None:
        self.page_id = page_id
        self.block_size = block_size
        self.data = bytearray(block_size - PAGE_TRAILER_SIZE)
        self.dirty = False
        self.pin_count = 0
        self.lsn = 0
        self.rec_lsn: int | None = None
        self.latch = threading.RLock()

    @property
    def usable_size(self) -> int:
        return self.block_size - PAGE_TRAILER_SIZE

    # -- byte-level accessors (the paper's "byte level" storage interface) --

    def read(self, offset: int, length: int) -> bytes:
        return bytes(self.data[offset:offset + length])

    def write(self, offset: int, payload: bytes) -> None:
        if offset < 0 or offset + len(payload) > self.usable_size:
            raise ValueError(
                f"write [{offset}, {offset + len(payload)}) outside usable "
                f"page area of {self.usable_size} bytes")
        self.data[offset:offset + len(payload)] = payload
        self.dirty = True

    # -- on-disk image -------------------------------------------------------

    def to_block(self) -> bytes:
        """Serialise to a full block: payload, page LSN, CRC32 checksum.

        The checksum covers payload + LSN so a torn trailer is detected
        like any other corruption.
        """
        body = bytes(self.data) + _LSN.pack(self.lsn)
        crc = zlib.crc32(body) & 0xFFFFFFFF
        return body + crc.to_bytes(CHECKSUM_SIZE, "little")

    @classmethod
    def from_block(cls, page_id: PageId, block: bytes,
                   verify: bool = True) -> "Page":
        body, crc_bytes = block[:-CHECKSUM_SIZE], block[-CHECKSUM_SIZE:]
        if verify:
            expected = int.from_bytes(crc_bytes, "little")
            actual = zlib.crc32(body) & 0xFFFFFFFF
            # An all-zero block is a freshly allocated page, never written;
            # its stored checksum is zero which only matches if the payload
            # CRC happens to be zero, so special-case it.
            if expected != actual and any(block):
                raise ChecksumError(
                    f"{page_id}: checksum mismatch "
                    f"(stored {expected:#x}, computed {actual:#x})")
        page = cls(page_id, len(block))
        page.data[:] = body[:-LSN_SIZE]
        (page.lsn,) = _LSN.unpack_from(body, len(body) - LSN_SIZE)
        return page

    def __repr__(self) -> str:
        return (f"<Page {self.page_id} pins={self.pin_count} "
                f"dirty={self.dirty} lsn={self.lsn}>")
