"""The columnar sibling store: immutable encoded blocks per table.

Each versioned table may own one ``col_<table>`` file holding two kinds
of column blocks, both written transactionally through the ordinary
heap/WAL machinery (so PR 8's checksum quarantine, retry and scrub
containment apply unchanged):

- **history** blocks hold versions the vacuum pruned below the snapshot
  horizon, together with their ``(xmin, xmax)`` validity intervals.
  Every stamp in a history block is provably committed (that is the
  prune precondition), so ``AS OF`` time travel is a pure visibility
  computation over the intervals.
- **mirror** blocks are a raw columnar dump of *every* record currently
  in the heap — heads and chain copies alike, stamps included.  MVCC
  arithmetic then selects exactly the right version per row for any
  read view, so a valid mirror can answer any current-snapshot scan
  without touching the heap.  Validity is an epoch check: the dump
  captures ``table.mutations`` under the table latch, and any later
  write (or abort-undo) bumps the counter.  Across a reopen the mirror
  re-validates against the ``(live rows, max xid)`` bootstrap
  fingerprint — any visible-content change stamps a fresh, higher xid
  into some surviving record, so a matching fingerprint proves the dump
  still describes the heap.

A block is stored as chunk records (tag ``0x02``) plus one directory
record (tag ``0x01``) carrying zone maps, a CRC over the reassembled
blob, and the chunk RIDs.  Directory records are what :meth:`load`
discovers at reopen; a crashed writer's records are WAL losers and are
gone before we ever scan.

Locking: ``gate`` serialises structural changes (vacuum migration /
mirror rebuild / publish) against AS OF readers.  Lock order is always
``gate`` → ``table._latch``.
"""

from __future__ import annotations

import marshal
import operator
import threading
import zlib
from itertools import compress
from typing import Callable, Iterator, Optional, Sequence

from repro.access.batch import RowBatch, _ColumnView
from repro.access.heap_file import RID, HeapFile
from repro.access.version import HEADER_SIZE, VERSION_HEADER, FLAG_HEAD
from repro.columnar.encoding import EncodedColumn, ZoneMap
from repro.errors import ChecksumError

#: Rows per column block (one scan batch each).
BLOCK_ROWS = 4096
#: Chunk payload bytes — comfortably under the ~4060-byte slotted-page
#: record ceiling once the tag byte and slot entry are added.
CHUNK_BYTES = 3600

_TAG_DIR = 0x01
_TAG_CHUNK = 0x02

#: Spec ops the scan layer can evaluate exactly on encoded data.
PUSHABLE_OPS = ("=", "<", "<=", ">", ">=", "between", "isnull", "notnull")


class ColumnBlock:
    """Directory entry + lazily-loaded encoded columns of one block."""

    __slots__ = ("kind", "rows", "crc", "chunk_rids", "dir_rid", "zones",
                 "xmin_zone", "xmax_zone", "seq", "fingerprint", "_loaded")

    def __init__(self, kind: str, rows: int, crc: int,
                 chunk_rids: list[RID], dir_rid: RID,
                 zones: list[ZoneMap], xmin_zone: ZoneMap,
                 xmax_zone: ZoneMap, seq: int = 0,
                 fingerprint: Optional[tuple] = None) -> None:
        self.kind = kind
        self.rows = rows
        self.crc = crc
        self.chunk_rids = chunk_rids
        self.dir_rid = dir_rid
        self.zones = zones
        self.xmin_zone = xmin_zone
        self.xmax_zone = xmax_zone
        self.seq = seq
        self.fingerprint = fingerprint
        #: (columns, xmin, xmax) as EncodedColumn triples once loaded.
        self._loaded: Optional[tuple] = None

    def rids(self) -> list[RID]:
        return self.chunk_rids + [self.dir_rid]

    def load(self, heap: HeapFile) -> tuple:
        """(encoded columns, xmin column, xmax column), reassembling and
        CRC-checking the blob on first access."""
        if self._loaded is None:
            parts = []
            for payload in heap.read_many(self.chunk_rids):
                parts.append(payload[1:])
            blob = b"".join(parts)
            if zlib.crc32(blob) != self.crc:
                raise ChecksumError(
                    f"columnar block {self.dir_rid} failed its CRC")
            cols, xmin, xmax = marshal.loads(blob)
            self._loaded = ([EncodedColumn(*c) for c in cols],
                            EncodedColumn(*xmin), EncodedColumn(*xmax))
        return self._loaded


class _BlockColumns(_ColumnView):
    """Lazy column view over one block: a column decodes (and applies
    the row selection, if any) only when an operator first touches it."""

    __slots__ = ("encoded", "keep")

    def __init__(self, encoded: Sequence[EncodedColumn],
                 keep: Optional[list[int]] = None) -> None:
        self.rows = None
        self.arity = len(encoded)
        self._cache = {}
        self.encoded = encoded
        self.keep = keep

    def __getitem__(self, index: int) -> list:
        column = self._cache.get(index)
        if column is None:
            if index < 0 or index >= self.arity:
                raise IndexError(index)
            column = self.encoded[index].decode()
            if self.keep is not None:
                column = [column[i] for i in self.keep]
            self._cache[index] = column
        return column


def _block_batch(encoded: Sequence[EncodedColumn], num_rows: int,
                 keep: Optional[list[int]]) -> RowBatch:
    batch = RowBatch.__new__(RowBatch)
    batch.columns = _BlockColumns(encoded, keep)
    batch.num_rows = num_rows if keep is None else len(keep)
    batch.rows = None
    return batch


class ColumnarStore:
    """Per-table manager of history and mirror blocks."""

    def __init__(self, table_name: str, schema,
                 heap_factory: Callable[[], HeapFile],
                 heap: Optional[HeapFile] = None,
                 metadata_durable: bool = False) -> None:
        self.name = table_name
        self.schema = schema
        self._heap_factory = heap_factory
        self.heap = heap
        #: Whether the ``col_<table>`` entry has reached the durable
        #: file-metadata chain.  Until it has, recovery would discard
        #: WAL records that reference the file — so the first install
        #: checkpoints the metadata (a stable point: the catalog's own
        #: pages exist by then, unlike at CREATE TABLE time).  Stores
        #: re-opened from an existing file start durable.
        self._metadata_durable = metadata_durable
        #: Serialises migration/publish against AS OF readers.  Always
        #: taken *outside* the table latch.
        self.gate = threading.RLock()
        self.history: list[ColumnBlock] = []
        self.mirror: list[ColumnBlock] = []
        #: ``table.mutations`` value the mirror dump captured; the
        #: mirror answers scans only while the counter still matches.
        self.mirror_epoch: Optional[int] = None
        self._mirror_seq = 0
        self._stale_mirror: list[ColumnBlock] = []
        # pg_stat-style gauges (surfaced via Database.stats()).
        self.blocks_scanned = 0
        self.blocks_skipped = 0
        self.rows_migrated = 0
        self.mirror_rebuilds = 0
        self.mirror_row_count = 0

    # -- persistence ---------------------------------------------------------

    def _ensure_heap(self) -> HeapFile:
        if self.heap is None:
            self.heap = self._heap_factory()
        return self.heap

    def _ensure_durable_file(self) -> None:
        if not self._metadata_durable:
            self._ensure_heap().pages.pool.files.checkpoint_metadata()
            self._metadata_durable = True

    def load(self, fingerprint: tuple) -> None:
        """Discover committed blocks at reopen; adopt the newest mirror
        generation only when its fingerprint matches the heap's
        bootstrap fingerprint."""
        if self.heap is None:
            return
        mirrors: dict[int, list[ColumnBlock]] = {}
        for rid, payload in self.heap.scan():
            if not payload or payload[0] != _TAG_DIR:
                continue
            meta = marshal.loads(payload[1:])
            block = ColumnBlock(
                meta["kind"], meta["rows"], meta["crc"],
                [RID(p, s) for p, s in meta["chunks"]], rid,
                [ZoneMap.from_tuple(z) for z in meta["zones"]],
                ZoneMap.from_tuple(meta["xzones"][0]),
                ZoneMap.from_tuple(meta["xzones"][1]),
                meta.get("seq", 0), meta.get("fp"))
            if block.kind == "history":
                self.history.append(block)
            else:
                mirrors.setdefault(block.seq, []).append(block)
        if mirrors:
            self._mirror_seq = max(mirrors)
            newest = mirrors.pop(self._mirror_seq)
            for stale in mirrors.values():
                self._stale_mirror.extend(stale)
            if all(b.fingerprint == fingerprint for b in newest):
                self.mirror = newest
                self.mirror_epoch = 0    # counters restart at reopen
                self.mirror_row_count = sum(b.rows for b in newest)
            else:
                self._stale_mirror.extend(newest)

    def _install_block(self, kind: str, columns: list[list],
                       xmins: list[int], xmaxs: list[int], txn,
                       created: list[RID], seq: int = 0,
                       fingerprint: Optional[tuple] = None) -> ColumnBlock:
        heap = self._ensure_heap()
        encoded = [EncodedColumn.encode(c) for c in columns]
        enc_xmin = EncodedColumn.encode(xmins)
        enc_xmax = EncodedColumn.encode(xmaxs)
        blob = marshal.dumps(
            (tuple((c.kind, c.payload, c.count) for c in encoded),
             (enc_xmin.kind, enc_xmin.payload, enc_xmin.count),
             (enc_xmax.kind, enc_xmax.payload, enc_xmax.count)))
        crc = zlib.crc32(blob)
        chunk_rids = []
        for offset in range(0, len(blob), CHUNK_BYTES):
            rid = heap.insert(
                bytes([_TAG_CHUNK]) + blob[offset:offset + CHUNK_BYTES],
                txn=txn)
            created.append(rid)
            chunk_rids.append(rid)
        zones = [ZoneMap.build(c) for c in columns]
        xmin_zone = ZoneMap.build(xmins)
        xmax_zone = ZoneMap.build(xmaxs)
        meta = {"kind": kind, "rows": len(xmins), "crc": crc,
                "chunks": [(r.page_no, r.slot) for r in chunk_rids],
                "zones": [z.to_tuple() for z in zones],
                "xzones": (xmin_zone.to_tuple(), xmax_zone.to_tuple()),
                "seq": seq, "fp": fingerprint}
        dir_rid = heap.insert(bytes([_TAG_DIR]) + marshal.dumps(meta),
                              txn=txn)
        created.append(dir_rid)
        block = ColumnBlock(kind, len(xmins), crc, chunk_rids, dir_rid,
                            zones, xmin_zone, xmax_zone, seq, fingerprint)
        block._loaded = (encoded, enc_xmin, enc_xmax)
        return block

    def _erase_rids(self, rids: list[RID]) -> None:
        for rid in rids:
            try:
                self.heap.delete(rid)
            except Exception:  # noqa: BLE001 — already gone is fine
                pass

    def _erase_blocks(self, blocks: list[ColumnBlock], txn=None) -> None:
        for block in blocks:
            for rid in block.rids():
                try:
                    self.heap.delete(rid, txn=txn)
                except Exception:  # noqa: BLE001 — already gone is fine
                    pass

    # -- population (called by the vacuum, under ``gate``) -------------------

    def write_history(self, txn, triples: list[tuple]) -> list[ColumnBlock]:
        """Encode pruned versions into history blocks inside ``txn``.
        ``triples`` is ``[(row, xmin, xmax), ...]``; returns the
        unpublished blocks (publish after commit via
        :meth:`publish_history`).  The erase callback registers *before*
        any insert: an in-process abort (which performs no physical heap
        undo) then removes every record already placed."""
        if not triples:
            return []
        self._ensure_durable_file()
        created: list[RID] = []
        txn.on_abort(lambda: self._erase_rids(created))
        blocks = []
        arity = len(self.schema.names)
        for start in range(0, len(triples), BLOCK_ROWS):
            window = triples[start:start + BLOCK_ROWS]
            columns = [[row[i] for row, _, _ in window]
                       for i in range(arity)]
            xmins = [x for _, x, _ in window]
            xmaxs = [x for _, _, x in window]
            blocks.append(self._install_block("history", columns,
                                              xmins, xmaxs, txn, created))
        return blocks

    def publish_history(self, blocks: list[ColumnBlock]) -> None:
        self.history.extend(blocks)
        self.rows_migrated += sum(b.rows for b in blocks)

    def rebuild_mirror(self, table, txn) -> Optional[tuple]:
        """Dump the heap into fresh mirror blocks inside ``txn``.

        The dump runs under the table latch, so it is a consistent raw
        image; the captured epoch is ``table.mutations`` at that
        instant.  Old mirror records are deleted in the same
        transaction — a crash undoes both halves together.  Returns
        ``(blocks, epoch, rows)`` for :meth:`publish_mirror`, or None
        for an empty heap."""
        self._ensure_durable_file()
        doomed = self.mirror + self._stale_mirror
        rows: list[tuple] = []
        xmins: list[int] = []
        xmaxs: list[int] = []
        live = 0
        max_xid = 0
        decode = self.schema.decode
        with table._latch:
            epoch = table.mutations
            for _, payload in table.heap.scan():
                flags, xmin, xmax, _, _ = VERSION_HEADER.unpack_from(
                    payload, 0)
                rows.append(decode(payload[HEADER_SIZE:]))
                xmins.append(xmin)
                xmaxs.append(xmax)
                if xmin > max_xid:
                    max_xid = xmin
                if xmax > max_xid:
                    max_xid = xmax
                if flags & FLAG_HEAD and xmax == 0:
                    live += 1
        seq = self._mirror_seq + 1
        fingerprint = (live, max_xid)
        created: list[RID] = []

        def undo() -> None:
            # The old mirror records are physically gone (in-process
            # aborts do not undo heap deletes) — drop the in-memory
            # mirror entirely; WAL recovery handles the crash case.
            self.mirror = []
            self.mirror_epoch = None
            self._stale_mirror = []
            self._erase_rids(created)

        txn.on_abort(undo)
        blocks = []
        arity = len(self.schema.names)
        for start in range(0, len(rows), BLOCK_ROWS):
            window = rows[start:start + BLOCK_ROWS]
            columns = [[row[i] for row in window] for i in range(arity)]
            blocks.append(self._install_block(
                "mirror", columns, xmins[start:start + BLOCK_ROWS],
                xmaxs[start:start + BLOCK_ROWS], txn, created, seq,
                fingerprint))
        self._erase_blocks(doomed, txn=txn)
        return blocks, epoch, seq

    def publish_mirror(self, blocks: list[ColumnBlock], epoch: int,
                       seq: int) -> None:
        self.mirror = blocks
        self.mirror_epoch = epoch
        self._mirror_seq = seq
        self._stale_mirror = []
        self.mirror_rebuilds += 1
        self.mirror_row_count = sum(b.rows for b in blocks)

    # -- validity ------------------------------------------------------------

    def mirror_valid(self, table) -> bool:
        """Can the mirror answer scans right now?  True exactly when the
        dump epoch still matches the table's mutation counter.  Any
        statement snapshot taken at or before this check is then fully
        answerable from the mirror: everything it can see is in the
        dump, and later writes are invisible to it by MVCC."""
        with self.gate:
            if self.mirror_epoch is None:
                return False
            with table._latch:
                return self.mirror_epoch == table.mutations

    # -- scanning ------------------------------------------------------------

    def _admitted(self, block: ColumnBlock, specs,
                  column_index: dict) -> bool:
        for spec in specs:
            index = column_index.get(spec.column)
            if index is None or spec.op not in PUSHABLE_OPS:
                continue
            if not block.zones[index].admits(spec.op, spec.value,
                                             spec.low, spec.high):
                return False
        return True

    def _keep_list(self, block: ColumnBlock, snapshot, specs,
                   column_index: dict) -> Optional[list[int]]:
        """Row positions of the block that are visible to ``snapshot``
        and satisfy every pushable spec — None for "all of them", an
        empty list for "none"."""
        encoded, enc_xmin, enc_xmax = block.load(self._ensure_heap())
        flags: Optional[list[bool]] = None
        # Visibility.  Fast path: every xmax is 0 (nothing superseded)
        # and every distinct xmin committed within the view — the whole
        # block is visible without per-row work.
        if not (block.xmax_zone.lo == 0 and block.xmax_zone.hi == 0
                and self._all_xmins_seen(enc_xmin, snapshot)):
            sees: dict[int, bool] = {}

            def committed(xid: int) -> bool:
                verdict = sees.get(xid)
                if verdict is None:
                    verdict = sees[xid] = snapshot.sees(xid)
                return verdict

            flags = [
                (xmin == 0 or committed(xmin))
                and (xmax == 0 or not committed(xmax))
                for xmin, xmax in zip(enc_xmin.decode(), enc_xmax.decode())]
        for spec in specs:
            index = column_index.get(spec.column)
            if index is None or spec.op not in PUSHABLE_OPS:
                continue
            verdicts = encoded[index].matches(spec)
            flags = verdicts if flags is None \
                else list(map(operator.and_, flags, verdicts))
        if flags is None or all(flags):
            return None
        return list(compress(range(len(flags)), flags))

    @staticmethod
    def _all_xmins_seen(enc_xmin: EncodedColumn, snapshot) -> bool:
        distinct = enc_xmin.distinct()
        if distinct is None:
            distinct = set(enc_xmin.decode())
        return all(x == 0 or snapshot.sees(x) for x in distinct)

    def mirror_batches(self, blocks: list[ColumnBlock], snapshot,
                       specs=()) -> Iterator[RowBatch]:
        """RowBatches of the mirror as ``snapshot`` sees it, skipping
        blocks the zone maps rule out and pushing spec evaluation onto
        the encoded columns."""
        column_index = {name: i for i, name in
                        enumerate(self.schema.names)}
        for block in blocks:
            if not self._admitted(block, specs, column_index):
                self.blocks_skipped += 1
                continue
            # Whole-block visibility skip: nothing in the block began
            # within the view.
            if block.xmin_zone.lo is not None \
                    and block.xmin_zone.lo >= snapshot.next_xid:
                self.blocks_skipped += 1
                continue
            self.blocks_scanned += 1
            keep = self._keep_list(block, snapshot, specs, column_index)
            if keep is not None and not keep:
                continue
            encoded, _, _ = block.load(self._ensure_heap())
            yield _block_batch(encoded, block.rows, keep)

    def mirror_row_iter(self, blocks: list[ColumnBlock], snapshot,
                        specs=()) -> Iterator[tuple]:
        for batch in self.mirror_batches(blocks, snapshot, specs):
            yield from batch.iter_rows()

    def history_rows(self, view, specs=()) -> Iterator[tuple]:
        """Rows of migrated versions visible to an AS OF ``view``.
        Caller holds ``gate`` (so a concurrent migration cannot publish
        or prune mid-read)."""
        column_index = {name: i for i, name in
                        enumerate(self.schema.names)}
        for block in self.history:
            if not self._admitted(block, specs, column_index):
                self.blocks_skipped += 1
                continue
            # Every history interval is closed (xmax != 0 always): the
            # block is invisible when nothing began in the view or
            # everything already ended within it.
            if block.xmin_zone.lo is not None \
                    and block.xmin_zone.lo >= view.next_xid:
                self.blocks_skipped += 1
                continue
            if block.xmax_zone.hi is not None \
                    and block.xmax_zone.hi < view.next_xid \
                    and not view.active:
                self.blocks_skipped += 1
                continue
            self.blocks_scanned += 1
            keep = self._keep_list(block, view, (), column_index)
            if keep is not None and not keep:
                continue
            encoded, _, _ = block.load(self._ensure_heap())
            yield from _block_batch(encoded, block.rows, keep).iter_rows()

    # -- cost-model inputs ---------------------------------------------------

    def mirror_pages(self) -> int:
        return sum(len(b.chunk_rids) + 1 for b in self.mirror)

    def admitted_fraction(self, specs) -> tuple[float, int]:
        """(fraction of mirror rows in admitted blocks, admitted pages)
        from zone maps alone — the optimizer's skipping estimate."""
        column_index = {name: i for i, name in
                        enumerate(self.schema.names)}
        total = admitted = pages = 0
        for block in self.mirror:
            total += block.rows
            if self._admitted(block, specs, column_index):
                admitted += block.rows
                pages += len(block.chunk_rids) + 1
        if total == 0:
            return 0.0, 0
        return admitted / total, pages

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "history_blocks": len(self.history),
            "history_rows": sum(b.rows for b in self.history),
            "mirror_blocks": len(self.mirror),
            "mirror_rows": self.mirror_row_count,
            "mirror_valid": self.mirror_epoch is not None,
            "blocks_scanned": self.blocks_scanned,
            "blocks_skipped": self.blocks_skipped,
            "rows_migrated": self.rows_migrated,
            "mirror_rebuilds": self.mirror_rebuilds,
        }
