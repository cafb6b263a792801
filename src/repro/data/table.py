"""Tables: heap storage + schema + index maintenance + multi-versioning.

A :class:`Table` owns one heap file and any number of secondary indexes
(B+-tree or extendible hash).  The primary key, when declared, is a unique
B+-tree index created automatically.  All mutations keep every index
consistent; uniqueness is enforced at insert/update time.

Index keys use the order-preserving key codec; non-unique indexes append
the record's RID to the key, making entries unique while keeping them
clustered by key prefix (see :mod:`repro.access.keycodec`).

**Versioned tables** (``versioned=True``, the snapshot-isolation default)
store every heap record behind a 25-byte version header
(:mod:`repro.access.version`).  The record at a row's original RID is the
*head* of its version chain — indexes and row locks always address the
head.  An update copies the pre-image into an ``OLD`` record (stamped
``xmax = updater``) and rewrites the head in place; a delete merely
stamps the head's ``xmax``.  Reads carry a
:class:`~repro.data.transactions.Snapshot` and filter versions by pure
header arithmetic — no locks — walking the prev chain (under the table
latch, so writers/vacuum cannot dangle a pointer mid-walk) only when the
head itself is invisible.  Superseded versions live until
:mod:`repro.storage.vacuum` prunes everything older than the oldest
active snapshot.

**Version-aware index entries.**  On versioned tables, index entries are
retained until vacuum rather than maintained eagerly: an UPDATE that
changes an indexed key *adds* an entry for the new key and keeps the
superseded-key entry pointing at the head RID, and a DELETE leaves every
entry in place — so a snapshot reader probing by any key a visible
version ever carried still finds the row.  Index probes therefore return
*candidate* head RIDs; the fetch path re-checks each candidate's version
chain against the statement :class:`~repro.data.transactions.Snapshot`,
and the residual WHERE re-check above every index source discards stale
entries whose visible version no longer carries the probed key — index
paths and sequential scans answer identically under any snapshot.
Unique entries hold a small *list* of head RIDs (a key being recycled or
in key-flight holds two transiently); uniqueness is enforced logically by
:meth:`Table._check_unique` against latest *visible* versions plus
in-flight writers, not by raw index membership.
:mod:`repro.storage.vacuum` unlinks a superseded-key entry once the
superseding version falls below the snapshot horizon.  The rare head
rewrite that overflows its page moves the head to a fresh RID and
re-points every retained entry at it under the table latch; a scan
racing that exact move can miss the row for one statement (2PL's S
locks used to exclude this window; redirect tombstones would close it).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.access.batch import BATCH_SIZE, RowBatch
from repro.access.btree import BPlusTree
from repro.faults.crashpoints import maybe_crash
from repro.access.hash_index import ExtendibleHashIndex
from repro.access.heap_file import RID, HeapFile
from repro.access.keycodec import encode_key
from repro.access.version import (
    FLAG_HEAD,
    HEADER_SIZE,
    VERSION_HEADER,
    bulk_headers,
    pack_version,
    restamp,
    unpack_version,
)
from repro.access.record import RecordCodec
from repro.data.schema import Schema
from repro.data.transactions import FROZEN_SNAPSHOT, Snapshot
from repro.errors import (
    CatalogError,
    DuplicateKeyError,
    KeyNotFoundError,
    PageLayoutError,
    SchemaError,
    SerializationError,
)
from repro.storage.page_manager import PageManager
from repro.storage.wal import OP_VERSION_CREATE, OP_VERSION_STAMP

_RID = struct.Struct("<II")


def encode_rid(rid: RID) -> bytes:
    return _RID.pack(rid.page_no, rid.slot)


def decode_rid(data: bytes) -> RID:
    page_no, slot = _RID.unpack(data)
    return RID(page_no, slot)


#: Neutral header prepended to chain-walked tuple bytes so one offset
#: codec decodes fast-path and walked payloads alike (xmin = 0 means
#: "bootstrap, visible to all" — the header is never re-examined).
_WALKED_HEADER = pack_version(FLAG_HEAD, 0, 0)


@dataclass
class IndexDef:
    """Index metadata as stored in the catalog."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    method: str = "btree"        # btree | hash

    def to_dict(self) -> dict:
        return {"name": self.name, "table": self.table,
                "columns": list(self.columns), "unique": self.unique,
                "method": self.method}

    @classmethod
    def from_dict(cls, data: dict) -> "IndexDef":
        return cls(data["name"], data["table"], tuple(data["columns"]),
                   data.get("unique", False), data.get("method", "btree"))


class TableIndex:
    """One physical index attached to a table.

    On *versioned* tables (``self.versioned``, set by
    :meth:`Table.attach_index`) entries are retained until vacuum and
    probes return candidate head RIDs whose visibility the fetch path
    re-checks, so maintenance is idempotent per ``(key, RID)`` pair:
    unique entries hold a packed *list* of RIDs (two rows may hold one
    key transiently while a recycle or key-move is in flight), inserts
    of an already-present pair are no-ops, and deletes are RID-aware.

    A unique index constrains non-NULL keys only (SQL: NULLs are never
    equal), so a key with a NULL component is stored like a non-unique
    entry — RID-suffixed, one per row — and never conflicts.
    """

    def __init__(self, definition: IndexDef, schema: Schema,
                 pages: PageManager, file_id: int) -> None:
        self.definition = definition
        self.column_indexes = [schema.index_of(c)
                               for c in definition.columns]
        self.pages = pages
        self.file_id = file_id
        #: Retained-entry (version-aware) mode; wired from the owning
        #: table's ``versioned`` flag at attach time.
        self.versioned = False
        #: Advisory probe counter (lock-free; feeds the index advisor's
        #: drop rule — an index nobody probes is paying rent for
        #: nothing on a write-heavy table).
        self.probes = 0
        if definition.method == "btree":
            self.tree: Optional[BPlusTree] = BPlusTree(pages, file_id)
            self.hash: Optional[ExtendibleHashIndex] = None
        elif definition.method == "hash":
            self.tree = None
            self.hash = ExtendibleHashIndex()
        else:
            raise CatalogError(
                f"unknown index method {definition.method!r}")

    # -- key construction ------------------------------------------------------

    def key_values(self, row: Sequence[Any]) -> tuple:
        return tuple(row[i] for i in self.column_indexes)

    def _constrains(self, values: tuple) -> bool:
        """Does uniqueness apply to ``values`` (unique, no NULL)?"""
        return self.definition.unique and None not in values

    def _entry_key(self, values: tuple, rid: RID) -> bytes:
        key = encode_key(values)
        if not self._constrains(values):
            key += encode_rid(rid)
        return key

    @staticmethod
    def _rid_chunks(value: bytes) -> list[bytes]:
        """Split a multi-RID unique entry value into its packed RIDs."""
        return [value[off:off + _RID.size]
                for off in range(0, len(value), _RID.size)]

    @classmethod
    def _rid_list(cls, value: bytes) -> list[RID]:
        """Decode a multi-RID unique entry value (8 bytes per RID)."""
        return [decode_rid(chunk) for chunk in cls._rid_chunks(value)]

    # -- maintenance ---------------------------------------------------------------

    def insert(self, row: Sequence[Any], rid: RID) -> bool:
        return self.insert_values(self.key_values(row), rid)

    def insert_values(self, values: tuple, rid: RID) -> bool:
        """Add the entry for ``(values, rid)``.

        Returns ``True`` when a new physical entry (or RID) was added,
        ``False`` when the pair was already present — possible only in
        versioned mode, where an update back to a key an older retained
        version still carries must be a no-op.
        """
        index = self.tree if self.tree is not None else self.hash
        key = self._entry_key(values, rid)
        # Only a versioned unique key gathers RIDs, so only it is read
        # first; any other entry finds its key taken by the insert failing.
        multi = self.versioned and self._constrains(values)
        value = self._entry_value(values, rid,
                                  index.get(key) if multi else None)
        if value is None:
            return False
        try:
            index.insert(key, value, replace=multi)
            return True
        except DuplicateKeyError:
            pass
        # The key is taken: raises unless versioned mode keeps the entry.
        return self._entry_value(values, rid, index.get(key)) is not None

    def _entry_value(self, values: tuple, rid: RID,
                     existing: Optional[bytes]) -> Optional[bytes]:
        """What the entry's key should hold after adding ``(values, rid)``
        to what it holds now (``existing``).  ``None`` when the pair is
        already present, which only versioned mode tolerates: an update
        back to a key an older retained version still carries."""
        packed = encode_rid(rid)
        if existing is None:
            return packed if self.definition.unique else b""
        if not self.versioned:
            raise DuplicateKeyError(
                f"duplicate key {values!r} in unique index "
                f"{self.definition.name!r}")
        if not self.definition.unique or \
                packed in self._rid_chunks(existing):
            return None
        return existing + packed

    def build(self, rows: Iterable[tuple[RID, Sequence[Any]]]) -> None:
        """Fill this empty index from ``(rid, row)`` pairs — one visible
        version per row, as a scan under a fresh snapshot yields them —
        with the entries :meth:`insert` would make row by row, loaded
        into a B+-tree in one bottom-up pass.  Two rows sharing a unique
        key are then both visible, which raises
        :class:`DuplicateKeyError` before anything is written, in every
        isolation mode."""
        entries: dict[bytes, bytes] = {}
        for rid, row in rows:
            values = self.key_values(row)
            key = self._entry_key(values, rid)
            if key in entries:
                raise DuplicateKeyError(
                    f"duplicate key {values!r} in unique index "
                    f"{self.definition.name!r}")
            entries[key] = encode_rid(rid) if self.definition.unique \
                else b""
        if self.tree is None:
            for key, value in entries.items():
                self.hash.insert(key, value)
        else:
            self.tree.bulk_load(sorted(entries.items()))

    def delete(self, row: Sequence[Any], rid: RID) -> None:
        self.delete_values(self.key_values(row), rid)

    def delete_values(self, values: tuple, rid: RID) -> None:
        """Remove the entry for ``(values, rid)``; raises
        :class:`KeyNotFoundError` when no such pair exists.  RID-aware
        in versioned mode: a multi-RID unique entry only sheds the given
        RID, so unlinking a dead former holder never orphans a live row
        that recycled the key."""
        index = self.tree if self.tree is not None else self.hash
        if self.versioned and self._constrains(values):
            key = encode_key(values)
            existing = index.get(key)
            packed = encode_rid(rid)
            if existing is not None:
                chunks = self._rid_chunks(existing)
                if packed in chunks:
                    chunks.remove(packed)
                    if chunks:
                        index.insert(key, b"".join(chunks), replace=True)
                    else:
                        index.delete(key)
                    return
            raise KeyNotFoundError(
                f"no entry {values!r} -> {rid} in unique index "
                f"{self.definition.name!r}")
        index.delete(self._entry_key(values, rid))

    def would_conflict(self, row: Sequence[Any]) -> bool:
        """True when inserting ``row`` would violate uniqueness (raw
        membership — meaningful only for unversioned tables, where an
        entry implies a live row)."""
        values = self.key_values(row)
        if not self._constrains(values):
            return False
        key = encode_key(values)
        if self.tree is not None:
            return self.tree.get(key) is not None
        return self.hash.get(key) is not None

    # -- lookups ----------------------------------------------------------------------

    def lookup_eq(self, values: tuple) -> list[RID]:
        """Candidate head RIDs for an equality probe.  On versioned
        tables stale candidates are expected: callers re-check the
        version chain against their snapshot and re-check the key."""
        self.probes += 1
        key = encode_key(values)
        if self.definition.unique:
            if self.tree is not None:
                found = self.tree.get(key)
            else:
                found = self.hash.get(key)
            if found is None:
                return []
            if len(found) > _RID.size:    # versioned: several holders
                return self._rid_list(found)
            return [decode_rid(found)]
        if self.tree is None:
            raise CatalogError("hash indexes must be unique in this engine")
        return [decode_rid(entry_key[len(key):])
                for entry_key, _ in self.tree.prefix_scan(key)]

    def range_scan(self, lo: Optional[tuple], hi: Optional[tuple],
                   lo_inclusive: bool = True,
                   hi_inclusive: bool = False) -> Iterator[RID]:
        """Candidate head RIDs with keys inside the bounds, deduplicated
        in versioned mode (one head may carry entries under several
        retained keys of the range)."""
        self.probes += 1
        if self.tree is None:
            raise CatalogError(
                f"index {self.definition.name!r} is hash-based; "
                f"range scans need a btree index")
        lo_key = encode_key(lo) if lo is not None else None
        hi_key = encode_key(hi) if hi is not None else None
        if not self.definition.unique:
            # Non-unique entries carry a RID suffix, so every entry of a
            # boundary key compares strictly *greater* than the bare
            # encoded bound.  Extend the bound past any possible suffix
            # where the bare bound would misclassify the boundary key:
            # inclusive-hi must admit its entries, and exclusive-lo must
            # skip them (without the extension ``key > lo`` re-admitted
            # every boundary entry).
            suffix = b"\xff" * (_RID.size + 1)
            if hi_key is not None and hi_inclusive:
                hi_key += suffix
            if lo_key is not None and not lo_inclusive:
                lo_key += suffix
        seen: Optional[set] = set() if self.versioned else None
        for entry_key, value in self.tree.items(
                lo=lo_key, hi=hi_key,
                lo_inclusive=lo_inclusive, hi_inclusive=hi_inclusive):
            if self.definition.unique:
                if seen is None:
                    yield decode_rid(value)
                    continue
                for rid in self._rid_list(value):
                    if rid not in seen:
                        seen.add(rid)
                        yield rid
            else:
                rid = decode_rid(entry_key[-_RID.size:])
                if seen is None:
                    yield rid
                elif rid not in seen:
                    seen.add(rid)
                    yield rid

    def __len__(self) -> int:
        index = self.tree if self.tree is not None else self.hash
        return len(index)


class Table:
    """A logical table bound to its physical storage."""

    def __init__(self, name: str, schema: Schema, heap: HeapFile,
                 versioned: bool = False) -> None:
        self.name = name
        self.schema = schema
        self.heap = heap
        self.versioned = versioned
        # Versioned payloads decode *past* their header in place (an
        # offset codec) — the batch scan never slices a copy per record.
        self._version_codec = RecordCodec(
            schema.codec.types, offset=HEADER_SIZE) if versioned else None
        #: Transaction manager supplying "latest" read views for
        #: versioned tables (wired by the catalog/database; None for
        #: standalone tables, which read with frozen visibility).
        self.txns = None
        #: Superseded/deleted version stamps awaiting vacuum
        #: (approximate gauge driving the auto-vacuum threshold).
        self.dead_versions = 0
        #: Heap mutation epoch: bumped (under the latch) by every write
        #: and every abort-undo — anything that can change what a scan
        #: yields.  The columnar mirror captures this counter at dump
        #: time and answers scans only while it still matches; vacuum
        #: surgery deliberately does *not* bump it, because pruning
        #: below the horizon never changes any live view's result.
        self.mutations = 0
        #: Columnar sibling store (attached by the catalog for
        #: versioned tables when the columnar tier is enabled).
        self.columnar = None
        self.indexes: dict[str, TableIndex] = {}
        self.row_count = 0
        #: Advisory access counters for the workload observer: plain
        #: ints bumped without locks (torn reads are fine — they feed
        #: adaptation heuristics, not invariants).
        self.seq_scans = 0
        self.index_probes = 0
        #: ``{(column, op_name): count}`` sargable predicate sightings
        #: recorded by the planner — the index advisor's raw evidence.
        self.predicate_counts: dict[tuple, int] = {}
        # Short-term latch serialising index maintenance + row counting:
        # row-level transaction locks admit concurrent writers to one
        # table, but the in-memory index structures are not thread-safe.
        self._latch = threading.RLock()
        # Serialises the copy-and-publish of ``indexes`` between DDLs.
        self._index_lock = threading.Lock()

    # -- version visibility ------------------------------------------------------

    def _read_view(self, snapshot: Optional[Snapshot]) -> Snapshot:
        if snapshot is not None:
            return snapshot
        if self.txns is not None:
            return self.txns.latest_snapshot()
        return FROZEN_SNAPSHOT

    # -- SSI hooks (serializable isolation) --------------------------------------

    def _ssi(self, view: Snapshot):
        """``(manager, tracker)`` when ``view`` belongs to an active
        serializable transaction, else ``None`` — the single test every
        read-path SSI hook hangs off.  Detached latest views carry
        ``xid == 0`` and internal visitors (vacuum, unique checks) read
        through them, so they never register SIREADs."""
        if view.xid == 0 or self.txns is None:
            return None
        ssi = getattr(self.txns, "ssi", None)
        if ssi is None:
            return None
        tracker = ssi.tracker(view.xid)
        if tracker is None:
            return None
        return ssi, tracker

    def _ssi_check_write(self, txn, rid, old_row: Optional[tuple],
                         new_row: Optional[tuple]) -> None:
        """Write-time SSI check (caller holds the table latch): creating
        or stamping a version supersedes what overlapping readers may
        have observed — raise if that completes a dangerous structure."""
        ssi = getattr(self.txns, "ssi", None) if self.txns is not None \
            else None
        if ssi is not None:
            ssi.check_write(txn.txn_id, self.name, rid, self.schema,
                            old_row, new_row)

    def _visible_version(self, head_rid: RID,
                         view: Snapshot) -> Optional[bytes]:
        """Tuple bytes of the chain version ``view`` sees, or None.

        The slow path of every versioned read: taken only when a head's
        own stamps are not visible.  Runs under the table latch so a
        concurrent abort-undo or vacuum cannot delete a chain member
        between the pointer read and the record fetch; the head is
        re-read first because its bytes may have changed since the
        caller's lock-free copy.
        """
        with self._latch:
            try:
                payload = self.heap.read(head_rid)
            except PageLayoutError:
                return None
            header = unpack_version(payload)
            if not header.is_head:
                return None    # RID recycled since the caller's copy
            # Read-time rw-edges (SSI): every stamp this walk passes
            # that the view cannot see belongs to an overlapping writer
            # that superseded what we are about to read — the only
            # detection point when that writer committed before we read
            # (its write-time check predates our SIREADs).
            ssi = self._ssi(view)
            while True:
                if view.visible(header.xmin, header.xmax):
                    if ssi is not None and header.xmax != 0 \
                            and not view.sees(header.xmax):
                        ssi[0].observe_version(ssi[1], header.xmax)
                    return payload[HEADER_SIZE:]
                if ssi is not None:
                    for stamp in (header.xmin, header.xmax):
                        if stamp != 0 and not view.sees(stamp):
                            ssi[0].observe_version(ssi[1], stamp)
                prev = header.prev
                if prev is None:
                    return None
                try:
                    payload = self.heap.read(prev)
                except PageLayoutError:
                    return None   # defensive: truncated chain
                header = unpack_version(payload)

    def bootstrap_stats(self) -> tuple[int, int, int]:
        """(live row count, max transaction id seen, dead versions) from
        one heap pass — what the catalog needs at load time, when
        everything on disk is committed (crash recovery ran first) and
        no manager exists yet.  Dead versions are what vacuum counts:
        every old-version copy plus every head stamped deleted."""
        if not self.versioned:
            return self.heap.count(), 0, 0
        live = dead = 0
        max_xid = 0
        for _, payload in self.heap.scan():
            flags, xmin, xmax, _, _ = VERSION_HEADER.unpack_from(payload, 0)
            if xmin > max_xid:
                max_xid = xmin
            if xmax > max_xid:
                max_xid = xmax
            if flags & FLAG_HEAD and xmax == 0:
                live += 1
            else:
                dead += 1
        return live, max_xid, dead

    # -- index management -----------------------------------------------------------

    # ``self.indexes`` is copy-on-write: these two methods are its only
    # writers and publish a new dict, so a loop over ``indexes.values()``
    # keeps iterating the set it started with while DDL runs.

    def attach_index(self, index: TableIndex,
                     populate: bool = False) -> None:
        self._check_unattached(index)
        index.versioned = self.versioned
        if populate:
            index.build(self.scan())
        with self._index_lock:
            # Re-checked: a concurrent DDL may have attached the name
            # while this index was being built.
            self._check_unattached(index)
            self.indexes = {**self.indexes, index.definition.name: index}

    def _check_unattached(self, index: TableIndex) -> None:
        if index.definition.name in self.indexes:
            raise CatalogError(
                f"index {index.definition.name!r} already attached")

    def detach_index(self, name: str) -> TableIndex:
        with self._index_lock:
            indexes = dict(self.indexes)
            try:
                index = indexes.pop(name)
            except KeyError:
                raise CatalogError(
                    f"no index {name!r} on {self.name}") from None
            self.indexes = indexes
        return index

    def index_on(self, columns: tuple[str, ...],
                 require_btree: bool = False) -> Optional[TableIndex]:
        """An index whose key is exactly ``columns`` (used by the planner)."""
        for index in self.indexes.values():
            if index.definition.columns == columns:
                if require_btree and index.tree is None:
                    continue
                return index
        return None

    # -- mutations ----------------------------------------------------------------------

    def insert(self, row: Sequence[Any], txn=None, lock_row=None) -> RID:
        """Insert one row.

        When ``txn`` is given the inverse operation is registered with it
        *immediately after* the heap placement — before row locking and
        index maintenance, either of which may raise — so an abort always
        knows how to take the row back out.  ``lock_row(rid)`` — when
        given — runs under the table latch, so the caller acquires its
        row lock before any concurrent scan can see (and lock) the new
        RID.
        """
        validated = self.schema.validate(row)
        with self._latch:
            self._check_unique(validated, txn)
            payload = self.schema.codec.encode(validated)
            if self.versioned:
                xid = txn.txn_id if txn is not None else 0
                payload = pack_version(FLAG_HEAD, xid, 0) + payload
            rid = self.heap.insert(payload, txn=txn)
            self.mutations += 1
            # The undo tracks how far the insert got: if lock_row (which
            # may hit a routine deadlock/timeout) or a crash point stops
            # us before index maintenance, the rollback must remove only
            # the heap record — index.delete of never-inserted entries
            # would itself fail and leave a phantom row behind.
            progress = {"indexed": False}
            if txn is not None:
                txn.on_abort(lambda: self._undo_insert(rid, progress, txn))
            if self.versioned and txn is not None:
                # A new row materialises inside predicates overlapping
                # readers already evaluated (the phantom case).  Checked
                # *after* heap placement: a reader registering its SIREAD
                # in between would otherwise slip past both detection
                # points (it read pre-insert state, we checked pre-
                # registration state).  A raise here aborts through the
                # undo just registered.
                self._ssi_check_write(txn, rid, None, validated)
            if lock_row is not None:
                lock_row(rid)
            maybe_crash("table.index")
            for index in self.indexes.values():
                index.insert(validated, rid)
            progress["indexed"] = True
            self.row_count += 1
        return rid

    def _check_unique(self, validated: tuple, txn,
                      exclude_rid: Optional[RID] = None,
                      old_row: Optional[tuple] = None) -> None:
        """Enforce uniqueness.  Caller holds the table latch.

        For unversioned tables a physical entry is a conflict.  For
        versioned tables the indexes retain superseded and dead entries
        until vacuum, so membership proves nothing: every candidate head
        is re-read and the key re-checked against its *latest* version.
        Only a live committed holder — or an in-flight writer whose
        outcome could leave the key taken (uncommitted insert, delete,
        or key-move away) — is a conflict; stale and committed-dead
        entries are simply skipped, and the fresh row's RID joins the
        key's entry list alongside them.
        """
        view = self._read_view(None) if self.versioned else None
        for index in self.indexes.values():
            if not index.definition.unique:
                continue
            values = index.key_values(validated)
            if None in values or (old_row is not None
                                  and values == index.key_values(old_row)):
                continue   # NULL never conflicts; nor does a kept key
            if not self.versioned:
                if index.would_conflict(validated):
                    raise DuplicateKeyError(
                        f"{self.name}: duplicate key {values!r} for "
                        f"unique index {index.definition.name!r}")
                continue
            for conflict_rid in index.lookup_eq(values):
                if conflict_rid == exclude_rid:
                    continue
                if self._unique_conflict(index, conflict_rid, values,
                                         txn, view):
                    raise DuplicateKeyError(
                        f"{self.name}: duplicate key {values!r} for "
                        f"unique index {index.definition.name!r}")

    def _unique_conflict(self, index: "TableIndex", rid: RID,
                         values: tuple, txn, view: Snapshot) -> bool:
        """Does the head at ``rid`` actually contest ``values``?
        ``view`` is the caller's latest-committed read view (one per
        statement — fresh enough, since the table latch is held)."""
        try:
            payload = self.heap.read(rid)
        except PageLayoutError:
            return False   # entry raced a vacuum prune; the key is free
        header = unpack_version(payload)
        if not header.is_head:
            return False   # slot recycled into a chain copy: stale entry
        xid = txn.txn_id if txn is not None else 0
        row = self.schema.decode(payload[HEADER_SIZE:])
        if index.key_values(row) != values:
            # The latest version moved off this key.  A committed
            # key-move leaves the entry stale (readable only through old
            # snapshots): the key is free at latest.  An uncommitted
            # move may still abort — but an abort restores the latest
            # *committed* version, so only the key that version carries
            # can come back; every older retained key is free forever.
            if header.xmin in (0, xid) or view.sees(header.xmin):
                return False
            committed = self._visible_version(rid, view)
            return committed is not None and \
                index.key_values(self.schema.decode(committed)) == values
        if header.xmax != 0:
            if header.xmax == xid:
                return False   # we deleted it ourselves this transaction
            # A committed delete awaiting vacuum frees the key; an
            # uncommitted delete by another transaction may abort.
            return not view.sees(header.xmax)
        # Live holder (committed, or an in-flight insert that may yet
        # commit): the key is taken.
        return True

    def _undo_insert(self, rid: RID, progress: dict, txn) -> None:
        with self._latch:
            if progress["indexed"]:
                self._remove_row(rid, txn)
            else:
                self.heap.delete(rid, txn=txn)
                self.mutations += 1

    def _remove_row(self, rid: RID, txn) -> tuple:
        """Physically remove a row: index entries + heap record.  The
        undo path of an insert (and the whole delete for unversioned
        tables) — never used to execute a user DELETE on a versioned
        table, which only stamps ``xmax``."""
        payload = self.heap.read(rid)
        row = self.schema.decode(payload[HEADER_SIZE:] if self.versioned
                                 else payload)
        for index in self.indexes.values():
            try:
                index.delete(row, rid)
            except KeyNotFoundError:
                pass   # e.g. already unlinked by a dead-key takeover
        self.heap.delete(rid, txn=txn)
        self.row_count -= 1
        self.mutations += 1
        return row

    def read(self, rid: RID, snapshot: Optional[Snapshot] = None) -> tuple:
        """The row at ``rid`` as ``snapshot`` (default: latest) sees it.
        Raises :class:`PageLayoutError` when no version is visible —
        versioned tables mirror the tombstone semantics of plain heaps.
        """
        if not self.versioned:
            return self.schema.decode(self.heap.read(rid))
        view = self._read_view(snapshot)
        ssi = self._ssi(view)
        if ssi is not None:
            # Registered before the physical read (and before visibility
            # resolves): a write landing in between then sees the SIREAD
            # at its post-install check, and reading *absence* (no
            # visible version) is an observation writers must see.
            ssi[0].record_tuple_read(ssi[1], self.name, rid)
        payload = self.heap.read(rid)
        header = unpack_version(payload)
        if header.is_head and view.visible(header.xmin, header.xmax):
            if ssi is not None and header.xmax != 0 \
                    and not view.sees(header.xmax):
                ssi[0].observe_version(ssi[1], header.xmax)
            return self.schema.decode(payload[HEADER_SIZE:])
        tuple_bytes = self._visible_version(rid, view)
        if tuple_bytes is None:
            raise PageLayoutError(
                f"{self.name}: no version of {rid} visible to the "
                f"read view")
        return self.schema.decode(tuple_bytes)

    def delete(self, rid: RID, txn=None) -> tuple:
        with self._latch:
            if not self.versioned or txn is None:
                # Unversioned (or maintenance) path: physical removal.
                row = self._remove_row(rid, txn)
                if txn is not None:
                    txn.on_abort(lambda: self.insert(row, txn=txn))
                return row
            # MVCC delete: stamp xmax on the head, leave payload, chain
            # and index entries in place for concurrent snapshots.
            payload = self.heap.read(rid)
            row = self.schema.decode(payload[HEADER_SIZE:])
            self.heap.update(rid, restamp(payload, xmax=txn.txn_id),
                             txn=txn, op=OP_VERSION_STAMP)
            self.row_count -= 1
            self.dead_versions += 1
            self.mutations += 1
            txn.on_abort(lambda: self._undo_delete_stamp(rid, txn))
            # SSI check after the stamp is in place (see insert): a
            # raise aborts through the undo just registered.
            self._ssi_check_write(txn, rid, row, None)
        return row

    def _undo_delete_stamp(self, rid: RID, txn) -> None:
        with self._latch:
            payload = self.heap.read(rid)
            self.heap.update(rid, restamp(payload, xmax=0), txn=txn,
                             op=OP_VERSION_STAMP)
            self.row_count += 1
            self.dead_versions -= 1
            self.mutations += 1

    def update(self, rid: RID, new_row: Sequence[Any], txn=None,
               lock_row=None) -> RID:
        """Rewrite one row.

        The inverse (restore the old row at its current RID) registers
        with ``txn`` right after the heap rewrite, before locking or
        index maintenance can fail.  When the record moves (does not fit
        in place), ``lock_row(new_rid)`` runs under the table latch so
        the caller's lock follows the row to its new RID before anyone
        else can claim it.
        """
        validated = self.schema.validate(new_row)
        with self._latch:
            if self.versioned and txn is not None:
                return self._mvcc_update(rid, validated, txn, lock_row)
            old_payload = self.heap.read(rid)
            old_row = self.schema.decode(
                old_payload[HEADER_SIZE:] if self.versioned
                else old_payload)
            self._check_unique(validated, txn, exclude_rid=rid,
                               old_row=old_row)
            for index in self.indexes.values():
                index.delete(old_row, rid)
            new_payload = self.schema.codec.encode(validated)
            if self.versioned:
                # Maintenance rewrite: keep the existing header intact.
                new_payload = old_payload[:HEADER_SIZE] + new_payload
            new_rid = self.heap.update(rid, new_payload, txn=txn)
            self.mutations += 1
            progress = {"indexed": False}
            if txn is not None:
                txn.on_abort(lambda: self._undo_update(
                    new_rid, old_row, progress, txn))
            if new_rid != rid and lock_row is not None:
                lock_row(new_rid)
            maybe_crash("table.index")
            for index in self.indexes.values():
                index.insert(validated, new_rid)
            progress["indexed"] = True
        return new_rid

    def _mvcc_update(self, rid: RID, validated: tuple, txn,
                     lock_row) -> RID:
        """Version-chain update (caller holds the table latch): push the
        pre-image down the chain as an ``OLD`` copy stamped with our
        xmax, rewrite the head with ``xmin = us``, and *add* entries for
        any new keys.  Superseded-key entries are retained (still
        pointing at the head) so concurrent snapshots keep finding the
        row through them; vacuum unlinks each once no live view needs
        the versions that carried it.  An update that keeps every
        indexed key touches no index at all."""
        head_payload = self.heap.read(rid)
        header = unpack_version(head_payload)
        old_row = self.schema.decode(head_payload[HEADER_SIZE:])
        self._check_unique(validated, txn, exclude_rid=rid,
                           old_row=old_row)
        copy_payload = pack_version(header.flags & ~FLAG_HEAD,
                                    header.xmin, txn.txn_id,
                                    header.prev) + \
            head_payload[HEADER_SIZE:]
        copy_rid = self.heap.insert(copy_payload, txn=txn,
                                    op=OP_VERSION_CREATE)
        new_head = pack_version(FLAG_HEAD, txn.txn_id, 0, copy_rid) + \
            self.schema.codec.encode(validated)
        new_rid = self.heap.update(rid, new_head, txn=txn)
        progress = {"added": [],
                    "moved_from": rid if new_rid != rid else None}
        txn.on_abort(lambda: self._undo_mvcc_update(
            new_rid, copy_rid, head_payload, old_row, progress, txn))
        # Increment the gauge in the same always-runs window as the
        # undo registration, so a failure below (row-lock timeout,
        # index crash point) cannot drive it negative at abort.
        self.dead_versions += 1
        self.mutations += 1
        # SSI check after the new head is in place (see insert): a
        # reader registering its SIREAD between a pre-install check and
        # the install would be invisible to both detection points.  A
        # raise here aborts through the undo just registered.
        self._ssi_check_write(txn, rid, old_row, validated)
        if new_rid != rid and lock_row is not None:
            lock_row(new_rid)
        maybe_crash("table.index")
        if new_rid != rid:
            # Rare head relocation (the rewrite outgrew its page): every
            # retained entry must follow the head to its new RID.
            self._repoint_entries(
                self._history_rows(old_row, header.prev), rid, new_rid)
        for index in self.indexes.values():
            values = index.key_values(validated)
            if index.insert_values(values, new_rid):
                progress["added"].append((index, values))
        return new_rid

    def chain_members(self, prev: Optional[RID]
                      ) -> list[tuple[RID, bytes]]:
        """``(rid, payload)`` of every chain version from ``prev`` down,
        tolerating a truncated chain (caller holds the table latch).
        Shared by head-relocation re-pointing and the vacuum collector.
        """
        members: list[tuple[RID, bytes]] = []
        while prev is not None:
            try:
                payload = self.heap.read(prev)
            except PageLayoutError:
                break   # defensive: truncated chain
            members.append((prev, payload))
            prev = unpack_version(payload).prev
        return members

    def _history_rows(self, newest_row: tuple,
                      prev: Optional[RID]) -> list[tuple]:
        """``newest_row`` plus the rows of every chain version below
        ``prev`` (caller holds the table latch) — the key history the
        retained index entries were derived from."""
        return [newest_row] + [self.schema.decode(payload[HEADER_SIZE:])
                               for _, payload in self.chain_members(prev)]

    def _repoint_entries(self, rows: Sequence[tuple], from_rid: RID,
                         to_rid: RID) -> None:
        """Move every index entry derived from ``rows`` from one head
        RID to another, tolerating entries already pruned by vacuum."""
        for index in self.indexes.values():
            seen: set = set()
            for row in rows:
                values = index.key_values(row)
                if values in seen:
                    continue
                seen.add(values)
                try:
                    index.delete_values(values, from_rid)
                except KeyNotFoundError:
                    continue
                index.insert_values(values, to_rid)

    def _undo_mvcc_update(self, head_rid: RID, copy_rid: RID,
                          old_head_payload: bytes, old_row: tuple,
                          progress: dict, txn) -> None:
        with self._latch:
            # Only the entries this update actually added come out;
            # retained superseded-key entries were never touched.  The
            # list grows per index, so it is exact even when the insert
            # loop itself failed partway through.
            for index, values in progress["added"]:
                try:
                    index.delete_values(values, head_rid)
                except KeyNotFoundError:
                    pass
            # Restore the pre-image (original xmin/xmax/prev) at the
            # head and drop the version copy.
            back_rid = self.heap.update(head_rid, old_head_payload,
                                        txn=txn)
            moved_from = progress["moved_from"]
            if back_rid != head_rid or (moved_from is not None
                                        and moved_from != head_rid):
                # The head moved during the update, the undo, or both:
                # chase the retained entries from wherever they point
                # and re-point them at the restored head.
                rows = self._history_rows(
                    old_row, unpack_version(old_head_payload).prev)
                for source in {head_rid, moved_from} - {None, back_rid}:
                    self._repoint_entries(rows, source, back_rid)
            self.heap.delete(copy_rid, txn=txn)
            self.dead_versions -= 1
            self.mutations += 1

    def _undo_update(self, rid: RID, old_row: tuple, progress: dict,
                     txn) -> None:
        with self._latch:
            if progress["indexed"]:
                self.update(rid, old_row, txn=txn)
            else:
                # The new index entries were never inserted (the old ones
                # are already gone): restore the heap payload and re-key
                # the indexes with the old row directly.
                payload = self.schema.codec.encode(old_row)
                if self.versioned:
                    payload = self.heap.read(rid)[:HEADER_SIZE] + payload
                back_rid = self.heap.update(rid, payload, txn=txn)
                self.mutations += 1
                for index in self.indexes.values():
                    index.insert(old_row, back_rid)

    # -- write-write conflict detection (snapshot isolation) ---------------------------

    def writable_row(self, rid: RID, txn,
                     enforce_snapshot: bool = False) -> Optional[tuple]:
        """The latest row at head ``rid`` for a writer that already
        holds its X row lock — or ``None`` when the row is gone at
        latest state (skip the victim).

        First-updater-wins: with ``enforce_snapshot`` (explicit
        snapshot-isolation transactions), a head whose latest version
        was created — or whose deletion committed — after the writer's
        snapshot raises :class:`SerializationError` instead.  Autocommit
        statements pass ``enforce_snapshot=False`` and simply re-read
        latest committed state (their one statement *is* the whole
        transaction, so refreshing the read is sound, and it keeps
        single-statement counters free of spurious aborts) — except
        under serializable isolation, where the statement's SSI read
        tracking is bound to its snapshot and refreshing would mix
        read views inside one atomic statement.
        """
        if not self.versioned:
            try:
                return self.read(rid)
            except PageLayoutError:
                return None
        try:
            payload = self.heap.read(rid)
        except PageLayoutError:
            return None
        header = unpack_version(payload)
        if not header.is_head:
            return None
        xid = txn.txn_id if txn is not None else 0
        snapshot = getattr(txn, "snapshot", None)
        if header.xmax != 0:
            if header.xmax == xid:
                return None    # we deleted it ourselves this transaction
            # Holding the X lock means the stamping transaction finished;
            # an abort would have reset the stamp — so this is a
            # committed concurrent delete.
            if enforce_snapshot and snapshot is not None:
                raise SerializationError(
                    f"{self.name}: row {rid} was deleted by a "
                    f"transaction concurrent with txn {xid}'s snapshot")
            return None
        if enforce_snapshot and snapshot is not None \
                and header.xmin not in (0, xid) \
                and not snapshot.sees(header.xmin):
            raise SerializationError(
                f"{self.name}: row {rid} was updated by a transaction "
                f"concurrent with txn {xid}'s snapshot "
                f"(first-updater-wins)")
        return self.schema.decode(payload[HEADER_SIZE:])

    # -- reads -------------------------------------------------------------------------

    def record_predicate(self, column: str, op: str) -> None:
        """Count one sargable predicate sighting (planner hook).

        Lock-free read-modify-write on a plain dict: a lost update
        under racing planners just undercounts one sighting, which the
        advisor's thresholds absorb.
        """
        key = (column, op)
        self.predicate_counts[key] = \
            self.predicate_counts.get(key, 0) + 1

    def scan(self, snapshot: Optional[Snapshot] = None
             ) -> Iterator[tuple[RID, tuple]]:
        self.seq_scans += 1
        if not self.versioned:
            for rid, payload in self.heap.scan():
                yield rid, self.schema.decode(payload)
            return
        view = self._read_view(snapshot)
        ssi = self._ssi(view)
        if ssi is not None:
            # Full scan: the predicate observed is the whole relation.
            ssi[0].record_relation_read(ssi[1], self.name)
        decode = self.schema.decode
        vdecode = self._version_codec.decode
        unpack = VERSION_HEADER.unpack_from
        for rid, payload in self.heap.scan():
            flags, xmin, xmax, _, _ = unpack(payload, 0)
            if not flags & FLAG_HEAD:
                continue
            if (xmin == 0 or view.sees(xmin)) and \
                    (xmax == 0 or not view.sees(xmax)):
                if ssi is not None and xmax != 0:
                    # Visible despite a stamp the view cannot see: an
                    # overlapping writer superseded what we just read.
                    ssi[0].observe_version(ssi[1], xmax)
                yield rid, vdecode(payload)
            else:
                tuple_bytes = self._visible_version(rid, view)
                if tuple_bytes is not None:
                    yield rid, decode(tuple_bytes)

    def rows(self, snapshot: Optional[Snapshot] = None) -> Iterator[tuple]:
        for _, row in self.scan(snapshot):
            yield row

    def _select_visible(self, page_nos: Sequence[int],
                        slots: Sequence[int],
                        payloads: Sequence[bytes],
                        view: Snapshot) -> list[bytes]:
        """Apply the batch's visibility bitmap: decode every version
        header in one tight loop, keep visible heads' *full* payloads
        (the offset codec skips the header in place — zero copies), and
        chain-walk only the (rare) concurrently-modified heads."""
        out: list[bytes] = []
        append = out.append
        sees = view.sees
        ssi = self._ssi(view)
        for i, (flags, xmin, xmax, _, _) in \
                enumerate(bulk_headers(payloads)):
            if not flags & FLAG_HEAD:
                continue
            if (xmin == 0 or sees(xmin)) and (xmax == 0 or not sees(xmax)):
                if ssi is not None and xmax != 0:
                    ssi[0].observe_version(ssi[1], xmax)
                append(payloads[i])
            else:
                tuple_bytes = self._visible_version(
                    RID(page_nos[i], slots[i]), view)
                if tuple_bytes is not None:
                    append(_WALKED_HEADER + tuple_bytes)
        return out

    def scan_batches(self, batch_rows: int = BATCH_SIZE,
                     snapshot: Optional[Snapshot] = None
                     ) -> Iterator[RowBatch]:
        """Columnar full scan: one pin per page, bulk slot sweep, and
        plan-cached decode of each run (the vectorized engine's leaf).
        Versioned tables filter each run by a per-batch visibility pass
        before decoding — no per-row lock traffic on the read path."""
        self.seq_scans += 1
        if not self.versioned:
            codec = self.schema.codec
            for payloads in self.heap.scan_payload_batches(batch_rows):
                yield codec.decode_batch(payloads)
            return
        view = self._read_view(snapshot)
        ssi = self._ssi(view)
        if ssi is not None:
            ssi[0].record_relation_read(ssi[1], self.name)
        codec = self._version_codec
        for page_nos, slots, payloads in \
                self.heap.scan_version_batches(batch_rows):
            visible = self._select_visible(page_nos, slots, payloads,
                                           view)
            if visible:
                yield codec.decode_batch(visible)

    def read_many(self, rids: Iterable[RID],
                  snapshot: Optional[Snapshot] = None) -> Iterator[tuple]:
        """Decode records in RID order, pinning once per same-page run.
        Versioned tables yield only versions the read view sees (index
        entries may point at rows dead to it)."""
        if not self.versioned:
            decode = self.schema.decode
            for payload in self.heap.read_many(rids):
                yield decode(payload)
            return
        decode = self._version_codec.decode
        for _, payload in self._fetch_visible(rids, snapshot):
            yield decode(payload)

    def read_pairs(self, rids: Iterable[RID],
                   snapshot: Optional[Snapshot] = None
                   ) -> Iterator[tuple[RID, tuple]]:
        """``(head_rid, row)`` for the candidate RIDs the view sees —
        the DML victim-selection analogue of :meth:`read_many`: writers
        need the RID back so they can lock and re-read each victim."""
        if not self.versioned:
            for rid in rids:
                try:
                    payload = self.heap.read(rid)
                except PageLayoutError:
                    continue   # stale candidate (entry raced a delete)
                yield rid, self.schema.decode(payload)
            return
        decode = self._version_codec.decode
        for rid, payload in self._fetch_visible(rids, snapshot):
            yield rid, decode(payload)

    def _fetch_visible(self, rids: Iterable[RID],
                       snapshot: Optional[Snapshot]
                       ) -> Iterator[tuple[RID, bytes]]:
        """``(head_rid, payload)`` of the versions the view sees, in RID
        order (walked chain versions re-wrapped behind a neutral header
        so the offset codec decodes everything uniformly)."""
        view = self._read_view(snapshot)
        ssi = self._ssi(view)
        rid_list = rids if isinstance(rids, list) else list(rids)
        if ssi is not None:
            # All candidates registered before any physical read, so a
            # write landing mid-fetch meets the SIREADs at its
            # post-install check.
            for rid in rid_list:
                ssi[0].record_tuple_read(ssi[1], self.name, rid)
        unpack = VERSION_HEADER.unpack_from
        sees = view.sees
        for rid, payload in zip(
                rid_list, self.heap.read_many(rid_list, missing_ok=True)):
            if payload is None:
                continue      # entry raced a vacuum prune
            flags, xmin, xmax, _, _ = unpack(payload, 0)
            if not flags & FLAG_HEAD:
                continue
            if (xmin == 0 or sees(xmin)) and (xmax == 0 or not sees(xmax)):
                if ssi is not None and xmax != 0:
                    ssi[0].observe_version(ssi[1], xmax)
                yield rid, payload
            else:
                tuple_bytes = self._visible_version(rid, view)
                if tuple_bytes is not None:
                    yield rid, _WALKED_HEADER + tuple_bytes

    def read_batches(self, rids: Iterable[RID],
                     batch_rows: int = BATCH_SIZE,
                     snapshot: Optional[Snapshot] = None
                     ) -> Iterator[RowBatch]:
        """Batched index-scan fetch: RID runs are read under one pin per
        page and decoded in bulk, preserving RID order (and filtered by
        the read view on versioned tables).  A list of at most one RID
        (a unique-key probe) is decoded without the payload batching and
        the bulk decoder."""
        if not self.versioned:
            codec = self.schema.codec
            source: Iterable[bytes] = self.heap.read_many(rids)
        else:
            codec = self._version_codec
            source = map(itemgetter(1), self._fetch_visible(rids, snapshot))
        if isinstance(rids, list) and len(rids) < 2:
            rows = [codec.decode(payload) for payload in source]
            if rows:
                yield RowBatch.from_rows(rows, len(codec.types))
            return
        payloads: list[bytes] = []
        for payload in source:
            payloads.append(payload)
            if len(payloads) >= batch_rows:
                yield codec.decode_batch(payloads)
                payloads = []
        if payloads:
            yield codec.decode_batch(payloads)

    def count(self) -> int:
        return self.row_count

    def properties(self) -> dict:
        """Functional figures for the monitoring service."""
        return {
            "rows": self.row_count,
            "pages": self.heap.num_pages(),
            "indexes": sorted(self.indexes),
            "fragmentation": self.heap.fragmentation(),
            "versioned": self.versioned,
            "dead_versions": self.dead_versions,
        }
