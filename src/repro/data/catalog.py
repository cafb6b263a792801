"""The catalog: tables, indexes, views, and optimizer statistics, with
page-backed persistence.

The catalog is itself stored in the database ("__catalog" file) as a JSON
blob chunked across pages — DDL is rare, so a full rewrite per checkpoint
is the simple, robust choice.  On open, tables and B+-tree indexes rebind
to their existing files; hash indexes (in-memory structures) are rebuilt
by scanning their table.

Besides the name → physical-object mapping, the catalog owns the
*statistics* side of the metadata: :meth:`Catalog.analyze` scans a table
into a :class:`~repro.data.sql.stats.TableStats` snapshot (row/page
counts, per-column distinct counts, min/max, equi-depth histograms) that
the cost-based planner reads through :meth:`Catalog.stats_for`.  Stats
ride along in the same persisted JSON blob.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

from repro.access.heap_file import HeapFile
from repro.columnar import ColumnarStore
from repro.data.schema import Schema
from repro.data.sql.stats import TableStats, collect_table_stats
from repro.data.table import IndexDef, Table, TableIndex
from repro.errors import CatalogError
from repro.storage.page import PAGE_TRAILER_SIZE, PageId
from repro.storage.page_manager import PageManager

_LEN = struct.Struct("<I")
_CATALOG_FILE = "__catalog"


def _table_file(name: str) -> str:
    return f"tbl_{name}"


def _index_file(name: str) -> str:
    return f"idx_{name}"


def _columnar_file(name: str) -> str:
    return f"col_{name}"


class Catalog:
    """Names → physical objects, persisted in the storage stack itself."""

    def __init__(self, pages: PageManager,
                 default_versioned: bool = False,
                 columnar: bool = True) -> None:
        self.pages = pages
        #: Whether versioned tables get a columnar sibling store.
        self.columnar = columnar
        self.tables: dict[str, Table] = {}
        self.views: dict[str, str] = {}        # name -> SQL text
        self.index_defs: dict[str, IndexDef] = {}
        self.table_stats: dict[str, TableStats] = {}
        #: Whether new tables get MVCC version headers (the snapshot
        #: isolation default); persisted per table, so a database
        #: reopened under the other isolation mode still decodes its
        #: heaps correctly.
        self.default_versioned = default_versioned
        #: Largest transaction id stamped into any loaded versioned heap
        #: — the floor the transaction-id counter must clear on reopen.
        self.max_seen_xid = 0
        #: Monotonic schema generation: bumped by every DDL statement
        #: (CREATE/DROP TABLE/INDEX/VIEW, recovery rebuilds).  Cached
        #: plans capture the value they were built under and are
        #: discarded on mismatch.
        self.ddl_version = 0
        #: Per-table statistics generation, bumped by ANALYZE and by
        #: vacuum passes that change visibility; invalidates cached
        #: plans whose access-path choice may now be stale.
        self.stats_versions: dict[str, int] = {}
        self._txns = None
        files = pages.pool.files
        if files.has_file(_CATALOG_FILE):
            self._load()
        else:
            files.create_file(_CATALOG_FILE)

    def bind_transactions(self, transactions) -> None:
        """Wire the transaction manager into every (current and future)
        table so versioned reads can build "latest" views."""
        self._txns = transactions
        for table in self.tables.values():
            table.txns = transactions

    def bump_ddl_version(self) -> None:
        self.ddl_version += 1

    def bump_stats_version(self, table_name: str) -> None:
        self.stats_versions[table_name] = \
            self.stats_versions.get(table_name, 0) + 1

    # -- tables --------------------------------------------------------------

    def create_table(self, name: str, schema: Schema,
                     versioned: Optional[bool] = None) -> Table:
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        if name in self.views:
            raise CatalogError(f"{name!r} is a view")
        files = self.pages.pool.files
        file_id = files.ensure_file(_table_file(name))
        table = Table(name, schema, HeapFile(self.pages, file_id),
                      versioned=self.default_versioned
                      if versioned is None else versioned)
        table.txns = self._txns
        self._attach_columnar(table)
        self.tables[name] = table
        pk = schema.primary_key
        if pk is not None:
            self.create_index(f"pk_{name}", name, (pk.name,), unique=True)
        self.bump_ddl_version()
        return table

    def _attach_columnar(self, table: Table,
                         existing_heap: Optional[HeapFile] = None) -> None:
        """Give a versioned table its columnar sibling store.  The
        ``col_<name>`` file is created here, on the DDL path — never
        lazily from the vacuum thread, which would race concurrent DDL
        on the file table.  Durability of the file-table entry is the
        store's job: it checkpoints the metadata chain right before its
        first WAL-logged install, after the catalog's own pages exist
        (checkpointing here, at CREATE TABLE, would persist a zero-page
        catalog file and recovery would reopen an empty database).
        When the file already exists at reopen the caller passes the
        opened heap so :meth:`ColumnarStore.load` can rediscover
        committed blocks."""
        if not self.columnar or not table.versioned:
            return
        heap = existing_heap
        if heap is None:
            files = self.pages.pool.files
            file_id = files.ensure_file(_columnar_file(table.name))
            heap = HeapFile(self.pages, file_id)
        table.columnar = ColumnarStore(table.name, table.schema,
                                       lambda: heap, heap,
                                       metadata_durable=existing_heap
                                       is not None)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def drop_table(self, name: str) -> None:
        table = self.table(name)
        for index_name in list(table.indexes):
            self.drop_index(index_name)
        files = self.pages.pool.files
        self.pages.forget_file(table.heap.file_id)
        self._purge_file_frames(table.heap.file_id)
        files.delete_file(_table_file(name))
        if files.has_file(_columnar_file(name)):
            file_id = files.open_file(_columnar_file(name))
            self.pages.forget_file(file_id)
            self._purge_file_frames(file_id)
            files.delete_file(_columnar_file(name))
        del self.tables[name]
        self.table_stats.pop(name, None)
        self.bump_ddl_version()

    # -- indexes ----------------------------------------------------------------

    def create_index(self, index_name: str, table_name: str,
                     columns: tuple[str, ...], unique: bool = False,
                     method: str = "btree") -> TableIndex:
        if index_name in self.index_defs:
            raise CatalogError(f"index {index_name!r} already exists")
        table = self.table(table_name)
        definition = IndexDef(index_name, table_name, columns, unique,
                              method)
        files = self.pages.pool.files
        file_id = files.ensure_file(_index_file(index_name))
        index = TableIndex(definition, table.schema, self.pages, file_id)
        try:
            table.attach_index(index, populate=True)
        except BaseException:
            # e.g. duplicate keys under a unique index: leave no file.
            self._purge_file_frames(file_id)
            files.delete_file(_index_file(index_name))
            raise
        self.index_defs[index_name] = definition
        self.bump_ddl_version()
        return index

    def rebuild_indexes(self, table_name: Optional[str] = None) -> int:
        """Drop and repopulate indexes from their table's heap.

        Called after crash recovery: index pages are not WAL-logged (the
        documented ARIES-lite simplification), so after redo/undo their
        files may hold entries for undone rows or miss entries for redone
        ones.  Regenerating from the recovered heaps restores consistency.
        ``table_name`` limits the rebuild to one table's indexes (the
        scrubber's post-salvage repair).  Returns the number of indexes
        rebuilt.
        """
        files = self.pages.pool.files
        rebuilt = 0
        for name, definition in list(self.index_defs.items()):
            if table_name is not None and definition.table != table_name:
                continue
            table = self.table(definition.table)
            old = table.detach_index(name)
            self._purge_file_frames(old.file_id)
            files.delete_file(_index_file(name))
            file_id = files.ensure_file(_index_file(name))
            index = TableIndex(definition, table.schema, self.pages,
                               file_id)
            table.attach_index(index, populate=True)
            rebuilt += 1
        self.bump_ddl_version()
        return rebuilt

    def drop_index(self, index_name: str) -> None:
        definition = self.index_defs.pop(index_name, None)
        if definition is None:
            raise CatalogError(f"no index {index_name!r}")
        table = self.table(definition.table)
        index = table.detach_index(index_name)
        files = self.pages.pool.files
        self._purge_file_frames(index.file_id)
        files.delete_file(_index_file(index_name))
        self.bump_ddl_version()

    # -- statistics ------------------------------------------------------------------

    def analyze(self, table_name: Optional[str] = None) -> int:
        """Collect optimizer statistics for one table (or all of them).

        Returns the number of tables analyzed.  The snapshots feed the
        cost-based planner; call :meth:`save` (or let ``Database``'s
        ANALYZE statement do it) to persist them.
        """
        names = [table_name] if table_name is not None \
            else sorted(self.tables)
        for name in names:
            self.table_stats[name] = collect_table_stats(self.table(name))
            self.bump_stats_version(name)
        return len(names)

    def stats_for(self, table_name: str) -> Optional[TableStats]:
        """The last ANALYZE snapshot for ``table_name``, if any."""
        return self.table_stats.get(table_name)

    # -- views ----------------------------------------------------------------------

    def create_view(self, name: str, sql_text: str) -> None:
        if name in self.views or name in self.tables:
            raise CatalogError(f"{name!r} already exists")
        self.views[name] = sql_text
        self.bump_ddl_version()

    def view(self, name: str) -> str:
        try:
            return self.views[name]
        except KeyError:
            raise CatalogError(f"no view {name!r}") from None

    def drop_view(self, name: str) -> None:
        if name not in self.views:
            raise CatalogError(f"no view {name!r}")
        del self.views[name]
        self.bump_ddl_version()

    # -- persistence ---------------------------------------------------------------------

    def save(self) -> None:
        # dict() copies are atomic under the GIL; iterating the live
        # dicts here races concurrent DDL (a checkpoint from another
        # thread would raise "dictionary changed size during iteration").
        tables = dict(self.tables)
        blob = json.dumps({
            "tables": {
                name: {"schema": table.schema.to_dict(),
                       "versioned": table.versioned}
                for name, table in tables.items()},
            "indexes": {name: d.to_dict()
                        for name, d in dict(self.index_defs).items()},
            "views": dict(self.views),
            "stats": {name: s.to_dict()
                      for name, s in dict(self.table_stats).items()
                      if name in tables},
        }).encode()
        files = self.pages.pool.files
        file_id = files.open_file(_CATALOG_FILE)
        payload_per_page = (files.disk.device.block_size
                            - PAGE_TRAILER_SIZE - _LEN.size)
        needed = max(1, (len(blob) + payload_per_page - 1)
                     // payload_per_page)
        existing = files.file_size_pages(file_id)
        for _ in range(existing, needed):
            page = self.pages.allocate(file_id)
            self.pages.unpin(page.page_id, dirty=True)
        for i in range(needed):
            chunk = blob[i * payload_per_page:(i + 1) * payload_per_page]
            page = self.pages.fetch(PageId(file_id, i))
            try:
                page.write(0, _LEN.pack(len(chunk)))
                page.write(4, chunk)
            finally:
                self.pages.unpin(page.page_id, dirty=True)
        if needed < existing:
            page = self.pages.fetch(PageId(file_id, needed))
            try:
                page.write(0, _LEN.pack(0))
            finally:
                self.pages.unpin(page.page_id, dirty=True)

    def _load(self) -> None:
        files = self.pages.pool.files
        file_id = files.open_file(_CATALOG_FILE)
        chunks: list[bytes] = []
        for i in range(files.file_size_pages(file_id)):
            page = self.pages.fetch(PageId(file_id, i))
            try:
                (length,) = _LEN.unpack_from(page.data, 0)
                if length == 0:
                    break
                chunks.append(page.read(4, length))
            finally:
                self.pages.unpin(page.page_id)
        if not chunks:
            return
        state = json.loads(b"".join(chunks).decode())
        for name, tdata in state["tables"].items():
            schema = Schema.from_dict(tdata["schema"])
            heap_file = files.open_file(_table_file(name))
            table = Table(name, schema, HeapFile(self.pages, heap_file),
                          versioned=tdata.get("versioned", False))
            table.txns = self._txns
            # One bootstrap pass: live rows (frozen visibility — crash
            # recovery already ran, so disk state is all-committed),
            # the largest version stamp, which floors the txn counter,
            # and the dead-version gauge autovacuum paces itself by.
            table.row_count, max_xid, table.dead_versions = \
                table.bootstrap_stats()
            self.max_seen_xid = max(self.max_seen_xid, max_xid)
            col_heap = None
            if self.columnar and table.versioned \
                    and files.has_file(_columnar_file(name)):
                col_heap = HeapFile(
                    self.pages, files.open_file(_columnar_file(name)))
            self._attach_columnar(table, col_heap)
            if table.columnar is not None and col_heap is not None:
                table.columnar.load((table.row_count, max_xid))
            self.tables[name] = table
        for name, idata in state["indexes"].items():
            definition = IndexDef.from_dict(idata)
            table = self.tables[definition.table]
            file_id = files.open_file(_index_file(name))
            index = TableIndex(definition, table.schema, self.pages,
                               file_id)
            # Hash indexes live in memory: rebuild from the table.
            table.attach_index(index,
                               populate=definition.method == "hash")
            self.index_defs[name] = definition
        self.views = dict(state["views"])
        self.table_stats = {
            name: TableStats.from_dict(s)
            for name, s in state.get("stats", {}).items()
            if name in self.tables}

    # -- helpers ------------------------------------------------------------------------

    def _purge_file_frames(self, file_id: int) -> None:
        pool = self.pages.pool
        for page in list(pool.iter_resident()):
            if page.page_id.file_id == file_id:
                pool._frames.pop(page.page_id, None)
                pool.policy.evict(page.page_id)

    def stats(self) -> dict:
        return {
            "tables": sorted(self.tables),
            "indexes": sorted(self.index_defs),
            "views": sorted(self.views),
            "analyzed": sorted(self.table_stats),
            "total_rows": sum(t.row_count for t in self.tables.values()),
        }
