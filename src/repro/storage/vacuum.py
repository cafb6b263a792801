"""Version garbage collection for multi-version (snapshot-isolated) heaps.

MVCC never reclaims space at delete/update time: a delete only stamps the
head's ``xmax`` and an update pushes the pre-image down the row's version
chain, so concurrent snapshots keep reading.  :class:`VacuumManager` is
the background collector that makes the storage bounded again, pruning
exactly what no live (or future) read view can see:

- the *horizon* is the oldest transaction id any active snapshot might
  still care about (:meth:`TransactionManager.snapshot_horizon`);
- a **head** whose ``xmax`` committed strictly below the horizon is dead
  to everyone: every index entry any of its versions ever carried
  (retained superseded-key entries included) is unlinked — RID-aware,
  so a live row that recycled one of those keys keeps its own entry —
  and the head plus its whole chain are deleted from the heap;
- on a live head, the chain is walked until the first copy whose
  ``xmax`` is below the horizon — that copy and everything older is
  unreachable by any snapshot, so the last-kept version's ``prev``
  pointer is cut (a header-only ``VERSION_STAMP`` rewrite) and the tail
  deleted; superseded-key index entries whose keys no *kept* version
  carries are unlinked in the same step (the superseding version has
  fallen below the horizon, so no current or future snapshot can probe
  its way to the pruned versions).

A pass costs what the garbage costs.  One sweep of the heap classifies
every record from the 25-byte version header it already holds: only a
head that carries an ``xmax`` stamp or a ``prev`` chain can have anything
to reclaim, and only those are re-read (under the table latch, because
the unlatched sweep's copy may be stale by then) and operated on.  A
live head with no chain is never fetched again.  That is safe against a
writer that stamps or chains it after the sweep went by: the horizon was
captured first and is at most every active and every future transaction
id, so the writer's ``xmax`` — on the head it deletes or on the copy it
pushes down — is at or above the horizon, and a re-read would have found
nothing to prune; the next pass sees it.  Rows are decoded only where
index entries have to be unlinked or versions migrated.

All surgery for one table happens inside a transaction under the table
latch (readers chain-walk under the same latch, so no pointer ever
dangles mid-walk), and every mutation is WAL-logged — a *process crash*
mid-vacuum leaves a recovery loser whose undo restores the chain
intact.  An in-process exception aborts the vacuum transaction without
physical undo; mutation order makes that safe: a head is deleted (and a
prev pointer cut) *before* the chain below it, so an interrupted prune
can only strand unreferenced copies — a bounded space leak cleaned by a
later heap audit, never a dangling pointer.

Triggers: a manual ``VACUUM [table]`` SQL statement, an auto trigger
(absolute ``dead_versions`` per table *or* dead-version fraction of the
table, checked after commits), and an optional background daemon thread
running on a fixed interval.

When a table owns a columnar sibling store, pruned versions are not
discarded: each pass collects every ``(row, xmin, xmax)`` it removes and
installs them as history blocks inside the same vacuum transaction —
that is what ``AS OF`` time travel reads.  The pass may also rebuild the
table's columnar *mirror* (a full dump serving analytical scans), but
only when the table has been cold since the previous visit — rebuilds
are priced as analytics work and must not tax a busy OLTP table.  A
manual ``VACUUM`` is ``aggressive`` and rebuilds unconditionally.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.access.heap_file import RID
from repro.access.version import (
    FLAG_HEAD, HEADER_SIZE, NO_PREV, VERSION_HEADER, restamp, unpack_version)
from repro.errors import CatalogError, KeyNotFoundError, PageLayoutError
from repro.storage.wal import OP_VERSION_STAMP


class VacuumManager:
    """Prunes versions no snapshot needs, per table, transactionally.

    ``tables`` is a zero-argument callable returning the live
    ``{name: Table}`` mapping (a callable so catalog replacement on
    recovery is transparent); ``transactions`` the
    :class:`~repro.data.transactions.TransactionManager` that supplies
    horizons and vacuum transactions.
    """

    def __init__(self, tables: Callable[[], dict],
                 transactions,
                 threshold: int = 256,
                 interval_s: Optional[float] = None,
                 on_stats_change: Optional[Callable[[str], None]] = None,
                 dead_fraction: float = 0.2,
                 min_dead: int = 128,
                 mirror_min_rows: int = 256,
                 ) -> None:
        self.tables = tables
        self.transactions = transactions
        self.threshold = threshold
        #: Fraction-based pacing: besides the absolute threshold, a
        #: table auto-triggers once at least ``min_dead`` versions are
        #: dead *and* they make up ``dead_fraction`` of the table —
        #: small hot tables vacuum early, huge tables are not hammered
        #: by a fixed count they reach constantly.
        self.dead_fraction = dead_fraction
        self.min_dead = min_dead
        #: Tables below this row count never get a columnar mirror from
        #: auto-vacuum (the heap scan is already cheap).
        self.mirror_min_rows = mirror_min_rows
        self.interval_s = interval_s
        #: Called with a table name whenever a vacuum pass reclaimed
        #: anything there — the statement cache hooks this to invalidate
        #: plans whose cost estimates the reclaim may have skewed.
        self.on_stats_change = on_stats_change
        self.runs = 0
        self.auto_runs = 0
        #: Auto-triggered passes that raised (swallowed by :meth:`maybe`)
        #: and the most recent such error as ``"Type: message"``.
        self.auto_errors = 0
        self.last_error: Optional[str] = None
        self.versions_reclaimed = 0
        self.rows_reclaimed = 0
        self.stale_entries_reclaimed = 0
        self.versions_migrated = 0
        self.mirror_rebuilds = 0
        self.last_run: Optional[dict] = None
        #: ``table.mutations`` observed at each table's previous vacuum
        #: visit — an unchanged counter means the table was cold for a
        #: whole vacuum cycle, which is the auto mirror-rebuild gate.
        self._seen_mutations: dict[str, int] = {}
        #: Per-table vacuum report (``pg_stat``-style), surfaced through
        #: ``Database.stats()["vacuum"]["tables"]``.
        self.table_reports: dict[str, dict] = {}
        self._mutex = threading.Lock()   # one vacuum at a time
        #: Guards ``table_reports`` only.  ``_mutex`` is held for a
        #: whole vacuum pass, so ``stats()`` cannot use it to get a
        #: consistent snapshot without stalling behind the collector;
        #: this short-hold lock covers just report mutation/copy.
        self._reports_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- entry points ------------------------------------------------------------

    def run(self, table_name: Optional[str] = None,
            aggressive: bool = False) -> dict:
        """Vacuum one table (or every versioned table).  Returns a
        summary: versions, whole rows, and stale index entries
        reclaimed, versions migrated to columnar history, plus tables
        visited.  ``aggressive`` (the manual ``VACUUM`` statement)
        additionally forces a columnar mirror rebuild regardless of the
        coldness gate.  Under serializable isolation each run also
        sweeps the SSI manager's retained SIREAD trackers — committed
        read metadata is droppable on the same overlapping-transaction
        horizon that bounds version pruning."""
        catalog_tables = self.tables()
        if table_name is not None and table_name not in catalog_tables:
            raise CatalogError(f"no table {table_name!r}")
        names = [table_name] if table_name is not None \
            else sorted(catalog_tables)
        summary = {"tables": 0, "versions": 0, "rows": 0,
                   "stale_entries": 0, "versions_migrated": 0,
                   "mirror_rebuilds": 0}
        with self._mutex:
            for name in names:
                table = catalog_tables[name]
                if not getattr(table, "versioned", False):
                    continue
                versions, rows, stale, migrated, rebuilt = \
                    self._vacuum_table(table, aggressive)
                summary["tables"] += 1
                summary["versions"] += versions
                summary["rows"] += rows
                summary["stale_entries"] += stale
                summary["versions_migrated"] += migrated
                summary["mirror_rebuilds"] += rebuilt
                self._record_run(name, table, versions, rows, stale,
                                 migrated, rebuilt)
                if self.on_stats_change is not None and \
                        (versions or rows or stale or rebuilt):
                    self.on_stats_change(name)
            ssi = getattr(self.transactions, "ssi", None)
            if ssi is not None:
                summary["sireads_released"] = ssi.collect()
            self.runs += 1
            self.versions_reclaimed += summary["versions"]
            self.rows_reclaimed += summary["rows"]
            self.stale_entries_reclaimed += summary["stale_entries"]
            self.versions_migrated += summary["versions_migrated"]
            self.mirror_rebuilds += summary["mirror_rebuilds"]
            self.last_run = summary
        return summary

    def _record_run(self, name: str, table, versions: int, rows: int,
                    stale: int, migrated: int = 0,
                    rebuilt: int = 0) -> None:
        with self._reports_lock:
            self._record_run_locked(name, table, versions, rows, stale,
                                    migrated, rebuilt)

    def _record_run_locked(self, name: str, table, versions: int,
                           rows: int, stale: int, migrated: int,
                           rebuilt: int) -> None:
        report = self.table_reports.setdefault(name, {
            "runs": 0, "versions_reclaimed": 0, "rows_reclaimed": 0,
            "stale_index_entries": 0, "versions_migrated": 0,
            "mirror_rebuilds": 0, "dead_versions": 0,
            "dead_fraction": 0.0, "last_run": None})
        report["runs"] += 1
        report["versions_reclaimed"] += versions
        report["rows_reclaimed"] += rows
        report["stale_index_entries"] += stale
        report["versions_migrated"] += migrated
        report["mirror_rebuilds"] += rebuilt
        report["dead_versions"] = table.dead_versions
        report["dead_fraction"] = self._dead_fraction(table)
        report["last_run"] = {"versions": versions, "rows": rows,
                              "stale_index_entries": stale,
                              "versions_migrated": migrated,
                              "at": time.time()}

    @staticmethod
    def _dead_fraction(table) -> float:
        dead = table.dead_versions
        total = table.row_count + dead
        return dead / total if total else 0.0

    def should_trigger(self, table) -> bool:
        """Auto-vacuum pacing: an absolute dead-version count *or* a
        dead fraction of the table (with a floor so tiny tables are not
        vacuumed for a handful of versions)."""
        dead = table.dead_versions
        if dead >= self.threshold:
            return True
        return dead >= self.min_dead and \
            self._dead_fraction(table) >= self.dead_fraction

    def maybe(self, table_name: str) -> Optional[dict]:
        """Auto trigger: vacuum the table if its dead-version gauges
        crossed the pacing thresholds (:meth:`should_trigger`).

        Best-effort like the interval daemon: concurrent DDL (an index
        or the table itself dropped mid-pass) must not surface a
        storage error into the unrelated statement that tripped the
        threshold — the next trigger retries on fresh catalog state.
        """
        table = self.tables().get(table_name)
        if table is None or not getattr(table, "versioned", False):
            return None
        if not self.should_trigger(table):
            return None
        try:
            summary = self.run(table_name)
        except Exception as exc:  # noqa: BLE001 — opportunistic, races DDL
            self.auto_errors += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            return None
        self.auto_runs += 1
        return summary

    # -- background daemon -------------------------------------------------------

    def start(self) -> None:
        """Start the interval daemon (no-op without an interval)."""
        if self.interval_s is None or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="vacuum-daemon", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def set_interval(self, interval_s: Optional[float]) -> None:
        """Re-pace (or stop/start) the daemon online.

        The loop's ``Event.wait`` wakes on ``stop()``, so the change
        takes effect immediately rather than after one stale interval.
        """
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

    # -- the collector -----------------------------------------------------------

    def _vacuum_table(self, table,
                      aggressive: bool = False
                      ) -> tuple[int, int, int, int, int]:
        store = getattr(table, "columnar", None)
        if store is None:
            return self._vacuum_heap(table, None, False)
        # The store gate spans surgery, commit, and publish: an AS OF
        # reader (which materialises its merged heap ∪ history view
        # under the same gate) can never observe a version present in
        # both stores or in neither.  Lock order: gate → table latch.
        with store.gate:
            rebuild = self._want_mirror(table, store, aggressive)
            self._seen_mutations[table.name] = table.mutations
            return self._vacuum_heap(table, store, rebuild)

    def _want_mirror(self, table, store, aggressive: bool) -> bool:
        """Mirror-rebuild policy: only tables big enough to be worth
        mirroring; automatically only when the mirror is needed (none
        valid) and the table has been cold for a full vacuum cycle — a
        busy OLTP table would invalidate the mirror immediately, so
        rebuilding it would be pure overhead.  A manual ``VACUUM``
        (aggressive) skips the coldness gate, not the size gate."""
        if table.row_count < self.mirror_min_rows:
            return False
        if aggressive:
            return True
        if store.mirror_valid(table):
            return False
        return self._seen_mutations.get(table.name) == table.mutations

    def _vacuum_heap(self, table, store,
                     rebuild: bool) -> tuple[int, int, int, int, int]:
        txn = self.transactions.begin()
        removed_versions = removed_rows = removed_entries = 0
        migrated: Optional[list] = [] if store is not None else None
        try:
            # Candidate heads are classified from the header the sweep
            # already holds, without the table latch (page latches make
            # the reads safe): only a head with an ``xmax`` stamp or a
            # chain has anything to reclaim.  Each candidate's surgery
            # re-reads its head under a short per-row latch hold, so
            # writers and chain-walking readers are never blocked for a
            # whole-table pass.  The horizon is captured once up front —
            # it only moves forward, so it stays conservative, and a
            # head stamped or chained after the sweep passed it carries
            # an xid at or above it: nothing a re-read could prune.
            horizon = self.transactions.snapshot_horizon()
            candidates = []
            for rid, payload in table.heap.scan():
                flags, _, xmax, prev_page, _ = \
                    VERSION_HEADER.unpack_from(payload, 0)
                if flags & FLAG_HEAD and (xmax or prev_page != NO_PREV):
                    candidates.append(rid)
            remaining_dead = 0
            for rid in candidates:
                with table._latch:
                    try:
                        payload = table.heap.read(rid)
                    except PageLayoutError:
                        continue    # head vanished since collection
                    header = unpack_version(payload)
                    if not header.is_head:
                        continue    # slot recycled into a chain copy
                    if header.xmax != 0 and header.xmax < horizon:
                        # Dead to every live and future snapshot.
                        versions, stale = self._drop_row(
                            table, rid, header, payload, txn, migrated)
                        removed_versions += versions
                        removed_entries += stale
                        removed_rows += 1
                        continue
                    if header.xmax != 0:
                        remaining_dead += 1   # dead, but still visible
                    pruned, kept, stale = self._prune_chain(
                        table, rid, header, payload, horizon, txn,
                        migrated)
                    removed_versions += pruned
                    remaining_dead += kept
                    removed_entries += stale
            with table._latch:
                table.dead_versions = remaining_dead
            # Migrate the pruned versions into columnar history and
            # (optionally) re-dump the mirror, all inside the vacuum
            # transaction: WAL makes the prune and the install one
            # crash-atomic unit.
            history_blocks = store.write_history(txn, migrated) \
                if migrated else []
            mirror_result = store.rebuild_mirror(table, txn) \
                if store is not None and rebuild else None
            txn.commit()
        except BaseException:
            txn.abort()
            raise
        if history_blocks:
            store.publish_history(history_blocks)
        if mirror_result is not None:
            store.publish_mirror(*mirror_result)
        return (removed_versions, removed_rows, removed_entries,
                len(migrated) if migrated else 0,
                1 if mirror_result is not None else 0)

    def _drop_row(self, table, rid: RID, header, payload: bytes,
                  txn, migrated: Optional[list] = None
                  ) -> tuple[int, int]:
        """Unlink a dead head from its indexes and delete head + chain.
        Returns (heap records removed, index entries unlinked).
        ``migrated`` (when the table has a columnar store) collects a
        ``(row, xmin, xmax)`` triple per removed version — all stamps
        are committed here, that is the prune precondition.

        Every key any version of the row ever carried is unlinked — the
        retained superseded-key entries as well as the latest one.
        Deletes are RID-aware, so a live row that recycled one of these
        keys (dead-key takeover) keeps its own entry.  Entries go
        first: an interrupted pass then strands unreferenced
        below-horizon copies (a bounded space leak), never a probe-able
        key pointing at freed heap slots.
        """
        members = table.chain_members(header.prev)
        rows = [table.schema.decode(payload[HEADER_SIZE:])] + \
            [table.schema.decode(p[HEADER_SIZE:]) for _, p in members]
        if migrated is not None:
            migrated.append((rows[0], header.xmin, header.xmax))
            for (_, member_payload), row in zip(members, rows[1:]):
                member = unpack_version(member_payload)
                migrated.append((row, member.xmin, member.xmax))
        stale = self._unlink_entries(table, rows, rid)
        table.heap.delete(rid, txn=txn)
        for member_rid, _ in members:
            table.heap.delete(member_rid, txn=txn)
        return len(members) + 1, stale

    @staticmethod
    def _unlink_entries(table, rows, rid: RID,
                        keep_rows=()) -> int:
        """Remove the index entries derived from ``rows`` (pointing at
        head ``rid``), except keys some row in ``keep_rows`` still
        carries.  Returns the number of entries removed."""
        removed = 0
        for index in table.indexes.values():
            kept_keys = {index.key_values(row) for row in keep_rows}
            for row in rows:
                values = index.key_values(row)
                if values in kept_keys:
                    continue
                kept_keys.add(values)   # dedup repeated history keys
                try:
                    index.delete_values(values, rid)
                    removed += 1
                except (KeyNotFoundError, PageLayoutError):
                    pass    # already unlinked (rebuild, earlier pass)
        return removed

    def _prune_chain(self, table, head_rid: RID, header, payload: bytes,
                     horizon: int, txn,
                     migrated: Optional[list] = None
                     ) -> tuple[int, int, int]:
        """Cut a live head's chain at the first copy below the horizon
        and unlink the superseded-key entries only those pruned
        versions carried.  ``migrated`` collects ``(row, xmin, xmax)``
        per pruned version for columnar history.  Returns (versions
        removed, versions kept-but-dead, entries unlinked)."""
        kept_payloads = [payload]    # decoded only if a cut happens
        keeper_rid = head_rid
        prev = header.prev
        while prev is not None:
            try:
                copy_payload = table.heap.read(prev)
            except PageLayoutError:
                break               # defensive: chain already truncated
            copy_header = unpack_version(copy_payload)
            if copy_header.xmax != 0 and copy_header.xmax < horizon:
                # This copy and everything older is unreachable: the
                # version that superseded it is below the horizon, so
                # keys only this tail carried can never be probed again.
                doomed = [(prev, copy_payload)] + \
                    table.chain_members(copy_header.prev)
                decode = table.schema.decode
                doomed_rows = [decode(p[HEADER_SIZE:]) for _, p in doomed]
                if migrated is not None:
                    for (_, doomed_payload), row in zip(doomed,
                                                        doomed_rows):
                        version = unpack_version(doomed_payload)
                        migrated.append((row, version.xmin,
                                         version.xmax))
                stale = self._unlink_entries(
                    table, doomed_rows, head_rid,
                    keep_rows=[decode(p[HEADER_SIZE:])
                               for p in kept_payloads])
                table.heap.update(
                    keeper_rid, restamp(kept_payloads[-1], cut_prev=True),
                    txn=txn, op=OP_VERSION_STAMP)
                for member_rid, _ in doomed:
                    table.heap.delete(member_rid, txn=txn)
                return len(doomed), len(kept_payloads) - 1, stale
            kept_payloads.append(copy_payload)
            keeper_rid = prev
            prev = copy_header.prev
        return 0, len(kept_payloads) - 1, 0

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        # Per-table reports are copied under their owning lock: without
        # it a reader can hit "dict changed size during iteration" (a
        # first-time table report landing mid-copy) or read a report
        # half-updated by ``_record_run``.
        with self._reports_lock:
            tables = {name: {key: (dict(value)
                                   if isinstance(value, dict) else value)
                             for key, value in report.items()}
                      for name, report in self.table_reports.items()}
        last_run = self.last_run     # replaced wholesale, never mutated
        return {
            "runs": self.runs,
            "auto_runs": self.auto_runs,
            "auto_errors": self.auto_errors,
            "last_error": self.last_error,
            "versions_reclaimed": self.versions_reclaimed,
            "rows_reclaimed": self.rows_reclaimed,
            "stale_index_entries": self.stale_entries_reclaimed,
            "versions_migrated": self.versions_migrated,
            "mirror_rebuilds": self.mirror_rebuilds,
            "threshold": self.threshold,
            "dead_fraction": self.dead_fraction,
            "min_dead": self.min_dead,
            "interval_s": self.interval_s,
            "last_run": dict(last_run) if last_run is not None else None,
            "tables": tables,
        }
