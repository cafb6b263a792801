"""The assembled database engine: storage stack + catalog + SQL + txns.

:class:`Database` is what the paper's Discussion calls a "fully-fledged
DBMS" when every layer is deployed — and what gets *decomposed into
services* by :mod:`repro.data.services` / :mod:`repro.storage.services`.
It is usable standalone (plain Python, no kernel) which keeps the
substrate testable in isolation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.access.heap_file import RID
from repro.core.adaptation import KnobAdaptationEngine
from repro.core.advisor import IndexAdvisor
from repro.core.knobs import KnobRegistry, build_registry
from repro.core.observe import WorkloadObserver
from repro.data.catalog import Catalog
from repro.data.schema import Column, Schema
from repro.data.sql import ast
from repro.data.sql.lexer import tokenize
from repro.data.sql.parser import parse
from repro.data.sql.compiler import compile_scalar
from repro.data.sql.plancache import (
    CACHEABLE_KEYWORDS,
    FingerprintCache,
    PlanCache,
    StalePlanError,
    build_template,
)
from repro.data.sql.planner import (
    Planner,
    PlanInfo,
    Scope,
    explain_estimate,
)
from repro.data.transactions import Transaction, TransactionManager
from repro.access.record import ColumnType
from repro.errors import (
    CatalogError,
    SQLPlanError,
    SQLSyntaxError,
    TransactionError,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import BlockDevice, MemoryDevice
from repro.storage.file_manager import DiskManager, FileManager
from repro.storage.integrity import QuarantineRegistry
from repro.storage.page_manager import PageManager
from repro.storage.recovery import RecoveryManager
from repro.storage.scrub import ScrubManager
from repro.storage.vacuum import VacuumManager
from repro.storage.wal import WriteAheadLog


# Row locks taken on fresh RIDs inside Table.insert/update run under the
# table latch; a short bound keeps a blocked acquisition (slot reuse of an
# uncommitted delete) from convoying every writer on the table.  Failing
# the statement after this wait is safe: the stage-aware undo removes the
# half-placed row.  Default for Database(latched_lock_timeout_s=...).
_LATCHED_LOCK_TIMEOUT_S = 0.1


@dataclass
class ResultSet:
    """Rows plus metadata returned by queries."""

    columns: list[str]
    rows: list[tuple]
    plan: Optional[dict] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]


@dataclass
class ExecutionResult:
    """Outcome of a non-query statement."""

    operation: str
    affected: int = 0


class Database:
    """A complete small DBMS over the simulated storage stack."""

    def __init__(self, device: Optional[BlockDevice] = None,
                 wal_device: Optional[BlockDevice] = None,
                 buffer_capacity: int = 256,
                 replacement_policy: str = "lru",
                 lock_timeout_s: float = 2.0,
                 lock_granularity: str = "row",
                 group_commit: bool = True,
                 auto_recover: bool = True,
                 execution_engine: str = "vectorized",
                 isolation: str = "snapshot",
                 latched_lock_timeout_s: float = _LATCHED_LOCK_TIMEOUT_S,
                 vacuum_threshold: int = 256,
                 vacuum_interval_s: Optional[float] = None,
                 vacuum_dead_fraction: float = 0.2,
                 vacuum_min_dead: int = 128,
                 scrub_interval_s: Optional[float] = None,
                 plan_cache_size: int = 128,
                 columnar: bool = True,
                 mirror_min_rows: int = 256,
                 adaptive: bool = False,
                 adapt_every: int = 64) -> None:
        if lock_granularity not in ("row", "table"):
            raise TransactionError(
                f"lock_granularity must be 'row' or 'table', "
                f"not {lock_granularity!r}")
        if execution_engine not in ("vectorized", "row"):
            raise SQLPlanError(
                f"execution_engine must be 'vectorized' or 'row', "
                f"not {execution_engine!r}")
        if isolation not in ("snapshot", "serializable", "2pl"):
            raise TransactionError(
                f"isolation must be 'snapshot', 'serializable', or "
                f"'2pl', not {isolation!r}")
        self.execution_engine = execution_engine
        # Per-query-class engine overrides ("point" | "analytic" |
        # "dml" -> engine); absent classes fall back to
        # ``execution_engine``.  Written only through the knob registry.
        self.engine_overrides: dict[str, str] = {}
        self.isolation = isolation
        self.columnar = columnar
        self.latched_lock_timeout_s = latched_lock_timeout_s
        self.device = device or MemoryDevice()
        self.files = FileManager(DiskManager(self.device))
        self.wal = WriteAheadLog(wal_device) if wal_device is not None \
            else None
        self.lock_granularity = lock_granularity
        # Crash recovery runs before the buffer pool and catalog exist:
        # a non-empty WAL over a non-empty data device means the previous
        # incarnation did not close cleanly (a clean close truncates the
        # log), so redo/undo rebuild the heap pages first and the catalog
        # then loads the recovered state.
        self.last_recovery: Optional[dict] = None
        self.integrity = QuarantineRegistry()
        if auto_recover and self.wal is not None \
                and self.wal.size_bytes() > 0 \
                and self.device.num_blocks() > 0:
            self.last_recovery = RecoveryManager(self.wal,
                                                 self.files).recover()
            self._absorb_recovery_integrity(self.last_recovery)
        self.pool = BufferPool(self.files, capacity=buffer_capacity,
                               policy=replacement_policy, wal=self.wal,
                               integrity=self.integrity)
        self.pages = PageManager(self.pool)
        self.catalog = Catalog(
            self.pages,
            default_versioned=isolation in ("snapshot", "serializable"),
            columnar=columnar)
        self.transactions = TransactionManager(self.wal, lock_timeout_s,
                                               group_commit=group_commit,
                                               isolation=isolation)
        # Persisted version stamps must stay below every future txn id.
        self.transactions.advance_ids(self.catalog.max_seen_xid + 1)
        self.catalog.bind_transactions(self.transactions)
        self.vacuum_manager = VacuumManager(
            lambda: self.catalog.tables, self.transactions,
            threshold=vacuum_threshold, interval_s=vacuum_interval_s,
            on_stats_change=lambda name:
                self.catalog.bump_stats_version(name),
            dead_fraction=vacuum_dead_fraction,
            min_dead=vacuum_min_dead,
            mirror_min_rows=mirror_min_rows)
        self.vacuum_manager.start()
        self.scrub_manager = ScrubManager(
            lambda: self.catalog.tables, self.transactions, self.pool,
            self.integrity,
            lambda name: self.catalog.rebuild_indexes(name),
            interval_s=scrub_interval_s)
        self.scrub_manager.start()
        # ENOSPC backpressure: a commit refused because the WAL device
        # is full triggers the staged relief below.  Failures are
        # swallowed by the hook caller: relief that cannot complete
        # leaves the engine degraded but unwedged (commits keep erroring
        # cleanly, reads keep working).
        self.transactions.on_wal_full = self._relieve_wal_pressure
        # Statement cache: normalized-text fingerprints plus reusable
        # plan templates.  ``plan_cache_size=0`` disables the cached
        # path entirely (every statement parses and plans from scratch).
        self._plan_cache = PlanCache(plan_cache_size)
        self._fingerprints = FingerprintCache()
        self._prepared: dict[str, PreparedStatement] = {}
        self._prepared_lock = threading.Lock()
        # One session per thread: BEGIN/COMMIT state is thread-local, so
        # N threads sharing one Database behave as N sessions (readers
        # in other threads never land inside this thread's transaction).
        self._sessions = threading.local()
        self.statements_executed = 0
        # Self-tuning kernel (observe → decide → act).  Every runtime-
        # switchable setting is a typed knob in ``self.knobs`` whether
        # or not adaptation is on — operators re-configure a running
        # engine through ``db.knobs.set(...)``.  ``adaptive=True``
        # closes the loop: a workload observer samples the cumulative
        # counters every ``adapt_every`` classified statements and the
        # knob engine + index advisor act on the observed windows.
        self.class_metrics: dict[str, dict[str, list]] = {}
        self.knobs: KnobRegistry = build_registry(self)
        self.adaptive = adaptive
        self.adapt_every = adapt_every
        self._adapt_countdown = adapt_every
        self._adapt_lock = threading.Lock()
        self.observer: Optional[WorkloadObserver] = None
        self.advisor: Optional[IndexAdvisor] = None
        self.autotuner: Optional[KnobAdaptationEngine] = None
        if adaptive:
            self.observer = WorkloadObserver(self.counters)
            self.advisor = IndexAdvisor(self)
            self.autotuner = KnobAdaptationEngine(
                self, self.observer, self.knobs, advisor=self.advisor)
            self.observer.sample()   # baseline: first window is empty
        if self.last_recovery is not None:
            # Recovery ran, so the previous incarnation died unclean:
            # index pages are not WAL-logged and may be torn (partially
            # flushed) even when redo/undo had nothing to do — always
            # regenerate them from the recovered heaps.
            self.catalog.rebuild_indexes()
            self.checkpoint()

    # -- public API --------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Run one statement, through the statement cache when possible.

        SELECTs return a :class:`ResultSet`; everything else an
        :class:`ExecutionResult`.  SELECT/INSERT/UPDATE/DELETE text is
        soft-parsed (literals become synthetic parameters) and executed
        through a cached plan template keyed on the normalized text —
        repeated statement shapes skip tokenize/parse/plan/codegen.
        """
        params = tuple(params)
        fp = self._fingerprints.get(sql) \
            if self._plan_cache.capacity > 0 else None
        if fp is not None and fp.cacheable \
                and fp.keyword in CACHEABLE_KEYWORDS:
            try:
                return self._execute_fingerprinted(fp, params)
            except SQLSyntaxError:
                # The normalized text failed to parse (a literal the
                # grammar treats syntactically); pin this statement to
                # the raw path and fall through.
                self._fingerprints.demote(sql)
        statement = parse(sql)
        self.statements_executed += 1
        if isinstance(statement, ast.Prepare) and statement.sql is None:
            # Textual PREPARE: carry the body's original text so the
            # registered statement routes through the plan cache.
            statement = ast.Prepare(statement.name, statement.statement,
                                    sql=_prepare_body(sql))
        if isinstance(statement, ast.Explain):
            state = self._probe_cache(fp, params) \
                if fp is not None and fp.keyword == "EXPLAIN" else None
            return self._explain(statement.query, params,
                                 cached_state=state)
        return self.execute_statement(statement, params)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        return self.execute(sql, params).rows

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse (and, when the shape allows, plan) ``sql`` once; the
        returned handle's ``execute(params)`` skips the per-call parse
        and reuses the cached plan template."""
        return PreparedStatement(self, sql)

    def executemany(self, sql: str,
                    param_rows: Sequence[Sequence[Any]]) -> list:
        """Run ``sql`` once per parameter row through a single prepared
        statement (one parse/plan, N bindings); returns the per-row
        results in order."""
        return self.prepare(sql).executemany(param_rows)

    # -- the fingerprinted hot path ----------------------------------------------

    def _execute_fingerprinted(self, fp, params: tuple) -> Any:
        entry = self._plan_cache.lookup(fp.text, self)
        if entry is None:
            statement = parse(fp.text)
            template = build_template(statement, self)
            entry = self._plan_cache.store(fp.text, statement, template,
                                           self)
            state = "miss" if template is not None else "bypass"
        else:
            state = "hit" if entry.template is not None else "bypass"
        self.statements_executed += 1
        merged = fp.bind(params)
        if entry.template is not None:
            query_class = getattr(entry.template, "query_class",
                                  "analytic")
            engine = self.engine_for(query_class)
            started = time.perf_counter()
            try:
                result = entry.template.execute(self, merged, state)
            except StalePlanError:
                # Catalog drift the version counters missed; drop the
                # entry and run this execution through the planner.
                self._plan_cache.invalidate(fp.text)
            else:
                self._record_class(query_class, engine,
                                   time.perf_counter() - started)
                self._maybe_adapt()
                return result
        result = self.execute_statement(entry.statement, merged)
        if isinstance(result, ResultSet) and isinstance(result.plan,
                                                        dict):
            result.plan.setdefault("cached", "bypass")
        return result

    def _probe_cache(self, fp, params: tuple) -> Optional[str]:
        """EXPLAIN support: the cached state ('hit'|'miss'|'bypass') of
        the inner statement, warming the cache as a side effect."""
        prefix = "EXPLAIN "
        if not fp.text.startswith(prefix):
            return None
        inner = fp.text[len(prefix):]
        if inner.split(" ", 1)[0] not in CACHEABLE_KEYWORDS:
            return None
        entry = self._plan_cache.lookup(inner, self)
        if entry is not None:
            return "hit" if entry.template is not None else "bypass"
        try:
            statement = parse(inner)
        except SQLSyntaxError:
            return None
        template = build_template(statement, self)
        self._plan_cache.store(inner, statement, template, self)
        return "miss" if template is not None else "bypass"

    # -- template execution hooks (constructors live in this module) -------------

    def _result_set(self, columns: list[str], rows: list[tuple],
                    info: PlanInfo) -> ResultSet:
        return ResultSet(columns, rows, plan=info.as_dict())

    @staticmethod
    def _execution_result(operation: str, affected: int) -> ExecutionResult:
        return ExecutionResult(operation, affected)

    # -- named prepared statements (PREPARE/EXECUTE/DEALLOCATE) -------------------

    def _prepare_named(self, statement: ast.Prepare) -> ExecutionResult:
        if statement.sql is not None:
            prepared = self.prepare(statement.sql)
        else:
            # AST-only registration (programmatic execute_statement):
            # replans per EXECUTE, still skipping the parse.
            prepared = PreparedStatement(self, None,
                                         statement=statement.statement)
        with self._prepared_lock:
            if statement.name in self._prepared:
                raise SQLPlanError(
                    f"prepared statement {statement.name!r} already "
                    f"exists")
            self._prepared[statement.name] = prepared
        return ExecutionResult("prepare")

    def _execute_prepared(self, statement: ast.ExecutePrepared,
                          params: tuple) -> Any:
        with self._prepared_lock:
            prepared = self._prepared.get(statement.name)
        if prepared is None:
            raise SQLPlanError(
                f"no prepared statement named {statement.name!r}")
        scope = Scope([])
        arguments = tuple(compile_scalar(expr, scope, params)(())
                          for expr in statement.arguments)
        return prepared._run(arguments)

    def execute_statement(self, statement: ast.Statement,
                          params: tuple = ()) -> Any:
        query_class = self.classify(statement)
        if query_class is None:
            # DDL / txn control / maintenance: dispatch unobserved.
            return self._dispatch_statement(statement, params)
        engine = self.engine_for(query_class)
        started = time.perf_counter()
        result = self._dispatch_statement(statement, params)
        self._record_class(query_class, engine,
                           time.perf_counter() - started)
        self._maybe_adapt()
        return result

    def _dispatch_statement(self, statement: ast.Statement,
                            params: tuple = ()) -> Any:
        if isinstance(statement, ast.SelectStatement):
            return self._select(statement, params)
        if isinstance(statement, ast.UnionSelect):
            return self._union(statement, params)
        if isinstance(statement, ast.Explain):
            return self._explain(statement.query, params)
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement)
        if isinstance(statement, ast.Vacuum):
            if statement.table is not None:
                self.catalog.table(statement.table)  # raise on unknown
            summary = self.vacuum(statement.table, aggressive=True)
            return ExecutionResult("vacuum", summary["versions"])
        if isinstance(statement, ast.Scrub):
            summary = self.scrub(statement.table)
            return ExecutionResult("scrub", summary["pages_salvaged"]
                                   + summary["pages_repaired"])
        if isinstance(statement, ast.Insert):
            return self._insert(statement, params)
        if isinstance(statement, ast.Update):
            return self._update(statement, params)
        if isinstance(statement, ast.Delete):
            return self._delete(statement, params)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateIndex):
            self.catalog.create_index(statement.name, statement.table,
                                      statement.columns, statement.unique,
                                      statement.method)
            self.catalog.save()
            return ExecutionResult("create_index")
        if isinstance(statement, ast.CreateView):
            # Views store their SQL text; re-plan at use time.
            self.catalog.create_view(statement.name,
                                     _render_select(statement.query))
            self.catalog.save()
            return ExecutionResult("create_view")
        if isinstance(statement, ast.DropStatement):
            return self._drop(statement)
        if isinstance(statement, ast.Prepare):
            return self._prepare_named(statement)
        if isinstance(statement, ast.ExecutePrepared):
            return self._execute_prepared(statement, params)
        if isinstance(statement, ast.Deallocate):
            with self._prepared_lock:
                if statement.name not in self._prepared:
                    raise SQLPlanError(
                        f"no prepared statement named {statement.name!r}")
                del self._prepared[statement.name]
            return ExecutionResult("deallocate")
        if isinstance(statement, ast.BeginTransaction):
            self._begin_session_txn()
            return ExecutionResult("begin")
        if isinstance(statement, ast.CommitTransaction):
            self._end_session_txn(commit=True)
            return ExecutionResult("commit")
        if isinstance(statement, ast.RollbackTransaction):
            self._end_session_txn(commit=False)
            return ExecutionResult("rollback")
        raise SQLPlanError(f"unsupported statement {type(statement).__name__}")

    # -- transactions -------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open the session transaction (the programmatic face of SQL
        ``BEGIN``); part of the unified begin/commit/abort/recover
        contract shared with the service layer."""
        self._begin_session_txn()
        return self._session_txn

    def commit(self) -> None:
        """Commit the open session transaction."""
        self._end_session_txn(commit=True)

    def abort(self) -> None:
        """Roll back the open session transaction."""
        self._end_session_txn(commit=False)

    def recover(self) -> dict:
        """Re-run ARIES-lite recovery over the current devices.

        Discards all cached (possibly uncommitted) pages, replays the
        log, rebuilds indexes, and reloads the catalog — the programmatic
        equivalent of crashing and reopening.  Returns the recovery
        summary."""
        if self.wal is None:
            raise TransactionError("no WAL attached; nothing to recover")
        if self.transactions.active:
            # Sessions are per-thread: checking only this thread's slot
            # would let one session yank pages out from under another's
            # open transaction.
            raise TransactionError(
                "cannot recover with active transactions")
        self.pool.drop_all(flush=False)
        summary = RecoveryManager(self.wal, self.files).recover()
        self._absorb_recovery_integrity(summary)
        self.catalog = Catalog(
            self.pages,
            default_versioned=self.isolation in ("snapshot",
                                                 "serializable"),
            columnar=self.columnar)
        self.transactions.advance_ids(self.catalog.max_seen_xid + 1)
        self.catalog.bind_transactions(self.transactions)
        self.catalog.rebuild_indexes()
        # The catalog object was replaced wholesale: cached templates
        # hold version counters from the old one and must not validate
        # against the new one's fresh (zeroed) counters.
        self._plan_cache.clear()
        self.last_recovery = summary
        self.checkpoint()
        return summary

    def _absorb_recovery_integrity(self, summary: dict) -> None:
        """Carry a recovery run's page verdicts into the quarantine
        registry: rebuilt pages are healthy again, unrecoverable ones
        stay quarantined until a scrub salvages them."""
        for file_id, page_no in summary.get("rebuilt_pages", ()):
            self.integrity.clear(file_id, page_no)
        for file_id, page_no in summary.get("quarantined_pages", ()):
            self.integrity.quarantine(file_id, page_no)

    # -- vacuum / scrub -----------------------------------------------------------------

    def vacuum(self, table: Optional[str] = None,
               aggressive: bool = False) -> dict:
        """Prune row versions no live snapshot can see (the SQL
        ``VACUUM`` statement's engine).  ``aggressive`` (what the SQL
        statement passes) also forces a columnar mirror rebuild."""
        return self.vacuum_manager.run(table, aggressive=aggressive)

    def scrub(self, table: Optional[str] = None) -> dict:
        """Verify page checksums and repair/salvage corruption (the SQL
        ``SCRUB`` statement's engine)."""
        return self.scrub_manager.run(table)

    def _maybe_autovacuum(self, table_name: str) -> None:
        """Threshold-triggered vacuum after a mutating statement commits
        outside any session transaction."""
        if self._session_txn is None:
            self.vacuum_manager.maybe(table_name)

    @property
    def _session_txn(self) -> Optional[Transaction]:
        return getattr(self._sessions, "txn", None)

    @_session_txn.setter
    def _session_txn(self, txn: Optional[Transaction]) -> None:
        self._sessions.txn = txn

    def _begin_session_txn(self) -> None:
        if self._session_txn is not None:
            raise TransactionError("transaction already open")
        self._session_txn = self.transactions.begin()

    def _end_session_txn(self, commit: bool) -> None:
        if self._session_txn is None:
            raise TransactionError("no open transaction")
        txn = self._session_txn
        self._session_txn = None
        if commit:
            txn.commit()
            # Explicit transactions bypass the per-statement threshold
            # check; sweep the gauges at commit so their dead versions
            # get reclaimed too (touched tables are not tracked — the
            # per-table counter compare is cheap).
            for name, table in list(self.catalog.tables.items()):
                if table.versioned and \
                        self.vacuum_manager.should_trigger(table):
                    self.vacuum_manager.maybe(name)
        else:
            txn.abort()

    def _txn(self) -> tuple[Transaction, bool]:
        """The session transaction, or a fresh autocommit one."""
        if self._session_txn is not None:
            return self._session_txn, False
        return self.transactions.begin(), True

    @property
    def in_transaction(self) -> bool:
        return self._session_txn is not None

    # -- the self-tuning kernel (observe → decide → act) --------------------------

    @staticmethod
    def classify(statement: ast.Statement) -> Optional[str]:
        """Query class for per-class engine routing and metrics.

        ``"dml"`` for writes, ``"point"`` for single-table SELECTs with
        an equality conjunct on a column (index-probe shape),
        ``"analytic"`` for every other SELECT shape, None for
        statements outside the observed workload (DDL, txn control,
        maintenance).
        """
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            return "dml"
        if isinstance(statement, ast.UnionSelect):
            return "analytic"
        if isinstance(statement, ast.SelectStatement):
            if statement.group_by or statement.joins:
                return "analytic"
            return "point" if _eq_conjunct(statement.where) \
                else "analytic"
        return None

    def engine_for(self, query_class: str) -> str:
        """Effective execution engine for one query class (the
        ``engine.<class>`` override knob, else ``execution_engine``)."""
        return self.engine_overrides.get(query_class,
                                         self.execution_engine)

    def _record_class(self, query_class: str, engine: str,
                      seconds: float) -> None:
        """Accumulate per-class, per-engine timings.  Plain int/float
        bumps with no lock: the hot path stays lock-free and the
        observer tolerates torn reads (advisory measurements)."""
        by_engine = self.class_metrics.setdefault(query_class, {})
        slot = by_engine.get(engine)
        if slot is None:
            by_engine[engine] = [1, seconds]
        else:
            slot[0] += 1
            slot[1] += seconds

    def _maybe_adapt(self) -> None:
        """Run one adaptation step every ``adapt_every`` classified
        statements.  Skipped inside an explicit transaction (the
        advisor's DDL must not land in a user transaction), and
        non-blocking: concurrent sessions never queue behind the tuner,
        and the advisor's own SQL cannot recurse into a second step."""
        if self.autotuner is None or self._session_txn is not None:
            return
        self._adapt_countdown -= 1
        if self._adapt_countdown > 0:
            return
        if not self._adapt_lock.acquire(blocking=False):
            return
        try:
            self._adapt_countdown = self.adapt_every
            self.autotuner.step()
        finally:
            self._adapt_lock.release()

    def counters(self) -> dict:
        """Cumulative counter snapshot the workload observer diffs into
        delta windows (:class:`repro.core.observe.WorkloadObserver`).

        Reads only plain counters already bumped by executing threads;
        takes no locks, so a sample is cheap enough to run inline every
        few hundred statements.
        """
        tables: dict[str, dict] = {}
        for name, table in list(self.catalog.tables.items()):
            tables[name] = {
                "seq_scans": table.seq_scans,
                "index_probes": table.index_probes,
                "mutations": table.mutations,
                "row_count": table.row_count,
                "dead_versions": table.dead_versions,
                "predicates": dict(table.predicate_counts),
                "indexes": {index_name: index.probes
                            for index_name, index
                            in list(table.indexes.items())},
            }
        classes = {
            query_class: {engine: (slot[0], slot[1])
                          for engine, slot in list(by_engine.items())}
            for query_class, by_engine in list(self.class_metrics.items())}
        return {
            "at": time.time(),
            "statements": self.statements_executed,
            "tables": tables,
            "classes": classes,
            "buffer": {"hits": self.pool.stats.hits,
                       "misses": self.pool.stats.misses},
            "plan_cache": {"hits": self._plan_cache.hits,
                           "misses": self._plan_cache.misses,
                           "evictions": self._plan_cache.evictions,
                           "size": len(self._plan_cache._entries),
                           "capacity": self._plan_cache.capacity},
            "lock_waits": self.transactions.locks.waits,
            "vacuum": {"runs": self.vacuum_manager.runs,
                       "versions_reclaimed":
                           self.vacuum_manager.versions_reclaimed},
        }

    # -- SELECT ----------------------------------------------------------------------------

    def _select(self, statement: ast.SelectStatement,
                params: tuple) -> ResultSet:
        txn, autocommit = self._txn()
        engine = self.engine_for(self.classify(statement)
                                 or "analytic")
        try:
            planner = Planner(self.catalog,
                              view_parser=self._parse_view, txn=txn,
                              engine=engine,
                              isolation=self.isolation)
            plan, info = planner.plan(statement, params)
            # Vectorized execution streams RowBatches end-to-end; the
            # row engine (config switch) walks the Volcano iterators.
            rows = plan.to_list_batched() \
                if engine == "vectorized" else list(plan)
            if autocommit:
                txn.commit()
            return ResultSet(list(plan.columns), rows,
                             plan=info.as_dict())
        except BaseException:
            if autocommit:
                txn.abort()
            raise

    def _union(self, statement: ast.UnionSelect,
               params: tuple) -> ResultSet:
        """Evaluate a UNION chain: branch results concatenated, with
        set semantics (dedup) unless UNION ALL."""
        branches: list[ast.SelectStatement] = []
        all_flags: list[bool] = []

        def flatten(node) -> None:
            if isinstance(node, ast.UnionSelect):
                flatten(node.left)
                all_flags.append(node.all)
                branches.append(node.right)
            else:
                branches.append(node)

        flatten(statement)
        results = [self._select(branch, params) for branch in branches]
        arity = len(results[0].columns)
        for result in results[1:]:
            if len(result.columns) != arity:
                raise SQLPlanError(
                    f"UNION branches have different arity "
                    f"({arity} vs {len(result.columns)})")
        rows: list[tuple] = []
        for result in results:
            rows.extend(result.rows)
        # Mixed chains: any non-ALL union anywhere applies set semantics
        # to the whole chain (matching the common left-fold reading).
        if not all(all_flags):
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        return ResultSet(results[0].columns, rows,
                         plan={"union_branches": len(branches),
                               "all": all(all_flags)})

    def _explain(self, query, params: tuple,
                 cached_state: Optional[str] = None) -> ResultSet:
        """Plan the query without executing it; one row per plan fact.

        ``cached_state`` reports the statement cache's disposition for
        the equivalent normalized statement ('hit'|'miss'|'bypass') —
        the plan facts themselves always come from a fresh planner run
        over the literal query, so EXPLAIN stays value-accurate even
        when execution would reuse a generic template."""
        if isinstance(query, ast.UnionSelect):
            rows = [("union", "set" if not query.all else "all")]
            plan_dict: dict = {"union": True}
            if cached_state is not None:
                rows.append(("cached", cached_state))
                plan_dict["cached"] = cached_state
            return ResultSet(["kind", "detail"], rows, plan=plan_dict)
        planner = Planner(self.catalog, view_parser=self._parse_view,
                          engine=self.engine_for(self.classify(query)
                                                 or "analytic"),
                          isolation=self.isolation)
        if isinstance(query, (ast.Update, ast.Delete)):
            # DML EXPLAIN: show the costed victim-selection path (the
            # statement is planned, never executed — uncorrelated
            # subqueries in WHERE still run, as reads).
            where = planner.resolve_subqueries(query.where, params)
            plan = planner.plan_dml(query.table, where, params)
            rows = [("statement",
                     "update" if isinstance(query, ast.Update)
                     else "delete"),
                    ("isolation", self.isolation),
                    ("access_path", plan.access_path),
                    ("store", f"{query.table}=heap")]
            if plan.cost_based:
                rows.append(("estimate", explain_estimate(plan.estimate)))
            plan_dict = plan.as_dict()
            if cached_state is not None:
                rows.append(("cached", cached_state))
                plan_dict["cached"] = cached_state
            self._explain_adaptive(rows)
            return ResultSet(["kind", "detail"], rows, plan=plan_dict)
        _, info = planner.plan(query, params)
        info.cached = cached_state
        rows: list[tuple] = [("exec", info.exec_engine),
                             ("isolation", info.isolation)]
        if info.top_k:
            rows.append(("top_k", "True"))
        if info.fused:
            rows.append(("fused", "True"))
        rows.extend(("access_path", p) for p in info.access_paths)
        rows.extend(("store", s) for s in info.stores)
        if info.cost_based:
            rows.extend(("estimate", explain_estimate(e))
                        for e in info.estimates)
        rows.extend(("join", j) for j in info.joins)
        if info.cost_based and info.join_order:
            rows.append(("join_order", " -> ".join(info.join_order)))
            rows.append(("total",
                         f"rows={info.estimated_rows} "
                         f"cost={info.estimated_cost}"))
        if cached_state is not None:
            rows.append(("cached", cached_state))
        rows.append(("aggregated", str(info.aggregated)))
        self._explain_adaptive(rows)
        return ResultSet(["kind", "detail"], rows, plan=info.as_dict())

    def _explain_adaptive(self, rows: list) -> None:
        """EXPLAIN surface for the self-tuning kernel: one row per knob
        currently holding an adaptively-chosen value."""
        for name, value in sorted(
                self.knobs.adaptive_values().items()):
            rows.append(("adaptive", f"{name}={value}"))

    def _analyze(self, statement: ast.Analyze) -> ExecutionResult:
        """Collect optimizer statistics under shared locks.

        Like the other DDL-ish statements, the persisted snapshot is
        written immediately and is not undone by ROLLBACK; statistics
        are advisory estimates, not user data, and drift is tolerated
        by design.  The shared locks keep ANALYZE from reading another
        transaction's uncommitted rows.
        """
        names = ([statement.table] if statement.table is not None
                 else sorted(self.catalog.tables))
        for name in names:
            self.catalog.table(name)   # raise early on unknown tables
        txn, autocommit = self._txn()
        try:
            for name in names:
                txn.lock_shared(name)
                self.catalog.analyze(name)
            if autocommit:
                txn.commit()
        except BaseException:
            if autocommit:
                txn.abort()
            raise
        self.catalog.save()
        return ExecutionResult("analyze", len(names))

    @staticmethod
    def _parse_view(sql_text: str) -> ast.SelectStatement:
        statement = parse(sql_text)
        if not isinstance(statement, ast.SelectStatement):
            raise SQLPlanError("view definition is not a SELECT")
        return statement

    # -- DML ---------------------------------------------------------------------------------

    def _lock_for_write(self, txn: Transaction, table_name: str) -> None:
        """Statement-level write lock: an intention-exclusive table lock
        at row granularity (row X locks follow per touched row), or the
        classic whole-table exclusive lock."""
        if self.lock_granularity == "row":
            txn.lock_table_intent(table_name, exclusive=True)
        else:
            txn.lock_exclusive(table_name)

    def _apply_insert(self, table, table_name: str, full: tuple,
                      txn: Transaction) -> None:
        """Insert one fully-materialized row under the statement's
        locking protocol (shared by the parse-time executor and the
        cached :class:`~repro.data.sql.plancache.InsertTemplate`)."""
        lock_row = (
            (lambda r: txn.lock_row_exclusive(
                table_name, r,
                timeout_s=self.latched_lock_timeout_s))
            if self.lock_granularity == "row" else None)
        table.insert(full, txn=txn, lock_row=lock_row)

    def _insert(self, statement: ast.Insert, params: tuple) -> ExecutionResult:
        table = self.catalog.table(statement.table)
        schema = table.schema
        columns = statement.columns or tuple(schema.names)
        positions = [schema.index_of(c) for c in columns]
        txn, autocommit = self._txn()
        try:
            self._lock_for_write(txn, statement.table)
            inserted = 0
            empty_scope = Scope([])
            for value_row in statement.rows:
                if len(value_row) != len(columns):
                    raise SQLPlanError(
                        f"INSERT arity mismatch: {len(value_row)} values "
                        f"for {len(columns)} columns")
                full = [None] * len(schema)
                for position, expr in zip(positions, value_row):
                    full[position] = compile_scalar(
                        expr, empty_scope, params)(())
                self._apply_insert(table, statement.table, tuple(full),
                                   txn)
                inserted += 1
            if autocommit:
                txn.commit()
            return ExecutionResult("insert", inserted)
        except BaseException:
            if autocommit:
                txn.abort()
            raise

    def _update(self, statement: ast.Update, params: tuple) -> ExecutionResult:
        table = self.catalog.table(statement.table)
        schema = table.schema
        scope = Scope(list(schema.names))
        txn, autocommit = self._txn()
        try:
            # Subqueries resolve under this transaction so they read
            # its snapshot — and its own uncommitted writes.
            resolver = Planner(self.catalog,
                               view_parser=self._parse_view, txn=txn,
                               engine=self.engine_for("dml"),
                               isolation=self.isolation)
            assignments = [
                (schema.index_of(column),
                 compile_scalar(
                     resolver.resolve_subqueries(expr, params), scope,
                     params))
                for column, expr in statement.assignments]
            where = resolver.resolve_subqueries(statement.where, params)
            predicate = (compile_scalar(where, scope, params)
                         if where is not None else None)
            self._lock_for_write(txn, statement.table)
            # Victim selection goes through the planner: a costed (or
            # rule-based) index probe yields candidate RIDs from the
            # statement's read view — the txn snapshot under
            # snapshot-based isolation, latest-plus-own-writes under
            # 2PL — instead of a full heap scan.  The full WHERE is
            # re-applied to each candidate's visible row, so stale
            # index candidates drop out exactly like scan victims.
            plan = resolver.plan_dml(statement.table, where, params)
            touched = self._apply_update(table, statement.table,
                                         assignments, predicate, plan,
                                         txn, autocommit)
            if autocommit:
                txn.commit()
                self._maybe_autovacuum(statement.table)
            return ExecutionResult("update", touched)
        except BaseException:
            if autocommit:
                txn.abort()
            raise

    def _delete(self, statement: ast.Delete, params: tuple) -> ExecutionResult:
        table = self.catalog.table(statement.table)
        scope = Scope(list(table.schema.names))
        txn, autocommit = self._txn()
        try:
            resolver = Planner(self.catalog, view_parser=self._parse_view,
                               txn=txn, engine=self.engine_for("dml"),
                               isolation=self.isolation)
            where = resolver.resolve_subqueries(statement.where, params)
            predicate = (compile_scalar(where, scope, params)
                         if where is not None else None)
            self._lock_for_write(txn, statement.table)
            # Planner-driven victim selection; see _update for the
            # residual-predicate and snapshot-enforcement rationale.
            plan = resolver.plan_dml(statement.table, where, params)
            deleted = self._apply_delete(table, statement.table,
                                         predicate, plan, txn,
                                         autocommit)
            if autocommit:
                txn.commit()
                self._maybe_autovacuum(statement.table)
            return ExecutionResult("delete", deleted)
        except BaseException:
            if autocommit:
                txn.abort()
            raise

    def _apply_update(self, table, table_name: str, assignments,
                      predicate, plan, txn: Transaction,
                      autocommit: bool) -> int:
        """The UPDATE write loop (shared with the cached
        :class:`~repro.data.sql.plancache.DmlTemplate`): filter the
        plan's victim candidates through the residual predicate, then
        lock, re-read, re-check, and apply per row.

        First-updater-wins applies inside explicit transactions: the
        snapshot the victims were chosen from is the one an earlier
        read may have exposed to the application.  A single autocommit
        statement has no earlier reads, so it refreshes to
        latest-committed under its row lock instead of failing
        (read-committed statement semantics) — except under
        serializable isolation, where the statement's SSI read tracking
        is tied to its snapshot: refreshing the write base to a
        different state than the reads were checked against would
        reopen the very anomalies SSI exists to close.
        """
        victims: list[RID] = [
            rid for rid, row in plan.victims()
            if predicate is None or predicate(row) is True]
        touched = 0
        enforce = not autocommit or self.isolation == "serializable"
        for rid in victims:
            if self.lock_granularity == "row":
                txn.lock_row_exclusive(table_name, rid)
            # Re-read under the row lock: a concurrent writer may have
            # changed (or deleted/moved) the row while we waited.
            row = table.writable_row(rid, txn, enforce_snapshot=enforce)
            if row is None:
                continue  # row deleted or moved: no longer a victim
            if predicate is not None and predicate(row) is not True:
                continue
            new_row = list(row)
            for position, compute in assignments:
                new_row[position] = compute(row)
            lock_row = (
                (lambda r: txn.lock_row_exclusive(
                    table_name, r,
                    timeout_s=self.latched_lock_timeout_s))
                if self.lock_granularity == "row" else None)
            table.update(rid, tuple(new_row), txn=txn, lock_row=lock_row)
            touched += 1
        return touched

    def _apply_delete(self, table, table_name: str, predicate, plan,
                      txn: Transaction, autocommit: bool) -> int:
        """The DELETE write loop; see :meth:`_apply_update` for the
        locking and snapshot-enforcement rationale."""
        victims = [rid for rid, row in plan.victims()
                   if predicate is None or predicate(row) is True]
        deleted = 0
        enforce = not autocommit or self.isolation == "serializable"
        for rid in victims:
            if self.lock_granularity == "row":
                txn.lock_row_exclusive(table_name, rid)
            row = table.writable_row(rid, txn, enforce_snapshot=enforce)
            if row is None:
                continue  # row deleted or moved: no longer a victim
            if predicate is not None and predicate(row) is not True:
                continue
            table.delete(rid, txn=txn)
            deleted += 1
        return deleted

    # -- DDL ----------------------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTable) -> ExecutionResult:
        if statement.if_not_exists and \
                self.catalog.has_table(statement.name):
            return ExecutionResult("create_table", 0)
        columns = [
            Column(c.name, ColumnType.parse(c.type_name),
                   not_null=c.not_null, primary_key=c.primary_key)
            for c in statement.columns]
        if sum(1 for c in columns if c.primary_key) > 1:
            raise SQLPlanError("multiple PRIMARY KEY columns")
        self.catalog.create_table(statement.name, Schema(columns))
        self.catalog.save()
        return ExecutionResult("create_table", 1)

    def _drop(self, statement: ast.DropStatement) -> ExecutionResult:
        try:
            if statement.kind == "table":
                self.catalog.drop_table(statement.name)
            elif statement.kind == "index":
                self.catalog.drop_index(statement.name)
            else:
                self.catalog.drop_view(statement.name)
        except CatalogError:
            if statement.if_exists:
                return ExecutionResult(f"drop_{statement.kind}", 0)
            raise
        self.catalog.save()
        return ExecutionResult(f"drop_{statement.kind}", 1)

    # -- durability -----------------------------------------------------------------------------

    def checkpoint(self, full: bool = True) -> None:
        """Make the database durable.

        ``full=True`` (the default) flushes every dirty page and, when no
        transaction is active, truncates the WAL — the sharp checkpoint a
        clean shutdown wants.  With active transactions the log is kept
        (their undo information lives there) and a fuzzy CHECKPOINT
        record is appended instead.

        ``full=False`` is a *fuzzy* checkpoint: no data pages are
        flushed; only the unlogged metadata (catalog, hash-index
        snapshots, the file table) is forced, and a CHECKPOINT record
        carrying the dirty-page table and active-transaction table is
        appended.  Committed-but-unflushed heap data survives a crash via
        redo on reopen — writers never stall behind a full pool flush.
        """
        self.catalog.save()
        metadata_files = {self.files.open_file("__catalog")}
        for table in self.catalog.tables.values():
            for index in table.indexes.values():
                if index.hash is not None:
                    index.hash.checkpoint(self.pages, index.file_id)
                    metadata_files.add(index.file_id)
        if full:
            self.pool.flush_all()
        else:
            for page in self.pool.iter_resident():
                if page.dirty and page.page_id.file_id in metadata_files:
                    self.pool.flush_page(page.page_id)
            self.files.disk.flush()
        self.files.checkpoint_metadata()
        if self.wal is not None:
            # Truncation requires that nothing in the log is still
            # needed: no live transaction, and no unresolved loser (an
            # unclean abort leaves one on purpose — its undo images are
            # the only way recovery can repair it on reopen).
            if full and not self.transactions.active \
                    and not self.wal.has_losers():
                self.wal.truncate()
            else:
                # Capture the bound BEFORE snapshotting the DPT: a page
                # dirtied while we snapshot is missing from the DPT, but
                # its records' LSNs are >= this bound, so redo never
                # prunes them.
                bound = self.wal.next_lsn
                dirty = self.pool.dirty_page_table()
                self.wal.log_checkpoint(
                    dirty, self.transactions.active_txn_table(),
                    redo_lsn=min([bound, *dirty.values()]))
                self.wal.flush()

    def _relieve_wal_pressure(self) -> None:
        """Drain a full WAL device so the next commit can proceed.

        A naive full checkpoint deadlocks here: flushing a page requires
        its covering log records durable first (WAL-before-data), and
        the full device cannot take another byte.  The staged order
        breaks the cycle:

        1. Write back every dirty page already covered by the *durable*
           log — no WAL flush needed.  The disk then holds every
           durably-logged change.
        2. With no live transaction and no loser, the log is redundant:
           truncate it.  Any unflushable buffered tail belongs to
           finished transactions (the refused commit's rollback) whose
           pages were never written back — discarding it loses nothing.
        3. A normal full checkpoint flushes the remaining pages (their
           stamps now trail the reset log) and the metadata.
        """
        if self.wal is None:
            return
        for page in self.pool.iter_resident():
            if page.dirty and page.lsn <= self.wal.flushed_lsn:
                self.pool.flush_page(page.page_id)
        # The data device must be durable BEFORE the log is discarded —
        # a crash between the two would otherwise revert the pages with
        # no log left to redo them.
        self.files.disk.flush()
        if self.transactions.active or self.wal.has_losers():
            return
        self.wal.truncate()
        self.checkpoint(full=True)

    def close(self) -> None:
        self.scrub_manager.stop()
        self.vacuum_manager.stop()
        self.checkpoint()
        self.device.close()

    # -- introspection ----------------------------------------------------------------------------

    def _integrity_stats(self) -> dict:
        """The quarantine registry's gauges plus the per-table view
        (file ids mapped back to table names) and the WAL's torn-tail
        counter — the operator's corruption dashboard."""
        summary = self.integrity.stats()
        per_table = {}
        for name, table in self.catalog.tables.items():
            pages = self.integrity.for_file(table.heap.file_id)
            if pages:
                per_table[name] = sorted(pages)
        summary["by_table"] = per_table
        if self.wal is not None:
            summary["wal_truncated_tail_bytes"] = \
                self.wal.truncated_tail_bytes
        return summary

    def _columnar_stats(self) -> dict:
        """Per-table columnar-store gauges plus engine-wide totals."""
        tables = {}
        totals = {"history_rows": 0, "mirror_rows": 0,
                  "blocks_scanned": 0, "blocks_skipped": 0,
                  "rows_migrated": 0, "mirror_rebuilds": 0}
        for name, table in self.catalog.tables.items():
            store = table.columnar
            if store is None:
                continue
            report = store.stats()
            report["mirror_valid"] = store.mirror_valid(table)
            tables[name] = report
            for key in totals:
                totals[key] += report[key]
        totals["enabled"] = self.columnar
        totals["tables"] = tables
        return totals

    def stats(self) -> dict:
        summary = {
            "catalog": self.catalog.stats(),
            "buffer": self.pool.properties(),
            "disk": {
                "reads": self.device.stats.reads,
                "writes": self.device.stats.writes,
                "time_charged": self.device.stats.time_charged,
            },
            "transactions": self.transactions.stats(),
            "locks": self.transactions.locks.stats(),
            "isolation": self.isolation,
            "snapshots": self.transactions.active_snapshots(),
            "lock_timeout_s": self.transactions.locks.timeout_s,
            "vacuum": self.vacuum_manager.stats(),
            "columnar": self._columnar_stats(),
            "integrity": self._integrity_stats(),
            "scrub": self.scrub_manager.stats(),
            "statements": self.statements_executed,
            "plan_cache": self._plan_cache.stats(),
            "knobs": self.knobs.snapshot(),
        }
        if self.autotuner is not None:
            # Decision log of the self-tuning kernel: every applied
            # knob change and index-advisor action with timestamps,
            # old → new values, and the trigger metrics.
            summary["adaptation"] = self.autotuner.stats()
        if self.transactions.ssi is not None:
            # Serializable mode: SIREAD/rw-edge gauges (tracked_reads,
            # rw_edges, pivot_aborts, retained_committed,
            # sireads_released) — also nested under "transactions".
            summary["ssi"] = self.transactions.ssi.stats()
        return summary


class PreparedStatement:
    """A statement parsed — and, when the shape allows, planned — once.

    ``execute(params)`` binds a parameter vector and runs; repeated
    executions skip tokenize/parse and reuse the database's cached plan
    template for the statement's normalized text.  Handles are created
    by :meth:`Database.prepare` (anonymous) or the SQL ``PREPARE name
    AS ...`` statement (registered on the database; run via ``EXECUTE
    name (args)``, dropped via ``DEALLOCATE name``)."""

    def __init__(self, db: Database, sql: Optional[str],
                 statement: Optional[ast.Statement] = None) -> None:
        self._db = db
        self.sql = sql
        self._fp = None
        self._statement = statement
        if sql is not None:
            if db._plan_cache.capacity > 0:
                fp = db._fingerprints.get(sql)
                if fp is not None and fp.cacheable \
                        and fp.keyword in CACHEABLE_KEYWORDS:
                    self._fp = fp
            if self._fp is None:
                self._statement = parse(sql)

    def execute(self, params: Sequence[Any] = ()) -> Any:
        return self._run(tuple(params))

    def executemany(self, param_rows: Sequence[Sequence[Any]]) -> list:
        return [self._run(tuple(p)) for p in param_rows]

    def _run(self, params: tuple) -> Any:
        db = self._db
        if self._fp is not None:
            try:
                return db._execute_fingerprinted(self._fp, params)
            except SQLSyntaxError:
                # Normalized text the parser rejects: fall back to the
                # raw AST permanently for this handle.
                self._statement = parse(self.sql)
                self._fp = None
        db.statements_executed += 1
        return db.execute_statement(self._statement, params)


def _eq_conjunct(expr) -> bool:
    """True when the WHERE tree has, under top-level ANDs, an equality
    comparison against a column — the shape an index probe serves."""
    if isinstance(expr, ast.Binary):
        if expr.operator == "AND":
            return _eq_conjunct(expr.left) or _eq_conjunct(expr.right)
        if expr.operator == "=":
            return isinstance(expr.left, ast.ColumnRef) \
                or isinstance(expr.right, ast.ColumnRef)
    return False


def _prepare_body(sql: str) -> Optional[str]:
    """The statement text after ``PREPARE <name> AS`` (None when the
    shape is surprising — the AST-only registration path then runs)."""
    try:
        tokens = tokenize(sql)
    except SQLSyntaxError:
        return None
    if len(tokens) > 4 and tokens[0].kind == "KEYWORD" \
            and tokens[0].value == "PREPARE" \
            and tokens[2].kind == "KEYWORD" and tokens[2].value == "AS" \
            and tokens[3].kind == "KEYWORD":
        # Statements begin with a keyword, whose token records its
        # start offset — slice the original text from there.
        return sql[tokens[3].position:]
    return None


def _render_select(select: ast.SelectStatement) -> str:
    """Views persist as SQL text; rebuild it from the AST."""
    return _SelectRenderer().render(select)


class _SelectRenderer:
    def render(self, select: ast.SelectStatement) -> str:
        parts = ["SELECT"]
        if select.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self._item(i) for i in select.items))
        if select.table is not None:
            parts.append("FROM")
            parts.append(self._table(select.table))
            for join in select.joins:
                keyword = "LEFT JOIN" if join.kind == "left" else "JOIN"
                parts.append(f"{keyword} {self._table(join.table)}")
                if join.condition is not None:
                    parts.append(f"ON {self._expr(join.condition)}")
        if select.where is not None:
            parts.append(f"WHERE {self._expr(select.where)}")
        if select.group_by:
            parts.append("GROUP BY " + ", ".join(
                self._expr(e) for e in select.group_by))
        if select.having is not None:
            parts.append(f"HAVING {self._expr(select.having)}")
        if select.order_by:
            parts.append("ORDER BY " + ", ".join(
                self._expr(o.expression) + (" DESC" if o.descending else "")
                for o in select.order_by))
        if select.limit is not None:
            parts.append(f"LIMIT {self._expr(select.limit)}")
        if select.offset is not None:
            parts.append(f"OFFSET {self._expr(select.offset)}")
        return " ".join(parts)

    def _item(self, item: ast.SelectItem) -> str:
        if isinstance(item.expression, ast.Star):
            return (f"{item.expression.table}.*"
                    if item.expression.table else "*")
        text = self._expr(item.expression)
        return f"{text} AS {item.alias}" if item.alias else text

    @staticmethod
    def _table(ref: ast.TableRef) -> str:
        return f"{ref.name} {ref.alias}" if ref.alias else ref.name

    def _expr(self, expr: ast.Expression) -> str:
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return "NULL"
            if isinstance(expr.value, bool):
                return "TRUE" if expr.value else "FALSE"
            if isinstance(expr.value, str):
                escaped = expr.value.replace("'", "''")
                return f"'{escaped}'"
            return repr(expr.value)
        if isinstance(expr, ast.Param):
            return "?"
        if isinstance(expr, ast.ColumnRef):
            return expr.display()
        if isinstance(expr, ast.Star):
            return "*"
        if isinstance(expr, ast.Unary):
            if expr.operator == "NOT":
                return f"NOT ({self._expr(expr.operand)})"
            return f"-({self._expr(expr.operand)})"
        if isinstance(expr, ast.Binary):
            return (f"({self._expr(expr.left)} {expr.operator} "
                    f"{self._expr(expr.right)})")
        if isinstance(expr, ast.IsNull):
            suffix = "IS NOT NULL" if expr.negated else "IS NULL"
            return f"({self._expr(expr.operand)} {suffix})"
        if isinstance(expr, ast.InList):
            items = ", ".join(self._expr(i) for i in expr.items)
            keyword = "NOT IN" if expr.negated else "IN"
            return f"({self._expr(expr.operand)} {keyword} ({items}))"
        if isinstance(expr, ast.Between):
            keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
            return (f"({self._expr(expr.operand)} {keyword} "
                    f"{self._expr(expr.low)} AND {self._expr(expr.high)})")
        if isinstance(expr, ast.FunctionCall):
            inner = "*" if expr.argument is None else \
                self._expr(expr.argument)
            return f"{expr.name.upper()}({inner})"
        raise SQLPlanError(f"cannot render {expr!r}")
