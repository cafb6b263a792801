"""Set-up, the closed-loop measured phase, the crash pass and the
metric arithmetic of the perf ledger.

Load model: closed loop, one client thread, one process per workload.
No timers run (``vacuum_interval_s``/``scrub_interval_s`` stay None), so
with a fixed statement count every engine counter repeats exactly.
Latency is ``perf_counter_ns`` around the front-door call only; answers
are checked against the sqlite oracle between batches, off the clock.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro import SBDMS
from repro.data import Database
from repro.storage.disk import DiskCostModel, FileDevice, MemoryDevice
from repro.storage.faultdev import FaultyDevice

from . import trace
from .oracle import Oracle, answer, rows_equal
from .workloads import (GROUPS_DDL, INSERT_GROUP, INSERT_ITEM, ITEMS_DDL,
                        KINDS, QERROR_KINDS, SELECTIVE_KINDS, WRITE_KINDS,
                        Stream, Workload)

LOAD_TXN_ROWS = 1000
CRASH_ROWS = 1000
CRASH_STATEMENTS = 1500
TRACE_SHARE = 0.25      # traced pass: this share of the stream / seconds
P99_WINDOW = 500


# -- set-up -------------------------------------------------------------------

@dataclass
class Env:
    """One built, loaded and warmed engine plus what drives it."""

    workload: Workload
    stream: Stream
    db: Database
    data: Any
    wal: Any
    warmup: list
    setup_s: float
    system: Optional[SBDMS] = None
    directory: Optional[str] = None

    @property
    def front(self) -> Callable[[str, tuple], Any]:
        """The front door under test, looked up at call time so the
        traced pass gets the wrapped ``Database.execute``."""
        return self.system.sql if self.system is not None \
            else self.db.execute

    def close(self) -> None:
        if self.system is not None:
            self.system.kernel.shutdown()
        self.db.close()
        self.wal.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


def load(db: Database, stream: Stream) -> None:
    db.execute(ITEMS_DDL)
    for start in range(0, len(stream.rows), LOAD_TXN_ROWS):
        db.execute("BEGIN")
        db.executemany(INSERT_ITEM,
                       stream.rows[start:start + LOAD_TXN_ROWS])
        db.execute("COMMIT")
    if stream.group_rows:
        db.execute(GROUPS_DDL)
        db.execute("BEGIN")
        db.executemany(INSERT_GROUP, stream.group_rows)
        db.execute("COMMIT")


def build(workload: Workload, seed: int, scratch: Path) -> Env:
    """build → load → ANALYZE → (VACUUM) → checkpoint → warm-up → gc;
    ``setup_s`` covers all of it and none of the harness's own work."""
    stream = Stream(workload, seed)
    warmup = stream.take(workload.warmup)
    directory = None
    started = time.perf_counter()
    if workload.device == "file":
        scratch.mkdir(parents=True, exist_ok=True)
        directory = tempfile.mkdtemp(prefix=workload.name + "-",
                                     dir=scratch)
        # ssd() only accumulates ``time_charged``; it never sleeps.
        data = FileDevice(Path(directory, "data"),
                          cost_model=DiskCostModel.ssd())
        wal = FileDevice(Path(directory, "wal"),
                         cost_model=DiskCostModel.ssd())
    else:
        data, wal = MemoryDevice(), MemoryDevice()
    db = Database(device=data, wal_device=wal,
                  buffer_capacity=workload.pool)
    load(db, stream)
    db.execute("ANALYZE")
    if workload.vacuum:
        db.execute("VACUUM")
    db.checkpoint()
    system = SBDMS(profile="full", database=db) \
        if workload.front == "kernel" else None
    env = Env(workload, stream, db, data, wal, warmup, 0.0, system,
              directory)
    front = env.front
    for stmt in warmup:
        front(stmt.sql, stmt.params)
    gc.collect()
    env.setup_s = time.perf_counter() - started
    return env


@contextmanager
def session(workload: Workload, seed: int, scratch: Path):
    """A built engine and the oracle brought to the same state (rows
    loaded, warm-up replayed); both closed on exit."""
    env = build(workload, seed, scratch)
    oracle = Oracle(env.stream.rows, env.stream.group_rows)
    try:
        oracle.apply(env.warmup)
        yield env, oracle
    finally:
        env.close()
        oracle.close()


# -- counters the engine already exposes ----------------------------------------

def counters(env: Env) -> dict[str, float]:
    db = env.db
    engine = db.counters()
    txn = db.transactions.stats()
    group = txn.get("group_commit", {})
    columnar = db.stats()["columnar"]
    data, wal = env.data.stats, env.wal.stats
    tables = engine["tables"].values()
    return {
        "data_reads": data.reads, "data_writes": data.writes,
        "data_flushes": data.flushes, "wal_reads": wal.reads,
        "wal_writes": wal.writes, "wal_flushes": wal.flushes,
        "wal_device_bytes": wal.bytes_written,
        "sim_s": data.time_charged + wal.time_charged,
        "pool_hits": db.pool.stats.hits, "pool_misses": db.pool.stats.misses,
        "evictions": db.pool.stats.evictions,
        "dirty_writebacks": db.pool.stats.dirty_writebacks,
        "plan_hits": engine["plan_cache"]["hits"],
        "plan_misses": engine["plan_cache"]["misses"],
        "seq_scans": sum(t["seq_scans"] for t in tables),
        "index_probes": sum(t["index_probes"] for t in tables),
        "lock_waits": engine["lock_waits"],
        "vacuum_runs": engine["vacuum"]["runs"],
        "versions_reclaimed": engine["vacuum"]["versions_reclaimed"],
        "aborted": txn["aborted"],
        "group_commits": group.get("commits", 0),
        "group_flushes": group.get("flushes", 0),
        "wal_appends": db.wal.next_lsn,
        "wal_logical_bytes": db.wal.size_bytes(),
        "blocks_scanned": columnar["blocks_scanned"],
        "blocks_skipped": columnar["blocks_skipped"],
        "mirror_rebuilds": columnar["mirror_rebuilds"],
    }


def stored_bytes(env: Env) -> int:
    return (env.data.num_blocks() * env.data.block_size
            + env.wal.num_blocks() * env.wal.block_size)


# -- the measured phase ------------------------------------------------------------

@dataclass
class Measured:
    """Raw observations of one pass over the stream."""

    kinds: list = field(default_factory=list)
    latency_ns: list = field(default_factory=list)
    shadow_ns: list = field(default_factory=list)
    failed: int = 0
    commits: int = 0            # committed write transactions
    delta: dict = field(default_factory=dict)
    space_amp: float = 0.0
    peak_rss_mb: float = 0.0
    rows_returned: int = 0
    selects: int = 0
    bypassed: int = 0
    selective: int = 0
    index_served: int = 0
    qerrors: list = field(default_factory=list)

    @property
    def statements(self) -> int:
        return len(self.latency_ns)

    @property
    def busy_s(self) -> float:
        return sum(self.latency_ns) / 1e9


def _timed(front, batch: list, latency_ns: list,
           tracer: Optional[trace.Tracer], first: int) -> list:
    results = []
    clock = time.perf_counter_ns
    for offset, stmt in enumerate(batch):
        if tracer is not None:
            tracer.begin_statement(first + offset)
        start = clock()
        try:
            result = front(stmt.sql, stmt.params)
        except Exception as exc:    # counted by the oracle, not raised
            result = exc
        latency_ns.append(clock() - start)
        results.append(result)
    return results


def _observe_plans(m: Measured, batch: list, results: list) -> None:
    """Planner facts from ``ResultSet.plan`` (off the clock)."""
    for stmt, result in zip(batch, results):
        if isinstance(result, BaseException):
            continue
        rows, _ = answer(result)
        if rows is None:
            continue
        plan = result["plan"] if isinstance(result, dict) else result.plan
        plan = plan or {}
        m.selects += 1
        m.rows_returned += len(rows)
        m.bypassed += plan.get("cached") == "bypass"
        paths = plan.get("access_paths") or [""]
        if stmt.kind in SELECTIVE_KINDS:
            m.selective += 1
            m.index_served += paths[0].startswith("index")
        if stmt.kind in QERROR_KINDS and "estimated_rows" in plan:
            estimated = max(1.0, float(plan["estimated_rows"]))
            actual = max(1.0, float(len(rows)))
            m.qerrors.append(max(estimated / actual, actual / estimated))


def measure(env: Env, oracle: Oracle, *, seconds: Optional[float] = None,
            statements: Optional[int] = None,
            tracer: Optional[trace.Tracer] = None,
            shadow: Optional[Callable] = None) -> Measured:
    """Run the stream until ``statements`` are done or the statement
    latencies add up to ``seconds``; batches are whole ``chunk``s either
    way, so a given prefix of the stream is identical at any speed.

    ``shadow`` (read-only workloads) re-runs each batch through a second
    front door and times it: the paired baseline for ``kernel.tax_us``.
    """
    workload = env.workload
    m = Measured()
    before = counters(env)
    space_read = False
    budget_ns = None if seconds is None else seconds * 1e9
    spent_ns = 0
    while (statements is None or m.statements < statements) \
            and (budget_ns is None or spent_ns < budget_ns):
        want = workload.chunk if statements is None \
            else min(workload.chunk, statements - m.statements)
        batch = env.stream.take(want)
        first = m.statements
        results = _timed(env.front, batch, m.latency_ns, tracer, first)
        spent_ns += sum(m.latency_ns[first:])
        if shadow is not None:
            _timed(shadow, batch, m.shadow_ns, None, 0)
        m.kinds.extend(stmt.kind for stmt in batch)
        m.failed += oracle.check(batch, results)
        _observe_plans(m, batch, results)
        if not space_read and m.statements >= workload.space_mark:
            m.space_amp = stored_bytes(env) / env.stream.live_bytes
            space_read = True
    if not space_read:
        m.space_amp = stored_bytes(env) / env.stream.live_bytes
    m.commits = committed_writes(m.kinds)
    after = counters(env)
    m.delta = {key: after[key] - before[key] for key in after}
    m.peak_rss_mb = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def committed_writes(kinds: list) -> int:
    """Committed write transactions in a stream: autocommit DML
    statements plus explicit blocks (every block writes)."""
    commits = 0
    in_block = False
    for kind in kinds:
        if kind in ("begin", "commit"):
            in_block = kind == "begin"
            commits += kind == "commit"
        elif kind in WRITE_KINDS and not in_block:
            commits += 1
    return commits


def verify(env: Env, oracle: Oracle, m: Measured) -> int:
    """Failures beyond the per-statement ones: a table that differs from
    the oracle's after the pass, and, on a read-only workload, any log
    byte written or device flushed."""
    names = ["items"] + (["groups"] if env.stream.group_rows else [])
    failed = sum(
        not rows_equal(env.db.execute(f"SELECT * FROM {name}").rows,
                       oracle.table(name), ordered=False)
        for name in names)
    if env.workload.read_only:
        failed += m.delta["wal_device_bytes"] != 0
        failed += m.delta["wal_flushes"] + m.delta["data_flushes"] != 0
    return m.failed + failed


# -- crash pass ----------------------------------------------------------------------

def crash_pass(workload: Workload, seed: int,
               tracer: Optional[trace.Tracer] = None) -> dict:
    """Durability: run a prefix of the stream over FaultyDevice-wrapped
    memory devices, drop every byte not honestly flushed (the harness,
    not the OS, discards them), reopen, and compare with the oracle.

    Every statement returned, so every transaction was acknowledged; a
    row that differs after recovery convicts the last transaction that
    wrote it.
    """
    small = replace(
        workload, rows=min(CRASH_ROWS, workload.rows), device="memory",
        statements=min(CRASH_STATEMENTS, workload.statements), warmup=0)
    stream = Stream(small, seed)
    data = FaultyDevice(MemoryDevice())
    wal = FaultyDevice(MemoryDevice())
    db = Database(device=data, wal_device=wal, buffer_capacity=small.pool)
    load(db, stream)
    db.checkpoint()
    oracle = Oracle(stream.rows, ())
    batch = stream.take(small.statements)
    last_writer: dict[int, int] = {}
    txn = 0
    for stmt in batch:
        db.execute(stmt.sql, stmt.params)
        if stmt.kind in ("begin", "commit"):
            txn += stmt.kind == "commit"
        elif stmt.kind in WRITE_KINDS:
            last_writer[stmt.params[0]] = txn
            txn += not db.in_transaction
    oracle.apply(batch)
    # No close(): close would checkpoint.  Stop the (idle) daemons only.
    db.scrub_manager.stop()
    db.vacuum_manager.stop()
    data.crash()
    wal.crash()
    started = time.perf_counter()
    if tracer is None:
        reopened = Database(device=data, wal_device=wal,
                            buffer_capacity=small.pool)
    else:
        with trace.installed(tracer):
            reopened = Database(device=data, wal_device=wal,
                                buffer_capacity=small.pool)
    recovery_s = time.perf_counter() - started
    want = {row[0]: row for row in oracle.table("items")}
    got = {row[0]: row for row in
           reopened.execute("SELECT * FROM items").rows}
    lost = {last_writer.get(key, -1) for key in want.keys() | got.keys()
            if key not in want or key not in got
            or not rows_equal([got[key]], [want[key]], ordered=True)}
    summary = reopened.last_recovery or {}
    reopened.close()
    oracle.close()
    return {"recovery_s": recovery_s, "lost_acked_commits": len(lost),
            "redo_records": summary.get("redone", 0)}


# -- metric arithmetic ------------------------------------------------------------------

def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def windowed_p99(values: list, window: int = P99_WINDOW) -> float:
    """Lower quartile over consecutive ``window``-statement windows of
    each window's 99th percentile (5 samples beyond it per window).

    Interference from the machine only ever adds latency, and it comes
    in bursts, so the quiet windows are the ones that describe the
    engine; a slower engine tail raises them too.  On eight runs in a
    noisy hour this halved the run-to-run spread of the median over
    windows, which in turn halved that of the plain percentile.  Runs
    shorter than three windows use the plain percentile."""
    if len(values) < 3 * window:
        return percentile(values, 0.99)
    return statistics.quantiles(
        [percentile(values[start:start + window], 0.99)
         for start in range(0, len(values) - window + 1, window)], n=4)[0]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def end_to_end(m: Measured, setup_s: float) -> dict[str, float]:
    micro = [ns / 1000 for ns in m.latency_ns]
    return {
        "setup_s": setup_s,
        "throughput_sps": _per(m.statements, m.busy_s),
        "p50_us": statistics.median(micro),
        "p99_us": windowed_p99(micro),
        "peak_rss_mb": m.peak_rss_mb,
        "space_amp": m.space_amp,
    }


def per_layer(plain: Measured, traced: Measured, tracer: trace.Tracer,
              crash: Optional[dict],
              crash_tracer: Optional[trace.Tracer]) -> dict[str, float]:
    """Every per-layer metric.  Timings of single layers come from the
    traced pass; latencies (``kind.*``, ``p999``) from the untraced pass
    over the same statements; counts from the engine's own counters,
    which agree between the two passes."""
    n = traced.statements
    d = traced.delta
    commits = traced.commits
    us = 1 / 1000

    def self_us(layer: str, name: Optional[str] = None) -> float:
        return tracer.self_ns(layer, name) * us

    micro = [ns * us for ns in plain.latency_ns]
    by_kind: dict[str, list] = {}
    for kind, value in zip(plain.kinds, micro):
        by_kind.setdefault(kind, []).append(value)
    out = {
        "database.self_us_per_stmt": _per(self_us("data.database"), n),
        "database.p999_us": percentile(micro, 0.999),
    }
    for kind in KINDS:
        out[f"database.kind.{kind}.p50_us"] = \
            statistics.median(by_kind[kind]) if kind in by_kind else 0.0
    cache = "data.sql.plancache"
    planned = d["plan_hits"] + d["plan_misses"]
    out.update({
        "plancache.fingerprint.self_us_per_stmt": _per(
            self_us(cache, "FingerprintCache.get")
            + self_us(cache, "Fingerprint.bind"), n),
        "plancache.lookup.self_us_per_stmt":
            _per(self_us(cache, "PlanCache.lookup"), n),
        "plancache.instantiate.self_us_per_stmt":
            _per(self_us(cache, "SelectTemplate.instantiate"), n),
        "plancache.hit_rate": _per(d["plan_hits"], planned),
        "plancache.bypass_frac": _per(traced.bypassed, traced.selects),
        "parser.calls_per_stmt": _per(tracer.calls("data.sql.parser"), n),
        "parser.self_us_per_stmt": _per(self_us("data.sql.parser"), n),
        "planner.self_us_per_stmt": _per(self_us("data.sql.planner"), n),
        "planner.index_path_frac":
            _per(traced.index_served, traced.selective),
        "planner.rows_qerror_p50":
            statistics.median(traced.qerrors) if traced.qerrors else 0.0,
        "operators.self_us_per_stmt":
            _per(self_us("access.operators"), n),
        "operators.rows_read_per_row_returned":
            _per(tracer.rows_examined, traced.rows_returned),
        "table.self_us_per_stmt": _per(self_us("data.table"), n),
        "table.seq_scans_per_stmt": _per(d["seq_scans"], n),
        "table.index_probes_per_stmt": _per(d["index_probes"], n),
    })
    tree_calls = tracer.calls("access.btree")
    fetches = tracer.calls("storage.buffer", "BufferPool.fetch")
    out.update({
        "btree.calls_per_stmt": _per(tree_calls, n),
        "btree.self_us_per_call": _per(self_us("access.btree"), tree_calls),
        "btree.pages_per_call": _per(tracer.calls_under(
            "access.btree", "storage.buffer", "BufferPool.fetch"),
            tree_calls),
        "heap.self_us_per_stmt": _per(self_us("access.heap_file"), n),
        "heap.pages_per_stmt": _per(tracer.calls_under(
            "access.heap_file", "storage.buffer", "BufferPool.fetch"), n),
        "columnar.self_us_per_stmt": _per(self_us("columnar.store"), n),
        "columnar.blocks_skipped_frac": _per(
            d["blocks_skipped"], d["blocks_skipped"] + d["blocks_scanned"]),
        "columnar.mirror_rebuilds": d["mirror_rebuilds"],
        "buffer.fetches_per_stmt": _per(fetches, n),
        "buffer.self_us_per_fetch": _per(
            self_us("storage.buffer", "BufferPool.fetch"), fetches),
        "buffer.hit_rate":
            _per(d["pool_hits"], d["pool_hits"] + d["pool_misses"]),
        "buffer.evictions_per_stmt": _per(d["evictions"], n),
        "buffer.dirty_writebacks_per_stmt": _per(d["dirty_writebacks"], n),
    })
    txns = "data.transactions"
    begun = tracer.calls(txns, "TransactionManager.begin")
    flush_samples = [ns for samples in tracer.durations.values()
                     for ns in samples]
    out.update({
        "txn.begin_commit.self_us_per_txn": _per(
            self_us(txns, "TransactionManager.begin")
            + self_us(txns, "Transaction.commit"), begun),
        "txn.lock_acquires_per_stmt":
            _per(tracer.calls(txns, "LockManager.acquire"), n),
        "txn.lock_waits": d["lock_waits"],
        "txn.aborts": d["aborted"],
        "txn.commits_per_flush":
            _per(d["group_commits"], d["group_flushes"]),
        "wal.appends_per_commit": _per(d["wal_appends"], commits),
        "wal.logical_bytes_per_commit":
            _per(d["wal_logical_bytes"], commits),
        "wal.device_bytes_per_logical_byte":
            _per(d["wal_device_bytes"], d["wal_logical_bytes"]),
        "wal.device_reads_per_commit": _per(d["wal_reads"], commits),
        "wal.flush.self_us_per_commit": _per(
            self_us("storage.wal", "WriteAheadLog.flush"), commits),
        "disk.data.reads": d["data_reads"],
        "disk.data.writes": d["data_writes"],
        "disk.data.flushes": d["data_flushes"],
        "disk.wal.writes": d["wal_writes"],
        "disk.wal.flushes": d["wal_flushes"],
        "disk.flush_us_p50": statistics.median(flush_samples) * us
            if flush_samples else 0.0,
        "disk.sim_ssd_s": d["sim_s"],
        "vacuum.runs": d["vacuum_runs"],
        "vacuum.busy_s":
            tracer.total_ns("storage.vacuum", "VacuumManager.run") / 1e9,
        "vacuum.max_stall_ms":
            tracer.max_ns("storage.vacuum", "VacuumManager.run") / 1e6,
        "vacuum.versions_reclaimed": d["versions_reclaimed"],
    })
    redo = crash["redo_records"] if crash else 0
    out.update({
        "recovery.redo_records": redo,
        "recovery.redo_us_per_record": _per(
            crash_tracer.total_ns("storage.recovery") * us, redo)
            if crash_tracer else 0.0,
        "kernel.tax_us": statistics.median(plain.latency_ns) * us
            - statistics.median(plain.shadow_ns) * us
            if plain.shadow_ns else 0.0,
        "kernel.self_us_per_stmt": _per(self_us("core.kernel"), n),
        "kernel.resolves_per_stmt": _per(
            tracer.calls("core.kernel", "ServiceRegistry.find"), n),
        "trace.overhead_frac": _per(traced.busy_s, plain.busy_s) - 1,
        "trace.spans_per_stmt": _per(
            sum(t[0] for t in tracer.totals.values()), n),
        # Resource costs a user of the engine pays.  They are exactly 0
        # on some workloads (no WAL byte on a read-only one), and an
        # end-to-end metric must never be 0, so they are reported here.
        "wal_bytes_per_commit": _per(d["wal_device_bytes"], commits),
        "fsyncs_per_commit":
            _per(d["data_flushes"] + d["wal_flushes"], commits),
        "data_reads_per_stmt": _per(d["data_reads"], n),
        "data_writes_per_stmt": _per(d["data_writes"], n),
        "recovery_s": crash["recovery_s"] if crash else 0.0,
        "lost_acked_commits": crash["lost_acked_commits"] if crash else 0,
        "failed_frac": _per(plain.failed + traced.failed,
                            plain.statements + traced.statements),
    })
    return out


def attribution(tracer: trace.Tracer) -> dict:
    """Self time by layer as a share of all ``Database.execute`` time."""
    total = tracer.total_ns("data.database", "Database.execute")
    layers: dict[str, int] = {}
    for (layer, _), entry in tracer.totals.items():
        if layer not in ("core.kernel", "data.services"):
            layers[layer] = layers.get(layer, 0) + entry[1]
    return {layer: _per(ns, total)
            for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1])}
