"""Layer attribution from outside: timing wrappers around each layer's
public entry points, installed only for the traced pass and removed
afterwards.  Nothing under ``src/`` knows it is being measured.

A span is ``(layer, name, start_ns, end_ns, parent, statement)``.  A
span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  The clock is read last
on entry and first on exit, so a wrapper's own cost lands in the
*parent's* self time and ``trace.overhead_frac`` says how much there is.
Generator-returning functions are timed per ``next()``, not at creation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: (layer, module, class or None for a module-level function, names).
TARGETS = (
    ("data.database", "repro.data.database", "Database", ("execute",)),
    ("core.kernel", "repro.core.kernel", "SBDMSKernel", ("sql",)),
    ("core.kernel", "repro.core.registry", "ServiceRegistry", ("find",)),
    ("data.services", "repro.data.services", "QueryService",
     ("op_execute",)),
    ("data.sql.plancache", "repro.data.sql.plancache", "FingerprintCache",
     ("get",)),
    ("data.sql.plancache", "repro.data.sql.plancache", "Fingerprint",
     ("bind",)),
    ("data.sql.plancache", "repro.data.sql.plancache", "PlanCache",
     ("lookup",)),
    ("data.sql.plancache", "repro.data.sql.plancache", None,
     ("build_template",)),
    ("data.sql.plancache", "repro.data.sql.plancache", "SelectTemplate",
     ("execute", "instantiate")),
    ("data.sql.plancache", "repro.data.sql.plancache", "DmlTemplate",
     ("execute",)),
    ("data.sql.plancache", "repro.data.sql.plancache", "InsertTemplate",
     ("execute",)),
    ("data.sql.parser", "repro.data.sql.parser", None, ("parse",)),
    ("data.sql.planner", "repro.data.sql.planner", "Planner",
     ("plan", "plan_dml")),
    ("data.sql.planner", "repro.data.sql.optimizer", None,
     ("choose_access_path",)),
    ("access.operators", "repro.access.operators", "Operator",
     ("to_list_batched",)),
    ("data.table", "repro.data.table", "Table",
     ("insert", "update", "delete", "writable_row", "read_batches",
      "scan_batches", "read_pairs")),
    ("data.table", "repro.data.table", "TableIndex",
     ("lookup_eq", "range_scan", "insert_values", "delete_values")),
    ("access.btree", "repro.access.btree", "BPlusTree",
     ("get", "insert", "delete", "items")),
    ("access.heap_file", "repro.access.heap_file", "HeapFile",
     ("insert", "read", "read_many", "update", "delete", "scan",
      "scan_payload_batches", "scan_version_batches")),
    ("columnar.store", "repro.columnar.store", "ColumnarStore",
     ("mirror_batches", "rebuild_mirror", "write_history")),
    ("storage.buffer", "repro.storage.buffer", "BufferPool",
     ("fetch", "new_page", "unpin", "flush_page", "flush_all")),
    ("data.transactions", "repro.data.transactions", "TransactionManager",
     ("begin",)),
    ("data.transactions", "repro.data.transactions", "Transaction",
     ("commit", "abort")),
    ("data.transactions", "repro.data.transactions", "LockManager",
     ("acquire",)),
    ("data.transactions", "repro.data.transactions", "GroupCommitter",
     ("flush_upto",)),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog",
     ("append", "flush")),
    ("storage.disk", "repro.storage.disk", "BlockDevice",
     ("read_block", "write_block", "flush")),
    ("storage.vacuum", "repro.storage.vacuum", "VacuumManager",
     ("maybe", "run")),
    ("storage.recovery", "repro.storage.recovery", "RecoveryManager",
     ("recover",)),
)
#: Leaf generators whose yielded RowBatches count as rows examined.
ROW_SOURCES = frozenset({("data.table", "Table.read_batches"),
                         ("data.table", "Table.scan_batches"),
                         ("columnar.store", "ColumnarStore.mirror_batches")})
_CALLS, _SELF, _TOTAL, _MAX = range(4)


class Tracer:
    """In-memory span recorder.  Totals are kept for every span; the
    spans themselves only for the first ``keep_statements`` statements
    (enough to read a statement's tree without a 40 MB file)."""

    def __init__(self, keep_statements: int = 200) -> None:
        self.owner = threading.get_ident()
        self.keep_statements = keep_statements
        self.statement = -1
        self.keeping = False
        self.stack: list[list] = []
        self.totals: dict[tuple, list] = {}
        self.edges: dict[tuple, int] = {}    # (parent layer, key) -> calls
        self.spans: list[Optional[tuple]] = []
        self.durations: dict[tuple, list] = {}   # per-span ns, device flushes
        self.rows_examined = 0
        self.device_roles: dict[int, str] = {}
        self.missing: list[str] = []

    def begin_statement(self, index: int) -> None:
        self.statement = index
        self.keeping = index < self.keep_statements

    def enter(self, key: tuple) -> list:
        if self.keeping:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
        frame = [key, 0, index, 0]
        self.stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self.stack
        stack.pop()
        key, child_ns, index, start = frame
        duration = end - start
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0, 0, 0]
        total[_CALLS] += 1
        total[_SELF] += duration - child_ns
        total[_TOTAL] += duration
        if duration > total[_MAX]:
            total[_MAX] = duration
        parent_index = -1
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_index = parent[2]
            edge = (parent[0][0], key)
            self.edges[edge] = self.edges.get(edge, 0) + 1
        if index >= 0:
            self.spans[index] = (key[0], key[1], start, end, parent_index,
                                 self.statement)
        samples = self.durations.get(key)
        if samples is not None:
            samples.append(duration)

    # -- reading the totals --------------------------------------------------

    def calls(self, layer: str, name: Optional[str] = None) -> int:
        return self._sum(_CALLS, layer, name)

    def self_ns(self, layer: str, name: Optional[str] = None) -> int:
        return self._sum(_SELF, layer, name)

    def total_ns(self, layer: str, name: Optional[str] = None) -> int:
        return self._sum(_TOTAL, layer, name)

    def max_ns(self, layer: str, name: Optional[str] = None) -> int:
        return max((t[_MAX] for (l, n), t in self.totals.items()
                    if l == layer and (name is None or n == name)),
                   default=0)

    def _sum(self, field: int, layer: str, name: Optional[str]) -> int:
        return sum(t[field] for (l, n), t in self.totals.items()
                   if l == layer and (name is None or n == name))

    def calls_under(self, parent_layer: str, layer: str, name: str) -> int:
        """Calls of ``layer``/``name`` whose nearest traced caller is a
        span of ``parent_layer``."""
        return sum(count for (p, (l, n)), count in self.edges.items()
                   if p == parent_layer and l == layer
                   and n == name)

    def report(self) -> dict:
        """What ``trace_<workload>.json`` holds."""
        origin = min((s[2] for s in self.spans if s is not None), default=0)
        return {
            "format": ["layer", "name", "start_ns", "end_ns", "parent",
                       "statement"],
            "spans": [[s[0], s[1], s[2] - origin, s[3] - origin, s[4], s[5]]
                      for s in self.spans if s is not None],
            "spans_kept_for_statements": self.keep_statements,
            "totals": [{"layer": layer, "name": name, "calls": t[_CALLS],
                        "self_ns": t[_SELF], "total_ns": t[_TOTAL],
                        "max_ns": t[_MAX]}
                       for (layer, name), t in sorted(self.totals.items())],
            "missing_targets": self.missing,
        }


class _TracedIterator:
    """One span per ``next()`` of a generator-returning function."""

    __slots__ = ("_inner", "_key", "_tracer", "_counts_rows")

    def __init__(self, inner: Iterator, key: tuple, tracer: Tracer) -> None:
        self._inner = inner
        self._key = key
        self._tracer = tracer
        self._counts_rows = key in ROW_SOURCES

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        if threading.get_ident() != tracer.owner:
            return next(self._inner)
        frame = tracer.enter(self._key)
        try:
            value = next(self._inner)
        finally:
            tracer.exit(frame)
        if self._counts_rows:
            tracer.rows_examined += value.num_rows
        return value

    def close(self) -> None:
        self._inner.close()


def _traced(function: Callable, key: tuple, tracer: Tracer) -> Callable:
    if inspect.isgeneratorfunction(function):
        @functools.wraps(function)
        def traced_generator(*args, **kwargs):
            return _TracedIterator(function(*args, **kwargs), key, tracer)
        return traced_generator

    if key[0] == "storage.disk":
        # One name per device role, so WAL and data I/O stay apart.
        layer, name = key
        keys = {role: (layer, f"{name}.{role}")
                for role in ("data", "wal", "other")}
        for role_key in keys.values():
            if role_key[1].startswith("BlockDevice.flush"):
                tracer.durations[role_key] = []
        roles = tracer.device_roles

        @functools.wraps(function)
        def traced_device(self, *args, **kwargs):
            if threading.get_ident() != tracer.owner:
                return function(self, *args, **kwargs)
            frame = tracer.enter(keys[roles.get(id(self), "other")])
            try:
                return function(self, *args, **kwargs)
            finally:
                tracer.exit(frame)
        return traced_device

    @functools.wraps(function)
    def traced_call(*args, **kwargs):
        if threading.get_ident() != tracer.owner:
            return function(*args, **kwargs)
        frame = tracer.enter(key)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return traced_call


def _resolve():
    """``(layer, label, holder, name, function or None)`` per target."""
    for layer, module_name, class_name, names in TARGETS:
        module = importlib.import_module(module_name)
        holder = module if class_name is None \
            else getattr(module, class_name, None)
        for name in names:
            label = f"{class_name}.{name}" if class_name else name
            found = None if holder is None else vars(holder).get(name)
            yield (layer, label, holder, name,
                   found if inspect.isfunction(found) else None)


@contextmanager
def installed(tracer: Tracer):
    """Install a wrapper on every target in :data:`TARGETS`; restore the
    original functions (same objects) on exit.  A target the engine no
    longer has is skipped and listed in ``tracer.missing``."""
    undo: list[tuple] = []
    try:
        for layer, label, holder, name, original in _resolve():
            if original is None:
                tracer.missing.append(label)
                continue
            wrapper = _traced(original, (layer, label), tracer)
            if inspect.isclass(holder):
                places = [holder]
            else:
                # ``from x import f`` copies the reference: patch every
                # engine module that holds it.
                places = [m for m_name, m in list(sys.modules.items())
                          if m is not None
                          and m_name.split(".")[0] == "repro"
                          and vars(m).get(name) is original]
            for place in places:
                setattr(place, name, wrapper)
                undo.append((place, name, original))
        yield tracer
    finally:
        for place, name, original in reversed(undo):
            setattr(place, name, original)


def originals() -> dict[str, Any]:
    """Current function object of every target, by label — the self-test
    compares two snapshots to prove the wrappers are gone."""
    return {label: found for _, label, _, _, found in _resolve()
            if found is not None}
