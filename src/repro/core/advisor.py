"""Automatic index management from statistics + observed predicates.

The advisor closes the loop the paper sketches for physical design:
ANALYZE statistics say whether an index *could* pay (enough rows, enough
distinct values for a selective probe); observed predicate frequencies
say whether it *would* pay (the column is actually filtered on).  Both
signals must agree before the advisor spends a build.

Stability is the hard part — an advisor that flaps costs more than a
bad static choice — so every action sits behind hysteresis:

- **create** requires the same ``(table, column)`` equality or range
  predicate to clear the sighting threshold in ``confirm``
  *consecutive* windows;
- **drop** applies only to advisor-created indexes, and only after the
  index went unprobed for ``drop_after`` consecutive windows on a table
  that is still taking writes (an unused index on a read-only table is
  free);
- after any action the advisor sits out ``cooldown`` windows;
- a dropped ``(table, column)`` leaves a **scar**: the advisor never
  recreates it in this process — if the workload genuinely flipped
  back, the create evidence would also re-justify the maintenance cost
  the drop proved too high, and oscillating between those two states is
  exactly the flapping this module exists to prevent.

Actions go through the SQL front door (``CREATE INDEX`` … ``ANALYZE``)
so they are planned, locked, logged, and visible like any user DDL.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.observe import WorkloadWindow

ADVISOR_PREFIX = "adaptive_ix_"


class IndexAdvisor:
    """Auto-create/drop secondary indexes from observed windows."""

    def __init__(self, db, min_rows: int = 200, min_sightings: int = 8,
                 min_ndv: int = 4, confirm: int = 2, cooldown: int = 3,
                 drop_after: int = 6, max_indexes: int = 8) -> None:
        self.db = db
        self.min_rows = min_rows
        self.min_sightings = min_sightings
        self.min_ndv = min_ndv
        self.confirm = confirm
        self.cooldown = cooldown
        self.drop_after = drop_after
        self.max_indexes = max_indexes
        #: (table, column, "=" | "range") -> consecutive qualifying
        #: windows.
        self._create_streaks: dict[tuple, int] = {}
        #: index name -> consecutive idle windows.
        self._idle_streaks: dict[str, int] = {}
        #: advisor-created indexes still alive: name -> (table, column).
        self.created: dict[str, tuple] = {}
        #: (table, column) pairs the advisor dropped — never recreated.
        self.scars: set[tuple] = set()
        self._cooldown_left = 0
        self.actions: list[dict] = []

    # -- evidence --------------------------------------------------------------------

    def _indexed_columns(self, table_name: str) -> set[str]:
        """Leading columns of every existing index on ``table_name``."""
        try:
            table = self.db.catalog.table(table_name)
        except Exception:  # noqa: BLE001 — table dropped mid-window
            return set()
        return {index.definition.columns[0]
                for index in table.indexes.values()}

    def _selective_enough(self, table_name: str, column: str,
                          kind: str) -> Optional[str]:
        """ANALYZE-based profitability check for the sighted predicate
        ``kind`` ("=" or "range"); returns the evidence string when the
        column qualifies, None otherwise (collecting statistics on
        demand the first time a table shows up)."""
        stats = self.db.catalog.stats_for(table_name)
        if stats is None:
            try:
                self.db.execute(f"ANALYZE {table_name}")
            except Exception:  # noqa: BLE001
                return None
            stats = self.db.catalog.stats_for(table_name)
            if stats is None:
                return None
        if stats.row_count < self.min_rows:
            return None
        column_stats = stats.column(column)
        if column_stats is None or \
                column_stats.n_distinct < self.min_ndv:
            return None
        # Ask the planner's own cost model whether it would *use* the
        # index: selectivity thresholds alone can justify an index the
        # optimizer then prices above a (cached) sequential scan, and a
        # built-but-never-probed index is the starved half of a
        # create/drop flap.  Both sides must agree before a build.
        from repro.data.sql.optimizer import (
            DEFAULT_RANGE_SELECTIVITY,
            CostModel,
        )
        model = CostModel(buffer_pages=getattr(
            self.db.pool, "capacity", 256))
        pages = max(stats.page_count, 1)
        # Range widths are not observed, only that ranges are asked:
        # price the textbook one-sided default.
        selectivity = 1.0 / max(column_stats.n_distinct, 1) \
            if kind == "=" else DEFAULT_RANGE_SELECTIVITY
        probe = model.index_scan(pages, stats.row_count,
                                 stats.row_count * selectivity,
                                 column_stats.correlation)
        scan = model.seq_scan(pages, stats.row_count)
        if probe >= scan:
            return None
        return (f"rows={stats.row_count} "
                f"ndv={column_stats.n_distinct} "
                f"correlation={column_stats.correlation:.2f} "
                f"cost={probe:.2f}<{scan:.2f}")

    # -- the decision step -----------------------------------------------------------

    def consider(self, window: WorkloadWindow) -> list[dict]:
        """Advance streaks with one observed window; maybe act.

        Returns the actions taken (also appended to ``self.actions``).
        At most one action per call — physical design changes are
        expensive enough to deserve a fresh window of evidence each.
        """
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            # Streaks still advance during cooldown observation-wise?
            # No: freezing them keeps "confirm consecutive windows"
            # meaningful relative to the post-action workload.
            return []
        self._advance_create_streaks(window)
        self._advance_idle_streaks(window)
        action = self._maybe_create() or self._maybe_drop(window)
        if action is not None:
            self.actions.append(action)
            self._cooldown_left = self.cooldown
            return [action]
        return []

    def _advance_create_streaks(self, window: WorkloadWindow) -> None:
        from repro.data.sql.optimizer import INTERVAL_OPS
        qualifying = set()
        for table_name, activity in window.tables.items():
            indexed = None   # lazily computed per table
            for (column, op), count in activity.predicates.items():
                # A two-sided range sights two ops per statement; each
                # op is thresholded on its own, so it counts once.
                kind = "=" if op == "=" \
                    else "range" if op in INTERVAL_OPS else None
                if kind is None or count < self.min_sightings:
                    continue
                if (table_name, column) in self.scars:
                    continue
                if indexed is None:
                    indexed = self._indexed_columns(table_name)
                if column in indexed:
                    continue
                qualifying.add((table_name, column, kind))
        for key in list(self._create_streaks):
            if key not in qualifying:
                del self._create_streaks[key]   # consecutive or nothing
        for key in qualifying:
            self._create_streaks[key] = \
                self._create_streaks.get(key, 0) + 1

    def _advance_idle_streaks(self, window: WorkloadWindow) -> None:
        for name, (table_name, _column) in self.created.items():
            activity = window.tables.get(table_name)
            probes = activity.index_probe_counts.get(name, 0) \
                if activity is not None else 0
            writes = activity.mutations if activity is not None else 0
            if probes == 0 and writes > 0:
                self._idle_streaks[name] = \
                    self._idle_streaks.get(name, 0) + 1
            else:
                self._idle_streaks.pop(name, None)

    def _maybe_create(self) -> Optional[dict]:
        if len(self.created) >= self.max_indexes:
            return None
        ready = [key for key, streak in self._create_streaks.items()
                 if streak >= self.confirm]
        for table_name, column, kind in sorted(ready):
            evidence = self._selective_enough(table_name, column, kind)
            if evidence is None:
                continue
            name = f"{ADVISOR_PREFIX}{table_name}_{column}"
            try:
                self.db.execute(
                    f"CREATE INDEX {name} ON {table_name} ({column})")
                self.db.execute(f"ANALYZE {table_name}")
            except Exception as exc:  # noqa: BLE001 — e.g. DDL race
                self._create_streaks.pop((table_name, column, kind),
                                         None)
                return {"at": time.time(), "action": "create_index",
                        "index": name, "table": table_name,
                        "column": column, "error": str(exc)}
            self._create_streaks.pop((table_name, column, kind), None)
            self.created[name] = (table_name, column)
            return {"at": time.time(), "action": "create_index",
                    "index": name, "table": table_name,
                    "column": column,
                    "trigger": f"{evidence} streak={self.confirm}"}
        return None

    def _maybe_drop(self, window: WorkloadWindow) -> Optional[dict]:
        for name, streak in sorted(self._idle_streaks.items(),
                                   key=lambda kv: -kv[1]):
            if streak < self.drop_after or name not in self.created:
                continue
            table_name, column = self.created[name]
            try:
                self.db.execute(f"DROP INDEX {name}")
            except Exception as exc:  # noqa: BLE001
                self._idle_streaks.pop(name, None)
                return {"at": time.time(), "action": "drop_index",
                        "index": name, "table": table_name,
                        "column": column, "error": str(exc)}
            del self.created[name]
            self._idle_streaks.pop(name, None)
            self.scars.add((table_name, column))
            return {"at": time.time(), "action": "drop_index",
                    "index": name, "table": table_name,
                    "column": column,
                    "trigger": f"idle_windows={streak} "
                               f"writes={window.tables[table_name].mutations}"}
        return None

    def stats(self) -> dict:
        return {
            "created": {name: list(key)
                        for name, key in sorted(self.created.items())},
            "scars": sorted(list(s) for s in self.scars),
            "pending": {f"{t}.{c}": streak for (t, c, _), streak
                        in sorted(self._create_streaks.items())},
            "cooldown_left": self._cooldown_left,
            "actions": len(self.actions),
        }
