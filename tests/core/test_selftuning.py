"""The self-tuning kernel: observe → decide → act over engine knobs.

PR 10 wires the paper's adaptation architecture through every runtime
switch: a delta-windowed workload observer, a typed knob registry with
safe online apply/revert, reactive selection policies hardened by
hysteresis + cooldowns in the knob adaptation engine, and an index
advisor that creates/drops secondary indexes from ANALYZE statistics
plus observed predicates.  These tests pin down:

- **Observer** — consecutive cumulative snapshots diff into delta
  windows; history is bounded; merged windows sum deltas and keep
  end-of-window gauges.
- **Registry** — typed validation, online apply, revert, no-op on
  unchanged values, and the adaptive-transition surface.
- **Policies** — each proposes the documented value on a synthetic
  window and stays silent without evidence.
- **Hysteresis** — one-window blips never change a knob; confirmed
  streaks do, cooldowns then freeze the knob.
- **Advisor** — creates only with both evidence kinds, never flaps
  (scars), drops only its own idle indexes.
- **Database surface** — ``adaptive=True`` end-to-end: decision log,
  per-class engines, EXPLAIN's adaptive rows, snapshot-consistent
  ``stats()``.
"""

import random
import threading

import pytest

from repro.core.adaptation import KnobAdaptationEngine
from repro.core.advisor import IndexAdvisor
from repro.core.knobs import Knob, KnobRegistry, build_registry
from repro.core.observe import (
    ClassActivity,
    TableActivity,
    WorkloadObserver,
    WorkloadWindow,
    merge_windows,
)
from repro.core.selection import (
    BufferPolicySelection,
    ExecutionEngineSelection,
    KnobProposal,
    LockGranularitySelection,
    PlanCacheSizeSelection,
    VacuumPacingSelection,
)
from repro.data import Database
from repro.errors import AdaptationError


# -- synthetic snapshot / window builders ------------------------------------------


def snapshot(at=0.0, statements=0, tables=None, classes=None,
             buffer=(0, 0), plan_cache=(0, 0, 0, 0, 128),
             lock_waits=0, vacuum=(0, 0)):
    """A Database.counters()-shaped cumulative snapshot."""
    return {
        "at": at,
        "statements": statements,
        "tables": tables or {},
        "classes": classes or {},
        "buffer": {"hits": buffer[0], "misses": buffer[1]},
        "plan_cache": {"hits": plan_cache[0], "misses": plan_cache[1],
                       "evictions": plan_cache[2],
                       "size": plan_cache[3],
                       "capacity": plan_cache[4]},
        "lock_waits": lock_waits,
        "vacuum": {"runs": vacuum[0], "versions_reclaimed": vacuum[1]},
    }


def table_counters(seq_scans=0, index_probes=0, mutations=0,
                   row_count=0, dead_versions=0, predicates=None,
                   indexes=None):
    return {"seq_scans": seq_scans, "index_probes": index_probes,
            "mutations": mutations, "row_count": row_count,
            "dead_versions": dead_versions,
            "predicates": predicates or {},
            "indexes": indexes or {}}


def window(tables=None, classes=None, **kwargs):
    win = WorkloadWindow(started=0.0, ended=1.0,
                         tables=tables or {}, classes=classes or {})
    for key, value in kwargs.items():
        setattr(win, key, value)
    return win


# -- the observer ------------------------------------------------------------------


class TestWorkloadObserver:
    def test_first_sample_is_empty_baseline(self):
        observer = WorkloadObserver(lambda: snapshot(at=5.0))
        first = observer.sample()
        assert first.statements == 0
        assert first.reads == 0
        assert observer.samples == 1

    def test_windows_are_deltas_not_cumulative(self):
        snaps = iter([
            snapshot(at=0.0, statements=10, tables={
                "t": table_counters(seq_scans=4, index_probes=6,
                                    mutations=2, row_count=100)}),
            snapshot(at=1.0, statements=25, tables={
                "t": table_counters(seq_scans=5, index_probes=20,
                                    mutations=3, row_count=101)}),
        ])
        observer = WorkloadObserver(lambda: next(snaps))
        observer.sample()
        win = observer.sample()
        assert win.statements == 15
        activity = win.tables["t"]
        assert activity.seq_scans == 1
        assert activity.index_probes == 14
        assert activity.mutations == 1
        assert activity.row_count == 101      # gauge, not delta
        assert win.scan_bias == pytest.approx(1 / 15)

    def test_predicate_and_class_deltas(self):
        snaps = iter([
            snapshot(at=0.0, tables={
                "t": table_counters(predicates={("grp", "="): 5})},
                classes={"point": {"vectorized": (10, 1.0)}}),
            snapshot(at=1.0, tables={
                "t": table_counters(predicates={("grp", "="): 12,
                                                ("id", "<"): 2})},
                classes={"point": {"vectorized": (14, 1.8)}}),
        ])
        observer = WorkloadObserver(lambda: next(snaps))
        observer.sample()
        win = observer.sample()
        assert win.tables["t"].predicates == {("grp", "="): 7,
                                              ("id", "<"): 2}
        activity = win.classes["point"]
        assert activity.by_engine["vectorized"] == (4,
                                                    pytest.approx(0.8))
        assert activity.mean_latency_s("vectorized") == \
            pytest.approx(0.2)

    def test_history_is_bounded_and_merge_sums(self):
        state = {"n": 0}

        def source():
            state["n"] += 1
            return snapshot(at=float(state["n"]),
                            statements=state["n"] * 10)

        observer = WorkloadObserver(source, history=4)
        for _ in range(10):
            observer.sample()
        assert len(observer.windows) == 4
        merged = observer.window(3)
        assert merged.statements == 30

    def test_merge_keeps_last_gauges(self):
        first = window(tables={"t": TableActivity(seq_scans=2,
                                                  row_count=50)})
        second = window(tables={"t": TableActivity(seq_scans=3,
                                                   row_count=80)})
        merged = merge_windows([first, second])
        assert merged.tables["t"].seq_scans == 5
        assert merged.tables["t"].row_count == 80


# -- the knob registry -------------------------------------------------------------


class TestKnobRegistry:
    def make(self):
        state = {"mode": "a", "size": 10}
        registry = KnobRegistry()
        registry.register(Knob(
            "mode", "enum", getter=lambda: state["mode"],
            setter=lambda v: state.__setitem__("mode", v),
            choices=("a", "b")))
        registry.register(Knob(
            "size", "int", getter=lambda: state["size"],
            setter=lambda v: state.__setitem__("size", v),
            bounds=(1, 100)))
        return registry, state

    def test_set_applies_and_records(self):
        registry, state = self.make()
        transition = registry.set("mode", "b", reason="test",
                                  source="adaptive")
        assert state["mode"] == "b"
        assert transition.old == "a" and transition.new == "b"
        assert registry.transitions(source="adaptive")[0]["knob"] == \
            "mode"
        assert registry.adaptive_values() == {"mode": "b"}

    def test_unchanged_value_is_a_noop(self):
        registry, _ = self.make()
        assert registry.set("mode", "a") is None
        assert registry.transitions() == []

    def test_validation_rejects_out_of_domain(self):
        registry, state = self.make()
        with pytest.raises(AdaptationError):
            registry.set("mode", "z")
        with pytest.raises(AdaptationError):
            registry.set("size", 0)
        with pytest.raises(AdaptationError):
            registry.set("size", None)
        with pytest.raises(AdaptationError):
            registry.set("missing", 1)
        assert state == {"mode": "a", "size": 10}

    def test_failed_apply_restores_old_value(self):
        state = {"value": 1}

        def setter(v):
            if v > 5:
                raise RuntimeError("boom")
            state["value"] = v

        registry = KnobRegistry()
        registry.register(Knob("k", "int",
                               getter=lambda: state["value"],
                               setter=setter))
        with pytest.raises(RuntimeError):
            registry.set("k", 9)
        assert state["value"] == 1
        assert registry.transitions() == []

    def test_revert_restores_previous_value(self):
        registry, state = self.make()
        registry.set("size", 50)
        registry.set("size", 80)
        registry.revert("size")
        assert state["size"] == 50
        assert registry.revert("mode") is None   # never changed


# -- selection policies on synthetic windows ---------------------------------------


class TestSelectionPolicies:
    def test_buffer_policy_scan_heavy_proposes_mru(self):
        policy = BufferPolicySelection()
        win = window(tables={"t": TableActivity(seq_scans=90,
                                                index_probes=10)},
                     buffer_hits=30, buffer_misses=70)
        (proposal,) = policy.propose(win)
        assert proposal == KnobProposal(
            "buffer_policy", "mru",
            "scan_bias=0.90 buffer_hit_rate=0.30")

    def test_buffer_policy_point_heavy_proposes_lru(self):
        policy = BufferPolicySelection()
        win = window(tables={"t": TableActivity(seq_scans=10,
                                                index_probes=90)})
        (proposal,) = policy.propose(win)
        assert proposal.value == "lru"

    def test_buffer_policy_quiet_without_traffic(self):
        win = window(tables={"t": TableActivity(seq_scans=10)})
        assert BufferPolicySelection().propose(win) == []

    def test_engine_analytic_share_proposes_vectorized(self):
        policy = ExecutionEngineSelection()
        win = window(classes={
            "analytic": ClassActivity({"row": (20, 2.0)})})
        (proposal,) = policy.propose(win)
        assert proposal.knob == "engine.analytic"
        assert proposal.value == "vectorized"

    def test_engine_measured_picks_faster_with_enough_samples(self):
        policy = ExecutionEngineSelection()
        win = window(classes={"point": ClassActivity(
            {"vectorized": (20, 2.0), "row": (20, 1.0)})})
        (proposal,) = policy.propose(win)
        assert proposal == KnobProposal(
            "engine.point", "row", "row=50000us vectorized=100000us")

    def test_engine_needs_both_engines_sampled(self):
        policy = ExecutionEngineSelection()
        win = window(classes={"point": ClassActivity(
            {"vectorized": (40, 4.0)})})
        assert policy.propose(win) == []

    def test_lock_granularity_contention_proposes_row(self):
        win = window(tables={"t": TableActivity(mutations=10)},
                     lock_waits=6)
        (proposal,) = LockGranularitySelection().propose(win)
        assert proposal.value == "row"
        assert LockGranularitySelection().propose(
            window(lock_waits=6)) == []   # waits without writes

    def test_vacuum_pacing_tightens_and_relaxes(self):
        dirty = window(tables={"t": TableActivity(
            row_count=600, dead_versions=400)})
        (proposal,) = VacuumPacingSelection().propose(dirty)
        assert proposal.value == pytest.approx(0.1)
        clean = window(tables={"t": TableActivity(
            row_count=1000, index_probes=50)})
        (proposal,) = VacuumPacingSelection().propose(clean)
        assert proposal.value == pytest.approx(0.4)

    def test_plan_cache_grows_on_evictions_shrinks_when_empty(self):
        policy = PlanCacheSizeSelection()
        thrash = window(plan_cache_hits=30, plan_cache_misses=70,
                        plan_cache_evictions=40, plan_cache_size=128,
                        plan_cache_capacity=128)
        (proposal,) = policy.propose(thrash)
        assert proposal.value == 256
        idle = window(plan_cache_hits=100, plan_cache_misses=1,
                      plan_cache_size=10, plan_cache_capacity=256)
        (proposal,) = policy.propose(idle)
        assert proposal.value == 128
        assert policy.propose(window()) == []


# -- hysteresis in the adaptation engine -------------------------------------------


class FixedPolicy:
    name = "fixed"

    def __init__(self):
        self.proposals = []

    def propose(self, _window):
        return list(self.proposals)


class TestKnobAdaptationEngine:
    def make(self, confirm=2, cooldown=3):
        state = {"mode": "a"}
        registry = KnobRegistry()
        registry.register(Knob(
            "mode", "enum", getter=lambda: state["mode"],
            setter=lambda v: state.__setitem__("mode", v),
            choices=("a", "b", "c")))
        observer = WorkloadObserver(lambda: snapshot())
        policy = FixedPolicy()
        engine = KnobAdaptationEngine(
            None, observer, registry, policies=[policy],
            confirm=confirm, cooldown=cooldown)
        return engine, policy, state

    def test_single_window_blip_never_applies(self):
        engine, policy, state = self.make(confirm=2)
        policy.proposals = [KnobProposal("mode", "b", "blip")]
        engine.step()
        policy.proposals = []
        engine.step()
        policy.proposals = [KnobProposal("mode", "b", "blip")]
        engine.step()                      # streak restarted at 1
        assert state["mode"] == "a"
        assert engine.changes == 0

    def test_confirmed_streak_applies_and_logs(self):
        engine, policy, state = self.make(confirm=2)
        policy.proposals = [KnobProposal("mode", "b", "t=1")]
        engine.step()
        decisions = engine.step()
        assert state["mode"] == "b"
        assert len(decisions) == 1
        entry = decisions[0]
        assert entry["knob"] == "mode"
        assert entry["old"] == "a" and entry["new"] == "b"
        assert entry["policy"] == "fixed"
        assert entry["trigger"] == "t=1"
        assert entry["at"] > 0

    def test_cooldown_freezes_the_knob(self):
        engine, policy, state = self.make(confirm=1, cooldown=3)
        policy.proposals = [KnobProposal("mode", "b", "t")]
        engine.step()
        assert state["mode"] == "b"
        policy.proposals = [KnobProposal("mode", "c", "t")]
        engine.step()
        engine.step()
        assert state["mode"] == "b"        # still cooling
        engine.step()                      # cooldown expired
        engine.step()
        assert state["mode"] == "c"

    def test_value_flip_resets_the_streak(self):
        engine, policy, state = self.make(confirm=2)
        policy.proposals = [KnobProposal("mode", "b", "t")]
        engine.step()
        policy.proposals = [KnobProposal("mode", "c", "t")]
        engine.step()
        assert state["mode"] == "a"


# -- the index advisor -------------------------------------------------------------


def seeded_db(rows=400, groups=100, val=float, **config):
    db = Database(**config)
    db.execute("CREATE TABLE items (id INT PRIMARY KEY, grp INT, "
               "val FLOAT)")
    db.executemany("INSERT INTO items VALUES (?, ?, ?)",
                   [(i, i % groups, val(i)) for i in range(rows)])
    return db


def mixed_stream(rows, groups, count, seed):
    """A seeded blend over :func:`seeded_db`'s table: PK and ``grp``
    probes, PK ranges, a grouped aggregate, and single-row writes."""
    rng = random.Random(seed)
    next_id = rows
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            yield "SELECT * FROM items WHERE id = ?", (rng.randrange(rows),)
        elif roll < 0.45:
            yield ("SELECT * FROM items WHERE grp = ?",
                   (rng.randrange(groups),))
        elif roll < 0.60:
            lo = rng.randrange(rows)
            yield ("SELECT id, val FROM items WHERE id > ? AND id < ?",
                   (lo, lo + 50))
        elif roll < 0.75:
            yield ("SELECT grp, COUNT(*), AVG(val) FROM items "
                   "GROUP BY grp", ())
        elif roll < 0.85:
            next_id += 1
            yield ("INSERT INTO items VALUES (?, ?, ?)",
                   (next_id, rng.randrange(groups), 1.0))
        elif roll < 0.95:
            yield ("UPDATE items SET val = val + 1 WHERE id = ?",
                   (rng.randrange(rows),))
        else:
            yield ("DELETE FROM items WHERE id = ?",
                   (rng.randrange(rows, next_id + 1),))


class TestIndexAdvisor:
    def hot_window(self, sightings=20):
        return window(tables={"items": TableActivity(
            predicates={("grp", "="): sightings})})

    def test_creates_after_confirmed_streak(self):
        db = seeded_db()
        advisor = IndexAdvisor(db, confirm=2, cooldown=0)
        assert advisor.consider(self.hot_window()) == []
        (action,) = advisor.consider(self.hot_window())
        assert action["action"] == "create_index"
        assert action["index"] == "adaptive_ix_items_grp"
        assert "rows=400" in action["trigger"]
        names = {index for index
                 in db.catalog.table("items").indexes}
        assert "adaptive_ix_items_grp" in names
        db.close()

    def test_no_create_without_statistics_evidence(self):
        db = seeded_db(rows=50)            # below min_rows
        advisor = IndexAdvisor(db, confirm=1, cooldown=0)
        assert advisor.consider(self.hot_window()) == []
        assert advisor.created == {}
        db.close()

    def test_interrupted_streak_resets(self):
        db = seeded_db()
        advisor = IndexAdvisor(db, confirm=2, cooldown=0)
        advisor.consider(self.hot_window())
        advisor.consider(window())         # cold window
        advisor.consider(self.hot_window())
        assert advisor.created == {}
        db.close()

    def test_drop_then_scar_prevents_flapping(self):
        db = seeded_db()
        advisor = IndexAdvisor(db, confirm=1, cooldown=0,
                               drop_after=2)
        advisor.consider(self.hot_window())
        assert "adaptive_ix_items_grp" in advisor.created
        idle = window(tables={"items": TableActivity(mutations=5)})
        advisor.consider(idle)
        (action,) = advisor.consider(idle)
        assert action["action"] == "drop_index"
        assert advisor.created == {}
        assert ("items", "grp") in advisor.scars
        # The same evidence again: scarred, never recreated.
        for _ in range(5):
            advisor.consider(self.hot_window())
        assert advisor.created == {}
        db.close()

    def test_idle_without_writes_is_free(self):
        db = seeded_db()
        advisor = IndexAdvisor(db, confirm=1, cooldown=0,
                               drop_after=1)
        advisor.consider(self.hot_window())
        advisor.consider(window())         # idle but read-only table
        assert "adaptive_ix_items_grp" in advisor.created
        db.close()

    def test_unselective_column_fails_the_planner_cost_gate(self):
        # ndv clears min_ndv, but each group matches ~50 rows: the
        # planner would price the probe above a cached seq scan and
        # never use the index, so the advisor must not build it.
        db = seeded_db(groups=8)
        advisor = IndexAdvisor(db, confirm=1, cooldown=0)
        assert advisor.consider(self.hot_window()) == []
        assert advisor.created == {}
        db.close()

    def test_existing_index_suppresses_create(self):
        db = seeded_db()
        db.execute("CREATE INDEX ix_grp ON items (grp)")
        advisor = IndexAdvisor(db, confirm=1, cooldown=0)
        assert advisor.consider(self.hot_window()) == []
        db.close()

    def range_window(self, sightings=20):
        return window(tables={"items": TableActivity(
            predicates={("val", ">"): sightings,
                        ("val", "<"): sightings})})

    def test_range_sightings_index_a_clustered_column(self):
        # val rises with heap order: a range of it is a run of pages.
        db = seeded_db(rows=2000)
        advisor = IndexAdvisor(db, confirm=1, cooldown=0)
        (action,) = advisor.consider(self.range_window())
        assert action["index"] == "adaptive_ix_items_val"
        assert "correlation=1.00" in action["trigger"]
        db.close()

    def test_range_sightings_skip_a_shuffled_column(self):
        # The same values scattered over the heap: one page per match,
        # so the planner would never walk the index for a range.
        db = seeded_db(rows=2000, val=lambda i: float(i * 149 % 2000))
        advisor = IndexAdvisor(db, confirm=1, cooldown=0)
        assert advisor.consider(self.range_window()) == []
        assert advisor.created == {}
        db.close()


# -- Database integration ----------------------------------------------------------


class TestAdaptiveDatabase:
    def test_counters_contract(self):
        db = seeded_db()
        db.execute("SELECT * FROM items WHERE grp = 3")
        counters = db.counters()
        assert counters["statements"] == db.statements_executed
        items = counters["tables"]["items"]
        assert items["row_count"] == 400
        assert items["predicates"].get(("grp", "="), 0) >= 1
        assert "point" in counters["classes"]
        assert counters["vacuum"]["runs"] >= 0
        db.close()

    def test_knob_registry_drives_live_engine(self):
        db = seeded_db()
        db.knobs.set("buffer_policy", "mru")
        assert db.pool.policy.name == "mru"
        db.knobs.set("engine.point", "row")
        assert db.engine_for("point") == "row"
        assert db.engine_for("analytic") == "vectorized"
        result = db.execute("EXPLAIN SELECT * FROM items WHERE id = 1")
        assert ("exec", "row") in result.rows
        db.knobs.revert("engine.point")
        assert db.engine_for("point") == "vectorized"
        db.knobs.set("plan_cache_size", 2)
        assert db._plan_cache.capacity == 2
        db.close()

    def test_engine_knob_invalidates_cached_plans(self):
        db = seeded_db()
        sql = "SELECT * FROM items WHERE id = 5"
        baseline = db.execute(sql).rows
        assert db.execute(sql).plan["cached"] == "hit"
        db.knobs.set("engine.point", "row")
        result = db.execute(sql)
        assert result.rows == baseline
        assert result.plan["cached"] == "miss"   # old-engine plan gone
        db.close()

    def test_adaptive_database_logs_observable_decisions(self):
        db = Database(adaptive=True, adapt_every=20)
        db.execute("CREATE TABLE items (id INT PRIMARY KEY, grp INT, "
                   "val FLOAT)")
        for i in range(400):
            db.execute("INSERT INTO items VALUES (?, ?, ?)",
                       (i, i % 100, float(i)))
        for i in range(200):
            db.execute("SELECT * FROM items WHERE grp = ?", (i % 100,))
        adaptation = db.stats()["adaptation"]
        assert adaptation["steps"] > 0
        assert adaptation["changes"] >= 1
        for decision in adaptation["log"]:
            assert decision["at"] > 0
            assert "knob" in decision
            assert "trigger" in decision or "error" in decision
        created = adaptation["advisor"]["created"]
        assert "adaptive_ix_items_grp" in created
        rows = db.execute(
            "EXPLAIN SELECT * FROM items WHERE grp = 1").rows
        assert any(kind == "adaptive" for kind, _ in rows) or \
            not db.knobs.adaptive_values()
        db.close()

    def test_advisor_converges_without_flapping_on_a_mixed_stream(self):
        statements = list(mixed_stream(rows=500, groups=100, count=600,
                                       seed=13))

        def replay(db):
            selects = []
            for sql, params in statements:
                if not sql.startswith("SELECT"):
                    db.execute(sql, params)
                    continue
                selects.append(sorted(
                    tuple(round(c, 6) if isinstance(c, float) else c
                          for c in row) for row in db.query(sql, params)))
            return selects

        static = seeded_db(rows=500)
        adaptive = seeded_db(rows=500, adaptive=True, adapt_every=50)
        # Tuning may change plans, never answers.
        assert replay(adaptive) == replay(static)
        static.close()

        advisor = adaptive.autotuner.advisor
        assert "adaptive_ix_items_grp" in advisor.created, advisor.stats()
        # Converged: one create per profitable column, then silence.
        kinds = [action["action"] for action in advisor.actions]
        assert kinds.count("create_index") == len(advisor.created)
        assert "drop_index" not in kinds
        assert not any("error" in action for action in advisor.actions)
        assert not advisor.scars
        for decision in adaptive.stats()["adaptation"]["log"]:
            assert {"knob", "policy", "trigger", "at"} <= set(decision)
            assert {"old", "new"} <= set(decision) or "action" in decision
        adaptive.close()

    def test_adaptive_decisions_revert_cleanly(self):
        db = Database(adaptive=True, adapt_every=10)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, float(i)))
        db.knobs.set("vacuum_dead_fraction", 0.1, source="adaptive")
        assert db.knobs.adaptive_values() == \
            {"vacuum_dead_fraction": 0.1}
        db.knobs.revert("vacuum_dead_fraction")
        assert db.vacuum_manager.dead_fraction == pytest.approx(0.2)
        db.close()

    def test_no_adaptation_inside_explicit_transactions(self):
        db = Database(adaptive=True, adapt_every=1)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("BEGIN")
        steps_before = db.autotuner.steps
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?)", (i,))
        assert db.autotuner.steps == steps_before
        db.execute("COMMIT")
        db.execute("SELECT * FROM t WHERE id = 1")
        assert db.autotuner.steps > steps_before
        db.close()

    def test_stats_snapshot_is_consistent_under_writes(self):
        db = seeded_db()
        stop = threading.Event()
        errors = []

        def writer():
            i = 400
            while not stop.is_set():
                try:
                    db.execute("INSERT INTO items VALUES (?, ?, ?)",
                               (i, i % 10, float(i)))
                    db.execute("DELETE FROM items WHERE id = ?", (i,))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                summary = db.stats()
                # Iterating the nested dicts must never race a writer
                # (RuntimeError: dict changed size during iteration)
                # and mutating the copy must not leak back.
                for report in summary["vacuum"]["tables"].values():
                    dict(report)
                summary["vacuum"]["tables"].clear()
                assert "knobs" in summary
        finally:
            stop.set()
            thread.join()
        assert not errors
        assert db.vacuum_manager.stats()["tables"] is not None
        db.close()

    def test_per_class_timings_feed_the_observer(self):
        db = Database(adaptive=True, adapt_every=1000)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
        for i in range(30):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, float(i)))
        for i in range(20):
            db.execute("SELECT * FROM t WHERE id = ?", (i,))
        db.execute("SELECT COUNT(*), AVG(v) FROM t")
        win = db.observer.sample()
        assert win.classes["dml"].count == 30
        assert win.classes["point"].count == 20
        assert win.classes["analytic"].count == 1
        assert win.classes["point"].time_s > 0
        db.close()
