"""Fast self-test of the perf ledger (tier-1; smoke sizes, in-process)."""

from __future__ import annotations

import json

import pytest

from ledger import compare, run, trace
from ledger.oracle import Oracle, rows_equal
from ledger.workloads import WORKLOADS, Stmt, Stream

SPEC = run.contract()
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _exact(name: str, unit: str) -> bool:
    """Metrics that are counts or ratios of counts: with one client and
    no timers they must repeat to the last digit."""
    if name == "trace.overhead_frac":
        return False
    return unit in ("count", "B", "ratio") or name == "disk.sim_ssd_s"


def test_contract_names_the_workloads_and_is_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert not set(END_TO_END) & set(PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_is_correct_complete_and_repeatable(name, tmp_path,
                                                      capsys):
    before = trace.originals()
    runs = {}
    for traced, units in ((False, END_TO_END), (True, PER_LAYER)):
        first, second = (
            run.run_workload(name, 11, traced=traced, smoke=True,
                             setups=1, scratch=tmp_path)
            for _ in range(2))
        runs[traced] = first
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(units)
        for metric, unit in units.items():
            if _exact(metric, unit):
                assert first["metrics"][metric] == \
                    second["metrics"][metric], metric
        # Each metric is printed exactly once, with its unit.
        shaped = run.emit(name, first, units)
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[-1]) == shaped
        printed = [line.split() for line in lines[:-1]]
        assert sorted(p[1] for p in printed) == sorted(units)
        assert all(p[0] == name and p[3] == units[p[1]] for p in printed)
    assert all(value > 0 for value in runs[False]["metrics"].values())
    if WORKLOADS[name].read_only:
        layers = runs[True]["metrics"]
        assert layers["wal_bytes_per_commit"] == 0
        assert layers["disk.wal.writes"] == layers["disk.wal.flushes"] == 0
    if WORKLOADS[name].crash:
        assert runs[True]["metrics"]["lost_acked_commits"] == 0
        assert runs[True]["metrics"]["recovery.redo_records"] > 0
    # Wrappers are gone: every target is the very function it was.
    after = trace.originals()
    assert before and before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    from repro.data import database
    from repro.data.sql import parser
    assert database.parse is parser.parse
    assert not list(tmp_path.iterdir())     # device files cleaned up


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stream_depends_on_the_seed_and_only_on_it(name):
    workload = WORKLOADS[name].scaled(run.SMOKE_DIVISOR)
    same = [Stream(workload, 11).take(200) for _ in range(2)]
    assert same[0] == same[1]
    assert Stream(workload, 12).take(200) != same[0]
    assert Stream(workload, 12).rows != Stream(workload, 11).rows


def test_oracle_flags_an_altered_row_and_a_wrong_count():
    rows = [(1, 3, "abcdefgh", 10.5), (2, 4, "ijklmnop", 20.25)]
    point = Stmt("point", "SELECT * FROM items WHERE id = ?", (2,))
    update = Stmt("update",
                  "UPDATE items SET value = value + 1 WHERE id = ?", (1,))

    class Result:
        def __init__(self, rows=None, affected=None):
            self.rows, self.affected = rows, affected

    oracle = Oracle(rows, ())
    assert oracle.check([point], [Result(rows=[rows[1]])]) == 0
    altered = (2, 4, "ijklmnop", 20.26)
    assert oracle.check([point], [Result(rows=[altered])]) == 1
    assert oracle.check([point], [Result(rows=[])]) == 1
    assert oracle.check([point], [ValueError("raised")]) == 1
    assert oracle.check([update], [Result(affected=1)]) == 0
    assert oracle.check([update], [{"operation": "update",
                                    "affected": 0}]) == 1
    oracle.close()
    # Floats compare at rel-tol 1e-9; order only matters when asked.
    assert rows_equal([(1, 0.1 + 0.2)], [(1, 0.3)], ordered=True)
    assert not rows_equal([(1, 0.3001)], [(1, 0.3)], ordered=True)
    assert rows_equal([(2,), (1,)], [(1,), (2,)], ordered=False)
    assert not rows_equal([(2,), (1,)], [(1,), (2,)], ordered=True)


def test_compare_verdicts():
    assert compare.verdict([100.0], [100.5], "lower", 0.07) == "same"
    assert compare.verdict([100.0], [110.0], "lower", 0.07) == "worse"
    assert compare.verdict([100.0], [110.0], "higher", 0.07) == "better"
    assert compare.verdict([100.0], [90.0], "higher", 0.07) == "worse"
    assert compare.verdict([0.0], [1.0], "lower", 0.0) == "worse"
    assert compare.verdict([0.0], [0.0], "lower", 0.0) == "same"
    # The sides' own spread exceeds the bound: nothing can be said.
    assert compare.verdict([90.0, 100.0, 112.0], [100.0, 101.0, 99.0],
                           "lower", 0.07) == "unresolved"
    assert compare.verdict([1.0], [2.0], "lower", None) == "-"
