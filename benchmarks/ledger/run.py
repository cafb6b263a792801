"""Perf ledger entry point.

One workload, as the benchmark driver calls it (time-bounded)::

    python3 benchmarks/ledger/run.py --workload point_read_hot \\
        --seed 7 --seconds 8 --trace 0

prints ``workload metric value unit`` lines and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics.

The whole ledger (every workload, both passes, fixed statement counts so
every count repeats exactly; one process per workload)::

    python3 benchmarks/ledger/run.py --seed 7 [--append-history]

writes ``bench_results/ledger/result_seed<N>.json``.  Exit status is
non-zero on a wrong answer or a lost commit.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: the script's own directory would shadow the
    # standard library's ``trace``; import the package by name instead.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from ledger import harness, trace                  # noqa: E402
from ledger.workloads import WORKLOADS             # noqa: E402

RESULTS = ROOT / "bench_results" / "ledger"
HISTORY = Path(__file__).with_name("history.jsonl")
SMOKE_DIVISOR = 50


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _budget(workload, seconds: float | None, share: float = 1.0) -> dict:
    """How long ``measure`` runs: ``share`` of ``--seconds``, or of the
    workload's fixed statement count when no time is given."""
    if seconds is not None:
        return {"seconds": seconds * share}
    return {"statements": int(workload.statements * share)}


def run_workload(name: str, seed: int, *, traced: bool,
                 seconds: float | None = None, smoke: bool = False,
                 setups: int = 3, scratch: Path = RESULTS) -> dict:
    """One workload, one pass kind, in this process.  Returns the
    driver's result object (metrics as ``name -> value``)."""
    workload = WORKLOADS[name]
    if smoke:
        workload = workload.scaled(SMOKE_DIVISOR)
    if traced:
        return _traced_run(workload, seed, seconds, scratch,
                           write_trace=not smoke)
    setup_times = []
    for _ in range(setups - 1):
        spare = harness.build(workload, seed, scratch)
        setup_times.append(spare.setup_s)
        spare.close()
    with harness.session(workload, seed, scratch) as (env, oracle):
        setup_times.append(env.setup_s)
        m = harness.measure(env, oracle, **_budget(workload, seconds))
        failed = harness.verify(env, oracle, m)
    if workload.crash:
        failed += harness.crash_pass(workload, seed)["lost_acked_commits"]
    return {"correct": failed == 0, "attempted": m.statements,
            "failed": failed,
            "metrics": harness.end_to_end(
                m, statistics.median(setup_times))}


def _traced_run(workload, seed: int, seconds: float | None, scratch: Path,
                write_trace: bool) -> dict:
    """Untraced pass over a prefix of the stream, then a fresh set-up
    and the traced pass over exactly the same statements."""
    with harness.session(workload, seed, scratch) as (env, oracle):
        plain = harness.measure(
            env, oracle,
            shadow=env.db.execute if env.system is not None else None,
            **_budget(workload, seconds, harness.TRACE_SHARE))
        failed = harness.verify(env, oracle, plain)
    tracer = trace.Tracer()
    with harness.session(workload, seed, scratch) as (env, oracle):
        tracer.device_roles = {id(env.data): "data", id(env.wal): "wal"}
        with trace.installed(tracer):
            traced = harness.measure(env, oracle,
                                     statements=plain.statements,
                                     tracer=tracer)
        failed += harness.verify(env, oracle, traced)
    crash = crash_tracer = None
    if workload.crash:
        crash_tracer = trace.Tracer(keep_statements=0)
        crash = harness.crash_pass(workload, seed, crash_tracer)
        failed += crash["lost_acked_commits"]
    metrics = harness.per_layer(plain, traced, tracer, crash, crash_tracer)
    if write_trace:
        scratch.mkdir(parents=True, exist_ok=True)
        report = tracer.report()
        report.update(workload=workload.name, seed=seed,
                      statements=traced.statements,
                      self_time_share_of_execute=harness.attribution(tracer))
        (scratch / f"trace_{workload.name}.json").write_text(
            json.dumps(report))
    return {"correct": failed == 0,
            "attempted": plain.statements + traced.statements,
            "failed": failed, "metrics": metrics}


def emit(name: str, result: dict, units: dict) -> dict:
    """Print every metric by name with its unit, then the driver's JSON
    line.  A metric the contract does not name, or one it names that is
    missing, is a bug in the harness: refuse to report."""
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    shaped = dict(result, metrics={
        metric: {"value": value, "unit": units[metric]}
        for metric, value in metrics.items()})
    print(json.dumps(shaped))
    return shaped


def machine() -> dict:
    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def run_ledger(seed: int, seconds: float | None, smoke: bool,
               append_history: bool) -> int:
    """Every workload, each pass in its own process."""
    results: dict[str, dict] = {}
    ok = True
    for name in WORKLOADS:
        results[name] = {}
        for traced in (0, 1):
            command = [sys.executable, __file__, "--workload", name,
                       "--seed", str(seed), "--trace", str(traced)]
            if seconds is not None:
                command += ["--seconds", str(seconds)]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(command, text=True, capture_output=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{name} FAILED (trace {traced})")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            shaped = json.loads(lines[-1])
            ok = ok and shaped["correct"]
            results[name].update(shaped["metrics"])
            results[name]["attempted" if not traced
                          else "attempted_traced"] = shaped["attempted"]
            results[name]["failed" if not traced
                          else "failed_traced"] = shaped["failed"]
    row = {"commit": _git("rev-parse", "HEAD") or "unknown",
           "dirty": bool(_git("status", "--porcelain")),
           "date": datetime.date.today().isoformat(), "seed": seed,
           "mode": "smoke" if smoke
           else "fixed" if seconds is None else f"{seconds}s",
           "machine": machine(), "results": results}
    RESULTS.mkdir(parents=True, exist_ok=True)
    target = RESULTS / f"result_seed{seed}.json"
    target.write_text(json.dumps(row, indent=1) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    if append_history and ok and not smoke:
        with HISTORY.open("a") as handle:
            handle.write(json.dumps(row) + "\n")
        print(f"appended to {HISTORY.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="time-bounded measured phase (driver mode); "
                             "without it, fixed statement counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 of the rows and statements")
    parser.add_argument("--append-history", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_ledger(args.seed, args.seconds, args.smoke,
                          args.append_history)
    spec = contract()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = run_workload(args.workload, args.seed, traced=bool(args.trace),
                          seconds=args.seconds, smoke=args.smoke)
    emit(args.workload, result, {m["name"]: m["unit"] for m in listed})
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
