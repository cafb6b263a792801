"""Compare two sets of ledger results, metric by metric.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py --base A1.json A2.json A3.json \\
                                         --new B1.json B2.json B3.json

Inputs are the ``result_seed<N>.json`` files ``run.py`` writes (or rows
cut from ``history.jsonl``).  Each side's median is compared; every
ratio is printed with its base.  Verdicts: ``better | worse | same |
unresolved`` (the sides' own run-to-run spread is wider than the bound,
so nothing can be said); ``-`` for a per-layer metric, which has no
bound.  Exit status 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Bounds for the resource metrics the contract cannot hold end-to-end
#: (they are exactly 0 on some workloads).  With fixed statement counts
#: they are exact counts, so the bounds are tight.
LAYER_BOUNDS = {
    "wal_bytes_per_commit": 0.01, "fsyncs_per_commit": 0.01,
    "data_reads_per_stmt": 0.01, "data_writes_per_stmt": 0.01,
    "recovery_s": 0.10, "lost_acked_commits": 0.0, "failed_frac": 0.0,
}


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the first and third quartile (for two or three values, the range)."""
    centre = statistics.median(values)
    if len(values) < 2 or not centre:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (min(high, max(values)) - max(low, min(values))) / abs(centre)


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> str:
    if bound is None:
        return "-"
    b, n = statistics.median(base), statistics.median(new)
    if b:
        change = (n - b) / abs(b)
    else:
        change = 0.0 if n == b else math.copysign(math.inf, n - b)
    worsening = change if better == "lower" else -change
    noise = max(spread(base), spread(new))
    if noise > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -noise:
        return "better"
    return "same"


def _load(paths: list[str]) -> dict:
    """``workload -> metric -> [values]`` over all files of one side."""
    merged: dict[str, dict[str, list]] = {}
    for path in paths:
        results = json.loads(Path(path).read_text())["results"]
        for workload, metrics in results.items():
            for metric, entry in metrics.items():
                if isinstance(entry, dict):
                    merged.setdefault(workload, {}).setdefault(
                        metric, []).append(entry["value"])
    return merged


def compare(base_paths: list[str], new_paths: list[str]) -> list[tuple]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = dict(LAYER_BOUNDS)
    bounds.update({m["name"]: m["bound"] for m in spec["end_to_end"]})
    base, new = _load(base_paths), _load(new_paths)
    rows = []
    for workload in base:
        for metric, base_values in base[workload].items():
            new_values = new.get(workload, {}).get(metric)
            if not new_values or metric not in better:
                continue
            b = statistics.median(base_values)
            n = statistics.median(new_values)
            rows.append((workload, metric, b, n,
                         f"{n / b:.4f}x of {b:.6g}" if b else "n/a",
                         bounds.get(metric),
                         verdict(base_values, new_values, better[metric],
                                 bounds.get(metric))))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    if len(args.files) == 2 and not args.base and not args.new:
        args.base, args.new = [args.files[0]], [args.files[1]]
    if not args.base or not args.new or (args.files and len(args.files) != 2):
        parser.error("give BASE.json NEW.json, or --base ... --new ...")
    rows = compare(args.base, args.new)
    print(f"{'workload':18s} {'metric':38s} {'base':>12s} {'new':>12s} "
          f"{'ratio (with base)':>26s} {'bound':>6s} verdict")
    for workload, metric, b, n, ratio, bound, outcome in rows:
        shown = "-" if bound is None else f"{bound:g}"
        print(f"{workload:18s} {metric:38s} {b:12.6g} {n:12.6g} "
              f"{ratio:>26s} {shown:>6s} {outcome}")
    worse = sum(row[-1] == "worse" for row in rows)
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"{worse} worse, {unresolved} unresolved, "
          f"{sum(row[-1] == 'better' for row in rows)} better")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
