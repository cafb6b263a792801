"""The perf ledger attributes time by wrapping engine entry points named
in ``benchmarks/ledger/trace.py``.  A target it cannot find is skipped
(listed under ``missing_targets`` in the trace file) and its layer's
columns silently read 0 — so renaming a traced method must fail here,
in tier-1, not in somebody's benchmark comparison a week later."""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_every_traced_entry_point_resolves_on_the_engine():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    targets = importlib.import_module("benchmarks.ledger.trace").TARGETS
    missing = []
    for _, module_name, class_name, names in targets:
        module = importlib.import_module(module_name)
        holder = module if class_name is None \
            else getattr(module, class_name, None)
        for name in names:
            # Same rule as the tracer: defined on the holder itself (an
            # inherited method would be patched on the wrong class) and a
            # plain function it can wrap.
            found = None if holder is None else vars(holder).get(name)
            if not inspect.isfunction(found):
                missing.append(
                    f"{module_name}:{class_name or '<module>'}.{name}")
    assert not missing, f"ledger trace targets not on the engine: {missing}"
