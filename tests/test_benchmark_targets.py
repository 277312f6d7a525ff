"""The benchmark's wrap points: every layer that ``perfbench/tracing.py``
wraps must still resolve to a callable, or a traced run silently loses it."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_benchmark_target_resolves(monkeypatch):
    # loaded under a private name and without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module}.{path}" for module, path, _ in tracing.TARGETS
               if tracing._resolve(module, path) is None]
    assert missing == []
