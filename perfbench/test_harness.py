"""Self-checks of the benchmark harness (about two minutes):

    python3 -m pytest -q perfbench

They show that the counters of a traced run repeat exactly, that the
untimed output checks leave no span, that an untraced run has no wrapper
installed while it measures, and that BENCHMARK.json matches what the
runs report.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

#: counters that must repeat exactly between two traced runs of one seed
COUNTERS = ("solver.fft_per_map", "norms.morrey_per_solve", "norms.morrey_norm.conv_per_call",
            "solver.picard_iterations", "norms.smoothing_constant.hit_ratio",
            "grids.fft.bytes_computed", "grids.fft.flops_computed", "trace.spans_per_op")


def _subprocess_run(trace, workload="desk2d", seed=0):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.fixture(scope="module")
def traced_pair():
    return [_subprocess_run(1) for _ in range(2)]


def test_counters_repeat_exactly(traced_pair):
    (_, first), (_, second) = traced_pair
    names = [n for n in first["metrics"] if n.endswith(".calls")] + list(COUNTERS)
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["norms.morrey_per_solve"]["value"] == 1296
    assert first["correct"] and first["failed"] == 0


def test_checks_leave_no_span(traced_pair):
    detail, result = traced_pair[0]
    # the checks recompute the final X-norm through the wrapped morrey_norm ...
    assert detail["check_untimed_calls"] > 0
    # ... yet a solve still counts 4 iterations' worth of Morrey norms, not 144 more
    assert result["metrics"]["norms.morrey_per_solve"]["value"] == 1296
    for spans_file in detail["spans_files"]:
        spans = json.loads((ROOT / spans_file).read_text())["spans"]
        roots = {row[4]: row for row in spans if row[3] == -1}
        assert sorted(roots) == [0]
        for name, start, end, parent, op, *_ in spans:
            assert roots[op][1] <= start <= end <= roots[op][2]


def _wrappers_seen(trace, monkeypatch):
    """Run a constants worker in this process; for each operation, the
    targets that carried a wrapper while it ran."""
    workloads = run.import_workloads()
    seen = []
    table = workloads.constants_table

    def probe(*args):
        seen.append(tracing.wrapped_targets())
        return table(*args)

    monkeypatch.setattr(workloads, "constants_table", probe)
    references = {name: dict.fromkeys(workloads.TABLE_ENTRIES, 1.0)
                  for name in ("default", "coarse")}
    record = run.worker("constants", 0, trace, references, "in-process")
    assert len(seen) == len(record["ops"]) > 0
    return seen


def test_untraced_run_installs_no_wrapper(monkeypatch):
    assert all(wrapped == [] for wrapped in _wrappers_seen(0, monkeypatch))
    # the probe sees the wrappers when they are there
    assert all(len(wrapped) == len(tracing.TARGETS) for wrapped in _wrappers_seen(1, monkeypatch))
    assert tracing.wrapped_targets() == []


def test_untraced_run_reports_every_end_to_end_metric():
    _, result = _subprocess_run(0, workload="constants")
    assert list(result["metrics"]) == [m["name"] for m in _benchmark()["end_to_end"]]
    ok = result["attempted"] - result["failed"]
    assert result["metrics"]["ok_frac"]["value"] == ok / result["attempted"]
    assert result["correct"] == (result["failed"] == 0)


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_layer_map_matches_benchmark(traced_pair):
    layers = json.loads((HERE / "layers.json").read_text())
    assert _benchmark()["per_layer"] == [
        {key: m[key] for key in ("name", "unit", "better")} for m in layers]
    _, result = traced_pair[0]
    assert list(result["metrics"]) == [m["name"] for m in layers]
