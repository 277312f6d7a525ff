"""The benchmark's wrap points and workloads: every layer that
``perfbench/tracing.py`` wraps must still resolve to a callable, or a
traced run silently loses it, and every workload of
``perfbench/workloads.py`` must still build, or a keyword it passes that
the package no longer takes fails only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from mildlab.duhamel import ForceField
from mildlab.fields import radial_homogeneous_force
from mildlab.grids import Grid, TimeGrid
from mildlab.solver import SolverConfig, measured_constants, picard_solve, smallness_check

from conftest import exponents_2d, gaussian_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    # loaded under a private name and without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return _load(monkeypatch, "tracing")


@pytest.mark.parametrize("workload", ["desk2d", "solve3d", "constants"])
def test_every_benchmark_workload_builds(monkeypatch, workload):
    # builds the configs and seeded data a run times, with every keyword
    # (gamma=, quad_nodes=, pinned=, ...) the harness passes
    case = _load(monkeypatch, "workloads").build(workload, 0)
    configs = case.configs.values() if workload == "constants" else [case.config]
    assert all(isinstance(config, SolverConfig) for config in configs)


def test_every_benchmark_target_resolves(tracing):
    assert tracing.TARGETS
    missing = [f"{module}.{path}" for module, path, _ in tracing.TARGETS
               if tracing._resolve(module, path) is None]
    assert missing == []


def test_cold_smoothing_span_has_morrey_children(tracing):
    # the traced hit ratio counts a smoothing call as a miss only when a
    # Morrey norm runs under its span
    exps = exponents_2d()
    grid = Grid(2, 8, 4.0)
    config = SolverConfig(exps=exps, grid=grid, time_grid=TimeGrid.spanning(0.1, 1.0, 4),
                          force=ForceField(radial_homogeneous_force(grid), exps.N1))
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.operation(0):
        measured_constants(config, n_fields=1)
    spans = tracer.spans
    parents = {spans[parent][0] for name, _, _, parent, *_ in spans
               if name == "norms.morrey_norm" and parent >= 0}
    assert "norms.smoothing_constant" in parents


def test_every_benchmark_target_records_a_span(tracing):
    # a wrap point the flow no longer calls through would read 0 in a traced run
    exps = exponents_2d()
    grid = Grid(2, 16, 4.0)
    config = SolverConfig(exps=exps, grid=grid, quad_nodes=4, max_iters=3,
                          time_grid=TimeGrid.spanning(grid.spacing ** 2, 4.0, 6),
                          force=ForceField(radial_homogeneous_force(grid, amplitude=0.02), exps.N1))
    data = gaussian_data(grid, amplitude=0.01)
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.operation(0):
        smallness_check(data, config, n_fields=1)
        picard_solve(data, config)
    assert tracer.absent == []
    recorded = {name for name, *_ in tracer.spans}
    assert [name for _, _, name in tracing.TARGETS if name not in recorded] == []
