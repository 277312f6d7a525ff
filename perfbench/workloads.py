"""Seeded inputs, timed operations and output checks of the benchmark.

``desk2d`` and ``solve3d`` run the flow a user of mildlab runs: probe data,
a cold ``smallness_check``, a rescale of the data to half the measured
threshold, a warm ``smallness_check`` and ``picard_solve``.  ``constants``
sweeps ``smallness_check`` over two ball samplings of one desk grid
geometry and runs no Picard iteration.

Only mildlab's public API is called.  Importing this module imports
mildlab, so the benchmark's set-up time includes it.
"""

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from mildlab.admissibility import ExponentSet
from mildlab.duhamel import ForceField
from mildlab.fields import gaussian, radial_homogeneous_force, solenoidal_gaussian
from mildlab.grids import Grid, TimeGrid
from mildlab.norms import BallSampling, x_space_norms
from mildlab.solver import SolverConfig, picard_solve, smallness_check
from mildlab.spectral import SpectralField
from mildlab.state import StateTuple

#: seed whose final X-norms and traces are stored in references.json
DEFAULT_SEED = 0
#: seed left out while the benchmark was tuned; later claims must also hold on it
HELD_OUT_SEED = 9001

#: (dim, points per axis, box half-width, stored times, quadrature nodes)
SOLVE_SPECS = {
    "desk2d": (2, 96, 16.0, 36, 32),
    "solve3d": (3, 32, 8.0, 24, 24),
}
CONSTANTS_SPEC = SOLVE_SPECS["desk2d"]
#: seeded data sets per ball sampling in one constants round
CONSTANTS_DATA_SETS = 3
#: the constants-table entries that do not depend on the data
TABLE_ENTRIES = ("C1", "C2", "C3", "C4_1", "C4_2", "C5_1", "C5_2", "C6", "C7",
                 "alpha", "beta", "K1", "K2", "epsilon")

REL_TOL = 1e-9
MASS_TOL = 1e-6
DIV_TOL = 1e-10


def exponents(dim):
    if dim == 2:
        return ExponentSet(N=2, gamma=0.0, p=4, q=3, r=4, p1=3, q1=9 / 4, r1=3, N1=2)
    return ExponentSet(N=3, gamma=0.0, p=4, q=3, r=4, p1=8 / 3, q1=2, r1=8 / 3, N1=2)


def seeded_data(grid, seed):
    """Offset Gaussian 4-tuple of unit amplitude.  The seed moves each
    centre by up to 0.15 and scales each width by up to 5 %; the offsets
    keep the advection products of the velocity from vanishing by symmetry."""
    rng = np.random.default_rng(seed)
    pad = (0.0,) * (grid.dim - 2)

    def centre(x, y):
        dx, dy = rng.uniform(-0.15, 0.15, size=2)
        return (x + dx, y + dy) + pad

    def width(a):
        return a * rng.uniform(0.95, 1.05)

    n0 = gaussian(grid, a=width(1.0), center=centre(1.0, -0.5))
    c0 = gaussian(grid, a=width(1.5), center=centre(-0.7, 0.6))
    v0 = SpectralField(grid, gaussian(grid, a=width(1.2), center=centre(0.4, 0.8)).coeffs,
                       pinned=True)
    u0 = solenoidal_gaussian(grid, a=width(1.0), center=centre(-1.1, 0.2)) \
        + solenoidal_gaussian(grid, a=width(1.3), amplitude=0.6, center=centre(0.9, 0.7))
    return StateTuple(0.0, n0, c0, v0, u0)


def scale_data(data, factor):
    return StateTuple(0.0, factor * data.n, factor * data.c,
                      SpectralField(data.grid, factor * data.v.coeffs, pinned=True),
                      factor * data.u)


def _config(spec):
    dim, m, half_width, times, nodes = spec
    grid = Grid(dim, m, half_width)
    exps = exponents(dim)
    time_grid = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, times)
    force = ForceField(radial_homogeneous_force(grid, amplitude=0.02, sigma_cells=2.0),
                       exps.N1)
    return SolverConfig(exps=exps, grid=grid, time_grid=time_grid, gamma=0.0,
                        quad_nodes=nodes, max_iters=50, tol=1e-8, force=force)


def coarse_sampling(grid):
    """Every second center and every second radius of the default
    sampling, keeping the largest radius so the global norm is still seen."""
    radii = BallSampling.default_for(grid).radii
    coarse = radii[::2] if len(radii) % 2 else radii[::2] + radii[-1:]
    return BallSampling(2, coarse)


@dataclass
class SolveCase:
    config: SolverConfig
    probe: StateTuple


@dataclass
class ConstantsRound:
    """One grid, one config per sampling, and the seeded data sets."""

    configs: dict
    data: list


def build(workload, seed):
    """Everything a run needs before the first timed call: grid, time
    grid, force, config and the seeded data."""
    if workload in SOLVE_SPECS:
        config = _config(SOLVE_SPECS[workload])
        return SolveCase(config, seeded_data(config.grid, seed))
    if workload == "constants":
        default = _config(CONSTANTS_SPEC)
        coarse = replace(default, sampling=coarse_sampling(default.grid))
        data = [seeded_data(default.grid, [seed, j]) for j in range(CONSTANTS_DATA_SETS)]
        return ConstantsRound({"default": default, "coarse": coarse}, data)
    raise ValueError(f"unknown workload {workload!r}")


@contextmanager
def _phase(tracer, name):
    with tracer.span(name) if tracer is not None else nullcontext():
        yield


def solve_flow(case, tracer=None):
    """The timed user flow from data in hand to a converged trajectory."""
    config = case.config
    with _phase(tracer, "solver.smallness_check.cold"):
        cold = smallness_check(case.probe, config)
    data = scale_data(case.probe, 0.5 * cold.delta / cold.data_norm)
    with _phase(tracer, "solver.smallness_check.warm"):
        warm = smallness_check(data, config)
    start = perf_counter()
    with _phase(tracer, "solver.picard_solve"):
        traj, trace = picard_solve(data, config, constants=warm)
    return {"data": data, "table": warm, "traj": traj, "trace": trace,
            "solve_s": perf_counter() - start}


def constants_table(config, data, cold, tracer=None):
    """One timed constants table; ``cold`` marks the first table of a
    (grid, sampling) pair, the one expected to fill the smoothing cache."""
    with _phase(tracer, "solver.smallness_check." + ("cold" if cold else "warm")):
        return smallness_check(data, config)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_solve(config, result, reference=None):
    """Every check of a solve, as a list of problems (empty when it passed)."""
    trace, traj, table, data = result["trace"], result["traj"], result["table"], result["data"]
    problems = []
    if not table.small_enough:
        problems.append("rescaled data is not below the smallness threshold")
    if not trace.converged or trace.diverged:
        problems.append(f"converged={trace.converged} diverged={trace.diverged}")
        return problems
    if not all(r < 1.0 for r in trace.ratios):
        problems.append(f"contraction ratio >= 1: {trace.ratios}")
    if not trace.final_residual <= config.tol * trace.x_norms[-1]:
        problems.append(f"final residual {trace.final_residual:.3e} above tol * ||x||")
    dim = traj.grid.dim
    masses = traj.n[(slice(None),) + (0,) * dim].real
    m0 = data.n.coeffs[(0,) * dim].real
    if not np.abs(masses - m0).max() <= MASS_TOL * abs(m0):
        problems.append("mass is not conserved")
    for k in (0, len(traj) // 2, len(traj) - 1):
        problems += [f"state {k}: {p}" for p in traj.state(k).validate(div_tol=DIV_TOL)]
    if not trace.x_norms[-1] <= 2.0 * table.k1 * trace.x_norms[0] * 1.1:
        problems.append("final X-norm leaves the ball of radius 2 K1 ||y||")
    recomputed = x_space_norms(traj, config.exps, config.sampling).total
    if _rel(recomputed, trace.x_norms[-1]) > REL_TOL:
        problems.append(f"X-norm of the returned trajectory {recomputed!r} differs "
                        f"from the trace's {trace.x_norms[-1]!r}")
    if reference is not None:
        problems += _check_reference(trace, reference)
    return problems


def _check_reference(trace, reference):
    """Iteration count exactly, X-norms to REL_TOL relative, and successive
    differences to REL_TOL of the final X-norm: the last differences sit
    near tol * ||x||, where round-off alone moves them by far more than
    REL_TOL of their own size."""
    problems = []
    if trace.iterations != reference["iterations"]:
        return [f"{trace.iterations} iterations, reference {reference['iterations']}"]
    for got, ref in zip(trace.x_norms, reference["x_norms"]):
        if _rel(got, ref) > REL_TOL:
            problems.append(f"X-norm {got!r} differs from reference {ref!r}")
    scale = reference["x_norms"][-1]
    for got, ref in zip(trace.diffs, reference["diffs"]):
        if abs(got - ref) > REL_TOL * scale:
            problems.append(f"difference {got!r} differs from reference {ref!r}")
    return problems


def table_entries(table):
    entries = table.as_dict()
    return {name: entries[name] for name in TABLE_ENTRIES}


def check_table(table, reference):
    """The data-independent entries against a reference table computed in
    a process of its own, plus a finite positive threshold."""
    problems = [f"{name} = {value!r}, reference {reference[name]!r}"
                for name, value in table_entries(table).items()
                if _rel(value, reference[name]) > REL_TOL]
    if not (table.delta > 0 and math.isfinite(table.delta)):
        problems.append(f"threshold delta = {table.delta!r}")
    return problems


def reference_table(sampling_name, seed):
    """The constants-table entries of one (grid, sampling) pair, computed
    on a fresh grid with nothing cached."""
    case = build("constants", seed)
    return table_entries(smallness_check(case.data[0], case.configs[sampling_name]))
