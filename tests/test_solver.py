"""Caloric extension, the integral map, Picard convergence, and the
constants bookkeeping."""

import math

import numpy as np
import pytest

from mildlab.grids import Grid, TimeGrid
from mildlab.spectral import SpectralField, VectorField, heat_apply, damped_heat_apply, \
    spectral_divergence_defect
from mildlab.fields import gaussian, solenoidal_gaussian, radial_homogeneous_force
from mildlab.state import StateTuple, Trajectory
from mildlab.duhamel import (bilinear_B, linear_L, ForceField, ConstantsTable,
                             integrand_spectrum, ALL_TAGS)
from mildlab.norms import x_space_norms
from mildlab.solver import (SolverConfig, caloric_extension, picard_map, picard_solve,
                            smallness_check, measured_constants)

from conftest import exponents_2d, exponents_3d, gaussian_data, scale_data


@pytest.fixture(scope="module")
def small_grid():
    return Grid(2, 48, 10.0)


@pytest.fixture(scope="module")
def small_config(small_grid):
    tg = TimeGrid.spanning(small_grid.spacing ** 2, 25.0, 24)
    return SolverConfig(exps=exponents_2d(), grid=small_grid, time_grid=tg,
                        gamma=0.0, quad_nodes=16, max_iters=30, tol=1e-7)


def test_caloric_zero_data(small_grid, small_config):
    traj = caloric_extension(StateTuple.zero(small_grid), 0.0, small_config.time_grid)
    assert max(np.abs(traj.n).max(), np.abs(traj.c).max(),
               np.abs(traj.v).max(), np.abs(traj.u).max()) == 0.0


def test_caloric_constant_oxygen(small_grid, small_config):
    c0 = SpectralField.from_physical(small_grid, np.ones(small_grid.shape))
    data = StateTuple(0.0, SpectralField.zero(small_grid), c0,
                      SpectralField.zero(small_grid, pinned=True),
                      VectorField.zero(small_grid))
    traj = caloric_extension(data, 0.7, small_config.time_grid)
    for k in (0, len(traj) - 1):
        st = traj.state(k)
        assert np.abs(st.c.to_physical() - 1.0).max() < 1e-13
        assert np.abs(st.n.coeffs).max() == 0.0 and np.abs(st.v.coeffs).max() == 0.0


def test_caloric_damps_attractant(small_grid, small_config):
    v0 = SpectralField(small_grid, gaussian(small_grid, a=1.0).coeffs, pinned=True)
    data = StateTuple(0.0, SpectralField.zero(small_grid), SpectralField.zero(small_grid),
                      v0, VectorField.zero(small_grid))
    gamma = 0.9
    traj = caloric_extension(data, gamma, small_config.time_grid)
    t = traj.times[5]
    expected = damped_heat_apply(v0, t, gamma)
    assert np.abs(traj.v[5] - expected.coeffs).max() < 1e-14 * np.abs(expected.coeffs).max()


def test_caloric_projects_nonsolenoidal_with_warning(small_grid, small_config):
    bad_u = VectorField([gaussian(small_grid, a=1.0), gaussian(small_grid, a=2.0)])
    data = StateTuple(0.0, SpectralField.zero(small_grid), SpectralField.zero(small_grid),
                      SpectralField.zero(small_grid, pinned=True), bad_u)
    with pytest.warns(UserWarning, match="projecting"):
        traj = caloric_extension(data, 0.0, small_config.time_grid)
    assert spectral_divergence_defect(traj.state(0).u) < 1e-12


def test_picard_map_zero_everything(small_grid, small_config):
    zero_traj = Trajectory.zero(small_grid, small_config.time_grid.times)
    out = picard_map(zero_traj, StateTuple.zero(small_grid), small_config)
    assert max(np.abs(out.n).max(), np.abs(out.c).max(),
               np.abs(out.v).max(), np.abs(out.u).max()) == 0.0


def test_picard_map_zero_trajectory_returns_caloric(small_grid, small_config):
    data = scale_data(gaussian_data(small_grid), 0.01)
    caloric = caloric_extension(data, 0.0, small_config.time_grid)
    zero_traj = Trajectory.zero(small_grid, small_config.time_grid.times)
    out = picard_map(zero_traj, data, small_config)
    assert np.array_equal(out.n, caloric.n)
    assert np.array_equal(out.c, caloric.c)
    assert np.array_equal(out.v, caloric.v)
    assert np.array_equal(out.u, caloric.u)


def test_picard_map_matches_per_operator_path(small_grid):
    # the solver interpolates integrand samples; the public per-operator
    # path interpolates the state: on a dense caloric trajectory the two
    # agree to interpolation accuracy
    exps = exponents_2d()
    tg = TimeGrid.spanning(0.01, 10.0, 41)
    config = SolverConfig(exps=exps, grid=small_grid, time_grid=tg, gamma=0.0,
                          quad_nodes=24, max_iters=5, tol=1e-6)
    data = scale_data(gaussian_data(small_grid), 0.05)
    caloric = caloric_extension(data, 0.0, tg)
    mapped = picard_map(caloric, data, config)
    k = 30
    t = tg.times[k]

    def state_at(tau):
        return StateTuple(tau, heat_apply(data.n, tau), heat_apply(data.c, tau),
                          damped_heat_apply(data.v, tau, 0.0), heat_apply(data.u, tau))

    total = caloric.n[k].copy()
    for tag in ("B141", "B112", "B113"):
        total = total + bilinear_B(tag, state_at, t, exps, node_count=24).coeffs
    err = np.abs(mapped.n[k] - total).max() / np.abs(total).max()
    assert err < 2e-2


def reference_picard_map(traj, data, config):
    """The per-node quadrature the weight operator replaces: each stored
    state's integrand spectrum from the public per-state kernel,
    interpolated linearly in log t at every Gauss-Jacobi node (clamped to
    the stored span), times the node factor, the damping and the heat
    multiplier of the lag."""
    grid = config.grid
    times = config.time_grid.times
    log_times = np.log(times)
    rules = config.rules()
    out = caloric_extension(data, config.gamma, config.time_grid)
    target = {"B141": out.n, "B112": out.n, "B113": out.n, "B242": out.c, "B212": out.c,
              "B343": out.v, "L3": out.v, "B444": out.u, "L4": out.u}
    tags = ALL_TAGS if config.force is not None else ALL_TAGS[:-1]
    store = {tag: np.stack([integrand_spectrum(tag, traj.state(k), config.force)
                            for k in range(len(traj))]) for tag in tags}

    def lerp(arr, tau):
        if tau <= times[0]:
            return arr[0]
        if tau >= times[-1]:
            return arr[-1]
        j = int(np.searchsorted(times, tau, side="right")) - 1
        theta = (math.log(tau) - log_times[j]) / (log_times[j + 1] - log_times[j])
        return (1.0 - theta) * arr[j] + theta * arr[j + 1]

    for kk, t in enumerate(times):
        for tag in tags:
            rule = rules[tag]
            gamma = config.gamma if tag in ("B343", "L3") else 0.0
            acc = 0.0
            for z, w in zip(rule.nodes, rule.weights):
                s = t - t * z
                scale = t * w * (1.0 - z) ** rule.a * z ** rule.b * math.exp(-gamma * s)
                acc = acc + scale * np.exp(-s * grid.k2) * lerp(store[tag], t * z)
            target[tag][kk] += acc
    out.v[(slice(None),) + (0,) * grid.dim] = 0.0
    return out


def _map_config(grid, gamma, force_amplitude, nodes):
    exps = exponents_2d(gamma) if grid.dim == 2 else exponents_3d(gamma)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 10)
    force = None
    if force_amplitude:
        force = ForceField(radial_homogeneous_force(grid, amplitude=force_amplitude), exps.N1)
    return SolverConfig(exps=exps, grid=grid, time_grid=tg, gamma=gamma,
                        quad_nodes=nodes, force=force)


@pytest.mark.parametrize("dim, m, gamma, force_amplitude", [
    (2, 32, 0.7, 0.5),
    (2, 32, 0.7, 0.0),
    (3, 16, 0.0, 0.5),
])
def test_picard_map_matches_per_node_reference(dim, m, gamma, force_amplitude):
    grid = Grid(dim, m, 4.0)
    config = _map_config(grid, gamma, force_amplitude, nodes=12)
    data = gaussian_data(grid)
    # a generic (non-caloric) input: the caloric extension mapped once
    traj = picard_map(caloric_extension(data, gamma, config.time_grid), data, config)
    caloric = caloric_extension(data, gamma, config.time_grid)
    mapped = picard_map(traj, data, config)
    expected = reference_picard_map(traj, data, config)
    for name in ("n", "c", "v", "u"):
        # compare the Duhamel part alone, so the caloric rows cannot mask it
        duhamel = getattr(expected, name) - getattr(caloric, name)
        err = np.abs(getattr(mapped, name) - getattr(expected, name)).max()
        assert np.abs(duhamel).max() > 0
        assert err <= 1e-13 * np.abs(duhamel).max(), name


def test_picard_map_checks_every_stored_velocity(small_grid, small_config):
    data = scale_data(gaussian_data(small_grid), 0.01)
    traj = caloric_extension(data, 0.0, small_config.time_grid)
    bad = gaussian(small_grid, a=1.0).coeffs
    traj.u[3, 0] += 1e-3 * bad * np.abs(traj.u[3]).max() / np.abs(bad).max()
    with pytest.raises(ValueError, match="not solenoidal"):
        picard_map(traj, data, small_config)


def test_config_rejects_force_on_another_grid(small_grid, small_config):
    other = Grid(2, 32, 10.0)
    force = ForceField(radial_homogeneous_force(other, amplitude=0.1), 2)
    with pytest.raises(ValueError, match=r"m=32.*m=48|m=48.*m=32"):
        SolverConfig(exps=exponents_2d(), grid=small_grid,
                     time_grid=small_config.time_grid, force=force)


def test_picard_solve_zero_data_converges_in_one(small_grid, small_config):
    traj, trace = picard_solve(StateTuple.zero(small_grid), small_config)
    assert trace.converged and trace.iterations == 1
    assert np.abs(traj.n).max() == 0.0


def test_picard_solve_small_data_contracts(small_solve_2d):
    trace = small_solve_2d["trace"]
    assert trace.converged and not trace.diverged
    assert trace.iterations <= 50
    assert all(r < 1.0 for r in trace.ratios)
    # geometric decay: the mean ratio bounds the tail product
    assert trace.diffs[-1] < trace.diffs[0]
    assert trace.final_residual <= small_solve_2d["config"].tol * trace.x_norms[-1]


def test_converged_ball_bound(small_solve_2d):
    # ||x|| <= 2 K1 ||y|| (ball invariance), with 10% headroom
    table = small_solve_2d["table"]
    config = small_solve_2d["config"]
    data = small_solve_2d["data"]
    caloric = caloric_extension(data, config.gamma, config.time_grid)
    y_norm = x_space_norms(caloric, config.exps).total
    x_norm = x_space_norms(small_solve_2d["traj"], config.exps).total
    assert x_norm <= 2 * table.k1 * y_norm * 1.1


def test_mass_conservation_along_converged(small_solve_2d):
    traj = small_solve_2d["traj"]
    zero = (slice(None),) + (0,) * traj.grid.dim
    masses = traj.n[zero].real
    m0 = small_solve_2d["data"].n.coeffs[(0,) * traj.grid.dim].real
    assert np.abs(masses - m0).max() <= 1e-6 * abs(m0)


def test_converged_states_wellformed(small_solve_2d):
    traj = small_solve_2d["traj"]
    for k in (0, len(traj) // 2, len(traj) - 1):
        assert traj.state(k).validate(div_tol=1e-10) == []


def test_divergence_reported_for_large_data(small_grid, small_config):
    data = scale_data(gaussian_data(small_grid), 2e3)
    traj, trace = picard_solve(data, small_config)
    assert trace.diverged and not trace.converged
    assert len(trace.diffs) >= 1


def test_constants_k1_reduces_to_one():
    bil = {name: 0.5 for name in ("C1", "C2", "C3", "C4_1", "C4_2", "C5_1", "C5_2",
                                  "C6", "C7")}
    table = ConstantsTable.assemble(bil, alpha=0.0, beta=0.0, c0=1.0, data_norm=0.0)
    assert table.k1 == 1.0


def test_doubling_force_doubles_beta(small_grid, small_config):
    from mildlab.fields import radial_homogeneous_force
    exps = exponents_2d()
    f1 = ForceField(radial_homogeneous_force(small_grid, amplitude=0.1), exps.N1)
    f2 = ForceField(radial_homogeneous_force(small_grid, amplitude=0.2), exps.N1)
    cfg1 = SolverConfig(exps=exps, grid=small_grid, time_grid=small_config.time_grid,
                        force=f1)
    cfg2 = SolverConfig(exps=exps, grid=small_grid, time_grid=small_config.time_grid,
                        force=f2)
    c1 = measured_constants(cfg1, n_fields=3)
    c2 = measured_constants(cfg2, n_fields=3)
    assert abs(c2["beta"] - 2 * c1["beta"]) < 1e-9 * c1["beta"]
    t1 = ConstantsTable.assemble({k: c1[k] for k in c1 if k not in ("alpha", "beta")},
                                 c1["alpha"], c1["beta"], 1.0)
    t2 = ConstantsTable.assemble({k: c2[k] for k in c2 if k not in ("alpha", "beta")},
                                 c2["alpha"], c2["beta"], 1.0)
    assert t2.k1 > t1.k1 and t2.k2 > t1.k2


def test_smallness_zero_data(small_grid, small_config):
    table = smallness_check(StateTuple.zero(small_grid), small_config, n_fields=3)
    assert math.isnan(table.c0)
    assert table.small_enough


def test_caloric_c0_stable_under_time_refinement(small_solve_2d):
    from mildlab.norms import data_norm_I
    config = small_solve_2d["config"]
    data = small_solve_2d["data"]
    c0s = []
    for count in (36, 72):
        tg = TimeGrid.spanning(config.time_grid.t0, config.time_grid.times[-1], count)
        caloric = caloric_extension(data, config.gamma, tg)
        c0s.append(x_space_norms(caloric, config.exps).total
                   / data_norm_I(data, config.exps, time_grid=tg))
    assert abs(c0s[1] - c0s[0]) / c0s[0] < 0.05


def test_lipschitz_data_dependence(small_solve_2d):
    from mildlab.fields import bump
    config = small_solve_2d["config"]
    data = small_solve_2d["data"]
    base_traj = small_solve_2d["traj"]
    grid = small_solve_2d["grid"]
    table = small_solve_2d["table"]
    lams = []
    for eta in (0.01, 0.005):
        pert = bump(grid, radius=2.0, amplitude=eta * table.delta, center=(2.0, 1.0))
        data2 = StateTuple(0.0, data.n + pert, data.c, data.v, data.u)
        traj2, trace2 = picard_solve(data2, config)
        assert trace2.converged
        cal1 = caloric_extension(data, config.gamma, config.time_grid)
        cal2 = caloric_extension(data2, config.gamma, config.time_grid)
        dy = x_space_norms(cal2 - cal1, config.exps).total
        dx = x_space_norms(traj2 - base_traj, config.exps).total
        lams.append(dx / dy)
    assert all(np.isfinite(lams))
    assert abs(lams[1] - lams[0]) / lams[0] < 0.10


def test_small_data_3d_solve():
    # the paper's main case, N = 3, end to end at half the measured threshold
    grid = Grid(3, 16, 4.0)
    exps = exponents_3d()
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 12)
    force = ForceField(radial_homogeneous_force(grid, amplitude=0.02, sigma_cells=2.0),
                       exps.N1)
    config = SolverConfig(exps=exps, grid=grid, time_grid=tg, quad_nodes=12, force=force)
    probe = gaussian_data(grid)
    table = smallness_check(probe, config)
    data = scale_data(probe, 0.5 * table.delta / table.data_norm)
    traj, trace = picard_solve(data, config)
    assert trace.converged and not trace.diverged
    assert all(r < 1.0 for r in trace.ratios)
    masses = traj.n[(slice(None), 0, 0, 0)].real
    m0 = data.n.coeffs[0, 0, 0].real
    assert np.abs(masses - m0).max() <= 1e-6 * abs(m0)
    for k in (0, len(traj) // 2, len(traj) - 1):
        assert traj.state(k).validate(div_tol=1e-10) == []
