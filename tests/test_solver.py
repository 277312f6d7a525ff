"""Caloric extension, the integral map, Picard convergence, and the
constants bookkeeping."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from mildlab.grids import Grid, TimeGrid
from mildlab.spectral import SpectralField, VectorField, heat_apply, damped_heat_apply, \
    leray_project, divergence_defects
from mildlab.fields import gaussian, radial_homogeneous_force
from mildlab.state import StateTuple, Trajectory
from mildlab.admissibility import suggest_subindices, operator_table
from mildlab.duhamel import ForceField, ConstantsTable, ALL_TAGS, constant_bound, rule_exponents
from mildlab.norms import BallSampling, MorreyIndex, x_space_norms, smoothing_constant
from mildlab.solver import (SolverConfig, caloric_extension, picard_map, picard_solve,
                            smallness_check, measured_constants)

from conftest import (exponents_2d, exponents_3d, gaussian_data, scale_data,
                      integrand_spectrum, node_quadrature)


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
                      SpectralField.zero(small_grid),
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
    bad_u = VectorField.from_components([gaussian(small_grid, a=1.0), gaussian(small_grid, a=2.0)])
    data = StateTuple(0.0, SpectralField.zero(small_grid), SpectralField.zero(small_grid),
                      SpectralField.zero(small_grid), bad_u)
    with pytest.warns(UserWarning, match="projecting"):
        traj = caloric_extension(data, 0.0, small_config.time_grid)
    assert divergence_defects(small_grid, traj.state(0).u.coeffs) < 1e-12


def test_nonsolenoidal_data_warns_once_per_map_and_once_per_solve(small_grid, small_config):
    bad_u = VectorField.from_components([gaussian(small_grid, a=1.0), gaussian(small_grid, a=2.0)])
    base = gaussian_data(small_grid)
    data = scale_data(StateTuple(0.0, base.n, base.c, base.v, bad_u), 0.01)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = caloric_extension(data, 0.0, small_config.time_grid)
        out = picard_map(traj, data, small_config)
    assert [str(w.message).endswith("projecting") for w in caught] == [True, True]
    projected = StateTuple(0.0, data.n, data.c, data.v, leray_project(data.u))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.array_equal(picard_map(traj, projected, small_config).u, out.u)
    assert caught == []
    config = dataclasses.replace(small_config, max_iters=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, trace = picard_solve(data, config)
    assert trace.iterations >= 1
    assert [str(w.message).endswith("projecting") for w in caught] == [True]


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
    # the solver interpolates integrand samples in log t; the per-node
    # oracle evaluates each integrand at the exact caloric state of its
    # node: on a dense caloric trajectory the two agree to interpolation
    # accuracy
    exps = exponents_2d()
    tg = TimeGrid.spanning(0.01, 10.0, 41)
    config = SolverConfig(exps=exps, grid=small_grid, time_grid=tg, gamma=0.0,
                          quad_nodes=24, max_iters=5, tol=1e-6)
    data = scale_data(gaussian_data(small_grid), 0.05)
    caloric = caloric_extension(data, 0.0, tg)
    mapped = picard_map(caloric, data, config)
    k = 30

    def state_at(tau):
        return StateTuple(tau, heat_apply(data.n, tau), heat_apply(data.c, tau),
                          damped_heat_apply(data.v, tau, 0.0), heat_apply(data.u, tau))

    expected = reference_picard_map(caloric, data, config, state_at=state_at, rows=[k])
    for name in ("n", "c", "v", "u"):
        # relative to the Duhamel part alone, so the caloric row cannot mask it
        got, want = getattr(mapped, name)[k], getattr(expected, name)[k]
        duhamel = want - getattr(caloric, name)[k]
        assert np.abs(got - want).max() / np.abs(duhamel).max() < 2e-2, name


def reference_picard_map(traj, data, config, state_at=None, rows=None):
    """The per-node quadrature the weight operator replaces, on the
    test-local integrand oracle.  Without ``state_at``, each stored state's
    integrand is interpolated linearly in log t at every Gauss-Jacobi node
    (clamped to the stored span); with it, the oracle is evaluated at the
    state ``state_at(tau)`` of each node instead.  Only the output ``rows``
    (default all) get their Duhamel terms; the others stay caloric."""
    grid = config.grid
    times = config.time_grid.times
    log_times = np.log(times)
    rules = config.rules()
    out = caloric_extension(data, config.gamma, config.time_grid)
    target = {"B141": out.n, "B112": out.n, "B113": out.n, "B242": out.c, "B212": out.c,
              "B343": out.v, "L3": out.v, "B444": out.u, "L4": out.u}
    tags = ALL_TAGS if config.force is not None else ALL_TAGS[:-1]
    if state_at is None:
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

    for kk in range(len(times)) if rows is None else rows:
        for tag in tags:
            if state_at is None:
                integrand_at = lambda tau: lerp(store[tag], tau)
            else:
                integrand_at = lambda tau: integrand_spectrum(tag, state_at(tau), config.force)
            gamma = config.gamma if tag in ("B343", "L3") else 0.0
            target[tag][kk] += node_quadrature(grid, rules[tag], times[kk], integrand_at, gamma)
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


def _forced_map_case(exps):
    """An 8-point grid with a force, the data's caloric trajectory over 6
    stored times, and the data."""
    grid = Grid(exps.N, 8, 4.0)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 6)
    force = ForceField(radial_homogeneous_force(grid, amplitude=0.5), exps.N1)
    config = SolverConfig(exps=exps, grid=grid, time_grid=tg, gamma=exps.gamma,
                          quad_nodes=4, force=force)
    data = gaussian_data(grid)
    return config, caloric_extension(data, exps.gamma, tg), data


@pytest.mark.parametrize("exps, groups", [
    # {B141, B112, B113}, {B242}, {B212}, {B343, B444}, {L3, L4}
    (exponents_2d(), 5),
    (exponents_3d(), 5),
    # the damped B343 and L3 split from B444 and L4
    (exponents_2d(0.7), 7),
    (exponents_3d(0.7), 7),
    # {B141}, {B112, B113}, {B242}, {B212}, {B343}, {B444, L4}, {L3}
    (suggest_subindices(3, 0.0, 5, 2.5, 4), 7),
], ids=["2d", "3d", "2d-damped", "3d-damped", "3d-p5-q2.5-r4"])
def test_picard_map_builds_one_weight_matrix_per_group(exps, groups, monkeypatch):
    import mildlab.solver as solver

    config, traj, data = _forced_map_case(exps)
    built_at = []
    build = solver._duhamel_weights

    def counted(t, *args):
        built_at.append(t)
        return build(t, *args)

    monkeypatch.setattr(solver, "_duhamel_weights", counted)
    picard_map(traj, data, config)
    # one build per group and output time
    assert sorted(built_at) == sorted(list(config.time_grid.times) * groups)


@pytest.mark.parametrize("exps, per_time", [
    # B141 + B112 + B113 transform one flux per axis: 2 dim forwards fewer
    (exponents_2d(), 19),
    (exponents_3d(), 28),
    # B141 keeps its own flux, B112 + B113 share one
    (suggest_subindices(3, 0.0, 5, 2.5, 4), 31),
], ids=["2d", "3d", "3d-p5-q2.5-r4"])
def test_picard_map_transforms_per_stored_time(exps, per_time, monkeypatch):
    config, traj, data = _forced_map_case(exps)
    fields = []
    for name in ("forward", "backward"):
        real = getattr(Grid, name)

        def counted(grid, values, real=real):
            # a batched call transforms every field of its leading axes
            fields.append(math.prod(values.shape[:-grid.dim]))
            return real(grid, values)

        monkeypatch.setattr(Grid, name, counted)
    picard_map(traj, data, config)
    # the force goes to physical space once per map, one transform per axis
    assert sum(fields) == per_time * len(traj) + exps.N


@pytest.mark.parametrize("exps", [
    exponents_2d(), exponents_3d(), exponents_2d(0.7), exponents_3d(0.7),
    suggest_subindices(3, 0.0, 5, 2.5, 4),
], ids=["2d", "3d", "2d-damped", "3d-damped", "3d-p5-q2.5-r4"])
def test_picard_map_builds_weights_on_the_shells_a_group_reads(exps, monkeypatch):
    import mildlab.solver as solver

    config, traj, data = _forced_map_case(exps)
    grid = config.grid
    built = []
    build = solver._duhamel_weights

    def recorded(t, rule, gamma, times, k2_shells):
        built.append(((rule.a, rule.b), gamma, len(k2_shells)))
        return build(t, rule, gamma, times, k2_shells)

    monkeypatch.setattr(solver, "_duhamel_weights", recorded)
    picard_map(traj, data, config)
    l3_group = (rule_exponents("L3", exps), exps.gamma)
    all_shells = len(np.unique(grid.k2))
    product_shells = len(np.unique(grid.k2[grid.dealias_mask]))
    assert product_shells < all_shells
    for exponents, gamma, shells in built:
        expected = all_shells if (exponents, gamma) == l3_group else product_shells
        assert shells == expected, (exponents, gamma)
    assert sum(shells == all_shells for _, _, shells in built) == len(traj)


@pytest.mark.parametrize("exps", [exponents_2d(), exponents_3d()], ids=["2d", "3d"])
def test_measured_constants_equal_each_request_alone(exps):
    config, _, _ = _forced_map_case(exps)
    table = measured_constants(config, n_fields=2)
    sup_targets = 0
    for name, row in operator_table(exps).items():
        # a fresh grid of the same geometry measures each request from an empty cache
        grid = Grid(exps.N, config.grid.m, config.grid.box_half_width)
        request = {name: (MorreyIndex(*row.source), MorreyIndex(*row.target), row.gradient)}
        alone = smoothing_constant(grid, request, n_fields=2)[name]
        assert table[name] == constant_bound(name, exps, config.force) * alone, name
        sup_targets += math.isinf(row.target[0])
    assert sup_targets == 2


def test_warm_constants_table_makes_no_morrey_norm(monkeypatch):
    import mildlab.norms as norms

    config, _, _ = _forced_map_case(exponents_2d())
    calls = []
    real = norms.morrey_norm

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(norms, "morrey_norm", counted)
    cold = measured_constants(config, n_fields=1)
    assert len(calls) > 0
    calls.clear()
    assert measured_constants(config, n_fields=1) == cold
    assert calls == []


def test_cold_constants_transform_each_evolved_field_once(monkeypatch):
    # every request reads one set of evolved values, and each row is taken
    # forward only when its search convolves a radius: 54 forward transforms
    # when this was written
    exps = exponents_2d()
    grid = Grid(2, 16, 4.0)
    config = SolverConfig(exps=exps, grid=grid, time_grid=TimeGrid.spanning(0.1, 1.0, 4),
                          force=ForceField(radial_homogeneous_force(grid), exps.N1))
    forwards = []
    real = Grid.forward

    def counted(grid, values):
        forwards.append(values.shape)
        return real(grid, values)

    monkeypatch.setattr(Grid, "forward", counted)
    measured_constants(config, n_fields=2)
    assert len(forwards) <= 80


@pytest.mark.parametrize("n_fields", [0, -3])
def test_empty_smoothing_ensemble_is_rejected(n_fields):
    # no field measures no ratio: all-zero constants would be cached and
    # divide by zero in the table
    config, _, _ = _forced_map_case(exponents_2d())
    cached = set(config.grid._cache)
    with pytest.raises(ValueError, match=f"n_fields >= 1, got {n_fields}"):
        measured_constants(config, n_fields=n_fields)
    assert set(config.grid._cache) == cached


def test_velocity_self_product_needs_p1_at_least_two():
    # admissible, but C7's source pair (p/2, p1/2) is no Morrey pair
    exps = suggest_subindices(2, 0.0, 2.5, 3, 3)
    assert exps is not None and 1.9 < exps.p1 < 2
    grid = Grid(2, 8, 4.0)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 4)
    config = SolverConfig(exps=exps, grid=grid, time_grid=tg, quad_nodes=4)
    with pytest.raises(ValueError, match=r"p1 >= 2, got p1 = 1\.92"):
        measured_constants(config, n_fields=1)
    assert grid._cache == {}


@pytest.mark.parametrize("exps, distinct", [
    (exponents_2d(), 5),
    (exponents_3d(), 5),
    (suggest_subindices(3, 0.0, 5, 2.5, 4), 7),
], ids=["2d", "3d", "3d-p5-q2.5-r4"])
def test_rules_share_one_object_per_weight(exps, distinct):
    grid = Grid(exps.N, 8, 4.0)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 6)
    rules = SolverConfig(exps=exps, grid=grid, time_grid=tg, quad_nodes=4).rules()
    assert set(rules) == set(ALL_TAGS)
    assert len({id(rule) for rule in rules.values()}) == distinct
    # B444's a = 0.8 and L4's a = 0.7999999999999999 on the last set
    assert (rules["B444"] is rules["L4"]) == (exps.p == 5)


def test_config_rejects_gamma_other_than_the_exponents(small_grid, small_config):
    with pytest.raises(ValueError, match=r"gamma = 0\.3 .*gamma = 0\b"):
        SolverConfig(exps=exponents_2d(), grid=small_grid,
                     time_grid=small_config.time_grid, gamma=0.3)


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


def test_config_rejects_force_normed_at_another_n1(small_grid, small_config):
    # the force's Morrey norm at (N, N1) scales beta: another N1 moves the bound
    force = ForceField(radial_homogeneous_force(small_grid, amplitude=0.1), 1.2)
    with pytest.raises(ValueError, match=r"force is normed at N1 = 1\.2, the exponent "
                                         r"set's N1 = 2"):
        SolverConfig(exps=exponents_2d(), grid=small_grid,
                     time_grid=small_config.time_grid, force=force)


def test_data_or_trajectory_on_another_grid_is_rejected():
    # equal shapes, other wavenumbers: nothing fails unless the grids are compared
    grid, other = Grid(2, 32, 4.0), Grid(2, 32, 8.0)
    config = SolverConfig(exps=exponents_2d(), grid=grid, quad_nodes=4,
                          time_grid=TimeGrid.spanning(0.1, 1.0, 4))
    data, foreign = gaussian_data(grid, amplitude=0.01), gaussian_data(other, amplitude=0.01)
    both = (r"lives on Grid\(dim=2, m=32, L=8\.0\), "
            r"not on the solver grid Grid\(dim=2, m=32, L=4\.0\)")
    with pytest.raises(ValueError, match="data " + both):
        picard_solve(foreign, config)
    with pytest.raises(ValueError, match="data " + both):
        smallness_check(foreign, config, n_fields=1)
    with pytest.raises(ValueError, match="data " + both):
        picard_map(caloric_extension(data, 0.0, config.time_grid), foreign, config)
    with pytest.raises(ValueError, match="trajectory " + both):
        picard_map(caloric_extension(foreign, 0.0, config.time_grid), data, config)


@pytest.mark.parametrize("name", ["c", "v", "u"])
def test_state_with_a_component_on_another_grid_is_rejected(name):
    # equal shapes, other wavenumbers: n alone would pass the solver's grid check
    grid, other = Grid(2, 16, 4.0), Grid(2, 16, 8.0)
    config = SolverConfig(exps=exponents_2d(), grid=grid, quad_nodes=4,
                          time_grid=TimeGrid.spanning(0.1, 1.0, 4))
    data, foreign = gaussian_data(grid, amplitude=0.01), gaussian_data(other, amplitude=0.01)
    setattr(data, name, getattr(foreign, name))
    with pytest.raises(ValueError, match=rf"state component {name} lives on "
                                         r"Grid\(dim=2, m=16, L=8\.0\), "
                                         r"not on n's grid Grid\(dim=2, m=16, L=4\.0\)"):
        picard_solve(data, config)


@pytest.mark.parametrize("name, make", [
    ("points_per_axis", lambda grid: Grid(2, 16.7, 4.0)),
    ("count", lambda grid: TimeGrid(1.0, 2.0, 3.9)),
    ("count", lambda grid: TimeGrid(1.0, 2.0, math.inf)),
    ("center_stride", lambda grid: BallSampling(1.5, [0.5, 1.0])),
    ("quad_nodes", lambda grid: SolverConfig(exps=exponents_2d(), grid=grid,
                                             time_grid=TimeGrid(0.1, 2.0, 3), quad_nodes=4.5)),
    ("max_iters", lambda grid: SolverConfig(exps=exponents_2d(), grid=grid,
                                            time_grid=TimeGrid(0.1, 2.0, 3), max_iters=2.5)),
], ids=["grid", "time grid", "time grid inf", "sampling", "quad_nodes", "max_iters"])
def test_sizes_must_be_whole_numbers(small_grid, name, make):
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got"):
        make(small_grid)


def test_whole_sizes_of_any_number_type_are_kept(small_grid):
    assert Grid(2, 16.0, 4.0).m == 16 and TimeGrid(1.0, 2.0, np.int64(3)).count == 3
    assert BallSampling(np.float64(2.0), [0.5]).center_stride == 2
    config = SolverConfig(exps=exponents_2d(), grid=small_grid, time_grid=TimeGrid(0.1, 2.0, 3),
                          quad_nodes=4.0, max_iters=np.int64(3))
    assert (config.quad_nodes, config.max_iters) == (4, 3)
    assert all(type(v) is int for v in (config.quad_nodes, config.max_iters))


def test_lattice_shift_commutes_with_picard_map():
    # a shift by whole cells in physical space is exact on the lattice, so
    # it commutes with the map up to round-off, the velocity included
    grid = Grid(3, 16, 4.0)
    config = SolverConfig(exps=exponents_3d(), grid=grid, quad_nodes=12,
                          time_grid=TimeGrid.spanning(grid.spacing ** 2, 16.0, 12))
    axes = (-3, -2, -1)

    def shifted(field):
        return type(field).from_physical(grid, np.roll(field.to_physical(), (3, 5, 2), axis=axes))

    data = gaussian_data(grid, amplitude=1e-3)
    moved = StateTuple(0.0, *(shifted(getattr(data, name)) for name in "ncvu"))
    maps = [picard_map(caloric_extension(d, 0.0, config.time_grid), d, config)
            for d in (data, moved)]
    for name in "ncvu":
        want, got = (grid.backward(getattr(traj, name)) for traj in maps)
        want = np.roll(want, (3, 5, 2), axis=axes)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


def test_config_needs_two_quadrature_nodes(small_grid, small_config):
    with pytest.raises(ValueError, match="quad_nodes must be at least 2, got 1"):
        SolverConfig(exps=exponents_2d(), grid=small_grid,
                     time_grid=small_config.time_grid, quad_nodes=1)


def test_picard_solve_zero_data_converges_in_one(small_grid, small_config):
    traj, trace = picard_solve(StateTuple.zero(small_grid), small_config)
    assert trace.converged and trace.iterations == 1
    assert np.abs(traj.n).max() == 0.0


def test_picard_solve_nan_iterate_diverges(small_grid, small_config, monkeypatch):
    import mildlab.solver as solver

    def nan_map(traj, data, config):
        # a fixed point everywhere but one stored cell density, which blew up
        out = traj.copy()
        out.n[-1][(0,) * traj.grid.dim] = math.nan
        return out

    monkeypatch.setattr(solver, "picard_map", nan_map)
    _, trace = picard_solve(gaussian_data(small_grid, amplitude=0.01), small_config)
    assert trace.diverged and not trace.converged
    assert math.isnan(trace.diffs[-1])


def test_trajectory_difference_rejects_another_grid(small_grid, small_config):
    times = small_config.time_grid.times
    other = Grid(2, small_grid.m, 2 * small_grid.box_half_width)
    with pytest.raises(ValueError, match=r"L=10.0.*L=20.0"):
        Trajectory.zero(small_grid, times) - Trajectory.zero(other, times)


def test_picard_solve_differences_in_place(monkeypatch):
    # the successive difference is formed in the old iterate's arrays, never
    # as a third trajectory, and its norm is the one x_next - x would give
    grid = Grid(2, 32, 8.0)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 12)
    config = SolverConfig(exps=exponents_2d(), grid=grid, time_grid=tg, quad_nodes=8,
                          max_iters=3, tol=1e-12)
    data = scale_data(gaussian_data(grid), 0.05)
    _, expected = picard_solve(data, config)
    first = caloric_extension(data, 0.0, tg)
    first_diff = x_space_norms(picard_map(first, data, config) - first, config.exps).total

    def refused(self, other):
        raise AssertionError("picard_solve formed a third trajectory")

    monkeypatch.setattr(Trajectory, "__sub__", refused)
    _, trace = picard_solve(data, config)
    assert trace.as_dict() == expected.as_dict()
    assert trace.diffs[0] == first_diff


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
    table = ConstantsTable.assemble({**bil, "alpha": 0.0, "beta": 0.0}, c0=1.0, data_norm=0.0)
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
    t1 = ConstantsTable.assemble(c1, 1.0)
    t2 = ConstantsTable.assemble(c2, 1.0)
    assert t2.k1 > t1.k1 and t2.k2 > t1.k2


def test_constants_table_entries(small_solve_2d):
    # the names perfbench's TABLE_ENTRIES reads, and the data-dependent rest
    assert set(small_solve_2d["table"].as_dict()) == {
        "C1", "C2", "C3", "C4_1", "C4_2", "C4", "C5_1", "C5_2", "C5", "C6", "C7",
        "alpha", "beta", "K1", "K2", "C0", "epsilon", "delta", "data_norm_I", "small_enough"}


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


def test_small_data_3d_solve(small_solve_3d):
    # the paper's main case, N = 3, end to end at half the measured threshold
    data, traj, trace = (small_solve_3d[name] for name in ("data", "traj", "trace"))
    assert trace.converged and not trace.diverged
    assert all(r < 1.0 for r in trace.ratios)
    masses = traj.n[(slice(None), 0, 0, 0)].real
    m0 = data.n.coeffs[0, 0, 0].real
    assert np.abs(masses - m0).max() <= 1e-6 * abs(m0)
    for k in (0, len(traj) // 2, len(traj) - 1):
        assert traj.state(k).validate(div_tol=1e-10) == []
