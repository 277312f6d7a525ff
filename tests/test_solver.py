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
from mildlab.duhamel import ForceField, ConstantsTable, ALL_TAGS, TERMS, constant_bound, \
    QuadratureRule
from mildlab.norms import BallSampling, MorreyIndex, x_space_norms, smoothing_constant, \
    data_norm_I
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


def test_smallness_check_norms_the_data_it_evolves():
    # the data norm, C0 and the verdict are those of the projected datum
    # that the caloric extension and the solve evolve, not of the raw one
    grid = Grid(2, 32, 8.0)
    config = SolverConfig(exps=exponents_2d(), grid=grid, quad_nodes=8, max_iters=2,
                          time_grid=TimeGrid.spanning(grid.spacing ** 2,
                                                      grid.box_half_width ** 2, 12))
    base, g = gaussian_data(grid, 0.01), gaussian(grid, a=1.0, amplitude=0.01)
    data = StateTuple(0.0, base.n, base.c, base.v, VectorField.from_components([g, g]))
    projected = StateTuple(0.0, data.n, data.c, data.v, leray_project(data.u))

    def warned_once(apply):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = apply()
        assert [str(w.message).endswith("projecting") for w in caught] == [True]
        return result

    table = warned_once(lambda: smallness_check(data, config, n_fields=2))
    warned_once(lambda: picard_solve(data, config))
    norm = data_norm_I(projected, config.exps, time_grid=config.time_grid)
    caloric = caloric_extension(projected, 0.0, config.time_grid)
    assert table.data_norm == norm
    assert table.c0 == x_space_norms(caloric, config.exps).total / norm


@pytest.mark.parametrize("gamma", [0.0, 0.7], ids=["undamped", "damped"])
def test_the_attractant_mean_is_pinned_in_the_output(gamma):
    # v0 with a nonzero mean evolves as the pinned v0 does, but for v's zero
    # mode, which the caloric extension and the map both set to exactly 0.0
    grid = Grid(2, 16, 4.0)
    config = _map_config(grid, gamma, 0.5, nodes=4)
    data = gaussian_data(grid, amplitude=0.1)
    v0 = gaussian(grid, a=1.2, amplitude=0.1, center=(0.4, 0.8))
    lifted = StateTuple(0.0, data.n, data.c, v0, data.u)
    pinned = StateTuple(0.0, data.n, data.c, SpectralField(grid, v0.coeffs, pinned=True), data.u)
    zero = (slice(None),) + (0,) * grid.dim
    assert v0.coeffs[zero[1:]] != 0.0
    traj = caloric_extension(pinned, gamma, config.time_grid)
    for apply in (lambda data: caloric_extension(data, gamma, config.time_grid),
                  lambda data: picard_map(traj, data, config)):
        got, want = apply(lifted), apply(pinned)
        assert np.all(got.v[zero] == 0.0)
        assert got.array.tobytes() == want.array.tobytes()


def test_picard_map_zero_everything(small_grid, small_config):
    zero_traj = Trajectory.zero(small_grid, small_config.time_grid.times)
    out = picard_map(zero_traj, StateTuple.zero(small_grid), small_config)
    assert np.abs(out.array).max() == 0.0


def test_picard_map_zero_trajectory_returns_caloric(small_grid, small_config):
    data = scale_data(gaussian_data(small_grid), 0.01)
    caloric = caloric_extension(data, 0.0, small_config.time_grid)
    zero_traj = Trajectory.zero(small_grid, small_config.time_grid.times)
    out = picard_map(zero_traj, data, small_config)
    assert np.array_equal(out.array, caloric.array)


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


@pytest.mark.parametrize("dim, m, gamma, force_amplitude, nan_out", [
    pytest.param(2, 32, 0.7, 0.5, False, id="2-32-0.7-0.5"),
    pytest.param(2, 32, 0.7, 0.0, False, id="2-32-0.7-0.0"),
    pytest.param(3, 16, 0.0, 0.5, False, id="3-16-0.0-0.5"),
    # the store lives in out's rows: a row read after its output overwrote
    # it would carry NaN into the map, which the reference never reads
    pytest.param(3, 16, 0.0, 0.5, True, id="3-16-0.0-0.5-nan-out"),
])
def test_picard_map_matches_per_node_reference(dim, m, gamma, force_amplitude, nan_out):
    grid = Grid(dim, m, 4.0)
    config = _map_config(grid, gamma, force_amplitude, nodes=12)
    data = gaussian_data(grid)
    # a generic (non-caloric) input: the caloric extension mapped once
    traj = picard_map(caloric_extension(data, gamma, config.time_grid), data, config)
    caloric = caloric_extension(data, gamma, config.time_grid)
    mapped = picard_map(traj, data, config, out=_nan_like(traj) if nan_out else None)
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
    # damping shifts the decay rates of B343 and L3, not their rules
    (exponents_2d(0.7), 5),
    (exponents_3d(0.7), 5),
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
    # one build per rule and output time
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

    def recorded(t, rule, times, rates):
        built.append(((rule.a, rule.b), len(rates)))
        return build(t, rule, times, rates)

    monkeypatch.setattr(solver, "_duhamel_weights", recorded)
    picard_map(traj, data, config)
    k2_all = grid.k2.reshape(-1)
    k2_products = grid.k2[grid.dealias_mask]
    assert len(np.unique(k2_products)) < len(np.unique(k2_all))
    # a rule's weights live on the distinct decay rates of its terms: |xi|^2
    # on the modes a term reads (L3 every mode, a product the dealiased
    # ones), plus gamma when the term feeds v
    rules = config.rules()
    rates = {(rule.a, rule.b): np.unique(np.concatenate([
        (k2_all if tag == "L3" else k2_products) + (exps.gamma if target == "v" else 0.0)
        for tag, (_, target) in TERMS.items() if rules[tag] is rule]))
        for rule in set(rules.values())}
    for exponents, width in built:
        assert width == len(rates[exponents]), exponents
    assert sorted(exponents for exponents, _ in built) == sorted(list(rates) * len(traj))


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


def test_config_reports_a_nan_gamma_by_its_clause(small_grid, small_config):
    with pytest.raises(ValueError, match=r"^exponents are not admissible: "
                                         r"gamma >= 0 fails for gamma=nan$"):
        SolverConfig(exps=exponents_2d(math.nan), grid=small_grid,
                     time_grid=small_config.time_grid, gamma=math.nan)


@pytest.mark.parametrize("changes, message", [
    (dict(max_iters=0), "max_iters must be >= 1"),
    (dict(max_iters=-2), "max_iters must be >= 1"),
    (dict(tol=0.0), "tol must be positive"),
    (dict(tol=-1e-8), "tol must be positive"),
    (dict(tol=math.nan), "tol must be finite, got nan"),
    (dict(tol=math.inf), "tol must be finite, got inf"),
], ids=["max_iters 0", "max_iters negative", "tol 0", "tol negative", "tol nan", "tol inf"])
def test_config_rejects_bad_iteration_limits(small_config, changes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(small_config, **changes)


@pytest.mark.parametrize("times", [lambda tg: tg.times[:-1], lambda tg: 1.5 * tg.times],
                         ids=["fewer times", "other times"])
def test_picard_map_rejects_a_trajectory_on_another_time_grid(small_grid, small_config, times):
    traj = Trajectory.zero(small_grid, times(small_config.time_grid))
    with pytest.raises(ValueError, match="^trajectory is not defined on the configured time grid$"):
        picard_map(traj, StateTuple.zero(small_grid), small_config)


def test_picard_map_rejects_twice_the_times_of_a_tiny_box():
    # on a 1e-5 box every stored time is below numpy's default allclose
    # atol, so only exact equality tells the time grids apart
    grid = Grid(2, 16, 1e-5)
    time_grid = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 10)
    config = SolverConfig(exps=exponents_2d(), grid=grid, time_grid=time_grid)
    doubled = Trajectory.zero(grid, 2.0 * time_grid.times)
    with pytest.raises(ValueError, match="^trajectory is not defined on the configured time grid$"):
        picard_map(doubled, StateTuple.zero(grid), config)
    with pytest.raises(ValueError, match="^trajectories live on different time grids$"):
        doubled - Trajectory.zero(grid, time_grid.times)


def test_picard_map_with_an_all_zero_force_is_the_map_without_one(monkeypatch):
    import mildlab.solver as solver
    grid = Grid(2, 16, 4.0)
    config = _map_config(grid, 0.7, 0.0, nodes=8)
    zero = dataclasses.replace(config, force=ForceField(VectorField.zero(grid), config.exps.N1))
    data = gaussian_data(grid)
    traj = picard_map(caloric_extension(data, 0.7, config.time_grid), data, config)
    forces = []
    store = solver._integrand_store
    monkeypatch.setattr(solver, "_integrand_store",
                        lambda traj, force, cell, buffer:
                        forces.append(force) or store(traj, force, cell, buffer))
    expected, mapped = picard_map(traj, data, config), picard_map(traj, data, zero)
    # the zero force makes no L4 stack: the store is built as without a force
    assert forces == [None, None]
    assert np.array_equal(mapped.array, expected.array)


def test_picard_map_checks_every_stored_velocity(small_grid, small_config):
    data = scale_data(gaussian_data(small_grid), 0.01)
    traj = caloric_extension(data, 0.0, small_config.time_grid)
    bad = gaussian(small_grid, a=1.0).coeffs
    traj.u[3, 0] += 1e-3 * bad * np.abs(traj.u[3]).max() / np.abs(bad).max()
    with pytest.raises(ValueError, match="not solenoidal"):
        picard_map(traj, data, small_config)


def test_picard_map_rejects_a_nan_velocity():
    # a NaN velocity has a NaN divergence defect, which fails "defect <= 1e-8"
    grid = Grid(2, 16, 4.0)
    config = SolverConfig(exps=exponents_2d(), grid=grid, quad_nodes=4,
                          time_grid=TimeGrid.spanning(grid.spacing ** 2, 16.0, 6))
    data = gaussian_data(grid, amplitude=0.01)
    traj = caloric_extension(data, 0.0, config.time_grid)
    traj.u[3] = math.nan
    with pytest.raises(ValueError, match=r"^velocity along the trajectory is not "
                                         r"solenoidal \(defect nan\)$"):
        picard_map(traj, data, config)


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
    ("node_count", lambda grid: QuadratureRule(0.1, 0.2, 4.5)),
    ("N", lambda grid: dataclasses.replace(exponents_2d(), N=2.5)),
], ids=["grid", "time grid", "time grid inf", "sampling", "quad_nodes", "max_iters",
        "node_count", "N"])
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


def _shift(values, name, dim):
    return np.roll(values, (3, 5, 2)[:dim], axis=tuple(range(-dim, 0)))


def _swap(values, name, dim):
    # x <-> y; a vector (u, or the force "f") swaps its x and y components too
    values = np.swapaxes(values, -dim, 1 - dim)
    if name in ("u", "f"):
        return np.take(values, [1, 0] + list(range(2, dim)), axis=-1 - dim)
    return values


def _scale(values, name, dim):
    # the same arrays on a box of half the width are the flow scaled by 2:
    # n, u and the force carry the factors 2^2, 2 and 2, c and v none
    return {"n": 4.0, "u": 2.0, "f": 2.0}.get(name, 1.0) * values


# (dimension, map of a field's physical values, box width factor of the moved flow)
FLOW_MOVES = {"shift": (2, _shift, 1.0), "swap": (2, _swap, 1.0),
              "3d-shift": (3, _shift, 1.0), "3d-swap": (3, _swap, 1.0),
              "scale": (2, _scale, 0.5), "3d-scale": (3, _scale, 0.5)}


@pytest.mark.parametrize("dim, how, width", FLOW_MOVES.values(), ids=FLOW_MOVES.keys())
def test_whole_flow_commutes_with_a_lattice_symmetry(dim, how, width):
    # a cold check, a rescale to half the threshold, a warm check and the
    # solve, on data and force moved by a lattice shift, an x <-> y swap or
    # the parabolic scaling by 2 (every stored time / 4, every decay rate
    # x 4): the warm table, the X-norm trace and the iteration count are
    # those of the unmoved flow, and the states are its states moved (all
    # within 7.4e-16 measured)
    grid = Grid(2, 32, 8.0) if dim == 2 else Grid(3, 16, 4.0)
    moved_grid = Grid(dim, grid.m, width * grid.box_half_width)
    exps = exponents_2d() if dim == 2 else exponents_3d()

    def moved(field, name):
        return type(field).from_physical(moved_grid, how(field.to_physical(), name, dim))

    def flow(data, force):
        grid = data.grid
        tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 12)
        config = SolverConfig(exps=exps, grid=grid, time_grid=tg, quad_nodes=8,
                              force=ForceField(force, exps.N1))
        cold = smallness_check(data, config)
        data = scale_data(data, 0.5 * cold.delta / cold.data_norm)
        warm = smallness_check(data, config)
        return (warm,) + picard_solve(data, config, constants=warm)

    data, force = gaussian_data(grid), radial_homogeneous_force(grid, amplitude=0.02)
    table, traj, trace = flow(data, force)
    m_table, m_traj, m_trace = flow(StateTuple(0.0, *(moved(getattr(data, name), name)
                                                      for name in "ncvu")), moved(force, "f"))
    assert np.array_equal(m_traj.times, width ** 2 * traj.times)
    assert trace.converged and m_trace.iterations == trace.iterations
    assert np.allclose(m_trace.x_norms, trace.x_norms, rtol=1e-14, atol=0.0)
    want = table.as_dict()
    for name, got in m_table.as_dict().items():
        assert got == pytest.approx(want[name], rel=1e-14, abs=0.0), name
    for name in "ncvu":
        expected = how(grid.backward(getattr(traj, name)), name, dim)
        got = moved_grid.backward(getattr(m_traj, name))
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max(), name


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

    def nan_map(traj, data, config, out=None):
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


def test_trajectory_difference_rejects_another_time_grid(small_grid, small_config):
    times = small_config.time_grid.times
    with pytest.raises(ValueError, match="^trajectories live on different time grids$"):
        Trajectory.zero(small_grid, times) - Trajectory.zero(small_grid, 2.0 * times)


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
    assert dataclasses.asdict(trace) == dataclasses.asdict(expected)
    assert trace.diffs[0] == first_diff


def _nan_like(traj):
    """A trajectory on traj's grid and times with every entry NaN."""
    return Trajectory(traj.grid, traj.times.copy(), np.full_like(traj.array, math.nan))


@pytest.mark.parametrize("exps", [exponents_2d(0.7), exponents_3d()], ids=["2d-damped", "3d"])
def test_map_and_caloric_extension_overwrite_every_entry_of_out(exps):
    # the map of the zero trajectory is the caloric extension: its caloric
    # rows alone overwrite every entry of out (equal up to the sign of a
    # zero, and NaN equals nothing), as the full map's rows do bitwise
    config, caloric, data = _forced_map_case(exps)
    out = _nan_like(caloric)
    assert picard_map(Trajectory.zero(config.grid, caloric.times), data, config, out=out) is out
    assert np.array_equal(out.array, caloric.array)
    expected, out = picard_map(caloric, data, config), _nan_like(caloric)
    assert picard_map(caloric, data, config, out=out) is out
    assert out.array.tobytes() == expected.array.tobytes()


OUT_ON_ANOTHER_GRID_OR_LAYOUT = {
    "other grid": (lambda traj: Trajectory.zero(Grid(2, 8, 8.0), traj.times),
                   r"^out lives on Grid\(dim=2, m=8, L=8\.0\), not on the solver grid "
                   r"Grid\(dim=2, m=8, L=4\.0\)$"),
    "other times": (lambda traj: Trajectory.zero(traj.grid, 1.5 * traj.times),
                    "^out is not defined on the configured time grid$"),
    # an out whose array the maps cannot write into is refused when it is
    # built, so it never reaches them
    "fortran order": (lambda traj: Trajectory(traj.grid, traj.times,
                                              np.asfortranarray(traj.array)),
                      "^trajectory array must be complex and C-contiguous"),
    "real": (lambda traj: Trajectory(traj.grid, traj.times, traj.array.real.copy()),
             "^trajectory array must be complex and C-contiguous"),
}
SHARED = "^out shares memory with an input, which is read while out is written$"
OUT_SHARING_MEMORY = {
    "out is traj": (lambda traj: traj, SHARED),
    "out views traj array": (lambda traj: Trajectory(traj.grid, traj.times, traj.array.view()),
                             SHARED),
}


@pytest.mark.parametrize("make_out, message",
                         (OUT_ON_ANOTHER_GRID_OR_LAYOUT | OUT_SHARING_MEMORY).values(),
                         ids=(OUT_ON_ANOTHER_GRID_OR_LAYOUT | OUT_SHARING_MEMORY).keys())
def test_picard_map_rejects_an_out_it_cannot_write(make_out, message):
    config, traj, data = _forced_map_case(exponents_2d())
    with pytest.raises(ValueError, match=message):
        picard_map(traj, data, config, out=make_out(traj))


@pytest.mark.parametrize("apply", [
    lambda data, config, traj, out: picard_map(traj, data, config, out=out),
], ids=["picard_map"])
def test_out_may_not_hold_the_data(apply):
    # data whose fields view out's first row would change as the rows are written
    config, traj, data = _forced_map_case(exponents_2d())
    out = traj.copy()
    with pytest.raises(ValueError, match=SHARED):
        apply(out.state(0), config, traj, out)


def test_picard_solve_maps_into_two_trajectories(monkeypatch):
    import mildlab.solver as solver
    grid = Grid(2, 32, 8.0)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 12)
    config = SolverConfig(exps=exponents_2d(), grid=grid, time_grid=tg, quad_nodes=8,
                          max_iters=3, tol=1e-12)
    calls = []
    picard_map = solver.picard_map

    def spy(traj, data, config, out=None):
        calls.append((traj, out, picard_map(traj, data, config, out=out)))
        return calls[-1][-1]

    monkeypatch.setattr(solver, "picard_map", spy)
    final, trace = picard_solve(scale_data(gaussian_data(grid), 0.05), config)
    assert trace.iterations == len(calls) == 3
    # the caloric extension and the first map's new output
    caloric, first_out, first = calls[0]
    assert first_out is None and first is not caloric
    pair = (caloric, first)
    for traj, out, result in calls[1:]:
        assert result is out and out is not traj
        assert any(out is kept for kept in pair) and any(traj is kept for kept in pair)
    assert any(final is kept for kept in pair)


def _traced_maps_3d(monkeypatch):
    """A 4-map solve on 16^3 with 12 stored times, with each map's rise of
    the traced peak over the memory traced at its start, and the bytes of
    each map's product stacks (L3's view of n aside); returns the rises,
    the stack bytes and the solve's trajectory."""
    import tracemalloc
    import mildlab.solver as solver
    grid = Grid(3, 16, 4.0)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 12)
    config = SolverConfig(exps=exponents_3d(), grid=grid, time_grid=tg, quad_nodes=8,
                          max_iters=4, tol=1e-300)
    rises, store_bytes = [], []
    picard_map, store = solver.picard_map, solver._integrand_store

    def traced(*args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = picard_map(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - start)
        return result

    def measured(*args):
        stacks = store(*args)
        store_bytes.append(sum(stack.nbytes for tags, (_, stack) in stacks.items()
                               if tags != ("L3",)))
        return stacks

    monkeypatch.setattr(solver, "picard_map", traced)
    monkeypatch.setattr(solver, "_integrand_store", measured)
    tracemalloc.start()
    try:
        traj, trace = picard_solve(scale_data(gaussian_data(grid), 0.05), config)
    finally:
        tracemalloc.stop()
    assert trace.iterations == len(rises) == len(store_bytes) == 4
    return rises, store_bytes, traj


def test_picard_maps_after_the_first_allocate_less_than_a_trajectory(monkeypatch):
    # only the first map allocates its output trajectory
    rises, _, traj = _traced_maps_3d(monkeypatch)
    trajectory_bytes = traj.array.nbytes
    assert rises[0] > trajectory_bytes
    assert all(rise < trajectory_bytes for rise in rises[1:]), (rises, trajectory_bytes)


def test_picard_maps_after_the_first_allocate_less_than_their_integrand_store(monkeypatch):
    # the store is written into the output's rows, so no map allocates one;
    # a map's rise is the row buffer, the weights and the per-time
    # temporaries (837-839 KB against a 953 KB store, measured)
    rises, store_bytes, _ = _traced_maps_3d(monkeypatch)
    assert all(rise < size for rise, size in zip(rises[1:], store_bytes[1:])), \
        (rises, store_bytes)


def test_picard_map_output_reads_no_later_stored_time():
    # output k integrates over tau < t_k: a stored state past k, even a NaN
    # one, leaves it bitwise unchanged (the clamp below t_0 weighs row 1 by
    # an exact zero at k = 0, a weight the map does not apply)
    config, caloric, data = _forced_map_case(exponents_3d())
    traj = picard_map(caloric, data, config)
    expected = picard_map(traj, data, config)
    for j in (1, 3):
        spoiled = traj.copy()
        spoiled.n[j] = math.nan
        mapped = picard_map(spoiled, data, config)
        assert mapped.array[:j].tobytes() == expected.array[:j].tobytes(), j
        assert np.isnan(mapped.n[j]).any(), j


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
