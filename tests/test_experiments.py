"""Self-similarity residuals, decay-rate fits, and the stability probe."""

import numpy as np
import pytest

from mildlab.grids import Grid, TimeGrid
from mildlab.spectral import SpectralField, VectorField
from mildlab.fields import (gaussian, homogeneous_scalar, azimuthal_homogeneous_velocity,
                            bump)
from mildlab.state import StateTuple, Trajectory
from mildlab.norms import x_space_series
from mildlab.solver import caloric_extension
import mildlab.experiments as experiments
from mildlab.experiments import (SelfSimilarWindow, verify_self_similar, fit_decay_rate,
                                 tail_decreasing, asymptotic_stability_run)

from conftest import exponents_2d


def homogeneous_data_2d(grid, amplitude=0.02):
    n0 = homogeneous_scalar(grid, -2.0, amplitude=amplitude, sigma_cells=2.0)
    c0 = SpectralField.from_physical(grid, np.full(grid.shape, amplitude))
    v0 = SpectralField(grid, homogeneous_scalar(
        grid, 0.0, amplitude=amplitude, sigma_cells=2.0,
        angular=lambda g, r: g.x[0] / r).coeffs, pinned=True)
    u0 = azimuthal_homogeneous_velocity(grid, amplitude=amplitude, sigma_cells=2.0)
    return StateTuple(0.0, n0, c0, v0, u0)


def test_window_must_be_nonempty():
    grid = Grid(2, 32, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 2.0, 4).times)
    # no lattice distance lies strictly between h and h*sqrt(2)
    bad = SelfSimilarWindow(0.315, 0.325)
    with pytest.raises(ValueError, match="window"):
        verify_self_similar(traj, [1], bad)


def test_verify_requires_zero_gamma():
    grid = Grid(2, 32, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 2.0, 4).times)
    with pytest.raises(ValueError, match="gamma"):
        verify_self_similar(traj, [2], SelfSimilarWindow.default_for(grid), gamma=0.5)


def test_lambda_one_residual_exactly_zero():
    grid = Grid(2, 48, 8.0)
    tg = TimeGrid(grid.spacing ** 2, 2.0, 10)
    data = homogeneous_data_2d(grid)
    traj = caloric_extension(data, 0.0, tg)
    window = SelfSimilarWindow(4 * grid.spacing, grid.box_half_width / 2.0)
    out = verify_self_similar(traj, [1], window)
    assert all(v == 0.0 for v in out.per_component.values())


def test_caloric_residual_small_for_scaling_data():
    # caloric flow of mollified homogeneous data: scaling relation within
    # 1e-2 in the washed space-time window
    grid = Grid(2, 96, 1.0)
    h = grid.spacing
    tg = TimeGrid.spanning(h ** 2, grid.box_half_width ** 2, 49)
    data = homogeneous_data_2d(grid, amplitude=0.05)
    traj = caloric_extension(data, 0.0, tg)
    window = SelfSimilarWindow(8 * h, grid.box_half_width / 4.0,
                               t_min=64 * h ** 2, t_max=grid.box_half_width ** 2 / 16.0)
    out = verify_self_similar(traj, [2], window)
    assert max(out.per_component.values()) < 1e-2, out


@pytest.mark.parametrize("ratio, pairs", [(4 ** (1 / 8), 7), (1.175, 0)])
def test_self_similar_counts_compared_time_pairs(ratio, pairs):
    # lambda = 2 compares t with 4 t: eight steps of the ratio 4^(1/8), no
    # stored time for the ratio 1.175 (4 t falls 8.59 steps on)
    grid = Grid(2, 32, 4.0)
    tg = TimeGrid(0.01, ratio, 16)
    traj = caloric_extension(homogeneous_data_2d(grid), 0.0, tg)
    window = SelfSimilarWindow(4 * grid.spacing, grid.box_half_width / 2.0,
                               t_min=tg.times[1], t_max=tg.times[-1])
    assert verify_self_similar(traj, [2], window).pairs == pairs


def test_fit_exact_power_law():
    grid = Grid(2, 16, 4.0)
    tg = TimeGrid(0.05, 1.5, 14)
    base = gaussian(grid, a=1.0)
    states = [StateTuple(t, t ** (-0.5) * base, t ** (-0.5) * base,
                         SpectralField(grid, (t ** (-0.5) * base).coeffs, pinned=True),
                         VectorField.from_components([t ** (-0.5) * base] * 2)) for t in tg.times]
    traj = Trajectory.from_states(states)
    for component in ("n", "grad_c", "grad_v", "u"):
        fit = fit_decay_rate(traj, component, exponents_2d())
        assert abs(fit.fitted + 0.5) < 1e-10, component


@pytest.mark.parametrize("component", ["n", "u"])
def test_fit_norms_only_its_component(small_solve_2d, component, monkeypatch):
    # all five series of the 36 stored times take 485 backward transforms
    traj, exps = small_solve_2d["traj"], small_solve_2d["exps"]
    full = x_space_series(traj, exps)[component]  # also fills the ball caches
    backwards, series = [], []
    real, real_series = Grid.backward, experiments.weighted_series

    def counted(grid, coeffs):
        backwards.append(coeffs.shape)
        return real(grid, coeffs)

    def kept(*args):
        series.append(real_series(*args))
        return series[-1]

    monkeypatch.setattr(Grid, "backward", counted)
    monkeypatch.setattr(experiments, "weighted_series", kept)
    fit_decay_rate(traj, component, exps)
    assert len(series) == 1 and np.array_equal(series[0], full)
    # 85 (n) and 119 (u) when this was written
    assert len(backwards) <= 160


def test_fit_zero_component_not_applicable():
    grid = Grid(2, 16, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 1.5, 12).times)
    fit = fit_decay_rate(traj, "n", exponents_2d())
    assert not fit.applicable


@pytest.mark.parametrize("component", ["c_sup", "c", "grad_n"])
def test_fit_rejects_a_term_without_a_predicted_rate(component):
    # c_sup is an X-norm term, but unweighted: the space predicts no decay
    grid = Grid(2, 16, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 1.5, 12).times)
    with pytest.raises(ValueError, match=f"no predicted rate for component '{component}'"):
        fit_decay_rate(traj, component, exponents_2d())


def test_caloric_gaussian_decay_2d():
    # closed form: the q-norm of a spreading 2D Gaussian falls at rate
    # (N/2)(1 - 1/q) = 2/3 once t >> a; critical prediction is l_q = 2/3
    grid = Grid(2, 96, 24.0)
    a = 0.04
    tg = TimeGrid.spanning(0.2, 16.0, 24)
    data = StateTuple(0.0, gaussian(grid, a=a), SpectralField.zero(grid),
                      SpectralField.zero(grid), VectorField.zero(grid))
    traj = caloric_extension(data, 0.0, tg)
    fit = fit_decay_rate(traj, "n", exponents_2d())
    assert abs(fit.fitted - (-2.0 / 3.0)) / (2.0 / 3.0) < 0.05
    # here the caloric rate coincides with the critical rate
    assert fit.deviation < 0.05


def test_tail_decreasing_logic():
    times = np.geomspace(0.1, 100.0, 30)
    decreasing = times ** -0.5
    flat = np.ones_like(times)
    zero = np.zeros_like(times)
    assert tail_decreasing(times, decreasing)
    assert not tail_decreasing(times, flat)
    assert tail_decreasing(times, zero)
    assert not tail_decreasing(times, times ** 0.2)


def test_stability_identical_data(small_solve_2d):
    config = small_solve_2d["config"]
    data = small_solve_2d["data"]
    report = asymptotic_stability_run(data, data, config)
    assert report.identical and not report.diverged
    for series in list(report.volta.values()) + list(report.ida.values()):
        assert np.all(series == 0.0)
    assert report.all_tails_decreasing()


def test_stability_bump_perturbation_2d(small_solve_2d):
    # at N = 2 an integrable bump sits exactly at criticality in the
    # n-norm (flat tail); the other four weighted differences decay
    config = small_solve_2d["config"]
    data = small_solve_2d["data"]
    table = small_solve_2d["table"]
    grid = small_solve_2d["grid"]
    pert = bump(grid, radius=2.0, amplitude=0.01 * table.delta, center=(1.5, -1.0))
    data2 = StateTuple(0.0, data.n + pert, data.c + pert, data.v, data.u)
    report = asymptotic_stability_run(data, data2, config, constants=table)
    assert not report.diverged and not report.identical
    for name in ("c_sup", "grad_c", "grad_v", "u"):
        assert report.ida_decreasing[name], name
    swapped = asymptotic_stability_run(data2, data, config, constants=table)
    for name, series in report.volta.items():
        assert np.allclose(series, swapped.volta[name], rtol=1e-10, atol=1e-300)
