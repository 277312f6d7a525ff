"""Morrey evaluator against an exhaustive brute-force oracle, norm axioms,
Besov-Morrey characterizations, and the trajectory norms."""

import math

import numpy as np
import pytest

from mildlab.grids import Grid, TimeGrid
from mildlab.spectral import SpectralField, gradient, heat_apply, rescale_field
from mildlab.fields import gaussian, random_band_limited, bump
from mildlab.norms import (MorreyIndex, BallSampling, LittlewoodPaleyBank, lattice_distances,
                           morrey_norm, besov_morrey_norm_heat, besov_morrey_norm_lp,
                           x_space_norms, data_norm_I, data_norm_components,
                           smoothing_constant)
from mildlab.state import StateTuple
from mildlab.admissibility import ExponentSet


def brute_force_morrey(values, grid, p, p1):
    """Exhaustive max over every grid center and every distinct periodic
    radius >= one spacing; cumulative sums in distance order."""
    mass = np.abs(values) ** p1 * grid.cell_volume
    m = grid.m
    per = np.minimum(np.arange(m), m - np.arange(m)) * grid.spacing
    if grid.dim == 2:
        dist = np.sqrt(per[:, None] ** 2 + per[None, :] ** 2)
    else:
        dist = np.sqrt(per[:, None, None] ** 2 + per[None, :, None] ** 2
                       + per[None, None, :] ** 2)
    weight_exp = grid.dim * (1.0 / p - 1.0 / p1)
    best = 0.0
    h = grid.spacing
    for center in np.ndindex(*grid.shape):
        d = np.roll(dist, center, axis=tuple(range(grid.dim))).ravel()
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        cum = np.cumsum(mass.ravel()[order])
        # last index of each distinct distance value
        boundary = np.r_[d_sorted[1:] != d_sorted[:-1], True]
        radii = d_sorted[boundary]
        sums = cum[boundary]
        keep = radii >= h * (1 - 1e-9)
        if keep.any():
            best = max(best, (radii[keep] ** weight_exp * sums[keep] ** (1.0 / p1)).max())
    return best


@pytest.fixture(scope="module")
def grid16():
    return Grid(2, 16, 2.0)


def test_zero_field_norm_zero(grid16):
    z = SpectralField.zero(grid16)
    assert morrey_norm(z, MorreyIndex(2, 1)) == 0.0


def test_p_equals_p1_is_global_lp(grid16):
    f = gaussian(grid16, a=0.05)
    for p in (2.0, 3.0):
        vals = f.to_physical()
        lp = (np.sum(np.abs(vals) ** p) * grid16.cell_volume) ** (1.0 / p)
        got = morrey_norm(f, MorreyIndex(p, p))
        assert abs(got - lp) / lp < 1e-10


def test_sup_norm_case(grid16):
    f = gaussian(grid16, a=0.1, amplitude=2.5)
    got = morrey_norm(f, MorreyIndex(math.inf, math.inf))
    assert abs(got - 2.5) < 1e-12


def test_unit_ball_indicator_matches_brute_force(grid16):
    vals = (grid16.radius() <= 1.0).astype(float)
    f = SpectralField.from_physical(grid16, vals)
    oracle = brute_force_morrey(vals, grid16, 2, 1)
    got = morrey_norm(f, MorreyIndex(2, 1))
    assert abs(got - oracle) / oracle < 0.02


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("idx", [(2, 1), (3, 2), (4, 1.5)])
def test_random_fields_match_brute_force(m, idx):
    grid = Grid(2, m, 1.0)
    p, p1 = idx
    for seed in range(5):
        f = random_band_limited(grid, seed=seed, corr_cells=3.0)
        vals = f.to_physical()
        oracle = brute_force_morrey(vals, grid, p, p1)
        got = morrey_norm(f, MorreyIndex(p, p1))
        assert abs(got - oracle) / oracle < 0.02


def test_homogeneity_and_triangle(grid16):
    idx = MorreyIndex(3, 1.5)
    f = random_band_limited(grid16, seed=1)
    g = random_band_limited(grid16, seed=2)
    nf = morrey_norm(f, idx)
    assert abs(morrey_norm(2.5 * f, idx) - 2.5 * nf) < 1e-12 * nf
    fg = SpectralField.from_physical(grid16, f.to_physical() + g.to_physical())
    assert morrey_norm(fg, idx) <= (nf + morrey_norm(g, idx)) * (1 + 1e-12)


def test_refining_sampling_never_decreases(grid16):
    f = random_band_limited(grid16, seed=9)
    idx = MorreyIndex(3, 2)
    h = grid16.spacing
    coarse = BallSampling(4, [h, 4 * h, 16 * h])
    finer_centers = BallSampling(2, [h, 4 * h, 16 * h])
    more_radii = BallSampling(4, [h, 2 * h, 4 * h, 8 * h, 16 * h])
    base = morrey_norm(f, idx, coarse)
    assert morrey_norm(f, idx, finer_centers) >= base - 1e-15
    assert morrey_norm(f, idx, more_radii) >= base - 1e-15


def test_holder_inequality_exact_on_shared_sampling(grid16):
    # 1/r = 1/p + 1/q and 1/r1 = 1/p1 + 1/q1
    trip = ((4, 3), (4, 3), (2, 1.5))
    (p, p1), (q, q1), (r, r1) = trip
    sampling = BallSampling.default_for(grid16)
    rng_seeds = range(20)
    for seed in rng_seeds:
        f = random_band_limited(grid16, seed=100 + seed)
        g = random_band_limited(grid16, seed=200 + seed)
        prod = SpectralField.from_physical(grid16, f.to_physical() * g.to_physical())
        lhs = morrey_norm(prod, MorreyIndex(r, r1), sampling)
        rhs = morrey_norm(f, MorreyIndex(p, p1), sampling) * \
            morrey_norm(g, MorreyIndex(q, q1), sampling)
        assert lhs <= rhs * (1 + 1e-12)


def test_besov_heat_rejects_nonnegative_s(grid16):
    with pytest.raises(ValueError):
        besov_morrey_norm_heat(gaussian(grid16), MorreyIndex(3, 2), 0.0)


def test_besov_heat_zero_field(grid16):
    assert besov_morrey_norm_heat(SpectralField.zero(grid16), MorreyIndex(3, 2), -1.0) == 0.0


def test_besov_heat_scaling_invariance():
    # critical norm: u vs lambda^{-s} u(lambda x) agree on a 4x-shifted grid
    grid = Grid(2, 64, 8.0)
    idx = MorreyIndex(2, 1.5)
    s = -1.0
    u = gaussian(grid, a=1.0)
    scaled = rescale_field(u, 2, degree=-s)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 64)
    tg_shift = TimeGrid.spanning(tg.t0 / 4, tg.times[-1] / 4, 64)
    a = besov_morrey_norm_heat(u, idx, s, tg)
    b = besov_morrey_norm_heat(scaled, idx, s, tg_shift)
    assert abs(a - b) / a < 0.10


def test_lp_partition_of_unity():
    grid = Grid(2, 32, 4.0)
    bank = LittlewoodPaleyBank(grid)
    assert bank.partition_defect() < 1e-10


def test_lp_single_annulus_field():
    # spectrum placed where phi_0 is identically 1 and the neighbors vanish
    grid = Grid(2, 32, 4 * np.pi)
    k = 1.0  # mode index 4: |xi| = 1 lies in [5/6, 3/2]
    vals = np.sin(k * (grid.x[0] + 0 * grid.x[1]))
    f = SpectralField.from_physical(grid, vals)
    bank = LittlewoodPaleyBank(grid)
    idx = MorreyIndex(3, 2)
    lp = besov_morrey_norm_lp(f, idx, s=-1.0, bank=bank)
    assert abs(lp - morrey_norm(f, idx)) < 1e-10 * morrey_norm(f, idx)


def test_lp_zero_field(grid16):
    assert besov_morrey_norm_lp(SpectralField.zero(grid16), MorreyIndex(3, 2), -1.0) == 0.0


def test_heat_vs_lp_within_factor_four():
    grid = Grid(2, 64, 8.0)
    idx = MorreyIndex(2, 1.5)
    for s in (-1.0, -0.5):
        for seed in range(5):
            f = random_band_limited(grid, seed=300 + seed)
            a = besov_morrey_norm_heat(f, idx, s)
            b = besov_morrey_norm_lp(f, idx, s)
            assert a / b < 4.0 and b / a < 4.0


def _exps_2d():
    return ExponentSet(N=2, gamma=0.0, p=4, q=3, r=4, p1=3, q1=9 / 4, r1=3, N1=2)


def test_x_norms_zero_trajectory(grid16):
    states = [StateTuple.zero(grid16, t=t) for t in (0.5, 1.0, 2.0)]
    rec = x_space_norms(states, _exps_2d())
    assert rec.total == 0.0


def test_x_norms_single_snapshot_unit_time(grid16):
    from mildlab.fields import solenoidal_gaussian
    n = gaussian(grid16, a=0.3, amplitude=0.7)
    c = gaussian(grid16, a=0.4, amplitude=0.2)
    v = SpectralField.from_physical(grid16, gaussian(grid16, a=0.5).to_physical(), pinned=True)
    u = solenoidal_gaussian(grid16, a=0.3, amplitude=0.1)
    st = StateTuple(1.0, n, c, v, u)
    exps = _exps_2d()
    rec = x_space_norms([st], exps)
    assert np.isclose(rec.n_norm, morrey_norm(n, MorreyIndex(exps.q, exps.q1)))
    assert np.isclose(rec.u_norm, morrey_norm(u, MorreyIndex(exps.p, exps.p1)))
    assert np.isclose(rec.c_norm,
                      np.abs(c.to_physical()).max()
                      + morrey_norm(gradient(c), MorreyIndex(exps.r, exps.r1)))


def test_x_norms_requires_increasing_times(grid16):
    states = [StateTuple.zero(grid16, t=1.0), StateTuple.zero(grid16, t=0.5)]
    with pytest.raises(ValueError):
        x_space_norms(states, _exps_2d())
    with pytest.raises(ValueError):
        x_space_norms([], _exps_2d())


def test_data_norm_zero_and_constant_c(grid16):
    exps = _exps_2d()
    zero = StateTuple.zero(grid16)
    assert data_norm_I(zero, exps) == 0.0
    c0 = SpectralField.from_physical(grid16, np.full(grid16.shape, 1.7))
    data = StateTuple(0.0, SpectralField.zero(grid16), c0,
                      SpectralField.zero(grid16, pinned=True),
                      __import__("mildlab.spectral", fromlist=["VectorField"]).VectorField.zero(grid16))
    assert abs(data_norm_I(data, exps) - 1.7) < 1e-12


def test_data_norm_rejects_inadmissible(grid16):
    bad = ExponentSet(N=2, gamma=0.0, p=4, q=1, r=4, p1=4, q1=1, r1=4, N1=2)
    with pytest.raises(ValueError):
        data_norm_I(StateTuple.zero(grid16), bad)


def test_data_norm_scale_invariance():
    # the sup window is capped below the box-homogenization scale: at 2D
    # criticality a mass-carrying field plateaus, and past ~L^2 the torus
    # mean takes over and corrupts the plateau
    from mildlab.spectral import VectorField, derivative
    from mildlab.fields import solenoidal_gaussian
    grid = Grid(2, 96, 12.0)
    exps = _exps_2d()
    # zero-mean cell density: a mass-carrying field at 2D criticality is
    # plateau-valued in time and the plateau collides with the torus mean
    n0 = derivative(gaussian(grid, a=1.0, amplitude=0.3), 0)
    c0 = gaussian(grid, a=1.5, amplitude=0.2)
    v0 = SpectralField(grid, derivative(gaussian(grid, a=1.2), 1).coeffs, pinned=True)
    u0 = solenoidal_gaussian(grid, a=1.0, amplitude=0.25)
    data = StateTuple(0.0, n0, c0, v0, u0)
    lam = 2
    scaled = StateTuple(0.0, rescale_field(n0, lam, 2.0), rescale_field(c0, lam, 0.0),
                        rescale_field(v0, lam, 0.0),
                        VectorField([rescale_field(comp, lam, 1.0) for comp in u0.components]))
    tg = TimeGrid.spanning(grid.spacing ** 2, 25.0, 64)
    a = data_norm_I(data, exps, time_grid=tg)
    b = data_norm_I(scaled, exps, time_grid=tg)
    assert abs(a - b) / a < 0.10


def test_smoothing_constant_finite_and_cached():
    grid = Grid(2, 32, 4.0)
    c1 = smoothing_constant(grid, MorreyIndex(2, 1.5), MorreyIndex(4, 3), derivative=False,
                            n_fields=4)
    c2 = smoothing_constant(grid, MorreyIndex(2, 1.5), MorreyIndex(4, 3), derivative=False,
                            n_fields=4)
    assert 0 < c1 < np.inf and c1 == c2
    with pytest.raises(ValueError):
        smoothing_constant(grid, MorreyIndex(4, 3), MorreyIndex(2, 1.5))


def test_smoothing_cache_keeps_samplings_apart():
    import mildlab.norms as norms

    grid = Grid(2, 32, 4.0)
    src, dst = MorreyIndex(2, 1.5), MorreyIndex(4, 3)
    default = BallSampling.default_for(grid)
    coarse = BallSampling(2, default.radii[::2] + default.radii[-1:])
    c_default = smoothing_constant(grid, src, dst, n_fields=2)
    c_coarse = smoothing_constant(grid, src, dst, n_fields=2, sampling=coarse)
    norms._SMOOTHING_CACHE.clear()
    fresh_coarse = smoothing_constant(grid, src, dst, n_fields=2, sampling=coarse)
    fresh_default = smoothing_constant(grid, src, dst, n_fields=2, sampling=default)
    assert c_coarse == fresh_coarse and c_default == fresh_default
    assert c_coarse != c_default


def test_smoothing_cache_never_shares_between_grids():
    import mildlab.norms as norms

    # CPython hands a freed grid's id() to a later grid; allocate 64^2 grids
    # until one takes the freed 16^2 grid's id (or give up after 64)
    src, dst = MorreyIndex(2, 1.5), MorreyIndex(4, 3)
    small = Grid(2, 16, 4.0)
    smoothing_constant(small, src, dst, n_fields=1)
    freed = id(small)
    del small
    later = [Grid(2, 64, 4.0)]
    while id(later[-1]) != freed and len(later) < 64:
        later.append(Grid(2, 64, 4.0))
    cached = smoothing_constant(later[-1], src, dst, n_fields=1)
    norms._SMOOTHING_CACHE.clear()
    assert cached == smoothing_constant(later[-1], src, dst, n_fields=1)


def test_smoothing_cache_is_bounded(monkeypatch):
    import mildlab.norms as norms

    monkeypatch.setattr(norms, "_SMOOTHING_CACHE_SIZE", 2)
    grid = Grid(2, 16, 2.0)
    for seed in range(3):
        smoothing_constant(grid, MorreyIndex(2, 1.5), MorreyIndex(4, 3), n_fields=1,
                           seed=seed)
    assert len(norms._SMOOTHING_CACHE) == 2
